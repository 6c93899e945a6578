"""Self-tests of the benchmark, at tiny sizes.

    python3 -m pytest perfbench/tests -q

They are not part of the program's test suite (pyproject's testpaths names
only tests/), and they take about ten seconds.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ebtruth  # noqa: E402
import run as runner  # noqa: E402
import workloads as wl  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY = {
    "simulate": dict(replicates=300, n_grid=(1, 2), m_grid=(5, 10)),
    "conditions": dict(replicates=300),
    "evaluate": dict(samples=200, cli_samples=20, workers=12, questions=120),
    "scalar": dict(rounds=3),
}
# a per-layer metric each workload must move
EXERCISED = {
    "simulate": "analysis.iter_replicates.busy_s",
    "conditions": "baselines.run_td_batch.crh.busy_s",
    "evaluate": "data.gen_synthetic.calls",
    "scalar": "model.validate_matrix.calls",
}
SPAN_METRICS = {name for name, _, _, how, _ in PER_LAYER if how != "derived"}


def make(name, seed, tmp_path):
    workdir = tmp_path / f"{name}-{seed}"
    workdir.mkdir()
    w = wl.WORKLOADS[name](seed, str(workdir), **TINY[name])
    w.setup()
    return w


def as_event(result):
    return {"event": "pass", "wall_s": result.wall_s, "ops": result.ops,
            "failed": result.failed, "latencies_us": result.latencies_us,
            "replicates": result.replicates, "digests": result.digests,
            "messages": result.messages}


def finished_child(result, rss=100.0):
    child = runner.Child()
    child.setup_s = 1.0
    child.events = [{"event": "ready", "ops_per_pass": result.ops}, as_event(result),
                    {"event": "done", "peak_rss_mb": rss}]
    return child


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_replay_matches_untraced(name, tmp_path):
    w = make(name, 1, tmp_path)
    plain = w.run_pass()
    tracer = Tracer()
    traced = w.run_pass(tracer=tracer, serial=True)
    assert plain.failed == 0 and traced.failed == 0, plain.messages + traced.messages
    assert plain.digests and traced.digests == plain.digests
    values = wl.layer_metrics(tracer)
    assert set(values) == SPAN_METRICS
    assert values[EXERCISED[name]] > 0
    # the pass restores every binding it wrapped
    assert not hasattr(ebtruth.analysis.iter_replicates, "__wrapped__")
    assert not hasattr(ebtruth.pipelines.ebe, "__wrapped__")


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_seed_changes_inputs_not_metric_names(name, tmp_path):
    runs = {}
    for seed in (1, 2):
        w = make(name, seed, tmp_path)
        result = w.run_pass()
        tracer = Tracer()
        w.run_pass(tracer=tracer)
        assert result.failed == 0, result.messages
        runs[seed] = (w.inputs_digest, result.digests,
                      runner.end_to_end([finished_child(result)], [as_event(result)]),
                      wl.layer_metrics(tracer))
    assert runs[1][0] != runs[2][0]
    assert runs[1][1] != runs[2][1]
    assert set(runs[1][2]) == set(runs[2][2]) == {name for name, _, _ in END_TO_END}
    assert all(v is not None and v > 0 for v in runs[1][2].values())
    assert set(runs[1][3]) == set(runs[2][3]) == SPAN_METRICS


def test_corrupted_scalar_output_is_counted(tmp_path, monkeypatch):
    w = make("scalar", 1, tmp_path)
    real_ebe = ebtruth.pipelines.ebe

    def shifted(*args, **kwargs):
        r = real_ebe(*args, **kwargs)
        return type(r)(estimate=r.estimate + 1e-9, shrink_factor=r.shrink_factor,
                       degenerate=r.degenerate)

    monkeypatch.setattr(ebtruth.pipelines, "ebe", shifted)
    result = w.run_pass()
    assert result.failed == result.ops
    values = runner.end_to_end([finished_child(result)], [as_event(result)])
    assert values["wall_s"] > 0
    attempted, failed, _ = runner.account(finished_child(result))
    assert (attempted, failed) == (result.ops, result.ops)


def test_corrupted_reports_are_counted(tmp_path):
    sim = make("simulate", 1, tmp_path)
    assert sim.run_pass().failed == 0
    path = sim.report_files()[0]
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for i, line in enumerate(lines):
        if ",gap_blue_minus_eb_blue," in line and line.startswith("2,10,"):
            fields = line.split(",")
            fields[3] = "-1000.0"
            lines[i] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    failed, messages = wl.check_simulate_report(path, sim.n_grid, sim.m_grid)
    assert failed == 1 and "n=2 m=10" in messages[0]

    bad = tmp_path / "conditions.jsonl"
    bad.write_text(json.dumps({"name": "x", "lhs": 1.0, "rhs": float("nan"),
                               "std_errors": [0.1]}) + "\n")
    assert wl.check_conditions_report(str(bad)) is not None

    ev = wl.Evaluate(1, str(tmp_path))
    assert ev.check_ratio("constant", "mean", wl.CONSTANT_GT_GOLDENS["mean"],
                          wl.CONSTANT_GT_GOLDENS) is None
    assert ev.check_ratio("constant", "mean", 1.5, wl.CONSTANT_GT_GOLDENS) is not None
    assert ev.check_ratio("constant", "mean", wl.CONSTANT_GT_GOLDENS["mean"] + 1e-9,
                          wl.CONSTANT_GT_GOLDENS) is not None
    assert ev.check_ratio("high_variance", "crh", 1.2, wl.HIGH_VARIANCE_GOLDENS) is not None


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.01), "inner")
    outer = tracer.wrap(lambda: (inner(), time.sleep(0.01)), "outer")
    outer()
    busy, own = tracer.busy(), tracer.self_time()
    assert busy["outer"] > busy["inner"] >= 0.01
    assert own["inner"] == busy["inner"]
    assert abs(own["outer"] - (busy["outer"] - busy["inner"])) < 1e-12


def test_silent_child_is_killed_and_counted():
    ready = json.dumps({"event": "ready", "ops_per_pass": 3})
    code = f"import time; print('@perfbench ' + {ready!r}, flush=True); time.sleep(60)"
    t0 = time.monotonic()
    child = runner.run_child([sys.executable, "-c", code], dict(os.environ),
                             deadline=time.monotonic() + 30, timeout=1.0)
    assert time.monotonic() - t0 < 10
    assert child.status == "timeout"
    attempted, failed, messages = runner.account(child)
    assert (attempted, failed) == (3, 3) and "timeout" in messages[0]


def test_benchmark_json_matches_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(runner.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == END_TO_END
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == [(name, unit, better) for name, unit, better, _, _ in PER_LAYER])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scalar",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
