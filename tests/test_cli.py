"""CLI subcommands, exit codes, config handling, and output determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ebtruth
from ebtruth import (
    ConstantGT,
    ExplicitSigmas,
    GaussianGT,
    IndexedSigmas,
    SyntheticSpec,
    gen_synthetic,
    save_csv,
)
from ebtruth.cli import (
    EXIT_ASSERTION,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)


@pytest.fixture
def dataset_csv(tmp_path):
    ds = gen_synthetic(SyntheticSpec(gt=ConstantGT(2.0),
                                     worker_sigmas=ExplicitSigmas([1.0] * 6),
                                     n=6, m=30, seed=1))
    p = tmp_path / "ds.csv"
    save_csv(ds, p)
    return str(p)


class TestDemo:
    def test_passes_self_check(self, capsys):
        assert main(["demo-table1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "self-check: ok" in out
        assert "BLUE" in out and "EbBlue" in out

    def test_broken_reference_exits_assertion(self, monkeypatch, capsys):
        import ebtruth.cli as cli
        monkeypatch.setattr(cli, "TABLE1_AVG", [0.0, 0.0, 0.0, 0.0])
        assert main(["demo-table1"]) == EXIT_ASSERTION


class TestExitCodes:
    def test_unknown_flag_is_validation(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--no-such-flag"])
        assert exc.value.code == EXIT_VALIDATION

    def test_bad_value_is_validation(self, tmp_path):
        code = main(["simulate", "--gt", "bogus:1", "--replicates", "10",
                     "--n-grid", "1", "--m-grid", "5", "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION

    def test_missing_data_file_is_io(self, tmp_path):
        code = main(["evaluate", "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path)])
        assert code == EXIT_IO

    def test_evaluate_without_data_is_validation(self, tmp_path):
        code = main(["evaluate", "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("flag, spec, form", [
        ("--gt", "gaussian:2", "gaussian[:MEAN,VARIANCE]"),
        ("--gt", "constant:two", "constant[:VALUE]"),
        ("--sigmas", "gaussian-sq:1,2", "gaussian-sq[:MEAN,VARIANCE,FLOOR]"),
        ("--sigmas", "explicit:", "explicit:VARIANCE[,VARIANCE...]"),
    ])
    def test_malformed_spec_names_its_form(self, tmp_path, capsys, flag, spec, form):
        code = main(["simulate", flag, spec, "--replicates", "10",
                     "--n-grid", "1", "--m-grid", "5", "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert repr(spec) in err and form in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("spec, word", [("gaussian:2,-1", "variance"),
                                            ("gaussian:nan,1", "finite")])
    def test_invalid_truth_spec_is_rejected_before_drawing(self, tmp_path, capsys, spec, word):
        code = main(["simulate", "--gt", spec, "--replicates", "10",
                     "--n-grid", "1", "--m-grid", "5", "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "GaussianGT" in err and word in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n-grid", "0"],
        ["simulate", "--m-grid", "0"],
        ["conditions", "--m", "0"],
        ["conditions", "--n", "0", "--sigmas", "gaussian-sq"],
        ["conditions", "--replicates", "0"],
        ["conditions", "--replicates", "1"],
    ])
    def test_empty_shape_or_too_few_replicates_is_validation(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not (tmp_path / "out").exists()

    def test_unknown_base_is_validation(self, dataset_csv, tmp_path):
        code = main(["evaluate", "--data", dataset_csv, "--bases", "wavg",
                     "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION


class TestConfigFile:
    def test_file_overrides_flags(self, tmp_path, dataset_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 7}))
        out = tmp_path / "out"
        code = main(["evaluate", "--data", dataset_csv, "--bases", "mean",
                     "--n", "4", "--m", "20", "--samples", "99",
                     "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        text = (out / "evaluate.csv").read_text()
        assert '"samples": 7' in text.splitlines()[0]

    def test_unknown_config_key_is_validation(self, tmp_path, dataset_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_key": 1}))
        code = main(["evaluate", "--data", dataset_csv, "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION

    def test_malformed_config_is_io(self, tmp_path, dataset_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code = main(["evaluate", "--data", dataset_csv, "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code == EXIT_IO


class TestOutputs:
    def test_simulate_writes_grid_rows(self, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", "--replicates", "500", "--n-grid", "1,2",
                     "--m-grid", "5", "--out", str(out), "--threads", "1"])
        assert code == EXIT_OK
        lines = (out / "simulate.csv").read_text().splitlines()
        # header comment + hash + csv header + 2 cells x 4 rows
        assert len(lines) == 3 + 8

    def test_conditions_writes_csv_and_jsonl(self, tmp_path):
        out = tmp_path / "out"
        code = main(["conditions", "--replicates", "1000", "--m", "10",
                     "--psi", "const:1", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "conditions.csv").exists()
        records = [json.loads(l) for l in
                   (out / "conditions.jsonl").read_text().splitlines()]
        assert any(r["name"] == "improvement_condition" for r in records)
        assert any(r["name"] == "risk_decomposition" for r in records)

    def test_conditions_computes_the_stein_gap_terms_once(self, tmp_path, monkeypatch):
        calls = []
        terms = ebtruth.analysis.stein_gap_terms
        monkeypatch.setattr(ebtruth.analysis, "stein_gap_terms",
                            lambda *args: calls.append(1) or terms(*args))
        for run in (1, 2):
            assert main(["conditions", "--replicates", "500", "--m", "10", "--psi", "const:1",
                         "--out", str(tmp_path / "out")]) == EXIT_OK
            assert len(calls) == run

    def test_conditions_constant_above_twice_variance_unsatisfied(self, tmp_path):
        out = tmp_path / "out"
        code = main(["conditions", "--replicates", "5000", "--m", "10",
                     "--psi", "const:3", "--sigma2", "1", "--out", str(out)])
        assert code == EXIT_OK
        records = {r["name"]: r for r in
                   (json.loads(l) for l in
                    (out / "conditions.jsonl").read_text().splitlines())}
        assert not records["improvement_condition"]["satisfied"]
        assert not records["constant_guess_condition"]["satisfied"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("psi", ["h", "s:1"])
    def test_conditions_on_one_question_is_validation(self, tmp_path, psi):
        code = main(["conditions", "--replicates", "200", "--m", "1", "--psi", psi,
                     "--sigma2", "1", "--out", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_evaluate_partition_below_one_is_validation(self, tmp_path, dataset_csv, capsys,
                                                        value):
        out = tmp_path / "out"
        code = main(["evaluate", "--data", dataset_csv, "--bases", "mean", "--n", "4",
                     "--m", "10", "--samples", "20", "--partition", value, "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: --partition must be >= 1, got {value}\n"
        assert not out.exists()

    def test_evaluate_partition_matches_bucket_count(self, tmp_path, dataset_csv):
        out = tmp_path / "out"
        code = main(["evaluate", "--data", dataset_csv, "--bases", "mean",
                     "--n", "4", "--m", "10", "--samples", "20",
                     "--partition", "2", "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "evaluate.csv").read_text().splitlines()
        assert sum("bucket" in l for l in lines) == 2


class TestDeterminism:
    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        outs = []
        for i, threads in enumerate(["1", "4", "1"]):
            out = tmp_path / f"out{i}"
            assert main(["simulate", "--replicates", "2000", "--n-grid", "1,2",
                         "--m-grid", "5,10", "--seed", "9", "--out", str(out),
                         "--threads", threads]) == EXIT_OK
            outs.append((out / "simulate.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_byte_identical_across_threads_when_largest_first_reorders(self, tmp_path):
        # longest-first order here is (8,100), (8,5), (1,100), (1,5)
        outs = []
        for threads in ("1", "2", "3"):
            out = tmp_path / f"out{threads}"
            assert main(["simulate", "--replicates", "300", "--n-grid", "1,8",
                         "--m-grid", "5,100", "--seed", "4", "--out", str(out),
                         "--threads", threads]) == EXIT_OK
            outs.append((out / "simulate.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_simulate_byte_identical_at_any_block_size(self, tmp_path, monkeypatch):
        from ebtruth import analysis

        # at n=8, m=100, 600 replicates are 1 block of 16 MiB, 4 of 1 MiB,
        # or 600 blocks of one replicate
        outs = []
        for block_bytes in (1, analysis.BLOCK_BYTES, 16 * 2**20):
            monkeypatch.setattr(analysis, "BLOCK_BYTES", block_bytes)
            out = tmp_path / f"out{block_bytes}"
            assert main(["simulate", "--replicates", "600", "--n-grid", "1,8",
                         "--m-grid", "5,100", "--seed", "4", "--out", str(out)]) == EXIT_OK
            outs.append((out / "simulate.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_one_cell_byte_identical_across_threads(self, tmp_path, monkeypatch):
        from ebtruth import analysis

        # one cell gets every thread, and its four chunks run side by side
        monkeypatch.setattr(analysis, "CHUNK", 100)
        assert analysis.n_chunks(350) == 4
        outs = []
        for threads in ("1", "2", "3"):
            out = tmp_path / f"out{threads}"
            assert main(["simulate", "--replicates", "350", "--n-grid", "8", "--m-grid", "100",
                         "--seed", "4", "--out", str(out), "--threads", threads]) == EXIT_OK
            outs.append((out / "simulate.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("base, psi", [("crh", "h"), ("mean", "s:0.5")])
    def test_conditions_byte_identical_across_threads(self, tmp_path, base, psi):
        from ebtruth import analysis

        assert analysis.n_chunks(45_000) == 3
        outs = []
        for threads in ("1", "2", "3"):
            out = tmp_path / f"out{threads}"
            assert main(["conditions", "--base", base, "--psi", psi, "--n", "4", "--m", "10",
                         "--gt", "gaussian:2,1", "--sigmas", "gaussian-sq", "--sigma2", "0.1",
                         "--replicates", "45000", "--seed", "6", "--out", str(out),
                         "--threads", threads]) == EXIT_OK
            outs.append(((out / "conditions.csv").read_bytes(),
                         (out / "conditions.jsonl").read_bytes()))
        assert outs[0] == outs[1] == outs[2]

    def test_evaluate_reruns_identical(self, tmp_path, dataset_csv):
        blobs = []
        for i in range(2):
            out = tmp_path / f"e{i}"
            assert main(["evaluate", "--data", dataset_csv, "--bases", "mean,median",
                         "--n", "4", "--m", "20", "--samples", "50",
                         "--out", str(out)]) == EXIT_OK
            blobs.append((out / "evaluate.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_evaluate_header_names_the_data_by_content(self, tmp_path, dataset_csv):
        def report(csv_path, out):
            assert main(["evaluate", "--data", str(csv_path), "--bases", "mean",
                         "--n", "4", "--m", "20", "--samples", "20",
                         "--out", str(out)]) == EXIT_OK
            return (out / "evaluate.csv").read_text()

        text = Path(dataset_csv).read_text(encoding="utf-8")
        copies = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            copies.append(tmp_path / name / "ds.csv")
            copies[-1].write_text(text, encoding="utf-8")
        first = report(copies[0], tmp_path / "out_a")
        assert report(copies[1], tmp_path / "out_b") == first
        assert str(tmp_path) not in first

        lines = text.splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[1] = repr(float(cells[1]) + 1.0)
        lines[1] = ",".join(cells)
        copies[1].write_text("".join(lines), encoding="utf-8")
        changed = report(copies[1], tmp_path / "out_c")
        assert changed.splitlines()[:2] != first.splitlines()[:2]


# (lhs, rhs, std_errors) of every conditions.jsonl record at --replicates 2000,
# frozen from the release before the Stein-gap terms were shared.  The seeds
# are ones at which rewriting alpha**2 * psi**2 / ss as alpha**2 * (psi**2 / ss)
# in risk_decomposition moves a last digit.
CONDITIONS_GOLDENS = {
    "crh_h": (["--base", "crh", "--psi", "h", "--n", "4", "--m", "10",
               "--sigmas", "gaussian-sq", "--sigma2", "0.1", "--seed", "4"], {
        "improvement_condition": (-12.481225455927987, 0.0, [0.46150974858129545]),
        "general_ratio_condition": (1.132674080386452, 0.2, [
            0.09357527540210982, 0.06554304088311412, 0.0011857883364870883]),
        "mean_adjusted_ratio_condition": (1.1415527621779025, 0.2, [
            0.09357527540210982, 0.06554304088311412]),
        "risk_decomposition": (12.481225455927985, 22.68075661863746, [0.09475429052352073]),
    }),
    "s_eps_delta_bound": (["--psi", "s:0.5", "--m", "20", "--eps", "0.5", "--delta", "0.5",
                           "--bound", "0.1", "--seed", "1"], {
        "improvement_condition": (13.318172170259242, 0.0, [0.09804637351493754]),
        "general_ratio_condition": (0.45146346339861837, 2.0, [
            0.001857309169275985, 0.0, 2.5710792752817545e-19]),
        "mean_adjusted_ratio_condition": (0.5045768120337499, 2.0, [
            0.001857309169275985, 0.0]),
        "probabilistic_bound_cap": (0.1, 1.0, []),
        "probabilistic_eps_bracket": (0.5, 0.21359436211786553, []),
        "risk_decomposition": (-13.31817217025924, -13.162560561111746, [0.126297023510767]),
    }),
}


@pytest.mark.parametrize("config", CONDITIONS_GOLDENS)
def test_conditions_records_match_goldens(tmp_path, config):
    flags, goldens = CONDITIONS_GOLDENS[config]
    out = tmp_path / "out"
    assert main(["conditions", *flags, "--replicates", "2000", "--out", str(out)]) == EXIT_OK
    records = [json.loads(l) for l in (out / "conditions.jsonl").read_text().splitlines()]
    assert {r["name"]: (r["lhs"], r["rhs"], r["std_errors"]) for r in records} == goldens

def test_simulate_starts_the_largest_cells_first(tmp_path, monkeypatch):
    import ebtruth.cli as cli
    started = []
    simulate_cell = cli._simulate_cell

    def recording(cell):
        started.append((cell[0].n, cell[0].m))
        return simulate_cell(cell)

    monkeypatch.setattr(cli, "_simulate_cell", recording)
    out = tmp_path / "out"
    assert main(["simulate", "--replicates", "200", "--n-grid", "1,2,4",
                 "--m-grid", "5,25,10", "--out", str(out), "--threads", "1"]) == EXIT_OK
    grid = [(n, m) for n in (1, 2, 4) for m in (5, 25, 10)]
    # descending n·m; the tie (2, 5) / (1, 10) keeps grid order
    assert started == sorted(grid, key=lambda c: -c[0] * c[1])
    assert started[:3] == [(4, 25), (2, 25), (4, 10)]
    rows = (out / "simulate.csv").read_text().splitlines()[3:]
    cells = [tuple(int(v) for v in row.split(",")[:2]) for row in rows]
    assert cells[::4] == grid


def test_simulate_and_conditions_do_not_load_scipy_stats(tmp_path):
    # a fresh interpreter, since the test process itself imports scipy.stats
    src = os.path.dirname(os.path.dirname(os.path.abspath(ebtruth.__file__)))
    script = f"""
import sys
import ebtruth
from ebtruth.cli import main
assert main(["simulate", "--replicates", "200", "--n-grid", "1,2", "--m-grid", "5",
             "--out", {str(tmp_path / "s")!r}]) == 0
assert main(["conditions", "--base", "crh", "--psi", "h", "--n", "4", "--m", "10",
             "--sigmas", "gaussian-sq", "--sigma2", "0.1", "--replicates", "500",
             "--out", {str(tmp_path / "c")!r}]) == 0
print(sorted(name for name in sys.modules if name.startswith("scipy.stats")))
"""
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_unreachable_sigma_floor_exits_validation_promptly(tmp_path):
    # a separate process, so that a regression to an endless redraw loop
    # fails on the timeout instead of hanging the suite
    src = os.path.dirname(os.path.dirname(os.path.abspath(ebtruth.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "ebtruth.cli", "conditions",
         "--sigmas", "gaussian-sq:-5,0.01,0.05", "--sigma2", "1", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == EXIT_VALIDATION
    assert "floor" in proc.stderr


def test_evaluate_too_many_samples_exits_validation_promptly(tmp_path, dataset_csv):
    # a separate process, so that a regression to allocating the batch fails
    # on the timeout or a memory error instead of taking the suite down
    src = os.path.dirname(os.path.dirname(os.path.abspath(ebtruth.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "ebtruth.cli", "evaluate", "--data", dataset_csv,
         "--samples", "1000000000000", "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=30)
    assert proc.returncode == EXIT_VALIDATION
    assert len(proc.stderr.splitlines()) == 1
    assert "MAX_BATCH_BYTES" in proc.stderr


@pytest.mark.parametrize("command", ["conditions", "simulate"])
def test_too_many_replicates_exits_validation_promptly(tmp_path, command):
    # a separate process, so that a regression to allocating the stores fails
    # on the timeout or a memory error instead of taking the suite down
    src = os.path.dirname(os.path.dirname(os.path.abspath(ebtruth.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "ebtruth.cli", command, "--replicates", "1000000000000",
         "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=30)
    assert proc.returncode == EXIT_VALIDATION
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error:") and "MAX_BATCH_BYTES" in proc.stderr


def test_conditions_chunk_failing_in_a_worker_exits_validation(tmp_path):
    # chunk 1 of 3 gets a 1e200 replicate, which sends CRH's weights to NaN
    # in a worker thread; a separate process, so a hang fails on the timeout
    src = os.path.dirname(os.path.dirname(os.path.abspath(ebtruth.__file__)))
    script = f"""
import sys, warnings
from ebtruth import analysis
from ebtruth.cli import main

warnings.simplefilter("ignore", RuntimeWarning)
draw = analysis.iter_replicates

def poisoned(*args, chunks=None, **kwargs):
    for X, mu, sig2 in draw(*args, chunks=chunks, **kwargs):
        if chunks == [1]:
            X[0] *= 1e200
        yield X, mu, sig2

analysis.iter_replicates = poisoned
sys.exit(main(["conditions", "--base", "crh", "--psi", "h", "--n", "4", "--m", "10",
               "--sigmas", "gaussian-sq", "--sigma2", "1", "--replicates", "45000", "--threads", "3",
               "--out", {str(tmp_path / "out")!r}]))
"""
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_VALIDATION
    assert proc.stderr.splitlines() == ["error: non-finite weight during iteration"]
    assert not (tmp_path / "out").exists()


class TestThreads:
    def test_auto_counts_the_cpus_this_process_may_run_on(self, monkeypatch):
        from ebtruth.cli import _threads

        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert _threads("auto") == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 2, 5}, raising=False)
        assert _threads("auto") == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(12)), raising=False)
        assert _threads("auto") == 8
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert _threads("auto") == 8
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert _threads("auto") == 2

    @pytest.mark.parametrize("flag, want", [("2", 2), ("3", 3), ("auto", None)])
    def test_conditions_runs_on_the_pool_it_is_given(self, tmp_path, monkeypatch, flag, want):
        import ebtruth.cli as cli

        seen = []
        stream = cli.sample_aggregate_stream

        def recording(*args, threads, **kwargs):
            seen.append(threads)
            return stream(*args, threads=threads, **kwargs)

        monkeypatch.setattr(cli, "sample_aggregate_stream", recording)
        assert main(["conditions", "--replicates", "300", "--threads", flag,
                     "--out", str(tmp_path)]) == EXIT_OK
        assert seen == [want or cli._threads("auto")]

    @pytest.mark.parametrize("grid, flag, want", [
        (("8", "100"), "3", [3]),
        (("1,8", "100"), "5", [2, 2]),
        (("1,2,4,8", "5,10,25,100"), "4", [1] * 16),
    ], ids=["one-cell", "two-cells", "default-grid"])
    def test_simulate_gives_each_cell_its_share_of_the_threads(self, tmp_path, monkeypatch,
                                                               grid, flag, want):
        import ebtruth.cli as cli

        seen = []
        risk = cli.mc_risk

        def recording(*args, threads, **kwargs):
            seen.append(threads)
            return risk(*args, threads=threads, **kwargs)

        monkeypatch.setattr(cli, "mc_risk", recording)
        assert main(["simulate", "--replicates", "20", "--n-grid", grid[0], "--m-grid", grid[1],
                     "--threads", flag, "--out", str(tmp_path)]) == EXIT_OK
        assert seen == want

    @pytest.mark.parametrize("value", ["0", "foo"])
    @pytest.mark.parametrize("command", ["simulate", "evaluate", "conditions"])
    def test_every_command_rejects_a_bad_count(self, tmp_path, dataset_csv, capsys,
                                               command, value):
        argv = [command, "--threads", value, "--out", str(tmp_path / "out")]
        if command == "evaluate":
            argv += ["--data", dataset_csv]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not (tmp_path / "out").exists()

    def test_explicit_counts(self):
        from ebtruth.cli import _threads
        from ebtruth.errors import ValidationError

        assert _threads("3") == 3
        with pytest.raises(ValidationError):
            _threads("0")


# (improvement_ratio, base_risk, eb_risk) of every evaluate.csv row, frozen
# from the release that still drew each base's samples on their own, one
# Dataset per sample.
EVALUATE_GOLDENS = {
    ("bucket0", "mean"): (1.4519515455325391, 30.057025943598738, 43.641345272919814),
    ("bucket0", "median"): (1.3944180209809822, 31.79756818157182, 44.33910209575522),
    ("bucket0", "crh"): (1.8822387924221486, 24.5567172957242, 46.221605908556015),
    ("bucket0", "catd"): (1.2240888493755577, 39.07975803385225, 47.837096045533414),
    ("bucket0", "distance"): (1.7360034922892202, 26.002712305408977, 45.14079937118186),
    ("bucket1", "mean"): (0.4045434385624492, 73.76493494837412, 29.841120429350646),
    ("bucket1", "median"): (0.4735616445845917, 59.220726376406105, 28.044664576304985),
    ("bucket1", "crh"): (0.6473189535724908, 42.64154721688205, 27.602681723144048),
    ("bucket1", "catd"): (0.5610871156881319, 60.63453014709646, 34.021253631339434),
    ("bucket1", "distance"): (0.512319267665658, 55.820797944748676, 28.59807032356631),
}


def test_evaluate_records_match_goldens(tmp_path):
    ds = gen_synthetic(SyntheticSpec(gt=GaussianGT(2.0, 9.0), worker_sigmas=IndexedSigmas(),
                                     n=7, m=36, seed=11))
    save_csv(ds, tmp_path / "ds.csv")
    out = tmp_path / "out"
    assert main(["evaluate", "--data", str(tmp_path / "ds.csv"), "--partition", "2",
                 "--bases", "mean,median,crh,catd,distance", "--n", "4", "--m", "12",
                 "--samples", "40", "--seed", "5", "--out", str(out)]) == EXIT_OK
    lines = [l for l in (out / "evaluate.csv").read_text().splitlines() if not l.startswith("#")]
    rows = list(csv.DictReader(lines))
    assert {(r["subset"], r["base"]): (float(r["improvement_ratio"]), float(r["base_risk"]),
                                       float(r["eb_risk"])) for r in rows} == EVALUATE_GOLDENS
    assert [(r["subset"], r["base"]) for r in rows] == list(EVALUATE_GOLDENS)
