"""CLI subcommands, exit codes, config handling, and output determinism."""

import json
import os
import subprocess
import sys

import pytest

import ebtruth
from ebtruth import ConstantGT, ExplicitSigmas, SyntheticSpec, gen_synthetic, save_csv
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

        text = open(dataset_csv, encoding="utf-8").read()
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
