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
        # a parameter the kind ignores, or a ':' with no parameter after it
        ("--sigmas", "indexed:5", "'indexed'"),
        ("--psi", "h:3", "'h'"),
        ("--gt", "constant:", "constant[:VALUE]"),
        ("--gt", "gaussian:", "gaussian[:MEAN,VARIANCE]"),
        ("--sigmas", "gaussian-sq:", "gaussian-sq[:MEAN,VARIANCE,FLOOR]"),
        ("--psi", "s:", "s[:SCALE]"),
    ])
    def test_malformed_spec_names_its_form(self, tmp_path, capsys, monkeypatch, flag, spec,
                                           form):
        import ebtruth.analysis as analysis

        drawn = []
        monkeypatch.setattr(analysis, "iter_replicates", lambda *a, **k: drawn.append(a))
        # simulate takes no --psi; conditions takes all three specs
        command = ["conditions"] if flag == "--psi" else ["simulate", "--n-grid", "1",
                                                          "--m-grid", "5"]
        code = main([*command, flag, spec, "--replicates", "10", "--out", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert repr(spec) in err and form in err
        assert drawn == [] and not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("spec, word", [("gaussian:2,-1", "variance"),
                                            ("gaussian:nan,1", "finite")])
    def test_invalid_truth_spec_is_rejected_before_drawing(self, tmp_path, capsys, spec, word):
        code = main(["simulate", "--gt", spec, "--replicates", "10",
                     "--n-grid", "1", "--m-grid", "5", "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "GaussianGT" in err and word in err

    @pytest.mark.parametrize("spec", ["explicit:1,nan", "explicit:inf"])
    def test_a_non_finite_worker_variance_is_rejected(self, tmp_path, capsys, spec):
        code = main(["conditions", "--n", str(spec.count(",") + 1), "--sigmas", spec,
                     "--sigma2", "1", "--replicates", "10", "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "variances must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["conditions", "--m", "0"],
        ["conditions", "--n", "0", "--sigmas", "gaussian-sq"],
        ["conditions", "--replicates", "0"],
        ["conditions", "--replicates", "1"],
        ["conditions", "--m", "3"],  # every condition check needs m > 3
    ])
    def test_empty_shape_or_too_few_replicates_is_validation(self, tmp_path, capsys,
                                                             monkeypatch, argv):
        import ebtruth.analysis as analysis

        drawn = []
        monkeypatch.setattr(analysis, "iter_replicates", lambda *a, **k: drawn.append(a))
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not (tmp_path / "out").exists()
        assert drawn == [], "drew replicates before refusing the request"

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--n-grid", "0"],
         "argument --n-grid: expected comma-separated positive integers, got '0'"),
        (["simulate", "--m-grid", "0"],
         "argument --m-grid: expected comma-separated positive integers, got '0'"),
        (["simulate", "--n-grid", "1,"],
         "argument --n-grid: expected comma-separated positive integers, got '1,'"),
        (["simulate", "--m-grid", "5,x"],
         "argument --m-grid: expected comma-separated positive integers, got '5,x'"),
        (["conditions", "--seed", "-1"], "argument --seed: expected a non-negative integer, "
                                         "got '-1'"),
        (["simulate", "--seed", "1.5"], "argument --seed: expected a non-negative integer, "
                                        "got '1.5'"),
    ], ids=["n-grid-zero", "m-grid-zero", "n-grid-trailing-comma", "m-grid-word",
            "seed-negative", "seed-fraction"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_a_bad_grid_or_seed_names_its_flag(self, tmp_path, capsys, argv, message, source):
        command, flag, value = argv
        if source == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag[2:]: value}))
            argv = [command, "--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"error: {message}" and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_a_grid_is_recorded_as_its_text(self, tmp_path):
        assert main(["simulate", "--replicates", "20", "--n-grid", "1, 2", "--m-grid", "05",
                     "--out", str(tmp_path)]) == EXIT_OK
        header = (tmp_path / "simulate.csv").read_text().splitlines()[0]
        assert '"m_grid": "05", "n_grid": "1, 2"' in header

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

    # one small run of each command; the config values are JSON numbers and
    # strings, as a file would hold them
    RUNS = {
        "simulate": ({"replicates": 200, "n_grid": "1,2", "m-grid": "5,10", "loss": "mean",
                      "gt": "constant:3", "seed": 3, "threads": 2}, ["simulate.csv"]),
        "conditions": ({"replicates": 500, "m": 12, "psi": "s:0.5", "eps": "0.05",
                        "delta": 0.5, "bound": 0.1, "sigma2": 1, "seed": 1},
                       ["conditions.csv", "conditions.jsonl"]),
        # a number that begins with '-' is a value, not a flag
        "conditions-negative-eps": ({"replicates": 500, "eps": -0.5, "seed": 2},
                                    ["conditions.csv", "conditions.jsonl"]),
        "evaluate": ({"bases": "mean,crh", "n": 4, "m": 10, "samples": 20, "partition": 2,
                      "psi": "s:1", "seed": 5}, ["evaluate.csv"]),
    }

    @staticmethod
    def _flags(values):
        return [t for k, v in values.items() for t in (f"--{k.replace('_', '-')}", str(v))]

    @staticmethod
    def _reports(out, names):
        return [(out / name).read_bytes() for name in names]

    @pytest.mark.parametrize("run", RUNS)
    def test_file_values_write_the_bytes_of_the_same_flags(self, tmp_path, dataset_csv, run):
        command = run.split("-")[0]
        values, names = self.RUNS[run]
        if command == "evaluate":
            values = dict(values, data=dataset_csv)
        assert main([command, *self._flags(values), "--out", str(tmp_path / "flags")]) == EXIT_OK
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "file")]) == EXIT_OK
        want = self._reports(tmp_path / "flags", names)
        assert self._reports(tmp_path / "file", names) == want
        # every flag on the command line disagrees with the file, and the file wins
        other = {k: {"loss": "sum", "gt": "constant:4", "psi": "s:2", "bases": "median",
                     "data": "nope.csv"}.get(k, "7") for k in values}
        assert main([command, *self._flags(other), "--config", str(cfg),
                     "--out", str(tmp_path / "both")]) == EXIT_OK
        assert self._reports(tmp_path / "both", names) == want

    @pytest.mark.parametrize("command, text, code, message", [
        ("simulate", '{"loss": "bogus"}', EXIT_VALIDATION,
         "argument --loss: invalid choice: 'bogus'"),
        ("evaluate", '{"samples": 7.0}', EXIT_VALIDATION,
         "argument --samples: invalid int value: '7.0'"),
        ("simulate", '{"command": "evaluate"}', EXIT_VALIDATION,
         "config file: unknown key 'command'"),
        ("evaluate", '{"config": "other.json"}', EXIT_VALIDATION,
         "config file: unknown key 'config'"),
        ("conditions", '{"func": "main"}', EXIT_VALIDATION, "config file: unknown key 'func'"),
        ("simulate", '{"n-grid": null}', EXIT_VALIDATION,
         "config file: 'n_grid' must be a string or a number, got null"),
        ("conditions", '{"seed": true}', EXIT_VALIDATION,
         "config file: 'seed' must be a string or a number, got true"),
        ("simulate", '{"gt": ["constant", 2]}', EXIT_VALIDATION,
         """config file: 'gt' must be a string or a number, got ["constant", 2]"""),
        ("conditions", '{"sigma2": {"value": 1}}', EXIT_VALIDATION,
         "config file: 'sigma2' must be a string or a number"),
        ("simulate", '{"gt": "--seed=5"}', EXIT_VALIDATION,
         "unknown ground-truth spec '--seed=5'"),
        ("simulate", "[1, 2]", EXIT_IO, "config file: expected a JSON object"),
        ("evaluate", '"simulate"', EXIT_IO, "config file: expected a JSON object"),
        ("conditions", "", EXIT_IO, "config file: Expecting value"),
    ], ids=["bad-choice", "float-for-int", "command", "config", "func", "null", "bool", "list",
            "object", "flag-like-value", "list-file", "string-file", "empty-file"])
    def test_bad_config_exits_without_a_traceback_or_output(self, tmp_path, capsys, dataset_csv,
                                                            command, text, code, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        argv = {"simulate": ["--replicates", "20", "--n-grid", "1", "--m-grid", "5"],
                "evaluate": ["--data", dataset_csv, "--samples", "20"],
                "conditions": ["--replicates", "20"]}[command]
        try:
            got = main([command, *argv, "--config", str(cfg), "--out", str(out)])
        except SystemExit as exc:  # argparse rejects a value as it rejects a flag
            got = exc.code
        assert got == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert err.splitlines()[-1].startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--eps", "0.1", "--delta", "0", "--bound", "0.1"], "delta must be in (0, 1], got 0.0"),
        (["--eps", "0.1", "--delta", "-1", "--bound", "0.1"], "delta must be in (0, 1], got -1.0"),
        (["--eps", "nan"], "eps must be finite, got nan"),
        (["--eps", "0.1", "--delta", "0.5", "--bound", "inf"], "bound must be finite, got inf"),
        (["--sigma2", "nan"], "sigma2 must be finite, got nan"),
        (["--sigma2", "inf"], "sigma2 must be finite, got inf"),
        (["--sigma2", "0"], "sigma2 must be > 0, got 0.0"),
        (["--psi", "s:inf"], "SampleScaled: c must be finite, got inf"),
        # sets of eps, delta and bound that no condition reads
        (["--delta", "0.5"], "eps is read alone or with both delta and bound, got delta only"),
        (["--bound", "3"], "eps is read alone or with both delta and bound, got bound only"),
        (["--eps", "0.1", "--delta", "0.5"],
         "eps is read alone or with both delta and bound, got eps and delta only"),
        (["--eps", "0.1", "--bound", "3"],
         "eps is read alone or with both delta and bound, got eps and bound only"),
        (["--delta", "0.5", "--bound", "3"],
         "eps is read alone or with both delta and bound, got delta and bound only"),
    ])
    def test_bad_deviation_inputs_exit_before_drawing(self, tmp_path, capsys, monkeypatch,
                                                      flags, message):
        import ebtruth.cli as cli

        drawn = []
        monkeypatch.setattr(cli, "sample_condition_terms", lambda *a, **k: drawn.append(1))
        out = tmp_path / "out"
        assert main(["conditions", *flags, "--replicates", "200", "--out", str(out)]) \
            == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert drawn == [] and not out.exists()


    @pytest.mark.parametrize("psi, message", [
        ("const:nan", "Constant: c must be finite, got nan"),
        ("s:inf", "SampleScaled: c must be finite, got inf"),
    ])
    def test_evaluate_rejects_a_non_finite_psi_before_sampling(self, tmp_path, capsys,
                                                               monkeypatch, dataset_csv,
                                                               psi, message):
        import ebtruth.cli as cli

        sampled = []
        monkeypatch.setattr(cli, "improvement_ratios", lambda *a, **k: sampled.append(1))
        out = tmp_path / "out"
        assert main(["evaluate", "--psi", psi, "--data", dataset_csv, "--out", str(out)]) \
            == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sampled == [] and not out.exists()


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
        # one terms pass per run, which runs the Stein-gap kernel once a
        # block, and the checks read its terms: nothing computes them again
        import ebtruth.cli as cli

        calls, blocks, kernel_rows = [], [], []
        terms = cli.sample_condition_terms
        draw, kernel = ebtruth.analysis.iter_replicates, ebtruth.analysis._write_gap_terms

        def counting(*args, **kwargs):
            for block in draw(*args, **kwargs):
                blocks.append(block[0].shape[0])
                yield block

        monkeypatch.setattr(ebtruth.analysis, "iter_replicates", counting)
        monkeypatch.setattr(ebtruth.analysis, "_write_gap_terms",
                            lambda *args: kernel_rows.append(args[0].shape[0]) or kernel(*args))
        monkeypatch.setattr(cli, "sample_condition_terms",
                            lambda *args, **kwargs: calls.append(1) or terms(*args, **kwargs))
        monkeypatch.setattr(ebtruth.analysis, "BLOCK_BYTES", 8 * 4 * 10 * 100)  # 100 rows
        for run in (1, 2):
            assert main(["conditions", "--replicates", "500", "--m", "10", "--psi", "const:1",
                         "--out", str(tmp_path / "out")]) == EXIT_OK
            assert len(calls) == run
            assert kernel_rows == blocks == [100] * 5 * run

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

    def test_evaluate_partition_above_the_question_count_is_validation(self, tmp_path,
                                                                     dataset_csv, capsys):
        out = tmp_path / "out"
        code = main(["evaluate", "--data", dataset_csv, "--bases", "mean", "--n", "4",
                     "--m", "10", "--samples", "20", "--partition", "40", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: --partition 40 is more than the 30 questions of --data\n")
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


def test_conditions_jsonl_is_strict_json(tmp_path):
    # delta = 1 makes the bound cap infinite: null in the JSONL, inf in the CSV
    def strict(line):
        return json.loads(line, parse_constant=lambda name: pytest.fail(f"wrote {name}"))

    for delta, cap, csv_cap in (("1", None, "inf"), ("0.5", 1.0, "1.0")):
        out = tmp_path / delta
        assert main(["conditions", "--eps", "0.1", "--delta", delta, "--bound", "0.1",
                     "--replicates", "200", "--out", str(out)]) == EXIT_OK
        lines = (out / "conditions.jsonl").read_text().splitlines()
        records = {r["name"]: r for r in map(strict, lines)}
        assert records["probabilistic_bound_cap"]["rhs"] == cap
        rows = {r["name"]: r for r in csv.DictReader(
            l for l in (out / "conditions.csv").read_text().splitlines()
            if not l.startswith("#"))}
        assert rows["probabilistic_bound_cap"]["rhs"] == csv_cap
    # a finite record keeps the bytes it had before nulls were written
    assert lines[4] == ('{"direction": "<", "lhs": 0.1, "name": "probabilistic_bound_cap", '
                        '"rhs": 1.0, "satisfied": true, "seed": 0, "std_errors": []}')


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


def test_a_failing_cell_cancels_the_cells_not_yet_started(tmp_path, capsys, monkeypatch):
    import time

    import ebtruth.cli as cli
    from ebtruth.errors import IterationDivergenceError

    started = []
    simulate_cell = cli._simulate_cell

    def failing_largest(cell):
        shape = (cell[0].n, cell[0].m)
        started.append(shape)
        if shape == (8, 100):
            raise IterationDivergenceError("cell n=8, m=100")
        time.sleep(0.01)
        return simulate_cell(cell)

    monkeypatch.setattr(cli, "_simulate_cell", failing_largest)
    out = tmp_path / "out"
    assert main(["simulate", "--replicates", "20", "--threads", "2",
                 "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: cell n=8, m=100\n"
    # the largest cell starts first, and the 16-cell grid's others are cancelled
    assert (8, 100) in started and len(started) < 16
    assert not out.exists()


def test_every_command_runs_with_scipy_blocked(tmp_path, dataset_csv):
    # a fresh interpreter whose first import finder refuses scipy and every
    # scipy submodule, so the package and its commands must be numpy-only
    src = os.path.dirname(os.path.dirname(os.path.abspath(ebtruth.__file__)))
    script = f"""
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{{name}} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
from ebtruth.cli import main

print([
    main(["demo-table1"]),
    main(["simulate", "--replicates", "200", "--n-grid", "1,2", "--m-grid", "5",
          "--out", {str(tmp_path / "s")!r}]),
    main(["evaluate", "--data", {dataset_csv!r}, "--bases", "mean,catd", "--n", "4",
          "--m", "12", "--samples", "20", "--out", {str(tmp_path / "e")!r}]),
    main(["conditions", "--base", "catd", "--psi", "h", "--n", "4", "--m", "10",
          "--sigmas", "gaussian-sq", "--sigma2", "0.1", "--replicates", "500",
          "--out", {str(tmp_path / "c")!r}]),
])
"""
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str([EXIT_OK] * 4), proc.stdout + proc.stderr


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


def test_simulate_counts_every_cells_losses_before_any_cell_runs(tmp_path, capsys,
                                                                 monkeypatch):
    # a cell's three loss arrays take 960 MB at 4e7 replicates, under the
    # 1 GiB limit, and the default grid's 16 cells 15 GB
    import ebtruth.cli as cli

    def no_cell(*args, **kwargs):
        raise AssertionError("ran a cell of a grid over the limit")

    monkeypatch.setattr(cli, "mc_risk", no_cell)
    out = tmp_path / "out"
    assert main(["simulate", "--replicates", "40000000", "--threads", "1",
                 "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "MAX_BATCH_BYTES" in err and len(err.splitlines()) == 1
    assert "each of 16 cells" in err and not out.exists()


def test_simulate_grid_limit_is_exact(tmp_path, capsys, monkeypatch):
    # two cells, 1x5 and 2x5: 100 replicates' three losses each, and one
    # replicate block with its truths each, 8*5*(1 + 1) and 8*5*(2 + 1) bytes
    from ebtruth import analysis

    need = 2 * 100 * 3 * 8 + 8 * 5 * 2 + 8 * 5 * 3
    argv = ["simulate", "--replicates", "100", "--n-grid", "1,2", "--m-grid", "5",
            "--threads", "1"]
    monkeypatch.setattr(analysis, "MAX_BATCH_BYTES", need)
    assert main([*argv, "--out", str(tmp_path / "ok")]) == EXIT_OK

    def no_draw(*args, **kwargs):
        raise AssertionError("drew replicates over the limit")

    monkeypatch.setattr(analysis, "iter_replicates", no_draw)
    monkeypatch.setattr(analysis, "MAX_BATCH_BYTES", need - 1)
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "MAX_BATCH_BYTES" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_simulate_grid_check_counts_the_pipelines_the_cells_run(tmp_path, capsys, monkeypatch):
    # the check and the cells read one list: with a fourth pipeline in it,
    # the limit that fits three pipelines' losses refuses the grid
    import ebtruth.cli as cli
    from ebtruth import analysis

    need = 2 * 100 * 3 * 8 + 8 * 5 * 2 + 8 * 5 * 3
    pipelines = cli._simulate_pipelines
    monkeypatch.setattr(cli, "_simulate_pipelines",
                        lambda: [*pipelines(), analysis.pipeline_eb_blue(alpha=0.0)])
    monkeypatch.setattr(analysis, "MAX_BATCH_BYTES", need)
    out = tmp_path / "out"
    assert main(["simulate", "--replicates", "100", "--n-grid", "1,2", "--m-grid", "5",
                 "--threads", "1", "--out", str(out)]) == EXIT_VALIDATION
    assert "4 pipelines' losses" in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("simulate", ["--n-grid", "200", "--m-grid", "1000"]),
    ("simulate", ["--n-grid", "1", "--m-grid", "70000"]),
    ("conditions", ["--n", "200", "--m", "1000", "--sigmas", "indexed"]),
    ("conditions", ["--n", "1", "--m", "70000"]),
], ids=["simulate-block", "simulate-truths", "conditions-block", "conditions-truths"])
def test_a_replicate_block_and_its_truths_are_counted(tmp_path, capsys, monkeypatch,
                                                     command, flags):
    # under a 1 MiB limit: a 200x1000 replicate is a 1.6 MB block, and a
    # 1x70 000 replicate a 0.56 MB block that its 70 000 truths take to
    # 1.12 MB, while the per-replicate arrays of three replicates take a few
    # hundred bytes
    from ebtruth import analysis

    def no_draw(*args, **kwargs):
        raise AssertionError("drew replicates over the limit")

    monkeypatch.setattr(analysis, "MAX_BATCH_BYTES", 2**20)
    monkeypatch.setattr(analysis, "iter_replicates", no_draw)
    out = tmp_path / "out"
    assert main([command, *flags, "--replicates", "3", "--threads", "1",
                 "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "MAX_BATCH_BYTES" in err and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("threads", [1, 2])
def test_conditions_memory_is_the_terms_and_one_block_per_thread(tmp_path, monkeypatch,
                                                                 threads):
    import tracemalloc

    from ebtruth import analysis, baselines

    m, replicates = 100, 6000
    monkeypatch.setattr(analysis, "CHUNK", 2000)  # three chunks
    monkeypatch.setattr(analysis, "BLOCK_BYTES", 2**16)
    args = ["conditions", "--psi", "h", "--n", "10", "--m", str(m), "--gt", "gaussian:2,1",
            "--sigmas", "gaussian-sq", "--sigma2", "0.1", "--threads", str(threads)]
    assert main([*args, "--replicates", "100", "--out", str(tmp_path)]) == EXIT_OK
    tracemalloc.start()
    try:
        assert main([*args, "--replicates", str(replicates), "--out", str(tmp_path)]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # (R,) arrays: the terms pass keeps five, and the checks' plug-ins add
    # a few; a thread holds one block, its truths and block-sized
    # temporaries.  A chunk's (CHUNK, m) truths would add 1.6 MB a thread,
    # and the (R, m) aggregate and truth stores 9.6 MB
    per_thread = analysis.BLOCK_BYTES + 2 * baselines.ITERATION_BLOCK_BYTES
    assert peak <= 8 * replicates * 16 + threads * per_thread


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
        terms = cli.sample_condition_terms

        def recording(*args, threads, **kwargs):
            seen.append(threads)
            return terms(*args, threads=threads, **kwargs)

        monkeypatch.setattr(cli, "sample_condition_terms", recording)
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

    @pytest.mark.parametrize("value", ["0", "foo", "65"])
    @pytest.mark.parametrize("command", ["simulate", "conditions"])
    def test_every_command_rejects_a_bad_count(self, tmp_path, capsys, monkeypatch, command,
                                               value):
        self._rejects(tmp_path, capsys, monkeypatch, value, [command, "--threads", value])

    @pytest.mark.parametrize("value", ["0", "foo", "65"])
    @pytest.mark.parametrize("command", ["simulate", "conditions"])
    def test_a_bad_count_in_a_config_file_names_its_flag(self, tmp_path, capsys, monkeypatch,
                                                         command, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threads": value}))
        self._rejects(tmp_path, capsys, monkeypatch, value, [command, "--config", str(cfg)])

    @staticmethod
    def _rejects(tmp_path, capsys, monkeypatch, value, argv):
        import ebtruth.analysis as analysis

        drawn = []
        monkeypatch.setattr(analysis, "iter_replicates", lambda *a, **k: drawn.append(a))
        # one chunk, so even a count that went unchecked would start no thread
        out = tmp_path / "out"
        assert main([*argv, "--replicates", "20", "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "--threads" in err[0] and repr(value) in err[0], err
        assert drawn == [] and not out.exists()

    def test_explicit_counts(self):
        from ebtruth.cli import MAX_THREADS, _threads
        from ebtruth.errors import ValidationError

        assert _threads("3") == 3
        assert _threads(str(MAX_THREADS)) == MAX_THREADS == 64
        for value in ("0", str(MAX_THREADS + 1), "10000000000"):
            with pytest.raises(ValidationError, match=f"--threads must be from 1 to 64 or "
                                                      f"'auto', got '{value}'"):
                _threads(value)

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_evaluate_takes_no_thread_count(self, tmp_path, dataset_csv, capsys, source):
        # evaluate runs serially, so a count would do nothing
        argv = ["evaluate", "--data", dataset_csv, "--out", str(tmp_path / "out")]
        if source == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"threads": 2}))
            assert main(argv + ["--config", str(cfg)]) == EXIT_VALIDATION
            assert capsys.readouterr().err == "error: config file: unknown key 'threads'\n"
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--threads", "2"])
            assert exc.value.code == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert err.splitlines()[-1] == "error: unrecognized arguments: --threads 2"
        assert not (tmp_path / "out").exists()


# (improvement_ratio, base_risk, eb_risk) of every evaluate.csv row, frozen
# from the release that still drew each base's samples on their own, one
# Dataset per sample.
EVALUATE_GOLDENS = {
    ("bucket0", "mean"): (1.4519515455325391, 30.057025943598738, 43.641345272919814),
    ("bucket0", "median"): (1.3944180209809822, 31.79756818157182, 44.33910209575522),
    ("bucket0", "crh"): (1.8822387924221486, 24.5567172957242, 46.221605908556015),
    ("bucket0", "catd"): (1.2240888493755577, 39.07975803385225, 47.837096045533414),
    ("bucket0", "distance"): (1.7360034922892198, 26.002712305408977, 45.140799371181856),
    ("bucket1", "mean"): (0.4045434385624492, 73.76493494837412, 29.841120429350646),
    ("bucket1", "median"): (0.4735616445845917, 59.220726376406105, 28.044664576304985),
    ("bucket1", "crh"): (0.6473189535724908, 42.64154721688205, 27.602681723144048),
    ("bucket1", "catd"): (0.561087115688132, 60.63453014709647, 34.02125363133944),
    ("bucket1", "distance"): (0.5123192676656579, 55.82079794474869, 28.59807032356631),
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
