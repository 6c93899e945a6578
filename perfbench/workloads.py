"""The benchmark workloads: inputs from a seed, one timed pass, output checks.

Each workload runs the program through its public entry points (the CLI's
``main`` or the library functions).  ``run_pass(tracer)`` runs the same pass
with spans around the calls into each layer; untraced passes run the
unmodified program with no instrumentation in the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ebtruth import analysis, baselines, cli, data, estimators, model, pipelines, variance
from ebtruth.baselines import CATD, CRH, DistanceWeighted, Mean, Median
from ebtruth.data import ConstantGT, GaussianGT, GaussianSqSigmas
from ebtruth.variance import HeuristicH

from metrics import PER_LAYER, percentile
from tracing import Tracer, patched

BASES = {"mean": Mean(), "median": Median(), "crh": CRH(), "catd": CATD(),
         "distance": DistanceWeighted()}
_BASE_NAMES = {type(b): name for name, b in BASES.items()}

# Criterion 5's frozen improvement ratios at seed 1 and 1000 samples
# (tests/test_acceptance.py); the evaluate workload must reproduce them to 1e-12.
CONSTANT_GT_GOLDENS = {
    "mean": 0.02136476862548009,
    "median": 0.02244570998368571,
    "crh": 0.021183651945092183,
    "catd": 0.019514597395751822,
    "distance": 0.021177819064495524,
}
HIGH_VARIANCE_GOLDENS = {
    "mean": 1.0225068203978551,
    "median": 1.0185258745706525,
    "crh": 1.0343999649681772,
    "catd": 1.0221124650631483,
    "distance": 1.0294998600128185,
}
GOLDEN_SEED = 1
GOLDEN_SAMPLES = 1000

# Criterion 1's worked example: the shrunk BLUE answers on Table 1 have mean
# squared error 6.83 against the known truths.
TABLE1_EB_LOSS = 6.83
TABLE1_EB_LOSS_TOL = 0.01

THREADS = 2  # the simulate workload's --threads; the machine has 2 CPUs
CONDITIONS_SIGMA2 = 0.1  # the conditions workload's fixed --sigma2
SCALAR_SHAPE = (10, 50)  # workers x questions of the scalar workload's matrix
MAX_MESSAGES = 5


@dataclass
class PassResult:
    wall_s: float = 0.0
    ops: int = 0
    failed: int = 0
    latencies_us: list = field(default_factory=list)
    replicates: int = 0
    digests: dict = field(default_factory=dict)
    messages: list = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _run_cli(argv) -> int:
    # the CLI prints progress lines; keep them off the benchmark's stdout
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _report_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


class Workload:
    name = ""
    parallel = False  # True when a pass uses the CLI thread pool

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.workdir = workdir
        self.inputs_digest = ""

    def setup(self) -> None:
        """Write the inputs drawn from the seed and warm up every code path."""
        raise NotImplementedError

    def ops_per_pass(self) -> int:
        raise NotImplementedError

    def run_pass(self, tracer: Tracer | None = None, serial: bool = False) -> PassResult:
        """One pass of the workload; with a tracer, under layer spans."""
        for path in self.report_files():  # a stale report must not pass a check
            if os.path.exists(path):
                os.remove(path)
        if tracer is None:
            return self._pass(serial)
        with patched(layer_wrappers(tracer)):
            result = self._pass(serial)
        for path in self.report_files():
            if os.path.exists(path):
                tracer.count("analysis.write_reports.bytes", os.path.getsize(path))
        return result

    def _pass(self, serial: bool) -> PassResult:
        raise NotImplementedError

    def report_files(self) -> list[str]:
        return []

    def _timed_cli(self, result: PassResult, argv) -> int | None:
        """Run one CLI command; returns its exit code, or None if it raised."""
        t0 = time.perf_counter()
        try:
            rc = _run_cli(argv)
        except Exception as exc:  # an operation that raises counts as failed
            rc = None
            result.fail(0, f"{argv[0]} raised {type(exc).__name__}: {exc}")
        result.latencies_us.append((time.perf_counter() - t0) * 1e6)
        return rc


# ---------------------------------------------------------------------------


class Simulate(Workload):
    """``ebtruth simulate`` on its default grid with 2 threads."""

    name = "simulate"
    parallel = True

    def __init__(self, seed, workdir, replicates=40_000, n_grid=(1, 2, 4, 8),
                 m_grid=(5, 10, 25, 100)):
        super().__init__(seed, workdir)
        self.replicates = replicates
        self.n_grid = tuple(n_grid)
        self.m_grid = tuple(m_grid)
        self.out = os.path.join(workdir, "simulate")

    def ops_per_pass(self):
        return len(self.n_grid) * len(self.m_grid)

    def argv(self, replicates, threads, out, n_grid=None, m_grid=None):
        return ["simulate", "--gt", "gaussian:2,1", "--sigmas", "indexed",
                "--n-grid", ",".join(map(str, n_grid or self.n_grid)),
                "--m-grid", ",".join(map(str, m_grid or self.m_grid)),
                "--replicates", str(replicates), "--seed", str(self.seed),
                "--threads", str(threads), "--out", out]

    def setup(self):
        self.inputs_digest = sha256_text(json.dumps(self.argv(self.replicates, THREADS, "")))
        _run_cli(self.argv(100, THREADS, os.path.join(self.workdir, "warmup"),
                           n_grid=(self.n_grid[0], self.n_grid[-1]),
                           m_grid=(self.m_grid[0], self.m_grid[-1])))

    def report_files(self):
        return [os.path.join(self.out, "simulate.csv")]

    def _pass(self, serial):
        cells = self.ops_per_pass()
        result = PassResult(ops=cells, replicates=cells * self.replicates)
        t0 = time.perf_counter()
        threads = 1 if serial else THREADS
        rc = self._timed_cli(result, self.argv(self.replicates, threads, self.out))
        result.wall_s = time.perf_counter() - t0
        if rc != 0:
            result.fail(cells, f"simulate exited with {rc}")
            return result
        path = self.report_files()[0]
        result.digests["simulate.csv"] = sha256_file(path)
        try:
            failed, messages = check_simulate_report(path, self.n_grid, self.m_grid)
        except (KeyError, ValueError) as exc:
            failed, messages = cells, [f"simulate report is malformed: {exc!r}"]
        for message in messages:
            result.fail(0, message)
        result.failed += failed
        return result


def check_simulate_report(path, n_grid, m_grid) -> tuple[int, list[str]]:
    """Failed cells: a cell fails unless every value is finite and the paired
    gap blue - eb_blue is above -3 standard errors."""
    by_cell: dict = {}
    for row in _report_rows(path):
        by_cell.setdefault((int(row["n"]), int(row["m"])), []).append(row)
    failed, messages = 0, []
    for cell in ((n, m) for n in n_grid for m in m_grid):
        rows = by_cell.get(cell, [])
        gaps = [r for r in rows if r["pipeline"] == "gap_blue_minus_eb_blue"]
        values = [float(r[k]) for r in rows for k in ("mean_loss", "std_error")]
        if len(gaps) != 1 or not _finite(*values):
            ok = False
        else:
            ok = float(gaps[0]["mean_loss"]) > -3.0 * float(gaps[0]["std_error"])
        if not ok:
            failed += 1
            messages.append(f"simulate cell n={cell[0]} m={cell[1]} failed its check")
    return failed, messages


# ---------------------------------------------------------------------------


class Conditions(Workload):
    """``ebtruth conditions`` with CRH and the residual heuristic."""

    name = "conditions"

    def __init__(self, seed, workdir, replicates=40_000):
        super().__init__(seed, workdir)
        self.replicates = replicates
        self.out = os.path.join(workdir, "conditions")

    def ops_per_pass(self):
        return 1

    def argv(self, replicates, out):
        return ["conditions", "--base", "crh", "--psi", "h", "--n", "10", "--m", "50",
                "--gt", "gaussian:2,1", "--sigmas", "gaussian-sq",
                "--sigma2", repr(CONDITIONS_SIGMA2), "--replicates", str(replicates),
                "--seed", str(self.seed), "--out", out]

    def setup(self):
        self.inputs_digest = sha256_text(json.dumps(self.argv(self.replicates, "")))
        _run_cli(self.argv(200, os.path.join(self.workdir, "warmup")))

    def report_files(self):
        return [os.path.join(self.out, "conditions.csv"),
                os.path.join(self.out, "conditions.jsonl")]

    def _pass(self, serial):
        result = PassResult(ops=1, replicates=self.replicates)
        t0 = time.perf_counter()
        rc = self._timed_cli(result, self.argv(self.replicates, self.out))
        result.wall_s = time.perf_counter() - t0
        if rc != 0:
            result.fail(1, f"conditions exited with {rc}")
            return result
        csv_path, jsonl_path = self.report_files()
        result.digests["conditions.csv"] = sha256_file(csv_path)
        result.digests["conditions.jsonl"] = sha256_file(jsonl_path)
        try:
            message = check_conditions_report(jsonl_path)
        except (KeyError, TypeError, ValueError) as exc:
            message = f"conditions report is malformed: {exc!r}"
        if message:
            result.fail(1, message)
        return result


def check_conditions_report(jsonl_path) -> str | None:
    """None when there is at least one record and every value is finite."""
    with open(jsonl_path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    if not records:
        return "conditions wrote no records"
    for rec in records:
        if not _finite(rec["lhs"], rec["rhs"], *rec.get("std_errors", [])):
            return f"conditions record {rec['name']} has a non-finite value"
    return None


# ---------------------------------------------------------------------------


class Evaluate(Workload):
    """Criterion 5's improvement-ratio protocol plus ``ebtruth evaluate`` on a
    dataset file written from the seed."""

    name = "evaluate"

    SOURCES = (
        ("constant", (ConstantGT(2.0), GaussianSqSigmas()), 10, 50, CONSTANT_GT_GOLDENS),
        ("high_variance", (GaussianGT(2.0, 100.0), GaussianSqSigmas()), 5, 50,
         HIGH_VARIANCE_GOLDENS),
    )

    def __init__(self, seed, workdir, samples=GOLDEN_SAMPLES, cli_samples=1000,
                 workers=40, questions=400):
        super().__init__(seed, workdir)
        self.samples = samples
        self.cli_samples = cli_samples
        self.shape = (workers, questions)
        self.data_path = os.path.join(workdir, "evaluate_data.csv")
        self.out = os.path.join(workdir, "evaluate")

    def ops_per_pass(self):
        return len(self.SOURCES) * len(BASES) + 1

    def argv(self, samples, out):
        return ["evaluate", "--data", self.data_path, "--partition", "2",
                "--bases", ",".join(BASES), "--psi", "h", "--n", "10", "--m", "50",
                "--samples", str(samples), "--seed", str(self.seed), "--out", out]

    def setup(self):
        n, m = self.shape
        rng = np.random.default_rng(self.seed)
        truth = rng.normal(2.0, 10.0, size=m)
        variances = rng.uniform(0.25, 4.0, size=n)
        values = truth[None, :] + rng.normal(size=(n, m)) * np.sqrt(variances)[:, None]
        ds = data.Dataset(model.validate_matrix(values), ground_truth=truth)
        data.save_csv(ds, self.data_path)
        self.inputs_digest = sha256_text(json.dumps([self.seed, self.samples, self.cli_samples])
                                         + sha256_file(self.data_path))
        for _, source, n_, m_, _ in self.SOURCES:
            for base in BASES.values():
                analysis.improvement_ratio(source, base, HeuristicH(), n=n_, m=m_,
                                           samples=10, seed=self.seed)
        _run_cli(self.argv(10, os.path.join(self.workdir, "warmup")))

    def report_files(self):
        return [os.path.join(self.out, "evaluate.csv")]

    def _pass(self, serial):
        result = PassResult(ops=self.ops_per_pass())
        records = []
        t0 = time.perf_counter()
        for label, source, n, m, goldens in self.SOURCES:
            for name, base in BASES.items():
                t = time.perf_counter()
                try:
                    r = analysis.improvement_ratio(source, base, HeuristicH(), n=n, m=m,
                                                   samples=self.samples, seed=self.seed)
                except Exception as exc:  # an operation that raises counts as failed
                    result.latencies_us.append((time.perf_counter() - t) * 1e6)
                    result.fail(1, f"improvement_ratio {label}/{name} raised {exc!r}")
                    continue
                result.latencies_us.append((time.perf_counter() - t) * 1e6)
                result.replicates += self.samples
                records.append(f"{label},{name},{r.improvement_ratio!r},"
                               f"{r.base_risk!r},{r.eb_risk!r}")
                message = self.check_ratio(label, name, r.improvement_ratio, goldens)
                if message:
                    result.fail(1, message)
        rc = self._timed_cli(result, self.argv(self.cli_samples, self.out))
        result.wall_s = time.perf_counter() - t0
        result.digests["improvement_ratios"] = sha256_text("\n".join(records))
        if rc != 0:
            result.fail(1, f"evaluate exited with {rc}")
            return result
        path = self.report_files()[0]
        result.digests["evaluate.csv"] = sha256_file(path)
        try:
            ratios = [float(r["improvement_ratio"]) for r in _report_rows(path)]
        except (KeyError, ValueError):
            ratios = []
        result.replicates += self.cli_samples * len(ratios)
        if len(ratios) != 2 * len(BASES) or not all(_finite(x) and x > 0 for x in ratios):
            result.fail(1, "evaluate report is incomplete or has a bad ratio")
        return result

    def check_ratio(self, label, name, ratio, goldens) -> str | None:
        if not _finite(ratio):
            return f"{label}/{name}: ratio {ratio!r} is not finite"
        if label == "constant" and not ratio < 1.0:
            return f"{label}/{name}: ratio {ratio!r} is not below 1"
        if label == "high_variance" and not 0.98 <= ratio <= 1.05:
            return f"{label}/{name}: ratio {ratio!r} is outside [0.98, 1.05]"
        if (self.seed == GOLDEN_SEED and self.samples == GOLDEN_SAMPLES
                and abs(ratio - goldens[name]) > 1e-12):
            return f"{label}/{name}: ratio {ratio!r} differs from the golden {goldens[name]!r}"
        return None


# ---------------------------------------------------------------------------


class Scalar(Workload):
    """Closed loop, one caller: eb_blue on Table 1 alternating with eb_wrap
    over the five bases on a 10 x 50 matrix drawn from the seed."""

    name = "scalar"

    def __init__(self, seed, workdir, rounds=1000):
        super().__init__(seed, workdir)
        self.rounds = rounds

    def ops_per_pass(self):
        return 2 * len(BASES) * self.rounds

    def setup(self):
        n, m = SCALAR_SHAPE
        rng = np.random.default_rng(self.seed)
        truth = rng.normal(2.0, 1.0, size=m)
        variances = rng.uniform(0.25, 4.0, size=n)
        self.values = truth[None, :] + rng.normal(size=(n, m)) * np.sqrt(variances)[:, None]
        self.inputs_digest = hashlib.sha256(self.values.tobytes()).hexdigest()
        self.table = np.asarray(cli.TABLE1_VALUES, dtype=float)
        self.table_variances = list(cli.TABLE1_VARIANCES)
        # reference outputs, each verified once; every call must reproduce its
        # reference bit for bit
        self.reference = {}
        out = pipelines.eb_blue(model.validate_matrix(self.table), self.table_variances)
        eb_loss = float(((out - np.asarray(cli.TABLE1_GT)) ** 2).mean())
        if abs(eb_loss - TABLE1_EB_LOSS) <= TABLE1_EB_LOSS_TOL:
            self.reference["eb_blue"] = out
        X = model.validate_matrix(self.values)
        for name, base in BASES.items():
            out = pipelines.eb_wrap(X, base, HeuristicH())
            base_mean = float(baselines.run_td(base, X).mean())
            if (np.all(np.isfinite(out))
                    and abs(float(out.mean()) - base_mean) <= 1e-9 * max(1.0, abs(base_mean))):
                self.reference[name] = out
        for _ in range(20):
            self._round(PassResult())

    def _round(self, result: PassResult) -> None:
        clock = time.perf_counter
        for name, base in BASES.items():
            t0 = clock()
            out = pipelines.eb_blue(model.validate_matrix(self.table), self.table_variances)
            t1 = clock()
            result.latencies_us.append((t1 - t0) * 1e6)
            self._check(result, "eb_blue", out)
            t0 = clock()
            out = pipelines.eb_wrap(model.validate_matrix(self.values), base, HeuristicH())
            t1 = clock()
            result.latencies_us.append((t1 - t0) * 1e6)
            self._check(result, name, out)

    def _check(self, result: PassResult, kind: str, out) -> None:
        ref = self.reference.get(kind)
        if ref is None or not np.array_equal(out, ref):
            result.fail(1, f"{kind}: output differs from its verified reference"
                        if ref is not None else f"{kind}: reference output failed its check")

    def _pass(self, serial):
        result = PassResult(ops=self.ops_per_pass(), replicates=self.ops_per_pass())
        t0 = time.perf_counter()
        for _ in range(self.rounds):
            try:
                self._round(result)
            except Exception as exc:  # an operation that raises counts as failed
                result.fail(2 * len(BASES), f"scalar round raised {exc!r}")
        result.wall_s = time.perf_counter() - t0
        result.digests["outputs"] = hashlib.sha256(
            b"".join(self.reference[k].tobytes() for k in sorted(self.reference))).hexdigest()
        return result


WORKLOADS = {w.name: w for w in (Simulate, Evaluate, Conditions, Scalar)}


# ---------------------------------------------------------------------------
# Layer spans


def _base_name(alg) -> str:
    return _BASE_NAMES.get(type(alg), type(alg).__name__.lower())


def _count_chunk(tracer, chunk):
    X = chunk[0]
    tracer.count("analysis.iter_replicates.replicates", X.shape[0])
    tracer.count("analysis.iter_replicates.chunks")
    tracer.count("analysis.iter_replicates.bytes_computed", X.nbytes)


def layer_wrappers(tracer: Tracer) -> list:
    """(original, wrapper) pairs for every layer boundary the benchmark times."""
    t = tracer

    def traced_pipeline(factory):
        def make(*args, **kwargs):
            p = factory(*args, **kwargs)
            return analysis.Pipeline(p.name, t.wrap(p.fn, f"analysis.pipeline.{p.name}"))
        return make

    def run_td_name(alg, *args, **kwargs):
        return f"baselines.run_td_batch.{_base_name(alg)}"

    def count_td(tr, args, kwargs, result):
        tr.count(f"baselines.run_td_batch.{_base_name(args[0])}.replicates",
                 np.shape(args[1])[0])

    def count_shrunk_rows(tr, args, kwargs, result):
        tr.count("estimators.shrink_batch.rows", np.shape(args[0])[0])

    def count_csv_bytes(tr, args, kwargs, result):
        tr.count("data.load_csv.bytes", os.path.getsize(args[0]))

    def eb_wrap_name(X, base, *args, **kwargs):
        return f"pipelines.eb_wrap.{_base_name(base)}"

    pairs = [
        (cli.main, t.wrap(cli.main, "cli.main")),
        (analysis.mc_risk, t.wrap(analysis.mc_risk, "analysis.mc_risk")),
        (analysis.iter_replicates, t.wrap_generator(
            analysis.iter_replicates, "analysis.iter_replicates", _count_chunk)),
        (analysis.psi_batch, t.wrap(analysis.psi_batch, "analysis.psi_batch")),
        (analysis.psi_derivative_dot_batch, t.wrap(
            analysis.psi_derivative_dot_batch, "analysis.psi_derivative_dot_batch")),
        (analysis.improvement_ratio, t.wrap(analysis.improvement_ratio,
                                            "analysis.improvement_ratio")),
        (baselines.run_td_batch, t.wrap(baselines.run_td_batch, run_td_name, count_td)),
        (data.gen_synthetic, t.wrap(data.gen_synthetic, "data.gen_synthetic")),
        (data.subsample, t.wrap(data.subsample, "data.subsample")),
        (data.load_csv, t.wrap(data.load_csv, "data.load_csv", count_csv_bytes)),
        (data.partition_questions, t.wrap(data.partition_questions,
                                          "data.partition_questions")),
        (model.validate_matrix, t.wrap(model.validate_matrix, "model.validate_matrix")),
        (variance.psi_value, t.wrap(variance.psi_value, "variance.psi_value")),
        (estimators.shrink_batch, t.wrap(estimators.shrink_batch, "estimators.shrink_batch",
                                         count_shrunk_rows)),
        (estimators.ebe, t.wrap(estimators.ebe, "estimators.ebe")),
        (pipelines.eb_blue, t.wrap(pipelines.eb_blue, "pipelines.eb_blue")),
        (pipelines.eb_wrap, t.wrap(pipelines.eb_wrap, eb_wrap_name)),
    ]
    for factory in (analysis.pipeline_blue, analysis.pipeline_eb_blue,
                    analysis.pipeline_stein_blue):
        pairs.append((factory, traced_pipeline(factory)))
    for check in (analysis.improvement_condition, analysis.sufficient_conditions,
                  analysis.risk_decomposition):
        pairs.append((check, t.wrap(check, "analysis.condition_checks")))
    for writer in (analysis.write_reports_csv, analysis.write_reports_jsonl):
        pairs.append((writer, t.wrap(writer, "analysis.write_reports")))
    return pairs


def layer_metrics(tracer: Tracer) -> dict:
    """Values of every span- or counter-based metric, for one traced pass."""
    busy = tracer.busy()
    own = tracer.self_time()
    calls = Counter(s[1] for s in tracer.spans)
    values = {}
    for name, _, _, how, source in PER_LAYER:
        if how == "busy":
            values[name] = busy.get(source, 0.0)
        elif how == "self":
            values[name] = own.get(source, 0.0)
        elif how == "calls":
            values[name] = calls.get(source, 0)
        elif how == "count":
            values[name] = tracer.counts.get(source, 0)
        elif how in ("p50", "p99"):
            durations = tracer.durations(source)
            values[name] = (percentile(durations, int(how[1:])) * 1e6 if durations else 0.0)
    return values
