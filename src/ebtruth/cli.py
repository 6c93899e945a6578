"""Batch command-line front end emitting reproducible CSV/JSONL reports.

Subcommands: demo-table1, simulate, evaluate, conditions.  Every run embeds
the resolved config (and seed) in a '# config:' header line of each report,
and repeated runs with the same seed produce byte-identical output under any
thread count.

A --config file holds one JSON object.  Each of its keys becomes one
--key=value flag after the command line, and the whole line is parsed again,
so file values are checked exactly as flags are and win over them.  Exit
codes: 0 success; 1 a rejected flag or value, including a config key that is
not a flag of the command or a value that is not a JSON string or number; 2 a
file that cannot be read or parsed, including a config file that is not a
JSON object; 3 a failed demo-table1 self-check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import analysis
from .analysis import (
    AwgGenerator,
    MEAN_SQUARED,
    SUM_SQUARED,
    check_mc_request,
    improvement_ratios,
    map_tasks,
    mc_risk,
    pipeline_blue,
    pipeline_eb_blue,
    pipeline_stein_blue,
    sample_condition_terms,
    improvement_condition,
    risk_decomposition,
    check_deviation_inputs,
    sufficient_conditions,
    loss,
)
from .baselines import CATD, CRH, DistanceWeighted, Mean, Median, blue_aggregate
from .data import (
    ConstantGT,
    ExplicitSigmas,
    GaussianGT,
    GaussianSqSigmas,
    IndexedSigmas,
    load_csv,
    partition_questions,
)
from .errors import EbtruthError, ParseError, ValidationError
from .estimators import ebe
from .model import check_sigma2, dispersion, validate_matrix
from .variance import Constant, HeuristicH, SampleScaled

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_ASSERTION = 3

TABLE1_VALUES = [[20, 2, 3, 4], [10, 11, 18, 14], [8, 11, 23, 19], [6, 13, 7, 3]]
TABLE1_VARIANCES = [93.5, 11.0, 34.5, 56.5]
TABLE1_GT = [10.0, 9.0, 12.0, 16.0]
TABLE1_AVG = [11.0, 9.25, 12.75, 10.0]
TABLE1_AVG_LOSS = 9.41
TABLE1_BLUE = [9.85, 10.6, 16.6, 12.95]
# entries are printed at mixed precision; tolerance is half a display step
# (with a little slack), per printed digit count
TABLE1_BLUE_ATOL = [0.01, 0.05, 0.05, 0.01]
TABLE1_BLUE_LOSS = 8.22


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


GT_FORMS = "'constant[:VALUE]' or 'gaussian[:MEAN,VARIANCE]'"
SIGMA_FORMS = ("'indexed', 'gaussian-sq[:MEAN,VARIANCE,FLOOR]' "
               "or 'explicit:VARIANCE[,VARIANCE...]'")
PSI_FORMS = "'h', 's[:SCALE]' or 'const:VALUE'"


def _numbers(text: str, forms: str, count: int | None = None, default=None) -> list[float]:
    """The comma-separated numbers after a spec's kind and ':' (``count`` of
    them if given), or ``default`` for a spec without ':' (None: the numbers
    are required).  Anything else, a kind that takes no numbers given some
    or a ':' with none after it included, raises a ValidationError naming
    the spec and the forms it may take."""
    _, colon, rest = text.partition(":")
    parts = rest.split(",")
    try:
        if not colon and default is not None:
            return default
        if count is not None and len(parts) != count:
            raise ValueError
        return [float(x) for x in parts]
    except ValueError:
        raise ValidationError(f"bad spec {text!r}; expected {forms}") from None


def _parse_gt(text: str):
    kind = text.partition(":")[0]
    if kind == "constant":
        return ConstantGT(*_numbers(text, GT_FORMS, 1, [2.0]))
    if kind == "gaussian":
        return GaussianGT(*_numbers(text, GT_FORMS, 2, [2.0, 1.0]))
    raise ValidationError(f"unknown ground-truth spec {text!r}; expected {GT_FORMS}")


def _parse_sigmas(text: str):
    kind = text.partition(":")[0]
    if kind == "indexed":
        return IndexedSigmas(*_numbers(text, SIGMA_FORMS, 0, []))
    if kind == "gaussian-sq":
        return GaussianSqSigmas(*_numbers(text, SIGMA_FORMS, 3, []))
    if kind == "explicit":
        return ExplicitSigmas(_numbers(text, SIGMA_FORMS))
    raise ValidationError(f"unknown worker-sigma spec {text!r}; expected {SIGMA_FORMS}")


def _parse_psi(text: str):
    kind = text.partition(":")[0]
    if kind == "h":
        return HeuristicH(*_numbers(text, PSI_FORMS, 0, []))
    if kind == "s":
        return SampleScaled(*_numbers(text, PSI_FORMS, 1, [1.0]))
    if kind == "const":
        return Constant(*_numbers(text, PSI_FORMS, 1))
    raise ValidationError(f"unknown variance estimator {text!r}; expected {PSI_FORMS}")


BASES = {
    "mean": Mean(),
    "median": Median(),
    "crh": CRH(),
    "catd": CATD(),
    "distance": DistanceWeighted(),
}


def _parse_base(text: str):
    if text in BASES:
        return BASES[text]
    raise ValidationError(f"unknown base algorithm {text!r}")


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The ``--key=value`` tokens that the JSON object in ``args.config``
    stands for, so that argparse checks file values exactly as it checks
    flags.  The ``=`` form keeps a value that starts with '-' a value."""
    try:
        with open(args.config, encoding="utf-8") as fh:
            overrides = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"config file: {exc.msg}") from None
    if not isinstance(overrides, dict):
        raise ParseError(1, "config file: expected a JSON object")
    flags = []
    for key, value in overrides.items():
        key = key.replace("-", "_")
        if key not in vars(args) or key in ("command", "config", "func"):
            raise ValidationError(f"config file: unknown key {key!r}")
        # bool is an int to Python but not a number to a flag
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValidationError(f"config file: {key!r} must be a string or a number, "
                                  f"got {json.dumps(value)}")
        flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def _config_header(cfg: dict) -> str:
    # threads and the output directory affect execution, not results; keeping
    # them out of the header keeps reports byte-identical across thread counts
    cfg = {k: v for k, v in cfg.items() if k not in ("threads", "out")}
    body = json.dumps(cfg, sort_keys=True, default=str)
    digest = hashlib.sha256(body.encode()).hexdigest()[:16]
    return f"# config: {body}\n# config_hash: {digest}\n"


def _write_report(cfg: dict, name: str, records: list[dict]) -> str:
    """Write ``records`` as CSV under ``cfg['out']``, after the config header
    of ``cfg``, and return the file's path."""
    os.makedirs(cfg["out"], exist_ok=True)
    path = os.path.join(cfg["out"], name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_config_header(cfg))
        analysis.write_reports_csv(fh, records)
    return path


def _grid(text: str) -> str:
    """An --n-grid/--m-grid value: comma-separated positive integers.  The
    text is returned unchanged, so the config header keeps its bytes."""
    try:
        if all(int(x) >= 1 for x in text.split(",")):
            return text
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected comma-separated positive integers, got {text!r}")


def _seed(text: str) -> int:
    """A --seed value: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


# Most threads ``auto`` picks, and most ``--threads`` accepts.  A pool
# starts up to min(threads, tasks) threads, each holding a 1 MiB replicate
# block and its temporaries, and a large request has hundreds of chunks, so
# the cap, not the request, bounds that memory (a few hundred MB at 64).
AUTO_THREADS = 8
MAX_THREADS = 64


def _threads(value: str) -> int:
    if value == "auto":
        # the CPUs this process may run on, which an affinity mask can make
        # fewer than the host's
        if hasattr(os, "sched_getaffinity"):
            return min(AUTO_THREADS, len(os.sched_getaffinity(0)))
        return min(AUTO_THREADS, os.cpu_count() or 1)
    try:
        n = int(value)
    except ValueError:
        n = None
    if n is None or not 1 <= n <= MAX_THREADS:
        raise ValidationError(f"--threads must be from 1 to {MAX_THREADS} or 'auto', "
                              f"got {value!r}")
    return n


# ---------------------------------------------------------------------------
# demo-table1


def cmd_demo_table1(cfg: dict) -> int:
    X = validate_matrix(TABLE1_VALUES)
    gt = np.asarray(TABLE1_GT)
    avg = X.values.mean(axis=0)
    blue, agg_var = blue_aggregate(X, TABLE1_VARIANCES)
    eb = ebe(blue, agg_var).estimate

    avg_loss = loss(avg, gt, MEAN_SQUARED)
    blue_loss = loss(blue, gt, MEAN_SQUARED)
    eb_loss = loss(eb, gt, MEAN_SQUARED)

    def row(label, values, l):
        print(f"{label:<10}" + "".join(f"{v:>10.4f}" for v in values) + f"  loss={l:.4f}")

    print("worker answers (rows) x questions (columns):")
    for wid, r in zip(X.worker_ids, X.values):
        print(f"  worker {wid}: " + "  ".join(f"{v:6.1f}" for v in r))
    print(f"known worker variances: {TABLE1_VARIANCES}")
    row("GT", gt, 0.0)
    row("AVG", avg, avg_loss)
    row("BLUE", blue, blue_loss)
    row("EbBlue", eb, eb_loss)
    print(f"aggregated-worker variance: {agg_var:.4f}")

    failures = [message for ok, message in (
        (np.allclose(avg, TABLE1_AVG, atol=0.01), "AVG row mismatch"),
        (abs(avg_loss - TABLE1_AVG_LOSS) <= 0.05, "AVG loss mismatch"),
        (np.all(np.abs(blue - np.asarray(TABLE1_BLUE)) <= TABLE1_BLUE_ATOL), "BLUE row mismatch"),
        (abs(blue_loss - TABLE1_BLUE_LOSS) <= 0.05, "BLUE loss mismatch"),
        (eb_loss < blue_loss, "shrinkage did not improve on BLUE"),
    ) if not ok]
    if failures:
        for f in failures:
            print(f"SELF-CHECK FAILED: {f}", file=sys.stderr)
        return EXIT_ASSERTION
    print("self-check: ok")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def _simulate_pipelines() -> list:
    """The pipelines each cell runs; the grid's request check counts them."""
    return [pipeline_blue(), pipeline_eb_blue(), pipeline_stein_blue()]


def _simulate_cell(args_tuple):
    gen, replicates, seed, convention, threads = args_tuple
    result = mc_risk(gen, _simulate_pipelines(), replicates, seed, convention, threads=threads)
    rows = [(name, rep.mean_loss, rep.std_error) for name, rep in result.reports.items()]
    rows.append(("gap_blue_minus_eb_blue", *result.diff("blue", "eb_blue")))
    return [{"n": gen.n, "m": gen.m, "pipeline": name, "mean_loss": mean_loss,
             "std_error": std_error, "replicates": replicates, "seed": seed,
             "loss_convention": convention} for name, mean_loss, std_error in rows]


def cmd_simulate(cfg: dict) -> int:
    gt = _parse_gt(cfg["gt"])
    sigmas = _parse_sigmas(cfg["sigmas"])
    n_grid = [int(x) for x in cfg["n_grid"].split(",")]
    m_grid = [int(x) for x in cfg["m_grid"].split(",")]
    threads = _threads(cfg["threads"])
    gens = [AwgGenerator(gt=gt, worker_sigmas=sigmas, n=n, m=m, fresh_gt=True)
            for n in n_grid for m in m_grid]
    # every cell's losses count, as if all ran at once, whatever the threads
    check_mc_request(gens, cfg["replicates"], len(_simulate_pipelines()))
    # threads the grid's cells leave over run each cell's chunks, so a grid
    # with fewer cells than threads still uses them all
    chunk_threads = max(1, threads // len(gens))
    # one independent seed per cell keeps results thread-order-free
    cells = [(gen, cfg["replicates"], cfg["seed"] * 100_003 + ci, cfg["loss"], chunk_threads)
             for ci, gen in enumerate(gens)]
    # Largest cells (by n·m) start first, so the longest one does not run
    # alone at the end (Graham's longest-processing-time-first rule); the
    # sort is stable, and the rows go back into grid order before writing.
    order = sorted(range(len(cells)), key=lambda ci: -gens[ci].n * gens[ci].m)
    per_cell = dict(zip(order, map_tasks(_simulate_cell, [cells[ci] for ci in order], threads)))
    records = [row for ci in range(len(cells)) for row in per_cell[ci]]
    out_path = _write_report(cfg, "simulate.csv", records)
    print(f"wrote {out_path} ({len(records)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(cfg: dict) -> int:
    if not cfg["data"]:
        raise ValidationError("evaluate requires --data")
    ds = load_csv(cfg["data"])
    psi = _parse_psi(cfg["psi"])
    bases = [(_parse_base(b), b) for b in cfg["bases"].split(",")]
    buckets = cfg["partition"]
    if buckets < 1:
        raise ValidationError(f"--partition must be >= 1, got {buckets}")
    if buckets > ds.matrix.n_questions:
        # a bucket would be empty
        raise ValidationError(f"--partition {buckets} is more than the "
                              f"{ds.matrix.n_questions} questions of --data")
    datasets = [("all", ds)] if buckets <= 1 else [
        (f"bucket{i}", part) for i, part in enumerate(partition_questions(ds, buckets))
    ]
    records = []
    for label, part in datasets:
        gt_var = (dispersion(part.ground_truth).sample_variance
                  if part.ground_truth is not None and part.ground_truth.shape[0] >= 2
                  else None)
        results = improvement_ratios(part, [base for base, _ in bases], psi, n=cfg["n"],
                                     m=cfg["m"], samples=cfg["samples"], seed=cfg["seed"])
        for (_, base_name), res in zip(bases, results):
            records.append({
                "subset": label, "base": base_name,
                "gt_sample_variance": gt_var,
                "improvement_ratio": res.improvement_ratio,
                "base_risk": res.base_risk, "eb_risk": res.eb_risk,
                "samples": res.samples, "seed": res.seed,
            })
            print(f"{label} base={base_name} IR={res.improvement_ratio:.6f}")
    # the data is named by its content, not by the directory it was read
    # from, so the same data gives the same report bytes wherever it lives
    with open(cfg["data"], "rb") as fh:
        data_sha256 = hashlib.sha256(fh.read()).hexdigest()
    out_path = _write_report(dict(cfg, data=os.path.basename(cfg["data"]),
                                  data_sha256=data_sha256), "evaluate.csv", records)
    print(f"wrote {out_path} ({len(records)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# conditions


def cmd_conditions(cfg: dict) -> int:
    check_deviation_inputs(cfg["eps"], cfg["delta"], cfg["bound"])
    gt = _parse_gt(cfg["gt"])
    sigmas = _parse_sigmas(cfg["sigmas"])
    psi = _parse_psi(cfg["psi"])
    base = _parse_base(cfg["base"])
    n, m, seed = cfg["n"], cfg["m"], cfg["seed"]
    gen = AwgGenerator(gt=gt, worker_sigmas=sigmas, n=n, m=m, fresh_gt=True)
    sigma2 = cfg["sigma2"]
    if sigma2 is None:
        derive = getattr(base, "aggregated_variance", None)
        if derive is None:
            raise ValidationError(
                "aggregated variance is only derivable for the mean base; pass --sigma2")
        sigma2 = derive(analysis.fixed_worker_variances(gen, seed))
    check_sigma2(sigma2)
    terms = sample_condition_terms(gen, base, psi, cfg["replicates"], seed,
                                   threads=_threads(cfg["threads"]))

    reports = [improvement_condition(terms), *sufficient_conditions(
        terms, sigma2, psi, eps=cfg["eps"], delta=cfg["delta"], bound=cfg["bound"])]
    records = [asdict(rep) for rep in reports]
    decomp = risk_decomposition(terms, sigma2)
    records.append({"name": "risk_decomposition", "lhs": decomp["lhs_gap"],
                    "rhs": decomp["rhs_formula"], "direction": "=",
                    "satisfied": decomp["agree"],
                    "std_errors": [decomp["residual_se"]]})
    for rec in records:
        rec["seed"] = seed
        print(f"{rec['name']}: lhs={rec['lhs']:.6g} rhs={rec['rhs']:.6g} "
              f"satisfied={rec['satisfied']}")
    csv_path = _write_report(cfg, "conditions.csv", records)
    jsonl_path = os.path.join(cfg["out"], "conditions.jsonl")
    analysis.write_reports_jsonl(jsonl_path, records)
    print(f"wrote {csv_path} and {jsonl_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ebtruth", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, threads=True):
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--out", default="out")
        if threads:
            p.add_argument("--threads", default="auto")
        p.add_argument("--config", default=None,
                       help="JSON config file; file values win over flags")

    p = sub.add_parser("demo-table1", help="print the built-in worked example and self-check")
    p.set_defaults(func=cmd_demo_table1)

    p = sub.add_parser("simulate", help="paired risk sweep over an (n, m) grid")
    common(p)
    p.add_argument("--replicates", type=int, default=100_000)
    p.add_argument("--loss", choices=[SUM_SQUARED, MEAN_SQUARED], default=SUM_SQUARED)
    p.add_argument("--gt", default="gaussian:2,1")
    p.add_argument("--sigmas", default="indexed")
    p.add_argument("--n-grid", dest="n_grid", type=_grid, default="1,2,4,8")
    p.add_argument("--m-grid", dest="m_grid", type=_grid, default="5,10,25,100")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="improvement ratio on a dataset file")
    common(p, threads=False)  # evaluate runs serially
    p.add_argument("--data", default=None, help="dataset CSV path")
    p.add_argument("--bases", default="mean,median,crh,catd,distance")
    p.add_argument("--psi", default="h")
    p.add_argument("--n", type=int, required=False, default=4)
    p.add_argument("--m", type=int, required=False, default=4)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--partition", type=int, default=1)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("conditions", help="numeric risk-condition reports on synthetic data")
    common(p)
    p.add_argument("--replicates", type=int, default=100_000)
    p.add_argument("--gt", default="constant:2")
    p.add_argument("--sigmas", default="explicit:1")
    p.add_argument("--psi", default="const:1")
    p.add_argument("--base", default="mean")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--sigma2", type=float, default=None,
                   help="true aggregated-worker variance override")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--bound", type=float, default=None)
    p.set_defaults(func=cmd_conditions)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # file values come last, so they win over the command line's
            args = parser.parse_args(argv + _config_flags(args))
        return args.func({k: v for k, v in vars(args).items() if k not in ("func", "config")})
    except (FileNotFoundError, PermissionError, IsADirectoryError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (EbtruthError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
