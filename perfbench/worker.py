"""Child process of the benchmark: set up one workload, run its passes, report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \\
        --mode setup|measure|trace --workdir DIR

``setup`` only sets up; ``measure`` runs one warm-up pass, then untraced
passes for S seconds; ``trace`` runs one warm-up pass, then rounds of
untraced and traced passes for S seconds.  Each event is one JSON object on its own stdout line, after the
prefix ``@perfbench ``.
run.py starts this process with the BLAS and OpenMP pools pinned to one
thread; a fresh process per child also gives each its own peak RSS.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MARK = "@perfbench "
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def emit(event: str, **fields) -> None:
    print(MARK + json.dumps({"event": event, **fields}), flush=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    from numpy._core import _multiarray_umath

    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        try:
            fn = getattr(lib, symbol)
        except AttributeError:
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def emit_pass(kind: str, result) -> None:
    emit("pass", kind=kind, wall_s=result.wall_s, ops=result.ops, failed=result.failed,
         latencies_us=result.latencies_us, replicates=result.replicates,
         digests=result.digests, messages=result.messages)


def require_same(result, reference, what: str) -> None:
    """A pass whose reports differ from the reference pass fails every operation."""
    if reference is not None and result.digests != reference:
        result.failed = result.ops
        result.messages.append(f"{what}: {result.digests} != {reference}")


def measure(workload, seconds: float) -> None:
    # The first full-size pass is slower than later ones (first allocations
    # at chunk size); it is checked and counted but not timed.
    result = workload.run_pass()
    reference = result.digests or None
    emit_pass("warmup", result)
    deadline = time.perf_counter() + seconds
    while True:
        result = workload.run_pass()
        require_same(result, reference, "reports differ from the first pass")
        reference = reference or result.digests
        emit_pass("untraced", result)
        # stop when the next pass would end closer to after the deadline than before it
        if time.perf_counter() + result.wall_s / 2 >= deadline:
            break


def trace(workload, seconds: float, threads: int) -> None:
    from tracing import Tracer
    from workloads import layer_metrics

    # as in measure(), the first full-size pass is checked but not timed
    result = workload.run_pass()
    reference = result.digests or None
    emit_pass("warmup", result)
    # traced passes run serially, so a parallel workload also gets untraced
    # serial passes to compare them with
    kinds = ["untraced", "serial", "traced"] if workload.parallel else ["untraced", "traced"]
    walls = {kind: [] for kind in kinds}
    per_pass = []
    deadline = time.perf_counter() + seconds
    for round_ in itertools.count():
        # rotate the order of the kinds each round, so that a drift in the
        # machine's speed does not always favour the same kind
        shift = round_ % len(kinds)
        for kind in kinds[shift:] + kinds[:shift]:
            tracer = Tracer() if kind == "traced" else None
            result = workload.run_pass(tracer=tracer, serial=kind != "untraced")
            require_same(result, reference, f"{kind} pass reports differ from the first pass")
            emit_pass(kind, result)
            walls[kind].append(result.wall_s)
            if tracer is not None:
                per_pass.append(layer_metrics(tracer))
        if time.perf_counter() >= deadline:
            break
    values = {k: sum(p[k] for p in per_pass) / len(per_pass) for k in per_pass[0]}
    untraced = median(walls["serial" if workload.parallel else "untraced"])
    overhead = median(walls["traced"]) - untraced
    values["trace.overhead_s"] = overhead
    values["trace.overhead_ratio"] = overhead / untraced
    values["cli.simulate.parallel_efficiency"] = (
        values["analysis.mc_risk.cell_busy_s"] / (threads * median(walls["untraced"]))
        if workload.parallel else 0.0)
    emit("trace", metrics=values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    import ebtruth

    if os.path.dirname(os.path.dirname(os.path.abspath(ebtruth.__file__))) != SRC:
        print(f"error: imported ebtruth from {ebtruth.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import THREADS, WORKLOADS

    os.makedirs(args.workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup()
    # run.py stops the set-up clock at "ready"; the environment probe that
    # follows is the benchmark's own work
    emit("ready", ops_per_pass=workload.ops_per_pass(), inputs_sha256=workload.inputs_digest)
    emit("env", env=environment())
    if args.mode == "measure":
        measure(workload, args.seconds)
    elif args.mode == "trace":
        trace(workload, args.seconds, THREADS)
    emit("done", peak_rss_mb=peak_rss_mb())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
