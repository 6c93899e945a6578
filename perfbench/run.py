"""Benchmark entry point for ebtruth.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Every pass runs in a child process (worker.py) under a time limit:
a child that reports nothing for OP_TIMEOUT_S seconds is killed and its
operation in flight counts as failed.  The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Lines before it, each starting with ``#``, record the run
environment, the input and report digests and the error rate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER, percentile, tail_percentile  # noqa: E402

WORKLOAD_NAMES = ("simulate", "evaluate", "conditions", "scalar")
OP_TIMEOUT_S = 60.0   # longest a child may stay silent: set-up or one pass
RUN_LIMIT_S = 170.0   # the whole run, children included
SETUP_ONLY_CHILDREN = 2  # with the measuring child, setup_s is a median of 3
MARK = b"@perfbench "
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Child:
    """Outcome of one worker process: its events, set-up time and exit status."""

    def __init__(self):
        self.events: list[dict] = []
        self.setup_s: float | None = None
        self.status = "ok"

    def first(self, event: str) -> dict | None:
        return next((e for e in self.events if e["event"] == event), None)

    def passes(self) -> list[dict]:
        return [e for e in self.events if e["event"] == "pass"]


def run_child(cmd, env, deadline: float, timeout: float = OP_TIMEOUT_S) -> Child:
    """Run ``cmd``, collecting its events, and kill it when it stays silent for
    ``timeout`` seconds or outlives ``deadline`` (a time.monotonic() value)."""
    child = Child()
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        fd = proc.stdout.fileno()
        buffer = b""
        last = start
        while True:
            now = time.monotonic()
            wait = min(last + timeout, deadline) - now
            if wait <= 0:
                child.status = "timeout"
                break
            ready, _, _ = select.select([fd], [], [], wait)
            if not ready:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            buffer += chunk
            *lines, buffer = buffer.split(b"\n")
            for line in lines:
                if line.startswith(MARK):
                    event = json.loads(line[len(MARK):])
                    if event["event"] == "ready":
                        child.setup_s = time.monotonic() - start
                    child.events.append(event)
                    last = time.monotonic()
        if child.status == "ok":
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            if rc != 0:
                child.status = f"exit {rc}"
    except subprocess.TimeoutExpired:
        child.status = "timeout"
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    return child


def account(child: Child) -> tuple[int, int, list[str]]:
    """Operations attempted and failed by one child, and its failure messages.
    When the child died or was killed, the operation in flight counts as
    attempted and failed: the pass it was running, or its set-up."""
    attempted = sum(p["ops"] for p in child.passes())
    failed = sum(p["failed"] for p in child.passes())
    messages = [m for p in child.passes() for m in p["messages"]]
    if child.status == "ok" and child.first("done") is None:
        child.status = "no done event"
    if child.status != "ok":
        ready = child.first("ready")
        lost = ready["ops_per_pass"] if ready else 1
        attempted += lost
        failed += lost
        messages.append(f"child {child.status}" + ("" if ready else " during set-up"))
    return attempted, failed, messages


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "ebtruth")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_rev() -> str | None:
    """HEAD of the checkout, or None when the checkout is not itself a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if os.path.realpath(lines[0]) == os.path.realpath(ROOT) else None


def end_to_end(children: list[Child], passes: list[dict]) -> dict:
    setups = [c.setup_s for c in children if c.setup_s is not None]
    done = [c.first("done") for c in children if c.first("done")]
    latencies = [x for p in passes for x in p["latencies_us"]]
    return {
        "setup_s": median(setups) if setups else None,
        "wall_s": median([p["wall_s"] for p in passes]) if passes else None,
        "replicates_per_s": (median([p["replicates"] / p["wall_s"] for p in passes])
                             if passes else None),
        "call_p50_us": median(latencies) if latencies else None,
        # the measuring child is the last one and the only one that ran passes
        "peak_rss_mb": done[-1]["peak_rss_mb"] if done and passes else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ebtruth benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "ebtruth", "__init__.py")):
        print(f"error: no ebtruth sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.join(HERE, "_out", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = dict(os.environ, **PINNED_THREADS)
    modes = ["trace"] if args.trace else ["setup"] * SETUP_ONLY_CHILDREN + ["measure"]

    children: list[Child] = []
    attempted = failed = 0
    messages: list[str] = []
    for i, mode in enumerate(modes):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
               "--workdir", os.path.join(workdir, f"child{i}")]
        child = run_child(cmd, env, deadline)
        children.append(child)
        a, f, m = account(child)
        attempted, failed = attempted + a, failed + f
        messages.extend(m)
        if child.status != "ok":
            break

    # warm-up passes count as attempted operations but are not timed
    passes = [p for c in children for p in c.passes() if p["kind"] != "warmup"]
    if args.trace:
        trace = next((c.first("trace") for c in children if c.first("trace")), None)
        values = {name: (trace["metrics"].get(name) if trace else None)
                  for name, *_ in PER_LAYER}
        units = {name: unit for name, unit, *_ in PER_LAYER}
    else:
        values = end_to_end(children, passes)
        units = {name: unit for name, unit, _ in END_TO_END}

    ready = next((c.first("ready") for c in children if c.first("ready")), None)
    run_env = next((c.first("env")["env"] for c in children if c.first("env")), None)
    digests = passes[0]["digests"] if passes else None
    print(f"# env: {json.dumps(run_env, sort_keys=True)}")
    print(f"# inputs_sha256: {json.dumps(ready['inputs_sha256'] if ready else None)}")
    print(f"# report_sha256: {json.dumps(digests, sort_keys=True)}")
    print(f"# git_rev: {git_rev()}  src_sha256: {source_digest()}")
    error_rate = failed / attempted if attempted else None
    print(f"# passes: {len(passes)}  error_rate: {error_rate}  "
          f"({failed} failed of {attempted} attempted)")
    latencies = [x for p in passes for x in p["latencies_us"]]
    q = tail_percentile(latencies)
    if q is not None:
        print(f"# call_p{q}_us: {percentile(latencies, q)} over {len(latencies)} operations")
    print(f"# pass_wall_s: {json.dumps([p['wall_s'] for p in passes])}  setup_s: "
          f"{json.dumps([c.setup_s for c in children])}")
    for message in messages[:10]:
        print(f"# failure: {message}")
    result = {
        "correct": failed == 0 and bool(passes),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
