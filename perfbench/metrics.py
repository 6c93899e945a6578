"""Metric names, units and directions, shared by the runner, the worker and the tests.

This module imports nothing from the program or from numpy, so the runner
can check its arguments and the checkout before any child process starts.
"""

from __future__ import annotations

import statistics

# (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("replicates_per_s", "1/s", "higher"),
    ("call_p50_us", "us", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]

BASES = ("mean", "median", "crh", "catd", "distance")

# (name, unit, better, how the value is read from a traced pass, source)
#   busy   inclusive span time, summed per pass
#   self   span time minus child spans, summed per pass
#   calls  number of spans per pass
#   count  counter total per pass
#   p50/p99  percentile of single span durations, in microseconds
#   derived  computed by the worker from whole-pass timings
PER_LAYER = [
    ("analysis.iter_replicates.busy_s", "s", "lower", "busy", "analysis.iter_replicates"),
    ("analysis.iter_replicates.replicates", "count", "higher", "count",
     "analysis.iter_replicates.replicates"),
    ("analysis.iter_replicates.chunks", "count", "lower", "count",
     "analysis.iter_replicates.chunks"),
    ("analysis.iter_replicates.bytes_computed", "bytes", "lower", "count",
     "analysis.iter_replicates.bytes_computed"),
    *[(f"analysis.pipeline.{p}.busy_s", "s", "lower", "busy", f"analysis.pipeline.{p}")
      for p in ("blue", "eb_blue", "stein_blue")],
    ("analysis.loss.busy_s", "s", "lower", "self", "analysis.mc_risk"),
    ("analysis.mc_risk.cell_busy_s", "s", "lower", "busy", "analysis.mc_risk"),
    ("analysis.psi_batch.busy_s", "s", "lower", "busy", "analysis.psi_batch"),
    ("analysis.psi_derivative_dot_batch.busy_s", "s", "lower", "busy",
     "analysis.psi_derivative_dot_batch"),
    ("analysis.condition_checks.busy_s", "s", "lower", "busy", "analysis.condition_checks"),
    ("analysis.improvement_ratio.busy_s", "s", "lower", "busy", "analysis.improvement_ratio"),
    ("analysis.improvement_ratio.calls", "count", "lower", "calls", "analysis.improvement_ratio"),
    ("analysis.write_reports.busy_s", "s", "lower", "busy", "analysis.write_reports"),
    ("analysis.write_reports.bytes", "bytes", "lower", "count", "analysis.write_reports.bytes"),
    *[m for b in BASES for m in (
        (f"baselines.run_td_batch.{b}.busy_s", "s", "lower", "busy", f"baselines.run_td_batch.{b}"),
        (f"baselines.run_td_batch.{b}.replicates", "count", "higher", "count",
         f"baselines.run_td_batch.{b}.replicates"),
    )],
    ("data.gen_synthetic.busy_s", "s", "lower", "busy", "data.gen_synthetic"),
    ("data.gen_synthetic.calls", "count", "lower", "calls", "data.gen_synthetic"),
    ("data.subsample.busy_s", "s", "lower", "busy", "data.subsample"),
    ("data.subsample.calls", "count", "lower", "calls", "data.subsample"),
    ("data.load_csv.busy_s", "s", "lower", "busy", "data.load_csv"),
    ("data.load_csv.bytes", "bytes", "lower", "count", "data.load_csv.bytes"),
    ("data.partition_questions.busy_s", "s", "lower", "busy", "data.partition_questions"),
    ("model.validate_matrix.busy_s", "s", "lower", "busy", "model.validate_matrix"),
    ("model.validate_matrix.calls", "count", "lower", "calls", "model.validate_matrix"),
    ("variance.psi_value.busy_s", "s", "lower", "busy", "variance.psi_value"),
    ("estimators.shrink_batch.busy_s", "s", "lower", "busy", "estimators.shrink_batch"),
    ("estimators.shrink_batch.rows", "count", "higher", "count", "estimators.shrink_batch.rows"),
    ("estimators.ebe.busy_s", "s", "lower", "busy", "estimators.ebe"),
    ("pipelines.eb_blue.p50_us", "us", "lower", "p50", "pipelines.eb_blue"),
    ("pipelines.eb_blue.p99_us", "us", "lower", "p99", "pipelines.eb_blue"),
    *[m for b in BASES for m in (
        (f"pipelines.eb_wrap.{b}.p50_us", "us", "lower", "p50", f"pipelines.eb_wrap.{b}"),
        (f"pipelines.eb_wrap.{b}.p99_us", "us", "lower", "p99", f"pipelines.eb_wrap.{b}"),
    )],
    ("cli.main.busy_s", "s", "lower", "busy", "cli.main"),
    ("cli.simulate.parallel_efficiency", "ratio", "higher", "derived", None),
    ("trace.overhead_s", "s", "lower", "derived", None),
    ("trace.overhead_ratio", "ratio", "lower", "derived", None),
]


def percentile(values, q: int) -> float:
    """The ``q``-th percentile, 1 <= q <= 99, of a non-empty list, linearly
    interpolated as numpy's default method does."""
    xs = list(values)
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


TAIL_SAMPLES = 10  # operations a tail percentile needs above it


def tail_percentile(values) -> int | None:
    """The highest of p99, p90 and p50 with at least TAIL_SAMPLES values
    above it, or None when even the median has fewer."""
    for q in (99, 90, 50):
        if len(values) * (100 - q) / 100 >= TAIL_SAMPLES:
            return q
    return None
