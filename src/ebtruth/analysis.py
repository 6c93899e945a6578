"""Losses, Monte Carlo risk, the Improvement Ratio, the risk-condition checks
and the optimal-alpha plug-in.

Replicates are generated in chunks of ``CHUNK``, each from its own keyed
counter-based stream, so every estimate is bit-reproducible from
(seed, config) under any evaluation order.  ``CHUNK`` fixes the random
streams; ``BLOCK_BYTES`` changes no value.  Each chunk's truths and worker
variances are drawn first, (CHUNK, m) and (CHUNK, n), and its noise then
follows from the same stream in blocks of at most ``BLOCK_BYTES``, built in
place.  Splitting sequential draws changes no value, so the replicate tensor
per worker thread stays L2-cache-sized whatever n and m are.  A chunk's
arrays are dropped before the next chunk's truths are drawn.  ``mc_risk``
runs a first stage that several pipelines share, such as ``blue``, once
per block (see ``Pipeline``).

Chunks are independent, so ``iter_replicates(..., chunks=)`` draws any of
them alone.  ``mc_risk`` and ``sample_aggregate_stream`` share one chunk
engine, ``_each_chunk``: each task draws one chunk and writes its rows of
preallocated outputs, serially or side by side on a thread pool, so the
numbers are the same at any thread count and a thread holds one chunk at a
time.  ψ and ∂ψ run in the row blocks of
``baselines.block_rows``, so their temporaries stay block-sized.  Every
array a request sizes (an improvement-ratio batch, the condition stores,
the Monte Carlo losses) is checked against ``MAX_BATCH_BYTES`` before
anything is allocated.

The improvement ratio keeps the last synthetic sample batch it drew, read-only
and only up to ``KEPT_BATCH_BYTES``, so calling ``improvement_ratio`` once per base
on one (source, n, m, samples, seed) draws the batch once.  Dataset sources
are not kept.  The condition checks share one ``stein_gap_terms`` pass per
``AggregateStream``.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import csv
import functools
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .baselines import TdAlgorithm, block_rows, blue, run_td_batch
from .data import (
    ROLE_GT,
    ROLE_SIGMA,
    Dataset,
    GtSpec,
    SigmaSpec,
    SyntheticSpec,
    gen_synthetic,
    stream,
    subsample_indices,
)
from .errors import (
    EmptyMatrixError,
    InsufficientDataError,
    InsufficientReplicatesError,
    InsufficientSignalError,
    LengthMismatchError,
    NonPositiveVarianceError,
    RequestTooLargeError,
)
from .estimators import check_alpha, flat_rows, shrink_batch, stein
from .pipelines import shrink_aggregate
from .variance import VarianceEstimator

SUM_SQUARED = "sum"
MEAN_SQUARED = "mean"

# Chunk size is part of the algorithm definition (it fixes the RNG stream
# layout), not a tuning knob.
CHUNK = 20_000
# Upper bound on one yielded (r, n, m) replicate block; it changes no value.
# A block this size stays in a core's L2 cache while the draw, the scaling
# and the pipelines pass over it, and it bounds memory.
BLOCK_BYTES = 2**20
# Most bytes of one synthetic sample batch ``_sample_batch`` keeps for the
# next call; evaluate's 1000 samples at n=10, m=50 take 4.4 MB.
KEPT_BATCH_BYTES = 16 * 2**20

REPLICATE_ROLE = 100  # stream role for Monte Carlo replicate chunks

# Most bytes one request may allocate: ``improvement_ratios``' sample batch
# and its scoring (``batch_bytes``), ``sample_aggregate_stream``'s stores or
# ``mc_risk``'s losses.  It is fixed, not read from the host or the thread
# count, so a request's exit code does not depend on the machine; 1000
# samples at n=10, m=50 take about 10 MB.
MAX_BATCH_BYTES = 2**30


@dataclass(frozen=True)
class RiskReport:
    name: str
    mean_loss: float
    std_error: float
    replicates: int
    seed: int
    loss_convention: str


@dataclass(frozen=True)
class ConditionReport:
    name: str
    lhs: float
    rhs: float
    direction: str  # '<' or '>'
    satisfied: bool
    std_errors: tuple = ()


def loss(estimate, mu, convention: str = SUM_SQUARED):
    """Squared Euclidean error over the last axis, summed or averaged over
    questions: a float for one answer vector, one value per row for a batch."""
    estimate = np.asarray(estimate, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if estimate.shape != mu.shape:
        raise LengthMismatchError(f"estimate shape {estimate.shape} != truth shape {mu.shape}")
    _check_convention(convention)
    total = ((estimate - mu) ** 2).sum(axis=-1)
    if convention == MEAN_SQUARED:
        total = total / mu.shape[-1]
    return float(total) if total.ndim == 0 else total


def _check_convention(convention: str) -> None:
    if convention not in (SUM_SQUARED, MEAN_SQUARED):
        raise ValueError(f"unknown loss convention {convention!r}")


# ---------------------------------------------------------------------------
# Replicate generation


@dataclass(frozen=True)
class AwgGenerator:
    """Replicate generator: fresh noise every replicate; truths and worker
    variances either fixed per run or redrawn per replicate."""

    gt: GtSpec
    worker_sigmas: SigmaSpec
    n: int
    m: int
    fresh_gt: bool = True
    fresh_sigmas: bool = False

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise EmptyMatrixError(f"n and m must be >= 1, got n={self.n}, m={self.m}")


def iter_replicates(gen: AwgGenerator, replicates: int, seed: int, whole_chunks: bool = False,
                    chunks=None):
    """Yield (X (r,n,m), mu (r,m), sigma2 (r,n)) blocks, deterministically.

    A block holds at most ``BLOCK_BYTES`` of X (but at least one replicate),
    or a whole chunk with ``whole_chunks``, for consumers whose result
    depends on the batch they see.  ``chunks`` selects chunk indices (all
    ``n_chunks(replicates)`` of them by default); a chunk's blocks are the
    same whichever others are drawn, so chunks can be drawn in any order or
    side by side.
    """
    fixed_mu = None if gen.fresh_gt else gen.gt.draw((gen.m,), stream(seed, ROLE_GT, 0))
    fixed_sig2 = (None if gen.fresh_sigmas
                  else gen.worker_sigmas.draw((gen.n,), stream(seed, ROLE_SIGMA, 0)))
    fixed_sd = None if fixed_sig2 is None else np.sqrt(fixed_sig2)
    for chunk_index in range(n_chunks(replicates)) if chunks is None else chunks:
        r = min(CHUNK, replicates - chunk_index * CHUNK)
        rng = stream(seed, REPLICATE_ROLE, chunk_index)
        mu = (gen.gt.draw((r, gen.m), rng) if gen.fresh_gt
              else np.broadcast_to(fixed_mu, (r, gen.m)))
        if gen.fresh_sigmas:
            sig2 = gen.worker_sigmas.draw((r, gen.n), rng)
            sd = np.sqrt(sig2)[:, :, None]
        else:
            sig2 = np.broadcast_to(fixed_sig2, (r, gen.n))
            sd = np.broadcast_to(fixed_sd, (r, gen.n))[:, :, None]
        rows = r if whole_chunks else min(r, max(1, BLOCK_BYTES // (8 * gen.n * gen.m)))
        for lo in range(0, r, rows):
            hi = min(lo + rows, r)
            X = rng.standard_normal(size=(hi - lo, gen.n, gen.m))
            X *= sd[lo:hi]
            X += mu[lo:hi, None, :]
            yield X, mu[lo:hi], sig2[lo:hi]
        # drop this chunk's arrays before the next chunk's truths are drawn
        del X, mu, sig2, sd


def n_chunks(replicates: int) -> int:
    """Number of ``CHUNK``-replicate chunks (the last may be short)."""
    return -(-replicates // CHUNK)


# ---------------------------------------------------------------------------
# Batched pipeline evaluators


def _by_row_blocks(f, Xb: np.ndarray, xa: np.ndarray) -> np.ndarray:
    """f(Xb, xa), one value per row, computed in row blocks of
    ``baselines.block_rows`` so that f's temporaries stay block-sized.  Each
    row's value is the same in any block."""
    rows = block_rows(Xb)
    out = np.empty(Xb.shape[0])
    for lo in range(0, Xb.shape[0], rows):
        out[lo:lo + rows] = f(Xb[lo:lo + rows], xa[lo:lo + rows])
    return out


def psi_batch(psi: VarianceEstimator, Xb: np.ndarray, xa: np.ndarray) -> np.ndarray:
    """Evaluate a variance estimator across a (r, n, m) batch, in row blocks
    (``HeuristicH``'s residuals would otherwise be a whole (r, n, m) copy)."""
    return _by_row_blocks(psi.evaluate, Xb, xa)


def psi_derivative_dot_batch(psi: VarianceEstimator, Xb: np.ndarray,
                             xa: np.ndarray) -> np.ndarray:
    """sum_j dpsi/dxa_j * (xa_j - mean(xa)) per replicate (analytic forms),
    in row blocks."""

    def dot(X, a):
        dev = a - a.mean(axis=-1, keepdims=True)
        return (psi.gradient(X, a) * dev).sum(axis=-1)

    return _by_row_blocks(dot, Xb, xa)


@dataclass(frozen=True)
class Pipeline:
    """A named map from replicate batches to estimate batches.

    The map is a first stage ``first`` (Xb, sig2b) -> s and a second step
    ``second`` s -> (r, m), which reads s without writing into it.
    ``mc_risk`` runs each distinct first stage once per block and hands its
    output to every pipeline that declares it, so the BLUE pipelines share
    one ``blue`` pass.  A pipeline built from one callable is its own first
    stage, with no second step.  ``fn`` and calling the pipeline run both
    parts, so ``Pipeline(p.name, p.fn)`` is a copy that shares nothing.

    ``batch_coupled`` marks a pipeline whose per-replicate answer depends on
    the batch it runs in (the batch-wide stopping test of CRH and CATD); it
    runs on whole chunks so that its numbers stay fixed.
    """

    name: str
    first: object  # callable (Xb, sig2b) -> s
    second: object = None  # callable s -> (r, m); None: s is the estimate
    batch_coupled: bool = False

    def __call__(self, Xb, sig2b):
        return self.then(self.first(Xb, sig2b))

    def then(self, s):
        """The second step on the first stage's output ``s``."""
        return s if self.second is None else self.second(s)

    fn = __call__  # the whole (Xb, sig2b) -> (r, m) map


def pipeline_blue() -> Pipeline:
    return Pipeline("blue", blue, lambda s: s[0])


def pipeline_eb_blue(alpha: float | None = None, positive_part: bool = False) -> Pipeline:
    alpha = check_alpha(alpha)

    def second(s):
        a = (s[0].shape[-1] - 3) if alpha is None else alpha
        return shrink_batch(*s, a, positive_part)

    name = "eb_blue" if alpha is None else f"eb_blue_alpha{alpha:g}"
    return Pipeline(name, blue, second)


def pipeline_stein_blue() -> Pipeline:
    return Pipeline("stein_blue", blue, lambda s: stein(*s).estimate)


def pipeline_base(base: TdAlgorithm, name: str | None = None) -> Pipeline:
    return Pipeline(name or type(base).__name__.lower(),
                    lambda Xb, sig2b: run_td_batch(base, Xb),
                    batch_coupled=getattr(base, "batch_coupled", False))


def pipeline_eb_wrap(base: TdAlgorithm, psi: VarianceEstimator,
                     alpha: float | None = None, positive_part: bool = False,
                     name: str | None = None) -> Pipeline:
    alpha = check_alpha(alpha)

    def fn(Xb, sig2b):
        xa = run_td_batch(base, Xb)
        return shrink_aggregate(xa, psi_batch(psi, Xb, xa), alpha, positive_part)

    return Pipeline(name or f"eb_{type(base).__name__.lower()}", fn,
                    batch_coupled=getattr(base, "batch_coupled", False))


# ---------------------------------------------------------------------------
# Monte Carlo risk


@dataclass(frozen=True)
class McResult:
    reports: dict
    losses: dict = field(repr=False)
    seed: int = 0
    convention: str = SUM_SQUARED

    def risk(self, name: str) -> float:
        return self.reports[name].mean_loss

    def diff(self, a: str, b: str) -> tuple[float, float]:
        """Mean and standard error of the paired loss difference a - b."""
        d = self.losses[a] - self.losses[b]
        return float(d.mean()), _std_error(d)


def mc_risk(gen: AwgGenerator, pipelines, replicates: int, seed: int,
            convention: str = SUM_SQUARED, threads: int = 1) -> McResult:
    """Paired Monte Carlo risk of several pipelines on identical replicate data.

    In each block every distinct first stage runs once, and each pipeline
    takes its second step on its stage's output (see ``Pipeline``).  The
    chunks run on ``threads`` threads (see ``_each_chunk``), so the losses do
    not depend on ``threads``.  An unknown ``convention`` raises ValueError
    before anything is drawn.
    """
    _check_convention(convention)
    if replicates < 2:
        raise InsufficientReplicatesError(f"need >= 2 replicates, got {replicates}")
    pipelines = list(pipelines)
    _check_request(8 * replicates * len(pipelines),
                   f"{replicates} replicates of {len(pipelines)} pipelines' losses")
    losses = {p.name: np.empty(replicates) for p in pipelines}

    def on_block(pos, X, mu, sig2):
        r = X.shape[0]
        stages = {}  # id(first stage) -> its output on this block
        for p in pipelines:
            if id(p.first) not in stages:
                stages[id(p.first)] = p.first(X, sig2)
            losses[p.name][pos:pos + r] = loss(p.then(stages[id(p.first)]), mu, convention)

    _each_chunk(gen, replicates, seed, any(p.batch_coupled for p in pipelines), threads,
                on_block)
    reports = {name: RiskReport(name=name, mean_loss=float(l.mean()), std_error=_std_error(l),
                                replicates=replicates, seed=seed, loss_convention=convention)
               for name, l in losses.items()}
    return McResult(reports=reports, losses=losses, seed=seed, convention=convention)


def _each_chunk(gen: AwgGenerator, replicates: int, seed: int, whole_chunks: bool,
                threads: int, on_block) -> None:
    """Call ``on_block(pos, X, mu, sig2)`` on every block of every chunk,
    ``pos`` being the block's first replicate; the chunk engine behind
    ``mc_risk`` and ``sample_aggregate_stream``.

    One task draws one chunk, through ``iter_replicates(..., chunks=[i])``,
    and drops it when it returns, so a thread never holds two chunks.
    ``on_block`` writes rows ``pos:pos + r`` of preallocated outputs, so the
    outputs do not depend on ``threads``.  With one thread (or one chunk) the
    chunks run in order in the caller's thread; otherwise they run on a pool
    of ``threads`` threads, each task in a copy of the caller's context (so
    under its ``np.errstate``).  A chunk that raises raises here, with its own
    error, and the chunks not yet started are cancelled.  ``threads`` below 1
    raises ValueError before anything is drawn.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")

    def run_chunk(chunk_index):
        pos = chunk_index * CHUNK
        for X, mu, sig2 in iter_replicates(gen, replicates, seed, whole_chunks=whole_chunks,
                                           chunks=[chunk_index]):
            on_block(pos, X, mu, sig2)
            pos += X.shape[0]

    indices = range(n_chunks(replicates))
    if min(threads, len(indices)) <= 1:
        for chunk_index in indices:
            run_chunk(chunk_index)
        return
    context = contextvars.copy_context()
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        # a Context can be entered by one thread at a time: one copy per task
        tasks = [pool.submit(context.copy().run, run_chunk, i) for i in indices]
        try:
            for task in tasks:
                task.result()
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


# ---------------------------------------------------------------------------
# Replicate streams of aggregated answers (for the condition checks)


@dataclass(frozen=True)
class AggregateStream:
    """Replicated (aggregate, sigma-hat^2, derivative dot, truth) draws for one
    base algorithm and variance estimator under an AWG generator."""

    aggregates: np.ndarray   # (R, m)
    psis: np.ndarray         # (R,)
    derivative_dots: np.ndarray  # (R,) sum_j psi'_j (xa_j - mean)
    mu: np.ndarray           # (R, m)
    seed: int

    @functools.cached_property
    def terms(self):
        """``stein_gap_terms`` of the stream, computed on first use and then
        kept, since every condition check reads them.  A stream's arrays are
        not written after it is built."""
        return stein_gap_terms(self.aggregates, self.psis, self.mu)


def sample_aggregate_stream(gen: AwgGenerator, base: TdAlgorithm,
                            psi: VarianceEstimator, replicates: int,
                            seed: int, threads: int = 1) -> AggregateStream:
    """Run ``base`` and ``psi`` over ``replicates`` replicates of ``gen``.

    The chunks run on ``threads`` threads, each writing its own rows of the
    stores, so the result does not depend on ``threads`` (see
    ``_each_chunk``).
    Fewer than 2 replicates raise InsufficientReplicatesError and stores
    over ``MAX_BATCH_BYTES`` RequestTooLargeError, before anything is drawn.
    """
    if replicates < 2:
        raise InsufficientReplicatesError(f"need >= 2 replicates, got {replicates}")
    _check_request(8 * replicates * (2 * gen.m + 2),
                   f"{replicates} replicates of {gen.m} aggregates and truths")
    aggregates = np.empty((replicates, gen.m))
    psis = np.empty(replicates)
    dots = np.empty(replicates)
    mus = np.empty((replicates, gen.m))

    def on_block(pos, X, mu, sig2):
        rows = slice(pos, pos + X.shape[0])
        xa = run_td_batch(base, X)
        aggregates[rows] = xa
        psis[rows] = psi_batch(psi, X, xa)
        dots[rows] = psi_derivative_dot_batch(psi, X, xa)
        mus[rows] = mu

    _each_chunk(gen, replicates, seed, getattr(base, "batch_coupled", False), threads,
                on_block)
    return AggregateStream(aggregates=aggregates, psis=psis, derivative_dots=dots,
                           mu=mus, seed=seed)


def _std_error(x: np.ndarray) -> float:
    return float(x.std(ddof=1) / np.sqrt(x.shape[0]))


def stein_gap_terms(aggregates: np.ndarray, psis: np.ndarray, mu: np.ndarray):
    """Per-replicate terms of the Stein gap between a base and its wrap.

    ``aggregates`` and ``mu`` are (R, m) (``np.broadcast_to`` serves a truth
    fixed across replicates) and ``psis`` is (R,).  Returns the mask of rows
    with dispersion (a flat row, or one whose squared deviation norm ss
    underflows to 0, has none) and, on those rows only, ss, the covariance
    term sum_j (x_j - mu_j) psi (x_j - mean) / ss and the quadratic term
    psi^2 / ss.
    """
    dev = aggregates - aggregates.mean(axis=1, keepdims=True)
    ss = (dev**2).sum(axis=1)
    ok = ~flat_rows(aggregates)[:, 0] & (ss > 0)
    if not ok.all():
        aggregates, mu, dev, ss, psis = aggregates[ok], mu[ok], dev[ok], ss[ok], psis[ok]
    cov = ((aggregates - mu) * psis[:, None] * dev / ss[:, None]).sum(axis=1)
    return ok, ss, cov, psis**2 / ss


def estimate_alpha_star(aggregates: np.ndarray, sigma2_hats: np.ndarray,
                        mu: np.ndarray) -> float:
    """Plug-in estimate of the risk-minimizing alpha from a replicate stream.

    ``aggregates`` is (replicates, m), ``sigma2_hats`` is (replicates,), and
    ``mu`` the known ground truth (synthetic benchmarks only: the covariances
    are taken around the truth).  The estimate is the mean covariance term
    over the mean quadratic term of ``stein_gap_terms``; the risk in alpha is
    a parabola maximized at that ratio.  Replicates with zero dispersion
    (flat, or whose ss underflows) are left out.
    """
    aggregates = np.asarray(aggregates, dtype=float)
    sigma2_hats = np.asarray(sigma2_hats, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if aggregates.ndim != 2 or aggregates.shape[1] != mu.shape[0]:
        raise InsufficientReplicatesError("aggregates must be (replicates, m) matching mu")
    r = aggregates.shape[0]
    if r < 30 or sigma2_hats.shape[0] != r:
        raise InsufficientReplicatesError(f"need >= 30 replicates, got {r}")
    ok, _, cov, quad = stein_gap_terms(aggregates, sigma2_hats,
                                       np.broadcast_to(mu, aggregates.shape))
    if not np.any(ok) or quad.mean() == 0.0:
        raise InsufficientSignalError("no dispersion or zero variance estimates")
    return float(cov.mean() / quad.mean())


def _stream_terms(s: AggregateStream):
    """ss, covariance and quadratic terms (``s.terms``) of a stream all of
    whose replicates have dispersion, and the s^2-normalised plug-ins
    psi^2/s^2, psi/s^2 and dot/((m-3) s^2), with s^2 = ss/(m-1).  The checks
    need m > 3."""
    m = s.aggregates.shape[1]
    if m <= 3:
        raise InsufficientDataError("condition needs m > 3")
    ok, ss, cov, quad = s.terms
    if not ok.all():
        raise InsufficientDataError("degenerate replicate with zero dispersion")
    s2 = ss / (m - 1)
    return ss, cov, quad, (s.psis**2 / s2, s.psis / s2, s.derivative_dots / ((m - 3) * s2))


def improvement_condition(s: AggregateStream) -> ConditionReport:
    """Improvement condition for an unbiased base: twice the covariance term
    must outweigh the quadratic term.  The per-replicate statistic equals the
    paired loss difference base-minus-wrapped, so the sign doubles as a risk
    comparison."""
    _, cov_term, quad_term, _ = _stream_terms(s)
    alpha = s.aggregates.shape[1] - 3
    t = 2 * alpha * cov_term - alpha**2 * quad_term
    se = _std_error(t)
    lhs = float(t.mean())
    return ConditionReport(name="improvement_condition", lhs=lhs, rhs=0.0,
                           direction=">", satisfied=lhs > 0.0, std_errors=(se,))


def risk_decomposition(s: AggregateStream, sigma2: float) -> dict:
    """Two-sided check of the normal-model risk decomposition.

    lhs: paired Monte Carlo gap risk(wrapped) - risk(base).  rhs: the
    closed-form expectation with sample-variance normalization and the
    compensating prefactor.  They agree when the residual is within 3
    standard errors of zero.
    """
    if sigma2 <= 0:
        raise NonPositiveVarianceError(f"sigma2 must be > 0, got {sigma2}")
    ss, cov_term, _, (e_psi2, e_psi, e_dot) = _stream_terms(s)
    m = s.aggregates.shape[1]
    alpha = m - 3
    # paired per-replicate gap via the exact algebraic expansion of the loss
    lhs_r = -2 * alpha * cov_term + alpha**2 * s.psis**2 / ss
    rhs_r = (alpha**2 / (m - 1)) * (e_psi2 - 2 * sigma2 * (e_psi + e_dot))
    resid = lhs_r - rhs_r
    se = _std_error(resid)
    return {
        "lhs_gap": float(lhs_r.mean()),
        "rhs_formula": float(rhs_r.mean()),
        "residual": float(resid.mean()),
        "residual_se": se,
        "agree": bool(abs(resid.mean()) < 3 * se if se > 0 else resid.mean() == 0),
    }


def sufficient_conditions(s: AggregateStream, sigma2: float, psi: VarianceEstimator,
                         eps: float | None = None, delta: float | None = None,
                         bound: float | None = None) -> list[ConditionReport]:
    """Monte Carlo plug-ins for the sufficient improvement conditions.

    The deviation-bound conditions take eps/delta/bound as declared properties
    of the supplied estimator and check the closed-form brackets.
    """
    _, _, _, (e_psi2, e_psi, e_dot) = _stream_terms(s)
    reports = []

    se = _std_error
    denom6 = float(e_psi.mean() + e_dot.mean())
    lhs6 = float(e_psi2.mean() / denom6) if denom6 != 0 else float("inf")
    reports.append(ConditionReport(
        name="general_ratio_condition", lhs=lhs6, rhs=2 * sigma2, direction="<",
        satisfied=lhs6 < 2 * sigma2, std_errors=(se(e_psi2), se(e_psi), se(e_dot))))

    denom7 = float(e_psi.mean())
    lhs7 = float(e_psi2.mean() / denom7) if denom7 != 0 else float("inf")
    reports.append(ConditionReport(
        name="mean_adjusted_ratio_condition", lhs=lhs7, rhs=2 * sigma2, direction="<",
        satisfied=lhs7 < 2 * sigma2, std_errors=(se(e_psi2), se(e_psi))))

    if getattr(psi, "data_independent", False):
        guess = float(s.psis[0])
        reports.append(ConditionReport(
            name="constant_guess_condition", lhs=guess, rhs=2 * sigma2, direction="<",
            satisfied=guess < 2 * sigma2))

    if eps is not None and delta is None:
        reports.append(ConditionReport(
            name="bounded_deviation_condition", lhs=float(eps), rhs=sigma2, direction="<",
            satisfied=0 < eps < sigma2))

    if eps is not None and delta is not None and bound is not None:
        b_cap = delta * sigma2**2 / (1 - delta) if delta < 1 else float("inf")
        reports.append(ConditionReport(
            name="probabilistic_bound_cap", lhs=float(bound), rhs=float(b_cap),
            direction="<", satisfied=bound < b_cap))
        radicand = 5 * sigma2**2 + bound * (1 - 1 / delta)
        eps_cap = -2 * sigma2 + np.sqrt(radicand) if radicand >= 0 else float("-inf")
        reports.append(ConditionReport(
            name="probabilistic_eps_bracket", lhs=float(eps), rhs=float(eps_cap),
            direction="<", satisfied=0 < eps < eps_cap))
    return reports


def bayes_risk_gap(sigma2: float, sigma0_2: float) -> float:
    """Per-coordinate identity-minus-posterior-mean risk gap under the
    hierarchical generator."""
    if sigma2 <= 0 or sigma0_2 <= 0:
        raise NonPositiveVarianceError("both variances must be > 0")
    return sigma2**2 / (sigma0_2 + sigma2)


# ---------------------------------------------------------------------------
# Improvement Ratio


@dataclass(frozen=True)
class IrResult:
    improvement_ratio: float
    base_risk: float
    eb_risk: float
    samples: int
    seed: int


def improvement_ratio(source, base: TdAlgorithm, psi: VarianceEstimator,
                      n: int, m: int, samples: int = 1000, seed: int = 0,
                      alpha: float | None = None,
                      positive_part: bool = True) -> IrResult:
    """Risk of the shrink-wrapped pipeline over the risk of the base algorithm.

    ``source`` is a Dataset with ground truth (subsampled without replacement
    per sample) or a (GtSpec, SigmaSpec) pair for fresh synthetic draws.  The
    benchmark protocol clips the shrinkage weight at zero by default: with a
    per-worker variance proxy the unclipped weight can turn negative on
    many-worker aggregates and the overshoot swamps the comparison.
    """
    return improvement_ratios(source, [base], psi, n, m, samples, seed, alpha, positive_part)[0]


def improvement_ratios(source, bases, psi: VarianceEstimator, n: int, m: int,
                       samples: int = 1000, seed: int = 0, alpha: float | None = None,
                       positive_part: bool = True) -> list[IrResult]:
    """``improvement_ratio`` of each base in turn, all scored on one sample batch.

    The batch depends on (source, n, m, samples, seed) only, so each result
    equals that base's own ``improvement_ratio``; a synthetic batch is kept
    for the next call on the same key (see ``_sample_batch``).  A batch over
    ``MAX_BATCH_BYTES`` raises RequestTooLargeError before anything is drawn.
    """
    alpha = check_alpha(alpha)
    if samples < 1:
        raise InsufficientDataError(f"need >= 1 samples, got {samples}")
    if n < 1 or m < 1:
        raise EmptyMatrixError(f"n and m must be >= 1, got n={n}, m={m}")
    _check_request(batch_bytes(n, m, samples), f"{samples} samples of {n}x{m}")
    Xb, mub = _sample_batch(source, n, m, samples, seed)

    def score(base) -> IrResult:
        xa = run_td_batch(base, Xb)
        eb = shrink_aggregate(xa, psi_batch(psi, Xb, xa), alpha, positive_part)
        base_risk = float(loss(xa, mub).mean())
        eb_risk = float(loss(eb, mub).mean())
        if base_risk == 0.0:
            raise InsufficientDataError("base risk is zero; ratio undefined")
        return IrResult(improvement_ratio=eb_risk / base_risk, base_risk=base_risk,
                        eb_risk=eb_risk, samples=samples, seed=seed)

    # one call per base, so one base's aggregates are freed before the next runs
    return [score(base) for base in bases]


def batch_bytes(n: int, m: int, samples: int) -> int:
    """Bytes ``improvement_ratios`` allocates at most, 8 per float or index.

    Per sample: the batch ``_sample_batch`` builds (each observation and
    truth, each worker variance or row index and column index, and the three
    (index, 2-word key) stream addresses); the largest temporary a base
    makes while scoring it (``Median``'s sorted copy of the observations,
    n*m, or ``DistanceWeighted``'s Gram matrix and its three same-sized
    temporaries, 4*n*n); and the aggregate, the shrunk estimate and one loss
    temporary (3*m).  ψ and the CRH/CATD iterations run in row blocks, so
    they add no batch-sized temporary.
    """
    return 8 * samples * (n * m + n + 2 * m + 9 + max(n * m, 4 * n * n) + 3 * m)


def _check_request(need: int, what: str) -> None:
    """Raise RequestTooLargeError when ``what`` needs over ``MAX_BATCH_BYTES``."""
    if need > MAX_BATCH_BYTES:
        raise RequestTooLargeError(
            f"{what} need {need} bytes, over the "
            f"{MAX_BATCH_BYTES}-byte limit (analysis.MAX_BATCH_BYTES)")


# The last synthetic batch ``_sample_batch`` kept, as (key, (Xb, mub)), or None.
_last_batch = None


def _sample_batch(source, n: int, m: int, samples: int, seed: int):
    """The (samples, n, m) observations and (samples, m) truths of sample
    indices 0..samples-1: subsamples of a Dataset, or synthetic draws.

    A synthetic batch is a pure function of its ``SyntheticSpec`` and
    ``samples``, so the last one is kept and a call with the same key gets
    it again: a per-base ``improvement_ratio`` loop draws each batch once.
    The batch is read-only.  It is kept only for the built-in ``GtSpec`` and
    ``SigmaSpec`` classes, whose fields fix the draw, and only up to
    ``KEPT_BATCH_BYTES``.  Any other call, a Dataset source included, first
    empties the slot, so at most one batch is held and a failed draw leaves
    none.
    """
    global _last_batch
    if not isinstance(source, Dataset):
        spec = SyntheticSpec(gt=source[0], worker_sigmas=source[1], n=n, m=m, seed=seed)
        # repr tells -0.0 from 0.0, which compare equal but draw different truths
        key = (spec, repr(spec), samples)
        built_in = (type(spec.gt) in GtSpec.__args__
                    and type(spec.worker_sigmas) in SigmaSpec.__args__)
        slot = _last_batch  # read once: another thread may rebind it
        if built_in and slot is not None and slot[0] == key:
            return slot[1]
        _last_batch = None
        Xb, mub, _ = gen_synthetic(spec, samples=samples)
        Xb.setflags(write=False)
        mub.setflags(write=False)
        if built_in and Xb.nbytes + mub.nbytes <= KEPT_BATCH_BYTES:
            _last_batch = (key, (Xb, mub))
        return Xb, mub
    _last_batch = None
    if source.ground_truth is None:
        raise InsufficientDataError("improvement ratio needs ground truth")
    rows, cols = source.matrix.values.shape
    if n > rows or m > cols:
        raise InsufficientDataError(f"cannot draw {n}x{m} samples from a {rows}x{cols} dataset")
    # the source is already validated, so every sample is one gather from it
    ri, ci = subsample_indices(rows, cols, n, m, seed, samples=samples)
    return source.matrix.values[ri[:, :, None], ci[:, None, :]], source.ground_truth[ci]


# ---------------------------------------------------------------------------
# Report serialization


def report_record(obj) -> dict:
    rec = asdict(obj)
    if "std_errors" in rec:
        rec["std_errors"] = list(rec["std_errors"])
    return rec


def write_reports_csv(path_or_file, records: list[dict]) -> None:
    """Flat CSV: union of record keys, in first-seen order."""
    fields = list(dict.fromkeys(k for rec in records for k in rec))

    def _emit(fh):
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for rec in records:
            writer.writerow({k: _fmt(v) for k, v in rec.items()})

    if hasattr(path_or_file, "write"):
        _emit(path_or_file)
    else:
        with open(path_or_file, "w", newline="", encoding="utf-8") as fh:
            _emit(fh)


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return ";".join(repr(float(x)) for x in v)
    return v


def write_reports_jsonl(path, records: list[dict]) -> None:
    """One JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, default=_json_scalar) + "\n")


def _json_scalar(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")
