"""Losses, Monte Carlo risk, the Improvement Ratio, the risk-condition checks
and the optimal-alpha plug-in.

Replicates are generated in chunks of ``CHUNK``, each from its own keyed
counter-based streams, so every estimate is bit-reproducible from
(seed, config) under any evaluation order.  ``CHUNK`` fixes the random
streams; ``BLOCK_BYTES`` changes no value for a built-in truth spec.  Each
chunk's worker variances, (CHUNK, n), are drawn first, and its noise then
follows from the same stream in blocks of at most ``BLOCK_BYTES``, built in
place.  Fresh truths come from a second stream of the chunk, a block's rows
at a time (see ``iter_replicates``).  Splitting sequential draws changes no
value, so the replicate tensor and its truths per worker thread stay
L2-cache-sized whatever n and m are, and no chunk holds (CHUNK, m) truths.
A chunk's arrays are dropped before the next chunk's are drawn.
``mc_risk`` runs a first stage that several pipelines share, such as
``blue``, once per block (see ``Pipeline``).

Chunks are independent, so ``iter_replicates(..., chunks=)`` draws any of
them alone.  ``mc_risk``, ``sample_aggregate_stream`` and
``sample_condition_terms`` share one chunk engine, ``_each_chunk``: each task
draws one chunk and writes its rows of preallocated outputs, serially or
side by side on the one thread pool, ``map_tasks`` (which also runs
``ebtruth simulate``'s cells), so the numbers are the same at any thread
count and a thread holds one chunk at a time.  Every base answers a
replicate the same in any batch (CRH and CATD stop each row on its own
weights), so every consumer takes ``BLOCK_BYTES`` blocks.  ψ, ∂ψ and the
Stein-gap terms run in row blocks (``baselines.block_rows``), so their
temporaries stay block-sized.

The condition checks read a ``ConditionTerms``: one flat record of (R,)
arrays indexed by replicate (the dispersion mask, ss, the covariance term,
ψ and ∂ψ), with m and the seed.  ``_write_gap_terms`` is the one Stein-gap
kernel: one block pass runs it on each block next to that block's ψ and ∂ψ
and then drops the block's aggregates and truths, so
``sample_condition_terms``, behind ``ebtruth conditions``, keeps no (R, m)
array, and ``estimate_alpha_star`` runs it once on the stream it is given.
``sample_aggregate_stream`` runs the same pass and also copies each block's
answers and truths into (R, m) stores, for callers that read them; its
``AggregateStream`` is a ``ConditionTerms``, so the checks take either and a
row's terms are the same bits in both.  Each check builds s² once and only
the plug-ins it reads, ψ²/ss included.  Every array a request sizes (an
improvement-ratio batch, the per-replicate condition arrays and stores, the
Monte Carlo losses, each with one replicate block and its truths) is checked
against ``MAX_BATCH_BYTES`` before anything is allocated.

The improvement ratio keeps the last synthetic sample batch it drew, read-only
and only up to ``KEPT_BATCH_BYTES``, so calling ``improvement_ratio`` once per base
on one (source, n, m, samples, seed) draws the batch once.  Dataset sources
are not kept.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .baselines import TdAlgorithm, block_rows, blue, by_row_blocks, run_td_batch
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
    NonFiniteParameterError,
    NonPositiveVarianceError,
    RequestTooLargeError,
    ValidationError,
)
from .estimators import check_alpha, flat_rows, shrink_batch, stein
from .model import check_sigma2, validate_variances
from .pipelines import shrink_aggregate
from .variance import VarianceEstimator

SUM_SQUARED = "sum"
MEAN_SQUARED = "mean"

# Chunk size is part of the algorithm definition (it fixes the RNG stream
# layout), not a tuning knob.
CHUNK = 20_000
# Upper bound on one yielded (r, n, m) replicate block, a replicate counted
# as at least ``BLOCK_MIN_WORKERS`` workers; it changes no value for a
# built-in truth spec.  A block this size stays in a core's L2 cache while
# the draw, the scaling and the pipelines pass over it, and it bounds memory.
BLOCK_BYTES = 2**20
# A block's truths, and each answer or temporary the pipelines make from it,
# are (r, m) arrays, several of them alive at once.  Counting a replicate as
# at least this many workers keeps each of them within a quarter of
# ``BLOCK_BYTES``: at n = 1 they would each be as large as the noise block,
# spill L2, and be returned to the kernel and faulted back in every block.
BLOCK_MIN_WORKERS = 4
# Most bytes of one synthetic sample batch ``_sample_batch`` keeps for the
# next call; evaluate's 1000 samples at n=10, m=50 take 4.4 MB.
KEPT_BATCH_BYTES = 16 * 2**20

REPLICATE_ROLE = 100  # stream role for Monte Carlo replicate chunks
TRUTH_ROLE = 101  # stream role for the fresh truths of those chunks

# Most bytes one request may allocate: ``improvement_ratios``' sample batch
# and its scoring (``batch_bytes``), or the per-replicate arrays of
# ``sample_aggregate_stream``, ``sample_condition_terms`` or ``mc_risk`` (of
# every cell of a simulate grid together, ``check_mc_request``), each with
# one replicate block and its truths (``_check_replicates``).  It is
# fixed, not read from the host or the thread count, so a request's exit
# code does not depend on the machine; 1000 samples at n=10, m=50 take about
# 10 MB.
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


def iter_replicates(gen: AwgGenerator, replicates: int, seed: int, chunks=None):
    """Yield (X (r,n,m), mu (r,m), sigma2 (r,n)) blocks, deterministically.

    A block holds at most ``BLOCK_BYTES`` of X, fewer than
    ``BLOCK_MIN_WORKERS`` workers counted as that many (but at least one
    replicate); every base answers each replicate the same in any batch, so
    no consumer needs a whole chunk.  ``chunks`` selects chunk indices (all
    ``n_chunks(replicates)`` of them by default); a chunk's blocks are the
    same whichever others are drawn, so chunks can be drawn in any order or
    side by side.

    A chunk's worker variances, (r, n), and then its noise, a block at a
    time, come from ``stream(seed, REPLICATE_ROLE, chunk)``.  Fresh truths
    come from their own stream, ``stream(seed, TRUTH_ROLE, chunk)``: each
    block's truth rows are drawn from it in turn just before they are added
    to the block's noise, so a chunk holds one block of truths and draws
    each truth once.  Fixed truths are drawn once per call from
    ``stream(seed, ROLE_GT, 0)`` and broadcast.
    """
    fixed_mu = None if gen.fresh_gt else gen.gt.draw((gen.m,), stream(seed, ROLE_GT, 0))
    fixed_sig2 = None if gen.fresh_sigmas else fixed_worker_variances(gen, seed)
    fixed_sd = None if fixed_sig2 is None else np.sqrt(fixed_sig2)
    for chunk_index in range(n_chunks(replicates)) if chunks is None else chunks:
        start = chunk_index * CHUNK
        r = min(CHUNK, replicates - start)
        rows = min(r, max(1, BLOCK_BYTES // (8 * max(gen.n, BLOCK_MIN_WORKERS) * gen.m)))
        rng = stream(seed, REPLICATE_ROLE, chunk_index)
        truth_rng = stream(seed, TRUTH_ROLE, chunk_index)
        if gen.fresh_sigmas:
            sig2 = gen.worker_sigmas.draw((r, gen.n), rng)
            sd = np.sqrt(sig2)[:, :, None]
        else:
            sig2 = np.broadcast_to(fixed_sig2, (r, gen.n))
            sd = np.broadcast_to(fixed_sd, (r, gen.n))[:, :, None]
        for lo in range(0, r, rows):
            hi = min(lo + rows, r)
            X = rng.standard_normal(size=(hi - lo, gen.n, gen.m))
            X *= sd[lo:hi]
            mu = (gen.gt.draw((hi - lo, gen.m), truth_rng) if gen.fresh_gt
                  else np.broadcast_to(fixed_mu, (hi - lo, gen.m)))
            X += mu[:, None, :]
            yield X, mu, sig2[lo:hi]
        # drop this chunk's arrays, views included, before the next chunk's
        # worker variances are drawn
        del X, mu, sig2, sd


def fixed_worker_variances(gen: AwgGenerator, seed: int) -> np.ndarray:
    """The (n,) worker variances that every replicate of ``gen`` at ``seed``
    shares when they are not redrawn (``fresh_sigmas`` false), drawn once
    from ``stream(seed, ROLE_SIGMA, 0)``."""
    return gen.worker_sigmas.draw((gen.n,), stream(seed, ROLE_SIGMA, 0))


def n_chunks(replicates: int) -> int:
    """Number of ``CHUNK``-replicate chunks (the last may be short)."""
    return -(-replicates // CHUNK)


# ---------------------------------------------------------------------------
# Batched pipeline evaluators


def psi_batch(psi: VarianceEstimator, Xb: np.ndarray, xa: np.ndarray) -> np.ndarray:
    """Evaluate a variance estimator across a (r, n, m) batch, in row blocks
    (``HeuristicH``'s residuals would otherwise be a whole (r, n, m) copy)."""
    return by_row_blocks(psi.evaluate, np.empty(Xb.shape[0]), Xb, xa)


def psi_derivative_dot_batch(psi: VarianceEstimator, Xb: np.ndarray,
                             xa: np.ndarray) -> np.ndarray:
    """sum_j dpsi/dxa_j * (xa_j - mean(xa)) per replicate (analytic forms),
    in row blocks."""

    def dot(X, a):
        dev = a - a.mean(axis=-1, keepdims=True)
        return (psi.gradient(X, a) * dev).sum(axis=-1)

    return by_row_blocks(dot, np.empty(Xb.shape[0]), Xb, xa)


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
    """

    name: str
    first: object  # callable (Xb, sig2b) -> s
    second: object = None  # callable s -> (r, m); None: s is the estimate

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
    return Pipeline(name or type(base).__name__.lower(), lambda Xb, sig2b: run_td_batch(base, Xb))


def pipeline_eb_wrap(base: TdAlgorithm, psi: VarianceEstimator,
                     alpha: float | None = None, positive_part: bool = False,
                     name: str | None = None) -> Pipeline:
    alpha = check_alpha(alpha)

    def fn(Xb, sig2b):
        xa = run_td_batch(base, Xb)
        return shrink_aggregate(xa, psi_batch(psi, Xb, xa), alpha, positive_part)

    return Pipeline(name or f"eb_{type(base).__name__.lower()}", fn)


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
    before anything is drawn, and so does a pipeline name given twice
    (ValidationError), since the losses are keyed by name.
    """
    _check_convention(convention)
    if replicates < 2:
        raise InsufficientReplicatesError(f"need >= 2 replicates, got {replicates}")
    pipelines = list(pipelines)
    names = [p.name for p in pipelines]
    for name in names:
        if names.count(name) > 1:
            raise ValidationError(f"pipeline name {name!r} is given twice")
    check_mc_request([gen], replicates, len(pipelines))
    losses = {p.name: np.empty(replicates) for p in pipelines}

    def on_block(pos, X, mu, sig2):
        r = X.shape[0]
        stages = {}  # id(first stage) -> its output on this block
        for p in pipelines:
            if id(p.first) not in stages:
                stages[id(p.first)] = p.first(X, sig2)
            losses[p.name][pos:pos + r] = loss(p.then(stages[id(p.first)]), mu, convention)

    _each_chunk(gen, replicates, seed, threads, on_block)
    reports = {name: RiskReport(name=name, mean_loss=float(l.mean()), std_error=_std_error(l),
                                replicates=replicates, seed=seed, loss_convention=convention)
               for name, l in losses.items()}
    return McResult(reports=reports, losses=losses, seed=seed, convention=convention)


def _each_chunk(gen: AwgGenerator, replicates: int, seed: int, threads: int,
                on_block) -> None:
    """Call ``on_block(pos, X, mu, sig2)`` on every block of every chunk,
    ``pos`` being the block's first replicate; the chunk engine behind
    ``mc_risk``, ``sample_aggregate_stream`` and ``sample_condition_terms``.

    One task draws one chunk, through ``iter_replicates(..., chunks=[i])``,
    and drops it when it returns, so a thread never holds two chunks.
    ``on_block`` writes rows ``pos:pos + r`` of preallocated outputs, so the
    outputs do not depend on ``threads``.  The chunks run through
    ``map_tasks``, which raises ValueError for ``threads`` below 1 before
    anything is drawn.
    """

    def run_chunk(chunk_index):
        pos = chunk_index * CHUNK
        for X, mu, sig2 in iter_replicates(gen, replicates, seed, chunks=[chunk_index]):
            on_block(pos, X, mu, sig2)
            pos += X.shape[0]

    map_tasks(run_chunk, range(n_chunks(replicates)), threads)


def map_tasks(fn, tasks, threads: int) -> list:
    """``[fn(t) for t in tasks]``, on up to ``threads`` threads; the one
    thread pool behind the chunk engine and ``ebtruth simulate``'s cells.

    With one thread, or one task, the tasks run in order in the caller's
    thread.  Otherwise they start in order on a pool of ``threads`` threads,
    each in its own copy of the caller's context (so under its
    ``np.errstate``).  A task that raises raises here, with its own error,
    and the tasks not yet started are cancelled.  ``threads`` below 1 raises
    ValueError before any task runs.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    tasks = list(tasks)
    if min(threads, len(tasks)) <= 1:
        return [fn(task) for task in tasks]
    context = contextvars.copy_context()
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        # a Context can be entered by one thread at a time: one copy per task
        futures = [pool.submit(context.copy().run, fn, task) for task in tasks]
        try:
            return [future.result() for future in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


# ---------------------------------------------------------------------------
# Replicate streams of aggregated answers (for the condition checks)


@dataclass(frozen=True)
class ConditionTerms:
    """What the condition checks read of a replicate stream of one base
    algorithm and variance estimator under an AWG generator: one entry per
    replicate of each array (the Stein-gap terms that ``_write_gap_terms``
    writes, ψ and ∂ψ), the question count and the seed."""

    ok: np.ndarray           # (R,) bool: the replicate's aggregate has dispersion
    ss: np.ndarray           # (R,) sum_j (xa_j - mean)^2
    cov: np.ndarray          # (R,) covariance term; NaN where ok is False
    psis: np.ndarray         # (R,)
    derivative_dots: np.ndarray  # (R,) sum_j psi'_j (xa_j - mean)
    m: int
    seed: int


@dataclass(frozen=True)
class AggregateStream(ConditionTerms):
    """``ConditionTerms`` with the replicates' aggregates and truths kept."""

    aggregates: np.ndarray   # (R, m)
    mu: np.ndarray           # (R, m)


def sample_aggregate_stream(gen: AwgGenerator, base: TdAlgorithm,
                            psi: VarianceEstimator, replicates: int,
                            seed: int, threads: int = 1) -> AggregateStream:
    """``sample_condition_terms``' pass, which also copies each block's
    answers and truths into the ``aggregates`` and ``mu`` stores, so a
    thread holds one block of answers and one of truths.  Its checks are
    those of ``sample_condition_terms`` but for the one on m."""
    return AggregateStream(**_terms_pass(gen, base, psi, replicates, seed, threads, True))


def sample_condition_terms(gen: AwgGenerator, base: TdAlgorithm,
                           psi: VarianceEstimator, replicates: int,
                           seed: int, threads: int = 1) -> ConditionTerms:
    """Run ``base`` and ``psi`` over ``replicates`` replicates of ``gen``
    and keep what the condition checks read.

    Each block's Stein-gap terms are written next to its ψ and ∂ψ, and the
    block's aggregates and truths are then dropped, so the pass keeps (R,)
    arrays only, and a thread holds one block with its truths.  A row's
    terms do not depend on its block, so they are the bits that
    ``_write_gap_terms`` gives on the whole stream.  The chunks run on
    ``threads`` threads, each writing its own rows, so the result does not
    depend on ``threads`` (see ``_each_chunk``).  Fewer than 2 replicates
    raise InsufficientReplicatesError, m <= 3, which every condition check
    refuses, InsufficientDataError, and a request over ``MAX_BATCH_BYTES``
    (see ``_check_replicates``) RequestTooLargeError, all before anything is
    drawn.
    """
    if gen.m <= 3:
        raise InsufficientDataError("condition needs m > 3")
    return ConditionTerms(**_terms_pass(gen, base, psi, replicates, seed, threads, False))


def _terms_pass(gen, base, psi, replicates, seed, threads, keep: bool) -> dict:
    """The fields of ``ConditionTerms`` from one block pass and, with
    ``keep``, (R, m) stores of the blocks' aggregates and truths."""
    if replicates < 2:
        raise InsufficientReplicatesError(f"need >= 2 replicates, got {replicates}")
    # ψ, ∂ψ, ss, the covariance term, the mask, and the two stores
    _check_replicates([gen], replicates, 4 * 8 + 1 + 16 * gen.m * keep,
                      "condition terms, aggregates, mu" if keep else "condition terms")
    stores = {name: np.empty((replicates, gen.m)) for name in ("aggregates", "mu") if keep}
    ok = np.empty(replicates, dtype=bool)
    ss, cov, psis, dots = (np.empty(replicates) for _ in range(4))

    def on_block(pos, X, mu, sig2):
        rows = slice(pos, pos + X.shape[0])
        xa = run_td_batch(base, X)
        if keep:
            stores["aggregates"][rows], stores["mu"][rows] = xa, mu
        psis[rows] = psi_batch(psi, X, xa)
        dots[rows] = psi_derivative_dot_batch(psi, X, xa)
        _write_gap_terms(xa, psis[rows], mu, ok[rows], ss[rows], cov[rows])

    _each_chunk(gen, replicates, seed, threads, on_block)
    return dict(ok=ok, ss=ss, cov=cov, psis=psis, derivative_dots=dots, m=gen.m, seed=seed,
                **stores)


def _std_error(x: np.ndarray) -> float:
    return float(x.std(ddof=1) / np.sqrt(x.shape[0]))


def _write_gap_terms(aggregates, psis, mu, ok, ss, cov) -> None:
    """Write the per-replicate terms of the Stein gap between a base and its
    wrap into the (R,) arrays ``ok``, ``ss`` and ``cov``.

    ``aggregates`` and ``mu`` are (R, m) (``np.broadcast_to`` serves a truth
    fixed across replicates) and ``psis`` is (R,).  ``ok`` marks the rows
    with dispersion (a flat row, or one whose squared deviation norm ss
    underflows to 0, has none), ``ss`` is that norm, and ``cov`` the
    covariance term sum_j (x_j - mu_j) psi (x_j - mean) / ss, NaN on the rows
    without dispersion.  The rows are taken in blocks of
    ``baselines.block_rows``, so no (R, m) temporary is made; each row's
    arithmetic is the same in any block.
    """
    rows = block_rows(aggregates)
    for lo in range(0, aggregates.shape[0], rows):
        k = slice(lo, lo + rows)
        a, u, p = aggregates[k], mu[k], psis[k]
        dev = a - a.mean(axis=1, keepdims=True)
        ssk = (dev**2).sum(axis=1, out=ss[k])
        okk = np.logical_and(~flat_rows(a)[:, 0], ssk > 0, out=ok[k])
        if not okk.all():
            cov[k] = np.nan
            a, u, p, dev, ssk = a[okk], u[okk], p[okk], dev[okk], ssk[okk]
        cov[k][okk] = ((a - u) * p[:, None] * dev / ssk[:, None]).sum(axis=1)


def estimate_alpha_star(aggregates: np.ndarray, sigma2_hats: np.ndarray,
                        mu: np.ndarray) -> float:
    """Plug-in estimate of the risk-minimizing alpha from a replicate stream.

    ``aggregates`` is (replicates, m), ``sigma2_hats`` is (replicates,), and
    ``mu`` the known ground truth (synthetic benchmarks only: the covariances
    are taken around the truth); other shapes raise
    InsufficientReplicatesError.  The estimate is the mean covariance term
    of ``_write_gap_terms`` over the mean quadratic term psi^2 / ss; the risk
    in alpha is a parabola maximized at that ratio.  Replicates with zero
    dispersion (flat, or whose ss underflows) are left out.  No questions
    (m = 0) raise EmptyMatrixError, and a NaN or infinite ``sigma2_hats``
    entry NonFiniteParameterError; an entry of 0 (ψ on flat data) is
    allowed.
    """
    aggregates = np.asarray(aggregates, dtype=float)
    sigma2_hats = np.asarray(sigma2_hats, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if aggregates.ndim != 2 or mu.shape != aggregates.shape[1:]:
        raise InsufficientReplicatesError(
            f"aggregates must be (replicates, m) matching mu, got shapes {aggregates.shape} "
            f"and {mu.shape}")
    if aggregates.shape[1] == 0:
        raise EmptyMatrixError("expected questions, got m = 0")
    r = aggregates.shape[0]
    if sigma2_hats.shape != (r,):
        raise InsufficientReplicatesError(
            f"sigma2_hats must be ({r},) for aggregates of shape {aggregates.shape}, "
            f"got shape {sigma2_hats.shape}")
    if r < 30:
        raise InsufficientReplicatesError(f"need >= 30 replicates, got {r}")
    if not np.isfinite(sigma2_hats).all():
        raise NonFiniteParameterError("sigma2_hats must be finite")
    ok, ss, cov = np.empty(r, dtype=bool), np.empty(r), np.empty(r)
    _write_gap_terms(aggregates, sigma2_hats, np.broadcast_to(mu, aggregates.shape), ok, ss, cov)
    quad = sigma2_hats[ok]**2 / ss[ok]
    if not ok.any() or quad.mean() == 0.0:
        raise InsufficientSignalError("no dispersion or zero variance estimates")
    return float(cov[ok].mean() / quad.mean())


def _check_stream(s: ConditionTerms) -> None:
    """Refuse a stream the checks cannot read, with InsufficientDataError:
    m <= 3, or a replicate without dispersion."""
    if s.m <= 3:
        raise InsufficientDataError("condition needs m > 3")
    if not s.ok.all():
        raise InsufficientDataError("degenerate replicate with zero dispersion")


def _plug_ins(s: ConditionTerms):
    """Yield a stream's s^2-normalised plug-ins psi^2/s^2, psi/s^2 and
    dot/((m-3) s^2) in turn, each a fresh (R,) array, with s^2 = ss/(m-1)
    built once."""
    s2 = s.ss / (s.m - 1)
    yield s.psis**2 / s2
    yield s.psis / s2
    yield s.derivative_dots / ((s.m - 3) * s2)


def improvement_condition(s: ConditionTerms) -> ConditionReport:
    """Improvement condition for an unbiased base: twice the covariance term
    must outweigh the quadratic term psi^2 / ss.  The per-replicate statistic
    equals the paired loss difference base-minus-wrapped, so the sign doubles
    as a risk comparison."""
    _check_stream(s)
    alpha = s.m - 3
    t = 2 * alpha * s.cov - alpha**2 * (s.psis**2 / s.ss)
    lhs = float(t.mean())
    return ConditionReport(name="improvement_condition", lhs=lhs, rhs=0.0,
                           direction=">", satisfied=lhs > 0.0, std_errors=(_std_error(t),))


def risk_decomposition(s: ConditionTerms, sigma2: float) -> dict:
    """Two-sided check of the normal-model risk decomposition.

    lhs: paired Monte Carlo gap risk(wrapped) - risk(base).  rhs: the
    closed-form expectation with sample-variance normalization and the
    compensating prefactor.  They agree when the residual is within 3
    standard errors of zero.
    """
    check_sigma2(sigma2)
    _check_stream(s)
    alpha = s.m - 3
    e_psi2, e_psi, e_dot = _plug_ins(s)
    rhs_r = (alpha**2 / (s.m - 1)) * (e_psi2 - 2 * sigma2 * (e_psi + e_dot))
    del e_psi2, e_psi, e_dot
    # paired per-replicate gap via the exact algebraic expansion of the loss
    lhs_r = -2 * alpha * s.cov + alpha**2 * s.psis**2 / s.ss
    resid = lhs_r - rhs_r
    se = _std_error(resid)
    return {
        "lhs_gap": float(lhs_r.mean()),
        "rhs_formula": float(rhs_r.mean()),
        "residual": float(resid.mean()),
        "residual_se": se,
        "agree": bool(abs(resid.mean()) < 3 * se if se > 0 else resid.mean() == 0),
    }


def check_deviation_inputs(eps: float | None = None, delta: float | None = None,
                           bound: float | None = None) -> None:
    """Raise ValidationError, naming the value, for a non-finite eps, delta or
    bound, or for a delta, a probability, outside (0, 1].  A condition reads
    eps alone or all three, so any other set of them, which no condition
    would read, raises ValidationError too."""
    given = []
    for name, value in (("eps", eps), ("delta", delta), ("bound", bound)):
        if value is None:
            continue
        if not np.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value!r}")
        given.append(name)
    if given not in ([], ["eps"], ["eps", "delta", "bound"]):
        raise ValidationError(f"eps is read alone or with both delta and bound, "
                              f"got {' and '.join(given)} only")
    if delta is not None and not 0 < delta <= 1:
        raise ValidationError(f"delta must be in (0, 1], got {delta!r}")


def sufficient_conditions(s: ConditionTerms, sigma2: float,
                          psi: VarianceEstimator, eps: float | None = None,
                          delta: float | None = None,
                          bound: float | None = None) -> list[ConditionReport]:
    """Monte Carlo plug-ins for the sufficient improvement conditions.

    The deviation-bound conditions take eps/delta/bound as declared properties
    of the supplied estimator and check the closed-form brackets: eps alone
    the bounded deviation, all three the probabilistic bound; inputs that
    ``check_deviation_inputs`` refuses raise ValidationError, and so does a
    ``sigma2`` that ``check_sigma2`` refuses.
    """
    check_sigma2(sigma2)
    check_deviation_inputs(eps, delta, bound)
    _check_stream(s)
    # each plug-in's mean and standard error, one plug-in at a time
    (m_psi2, m_psi, m_dot), ses = zip(*[(e.mean(), _std_error(e)) for e in _plug_ins(s)])
    # (name, lhs, std errors) of each condition that lhs < 2 sigma^2: the two
    # ratios, and a data-independent estimator's constant guess
    below = [(name, float(m_psi2 / float(denom)) if denom != 0 else float("inf"), se)
             for name, denom, se in (("general_ratio_condition", m_psi + m_dot, ses),
                                     ("mean_adjusted_ratio_condition", m_psi, ses[:2]))]
    if getattr(psi, "data_independent", False):
        below.append(("constant_guess_condition", float(s.psis[0]), ()))
    reports = [ConditionReport(name=name, lhs=lhs, rhs=2 * sigma2, direction="<",
                               satisfied=lhs < 2 * sigma2, std_errors=se)
               for name, lhs, se in below]

    if eps is not None and delta is None:  # eps alone
        reports.append(ConditionReport(
            name="bounded_deviation_condition", lhs=float(eps), rhs=sigma2, direction="<",
            satisfied=0 < eps < sigma2))

    if delta is not None:  # with eps and bound
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
    hierarchical generator; both variances must pass ``check_sigma2``."""
    check_sigma2((sigma2, sigma0_2))
    return sigma2**2 / (sigma0_2 + sigma2)


def blue_risks(m: int, sigma2s, tau2: float) -> dict:
    """Closed-form sum-squared risks of ``pipeline_blue`` and
    ``pipeline_eb_blue`` (α = m - 3) in ``simulate``'s setting:
    ``GaussianGT(μ0, τ²)`` truths drawn afresh for each replicate (``ConstantGT``
    is τ² = 0) and fixed worker variances ``sigma2s``.  With
    σ² = 1/Σ 1/σ_i², blue's risk is mσ² and eb_blue's
    mσ² - (m-3)σ⁴/(τ²+σ²) (Efron & Morris, JASA 1973, 68:117), whatever μ0
    is.  m <= 3 raises InsufficientDataError, a NaN or infinite variance
    or τ² NonFiniteParameterError, and a variance <= 0 or τ² < 0
    NonPositiveVarianceError."""
    if m <= 3:
        raise InsufficientDataError(f"eb_blue's risk needs m > 3, got m = {m}")
    if not np.isfinite(tau2):
        raise NonFiniteParameterError(f"tau2 must be finite, got {tau2!r}")
    if tau2 < 0:
        raise NonPositiveVarianceError(f"tau2 must be >= 0, got {tau2!r}")
    sigma2 = 1.0 / float((1.0 / validate_variances(sigma2s)).sum())
    return {"blue": m * sigma2, "eb_blue": m * sigma2 - (m - 3) * sigma2**2 / (tau2 + sigma2)}


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
    ``MAX_BATCH_BYTES`` raises RequestTooLargeError before anything is
    drawn.  Fewer than one sample raises InsufficientDataError from the draw
    (``data.gen_synthetic`` or ``data.subsample_indices``), which checks the
    count before it allocates the batch.
    """
    alpha = check_alpha(alpha)
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
    (index, 2-word key) stream addresses); the aggregate, the shrunk
    estimate and one loss temporary (3*m); and max(n*m, 4*n*n), the size
    ``Median``'s sorted copy and ``DistanceWeighted``'s Gram stage had when
    they ran on the whole batch.  Every base and ψ now run in row blocks of
    ``baselines.ITERATION_BLOCK_BYTES``, so that last term over-counts and
    the sum is an upper bound; it is kept so that the limit refuses the
    same requests as before.
    """
    return 8 * samples * (n * m + n + 2 * m + 9 + max(n * m, 4 * n * n) + 3 * m)


def _check_request(need: int, what: str) -> None:
    """Raise RequestTooLargeError when ``what`` needs over ``MAX_BATCH_BYTES``."""
    if need > MAX_BATCH_BYTES:
        raise RequestTooLargeError(
            f"{what} need {need} bytes, over the "
            f"{MAX_BATCH_BYTES}-byte limit (analysis.MAX_BATCH_BYTES)")


def _check_replicates(gens: list, replicates: int, per_replicate: int, what: str) -> None:
    """``_check_request`` for passes over ``replicates`` replicates of each
    generator in ``gens`` that keep ``per_replicate`` bytes a replicate: it
    counts those and one replicate block with its truths (8·n·m and 8·m; a
    block holds at least one replicate) once per pass, not once per thread.
    ``what`` names the per-replicate arrays."""
    shape = f"{gens[0].n}x{gens[0].m}" if len(gens) == 1 else f"each of {len(gens)} cells"
    _check_request(sum(replicates * per_replicate + 8 * g.m * (g.n + 1) for g in gens),
                   f"{replicates} replicates of {shape} ({what})")


def check_mc_request(gens: list, replicates: int, pipelines: int) -> None:
    """Raise RequestTooLargeError when ``mc_risk`` runs of ``pipelines``
    pipelines over ``replicates`` replicates of each generator in ``gens``
    would together need over ``MAX_BATCH_BYTES``: every run's losses, and
    one replicate block with its truths a run (see ``_check_replicates``).
    Every run counts, not just those a thread count lets run at once, so
    the refusal does not depend on the machine; ``ebtruth simulate`` checks
    its whole grid before any cell runs."""
    _check_replicates(gens, replicates, 8 * pipelines, f"{pipelines} pipelines' losses")


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
        # the local reference too, or the old batch lives through the draw
        _last_batch = slot = None
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
    """One strict JSON object per line: a non-finite float, such as an
    infinite cap, is written as null (the CSV writes it as inf)."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(_finite_or_null(rec), sort_keys=True, allow_nan=False,
                                default=_json_scalar) + "\n")


def _finite_or_null(v):
    """``v`` with every non-finite float in it replaced by None."""
    if isinstance(v, float):
        return v if np.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _finite_or_null(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite_or_null(x) for x in v]
    return v


def _json_scalar(obj):
    if isinstance(obj, np.generic):
        return _finite_or_null(obj.item())
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")
