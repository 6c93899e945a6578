"""Black-box truth-discovery baselines producing one aggregated answer vector.

Each baseline's ``aggregate`` method maps a (replicates, n, m) stack to
(replicates, m); the single-matrix form is that method at batch size 1.
CRH and CATD iterate over the stack in cache-sized row blocks
(``ITERATION_BLOCK_BYTES``) with a batch-wide stopping test.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyMatrixError,
    IterationDivergenceError,
    LengthMismatchError,
    ValidationError,
)
from .model import ObservationMatrix, validate_variances

# Workers whose answers coincide with the current truth estimate would get an
# infinite weight; this floor is applied uniformly to every squared distance.
DISTANCE_EPS = 1e-12

DEFAULT_MAX_ITERATIONS = 14
DEFAULT_CONVERGENCE_TOL = 1e-8

# Bytes of replicates one CRH/CATD step (or one ψ block in ``analysis``)
# works on at a time, so that a block and its temporaries stay in a core's L2
# cache; it changes no value.
ITERATION_BLOCK_BYTES = 512 * 1024


def blue(values: np.ndarray, sigma2s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """BLUE kernel: values (..., n, m) and worker variances (..., n) give the
    inverse-variance-weighted answers (..., m) and the aggregated-worker
    variance (...), the reciprocal of the summed reciprocal variances."""
    if sigma2s.shape[-1] != values.shape[-2]:
        raise LengthMismatchError(f"{sigma2s.shape[-1]} variances for {values.shape[-2]} workers")
    w = 1.0 / sigma2s
    return _weighted_mean(values, w), 1.0 / w.sum(axis=-1)


def _weighted_mean(values: np.ndarray, w: np.ndarray, out=None) -> np.ndarray:
    # values: (..., n, m); w: (..., n)
    return np.divide(np.einsum("...n,...nm->...m", w, values),
                     w.sum(axis=-1, keepdims=True), out=out)


def block_rows(Xb: np.ndarray) -> int:
    """Replicates of the (r, n, m) stack ``Xb`` that fit in one
    ``ITERATION_BLOCK_BYTES`` block (at least one)."""
    return max(1, ITERATION_BLOCK_BYTES // max(1, Xb.itemsize * Xb.shape[1] * Xb.shape[2]))


def _iterate_batch(Xb: np.ndarray, weight_rule, alg) -> np.ndarray:
    """CRH/CATD reweighting on a (r, n, m) batch, returning the (r, m) truths.

    Each iteration makes one pass over the batch in row blocks of
    ``block_rows``: a block's distances, weights and new truths are computed
    while the block is still in cache, and a block touches only its own rows
    of the truths. The stopping test stays batch-wide (the largest weight
    change over all blocks), and every row's arithmetic is the same in any
    block, so the block size changes no value.
    """
    r, n, m = Xb.shape
    rows = block_rows(Xb)
    t = np.empty((r, m))
    # (block, its rows of t) view pairs; each block's truths are written in place
    blocks = [(Xb[lo:lo + rows], t[lo:lo + rows]) for lo in range(0, r, rows)]
    for Xk, tk in blocks:
        Xk.mean(axis=1, out=tk)
    w_prev = [None] * len(blocks)
    for i in range(alg.max_iterations):
        change = 0.0
        for k, (Xk, tk) in enumerate(blocks):
            d = ((Xk - tk[:, None, :]) ** 2).sum(axis=2) + DISTANCE_EPS
            w = weight_rule(d)
            if not np.isfinite(w).all():
                raise IterationDivergenceError("non-finite weight during iteration")
            _weighted_mean(Xk, w, out=tk)
            if i:
                change = max(change, np.abs(w - w_prev[k]).max())
            w_prev[k] = w
        if i and change < alg.convergence_tol:
            break
    return t


@dataclass(frozen=True)
class Blue:
    """Inverse-variance-weighted mean; requires the true worker variances."""

    variances: tuple

    def __init__(self, variances):
        object.__setattr__(
            self, "variances", tuple(float(v) for v in validate_variances(variances))
        )

    def aggregate(self, Xb: np.ndarray) -> np.ndarray:
        return blue(Xb, np.asarray(self.variances))[0]


@dataclass(frozen=True)
class Mean:
    def aggregate(self, Xb: np.ndarray) -> np.ndarray:
        return Xb.mean(axis=1)

    def aggregated_variance(self, sigma2s: np.ndarray) -> float:
        """Variance of the mean answer of workers with these variances."""
        return float(sigma2s.sum() / sigma2s.shape[0] ** 2)


@dataclass(frozen=True)
class Median:
    def aggregate(self, Xb: np.ndarray) -> np.ndarray:
        # np.median's arithmetic on one sort, without its partition and
        # mean passes: the middle answer, or the two middle answers added
        # and halved.  Its mean's sum starts at +0.0, so a -0.0 median is
        # +0.0; NaNs sort last, and a lane holding one is NaN
        s = np.sort(Xb, axis=1)
        mid = s.shape[1] // 2
        out = s[:, mid] + 0.0 if s.shape[1] % 2 else (s[:, mid - 1] + s[:, mid] + 0.0) / 2
        last = s[:, -1]
        nan = np.isnan(last)
        if nan.any():
            out[nan] = last[nan]
        return out


@dataclass(frozen=True)
class CRH:
    """Iterative log-ratio reweighting of per-worker squared deviations."""

    batch_coupled = True  # the stopping test spans the whole batch

    max_iterations: int = DEFAULT_MAX_ITERATIONS
    convergence_tol: float = DEFAULT_CONVERGENCE_TOL

    def aggregate(self, Xb: np.ndarray) -> np.ndarray:
        if Xb.shape[1] == 1:
            # a lone worker's log-ratio weight is -log(1) = 0, which would
            # leave 0/0 truths; its answers are the aggregate
            return Xb[:, 0, :]
        return _iterate_batch(Xb, lambda d: -np.log(d / d.sum(axis=1, keepdims=True)), self)


@dataclass(frozen=True)
class CATD:
    """Iterative reweighting by a chi-squared upper-confidence scaling."""

    batch_coupled = True  # the stopping test spans the whole batch

    confidence: float = 0.975
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    convergence_tol: float = DEFAULT_CONVERGENCE_TOL

    def __post_init__(self):
        if not 0 < self.confidence < 1:
            raise ValidationError(f"confidence must be in (0, 1), got {self.confidence}")

    def aggregate(self, Xb: np.ndarray) -> np.ndarray:
        quantile = _chi2_quantile(self.confidence, Xb.shape[2])
        return _iterate_batch(Xb, lambda d: quantile / d, self)


@functools.lru_cache(maxsize=256)
def _chi2_quantile(confidence: float, df: int) -> float:
    # the expression scipy.stats.chi2.ppf evaluates, without importing
    # scipy.stats, whose import costs more time and memory than the rest
    # of the package together
    from scipy.special import gammaincinv

    return 2.0 * gammaincinv(df / 2, confidence)


@dataclass(frozen=True)
class DistanceWeighted:
    """Single-pass weights from average pairwise distance between workers."""

    def aggregate(self, Xb: np.ndarray) -> np.ndarray:
        r, n, m = Xb.shape
        if n == 1:
            return Xb[:, 0, :]
        # d[r, i] = mean over other workers of the mean squared disagreement,
        # via the Gram-matrix expansion to avoid an (r, n, n, m) intermediate.
        rowsq = (Xb**2).sum(axis=2)
        gram = Xb @ Xb.transpose(0, 2, 1)
        pairsq = np.maximum(rowsq[:, :, None] + rowsq[:, None, :] - 2.0 * gram, 0.0)
        d = pairsq.sum(axis=2) / ((n - 1) * m) + DISTANCE_EPS
        return _weighted_mean(Xb, 1.0 / d)


TdAlgorithm = Blue | Mean | Median | CRH | CATD | DistanceWeighted


def blue_aggregate(X: ObservationMatrix, sigma2s) -> tuple[np.ndarray, float]:
    """Inverse-variance-weighted answers and the aggregated-worker variance."""
    answers, aggregated_variance = blue(X.values, validate_variances(sigma2s))
    return answers, float(aggregated_variance)


def run_td_batch(alg: TdAlgorithm, Xb: np.ndarray) -> np.ndarray:
    """Run a baseline on a (replicates, n, m) stack, returning (replicates, m).

    An empty batch (replicates = 0) gives an empty (0, m) result; no workers
    or no questions (n = 0 or m = 0) raise ``EmptyMatrixError``, as an
    ``ObservationMatrix`` does.
    """
    Xb = np.asarray(Xb, dtype=float)
    if Xb.ndim != 3:
        raise ValueError(f"expected a (replicates, n, m) stack, got shape {Xb.shape}")
    if Xb.shape[1] == 0 or Xb.shape[2] == 0:
        raise EmptyMatrixError(f"expected workers and questions, got shape {Xb.shape}")
    return alg.aggregate(Xb)


def run_td(alg: TdAlgorithm, X: ObservationMatrix) -> np.ndarray:
    """Aggregate one observation matrix into a length-m answer vector."""
    return run_td_batch(alg, X.values[None, :, :])[0]
