"""Black-box truth-discovery baselines producing one aggregated answer vector.

Each baseline's ``aggregate`` method maps a (replicates, n, m) stack to
(replicates, m); the single-matrix form is that method at batch size 1.
Every base works over the stack in cache-sized row blocks
(``ITERATION_BLOCK_BYTES``), so its temporaries stay block-sized: Median and
DistanceWeighted in one pass (``by_row_blocks``), CRH and CATD iterating
each block until its rows stop, each row on its own weights.  So no base's answer for a replicate depends on the batch around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyMatrixError, IterationDivergenceError, LengthMismatchError
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
    """Rows of the stack ``Xb``, (r, n, m) replicates or (r, m) answers,
    that fit in one ``ITERATION_BLOCK_BYTES`` block (at least one)."""
    return max(1, ITERATION_BLOCK_BYTES // max(1, Xb.itemsize * math.prod(Xb.shape[1:])))


def by_row_blocks(f, out: np.ndarray, Xb: np.ndarray, *rest) -> np.ndarray:
    """Write f(Xb[rows], *(a[rows] for a in rest)) into ``out[rows]`` for the
    row blocks of ``block_rows(Xb)``, and return ``out``.  f's temporaries
    stay block-sized, and each row's value is the same in any block."""
    rows = block_rows(Xb)
    for lo in range(0, Xb.shape[0], rows):
        hi = lo + rows
        out[lo:hi] = f(Xb[lo:hi], *(a[lo:hi] for a in rest))
    return out


def _answers(Xb: np.ndarray) -> np.ndarray:
    """A new (r, m) array for the answers to a (r, n, m) stack."""
    return np.empty((Xb.shape[0], Xb.shape[2]))


def _iterate_batch(Xb: np.ndarray, weight_rule, alg) -> np.ndarray:
    """CRH/CATD reweighting on a (r, n, m) batch, returning the (r, m) truths.

    Every row stops on its own weights, so its truths do not depend on the
    batch it runs in: a row stops after iteration i >= 1 when its largest
    weight change max_j |w_j(i) - w_j(i-1)| is below ``convergence_tol``, and
    keeps the truths of that iteration, or at ``max_iterations``.  The batch
    runs in row blocks of ``block_rows``, each block to the stop of its last
    row, so a block and its temporaries stay in cache.  A non-finite weight
    in a row still iterating raises ``IterationDivergenceError``.
    """
    rows = block_rows(Xb)
    t = _answers(Xb)
    for lo in range(0, Xb.shape[0], rows):
        _iterate_rows(Xb[lo:lo + rows], weight_rule, alg, t[lo:lo + rows])
    return t


def _iterate_rows(Xk: np.ndarray, weight_rule, alg, tk: np.ndarray) -> None:
    """``_iterate_batch`` on one row block, writing its truths into ``tk``.

    Until a row stops, the truths are iterated in ``tk`` itself.  From then
    on they are iterated in a working copy whose rows ``live`` indexes in
    ``tk``, and each row is written back into ``tk`` when it stops.  A
    stopped row stays in the working arrays (marked in ``stopped``, its later
    values unused) until gathering the rows still iterating pays: a gather
    copies the block once, and an iteration passes over it about four times,
    so it waits until the stopped rows times the iterations left reach a
    quarter of the block.  Which rows are gathered when changes no value.
    """
    tol = alg.convergence_tol
    X, t, w_prev = Xk, Xk.mean(axis=1, out=tk), None
    live = stopped = None
    for i in range(alg.max_iterations):
        d = ((X - t[:, None, :]) ** 2).sum(axis=2) + DISTANCE_EPS
        w = weight_rule(d)
        if not np.isfinite(w).all() and (stopped is None or not np.isfinite(w[~stopped]).all()):
            raise IterationDivergenceError("non-finite weight during iteration")
        _weighted_mean(X, w, out=t)
        if i:
            change = np.abs(w - w_prev)
            if change.max() < tol:
                break  # every row left stops here
            # a row can stop only when some change is below tol.  The
            # transposed copy makes the per-row maximum one pass over the
            # rows per worker, not one short reduction per row
            if X.shape[0] > 1 and change.min() < tol:
                done = np.ascontiguousarray(change.T).max(axis=0) < tol
                if stopped is not None:
                    done &= ~stopped
                if done.any():
                    if live is None:  # the rows stopping now are already in tk
                        live, stopped, t = np.arange(X.shape[0]), done, t.copy()
                    else:
                        tk[live[done]] = t[done]
                        stopped |= done
                    left = alg.max_iterations - 1 - i
                    if 4 * left * np.count_nonzero(stopped) >= X.shape[0]:
                        keep = ~stopped
                        X, t, w, live, stopped = (X[keep], t[keep], w[keep], live[keep],
                                                  stopped[keep])
        w_prev = w
    if live is not None:
        tk[live[~stopped]] = t[~stopped]


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
        return by_row_blocks(_median_rows, _answers(Xb), Xb)


def _median_rows(Xb: np.ndarray) -> np.ndarray:
    # np.median's arithmetic on one sort, without its partition and mean
    # passes: the middle answer, or the two middle answers added and halved.
    # Its mean's sum starts at +0.0, so a -0.0 median is +0.0; NaNs sort
    # last, and a lane holding one is NaN
    s = np.sort(Xb, axis=1)
    mid = s.shape[1] // 2
    med = s[:, mid] + 0.0 if s.shape[1] % 2 else (s[:, mid - 1] + s[:, mid] + 0.0) / 2
    last = s[:, -1]
    nan = np.isnan(last)
    if nan.any():
        med[nan] = last[nan]
    return med


@dataclass(frozen=True)
class CRH:
    """Iterative log-ratio reweighting of per-worker squared deviations."""

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
    """Iterative reweighting by normalised inverse squared distances,
    w_i = (1/d_i) / sum_j (1/d_j).  Normalised weights are unit-free, so the
    stopping test on them is too."""

    max_iterations: int = DEFAULT_MAX_ITERATIONS
    convergence_tol: float = DEFAULT_CONVERGENCE_TOL

    def aggregate(self, Xb: np.ndarray) -> np.ndarray:
        return _iterate_batch(Xb, _normalised_inverse, self)


def _normalised_inverse(d: np.ndarray) -> np.ndarray:
    w = 1.0 / d
    return w / w.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class DistanceWeighted:
    """Single-pass weights from average pairwise distance between workers."""

    def aggregate(self, Xb: np.ndarray) -> np.ndarray:
        if Xb.shape[1] == 1:
            return Xb[:, 0, :]  # a lone worker's answers are the aggregate
        return by_row_blocks(_distance_weighted_rows, _answers(Xb), Xb)


def _distance_weighted_rows(Xb: np.ndarray) -> np.ndarray:
    # d[r, i] = mean over other workers of the mean squared disagreement,
    # from the exact identity sum_j |x_i - x_j|^2 = n |x_i - xbar|^2 +
    # sum_j |x_j - xbar|^2 (xbar the per-question mean over workers): no
    # (r, n, n, m) intermediate, and, unlike a Gram expansion, no
    # cancellation when every answer shares a large offset.
    _, n, m = Xb.shape
    s = ((Xb - Xb.mean(axis=1, keepdims=True)) ** 2).sum(axis=2)
    d = (n * s + s.sum(axis=1, keepdims=True)) / ((n - 1) * m) + DISTANCE_EPS
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
