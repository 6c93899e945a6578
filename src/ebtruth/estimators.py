"""Answer-vector estimators: shrink toward the mean, and Stein's toward the origin.

The shrink-toward-mean estimator pulls every coordinate of an answer vector
toward the vector's own mean with a data-driven weight; its generalized form
replaces the default (m-3) multiplier with an arbitrary alpha >= 0.  Each
works over the last axis: one answer vector or an (r, m) batch of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatchError, ZeroNormInputError
from .model import as_answers, check_sigma2


@dataclass(frozen=True)
class ShrinkageResult:
    """Output of a shrink-toward-mean application.

    ``shrink_factor`` is the bracketed weight 1 - alpha*sigma2/ss and may be
    negative unless the positive-part option clipped it.  ``degenerate`` marks
    the m <= 3 (unchanged) path and the full-shrink path of a flat row or of
    an overflowing alpha*sigma2/ss, where the factor is not meaningful.  For
    an (r, m) batch both hold one entry per row.
    """

    estimate: np.ndarray
    shrink_factor: float | np.ndarray
    degenerate: bool | np.ndarray


def _check_sigma2(sigma2, v: np.ndarray) -> np.ndarray:
    """Validated variances for v's rows (a scalar or one per row), shaped to broadcast."""
    sigma2 = check_sigma2(sigma2)
    if sigma2.ndim and sigma2.shape != v.shape[:-1]:
        raise LengthMismatchError(f"{sigma2.shape} variances for answer rows {v.shape[:-1]}")
    return sigma2[..., None]


def _result(estimate, factor, degenerate) -> ShrinkageResult:
    factor, degenerate = factor[..., 0], degenerate[..., 0]
    if factor.ndim == 0:  # a single vector reports plain scalars
        factor, degenerate = float(factor), bool(degenerate)
    return ShrinkageResult(estimate=estimate, shrink_factor=factor, degenerate=degenerate)


# Where ss > num * RATIO_GUARD, num / ss stays below a quarter of the largest
# float64, so neither the weight nor weight * deviation can overflow.
RATIO_GUARD = 4.0 / np.finfo(float).max


def flat_rows(v: np.ndarray) -> np.ndarray:
    """Rows whose values are all equal, as an (..., 1) mask.  The test is
    exact: the rounded mean of a constant row can miss it by an ulp."""
    return v.max(axis=-1, keepdims=True) == v.min(axis=-1, keepdims=True)


def _shrink(v: np.ndarray, sigma2, alpha, positive_part: bool):
    """Shrink-toward-mean kernel over the last axis of a float array.

    ``sigma2`` and ``alpha`` broadcast against (..., 1); ``alpha=None`` means
    m - 3, which is resolved here only.  Returns the estimate and the per-row
    weight and degenerate flag, both (..., 1).  For m <= 3 rows are returned
    unchanged (weight 1).  Two kinds of row are returned as they are, bit for
    bit: a row whose alpha*sigma2 is 0 (weight exactly 1; Efron & Morris,
    JASA 1973, 68:117), and a flat row, all of whose values are equal
    (weight 0).  ``flat_rows`` tests the latter exactly: a spurious ss near
    1e-29 would give a weight near -1e29.  The weight is clipped at zero only
    with ``positive_part``: the risk identities hold for the unclipped form.

    Numerical contract: a finite row whose sum is finite never gets a
    non-finite estimate.  Where alpha*sigma2/ss would pass a quarter of the
    largest float64 (``RATIO_GUARD``: ss underflows to 0, or is as small as
    for [0, 0, 0, 1e-160]) the row is treated as flat: it collapses to its
    mean with weight 0 and is flagged degenerate.  A dispersion that float64
    rounding has removed cannot be restored either: [0, 0, 0, 1.56e-131]
    gets a weight near -1e262, but shifted by 1 it is exactly [1, 1, 1, 1]
    and is returned as it is, so shift equivariance holds only where the
    shift keeps the spread.
    """
    m = v.shape[-1]
    rows = v.shape[:-1] + (1,)
    if m <= 3:
        return v.copy(), np.ones(rows), np.ones(rows, dtype=bool)
    mean = v.sum(axis=-1, keepdims=True) / m
    dev = v - mean
    ss = (dev**2).sum(axis=-1, keepdims=True)
    num = (m - 3 if alpha is None else alpha) * sigma2
    flat = flat_rows(v)
    degenerate = flat | (ss <= num * RATIO_GUARD)
    any_degenerate = np.count_nonzero(degenerate)
    factor = 1.0 - num / (np.where(degenerate, 1.0, ss) if any_degenerate else ss)
    if any_degenerate:
        factor = np.where(degenerate, 0.0, factor)
    if positive_part:
        factor = np.maximum(factor, 0.0)
    estimate = mean + factor * dev
    if any_degenerate or np.count_nonzero(num) < num.size:
        # flat rows, and rows whose weight is exactly 1, come back as they are
        estimate = np.where(flat | (num == 0), v, estimate)
    return estimate, factor, degenerate


def check_alpha(alpha: float | None) -> float | None:
    """``alpha`` as a float (None, meaning m - 3, passes); a negative, NaN
    or infinite alpha raises ValueError."""
    if alpha is None:
        return None
    alpha = float(alpha)
    if not 0 <= alpha < np.inf:
        raise ValueError(f"alpha must be >= 0 and finite, got {alpha}")
    return alpha


def ebe(v, sigma2, positive_part: bool = False, alpha: float | None = None) -> ShrinkageResult:
    """Shrink v toward its mean with weight 1 - alpha*sigma2/ss; None means m - 3.

    ``v`` is one answer vector or an (r, m) batch with one ``sigma2`` per
    row.  Every row follows ``_shrink``'s one rule: for m <= 3 the estimator
    returns every row unchanged (with degenerate=True), and at alpha = 0
    or on a constant vector the row comes back as it is, bit for bit, in a
    new array.
    """
    v = as_answers(v)
    alpha = check_alpha(alpha)
    return _result(*_shrink(v, _check_sigma2(sigma2, v), alpha, positive_part))


def shrink_batch(V, sigma2, alpha=None, positive_part: bool = False) -> np.ndarray:
    """The shrink kernel on trusted (replicates, m) input, without validation.

    ``sigma2`` and ``alpha`` are scalars or one value per row; alpha=None
    means m - 3.  A row whose alpha*sigma2 is 0 comes back as it is (see
    ``_shrink``).
    """
    sigma2 = np.asarray(sigma2, dtype=float)[..., None]
    alpha = None if alpha is None else np.asarray(alpha, dtype=float)[..., None]
    return _shrink(np.asarray(V, dtype=float), sigma2, alpha, positive_part)[0]


def stein(v, sigma2) -> ShrinkageResult:
    """Shrink v (or each row of a batch) toward the origin with weight
    1 - (m-2)*sigma2/||v||^2; unchanged for m <= 2.

    A row for which (m-2)*sigma2/||v||^2 would pass a quarter of the largest
    float64 is treated like the zero vector, by the rule of ``_shrink``'s
    numerical contract, and ZeroNormInputError is raised.
    """
    v = as_answers(v)
    sigma2 = _check_sigma2(sigma2, v)
    m = v.shape[-1]
    rows = v.shape[:-1] + (1,)
    if m <= 2:
        return _result(v.copy(), np.ones(rows), np.ones(rows, dtype=bool))
    norm2 = (v**2).sum(axis=-1, keepdims=True)
    num = (m - 2) * sigma2
    if np.count_nonzero(norm2 <= num * RATIO_GUARD):
        raise ZeroNormInputError("cannot shrink a vector of (numerically) zero norm "
                                 "toward the origin")
    factor = 1.0 - num / norm2
    return _result(factor * v, factor, np.zeros(rows, dtype=bool))
