"""Pluggable variance estimators for the wrap-and-shrink pipeline.

Each built-in estimator has one kernel, ``evaluate(values, xa)``, mapping
observations (..., n, m) and aggregates (..., m) to a sigma-hat^2 >= 0 per
aggregate, and its analytic ``gradient`` with respect to the aggregate, which
the risk-condition checks need.  Every pipeline, ``eb_wrap`` included,
calls ``evaluate``; ``value(X, x_a)``, the validated single-matrix entry,
serves only ``psi_value`` and the finite-difference fallback in
``psi_derivative``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatchError, NonPositiveVarianceError
from .model import ObservationMatrix, as_answer_vector, validate_variances


def _dof(m: int, name: str) -> int:
    """m - 1, the divisor of a sample variance over m answers; there is none
    below 2, so every kernel of ``name`` rejects m < 2 the same way."""
    if m < 2:
        raise LengthMismatchError(f"{name} needs at least 2 questions, got {m}")
    return m - 1


class _DataIndependent:
    """A constant value and a zero derivative, whatever the data."""

    data_independent = True

    def evaluate(self, values, xa: np.ndarray) -> np.ndarray:
        return np.full(xa.shape[:-1], self.value(values, xa))

    def gradient(self, values, xa: np.ndarray) -> np.ndarray:
        return np.zeros_like(xa)


@dataclass(frozen=True)
class HeuristicH:
    """Average of per-worker variance proxies, using the aggregate as truth proxy."""

    def evaluate(self, values: np.ndarray, xa: np.ndarray) -> np.ndarray:
        n, m = values.shape[-2:]
        return ((values - xa[..., None, :]) ** 2).sum(axis=(-2, -1)) / (n * _dof(m, "psi_h"))

    def gradient(self, values, xa: np.ndarray) -> np.ndarray:
        # the raw matrix is held fixed: the derivative runs through the aggregate only
        if values is None:
            raise LengthMismatchError("the residual heuristic needs the observation matrix")
        return 2.0 * (xa - values.mean(axis=-2)) / _dof(xa.shape[-1], "psi_h")

    def value(self, X: ObservationMatrix, x_a) -> float:
        x_a = as_answer_vector(x_a)
        m = X.n_questions
        if x_a.shape[0] != m:
            raise LengthMismatchError(f"aggregate length {x_a.shape[0]} != question count {m}")
        return float(self.evaluate(X.values, x_a))


@dataclass(frozen=True)
class SampleScaled:
    """c times the sample variance of the aggregated answers."""

    c: float = 1.0

    def __post_init__(self):
        if self.c < 0:
            raise ValueError(f"scale must be >= 0, got {self.c}")

    def evaluate(self, values, xa: np.ndarray) -> np.ndarray:
        dev = xa - xa.mean(axis=-1, keepdims=True)
        return self.c * (dev**2).sum(axis=-1) / _dof(xa.shape[-1], "psi_s")

    def gradient(self, values, xa: np.ndarray) -> np.ndarray:
        return 2.0 * self.c * (xa - xa.mean(axis=-1, keepdims=True)) / _dof(xa.shape[-1], "psi_s")

    def value(self, X, x_a) -> float:
        return float(self.evaluate(None, as_answer_vector(x_a)))


@dataclass(frozen=True)
class Constant(_DataIndependent):
    """A fixed guess, independent of the data."""

    c: float

    def __post_init__(self):
        if self.c < 0:
            raise NonPositiveVarianceError(f"constant guess must be >= 0, got {self.c}")

    def value(self, X, x_a) -> float:
        return float(self.c)


@dataclass(frozen=True)
class OracleReduced(_DataIndependent):
    """Per-worker variance guesses reduced to one aggregated-worker variance.

    The guesses are treated as constants, so the reduction is the reciprocal
    of the summed reciprocals (the inverse-variance-weighted combination).
    """

    guesses: tuple

    def __init__(self, guesses):
        object.__setattr__(self, "guesses", tuple(float(g) for g in validate_variances(guesses)))

    def value(self, X, x_a) -> float:
        return oracle_reduce(self.guesses)


VarianceEstimator = HeuristicH | SampleScaled | Constant | OracleReduced


def psi_h(X: ObservationMatrix, x_a) -> float:
    """Per-worker squared residuals against the aggregate, averaged over workers."""
    return HeuristicH().value(X, x_a)


def psi_s(v, c: float) -> float:
    """c times the sample variance of v."""
    return SampleScaled(c).value(None, v)


def oracle_reduce(guesses) -> float:
    """Reciprocal of summed reciprocals of per-worker variance guesses."""
    g = validate_variances(guesses)
    return float(1.0 / (1.0 / g).sum())


def psi_value(est: VarianceEstimator, X: ObservationMatrix, x_a) -> float:
    """Evaluate any estimator with a ``value(X, x_a)`` method on a matrix and its aggregate."""
    return float(est.value(X, x_a))


def psi_derivative(est: VarianceEstimator, v, j: int, X: ObservationMatrix | None = None) -> float:
    """d psi / d v_j, holding everything but coordinate j of the aggregate fixed.

    Analytic where the estimator has a ``gradient``; otherwise a central
    finite difference with a step scaled to the coordinate magnitude (answer
    scales vary by orders of magnitude across datasets).
    """
    v = as_answer_vector(v)
    m = v.shape[0]
    if not 0 <= j < m:
        raise IndexError(f"coordinate {j} out of range for length {m}")
    gradient = getattr(est, "gradient", None)
    if gradient is None:
        return finite_difference(lambda u: psi_value(est, X, u), v, j)
    return float(gradient(None if X is None else X.values, v)[j])


def finite_difference(f, v, j: int, scale: float = 1e-5) -> float:
    """Central finite difference of f at v along coordinate j."""
    v = np.asarray(v, dtype=float)
    h = scale * max(1.0, abs(v[j]))
    hi = v.copy()
    lo = v.copy()
    hi[j] += h
    lo[j] -= h
    return float((f(hi) - f(lo)) / (2.0 * h))


def is_mean_adjusted(est: VarianceEstimator, v, X: ObservationMatrix | None = None,
                     tol: float = 1e-8) -> bool:
    """Pointwise mean-adjustedness check at v.

    True iff every below-mean coordinate has derivative <= tol and every
    above-mean coordinate has derivative >= -tol.  The defining property
    quantifies over all inputs; this reports the instance at hand.
    """
    v = as_answer_vector(v)
    mean = v.mean()
    for j in range(v.shape[0]):
        d = psi_derivative(est, v, j, X=X)
        if v[j] <= mean and d > tol:
            return False
        if v[j] > mean and d < -tol:
            return False
    return True
