"""Pluggable variance estimators for the wrap-and-shrink pipeline.

Each built-in estimator has one kernel, ``evaluate(values, xa)``, mapping
observations (..., n, m) and aggregates (..., m) to a sigma-hat^2 >= 0 per
aggregate, and its analytic ``gradient`` with respect to the aggregate, which
the risk-condition checks need.  Every pipeline calls ``evaluate``, and so
does ``psi_value``, on a batch of one, so no built-in has a scalar twin.  A
plug-in with no ``evaluate``, such as an adversarial one, may define
``value(X, x_a)`` alone: ``psi_value`` calls it, and ``psi_derivative``
differentiates it by finite differences.  Parameters must be finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _check_params
from .errors import LengthMismatchError, NonPositiveVarianceError
from .model import ObservationMatrix, as_answer_vector, validate_variances


def _dof(m: int, name: str) -> int:
    """m - 1, the divisor of a sample variance over m answers; there is none
    below 2, so every kernel of ``name`` rejects m < 2 the same way."""
    if m < 2:
        raise LengthMismatchError(f"{name} needs at least 2 questions, got {m}")
    return m - 1


class _DataIndependent:
    """A constant value ``c`` and a zero derivative, whatever the data."""

    data_independent = True

    def evaluate(self, values, xa: np.ndarray) -> np.ndarray:
        return np.full(xa.shape[:-1], float(self.c))

    def gradient(self, values, xa: np.ndarray) -> np.ndarray:
        return np.zeros_like(xa)


@dataclass(frozen=True)
class HeuristicH:
    """Average of per-worker variance proxies, using the aggregate as truth proxy."""

    def evaluate(self, values: np.ndarray, xa: np.ndarray) -> np.ndarray:
        n, m = _matrix(values).shape[-2:]
        return ((values - xa[..., None, :]) ** 2).sum(axis=(-2, -1)) / (n * _dof(m, "psi_h"))

    def gradient(self, values, xa: np.ndarray) -> np.ndarray:
        # the raw matrix is held fixed: the derivative runs through the aggregate only
        return 2.0 * (xa - _matrix(values).mean(axis=-2)) / _dof(xa.shape[-1], "psi_h")


def _matrix(values):
    """``values``, which the residual heuristic reads, or LengthMismatchError
    when there are none."""
    if values is None:
        raise LengthMismatchError("the residual heuristic needs the observation matrix")
    return values


@dataclass(frozen=True)
class SampleScaled:
    """c times the sample variance of the aggregated answers."""

    c: float = 1.0

    def __post_init__(self):
        _check_params(self)
        if self.c < 0:
            raise ValueError(f"scale must be >= 0, got {self.c}")

    def evaluate(self, values, xa: np.ndarray) -> np.ndarray:
        dev = xa - xa.mean(axis=-1, keepdims=True)
        return self.c * (dev**2).sum(axis=-1) / _dof(xa.shape[-1], "psi_s")

    def gradient(self, values, xa: np.ndarray) -> np.ndarray:
        return 2.0 * self.c * (xa - xa.mean(axis=-1, keepdims=True)) / _dof(xa.shape[-1], "psi_s")


@dataclass(frozen=True)
class Constant(_DataIndependent):
    """A fixed guess, independent of the data."""

    c: float

    def __post_init__(self):
        _check_params(self)
        if self.c < 0:
            raise NonPositiveVarianceError(f"constant guess must be >= 0, got {self.c}")


@dataclass(frozen=True)
class OracleReduced(_DataIndependent):
    """Per-worker variance guesses reduced to one aggregated-worker variance.

    The guesses are treated as constants, so the reduction ``c`` is the
    reciprocal of the summed reciprocals (the inverse-variance-weighted
    combination).
    """

    guesses: tuple

    def __init__(self, guesses):
        object.__setattr__(self, "guesses", tuple(float(g) for g in validate_variances(guesses)))

    @property
    def c(self) -> float:
        return float(1.0 / (1.0 / np.array(self.guesses)).sum())


VarianceEstimator = HeuristicH | SampleScaled | Constant | OracleReduced


def psi_value(est: VarianceEstimator, X: ObservationMatrix | None, x_a) -> float:
    """psi of one matrix (None for an estimator that does not read it) and
    its aggregate: ``evaluate`` on a batch of one, or ``value(X, x_a)`` for
    an estimator with no ``evaluate``.  An aggregate whose length is not
    X's question count raises LengthMismatchError."""
    if not hasattr(est, "evaluate"):
        return float(est.value(X, x_a))
    x_a = as_answer_vector(x_a)
    if X is not None and x_a.shape[0] != X.n_questions:
        raise LengthMismatchError(
            f"aggregate length {x_a.shape[0]} != question count {X.n_questions}")
    return float(est.evaluate(None if X is None else X.values, x_a))


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
