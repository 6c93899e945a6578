"""Core data containers and the dispersion statistics reused by every formula."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyMatrixError,
    LengthMismatchError,
    NonFiniteError,
    NonFiniteParameterError,
    NonPositiveVarianceError,
)


@dataclass(frozen=True)
class ObservationMatrix:
    """A complete n x m matrix of worker answers (row = worker, column = question).

    Entries must all be finite; missing values are rejected outright because
    every downstream sum runs over all (worker, question) pairs.  ``values``
    is a read-only copy of the input, so the caller's array stays writeable
    and a later write to it, or to a view of it, does not reach the matrix.
    """

    values: np.ndarray
    worker_ids: tuple = field(default=None)
    question_ids: tuple = field(default=None)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] == 0 or values.shape[1] == 0:
            raise EmptyMatrixError(f"expected a non-empty 2-D matrix, got shape {values.shape}")
        _check_finite(values)
        for name, count in (("worker_ids", values.shape[0]), ("question_ids", values.shape[1])):
            ids = getattr(self, name)
            ids = tuple(range(count)) if ids is None else tuple(ids)
            if len(ids) != count:
                raise LengthMismatchError(f"{name} length {len(ids)} does not match {count}")
            object.__setattr__(self, name, ids)
        values.setflags(write=False)

    @property
    def n_workers(self) -> int:
        return self.values.shape[0]

    @property
    def n_questions(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class DispersionStats:
    """Mean, unnormalized sum of squared deviations, and sample variance of a vector.

    ``ss`` (the unnormalized sum) is the canonical shrinkage denominator;
    ``sample_variance`` = ss/(m-1) is kept alongside because the risk
    decomposition is stated in the (m-1)-normalized convention with a
    compensating prefactor.  ``sample_variance`` is None for m = 1.
    """

    mean: float
    ss: float
    sample_variance: float | None


def validate_matrix(values, worker_ids=None, question_ids=None) -> ObservationMatrix:
    """Validate raw values into an ObservationMatrix, which keeps a read-only
    copy of them; never silently repairs data."""
    return ObservationMatrix(values, worker_ids, question_ids)


def _check_finite(values: np.ndarray) -> None:
    finite = np.isfinite(values)
    if np.count_nonzero(finite) < finite.size:
        bad = np.argwhere(~finite)[0]
        raise NonFiniteError(int(bad[0]) if values.ndim == 2 else 0, int(bad[-1]))


def as_answers(values) -> np.ndarray:
    """Coerce to finite answer vectors along the last axis: one (m,) vector
    or an (r, m) batch of them."""
    v = np.asarray(values, dtype=float)
    if v.ndim not in (1, 2) or v.size == 0:
        raise EmptyMatrixError(f"expected a non-empty vector or (r, m) batch, got shape {v.shape}")
    _check_finite(v)
    return v


def as_answer_vector(values) -> np.ndarray:
    """Coerce to a finite 1-D float vector."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise EmptyMatrixError(f"expected a non-empty 1-D vector, got shape {v.shape}")
    return as_answers(v)


def validate_variances(values) -> np.ndarray:
    """Coerce to a strictly positive 1-D variance vector."""
    v = as_answer_vector(values)
    if np.count_nonzero(v <= 0):
        raise NonPositiveVarianceError("all variances must be > 0")
    return v


def check_sigma2(sigma2) -> np.ndarray:
    """``sigma2``, one variance or an array of them, as a float array.  A NaN
    or infinite variance raises NonFiniteParameterError, and one <= 0
    NonPositiveVarianceError."""
    sigma2 = np.asarray(sigma2, dtype=float)
    if np.count_nonzero(np.isfinite(sigma2)) < sigma2.size:
        raise NonFiniteParameterError(f"sigma2 must be finite, got {sigma2}")
    if np.count_nonzero(sigma2 <= 0):
        raise NonPositiveVarianceError(f"sigma2 must be > 0, got {sigma2}")
    return sigma2


def dispersion(v) -> DispersionStats:
    """Mean, sum of squared deviations, and sample variance of an answer vector."""
    v = as_answer_vector(v)
    m = v.shape[0]
    mean = float(v.mean())
    ss = float(((v - mean) ** 2).sum())
    sample_variance = ss / (m - 1) if m >= 2 else None
    return DispersionStats(mean=mean, ss=ss, sample_variance=sample_variance)
