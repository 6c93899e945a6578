"""The two aggregation pipelines and their wrap step."""

from __future__ import annotations

import numpy as np

from .baselines import TdAlgorithm, blue_aggregate, run_td
from .estimators import ebe
from .model import ObservationMatrix
from .variance import VarianceEstimator


def eb_blue(X: ObservationMatrix, sigma2s, positive_part: bool = False) -> np.ndarray:
    """Known-competence pipeline: inverse-variance aggregate, then shrink.

    The aggregated worker's variance is the reciprocal of the summed
    reciprocal worker variances, which is exactly the right scale for the
    shrinkage weight.
    """
    answers, aggregated_variance = blue_aggregate(X, sigma2s)
    return ebe(answers, aggregated_variance, positive_part=positive_part).estimate


def shrink_aggregate(xa, sigma2_hat, alpha: float | None = None,
                     positive_part: bool = False) -> np.ndarray:
    """Aggregate in, shrunk aggregate out, for one aggregate or an (r, m)
    batch with one ``sigma2_hat`` per row; alpha=None means m - 3.  A zero
    variance estimate (legitimate on unanimous data) or alpha = 0 leaves the
    aggregate unchanged rather than erroring."""
    keep = np.asarray(sigma2_hat) == 0.0
    kept = np.count_nonzero(keep)
    if alpha == 0.0 or kept == keep.size:
        return xa
    if kept:
        sigma2_hat = np.where(keep, 1.0, sigma2_hat)
    shrunk = ebe(xa, sigma2_hat, positive_part, alpha).estimate
    return np.where(keep[..., None], xa, shrunk) if kept else shrunk


def eb_wrap(X: ObservationMatrix, base: TdAlgorithm, psi: VarianceEstimator,
            positive_part: bool = False, alpha: float | None = None) -> np.ndarray:
    """Estimated-competence pipeline: run the base algorithm, estimate the
    aggregated variance with psi, then shrink with alpha (None means m - 3).
    It runs the batch wrap's kernels on a batch of one."""
    x_a = run_td(base, X)
    return shrink_aggregate(x_a, psi.evaluate(X.values, x_a), alpha, positive_part)
