"""The two aggregation pipelines, their wrap step, and the optimal-alpha plug-in."""

from __future__ import annotations

import numpy as np

from .baselines import TdAlgorithm, blue_aggregate, run_td
from .errors import InsufficientReplicatesError, InsufficientSignalError
from .estimators import ebe, ebe_alpha, flat_rows
from .model import ObservationMatrix
from .variance import VarianceEstimator, psi_value


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
    shrunk = (ebe(xa, sigma2_hat, positive_part) if alpha is None
              else ebe_alpha(xa, sigma2_hat, alpha, positive_part)).estimate
    return np.where(keep[..., None], xa, shrunk) if kept else shrunk


def eb_wrap(X: ObservationMatrix, base: TdAlgorithm, psi: VarianceEstimator,
            positive_part: bool = False) -> np.ndarray:
    """Estimated-competence pipeline: run the base algorithm, estimate the
    aggregated variance with psi, then shrink."""
    return eb_wrap_alpha(X, base, psi, None, positive_part)


def eb_wrap_alpha(X: ObservationMatrix, base: TdAlgorithm, psi: VarianceEstimator,
                  alpha: float | None, positive_part: bool = False) -> np.ndarray:
    """eb_wrap with the (m-3) multiplier replaced by alpha (None keeps m - 3)."""
    x_a = run_td(base, X)
    return shrink_aggregate(x_a, psi_value(psi, X, x_a), alpha, positive_part)


def estimate_alpha_star(aggregates: np.ndarray, sigma2_hats: np.ndarray,
                        mu: np.ndarray) -> float:
    """Plug-in estimate of the risk-minimizing alpha from a replicate stream.

    ``aggregates`` is (replicates, m), ``sigma2_hats`` is (replicates,), and
    ``mu`` the known ground truth (synthetic benchmarks only: the covariances
    are taken around the truth).  The estimate is the ratio of the summed
    coordinate covariances to the mean of sigma-hat^4 over the squared
    deviation norm; the risk in alpha is a parabola maximized at that ratio.
    Replicates with zero dispersion (flat, or whose ss underflows) are left
    out.
    """
    aggregates = np.asarray(aggregates, dtype=float)
    sigma2_hats = np.asarray(sigma2_hats, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if aggregates.ndim != 2 or aggregates.shape[1] != mu.shape[0]:
        raise InsufficientReplicatesError("aggregates must be (replicates, m) matching mu")
    r = aggregates.shape[0]
    if r < 30 or sigma2_hats.shape[0] != r:
        raise InsufficientReplicatesError(f"need >= 30 replicates, got {r}")
    dev = aggregates - aggregates.mean(axis=1, keepdims=True)
    ss = (dev**2).sum(axis=1)
    ok = ~flat_rows(aggregates)[:, 0] & (ss > 0)
    if not np.any(ok) or np.all(sigma2_hats == 0.0):
        raise InsufficientSignalError("no dispersion or identically zero variance estimates")
    aggregates, sigma2_hats, dev, ss = aggregates[ok], sigma2_hats[ok], dev[ok], ss[ok]
    # E[(X_j - mu_j) g_j] is the covariance when the truth is known exactly.
    numerator = ((aggregates - mu) * sigma2_hats[:, None] * dev / ss[:, None]).sum(axis=1).mean()
    denominator = (sigma2_hats**2 / ss).mean()
    if denominator == 0.0:
        raise InsufficientSignalError("zero denominator in alpha-star estimate")
    return float(numerator / denominator)
