"""Aggregate-then-shrink pipelines and the plug-in optimal-alpha estimate."""

import numpy as np
import pytest

from ebtruth import (
    CATD,
    CRH,
    Blue,
    Constant,
    DistanceWeighted,
    EmptyMatrixError,
    HeuristicH,
    InsufficientReplicatesError,
    InsufficientSignalError,
    Mean,
    Median,
    NonFiniteParameterError,
    OracleReduced,
    SampleScaled,
    blue_aggregate,
    eb_blue,
    eb_wrap,
    ebe,
    estimate_alpha_star,
    run_td,
    run_td_batch,
    shrink_aggregate,
    validate_matrix,
)
from ebtruth.analysis import psi_batch

TABLE = [[20.0, 2.0, 3.0, 4.0], [10.0, 11.0, 18.0, 14.0],
         [8.0, 11.0, 23.0, 19.0], [6.0, 13.0, 7.0, 3.0]]
VARIANCES = [93.5, 11.0, 34.5, 56.5]
# Frozen from exact rational arithmetic.
EB_ROW = [10.499588093319227, 11.055775007256534, 15.580221206206177,
          12.832636551546269]


class TestKnownCompetence:
    def test_worked_example_golden(self):
        X = validate_matrix(TABLE)
        np.testing.assert_allclose(eb_blue(X, VARIANCES), EB_ROW, rtol=1e-12)

    def test_composition(self):
        X = validate_matrix(TABLE)
        answers, agg_var = blue_aggregate(X, VARIANCES)
        np.testing.assert_array_equal(eb_blue(X, VARIANCES),
                                      ebe(answers, agg_var).estimate)


class TestEstimatedCompetence:
    def test_oracle_guesses_reproduce_known_competence_pipeline(self):
        X = validate_matrix(TABLE)
        from ebtruth import Blue
        wrapped = eb_wrap(X, Blue(VARIANCES), OracleReduced(VARIANCES))
        np.testing.assert_array_equal(wrapped, eb_blue(X, VARIANCES))

    def test_unanimous_data_returns_base_output(self):
        X = validate_matrix(np.tile([1.0, 2.0, 3.0, 4.0], (3, 1)))
        out = eb_wrap(X, Mean(), SampleScaled(0.0))  # scale 0 -> sigma-hat 0
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("alpha", [-1.0, float("nan")])
    @pytest.mark.parametrize("psi", [Constant(0.0), Constant(1.0)], ids=["zero", "one"])
    def test_bad_alpha_is_rejected_whatever_the_variance(self, psi, alpha):
        # an all-zero sigma-hat^2 used to return the aggregate before alpha was checked
        X = validate_matrix(TABLE)
        with pytest.raises(ValueError, match="alpha must be >= 0"):
            eb_wrap(X, Mean(), psi, alpha=alpha)
        with pytest.raises(ValueError, match="alpha must be >= 0"):
            shrink_aggregate(run_td(Mean(), X), 0.0, alpha)

    def test_alpha_zero_returns_base_output(self):
        X = validate_matrix(TABLE)
        out = eb_wrap(X, CRH(), HeuristicH(), alpha=0.0)
        np.testing.assert_array_equal(out, run_td(CRH(), X))

    def test_default_alpha_equals_m_minus_3(self):
        rng = np.random.default_rng(1)
        X = validate_matrix(rng.normal(size=(4, 9)))
        a = eb_wrap(X, Mean(), HeuristicH())
        b = eb_wrap(X, Mean(), HeuristicH(), alpha=9 - 3)
        np.testing.assert_array_equal(a, b)

    def test_positive_part_propagates(self):
        X = validate_matrix(TABLE)
        clipped = eb_wrap(X, Mean(), Constant(1e6), positive_part=True)
        mean_row = run_td(Mean(), X)
        np.testing.assert_allclose(clipped, np.full(4, mean_row.mean()))


WRAP_BASES = [Mean(), Median(), CRH(), CATD(), DistanceWeighted(),
              Blue([0.5, 1.0, 2.0, 4.0, 8.0])]
WRAP_PSIS = [HeuristicH(), SampleScaled(0.5), Constant(1.5),
             OracleReduced([0.5, 1.0, 2.0, 4.0, 8.0])]


class TestSingleMatrixIsBatchOfOne:
    """eb_wrap is the batch wrap's kernels (run_td_batch, psi_batch,
    shrink_aggregate) at a batch of one, bit for bit."""

    @pytest.mark.parametrize("base", WRAP_BASES, ids=lambda b: type(b).__name__)
    @pytest.mark.parametrize("psi", WRAP_PSIS, ids=lambda p: type(p).__name__)
    def test_equals_row_zero_of_the_batch_wrap(self, base, psi):
        rng = np.random.default_rng(4)
        for m in (4, 13):
            X = validate_matrix(rng.normal(2.0, 3.0, size=(5, m)))
            Xb = X.values[None]
            xa = run_td_batch(base, Xb)
            for pp in (False, True):
                for alpha in (None, 0, 2.5):
                    batch = shrink_aggregate(xa, psi_batch(psi, Xb, xa), alpha, pp)[0]
                    assert np.array_equal(eb_wrap(X, base, psi, pp, alpha=alpha), batch), \
                        (m, pp, alpha)
            with pytest.raises(ValueError):
                eb_wrap(X, base, psi, alpha=-1)


class TestAlphaStar:
    def test_needs_enough_replicates(self):
        with pytest.raises(InsufficientReplicatesError):
            estimate_alpha_star(np.zeros((10, 5)), np.zeros(10), np.zeros(5))

    def test_shape_mismatch(self):
        with pytest.raises(InsufficientReplicatesError):
            estimate_alpha_star(np.zeros((40, 5)), np.zeros(40), np.zeros(4))

    @pytest.mark.parametrize("sigma2_hats, shape", [
        (np.ones(39), "(39,)"), (np.ones((40, 2)), "(40, 2)"), (1.0, "()"),
    ], ids=["one-short", "matrix", "scalar"])
    def test_sigma2_hats_of_another_shape(self, sigma2_hats, shape):
        aggregates = np.random.default_rng(0).normal(size=(40, 5))
        with pytest.raises(InsufficientReplicatesError) as exc:
            estimate_alpha_star(aggregates, sigma2_hats, np.zeros(5))
        assert "(40, 5)" in str(exc.value) and f"got shape {shape}" in str(exc.value)

    @pytest.mark.parametrize("mu", [0.0, np.zeros((5, 2))], ids=["scalar", "matrix"])
    def test_mu_of_another_shape(self, mu):
        # these raised a bare IndexError and a numpy broadcast ValueError
        aggregates = np.random.default_rng(0).normal(size=(40, 5))
        with pytest.raises(InsufficientReplicatesError, match=r"\(40, 5\)"):
            estimate_alpha_star(aggregates, np.ones(40), mu)

    def test_zero_signal(self):
        with pytest.raises(InsufficientSignalError):
            estimate_alpha_star(np.ones((40, 5)), np.ones(40), np.ones(5))

    def test_zero_questions_is_an_empty_matrix(self):
        # rejected before any arithmetic, whose empty means would warn
        with pytest.raises(EmptyMatrixError):
            estimate_alpha_star(np.zeros((30, 0)), np.ones(30), np.zeros(0))
        rng = np.random.default_rng(0)
        aggregates = rng.normal(size=(40, 5))
        with pytest.raises(InsufficientSignalError):
            estimate_alpha_star(aggregates, np.zeros(40), np.zeros(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_a_non_finite_variance_estimate_raises(self, bad):
        # one NaN made the estimate NaN; zeros (psi on flat data) stay allowed
        aggregates = np.random.default_rng(0).normal(size=(40, 5))
        sigma2_hats = np.ones(40)
        sigma2_hats[:3] = 0.0
        assert np.isfinite(estimate_alpha_star(aggregates, sigma2_hats, np.zeros(5)))
        sigma2_hats[7] = bad
        with pytest.raises(NonFiniteParameterError):
            estimate_alpha_star(aggregates, sigma2_hats, np.zeros(5))

    def test_recovers_default_multiplier_with_true_variance(self):
        # With the exact variance plugged in as a constant, the optimal
        # multiplier converges to m - 3.
        rng = np.random.default_rng(123)
        m, sigma2, reps = 20, 1.5, 40_000
        mu = np.zeros(m)
        aggregates = rng.normal(0.0, np.sqrt(sigma2), size=(reps, m))
        alpha = estimate_alpha_star(aggregates, np.full(reps, sigma2), mu)
        assert alpha == pytest.approx(m - 3, rel=0.05)
