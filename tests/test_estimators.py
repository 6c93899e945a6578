"""Single-vector estimators and the batched shrinkage kernel."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from ebtruth import (
    NonFiniteParameterError,
    NonPositiveVarianceError,
    ZeroNormInputError,
    bayes_posterior_mean,
    ebe,
    identity,
    shrink_aggregate,
    shrink_batch,
    stein,
)

# Frozen from exact rational arithmetic on the built-in worked example:
# inverse-variance aggregate of the 4x4 matrix, then shrink with m - 3 = 1.
BLUE_ROW = [9.852884450837376, 10.589595348987794, 16.58256055427337,
            12.943180504229664]
AGG_VAR = 6.743593064182673
EB_ROW = [10.499588093319227, 11.055775007256534, 15.580221206206177,
          12.832636551546269]
EB_FACTOR = 0.7549595307109822


class TestShrinkTowardMean:
    def test_worked_example_golden(self):
        res = ebe(BLUE_ROW, AGG_VAR)
        np.testing.assert_allclose(res.estimate, EB_ROW, rtol=1e-12)
        assert res.shrink_factor == pytest.approx(EB_FACTOR, rel=1e-12)
        assert not res.degenerate

    def test_short_vector_is_identity(self):
        for m in (1, 2, 3):
            v = np.arange(m, dtype=float) + 1
            res = ebe(v, 1.0)
            assert res.degenerate and res.shrink_factor == 1.0
            np.testing.assert_array_equal(res.estimate, v)

    def test_constant_vector_fully_shrinks(self):
        res = ebe([7.0] * 5, 1.0)
        assert res.degenerate and res.shrink_factor == 0.0
        np.testing.assert_array_equal(res.estimate, np.full(5, 7.0))

    def test_positive_part_clips_negative_factor(self):
        v = [1.0, 1.1, 0.9, 1.05]  # tiny dispersion, big variance
        raw = ebe(v, 100.0)
        clipped = ebe(v, 100.0, positive_part=True)
        assert raw.shrink_factor < 0
        assert clipped.shrink_factor == 0.0
        np.testing.assert_allclose(clipped.estimate, np.full(4, np.mean(v)))

    def test_alpha_zero_is_identity(self):
        v = [1.0, 2.0, 3.0, 4.0]
        res = ebe(v, 1.0, alpha=0.0)
        np.testing.assert_array_equal(res.estimate, v)
        assert res.shrink_factor == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(NonPositiveVarianceError):
            ebe([1.0, 2.0, 3.0, 4.0], 0.0)
        with pytest.raises(ValueError):
            ebe([1.0, 2.0, 3.0, 4.0], 1.0, alpha=-1.0)

    def test_nan_alpha_is_rejected(self):
        # nan < 0 is False, so a plain sign test let it through to an all-NaN estimate
        with pytest.raises(ValueError, match="alpha must be >= 0"):
            ebe(np.arange(6.0), 1.0, alpha=float("nan"))

    def test_infinite_alpha_is_rejected(self):
        # an infinite weight overflowed to the degenerate full-shrink path,
        # which returned the mean
        for call in (lambda: ebe(np.arange(5.0), 1.0, alpha=np.inf),
                     lambda: shrink_aggregate(np.arange(5.0), 1.0, alpha=np.inf)):
            with pytest.raises(ValueError, match="alpha must be >= 0 and finite, got inf"):
                call()

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=4, max_size=20),
           st.floats(min_value=-50, max_value=50),
           st.floats(min_value=0.01, max_value=10))
    @example(xs=[0.0] * 5, shift=13.691350663375637, sigma2=1.0)
    def test_translation_equivariance(self, xs, shift, sigma2):
        from hypothesis import assume
        res = ebe(xs, sigma2)
        # a dispersion that rounding removes under the shift cannot be
        # restored; keep inputs whose spread survives it
        assume(res.degenerate or abs(res.shrink_factor) < 1e6)
        base = res.estimate
        moved = ebe(np.asarray(xs) + shift, sigma2).estimate
        np.testing.assert_allclose(moved, base + shift, rtol=1e-9, atol=1e-7)

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=4, max_size=20),
           st.floats(min_value=0.01, max_value=10))
    def test_mean_is_preserved(self, xs, sigma2):
        from hypothesis import assume
        res = ebe(xs, sigma2)
        # near-zero dispersion makes the unclipped factor astronomically
        # large; the mean is still preserved but beyond float resolution
        assume(res.degenerate or abs(res.shrink_factor) < 1e6)
        assert res.estimate.mean() == pytest.approx(np.mean(xs), rel=1e-9, abs=1e-7)


class TestStein:
    def test_formula(self):
        v = np.array([3.0, 4.0, 0.0])
        res = stein(v, 2.0)
        factor = 1.0 - (3 - 2) * 2.0 / 25.0
        np.testing.assert_allclose(res.estimate, factor * v)
        assert res.shrink_factor == pytest.approx(factor)

    def test_short_vector_is_identity(self):
        res = stein([1.0, 2.0], 1.0)
        assert res.degenerate
        np.testing.assert_array_equal(res.estimate, [1.0, 2.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroNormInputError):
            stein([0.0, 0.0, 0.0], 1.0)


class TestBayesPosteriorMean:
    def test_formula(self):
        v = np.array([1.0, 5.0])
        out = bayes_posterior_mean(v, sigma2=1.0, mu0=3.0, sigma0_2=1.0)
        np.testing.assert_allclose(out, 0.5 * v + 0.5 * 3.0)

    def test_vanishing_noise_returns_data(self):
        v = np.array([1.0, 5.0])
        out = bayes_posterior_mean(v, sigma2=1e-12, mu0=100.0, sigma0_2=1.0)
        np.testing.assert_allclose(out, v, atol=1e-9)

    def test_invalid_prior(self):
        with pytest.raises(NonPositiveVarianceError):
            bayes_posterior_mean([1.0], 1.0, 0.0, -1.0)


class TestNonFiniteVariance:
    """A NaN or infinite variance raises, as one <= 0 does: a NaN gave all-NaN
    estimates, and ebe shrank all the way to the mean for inf."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("call", [
        lambda v, s: ebe(v, s),
        lambda v, s: ebe(np.stack([v, v]), [1.0, s]),
        lambda v, s: stein(v, s),
        lambda v, s: shrink_aggregate(v, s),
        lambda v, s: bayes_posterior_mean(v, s, 0.0, 1.0),
        lambda v, s: bayes_posterior_mean(v, 1.0, 0.0, s),
    ], ids=["ebe", "ebe-batch", "stein", "shrink_aggregate", "posterior-sigma2",
            "posterior-sigma0_2"])
    def test_raises_a_typed_error(self, call, bad):
        with pytest.raises(NonFiniteParameterError, match="sigma2 must be finite"):
            call(np.arange(6.0), bad)


class TestIdentityAndBatch:
    def test_identity_copies(self):
        v = np.array([1.0, 2.0])
        out = identity(v)
        out[0] = 99.0
        assert v[0] == 1.0

    def test_batch_matches_scalar_path(self):
        rng = np.random.default_rng(0)
        V = rng.normal(size=(50, 8))
        sigma2 = rng.uniform(0.1, 5.0, size=50)
        alpha = rng.uniform(0.0, 10.0, size=50)
        for pp in (False, True):
            batch = shrink_batch(V, sigma2, alpha, pp)
            for i in range(50):
                scalar = ebe(V[i], sigma2[i], pp, alpha=alpha[i]).estimate
                np.testing.assert_allclose(batch[i], scalar, rtol=1e-12)

    def test_batch_degenerate_rows(self):
        V = np.vstack([np.full(5, 3.0), np.arange(5.0)])
        out = shrink_batch(V, 1.0, 2.0)
        np.testing.assert_array_equal(out[0], np.full(5, 3.0))
        np.testing.assert_allclose(out[1], ebe(np.arange(5.0), 1.0, alpha=2.0).estimate)

    def test_batch_short_vectors_identity(self):
        V = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(shrink_batch(V, 1.0, 1.0), V)
