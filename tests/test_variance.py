"""Scalar variance estimators, their derivatives, and the mean-adjusted check."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ebtruth import (
    Constant,
    HeuristicH,
    LengthMismatchError,
    NonFiniteParameterError,
    NonPositiveVarianceError,
    OracleReduced,
    SampleScaled,
    finite_difference,
    is_mean_adjusted,
    psi_derivative,
    psi_value,
    validate_matrix,
)

TABLE = [[20.0, 2.0, 3.0, 4.0], [10.0, 11.0, 18.0, 14.0],
         [8.0, 11.0, 23.0, 19.0], [6.0, 13.0, 7.0, 3.0]]
BLUE_ROW = np.array([9.852884450837376, 10.589595348987794,
                     16.58256055427337, 12.943180504229664])
# Frozen from exact rational arithmetic.
PSI_H_GOLDEN = 61.445407221603396
ORACLE_GOLDEN = 6.743593064182673


@dataclass(frozen=True)
class FlippedSampleScaled:
    """Adversarial plug-in: negated sample variance (sign-flipped derivative)."""

    def value(self, X, x_a):
        x_a = np.asarray(x_a, dtype=float)
        return -float(((x_a - x_a.mean()) ** 2).sum() / (x_a.shape[0] - 1))


class TestValues:
    def test_residual_heuristic_golden(self):
        X = validate_matrix(TABLE)
        assert psi_value(HeuristicH(), X, BLUE_ROW) == pytest.approx(PSI_H_GOLDEN, rel=1e-12)

    def test_sample_scaled_is_scaled_sample_variance(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        assert psi_value(SampleScaled(2.0), None, v) == pytest.approx(2.0 * np.var(v, ddof=1))
        assert psi_value(SampleScaled(0.5), None, v) == pytest.approx(0.5 * np.var(v, ddof=1))

    def test_oracle_reduction_golden(self):
        est = OracleReduced([93.5, 11.0, 34.5, 56.5])
        assert est.c == pytest.approx(ORACLE_GOLDEN, rel=1e-12)
        assert psi_value(est, None, np.zeros(4)) == est.c

    def test_constant(self):
        assert psi_value(Constant(3.5), None, np.zeros(4)) == 3.5
        with pytest.raises(NonPositiveVarianceError):
            Constant(-1.0)

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            SampleScaled(-0.1)

    @pytest.mark.parametrize("make", [Constant, SampleScaled], ids=["const", "s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameters_are_rejected(self, make, value):
        with pytest.raises(NonFiniteParameterError, match="c must be finite"):
            make(value)

    def test_length_guards(self):
        X = validate_matrix(TABLE)
        with pytest.raises(LengthMismatchError):
            psi_value(HeuristicH(), X, np.zeros(3))
        with pytest.raises(LengthMismatchError):
            psi_value(SampleScaled(1.0), None, np.array([1.0]))
        # the derivative and the mean-adjustedness check run the same check:
        # against one question a 4-long aggregate broadcast to a derivative
        # of 0.0, and against two it raised numpy's bare ValueError
        for questions in (1, 2):
            X = validate_matrix(np.arange(3.0 * questions).reshape(3, questions))
            with pytest.raises(LengthMismatchError, match="aggregate length 4"):
                psi_derivative(HeuristicH(), np.arange(4.0), 0, X=X)
            with pytest.raises(LengthMismatchError, match="aggregate length 4"):
                is_mean_adjusted(HeuristicH(), np.arange(4.0), X=X)
        # a plug-in with only value(X, x_a) gets the same check: psi_value
        # returned -3.5 for a 6-long aggregate against four questions
        X = validate_matrix(np.arange(8.0).reshape(2, 4))
        for call in (lambda: psi_value(FlippedSampleScaled(), X, np.arange(6.0)),
                     lambda: psi_derivative(FlippedSampleScaled(), np.arange(6.0), 0, X=X)):
            with pytest.raises(LengthMismatchError, match="aggregate length 6"):
                call()

    def test_residual_heuristic_value_needs_matrix(self):
        with pytest.raises(LengthMismatchError, match="needs the observation matrix"):
            psi_value(HeuristicH(), None, np.zeros(4))
        with pytest.raises(LengthMismatchError, match="needs the observation matrix"):
            HeuristicH().evaluate(None, np.zeros((2, 4)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("est", [HeuristicH(), SampleScaled(1.0)], ids=["h", "s"])
    @pytest.mark.parametrize("kernel", ["evaluate", "gradient"])
    def test_batch_kernels_reject_one_question(self, est, kernel):
        values = np.arange(6.0).reshape(3, 2, 1)
        with pytest.raises(LengthMismatchError):
            getattr(est, kernel)(values, values.mean(axis=-2))
        with pytest.raises(LengthMismatchError):
            getattr(est, kernel)(values[0], values[0].mean(axis=-2))
        with pytest.raises(LengthMismatchError):
            psi_value(est, validate_matrix(values[0]), values[0].mean(axis=-2))

    def test_duck_typed_plugin(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        assert psi_value(FlippedSampleScaled(), None, v) == pytest.approx(-np.var(v, ddof=1))


class TestDerivatives:
    def test_zero_for_data_independent_estimators(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        assert psi_derivative(Constant(2.0), v, 1) == 0.0
        assert psi_derivative(OracleReduced([1.0, 2.0]), v, 0) == 0.0

    def test_analytic_matches_finite_difference_100_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(4, 12))
            scale = float(rng.choice([0.1, 1.0, 50.0]))
            X = validate_matrix(rng.normal(0.0, scale, size=(n, m)))
            v = X.values.mean(axis=0) + rng.normal(0.0, 0.1 * scale, size=m)
            j = int(rng.integers(0, m))
            for est in (SampleScaled(float(rng.uniform(0.1, 3.0))), HeuristicH()):
                analytic = psi_derivative(est, v, j, X=X)
                # quadratic in each coordinate: a wide central difference is
                # truncation-free and avoids rounding cancellation
                fd = finite_difference(lambda u: psi_value(est, X, u), v, j, scale=1e-3)
                denom = max(abs(analytic), abs(fd), 1e-9)
                assert abs(analytic - fd) / denom < 1e-6

    def test_index_bounds(self):
        with pytest.raises(IndexError):
            psi_derivative(Constant(1.0), np.zeros(3), 3)

    def test_residual_heuristic_needs_matrix(self):
        with pytest.raises(LengthMismatchError):
            psi_derivative(HeuristicH(), np.zeros(4), 0, X=None)


class TestMeanAdjusted:
    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=4, max_size=15))
    def test_sample_scaled_always_passes(self, xs):
        assert is_mean_adjusted(SampleScaled(1.3), np.asarray(xs))

    def test_constant_passes(self):
        assert is_mean_adjusted(Constant(2.0), np.array([1.0, 2.0, 3.0, 4.0]))
        assert is_mean_adjusted(OracleReduced([1.0, 4.0]), np.array([1.0, 2.0, 3.0, 4.0]))

    def test_sign_flipped_adversary_fails(self):
        v = np.array([1.0, 2.0, 3.0, 10.0])
        assert not is_mean_adjusted(FlippedSampleScaled(), v)
