"""Container validation and dispersion statistics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ebtruth import (
    Blue,
    DispersionStats,
    EmptyMatrixError,
    ExplicitSigmas,
    LengthMismatchError,
    Mean,
    NonFiniteError,
    NonFiniteParameterError,
    NonPositiveVarianceError,
    ObservationMatrix,
    OracleReduced,
    as_answer_vector,
    blue_aggregate,
    dispersion,
    eb_blue,
    run_td,
    validate_matrix,
    validate_variances,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestObservationMatrix:
    def test_basic_shape_and_ids(self):
        X = validate_matrix([[1.0, 2.0], [3.0, 4.0]])
        assert X.n_workers == 2 and X.n_questions == 2
        assert X.worker_ids == (0, 1)
        assert X.question_ids == (0, 1)

    def test_explicit_ids(self):
        X = ObservationMatrix(np.ones((2, 3)), ["a", "b"], ["x", "y", "z"])
        assert X.worker_ids == ("a", "b")
        assert X.question_ids == ("x", "y", "z")

    def test_values_read_only(self):
        X = validate_matrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            X.values[0, 0] = 5.0

    @pytest.mark.parametrize("make", [validate_matrix, ObservationMatrix],
                             ids=["validate_matrix", "ObservationMatrix"])
    def test_the_callers_array_stays_writeable_and_apart(self, make):
        a = np.arange(6.0).reshape(2, 3)
        view = a[:]
        X = make(a)
        assert a.flags.writeable and not X.values.flags.writeable
        # a write through a view taken before, or to the array itself
        view[0, 0] = np.nan
        a[1, 2] = 99.0
        assert np.array_equal(X.values, np.arange(6.0).reshape(2, 3))
        assert np.array_equal(run_td(Mean(), X), [1.5, 2.5, 3.5])

    def test_non_finite_rejected_with_position(self):
        with pytest.raises(NonFiniteError) as exc:
            validate_matrix([[1.0, 2.0], [np.nan, 4.0]])
        assert exc.value.row == 1 and exc.value.col == 0
        with pytest.raises(NonFiniteError):
            validate_matrix([[np.inf, 2.0]])

    def test_empty_rejected(self):
        with pytest.raises(EmptyMatrixError):
            validate_matrix(np.empty((0, 3)))
        with pytest.raises(EmptyMatrixError):
            validate_matrix([1.0, 2.0, 3.0])  # 1-D

    def test_id_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            ObservationMatrix(np.ones((2, 2)), ["only-one"], None)
        with pytest.raises(LengthMismatchError):
            ObservationMatrix(np.ones((2, 2)), None, ["a", "b", "c"])


class TestVectors:
    def test_as_answer_vector(self):
        v = as_answer_vector([1, 2, 3])
        assert v.dtype == float and v.shape == (3,)

    def test_as_answer_vector_rejects(self):
        with pytest.raises(EmptyMatrixError):
            as_answer_vector([])
        with pytest.raises(NonFiniteError):
            as_answer_vector([1.0, np.nan])

    def test_validate_variances(self):
        assert validate_variances([1.0, 2.0]).tolist() == [1.0, 2.0]
        with pytest.raises(NonPositiveVarianceError):
            validate_variances([1.0, 0.0])
        with pytest.raises(NonPositiveVarianceError):
            validate_variances([-1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("call", [
        validate_variances,
        lambda s: blue_aggregate(validate_matrix(np.arange(16.0).reshape(4, 4)), s),
        lambda s: eb_blue(validate_matrix(np.arange(16.0).reshape(4, 4)), s),
        Blue,
        OracleReduced,
        ExplicitSigmas,
    ], ids=["validate_variances", "blue_aggregate", "eb_blue", "Blue", "OracleReduced",
            "ExplicitSigmas"])
    def test_a_non_finite_worker_variance_is_a_parameter_error(self, call, bad):
        # the error check_sigma2 gives a bad shrink variance, not the
        # matrix's NonFiniteError with a row and column
        with pytest.raises(NonFiniteParameterError, match="variances must be finite"):
            call([1.0, 1.0, 1.0, bad])


class TestDispersion:
    def test_known_values(self):
        d = dispersion([1.0, 2.0, 3.0])
        assert d == DispersionStats(mean=2.0, ss=2.0, sample_variance=1.0)

    def test_singleton_has_no_sample_variance(self):
        d = dispersion([5.0])
        assert d.mean == 5.0 and d.ss == 0.0 and d.sample_variance is None

    @given(st.lists(finite_floats, min_size=2, max_size=30), finite_floats)
    def test_translation_shifts_mean_preserves_ss(self, xs, shift):
        base = dispersion(xs)
        moved = dispersion(np.asarray(xs) + shift)
        assert moved.mean == pytest.approx(base.mean + shift, abs=1e-6)
        assert moved.ss == pytest.approx(base.ss, rel=1e-9, abs=1e-6)

    @given(st.lists(finite_floats, min_size=2, max_size=30),
           st.floats(min_value=0.1, max_value=100))
    def test_scaling_scales_ss_quadratically(self, xs, c):
        base = dispersion(xs)
        scaled = dispersion(np.asarray(xs) * c)
        assert scaled.ss == pytest.approx(c**2 * base.ss, rel=1e-9, abs=1e-9)
