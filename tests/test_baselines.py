"""Baseline aggregation algorithms against small reference reimplementations."""

import numpy as np
import pytest
from scipy import stats

from ebtruth import (
    CATD,
    CRH,
    Blue,
    DistanceWeighted,
    EmptyMatrixError,
    IterationDivergenceError,
    LengthMismatchError,
    Mean,
    Median,
    ValidationError,
    blue_aggregate,
    run_td,
    run_td_batch,
    validate_matrix,
)
from ebtruth import Constant, eb_wrap
from ebtruth import baselines
from ebtruth.baselines import _chi2_quantile

TABLE = [[20.0, 2.0, 3.0, 4.0], [10.0, 11.0, 18.0, 14.0],
         [8.0, 11.0, 23.0, 19.0], [6.0, 13.0, 7.0, 3.0]]
VARIANCES = [93.5, 11.0, 34.5, 56.5]
# Frozen from exact rational arithmetic.
BLUE_ROW = [9.852884450837376, 10.589595348987794, 16.58256055427337,
            12.943180504229664]
AGG_VAR = 6.743593064182673


def _reference_iterative(X, weight_rule, iters=14, tol=1e-8):
    # Deliberately naive loop reimplementation used as an oracle.
    n, m = X.shape
    t = X.mean(axis=0)
    w_prev = None
    for _ in range(iters):
        d = np.array([((X[i] - t) ** 2).sum() for i in range(n)]) + 1e-12
        w = weight_rule(d)
        t = sum(w[i] * X[i] for i in range(n)) / w.sum()
        if w_prev is not None and np.max(np.abs(w - w_prev)) < tol:
            break
        w_prev = w
    return t


class TestBlue:
    def test_worked_example_golden(self):
        X = validate_matrix(TABLE)
        answers, agg_var = blue_aggregate(X, VARIANCES)
        np.testing.assert_allclose(answers, BLUE_ROW, rtol=1e-12)
        assert agg_var == pytest.approx(AGG_VAR, rel=1e-12)

    def test_batch_matches_single(self):
        X = validate_matrix(TABLE)
        batch = run_td_batch(Blue(VARIANCES), np.stack([X.values] * 3))
        for row in batch:
            np.testing.assert_allclose(row, BLUE_ROW, rtol=1e-12)

    def test_variance_count_mismatch(self):
        with pytest.raises(LengthMismatchError):
            blue_aggregate(validate_matrix(TABLE), [1.0, 2.0])

    def test_equal_variances_reduce_to_mean(self):
        X = validate_matrix(TABLE)
        answers, _ = blue_aggregate(X, [2.0] * 4)
        np.testing.assert_allclose(answers, X.values.mean(axis=0), rtol=1e-12)


class TestSimpleBaselines:
    def test_mean_median(self):
        X = validate_matrix(TABLE)
        np.testing.assert_allclose(run_td(Mean(), X), np.mean(TABLE, axis=0))
        np.testing.assert_allclose(run_td(Median(), X), np.median(TABLE, axis=0))


def _same_bits(a, b):
    """Equal values and signs, so a -0.0 against a 0.0 differs; NaNs match NaNs."""
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


class TestMedian:
    """``Median`` sorts once and does ``np.median``'s arithmetic, so it gives
    ``np.median``'s bits."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 10])
    def test_equals_np_median_on_odd_and_even_counts(self, n):
        Xb = np.random.default_rng(n).normal(2.0, 3.0, size=(40, n, 7))
        with np.errstate(all="raise"):
            got = run_td_batch(Median(), Xb)
        assert _same_bits(got, np.median(Xb, axis=1))

    @pytest.mark.parametrize("n", [1, 4, 5])
    def test_nan_and_infinite_lanes_are_np_medians(self, n):
        Xb = np.random.default_rng(7).normal(size=(6, n, 5))
        Xb[0, 0, 0] = np.nan  # one NaN answer
        Xb[1, :, 1] = np.nan  # a lane of NaNs
        Xb[2, :, 2] = np.inf  # a lane of +inf
        Xb[3, 0, 3] = -np.inf  # one -inf answer
        Xb[4, :, 4] = -np.inf
        Xb[5, 0, 0], Xb[5, -1, 1] = np.inf, np.nan
        with np.errstate(all="raise"):
            got = run_td_batch(Median(), Xb)
        want = np.median(Xb, axis=1)
        assert _same_bits(got, want)
        assert np.array_equal(np.isnan(got), np.isnan(want))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_signed_zero_ties_are_np_medians(self, n):
        # np.median's mean adds from +0.0, so a zero median is +0.0 whatever
        # order the sort leaves -0.0 and 0.0 in
        answers = [0.0, -0.0, 1.0, -1.0]
        lanes = np.array(np.meshgrid(*[answers] * n)).reshape(n, -1).T
        got = run_td_batch(Median(), lanes[:, :, None])
        assert _same_bits(got, np.median(lanes[:, :, None], axis=1))

    def test_an_odd_count_returns_a_new_array_not_a_view_of_the_sort(self):
        got = run_td_batch(Median(), np.arange(30.0).reshape(2, 3, 5))
        assert got.base is None and np.array_equal(got, [[5, 6, 7, 8, 9], [20, 21, 22, 23, 24]])


class TestIterativeBaselines:
    def test_crh_matches_reference(self):
        rng = np.random.default_rng(3)
        X = rng.normal(2.0, 1.0, size=(6, 15))

        def crh_w(d):
            return -np.log(d / d.sum())

        ref = _reference_iterative(X, crh_w)
        np.testing.assert_allclose(run_td(CRH(), validate_matrix(X)), ref, rtol=1e-10)

    def test_catd_matches_reference(self):
        rng = np.random.default_rng(4)
        X = rng.normal(0.0, 2.0, size=(5, 12))
        q = stats.chi2.ppf(0.975, df=12)

        def catd_w(d):
            return q / d

        ref = _reference_iterative(X, catd_w)
        np.testing.assert_allclose(run_td(CATD(), validate_matrix(X)), ref, rtol=1e-10)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5, -0.5, float("nan")])
    def test_catd_rejects_a_confidence_outside_the_open_unit_interval(self, confidence):
        with pytest.raises(ValidationError):
            CATD(confidence=confidence)

    def test_distance_weighted_matches_reference(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(7, 9))
        n, m = X.shape
        d = np.array([
            np.mean([((X[i] - X[k]) ** 2).mean() for k in range(n) if k != i])
            for i in range(n)
        ]) + 1e-12
        w = 1.0 / d
        ref = (w[:, None] * X).sum(axis=0) / w.sum()
        np.testing.assert_allclose(run_td(DistanceWeighted(), validate_matrix(X)),
                                   ref, rtol=1e-9)

    def test_single_worker_distance_weighted_is_identity(self):
        X = validate_matrix([[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(run_td(DistanceWeighted(), X), [1.0, 2.0, 3.0])

    def test_single_worker_crh_returns_the_worker(self):
        # the lone worker's log-ratio weight is 0; the 1-D, batch and
        # eb_wrap paths must all return its answers, not diverge on 0/0
        row = [1.0, 2.0, 5.0, -3.0, 0.5, 4.0]
        X = validate_matrix([row])
        np.testing.assert_array_equal(run_td(CRH(), X), row)
        Xb = np.random.default_rng(2).normal(size=(4, 1, 3))
        np.testing.assert_array_equal(run_td_batch(CRH(), Xb), Xb[:, 0, :])
        wrapped = eb_wrap(X, CRH(), Constant(1.0))
        np.testing.assert_array_equal(wrapped, eb_wrap(X, Mean(), Constant(1.0)))
        assert not np.array_equal(wrapped, row)


ALL_BASES = [Mean(), Median(), CRH(), CATD(), DistanceWeighted(), Blue([1.0, 2.0])]
BASE_IDS = ["mean", "median", "crh", "catd", "distance", "blue"]


class TestEmptyStacks:
    @pytest.mark.parametrize("alg", ALL_BASES, ids=BASE_IDS)
    def test_empty_batch_gives_an_empty_result(self, alg):
        out = run_td_batch(alg, np.zeros((0, 2, 3)))
        assert out.shape == (0, 3)

    @pytest.mark.parametrize("alg", ALL_BASES, ids=BASE_IDS)
    @pytest.mark.parametrize("shape", [(3, 0, 3), (3, 2, 0)], ids=["no-workers", "no-questions"])
    def test_no_workers_or_questions_is_an_empty_matrix(self, alg, shape):
        with pytest.raises(EmptyMatrixError):
            run_td_batch(alg, np.zeros(shape))


class TestChi2Quantile:
    """CATD's quantile is computed without scipy.stats; it must equal it."""

    def test_equals_scipy_stats_on_the_working_range(self):
        for confidence in (0.5, 0.95, 0.975, 0.99):
            for df in range(1, 2001):
                assert _chi2_quantile(confidence, df) == stats.chi2.ppf(confidence, df=df), \
                    (confidence, df)

    @pytest.mark.parametrize("df", [1, 2, 7, 50, 2000])
    def test_equals_scipy_stats_at_the_edges(self, df):
        for confidence in (0.0, 1.0, 1e-300, 1 - 1e-16, -0.5, 1.5, float("nan")):
            ours, theirs = _chi2_quantile(confidence, df), stats.chi2.ppf(confidence, df=df)
            assert ours == theirs or (np.isnan(ours) and np.isnan(theirs)), (confidence, df)

    def test_zero_degrees_of_freedom_is_nan_in_both(self):
        for confidence in (0.5, 0.95, 0.975, 0.99):
            assert np.isnan(_chi2_quantile(confidence, 0))
            assert np.isnan(stats.chi2.ppf(confidence, df=0))


def _unblocked_iterate(Xb, alg):
    # The CRH/CATD loop over the whole batch at once, as it ran before the
    # row blocks; returns the truths and the number of iterations run.
    if isinstance(alg, CRH):
        def weight_rule(d):
            return -np.log(d / d.sum(axis=1, keepdims=True))
    else:
        q = stats.chi2.ppf(alg.confidence, df=Xb.shape[2])

        def weight_rule(d):
            return q / d
    t = Xb.mean(axis=1)
    w_prev = None
    for iteration in range(alg.max_iterations):
        d = ((Xb - t[:, None, :]) ** 2).sum(axis=2) + 1e-12
        w = weight_rule(d)
        t = np.einsum("...n,...nm->...m", w, Xb) / w.sum(axis=-1, keepdims=True)
        if w_prev is not None and np.max(np.abs(w - w_prev)) < alg.convergence_tol:
            return t, iteration + 1
        w_prev = w
    return t, alg.max_iterations


class TestRowBlocks:
    """CRH and CATD iterate in row blocks; the values must not notice."""

    @pytest.mark.parametrize("alg", [CRH(), CATD()], ids=["crh", "catd"])
    @pytest.mark.parametrize("replicates,block_rows", [(1, 1), (10, 3), (10, 4), (10, 10)])
    def test_bit_parity_with_the_unblocked_loop(self, alg, replicates, block_rows,
                                                monkeypatch):
        rng = np.random.default_rng(8)
        Xb = rng.normal(2.0, 1.0, size=(replicates, 5, 8))
        Xb *= rng.uniform(0.5, 2.0, size=(replicates, 5, 1))
        monkeypatch.setattr(baselines, "ITERATION_BLOCK_BYTES", block_rows * Xb[0].nbytes)
        expected, _ = _unblocked_iterate(Xb, alg)
        assert np.array_equal(run_td_batch(alg, Xb), expected)

    @pytest.mark.parametrize("alg", [CRH(max_iterations=200),
                                     CATD(max_iterations=200, convergence_tol=1e-2)],
                             ids=["crh", "catd"])
    def test_batch_wide_stop_before_the_iteration_cap(self, alg, monkeypatch):
        # rows converge at different iterations, so a block that stopped on
        # its own weights would return different values
        rng = np.random.default_rng(13)
        Xb = rng.normal(size=(10, 5, 8)) * rng.uniform(0.5, 2.0, size=(10, 5, 1))
        monkeypatch.setattr(baselines, "ITERATION_BLOCK_BYTES", 3 * Xb[0].nbytes)
        expected, iterations = _unblocked_iterate(Xb, alg)
        assert iterations < alg.max_iterations
        assert np.array_equal(run_td_batch(alg, Xb), expected)

    @pytest.mark.parametrize("alg", [CRH(), CATD()], ids=["crh", "catd"])
    def test_divergence_in_the_last_block_raises(self, alg, monkeypatch):
        rng = np.random.default_rng(9)
        Xb = rng.normal(size=(10, 4, 6))
        Xb[-1] *= 1e200
        monkeypatch.setattr(baselines, "ITERATION_BLOCK_BYTES", 3 * Xb[0].nbytes)
        with np.errstate(all="ignore"), pytest.raises(IterationDivergenceError):
            run_td_batch(alg, Xb)


class TestInvariances:
    @pytest.mark.parametrize("alg", [Mean(), Median(), CRH(), CATD(), DistanceWeighted()])
    def test_unanimity(self, alg):
        row = np.array([4.0, -1.0, 7.5, 2.0, 0.0])
        X = validate_matrix(np.tile(row, (5, 1)))
        np.testing.assert_allclose(run_td(alg, X), row, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("alg", [Mean(), Median(), CRH(), CATD(), DistanceWeighted()])
    def test_worker_permutation_invariance(self, alg):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(6, 10))
        perm = rng.permutation(6)
        a = run_td(alg, validate_matrix(X))
        b = run_td(alg, validate_matrix(X[perm]))
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("alg", [Mean(), CRH(), CATD(), DistanceWeighted()])
    def test_approximate_unbiasedness(self, alg):
        # aggregate of many homogeneous-noise replicates should center on truth
        rng = np.random.default_rng(7)
        mu = np.array([1.0, -2.0, 3.0, 0.5, 4.0, 2.2, -1.1, 0.0])
        Xb = mu + rng.normal(0.0, 1.0, size=(4000, 5, 8))
        est = run_td_batch(alg, Xb).mean(axis=0)
        se = 1.0 / np.sqrt(5 * 4000)
        np.testing.assert_allclose(est, mu, atol=6 * se)
