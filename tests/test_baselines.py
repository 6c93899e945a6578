"""Baseline aggregation algorithms against small reference reimplementations."""

import numpy as np
import pytest

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
    blue_aggregate,
    run_td,
    run_td_batch,
    validate_matrix,
)
from ebtruth import AwgGenerator, Constant, GaussianGT, GaussianSqSigmas, HeuristicH, eb_wrap
from ebtruth.analysis import iter_replicates
from ebtruth import baselines

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

        def catd_w(d):
            return (1.0 / d) / (1.0 / d).sum()

        ref = _reference_iterative(X, catd_w)
        np.testing.assert_allclose(run_td(CATD(), validate_matrix(X)), ref, rtol=1e-10)

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e6])
    def test_catd_weights_sum_to_one_and_ignore_units(self, c):
        # each row's weights are proportional to 1/d, sum to one, and stay
        # the same when every distance is scaled by c
        d = np.random.default_rng(8).uniform(0.1, 10.0, size=(4, 7))
        w = baselines._normalised_inverse(d)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=1e-14)
        np.testing.assert_allclose(w * d, np.broadcast_to((w * d)[:, :1], d.shape), rtol=1e-14)
        np.testing.assert_allclose(baselines._normalised_inverse(c * d), w, rtol=1e-14)

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


def _unblocked_median(Xb):
    # Median as it ran on the whole batch before the row blocks
    s = np.sort(Xb, axis=1)
    mid = s.shape[1] // 2
    out = s[:, mid] + 0.0 if s.shape[1] % 2 else (s[:, mid - 1] + s[:, mid] + 0.0) / 2
    last = s[:, -1]
    nan = np.isnan(last)
    if nan.any():
        out[nan] = last[nan]
    return out


def _unblocked_distance_weighted(Xb):
    # DistanceWeighted's formula on the whole batch at once, without row blocks
    r, n, m = Xb.shape
    s = ((Xb - Xb.mean(axis=1, keepdims=True)) ** 2).sum(axis=2)
    d = (n * s + s.sum(axis=1, keepdims=True)) / ((n - 1) * m) + 1e-12
    w = 1.0 / d
    return np.einsum("...n,...nm->...m", w, Xb) / w.sum(axis=-1, keepdims=True)


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


def _base(name, n):
    # the base named in BASE_IDS, with one Blue variance for each of n workers
    return {"mean": Mean(), "median": Median(), "crh": CRH(), "catd": CATD(),
            "distance": DistanceWeighted(), "blue": Blue(np.linspace(1.0, 2.0, n))}[name]


class TestFreshAnswers:
    """Every base's answers are a new, writeable array: CRH and
    DistanceWeighted returned a read-only view of a lone worker's answers."""

    @pytest.mark.parametrize("name", BASE_IDS)
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("block_rows", [4, 3], ids=["one-block", "blocks"])
    def test_answers_share_no_memory_with_the_input(self, name, n, block_rows, monkeypatch):
        alg = _base(name, n)
        Xb = np.random.default_rng(n).normal(2.0, 1.0, size=(4, n, 5))
        Xb.flags.writeable = False
        monkeypatch.setattr(baselines, "ITERATION_BLOCK_BYTES", block_rows * Xb[0].nbytes)
        X = validate_matrix(Xb[0])
        for answers, source in ((run_td_batch(alg, Xb), Xb), (run_td(alg, X), X.values),
                                (eb_wrap(X, alg, HeuristicH()), X.values)):
            assert answers.flags.writeable
            assert not np.shares_memory(answers, source)


def _unblocked_iterate(Xb, alg):
    # The per-row CRH/CATD rule over the whole batch at once, without row
    # blocks or gathering: every row iterates until its own largest weight
    # change is below the tolerance, then keeps its truths.  Returns the
    # truths and each row's number of iterations.
    if isinstance(alg, CRH):
        def weight_rule(d):
            return -np.log(d / d.sum(axis=1, keepdims=True))
    else:
        def weight_rule(d):
            w = 1.0 / d
            return w / w.sum(axis=1, keepdims=True)
    t = Xb.mean(axis=1)
    w_prev = None
    iterations = np.full(Xb.shape[0], alg.max_iterations)
    stopped = np.zeros(Xb.shape[0], dtype=bool)
    for iteration in range(alg.max_iterations):
        d = ((Xb - t[:, None, :]) ** 2).sum(axis=2) + 1e-12
        w = weight_rule(d)
        new = np.einsum("...n,...nm->...m", w, Xb) / w.sum(axis=-1, keepdims=True)
        t = np.where(stopped[:, None], t, new)
        if w_prev is not None:
            now = ~stopped & (np.abs(w - w_prev).max(axis=1) < alg.convergence_tol)
            iterations[now] = iteration + 1
            stopped |= now
            if stopped.all():
                break
        w_prev = w
    return t, iterations


def _one_row_at_a_time(alg, Xb):
    return np.concatenate([run_td_batch(alg, Xb[i:i + 1]) for i in range(Xb.shape[0])])


class TestRowBlocks:
    """CRH and CATD iterate in row blocks, each row to its own stop; the
    values must not notice the blocks or the batch."""

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
    @pytest.mark.parametrize("block_rows", [3, 10])
    def test_per_row_stop_before_the_iteration_cap(self, alg, block_rows, monkeypatch):
        # rows stop at different iterations, inside one block as well, and
        # each keeps the truths of its own last iteration
        rng = np.random.default_rng(13)
        Xb = rng.normal(size=(10, 5, 8)) * rng.uniform(0.5, 2.0, size=(10, 5, 1))
        monkeypatch.setattr(baselines, "ITERATION_BLOCK_BYTES", block_rows * Xb[0].nbytes)
        expected, iterations = _unblocked_iterate(Xb, alg)
        assert iterations.max() < alg.max_iterations
        assert len(set(iterations[:3])) > 1  # the first 3-row block
        got = run_td_batch(alg, Xb)
        assert np.array_equal(got, expected)
        assert np.array_equal(got, _one_row_at_a_time(alg, Xb))

    @pytest.mark.parametrize("alg", [CRH(), CATD()], ids=["crh", "catd"])
    @pytest.mark.parametrize("n, m, replicates", [(10, 50, 1000), (8, 100, 300), (3, 7, 200),
                                                  (2, 12, 100)])
    def test_a_batch_equals_its_rows_one_at_a_time(self, alg, n, m, replicates):
        # with a batch-wide stopping test, CRH differed from its one-row runs
        # by up to 6.5e-10 at (10, 50, 1000) and 1.1e-9 at (8, 100, 300)
        gen = AwgGenerator(GaussianGT(2.0, 1.0), GaussianSqSigmas(0.5, 1.0, 0.4), n=n, m=m,
                           fresh_gt=True, fresh_sigmas=True)
        Xb = np.concatenate([X for X, _, _ in iter_replicates(gen, replicates, seed=3)])
        assert _same_bits(run_td_batch(alg, Xb), _one_row_at_a_time(alg, Xb))

    @pytest.mark.parametrize("alg", [CRH(), CATD()], ids=["crh", "catd"])
    def test_divergence_in_the_last_block_raises(self, alg, monkeypatch):
        rng = np.random.default_rng(9)
        Xb = rng.normal(size=(10, 4, 6))
        Xb[-1] *= 1e200
        monkeypatch.setattr(baselines, "ITERATION_BLOCK_BYTES", 3 * Xb[0].nbytes)
        with np.errstate(all="ignore"), pytest.raises(IterationDivergenceError):
            run_td_batch(alg, Xb)


    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("replicates,block_rows", [(1, 1), (10, 3), (10, 4), (10, 10)])
    def test_median_and_distance_match_the_unblocked_code(self, n, replicates, block_rows,
                                                          monkeypatch):
        rng = np.random.default_rng(n)
        Xb = rng.normal(2.0, 1.0, size=(replicates, n, 8))
        Xb *= rng.uniform(0.5, 2.0, size=(replicates, n, 1))
        monkeypatch.setattr(baselines, "ITERATION_BLOCK_BYTES", block_rows * Xb[0].nbytes)
        assert _same_bits(run_td_batch(DistanceWeighted(), Xb), _unblocked_distance_weighted(Xb))
        Xb[0, 0, 0] = np.nan  # one NaN answer
        Xb[-1, :, 1] = np.nan  # a lane of NaNs
        Xb[0, :, 2] = np.inf  # a lane of +inf
        Xb[-1, 0, 3] = -np.inf  # one -inf answer
        Xb[replicates // 2, :, 4] = -np.inf
        want = _unblocked_median(Xb)
        with np.errstate(all="raise"):
            got = run_td_batch(Median(), Xb)
        assert _same_bits(got, want)

    @pytest.mark.parametrize("n", [1, 3, 5])
    @pytest.mark.parametrize("replicates,block_rows", [(1, 1), (10, 1), (10, 3), (10, 4),
                                                       (10, 10)])
    def test_mean_and_blue_match_their_whole_batch_formulas(self, n, replicates, block_rows,
                                                            monkeypatch):
        rng = np.random.default_rng(n)
        Xb = rng.normal(2.0, 1.0, size=(replicates, n, 8))
        Xb *= rng.uniform(0.5, 2.0, size=(replicates, n, 1))
        variances = np.linspace(0.5, 2.0, n)
        w = 1.0 / variances
        monkeypatch.setattr(baselines, "ITERATION_BLOCK_BYTES", block_rows * Xb[0].nbytes)
        assert _same_bits(run_td_batch(Mean(), Xb), Xb.mean(axis=1))
        assert _same_bits(run_td_batch(Blue(variances), Xb),
                          np.einsum("n,rnm->rm", w, Xb) / w.sum())

    @pytest.mark.parametrize("alg", ALL_BASES, ids=BASE_IDS)
    @pytest.mark.parametrize("replicates", [1, 3, 7])
    def test_aggregate_never_gets_more_than_a_block(self, alg, replicates, monkeypatch):
        Xb = np.random.default_rng(4).normal(size=(replicates, 2, 6))
        monkeypatch.setattr(baselines, "ITERATION_BLOCK_BYTES", 3 * Xb[0].nbytes)
        aggregate, rows = type(alg).aggregate, []

        def spy(self, X):
            rows.append(X.shape[0])
            return aggregate(self, X)

        monkeypatch.setattr(type(alg), "aggregate", spy)
        want = aggregate(alg, Xb)
        assert _same_bits(run_td_batch(alg, Xb), want)
        assert max(rows) <= baselines.block_rows(Xb) == 3
        assert sum(rows) == replicates


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

    # Norm-relative tolerances for permuting workers and questions.  Only the
    # summation order changes, so each is about five times the largest error
    # seen over 3000 draws, of this design and of a wider one: 4.4e-15 for
    # Mean, Median and DistanceWeighted (one pass), 1.0e-14 for CRH and
    # 6.6e-14 for CATD (their 14 reweighting steps carry the rounding along),
    # 5.8e-13 for the wrap (CRH's rounding, passed on through psi and the
    # shrink).
    @pytest.mark.parametrize("aggregate, tol", [
        (lambda X: run_td(Mean(), X), 2e-14),
        (lambda X: run_td(Median(), X), 2e-14),
        (lambda X: run_td(DistanceWeighted(), X), 2e-14),
        (lambda X: run_td(CRH(), X), 5e-14),
        (lambda X: run_td(CATD(), X), 3e-13),
        (lambda X: eb_wrap(X, CRH(), HeuristicH()), 3e-12),
    ], ids=["mean", "median", "distance", "crh", "catd", "eb_wrap-crh"])
    def test_permutation_equivariance(self, aggregate, tol):
        # permuting the workers leaves the answers as they are, and
        # permuting the questions permutes them; seeded draws over (n, m)
        # and scales, so no replayed example can make it flaky
        for draw in range(300):
            rng = np.random.default_rng([7, draw])
            n, m = int(rng.integers(2, 13)), int(rng.integers(4, 61))
            scale = 10.0 ** rng.uniform(-2, 4)
            X = scale * (rng.normal(size=(n, m)) * rng.uniform(0.3, 3.0, size=(n, 1))
                         + rng.normal(2.0, 1.0, size=m))
            workers, questions = rng.permutation(n), rng.permutation(m)
            a = aggregate(validate_matrix(X))
            b = aggregate(validate_matrix(X[workers][:, questions]))
            assert np.linalg.norm(b - a[questions]) <= tol * np.linalg.norm(a), (draw, n, m)

    @pytest.mark.parametrize("c", [2.0, 1e3, 1e6])
    def test_catd_is_unit_free_when_scaled_up(self, c):
        # CATD stops on its normalised weights, so data in larger units give
        # the same answers in those units; the distance floor matters only
        # for c < 1
        gen = AwgGenerator(GaussianGT(2.0, 1.0), GaussianSqSigmas(), n=10, m=50,
                           fresh_gt=True, fresh_sigmas=True)
        Xb = np.concatenate([X for X, _, _ in iter_replicates(gen, 1000, seed=3)])
        base = run_td_batch(CATD(), Xb)
        scaled = run_td_batch(CATD(), c * Xb) / c
        assert np.abs(scaled - base).max() <= 1e-12 * np.abs(base).max()

    # Shifting every answer by c shifts the answers by c.  Rounding X + c
    # costs up to eps*|c|/2 an entry, and an answer is a weighted mean of
    # entries whose weights read the shifted entries' rounding too, so the
    # error scales with eps*|c|, not with the answers: as a norm-relative
    # tolerance, 64*eps*|c| / max|base(X)|.  Over these 1000 draws every base
    # measured at most 9*eps*|c| (CATD, whose 14 reweighting steps carry the
    # rounding along) and the wrap 2.6*eps*|c|.  A Gram expansion of the
    # pairwise distances cancelled in DistanceWeighted: 6e5*eps*|c| at 1e6.
    @pytest.mark.parametrize("aggregate", [
        lambda Xb: run_td_batch(Mean(), Xb),
        lambda Xb: run_td_batch(Median(), Xb),
        lambda Xb: run_td_batch(CRH(), Xb),
        lambda Xb: run_td_batch(CATD(), Xb),
        lambda Xb: run_td_batch(DistanceWeighted(), Xb),
        lambda Xb: run_td_batch(Blue(np.linspace(0.5, 2.0, 10)), Xb),
        lambda Xb: np.array([eb_wrap(validate_matrix(X), CRH(), HeuristicH())
                             for X in Xb[:100]]),
    ], ids=["mean", "median", "crh", "catd", "distance", "blue", "eb_wrap-crh"])
    @pytest.mark.parametrize("c", [-7.0, 1e3, 1e6])
    def test_translation_equivariance(self, aggregate, c):
        gen = AwgGenerator(GaussianGT(2.0, 1.0), GaussianSqSigmas(), n=10, m=50,
                           fresh_gt=True, fresh_sigmas=True)
        Xb = np.concatenate([X for X, _, _ in iter_replicates(gen, 1000, seed=3)])
        base = aggregate(Xb)
        shifted = aggregate(Xb + c) - c
        tol = 64 * np.finfo(float).eps * abs(c) / np.abs(base).max()
        assert np.abs(shifted - base).max() / np.abs(base).max() <= tol

    @pytest.mark.parametrize("alg", [Mean(), CRH(), CATD(), DistanceWeighted()])
    def test_approximate_unbiasedness(self, alg):
        # aggregate of many homogeneous-noise replicates should center on truth
        rng = np.random.default_rng(7)
        mu = np.array([1.0, -2.0, 3.0, 0.5, 4.0, 2.2, -1.1, 0.0])
        Xb = mu + rng.normal(0.0, 1.0, size=(4000, 5, 8))
        est = run_td_batch(alg, Xb).mean(axis=0)
        se = 1.0 / np.sqrt(5 * 4000)
        np.testing.assert_allclose(est, mu, atol=6 * se)
