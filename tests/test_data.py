"""Synthetic generation, dataset files, subsampling, and question partitioning."""

from dataclasses import dataclass

import numpy as np
import pytest

from ebtruth import (
    ConstantGT,
    Dataset,
    DuplicateGroundTruthError,
    EmptyMatrixError,
    ExplicitSigmas,
    GaussianGT,
    GaussianSqSigmas,
    IndexedSigmas,
    InsufficientDataError,
    LengthMismatchError,
    NoGroundTruthError,
    NonFiniteError,
    NonFiniteParameterError,
    NonPositiveVarianceError,
    ParseError,
    RequestTooLargeError,
    SyntheticSpec,
    UnreachableFloorError,
    ValidationError,
    concat_questions,
    dispersion,
    gen_synthetic,
    load_csv,
    partition_questions,
    save_csv,
    stream,
    stream_keys,
    streams,
    subsample,
    subsample_indices,
    validate_matrix,
)
from ebtruth.data import ROLE_GT, ROLE_OBS, ROLE_SIGMA


def _spec(**kw):
    defaults = dict(gt=GaussianGT(2.0, 1.0), worker_sigmas=IndexedSigmas(),
                    n=4, m=20, seed=7)
    defaults.update(kw)
    return SyntheticSpec(**defaults)


class TestGeneration:
    def test_deterministic(self):
        a = gen_synthetic(_spec())
        b = gen_synthetic(_spec())
        np.testing.assert_array_equal(a.matrix.values, b.matrix.values)
        np.testing.assert_array_equal(a.ground_truth, b.ground_truth)

    def test_index_and_seed_vary_data(self):
        a = gen_synthetic(_spec())
        b = gen_synthetic(_spec(), index=1)
        c = gen_synthetic(_spec(seed=8))
        assert not np.array_equal(a.matrix.values, b.matrix.values)
        assert not np.array_equal(a.matrix.values, c.matrix.values)

    def test_moments(self):
        ds = gen_synthetic(_spec(gt=ConstantGT(5.0),
                                 worker_sigmas=ExplicitSigmas([4.0]), n=1, m=200_000))
        vals = ds.matrix.values[0]
        assert vals.mean() == pytest.approx(5.0, abs=0.02)
        assert vals.var() == pytest.approx(4.0, rel=0.02)

    def test_indexed_sigmas_scale_with_worker(self):
        ds = gen_synthetic(_spec(n=3, m=100_000, gt=ConstantGT(0.0)))
        per_worker_var = ds.matrix.values.var(axis=1)
        np.testing.assert_allclose(per_worker_var, [1.0, 4.0, 9.0], rtol=0.05)

    def test_random_sigmas_respect_floor(self):
        ds = gen_synthetic(_spec(worker_sigmas=GaussianSqSigmas(), n=500, m=2))
        sig2 = np.asarray(ds.metadata["worker_variances"])
        assert np.all(sig2 >= 0.05)

    def test_invalid_spec(self):
        with pytest.raises(EmptyMatrixError):
            _spec(n=0)


TRUTH_SPECS = [GaussianGT(mean, variance) for mean in (2.0, -3.7, 0.0)
               for variance in (1.0, 100.0, 0.37, 0.0)] + [ConstantGT(2.0), ConstantGT(-0.0)]


class TestRowBlockDraws:
    """A built-in truth spec's row blocks drawn in turn are its whole draw."""

    @pytest.mark.parametrize("gt", TRUTH_SPECS, ids=repr)
    @pytest.mark.parametrize("rows", [1, 3, 16, 40])
    def test_row_blocks_drawn_in_turn_are_the_whole_draw(self, gt, rows):
        # the contract behind iter_replicates' block truths
        want_rng, got_rng = stream(3, 100, 1), stream(3, 100, 1)
        want = gt.draw((40, 7), want_rng)
        blocks = [gt.draw((min(rows, 40 - lo), 7), got_rng) for lo in range(0, 40, rows)]
        # bytes, so a -0.0 against a 0.0 differs
        assert np.concatenate(blocks).tobytes() == want.tobytes()
        # drawing the blocks leaves the stream where the whole draw left it
        assert got_rng.standard_normal(5).tobytes() == want_rng.standard_normal(5).tobytes()


class TestDataset:
    def test_the_callers_ground_truth_stays_writeable_and_apart(self):
        g = np.array([1.0, 2.0])
        view = g[:]
        ds = Dataset(matrix=validate_matrix(np.ones((3, 2))), ground_truth=g)
        assert g.flags.writeable and not ds.ground_truth.flags.writeable
        view[0] = np.nan
        g[1] = 99.0
        assert np.array_equal(ds.ground_truth, [1.0, 2.0])


class TestFileFormat:
    def test_round_trip_exact(self, tmp_path):
        ds = gen_synthetic(_spec())
        p = tmp_path / "ds.csv"
        save_csv(ds, p)
        back = load_csv(p)
        np.testing.assert_array_equal(back.matrix.values, ds.matrix.values)
        np.testing.assert_array_equal(back.ground_truth, ds.ground_truth)
        assert back.matrix.question_ids == tuple(str(q) for q in ds.matrix.question_ids)

    def test_no_ground_truth_round_trip(self, tmp_path):
        ds = Dataset(matrix=validate_matrix([[1.0, 2.0]]))
        p = tmp_path / "nogt.csv"
        save_csv(ds, p)
        assert load_csv(p).ground_truth is None

    def test_duplicate_ground_truth_rejected(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("worker_id,q_0\nw1,1.0\n__GROUND_TRUTH__,2.0\n__GROUND_TRUTH__,3.0\n")
        with pytest.raises(DuplicateGroundTruthError):
            load_csv(p)

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("worker_id,q_0\nw1,1.0\nw2,oops\n")
        with pytest.raises(ParseError) as exc:
            load_csv(p)
        assert exc.value.line == 3
        p.write_text("id,q_0\nw1,1.0\n")
        with pytest.raises(ParseError) as exc:
            load_csv(p)
        assert exc.value.line == 1

    def test_field_count_mismatch(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("worker_id,q_0,q_1\nw1,1.0\n")
        with pytest.raises(ParseError):
            load_csv(p)


KEY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130]
KEY_ROLES = [0, 1, 2, 3, 100]
# indices from 2**32 on are two spawn-key words, the rest one
KEY_INDICES = [0, 1, 2**32 - 1, 2**32]


class TestBulkStreams:
    @pytest.mark.parametrize("seed", KEY_SEEDS)
    @pytest.mark.parametrize("role", KEY_ROLES)
    def test_keys_equal_seed_sequence(self, seed, role):
        expected = [np.random.SeedSequence(seed, spawn_key=(role, i)).generate_state(2, np.uint64)
                    for i in KEY_INDICES]
        np.testing.assert_array_equal(stream_keys(seed, role, KEY_INDICES), expected)

    @pytest.mark.parametrize("seed", KEY_SEEDS)
    @pytest.mark.parametrize("role", KEY_ROLES)
    def test_draws_equal_stream(self, seed, role):
        for i, rng in zip(KEY_INDICES, streams(seed, role, KEY_INDICES)):
            reference = stream(seed, role, i)
            # a mixed sequence of draws, so a buffered 32-bit half would show
            for draw in (lambda g: g.random(3, dtype=np.float32), lambda g: g.normal(size=5),
                         lambda g: g.permutation(7), lambda g: g.integers(0, 10, size=3)):
                np.testing.assert_array_equal(draw(rng), draw(reference))

    def test_mixed_word_counts_keep_their_order(self):
        indices = [2**32, 5, 0, 2**32 + 7, 1]
        np.testing.assert_array_equal(
            stream_keys(3, 3, indices),
            [np.random.SeedSequence(3, spawn_key=(3, i)).generate_state(2, np.uint64)
             for i in indices])

    def test_negative_seed_is_rejected_like_stream(self):
        with pytest.raises(ValueError):
            stream(-1, 0, 0)
        with pytest.raises(ValueError):
            stream_keys(-1, 0, [0])


@dataclass(frozen=True)
class _NanGT:
    def draw(self, shape, rng):
        return np.full(shape, np.nan)


@dataclass(frozen=True)
class _InfSigmas:
    def draw(self, shape, rng):
        return np.full(shape, np.inf)


GT_SPECS = [ConstantGT(2.0), GaussianGT(2.0, 4.0)]
SIGMA_SPECS = [IndexedSigmas(), GaussianSqSigmas(0.5, 1.0, 0.4), ExplicitSigmas([1.0, 2.0, 3.0])]


def _reference_draw(spec, index):
    # one sample as drawn before the bulk keys: three streams built one by one
    mu = spec.gt.draw((spec.m,), stream(spec.seed, ROLE_GT, index))
    sig2 = spec.worker_sigmas.draw((spec.n,), stream(spec.seed, ROLE_SIGMA, index))
    noise = stream(spec.seed, ROLE_OBS, index).normal(size=(spec.n, spec.m))
    return mu[None, :] + noise * np.sqrt(sig2)[:, None], mu, sig2


class TestSyntheticBatch:
    @pytest.mark.parametrize("gt", GT_SPECS, ids=["constant", "gaussian"])
    @pytest.mark.parametrize("sigmas", SIGMA_SPECS, ids=["indexed", "gaussian-sq", "explicit"])
    def test_equals_stacked_single_draws(self, gt, sigmas):
        spec = _spec(gt=gt, worker_sigmas=sigmas, n=3, m=6)
        X, mu, sig2 = gen_synthetic(spec, index=4, samples=7)
        assert X.shape == (7, 3, 6) and mu.shape == (7, 6) and sig2.shape == (7, 3)
        for i in range(7):
            ds = gen_synthetic(spec, index=4 + i)
            ref_X, ref_mu, ref_sig2 = _reference_draw(spec, 4 + i)
            for values, truth, variances in ((X[i], mu[i], sig2[i]),
                                             (ds.matrix.values, ds.ground_truth,
                                              ds.metadata["worker_variances"])):
                np.testing.assert_array_equal(values, ref_X)
                np.testing.assert_array_equal(truth, ref_mu)
                assert tuple(variances) == tuple(ref_sig2)

    def test_redrawing_spec_redraws_in_the_batch(self):
        sigmas = GaussianSqSigmas(0.5, 1.0, 0.4)
        spec = _spec(worker_sigmas=sigmas, n=40, m=2)
        _, _, sig2 = gen_synthetic(spec, samples=5)
        first = sigmas.draw((40,), stream(spec.seed, 1, 0))
        np.testing.assert_array_equal(sig2[0], first)
        assert np.all(sig2 >= 0.4)
        # the raw Normal draw went below the floor, so the values were redrawn
        assert np.any(stream(spec.seed, 1, 0).normal(0.5, 1.0, size=40) < 0.4)

    @pytest.mark.parametrize("gt, sigmas", [(_NanGT(), IndexedSigmas()),
                                            (ConstantGT(2.0), _InfSigmas())],
                             ids=["truths", "variances"])
    def test_non_finite_draw_raises_on_both_paths(self, gt, sigmas):
        spec = _spec(gt=gt, worker_sigmas=sigmas, n=2, m=3)
        with pytest.raises(NonFiniteError):
            gen_synthetic(spec)
        with pytest.raises(NonFiniteError):
            gen_synthetic(spec, samples=4)


class TestSampleAddresses:
    """A negative sample index, or one past the 2**64 stream indices, raised
    OverflowError and a negative sample count a bare ValueError; a count of 0
    gave gen_synthetic an EmptyMatrixError naming a (0, m) shape and
    subsample_indices empty arrays.  Both are now checked before the batch
    is allocated."""

    CALLS = {
        "gen_synthetic": lambda index, samples: gen_synthetic(
            _spec(n=10, m=50), index=index, samples=samples),
        "subsample_indices": lambda index, samples: subsample_indices(
            60, 500, 10, 50, 5, index=index, samples=samples),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("index, samples, error", [
        (-1, None, ValidationError), (-1, 1000, ValidationError),
        (2**64, None, ValidationError), (2**64 - 999, 1000, ValidationError),
        (0, 0, InsufficientDataError), (3, -1, InsufficientDataError)],
        ids=["negative-index", "negative-index-batch", "index-past-2**64",
             "batch-past-2**64", "no-samples", "negative-samples"])
    def test_a_bad_address_raises_before_allocating(self, name, index, samples, error):
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(error, match=r"not in \[0, 2\*\*64\)|need >= 1 samples"):
                self.CALLS[name](index, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a batch of 1000 samples of 10 x 50 takes 4 MB
        assert peak < 2**16

    def test_the_last_stream_indices_are_addressed(self):
        ri, ci = subsample_indices(6, 30, 4, 10, 5, index=2**64 - 2, samples=2)
        assert (ri[1].tolist(), ci[1].tolist()) == tuple(
            a.tolist() for a in subsample_indices(6, 30, 4, 10, 5, index=2**64 - 1))
        rng = stream(5, 3, 2**64 - 1)
        assert ri[1].tolist() == rng.permutation(6)[:4].tolist()


class TestSpecValidation:
    @pytest.mark.parametrize("make", [
        lambda: GaussianGT(2.0, -1.0),
        lambda: GaussianSqSigmas(1.0, -0.5, 0.05),
        lambda: GaussianSqSigmas(1.0, 0.5, 0.0),
        lambda: GaussianSqSigmas(1.0, 0.5, -0.1),
    ], ids=["gaussian-variance", "gaussian-sq-variance", "zero-floor", "negative-floor"])
    def test_negative_variances_are_rejected(self, make):
        with pytest.raises(NonPositiveVarianceError):
            make()

    @pytest.mark.parametrize("make", [
        lambda: ConstantGT(np.inf),
        lambda: ConstantGT(np.nan),
        lambda: GaussianGT(np.nan, 1.0),
        lambda: GaussianGT(2.0, np.inf),
        lambda: GaussianGT(2.0, np.nan),
        lambda: GaussianSqSigmas(1.0, np.inf, 0.05),
        lambda: GaussianSqSigmas(np.nan, 0.5, 0.05),
    ])
    def test_non_finite_parameters_are_rejected(self, make):
        with pytest.raises(NonFiniteParameterError) as exc:
            make()
        assert isinstance(exc.value, ValidationError)

    def test_zero_variance_truth_is_allowed(self):
        ds = gen_synthetic(_spec(gt=GaussianGT(3.0, 0.0)))
        assert np.all(ds.ground_truth == 3.0)


class TestSubsample:
    def test_deterministic_and_without_replacement(self):
        ds = gen_synthetic(_spec(n=6, m=30))
        a = subsample(ds, 4, 10, seed=5)
        b = subsample(ds, 4, 10, seed=5)
        np.testing.assert_array_equal(a.matrix.values, b.matrix.values)
        assert len(set(a.matrix.worker_ids)) == 4
        assert len(set(a.matrix.question_ids)) == 10

    def test_alignment_with_ground_truth(self):
        ds = gen_synthetic(_spec(n=6, m=30))
        sub = subsample(ds, 3, 8, seed=2)
        full_q = {q: g for q, g in zip(ds.matrix.question_ids, ds.ground_truth)}
        for q, g in zip(sub.matrix.question_ids, sub.ground_truth):
            assert full_q[q] == g

    def test_too_large_request(self):
        ds = gen_synthetic(_spec(n=2, m=5))
        with pytest.raises(RequestTooLargeError):
            subsample(ds, 3, 5, seed=0)

    def test_nonpositive_request(self):
        ds = gen_synthetic(_spec(n=2, m=5))
        for n, m in ((-1, 5), (2, -3), (0, 5), (2, 0)):
            with pytest.raises(EmptyMatrixError):
                subsample(ds, n, m, seed=0)

    def test_equals_the_index_gather(self):
        ds = gen_synthetic(_spec(n=6, m=30))
        for i in range(5):
            sub = subsample(ds, 4, 10, seed=5, index=i)
            ri, ci = subsample_indices(6, 30, 4, 10, 5, i)
            np.testing.assert_array_equal(sub.matrix.values,
                                          ds.matrix.values[ri[:, None], ci[None, :]])
            np.testing.assert_array_equal(sub.ground_truth, ds.ground_truth[ci])
            assert sub.matrix.worker_ids == tuple(ds.matrix.worker_ids[r] for r in ri)
            assert sub.matrix.question_ids == tuple(ds.matrix.question_ids[c] for c in ci)

    def test_batch_equals_single_indices(self):
        ri, ci = subsample_indices(6, 30, 4, 10, 5, index=3, samples=6)
        assert ri.shape == (6, 4) and ci.shape == (6, 10)
        for i in range(6):
            r1, c1 = subsample_indices(6, 30, 4, 10, 5, 3 + i)
            np.testing.assert_array_equal(ri[i], r1)
            np.testing.assert_array_equal(ci[i], c1)
            rng = stream(5, 3, 3 + i)
            np.testing.assert_array_equal(r1, rng.permutation(6)[:4])
            np.testing.assert_array_equal(c1, rng.permutation(30)[:10])


class TestPartition:
    def _bimodal(self):
        a = gen_synthetic(_spec(gt=GaussianGT(0.0, 1.0), n=3, m=40, seed=1))
        b = gen_synthetic(_spec(gt=GaussianGT(100.0, 1.0), n=3, m=40, seed=2))
        return concat_questions(a, b)

    def test_buckets_cover_all_questions(self):
        ds = self._bimodal()
        parts = partition_questions(ds, 2)
        got = sorted(q for p in parts for q in p.matrix.question_ids)
        assert got == sorted(ds.matrix.question_ids)

    def test_buckets_are_sorted_ranges(self):
        ds = self._bimodal()
        lo, hi = partition_questions(ds, 2)
        assert lo.ground_truth.max() < hi.ground_truth.min()

    def test_variance_reduction_recorded(self):
        ds = self._bimodal()
        full_var = dispersion(ds.ground_truth).sample_variance
        for p in partition_questions(ds, 2):
            assert p.metadata["gt_sample_variance"] < full_var / 10

    def test_single_bucket_is_sorted_copy(self):
        ds = self._bimodal()
        (only,) = partition_questions(ds, 1)
        assert only.matrix.n_questions == ds.matrix.n_questions

    def test_requires_truth_or_key(self):
        ds = Dataset(matrix=validate_matrix([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NoGroundTruthError):
            partition_questions(ds, 2)
        parts = partition_questions(ds, 2, sort_by=[5.0, 1.0])
        assert parts[0].metadata["sorted_by"] == "aggregate_fallback"
        assert parts[0].matrix.question_ids == (1,)

    def test_bucket_count_validated(self):
        with pytest.raises(ValidationError):
            partition_questions(self._bimodal(), 0)

    def test_more_buckets_than_questions_names_both_counts(self):
        ds = self._bimodal()
        assert len(partition_questions(ds, 80)) == 80
        with pytest.raises(ValidationError, match="cannot split 80 questions into 81 buckets"):
            partition_questions(ds, 81)

    def test_sort_key_of_the_wrong_length_is_a_length_mismatch(self):
        ds = Dataset(matrix=validate_matrix([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(LengthMismatchError, match="sort_by length 3 != question count 2"):
            partition_questions(ds, 2, sort_by=[5.0, 1.0, 0.0])


def _ones_dataset(workers, questions, truth=None):
    return Dataset(matrix=validate_matrix(np.ones((workers, questions))), ground_truth=truth)


@pytest.mark.parametrize("make", [
    lambda: _ones_dataset(2, 3, truth=[1.0, 2.0]),
    lambda: gen_synthetic(_spec(worker_sigmas=ExplicitSigmas([1.0, 2.0]), n=3)),
    lambda: concat_questions(_ones_dataset(2, 3), _ones_dataset(3, 3)),
], ids=["ground-truth", "explicit-sigmas", "concat-questions"])
def test_length_mismatches_raise_length_mismatch(make):
    with pytest.raises(LengthMismatchError):
        make()


class TestSigmaFloor:
    def test_unreachable_floor_rejected_at_construction(self):
        with pytest.raises(UnreachableFloorError) as exc:
            GaussianSqSigmas(-5.0, 0.01, 0.05)
        assert isinstance(exc.value, ValidationError)

    def test_redraw_rounds_are_capped(self, monkeypatch):
        import ebtruth.data as data
        spec = GaussianSqSigmas(0.0, 1.0, 1.0)  # about 16% of the mass above the floor
        monkeypatch.setattr(data, "MAX_REDRAW_ROUNDS", 2)
        with pytest.raises(UnreachableFloorError):
            spec.draw((1000,), stream(0, 1, 0))

    def test_reachable_floor_redraws_until_done(self):
        sig2 = GaussianSqSigmas(0.0, 1.0, 1.0).draw((20, 50), stream(0, 1, 0))
        assert sig2.shape == (20, 50) and np.all(sig2 >= 1.0)
