"""Synthetic generation, dataset files, subsampling, and question partitioning."""

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
    LengthMismatchError,
    NoGroundTruthError,
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
    subsample,
    subsample_indices,
    validate_matrix,
)


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
        with pytest.raises(ValueError):
            partition_questions(self._bimodal(), 0)


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
