"""Monte Carlo risk machinery, condition checks, and report serialization."""

import csv
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from ebtruth import (
    CATD,
    CRH,
    AwgGenerator,
    Blue,
    DistanceWeighted,
    EmptyMatrixError,
    Median,
    Constant,
    ConstantGT,
    ExplicitSigmas,
    GaussianGT,
    GaussianSqSigmas,
    HeuristicH,
    IndexedSigmas,
    InsufficientDataError,
    InsufficientReplicatesError,
    IterationDivergenceError,
    LengthMismatchError,
    Mean,
    MEAN_SQUARED,
    NonFiniteError,
    NonFiniteParameterError,
    NonPositiveVarianceError,
    RequestTooLargeError,
    ValidationError,
    SampleScaled,
    SUM_SQUARED,
    bayes_risk_gap,
    blue_risks,
    estimate_alpha_star,
    sufficient_conditions,
    gen_synthetic,
    improvement_ratio,
    improvement_ratios,
    loss,
    mc_risk,
    pipeline_base,
    pipeline_blue,
    pipeline_eb_blue,
    pipeline_eb_wrap,
    pipeline_stein_blue,
    run_td_batch,
    sample_aggregate_stream,
    sample_condition_terms,
    stream,
    subsample,
    SyntheticSpec,
    improvement_condition,
    risk_decomposition,
    write_reports_csv,
    write_reports_jsonl,
)
from ebtruth import analysis, baselines
from ebtruth.analysis import ConditionTerms, psi_batch, report_record, shrink_aggregate
from ebtruth.data import ROLE_GT, ROLE_SIGMA


class TestLoss:
    def test_conventions(self):
        assert loss([1.0, 3.0], [0.0, 0.0]) == 10.0
        assert loss([1.0, 3.0], [0.0, 0.0], MEAN_SQUARED) == 5.0

    def test_shape_guard(self):
        with pytest.raises(LengthMismatchError):
            loss([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            loss([1.0], [1.0], "other")


def _gen(**kw):
    defaults = dict(gt=ConstantGT(0.0), worker_sigmas=ExplicitSigmas([1.0]),
                    n=1, m=10, fresh_gt=False)
    defaults.update(kw)
    return AwgGenerator(**defaults)


class TestMcRisk:
    def test_chi_squared_mean(self):
        # single unit-variance worker, identity pipeline: loss is chi^2(m)
        res = mc_risk(_gen(), [pipeline_blue()], 40_000, seed=0)
        assert res.risk("blue") == pytest.approx(10.0, rel=0.02)
        res_mean = mc_risk(_gen(), [pipeline_blue()], 40_000, seed=0,
                           convention=MEAN_SQUARED)
        assert res_mean.risk("blue") == pytest.approx(1.0, rel=0.02)

    def test_pairing_is_exact(self):
        res = mc_risk(_gen(), [pipeline_blue(), pipeline_eb_blue(alpha=0.0)],
                      5000, seed=1)
        d, se = res.diff("blue", "eb_blue_alpha0")
        # zero multiplier reproduces the aggregate up to mean-and-add rounding
        assert abs(d) < 1e-14 and se < 1e-14

    def test_deterministic_across_runs(self):
        a = mc_risk(_gen(), [pipeline_eb_blue()], 30_000, seed=3)
        b = mc_risk(_gen(), [pipeline_eb_blue()], 30_000, seed=3)
        assert a.risk("eb_blue") == b.risk("eb_blue")

    def test_replicate_guard(self):
        with pytest.raises(InsufficientReplicatesError):
            mc_risk(_gen(), [pipeline_blue()], 1, seed=0)

    def test_a_pipeline_name_given_twice_is_rejected_before_drawing(self, monkeypatch):
        # the losses are keyed by name, so the later pipeline's would
        # silently replace the earlier one's
        blocks = _count_blocks(monkeypatch)
        with pytest.raises(ValidationError, match="'x'"):
            mc_risk(_gen(), [pipeline_base(Mean(), name="x"), pipeline_base(Median(), name="x")],
                    100, seed=0)
        assert blocks == []

    def test_eb_blue_rejects_a_negative_or_nan_alpha(self):
        for alpha in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="alpha must be >= 0"):
                pipeline_eb_blue(alpha=alpha)

    @pytest.mark.parametrize("alpha", [-1.0, float("nan")], ids=["negative", "nan"])
    def test_eb_wrap_rejects_a_bad_alpha_before_drawing(self, monkeypatch, alpha):
        blocks = _count_blocks(monkeypatch)
        with pytest.raises(ValueError, match="alpha must be >= 0"):
            mc_risk(_gen(), [pipeline_eb_wrap(Mean(), HeuristicH(), alpha=alpha)], 100, seed=0)
        assert blocks == []

    def test_unknown_convention_is_rejected_before_drawing(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew replicates for an unknown convention")

        monkeypatch.setattr(analysis, "iter_replicates", no_draw)
        with pytest.raises(ValueError, match="unknown loss convention 'bogus'"):
            mc_risk(_gen(), [pipeline_blue()], 100, seed=0, convention="bogus")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("psi", [HeuristicH(), SampleScaled(1.0)], ids=["h", "s"])
    def test_wrap_on_one_question_is_rejected_like_eb_wrap(self, psi):
        with pytest.raises(LengthMismatchError):
            mc_risk(_gen(m=1), [pipeline_eb_wrap(Mean(), psi)], 100, seed=0)


def _block_bytes(n, m, rows):
    """The ``BLOCK_BYTES`` that makes blocks of ``rows`` replicates of n x m:
    a replicate counts as at least ``BLOCK_MIN_WORKERS`` workers."""
    return 8 * max(n, analysis.BLOCK_MIN_WORKERS) * m * rows


def _count_blocks(monkeypatch):
    """A list that records the replicates of each block ``analysis.iter_replicates``
    yields from now on."""
    sizes = []
    draw = analysis.iter_replicates

    def counting(*args, **kwargs):
        for block in draw(*args, **kwargs):
            sizes.append(block[0].shape[0])
            yield block

    monkeypatch.setattr(analysis, "iter_replicates", counting)
    return sizes


BLUE_PIPELINES = (pipeline_blue, pipeline_eb_blue, pipeline_stein_blue)


class TestSharedFirstStage:
    """``mc_risk`` runs a first stage that pipelines share once per block."""

    @pytest.fixture
    def blue_calls(self, monkeypatch):
        calls = []
        kernel = analysis.blue

        def counting(Xb, sig2b):
            calls.append(Xb.shape[0])
            return kernel(Xb, sig2b)

        monkeypatch.setattr(analysis, "blue", counting)
        return calls

    @pytest.fixture
    def gen(self, monkeypatch):
        monkeypatch.setattr(analysis, "CHUNK", 120)
        monkeypatch.setattr(analysis, "BLOCK_BYTES", _block_bytes(3, 7, 50))
        return AwgGenerator(GaussianGT(2.0, 1.0), REDRAWN, n=3, m=7, fresh_sigmas=True)

    def test_blue_runs_once_per_block_and_each_loss_is_its_own(self, monkeypatch, gen,
                                                              blue_calls):
        blocks = _count_blocks(monkeypatch)
        pipelines = [factory() for factory in BLUE_PIPELINES]
        together = mc_risk(gen, pipelines, 300, seed=5)
        assert blocks == [50, 50, 20] * 2 + [50, 10]
        assert blue_calls == blocks
        for p in pipelines:
            alone = mc_risk(gen, [p], 300, seed=5)
            assert np.array_equal(together.losses[p.name], alone.losses[p.name]), p.name
            assert together.reports[p.name] == alone.reports[p.name]

    def test_copies_from_fn_share_nothing_and_give_the_same_losses(self, monkeypatch, gen,
                                                                    blue_calls):
        pipelines = [factory() for factory in BLUE_PIPELINES]
        shared = mc_risk(gen, pipelines, 300, seed=5)
        blue_calls.clear()
        blocks = _count_blocks(monkeypatch)
        copies = mc_risk(gen, [analysis.Pipeline(p.name, p.fn) for p in pipelines], 300, seed=5)
        assert len(blue_calls) == 3 * len(blocks)
        for p in pipelines:
            assert np.array_equal(copies.losses[p.name], shared.losses[p.name]), p.name

    def test_a_pipeline_of_one_callable_is_its_own_first_stage(self, gen):
        def fn(Xb, sig2b):
            return Xb.mean(axis=1)

        p = analysis.Pipeline("mean", fn)
        assert p.first is fn and p.second is None
        X, mu, sig2 = next(analysis.iter_replicates(gen, 10, seed=2))
        assert np.array_equal(p(X, sig2), fn(X, sig2))
        assert np.array_equal(mc_risk(gen, [p], 300, seed=5).losses["mean"],
                              mc_risk(gen, [pipeline_base(Mean(), "mean")], 300,
                                      seed=5).losses["mean"])


def _reference_chunks(gen, replicates, seed, rows=None):
    """The single-chunk formula: each chunk's tensor built in one expression.
    Fresh truths come from the chunk's truth stream, drawn in row blocks of
    ``rows`` taken in turn (one block by default, which is a built-in spec's
    whole draw for any ``rows``)."""
    fixed_mu = None if gen.fresh_gt else gen.gt.draw((gen.m,), stream(seed, ROLE_GT, 0))
    fixed_sig2 = (None if gen.fresh_sigmas
                  else gen.worker_sigmas.draw((gen.n,), stream(seed, ROLE_SIGMA, 0)))
    for index, start in enumerate(range(0, replicates, analysis.CHUNK)):
        r = min(analysis.CHUNK, replicates - start)
        rng = stream(seed, analysis.REPLICATE_ROLE, index)
        if gen.fresh_gt:
            truth_rng, k = stream(seed, analysis.TRUTH_ROLE, index), rows or r
            mu = np.concatenate([gen.gt.draw((min(k, r - lo), gen.m), truth_rng)
                                 for lo in range(0, r, k)])
        else:
            mu = np.broadcast_to(fixed_mu, (r, gen.m))
        sig2 = (gen.worker_sigmas.draw((r, gen.n), rng) if gen.fresh_sigmas
                else np.broadcast_to(fixed_sig2, (r, gen.n)))
        noise = rng.normal(size=(r, gen.n, gen.m))
        yield mu[:, None, :] + noise * np.sqrt(sig2)[:, :, None], mu, sig2


# mean 0.5 and floor 0.4 send about 46 % of the worker variances to a redraw
REDRAWN = GaussianSqSigmas(0.5, 1.0, 0.4)
ALL_BASES = [Mean(), Median(), CRH(), CATD(), DistanceWeighted()]
BASE_IDS = ["mean", "median", "crh", "catd", "distance"]


class ShiftedGT:
    """A truth spec outside ``GtSpec``, of its ``draw(shape, rng)`` protocol,
    whose row blocks drawn in turn are not its whole draw: each call draws
    one shift, then the truths.  Its truths are the row blocks that
    ``iter_replicates`` draws in turn, so they depend on the block row
    count."""

    def draw(self, shape, rng):
        shift = rng.standard_normal()
        return rng.standard_normal(size=shape) + shift


class TestReplicateBlocks:
    """Blocks split each chunk's draws without changing a value."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(analysis, "CHUNK", 50)

    @pytest.mark.parametrize("fresh_gt", [False, True])
    @pytest.mark.parametrize("fresh_sigmas", [False, True])
    def test_blocks_concatenate_to_the_single_chunk_formula(self, monkeypatch, fresh_gt,
                                                            fresh_sigmas):
        gen = AwgGenerator(GaussianGT(2.0, 1.0), REDRAWN, n=3, m=7,
                           fresh_gt=fresh_gt, fresh_sigmas=fresh_sigmas)
        monkeypatch.setattr(analysis, "BLOCK_BYTES", _block_bytes(3, 7, 16))
        blocks = list(analysis.iter_replicates(gen, 130, seed=4))
        assert [b[0].shape[0] for b in blocks] == [16, 16, 16, 2] * 2 + [16, 14]
        want = list(_reference_chunks(gen, 130, seed=4))
        for got, ref in zip(zip(*blocks), zip(*want)):
            assert np.array_equal(np.concatenate(got), np.concatenate(ref))

    @pytest.mark.parametrize("gt", [GaussianGT(2.0, 1.0), ConstantGT(2.0), ShiftedGT()],
                             ids=["gaussian", "constant", "custom"])
    @pytest.mark.parametrize("fresh_gt", [True, False])
    @pytest.mark.parametrize("fresh_sigmas", [False, True])
    @pytest.mark.parametrize("block_rows", [16, 1])
    def test_block_truths_are_the_chunks_bits(self, monkeypatch, gt, fresh_gt, fresh_sigmas,
                                              block_rows):
        gen = AwgGenerator(gt, REDRAWN, n=3, m=7, fresh_gt=fresh_gt, fresh_sigmas=fresh_sigmas)
        monkeypatch.setattr(analysis, "BLOCK_BYTES", _block_bytes(3, 7, block_rows))
        chunks = [2, 0, 1]  # 130 replicates: 50 + 50 + a short 30, out of order
        got = list(analysis.iter_replicates(gen, 130, seed=4, chunks=chunks))
        assert len(got) == (10 if block_rows == 16 else 130)
        # a built-in spec's truths are its whole draw at any block row count
        rows = block_rows if isinstance(gt, ShiftedGT) else None
        want = list(_reference_chunks(gen, 130, seed=4, rows=rows))
        for parts, ref in zip(zip(*got), zip(*[want[c] for c in chunks])):
            assert np.concatenate(parts).tobytes() == np.concatenate(ref).tobytes()

    @pytest.mark.parametrize("gt", [GaussianGT(2.0, 1.0), ConstantGT(2.0), ShiftedGT()],
                             ids=["gaussian", "constant", "custom"])
    @pytest.mark.parametrize("n", [1, 10])
    def test_each_truth_is_drawn_once_a_block_at_a_time(self, monkeypatch, gt, n):
        # the spec's draws for a chunk are its blocks' rows, in order, each
        # from that chunk's truth stream, whatever n is
        monkeypatch.setattr(analysis, "BLOCK_BYTES", _block_bytes(n, 7, 16))
        draws = []

        class Recording:
            def draw(self, shape, rng):
                draws.append((shape, rng.bit_generator.state["state"]["key"].tolist()))
                return gt.draw(shape, rng)

        gen = AwgGenerator(Recording(), REDRAWN, n=n, m=7, fresh_sigmas=True)
        blocks = list(analysis.iter_replicates(gen, 130, seed=4))
        keys = [stream(4, analysis.TRUTH_ROLE, c).bit_generator.state["state"]["key"].tolist()
                for c in range(3)]
        assert draws == [((k, 7), keys[c]) for c, r in enumerate((50, 50, 30))
                         for k in [16] * (r // 16) + [r % 16]]
        assert [mu.shape for _, mu, _ in blocks] == [shape for shape, _ in draws]

    @pytest.mark.parametrize("fresh_sigmas", [True, False])
    def test_the_truth_stream_leaves_the_replicate_stream_alone(self, fresh_sigmas):
        # fresh truths draw from their own stream, so the worker variances,
        # and the noise that zero truths leave bare, are the bits they are
        # under truths that draw nothing
        def blocks(gt):
            gen = AwgGenerator(gt, REDRAWN, n=3, m=7, fresh_sigmas=fresh_sigmas)
            return list(analysis.iter_replicates(gen, 130, seed=4))

        for drawn, constant in [(GaussianGT(2.0, 1.0), ConstantGT(2.0)),
                                (GaussianGT(0.0, 0.0), ConstantGT(0.0))]:
            for (X, mu, sig2), (Xc, _, sig2c) in zip(blocks(drawn), blocks(constant)):
                assert sig2.tobytes() == sig2c.tobytes()
                if drawn.mean == 0.0:
                    assert X.tobytes() == Xc.tobytes()

    @pytest.mark.parametrize("block_rows", [16, 50])
    def test_a_spec_of_the_draw_protocol_runs_through_every_pass(self, monkeypatch, block_rows):
        # a spec whose draw takes (shape, rng) only, with fresh truths, drawn
        # in blocks of 16 rows or one block a chunk; 130 replicates: 50 + 50
        # + a short 30
        gen = AwgGenerator(ShiftedGT(), REDRAWN, n=3, m=7, fresh_sigmas=True)
        monkeypatch.setattr(analysis, "BLOCK_BYTES", _block_bytes(3, 7, block_rows))
        chunks = list(_reference_chunks(gen, 130, seed=4, rows=block_rows))
        X, mu, _ = (np.concatenate(a) for a in zip(*chunks))
        xa = run_td_batch(Mean(), X)
        res = mc_risk(gen, [pipeline_base(Mean(), "mean")], 130, seed=4)
        assert res.losses["mean"].tobytes() == loss(xa, mu).tobytes()
        s = sample_aggregate_stream(gen, Mean(), HeuristicH(), 130, seed=4)
        assert s.mu.tobytes() == mu.tobytes()
        assert s.aggregates.tobytes() == xa.tobytes()
        t = sample_condition_terms(gen, Mean(), HeuristicH(), 130, seed=4)
        psis = psi_batch(HeuristicH(), X, xa)
        for got, want in zip(t.terms, analysis.stein_gap_terms(xa, psis, mu)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("budget", [1000, 10])
    def test_no_block_exceeds_the_budget(self, monkeypatch, budget, n):
        gen = AwgGenerator(GaussianGT(2.0, 1.0), REDRAWN, n=n, m=7, fresh_sigmas=True)
        monkeypatch.setattr(analysis, "BLOCK_BYTES", budget)
        one_replicate = 8 * n * 7
        blocks = list(analysis.iter_replicates(gen, 120, seed=1))
        assert sum(X.nbytes for X, _, _ in blocks) == 120 * one_replicate
        assert max(X.nbytes for X, _, _ in blocks) <= max(budget, one_replicate)
        # the truths, like each (r, m) array made from a block, take at most
        # a quarter of the budget, however few workers there are
        truths = max(mu.nbytes for _, mu, _ in blocks)
        assert truths <= max(budget // analysis.BLOCK_MIN_WORKERS, 8 * 7)

    @pytest.mark.parametrize("base", ALL_BASES, ids=BASE_IDS)
    def test_blocks_equal_whole_chunks_for_every_base(self, monkeypatch, base):
        # one-replicate blocks: at n=10, m=50, CRH with a batch-wide stopping
        # test gave other answers here than on the whole chunk
        gen = AwgGenerator(GaussianGT(2.0, 1.0), REDRAWN, n=10, m=50,
                           fresh_gt=True, fresh_sigmas=True)
        monkeypatch.setattr(analysis, "CHUNK", 100)
        monkeypatch.setattr(analysis, "BLOCK_BYTES", 1)
        pipelines = [pipeline_base(base), pipeline_eb_wrap(base, HeuristicH())]
        chunks = list(_reference_chunks(gen, 200, seed=11))
        res = mc_risk(gen, pipelines, 200, seed=11)
        for p in pipelines:
            want = np.concatenate([loss(p(X, sig2), mu) for X, mu, sig2 in chunks])
            assert np.array_equal(res.losses[p.name], want)
        s = sample_aggregate_stream(gen, base, HeuristicH(), 200, seed=11)
        xas = [run_td_batch(base, X) for X, _, _ in chunks]
        assert np.array_equal(s.aggregates, np.concatenate(xas))
        assert np.array_equal(s.psis, np.concatenate(
            [psi_batch(HeuristicH(), X, xa) for (X, _, _), xa in zip(chunks, xas)]))


TRUTH_SPECS = [GaussianGT(mean, variance) for mean in (2.0, -3.7, 0.0)
               for variance in (1.0, 100.0, 0.37, 0.0)] + [ConstantGT(2.0), ConstantGT(-0.0)]


class TestStores:
    """``sample_aggregate_stream`` copies each block's answers and truths into
    its stores: every row holds the bits of the single-chunk formula."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(analysis, "CHUNK", 50)

    @pytest.mark.parametrize("fresh_gt", [True, False])
    @pytest.mark.parametrize("gt", TRUTH_SPECS, ids=repr)
    def test_the_truth_store_holds_every_specs_bits(self, monkeypatch, gt, fresh_gt):
        gen = AwgGenerator(gt, REDRAWN, n=3, m=7, fresh_gt=fresh_gt, fresh_sigmas=True)
        monkeypatch.setattr(analysis, "BLOCK_BYTES", _block_bytes(3, 7, 16))
        # 130 replicates: 50 + 50 + a short 30, on two threads
        s = sample_aggregate_stream(gen, Mean(), HeuristicH(), 130, seed=4, threads=2)
        want = np.concatenate([mu for _, mu, _ in _reference_chunks(gen, 130, seed=4)])
        # bytes, so a -0.0 against a 0.0 differs
        assert s.mu.tobytes() == want.tobytes()

    @pytest.mark.parametrize("alg", ALL_BASES + [Blue([1.0])], ids=BASE_IDS + ["blue"])
    @pytest.mark.parametrize("replicates,n", [(2, 3), (11, 1), (11, 2), (11, 5), (130, 3)])
    def test_the_aggregate_store_holds_the_whole_batchs_answers(self, monkeypatch, alg,
                                                                replicates, n):
        if isinstance(alg, Blue):
            alg = Blue(np.arange(1.0, n + 1))
        gen = AwgGenerator(GaussianGT(2.0, 1.0), REDRAWN, n=n, m=6,
                           fresh_gt=True, fresh_sigmas=True)
        X = np.concatenate([X for X, _, _ in _reference_chunks(gen, replicates, seed=9)])
        want = run_td_batch(alg, X)
        # 4-replicate blocks, each run in 3-replicate iteration blocks
        monkeypatch.setattr(analysis, "BLOCK_BYTES", _block_bytes(n, 6, 4))
        monkeypatch.setattr(baselines, "ITERATION_BLOCK_BYTES", 8 * n * 6 * 3)
        s = sample_aggregate_stream(gen, alg, HeuristicH(), replicates, seed=9)
        assert s.aggregates.tobytes() == want.tobytes()


class TestThreadedStream:
    """``sample_aggregate_stream`` runs its chunks on a thread pool; the
    stores must not notice how many threads there are."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(analysis, "CHUNK", 70)  # 200 replicates: 70 + 70 + 60

    @pytest.mark.parametrize("base", [CRH(), CATD(), Mean()], ids=["crh", "catd", "mean"])
    def test_identical_at_any_thread_count(self, monkeypatch, base):
        gen = AwgGenerator(GaussianGT(2.0, 1.0), REDRAWN, n=4, m=10,
                           fresh_gt=True, fresh_sigmas=True)
        # the mean base takes 16-replicate blocks, so a chunk has several
        monkeypatch.setattr(analysis, "BLOCK_BYTES", _block_bytes(4, 10, 16))
        runs = [sample_aggregate_stream(gen, base, HeuristicH(), 200, seed=3, threads=t)
                for t in (1, 2, 3)]
        chunks = list(_reference_chunks(gen, 200, seed=3))
        assert len(chunks) == 3
        xa = np.concatenate([run_td_batch(base, X) for X, _, _ in chunks])
        for s in runs:
            assert np.array_equal(s.aggregates, xa)
            for field in ("aggregates", "psis", "derivative_dots", "mu"):
                assert np.array_equal(getattr(s, field), getattr(runs[0], field)), field

    def test_many_chunks_on_more_threads_than_cpus(self, monkeypatch):
        # 29 chunks on 6 threads that switch every microsecond: a row written
        # by the wrong worker, or not at all, changes the stores
        monkeypatch.setattr(analysis, "CHUNK", 7)
        gen = AwgGenerator(GaussianGT(2.0, 1.0), REDRAWN, n=4, m=10, fresh_gt=True)
        serial = sample_aggregate_stream(gen, CRH(), HeuristicH(), 200, seed=8, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                s = sample_aggregate_stream(gen, CRH(), HeuristicH(), 200, seed=8, threads=6)
                for field in ("aggregates", "psis", "derivative_dots", "mu"):
                    assert np.array_equal(getattr(s, field), getattr(serial, field)), field
        finally:
            sys.setswitchinterval(interval)

    def test_chunk_selector_yields_those_chunks_in_any_order(self, monkeypatch):
        gen = AwgGenerator(GaussianGT(2.0, 1.0), REDRAWN, n=3, m=7, fresh_sigmas=True)
        monkeypatch.setattr(analysis, "BLOCK_BYTES", _block_bytes(3, 7, 16))
        every = list(analysis.iter_replicates(gen, 200, seed=4))
        picked = list(analysis.iter_replicates(gen, 200, seed=4, chunks=[2, 0]))
        # 70-replicate chunks in 16-replicate blocks: 5 blocks each, 4 in the last
        assert [b[0].shape[0] for b in picked] == [16, 16, 16, 12] + [16, 16, 16, 16, 6]
        for got, want in zip(picked, every[10:] + every[:5]):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("fresh_gt", [False, True])
    def test_a_truth_store_gets_every_chunks_rows_in_any_order(self, monkeypatch, fresh_gt):
        gen = AwgGenerator(GaussianGT(2.0, 1.0), REDRAWN, n=3, m=7,
                           fresh_gt=fresh_gt, fresh_sigmas=True)
        monkeypatch.setattr(analysis, "BLOCK_BYTES", _block_bytes(3, 7, 16))
        every = list(analysis.iter_replicates(gen, 200, seed=4))
        picked = list(analysis.iter_replicates(gen, 200, seed=4, chunks=[2, 0, 1]))
        # 70-replicate chunks in 16-replicate blocks: 5 blocks each, 4 in the last
        assert len(picked) == len(every) == 14
        for got, want in zip(picked, every[10:] + every[:10]):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
        # chunks that finish in any order fill sample_aggregate_stream's store
        s = sample_aggregate_stream(gen, Mean(), HeuristicH(), 200, seed=4, threads=3)
        assert np.array_equal(s.mu, np.concatenate([mu for _, mu, _ in every]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the 1e200 row overflows
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_a_failing_chunk_raises_its_typed_error(self, monkeypatch, threads):
        _poison_chunk(monkeypatch, 1)
        gen = AwgGenerator(GaussianGT(2.0, 1.0), REDRAWN, n=4, m=10, fresh_gt=True)
        with pytest.raises(IterationDivergenceError):
            sample_aggregate_stream(gen, CRH(), HeuristicH(), 200, seed=3, threads=threads)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_chunks_run_under_the_callers_errstate(self, monkeypatch, threads):
        _poison_chunk(monkeypatch, 1)
        gen = AwgGenerator(GaussianGT(2.0, 1.0), REDRAWN, n=4, m=10, fresh_gt=True)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            sample_aggregate_stream(gen, CRH(), HeuristicH(), 200, seed=3, threads=threads)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("base", ALL_BASES, ids=BASE_IDS)
    def test_memory_is_the_stores_and_one_block_per_thread(self, monkeypatch, base, threads):
        import tracemalloc

        n, m, replicates = 10, 50, 6000
        monkeypatch.setattr(analysis, "CHUNK", 2000)  # three chunks
        monkeypatch.setattr(analysis, "BLOCK_BYTES", 2**16)
        gen = AwgGenerator(GaussianGT(2.0, 1.0), GaussianSqSigmas(), n=n, m=m, fresh_gt=True)
        sample_aggregate_stream(gen, base, HeuristicH(), 100, seed=5, threads=threads)
        tracemalloc.start()
        try:
            sample_aggregate_stream(gen, base, HeuristicH(), replicates, seed=5, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (R, m) stores, and ψ, ∂ψ, ss, the covariance and quadratic
        # terms and the mask
        stores = replicates * (8 * 2 * m + 5 * 8 + 1)
        # the truths and aggregates go straight into the stores, so a thread
        # holds one block of noise and a few block-sized temporaries (at most
        # 3.9 blocks, whatever the base).  A chunk's own (CHUNK, m) truths or
        # answers would add 0.8 MB, 12 blocks, each, and a whole chunk of
        # noise 8 MB
        assert peak - stores <= threads * 5 * analysis.BLOCK_BYTES

    def test_memory_of_the_condition_checks_is_the_stores_and_one_block(self, monkeypatch):
        import tracemalloc

        n, m, replicates = 10, 50, 15_000
        monkeypatch.setattr(analysis, "CHUNK", 5000)
        monkeypatch.setattr(analysis, "BLOCK_BYTES", 2**16)
        gen = AwgGenerator(GaussianGT(2.0, 1.0), GaussianSqSigmas(), n=n, m=m, fresh_gt=True)
        tracemalloc.start()
        try:
            s = sample_aggregate_stream(gen, CRH(), HeuristicH(), replicates, seed=5)
            improvement_condition(s)
            sufficient_conditions(s, sigma2=0.1, psi=HeuristicH())
            risk_decomposition(s, sigma2=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stores = 8 * replicates * (2 * m + 2)
        # the Stein-gap terms and the checks' plug-ins are (R,) arrays, about
        # 22 of them at peak; one (R, m) temporary would add 6 MB
        per_replicate = 8 * replicates * 32
        assert peak - stores <= (analysis.BLOCK_BYTES + 2 * baselines.ITERATION_BLOCK_BYTES
                                 + per_replicate)

    @pytest.mark.parametrize("call, per_replicate", [
        (lambda r: sample_aggregate_stream(_gen(), Mean(), Constant(1.0), r, seed=0),
         8 * 5 + 1 + 8 * 2 * 10),
        (lambda r: sample_aggregate_stream(_gen(gt=GaussianGT(2.0, 1.0), fresh_gt=True), Mean(),
                                           Constant(1.0), r, seed=0), 8 * 5 + 1 + 8 * 2 * 10),
        (lambda r: sample_condition_terms(_gen(), Mean(), Constant(1.0), r, seed=0), 8 * 5 + 1),
        (lambda r: mc_risk(_gen(), [pipeline_blue(), pipeline_eb_blue()], r, seed=0), 8 * 2),
    ], ids=["sample_aggregate_stream", "fresh_truths", "sample_condition_terms", "mc_risk"])
    def test_replicate_bound_is_checked_before_drawing(self, monkeypatch, call, per_replicate):
        # the per-replicate arrays and one 1x10 replicate block with its
        # truths, 1x10: no thread holds a chunk's truths, fresh or fixed
        need = 150 * per_replicate + 8 * 10 * (1 + 1)
        monkeypatch.setattr(analysis, "MAX_BATCH_BYTES", need)
        call(150)

        def no_draw(*args, **kwargs):
            raise AssertionError("drew replicates over the limit")

        monkeypatch.setattr(analysis, "iter_replicates", no_draw)
        monkeypatch.setattr(analysis, "MAX_BATCH_BYTES", need - 1)
        with pytest.raises(RequestTooLargeError):
            call(150)


def _poison_chunk(monkeypatch, chunk_index):
    """Make the first replicate of chunk ``chunk_index`` 1e200 times larger,
    which sends CRH's weights to NaN."""
    draw = analysis.iter_replicates

    def poisoned(*args, chunks=None, **kwargs):
        for X, mu, sig2 in draw(*args, chunks=chunks, **kwargs):
            if chunks == [chunk_index]:
                X[0] *= 1e200
            yield X, mu, sig2

    monkeypatch.setattr(analysis, "iter_replicates", poisoned)


class TestChunkEngine:
    """``mc_risk`` and ``sample_aggregate_stream`` share one chunk engine: one
    chunk per task, its rows of preallocated outputs, one chunk per thread."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(analysis, "CHUNK", 70)  # 200 replicates: 70 + 70 + 60

    def test_losses_identical_at_any_thread_count(self, monkeypatch):
        gen = AwgGenerator(GaussianGT(2.0, 1.0), REDRAWN, n=4, m=10,
                           fresh_gt=True, fresh_sigmas=True)
        # the BLUE pipelines take 16-replicate blocks, so a chunk has several
        monkeypatch.setattr(analysis, "BLOCK_BYTES", _block_bytes(4, 10, 16))
        coupled = pipeline_eb_wrap(CRH(), HeuristicH())
        pipelines = [factory() for factory in BLUE_PIPELINES] + [coupled]
        runs = [mc_risk(gen, pipelines, 200, seed=3, threads=t) for t in (1, 2, 3)]
        chunks = list(_reference_chunks(gen, 200, seed=3))
        assert len(chunks) == 3
        assert np.array_equal(runs[0].losses[coupled.name], np.concatenate(
            [loss(coupled(X, sig2), mu) for X, mu, sig2 in chunks]))
        for res in runs[1:]:
            for p in pipelines:
                assert np.array_equal(res.losses[p.name], runs[0].losses[p.name]), p.name
                assert res.reports[p.name] == runs[0].reports[p.name]

    def test_one_thread_runs_the_chunks_in_order_in_the_callers_thread(self, monkeypatch):
        seen = []
        draw = analysis.iter_replicates

        def recording(*args, chunks=None, **kwargs):
            seen.append((threading.get_ident(), chunks))
            return draw(*args, chunks=chunks, **kwargs)

        monkeypatch.setattr(analysis, "iter_replicates", recording)
        mc_risk(_gen(), [pipeline_blue()], 200, seed=0, threads=1)
        assert seen == [(threading.get_ident(), [i]) for i in range(3)]
        seen.clear()
        mc_risk(_gen(), [pipeline_blue()], 200, seed=0, threads=3)
        assert sorted(chunks for _, chunks in seen) == [[0], [1], [2]]

    @pytest.mark.parametrize("call", [
        lambda t: mc_risk(_gen(), [pipeline_blue()], 200, seed=0, threads=t),
        lambda t: sample_aggregate_stream(_gen(), Mean(), Constant(1.0), 200, seed=0, threads=t),
    ], ids=["mc_risk", "sample_aggregate_stream"])
    def test_fewer_than_one_thread_is_rejected_before_drawing(self, monkeypatch, call):
        blocks = _count_blocks(monkeypatch)
        for threads in (0, -1):
            with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
                call(threads)
        assert blocks == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the 1e200 row overflows
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_a_failing_chunk_raises_its_typed_error(self, monkeypatch, threads):
        _poison_chunk(monkeypatch, 1)
        gen = AwgGenerator(GaussianGT(2.0, 1.0), REDRAWN, n=4, m=10, fresh_gt=True)
        with pytest.raises(IterationDivergenceError):
            mc_risk(gen, [pipeline_blue(), pipeline_base(CRH())], 200, seed=3, threads=threads)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_chunks_run_under_the_callers_errstate(self, monkeypatch, threads):
        _poison_chunk(monkeypatch, 1)
        gen = AwgGenerator(GaussianGT(2.0, 1.0), REDRAWN, n=4, m=10, fresh_gt=True)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            mc_risk(gen, [pipeline_blue(), pipeline_base(CRH())], 200, seed=3, threads=threads)

    def test_a_failing_chunk_cancels_the_chunks_not_yet_started(self, monkeypatch):
        import time

        monkeypatch.setattr(analysis, "CHUNK", 7)  # 29 chunks
        started = []
        draw = analysis.iter_replicates

        def failing_first(*args, chunks=None, **kwargs):
            started.append(chunks[0])
            if chunks == [0]:
                raise IterationDivergenceError("chunk 0")
            time.sleep(0.01)
            return draw(*args, chunks=chunks, **kwargs)

        monkeypatch.setattr(analysis, "iter_replicates", failing_first)
        with pytest.raises(IterationDivergenceError, match="chunk 0"):
            mc_risk(_gen(), [pipeline_blue()], 200, seed=0, threads=2)
        assert 0 in started and len(started) < 29

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_memory_is_the_losses_and_one_chunk_per_thread(self, monkeypatch, threads):
        import tracemalloc

        n, m, replicates = 8, 100, 15_000
        monkeypatch.setattr(analysis, "CHUNK", 5000)  # three chunks
        monkeypatch.setattr(analysis, "BLOCK_BYTES", 2**16)
        gen = AwgGenerator(GaussianGT(2.0, 1.0), GaussianSqSigmas(), n=n, m=m,
                           fresh_gt=True, fresh_sigmas=True)
        pipelines = [factory() for factory in BLUE_PIPELINES]
        mc_risk(gen, pipelines, 100, seed=5, threads=threads)
        tracemalloc.start()
        try:
            mc_risk(gen, pipelines, replicates, seed=5, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        losses = 8 * replicates * len(pipelines)
        # one chunk's arrays: per replicate its worker variances and their
        # roots (2*n) and n for (r, n) temporaries of the draw, and one block
        # with its truths and its pipelines' temporaries; a thread that held
        # a chunk's (CHUNK, m) truths would add m per replicate
        chunk = 8 * analysis.CHUNK * 3 * n + 4 * analysis.BLOCK_BYTES
        assert peak - losses <= threads * chunk

    @pytest.mark.parametrize("n", [1, 8])
    @pytest.mark.parametrize("fresh_sigmas", [False, True])
    def test_iterating_several_chunks_holds_one_chunk(self, monkeypatch, fresh_sigmas, n):
        import tracemalloc

        m = 100
        monkeypatch.setattr(analysis, "CHUNK", 5000)
        monkeypatch.setattr(analysis, "BLOCK_BYTES", 2**16)
        gen = AwgGenerator(GaussianGT(2.0, 1.0), GaussianSqSigmas(), n=n, m=m,
                           fresh_gt=True, fresh_sigmas=fresh_sigmas)
        list(analysis.iter_replicates(gen, 100, seed=2))
        tracemalloc.start()
        try:
            for block in analysis.iter_replicates(gen, 15_000, seed=2):
                del block
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # with fresh worker variances, a chunk's variances, their roots and n
        # for the draw's temporaries (fixed worker variances are rooted once
        # per call, not per chunk); the block being drawn and the one before
        # it, each with its truths (at most 1/n of ``BLOCK_BYTES``), and small
        # objects fit in three blocks and two blocks' truths.  A chunk's (CHUNK, m)
        # truths would add 4 MB
        per_replicate = 3 * n if fresh_sigmas else 0
        assert peak <= 8 * analysis.CHUNK * per_replicate + (3 + 2 / n) * analysis.BLOCK_BYTES

    def test_several_chunks_are_the_chunks_drawn_one_at_a_time(self):
        gen = AwgGenerator(GaussianGT(2.0, 1.0), REDRAWN, n=3, m=7, fresh_sigmas=False)
        together = list(analysis.iter_replicates(gen, 200, seed=4))
        alone = [b for i in range(3) for b in analysis.iter_replicates(gen, 200, seed=4,
                                                                       chunks=[i])]
        assert len(together) == len(alone)
        for got, want in zip(together, alone):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


class TestConditions:
    def _stream(self, psi, m=10, sigma2=1.0, reps=30_000):
        gen = _gen(m=m, worker_sigmas=ExplicitSigmas([sigma2]))
        return sample_aggregate_stream(gen, Mean(), psi, reps, seed=5)

    def test_improvement_condition_sign_tracks_constant_rule(self):
        # a constant guess improves iff it is below twice the true variance
        good = improvement_condition(self._stream(Constant(1.0)))
        bad = improvement_condition(self._stream(Constant(3.0)))
        assert good.satisfied and good.lhs > 3 * good.std_errors[0]
        assert not bad.satisfied and bad.lhs < -3 * bad.std_errors[0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("check", [
        improvement_condition,
        lambda s: risk_decomposition(s, sigma2=1.0),
        lambda s: sufficient_conditions(s, sigma2=1.0, psi=Constant(1.0)),
    ], ids=["improvement_condition", "risk_decomposition", "sufficient_conditions"])
    def test_small_m_rejected(self, check, m):
        with pytest.raises(InsufficientDataError):
            check(self._stream(Constant(1.0), m=m, reps=100))

    def test_flat_replicate_rejected_exactly(self):
        # the rounded mean misses this constant row by an ulp, so ss ~ 1.9e-29
        aggregates = np.arange(24.0).reshape(4, 6)
        aggregates[2] = 13.691350663375637
        terms = analysis.stein_gap_terms(aggregates, np.ones(4), np.zeros((4, 6)))
        s = ConditionTerms(terms=terms, psis=np.ones(4), derivative_dots=np.zeros(4), m=6, seed=0)
        with pytest.raises(InsufficientDataError):
            improvement_condition(s)
        # the terms are kept, but every check still rejects the stream
        with pytest.raises(InsufficientDataError):
            risk_decomposition(s, sigma2=1.0)
        with pytest.raises(InsufficientDataError):
            sufficient_conditions(s, sigma2=1.0, psi=Constant(1.0))

    @pytest.mark.parametrize("rows", [1, 3, 4, 12])
    def test_blocked_terms_equal_the_unblocked_formula(self, monkeypatch, rows):
        # row 2 (flat) and row 3 (ss underflows to 0) sit on the edges of
        # 3-row blocks, row 7 (flat) inside one
        rng = np.random.default_rng(21)
        aggregates = rng.normal(2.0, 1.0, size=(12, 6))
        aggregates[2] = 13.691350663375637
        aggregates[3] = [0.0, 1e-170, 0.0, 0.0, 0.0, 0.0]
        aggregates[7] = -4.0
        psis = rng.uniform(0.5, 2.0, size=12)
        mu = rng.normal(2.0, 1.0, size=(12, 6))
        monkeypatch.setattr(baselines, "ITERATION_BLOCK_BYTES", rows * 8 * 6)
        for a, u in ((aggregates, mu), (np.delete(aggregates, [2, 3, 7], axis=0),
                                        np.broadcast_to(mu[0], (9, 6)))):
            p = psis[:a.shape[0]]
            got, want = analysis.stein_gap_terms(a, p, u), _unblocked_stein_gap_terms(a, p, u)
            assert np.array_equal(got[0], want[0])
            assert got[0].sum() == 9
            for g, w in zip(got[1:], want[1:]):
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("fresh_gt", [False, True], ids=["fixed-truths", "fresh-truths"])
    @pytest.mark.parametrize("base", [Mean(), CRH()], ids=["mean", "crh"])
    def test_terms_pass_equals_the_stores_terms(self, monkeypatch, base, fresh_gt, threads):
        # 70-replicate chunks in 16-replicate blocks; every worker of
        # replicate 5 (chunk 0) answers one constant, so its aggregate is
        # flat, and every worker of replicate 91 (chunk 1) answers a row whose
        # squared deviations underflow, so its ss is 0
        monkeypatch.setattr(analysis, "CHUNK", 70)
        monkeypatch.setattr(analysis, "BLOCK_BYTES", _block_bytes(4, 10, 16))
        draw = analysis.iter_replicates

        def degenerate(*args, chunks=None, **kwargs):
            pos = chunks[0] * 70
            for X, mu, sig2 in draw(*args, chunks=chunks, **kwargs):
                for row, answers in ((5, 13.691350663375637), (91, [0.0, 1e-170] + [0.0] * 8)):
                    if pos <= row < pos + X.shape[0]:
                        X[row - pos] = answers
                pos += X.shape[0]
                yield X, mu, sig2

        monkeypatch.setattr(analysis, "iter_replicates", degenerate)
        gen = AwgGenerator(GaussianGT(2.0, 1.0), REDRAWN, n=4, m=10, fresh_gt=fresh_gt,
                           fresh_sigmas=True)
        s = sample_aggregate_stream(gen, base, HeuristicH(), 200, seed=3, threads=threads)
        got = sample_condition_terms(gen, base, HeuristicH(), 200, seed=3, threads=threads)
        want = analysis.stein_gap_terms(s.aggregates, s.psis, s.mu)
        assert np.flatnonzero(~got.terms[0]).tolist() == [5, 91]
        assert np.array_equal(got.terms[0], want[0])
        for g, w in zip(got.terms[1:], want[1:]):
            assert g.tobytes() == w.tobytes()
        assert got.psis.tobytes() == s.psis.tobytes()
        assert got.derivative_dots.tobytes() == s.derivative_dots.tobytes()
        assert (got.m, got.seed) == (s.m, s.seed) == (10, 3)

    def test_checks_read_the_terms_pass_as_the_stream(self):
        gen = _gen(gt=GaussianGT(2.0, 1.0))
        s = sample_aggregate_stream(gen, Mean(), SampleScaled(0.5), 2000, seed=9)
        t = sample_condition_terms(gen, Mean(), SampleScaled(0.5), 2000, seed=9)
        assert improvement_condition(t) == improvement_condition(s)
        assert risk_decomposition(t, sigma2=1.0) == risk_decomposition(s, sigma2=1.0)
        assert (sufficient_conditions(t, 1.0, SampleScaled(0.5), eps=0.5, delta=0.5, bound=0.1)
                == sufficient_conditions(s, 1.0, SampleScaled(0.5), eps=0.5, delta=0.5,
                                         bound=0.1))

    def _terms(self, reps):
        gen = _gen(m=10, worker_sigmas=GaussianSqSigmas())
        return sample_condition_terms(gen, Mean(), SampleScaled(0.5), reps, seed=6)

    def test_checks_give_the_whole_array_formulas_bits(self):
        t = self._terms(3000)
        psi = SampleScaled(0.5)
        got = (improvement_condition(t), risk_decomposition(t, sigma2=0.7),
               sufficient_conditions(t, 0.7, psi, eps=0.5, delta=0.5, bound=0.1))
        assert got == _whole_array_checks(t, 0.7, psi, eps=0.5, delta=0.5, bound=0.1)

    def test_checks_build_only_the_plug_ins_they_read(self):
        import tracemalloc

        reps = 200_000
        t = self._terms(reps)
        peaks = {}
        for name, check in (("improvement", lambda: improvement_condition(t)),
                            ("decomposition", lambda: risk_decomposition(t, sigma2=1.0))):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                check()
                peaks[name] = (tracemalloc.get_traced_memory()[1] - start) / (8 * reps)
            finally:
                tracemalloc.stop()
        # in (R,) arrays over the terms: building s^2 and all three plug-ins
        # for every check took 5.0 and 7.0
        assert peaks["improvement"] <= 3
        assert peaks["decomposition"] < 7

    def test_checks_share_one_pass_over_the_stream(self, monkeypatch):
        # the stream's block pass writes its terms: neither the stream nor a
        # check computes them again over the stores
        def no_stores(*args):
            raise AssertionError("stein_gap_terms called")

        monkeypatch.setattr(analysis, "stein_gap_terms", no_stores)
        s = self._stream(Constant(1.0), reps=1000)
        assert isinstance(s, ConditionTerms)
        expected = (improvement_condition(s), risk_decomposition(s, sigma2=1.0),
                    sufficient_conditions(s, sigma2=1.0, psi=Constant(1.0)))
        fresh = self._stream(Constant(1.0), reps=1000)
        assert expected == (improvement_condition(fresh), risk_decomposition(fresh, sigma2=1.0),
                            sufficient_conditions(fresh, sigma2=1.0, psi=Constant(1.0)))

    def test_alpha_star_golden(self):
        # frozen from the release before the Stein-gap terms were shared; row 7
        # is a constant whose rounded mean misses it by an ulp, and is left out
        gen = _gen(gt=GaussianGT(2.0, 1.0))
        s = sample_aggregate_stream(gen, Mean(), SampleScaled(0.5), 500, seed=9)
        assert estimate_alpha_star(s.aggregates, s.psis, s.mu[0]) == 13.783151951119889
        aggregates = s.aggregates.copy()
        aggregates[7] = 13.691350663375637
        assert estimate_alpha_star(aggregates, s.psis, s.mu[0]) == 13.777388688501187

    def test_decomposition_agrees_for_scaled_sample_variance(self):
        d = risk_decomposition(self._stream(SampleScaled(0.5)), sigma2=1.0)
        assert d["agree"]
        assert abs(d["residual"]) <= 3 * d["residual_se"]

    def test_decomposition_agrees_for_constant(self):
        d = risk_decomposition(self._stream(Constant(1.5)), sigma2=1.0)
        assert d["agree"]

    def test_decomposition_validates_variance(self):
        with pytest.raises(NonPositiveVarianceError):
            risk_decomposition(self._stream(Constant(1.0), reps=1000), sigma2=0.0)

    @pytest.mark.parametrize("sigma2", [float("nan"), float("inf")])
    def test_checks_reject_a_non_finite_variance(self, sigma2):
        s = self._stream(Constant(1.0), reps=100)
        with pytest.raises(NonFiniteParameterError, match="sigma2 must be finite"):
            risk_decomposition(s, sigma2)
        with pytest.raises(NonFiniteParameterError, match="sigma2 must be finite"):
            sufficient_conditions(s, sigma2, Constant(1.0))

    def test_sufficient_condition_reports(self):
        s = self._stream(Constant(1.0), reps=5000)
        reports = {r.name: r for r in sufficient_conditions(
            s, sigma2=1.0, psi=Constant(1.0), eps=0.5, delta=0.5, bound=0.1)}
        assert reports["constant_guess_condition"].satisfied  # 1 < 2
        assert reports["general_ratio_condition"].satisfied
        assert reports["mean_adjusted_ratio_condition"].satisfied
        assert reports["probabilistic_bound_cap"].satisfied  # 0.1 < 1
        assert "probabilistic_eps_bracket" in reports
        # deterministic deviation bound: emitted when no failure probability given
        dev_only = {r.name: r for r in sufficient_conditions(
            s, sigma2=1.0, psi=Constant(1.0), eps=0.5)}
        assert dev_only["bounded_deviation_condition"].satisfied  # 0.5 < 1

    @pytest.mark.parametrize("kwargs, named", [
        (dict(eps=0.1, delta=0.0, bound=0.1), "delta"),
        (dict(eps=0.1, delta=-1.0, bound=0.1), "delta"),
        (dict(eps=0.1, delta=1.5, bound=0.1), "delta"),
        (dict(eps=0.1, delta=float("nan"), bound=0.1), "delta"),
        (dict(eps=float("nan")), "eps"),
        (dict(eps=float("inf"), delta=0.5, bound=0.1), "eps"),
        (dict(eps=0.1, delta=0.5, bound=float("nan")), "bound"),
        (dict(bound=float("-inf")), "bound"),
    ])
    def test_deviation_inputs_are_checked(self, kwargs, named):
        s = self._stream(Constant(1.0), reps=100)
        with pytest.raises(ValidationError, match=rf"^{named} must be"):
            sufficient_conditions(s, sigma2=1.0, psi=Constant(1.0), **kwargs)

    def test_delta_of_one_keeps_the_infinite_bound_cap(self):
        s = self._stream(Constant(1.0), reps=100)
        reports = {r.name: r for r in sufficient_conditions(
            s, sigma2=1.0, psi=Constant(1.0), eps=0.1, delta=1.0, bound=0.1)}
        assert reports["probabilistic_bound_cap"].rhs == float("inf")
        assert reports["probabilistic_bound_cap"].satisfied

    def test_constant_rule_boundary_and_failure(self):
        s = self._stream(Constant(3.0), reps=2000)
        reports = {r.name: r for r in sufficient_conditions(s, 1.0, Constant(3.0))}
        assert not reports["constant_guess_condition"].satisfied  # 3 > 2


def _whole_array_checks(s, sigma2, psi, eps, delta, bound):
    """The three condition checks on a stream as whole-array expressions,
    every plug-in built up front, with the checks' operation order."""
    m, alpha = s.m, s.m - 3
    _, ss, cov, quad = s.terms
    s2 = ss / (m - 1)
    e_psi2, e_psi, e_dot = s.psis**2 / s2, s.psis / s2, s.derivative_dots / ((m - 3) * s2)
    se = analysis._std_error
    t = 2 * alpha * cov - alpha**2 * quad
    improvement = analysis.ConditionReport(
        name="improvement_condition", lhs=float(t.mean()), rhs=0.0, direction=">",
        satisfied=float(t.mean()) > 0.0, std_errors=(se(t),))
    lhs_r = -2 * alpha * cov + alpha**2 * s.psis**2 / ss
    rhs_r = (alpha**2 / (m - 1)) * (e_psi2 - 2 * sigma2 * (e_psi + e_dot))
    resid = lhs_r - rhs_r
    decomposition = {"lhs_gap": float(lhs_r.mean()), "rhs_formula": float(rhs_r.mean()),
                     "residual": float(resid.mean()), "residual_se": se(resid),
                     "agree": bool(abs(resid.mean()) < 3 * se(resid))}
    lhs6 = float(e_psi2.mean() / float(e_psi.mean() + e_dot.mean()))
    lhs7 = float(e_psi2.mean() / float(e_psi.mean()))
    sufficient = [
        analysis.ConditionReport(
            name="general_ratio_condition", lhs=lhs6, rhs=2 * sigma2, direction="<",
            satisfied=lhs6 < 2 * sigma2, std_errors=(se(e_psi2), se(e_psi), se(e_dot))),
        analysis.ConditionReport(
            name="mean_adjusted_ratio_condition", lhs=lhs7, rhs=2 * sigma2, direction="<",
            satisfied=lhs7 < 2 * sigma2, std_errors=(se(e_psi2), se(e_psi))),
    ] + sufficient_conditions(s, sigma2, psi, eps=eps, delta=delta, bound=bound)[2:]
    return improvement, decomposition, sufficient


def _unblocked_stein_gap_terms(aggregates, psis, mu):
    # stein_gap_terms over the whole stream at once, as before the row blocks
    dev = aggregates - aggregates.mean(axis=1, keepdims=True)
    ss = (dev**2).sum(axis=1)
    ok = (aggregates.max(axis=1) != aggregates.min(axis=1)) & (ss > 0)
    if not ok.all():
        aggregates, mu, dev, ss, psis = aggregates[ok], mu[ok], dev[ok], ss[ok], psis[ok]
    cov = ((aggregates - mu) * psis[:, None] * dev / ss[:, None]).sum(axis=1)
    return ok, ss, cov, psis**2 / ss


class TestBayesGap:
    def test_formula(self):
        assert bayes_risk_gap(2.0, 3.0) == pytest.approx(4.0 / 5.0)

    def test_validation(self):
        with pytest.raises(NonPositiveVarianceError):
            bayes_risk_gap(0.0, 1.0)

    @pytest.mark.parametrize("sigma2, sigma0_2", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0),
                                                  (1.0, np.inf)])
    def test_a_non_finite_variance_raises(self, sigma2, sigma0_2):
        # nan passed the old <= 0 test, and an infinite sigma0_2 gave a gap of 0
        with pytest.raises(NonFiniteParameterError):
            bayes_risk_gap(sigma2, sigma0_2)

    def test_monte_carlo_agreement(self):
        # posterior-mean oracle under a hierarchical generator: the identity
        # estimator's excess risk per coordinate is sigma^4/(sigma0^2+sigma^2)
        from ebtruth import bayes_posterior_mean
        rng = np.random.default_rng(0)
        sigma2, sigma0_2, m, reps = 1.0, 2.0, 50, 20_000
        mu = rng.normal(0.0, np.sqrt(sigma0_2), size=(reps, m))
        X = mu + rng.normal(0.0, np.sqrt(sigma2), size=(reps, m))
        post = np.array([bayes_posterior_mean(x, sigma2, 0.0, sigma0_2) for x in X[:4000]])
        gap = (((X[:4000] - mu[:4000]) ** 2).sum(axis=1).mean()
               - ((post - mu[:4000]) ** 2).sum(axis=1).mean()) / m
        assert gap == pytest.approx(bayes_risk_gap(sigma2, sigma0_2), rel=0.1)


class TestBlueRisks:
    """``blue_risks``, blue's and eb_blue's closed-form risk, against Monte Carlo."""

    def test_formula(self):
        # sigma^2 = 1/(1 + 1/4) = 0.8
        risks = blue_risks(10, [1.0, 4.0], 1.0)
        assert risks["blue"] == pytest.approx(8.0)
        assert risks["eb_blue"] == pytest.approx(8.0 - 7 * 0.64 / 1.8)
        # constant truths: eb_blue keeps three coordinates' risk
        assert blue_risks(10, [1.0, 4.0], 0.0)["eb_blue"] == pytest.approx(3 * 0.8)

    @pytest.mark.parametrize("args, error", [
        ((3, [1.0], 1.0), InsufficientDataError),
        ((10, [1.0, 0.0], 1.0), NonPositiveVarianceError),
        ((10, [1.0], -1.0), NonPositiveVarianceError),
        ((10, [1.0], float("nan")), NonPositiveVarianceError),
    ], ids=["m3", "zero-variance", "negative-tau2", "nan-tau2"])
    def test_validation(self, args, error):
        with pytest.raises(error):
            blue_risks(*args)

    def test_the_default_simulate_grid_matches_the_closed_form(self, tmp_path):
        from ebtruth.cli import main

        # the default grid (GaussianGT(2, 1) truths, worker i of variance
        # i^2) at 40k replicates, seed 1
        assert main(["simulate", "--replicates", "40000", "--seed", "1", "--threads", "2",
                     "--out", str(tmp_path)]) == 0
        with open(tmp_path / "simulate.csv", newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.DictReader(line for line in fh if not line.startswith("#"))
                    if row["pipeline"] in ("blue", "eb_blue")]
        assert len(rows) == 32
        for row in rows:
            n, m, name = int(row["n"]), int(row["m"]), row["pipeline"]
            want = blue_risks(m, np.arange(1.0, n + 1) ** 2, 1.0)[name]
            error = abs(float(row["mean_loss"]) - want)
            if name == "eb_blue" and m == 5:
                # E[1/ss^2] is infinite for m - 1 <= 4, so this row's
                # std_error is no consistent standard error: 2 % instead
                assert error <= 0.02 * want, (n, m, name)
            else:
                assert error <= 4 * float(row["std_error"]), (n, m, name)

    def test_constant_truths_match_the_closed_form(self):
        gen = AwgGenerator(ConstantGT(2.0), IndexedSigmas(), n=2, m=10)
        res = mc_risk(gen, [pipeline_blue(), pipeline_eb_blue()], 40_000, seed=1)
        for name, want in blue_risks(10, [1.0, 4.0], 0.0).items():
            assert abs(res.risk(name) - want) <= 4 * res.reports[name].std_error, name


class TestImprovementRatio:
    def test_synthetic_source_deterministic(self):
        src = (ConstantGT(2.0), ExplicitSigmas([1.0] * 10))
        a = improvement_ratio(src, Mean(), HeuristicH(), n=10, m=50, samples=100, seed=0)
        b = improvement_ratio(src, Mean(), HeuristicH(), n=10, m=50, samples=100, seed=0)
        assert a.improvement_ratio == b.improvement_ratio

    def test_dataset_source_requires_truth(self):
        from ebtruth import Dataset, validate_matrix
        ds = Dataset(matrix=validate_matrix(np.ones((5, 5))))
        with pytest.raises(InsufficientDataError):
            improvement_ratio(ds, Mean(), HeuristicH(), n=2, m=2, samples=2)

    def test_dataset_source_shrinks_constant_truth(self):
        ds = gen_synthetic(SyntheticSpec(gt=ConstantGT(3.0),
                                         worker_sigmas=ExplicitSigmas([2.0] * 8),
                                         n=8, m=40, seed=9))
        r = improvement_ratio(ds, Mean(), HeuristicH(), n=6, m=30, samples=200, seed=4)
        assert r.improvement_ratio < 1.0
        assert r.eb_risk == pytest.approx(r.improvement_ratio * r.base_risk)

    def test_sample_guard(self):
        with pytest.raises(InsufficientDataError):
            improvement_ratio((ConstantGT(1.0), ExplicitSigmas([1.0])),
                              Mean(), HeuristicH(), n=1, m=5, samples=0)


IR_BASES = [Mean(), Median(), CRH(), CATD(), DistanceWeighted()]


class NanGT:
    """A truth spec of the GtSpec protocol whose draws are all NaN."""

    def draw(self, shape, rng):
        return np.full(shape, np.nan)


def _ir_dataset():
    return gen_synthetic(SyntheticSpec(gt=GaussianGT(2.0, 4.0), worker_sigmas=IndexedSigmas(),
                                       n=8, m=40, seed=3))


def _per_sample_subsample_ratio(ds, base, psi, n, m, samples, seed):
    # the protocol as it stood before the batch gather: one Dataset per sample
    Xb = np.empty((samples, n, m))
    mub = np.empty((samples, m))
    for i in range(samples):
        sub = subsample(ds, n, m, seed, index=i)
        Xb[i] = sub.matrix.values
        mub[i] = sub.ground_truth
    xa = run_td_batch(base, Xb)
    eb = shrink_aggregate(xa, psi_batch(psi, Xb, xa), None, True)
    base_risk = float(loss(xa, mub).mean())
    eb_risk = float(loss(eb, mub).mean())
    return eb_risk / base_risk, base_risk, eb_risk


class TestImprovementRatios:
    @pytest.mark.parametrize("source", [
        _ir_dataset(), (GaussianGT(2.0, 4.0), GaussianSqSigmas())], ids=["dataset", "synthetic"])
    def test_equal_to_one_call_per_base(self, source):
        psi = HeuristicH()
        batch = improvement_ratios(source, IR_BASES, psi, n=5, m=12, samples=60, seed=2)
        assert batch == [improvement_ratio(source, base, psi, n=5, m=12, samples=60, seed=2)
                         for base in IR_BASES]

    def test_dataset_gather_equals_per_sample_subsamples(self):
        ds = _ir_dataset()
        psi = HeuristicH()
        batch = improvement_ratios(ds, IR_BASES, psi, n=5, m=12, samples=60, seed=2)
        assert [(r.improvement_ratio, r.base_risk, r.eb_risk) for r in batch] == [
            _per_sample_subsample_ratio(ds, base, psi, 5, 12, 60, 2) for base in IR_BASES]

    @pytest.mark.parametrize("source, drawer", [
        (_ir_dataset(), "subsample_indices"),
        ((GaussianGT(2.0, 4.0), GaussianSqSigmas()), "gen_synthetic")],
        ids=["dataset", "synthetic"])
    def test_draws_each_sample_once_for_all_bases(self, monkeypatch, source, drawer):
        calls = []
        draw = getattr(analysis, drawer)

        def recording(*args, **kwargs):
            calls.append(kwargs.get("samples"))
            return draw(*args, **kwargs)

        monkeypatch.setattr(analysis, drawer, recording)
        monkeypatch.setattr(analysis, "_last_batch", None)  # no batch kept by earlier tests
        improvement_ratios(source, IR_BASES, HeuristicH(), n=5, m=12, samples=30)
        # one call draws indices 0..29, and every base is scored on that batch
        assert calls == [30]

    @pytest.mark.parametrize("source", [
        _ir_dataset(), (GaussianGT(2.0, 4.0), GaussianSqSigmas())], ids=["dataset", "synthetic"])
    def test_batch_bound_is_checked_before_drawing(self, monkeypatch, source):
        need = analysis.batch_bytes(5, 12, 30)
        monkeypatch.setattr(analysis, "MAX_BATCH_BYTES", need)
        improvement_ratios(source, [Mean()], HeuristicH(), n=5, m=12, samples=30)
        monkeypatch.setattr(analysis, "MAX_BATCH_BYTES", need - 1)

        def no_draw(*args, **kwargs):
            raise AssertionError("drew a batch over the limit")

        monkeypatch.setattr(analysis, "gen_synthetic", no_draw)
        monkeypatch.setattr(analysis, "subsample_indices", no_draw)
        with pytest.raises(RequestTooLargeError):
            improvement_ratios(source, [Mean()], HeuristicH(), n=5, m=12, samples=30)

    def test_batch_bytes_counts_the_arrays(self):
        Xb, mub = analysis._sample_batch((GaussianGT(2.0, 4.0), GaussianSqSigmas()), 5, 12, 30, 0)
        assert analysis.batch_bytes(5, 12, 30) >= Xb.nbytes + mub.nbytes + 30 * 8 * 5

    @pytest.mark.parametrize("n, m", [(10, 50), (40, 8), (1, 30)])
    @pytest.mark.parametrize("base", IR_BASES, ids=lambda b: type(b).__name__)
    def test_batch_bytes_bounds_the_traced_peak(self, base, n, m):
        import tracemalloc

        source = (GaussianGT(2.0, 1.0), GaussianSqSigmas())
        improvement_ratios(source, [base], HeuristicH(), n=n, m=m, samples=5)
        tracemalloc.start()
        try:
            improvement_ratios(source, [base], HeuristicH(), n=n, m=m, samples=500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= analysis.batch_bytes(n, m, 500)

    def test_non_finite_draw_is_a_typed_error(self):
        with pytest.raises(NonFiniteError):
            improvement_ratio((NanGT(), IndexedSigmas()), Mean(), HeuristicH(), n=3, m=6,
                              samples=5)

    @pytest.mark.parametrize("n, m", [(-1, 5), (4, -3), (0, 5), (4, 0)])
    @pytest.mark.parametrize("source", [
        _ir_dataset(), (ConstantGT(2.0), ExplicitSigmas([1.0] * 4))],
        ids=["dataset", "synthetic"])
    def test_nonpositive_sizes_are_typed_errors(self, source, n, m):
        with pytest.raises(EmptyMatrixError):
            improvement_ratios(source, IR_BASES, HeuristicH(), n=n, m=m, samples=10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("psi", [HeuristicH(), SampleScaled(1.0)], ids=["h", "s"])
    @pytest.mark.parametrize("source", [
        _ir_dataset(), (ConstantGT(2.0), ExplicitSigmas([1.0] * 4))],
        ids=["dataset", "synthetic"])
    def test_one_question_is_rejected_like_eb_wrap(self, source, psi):
        with pytest.raises(LengthMismatchError):
            improvement_ratio(source, Mean(), psi, n=4, m=1, samples=10)


MEMO_N, MEMO_M, MEMO_SAMPLES, MEMO_SEED = 5, 12, 40, 1
MEMO_SOURCE = (GaussianGT(2.0, 4.0), GaussianSqSigmas())
# key A, then one key B per component that differs: spec (truths or worker
# variances), seed, samples, n and m
MEMO_A = (MEMO_SOURCE, MEMO_N, MEMO_M, MEMO_SAMPLES, MEMO_SEED)
MEMO_B = {
    "gt": ((ConstantGT(2.0), GaussianSqSigmas()), MEMO_N, MEMO_M, MEMO_SAMPLES, MEMO_SEED),
    "sigmas": ((GaussianGT(2.0, 4.0), IndexedSigmas()), MEMO_N, MEMO_M, MEMO_SAMPLES,
               MEMO_SEED),
    "seed": (MEMO_SOURCE, MEMO_N, MEMO_M, MEMO_SAMPLES, MEMO_SEED + 1),
    "samples": (MEMO_SOURCE, MEMO_N, MEMO_M, MEMO_SAMPLES + 1, MEMO_SEED),
    "n": (MEMO_SOURCE, MEMO_N + 1, MEMO_M, MEMO_SAMPLES, MEMO_SEED),
    "m": (MEMO_SOURCE, MEMO_N, MEMO_M + 1, MEMO_SAMPLES, MEMO_SEED),
}


def _memo_ratio(key):
    source, n, m, samples, seed = key
    r = improvement_ratio(source, Mean(), HeuristicH(), n=n, m=m, samples=samples, seed=seed)
    return r.improvement_ratio, r.base_risk, r.eb_risk


_FRESH = {}


def _fresh_process_ratio(key):
    """``_memo_ratio(key)`` computed in a new interpreter, where no batch is kept."""
    if repr(key) not in _FRESH:
        src = os.path.dirname(os.path.dirname(os.path.abspath(analysis.__file__)))
        script = f"""
import json
from ebtruth import *
source, n, m, samples, seed = {key!r}
r = improvement_ratio(source, Mean(), HeuristicH(), n=n, m=m, samples=samples, seed=seed)
print(json.dumps([r.improvement_ratio, r.base_risk, r.eb_risk]))
"""
        proc = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        _FRESH[repr(key)] = tuple(json.loads(proc.stdout))
    return _FRESH[repr(key)]


@pytest.fixture
def draws(monkeypatch):
    """The ``samples`` of every synthetic batch drawn, starting from an empty memo."""
    calls = []
    draw = analysis.gen_synthetic

    def recording(spec, *args, **kwargs):
        calls.append(kwargs.get("samples"))
        return draw(spec, *args, **kwargs)

    monkeypatch.setattr(analysis, "_last_batch", None)
    monkeypatch.setattr(analysis, "gen_synthetic", recording)
    return calls


class TestSampleBatchMemo:
    @pytest.mark.parametrize("changed", sorted(MEMO_B))
    def test_alternating_keys_equal_a_fresh_process(self, changed):
        b = MEMO_B[changed]
        for key in (MEMO_A, b, MEMO_A):
            assert _memo_ratio(key) == _fresh_process_ratio(key), key

    def test_repeated_per_base_calls_draw_once(self, draws):
        for base in IR_BASES:
            improvement_ratio(MEMO_SOURCE, base, HeuristicH(), n=MEMO_N, m=MEMO_M,
                              samples=MEMO_SAMPLES, seed=MEMO_SEED)
        assert draws == [MEMO_SAMPLES]

    def test_kept_batch_is_read_only(self, draws):
        Xb, mub = analysis._sample_batch(*MEMO_A)
        assert analysis._sample_batch(*MEMO_A)[0] is Xb and draws == [MEMO_SAMPLES]
        assert not Xb.flags.writeable and not mub.flags.writeable

    def test_signed_zero_truth_is_its_own_key(self):
        # ConstantGT(0.0) == ConstantGT(-0.0), but their truths differ in sign
        key = ((ConstantGT(0.0), IndexedSigmas()), 3, 6, 4, 0)
        assert not np.signbit(analysis._sample_batch(*key)[1]).any()
        negative = ((ConstantGT(-0.0), IndexedSigmas()),) + key[1:]
        assert np.signbit(analysis._sample_batch(*negative)[1]).all()

    @pytest.mark.parametrize("source, error", [
        ((NanGT(), IndexedSigmas()), NonFiniteError),
        ((ConstantGT(2.0), ExplicitSigmas([1.0] * 4)), LengthMismatchError)],  # n is 5
        ids=["nan_truths", "too_few_variances"])
    def test_a_raising_draw_keeps_nothing(self, draws, source, error):
        analysis._sample_batch(*MEMO_A)
        with pytest.raises(error):
            improvement_ratio(source, Mean(), HeuristicH(), n=5, m=6, samples=5)
        assert analysis._last_batch is None
        analysis._sample_batch(*MEMO_A)
        assert draws == [MEMO_SAMPLES, 5, MEMO_SAMPLES]

    def test_a_batch_over_block_bytes_is_not_kept(self, draws, monkeypatch):
        Xb, mub = analysis._sample_batch(*MEMO_A)
        size = Xb.nbytes + mub.nbytes
        monkeypatch.setattr(analysis, "KEPT_BATCH_BYTES", size - 1)
        analysis._last_batch = None
        for _ in range(2):
            analysis._sample_batch(*MEMO_A)
        assert analysis._last_batch is None and len(draws) == 3
        monkeypatch.setattr(analysis, "KEPT_BATCH_BYTES", size)
        for _ in range(2):
            analysis._sample_batch(*MEMO_A)
        assert len(draws) == 4

    def test_evaluates_batch_is_kept_though_over_block_bytes(self, draws):
        key = ((ConstantGT(2.0), GaussianSqSigmas()), 10, 50, 1000, 1)
        Xb, mub = analysis._sample_batch(*key)
        assert Xb.nbytes + mub.nbytes > analysis.BLOCK_BYTES
        assert analysis._sample_batch(*key)[0] is Xb and draws == [1000]

    @pytest.mark.parametrize("alpha", [-1.0, float("nan")], ids=["negative", "nan"])
    def test_a_bad_alpha_is_rejected_before_drawing(self, draws, alpha):
        with pytest.raises(ValueError, match="alpha must be >= 0"):
            improvement_ratio((ConstantGT(2.0), GaussianSqSigmas()), CRH(), HeuristicH(),
                              n=10, m=50, samples=1000, alpha=alpha)
        assert draws == [] and analysis._last_batch is None

    def test_a_dataset_source_empties_the_slot(self, draws):
        analysis._sample_batch(*MEMO_A)
        assert analysis._last_batch is not None
        improvement_ratio(_ir_dataset(), Mean(), HeuristicH(), n=MEMO_N, m=MEMO_M, samples=10)
        assert analysis._last_batch is None
        analysis._sample_batch(*MEMO_A)
        assert draws == [MEMO_SAMPLES, MEMO_SAMPLES]

    def test_a_duck_typed_spec_is_never_served(self, draws):
        class Liar:
            """Draws its value, but equals and prints like every other Liar."""

            def __init__(self, value):
                self.value = value

            def draw(self, shape, rng):
                return np.full(shape, self.value)

            def __eq__(self, other):
                return True

            __hash__ = None

            def __repr__(self):
                return "Liar()"

        for value in (1.0, 5.0, 5.0):
            _, mub = analysis._sample_batch((Liar(value), IndexedSigmas()), 3, 6, 4, 0)
            assert (mub == value).all()
            assert analysis._last_batch is None
        assert draws == [4, 4, 4]

    def test_a_slot_rebound_during_the_key_check_serves_the_callers_key(self, monkeypatch):
        # another thread replaces the kept batch while this one compares keys
        a = ((GaussianGT(2.0, 4.0), IndexedSigmas()), 3, 6, 4, 0)
        b = ((GaussianGT(2.0, 4.0), IndexedSigmas()), 3, 6, 4, 1)
        expected = _memo_ratio(a), _memo_ratio(b)
        analysis._sample_batch(*a)
        other = []
        eq = SyntheticSpec.__eq__

        def rebinding_eq(self, o):
            if not other:
                other.append(None)
                t = threading.Thread(target=lambda: other.append(_memo_ratio(b)))
                t.start()
                t.join(timeout=60)
            return eq(self, o)

        monkeypatch.setattr(SyntheticSpec, "__eq__", rebinding_eq)
        assert (_memo_ratio(a), other[1]) == expected

    def test_threads_on_two_keys_each_get_their_own_key(self):
        # four threads on two keys, switching between threads often
        keys = [((GaussianGT(2.0, 4.0), IndexedSigmas()), 3, 6, 4, 0),
                ((GaussianGT(2.0, 4.0), IndexedSigmas()), 3, 6, 4, 1)]
        expected = [_memo_ratio(key) for key in keys]
        assert expected[0] != expected[1]
        wrong, done = [], []
        start = threading.Barrier(4)

        def run(i):
            start.wait()
            for _ in range(150):
                try:
                    if _memo_ratio(keys[i]) != expected[i]:
                        wrong.append(i)
                except Exception as exc:  # e.g. a slot emptied under the reader
                    wrong.append(exc)
            done.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i % 2,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(done) == 4
        assert not wrong


class TestSerialization:
    def test_csv_and_jsonl_round_trip(self, tmp_path):
        gen = _gen(gt=GaussianGT(2.0, 1.0), fresh_gt=True)
        res = mc_risk(gen, [pipeline_blue(), pipeline_base(Mean())], 1000, seed=2)
        records = [report_record(r) for r in res.reports.values()]
        csv_path = tmp_path / "r.csv"
        jsonl_path = tmp_path / "r.jsonl"
        write_reports_csv(csv_path, records)
        write_reports_jsonl(jsonl_path, records)

        import csv as csvmod
        with open(csv_path) as fh:
            rows = list(csvmod.DictReader(fh))
        assert {r["name"] for r in rows} == {"blue", "mean"}
        # repr round trip keeps full float precision
        blue_row = next(r for r in rows if r["name"] == "blue")
        assert float(blue_row["mean_loss"]) == res.risk("blue")

        lines = [json.loads(l) for l in jsonl_path.read_text().splitlines()]
        assert lines[0]["replicates"] == 1000

    def test_condition_report_std_errors_serialized(self, tmp_path):
        gen = _gen()
        s = sample_aggregate_stream(gen, Mean(), Constant(1.0), 1000, seed=0)
        rec = report_record(improvement_condition(s))
        p = tmp_path / "c.csv"
        write_reports_csv(p, [rec])
        text = p.read_text()
        assert "improvement_condition" in text
