"""Monte Carlo risk machinery, condition checks, and report serialization."""

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
    NonPositiveVarianceError,
    RequestTooLargeError,
    SampleScaled,
    SUM_SQUARED,
    bayes_risk_gap,
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
    stream,
    subsample,
    SyntheticSpec,
    improvement_condition,
    risk_decomposition,
    write_reports_csv,
    write_reports_jsonl,
)
from ebtruth import analysis
from ebtruth.analysis import AggregateStream, psi_batch, report_record, shrink_aggregate
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
        monkeypatch.setattr(analysis, "BLOCK_BYTES", 8 * 3 * 7 * 50)
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


def _reference_chunks(gen, replicates, seed):
    """The single-chunk formula: each chunk's tensor built in one expression."""
    fixed_mu = None if gen.fresh_gt else gen.gt.draw((gen.m,), stream(seed, ROLE_GT, 0))
    fixed_sig2 = (None if gen.fresh_sigmas
                  else gen.worker_sigmas.draw((gen.n,), stream(seed, ROLE_SIGMA, 0)))
    for index, start in enumerate(range(0, replicates, analysis.CHUNK)):
        r = min(analysis.CHUNK, replicates - start)
        rng = stream(seed, analysis.REPLICATE_ROLE, index)
        mu = (gen.gt.draw((r, gen.m), rng) if gen.fresh_gt
              else np.broadcast_to(fixed_mu, (r, gen.m)))
        sig2 = (gen.worker_sigmas.draw((r, gen.n), rng) if gen.fresh_sigmas
                else np.broadcast_to(fixed_sig2, (r, gen.n)))
        noise = rng.normal(size=(r, gen.n, gen.m))
        yield mu[:, None, :] + noise * np.sqrt(sig2)[:, :, None], mu, sig2


# mean 0.5 and floor 0.4 send about 46 % of the worker variances to a redraw
REDRAWN = GaussianSqSigmas(0.5, 1.0, 0.4)


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
        monkeypatch.setattr(analysis, "BLOCK_BYTES", 8 * 3 * 7 * 16)
        blocks = list(analysis.iter_replicates(gen, 130, seed=4))
        assert [b[0].shape[0] for b in blocks] == [16, 16, 16, 2] * 2 + [16, 14]
        want = list(_reference_chunks(gen, 130, seed=4))
        for got, ref in zip(zip(*blocks), zip(*want)):
            assert np.array_equal(np.concatenate(got), np.concatenate(ref))

    @pytest.mark.parametrize("budget", [1000, 10])
    def test_no_block_exceeds_the_budget(self, monkeypatch, budget):
        gen = AwgGenerator(GaussianGT(2.0, 1.0), REDRAWN, n=3, m=7, fresh_sigmas=True)
        monkeypatch.setattr(analysis, "BLOCK_BYTES", budget)
        one_replicate = 8 * 3 * 7
        sizes = [X.nbytes for X, _, _ in analysis.iter_replicates(gen, 120, seed=1)]
        assert sum(sizes) == 120 * one_replicate
        assert max(sizes) <= max(budget, one_replicate)
        whole = [X.shape[0] for X, _, _ in
                 analysis.iter_replicates(gen, 120, seed=1, whole_chunks=True)]
        assert whole == [50, 50, 20]

    def test_batch_coupled_bases_still_see_whole_chunks(self, monkeypatch):
        # at n=10, m=50, CRH run one replicate at a time stops at other
        # iterations than on the whole chunk and moves by about 4e-9
        gen = AwgGenerator(GaussianGT(2.0, 1.0), REDRAWN, n=10, m=50,
                           fresh_gt=True, fresh_sigmas=True)
        monkeypatch.setattr(analysis, "CHUNK", 100)
        monkeypatch.setattr(analysis, "BLOCK_BYTES", 1)
        pipelines = [pipeline_base(CRH()), pipeline_eb_wrap(CATD(), HeuristicH())]
        assert all(p.batch_coupled for p in pipelines)
        assert not pipeline_blue().batch_coupled
        chunks = list(_reference_chunks(gen, 200, seed=11))
        res = mc_risk(gen, pipelines, 200, seed=11)
        for p in pipelines:
            want = np.concatenate([loss(p(X, sig2), mu) for X, mu, sig2 in chunks])
            assert np.array_equal(res.losses[p.name], want)
        s = sample_aggregate_stream(gen, CRH(), HeuristicH(), 200, seed=11)
        xas = [run_td_batch(CRH(), X) for X, _, _ in chunks]
        assert np.array_equal(s.aggregates, np.concatenate(xas))
        assert np.array_equal(s.psis, np.concatenate(
            [psi_batch(HeuristicH(), X, xa) for (X, _, _), xa in zip(chunks, xas)]))


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
        monkeypatch.setattr(analysis, "BLOCK_BYTES", 16 * 8 * 4 * 10)
        runs = [sample_aggregate_stream(gen, base, HeuristicH(), 200, seed=3, threads=t)
                for t in (1, 2, 3)]
        chunks = list(_reference_chunks(gen, 200, seed=3))
        assert len(chunks) == 3
        xa = np.concatenate([run_td_batch(base, X) for X, _, _ in chunks])
        for s in runs:
            if getattr(base, "batch_coupled", False):
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
        monkeypatch.setattr(analysis, "BLOCK_BYTES", 8 * 3 * 7 * 16)
        every = list(analysis.iter_replicates(gen, 200, seed=4))
        picked = list(analysis.iter_replicates(gen, 200, seed=4, chunks=[2, 0]))
        # 70-replicate chunks in 16-replicate blocks: 5 blocks each, 4 in the last
        assert [b[0].shape[0] for b in picked] == [16, 16, 16, 12] + [16, 16, 16, 16, 6]
        for got, want in zip(picked, every[10:] + every[:5]):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

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
    @pytest.mark.parametrize("base", [CRH(), Mean()], ids=["crh", "mean"])
    def test_memory_is_the_stores_and_one_chunk_per_thread(self, monkeypatch, base, threads):
        import tracemalloc

        monkeypatch.setattr(analysis, "CHUNK", 2000)
        n, m, replicates = 10, 50, 4000
        gen = AwgGenerator(GaussianGT(2.0, 1.0), GaussianSqSigmas(), n=n, m=m, fresh_gt=True)
        sample_aggregate_stream(gen, base, HeuristicH(), 100, seed=5, threads=threads)
        tracemalloc.start()
        try:
            sample_aggregate_stream(gen, base, HeuristicH(), replicates, seed=5, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stores = 8 * replicates * (2 * m + 2)
        # per replicate in flight: observations (n*m), truths and aggregates
        # (2*m), worker variances and their roots (2*n), and m + 2*n for
        # (r, m) and (r, n) temporaries; an unblocked ψ would add n*m, an
        # unblocked ∂ψ about 2*m
        assert peak - stores <= threads * 8 * analysis.CHUNK * (n * m + 3 * m + 4 * n)

    @pytest.mark.parametrize("call, need", [
        (lambda r: sample_aggregate_stream(_gen(), Mean(), Constant(1.0), r, seed=0),
         lambda r: 8 * r * (2 * 10 + 2)),
        (lambda r: mc_risk(_gen(), [pipeline_blue(), pipeline_eb_blue()], r, seed=0),
         lambda r: 8 * r * 2),
    ], ids=["sample_aggregate_stream", "mc_risk"])
    def test_replicate_bound_is_checked_before_drawing(self, monkeypatch, call, need):
        monkeypatch.setattr(analysis, "MAX_BATCH_BYTES", need(150))
        call(150)

        def no_draw(*args, **kwargs):
            raise AssertionError("drew replicates over the limit")

        monkeypatch.setattr(analysis, "iter_replicates", no_draw)
        monkeypatch.setattr(analysis, "MAX_BATCH_BYTES", need(150) - 1)
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
        monkeypatch.setattr(analysis, "BLOCK_BYTES", 16 * 8 * 4 * 10)
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
        # one chunk's arrays: per replicate its truths (m), worker variances
        # and their roots (2*n) and n for (r, n) temporaries of the draw, and
        # one block with its pipelines' temporaries; a thread that held the
        # previous chunk's truths while drawing the next would add m per replicate
        chunk = 8 * analysis.CHUNK * (m + 3 * n) + 4 * analysis.BLOCK_BYTES
        assert peak - losses <= threads * chunk

    @pytest.mark.parametrize("fresh_sigmas", [False, True])
    def test_iterating_several_chunks_holds_one_chunk(self, monkeypatch, fresh_sigmas):
        import tracemalloc

        n, m = 8, 100
        monkeypatch.setattr(analysis, "CHUNK", 5000)
        monkeypatch.setattr(analysis, "BLOCK_BYTES", 2**16)
        gen = AwgGenerator(GaussianGT(2.0, 1.0), GaussianSqSigmas(), n=n, m=m,
                           fresh_gt=True, fresh_sigmas=fresh_sigmas)
        tracemalloc.start()
        try:
            for block in analysis.iter_replicates(gen, 15_000, seed=2):
                del block
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one chunk's truths, and with fresh worker variances those, their
        # roots and n for the draw's temporaries (fixed worker variances are
        # rooted once per call, not per chunk); the block being drawn, the one
        # before it and small objects fit in three blocks
        per_replicate = m + (3 * n if fresh_sigmas else 0)
        assert peak <= 8 * analysis.CHUNK * per_replicate + 3 * analysis.BLOCK_BYTES

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
        s = AggregateStream(aggregates=aggregates, psis=np.ones(4), derivative_dots=np.zeros(4),
                            mu=np.zeros((4, 6)), seed=0)
        with pytest.raises(InsufficientDataError):
            improvement_condition(s)
        # the terms are kept, but every check still rejects the stream
        with pytest.raises(InsufficientDataError):
            risk_decomposition(s, sigma2=1.0)
        with pytest.raises(InsufficientDataError):
            sufficient_conditions(s, sigma2=1.0, psi=Constant(1.0))

    def test_checks_share_one_pass_over_the_stream(self, monkeypatch):
        s = self._stream(Constant(1.0), reps=1000)
        calls = []
        terms = analysis.stein_gap_terms
        monkeypatch.setattr(analysis, "stein_gap_terms",
                            lambda *args: calls.append(1) or terms(*args))
        expected = (improvement_condition(s), risk_decomposition(s, sigma2=1.0),
                    sufficient_conditions(s, sigma2=1.0, psi=Constant(1.0)))
        assert len(calls) == 1
        fresh = self._stream(Constant(1.0), reps=1000)
        assert expected == (improvement_condition(fresh), risk_decomposition(fresh, sigma2=1.0),
                            sufficient_conditions(fresh, sigma2=1.0, psi=Constant(1.0)))
        assert len(calls) == 2

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

    def test_constant_rule_boundary_and_failure(self):
        s = self._stream(Constant(3.0), reps=2000)
        reports = {r.name: r for r in sufficient_conditions(s, 1.0, Constant(3.0))}
        assert not reports["constant_guess_condition"].satisfied  # 3 > 2


class TestBayesGap:
    def test_formula(self):
        assert bayes_risk_gap(2.0, 3.0) == pytest.approx(4.0 / 5.0)

    def test_validation(self):
        with pytest.raises(NonPositiveVarianceError):
            bayes_risk_gap(0.0, 1.0)

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

        import scipy.special  # noqa: F401  (CATD's lazy import is not a batch cost)

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
