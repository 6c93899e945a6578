"""One kernel per concept: the single-vector and batch entries agree bit for
bit, and degenerate inputs follow one rule in both."""

import numpy as np
import pytest

from ebtruth import (
    Constant,
    ConstantGT,
    ExplicitSigmas,
    GaussianGT,
    GaussianSqSigmas,
    HeuristicH,
    IndexedSigmas,
    OracleReduced,
    SampleScaled,
    ZeroNormInputError,
    blue_aggregate,
    eb_blue,
    ebe,
    estimate_alpha_star,
    loss,
    pipeline_blue,
    pipeline_stein_blue,
    psi_derivative,
    psi_value,
    shrink_batch,
    stein,
    stream,
    validate_matrix,
)
from ebtruth import baselines
from ebtruth.analysis import psi_batch, psi_derivative_dot_batch

RNG = np.random.default_rng(2024)
XB = RNG.normal(2.0, 3.0, size=(12, 5, 9))
SIG2B = RNG.uniform(0.2, 4.0, size=(12, 5))
V = RNG.normal(size=(12, 9))
V[3] = 1.5  # zero dispersion
S2 = RNG.uniform(0.1, 5.0, size=12)
ESTIMATORS = [HeuristicH(), SampleScaled(0.7), Constant(0.4), OracleReduced([1.0, 2.0, 4.0])]


def _shrink(v, alpha):
    def case():
        singles = [ebe(v[i], S2[i], alpha=alpha).estimate for i in range(len(v))]
        batch = ebe(v, S2, alpha=alpha).estimate
        assert np.array_equal(batch, shrink_batch(v, S2, alpha))
        return singles, batch
    return case


def _shrink_default():
    return [ebe(V[i], S2[i], True).estimate for i in range(len(V))], ebe(V, S2, True).estimate


def _stein():
    return [stein(V[i], S2[i]).estimate for i in range(len(V))], stein(V, S2).estimate


def _psi(est):
    def case():
        xa = XB.mean(axis=1)
        singles = [psi_value(est, validate_matrix(XB[i]), xa[i]) for i in range(len(XB))]
        return singles, psi_batch(est, XB, xa)
    return case


def _psi_dot(est):
    def case():
        xa = XB.mean(axis=1) + 0.1
        singles = []
        for i in range(len(XB)):
            X = validate_matrix(XB[i])
            grad = np.array([psi_derivative(est, xa[i], j, X=X) for j in range(xa.shape[1])])
            singles.append((grad * (xa[i] - xa[i].mean())).sum())
        return singles, psi_derivative_dot_batch(est, XB, xa)
    return case


def _blue():
    singles = [blue_aggregate(validate_matrix(XB[i]), SIG2B[i])[0] for i in range(len(XB))]
    return singles, pipeline_blue()(XB, SIG2B)


def _loss():
    mu = RNG.normal(size=V.shape)
    return [loss(V[i], mu[i]) for i in range(len(V))], loss(V, mu)


def _draw(spec, width):
    def case():
        return [spec.draw((width,), stream(7, 1, 0))], spec.draw((1, width), stream(7, 1, 0))
    return case


CASES = {
    "shrink": _shrink(V, 4.5),
    "shrink-m<=3": _shrink(V[:, :3], 4.5),
    "shrink-alpha0": _shrink(V, 0.0),
    "shrink-default-alpha": _shrink_default,
    "stein": _stein,
    **{f"psi-{type(e).__name__}": _psi(e) for e in ESTIMATORS},
    **{f"dpsi-{type(e).__name__}": _psi_dot(e) for e in ESTIMATORS},
    "blue": _blue,
    "loss": _loss,
    "gt-constant": _draw(ConstantGT(3.0), 9),
    "gt-gaussian": _draw(GaussianGT(2.0, 4.0), 9),
    "sigmas-indexed": _draw(IndexedSigmas(), 5),
    "sigmas-explicit": _draw(ExplicitSigmas([1.0, 2.0, 3.0]), 3),
    "sigmas-gaussian-sq-redrawn": _draw(GaussianSqSigmas(0.5, 1.0, 0.4), 40),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_single_and_batch_entries_agree_bit_for_bit(case):
    singles, batch = case()
    assert np.array_equal(np.asarray(singles), batch)


@pytest.mark.parametrize("kernel", [psi_batch, psi_derivative_dot_batch], ids=["psi", "dpsi"])
@pytest.mark.parametrize("est", ESTIMATORS, ids=lambda e: type(e).__name__)
@pytest.mark.parametrize("rows", [1, 5, 11])
def test_psi_row_blocks_change_no_value(kernel, est, rows, monkeypatch):
    xa = XB.mean(axis=1) + 0.1
    whole = kernel(est, XB, xa)  # all 12 replicates fit in one block
    monkeypatch.setattr(baselines, "ITERATION_BLOCK_BYTES", rows * XB[0].nbytes)
    assert baselines.block_rows(XB) == rows
    assert np.array_equal(kernel(est, XB, xa), whole)


def test_shrink_degenerate_rows_flagged_per_row():
    res = ebe(V, S2, alpha=4.5)
    assert res.degenerate[3] and res.shrink_factor[3] == 0.0
    assert not res.degenerate[[0, 1, 2, 4]].any()
    assert np.array_equal(res.estimate[3], V[3])


# a constant row whose rounded mean misses it by an ulp (ss ~ 1.6e-29 at m = 5)
ULP_CONSTANT = 13.691350663375637
# a finite row for which alpha*sigma2/ss overflows (ss ~ 7.5e-321)
TINY_SPREAD = [0.0, 0.0, 0.0, 1e-160]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_flat_and_overflowing_rows_collapse_on_every_path():
    rows = np.array([np.full(4, ULP_CONSTANT), TINY_SPREAD, [1.0, 2.0, 4.0, 8.0]])
    want = np.array([rows[0], np.full(4, 1e-160 / 4), ebe(rows[2], 1.0).estimate])
    for row, expected in zip(rows, want):
        res = ebe(row, 1.0)
        assert np.array_equal(res.estimate, expected)
    res = ebe(rows, 1.0)
    assert np.array_equal(res.estimate, want)
    assert res.degenerate.tolist() == [True, True, False]
    assert res.shrink_factor[:2].tolist() == [0.0, 0.0]
    assert np.array_equal(shrink_batch(rows, 1.0, 1.0, True), want)
    assert np.array_equal(ebe(np.full(5, ULP_CONSTANT), 1.0).estimate, np.full(5, ULP_CONSTANT))
    for row in rows[:2]:
        out = eb_blue(validate_matrix(np.tile(row, (3, 1))), [1.0, 1.0, 1.0])
        assert np.isfinite(out).all() and out.max() == out.min()
        assert out[0] == pytest.approx(row.mean(), rel=1e-15)


def _assert_stein_paths_reject(row):
    Xb = XB.copy()
    Xb[4] = row
    with pytest.raises(ZeroNormInputError):
        pipeline_stein_blue()(Xb, SIG2B)
    with pytest.raises(ZeroNormInputError):
        stein(row, 1.0)
    with pytest.raises(ZeroNormInputError):
        stein(np.vstack([V[0], row]), 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stein_blue_rejects_a_zero_norm_row_like_stein():
    _assert_stein_paths_reject(np.zeros(9))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stein_blue_rejects_a_row_whose_norm_underflows():
    _assert_stein_paths_reject(np.r_[1e-160, 2e-160, 0.0, 1e-160, np.zeros(5)])


def _assert_alpha_star_leaves_out_flat_rows(value):
    aggregates = RNG.normal(size=(40, 6))
    aggregates[[5, 17]] = value
    sigma2_hats = RNG.uniform(0.5, 1.5, size=40)
    keep = np.ones(40, dtype=bool)
    keep[[5, 17]] = False
    mu = np.zeros(6)
    assert (estimate_alpha_star(aggregates, sigma2_hats, mu)
            == estimate_alpha_star(aggregates[keep], sigma2_hats[keep], mu))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_alpha_star_leaves_out_flat_replicates_without_warning():
    _assert_alpha_star_leaves_out_flat_rows(2.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_alpha_star_leaves_out_ulp_flat_replicates_without_warning():
    _assert_alpha_star_leaves_out_flat_rows(ULP_CONSTANT)
