"""End-to-end acceptance gate: one test per release criterion.

Each test prints a single machine-greppable pass/fail line of the form
``[criterion N] <name>: PASS|FAIL`` in addition to the pytest verdict.
"""

import time

import numpy as np
import pytest

from ebtruth import (
    AwgGenerator,
    CATD,
    CRH,
    Constant,
    ConstantGT,
    DistanceWeighted,
    ExplicitSigmas,
    GaussianGT,
    GaussianSqSigmas,
    HeuristicH,
    IndexedSigmas,
    Mean,
    Median,
    SampleScaled,
    SyntheticSpec,
    blue_aggregate,
    concat_questions,
    dispersion,
    eb_blue,
    estimate_alpha_star,
    finite_difference,
    gen_synthetic,
    improvement_ratio,
    is_mean_adjusted,
    loss,
    mc_risk,
    partition_questions,
    pipeline_blue,
    pipeline_eb_blue,
    psi_derivative,
    psi_value,
    sample_aggregate_stream,
    risk_decomposition,
    validate_matrix,
)
from ebtruth.analysis import MEAN_SQUARED
from ebtruth.cli import main as cli_main


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


TABLE = [[20.0, 2.0, 3.0, 4.0], [10.0, 11.0, 18.0, 14.0],
         [8.0, 11.0, 23.0, 19.0], [6.0, 13.0, 7.0, 3.0]]
VARIANCES = [93.5, 11.0, 34.5, 56.5]
GT = np.array([10.0, 9.0, 12.0, 16.0])


def test_criterion_1_worked_example_goldens():
    t0 = time.monotonic()
    X = validate_matrix(TABLE)
    avg = X.values.mean(axis=0)
    blue, _ = blue_aggregate(X, VARIANCES)
    eb = eb_blue(X, VARIANCES)
    avg_loss = loss(avg, GT, MEAN_SQUARED)
    blue_loss = loss(blue, GT, MEAN_SQUARED)
    eb_loss = loss(eb, GT, MEAN_SQUARED)
    ok = (
        np.array_equal(avg, [11.0, 9.25, 12.75, 10.0])
        and abs(avg_loss - 9.41) <= 0.005
        # reference row is printed at mixed precision; tolerance follows the
        # printed digit count per entry
        and np.all(np.abs(blue - [9.85, 10.6, 16.6, 12.95]) <= [0.01, 0.05, 0.05, 0.01])
        and abs(blue_loss - 8.22) <= 0.05
        and abs(eb_loss - 6.83) <= 0.01
        and eb_loss < blue_loss
        and time.monotonic() - t0 < 1.0
    )
    verdict(1, "worked-example goldens", ok,
            f"avg_loss={avg_loss:.4f} blue_loss={blue_loss:.4f} eb_loss={eb_loss:.4f}")


def test_criterion_2_dominance_grid():
    t0 = time.monotonic()
    gaps_at_m100 = {}
    all_ok = True
    detail = []
    for n in (1, 2, 4, 8):
        for m in (5, 10, 25, 100):
            gen = AwgGenerator(gt=GaussianGT(2.0, 1.0), worker_sigmas=IndexedSigmas(),
                               n=n, m=m, fresh_gt=True)
            res = mc_risk(gen, [pipeline_blue(), pipeline_eb_blue()],
                          100_000, seed=17 + n * 1000 + m)
            gap, se = res.diff("blue", "eb_blue")
            cell_ok = gap > 3 * se
            all_ok &= cell_ok
            if not cell_ok:
                detail.append(f"(n={n},m={m}) gap={gap:.3g} se={se:.3g}")
            if m == 100:
                gaps_at_m100[n] = gap
    monotone = all(gaps_at_m100[a] > gaps_at_m100[b]
                   for a, b in zip((1, 2, 4), (2, 4, 8)))
    elapsed = time.monotonic() - t0
    ok = all_ok and monotone and elapsed < 120.0
    verdict(2, "shrinkage dominates inverse-variance aggregation on the full grid", ok,
            f"elapsed={elapsed:.1f}s m=100 gaps={ {k: round(v, 2) for k, v in gaps_at_m100.items()} }"
            + (" " + "; ".join(detail) if detail else ""))


def _known_variance_stream(m, sigma2, reps, seed, psi_value_const=None):
    gen = AwgGenerator(gt=GaussianGT(2.0, 1.0), worker_sigmas=ExplicitSigmas([sigma2]),
                       n=1, m=m, fresh_gt=True)
    psi = Constant(sigma2 if psi_value_const is None else psi_value_const)
    return sample_aggregate_stream(gen, Mean(), psi, reps, seed)


def _paired_terms(s):
    dev = s.aggregates - s.aggregates.mean(axis=1, keepdims=True)
    ss = (dev**2).sum(axis=1)
    cov = ((s.aggregates - s.mu) * dev / ss[:, None]).sum(axis=1)
    return cov, ss


def test_criterion_3_exact_risk_identities():
    reps = 100_000
    checks = []

    # (a) known-variance gap identity at m in {5, 20}
    for m in (5, 20):
        sigma2 = 1.0
        s = _known_variance_stream(m, sigma2, reps, seed=23 + m)
        cov, ss = _paired_terms(s)
        alpha = m - 3
        lhs_r = 2 * alpha * sigma2 * cov - alpha**2 * sigma2**2 / ss
        rhs_r = sigma2**2 * alpha**2 / ss
        resid = lhs_r - rhs_r
        se = resid.std(ddof=1) / np.sqrt(reps)
        checks.append(("identity m=%d" % m, abs(resid.mean()) <= 3 * se))

    # (b) constant-guess gap identity, sign change bracketing twice the variance
    m, sigma2 = 10, 1.0
    alpha = m - 3
    signs = {}
    for c in (0.5, 1.0, 1.5, 3.0):
        guess = c * sigma2
        s = _known_variance_stream(m, sigma2, reps, seed=int(31 + 10 * c),
                                   psi_value_const=guess)
        cov, ss = _paired_terms(s)
        lhs_r = 2 * alpha * guess * cov - alpha**2 * guess**2 / ss
        rhs_r = alpha**2 * guess * (2 * sigma2 - guess) / ss
        resid = lhs_r - rhs_r
        se_resid = resid.std(ddof=1) / np.sqrt(reps)
        checks.append((f"constant-guess identity c={c}", abs(resid.mean()) <= 3 * se_resid))
        se_lhs = lhs_r.std(ddof=1) / np.sqrt(reps)
        signs[c] = lhs_r.mean() / se_lhs
    checks.append(("sign change brackets 2*sigma2",
                   signs[0.5] > 3 and signs[1.0] > 3 and signs[1.5] > 3 and signs[3.0] < -3))

    # (c) two-sided decomposition for the scaled sample-variance estimator
    gen = AwgGenerator(gt=GaussianGT(2.0, 1.0), worker_sigmas=ExplicitSigmas([1.0]),
                       n=1, m=10, fresh_gt=True)
    s = sample_aggregate_stream(gen, Mean(), SampleScaled(0.5), reps, seed=41)
    d = risk_decomposition(s, sigma2=1.0)
    checks.append(("risk decomposition", d["agree"]))

    failed = [name for name, ok in checks if not ok]
    verdict(3, "exact risk identities", not failed, "; ".join(failed))


def test_criterion_4_optimal_multiplier():
    m, sigma2, reps = 20, 1.5, 100_000
    gen = AwgGenerator(gt=ConstantGT(2.0), worker_sigmas=ExplicitSigmas([sigma2]),
                       n=1, m=m, fresh_gt=False)
    s = sample_aggregate_stream(gen, Mean(), Constant(sigma2), reps, seed=51)
    alpha_star = estimate_alpha_star(s.aggregates, s.psis, np.full(m, 2.0))

    # independent grid search over the empirical excess risk in alpha
    dev = s.aggregates - s.aggregates.mean(axis=1, keepdims=True)
    ss = (dev**2).sum(axis=1)
    cov = ((s.aggregates - s.mu) * s.psis[:, None] * dev / ss[:, None]).sum(axis=1)
    quad = s.psis**2 / ss
    grid = np.linspace(0.2, 2.0, 181) * (m - 3)
    risks = [(-2 * a * cov + a**2 * quad).mean() for a in grid]
    alpha_min = grid[int(np.argmin(risks))]

    within_grid = abs(alpha_min - alpha_star) <= 0.10 * alpha_star
    near_default = abs(alpha_star - (m - 3)) <= 0.05 * (m - 3)
    verdict(4, "plug-in optimal multiplier", within_grid and near_default,
            f"alpha*={alpha_star:.4f} grid_min={alpha_min:.4f} default={m - 3}")


# Seeded golden improvement ratios, frozen from the first verified run.
CONSTANT_GT_GOLDENS = {
    "mean": 0.02136476862548009,
    "median": 0.02244570998368571,
    "crh": 0.021183651945092183,
    "catd": 0.019514597395751822,
    "distance": 0.021177819064495524,
}
HIGH_VARIANCE_GOLDENS = {
    "mean": 1.0225068203978551,
    "median": 1.0185258745706525,
    "crh": 1.0343999649681772,
    "catd": 1.0221124650631483,
    "distance": 1.0294998600128185,
}
BASES = {"mean": Mean(), "median": Median(), "crh": CRH(), "catd": CATD(),
         "distance": DistanceWeighted()}


def test_criterion_5_synthetic_improvement_ratios():
    psi = HeuristicH()
    problems = []
    for name, base in BASES.items():
        r = improvement_ratio((ConstantGT(2.0), GaussianSqSigmas()), base, psi,
                              n=10, m=50, samples=1000, seed=1)
        if not r.improvement_ratio < 1.0:
            problems.append(f"{name} constant-truth ratio {r.improvement_ratio:.4f} >= 1")
        if abs(r.improvement_ratio - CONSTANT_GT_GOLDENS[name]) > 1e-12:
            problems.append(f"{name} constant-truth golden drift")
    for name, base in BASES.items():
        r = improvement_ratio((GaussianGT(2.0, 100.0), GaussianSqSigmas()), base, psi,
                              n=5, m=50, samples=1000, seed=1)
        if not 0.98 <= r.improvement_ratio <= 1.05:
            problems.append(f"{name} high-variance ratio {r.improvement_ratio:.4f} outside bracket")
        if abs(r.improvement_ratio - HIGH_VARIANCE_GOLDENS[name]) > 1e-12:
            problems.append(f"{name} high-variance golden drift")
    verdict(5, "synthetic improvement-ratio benchmarks", not problems, "; ".join(problems))


def test_criterion_6_partitioning_flips_the_ratio():
    half = dict(worker_sigmas=ExplicitSigmas([4.0] * 10), n=10, m=60)
    a = gen_synthetic(SyntheticSpec(gt=GaussianGT(0.0, 0.01), seed=11, **half))
    b = gen_synthetic(SyntheticSpec(gt=GaussianGT(100.0, 0.01), seed=12, **half))
    ds = concat_questions(a, b)
    psi = HeuristicH()
    full_var = dispersion(ds.ground_truth).sample_variance
    full = improvement_ratio(ds, Mean(), psi, n=10, m=50, samples=500, seed=3)
    buckets = partition_questions(ds, 2)
    reductions = [full_var / p.metadata["gt_sample_variance"] for p in buckets]
    bucket_irs = [improvement_ratio(p, Mean(), psi, n=10, m=50, samples=500, seed=3)
                  .improvement_ratio for p in buckets]
    ok = (full.improvement_ratio >= 1.0
          and all(r >= 10.0 for r in reductions)
          and any(ir < 1.0 for ir in bucket_irs))
    verdict(6, "partitioning mechanism", ok,
            f"full={full.improvement_ratio:.4f} buckets={[round(x, 4) for x in bucket_irs]} "
            f"reductions={[round(r, 1) for r in reductions]}")


def test_criterion_7_derivative_checks():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(4, 12))
        scale = float(rng.uniform(0.5, 20.0))
        X = validate_matrix(rng.normal(0.0, scale, size=(n, m)))
        v = X.values.mean(axis=0) + rng.normal(0.0, 0.2 * scale, size=m)
        j = int(rng.integers(0, m))
        for est in (SampleScaled(float(rng.uniform(0.1, 3.0))), HeuristicH()):
            analytic = psi_derivative(est, v, j, X=X)
            # both estimators are quadratic in each coordinate, so a central
            # difference is truncation-free; a wider step suppresses rounding
            fd = finite_difference(lambda u: psi_value(est, X, u), v, j, scale=1e-3)
            rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-9)
            worst = max(worst, rel)
    derivatives_ok = worst < 1e-6

    from dataclasses import dataclass

    @dataclass(frozen=True)
    class Flipped:
        def value(self, X, x_a):
            x_a = np.asarray(x_a, dtype=float)
            return -float(((x_a - x_a.mean()) ** 2).sum() / (x_a.shape[0] - 1))

    v = np.array([1.0, 2.0, 3.0, 10.0])
    predicate_ok = (is_mean_adjusted(SampleScaled(1.0), v)
                    and is_mean_adjusted(Constant(2.0), v)
                    and not is_mean_adjusted(Flipped(), v))
    verdict(7, "variance-estimator derivatives", derivatives_ok and predicate_ok,
            f"worst_rel_err={worst:.2e}")


def test_criterion_8_byte_identical_reports(tmp_path):
    blobs = {"simulate": [], "conditions": [], "evaluate": []}
    ds = gen_synthetic(SyntheticSpec(gt=ConstantGT(2.0),
                                     worker_sigmas=ExplicitSigmas([1.0] * 6),
                                     n=6, m=30, seed=1))
    from ebtruth import save_csv
    data = tmp_path / "ds.csv"
    save_csv(ds, data)
    for i, threads in enumerate(["1", "4"]):
        out = tmp_path / f"run{i}"
        assert cli_main(["simulate", "--replicates", "2000", "--n-grid", "1,2",
                         "--m-grid", "5,10", "--seed", "9", "--out", str(out),
                         "--threads", threads]) == 0
        assert cli_main(["conditions", "--replicates", "2000", "--m", "10",
                         "--psi", "const:1", "--seed", "9", "--out", str(out),
                         "--threads", threads]) == 0
        # evaluate runs serially and takes no --threads; its two runs' bytes are compared
        assert cli_main(["evaluate", "--data", str(data), "--bases", "mean,crh",
                         "--n", "4", "--m", "20", "--samples", "50", "--seed", "9",
                         "--out", str(out)]) == 0
        blobs["simulate"].append((out / "simulate.csv").read_bytes())
        blobs["conditions"].append((out / "conditions.csv").read_bytes())
        blobs["evaluate"].append((out / "evaluate.csv").read_bytes())
    ok = all(pair[0] == pair[1] for pair in blobs.values())
    verdict(8, "byte-identical reports across threads", ok)
