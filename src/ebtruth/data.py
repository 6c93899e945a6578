"""Synthetic data generation, dataset files, subsampling, and question partitioning.

All randomness flows through counter-based Philox streams keyed by
(seed, role, index), so every generated artifact is bit-reproducible
regardless of evaluation order or thread count.  Each spec draws with
``draw(shape, rng)``: shape (m,) or (r, m) for truths, (n,) or (r, n) for
worker variances, so one vector and a batch share the code.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DuplicateGroundTruthError,
    EmptyMatrixError,
    LengthMismatchError,
    NoGroundTruthError,
    NonPositiveVarianceError,
    ParseError,
    RequestTooLargeError,
    UnreachableFloorError,
)
from .model import ObservationMatrix, as_answer_vector, dispersion, validate_variances

log = logging.getLogger(__name__)

GROUND_TRUTH_ID = "__GROUND_TRUTH__"

# Stream roles; each (seed, role, index) triple keys an independent stream.
ROLE_GT = 0
ROLE_SIGMA = 1
ROLE_OBS = 2
ROLE_SUBSAMPLE = 3

# GaussianSqSigmas: the least Normal mass above the floor, and the most redraw
# rounds; at that mass a value stays low for all rounds with odds ~exp(-100).
MIN_FLOOR_TAIL_MASS = 1e-3
MAX_REDRAW_ROUNDS = 100_000


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent counter-based generator for a (seed, *key) address."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class ConstantGT:
    value: float = 2.0

    def draw(self, shape: tuple, rng: np.random.Generator) -> np.ndarray:
        return np.full(shape, float(self.value))


@dataclass(frozen=True)
class GaussianGT:
    mean: float = 2.0
    variance: float = 1.0

    def draw(self, shape: tuple, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(self.mean, np.sqrt(self.variance), size=shape)


@dataclass(frozen=True)
class IndexedSigmas:
    """Worker i (1-based) has standard deviation i."""

    def draw(self, shape: tuple, rng: np.random.Generator) -> np.ndarray:
        return np.broadcast_to(np.arange(1, shape[-1] + 1, dtype=float) ** 2, shape).copy()


@dataclass(frozen=True)
class GaussianSqSigmas:
    """sigma_i^2 drawn from a Normal, redrawing values below the floor.

    The Normal can go nonpositive, so draws below ``floor`` are replaced;
    redraws are counted and logged.  ``variance`` is the variance of the
    Normal (not its standard deviation).  A spec that leaves less than
    MIN_FLOOR_TAIL_MASS of the Normal above the floor is rejected.
    """

    mean: float = 1.0
    variance: float = 0.5
    floor: float = 0.05

    def __post_init__(self):
        if self.variance < 0:
            raise NonPositiveVarianceError(f"variance must be >= 0, got {self.variance}")
        sd = math.sqrt(self.variance)
        tail = (0.5 * math.erfc((self.floor - self.mean) / (sd * math.sqrt(2.0))) if sd > 0
                else float(self.mean >= self.floor))
        if not tail >= MIN_FLOOR_TAIL_MASS:
            raise UnreachableFloorError(
                f"N({self.mean:g}, {self.variance:g}) puts {tail:.3g} of its mass above "
                f"the floor {self.floor:g}; at least {MIN_FLOOR_TAIL_MASS:g} is needed")

    def draw(self, shape: tuple, rng: np.random.Generator) -> np.ndarray:
        sd = np.sqrt(self.variance)
        sig2 = rng.normal(self.mean, sd, size=shape)
        flat = sig2.reshape(-1)
        # redraw the low values in index order, as boolean-mask assignment would
        low = np.flatnonzero(flat < self.floor)
        redraws = rounds = 0
        while low.size:
            if rounds == MAX_REDRAW_ROUNDS:
                raise UnreachableFloorError(
                    f"{low.size} worker variances still below the floor {self.floor:g} "
                    f"after {rounds} redraw rounds")
            rounds += 1
            redraws += low.size
            fresh = rng.normal(self.mean, sd, size=low.size)
            flat[low] = fresh
            low = low[fresh < self.floor]
        if redraws:
            log.debug("redrew %d worker variances below floor %g", redraws, self.floor)
        return sig2


@dataclass(frozen=True)
class ExplicitSigmas:
    variances: tuple

    def __init__(self, variances):
        object.__setattr__(
            self, "variances", tuple(float(v) for v in validate_variances(variances))
        )

    def draw(self, shape: tuple, rng: np.random.Generator) -> np.ndarray:
        if len(self.variances) != shape[-1]:
            raise LengthMismatchError(
                f"{len(self.variances)} explicit variances for {shape[-1]} workers")
        return np.broadcast_to(np.asarray(self.variances), shape).copy()


GtSpec = ConstantGT | GaussianGT
SigmaSpec = IndexedSigmas | GaussianSqSigmas | ExplicitSigmas


@dataclass(frozen=True)
class SyntheticSpec:
    gt: GtSpec
    worker_sigmas: SigmaSpec
    n: int
    m: int
    seed: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise EmptyMatrixError(f"n and m must be >= 1, got n={self.n}, m={self.m}")


@dataclass(frozen=True)
class Dataset:
    matrix: ObservationMatrix
    ground_truth: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.ground_truth is not None:
            gt = as_answer_vector(self.ground_truth)
            if gt.shape[0] != self.matrix.n_questions:
                raise LengthMismatchError("ground truth length != question count")
            gt.setflags(write=False)
            object.__setattr__(self, "ground_truth", gt)


def gen_synthetic(spec: SyntheticSpec, index: int = 0) -> Dataset:
    """Draw one dataset: truths, worker variances, then cellwise Gaussian noise.

    ``index`` addresses independent repetitions of the same spec (stream key
    component), used when a protocol draws many datasets from one config.
    """
    mu = spec.gt.draw((spec.m,), stream(spec.seed, ROLE_GT, index))
    sig2 = spec.worker_sigmas.draw((spec.n,), stream(spec.seed, ROLE_SIGMA, index))
    noise = stream(spec.seed, ROLE_OBS, index).normal(size=(spec.n, spec.m))
    values = mu[None, :] + noise * np.sqrt(sig2)[:, None]
    matrix = ObservationMatrix(values)
    return Dataset(matrix=matrix, ground_truth=mu,
                   metadata={"worker_variances": tuple(sig2), "seed": spec.seed})


def save_csv(ds: Dataset, path) -> None:
    """Write the wire format: header 'worker_id,q_<id>...', one row per worker,
    optional final ground-truth row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["worker_id"] + [f"q_{q}" for q in ds.matrix.question_ids])
        for wid, row in zip(ds.matrix.worker_ids, ds.matrix.values):
            writer.writerow([wid] + [repr(float(x)) for x in row])
        if ds.ground_truth is not None:
            writer.writerow([GROUND_TRUTH_ID] + [repr(float(x)) for x in ds.ground_truth])


def load_csv(path) -> Dataset:
    """Parse the wire format back into a Dataset."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyMatrixError(f"{path}: empty file") from None
        if not header or header[0].strip() != "worker_id":
            raise ParseError(1, f"expected header starting with 'worker_id', got {header!r}")
        question_ids = []
        for col in header[1:]:
            col = col.strip()
            if not col.startswith("q_"):
                raise ParseError(1, f"question column must start with 'q_', got {col!r}")
            question_ids.append(col[2:])
        if not question_ids:
            raise ParseError(1, "no question columns")
        worker_ids: list = []
        rows: list = []
        ground_truth = None
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(question_ids) + 1:
                raise ParseError(lineno, f"expected {len(question_ids) + 1} fields, got {len(row)}")
            try:
                values = [float(x) for x in row[1:]]
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from None
            if row[0].strip() == GROUND_TRUTH_ID:
                if ground_truth is not None:
                    raise DuplicateGroundTruthError(f"{path}: second ground-truth row at line {lineno}")
                ground_truth = np.asarray(values)
            else:
                worker_ids.append(row[0].strip())
                rows.append(values)
    if not rows:
        raise EmptyMatrixError(f"{path}: no worker rows")
    matrix = ObservationMatrix(np.asarray(rows), worker_ids, question_ids)
    return Dataset(matrix=matrix, ground_truth=ground_truth)


def subsample_indices(rows: int, cols: int, n: int, m: int, seed: int,
                      index: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of sample ``index`` of n workers and m questions
    from a rows x cols matrix: the first n of a permutation of the rows, then
    the first m of a permutation of the columns, both from the
    (seed, ROLE_SUBSAMPLE, index) stream."""
    if n < 1 or m < 1:
        raise EmptyMatrixError(f"n and m must be >= 1, got n={n}, m={m}")
    if n > rows or m > cols:
        raise RequestTooLargeError(f"requested {n}x{m} from a {rows}x{cols} dataset")
    rng = stream(seed, ROLE_SUBSAMPLE, index)
    return rng.permutation(rows)[:n], rng.permutation(cols)[:m]


def subsample(ds: Dataset, n: int, m: int, seed: int, index: int = 0) -> Dataset:
    """Uniform without-replacement sample of n workers and m questions."""
    ri, ci = subsample_indices(*ds.matrix.values.shape, n, m, seed, index)
    matrix = ObservationMatrix(
        ds.matrix.values[np.ix_(ri, ci)],
        [ds.matrix.worker_ids[i] for i in ri],
        [ds.matrix.question_ids[j] for j in ci],
    )
    gt = ds.ground_truth[ci] if ds.ground_truth is not None else None
    return Dataset(matrix=matrix, ground_truth=gt, metadata=dict(ds.metadata))


def concat_questions(a: Dataset, b: Dataset) -> Dataset:
    """Join two datasets with the same workers along the question axis."""
    if a.matrix.n_workers != b.matrix.n_workers:
        raise LengthMismatchError("question concat requires equal worker counts")
    values = np.hstack([a.matrix.values, b.matrix.values])
    qids = [f"a{q}" for q in a.matrix.question_ids] + [f"b{q}" for q in b.matrix.question_ids]
    matrix = ObservationMatrix(values, a.matrix.worker_ids, qids)
    gt = None
    if a.ground_truth is not None and b.ground_truth is not None:
        gt = np.concatenate([a.ground_truth, b.ground_truth])
    return Dataset(matrix=matrix, ground_truth=gt)


def partition_questions(ds: Dataset, buckets: int, sort_by=None) -> list[Dataset]:
    """Split questions into contiguous quantile groups of similar truth values.

    Questions are sorted by ground truth (or by ``sort_by`` when no truth is
    available, labeled as such in metadata) and split into ``buckets``
    contiguous groups; each output records its ground-truth sample variance.
    """
    if buckets < 1:
        raise ValueError(f"buckets must be >= 1, got {buckets}")
    if ds.ground_truth is not None:
        keys = ds.ground_truth
        sort_label = "ground_truth"
    elif sort_by is not None:
        keys = as_answer_vector(sort_by)
        if keys.shape[0] != ds.matrix.n_questions:
            raise RequestTooLargeError("sort_by length != question count")
        sort_label = "aggregate_fallback"
    else:
        raise NoGroundTruthError("partitioning needs ground truth or an explicit sort key")
    order = np.argsort(keys, kind="stable")
    out = []
    for group in np.array_split(order, buckets):
        matrix = ObservationMatrix(
            ds.matrix.values[:, group],
            ds.matrix.worker_ids,
            [ds.matrix.question_ids[j] for j in group],
        )
        gt = ds.ground_truth[group] if ds.ground_truth is not None else None
        meta = dict(ds.metadata)
        meta["sorted_by"] = sort_label
        meta["gt_sample_variance"] = (
            dispersion(gt).sample_variance if gt is not None and gt.shape[0] >= 1 else None
        )
        out.append(Dataset(matrix=matrix, ground_truth=gt, metadata=meta))
    return out
