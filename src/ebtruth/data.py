"""Synthetic data generation, dataset files, subsampling, and question partitioning.

All randomness flows through counter-based Philox streams keyed by
(seed, role, index), so every generated artifact is bit-reproducible
regardless of evaluation order or thread count.  A Philox stream is its
128-bit key and a zero counter, so a batch of samples derives the keys of
all its indices at once (``stream_keys``, numpy's ``SeedSequence``
arithmetic on arrays) and walks one generator through them (``streams``):
each sample still draws from exactly ``stream(seed, role, index)``.  Each
spec draws with ``draw(shape, rng)``: shape (m,) or (r, m) for truths, (n,)
or (r, n) for worker variances, so one vector and a batch share the code.

``analysis.iter_replicates`` draws a chunk's fresh truths from the chunk's
own truth stream as row blocks ``draw((k, m), rng)`` taken in turn, k being
the block row count, which n and m fix.  A built-in ``GtSpec`` draws each
value from the next ones of the stream, so those row blocks make up its
whole ``draw((r, m), rng)`` and leave the stream in the same place: its
truths do not depend on the block size.  Any other spec of the
``draw(shape, rng)`` protocol gets its row-block draws as they come, which
may depend on the block row count, and so on n and m, but not on the
thread count or the order in which chunks are drawn.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    DuplicateGroundTruthError,
    EmptyMatrixError,
    InsufficientDataError,
    LengthMismatchError,
    NoGroundTruthError,
    NonFiniteParameterError,
    NonPositiveVarianceError,
    ParseError,
    RequestTooLargeError,
    UnreachableFloorError,
    ValidationError,
)
from .model import (
    ObservationMatrix,
    as_answer_vector,
    as_answers,
    dispersion,
    validate_variances,
)

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


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(value: int) -> list[int]:
    """``value`` as SeedSequence reads an int: 32-bit words, least significant first."""
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _pool(entropy: list) -> list:
    """SeedSequence's entropy pool.  Words are Python ints or uint32 arrays
    (one entry per stream); the masks make both wrap at 32 bits."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        result = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def stream_keys(seed: int, role: int, indices) -> np.ndarray:
    """The (k, 2) uint64 Philox keys of ``stream(seed, role, i)`` for the k
    ``indices``: ``SeedSequence(seed, spawn_key=(role, i)).generate_state(2,
    np.uint64)``, computed for all indices at once."""
    indices = np.asarray(indices, dtype=np.uint64).reshape(-1)
    keys = np.empty((indices.size, 2), dtype=np.uint64)
    head = _uint32_words(int(seed))
    # a spawn key pads the seed's words to the pool size
    head += [0] * (_POOL_SIZE - len(head)) + _uint32_words(int(role))
    low = (indices & np.uint64(_MASK32)).astype(np.uint32)
    high = (indices >> np.uint64(32)).astype(np.uint32)
    # an index below 2**32 is one spawn-key word, a larger one two
    for rows, tail in ((high == 0, [low]), (high != 0, [low, high])):
        if not rows.any():
            continue
        pool = _pool(head + [word[rows] for word in tail])
        hash_const = _INIT_B
        state = []
        for i in range(4):
            value = pool[i % _POOL_SIZE] ^ hash_const
            hash_const = (hash_const * _MULT_B) & _MASK32
            value = (value * hash_const) & _MASK32
            state.append(np.asarray(value ^ (value >> 16), dtype=np.uint64))
        keys[rows, 0] = state[0] | (state[1] << np.uint64(32))
        keys[rows, 1] = state[2] | (state[3] << np.uint64(32))
    return keys


def streams(seed: int, role: int, indices):
    """Yield a generator equal to ``stream(seed, role, i)`` for each i in
    ``indices``, in order.  It is one Philox moved to each key in turn, so
    each yielded generator is valid only until the next one is taken."""
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    # a freshly seeded Philox: zero counter, empty buffer; the setter copies
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": None},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for key in stream_keys(seed, role, indices):
        state["state"]["key"] = key
        bitgen.state = state
        yield gen


def _check_params(spec, variance_fields=()) -> None:
    """Reject a spec whose numeric parameters are not all finite, or whose
    ``variance_fields`` are negative."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if not math.isfinite(value):
            raise NonFiniteParameterError(
                f"{type(spec).__name__}: {f.name} must be finite, got {value!r}")
    for name in variance_fields:
        if getattr(spec, name) < 0:
            raise NonPositiveVarianceError(
                f"{type(spec).__name__}: {name} must be >= 0, got {getattr(spec, name)!r}")


@dataclass(frozen=True)
class ConstantGT:
    value: float = 2.0

    def __post_init__(self):
        _check_params(self)

    def draw(self, shape: tuple, rng: np.random.Generator) -> np.ndarray:
        return np.full(shape, float(self.value))


@dataclass(frozen=True)
class GaussianGT:
    mean: float = 2.0
    variance: float = 1.0

    def __post_init__(self):
        _check_params(self, ("variance",))

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
    Normal (not its standard deviation).  The floor must be positive, so
    every drawn variance is.  A spec that leaves less than
    MIN_FLOOR_TAIL_MASS of the Normal above the floor is rejected.
    """

    mean: float = 1.0
    variance: float = 0.5
    floor: float = 0.05

    def __post_init__(self):
        _check_params(self, ("variance",))
        if self.floor <= 0:
            raise NonPositiveVarianceError(f"floor must be > 0, got {self.floor!r}")
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
            # a read-only copy, so the caller's array stays writeable
            gt = as_answer_vector(self.ground_truth).copy()
            if gt.shape[0] != self.matrix.n_questions:
                raise LengthMismatchError("ground truth length != question count")
            gt.setflags(write=False)
            object.__setattr__(self, "ground_truth", gt)


def gen_synthetic(spec: SyntheticSpec, index: int = 0, samples: int | None = None):
    """Draw one dataset: truths, worker variances, then cellwise Gaussian noise.

    ``index`` addresses independent repetitions of the same spec (stream key
    component), used when a protocol draws many datasets from one config.
    With ``samples``, draw repetitions index..index+samples-1 at once and
    return their arrays: observations (samples, n, m), truths (samples, m)
    and worker variances (samples, n).  Sample i is bit-identical to the
    Dataset of ``gen_synthetic(spec, index + i)``, and a non-finite entry
    raises NonFiniteError on both paths.  ``samples`` < 1 raises
    InsufficientDataError, and a negative ``index``, or one whose batch runs
    past 2**64 - 1, ValidationError (see ``_sample_indices``).
    """
    if samples is not None:
        return _synthetic_batch(spec, index, samples)
    X, mu, sig2 = _synthetic_batch(spec, index, 1)
    return Dataset(matrix=ObservationMatrix(X[0]), ground_truth=mu[0],
                   metadata={"worker_variances": tuple(sig2[0]), "seed": spec.seed})


def _synthetic_batch(spec: SyntheticSpec, index: int, samples: int):
    indices = _sample_indices(index, samples)
    n, m = spec.n, spec.m
    X = np.empty((samples, n, m))
    mu = np.empty((samples, m))
    sig2 = np.empty((samples, n))
    rngs = zip(streams(spec.seed, ROLE_GT, indices), streams(spec.seed, ROLE_SIGMA, indices),
               streams(spec.seed, ROLE_OBS, indices))
    for i, (gt_rng, sigma_rng, obs_rng) in enumerate(rngs):
        mu[i] = spec.gt.draw((m,), gt_rng)
        sig2[i] = spec.worker_sigmas.draw((n,), sigma_rng)
        X[i] = obs_rng.normal(size=(n, m))
    X *= np.sqrt(sig2)[:, :, None]
    X += mu[:, None, :]
    # a non-finite truth makes its column of X non-finite too; the error
    # names the row among all samples' workers
    as_answers(X.reshape(-1, m))
    return X, mu, sig2


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


def _sample_indices(index: int, samples: int) -> np.ndarray:
    """The stream indices index..index+samples-1 of a batch of samples, as
    uint64, checked before the caller allocates the batch: ``samples`` < 1
    raises InsufficientDataError, and an index outside [0, 2**64), which
    ``stream_keys`` cannot address, ValidationError."""
    if samples < 1:
        raise InsufficientDataError(f"need >= 1 samples, got {samples}")
    if not 0 <= index <= 2**64 - samples:
        raise ValidationError(f"sample indices {index}..{index + samples - 1} not in [0, 2**64)")
    return np.arange(index, index + samples, dtype=np.uint64)


def subsample_indices(rows: int, cols: int, n: int, m: int, seed: int,
                      index: int = 0, samples: int | None = None):
    """Row and column indices of sample ``index`` of n workers and m questions
    from a rows x cols matrix: the first n of a permutation of the rows, then
    the first m of a permutation of the columns, both from the
    (seed, ROLE_SUBSAMPLE, index) stream.  With ``samples``, those of samples
    index..index+samples-1 at once, as (samples, n) and (samples, m) arrays.
    ``index`` and ``samples`` are checked as ``_sample_indices`` checks them."""
    if n < 1 or m < 1:
        raise EmptyMatrixError(f"n and m must be >= 1, got n={n}, m={m}")
    if n > rows or m > cols:
        raise RequestTooLargeError(f"requested {n}x{m} from a {rows}x{cols} dataset")
    indices = _sample_indices(index, 1 if samples is None else samples)
    ri = np.empty((indices.size, n), dtype=np.intp)
    ci = np.empty((indices.size, m), dtype=np.intp)
    for i, rng in enumerate(streams(seed, ROLE_SUBSAMPLE, indices)):
        ri[i] = rng.permutation(rows)[:n]
        ci[i] = rng.permutation(cols)[:m]
    return (ri[0], ci[0]) if samples is None else (ri, ci)


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


def partition_questions(ds: Dataset, buckets: int) -> list[Dataset]:
    """Split questions into contiguous quantile groups of similar truth values.

    Questions are sorted by ground truth and split into ``buckets``
    contiguous groups; each output records its ground-truth sample variance.
    A dataset without ground truth raises NoGroundTruthError.  Fewer than
    one bucket, or more buckets than questions (which would leave a bucket
    empty), raise ValidationError.
    """
    if buckets < 1:
        raise ValidationError(f"buckets must be >= 1, got {buckets}")
    if buckets > ds.matrix.n_questions:
        raise ValidationError(
            f"cannot split {ds.matrix.n_questions} questions into {buckets} buckets")
    if ds.ground_truth is None:
        raise NoGroundTruthError("partitioning needs ground truth")
    out = []
    for group in np.array_split(np.argsort(ds.ground_truth, kind="stable"), buckets):
        matrix = ObservationMatrix(
            ds.matrix.values[:, group],
            ds.matrix.worker_ids,
            [ds.matrix.question_ids[j] for j in group],
        )
        gt = ds.ground_truth[group]
        meta = dict(ds.metadata, gt_sample_variance=dispersion(gt).sample_variance)
        out.append(Dataset(matrix=matrix, ground_truth=gt, metadata=meta))
    return out
