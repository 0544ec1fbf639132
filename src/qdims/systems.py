"""Level-varying contraction systems, translation schemes, and sampling.

A system is a per-level family of contractions (similarity ratios or square
matrices), optionally different at every level, described by an explicit head
of levels plus a cycling tail. A translation scheme attaches an offset vector
to every finite word, which fixes the address-to-point projection: the point
of an address is the series of translated partial compositions.

Every translation scheme offers the same six members, and projection,
sampling, separation checks and the experiment harness use nothing else:

- ``kind``: the config name of the scheme family;
- ``randomized``: whether the scheme stands for a random family whose
  statements hold almost surely, so that runs need several realizations;
- ``realize(seed)``: one concrete member of the family (itself if fixed);
- ``offsets(letters)``: for an ``(n, depth)`` letter array, yields for
  j = 1..depth the ``(n, d)`` offsets of every row's length-j prefix;
- ``translation(prefix)``: the offset of one word, by the same rule;
- ``sup_norm()``: a bound on the norm of every offset.

A new scheme needs these members and nothing else. Systems and schemes are
immutable; sampling is deterministic given a seed.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from itertools import product as _iter_product

import numpy as np

from .codespace import (
    DEFAULT_MAX_DEPTH,
    BernoulliMeasure,
    BranchingProfile,
    LevelSchedule,
    Word,
    _read_only,
)
from .errors import BranchBudgetError, IncompleteSchemeError, SampleError
from .singular import singular_values

__all__ = [
    "SimilarSystem",
    "AffineSystem",
    "ExplicitTranslations",
    "RandomBoxTranslations",
    "FiniteTranslationSet",
    "AttractorSample",
    "project_word",
    "default_sampling_depth",
    "sample_measure",
    "SeparationReport",
    "check_separation",
    "save_sample_csv",
    "load_sample_csv",
]

WEIGHT_SUM_TOL = 1e-12
# rows per sampling chunk and per CSV block; neither changes any value
_SAMPLE_CHUNK_ROWS = 16384
_CSV_BLOCK_ROWS = 4096


def _matrix_level(entry) -> np.ndarray:
    arr = np.array(entry, dtype=float)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError("each level must be a list of square matrices")
    return _read_only(arr)


class SimilarSystem:
    """Per-level similarity contractions given by ratio vectors.

    Ratios must stay inside (0, 1) across the whole schedule, tail included.
    Optional per-level orthogonal parts (one d x d matrix per map) let the
    similarities rotate or reflect; the default is the identity.
    """

    def __init__(self, ratios, tail=None, ambient_dim: int = 1,
                 rotations=None, rotations_tail=None,
                 max_depth: int = DEFAULT_MAX_DEPTH):
        self._ratios = LevelSchedule.build(ratios, tail)
        self.ambient_dim = int(ambient_dim)
        self.max_depth = int(max_depth)
        lo, hi = np.inf, 0.0
        for vec in self._ratios.distinct_entries():
            if np.any(vec <= 0.0) or np.any(vec >= 1.0):
                raise ValueError("similarity ratios must lie strictly in (0, 1)")
            lo = min(lo, float(vec.min()))
            hi = max(hi, float(vec.max()))
        self.c_lower = lo
        self.c_upper = hi
        self._rotations = None
        if rotations is not None:
            sched = LevelSchedule.build(rotations, rotations_tail, coerce=_matrix_level)
            d = self.ambient_dim
            for mats in sched.distinct_entries():
                if mats.shape[1] != d:
                    raise ValueError(f"rotation blocks must be {d}x{d}")
                for O in mats:
                    if not np.allclose(O @ O.T, np.eye(d), atol=1e-10):
                        raise ValueError("rotation parts must be orthogonal")
            self._rotations = sched
        sizes = self._ratios.map(len)
        self.profile = BranchingProfile(sizes.head, sizes.tail, self.max_depth)
        self._log_ratios = self._ratios.map(lambda v: _read_only(np.log(v)))

    kind = "similar"

    @property
    def ratio_schedule(self) -> LevelSchedule:
        return self._ratios

    @property
    def stationary(self) -> bool:
        rot_ok = self._rotations is None or self._rotations.stationary
        return self._ratios.stationary and rot_ok

    @property
    def contraction_bound(self) -> float:
        return self.c_upper

    @property
    def has_rotations(self) -> bool:
        return self._rotations is not None

    def ratios_at(self, k: int) -> np.ndarray:
        return self._ratios.at(k)

    def log_ratios_at(self, k: int) -> np.ndarray:
        return self._log_ratios.at(k)

    def linear_maps(self, k: int) -> np.ndarray:
        """Stack of d x d linear parts for level k."""
        c = self.ratios_at(k)
        d = self.ambient_dim
        if self._rotations is None:
            return c[:, None, None] * np.eye(d)[None, :, :]
        return c[:, None, None] * self._rotations.at(k)

    def __repr__(self):
        return (f"SimilarSystem(dim={self.ambient_dim}, levels={len(self._ratios.head)}, "
                f"c in [{self.c_lower:.4g}, {self.c_upper:.4g}])")


class AffineSystem:
    """Per-level affine contractions given by lists of square matrices.

    Every matrix must be nonsingular and the extreme singular values over the
    whole table must satisfy 0 < alpha_- <= alpha_+ < 1.
    """

    def __init__(self, matrices, tail=None, max_depth: int = DEFAULT_MAX_DEPTH):
        self._matrices = LevelSchedule.build(matrices, tail, coerce=_matrix_level)
        dims = {mats.shape[1] for mats in self._matrices.distinct_entries()}
        if len(dims) != 1:
            raise ValueError("all levels must share one ambient dimension")
        self.ambient_dim = dims.pop()
        self.max_depth = int(max_depth)
        lo, hi = np.inf, 0.0
        for mats in self._matrices.distinct_entries():
            for T in mats:
                spec = singular_values(T)
                lo = min(lo, float(spec.values[-1]))
                hi = max(hi, float(spec.values[0]))
        if not (0.0 < lo <= hi < 1.0):
            raise ValueError(
                f"extreme singular values must satisfy 0 < {lo:.4g} <= {hi:.4g} < 1"
            )
        self.alpha_lower = lo
        self.alpha_upper = hi
        sizes = self._matrices.map(len)
        self.profile = BranchingProfile(sizes.head, sizes.tail, self.max_depth)

    kind = "affine"

    @property
    def stationary(self) -> bool:
        return self._matrices.stationary

    @property
    def contraction_bound(self) -> float:
        return self.alpha_upper

    def linear_maps(self, k: int) -> np.ndarray:
        return self._matrices.at(k)

    def __repr__(self):
        return (f"AffineSystem(dim={self.ambient_dim}, levels={len(self._matrices.head)}, "
                f"alpha in [{self.alpha_lower:.4g}, {self.alpha_upper:.4g}])")


# ---------------------------------------------------------------------------
# translation schemes
# ---------------------------------------------------------------------------

# splitmix64 constants; per-word offsets for the random scheme are a pure
# function of (seed, word), so draws replay identically in any order.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_LETTER_SALT = np.uint64(0xD6E8FEB86659FD93)
_AXIS_SALT = np.uint64(0xA0761D6478BD642F)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer, in place on a uint64 array; returns ``x``."""
    with np.errstate(over="ignore"):
        x += _GOLDEN
        x ^= x >> np.uint64(30)
        x *= _MIX1
        x ^= x >> np.uint64(27)
        x *= _MIX2
        x ^= x >> np.uint64(31)
    return x


@dataclass(frozen=True)
class ExplicitTranslations:
    """Finite table of offsets keyed by word prefix."""

    table: dict

    def __post_init__(self):
        norm = {tuple(int(x) for x in key): np.asarray(vec, dtype=float).ravel()
                for key, vec in self.table.items()}
        object.__setattr__(self, "table", norm)

    kind = "explicit"
    randomized = False

    def realize(self, seed: int) -> "ExplicitTranslations":
        return self

    def translation(self, prefix: tuple[int, ...]) -> np.ndarray:
        try:
            return self.table[tuple(prefix)]
        except KeyError:
            raise IncompleteSchemeError(
                f"no translation stored for prefix {tuple(prefix)}"
            ) from None

    def offsets(self, letters: np.ndarray):
        rows = letters.tolist()
        for j in range(1, letters.shape[1] + 1):
            yield np.stack([self.translation(tuple(row[:j])) for row in rows])

    def sup_norm(self) -> float:
        if not self.table:
            return 0.0
        return max(float(np.linalg.norm(v)) for v in self.table.values())


@dataclass(frozen=True)
class RandomBoxTranslations:
    """I.i.d. uniform offsets on an axis-aligned box, one per word.

    The draw for a word is a pure hash of (seed, letters), so identical
    prefixes share their offset and reruns reproduce bit-identical points.
    """

    low: np.ndarray
    high: np.ndarray
    seed: int

    def __post_init__(self):
        lo = _read_only(np.asarray(self.low, dtype=float).ravel().copy())
        hi = _read_only(np.asarray(self.high, dtype=float).ravel().copy())
        if lo.shape != hi.shape or np.any(hi < lo):
            raise ValueError("box bounds must align with low <= high")
        object.__setattr__(self, "low", lo)
        object.__setattr__(self, "high", hi)

    kind = "random-box"
    randomized = True

    @property
    def dim(self) -> int:
        return len(self.low)

    def realize(self, seed: int) -> "RandomBoxTranslations":
        return dataclasses.replace(self, seed=self.seed + seed)

    def offsets(self, letters: np.ndarray):
        # the hash chain folds in one letter per level; each axis salts the
        # chain state before the final mix, whose top 53 bits give the float
        n = len(letters)
        state = _mix64(np.full(n, self.seed & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64))
        with np.errstate(over="ignore"):
            salts = np.arange(1, self.dim + 1, dtype=np.uint64) * _AXIS_SALT
        span = self.high - self.low
        letter = np.empty(n, dtype=np.uint64)
        bits = np.empty((n, self.dim), dtype=np.uint64)
        for col in letters.T:
            letter[:] = col
            with np.errstate(over="ignore"):
                letter *= _LETTER_SALT
            state ^= letter
            np.add(_mix64(state)[:, None], salts, out=bits)
            _mix64(bits)
            bits >>= np.uint64(11)
            out = np.multiply(bits, 2.0**-53)
            out *= span
            out += self.low
            yield out

    def translation(self, prefix: tuple[int, ...]) -> np.ndarray:
        *_, last = self.offsets(np.asarray([prefix]))
        return last[0]

    def sup_norm(self) -> float:
        corners = np.array(list(_iter_product(*zip(self.low, self.high))))
        return float(np.linalg.norm(corners, axis=1).max())


@dataclass(frozen=True)
class FiniteTranslationSet:
    """Offsets chosen from a finite vector set by a word -> index rule.

    The default rule maps a word to the index of its last letter, which
    reproduces the classical fixed-IFS translations as the special case.
    Arbitrary overrides are accepted through ``assignment`` (1-based
    indices keyed by word prefix). ``jitter_radius > 0`` marks the set as
    randomizable: ``realize(seed)`` returns a concrete instance with each
    vector displaced uniformly inside a ball of that radius.
    """

    vectors: np.ndarray
    assignment: dict | None = None
    jitter_radius: float = 0.0

    def __post_init__(self):
        vecs = np.asarray(self.vectors, dtype=float)
        if vecs.ndim != 2 or vecs.shape[0] < 1:
            raise ValueError("vectors must form a (tau, d) array")
        object.__setattr__(self, "vectors", _read_only(vecs.copy()))
        if self.assignment is not None:
            tau = vecs.shape[0]
            norm = {}
            for key, idx in self.assignment.items():
                idx = int(idx)
                if not 1 <= idx <= tau:
                    raise ValueError(f"assignment index {idx} outside 1..{tau}")
                norm[tuple(int(x) for x in key)] = idx
            object.__setattr__(self, "assignment", norm)

    kind = "finite-set"

    @property
    def randomized(self) -> bool:
        return self.jitter_radius > 0

    @property
    def tau(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def _level_offsets(self, letters: np.ndarray, j: int) -> np.ndarray:
        """Vector of every row's length-``j`` prefix."""
        # 0-based, reduced mod tau by the wrapping take below
        idx = letters[:, j - 1].astype(np.intp) - 1
        for key, hit in (self.assignment or {}).items():
            if len(key) == j:
                idx[(letters[:, :j] == key).all(axis=1)] = hit - 1
        return np.take(self.vectors, idx, axis=0, mode="wrap")

    def offsets(self, letters: np.ndarray):
        for j in range(1, letters.shape[1] + 1):
            yield self._level_offsets(letters, j)

    def translation(self, prefix: tuple[int, ...]) -> np.ndarray:
        return self._level_offsets(np.asarray([prefix]), len(prefix))[0]

    def sup_norm(self) -> float:
        return float(np.linalg.norm(self.vectors, axis=1).max()) + self.jitter_radius

    def realize(self, seed: int) -> "FiniteTranslationSet":
        """Concrete instance with ball-uniform jitter applied to each vector."""
        if self.jitter_radius == 0.0:
            return self
        rng = np.random.default_rng(seed)
        d = self.dim
        shifts = np.empty_like(self.vectors)
        for i in range(self.tau):
            while True:
                cand = rng.uniform(-1.0, 1.0, size=d)
                if cand @ cand <= 1.0:
                    break
            shifts[i] = cand * self.jitter_radius
        return FiniteTranslationSet(
            vectors=self.vectors + shifts,
            assignment=self.assignment,
            jitter_radius=0.0,
        )


# ---------------------------------------------------------------------------
# projection and sampling
# ---------------------------------------------------------------------------


def project_word(system, scheme, word: Word, depth: int | None = None):
    """Partial projection series of a word, with its truncation bound.

    Sums ``offset(u|1) + L(u|1) offset(u|2) + ...`` through ``depth`` terms,
    where ``L(u|j)`` composes the linear parts of the first ``j`` letters.
    Returns ``(point, bound)``: the tail beyond ``depth`` terms is bounded in
    norm by ``sup|offset| * a**depth / (1 - a)`` with ``a`` the system's
    contraction bound.
    """
    if depth is None:
        depth = len(word)
    if depth > len(word):
        raise ValueError(f"depth {depth} exceeds word length {len(word)}")
    system.profile.validate_letters(word.letters)
    d = system.ambient_dim
    x = np.zeros(d)
    M = np.eye(d)
    for j in range(1, depth + 1):
        offset = np.asarray(scheme.translation(word.letters[:j]), dtype=float)
        x = x + M @ offset
        if j < depth:
            M = M @ system.linear_maps(j)[word.letters[j - 1] - 1]
    a = system.contraction_bound
    bound = scheme.sup_norm() * a**depth / (1.0 - a)
    return x, bound


def default_sampling_depth(system, scheme, resolution: float) -> int:
    """Depth making the projection truncation error subordinate to ``resolution``."""
    a = system.contraction_bound
    sup = max(scheme.sup_norm(), 1e-30)
    target = resolution * (1.0 - a) / (8.0 * sup)
    depth = int(np.ceil(np.log(target) / np.log(a))) if target < 1.0 else 1
    return int(np.clip(depth, 4, 4 * DEFAULT_MAX_DEPTH))


@dataclass(frozen=True)
class AttractorSample:
    """Weighted point cloud standing in for the projected measure.

    Raises ``ValueError`` unless every point and weight is finite, every
    weight is non-negative and the weights sum to 1; the message names the
    first row (1-based) with a non-finite value or a negative weight. Writable
    inputs are copied; read-only float arrays are kept as they are.
    """

    points: np.ndarray
    weights: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        w = np.asarray(self.weights, dtype=float).ravel()
        if len(w) != len(pts):
            raise ValueError("weights must align with points")
        if not (np.isfinite(pts).all() and np.isfinite(w).all()):
            finite = np.isfinite(pts).all(axis=1) & np.isfinite(w)
            raise ValueError(f"row {np.argmin(finite) + 1} holds a non-finite value")
        if (w < 0.0).any():
            row = np.argmax(w < 0.0)
            raise ValueError(f"row {row + 1} has negative weight {float(w[row])!r}")
        if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {float(w.sum())!r}, not 1 within {WEIGHT_SUM_TOL}")
        object.__setattr__(self, "points", _read_only(pts.copy() if pts.flags.writeable else pts))
        object.__setattr__(self, "weights", _read_only(w.copy() if w.flags.writeable else w))

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    def __len__(self):
        return len(self.points)


def _letter_chunks(measure: BernoulliMeasure, count: int, depth: int, seed: int):
    """Letters 1..m per address and level, in chunks of ``_SAMPLE_CHUNK_ROWS`` rows.

    Yields ``(start, letters)``, with ``letters`` of shape ``(n, depth)`` for
    rows ``start`` to ``start + n``. Level k (0-based) reads the PCG64 stream
    of ``default_rng(seed)`` advanced by ``k * count`` doubles, so row i's
    letter comes from double ``k * count + i`` of that one stream, whatever
    the chunk size: these are the draws of ``rng.choice(m, p=p)`` made level
    by level. ``choice`` draws ``u = rng.random(count)`` and returns the
    number of entries of ``cdf = p.cumsum() / cdf[-1]`` at or below ``u``;
    counting them directly gives the same letters. Letters are stored in the
    smallest unsigned type that holds the largest one: ``uint8`` while no
    level has more than 255 letters.
    """
    cdfs = []
    for k in range(1, depth + 1):
        cdf = measure.probs(k).cumsum()
        cdf /= cdf[-1]
        # u < 1 = cdf[-1], so the last entry never counts
        cdfs.append(cdf[:-1])
    dtype = np.min_scalar_type(max(len(cdf) for cdf in cdfs) + 1)
    # seeded constructors only: an unseeded PCG64 would read OS entropy
    streams = [np.random.Generator(np.random.PCG64(seed).advance(k * count))
               for k in range(depth)]
    u = np.empty(min(count, _SAMPLE_CHUNK_ROWS))
    for start in range(0, count, _SAMPLE_CHUNK_ROWS):
        n = min(_SAMPLE_CHUNK_ROWS, count - start)
        draws = u[:n]
        # Fortran order keeps each level's letters in one contiguous column
        letters = np.ones((n, depth), dtype=dtype, order="F")
        for column, cdf, stream in zip(letters.T, cdfs, streams):
            stream.random(out=draws)
            for edge in cdf:
                column += draws >= edge
        yield start, letters


def _checked_offsets(scheme, letters: np.ndarray, d: int):
    for offs in scheme.offsets(letters):
        if offs.shape != (len(letters), d):
            raise ValueError(f"translation scheme yields offsets of shape {offs.shape}, "
                             f"not ({len(letters)}, {d}) for a {d}-dimensional system")
        yield offs


def _sample_stream(system, scheme, measure: BernoulliMeasure, count: int,
                   depth: int | None = None, seed: int = 0,
                   target_resolution: float | None = None):
    """``(meta, blocks)`` of the sample that ``sample_measure`` returns.

    The arguments are checked and the depth and truncation meta resolved at
    once; ``blocks`` then yields ``(start, points, weights)`` for rows
    ``start`` to ``start + n``, one chunk of ``_SAMPLE_CHUNK_ROWS`` rows at a
    time, so no ``(count, d)`` array need exist.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if depth is not None and depth < 1:
        raise ValueError(f"sampling depth must be at least 1, got {depth}")
    if not measure.profile().matches(system.profile, depth=system.max_depth):
        raise ValueError("measure branching does not match the system")
    resolution = target_resolution if target_resolution is not None else 2.0**-12
    if depth is None:
        depth = default_sampling_depth(system, scheme, resolution)
    a = system.contraction_bound
    bound = scheme.sup_norm() * a**depth / (1.0 - a)
    meta = {
        "count": int(count),
        "depth": int(depth),
        "seed": int(seed),
        "truncation_bound": float(bound),
        "resolution": float(resolution),
        "resolution_warning": bool(bound > resolution),
    }
    return meta, _sample_blocks(system, scheme, measure, count, depth, seed)


def _sample_blocks(system, scheme, measure: BernoulliMeasure, count: int,
                   depth: int, seed: int):
    d = system.ambient_dim
    # the last level's linear parts never act on an offset
    maps = [system.linear_maps(j) for j in range(1, depth)]
    off_diagonal = ~np.eye(d, dtype=bool)
    diagonal = not any(L[:, off_diagonal].any() for L in maps)
    if diagonal:
        maps = [np.diagonal(L, axis1=1, axis2=2) for L in maps]
        maps = [D[0] if (D == D[0]).all() else D for D in maps]
    for start, letters in _letter_chunks(measure, count, depth, seed):
        n = len(letters)
        xs = np.zeros((n, d))
        offsets = _checked_offsets(scheme, letters, d)
        if diagonal:
            scale = np.ones((n, d))
            for j, offs in enumerate(offsets, start=1):
                xs += scale * offs
                if j < depth:
                    D = maps[j - 1]
                    scale *= D if D.ndim == 1 else np.take(D, letters[:, j - 1] - 1, axis=0)
        else:
            M = np.broadcast_to(np.eye(d), (n, d, d)).copy()
            for j, offs in enumerate(offsets, start=1):
                xs += (M @ offs[:, :, None])[:, :, 0]
                if j < depth:
                    M = M @ np.take(maps[j - 1], letters[:, j - 1] - 1, axis=0)
        yield start, xs, np.full(n, 1.0 / count)


def sample_measure(system, scheme, measure: BernoulliMeasure, count: int,
                   depth: int | None = None, seed: int = 0,
                   target_resolution: float | None = None) -> AttractorSample:
    """Monte Carlo sample of the projected measure.

    Draws ``count`` i.i.d. addresses from the Bernoulli measure (letter j at
    level k with probability p_{k,j}) and projects each through ``depth``
    series terms. Identical (seed, parameters) produce bit-identical output.
    A depth too shallow for ``target_resolution`` sets a warning flag in the
    metadata instead of failing. Raises ``ValueError`` when the scheme's
    offsets do not have the system's dimension.

    The sample is the blocks of one block generator, ``_sample_stream``,
    written into their slices of the output; ``run_experiment`` bins the
    same blocks as they come and never holds the whole sample. Addresses are
    drawn and projected in chunks of ``_SAMPLE_CHUNK_ROWS`` rows. Every
    level draws from its own PCG64 stream, advanced to that level's place in
    the single stream of ``default_rng(seed)``, and every step of the
    projection acts on each row alone, so the points have the same bits for
    any chunk size. Beyond the ``(count, d)`` points and their weights,
    memory is O(chunk x depth) for the letters and O(chunk x d x d) for the
    products.

    The linear parts are composed on one of two paths, chosen from
    ``system.linear_maps`` alone. When every level the sample uses is
    diagonal (similarities without rotation among them), each address keeps
    the diagonal of its product as a length-d scale vector; otherwise it
    keeps the full d x d product. Both give the same bits on diagonal maps,
    because a zero off-diagonal entry adds an exact zero to every sum. A
    diagonal level whose maps all share one diagonal multiplies every row by
    it, with no lookup by letter.
    """
    meta, blocks = _sample_stream(system, scheme, measure, count, depth, seed,
                                  target_resolution)
    x = np.empty((count, system.ambient_dim))
    weights = np.empty(count)
    for start, points, w in blocks:
        x[start:start + len(w)] = points
        weights[start:start + len(w)] = w
    # handed over read-only, so the sample keeps them without a copy
    return AttractorSample(points=_read_only(x), weights=_read_only(weights), meta=meta)


def save_sample_csv(sample: AttractorSample, path) -> None:
    """Headerless rows x_1,...,x_d,weight in canonical (generation) order.

    The bytes are those ``csv.writer`` writes for ``repr`` of every value:
    fields joined by ``","`` and every row ended by ``"\\r\\n"``. Rows are
    formatted and written by ``_write_csv_rows``, so memory does not grow with
    the sample.
    """
    with open(path, "w", newline="") as fh:
        _write_csv_rows(fh, sample.points, sample.weights)


def _write_csv_rows(fh, points: np.ndarray, weights: np.ndarray) -> None:
    """Write the rows of ``save_sample_csv`` in fixed-size blocks.

    Each row's text depends on that row alone, so a sample written in any
    split has the same bytes. Each distinct weight of a block is formatted
    once.
    """
    for start in range(0, len(weights), _CSV_BLOCK_ROWS):
        block = slice(start, start + _CSV_BLOCK_ROWS)
        # distinct by bits, so -0.0 and 0.0 keep their own text
        bits, which = np.unique(weights[block].view(np.uint64), return_inverse=True)
        texts = [repr(w) for w in bits.view(np.float64).tolist()]
        columns = [map(repr, col) for col in points[block].T.tolist()]
        columns.append(map(texts.__getitem__, which.tolist()))
        fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def load_sample_csv(path) -> AttractorSample:
    """Sample from headerless ``x_1,...,x_d,weight`` rows.

    Raises ``SampleError`` when the file cannot be read or parsed, has fewer
    than two columns, or holds rows that ``AttractorSample`` rejects: a
    non-finite value, a negative weight, or weights that do not sum to 1.
    """
    try:
        rows = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise SampleError(f"cannot read sample {path}: {exc}") from None
    if rows.shape[1] < 2:
        raise SampleError(f"{path}: rows need at least one coordinate and a weight")
    try:
        return AttractorSample(points=rows[:, :-1], weights=rows[:, -1],
                               meta={"source": str(path)})
    except ValueError as exc:
        raise SampleError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# separation certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparationReport:
    """Finite-depth separation certificate, not a proof for all levels."""

    kind: str
    depth: int
    holds_at_depth: bool
    worst_gap_ratio: float
    witness: tuple[Word, Word] | None


def _parallelepiped_diameters(M: np.ndarray) -> np.ndarray:
    # diameter of the image of the unit cube under each matrix of an (m, d, d) stack
    d = M.shape[-1]
    best = np.zeros(len(M))
    for signs in _iter_product((-1.0, 1.0), repeat=d - 1):
        v = M[:, :, 0] + sum(s * M[:, :, j + 1] for j, s in enumerate(signs))
        best = np.maximum(best, np.sqrt((v * v).sum(axis=-1)))
    return best


def _signed_gaps(lo1, hi1, lo2, hi2) -> np.ndarray:
    # positive: Euclidean distance between the boxes; negative: they overlap
    # on every axis by at least |value| (so the interiors intersect)
    sep = np.maximum(lo1 - hi2, lo2 - hi1)
    apart = np.maximum(sep, 0.0)
    return np.where((sep > 0.0).any(axis=-1), np.sqrt((apart * apart).sum(axis=-1)),
                    sep.max(axis=-1))


def check_separation(system, scheme, depth: int, kind: str = "ssc",
                     budget: int = 200_000) -> SeparationReport:
    """Certify a separation condition on the basic sets down to ``depth``.

    Basic sets are tracked as images of the unit reference cube; affine
    images use their axis-aligned bounding boxes, so a "holds" verdict for
    rotated systems is conservative. Strong separation (``ssc``) needs sibling
    sets pairwise disjoint and the open-set variant (``osc``) allows touching;
    both report the worst sibling gap relative to the parent diameter. The
    witness is the first sibling pair, in word order, that attains the
    worst ratio. Raises ``BranchBudgetError`` before any work when the word
    tree down to ``depth`` holds more than ``budget`` words at some level.
    """
    kind = kind.lower()
    if kind not in ("ssc", "osc"):
        raise ValueError(f"unknown separation kind {kind!r}")
    if depth < 1 or depth > system.max_depth:
        raise ValueError(f"depth must lie in 1..{system.max_depth}")

    fits = system.profile.depth_within(budget, depth)
    if fits < depth:
        level = fits + 1
        total = math.prod(system.profile.size(k) for k in range(1, level + 1))
        raise BranchBudgetError(
            f"separation check needs {total} words at depth {level}, over budget {budget}"
        )

    d = system.ambient_dim
    holds = True
    worst_ratio = np.inf
    witness = None

    # one row per word of the current level, in word order: letters, the
    # linear part M and the offset t of the word's map x -> M x + t
    words = np.empty((1, 0), dtype=np.int64)
    M = np.eye(d)[None]
    t = np.zeros((1, d))
    for level in range(1, depth + 1):
        maps = system.linear_maps(level)
        n = len(maps)
        parent_diam = _parallelepiped_diameters(M)
        child = np.tile(np.arange(1, n + 1), len(words))
        words = np.column_stack([np.repeat(words, n, axis=0), child])
        *_, offsets = scheme.offsets(words)
        M = np.repeat(M, n, axis=0)
        t = np.repeat(t, n, axis=0) + (M @ offsets[:, :, None])[:, :, 0]
        M = M @ maps[child - 1]
        # axis-aligned box of each child's image of the unit cube, by parent
        lo = (t + np.minimum(M, 0.0).sum(axis=2)).reshape(-1, n, d)
        hi = (t + np.maximum(M, 0.0).sum(axis=2)).reshape(-1, n, d)
        i, j = np.triu_indices(n, 1)
        gaps = _signed_gaps(lo[:, i], hi[:, i], lo[:, j], hi[:, j])
        ratios = np.full_like(gaps, np.inf)
        np.divide(gaps, parent_diam[:, None], out=ratios, where=parent_diam[:, None] > 0)
        first = int(np.argmin(ratios))
        if ratios.flat[first] < worst_ratio:
            worst_ratio = ratios.flat[first]
            parent, pair = divmod(first, len(i))
            witness = (Word(tuple(words[parent * n + i[pair]].tolist())),
                       Word(tuple(words[parent * n + j[pair]].tolist())))
        # osc allows touching siblings; ssc needs a positive gap
        failed = gaps < 0.0 if kind == "osc" else gaps <= 0.0
        if failed.any():
            holds = False

    return SeparationReport(
        kind=kind,
        depth=depth,
        holds_at_depth=holds,
        worst_gap_ratio=float(worst_ratio),
        witness=witness,
    )
