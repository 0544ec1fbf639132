"""Level-varying contraction systems, translation schemes, and sampling.

A system is a per-level family of contractions (similarity ratios or square
matrices), optionally different at every level, described by an explicit head
of levels plus a cycling tail. A translation scheme attaches an offset vector
to every finite word, which fixes the address-to-point projection: the point
of an address is the series of translated partial compositions.

Every translation scheme offers the same five members, and sampling,
separation checks and the experiment harness use nothing else:

- ``kind``: the config name of the scheme family;
- ``randomized``: whether the scheme stands for a random family whose
  statements hold almost surely, so that runs need several realizations;
- ``realize(seed)``: one concrete member of the family (itself if fixed);
- ``offsets(letters)``: for an ``(n, depth)`` letter array, yields for
  j = 1..depth the ``(n, d)`` offsets of every row's length-j prefix;
- ``sup_norm()``: a bound on the norm of every offset.

A new scheme needs these members and nothing else. One more is optional and
read as ``False`` when absent: ``letter_determined``, true when a word's
offset depends only on its length and last letter, with the levels' tables
repeating as the system's maps do; ``check_separation`` then certifies all
depths from one table per level. Systems and schemes are
immutable; sampling is deterministic given a seed.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings
from dataclasses import dataclass, field
from itertools import islice
from itertools import product as _iter_product

import numpy as np

from .codespace import (
    MAX_DEPTH,
    BernoulliMeasure,
    BranchingProfile,
    LevelSchedule,
    _read_only,
)
from .errors import BranchBudgetError, IncompleteSchemeError, SampleError, SingularMatrixError
from .singular import CONDITION_LIMIT, batched_log_singular_values

__all__ = [
    "SimilarSystem",
    "AffineSystem",
    "ExplicitTranslations",
    "RandomBoxTranslations",
    "FiniteTranslationSet",
    "AttractorSample",
    "default_sampling_depth",
    "sample_measure",
    "SeparationReport",
    "check_separation",
    "save_sample_csv",
    "load_sample_csv",
]

WEIGHT_SUM_TOL = 1e-12
# rows per sampling chunk and lines per CSV block; neither changes any value
_SAMPLE_CHUNK_ROWS = 16384
_CSV_BLOCK_ROWS = 4096
# most words of the projected word table, whatever the chunk size
_WORD_TABLE_ROWS = 2**16
# most words at one level of the tree that ``check_separation`` may walk
SEPARATION_WORD_CAP = 200_000


def _prefix(key) -> tuple[int, ...]:
    """A word prefix as a tuple of int letters; ``ValueError`` unless each is integral."""
    letters = tuple(int(x) for x in key)
    if letters != tuple(key):
        raise ValueError(f"prefix {tuple(key)} must hold integer letters")
    return letters


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
                 rotations=None, rotations_tail=None):
        self._ratios = LevelSchedule.build(ratios, tail)
        self.ambient_dim = int(ambient_dim)
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
        self.profile = BranchingProfile.from_sizes(map(len, self._ratios.head),
                                                   map(len, self._ratios.tail))

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

    @property
    def cycle(self) -> tuple[int, int]:
        """``(h, p)``: past level h the maps repeat every p levels."""
        parts = [s.cycle for s in (self._ratios, self._rotations) if s is not None]
        return max(h for h, _ in parts), math.lcm(*(p for _, p in parts))

    def ratios_at(self, k: int) -> np.ndarray:
        return self._ratios.at(k)

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
    whole table must satisfy 0 < alpha_- <= alpha_+ < 1. A matrix with a
    non-finite entry raises ``ValueError``; one that is numerically singular,
    or whose condition estimate exceeds ``CONDITION_LIMIT``, raises
    ``SingularMatrixError``.
    """

    def __init__(self, matrices, tail=None):
        self._matrices = LevelSchedule.build(matrices, tail, coerce=_matrix_level)
        dims = {mats.shape[1] for mats in self._matrices.distinct_entries()}
        if len(dims) != 1:
            raise ValueError("all levels must share one ambient dimension")
        self.ambient_dim = dims.pop()
        lo, hi = np.inf, 0.0
        for mats in self._matrices.distinct_entries():
            if not np.isfinite(mats).all():
                raise ValueError("matrix entries must be finite")
            with np.errstate(divide="ignore", invalid="ignore"):
                logs = batched_log_singular_values(mats)
            if not np.isfinite(logs).all():
                raise SingularMatrixError("matrix is numerically singular")
            condition = np.exp(logs[:, 0] - logs[:, -1])
            over = condition[condition > CONDITION_LIMIT]
            if over.size:
                raise SingularMatrixError(
                    f"condition estimate {over[0]:.3e} exceeds {CONDITION_LIMIT:.0e}"
                )
            lo = min(lo, float(np.exp(logs[:, -1]).min()))
            hi = max(hi, float(np.exp(logs[:, 0]).max()))
        if not (0.0 < lo <= hi < 1.0):
            raise ValueError(
                f"extreme singular values must satisfy 0 < {lo:.4g} <= {hi:.4g} < 1"
            )
        self.alpha_lower = lo
        self.alpha_upper = hi
        self.profile = BranchingProfile.from_sizes(map(len, self._matrices.head),
                                                   map(len, self._matrices.tail))

    kind = "affine"

    @property
    def stationary(self) -> bool:
        return self._matrices.stationary

    @property
    def contraction_bound(self) -> float:
        return self.alpha_upper

    @property
    def cycle(self) -> tuple[int, int]:
        """``(h, p)``: past level h the maps repeat every p levels."""
        return self._matrices.cycle

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
        norm = {_prefix(key): np.asarray(vec, dtype=float).ravel()
                for key, vec in self.table.items()}
        for key, vec in norm.items():
            if not np.isfinite(vec).all():
                raise ValueError(f"translation of prefix {key} must be finite, got {vec.tolist()}")
        object.__setattr__(self, "table", norm)

    kind = "explicit"
    randomized = False

    def realize(self, seed: int) -> "ExplicitTranslations":
        return self

    def offsets(self, letters: np.ndarray):
        """Stored offsets; ``IncompleteSchemeError`` names the first prefix
        of a level that the table lacks."""
        rows = letters.tolist()
        for j in range(1, letters.shape[1] + 1):
            try:
                level = [self.table[tuple(row[:j])] for row in rows]
            except KeyError as exc:
                raise IncompleteSchemeError(
                    f"no translation stored for prefix {exc.args[0]}"
                ) from None
            yield np.stack(level)

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
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box bounds must be finite")
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
        if not np.isfinite(vecs).all():
            raise ValueError("translation vectors must be finite")
        if not 0.0 <= self.jitter_radius < np.inf:
            raise ValueError(f"jitter_radius must be finite and non-negative, "
                             f"got {self.jitter_radius!r}")
        object.__setattr__(self, "vectors", _read_only(vecs.copy()))
        if self.assignment is not None:
            norm = {}
            for key, idx in self.assignment.items():
                if int(idx) != idx or not 1 <= idx <= self.tau:
                    raise ValueError(f"assignment index {idx} is not an integer in 1..{self.tau}")
                norm[_prefix(key)] = int(idx)
            object.__setattr__(self, "assignment", norm)

    kind = "finite-set"

    @property
    def randomized(self) -> bool:
        return self.jitter_radius > 0

    @property
    def letter_determined(self) -> bool:
        # without overrides a word's offset is the vector of its last letter
        return not self.assignment

    @property
    def tau(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def offsets(self, letters: np.ndarray):
        for j in range(1, letters.shape[1] + 1):
            # 0-based, reduced mod tau by the wrapping take below
            idx = letters[:, j - 1].astype(np.intp) - 1
            for key, hit in (self.assignment or {}).items():
                if len(key) == j:
                    idx[(letters[:, :j] == key).all(axis=1)] = hit - 1
            yield np.take(self.vectors, idx, axis=0, mode="wrap")

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
# sampling
# ---------------------------------------------------------------------------


def default_sampling_depth(system, scheme, resolution: float) -> int:
    """Depth making the projection truncation error subordinate to ``resolution``."""
    a = system.contraction_bound
    sup = max(scheme.sup_norm(), 1e-30)
    target = resolution * (1.0 - a) / (8.0 * sup)
    depth = int(np.ceil(np.log(target) / np.log(a))) if target < 1.0 else 1
    return int(np.clip(depth, 4, 4 * MAX_DEPTH))


@dataclass(frozen=True)
class AttractorSample:
    """Weighted point cloud standing in for the projected measure.

    Raises ``ValueError`` unless every point and weight is finite, every
    weight is non-negative (``_row_fault`` names the first row that is not)
    and the weights sum to 1 (``_check_weight_total``). Writable inputs are
    copied; read-only float arrays are kept as they are.
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
        if fault := _row_fault(pts, w):
            raise ValueError(fault)
        _check_weight_total(_exact_sum(w))
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


def _word_counts(measure: BernoulliMeasure, depth: int, count: int, seed: int) -> np.ndarray:
    """Draws of each word of length ``depth`` among ``count`` addresses, in code order.

    Code order is the lexicographic order of the letters, level 1 most
    significant. The counts are one ``multinomial`` of ``default_rng(seed)``
    over p_w, the product of the word's letter probabilities from level 1 on,
    normalised by the sum: numpy takes the last entry as 1 minus the others,
    and a measure level need only sum to 1 within 1e-12.
    """
    p = np.ones(1)
    for k in range(1, depth + 1):
        p = np.multiply.outer(p, measure.probs(k)).ravel()
    return np.random.default_rng(seed).multinomial(count, p / p.sum())


def _code_letters(codes: np.ndarray, sizes) -> np.ndarray:
    """Letters of the words with these codes, level 1 most significant.

    Level k has ``sizes[k - 1]`` letters. The letters come as those of
    ``_letter_chunks``: in its letter type, one contiguous column per level.
    """
    letters = np.empty((len(codes), len(sizes)), dtype=np.min_scalar_type(max(sizes)),
                       order="F")
    for k in reversed(range(len(sizes))):
        codes, letters[:, k] = np.divmod(codes, sizes[k])
    letters += 1
    return letters


def _checked_offsets(scheme, letters: np.ndarray, d: int):
    """``scheme.offsets(letters)``, level by level, refusing a wrong shape and
    any offset that is not finite."""
    for k, offs in enumerate(scheme.offsets(letters), start=1):
        if offs.shape != (len(letters), d):
            raise ValueError(f"translation scheme yields offsets of shape {offs.shape}, "
                             f"not ({len(letters)}, {d}) for a {d}-dimensional system")
        if not np.isfinite(offs).all():
            raise ValueError(f"translation scheme yields non-finite offsets at level {k}")
        yield offs


def _sample_stream(system, scheme, measure: BernoulliMeasure, count: int,
                   depth: int | None = None, seed: int = 0,
                   target_resolution: float | None = None):
    """``(meta, blocks)`` of the sample that ``sample_measure`` returns.

    The arguments are checked and the depth and truncation meta resolved at
    once; ``blocks`` then yields the ``(start, points, counts, weights)``
    blocks of ``_sample_blocks``, the rows from ``start`` on, so no
    ``(count, d)`` array need exist.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if depth is not None and depth < 1:
        raise ValueError(f"sampling depth must be at least 1, got {depth}")
    if not measure.profile.matches(system.profile):
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
    """Blocks of ``_sample_stream``: ``(start, points, counts, weights)``.

    A block stands for ``counts[i]`` consecutive rows at ``points[i]`` (one
    row each when ``counts`` is None), each of weight ``weights[i]`` =
    ``1 / count``. When the word tree down to ``depth`` holds at most
    ``min(count, _WORD_TABLE_ROWS)`` words, the sample is one block: each
    word's draws come from one multinomial (``_word_counts``), and the drawn
    words, in code order, are projected once each, with their counts. Deeper
    trees draw letters with ``_letter_chunks`` and yield one block of
    projected rows per chunk. Every step of ``project`` acts on each row
    alone, and every scheme's offsets read only a row's own prefixes, so a
    word's point has the bits of that word projected in any chunk.
    """
    d = system.ambient_dim
    # the last level's linear parts never act on an offset
    maps = [system.linear_maps(j) for j in range(1, depth)]
    off_diagonal = ~np.eye(d, dtype=bool)
    diagonal = not any(L[:, off_diagonal].any() for L in maps)
    if diagonal:
        maps = [np.diagonal(L, axis1=1, axis2=2) for L in maps]
        maps = [D[0] if (D == D[0]).all() else D for D in maps]

    def project(letters):
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
        return xs

    if system.profile.depth_within(min(count, _WORD_TABLE_ROWS), depth) == depth:
        sizes = [system.profile.size(k) for k in range(1, depth + 1)]
        counts = _word_counts(measure, depth, count, seed)
        drawn = np.flatnonzero(counts)
        letters = _code_letters(drawn, sizes)
        yield 0, project(letters), counts[drawn], np.full(len(drawn), 1.0 / count)
        return
    for start, letters in _letter_chunks(measure, count, depth, seed):
        yield start, project(letters), None, np.full(len(letters), 1.0 / count)


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
    same blocks as they come and never holds the whole sample.

    When the word tree down to ``depth`` holds at most
    ``min(count, _WORD_TABLE_ROWS)`` words (2**16 at most, whatever the
    chunk size), a point is a pure function of its word, and the sample only
    matters through each word's count: the counts are drawn with one
    multinomial, each drawn word is projected once, and its point fills one
    row per draw, the words in code order. Deeper trees draw and project
    addresses in chunks of ``_SAMPLE_CHUNK_ROWS`` rows. Every level draws
    from its own PCG64 stream, advanced to that level's place in the single
    stream of ``default_rng(seed)``, and every step of the projection acts
    on each row alone, so the points have the same bits for any chunk size.
    Beyond the ``(count, d)`` points and their weights, memory is O(chunk x
    depth) for the letters and O(chunk x d x d) for the products.

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
    for start, points, counts, w in blocks:
        if counts is None:
            x[start:start + len(w)] = points
            weights[start:start + len(w)] = w
            continue
        for offset, which in _counted_rows(counts, _SAMPLE_CHUNK_ROWS):
            rows = slice(start + offset, start + offset + len(which))
            x[rows] = points[which]
            weights[rows] = w[which]
    # handed over read-only, so the sample keeps them without a copy
    return AttractorSample(points=_read_only(x), weights=_read_only(weights), meta=meta)


def _counted_rows(counts: np.ndarray, size: int):
    """``(offset, which)`` per run of at most ``size`` rows of a counted block.

    Point i stands for ``counts[i]`` consecutive rows, after those of the
    points before it; ``which`` holds the point of each row from ``offset``
    on, so no array has more than ``size`` entries per run.
    """
    ends = np.cumsum(counts)
    for offset in range(0, int(ends[-1]), size):
        yield offset, np.searchsorted(ends, np.arange(offset, min(offset + size, ends[-1])),
                                      side="right")


def _halves(a):
    """``(high, low)`` with ``high + low == a`` exactly, each half at most 26
    bits wide (Veltkamp's split), so the product of two halves is exact."""
    c = (2.0**27 + 1) * a
    high = c - (c - a)
    return high, a - high


# exact tables of the float formatter: 10**j as doubles (exact up to 10**22)
# and their halves, 2**s, 10**k and 5**j as integers, and the four ASCII
# digits of each 0 <= i < 10**4 as one uint32
_POW10 = np.array([float(10**j) for j in range(23)])
_POW10_HALVES = _halves(_POW10)
_POW2 = np.array([float(2**s) for s in range(64)])
_INT_POW10 = np.array([10**k for k in range(18)], dtype=np.int64)
_POW5 = np.array([5**j for j in range(23)], dtype=np.int64)
_DIGITS2 = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype=np.uint8).reshape(100, 2)
_DIGITS4 = np.concatenate(np.broadcast_arrays(_DIGITS2[:, None], _DIGITS2[None, :]), axis=2)
_DIGITS4 = _DIGITS4.view(np.uint32).ravel()
# a value's text lies in a row of _TEXT_WIDTH bytes, with its decimal point
# (if any) at byte _POINT and at least two free bytes after it
_TEXT_WIDTH = 48
_POINT = 19


def _scaled(a: np.ndarray, j: np.ndarray):
    """``(hi, lo)`` with ``hi + lo == a * 10**j`` exactly (Dekker's product)."""
    hi = a * _POW10[j]
    ah, al = _halves(a)
    ph, pl = _POW10_HALVES[0][j], _POW10_HALVES[1][j]
    return hi, ((ah * ph - hi) + ah * pl + al * ph) + al * pl


def _shortest_digits(a: np.ndarray):
    """``(c, ndig, decpt, exact)``: the shortest round-trip digits of each ``a >= 0``.

    Where ``exact`` holds, ``repr(a)`` has the ``ndig`` leading digits of the
    17-digit integer ``c`` (the others are zeros) and ``a`` reads back from
    ``0.ddd * 10**decpt``. That is so for every ``a`` in (1e-6, 2**53) but
    the ties between two shortest strings and the powers of two (whose
    rounding interval is lopsided); those, zeros and the values outside the
    domain are not ``exact``.
    """
    exact = (a > 1e-6) & (a < 2.0**53)
    a = np.where(exact, a, 1.0)
    # P = a * 10**j in [1e16, 1e17) as hi + lo; log10 may miss by one
    j = 16 - np.floor(np.log10(a)).astype(np.int64)
    np.clip(j, 1, 22, out=j)
    hi, lo = _scaled(a, j)
    step = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    step = step.astype(np.int64) - ((hi > 1e17) | ((hi == 1e17) & (lo >= 0)))
    if step.any():
        j += step
        hi, lo = _scaled(a, j)
    # P = whole + part / 2**s: a = m * 2**(e - 53) makes P * 2**s = 2 m 5**j,
    # and half an ulp of a exactly 5**j units
    mantissa, e = np.frexp(a)
    m = (mantissa * 2.0**53).astype(np.int64)
    s = 54 - e - j
    floor_lo = np.floor(lo)
    whole = hi.astype(np.int64) + floor_lo.astype(np.int64)
    part = ((lo - floor_lo) * _POW2[s]).astype(np.int64)
    half = _POW5[j]
    # [low, high]: the integers within half an ulp of P. Its ends, (2 m +- 1)
    # 5**j units, are odd, so they are integers only where s = 0 (P = 10 m,
    # ends 10 m +- 5), and no multiple of 10 lies on them: repr's rule that
    # the ends read back as a only for even m changes no digit here
    below, above = part - half, part + half
    low = whole - (-below >> s)
    high = whole + (above >> s)
    # t: the most trailing zeros of an integer in [low, high]
    t = np.zeros(len(a), dtype=np.int64)
    for k in range(1, 18):
        fits = (high // _INT_POW10[k]) * _INT_POW10[k] >= low
        if not fits.any():
            break
        t += fits
    # the multiple of 10**t nearest P; both in [low, high] only a few units from P
    step = _INT_POW10[t]
    down = (whole // step) * step
    down_fits, up_fits = down >= low, down + step <= high
    gap_down = (np.minimum(whole - down, 64) << s) + part
    gap_up = (np.minimum(down + step - whole, 64) << s) - part
    c = down + (up_fits & (~down_fits | (gap_up < gap_down))) * step
    exact &= ~(down_fits & up_fits & (gap_up == gap_down)) & (m != 2**52)
    carry = c >= 10**17
    c[carry] //= 10
    return c, 17 - t + carry, 17 - j + carry, exact


def _put_digits(words: np.ndarray, value: np.ndarray, skip: int = 0) -> None:
    """Write the decimal digits of each ``value``, zero-padded to fill the
    uint32 columns of ``words``, leaving the first ``skip`` columns as they are."""
    for k in range(words.shape[1] - 1, skip, -1):
        high = value // 10**4
        words[:, k] = _DIGITS4[value - high * 10**4]
        value = high
    words[:, skip] = _DIGITS4[value % 10**4]


def _float_texts(x: np.ndarray):
    """``(text, start, end)`` with ``text[i, start[i]:end[i]]`` the bytes of ``repr(x[i])``.

    ``text`` has ``_TEXT_WIDTH`` bytes per value and ``end <= _TEXT_WIDTH - 2``.
    Values that ``_shortest_digits`` leaves out go to ``repr``, once per
    distinct bit pattern.
    """
    c, ndig, decpt, exact = _shortest_digits(np.abs(x))
    # repr's layout: fixed notation for -4 < decpt <= 16, else d.ddde-XX;
    # point digits come before the decimal point (at least one, a 0 if none)
    sci = decpt < -3
    point = np.where(sci, 1, decpt)
    unit = _INT_POW10[17 - np.clip(point, 0, 17)]
    whole = c // unit
    frac = c - whole * unit
    text = np.empty((len(x), _TEXT_WIDTH), dtype=np.uint8)
    words = text.view(np.uint32)
    start = _POINT - np.maximum(point, 1)
    # 10 * whole at bytes 0..19, with its last digit overwritten by the
    # point; the columns before every text stay unwritten
    _put_digits(words[:, :5], whole * 10, skip=int(start.min()) // 4)
    text[:, _POINT] = ord(".")
    # the fraction left-aligned in bytes 20..39: frac * 10**(3 + point),
    # as its leading 4 digits and its other 16
    lift = 3 + point
    cut = _INT_POW10[np.clip(16 - lift, 0, 17)]
    head = frac // cut
    words[:, 5] = _DIGITS4[head * _INT_POW10[np.clip(lift - 16, 0, 17)]]
    _put_digits(words[:, 6:10], (frac - head * cut) * _INT_POW10[np.minimum(lift, 16)])
    end = _POINT + 1 + np.where(sci, ndig - 1, np.maximum(ndig - decpt, 1))
    neg = np.signbit(x)
    start -= neg
    text[np.flatnonzero(neg), start[neg]] = ord("-")
    if (rows := np.flatnonzero(sci & exact)).size:
        # one digit drops the point: 1e-05, not 1.e-05
        at = end[rows] - (ndig[rows] == 1)
        power = 1 - decpt[rows]
        for k, char in enumerate((ord("e"), ord("-"), ord("0") + power // 10,
                                  ord("0") + power % 10)):
            text[rows, at + k] = char
        end[rows] = at + 4
    if (rows := np.flatnonzero(~exact)).size:
        bits, which = np.unique(x[rows].view(np.uint64), return_inverse=True)
        texts = [repr(v).encode() for v in bits.view(np.float64).tolist()]
        table = np.zeros((len(texts), _TEXT_WIDTH), dtype=np.uint8)
        for row, value in zip(table, texts):
            row[:len(value)] = np.frombuffer(value, dtype=np.uint8)
        text[rows] = table[which]
        start[rows] = 0
        end[rows] = np.array([len(value) for value in texts])[which]
    return text, start, end


def _csv_rows(points: np.ndarray, weights: np.ndarray) -> bytes:
    """The ``save_sample_csv`` bytes of the rows ``points`` and ``weights``."""
    rows, d = points.shape
    # distinct by bits, so -0.0 and 0.0 keep their own text
    bits, inverse = np.unique(weights.view(np.uint64), return_inverse=True)
    text, start, end = _float_texts(np.concatenate([points.ravel(), bits.view(np.float64)]))
    # a comma after each coordinate and a line end after each weight
    cut = rows * d
    at = np.arange(len(text))
    text[at, end] = ord(",")
    text[at[cut:], end[cut:]] = ord("\r")
    text[at[cut:], end[cut:] + 1] = ord("\n")
    end[:cut] += 1
    end[cut:] += 2
    # each row's texts in order, squeezed row-major into the rows' bytes
    index = np.column_stack([np.arange(cut).reshape(rows, d), cut + inverse])
    lo, hi = int(start.min()), int(end.max())
    offset = np.arange(lo, hi, dtype=np.uint8) - start.astype(np.uint8)[index, None]
    return text[index, lo:hi][offset < (end - start).astype(np.uint8)[index, None]].tobytes()


def save_sample_csv(sample: AttractorSample, path) -> None:
    """Headerless rows x_1,...,x_d,weight in canonical (generation) order.

    The bytes are those ``csv.writer`` writes for ``repr`` of every value:
    fields joined by ``","`` and every row ended by ``"\\r\\n"``. Rows are
    formatted by ``_write_csv_blocks`` without a ``repr`` call per value,
    and written as bytes, so neither the locale's encoding nor the sample's
    size changes the file or the memory it takes.
    """
    with open(path, "wb") as fh:
        _write_csv_blocks(fh, [(0, sample.points, None, sample.weights)])


def _write_csv_blocks(fh, blocks) -> None:
    """Write the rows of ``(start, points, counts, weights)`` blocks as ``save_sample_csv`` does.

    ``fh`` is a binary file. A block's rows are ``points[i]`` repeated
    ``counts[i]`` times (once each when ``counts`` is None). Each row's text
    depends on that row alone, so a sample written in any split has the
    same bytes.

    The lines of ``_CSV_BLOCK_ROWS`` points at a time are formatted in
    numpy by ``_float_texts``, each distinct weight once: the shortest
    round-trip digits of a value come from exact integer arithmetic
    (``_shortest_digits``), and the few values outside that method's domain
    from ``repr``. Each value's text is laid out in one byte buffer, which
    is squeezed into the lines' bytes. A counted block's point has its line
    formatted once and written as many times as it was drawn, at most
    ``_CSV_BLOCK_ROWS`` rows per write, so memory stays bounded by the
    block size.
    """
    for _, points, counts, weights in blocks:
        for start in range(0, len(weights), _CSV_BLOCK_ROWS):
            rows = slice(start, start + _CSV_BLOCK_ROWS)
            text = _csv_rows(points[rows], weights[rows])
            if counts is None:
                fh.write(text)
                continue
            for line, count in zip(text.splitlines(keepends=True), counts[rows].tolist()):
                for done in range(0, count, _CSV_BLOCK_ROWS):
                    fh.write(line * min(count - done, _CSV_BLOCK_ROWS))


def _exact_sum(w: np.ndarray, total: int = 0) -> int:
    """``total`` plus the sum of the non-negative finite floats ``w``, exactly.

    Sums count units of 2**-1126, which divides every double: a value is a
    53-bit integer mantissa times 2**(e - 53) with e >= -1073 (``np.frexp``).
    Each block of ``_CSV_BLOCK_ROWS`` mantissas is cut into a 26-bit and a
    27-bit part, added per exponent by float64 bincounts (exact below 2**26
    values), so the sum depends on neither the order of ``w`` nor its split,
    and the scratch arrays on neither its length.
    """
    for start in range(0, len(w), _CSV_BLOCK_ROWS):
        mantissa, exponent = np.frexp(w[start:start + _CSV_BLOCK_ROWS])
        exponent += 1073
        high = np.floor(mantissa * 2.0**26)
        low = mantissa * 2.0**53 - high * 2.0**27
        high_sums = np.bincount(exponent, weights=high)
        low_sums = np.bincount(exponent, weights=low)
        for k in np.flatnonzero(high_sums + low_sums).tolist():
            total += (int(high_sums[k]) << (k + 27)) + (int(low_sums[k]) << k)
    return total


def _check_weight_total(total: int) -> None:
    """``ValueError`` unless an ``_exact_sum`` total, rounded once, is 1 within the tolerance."""
    try:
        value = total / (1 << 1126)  # int division rounds correctly
    except OverflowError:
        value = math.inf
    if abs(value - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"weights sum to {value!r}, not 1 within {WEIGHT_SUM_TOL}")


def _row_fault(points: np.ndarray, weights: np.ndarray, start: int = 0) -> str | None:
    """The first row with a non-finite value, else the first with a negative
    weight, named counting from ``start + 1``; None when every row is sound."""
    if not (np.isfinite(points).all() and np.isfinite(weights).all()):
        finite = np.isfinite(points).all(axis=1) & np.isfinite(weights)
        return f"row {start + np.argmin(finite) + 1} holds a non-finite value"
    if (weights < 0.0).any():
        row = np.argmax(weights < 0.0)
        return f"row {start + row + 1} has negative weight {float(weights[row])!r}"
    return None


def _parse_lines(lines) -> np.ndarray:
    with warnings.catch_warnings():
        # a block of blank lines parses to no rows, not to numpy's warning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(lines, delimiter=",", ndmin=2)


def _unparsed_row(path, lines, row: int, width, exc: ValueError) -> SampleError:
    """The error of the first of ``lines`` that fails alone or changes the width.

    ``row`` rows precede ``lines`` in the file, and ``width`` is their column
    count (None before the first row). ``exc``, the block's own error, is the
    fallback.
    """
    for line in lines:
        try:
            parsed = _parse_lines([line])
        except ValueError:
            return SampleError(f"cannot read sample {path}: row {row + 1} is not "
                               f"comma-separated numbers: {line.decode('latin1').strip()!r}")
        if not len(parsed):
            continue
        row += 1
        if width is not None and parsed.shape[1] != width:
            return SampleError(f"cannot read sample {path}: row {row}: expected "
                               f"{width} columns, got {parsed.shape[1]}")
        width = parsed.shape[1]
    return SampleError(f"cannot read sample {path}: {exc}")


def _read_csv_blocks(path):
    """Yield ``(start, points, None, weights)`` blocks of a sample CSV as they are read.

    The blocks have the layout of ``_sample_blocks``, each row its own.

    At most ``_CSV_BLOCK_ROWS`` lines are parsed at a time, and each block is
    checked as it arrives, in this order: its lines parse; its rows have at
    least two columns, and as many as the first block's rows; every value is
    finite; no weight is negative. Rows count from 1 at the start of the
    file; blank lines and ``#`` comments are skipped and not counted. After
    the last block, a file without rows is rejected, and then one whose
    weights, summed exactly by ``_exact_sum``, are not 1 within
    ``WEIGHT_SUM_TOL``. Every rejection is a ``SampleError``, raised before
    the generator ends, so a consumer has checked the whole file once it has
    taken every block.
    """
    try:
        # bytes lines: loadtxt decodes them itself, faster than a text reader
        fh = open(path, "rb")
    except FileNotFoundError:
        raise SampleError(f"cannot read sample {path}: {path} not found.") from None
    except OSError as exc:
        raise SampleError(f"cannot read sample {path}: {exc}") from None
    start, width, total = 0, None, 0
    with fh:
        while True:
            try:
                lines = list(islice(fh, _CSV_BLOCK_ROWS))
                if not lines:
                    break
                rows = _parse_lines(lines)
            except OSError as exc:
                raise SampleError(f"cannot read sample {path}: {exc}") from None
            except ValueError as exc:
                raise _unparsed_row(path, lines, start, width, exc) from None
            if not len(rows):
                continue
            if rows.shape[1] < 2:
                raise SampleError(f"{path}: rows need at least one coordinate and a weight")
            if width is not None and rows.shape[1] != width:
                raise SampleError(f"cannot read sample {path}: row {start + 1}: expected "
                                  f"{width} columns, got {rows.shape[1]}")
            width = rows.shape[1]
            weights = rows[:, -1]
            if fault := _row_fault(rows[:, :-1], weights, start):
                raise SampleError(f"{path}: {fault}")
            total = _exact_sum(weights, total)
            yield start, rows[:, :-1], None, weights
            start += len(rows)
    if not start:
        raise SampleError(f"{path}: the file holds no rows")
    try:
        _check_weight_total(total)
    except ValueError as exc:
        raise SampleError(f"{path}: {exc}") from None


def load_sample_csv(path) -> AttractorSample:
    """Sample from headerless ``x_1,...,x_d,weight`` rows.

    The rows are read and checked block by block by ``_read_csv_blocks``,
    which ``qdims estimate`` streams without holding the sample; here the
    blocks are joined into read-only arrays that the sample keeps as they
    are. Raises ``SampleError`` when the file cannot be read or parsed, holds
    no rows, has fewer than two columns or a changing column count, or holds
    a non-finite value, a negative weight, or weights that do not sum to 1.
    """
    points, weights = [], []
    for _, pts, _, w in _read_csv_blocks(path):
        points.append(pts)
        weights.append(w)
    return AttractorSample(points=_read_only(np.concatenate(points)),
                           weights=_read_only(np.concatenate(weights)),
                           meta={"source": str(path)})


# ---------------------------------------------------------------------------
# separation certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparationReport:
    """Separation certificate: for every depth when ``all_depths``, else
    for levels 1..``depth`` only.

    ``depth`` is the depth asked for. A verdict on boxes is conservative:
    a failed check means the boxes meet, not that the pieces do.
    """

    kind: str
    depth: int
    holds_at_depth: bool
    worst_gap_ratio: float
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None
    all_depths: bool = False


def _signed_gaps(lo1, hi1, lo2, hi2) -> np.ndarray:
    # positive: Euclidean distance between the boxes; negative: they overlap
    # on every axis by at least |value| (so the interiors intersect)
    sep = np.maximum(lo1 - hi2, lo2 - hi1)
    apart = np.maximum(sep, 0.0)
    return np.where((sep > 0.0).any(axis=-1), np.sqrt((apart * apart).sum(axis=-1)),
                    sep.max(axis=-1))


def check_separation(system, scheme, depth: int, kind: str = "ssc") -> SeparationReport:
    """Certify a separation condition on image boxes of a box that holds the attractor.

    One judge reads every level: each gap between sibling boxes is divided
    by the diameter of the hull of their parent's child boxes; ``ssc``
    needs a positive gap, and ``osc`` passes touching boxes only when the
    reference box has interior. ``worst_gap_ratio`` is the smallest ratio,
    negative for overlapping boxes, and the witness the first pair attaining
    it in (level, parent, pair) order. A failed check means the boxes meet.

    A ``letter_determined`` scheme is certified for all depths
    (``all_depths``), whatever ``depth`` asks, on invariant boxes
    (``_invariant_boxes``), one word (1, ..., 1, j) per letter of the head
    and one period. Other schemes, and those whose box map expands (some
    rotated tables), are walked down to ``depth`` on the images of the cube
    of half-width R = ``sup_norm() / (1 - contraction_bound)``, which holds
    every shifted attractor; a walked "holds" is true of levels
    1..``depth`` only. The walk makes one ``scheme.offsets`` call, on the
    deepest words in code order.

    Raises ``BranchBudgetError`` before any work when the word tree down to
    ``depth`` holds more than ``SEPARATION_WORD_CAP`` words at some level.
    """
    kind = kind.lower()
    if kind not in ("ssc", "osc"):
        raise ValueError(f"unknown separation kind {kind!r}")
    if depth < 1 or depth > MAX_DEPTH:
        raise ValueError(f"depth must lie in 1..{MAX_DEPTH}")

    fits = system.profile.depth_within(SEPARATION_WORD_CAP, depth)
    if fits < depth:
        level = fits + 1
        total = math.prod(system.profile.size(k) for k in range(1, level + 1))
        raise BranchBudgetError(f"separation check needs {total} words at depth {level}, "
                                f"over budget {SEPARATION_WORD_CAP}")

    found = (_invariant_boxes(system, scheme)
             if getattr(scheme, "letter_determined", False) else None)
    if found is not None:
        levels, interior = found
    else:
        radius = _attractor_radius(system, scheme)
        levels, interior = _walk_boxes(system, scheme, depth, radius), radius > 0.0
    holds, worst_ratio, (k, parent, pair) = _judge(levels, system.ambient_dim, kind, interior)
    sizes = [system.profile.size(j) for j in range(1, k + 2)]
    codes = parent * sizes[-1] + np.array(pair)
    return SeparationReport(
        kind=kind,
        depth=depth,
        holds_at_depth=holds,
        worst_gap_ratio=float(worst_ratio),
        witness=tuple(tuple(word) for word in _code_letters(codes, sizes).tolist()),
        all_depths=found is not None,
    )


def _attractor_radius(system, scheme) -> float:
    """R = sup|o| / (1 - a), a bound on the norm of every point of every
    shifted attractor: a series of offsets under products of norm <= a^j."""
    return scheme.sup_norm() / (1.0 - system.contraction_bound)


@functools.cache
def _sibling_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j of n siblings, made once per n: ``np.triu_indices``
    takes longer than judging a small level."""
    return tuple(_read_only(x) for x in np.triu_indices(n, 1))


def _hull_diameters(U: np.ndarray, d: int) -> np.ndarray:
    """``(parents, 1)`` diameters of the hulls of each parent's child boxes,
    inf for a hull of diameter 0: its images are one point, with gaps 0."""
    # the children's elementwise max; numpy's max over axis 1 of a (parents,
    # n, 2d) stack is several times slower for small n
    hull = functools.reduce(np.maximum, U.transpose(1, 0, 2))
    diam = np.sqrt(np.square(hull[:, :d] + hull[:, d:]).sum(axis=1, keepdims=True))
    return np.where(diam > 0.0, diam, np.inf)


def _judge(levels, d: int, kind: str, interior: bool):
    """``(holds, worst_ratio, (level, parent, (i, j)))`` of ``check_separation``
    on ``levels``, one ``(parents, n, 2d)`` array per level from level 1 (0
    here): the boxes [lo, hi] of each parent's n children, as (-lo, hi).
    ``interior``: the reference box has interior."""
    touching_ok = kind == "osc" and interior
    holds, worst_ratio, at = True, np.inf, None
    for k, U in enumerate(levels):
        i, j = _sibling_pairs(U.shape[1])
        gaps = _signed_gaps(-U[:, i, :d], U[:, i, d:], -U[:, j, :d], U[:, j, d:])
        ratios = gaps / _hull_diameters(U, d)
        first = int(np.argmin(ratios))
        if ratios.flat[first] < worst_ratio:
            worst_ratio = ratios.flat[first]
            parent, pair = divmod(first, len(i))
            at = (k, parent, (int(i[pair]), int(j[pair])))
        if (gaps < 0.0 if touching_ok else gaps <= 0.0).any():
            holds = False
    return holds, worst_ratio, at


# most policy rounds, and widening passes, before the box certificate gives
# up; the solved box can miss its float hulls by an ulp, and closing that
# took up to 8 passes on random contracting tables, while an expanding box
# map never closes
_POLICY_ROUNDS = 64
_WIDEN_ROUNDS = 16


def _invariant_boxes(system, scheme):
    """``(levels, interior)`` for ``_judge``, or None when no invariant box is found.

    ``levels`` holds one ``(1, n_k, 2d)`` array of images f_kj(B_{k+1}) per
    level of the head and one period. Boxes with f_kj(B_{k+1}) inside B_k
    hold the level-k attractor (Hutchinson, Indiana Univ. Math. J. 30,
    1981), so disjoint sibling images keep cylinders apart at every depth.
    ``interior``: the tail box has positive width on every axis.

    A box [lo, hi] is the vector v = (-lo, hi), on which the image box
    under the map x -> A x + o is G v + c, with G = [[A+, A-], [A-, A+]]
    >= 0 (A = A+ - A-) and c = (-o, o). The hull of a level's image boxes
    is their componentwise max. The tail box is the fixed point of one
    period of hulls: each component's maximizing map is a policy, the
    policy's fixed point is one linear solve, and the policy is improved
    until no map beats it there (Howard's policy iteration), starting from
    the policy on the cube of half-width ``sup_norm / (1 - contraction_bound)``.
    The boxes are then checked, not trusted: the period's hulls, computed
    in floats from the tail box, must lie inside it, and it is widened by
    their hull up to ``_WIDEN_ROUNDS`` times. Head boxes are the hulls of
    their images.
    """
    head, period = system.cycle
    levels = head + period
    d = system.ambient_dim
    G, c = [], []
    for k, offsets in enumerate(_letter_tables(system, scheme, levels), 1):
        A = system.linear_maps(k)
        Ap, Am = np.maximum(A, 0.0), np.maximum(-A, 0.0)
        G.append(np.concatenate([np.concatenate([Ap, Am], axis=2),
                                 np.concatenate([Am, Ap], axis=2)], axis=1))
        c.append(np.concatenate([-offsets, offsets], axis=1))

    rows = np.arange(2 * d)
    tail = range(levels - 1, head - 1, -1)  # 0-based levels, deepest first
    # the first policy is the hull's on the cube of half-width R, which
    # holds every level's attractor
    cube = np.full(2 * d, _attractor_radius(system, scheme))
    policy = {k: (G[k] @ cube + c[k]).argmax(axis=0) for k in tail}
    for _ in range(_POLICY_ROUNDS):
        Q, r = np.eye(2 * d), np.zeros(2 * d)
        for k in tail:
            L = G[k][policy[k], rows]
            r = L @ r + c[k][policy[k], rows]
            Q = L @ Q
        try:
            v = np.linalg.solve(np.eye(2 * d) - Q, r)
        except np.linalg.LinAlgError:
            return None
        stable, w = True, v
        for k in tail:
            U = G[k] @ w + c[k]
            w = U[policy[k], rows]
            better = U.max(axis=0) > w
            if better.any():
                stable = False
                policy[k] = np.where(better, U.argmax(axis=0), policy[k])
        if stable:
            break

    images = [None] * levels
    for _ in range(_WIDEN_ROUNDS):
        # a box of negative width would be empty, and hold no attractor
        if not (np.isfinite(v).all() and (v[:d] + v[d:] >= 0.0).all()):
            return None
        w = v
        for k in tail:
            images[k] = U = G[k] @ w + c[k]
            w = U.max(axis=0)
        if (w <= v).all():
            break
        v = np.maximum(v, w)
    else:
        return None
    w = v
    for k in reversed(range(head)):
        images[k] = U = G[k] @ w + c[k]
        w = U.max(axis=0)
    return [U[None] for U in images], bool((v[:d] + v[d:] > 0.0).all())


def _letter_tables(system, scheme, levels: int) -> list[np.ndarray]:
    """Offsets of the words (1, ..., 1, j) of levels 1..levels, one (n_k, d) table each."""
    sizes = [system.profile.size(k) for k in range(1, levels + 1)]
    starts = np.cumsum([0] + sizes).tolist()
    letters = np.ones((starts[-1], levels), dtype=np.min_scalar_type(max(sizes)))
    for k, n in enumerate(sizes):
        letters[starts[k]:starts[k + 1], k] = np.arange(1, n + 1)
    return [offsets[starts[k]:starts[k + 1]] for k, offsets in
            enumerate(_checked_offsets(scheme, letters, system.ambient_dim))]


def _walk_boxes(system, scheme, depth: int, radius: float):
    """Boxes t -+ radius |M| 1 of the images of the cube [-radius, radius]^d
    under each word's map x -> M x + t, as one ``(parents, n_k, 2d)`` array
    of vectors (-lo, hi) per level 1..``depth``."""
    d = system.ambient_dim
    sizes = [system.profile.size(k) for k in range(1, depth + 1)]
    words = np.cumprod([1] + sizes)
    # the deepest words in code order
    letters = _code_letters(np.arange(words[-1]), sizes)
    # the map x -> M x + t of every word of the current level, in word order
    M = np.eye(d)[None]
    t = np.zeros((1, d))
    for k, offsets in enumerate(_checked_offsets(scheme, letters, d)):
        n, parents = sizes[k], words[k]
        fan = words[-1] // words[k + 1]
        # word w of this level reads row w * fan, its first descendant; the
        # copy is contiguous, since numpy's `@` may pick another kernel, with
        # other rounding, for strided operands
        offsets = np.ascontiguousarray(offsets[::fan])
        M = np.repeat(M, n, axis=0)
        t = np.repeat(t, n, axis=0) + (M @ offsets[:, :, None])[:, :, 0]
        M = M @ np.tile(system.linear_maps(k + 1), (parents, 1, 1))
        yield (np.stack([-t, t], axis=1)
               + radius * np.abs(M).sum(axis=2)[:, None]).reshape(parents, n, 2 * d)
