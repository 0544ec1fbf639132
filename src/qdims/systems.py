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

import csv
import dataclasses
from dataclasses import dataclass, field
from itertools import product as _iter_product

import numpy as np

from .codespace import (
    DEFAULT_MAX_DEPTH,
    BernoulliMeasure,
    BranchingProfile,
    LevelSchedule,
    Word,
)
from .errors import BranchBudgetError, IncompleteSchemeError
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


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


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
        self.profile = BranchingProfile(
            head=tuple(len(v) for v in self._ratios.head),
            tail=tuple(len(v) for v in self._ratios.tail),
            max_depth=self.max_depth,
        )
        self._log_ratios = LevelSchedule(
            head=tuple(_read_only(np.log(v)) for v in self._ratios.head),
            tail=tuple(_read_only(np.log(v)) for v in self._ratios.tail),
        )

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

    def ratio_product(self, word: Word) -> float:
        """Cumulative contraction ratio c_u along the word."""
        self.profile.validate_letters(word.letters)
        out = 1.0
        for k, letter in enumerate(word.letters, start=1):
            out *= float(self.ratios_at(k)[letter - 1])
        return out

    def linear_maps(self, k: int) -> np.ndarray:
        """Stack of d x d linear parts for level k."""
        c = self.ratios_at(k)
        d = self.ambient_dim
        if self._rotations is None:
            return c[:, None, None] * np.eye(d)[None, :, :]
        return c[:, None, None] * self._rotations.at(k)

    @property
    def matrix_schedule(self) -> LevelSchedule:
        # materialized on demand; only used by envelope-style inspection
        levels = len(self._ratios.head)
        tail_len = len(self._ratios.tail)
        head = tuple(self.linear_maps(k) for k in range(1, levels + 1))
        tail = tuple(self.linear_maps(levels + 1 + i) for i in range(tail_len))
        return LevelSchedule(head=head, tail=tail)

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
        self.profile = BranchingProfile(
            head=tuple(len(m) for m in self._matrices.head),
            tail=tuple(len(m) for m in self._matrices.tail),
            max_depth=self.max_depth,
        )

    kind = "affine"

    @property
    def matrix_schedule(self) -> LevelSchedule:
        return self._matrices

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


def _mix64(x):
    with np.errstate(over="ignore"):
        x = np.asarray(x, dtype=np.uint64)
        x = (x + _GOLDEN).astype(np.uint64)
        x ^= x >> np.uint64(30)
        x = (x * _MIX1).astype(np.uint64)
        x ^= x >> np.uint64(27)
        x = (x * _MIX2).astype(np.uint64)
        x ^= x >> np.uint64(31)
    return x


def _unit_float(x) -> np.ndarray:
    return (np.asarray(x, dtype=np.uint64) >> np.uint64(11)).astype(np.float64) * 2.0**-53


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
        for j in range(1, letters.shape[1] + 1):
            yield np.stack([self.translation(tuple(row[:j])) for row in letters])

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
        # chain state before the final mix
        state = np.full(len(letters), _mix64(np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF)),
                        dtype=np.uint64)
        with np.errstate(over="ignore"):
            salts = np.arange(1, self.dim + 1, dtype=np.uint64) * _AXIS_SALT
        span = self.high - self.low
        for col in letters.T:
            state = _mix64(state ^ (col.astype(np.uint64) * _LETTER_SALT))
            yield self.low + _unit_float(_mix64(state[:, None] + salts)) * span

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

    def _indices(self, letters: np.ndarray, j: int) -> np.ndarray:
        """0-based vector index of every row's length-``j`` prefix."""
        idx = (letters[:, j - 1] - 1) % self.tau
        for key, hit in (self.assignment or {}).items():
            if len(key) == j:
                idx[(letters[:, :j] == key).all(axis=1)] = hit - 1
        return idx

    def offsets(self, letters: np.ndarray):
        for j in range(1, letters.shape[1] + 1):
            yield self.vectors[self._indices(letters, j)]

    def translation(self, prefix: tuple[int, ...]) -> np.ndarray:
        return self.vectors[self._indices(np.asarray([prefix]), len(prefix))[0]]

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
    """Weighted point cloud standing in for the projected measure."""

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
        if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {w.sum()!r}, not 1 within {WEIGHT_SUM_TOL}")
        object.__setattr__(self, "points", _read_only(pts.copy()))
        object.__setattr__(self, "weights", _read_only(w.copy()))

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    def __len__(self):
        return len(self.points)


def _draw_letters(measure: BernoulliMeasure, count: int, depth: int,
                  rng: np.random.Generator) -> np.ndarray:
    letters = np.empty((count, depth), dtype=np.int64)
    for k in range(1, depth + 1):
        p = measure.probs(k)
        letters[:, k - 1] = rng.choice(len(p), size=count, p=p) + 1
    return letters


def sample_measure(system, scheme, measure: BernoulliMeasure, count: int,
                   depth: int | None = None, seed: int = 0,
                   target_resolution: float | None = None) -> AttractorSample:
    """Monte Carlo sample of the projected measure.

    Draws ``count`` i.i.d. addresses from the Bernoulli measure (letter j at
    level k with probability p_{k,j}) and projects each through ``depth``
    series terms. Identical (seed, parameters) produce bit-identical output.
    A depth too shallow for ``target_resolution`` sets a warning flag in the
    metadata instead of failing.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if not measure.profile().matches(system.profile, depth=system.max_depth):
        raise ValueError("measure branching does not match the system")
    resolution = target_resolution if target_resolution is not None else 2.0**-12
    if depth is None:
        depth = default_sampling_depth(system, scheme, resolution)
    rng = np.random.default_rng(seed)
    letters = _draw_letters(measure, count, depth, rng)

    d = system.ambient_dim
    x = np.zeros((count, d))

    scalar_path = system.kind == "similar" and not system.has_rotations
    if scalar_path:
        scale = np.ones(count)
        for j, offs in enumerate(scheme.offsets(letters), start=1):
            x += scale[:, None] * offs
            if j < depth:
                scale *= system.ratios_at(j)[letters[:, j - 1] - 1]
    else:
        M = np.broadcast_to(np.eye(d), (count, d, d)).copy()
        for j, offs in enumerate(scheme.offsets(letters), start=1):
            x += np.einsum("nij,nj->ni", M, offs)
            if j < depth:
                maps = system.linear_maps(j)[letters[:, j - 1] - 1]
                M = np.einsum("nij,njk->nik", M, maps)

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
    weights = np.full(count, 1.0 / count)
    return AttractorSample(points=x, weights=weights, meta=meta)


def save_sample_csv(sample: AttractorSample, path) -> None:
    """Headerless rows x_1,...,x_d,weight in canonical (generation) order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for pt, w in zip(sample.points, sample.weights):
            writer.writerow([repr(float(v)) for v in pt] + [repr(float(w))])


def load_sample_csv(path) -> AttractorSample:
    rows = np.loadtxt(path, delimiter=",", ndmin=2)
    if rows.shape[1] < 2:
        raise ValueError("sample rows need at least one coordinate and a weight")
    return AttractorSample(points=rows[:, :-1], weights=rows[:, -1],
                           meta={"source": str(path)})


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


def _box_of(M: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # image of the unit cube under x -> M x + t, as an axis-aligned box
    lo = t + np.minimum(M, 0.0).sum(axis=1)
    hi = t + np.maximum(M, 0.0).sum(axis=1)
    return lo, hi


def _parallelepiped_diameter(M: np.ndarray) -> float:
    d = M.shape[0]
    best = 0.0
    for signs in _iter_product((-1.0, 1.0), repeat=d - 1):
        v = M[:, 0] + sum(s * M[:, j + 1] for j, s in enumerate(signs))
        best = max(best, float(np.linalg.norm(v)))
    return best


def _signed_gap(lo1, hi1, lo2, hi2) -> float:
    # positive: Euclidean distance between the boxes; negative: they overlap
    # on every axis by at least |value| (so the interiors intersect)
    sep = np.maximum(lo1 - hi2, lo2 - hi1)
    if np.any(sep > 0.0):
        return float(np.linalg.norm(np.maximum(sep, 0.0)))
    return float(sep.max())


def check_separation(system, scheme, depth: int, kind: str = "ssc",
                     budget: int = 200_000) -> SeparationReport:
    """Certify a separation condition on the basic sets down to ``depth``.

    Basic sets are tracked as images of the unit reference cube; affine
    images use their axis-aligned bounding boxes, so a "holds" verdict for
    rotated systems is conservative. Strong separation needs sibling sets
    pairwise disjoint, the open-set variant allows touching, and the gap
    variant reports the worst sibling gap relative to the parent diameter.
    """
    kind = kind.lower()
    if kind not in ("ssc", "osc", "gsc"):
        raise ValueError(f"unknown separation kind {kind!r}")
    if depth < 1 or depth > system.max_depth:
        raise ValueError(f"depth must lie in 1..{system.max_depth}")

    d = system.ambient_dim
    holds = True
    worst_ratio = np.inf
    witness = None

    parents: list[tuple[tuple[int, ...], np.ndarray, np.ndarray]] = [
        ((), np.eye(d), np.zeros(d))
    ]
    total = 1
    for level in range(1, depth + 1):
        maps = system.linear_maps(level)
        n = len(maps)
        total *= n
        if total > budget:
            raise BranchBudgetError(
                f"separation check needs {total} words at depth {level}, over budget {budget}"
            )
        children: list[tuple[tuple[int, ...], np.ndarray, np.ndarray]] = []
        for letters, M, t in parents:
            parent_diam = _parallelepiped_diameter(M)
            boxes = []
            for j in range(1, n + 1):
                offset = np.asarray(scheme.translation(letters + (j,)), dtype=float)
                t_child = t + M @ offset
                M_child = M @ maps[j - 1]
                boxes.append((letters + (j,), M_child, t_child))
            children.extend(boxes)
            for i in range(n):
                for j in range(i + 1, n):
                    li, hi_ = _box_of(boxes[i][1], boxes[i][2])
                    lj, hj = _box_of(boxes[j][1], boxes[j][2])
                    gap = _signed_gap(li, hi_, lj, hj)
                    ratio = gap / parent_diam if parent_diam > 0 else np.inf
                    if ratio < worst_ratio:
                        worst_ratio = ratio
                        witness = (Word(boxes[i][0]), Word(boxes[j][0]))
                    if kind == "ssc" and gap <= 0.0:
                        holds = False
                    elif kind == "osc" and gap < 0.0:
                        holds = False
                    elif kind == "gsc" and gap <= 0.0:
                        holds = False
        parents = children

    return SeparationReport(
        kind=kind,
        depth=depth,
        holds_at_depth=holds,
        worst_gap_ratio=float(worst_ratio),
        witness=witness,
    )
