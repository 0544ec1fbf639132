"""Symbolic address space for level-varying contraction systems.

Addresses are finite words over a tree whose branching count may change from
level to level. Per-level data are ``LevelSchedule``s (a head, then a cycling
tail); a ``BranchingProfile`` is the schedule of the branching counts. Per-level
probability vectors give a Bernoulli measure on infinite addresses, and
``scale_cut_set_masses`` lists the scale cut sets of per-level contraction
ratios as arrays of log ratios and log masses, at most ``MAX_DEPTH`` levels deep.

All types here are immutable after construction and all operations are pure,
so they are safe to share across worker threads or processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import BranchBudgetError, DepthCapError

__all__ = [
    "PROB_SUM_TOL",
    "Q_ONE_TOL",
    "TIE_TOL",
    "MAX_DEPTH",
    "LevelSchedule",
    "BranchingProfile",
    "BernoulliMeasure",
    "scale_cut_set_masses",
]

PROB_SUM_TOL = 1e-12
# |q - 1| under which the (1-q) exponents degenerate: the theory, the claim
# and the estimator all take their entropy forms there
Q_ONE_TOL = 1e-6
# relative gap under which a cumulative ratio counts as tied with the scale
TIE_TOL = 1e-12

# The deepest level any enumeration reaches: with ratios capped at 0.99, scales
# near 0.99**64; anything finer should fail loudly rather than spin.
MAX_DEPTH = 64


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _read_only_vector(entry) -> np.ndarray:
    arr = np.array(entry, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("level entry must be a nonempty 1-D vector")
    return _read_only(arr)


@dataclass(frozen=True)
class LevelSchedule:
    """Per-level data: an explicit head followed by a cycling tail.

    Level ``k`` (1-based) resolves to ``head[k-1]`` while ``k <= len(head)``
    and then repeats the tail pattern forever. By default the tail is the
    head itself, so a single-entry schedule describes a stationary system.
    """

    head: tuple
    tail: tuple

    @classmethod
    def build(cls, head, tail=None, coerce: Callable = _read_only_vector) -> "LevelSchedule":
        head_t = tuple(coerce(e) for e in head)
        tail_t = head_t if tail is None else tuple(coerce(e) for e in tail)
        if not head_t or not tail_t:
            raise ValueError("schedule needs at least one head and one tail entry")
        return cls(head=head_t, tail=tail_t)

    def map(self, fn: Callable) -> "LevelSchedule":
        """The schedule of ``fn(entry)``, level for level."""
        return LevelSchedule(head=tuple(fn(e) for e in self.head),
                             tail=tuple(fn(e) for e in self.tail))

    def at(self, k: int) -> np.ndarray:
        """Entry for 1-based level ``k``."""
        if k < 1:
            raise ValueError(f"levels are 1-based, got {k}")
        if k <= len(self.head):
            return self.head[k - 1]
        return self.tail[(k - len(self.head) - 1) % len(self.tail)]

    def distinct_entries(self) -> Iterator[np.ndarray]:
        yield from self.head
        yield from self.tail

    @property
    def cycle(self) -> tuple[int, int]:
        """``(h, p)``: level k + p has the entry of level k for every k > h.

        h is 0 when the tail is the head itself, as ``build`` makes it by default.
        """
        return (0 if self.tail is self.head else len(self.head)), len(self.tail)

    @property
    def stationary(self) -> bool:
        first = self.head[0]
        return all(np.array_equal(e, first) for e in self.distinct_entries())


def _branch_count(n) -> int:
    """``n`` as an int; ``ValueError`` unless it is an integer >= 2."""
    if int(n) != n or n < 2:
        raise ValueError(f"branching counts must be integers >= 2, got {n}")
    return int(n)


class BranchingProfile(LevelSchedule):
    """Branching counts ``n_k >= 2`` per level: a level schedule of sizes.

    ``from_sizes`` builds one and rejects any other count.
    """

    @classmethod
    def from_sizes(cls, sizes: Sequence[int],
                   tail: Sequence[int] | None = None) -> "BranchingProfile":
        return cls.build(sizes, tail, coerce=_branch_count)

    size = LevelSchedule.at

    def matches(self, other: "BranchingProfile") -> bool:
        """Same branching count at every level: past both heads the counts are
        periodic with the tail lengths a and b, so agreeing on the first
        ``max(len(heads)) + a + b`` levels is agreeing forever (Fine and Wilf,
        Proc. AMS 16, 1965)."""
        depth = max(len(self.head), len(other.head)) + len(self.tail) + len(other.tail)
        return all(self.at(k) == other.at(k) for k in range(1, depth + 1))

    def depth_within(self, budget: int, limit: int | None = None) -> int:
        """Deepest level whose full word tree holds at most ``budget`` words.

        The result never exceeds ``MAX_DEPTH``, nor ``limit`` when given; it
        is 0 when even the first level is over budget.
        """
        limit = MAX_DEPTH if limit is None else min(limit, MAX_DEPTH)
        depth, total = 0, 1
        while depth < limit:
            total *= self.at(depth + 1)
            if total > budget:
                break
            depth += 1
        return depth


class BernoulliMeasure:
    """Product measure on infinite addresses from per-level probability vectors.

    The mass of the cylinder of ``u = u_1...u_k`` is the product of the
    letter probabilities ``p_{1,u_1} * ... * p_{k,u_k}``. Vectors must sum to
    one and carry strictly positive entries; zero-mass branches would make
    q < 1 moment sums and entropy sums undefined downstream, so they are
    rejected here rather than special-cased later.
    """

    def __init__(self, vectors, tail=None):
        schedule = LevelSchedule.build(vectors, tail)
        for vec in schedule.distinct_entries():
            if np.any(vec <= 0.0):
                raise ValueError("probability vectors must be strictly positive")
            if abs(float(vec.sum()) - 1.0) > PROB_SUM_TOL:
                raise ValueError(
                    f"probability vector sums to {float(vec.sum())!r}, not 1 within {PROB_SUM_TOL}"
                )
        self._schedule = schedule
        self._logs = schedule.map(lambda v: _read_only(np.log(v)))
        self.profile = BranchingProfile.from_sizes(map(len, schedule.head),
                                                   map(len, schedule.tail))

    @property
    def stationary(self) -> bool:
        return self._schedule.stationary

    def probs(self, k: int) -> np.ndarray:
        return self._schedule.at(k)

    def log_probs(self, k: int) -> np.ndarray:
        return self._logs.at(k)

    def __repr__(self):
        return f"BernoulliMeasure(levels={len(self._schedule.head)}, stationary={self.stationary})"


def scale_cut_set_masses(ratios: LevelSchedule, measure: BernoulliMeasure,
                         r: float, budget: int = 4_000_000) -> tuple[np.ndarray, np.ndarray]:
    """Scale cut set at ``r`` as arrays ``(log c_u, log p_u)``, one entry per word.

    A word ``u`` belongs to the cut set exactly when ``c_u <= r < c_parent``,
    with ``c_u`` the product of per-letter ratios along ``u`` and ``p_u`` its
    cylinder mass. Ties ``c_u == r`` include the word; a relative gap under
    ``TIE_TOL`` counts as a tie, so rounding in the log sums cannot split
    one. Every member then satisfies ``c_min * r < c_u <= r`` (up to that
    tie tolerance), where ``c_min`` is the smallest ratio in play. Words are
    never materialized, which keeps moment-sum evaluation cheap for fine
    scales; the order is level-major and deterministic.

    Raises ``DepthCapError`` if a branch stays above ``r`` beyond
    ``MAX_DEPTH`` levels and ``BranchBudgetError`` if the cut set together
    with the open frontier exceeds ``budget`` words.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie in (0, 1), got {r}")
    log_r = np.log(r)
    done_c: list[np.ndarray] = []
    done_p: list[np.ndarray] = []
    front_c = np.zeros(1)
    front_p = np.zeros(1)
    total = 0
    for level in range(1, MAX_DEPTH + 1):
        lc = np.log(ratios.at(level))
        lp = measure.log_probs(level)
        if len(lc) != len(lp):
            raise ValueError(f"ratio/probability vectors disagree at level {level}: "
                             f"{len(lc)} vs {len(lp)} entries")
        child_c = (front_c[:, None] + lc[None, :]).ravel()
        child_p = (front_p[:, None] + lp[None, :]).ravel()
        hit = child_c <= log_r + TIE_TOL
        done_c.append(child_c[hit])
        done_p.append(child_p[hit])
        total += int(hit.sum())
        front_c = child_c[~hit]
        front_p = child_p[~hit]
        if total + front_c.size > budget:
            raise BranchBudgetError(
                f"cut set at r={r} exceeds the word budget of {budget}"
            )
        if front_c.size == 0:
            return np.concatenate(done_c), np.concatenate(done_p)
    raise DepthCapError(
        f"cut-set expansion passed {MAX_DEPTH} levels at r={r}",
        depth=MAX_DEPTH,
    )
