"""Critical exponents of moment sums over the address tree.

For a level-varying similarity system with a Bernoulli measure, the moment
sums over scale cut sets switch from bounded to unbounded at a critical
exponent; that exponent (one per moment order q) is the theoretical value of
the generalized q-dimension of the projected measure under the separation
conditions certified elsewhere. This module computes those exponents three
ways: exactly for every similarity table, as the root of one period's log
moment sum (``product_dimension``; ``stationary_dimension`` is its one-level
case), by truncated cut-set limits, and, for affine tables, by one level-sum
solver built on the singular value function, whose stationary case is the
only affine case that admits q = 1.

Every solver finds the root of an increasing function of s built from moment
sums, and they share one core: ``_moment_sums`` evaluates the moment sums
(or at q = 1 their entropy form) of word groups at once, one group per
distinct level of a similarity period, per cut-set scale, per kept affine
level or per affine level's letters, each word entering as the prefix sums
of its log singular values (a similarity ratio c is the one row ``log c``);
``_root_of_increasing`` closes a sign-change bracket by Illinois and Dekker
steps, to adjacent floats at ``xtol=0``, probing s = 1 first and s = 0 only
when the root lies below it; ``_level_spectra`` enumerates the affine
words, whose level sums are needed only for 0 < s < d: at s = 0 and s >= d
they are products of per-level letter sums (``_product_level_sums``).

The affine spectra do not depend on q, so every q of one table reuses one
exhaustive build: ``_shared_level_spectra`` keeps the last one, read-only, in
a module-level slot keyed on the system and measure objects (``is``), the
depth and the first kept level. A build for another key frees it first, and
``_release_level_spectra`` frees it before and after the harness's q loop,
which ``compare`` and ``qdims theory`` share. ``_moment_sums`` reads every
word straight from the spectra at each evaluation and keeps no per-word copy,
so past the spectra a solve holds one level of scratch, one block and the
packed small levels.

Boundedness of a limsup/liminf cannot be decided numerically, so the
truncated solvers (cut set and affine) substitute the sign of the growth
trend over a trailing window of scales or levels and report the sign-change
bracket they reach; stationary inputs make the trend exact, hence their far
tighter tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .codespace import BernoulliMeasure, scale_cut_set_masses
from .errors import BranchBudgetError, IndeterminateTrendError, InsufficientScalesError
# svf_log is re-exported: the benchmark's trace sites reach it as qdims.theory.svf_log
from .singular import batched_log_singular_values, log_singular_prefix, svf_log  # noqa: F401
from .systems import AffineSystem, SimilarSystem

__all__ = [
    "Q_ONE_TOL",
    "CriticalExponents",
    "stationary_dimension",
    "product_dimension",
    "cutset_dimension",
    "affine_series_dimension",
    "clamp_dimension",
]

# the (1-q) exponents degenerate near q = 1; route to the entropy forms there
Q_ONE_TOL = 1e-6

XTOL_STATIONARY = 1e-6
XTOL_TRUNCATED = 1e-3

# words in the deepest level an affine solve enumerates; a deeper depth is refused
ENUMERATION_CAP = 2**20

# words in the cut set of one scale of a cut-set solve; the default grid stops below it
CUTSET_WORD_CAP = 250_000
# the default cut-set grid: at most this many scales, each this factor below the last
CUTSET_SCALES = 12
CUTSET_SHRINK = 0.55

# words in the deepest level of one block of _level_spectra
_BLOCK_WORDS = 2**16

# words per block of a _moment_sums evaluation; groups of at most one block are packed
_SUM_BLOCK = 2**15


@dataclass(frozen=True)
class CriticalExponents:
    """Lower/upper critical exponents for one moment order q.

    ``lower`` and ``upper`` are the estimates for the lower and upper
    exponents; the method tag records which solver produced them and the
    diagnostics carry levels, depths and brackets.
    """

    q: float
    lower: float
    upper: float
    method: str
    diagnostics: dict = field(default_factory=dict)

    @property
    def value(self) -> float:
        return 0.5 * (self.lower + self.upper)


def clamp_dimension(value: float, ambient_dim: int) -> float:
    """Dimensions of projected measures never exceed the ambient dimension."""
    return min(float(value), float(ambient_dim))


# ---------------------------------------------------------------------------
# similarity tables: the root of one period
# ---------------------------------------------------------------------------


def _period_root(levels, q: float) -> float:
    """Critical exponent of a similarity table from the ``(ratios, probs)`` of
    one period of its levels: the root of ``Phi(d) = sum_k log sum_j
    c_kj**(d (1-q)) p_kj**q``, or ``sum p log p / sum p log c`` at q = 1.

    Past a finite head the level-k product sum is a fixed factor times whole
    periods, so the sign of ``Phi`` decides boundedness exactly. Each distinct
    level is summed once, weighted by its count over the gcd of the counts
    (a period that spells out a shorter one gives the same bits), and ``Phi``
    is solved to adjacent floats under twice the bound ``sum_k log sum
    p_k**q / ((q-1) sum_k log c_max,k)``, which every root obeys.
    """
    if not 0 < q < np.inf:
        raise ValueError(f"q must be positive and finite, got {q}")
    distinct = {}
    for ck, pk in levels:
        distinct.setdefault((ck.tobytes(), pk.tobytes()), [ck, pk, 0])[2] += 1
    c, p, counts = zip(*distinct.values())
    w = np.array(counts) / np.gcd.reduce(counts)
    log_c, log_p = [np.log(ck) for ck in c], [np.log(pk) for pk in p]
    if abs(q - 1.0) < Q_ONE_TOL:
        return float((w @ [pk @ lp for pk, lp in zip(p, log_p)])
                     / (w @ [pk @ lc for pk, lc in zip(p, log_c)]))
    sums = _moment_sums([(lc[None], lp) for lc, lp in zip(log_c, log_p)], q)
    sign = 1.0 if q > 1.0 else -1.0
    bound = ((w @ [np.log(np.sum(pk**q)) for pk in p])
             / ((q - 1.0) * (w @ [lc.max() for lc in log_c])))
    root, _ = _root_of_increasing(lambda d: sign * float(w @ sums(d)), xtol=0.0,
                                  cap=2.0 * max(1.0, float(bound)))
    return root


def stationary_dimension(ratios, probs, q: float) -> float:
    """Critical exponent for one repeated similarity level: the period root
    (``_period_root``) of a period of one level."""
    c = np.asarray(ratios, dtype=float)
    p = np.asarray(probs, dtype=float)
    if c.shape != p.shape or c.ndim != 1:
        raise ValueError("ratios and probs must be 1-D vectors of equal length")
    if np.any(c <= 0) or np.any(c >= 1):
        raise ValueError("ratios must lie strictly in (0, 1)")
    if np.any(p <= 0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("probs must be strictly positive and sum to 1")
    return _period_root([(c, p)], q)


def product_dimension(system: SimilarSystem, measure: BernoulliMeasure,
                      q: float) -> CriticalExponents:
    """Critical exponents of a similarity table, exact: the root of one period.

    Past both heads the ratio and probability schedules repeat together with
    the lcm of their tail lengths; the levels of that one period go to
    ``_period_root``, and the lower and upper exponents are both its root.
    """
    if not measure.profile.matches(system.profile):
        raise ValueError("measure branching does not match the system")
    first = max(len(system.profile.head), len(measure.profile.head)) + 1
    period = math.lcm(len(system.profile.tail), len(measure.profile.tail))
    root = _period_root([(system.ratios_at(k), measure.probs(k))
                         for k in range(first, first + period)], q)
    return CriticalExponents(q=q, lower=root, upper=root, method="closed-form",
                             diagnostics={"levels": (first, first + period - 1)})


# ---------------------------------------------------------------------------
# shared core: trends, root finding, similarity moment sums
# ---------------------------------------------------------------------------


def _envelope_trend(values: np.ndarray, mode: str) -> float:
    """Growth trend of the upper/lower envelope over the trailing window.

    The sum is classified as bounded when its envelope sets no new extreme
    across the later half of the window; the signed trend is the difference
    of the window-half extremes. ``values`` holds at least two entries.
    """
    v = np.asarray(values, dtype=float)
    window = v[len(v) // 2 :] if len(v) >= 8 else v
    h = len(window) // 2
    first, second = window[:h], window[h:]
    agg = np.max if mode == "limsup" else np.min
    return float(agg(second) - agg(first))


def _root_of_increasing(f, xtol: float, cap: float = 512.0):
    """Root of a continuous increasing function on s >= 0, with its bracket.

    Probes s = 1 first and doubles ``hi`` (``lo`` follows) until f turns
    positive. Only if f(1) > 0 is 0 probed, as ``lo``, and f(0) >= 0
    returns 0 with the bracket ``(0, 0)``; an increasing f is at most 0 on
    [0, 1] when f(1) <= 0, so a root past 1 costs no probe at 0. It
    then closes the bracket ``f(lo) <= 0 < f(hi)`` by Illinois steps (Dowell and
    Jarratt, BIT 11, 1971) aimed ``xtol/2`` beyond the estimate, away from the
    end that moved last, and held that far inside (one float spacing at
    ``xtol=0``), so the far end closes. Two steps that fail to halve the
    bracket are followed by Dekker's secant through the last two points if
    both moved the same end, else by a plain halving; so is any step that
    could end more than two evaluations behind plain bisection. Stops at
    width ``xtol`` or adjacent floats.
    """
    hi = 1.0
    if (f_hi := f(hi)) > 0.0:
        lo, f_lo = 0.0, f(0.0)
        if f_lo >= 0.0:
            return 0.0, (0.0, 0.0)
    while f_hi <= 0.0:
        lo, f_lo, hi = hi, f_hi, 2.0 * hi
        if hi > cap:
            raise IndeterminateTrendError(
                f"f <= 0 at every probe up to s = {lo:g} and the next doubling passes "
                f"the cap {cap:g}: no sign change bracketed in [0, {cap:g}]",
                bracket_lower=lo, bracket_upper=cap)
        f_hi = f(hi)
    # free steps while the bracket is at most twice what bisection would have
    # left (xtol times a power of two at xtol > 0); prev is the previous point
    # of the end that moved last, if it moved twice running (hi moved last)
    budget = 2.0 * (xtol * 2.0 ** np.ceil(np.log2((hi - lo) / xtol)) if xtol else hi - lo)
    side, fails, prev = 1, 0, None
    while hi - lo > xtol:
        width, mid = hi - lo, 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        inset = max(0.5 * xtol, np.spacing(hi))
        x = mid
        if 2.0 * inset < width <= budget and (fails < 2 or fails == 2 and prev):
            end = (lo, f_lo) if side < 0 else (hi, f_hi)
            (a, f_a), (b, f_b) = ((lo, f_lo), (hi, f_hi)) if fails < 2 else (prev, end)
            x = min(hi - inset, max(lo + inset, a - f_a * (b - a) / (f_b - f_a) - side * inset))
        budget *= 0.5
        # Illinois: an end that moves twice in a row halves the value kept at the other
        if (fx := f(x)) <= 0.0:
            prev = (lo, f_lo) if side < 0 and fx != f_lo else None
            lo, f_lo, f_hi, side = x, fx, f_hi * (0.5 if side < 0 else 1.0), -1
        else:
            prev = (hi, f_hi) if side > 0 and fx != f_hi else None
            hi, f_hi, f_lo, side = x, fx, f_lo * (0.5 if side > 0 else 1.0), 1
        fails = fails + 1 if hi - lo > 0.5 * width else 0
    return float(0.5 * (lo + hi)), (float(lo), float(hi))


def _moment_sums(groups, q: float):
    """Log moment sums of word groups, one value per group, as a function of s.

    Each group is ``(prefix, log_p)``: the ``(d, n)`` prefix sums of its words'
    log singular values, row m - 1 holding ``svf_log`` at s = m, and the
    ``(n,)`` log masses; a similarity ratio c enters as the one row ``log c``.
    The returned function maps s to ``log sum_u svf(T_u, s)**(1-q) p_u**q`` per
    group. At q = 1, where the sums vanish, it maps s to their derivative in
    q instead, the entropy form ``sum_u p_u log p_u - sum_u p_u log svf(T_u, s)``.

    On a segment [m - 1, m] with m <= d, ``svf_log`` is ``base + s * slope``
    with ``slope = P_m - P_{m-1}`` and ``base = P_{m-1} - (m - 1) slope`` (``P_0
    = 0``); on [d, inf) it is ``s * P_d / d``. An integer s = m >= 1 takes the
    segment below it, so the value depends on s alone, never on the s asked
    before. Through 0 and past d ``base`` is 0, and the exponents are formed
    without it, to the same bits. The entropy form weighs each row down to a
    number once.

    Every evaluation forms each word's exponent afresh from the read-only
    prefix rows, ``_SUM_BLOCK`` words at a time, into one scratch the size of
    the largest group, then takes the group's max, exp and sum over the whole
    group. Groups of at most one block are packed once into one buffer, so a
    pass over many small groups makes a few numpy calls per group. Beyond the
    groups' own arrays, memory is O(largest group + one block), plus the
    packed small groups.
    """
    prefix, log_p = zip(*groups)
    d = len(prefix[0])

    def segment(s: float) -> int:
        # lo of the segment [lo, lo + 1] (of [d, inf) at lo = d) that s is taken on
        return min(max(int(np.ceil(s)) - 1, 0), d)

    if abs(q - 1.0) < Q_ONE_TOL:
        w = [np.exp(lp) for lp in log_p]
        ent = np.array([wi @ lp for wi, lp in zip(w, log_p)])
        # one column per group
        pre = np.array([[wi @ row for row in p] for wi, p in zip(w, prefix)]).T

        def entropy_sums(s: float) -> np.ndarray:
            lo = segment(s)
            below = pre[lo - 1] if lo else 0.0
            if lo < d:
                slope = pre[lo] - below
                base = below - slope * lo
            else:
                slope, base = pre[-1] / d, np.zeros(len(ent))
            return ent - (base + s * slope)

        return entropy_sums

    def pack(ids):
        """``(prefix, log_p, ids, starts, spans)`` of the groups ``ids`` end to end."""
        edges = np.cumsum([0] + [len(log_p[i]) for i in ids]).tolist()
        if len(ids) == 1:
            pre, lp = prefix[ids[0]], log_p[ids[0]]
        else:
            pre = np.concatenate([prefix[i] for i in ids], axis=1)
            lp = np.concatenate([log_p[i] for i in ids])
        return pre, lp, ids, edges[:-1], [slice(a, b) for a, b in zip(edges, edges[1:])]

    # each group longer than a block alone, the rest packed into one part
    small = [i for i, lp in enumerate(log_p) if len(lp) <= _SUM_BLOCK]
    parts = [pack([i]) for i, lp in enumerate(log_p) if len(lp) > _SUM_BLOCK]
    if small:
        parts.append(pack(small))
    scratch = np.empty(max(len(lp) for _, lp, *_ in parts))
    base = np.empty(min(_SUM_BLOCK, len(scratch)))

    def exponents(pre, lp, lo: int, s: float) -> np.ndarray:
        """``(1-q) svf_log(s) + q log p`` of the part's words, in scratch.

        The ops are those of ``t = slope * s + base`` with ``slope`` and
        ``base`` scaled by 1 - q and ``q log p`` added to ``base``; the
        slope is formed twice, into ``base`` first, so one block buffer serves.
        On the segments through 0 and past d, where ``base`` is 0, ``base``
        is ``q log p`` alone: half the ops, and the same bits.
        """
        t = scratch[:len(lp)]
        for a in range(0, len(lp), _SUM_BLOCK):
            at = slice(a, a + _SUM_BLOCK)
            tb = t[at]
            bb = base[:len(tb)]
            below = pre[lo - 1, at] if lo else 0.0
            if 0 < lo < d:
                np.subtract(pre[lo, at], below, out=bb)
                np.subtract(below, np.multiply(bb, lo, out=bb), out=bb)
                bb *= 1.0 - q
                bb += np.multiply(lp[at], q, out=tb)
            else:
                # base is +-0 through 0 and past d, and +-0 + x = x
                np.multiply(lp[at], q, out=bb)
            if lo < d:
                np.subtract(pre[lo, at], below, out=tb)
            else:
                np.divide(pre[-1, at], d, out=tb)
            tb *= 1.0 - q
            tb *= s
            tb += bb
        return t

    def sums(s: float) -> np.ndarray:
        lo = segment(s)
        tops, totals = np.empty(len(log_p)), np.empty(len(log_p))
        for pre, lp, ids, starts, spans in parts:
            t = exponents(pre, lp, lo, s)
            # max is exact in any order; each sum runs on its group's view, as on
            # the group alone (reduceat would sum sequentially, with other bits)
            tops[ids] = top = np.maximum.reduceat(t, starts)
            for at, m in zip(spans, top):
                t[at] -= m
            np.exp(t, out=t)
            totals[ids] = [np.add.reduce(t[at]) for at in spans]
        return np.log(totals) + tops

    return sums


# ---------------------------------------------------------------------------
# cut-set limits for similarity tables
# ---------------------------------------------------------------------------


def _default_r_grid(system: SimilarSystem, measure: BernoulliMeasure):
    r = 0.8 * system.c_lower
    grids = []
    for _ in range(CUTSET_SCALES):
        try:
            logs = scale_cut_set_masses(system.ratio_schedule, measure, r,
                                        budget=CUTSET_WORD_CAP)
        except BranchBudgetError:
            break
        grids.append((r, logs))
        if len(logs[0]) * CUTSET_SHRINK ** -2.5 > CUTSET_WORD_CAP:
            break
        r *= CUTSET_SHRINK
    return grids


def cutset_dimension(system: SimilarSystem, measure: BernoulliMeasure, q: float,
                     r_grid=None) -> CriticalExponents:
    """Critical exponents straight from cut-set moment sums over a scale grid.

    Evaluates ``sum_u c_u**(s(1-q)) p_u**q`` over the cut set at every grid
    scale and solves for s against the growth trend across scales: for q > 1 a
    growing sequence means s is too large. Accepts q = 0, where the sums
    count contraction only and the root is the support's box exponent. Each
    scale's cut set holds at most ``CUTSET_WORD_CAP`` words.
    """
    if not 0 <= q < np.inf:
        raise ValueError(f"q must be nonnegative and finite, got {q}")
    stationary = system.ratio_schedule.stationary and measure.stationary
    xtol = XTOL_STATIONARY if stationary else XTOL_TRUNCATED

    if r_grid is None:
        grids = _default_r_grid(system, measure)
    else:
        grids = []
        for r in sorted(set(float(r) for r in r_grid), reverse=True):
            if not 0.0 < r < system.c_lower:
                raise ValueError(
                    f"grid scale {r} must lie in (0, c_lower={system.c_lower})"
                )
            grids.append((r, scale_cut_set_masses(system.ratio_schedule, measure, r,
                                                  budget=CUTSET_WORD_CAP)))
    if len(grids) < 4:
        raise InsufficientScalesError(
            f"only {len(grids)} usable cut-set scales under the word budget"
        )

    # for q >= 1 the upper-envelope root is the lower exponent; for q < 1 the
    # trend falls (flipped for the root finder) and the roles swap
    seq = _moment_sums([(log_c[None], log_p) for _, (log_c, log_p) in grids], q)
    rising = q > 1 or abs(q - 1.0) < Q_ONE_TOL
    sign = 1.0 if rising else -1.0
    roots = [_root_of_increasing(lambda s, m=mode: sign * _envelope_trend(seq(s), m), xtol)
             for mode in ("limsup", "liminf")]
    (lower, br_lower), (upper, br_upper) = roots if rising else roots[::-1]
    if stationary:
        lower = upper = 0.5 * (lower + upper)

    diag = {
        "scales": [r for r, _ in grids],
        "words": [len(log_p) for _, (_, log_p) in grids],
        "stationary": stationary,
        "xtol": xtol,
        "brackets": {"lower": br_lower, "upper": br_upper},
    }
    return CriticalExponents(q=q, lower=lower, upper=upper,
                             method="cutset-truncation", diagnostics=diag)


# ---------------------------------------------------------------------------
# affine level sums
# ---------------------------------------------------------------------------


def _extend(state, maps, terms, rescale):
    """The words one level below ``state``, a ``(prods, carried, log_scale)`` triple.

    Every word takes every map of the level, parent-major with the newest
    letter varying fastest. ``terms`` holds each letter's
    ``[log p, log |det|]``, added to ``carried``. The products are kept
    entry-major, ``(d, d, words)``, and ``rescale`` divides each by the power
    of two of its largest entry, carried in ``log_scale``. Every step acts on
    each word alone, so a block of words extends to the bits of the same
    words in the whole level.
    """
    prods, carried, log_scale = state
    d, n = prods.shape[0], prods.shape[-1]
    right = maps.transpose(1, 2, 0)
    parents, carried = carried, np.empty((2, n, len(maps)))
    for l in range(len(maps)):
        np.add(parents, terms[:, l, None], out=carried[:, :, l])
    carried = carried.reshape(2, -1)
    log_scale = np.repeat(log_scale, len(maps)) if np.ndim(log_scale) else log_scale
    nxt, tmp = np.empty((d, d, n, len(maps))), np.empty(n)
    # letter l of parent u lands at u*m + l: one strided column per letter
    for i, j, t, l in np.ndindex(d, d, d, len(maps)):
        np.multiply(prods[i, t], right[t, j, l], out=tmp if t else nxt[i, j, :, l])
        if t:
            nxt[i, j, :, l] += tmp
    prods = nxt.reshape(d, d, -1)
    if rescale:
        _, exps = np.frexp(np.abs(prods).max(axis=(0, 1)))
        prods *= np.ldexp(1.0, -exps)
        log_scale = log_scale + exps * np.log(2.0)
    return prods, carried, log_scale


def _level_spectra(system: AffineSystem, measure: BernoulliMeasure, depth: int,
                   keep_from: int):
    """Prefix sums of log singular values and log masses of words, per kept level.

    Level k maps to ``(prefix, log_p)``, row m - 1 of the ``(d, words)``
    ``prefix`` holding ``log(sigma_1 ... sigma_m)`` (``svf_log`` at s = m).
    Every word is enumerated, parent-major with the newest letter varying
    fastest. The last row sums the letters' log |det|, carried beside
    ``log_p``; the rest come from the word products.

    Each level is tabulated once: its maps, their ``[log p, log |det|]`` and
    whether to rescale. ``floor``, the sum of the levels' least letter log
    singular value, bounds every log sigma_1 from below; only under
    -256 log 2 are products rescaled (see ``_extend``). Enumeration first
    grows a stem, the levels above which one stem word has at most
    ``_BLOCK_WORDS`` descendants in the deepest level; then contiguous blocks
    of stem words run down the remaining levels one block at a time, each
    block's deepest level holding about ``_BLOCK_WORDS`` words, and write
    their slices of every kept level. Since ``_extend`` acts on each word
    alone, the bits do not depend on the block size, and memory is the kept
    spectra plus one block.
    """
    d = system.ambient_dim
    table, floor = [], 0.0
    for k in range(1, depth + 1):
        maps = system.linear_maps(k)
        floor += batched_log_singular_values(maps)[:, -1].min()
        rescale = floor < -256.0 * np.log(2.0)
        floor = -np.log(2.0) if rescale else floor
        table.append((maps, np.array([measure.log_probs(k), np.linalg.slogdet(maps)[1]]),
                      rescale))
    widths = [1]
    for maps, _, _ in table:
        widths.append(widths[-1] * len(maps))
    stem = next(k for k, n in enumerate(widths) if widths[-1] // n <= _BLOCK_WORDS)
    out = {k: (np.empty((d, widths[k])), np.empty(widths[k]))
           for k in range(keep_from, depth + 1)}

    def keep(k, state, at):
        prods, carried, log_scale = state
        log_singular_prefix(prods.T, carried[1], log_scale, out=out[k][0][:, at])
        out[k][1][at] = carried[0]

    state = (np.eye(d)[:, :, None], np.zeros((2, 1)), 0.0)
    for k in range(1, stem + 1):
        state = _extend(state, *table[k - 1])
        if k >= keep_from:
            keep(k, state, slice(None))
    step = max(1, _BLOCK_WORDS * widths[stem] // widths[-1])
    for a in range(0, widths[stem], step):
        at = slice(a, a + step)
        prods, carried, log_scale = state
        block = (prods[:, :, at], carried[:, at],
                 log_scale[at] if np.ndim(log_scale) else log_scale)
        for k in range(stem + 1, depth + 1):
            block = _extend(block, *table[k - 1])
            if k >= keep_from:
                fan = widths[k] // widths[stem]
                keep(k, block, slice(a * fan, (a + step) * fan))
    return out


# the last exhaustive spectra: (system, measure, (depth, keep_from), spectra) or None
_kept_spectra = None


def _shared_level_spectra(system: AffineSystem, measure: BernoulliMeasure, depth: int,
                          keep_from: int):
    """The exhaustive ``_level_spectra``, built once for every q of one table.

    The result is kept read-only in the one slot, keyed on the system and
    measure objects (``is``), the depth and ``keep_from``; a call with
    another key empties the slot before it builds.
    """
    global _kept_spectra
    if _kept_spectra is not None:
        kept_system, kept_measure, key, spectra = _kept_spectra
        if kept_system is system and kept_measure is measure and key == (depth, keep_from):
            return spectra
    _kept_spectra = None
    spectra = _level_spectra(system, measure, depth, keep_from)
    for arrays in spectra.values():
        for array in arrays:
            array.flags.writeable = False
    _kept_spectra = (system, measure, (depth, keep_from), spectra)
    return spectra


def _release_level_spectra() -> None:
    """Free the spectra that ``_shared_level_spectra`` keeps."""
    global _kept_spectra
    _kept_spectra = None


def _product_level_sums(system: AffineSystem, measure: BernoulliMeasure, depth: int,
                        q: float):
    """Log level sums of levels 1..``depth`` as products of per-level letter sums,
    as a function of s; they are the level sums at s = 0 and s >= d only.

    There ``svf(T, s) = |det T|**(s/d)``, and |det| and p multiply along a
    word (Falconer, Math. Proc. Camb. Phil. Soc. 103, 1988), so the level-k
    sum is the product of the letter sums of levels 1..k. Level k enters
    ``_moment_sums`` as a similarity level of ratios ``|det T_kj|**(1/d)``,
    the one row ``log |det T_kj| / d``, and the log level sums are the
    cumulative sums of its group sums.
    """
    d = system.ambient_dim
    letters = _moment_sums([(np.linalg.slogdet(system.linear_maps(k))[1][None] / d,
                             measure.log_probs(k)) for k in range(1, depth + 1)], q)
    return lambda s: np.cumsum(letters(s))


def _near_integer_guard(root: float, diag: dict) -> float:
    if abs(root - round(root)) < 1e-9 and root > 0:
        diag["near_integer"] = True
        return root + 1e-9
    return root


def affine_series_dimension(system: AffineSystem, measure: BernoulliMeasure,
                            q: float, depth: int | None = None) -> CriticalExponents:
    """Critical exponent from the level sums of an affine table, q >= 1.

    For q > 1 the level-k sum ``A_k(s) = sum_u svf(T_u, s)**(1-q) p_u**q``
    has a geometric-like growth rate in k; the root of the fitted rate over
    a trailing window of levels locates the exponent where the full series
    over k switches between convergent and divergent. At q = 1, allowed only
    when the table and the measure are both stationary, the exponent is the
    root of the entropy-against-contraction rate of the deepest enumerated
    level.

    A stationary table and measure make the per-level terms exact, so the
    roots are solved to 1e-7 (1e-8 at q = 1), and for q > 1 the root of
    the deepest level's sum alone, a bound from superadditivity, is kept as
    the ``single_level_root`` diagnostic.

    The levels are enumerated down to ``depth`` (by default the deepest one
    within ``ENUMERATION_CAP`` words); a deeper ``depth`` is refused. The
    enumerated spectra serve 0 < s < d only: at s = 0 and s >= d every level
    sum is a product of per-level letter sums (``_product_level_sums``), so
    on planar tables the root finder's probe at s = 2 reads no spectra.

    The enumerated spectra are reused: a solve on the same system and measure
    objects, at the same depth and first kept level, takes the read-only
    spectra the last solve kept instead of building them (any q > 1 shares
    them; q = 1 keeps the deepest level only). A solve with another key frees
    them before it builds, so at most one table's spectra are held; the
    harness's q loop frees them before it starts and when it ends. Each
    evaluation of the level sums reads the spectra in place, so past them a
    solve holds only the scratch of ``_moment_sums``: one level, one block of
    words and the levels of at most one block, packed.
    """
    stationary = system.stationary and measure.stationary
    entropy = abs(q - 1.0) < Q_ONE_TOL
    if not 1.0 - Q_ONE_TOL <= q < np.inf or (q <= 1.0 + Q_ONE_TOL and not stationary):
        raise ValueError(f"affine exponents need a finite q > 1, or q = 1 on a stationary "
                         f"table and measure; got {q}")
    if not measure.profile.matches(system.profile):
        raise ValueError("measure branching does not match the system")
    K = system.profile.depth_within(ENUMERATION_CAP, depth)
    if K < 2:
        raise BranchBudgetError("enumeration cap too small for even two levels")
    if depth is not None and depth > K:
        raise BranchBudgetError(f"depth {depth} needs more than {ENUMERATION_CAP} words")
    keep_from = K if entropy else max(2, K // 2)
    spectra = _shared_level_spectra(system, measure, K, keep_from)
    xtol = ((1e-8 if entropy else 1e-7) if stationary
            else XTOL_STATIONARY if system.stationary else XTOL_TRUNCATED)
    enumerated = _moment_sums([spectra[k] for k in sorted(spectra)], q)
    products = _product_level_sums(system, measure, K, q)

    def kept(s: float) -> np.ndarray:
        """Log level sums of the kept levels at s."""
        if s == 0.0 or s >= system.ambient_dim:
            return products(s)[keep_from - 1:]
        return enumerated(s)

    def per_level(s: float) -> float:
        # the deepest level alone: the q = 1 rate and the stationary single-level root
        return float(kept(s)[-1]) / K

    def rate(s: float) -> float:
        """Slope in k of the fitted log level sums."""
        return float(np.polyfit(sorted(spectra), kept(s), 1)[0])

    root, bracket = _root_of_increasing(per_level if entropy else rate, xtol)
    diag = {
        "depth": int(K),
        "bracket": bracket,
        "mode": "entropy" if entropy else "exact",
    }
    if not entropy:
        diag["window"] = (int(keep_from), int(K))
    if stationary and not entropy:
        single, _ = _root_of_increasing(per_level, xtol)
        diag["single_level_root"] = float(single)
    root = _near_integer_guard(root, diag)
    return CriticalExponents(q=q, lower=root, upper=root,
                             method="affine-k-limit", diagnostics=diag)
