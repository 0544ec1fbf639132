"""Reference implementations that the package's faster code is tested against."""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from qdims.singular import batched_log_singular_values, svf_log
from qdims.systems import SeparationReport


def bisect_increasing(f, xtol: float, hi0: float = 1.0, cap: float = 512.0):
    """Plain bisection for the root of an increasing f on s >= 0.

    Brackets the root as ``qdims.theory._root_of_increasing`` does (probe
    ``hi0`` first and double ``hi``, raising ``lo`` behind it; probe 0 only
    when f(hi0) > 0) and then halves until the bracket is no wider than
    ``xtol`` or its ends are adjacent floats. Returns ``(root, (lo, hi),
    evaluations)``.
    """
    evaluations = 0

    def g(s):
        nonlocal evaluations
        evaluations += 1
        return f(s)

    lo, hi = 0.0, hi0
    positive = g(hi) > 0.0
    if positive and g(lo) >= 0.0:
        return 0.0, (0.0, 0.0), evaluations
    while not positive:
        lo, hi = hi, 2.0 * hi
        if hi > cap:
            raise ValueError(f"no sign change below the cap {cap}")
        positive = g(hi) > 0.0
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), (lo, hi), evaluations


def group_sums(keys, values, d):
    """``(cells, sums)``: values summed per key in input order, keys sorted.

    Cells are a ``(k, d)`` int64 array in lexicographic order.
    """
    sums = {}
    for key, value in zip(keys, values):
        sums[key] = sums.get(key, 0.0) + value
    ordered = sorted(sums)
    return (np.array(ordered, dtype=np.int64).reshape(len(ordered), d),
            np.array([sums[key] for key in ordered], dtype=float))


def mesh_bins(points, weights, r):
    """Mesh cells ``floor(x / r)`` of ``(n, d)`` points and their masses,
    summed in point order."""
    keys = [tuple(math.floor(v / r) for v in row) for row in points.tolist()]
    return group_sums(keys, np.asarray(weights, dtype=float).tolist(), points.shape[1])


def write_sample_rows(path, points, weights):
    """A sample CSV as ``save_sample_csv`` specifies it, written row by row:
    ``csv.writer`` rows of ``repr`` of every coordinate and of the weight."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row, weight in zip(np.asarray(points).tolist(), np.asarray(weights).tolist()):
            writer.writerow([*map(repr, row), repr(weight)])


def group_moment_sum(prefix, log_p, q, s):
    """``log sum_u svf(T_u, s)**(1-q) p_u**q`` of one word group (q != 1).

    Each word's exponent is the general-segment formula ``(slope * (1-q)) *
    s + (base * (1-q) + q * log p)`` on the segment of s, with ``base =
    below - slope * lo``, on every segment: also through 0 and past d,
    where ``theory._moment_sums`` leaves the zero base out. Their
    exponentials, shifted by the top one, are added by one ``np.sum`` over
    the group's own array.
    """
    d = len(prefix)
    lo = min(max(math.ceil(s) - 1, 0), d)
    below = prefix[lo - 1] if lo else 0.0
    if lo < d:
        slope = prefix[lo] - below
        base = below - slope * lo
    else:
        slope, base = prefix[-1] / d, np.zeros(len(log_p))
    t = slope * (1.0 - q) * s + (base * (1.0 - q) + log_p * q)
    top = t.max()
    return np.log(np.sum(np.exp(t - top))) + top


def group_entropy_sum(prefix, log_p, s):
    """``sum_u p_u log p_u - sum_u p_u log svf(T_u, s)`` of one word group, the
    q = 1 form: the p-weighted prefix rows on the general segment formula,
    ``base + s * slope`` with ``base = below - slope * lo``."""
    d = len(prefix)
    w = np.exp(log_p)
    pre = [w @ row for row in prefix]
    lo = min(max(math.ceil(s) - 1, 0), d)
    below = pre[lo - 1] if lo else 0.0
    if lo < d:
        slope = pre[lo] - below
        base = below - slope * lo
    else:
        slope, base = pre[-1] / d, 0.0
    return w @ log_p - (base + s * slope)


def word_masses(measure, depth):
    """``(words, p)``: every word of length ``depth`` as a row of letters 1..m,
    level 1 most significant, and its mass, the product of its letter
    probabilities from level 1 on."""
    probs = [measure.probs(k).tolist() for k in range(1, depth + 1)]
    words = list(itertools.product(*(range(1, len(p) + 1) for p in probs)))
    masses = [math.prod(p[j - 1] for p, j in zip(probs, word)) for word in words]
    return np.array(words), np.array(masses)


def word_count_letters(measure, count, depth, seed):
    """Letters of the rows that ``sample_measure`` draws when the word tree
    fits its word table: each word of ``word_masses``, in order, repeated as
    often as one ``multinomial`` of ``default_rng(seed)`` over the masses,
    divided by their sum, draws it."""
    words, p = word_masses(measure, depth)
    counts = np.random.default_rng(seed).multinomial(count, p / p.sum())
    return np.repeat(words, counts, axis=0)


def random_box_offsets(scheme, letters):
    """Per-level offsets of a ``RandomBoxTranslations`` by the out-of-place chain.

    Every step of splitmix64's finalizer makes a new array, as the package's
    first version did; the package mixes in place and must match it bit for bit.
    """
    golden = np.uint64(0x9E3779B97F4A7C15)
    mix1, mix2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
    letter_salt, axis_salt = np.uint64(0xD6E8FEB86659FD93), np.uint64(0xA0761D6478BD642F)

    def mix64(x):
        with np.errstate(over="ignore"):
            x = np.asarray(x, dtype=np.uint64)
            x = (x + golden).astype(np.uint64)
            x ^= x >> np.uint64(30)
            x = (x * mix1).astype(np.uint64)
            x ^= x >> np.uint64(27)
            x = (x * mix2).astype(np.uint64)
            x ^= x >> np.uint64(31)
        return x

    def unit_float(x):
        return (np.asarray(x, dtype=np.uint64) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    state = np.full(len(letters), mix64(np.uint64(scheme.seed & 0xFFFFFFFFFFFFFFFF)),
                    dtype=np.uint64)
    with np.errstate(over="ignore"):
        salts = np.arange(1, scheme.dim + 1, dtype=np.uint64) * axis_salt
    span = scheme.high - scheme.low
    out = []
    for col in np.asarray(letters).T:
        with np.errstate(over="ignore"):
            state = mix64(state ^ (col.astype(np.uint64) * letter_salt))
        out.append(scheme.low + unit_float(mix64(state[:, None] + salts)) * span)
    return out


def translation(scheme, prefix):
    """Offset of one word: the last level of ``scheme.offsets`` on a one-row array."""
    *_, last = scheme.offsets(np.asarray([prefix]))
    return last[0]


def validate_letters(profile, letters):
    """``ValueError`` unless letter j of ``letters`` lies in 1..n_j for every level j."""
    for j, letter in enumerate(letters, start=1):
        n = profile.size(j)
        if int(letter) != letter or not 1 <= letter <= n:
            raise ValueError(f"letter {letter} at level {j} outside 1..{n}")


def project_word(system, scheme, letters, depth=None):
    """Partial projection series of one word, with its truncation bound.

    Sums ``offset(u|1) + L(u|1) offset(u|2) + ...`` through ``depth`` terms,
    where ``L(u|j)`` composes the linear parts of the first ``j`` letters and
    each offset is asked for by :func:`translation`. Returns ``(point, bound)``:
    the tail beyond ``depth`` terms is bounded in norm by
    ``sup|offset| * a**depth / (1 - a)`` with ``a`` the system's contraction bound.
    """
    if depth is None:
        depth = len(letters)
    if depth > len(letters):
        raise ValueError(f"depth {depth} exceeds word length {len(letters)}")
    validate_letters(system.profile, letters)
    d = system.ambient_dim
    x = np.zeros(d)
    M = np.eye(d)
    for j in range(1, depth + 1):
        x = x + M @ np.asarray(translation(scheme, letters[:j]), dtype=float)
        if j < depth:
            M = M @ system.linear_maps(j)[letters[j - 1] - 1]
    a = system.contraction_bound
    return x, scheme.sup_norm() * a**depth / (1.0 - a)


@dataclass(frozen=True)
class SingularSpectrum:
    """Singular values sorted nonincreasing, kept alongside their logs."""

    values: np.ndarray
    log_values: np.ndarray


def singular_values(matrix) -> SingularSpectrum:
    """Singular values of one square matrix, largest first, by
    ``batched_log_singular_values`` on a one-matrix stack."""
    logs = batched_log_singular_values(np.asarray(matrix, dtype=float)[None])[0]
    return SingularSpectrum(values=np.exp(logs), log_values=logs)


def singular_value_function(matrix_or_spectrum, s):
    """The singular value function of a matrix or a spectrum at ``s >= 0``."""
    spec = matrix_or_spectrum
    if not isinstance(spec, SingularSpectrum):
        spec = singular_values(spec)
    return float(np.exp(svf_log(spec.log_values, s)))


def word_product(system, letters):
    """Plain product of the system's linear parts along ``letters``; identity if empty."""
    validate_letters(system.profile, letters)
    out = np.eye(system.ambient_dim)
    for level, letter in enumerate(letters, start=1):
        out = out @ system.linear_maps(level)[letter - 1]
    return out


def word_spectrum(system, letters) -> SingularSpectrum:
    """Singular spectrum of the product along ``letters``, for words of any length.

    Re-factorizes the running product by an SVD after every factor and
    carries its magnitude in the log domain, so products of hundreds of
    contractions neither underflow nor collapse the small singular values.
    The smallest value is anchored through the summed log-determinants.
    """
    validate_letters(system.profile, letters)
    d = system.ambient_dim
    V = np.eye(d)
    logs = np.zeros(d)
    log_det = 0.0
    for level, letter in enumerate(letters, start=1):
        T = system.linear_maps(level)[letter - 1]
        log_det += np.linalg.slogdet(T)[1]
        top = logs.max()
        _, sv, vt = np.linalg.svd(np.exp(logs - top)[:, None] * (V.T @ T))
        logs = np.log(sv) + top
        logs[-1] = log_det - logs[:-1].sum()
        logs = -np.sort(-logs)
        V = vt.T
    return SingularSpectrum(values=np.exp(logs), log_values=logs)


def _signed_gaps(lo1, hi1, lo2, hi2):
    # positive: Euclidean distance between the boxes; negative: they overlap
    # on every axis by at least |value| (so the interiors intersect)
    sep = np.maximum(lo1 - hi2, lo2 - hi1)
    apart = np.maximum(sep, 0.0)
    return np.where((sep > 0.0).any(axis=-1), np.sqrt((apart * apart).sum(axis=-1)),
                    sep.max(axis=-1))


def separation_walk(system, scheme, depth, kind):
    """``check_separation``'s report by a level-by-level walk.

    Each level asks ``scheme.offsets`` for every word of that level, keeps
    all of its levels' offsets, composes ``(n, d, d)`` matrix stacks with
    ``@`` and judges that level's sibling pairs on their own. Each word's
    piece is bounded by the box of its map's image of the cube of
    half-width R = sup|o| / (1 - a), t -+ R |M| 1, and each gap is divided
    by the diameter of the hull of the parent's child boxes (0 where that
    diameter is 0). Touching boxes pass ``osc`` when R > 0. The arguments
    are taken as valid and the word tree as within budget.
    """
    d = system.ambient_dim
    radius = scheme.sup_norm() / (1.0 - system.contraction_bound)
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
        child = np.tile(np.arange(1, n + 1), len(words))
        words = np.column_stack([np.repeat(words, n, axis=0), child])
        *_, offsets = scheme.offsets(words)
        M = np.repeat(M, n, axis=0)
        t = np.repeat(t, n, axis=0) + (M @ offsets[:, :, None])[:, :, 0]
        M = M @ maps[child - 1]
        # axis-aligned box of each child's image of the cube, by parent
        half = radius * np.abs(M).sum(axis=2)
        lo = (t - half).reshape(-1, n, d)
        hi = (t + half).reshape(-1, n, d)
        i, j = np.triu_indices(n, 1)
        gaps = _signed_gaps(lo[:, i], hi[:, i], lo[:, j], hi[:, j])
        diam = np.sqrt(np.square(hi.max(axis=1) - lo.min(axis=1)).sum(axis=1))
        ratios = np.zeros_like(gaps)
        np.divide(gaps, diam[:, None], out=ratios, where=diam[:, None] > 0)
        first = int(np.argmin(ratios))
        if ratios.flat[first] < worst_ratio:
            worst_ratio = ratios.flat[first]
            parent, pair = divmod(first, len(i))
            witness = (tuple(words[parent * n + i[pair]].tolist()),
                       tuple(words[parent * n + j[pair]].tolist()))
        # ssc needs a positive gap; osc allows touching boxes of a cube with interior
        failed = gaps < 0.0 if kind == "osc" and radius > 0 else gaps <= 0.0
        if failed.any():
            holds = False

    return SeparationReport(
        kind=kind,
        depth=depth,
        holds_at_depth=holds,
        worst_gap_ratio=float(worst_ratio),
        witness=witness,
    )


def cylinder_points(system, scheme, depth, start=0):
    """``(letters, points)``: every word w of levels ``start + 1`` to
    ``start + depth`` in code order, as rows of letters, and the point
    f_w(x0) of each.

    x0 is the point of the address 1, 1, 1, ... from level
    ``start + depth + 1``: the fixed point of one tail period of letter-1
    maps, so ``start + depth`` must lie past the system's head. Each word's
    map is composed level by level, x -> M (A x + o) + t, with the offsets
    the word (1, ..., 1, w) reads at those levels. f_w(x0) is then a point
    of the cylinder of w; for ``start > 0`` that cylinder lies in the
    attractor of levels ``start + 1`` onward when the scheme's offsets
    depend on the level and last letter alone.
    """
    head, period = system.cycle
    end = start + depth
    if end < head:
        raise ValueError(f"level {end} lies inside the head of {head} levels")
    d = system.ambient_dim
    M, t = np.eye(d), np.zeros(d)
    ones = np.ones((1, end + period), dtype=np.int64)
    for level, offsets in enumerate(scheme.offsets(ones), 1):
        if level > end:
            t = t + M @ offsets[0]
            M = M @ system.linear_maps(level)[0]
    x0 = np.linalg.solve(np.eye(d) - M, t)

    sizes = [system.profile.size(k) for k in range(start + 1, end + 1)]
    letters = np.array(list(itertools.product(*(range(1, n + 1) for n in sizes))))
    padded = np.hstack([np.ones((len(letters), start), dtype=letters.dtype), letters])
    M = np.broadcast_to(np.eye(d), (len(letters), d, d))
    t = np.zeros((len(letters), d))
    for level, offsets in enumerate(scheme.offsets(padded), 1):
        if level > start:
            t = t + np.einsum("nij,nj->ni", M, offsets)
            M = M @ system.linear_maps(level)[letters[:, level - start - 1] - 1]
    return letters, t + np.einsum("nij,j->ni", M, x0)
