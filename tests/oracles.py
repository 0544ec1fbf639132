"""Reference implementations that the package's faster code is tested against."""

from __future__ import annotations


def bisect_increasing(f, xtol: float, hi0: float = 1.0, cap: float = 512.0):
    """Plain bisection for the root of an increasing f on s >= 0.

    Brackets the root as ``qdims.theory._root_of_increasing`` does (double
    ``hi`` from ``hi0``, raising ``lo`` behind it) and then halves until the
    bracket is no wider than ``xtol`` or its ends are adjacent floats.
    Returns ``(root, (lo, hi), evaluations)``.
    """
    evaluations = 0

    def g(s):
        nonlocal evaluations
        evaluations += 1
        return f(s)

    lo = 0.0
    if g(lo) >= 0.0:
        return 0.0, (0.0, 0.0), evaluations
    hi = hi0
    while g(hi) <= 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > cap:
            raise ValueError(f"no sign change below the cap {cap}")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), (lo, hi), evaluations
