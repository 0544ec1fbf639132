"""Log singular values of matrix stacks and the singular value function.

Every function here is pure, works in the log domain and takes whole
stacks of matrices (or of their log singular values) at once. The singular
value function interpolates between products of the leading singular values:
for ``m - 1 < s <= m`` it is ``a_1 * ... * a_{m-1} * a_m**(s - m + 1)`` and
for ``s`` above the matrix dimension it continues as ``det**(s/d)``. It is
continuous, strictly decreasing in ``s`` for contractions, and
submultiplicative over matrix products.

Stacks of 2x2 matrices, the shape every planar level table produces, take a
closed form instead of a batched LAPACK SVD: the largest singular value is a
sum of two hypotenuses, which stays accurate when the two values nearly tie,
and the smallest follows from the determinant. Larger matrices use LAPACK.
``log_singular_prefix`` returns the prefix sums of the log singular values
(``svf_log`` at the integers) and takes the log-determinant from its caller,
so a 2x2 stack needs only the largest value.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "batched_log_singular_values",
    "log_singular_prefix",
    "svf_log",
]

# largest condition estimate a contraction of a system's table may have
CONDITION_LIMIT = 1e14


def batched_log_singular_values(mats: np.ndarray) -> np.ndarray:
    """Log singular values for a stack of matrices, sorted nonincreasing.

    The smallest value is anchored through the determinant: the leading
    values are well conditioned, so this pins the product identity exactly
    and sharpens the smallest value, the one an SVD resolves worst.

    For ``T = [[a, b], [c, d]]`` the values come in closed form:
    ``sigma_1 = (hypot(a + d, c - b) + hypot(a - d, c + b)) / 2`` and
    ``sigma_2 = |ad - bc| / sigma_1``. The sum of two nonnegative terms loses
    no precision as ``sigma_1`` approaches ``sigma_2``, where the textbook
    ``sqrt(|T|_F**4 - 4 det**2)`` cancels; clamping ``sigma_2`` at ``sigma_1``
    keeps the output nonincreasing when they tie. Each hypotenuse is taken as
    ``sqrt(x*x + y*y)``, several times faster than ``np.hypot``: with
    ``sigma_1`` in [2**-256, 2**256] no square overflows (no entry exceeds
    ``sigma_1``) and ``det`` stays normal below condition 2**510; other rows
    are redone after an exact power-of-two scaling.
    """
    if mats.shape[-2:] == (2, 2):
        with np.errstate(over="ignore", invalid="ignore"):
            top, det = _top_and_det(mats)
        outside = ~((top >= 2.0**-256) & (top <= 2.0**256))
        if outside.any():
            _, exps = np.frexp(np.abs(mats[outside]).max(axis=(-2, -1)))
            top[outside], det[outside] = _top_and_det(np.ldexp(mats[outside], -exps[:, None, None]))
        logs = np.empty(top.shape + (2,))
        log_top = np.log(top, out=logs[..., 0])
        det = np.log(np.abs(det, out=det), out=det)
        np.minimum(np.subtract(det, log_top, out=det), log_top, out=logs[..., 1])
        if outside.any():
            logs[outside] += (exps * np.log(2.0))[:, None]
        return logs
    logs = np.log(np.linalg.svd(mats, compute_uv=False))
    _, logdet = np.linalg.slogdet(mats)
    logs[..., -1] = logdet - logs[..., :-1].sum(axis=-1)
    # anchoring can flip a near-tie by an epsilon
    return -np.sort(-logs, axis=-1)


def log_singular_prefix(mats: np.ndarray, log_det: np.ndarray, log_scale=0.0,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Prefix sums ``log(sigma_1 * ... * sigma_m)``, m = 1..d, of ``exp(log_scale) * mats``.

    Returns one row per m, shape ``(d,) + mats.shape[:-2]``: contiguous rows of
    a new array, or ``out`` (of that shape) written in place. The
    last row is the caller's ``log_det``, which a product's factors give more
    exactly than any factorization of the product, so only the leading d - 1
    values are computed: ``sigma_1`` alone by the closed form of
    :func:`batched_log_singular_values` for 2x2 stacks (the caller keeps it
    in [2**-256, 2**256]), a batched SVD otherwise. Row d - 1 is raised where
    needed so the increments, the log singular values, stay nonincreasing.
    """
    d = mats.shape[-1]
    if out is None:
        out = np.empty((d,) + mats.shape[:-2])
    if d == 2:
        np.log(_top_and_det(mats, det=False)[0], out=out[0])
    elif d > 2:
        logs = np.log(np.linalg.svd(mats, compute_uv=False)[..., :-1])
        out[:-1] = np.moveaxis(np.cumsum(logs, axis=-1), -1, 0)
    if np.any(log_scale):
        out[:-1] += np.multiply.outer(np.arange(1.0, d), log_scale)
    out[-1] = log_det
    if d > 1:
        np.maximum(out[-2], 0.5 * (out[-1] + out[-3] if d > 2 else out[-1]), out=out[-2])
    return out


def _top_and_det(mats: np.ndarray, det: bool = True):
    """Largest singular value and (unless ``det`` is false) determinant of a
    stack of 2x2 matrices, as arrays even for one bare matrix."""
    a, b, c, d = (mats[..., i, j] for i in (0, 1) for j in (0, 1))
    top = 0.5 * (np.sqrt((a + d) ** 2 + (c - b) ** 2) + np.sqrt((a - d) ** 2 + (c + b) ** 2))
    return np.asarray(top), np.asarray(a * d - b * c) if det else None


def svf_log(log_values: np.ndarray, s: float) -> np.ndarray:
    """log of the singular value function, vectorized over leading axes.

    ``log_values`` holds log singular values sorted nonincreasing along the
    last axis. Integer ``s = m`` uses the m-term product (exponent 1), which
    makes the function continuous across integer ``s`` by construction.
    """
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    logs = np.asarray(log_values, dtype=float)
    d = logs.shape[-1]
    if s == 0:
        return np.zeros(logs.shape[:-1])
    if s > d:
        return (s / d) * logs.sum(axis=-1)
    m = int(np.ceil(s))
    return logs[..., : m - 1].sum(axis=-1) + (s - m + 1) * logs[..., m - 1]
