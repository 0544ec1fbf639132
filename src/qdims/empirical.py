"""Mesh-cube moment sums and dimension fits for sampled measures.

The estimator bins a weighted point cloud on the lattice-anchored grid of
half-open cubes [j r, (j+1) r) per axis, forms the moment sums
``sum nu(Q)**q`` (entropy sums ``sum nu(Q) log nu(Q)`` at q = 1), and reads
the dimension off an ordinary least-squares fit of the sums against the
scale in log coordinates. Scales whose expected cell occupancy falls under
a floor are flagged and excluded from fits: moment sums for q > 1 are biased
upward at scales the sample cannot resolve.

Binning counts cells in their bounding cube when it is small and sorts them
otherwise, with the same bits either way, and merges them in canonical
(lexicographic) order, so results do not depend on how point blocks are
split across workers. Points arrive in blocks, and an accumulator folds its
pending blocks into its merged cells once the pending rows reach
``max(cells, _FOLD_ROWS)``. A fold sums each cell's partial mass first and
then the new rows in order, which is the chain of additions of one sum over
all the points, so the bits do not depend on where folds fall either.
Binning memory is thus O(cells + _FOLD_ROWS) however many points stream
through. ``run_experiment`` bins its sample block by block as it is drawn,
and ``qdims estimate`` bins a sample file block by block as it is read, so
neither ever holds the whole sample.

A sample whose word tree fits the word table of ``systems._sample_blocks``
arrives as one block of distinct points with their row counts; each point
is binned once with the mass of its rows and counts that many rows toward
occupancy. Deeper trees and sample files bin row by row.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .codespace import Q_ONE_TOL
from .errors import InsufficientScalesError

__all__ = [
    "OCCUPANCY_MIN",
    "MeshAccumulator",
    "ScaleRecord",
    "SpectrumEstimate",
    "fit_dimension",
    "estimate_spectrum",
    "default_scales",
    "write_spectrum_csv",
    "write_fit_csv",
]

OCCUPANCY_MIN = 10.0
LOCAL_SLOPE_SPREAD = 0.1
_CELL_LIMIT = 2.0**61  # |cell index| bound of add(); keeps cube offsets in int64
# pending rows an accumulator always lets gather before it folds them in
_FOLD_ROWS = 2**16


def default_scales() -> tuple[float, ...]:
    return tuple(2.0**-e for e in range(4, 13))


def _check_q(q) -> None:
    if not np.isfinite(q):
        raise ValueError(f"q must be finite, got {q}")


class MeshAccumulator:
    """Sparse multi-scale mass grid over mesh cubes of side ``r``.

    The cube of a point x is (floor(x_1/r), ..., floor(x_d/r)); the mesh is
    anchored at the origin with no averaging over origins. Total mass is
    conserved through binning to within accumulation roundoff. Cells are
    keyed by row-major offset in the cube their extreme indices span, then
    counted when it holds at most ``max(n, 2**16)`` cells and sorted
    otherwise, with the same order and the same bits either way.

    ``add`` keeps its blocks pending until their rows reach the number of
    cells merged so far, or ``_FOLD_ROWS`` if that is more, then folds them
    into the merged cells: the merged cells go first, their masses as
    weights, then the pending rows. Each cell's mass is then the same chain
    of additions, in point order from 0.0, as one sum over every point
    added, so the cells and mass bits do not depend on how the points were
    split into blocks, and memory stays O(cells + _FOLD_ROWS) for any
    number of points.
    """

    def __init__(self, r: float, ambient_dim: int):
        if not 0 < r < np.inf:
            raise ValueError(f"mesh scale must be positive and finite, got {r}")
        self.r = float(r)
        self.ambient_dim = int(ambient_dim)
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []
        self._pending_rows = 0
        self._cells = np.empty((0, self.ambient_dim), dtype=np.int64)
        self._sums = np.empty(0)

    @classmethod
    def from_sample(cls, sample, r: float) -> "MeshAccumulator":
        acc = cls(r, sample.ambient_dim)
        acc.add(sample.points, sample.weights)
        return acc

    def add(self, points: np.ndarray, weights: np.ndarray) -> None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        w = np.asarray(weights, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.ambient_dim:
            raise ValueError(f"points of shape {pts.shape} do not have dimension "
                             f"{self.ambient_dim}")
        if w.shape != (len(pts),):
            raise ValueError(f"{len(pts)} points need as many weights, got shape {w.shape}")
        idx = pts / self.r
        np.floor(idx, out=idx)
        if idx.size and not (idx.min() >= -_CELL_LIMIT and idx.max() < _CELL_LIMIT):
            # NaN fails both comparisons; argmin finds the first row that fails
            bad = np.argmin(((idx >= -_CELL_LIMIT) & (idx < _CELL_LIMIT)).all(axis=1))
            raise ValueError(f"point {bad} {pts[bad].tolist()} is not finite or "
                             f"beyond 2**61 cells of side {self.r}")
        self._pending.append((idx.astype(np.int64), w))
        self._pending_rows += len(w)
        if self._pending_rows >= max(len(self._cells), _FOLD_ROWS):
            self._fold()

    def _merge(self, cells: np.ndarray, weights: np.ndarray):
        if len(cells) == 0:
            return cells.reshape(0, self.ambient_dim), weights[:0]
        # the cube spanned by the extreme indices takes two contiguous
        # reductions, where per-axis bounds take 2 d strided ones
        lo = int(cells.min())
        side = int(cells.max()) - lo + 1
        d = cells.shape[1]
        size = side**d
        if size > 2**62:
            uniq, inverse = np.unique(cells, axis=0, return_inverse=True)
            return uniq, np.bincount(inverse.ravel(), weights=weights, minlength=len(uniq))
        # row-major offsets, which sort as the cells do lexicographically
        key = cells[:, 0] - lo
        for axis in range(1, d):
            key *= side
            key += cells[:, axis]
            key -= lo
        if size <= max(len(cells), 2**16):
            occupied = np.flatnonzero(np.bincount(key, minlength=size))
            masses = np.bincount(key, weights=weights, minlength=size)[occupied]
        else:
            occupied, inverse = np.unique(key, return_inverse=True)
            masses = np.bincount(inverse, weights=weights, minlength=len(occupied))
        return np.column_stack(np.unravel_index(occupied, (side,) * d)) + lo, masses

    def _fold(self) -> None:
        if not self._pending:
            return
        cells = np.concatenate([self._cells, *(c for c, _ in self._pending)])
        sums = np.concatenate([self._sums, *(v for _, v in self._pending)])
        self._pending = []
        self._pending_rows = 0
        self._cells, self._sums = self._merge(cells, sums)

    def cells(self) -> np.ndarray:
        self._fold()
        return self._cells

    def masses(self) -> np.ndarray:
        self._fold()
        return self._sums

    def __len__(self):
        return len(self.cells())

    def coarsen(self, factor: int = 2) -> "MeshAccumulator":
        """Accumulator at scale ``factor * r``; exact cell-index arithmetic."""
        if int(factor) != factor or factor < 1:
            raise ValueError("factor must be a positive integer")
        out = MeshAccumulator(self.r * factor, self.ambient_dim)
        masses = self.masses()
        out._cells, out._sums = self._merge(self._cells // int(factor), masses)
        return out

    def moment(self, q: float) -> float:
        _check_q(q)
        m = self.masses()
        if q == 0:
            return float(len(m))
        return float((m**q).sum())

    def entropy(self) -> float:
        """``sum m log m`` over the cells, with ``0 log 0 = 0`` for zero-mass cells."""
        m = self.masses()
        return float((m * np.log(m, out=np.zeros_like(m), where=m > 0.0)).sum())


# ---------------------------------------------------------------------------
# per-scale records and dimension fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScaleRecord:
    q: float
    r: float
    value: float
    cells: int
    occupancy: float
    included: bool


def _far_rows(points: np.ndarray, r: float) -> np.ndarray | None:
    """Mask of the finite rows whose cell at side ``r`` lies beyond the 2**61
    cells that ``MeshAccumulator`` can key, or None when there is none.

    The block's extremes decide for its rows, and a non-finite row is left
    to the accumulator.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        if not points.size or (np.floor(points.min() / r) >= -_CELL_LIMIT
                               and np.floor(points.max() / r) < _CELL_LIMIT):
            return None
        idx = np.floor(points / r)
        far = (np.isfinite(points).all(axis=1)
               & ~((idx >= -_CELL_LIMIT) & (idx < _CELL_LIMIT)).all(axis=1))
    return far if far.any() else None


def _check_cell_range(points: np.ndarray, start: int, r: float, counts=None) -> None:
    """``InsufficientScalesError`` if a finite row's cell at side ``r`` lies
    beyond the 2**61 cells that ``MeshAccumulator`` can key (``_far_rows``).

    Cell indices only grow as the side shrinks, so the finest scale decides
    for every scale. The row is named counting from 1 at the start of the
    stream, as ``_read_csv_blocks`` counts them; point i of a counted block
    stands for ``counts[i]`` rows, after those of the points before it.
    """
    far = _far_rows(points, r)
    if far is not None:
        row = int(np.argmax(far))
        first = start + (row if counts is None else int(counts[:row].sum()))
        raise InsufficientScalesError(
            f"scale {r!r} is too fine: row {first + 1} {points[row].tolist()} lies "
            f"beyond 2**61 cells of that side")


def _scale_pyramid(blocks, scales) -> tuple[int, list[tuple[float, MeshAccumulator]]]:
    """Row count and ``(r, accumulator)`` per scale, fine to coarse, from one pass.

    ``blocks`` yields the ``(start, points, counts, weights)`` blocks of
    ``systems._sample_blocks``, at least one row, and the first block fixes
    the dimension. The base scales, the finest and each one a non-integer
    step above the scale below it, are planned before any block is read, and
    each block is binned into each of them as it comes; the other scales
    coarsen the scale below by exact cell-index arithmetic. ``None`` means
    the default scales; an empty sequence, a repeated size (sizes within a
    relative 1e-9 are one size), or a finest size too small for a row's
    coordinates (``_check_cell_range``) raises ``InsufficientScalesError``.

    A counted block bins each point once, with the mass ``counts * weights``
    of the rows it stands for, and adds those rows to the row count.
    """
    scales = sorted(default_scales() if scales is None else scales)
    if not scales:
        raise InsufficientScalesError("no scales given")
    factors = [None] + [cur / prev for prev, cur in zip(scales, scales[1:])]
    # a factor within 1e-9 of 1 would coarsen by 1 and leave log r where it was
    repeated = [r for r, factor in zip(scales, factors[1:]) if factor - 1.0 < 1e-9]
    if repeated:
        raise InsufficientScalesError(f"scale size {repeated[0]!r} appears more than once "
                                      f"(within a relative 1e-9)")
    base_scales = [r for r, factor in zip(scales, factors)
                   if factor is None or abs(factor - round(factor)) >= 1e-9]
    count, bases = 0, None
    for start, points, counts, weights in blocks:
        if bases is None:
            bases = {r: MeshAccumulator(r, points.shape[1]) for r in base_scales}
        _check_cell_range(points, start, scales[0], counts)
        if counts is not None:
            weights = counts * weights
        for acc in bases.values():
            acc.add(points, weights)
        count += len(weights) if counts is None else int(counts.sum())
    pyramid = []
    for r, factor in zip(scales, factors):
        acc = bases[r] if r in bases else acc.coarsen(int(round(factor)))
        pyramid.append((r, acc))
    return count, pyramid


def _records(pyramid, n: int, q: float) -> list[ScaleRecord]:
    # coarse to fine
    out = []
    entropy = abs(q - 1.0) < Q_ONE_TOL
    for r, acc in reversed(pyramid):
        cells = len(acc)
        occupancy = n / max(cells, 1)
        value = acc.entropy() if entropy else acc.moment(q)
        # a moment sum that underflows to 0 (or overflows) has no logarithm to fit
        usable = entropy or 0.0 < value < np.inf
        out.append(ScaleRecord(q=q, r=r, value=value, cells=cells,
                               occupancy=occupancy,
                               included=usable and occupancy >= OCCUPANCY_MIN))
    return out


@dataclass(frozen=True)
class SpectrumEstimate:
    """Fitted dimension with the per-octave slopes kept for dispersion checks."""

    q: float
    dimension: float
    intercept: float
    stderr: float
    residual: float
    r_coarse: float
    r_fine: float
    n_scales: int
    local_slopes: tuple[float, ...]
    window_ok: bool


def _fit_xy(records: list[ScaleRecord], q: float):
    if abs(q - 1.0) < Q_ONE_TOL:
        xy = [(np.log(rec.r), rec.value) for rec in records]
    else:
        xy = [((q - 1.0) * np.log(rec.r), np.log(rec.value)) for rec in records]
    xs, ys = zip(*xy)
    return np.asarray(xs), np.asarray(ys)


def fit_dimension(records: list[ScaleRecord], q: float | None = None) -> SpectrumEstimate:
    """Least-squares dimension from per-scale sums.

    Fits log(sum) against (q-1) log r (the entropy sum against log r at
    q = 1) over the longest run of at least four usable scales whose local
    slopes spread by less than 0.1; if no run qualifies, the full usable
    range is used and flagged. The spread of local slopes is the visible
    proxy for a gap between the lower and upper scaling limits. A
    non-finite q raises ``ValueError``.
    """
    if q is None:
        if not records:
            raise InsufficientScalesError("no records given")
        q = records[0].q
    _check_q(q)
    usable = [rec for rec in records if rec.included]
    usable.sort(key=lambda rec: -rec.r)
    if len(usable) < 4:
        raise InsufficientScalesError(
            f"q={q:g}: need at least 4 usable scales, have {len(usable)}"
        )
    x, y = _fit_xy(usable, q)
    local = (y[1:] - y[:-1]) / (x[1:] - x[:-1])

    best = None
    n = len(usable)
    for i in range(n):
        for j in range(i + 3, n):
            spread = local[i:j].max() - local[i:j].min()
            if spread < LOCAL_SLOPE_SPREAD:
                size = j - i
                cand = (size, -spread, i, j)
                if best is None or cand > best:
                    best = cand
    if best is not None:
        _, _, i, j = best
        window = slice(i, j + 1)
        window_ok = True
    else:
        window = slice(0, n)
        window_ok = False

    xf, yf = x[window], y[window]
    chosen = usable[window]
    slope, intercept = np.polyfit(xf, yf, 1)
    fitted = slope * xf + intercept
    res = yf - fitted
    dof = max(len(xf) - 2, 1)
    stderr = float(np.sqrt((res @ res) / dof / ((xf - xf.mean()) ** 2).sum()))
    return SpectrumEstimate(
        q=float(q),
        dimension=float(slope),
        intercept=float(intercept),
        stderr=stderr,
        residual=float(np.sqrt((res @ res) / len(xf))),
        r_coarse=float(chosen[0].r),
        r_fine=float(chosen[-1].r),
        n_scales=len(xf),
        local_slopes=tuple(float(v) for v in local),
        window_ok=window_ok,
    )


def _stream_spectrum(blocks, q_values, scales=None):
    """``estimate_spectrum`` of the points that ``blocks`` yields, in one pass.

    ``blocks`` yields the ``(start, points, counts, weights)`` blocks of
    ``_scale_pyramid``; the row count and the dimension come from the
    stream. Only the mesh accumulators outlive a block, so memory does not
    grow with the number of points, and by the fold rule of
    ``MeshAccumulator`` the results do not depend on how the points are
    split into blocks. The q values and scales are checked before the first
    block is read.
    """
    for q in q_values:
        _check_q(q)
    count, pyramid = _scale_pyramid(blocks, scales)
    out = []
    for q in q_values:
        records = _records(pyramid, count, q)
        out.append((records, fit_dimension(records, q)))
    return out


def estimate_spectrum(sample, q_values, scales=None):
    """``(records, fit)`` for every moment order, in the order of ``q_values``.

    Every q reads one scale pyramid, so the sample is binned once when
    consecutive scales are related by integer factors. The sample enters the
    pyramid as a stream of one block. Raises ``ValueError`` for a non-finite
    q before any binning.
    """
    return _stream_spectrum([(0, sample.points, None, sample.weights)], q_values, scales)


def write_spectrum_csv(records: list[ScaleRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q", "r", "sum", "cells"])
        for rec in records:
            writer.writerow([repr(rec.q), repr(rec.r), repr(rec.value), rec.cells])


def write_fit_csv(estimates: list[SpectrumEstimate], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q", "dimension", "stderr", "residual",
                         "r_coarse", "r_fine", "n_scales"])
        for est in estimates:
            writer.writerow([repr(est.q), repr(est.dimension), repr(est.stderr),
                             repr(est.residual), repr(est.r_coarse),
                             repr(est.r_fine), est.n_scales])
