import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import group_sums, mesh_bins

from qdims import empirical
from qdims.codespace import BernoulliMeasure
from qdims.empirical import (
    MeshAccumulator,
    ball_moment_integral,
    default_scales,
    estimate_dimension,
    estimate_spectrum,
    fit_dimension,
    write_fit_csv,
    write_spectrum_csv,
)
from qdims.errors import InsufficientScalesError
from qdims.systems import AttractorSample, FiniteTranslationSet, SimilarSystem, sample_measure


def point_sample(points, weights=None):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 1 and pts.shape[1] > 1 and np.ndim(points) == 1:
        pts = pts.T
    n = len(pts)
    w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, float)
    return AttractorSample(points=pts, weights=w)


def uniform_sample(n, d=1, seed=0):
    rng = np.random.default_rng(seed)
    return AttractorSample(points=rng.uniform(0, 1, size=(n, d)),
                           weights=np.full(n, 1.0 / n))


class TestMeshAccumulator:
    def test_half_open_convention(self):
        s = point_sample([[0.0], [0.499], [0.5], [0.999]])
        acc = MeshAccumulator.from_sample(s, 0.5)
        cells = {tuple(c) for c in acc.cells()}
        assert cells == {(0,), (1,)}
        assert np.allclose(sorted(acc.masses()), [0.5, 0.5])

    def test_negative_coordinates(self):
        s = point_sample([[-0.25], [0.25]])
        acc = MeshAccumulator.from_sample(s, 0.5)
        assert {tuple(c) for c in acc.cells()} == {(-1,), (0,)}

    def test_mass_conserved(self):
        s = uniform_sample(5000, d=2, seed=3)
        for r in (0.25, 0.03125, 2.0**-9):
            acc = MeshAccumulator.from_sample(s, r)
            assert acc.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_coarsen_matches_direct_binning(self):
        s = uniform_sample(20_000, d=2, seed=4)
        fine = MeshAccumulator.from_sample(s, 2.0**-8)
        re_binned = fine.coarsen(2)
        direct = MeshAccumulator.from_sample(s, 2.0**-7)
        assert np.array_equal(re_binned.cells(), direct.cells())
        assert np.allclose(re_binned.masses(), direct.masses(), atol=1e-12)

    def test_merge_is_chunk_order_independent(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(1000, 2))
        w = np.full(1000, 1e-3)
        a = MeshAccumulator(0.1, 2)
        a.add(pts[:300], w[:300])
        a.add(pts[300:], w[300:])
        b = MeshAccumulator(0.1, 2)
        b.add(pts[600:], w[600:])
        b.add(pts[:600], w[:600])
        assert np.array_equal(a.cells(), b.cells())
        assert np.allclose(a.masses(), b.masses(), atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([1, 2, 3]),
           st.sampled_from([0.5, 0.1, 0.07]))
    def test_mass_conservation_property(self, seed, d, r):
        rng = np.random.default_rng(seed)
        n = 200
        pts = rng.normal(scale=3.0, size=(n, d))
        w = rng.uniform(0.1, 1.0, size=n)
        w /= w.sum()
        acc = MeshAccumulator.from_points(pts, w, r)
        assert acc.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_non_finite_points_rejected(self):
        with pytest.raises(ValueError, match=r"point 1 \[nan\] is not finite"):
            MeshAccumulator.from_points([[0.1], [np.nan], [np.inf]], [0.2, 0.3, 0.5], 0.25)
        acc = MeshAccumulator(0.5, 2)
        with pytest.raises(ValueError, match=r"point 2 \[0.0, -inf\]"):
            acc.add(np.array([[0.0, 0.0], [1.0, 1.0], [0.0, -np.inf]]), np.full(3, 1 / 3))
        assert len(acc) == 0

    def test_points_beyond_the_packed_range_rejected(self):
        limit = 2.0**61
        acc = MeshAccumulator.from_points([[-limit * 0.25], [(limit - 1024) * 0.25]],
                                          [0.5, 0.5], 0.25)
        assert acc.cells().ravel().tolist() == [-2**61, 2**61 - 1024]
        for far in (limit * 0.25, -(limit + 2048) * 0.25):
            with pytest.raises(ValueError, match="point 1 .* beyond 2\\*\\*61 cells"):
                MeshAccumulator.from_points([[0.0], [far]], [0.5, 0.5], 0.25)

    def test_weights_must_match_the_point_rows(self):
        # taken as given, these blocks would lose the cell of 0.3 and shift
        # the masses of the rest
        acc = MeshAccumulator(0.1, 1)
        with pytest.raises(ValueError, match=r"3 points need as many weights, got shape \(2,\)"):
            acc.add([[0.1], [0.2], [0.3]], [0.5, 0.5])
        with pytest.raises(ValueError, match=r"1 points need as many weights, got shape \(2,\)"):
            acc.add([[0.4]], [0.25, 0.25])
        assert len(acc) == 0

    def test_points_must_have_the_accumulator_dimension(self):
        acc = MeshAccumulator(0.25, 2)
        with pytest.raises(ValueError, match=r"shape \(3, 1\) do not have dimension 2"):
            acc.add([0.1, 0.2, 0.3], np.full(3, 1 / 3))
        with pytest.raises(ValueError, match=r"shape \(2, 3\) do not have dimension 2"):
            acc.add(np.zeros((2, 3)), np.full(2, 0.5))
        acc.add([[0.1, 0.2]], [1.0])
        assert acc.cells().tolist() == [[0, 0]] and acc.masses().tolist() == [1.0]


@st.composite
def binning_cases(draw):
    """Points whose cell cubes fall on both sides of the counting threshold.

    Spreads of 3 and 300 cells per axis stay under ``2**16`` cells in 1-D,
    300 and 70,000 cross it in 2-D and 1-D, and ``2**40`` takes 2-D and 3-D
    past the ``2**62`` cells that int64 offsets hold. Rows repeat, some
    weights are zero, and the points are added in random chunks. The fold
    floor ranges from a fold on nearly every ``add`` to none before the
    first read.
    """
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(0, 80))
    spread = draw(st.sampled_from([3, 300, 70_000, 2**40]))
    r = draw(st.sampled_from([0.5, 0.1, 0.07]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = (rng.integers(-spread, spread + 1, size=(n, d)) + rng.random((n, d))) * r
    if n:
        pts[rng.random(n) < 0.3] = pts[rng.integers(0, n)]
    w = rng.random(n)
    w[rng.random(n) < 0.2] = 0.0
    cuts = np.sort(rng.integers(0, n + 1, size=draw(st.integers(0, 4))))
    fold_rows = draw(st.sampled_from([1, 3, 16, 2**16]))
    return pts, w, r, np.split(np.arange(n), cuts), fold_rows


class TestBinningOracle:
    @settings(max_examples=300, deadline=None)
    @given(binning_cases())
    def test_cells_and_masses_match_point_order_sums(self, case):
        pts, w, r, chunks, fold_rows = case
        acc = MeshAccumulator(r, pts.shape[1])
        with mock.patch.object(empirical, "_FOLD_ROWS", fold_rows):
            for chunk in chunks:
                acc.add(pts[chunk], w[chunk])
        cells, masses = mesh_bins(pts, w, r)
        assert acc.cells().dtype == np.int64 and acc.cells().shape == cells.shape
        assert np.array_equal(acc.cells(), cells)
        assert acc.masses().tobytes() == masses.tobytes()
        # coarsening sums the fine masses in fine-cell order
        coarse_cells, coarse_masses = group_sums(
            [tuple(c // 3 for c in cell) for cell in cells.tolist()], masses.tolist(),
            pts.shape[1])
        coarse = acc.coarsen(3)
        assert coarse.cells().shape == coarse_cells.shape
        assert np.array_equal(coarse.cells(), coarse_cells)
        assert coarse.masses().tobytes() == coarse_masses.tobytes()

    def test_zero_weight_cell_is_kept(self):
        acc = MeshAccumulator.from_points([[0.1], [0.6], [0.7]], [0.0, 0.5, 0.5], 0.25)
        assert acc.cells().ravel().tolist() == [0, 2]
        assert acc.masses().tolist() == [0.0, 1.0]

    def test_zero_mass_cell_adds_nothing_to_entropy(self):
        acc = MeshAccumulator.from_points([[0.1], [0.6], [0.7], [0.9]],
                                          [0.0, 0.25, 0.25, 0.5], 0.25)
        assert acc.masses().tolist() == [0.0, 0.5, 0.5]
        assert acc.entropy() == 2 * (0.5 * np.log(0.5))


@st.composite
def counted_blocks(draw):
    """Distinct points with row counts, their scales, and a fold size.

    With a big count one point stands for more than ``2**16`` rows. The
    scales step by 1.5 twice and then by 2, so three of them are base
    scales, none an integer multiple of another, and the rest coarsen the
    one below.
    """
    d = draw(st.sampled_from([1, 2, 3]))
    m = draw(st.integers(1, 40))
    spread = draw(st.sampled_from([3, 300, 70_000]))
    r = draw(st.sampled_from([0.5, 0.1, 0.07]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = (rng.integers(-spread, spread + 1, size=(m, d)) + rng.random((m, d))) * r
    counts = rng.integers(1, 30, size=m)
    if draw(st.booleans()):
        counts[rng.integers(m)] = 2**16 + rng.integers(1, 3000)
    scales = [r * f for f in (1, 1.5, 2.25, 4.5, 9)]
    fold_rows = draw(st.sampled_from([1, 16, 2**16]))
    return points, counts, scales, fold_rows


class TestCountedBinning:
    @settings(max_examples=60, deadline=None)
    @given(counted_blocks())
    def test_counted_block_bins_each_point_with_the_mass_of_its_rows(self, case):
        points, counts, scales, fold_rows = case
        n = int(counts.sum())
        weights = np.full(len(points), 1.0 / n)
        rows = np.repeat(points, counts, axis=0)
        with mock.patch.object(empirical, "_FOLD_ROWS", fold_rows):
            count, pyramid = empirical._scale_pyramid([(0, points, counts, weights)], scales)
            _, weighted = empirical._scale_pyramid([(0, points, None, counts * weights)], scales)
            n_rows, repeated = empirical._scale_pyramid([(0, rows, None, np.full(n, 1 / n))],
                                                        scales)
        # the rows count toward occupancy; each point is binned once with
        # the bits of its rows' mass, and the cells are the rows' cells
        assert count == n_rows == n
        for (r, acc), (_, ref), (_, row_acc) in zip(pyramid, weighted, repeated):
            assert np.array_equal(acc.cells(), ref.cells())
            assert acc.masses().tobytes() == ref.masses().tobytes()
            assert np.array_equal(acc.cells(), row_acc.cells())
            np.testing.assert_allclose(acc.masses(), row_acc.masses(), rtol=1e-9, atol=0)
        assert [rec.occupancy for rec in empirical._records(pyramid, count, 2.0)] == [
            rec.occupancy for rec in empirical._records(repeated, n_rows, 2.0)]

    def test_pyramid_names_the_first_far_row_of_counted_blocks(self):
        # the counted block's second point lies beyond 2**61 cells of the
        # finest side; two plain rows and the first point's three come first
        plain = (0, np.array([[0.125], [0.25]]), None, np.full(2, 0.125))
        points = np.array([[0.25], [3.0]])
        counted = (2, points, np.array([3, 3]), np.full(2, 0.125))
        scales = [2.0**-62, 2.0**-4, 2.0**-3, 2.0**-2]
        with pytest.raises(InsufficientScalesError, match=r"row 6 \[3.0\] lies beyond"):
            empirical._scale_pyramid(iter([plain, counted]), scales)
        n, pyramid = empirical._scale_pyramid([(0, points[:1], np.array([3]), np.full(1, 0.125))],
                                              scales)
        assert n == 3 and pyramid[0][1].masses().tolist() == [0.375]


class TestMomentSums:
    def test_point_mass_every_scale(self):
        s = point_sample([[0.3]] * 5)
        for r in (0.5, 0.1, 0.01):
            acc = MeshAccumulator.from_sample(s, r)
            for q in (0.0, 0.5, 2.0, 3.0):
                assert acc.moment(q) == pytest.approx(1.0, abs=1e-12)

    def test_two_half_cells(self):
        s = point_sample([[0.1], [0.9]])
        assert MeshAccumulator.from_sample(s, 0.5).moment(2) == pytest.approx(0.5, abs=1e-15)

    def test_lebesgue_oracle(self):
        s = uniform_sample(10**6, seed=1)
        r = 2.0**-7
        assert MeshAccumulator.from_sample(s, r).moment(2) == pytest.approx(r, rel=0.01)

    def test_entropy_point_mass(self):
        assert MeshAccumulator.from_sample(point_sample([[0.2]] * 3), 0.5).entropy() == 0.0

    def test_entropy_two_cells(self):
        s = point_sample([[0.1], [0.9]])
        assert MeshAccumulator.from_sample(s, 0.5).entropy() == pytest.approx(-np.log(2),
                                                                              abs=1e-12)

    def test_entropy_lebesgue(self):
        s = uniform_sample(10**6, seed=2)
        assert MeshAccumulator.from_sample(s, 2.0**-7).entropy() == pytest.approx(
            -7 * np.log(2), rel=0.02)


class TestBallIntegral:
    def test_point_mass(self):
        s = point_sample([[0.5]] * 4)
        for q in (0.5, 2.0, 3.0):
            res = ball_moment_integral(s, 0.1, q)
            assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_two_distant_points(self):
        s = point_sample([[0.0], [1.0]])
        res = ball_moment_integral(s, 0.2, 2)
        assert res.value == pytest.approx(0.5, abs=1e-12)

    def test_uniform_interior_oracle(self):
        # int nu(B(x,r)) dnu = 2r - r**2 for Lebesgue on [0,1]
        s = uniform_sample(20_000, seed=5)
        r = 0.01
        res = ball_moment_integral(s, r, 2)
        assert res.value == pytest.approx(2 * r - r * r, rel=0.05)
        assert res.excluded == 0

    def test_q_one_log_form(self):
        s = uniform_sample(20_000, seed=6)
        r = 0.01
        res = ball_moment_integral(s, r, 1)
        assert res.value == pytest.approx(np.log(2 * r), abs=0.05)


class TestScaleRecordsAndFit:
    def test_exact_power_law(self):
        from qdims.empirical import ScaleRecord

        s_true = 0.7
        q = 2.0
        records = [
            ScaleRecord(q=q, r=r, value=r ** (s_true * (q - 1)), cells=1000,
                        occupancy=100.0, included=True)
            for r in default_scales()
        ]
        est = fit_dimension(records, q)
        assert est.dimension == pytest.approx(s_true, abs=1e-12)
        assert est.residual == pytest.approx(0.0, abs=1e-12)
        assert est.window_ok

    def test_insufficient_scales(self):
        from qdims.empirical import ScaleRecord

        records = [ScaleRecord(q=2, r=r, value=r, cells=10, occupancy=100.0,
                               included=True) for r in (0.5, 0.25, 0.125)]
        with pytest.raises(InsufficientScalesError):
            fit_dimension(records, 2)

    def test_occupancy_flag_excludes_sparse_scales(self):
        s = uniform_sample(10_000, seed=7)
        [(records, _)] = estimate_spectrum(s, (2,), tuple(2.0**-e for e in range(4, 13)))
        finest = min(records, key=lambda rec: rec.r)
        assert not finest.included
        coarsest = max(records, key=lambda rec: rec.r)
        assert coarsest.included

    def test_point_mass_dimension_zero(self):
        s = point_sample([[0.37]] * 64)
        for q in (0.5, 2.0):
            _, est = estimate_dimension(s, q, default_scales())
            assert abs(est.dimension) <= 0.01

    def test_uniform_1d_dimension(self):
        s = uniform_sample(10**6, d=1, seed=8)
        for q in (0.5, 1.0, 2.0):
            _, est = estimate_dimension(s, q, default_scales())
            assert est.dimension == pytest.approx(1.0, abs=0.05)

    def test_uniform_2d_dimension(self):
        s = uniform_sample(10**6, d=2, seed=9)
        scales = tuple(2.0**-e for e in range(3, 9))
        for q in (1.0, 2.0):
            _, est = estimate_dimension(s, q, scales)
            assert est.dimension == pytest.approx(2.0, abs=0.05)

    def test_fitted_dimension_monotone_on_weighted_cantor(self):
        system = SimilarSystem([[1 / 3, 1 / 3]])
        scheme = FiniteTranslationSet(vectors=[[0.0], [2 / 3]])
        measure = BernoulliMeasure([[0.75, 0.25]])
        s = sample_measure(system, scheme, measure, count=300_000, seed=11,
                           target_resolution=2.0**-11)
        scales = tuple(2.0**-e for e in range(4, 12))
        fits = [estimate_dimension(s, q, scales)[1] for q in (0.5, 1.0, 2.0, 3.0)]
        for a, b in zip(fits, fits[1:]):
            slack = 2 * (a.stderr + b.stderr)
            assert b.dimension <= a.dimension + slack

    def test_csv_writers(self, tmp_path):
        s = uniform_sample(5000, seed=10)
        [(records, est)] = estimate_spectrum(s, (2,), tuple(2.0**-e for e in range(3, 8)))
        spec = tmp_path / "spectrum.csv"
        fits = tmp_path / "fits.csv"
        write_spectrum_csv(records, spec)
        write_fit_csv([est], fits)
        assert spec.read_text().splitlines()[0] == "q,r,sum,cells"
        assert fits.read_text().splitlines()[0].startswith("q,dimension,stderr")
        assert len(spec.read_text().splitlines()) == len(records) + 1


@pytest.mark.parametrize("q", [np.inf, np.nan], ids=["inf", "nan"])
class TestNonFiniteQ:
    def test_estimate_spectrum_rejects_it_before_binning(self, q, monkeypatch, capfd):
        def refuse(*args):
            raise AssertionError("points binned")

        monkeypatch.setattr(MeshAccumulator, "add", refuse)
        with pytest.raises(ValueError, match="q must be finite"):
            estimate_spectrum(uniform_sample(2000, seed=18), [2.0, q],
                              tuple(2.0**-e for e in range(3, 8)))
        assert capfd.readouterr().err == ""

    def test_moment_rejects_it(self, q):
        acc = MeshAccumulator.from_sample(uniform_sample(100, seed=19), 0.25)
        with pytest.raises(ValueError, match="q must be finite"):
            acc.moment(q)

    def test_fit_dimension_rejects_it(self, q):
        s = uniform_sample(2000, seed=20)
        [(records, _)] = estimate_spectrum(s, (2.0,), tuple(2.0**-e for e in range(3, 8)))
        with pytest.raises(ValueError, match="q must be finite"):
            fit_dimension(records, q)
        with pytest.raises(ValueError, match="q must be finite"):
            fit_dimension([dataclasses.replace(rec, q=q) for rec in records])


class TestEstimateSpectrum:
    @pytest.mark.parametrize("d, scales", [
        (1, tuple(2.0**-e for e in range(3, 11))),
        (2, tuple(2.0**-e for e in range(2, 8))),
        (1, (0.3, 0.1, 0.05, 0.02, 0.01, 0.004)),
        (2, (0.4, 0.15, 0.1, 0.05, 0.03, 0.02)),
    ], ids=["1d-dyadic", "2d-dyadic", "1d-non-dyadic", "2d-non-dyadic"])
    def test_matches_per_q_estimates_exactly(self, d, scales):
        s = uniform_sample(40_000, d=d, seed=12)
        q_values = (0.5, 1.0, 2.0, 3.0)
        spectrum = estimate_spectrum(s, q_values, scales)
        assert len(spectrum) == len(q_values)
        for q, (records, est) in zip(q_values, spectrum):
            ref_records, ref_est = estimate_dimension(s, q, scales)
            assert records == ref_records
            assert est == ref_est

    def test_bins_once_for_dyadic_scales(self, monkeypatch):
        fed = []
        original = MeshAccumulator.add

        def counting(self, points, weights):
            fed.append(self)
            return original(self, points, weights)

        monkeypatch.setattr(MeshAccumulator, "add", counting)
        s = uniform_sample(40_000, d=2, seed=13)
        estimate_spectrum(s, (0.5, 1.0, 2.0), tuple(2.0**-e for e in range(1, 6)))
        # one accumulator takes the points, once, at the finest scale
        assert [acc.r for acc in fed] == [2.0**-5]

    def test_small_boxes_are_counted_not_sorted(self, monkeypatch):
        s = uniform_sample(10**5, seed=16)

        def refuse(*args, **kwargs):
            raise AssertionError("np.unique called")

        monkeypatch.setattr(np, "unique", refuse)
        [(_, est)] = estimate_spectrum(s, (2.0,))
        assert est.dimension == pytest.approx(1.0, abs=0.02)

    def test_zero_weight_point_alone_in_its_cell(self):
        # 0 log 0 = 0: the empty-mass cell leaves every sum as it was, and
        # it still counts as occupied
        base = uniform_sample(20_000, seed=17)
        s = AttractorSample(points=np.vstack([base.points, [[5.0]]]),
                            weights=np.append(base.weights, 0.0))
        q_values = (0.5, 1.0, 2.0)
        for (records, est), (ref_records, ref_est) in zip(estimate_spectrum(s, q_values),
                                                          estimate_spectrum(base, q_values)):
            assert np.isfinite(est.dimension)
            assert est.dimension == pytest.approx(ref_est.dimension, rel=1e-9)
            assert [rec.cells for rec in records] == [rec.cells + 1 for rec in ref_records]
            for rec, ref in zip(records, ref_records):
                assert rec.value == pytest.approx(ref.value, rel=1e-12)

    def test_default_scales_only_for_none(self):
        s = uniform_sample(20_000, seed=14)
        [(records, _)] = estimate_spectrum(s, (2.0,))
        assert [rec.r for rec in records] == list(default_scales())
        with pytest.raises(InsufficientScalesError):
            estimate_spectrum(s, (2.0,), ())
        with pytest.raises(InsufficientScalesError):
            estimate_dimension(s, 2.0, [])

    def test_repeated_scale_rejected(self):
        s = uniform_sample(20_000, seed=15)
        with pytest.raises(InsufficientScalesError, match="more than once"):
            estimate_spectrum(s, (2.0,), (0.25, 0.25, 0.125, 0.0625, 0.03125, 0.015625))
