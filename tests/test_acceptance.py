"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Everything is analytic-oracle or property based; there is
no fixture data.
"""

import dataclasses
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from oracles import singular_value_function, singular_values

import qdims as qd
from qdims.harness import ExperimentConfig, emit_report, parse_report_csv, run_experiment

LOG2, LOG3 = np.log(2), np.log(3)


@contextmanager
def criterion(number, name, limit_seconds=None):
    t0 = time.time()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number} {name}: FAIL ({time.time() - t0:.1f}s)")
        raise
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s)")
    if limit_seconds is not None:
        assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"


def random_stationary_system(rng):
    n = int(rng.integers(2, 5))
    c = rng.uniform(0.1, 0.45, size=n)
    p = rng.uniform(0.2, 1.0, size=n)
    p /= p.sum()
    return c, p


@pytest.fixture(scope="module")
def cantor_setup():
    system = qd.SimilarSystem([[1 / 3, 1 / 3]])
    scheme = qd.FiniteTranslationSet(vectors=[[0.0], [2 / 3]])
    measure = qd.BernoulliMeasure([[0.75, 0.25]])
    sample = qd.sample_measure(system, scheme, measure, count=10**6, seed=7,
                               target_resolution=2.0**-12)
    return system, scheme, measure, sample


@pytest.fixture(scope="module")
def cantor_fits(cantor_setup):
    _, _, _, sample = cantor_setup
    scales = tuple(2.0**-e for e in range(4, 13))
    return {q: qd.estimate_dimension(sample, q, scales)[1]
            for q in (0.5, 1.0, 2.0, 3.0)}


def test_criterion_1_stationary_closed_form():
    with criterion(1, "stationary closed form", limit_seconds=1.0):
        got = qd.stationary_dimension([1 / 3, 1 / 3], [0.5, 0.5], 2)
        assert abs(got - LOG2 / LOG3) < 1e-9
        got = qd.stationary_dimension([0.5, 0.25], [0.5, 0.5], 2)
        assert abs(got - np.log2((-1 + np.sqrt(17)) / 2)) < 1e-9
        got = qd.stationary_dimension([0.25, 0.5], [0.5, 0.5], 1)
        assert abs(got - 2 / 3) < 1e-12


def test_criterion_2_method_agreement():
    with criterion(2, "product/cut-set agreement with closed form",
                   limit_seconds=60.0):
        rng = np.random.default_rng(20220)
        for _ in range(20):
            c, p = random_stationary_system(rng)
            system = qd.SimilarSystem([c])
            measure = qd.BernoulliMeasure([p])
            for q in (0.5, 2.0, 3.0):
                closed = qd.stationary_dimension(c, p, q)
                prod = qd.product_dimension(system, measure, q)
                cut = qd.cutset_dimension(system, measure, q)
                assert prod.lower == prod.upper == closed, (c, p, q)
                assert abs(cut.value - closed) < 1e-3, (c, p, q)


def test_criterion_3_empirical_vs_theory_under_ssc(cantor_setup, cantor_fits):
    with criterion(3, "empirical matches theory under strong separation",
                   limit_seconds=300.0):
        for q, est in cantor_fits.items():
            d_q = qd.stationary_dimension([1 / 3, 1 / 3], [0.75, 0.25], q)
            target = min(d_q, 1.0)
            assert abs(est.dimension - target) < 0.05, (q, est.dimension, target)
        # uniform-interval control
        system = qd.SimilarSystem([[0.5, 0.5]])
        scheme = qd.FiniteTranslationSet(vectors=[[0.0], [0.5]])
        measure = qd.BernoulliMeasure([[0.5, 0.5]])
        sample = qd.sample_measure(system, scheme, measure, count=10**6, seed=17,
                                   target_resolution=2.0**-12)
        scales = tuple(2.0**-e for e in range(4, 13))
        for q in (0.5, 1.0, 2.0, 3.0):
            _, est = qd.estimate_dimension(sample, q, scales)
            assert abs(est.dimension - 1.0) < 0.05, (q, est.dimension)


def test_criterion_4_upper_bound_for_overlapping_systems():
    with criterion(4, "fitted dimension below the clamped exponent (overlaps)",
                   limit_seconds=600.0):
        rng = np.random.default_rng(440)
        # the overlap-induced concentration only shows at fine scales, so
        # the ladder starts below the coarse pre-asymptotic plateau
        scales = tuple(2.0**-e for e in range(5, 13))
        overlapping = 0
        for trial in range(10):
            n = int(rng.integers(2, 4))
            c = rng.uniform(0.1, 0.45, size=n)
            offsets = np.zeros(n)
            offsets[1] = c[0] * rng.uniform(0.2, 0.8)
            for j in range(2, n):
                offsets[j] = rng.uniform(0.0, 1.0 - c[j])
            p = rng.uniform(0.2, 1.0, size=n)
            p /= p.sum()
            system = qd.SimilarSystem([c])
            scheme = qd.FiniteTranslationSet(vectors=[[o] for o in offsets])
            measure = qd.BernoulliMeasure([p])
            # the pieces of the attractor, whose hull runs between the maps'
            # extreme fixed points, overlap in two of the ten trials; the
            # certificate sees them, and sees the other eight apart
            fixed = offsets / (1.0 - c)
            lo, hi = c * fixed.min() + offsets, c * fixed.max() + offsets
            order = np.argsort(lo)
            overlap = bool((lo[order][1:] < np.maximum.accumulate(hi[order])[:-1]).any())
            overlapping += overlap
            osc = qd.check_separation(system, scheme, depth=1, kind="osc")
            assert osc.holds_at_depth == (not overlap), trial
            d2 = qd.stationary_dimension(c, p, 2)
            sample = qd.sample_measure(system, scheme, measure, count=10**6,
                                       seed=440 + trial,
                                       target_resolution=min(scales))
            _, est = qd.estimate_dimension(sample, 2, scales)
            assert est.dimension <= min(d2, 1.0) + 0.05, (trial, est.dimension, d2)
        assert overlapping == 2


def _random_contraction_batch(rng, count, d, top=0.9):
    mats = rng.normal(size=(count, d, d))
    tops = np.linalg.svd(mats, compute_uv=False)[:, 0]
    scale = top * rng.uniform(0.3, 1.0, size=count) / tops
    return mats * scale[:, None, None]


def test_criterion_5_singular_value_function_suite():
    with criterion(5, "singular value function identities", limit_seconds=10.0):
        rng = np.random.default_rng(55)
        for d in (2, 3):
            count = 10**4
            left = _random_contraction_batch(rng, count, d)
            right = _random_contraction_batch(rng, count, d)
            prod = np.einsum("nij,njk->nik", left, right)
            from qdims.singular import batched_log_singular_values, svf_log

            logs_l = batched_log_singular_values(left)
            logs_r = batched_log_singular_values(right)
            logs_p = batched_log_singular_values(prod)

            # identities at the endpoints
            assert np.all(svf_log(logs_l, 0.0) == 0.0)
            dets = np.abs(np.linalg.det(left))
            assert np.allclose(np.exp(svf_log(logs_l, float(d))), dets, rtol=1e-10)
            # continuity across integer branch points
            for m in range(1, d + 1):
                mid = svf_log(logs_l, float(m))
                lo = svf_log(logs_l, float(m) - 1e-9)
                hi = svf_log(logs_l, float(m) + 1e-9)
                assert np.max(np.abs(np.exp(lo) - np.exp(mid))) < 1e-6
                assert np.max(np.abs(np.exp(hi) - np.exp(mid))) < 1e-6
            # strict decrease in s
            grid = np.arange(0.0, d + 0.5, 0.25)
            vals = np.stack([svf_log(logs_l, float(s)) for s in grid])
            assert np.all(np.diff(vals, axis=0) < 0)
            # submultiplicativity over matrix products, 1e-10 slack
            for s in (0.5, 1.0, 1.5, float(d), d + 0.7):
                lhs = svf_log(logs_p, float(s))
                rhs = svf_log(logs_l, float(s)) + svf_log(logs_r, float(s))
                assert np.all(lhs <= rhs + 1e-10)
        # spot checks through the scalar API
        T = np.diag([0.5, 0.2])
        assert singular_value_function(T, 0.0) == 1.0
        assert singular_value_function(T, 2.0) == pytest.approx(0.1, rel=1e-12)
        assert singular_values(T).values == pytest.approx([0.5, 0.2])


def test_criterion_6_stationary_affine_solver():
    with criterion(6, "stationary affine solver vs factorized oracles",
                   limit_seconds=120.0):
        # consistently dominant diagonal family: per-letter factors are exact
        t = np.array([[0.8, 0.25], [0.75, 0.2]])
        p = np.array([0.5, 0.5])
        mats = [np.diag(t[0]), np.diag(t[1])]

        def oracle(q):
            if q == 1.0:
                ent = float(p @ np.log(p))
                chi1 = float(p @ np.log(t[:, 0]))
                chi2 = float(p @ np.log(t[:, 1]))
                return 1.0 + (ent - chi1) / chi2
            lo, hi = 0.0, 2.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                svf = t[:, 0] ** mid if mid <= 1 else t[:, 0] * t[:, 1] ** (mid - 1)
                if float((svf ** (1 - q) * p**q).sum()) < 1.0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        for q in (1.0, 1.5, 2.0):
            ce = qd.stationary_affine_dimension(mats, p, q)
            assert abs(ce.value - oracle(q)) < 1e-4, (q, ce.value, oracle(q))

        # scalar family reduces to the similarity closed form
        c = np.array([0.45, 0.3])
        ps = np.array([0.6, 0.4])
        scalar = [c[0] * np.eye(2), c[1] * np.eye(2)]
        for q in (1.0, 1.5, 2.0):
            ce = qd.stationary_affine_dimension(scalar, ps, q)
            assert abs(ce.value - qd.stationary_dimension(c, ps, q)) < 1e-6


def test_criterion_7_randomized_translations():
    with criterion(7, "randomized translations recover the exponent",
                   limit_seconds=600.0):
        mats = [np.diag([0.45, 0.40]), np.diag([0.42, 0.38]), np.diag([0.40, 0.35])]
        p = [1 / 3, 1 / 3, 1 / 3]
        system = qd.AffineSystem([mats])
        assert system.contraction_bound < 0.5
        measure = qd.BernoulliMeasure([p])
        d2 = qd.stationary_affine_dimension(mats, p, 2).value
        target = min(d2, 2.0)
        scales = tuple(2.0**-e for e in range(5, 13))

        for i in range(5):
            scheme = qd.RandomBoxTranslations(low=[0, 0], high=[1, 1], seed=1000 + i)
            sample = qd.sample_measure(system, scheme, measure, count=10**6,
                                       seed=i, target_resolution=min(scales))
            _, est = qd.estimate_dimension(sample, 2, scales)
            assert abs(est.dimension - target) < 0.1, ("box", i, est.dimension, target)

        base = qd.FiniteTranslationSet(vectors=[[0.0, 0.0], [0.5, 0.3], [0.25, 0.6]],
                                       jitter_radius=0.35)
        for i in range(5):
            scheme = base.realize(5000 + i)
            sample = qd.sample_measure(system, scheme, measure, count=10**6,
                                       seed=100 + i, target_resolution=min(scales))
            _, est = qd.estimate_dimension(sample, 2, scales)
            assert abs(est.dimension - target) < 0.1, ("gamma", i, est.dimension, target)


def test_criterion_8_monotonicity(cantor_fits):
    with criterion(8, "exponents nonincreasing in q"):
        q_grid = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
        batteries = [
            (np.array([1 / 3, 1 / 3]), np.array([0.75, 0.25])),
            (np.array([0.5, 0.5]), np.array([0.5, 0.5])),
            (np.array([0.5, 0.25]), np.array([0.5, 0.5])),
            (np.array([0.25, 0.5]), np.array([0.5, 0.5])),
        ]
        rng = np.random.default_rng(808)
        for _ in range(10):
            batteries.append(random_stationary_system(rng))
        for c, p in batteries:
            vals = [qd.stationary_dimension(c, p, q) for q in q_grid]
            assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:])), (c, p, vals)
        # stationary affine battery over its supported q range
        mats = [np.diag([0.45, 0.3]), np.diag([0.4, 0.25])]
        vals = [qd.stationary_affine_dimension(mats, [0.5, 0.5], q, level_cap=2**14).value
                for q in (1.0, 1.5, 2.0, 3.0, 4.0)]
        assert all(a >= b - 1e-6 for a, b in zip(vals, vals[1:]))
        # fitted spectrum on the weighted Cantor measure, within twice fit error
        fits = [cantor_fits[q] for q in (0.5, 1.0, 2.0, 3.0)]
        for a, b in zip(fits, fits[1:]):
            assert b.dimension <= a.dimension + 2 * (a.stderr + b.stderr)


def test_criterion_9_determinism_and_round_trip(tmp_path):
    with criterion(9, "byte-identical reports and lossless CSV"):
        config_path = Path(__file__).resolve().parent.parent / "configs" / "cantor.json"
        config = ExperimentConfig.from_file(config_path)
        config = dataclasses.replace(config, samples=100_000)
        r1 = run_experiment(config)
        r2 = run_experiment(config)
        p1 = emit_report(r1, tmp_path / "a")
        p2 = emit_report(r2, tmp_path / "b")
        for key in ("csv", "text"):
            with open(p1[key], "rb") as f1, open(p2[key], "rb") as f2:
                assert f1.read() == f2.read()
        assert parse_report_csv(p1["csv"]) == r1.rows
