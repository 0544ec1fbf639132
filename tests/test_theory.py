import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    bisect_increasing,
    group_entropy_sum,
    group_moment_sum,
    singular_values,
    word_product,
    word_spectrum,
)

from qdims.codespace import BernoulliMeasure
from qdims.errors import BranchBudgetError, IndeterminateTrendError, InsufficientScalesError
from qdims.singular import svf_log
from qdims import theory
from qdims.harness import ExperimentConfig, build_system_and_measure, theoretical_exponents
from qdims.systems import AffineSystem, SimilarSystem
from qdims.theory import (
    _level_spectra,
    _moment_sums,
    _root_of_increasing,
    affine_series_dimension,
    clamp_dimension,
    cutset_dimension,
    product_dimension,
    stationary_dimension,
)

LOG2, LOG3 = np.log(2), np.log(3)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestStationaryDimension:
    def test_uniform_cantor_q2(self):
        # 2 * (1/4) * 3**d = 1  =>  d = log 2 / log 3
        got = stationary_dimension([1 / 3, 1 / 3], [0.5, 0.5], 2)
        assert got == pytest.approx(LOG2 / LOG3, abs=1e-9)

    def test_quadratic_root_q2(self):
        # (1/4)(2**d + 4**d) = 1 with y = 2**d:  y**2 + y - 4 = 0
        got = stationary_dimension([0.5, 0.25], [0.5, 0.5], 2)
        assert got == pytest.approx(np.log2((-1 + np.sqrt(17)) / 2), abs=1e-9)

    def test_entropy_ratio_q1(self):
        got = stationary_dimension([0.25, 0.5], [0.5, 0.5], 1)
        assert got == pytest.approx(2 / 3, abs=1e-12)

    def test_weighted_cantor_q2(self):
        # 3**d * (9 + 1)/16 = 1  =>  3**d = 16/10
        got = stationary_dimension([1 / 3, 1 / 3], [0.75, 0.25], 2)
        assert got == pytest.approx(np.log(1.6) / LOG3, abs=1e-9)

    def test_maximal_measure_constant_spectrum(self):
        c = 0.4
        s0 = LOG2 / np.log(1 / c)
        p = np.array([c**s0, c**s0])
        p /= p.sum()
        for q in (0.3, 0.7, 1.0, 1.6, 2.5, 4.0):
            assert stationary_dimension([c, c], p, q) == pytest.approx(s0, abs=1e-9)

    def test_residual_below_tolerance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            c = rng.uniform(0.1, 0.45, size=n)
            p = rng.uniform(0.2, 1.0, size=n)
            p /= p.sum()
            for q in (0.5, 2.0, 3.0):
                d = stationary_dimension(c, p, q)
                residual = np.sum(c ** (d * (1 - q)) * p**q) - 1.0
                assert abs(residual) < 1e-12

    def test_rejects_nonpositive_q(self):
        with pytest.raises(ValueError):
            stationary_dimension([0.5, 0.5], [0.5, 0.5], 0.0)
        with pytest.raises(ValueError):
            stationary_dimension([0.5, 0.5], [0.5, 0.5], -1.0)

    @pytest.mark.parametrize("q", [np.inf, np.nan])
    def test_rejects_nonfinite_q(self, q):
        # inf used to return 0.0; the true D_inf of this measure is log 0.75 / log(1/3)
        with pytest.raises(ValueError, match="finite"):
            stationary_dimension([1 / 3, 1 / 3], [0.75, 0.25], q)

    def test_near_one_routes_to_entropy_form(self):
        c, p = [0.3, 0.45], [0.4, 0.6]
        d1 = stationary_dimension(c, p, 1.0)
        assert stationary_dimension(c, p, 1.0 + 1e-8) == pytest.approx(d1, abs=1e-12)
        assert stationary_dimension(c, p, 1.0 - 1e-8) == pytest.approx(d1, abs=1e-12)

    @pytest.mark.parametrize("q", [0.5, 2.0, 3.0])
    def test_uniform_interval_is_exactly_one(self, q):
        assert stationary_dimension([0.5, 0.5], [0.5, 0.5], q) == 1.0

    def test_equal_ratios_reach_the_cap_bound(self):
        # the root log 2 / -log c equals the bound log sum p**q / ((q-1) log c_max),
        # past the fixed cap of 1024 that once ended this in an error
        got = stationary_dimension([0.9995, 0.9995], [0.5, 0.5], 2.0)
        assert got == pytest.approx(LOG2 / -np.log(0.9995), rel=1e-12, abs=0)

    def test_slow_contraction_brackets_past_512_to_adjacent_floats(self):
        # log 2 / -log 0.999: the bracket doubles to 1024, and the bisection
        # ends on adjacent floats rather than at a tolerance
        assert stationary_dimension([0.999, 0.999], [0.5, 0.5], 0.5) == 692.8005491785002


def _ramps(starts, widths, heights):
    """-sum(heights)/2 plus one clipped ramp per height; flat between ramps."""
    edges = list(itertools.accumulate(starts))
    half = sum(heights) / 2.0

    def f(s):
        return sum(h * min(max((s - a) / w, 0.0), 1.0)
                   for a, w, h in zip(edges, widths, heights)) - half

    return f


INCREASING = st.one_of(
    st.builds(lambda a, r: lambda s: a * (s - r),
              st.floats(1e-3, 1e3), st.floats(0.01, 300.0)),
    st.builds(lambda b, r: lambda s: (s - r) * (s - r) * (s - r) + b * (s - r),
              st.floats(0.0, 10.0), st.floats(0.01, 300.0)),
    st.builds(lambda k, r: lambda s: math.exp(min(k * (s - r), 700.0)) - 1.0,
              st.floats(1.0, 200.0), st.floats(0.01, 300.0)),
    # integer heights can sum to exactly zero on a plateau
    st.integers(1, 4).flatmap(lambda n: st.builds(
        _ramps, st.lists(st.floats(0.01, 50.0), min_size=n, max_size=n),
        st.lists(st.floats(1e-3, 20.0), min_size=n, max_size=n),
        st.lists(st.integers(1, 3), min_size=n, max_size=n))),
)


class TestRootOfIncreasing:
    @settings(max_examples=300, deadline=None)
    @given(f=INCREASING, xtol=st.sampled_from([0.0, 1e-8, 1e-3]))
    def test_matches_bisection_oracle(self, f, xtol):
        evaluations = 0

        def counted(s):
            nonlocal evaluations
            evaluations += 1
            return np.float64(f(s))

        root, (lo, hi) = _root_of_increasing(counted, xtol)
        _, oracle_bracket, oracle_evaluations = bisect_increasing(f, xtol)
        assert type(root) is float and type(lo) is float and type(hi) is float
        assert f(lo) <= 0.0 < f(hi)
        if xtol == 0.0:
            assert hi == math.nextafter(lo, math.inf)
            assert (lo, hi) == oracle_bracket
        else:
            assert hi - lo <= xtol
        assert evaluations <= oracle_evaluations + 2

    @settings(max_examples=200, deadline=None)
    @given(f=INCREASING, xtol=st.sampled_from([0.0, 1e-8, 1e-3]))
    def test_a_root_past_one_never_probes_zero(self, f, xtol):
        # f(1) <= 0 bounds f by 0 on [0, 1], so f(0) is never needed
        assume(f(1.0) <= 0.0)
        probes = []
        _root_of_increasing(lambda s: probes.append(s) or f(s), xtol)
        assert probes[0] == 1.0 and 0.0 not in probes

    def test_unbracketed_root_names_the_cap_and_the_bracket(self):
        with pytest.raises(IndeterminateTrendError) as exc:
            _root_of_increasing(lambda s: -1.0, 1e-3, cap=100.0)
        assert "s = 64" in str(exc.value) and "cap 100" in str(exc.value)
        assert "[0, 100]" in str(exc.value) and "trend" not in str(exc.value)
        assert (exc.value.bracket_lower, exc.value.bracket_upper) == (64.0, 100.0)


class TestMomentSums:
    SIZES = (1, 2, 3, 600)

    @staticmethod
    def groups():
        rng = np.random.default_rng(11)
        log_c = [np.log(rng.uniform(0.05, 0.95, n)) for n in TestMomentSums.SIZES]
        log_p = []
        for n in TestMomentSums.SIZES:
            p = rng.uniform(0.1, 1.0, n)
            log_p.append(np.log(p / p.sum()))
        return log_c, log_p

    @pytest.mark.parametrize("q", [0.0, 0.5, 2.0])
    def test_matches_per_group_log_sum(self, q):
        log_c, log_p = self.groups()
        sums = _moment_sums([(lc[None], lp) for lc, lp in zip(log_c, log_p)], q)
        for s in (0.0, 0.4, 1.0, 2.5):
            want = [np.log(np.sum(np.exp(s * (1 - q) * lc + q * lp)))
                    for lc, lp in zip(log_c, log_p)]
            np.testing.assert_allclose(sums(s), want, rtol=0, atol=1e-12)

    def test_q_one_gives_entropy_form(self):
        log_c, log_p = self.groups()
        sums = _moment_sums([(lc[None], lp) for lc, lp in zip(log_c, log_p)], 1.0)
        for s in (0.0, 0.4, 1.0, 2.5):
            want = [np.exp(lp) @ lp - s * (np.exp(lp) @ lc) for lc, lp in zip(log_c, log_p)]
            np.testing.assert_allclose(sums(s), want, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), n=st.integers(1, 40), seed=st.integers(0, 2**16),
           q=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
           s=st.floats(0.0, 6.0))
    def test_ratio_column_matches_spectrum_of_scaled_isometry(self, d, n, seed, q, s):
        # svf(c O, s) = c**s for every s >= 0: the prefix sums m log c of the
        # d equal singular values of c O and the one row log c give the same sums
        rng = np.random.default_rng(seed)
        log_c = np.log(rng.uniform(0.05, 0.95, n))
        p = rng.uniform(0.1, 1.0, n)
        log_p = np.log(p / p.sum())
        row = _moment_sums([(log_c[None], log_p)], q)
        prefix = np.cumsum(np.repeat(log_c[None], d, axis=0), axis=0)
        spectrum = _moment_sums([(prefix, log_p)], q)
        np.testing.assert_allclose(row(s), spectrum(s), rtol=0, atol=1e-11)


def random_spectrum(rng, d, n):
    """``(prefix, log_p)`` of n words with d log singular values each, descending."""
    log_sv = -np.sort(-np.log(rng.uniform(0.05, 0.95, (d, n))), axis=0)
    p = rng.uniform(0.1, 1.0, n)
    return np.cumsum(log_sv, axis=0), np.log(p / p.sum())


class TestMomentSumsDependOnSAlone:
    # integers sit on two segments, and 3.4 lies past d for d <= 3
    GRID = (0.0, 0.3, 1.0, 1.5, 2.0, 2.6, 3.0, 3.4, 4.0)

    @settings(max_examples=80, deadline=None)
    @given(d=st.integers(1, 3), sizes=st.lists(st.integers(1, 30), min_size=1, max_size=4),
           seed=st.integers(0, 2**16), q=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
           order=st.permutations(GRID))
    def test_any_evaluation_order_gives_the_floats_of_fresh_calls(self, d, sizes, seed, q,
                                                                  order):
        rng = np.random.default_rng(seed)
        groups = [random_spectrum(rng, d, n) for n in sizes]
        sums = _moment_sums(groups, q)
        for s in order:
            assert np.array_equal(sums(s), _moment_sums(groups, q)(s))

    @settings(max_examples=15, deadline=None)
    @given(d=st.integers(1, 3), count=st.integers(1, 12), seed=st.integers(0, 2**16),
           q=st.sampled_from([0.5, 2.0, 3.0]))
    def test_packing_keeps_each_groups_bits(self, d, count, seed, q):
        # cut-set-sized groups packed into one buffer, and one group past a
        # block; each group's top word has prefix rows 0 and log p 0, so its
        # exponent is exactly 0 and log(total) keeps the total's last bit
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 1001, size=count).tolist()
        sizes.insert(int(rng.integers(count + 1)),
                     theory._SUM_BLOCK + int(rng.integers(1, 1000)))
        groups = []
        for n in sizes:
            prefix, log_p = random_spectrum(rng, d, n)
            top = int(rng.integers(n + 1))
            groups.append((np.insert(prefix, top, 0.0, axis=1), np.insert(log_p, top, 0.0)))
        together = _moment_sums(groups, q)
        alone = [_moment_sums([g], q) for g in groups]
        for s in self.GRID:
            assert together(s).tolist() == [sums(s)[0] for sums in alone]
            # a group alone takes the sum path of a packed one, so each group
            # is also held to one sum over its own exponents
            assert together(s).tolist() == [group_moment_sum(*g, q, s) for g in groups]

    @settings(max_examples=12, deadline=None)
    @given(d=st.integers(1, 3),
           sizes=st.lists(st.integers(1, 3 * theory._SUM_BLOCK), min_size=1, max_size=3),
           seed=st.integers(0, 2**16), q=st.sampled_from([0.5, 1.0, 2.5]),
           low=st.floats(0.0, 1.0, exclude_min=True), past=st.floats(0.0, 4.0, exclude_min=True))
    def test_base_free_segments_keep_the_general_formulas_bits(self, d, sizes, seed, q, low,
                                                               past):
        # through 0 and past d the exponents are formed without their zero
        # base; the general segment formula, base and all, gives the same bits
        rng = np.random.default_rng(seed)
        groups = [random_spectrum(rng, d, n) for n in sizes]
        sums = _moment_sums(groups, q)
        for s in (low, d + past):
            want = ([group_entropy_sum(*g, s) for g in groups] if q == 1.0
                    else [group_moment_sum(*g, q, s) for g in groups])
            assert sums(s).tolist() == want


def random_table(rng, d, period):
    """``(system, measure)``: ``period`` levels of 2 or 3 random d x d maps of
    norm 0.2..0.9, and random letter masses."""
    maps, probs = [], []
    for _ in range(period):
        n = int(rng.integers(2, 4))
        level = rng.normal(size=(n, d, d))
        maps.append([m * rng.uniform(0.2, 0.9) / np.linalg.norm(m, 2) for m in level])
        p = rng.uniform(0.1, 1.0, n)
        probs.append(p / p.sum())
    return AffineSystem(maps), BernoulliMeasure(probs)


class TestProductLevelSums:
    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 3), period=st.sampled_from([1, 2]), seed=st.integers(0, 2**16),
           q=st.sampled_from([1.0, 1.5, 3.0]))
    def test_products_match_the_enumerated_sums(self, d, period, seed, q):
        # at s = 0 and s >= d, svf(T, s) = |det T|**(s/d); relative 1e-12,
        # with the same floor near a log sum of 0
        system, measure = random_table(np.random.default_rng(seed), d, period)
        spectra = _level_spectra(system, measure, 6, keep_from=3)
        enumerated = _moment_sums([spectra[k] for k in sorted(spectra)], q)
        products = theory._product_level_sums(system, measure, 6, q)
        for s in (0.0, d, d + 0.5, 2.0 * d):
            np.testing.assert_allclose(products(s)[2:], enumerated(s), rtol=1e-12,
                                       atol=1e-12)


class TestProductDimension:
    @pytest.mark.parametrize("q", [np.inf, np.nan])
    def test_rejects_nonfinite_q(self, q):
        system = SimilarSystem([[1 / 3, 1 / 3]])
        with pytest.raises(ValueError, match="finite"):
            product_dimension(system, BernoulliMeasure([[0.75, 0.25]]), q)

    def test_matches_closed_form_on_stationary(self):
        system = SimilarSystem([[1 / 3, 1 / 3]])
        measure = BernoulliMeasure([[0.75, 0.25]])
        for q in (0.5, 1.0, 2.0, 3.0):
            ce = product_dimension(system, measure, q)
            expect = stationary_dimension([1 / 3, 1 / 3], [0.75, 0.25], q)
            assert ce.lower == ce.upper == expect
            assert ce.method == "closed-form"

    def test_alternating_levels(self):
        # per level pair: (s-1)log2 + (2s-1)log2 = 0  =>  s = 2/3
        system = SimilarSystem([[0.5, 0.5], [0.25, 0.25]])
        measure = BernoulliMeasure([[0.5, 0.5]])
        ce = product_dimension(system, measure, 2)
        assert ce.lower == pytest.approx(2 / 3, rel=1e-12, abs=0)
        assert ce.upper == pytest.approx(2 / 3, rel=1e-12, abs=0)

    def test_continuity_across_q_one(self):
        system = SimilarSystem([[0.3, 0.4]])
        measure = BernoulliMeasure([[0.6, 0.4]])
        at_one = product_dimension(system, measure, 1.0).value
        for q in (1.0 + 1e-4, 1.0 - 1e-4):
            near = product_dimension(system, measure, q).value
            assert abs(near - at_one) < 1e-3

    def test_explicit_head_matches_cycling_tail(self):
        # 200 equal-valued but distinct level arrays repeat the two-entry
        # table they spell out, and give the same bits
        ratios, probs = [[0.5, 0.4], [0.2, 0.3, 0.25]], [[0.6, 0.4], [0.2, 0.3, 0.5]]
        cycling = SimilarSystem(ratios), BernoulliMeasure(probs)
        head = (SimilarSystem([np.array(ratios[k % 2]) for k in range(200)]),
                BernoulliMeasure([np.array(probs[k % 2]) for k in range(200)]))
        for q in (0.5, 1.0, 2.0, 3.0):
            want = product_dimension(*cycling, q)
            got = product_dimension(*head, q)
            assert (got.lower, got.upper) == (want.lower, want.upper)
            assert got.diagnostics["levels"] == (201, 400)

    def test_level_varying_bounds_coincide(self):
        system = SimilarSystem([[0.5, 0.5], [0.25, 0.25]])
        measure = BernoulliMeasure([[0.5, 0.5]])
        ce = product_dimension(system, measure, 2)
        assert ce.lower == ce.upper
        assert ce.method == "closed-form" and ce.diagnostics == {"levels": (3, 4)}

    def test_reads_one_period_past_both_heads(self):
        # ratio head 1, tail 2; measure head 2, tail 3: levels 3..8 form the period
        system = SimilarSystem([[0.3, 0.3]], tail=[[0.2, 0.4], [0.25, 0.25]])
        measure = BernoulliMeasure([[0.5, 0.5], [0.9, 0.1]],
                                   tail=[[0.6, 0.4], [0.7, 0.3], [0.5, 0.5]])
        ce = product_dimension(system, measure, 2)
        assert ce.diagnostics["levels"] == (3, 8)
        phi = sum(np.log(np.sum(system.ratios_at(k) ** -ce.value * measure.probs(k) ** 2))
                  for k in range(3, 9))
        assert abs(phi) < 1e-12


@st.composite
def periodic_tables(draw):
    """A 1-D similarity table and measure with heads of 0-2 levels and tails of
    1-3 levels each, so the period is the lcm of the two tails; the
    branching repeats from level 1 with the gcd of the tails."""
    heads = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    tails = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = math.gcd(*tails)
    sizes = rng.integers(2, 4, g)

    def schedule(head, tail, level):
        levels = [level(int(sizes[k % g])) for k in range(head + tail)]
        # a schedule without a head cycles its first entries from level 1
        return (levels[:head], levels[head:]) if head else (levels, None)

    def probs(n):
        p = rng.uniform(0.1, 1.0, n)
        return p / p.sum()

    return (SimilarSystem(*schedule(heads[0], tails[0], lambda n: rng.uniform(0.05, 0.6, n))),
            BernoulliMeasure(*schedule(heads[1], tails[1], probs)))


def _word_logs(system, measure, depth):
    """``(log c_u, log p_u)`` of every word of length ``depth``, enumerated."""
    log_c, log_p = np.zeros(1), np.zeros(1)
    for k in range(1, depth + 1):
        log_c = np.add.outer(log_c, np.log(system.ratios_at(k))).ravel()
        log_p = np.add.outer(log_p, np.log(measure.probs(k))).ravel()
    return log_c, log_p


class TestPeriodRoot:
    @settings(max_examples=80, deadline=None)
    @given(table=periodic_tables(), q=st.sampled_from([0.3, 0.5, 1.0, 2.0, 3.5]))
    def test_brute_force_word_sums_turn_at_the_root(self, table, q):
        # the word sums of depth first - 1 and of one period deeper: their
        # ratio is 1 at the root, and past it grows for q > 1, shrinks for q < 1
        system, measure = table
        ce = product_dimension(system, measure, q)
        first, last = ce.diagnostics["levels"]
        assert last - first + 1 == math.lcm(len(system.profile.tail),
                                            len(measure.profile.tail))
        assert ce.lower == ce.upper
        (head_c, head_p), (full_c, full_p) = (_word_logs(system, measure, first - 1),
                                              _word_logs(system, measure, last))
        if q == 1.0:
            # entropy over contraction, both gained over the period
            gained = [np.exp(full_p) @ full - np.exp(head_p) @ head
                      for full, head in ((full_p, head_p), (full_c, head_c))]
            assert ce.value == pytest.approx(gained[0] / gained[1], rel=1e-9, abs=0)
            return

        def factor(d):
            return (np.sum(np.exp(d * (1 - q) * full_c + q * full_p))
                    / np.sum(np.exp(d * (1 - q) * head_c + q * head_p)))

        assert factor(ce.value) == pytest.approx(1.0, rel=0, abs=1e-9)
        assert (factor(ce.value + 1e-6) > 1.0) == (q > 1.0)
        assert (factor(ce.value - 1e-6) < 1.0) == (q > 1.0)


class TestCutsetDimension:
    def test_weighted_cantor_bracket(self):
        system = SimilarSystem([[1 / 3, 1 / 3]])
        measure = BernoulliMeasure([[0.75, 0.25]])
        ce = cutset_dimension(system, measure, 2)
        expect = np.log(1.6) / LOG3
        width = max(ce.diagnostics["brackets"]["lower"][1]
                    - ce.diagnostics["brackets"]["lower"][0], ce.upper - ce.lower)
        assert width < 0.01
        assert ce.value == pytest.approx(expect, abs=0.005)

    def test_uniform_interval_is_one(self):
        system = SimilarSystem([[0.5, 0.5]])
        measure = BernoulliMeasure([[0.5, 0.5]])
        for q in (0.5, 1.0, 2.0, 3.0):
            ce = cutset_dimension(system, measure, q)
            assert ce.value == pytest.approx(1.0, abs=1e-4)

    def test_q_zero_gives_support_exponent(self):
        system = SimilarSystem([[1 / 3, 1 / 3]])
        measure = BernoulliMeasure([[0.75, 0.25]])
        ce = cutset_dimension(system, measure, 0)
        assert ce.value == pytest.approx(LOG2 / LOG3, abs=1e-4)

    @pytest.mark.parametrize("q", [np.inf, np.nan])
    def test_rejects_nonfinite_q(self, q):
        system = SimilarSystem([[1 / 3, 1 / 3]])
        with pytest.raises(ValueError, match="finite"):
            cutset_dimension(system, BernoulliMeasure([[0.75, 0.25]]), q)

    def test_rejects_grid_above_c_lower(self):
        system = SimilarSystem([[1 / 3, 1 / 3]])
        measure = BernoulliMeasure([[0.75, 0.25]])
        with pytest.raises(ValueError):
            cutset_dimension(system, measure, 2, r_grid=[0.5, 0.1, 0.05, 0.02])

    def test_explicit_grid(self):
        system = SimilarSystem([[1 / 3, 1 / 3]])
        measure = BernoulliMeasure([[0.5, 0.5]])
        grid = [0.3 * 0.55**i for i in range(8)]
        ce = cutset_dimension(system, measure, 2, r_grid=grid)
        assert ce.value == pytest.approx(LOG2 / LOG3, abs=1e-3)

    def test_too_few_scales(self):
        system = SimilarSystem([[1 / 3, 1 / 3]])
        measure = BernoulliMeasure([[0.5, 0.5]])
        with pytest.raises(InsufficientScalesError):
            cutset_dimension(system, measure, 2, r_grid=[0.3, 0.2])


class TestMethodConsistency:
    def test_three_methods_agree_on_random_stationary(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            c = rng.uniform(0.1, 0.45, size=n)
            p = rng.uniform(0.2, 1.0, size=n)
            p /= p.sum()
            system = SimilarSystem([c])
            measure = BernoulliMeasure([p])
            for q in (0.5, 2.0):
                closed = stationary_dimension(c, p, q)
                prod = product_dimension(system, measure, q)
                cut = cutset_dimension(system, measure, q)
                assert prod.lower == prod.upper == closed
                assert abs(cut.value - closed) < 1e-3


def _log_binom(k, m):
    import math

    return math.lgamma(k + 1) - math.lgamma(m + 1) - math.lgamma(k - m + 1)


def mixed_family_dp_log_sum(s, q, k):
    """Exact level sum for two diagonal maps via the letter-count multiset.

    Every word with m copies of letter 1 has coordinate products
    0.5**m 0.25**(k-m) and 0.25**m 0.5**(k-m); its singular values are those
    two numbers sorted, so summing over the binomial classes is exact.
    """
    t1 = np.array([0.5, 0.25])
    t2 = np.array([0.25, 0.5])
    p = np.array([0.5, 0.5])
    m = np.arange(k + 1)
    log_prod = np.stack([m * np.log(t1[i]) + (k - m) * np.log(t2[i]) for i in range(2)])
    log_a1 = np.maximum(log_prod[0], log_prod[1])
    log_a2 = np.minimum(log_prod[0], log_prod[1])
    if s <= 1:
        log_svf = s * log_a1
    else:
        log_svf = log_a1 + (s - 1) * log_a2
    log_mass = m * np.log(p[0]) + (k - m) * np.log(p[1])
    terms = np.array([_log_binom(k, int(mm)) for mm in m]) \
        + (1 - q) * log_svf + q * log_mass
    top = terms.max()
    return float(np.log(np.exp(terms - top).sum()) + top)


class TestAffineSeriesDimension:
    @pytest.mark.parametrize("q", [np.inf, np.nan])
    def test_rejects_nonfinite_q(self, q):
        system = AffineSystem([[np.diag([0.4, 0.3]), np.diag([0.3, 0.4])]])
        with pytest.raises(ValueError, match="finite"):
            affine_series_dimension(system, BernoulliMeasure([[0.5, 0.5]]), q)

    def test_scalar_matrices_reduce_to_similarity_form(self):
        c = np.array([0.4, 0.3])
        p = np.array([0.5, 0.5])
        system = AffineSystem([[c[0] * np.eye(2), c[1] * np.eye(2)]])
        measure = BernoulliMeasure([p])
        ce = affine_series_dimension(system, measure, 2, depth=16)
        assert ce.value == pytest.approx(stationary_dimension(c, p, 2), abs=1e-5)

    def test_mixed_diagonal_family_against_dp_oracle(self):
        system = AffineSystem([[np.diag([0.5, 0.25]), np.diag([0.25, 0.5])]])
        measure = BernoulliMeasure([[0.5, 0.5]])
        ce = affine_series_dimension(system, measure, 2, depth=16)
        # oracle: exact per-level sums by dynamic programming over letter
        # counts, rate extrapolated over a deep ladder
        ks = np.arange(60, 121)

        def oracle_rate(s):
            logs = np.array([mixed_family_dp_log_sum(s, 2, int(k)) for k in ks])
            design = np.stack([ks, np.log(ks), np.ones_like(ks)], axis=1)
            coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
            return coef[0]

        lo, hi = 0.2, 1.5
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if oracle_rate(mid) <= 0:
                lo = mid
            else:
                hi = mid
        oracle_root = 0.5 * (lo + hi)
        assert oracle_root == pytest.approx(2 / 3, abs=5e-3)
        assert ce.value == pytest.approx(oracle_root, abs=0.05)

    def test_rejects_q_at_most_one(self):
        # q = 1 needs a stationary table; a level-varying one is solvable for q > 1 only
        system = AffineSystem([[np.diag([0.4, 0.3]), np.diag([0.3, 0.4])],
                               [np.diag([0.35, 0.3]), np.diag([0.3, 0.35])]])
        measure = BernoulliMeasure([[0.5, 0.5]])
        for q in (1.0, 0.5):
            with pytest.raises(ValueError):
                affine_series_dimension(system, measure, q)

    def test_rejects_q_below_one_on_a_stationary_table(self):
        system = AffineSystem([[np.diag([0.4, 0.3]), np.diag([0.3, 0.4])]])
        with pytest.raises(ValueError):
            affine_series_dimension(system, BernoulliMeasure([[0.5, 0.5]]), 0.5)

    def test_q_one_on_a_stationary_table_matches_recorded_value(self):
        # recorded with the level sums at s = 0 and s >= d as per-level
        # products; the value recorded with every level sum enumerated, and the
        # bisected value and bracket recorded from the separate stationary
        # solver this one replaced, stay within xtol = 1e-8 of it
        system = AffineSystem([[np.diag([0.8, 0.25]), np.diag([0.75, 0.2])]])
        ce = affine_series_dimension(system, BernoulliMeasure([[0.5, 0.5]]), 1.0, depth=16)
        assert ce.value == 1.292238643981113
        assert ce.diagnostics["bracket"] == (1.2922386389811142, 1.2922386489811122)
        assert ce.diagnostics["mode"] == "entropy"
        assert abs(ce.value - 1.2922386439811122) <= 1e-8
        bisected, (lo, hi) = 1.2922386415302753, (1.292238637804985, 1.2922386452555656)
        assert abs(ce.value - bisected) <= 1e-8
        assert ce.diagnostics["bracket"][0] <= hi and lo <= ce.diagnostics["bracket"][1]

    def test_single_level_root_only_for_stationary_inputs(self):
        mats = [np.diag([0.45, 0.3]), np.diag([0.35, 0.4])]
        measure = BernoulliMeasure([[0.6, 0.4]])
        stationary = affine_series_dimension(AffineSystem([mats]), measure, 2, depth=12)
        varying = affine_series_dimension(AffineSystem([mats, mats[::-1]]), measure, 2,
                                          depth=12)
        assert stationary.diagnostics["single_level_root"] >= stationary.value - 1e-6
        assert "single_level_root" not in varying.diagnostics

    def test_alternating_scalar_levels_match_hand_value(self):
        # odd levels contract by 1/2, even by 1/4; the same two-level average
        # as the similarity case puts the q=2 root at 2/3
        odd = [0.5 * np.eye(1), 0.5 * np.eye(1)]
        even = [0.25 * np.eye(1), 0.25 * np.eye(1)]
        system = AffineSystem([odd, even])
        measure = BernoulliMeasure([[0.5, 0.5]])
        ce = affine_series_dimension(system, measure, 2, depth=16)
        assert ce.value == pytest.approx(2 / 3, abs=2e-3)

    def test_depth_past_enumeration_cap_is_refused(self):
        # 2**30 words at depth 30, past ENUMERATION_CAP
        system = AffineSystem([[np.diag([0.4, 0.3]), np.diag([0.3, 0.4])]])
        measure = BernoulliMeasure([[0.5, 0.5]])
        with pytest.raises(BranchBudgetError):
            affine_series_dimension(system, measure, 2, depth=30)

    def test_budget_error_below_two_levels(self, monkeypatch):
        monkeypatch.setattr(theory, "ENUMERATION_CAP", 3)
        mats = [np.diag([0.4, 0.3]), np.diag([0.3, 0.4])]
        measure = BernoulliMeasure([[0.5, 0.5]])
        with pytest.raises(BranchBudgetError):
            affine_series_dimension(AffineSystem([mats]), measure, 2)


def rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def rotation3(axis, theta):
    """Rotation of R^3 by ``theta`` about coordinate ``axis``."""
    out = np.eye(3)
    plane = [a for a in range(3) if a != axis]
    out[np.ix_(plane, plane)] = rotation(theta)
    return out


# two alternating levels of rotated, anisotropic maps
PLANAR_TABLE = AffineSystem([
    [0.45 * rotation(0.3) @ np.diag([1.0, 0.6]), 0.4 * rotation(1.1)],
    [0.35 * rotation(0.7), 0.42 * rotation(0.2) @ np.diag([1.0, 0.7]),
     0.3 * rotation(2.5) @ np.diag([0.5, 1.0])],
])
# the same branching in R^3, where spectra take the LAPACK path
SPATIAL_TABLE = AffineSystem([
    [0.5 * rotation3(2, 0.4) @ np.diag([1.0, 0.7, 0.5]),
     0.45 * rotation3(0, 1.0) @ np.diag([0.6, 1.0, 0.8])],
    [0.4 * rotation3(1, 0.3), 0.35 * rotation3(2, 2.0) @ np.diag([1.0, 0.5, 0.8]),
     0.3 * rotation3(0, 0.9) @ rotation3(1, -0.6) @ np.diag([1.0, 0.9, 0.6])],
])
TABLE_MEASURE = BernoulliMeasure([[0.6, 0.4], [0.2, 0.3, 0.5]])


class TestLevelSpectra:
    SYSTEM = PLANAR_TABLE
    MEASURE = TABLE_MEASURE

    def test_enumeration_matches_direct_svd(self):
        for system in (PLANAR_TABLE, SPATIAL_TABLE):
            d = system.ambient_dim
            spectra = _level_spectra(system, self.MEASURE, 3, keep_from=1)
            assert sorted(spectra) == [1, 2, 3]
            for k, (prefix, log_p) in spectra.items():
                sizes = [system.profile.size(j) for j in range(1, k + 1)]
                words = list(itertools.product(*(range(1, n + 1) for n in sizes)))
                assert prefix.shape == (d, len(words)) and prefix.flags.c_contiguous
                direct = np.log([np.linalg.svd(word_product(system, w),
                                               compute_uv=False) for w in words])
                assert np.allclose(prefix, np.cumsum(direct, axis=1).T, rtol=0, atol=1e-12)
                assert np.exp(log_p).sum() == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def random_table(rng, d, sizes, special=()):
        """Level-varying contractions from random orthogonal factors (some reflect)."""
        def orthogonal():
            return np.linalg.qr(rng.normal(size=(d, d)))[0]
        levels = [[orthogonal() @ np.diag(rng.uniform(0.2, 0.7, d)) @ orthogonal()
                   for _ in range(m)] for m in sizes]
        for k, mat in enumerate(special):
            levels[k][0] = mat
        return AffineSystem(levels)

    @staticmethod
    def direct_prefix(system, words):
        """``np.cumsum`` of the direct SVD logs, one row per prefix length."""
        logs = np.log([np.linalg.svd(word_product(system, w), compute_uv=False)
                       for w in words])
        return np.cumsum(logs, axis=1).T

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_enumerated_spectra_match_svd_of_word_products(self, seed):
        # a reflection, and a near-tie whose two singular values differ by 1e-12
        reflection = rotation(0.3) @ np.diag([0.6, -0.35])
        near_tie = rotation(0.7) @ np.diag([0.5, 0.5 * (1 + 1e-12)])
        rng = np.random.default_rng(seed)
        system = self.random_table(rng, 2, [3, 2, 3, 2], special=[reflection, near_tie])
        assert np.linalg.det(reflection) < 0
        measure = BernoulliMeasure([[0.2, 0.3, 0.5], [0.6, 0.4]])
        spectra = _level_spectra(system, measure, 4, keep_from=1)
        for k, (prefix, log_p) in spectra.items():
            words = list(itertools.product(*(range(1, n + 1) for n in [3, 2, 3, 2][:k])))
            assert np.abs(prefix - self.direct_prefix(system, words)).max() < 1e-12
            want = [sum(measure.log_probs(j + 1)[a - 1] for j, a in enumerate(w)) for w in words]
            assert np.allclose(log_p, want, rtol=0, atol=1e-12)

    def test_enumerated_3x3_spectra_match_svd_of_word_products(self):
        system = self.random_table(np.random.default_rng(7), 3, [2, 3, 2])
        measure = BernoulliMeasure([[0.6, 0.4], [0.2, 0.3, 0.5]])
        spectra = _level_spectra(system, measure, 3, keep_from=2)
        assert sorted(spectra) == [2, 3]
        for k, (prefix, _) in spectra.items():
            words = list(itertools.product(*(range(1, n + 1) for n in [2, 3, 2][:k])))
            assert np.abs(prefix - self.direct_prefix(system, words)).max() < 1e-12

    def test_enumerated_spectra_survive_repeated_rescaling(self):
        # the products are rescaled at levels 2, 4, 6 and 8; unrescaled, sigma_1
        # of a depth-8 word is subnormal (at most 4.3e-321) and of a depth-9 word 0
        system, measure = rescaling_table()
        spectra = _level_spectra(system, measure, 9, keep_from=5)
        assert sorted(spectra) == [5, 6, 7, 8, 9]
        for k, (prefix, _) in spectra.items():
            want = [np.cumsum(word_spectrum(system, w).log_values)
                    for w in itertools.product((1, 2), repeat=k)]
            assert np.isfinite(prefix).all()
            assert np.abs(prefix - np.array(want).T).max() < 1e-9

    def test_log_det_is_the_sum_of_letter_log_dets(self):
        # per-letter condition 1e4: the depth-8 products reach condition 1e32,
        # where a*d - b*c of the product cancels to noise or to zero
        mats = [rotation(0.3) @ np.diag([0.6, 0.6e-4]) @ rotation(1.1),
                rotation(-0.8) @ np.diag([0.5, 0.5e-4]) @ rotation(0.4)]
        letter = np.linalg.slogdet(np.array(mats))[1]
        spectra = _level_spectra(AffineSystem([mats]), BernoulliMeasure([[0.5, 0.5]]), 8,
                                 keep_from=8)
        want = [letter[list(w)].sum() for w in itertools.product(range(2), repeat=8)]
        assert np.abs(spectra[8][0][1] - want).max() < 1e-12


def rescaling_table():
    """Two rotated maps with singular values near 1e-40: the floor of
    ``_level_spectra`` falls by about 92 a level, past -256 log 2 every two."""
    mats = [rotation(0.4) @ np.diag([1e-40, 5e-41]) @ rotation(1.3),
            rotation(-1.0) @ np.diag([9e-41, 6e-41]) @ rotation(0.2)]
    return AffineSystem([mats]), BernoulliMeasure([[0.6, 0.4]])


class TestBlockInvariance:
    """The spectra have the same bits for every block size of ``_level_spectra``."""

    WHOLE = 2**62  # one block holds the whole tree

    @staticmethod
    def spectra_for(monkeypatch, block, *args):
        monkeypatch.setattr(theory, "_BLOCK_WORDS", block)
        return _level_spectra(*args)

    def assert_equal(self, got, want):
        assert sorted(got) == sorted(want)
        for k in want:
            assert got[k][0].flags.c_contiguous
            assert np.array_equal(got[k][0], want[k][0])
            assert np.array_equal(got[k][1], want[k][1])

    CASES = {
        "enumerated-d2": lambda: (PLANAR_TABLE, TABLE_MEASURE, 7, 2),
        "enumerated-d3": lambda: (SPATIAL_TABLE, TABLE_MEASURE, 6, 3),
        "enumerated-rescaled": lambda: (*rescaling_table(), 9, 5),
    }

    @pytest.mark.parametrize("block", [1, 7, 2**16])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_block_size_leaves_the_bits(self, monkeypatch, case, block):
        args = self.CASES[case]()
        whole = self.spectra_for(monkeypatch, self.WHOLE, *args)
        self.assert_equal(self.spectra_for(monkeypatch, block, *args), whole)

    def test_default_blocks_split_a_large_tree(self, monkeypatch):
        # 93,312 words at depth 13 exceed one block
        assert theory._BLOCK_WORDS == 2**16
        args = (PLANAR_TABLE, TABLE_MEASURE, 13, 11)
        blocked = _level_spectra(*args)
        assert len(blocked[13][1]) > 2**16
        self.assert_equal(blocked, self.spectra_for(monkeypatch, self.WHOLE, *args))


# two alternating levels of three rotated (non-diagonal) maps, at depth 12 (531,441 words)
BENCH_LEVELS = [
    [rotation(np.pi / 6) @ np.diag([0.50, 0.30]), rotation(-np.pi / 5) @ np.diag([0.45, 0.35]),
     rotation(np.pi / 3) @ np.diag([0.40, 0.25])],
    [rotation(np.pi / 4) @ np.diag([0.55, 0.20]), rotation(-np.pi / 7) @ np.diag([0.35, 0.30]),
     rotation(2 * np.pi / 5) @ np.diag([0.50, 0.40])],
]


def test_affine_solve_memory_is_kept_spectra_plus_one_block(spectra_builds):
    # the solve builds and keeps the spectra of levels 6..12 (18.2 MiB); past
    # them the build and each evaluation of the level sums hold about one
    # level of scratch (22.3 and 23.2 MiB traced peaks)
    system, measure = AffineSystem(BENCH_LEVELS), BernoulliMeasure([[0.5, 0.3, 0.2],
                                                                     [0.2, 0.3, 0.5]])
    tracemalloc.start()
    try:
        ce = affine_series_dimension(system, measure, 1.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    spectra = theory._shared_level_spectra(system, measure, 12, 6)
    kept = sum(array.nbytes for arrays in spectra.values() for array in arrays)
    largest = max(len(log_p) for _, log_p in spectra.values())
    assert spectra_builds == [(12, 6)] and ce.diagnostics["depth"] == 12
    assert peak < kept + largest * 8 + 2**21


def test_q3_solve_past_the_kept_spectra_takes_one_level_and_one_block(spectra_builds):
    # each evaluation forms the exponents from the kept spectra into one
    # scratch the size of the deepest level; a (2, n) base/slope copy per
    # level would take 12 MiB more
    system, measure = AffineSystem(BENCH_LEVELS), BernoulliMeasure([[0.5, 0.3, 0.2],
                                                                     [0.2, 0.3, 0.5]])
    spectra = theory._shared_level_spectra(system, measure, 12, 6)
    largest = max(len(log_p) for _, log_p in spectra.values())
    tracemalloc.start()
    try:
        ce = affine_series_dimension(system, measure, 3.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spectra_builds == [(12, 6)] and ce.diagnostics["window"] == (6, 12)
    assert peak < largest * 8 + 2**20


def test_depth_12_affine_solve_takes_five_evaluations(monkeypatch):
    # f(1) <= 0, so the root finder probes 1 and 2 and never 0
    probes, root_of = [], theory._root_of_increasing

    def recorded(f, *args, **kwargs):
        return root_of(lambda s: probes.append(s) or f(s), *args, **kwargs)

    monkeypatch.setattr(theory, "_root_of_increasing", recorded)
    system, measure = AffineSystem(BENCH_LEVELS), BernoulliMeasure([[0.5, 0.3, 0.2],
                                                                     [0.2, 0.3, 0.5]])
    affine_series_dimension(system, measure, 3.0)
    assert probes[:2] == [1.0, 2.0] and len(probes) == 5 and 0.0 not in probes


def test_bench_levels_q15_reads_the_spectra_below_d_only(monkeypatch):
    # the root finder probes 1, then 2 = d, where the level sums are
    # per-level products; 4 of its 5 evaluations read the enumerated spectra
    calls, moment_sums = [], theory._moment_sums

    def counted(groups, q):
        sums, rows = moment_sums(groups, q), len(groups[0][0])
        return lambda s: calls.append((rows, s)) or sums(s)

    monkeypatch.setattr(theory, "_moment_sums", counted)
    affine_series_dimension(AffineSystem(BENCH_LEVELS),
                            BernoulliMeasure([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]), 1.5)
    enumerated = [s for rows, s in calls if rows == 2]
    assert len(enumerated) == 4 and all(0.0 < s < 2.0 for s in enumerated)
    assert [s for rows, s in calls if rows == 1] == [2.0]


class TestAffineBitsPinned:
    """Roots and brackets of the default-bound affine solves, pinned as ``float.hex``.

    The default enumeration bound fixes the depth K and the window, so these
    show that a change to the bound leaves every root's bits where they were.
    """

    @pytest.mark.parametrize("q, value, bracket", [
        (1.5, "0x1.12939486d423cp+0", ("0x1.12730cce3c55dp+0", "0x1.12b41c3f6bf1ap+0")),
        (3.0, "0x1.037fb80e661abp+0", ("0x1.03649ca47687ap+0", "0x1.039ad37855adcp+0")),
    ])
    def test_bench_levels(self, q, value, bracket):
        ce = affine_series_dimension(AffineSystem(BENCH_LEVELS),
                                     BernoulliMeasure([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]), q)
        assert ce.value.hex() == value
        assert tuple(b.hex() for b in ce.diagnostics["bracket"]) == bracket
        assert ce.diagnostics["depth"] == 12 and ce.diagnostics["window"] == (6, 12)

    # both affine configs share one table and measure, so one set of pins;
    # q = 1 and 1.5 recorded with the level sums at s = 0 and s >= d as
    # per-level products
    CONFIG_PINS = {
        1.0: ("0x1.3e43c20c056f4p+0", ("0x1.3e43c20148a46p+0", "0x1.3e43c216c23a1p+0")),
        1.5: ("0x1.3e04be1b23bdep+0", ("0x1.3e04bd6755aaep+0", "0x1.3e04becef1d0dp+0")),
        2.0: ("0x1.3dc61d4dba631p+0", ("0x1.3dc61ce25a86fp+0", "0x1.3dc61db91a3f3p+0")),
        3.0: ("0x1.3d4a3138ea3cap+0", ("0x1.3d4a30cd89390p+0", "0x1.3d4a31a44b403p+0")),
    }
    # the pins recorded with every level sum enumerated, and their xtol: the
    # roots stay within it and the brackets meet
    ENUMERATED_PINS = {
        1.0: ("0x1.3e43c20148ab3p+0", ("0x1.3e43c1ebcf1c5p+0", "0x1.3e43c216c23a1p+0"), 1e-8),
        1.5: ("0x1.3e04be1b23bdep+0", ("0x1.3e04bd6755aafp+0", "0x1.3e04becef1d0cp+0"), 1e-7),
    }

    @pytest.mark.parametrize("name", ["affine_finite_gamma", "affine_random_box"])
    def test_affine_configs(self, name):
        config = ExperimentConfig.from_file(CONFIGS / f"{name}.json")
        system, measure = build_system_and_measure(config)
        for q, (value, bracket) in self.CONFIG_PINS.items():
            ce = theoretical_exponents(system, measure, q)
            assert ce.value.hex() == value, q
            assert tuple(b.hex() for b in ce.diagnostics["bracket"]) == bracket, q
            assert ce.diagnostics["depth"] == 12
            if q in self.ENUMERATED_PINS:
                old, (lo, hi), xtol = self.ENUMERATED_PINS[q]
                assert abs(ce.value - float.fromhex(old)) <= xtol, q
                assert (ce.diagnostics["bracket"][0] <= float.fromhex(hi)
                        and float.fromhex(lo) <= ce.diagnostics["bracket"][1]), q


class TestSharedSpectra:
    """Every q of one (system, measure) reuses one exhaustive build of its spectra."""

    @staticmethod
    def bench_table():
        return AffineSystem(BENCH_LEVELS), BernoulliMeasure([[0.5, 0.3, 0.2],
                                                             [0.2, 0.3, 0.5]])

    def test_every_q_of_one_table_builds_once(self, spectra_builds):
        system, measure = self.bench_table()
        got = [theoretical_exponents(system, measure, q) for q in (1.5, 3.0)]
        assert spectra_builds == [(12, 6)]
        # the same results from objects the slot has never seen
        for ce in got:
            assert ce == theoretical_exponents(*self.bench_table(), ce.q)
        assert len(spectra_builds) == 3

    def test_another_key_builds_again(self, spectra_builds):
        other = BernoulliMeasure([[0.6, 0.4], [0.2, 0.3, 0.5]])
        for measure, depth in [(TABLE_MEASURE, 6), (TABLE_MEASURE, 6), (other, 6),
                               (other, 5), (other, 5)]:
            affine_series_dimension(PLANAR_TABLE, measure, 2.0, depth=depth)
        assert spectra_builds == [(6, 3), (6, 3), (5, 2)]
        # q = 1 keeps the deepest level only, so it shares nothing with q = 2
        system = AffineSystem([PLANAR_TABLE.linear_maps(2)])
        measure = BernoulliMeasure([[0.2, 0.3, 0.5]])
        for q in (2.0, 1.0, 1.0):
            affine_series_dimension(system, measure, q, depth=6)
        assert spectra_builds[3:] == [(6, 3), (6, 6)]

    def test_kept_arrays_are_read_only(self, spectra_builds):
        affine_series_dimension(PLANAR_TABLE, TABLE_MEASURE, 2.0, depth=6)
        spectra = theory._shared_level_spectra(PLANAR_TABLE, TABLE_MEASURE, 6, 3)
        assert len(spectra_builds) == 1 and sorted(spectra) == [3, 4, 5, 6]
        for prefix, log_p in spectra.values():
            assert not prefix.flags.writeable and not log_p.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            spectra[6][0][0, 0] = 0.0


def log_values(prefix):
    """The ``(n, d)`` log singular values whose prefix sums are ``prefix``."""
    return np.diff(prefix, axis=0, prepend=0.0).T


def direct_level_sum(prefix, log_p, s, q):
    """The level sum straight from ``svf_log``, as a log-sum-exp."""
    terms = (1.0 - q) * svf_log(log_values(prefix), s) + q * log_p
    top = terms.max()
    return np.log(np.exp(terms - top).sum()) + top


class TestLevelSums:
    S_GRID = (0.0, 0.3, 1.0, 1.5, 2.0, 2.5, 3.0, 7.0)

    @staticmethod
    def spectra(system):
        return _level_spectra(system, TABLE_MEASURE, 4, keep_from=2)

    @pytest.mark.parametrize("system", [PLANAR_TABLE, SPATIAL_TABLE], ids=["d2", "d3"])
    def test_segment_sums_match_direct_logsumexp(self, system):
        spectra = self.spectra(system)
        for q in (1.5, 3.0):
            sums = _moment_sums([spectra[k] for k in sorted(spectra)], q)
            for s in self.S_GRID:
                want = [direct_level_sum(*spectra[k], s, q) for k in sorted(spectra)]
                assert np.allclose(sums(s), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("system", [PLANAR_TABLE, SPATIAL_TABLE], ids=["d2", "d3"])
    def test_sweeping_segments_up_and_down_repeats_floats(self, system):
        # every s takes one segment (an integer the one below it), so its
        # value cannot depend on the s evaluated before it
        spectra = self.spectra(system)
        grid = (0.0, 0.3, 0.7, 1.0, 1.2, 1.8, 2.0, 2.4, 2.9, 3.0, 3.5, 7.0)
        groups = [spectra[k] for k in sorted(spectra)]
        sums = _moment_sums(groups, 2.0)
        up = [sums(s) for s in grid]
        down = [sums(s) for s in grid[::-1]][::-1]
        fresh = [_moment_sums(groups, 2.0)(s) for s in grid]
        for a, b, c in zip(up, down, fresh):
            assert np.array_equal(a, b) and np.array_equal(a, c)

    @pytest.mark.parametrize("system", [PLANAR_TABLE, SPATIAL_TABLE], ids=["d2", "d3"])
    def test_entropy_rate_matches_direct_form(self, system):
        prefix, log_p = self.spectra(system)[4]
        w = np.exp(log_p)
        sums = _moment_sums([(prefix, log_p)], 1.0)
        for s in self.S_GRID:
            want = (w @ log_p - w @ svf_log(log_values(prefix), s)) / 4
            assert sums(s)[0] / 4 == pytest.approx(want, rel=0, abs=1e-12)


class TestAffineSolverPinned:
    # two alternating levels of three rotated, anisotropic maps
    SYSTEM = AffineSystem([
        [rotation(np.pi / 6) @ np.diag([0.50, 0.30]),
         rotation(-np.pi / 5) @ np.diag([0.45, 0.35]),
         rotation(np.pi / 3) @ np.diag([0.40, 0.25])],
        [rotation(np.pi / 4) @ np.diag([0.55, 0.20]),
         rotation(-np.pi / 7) @ np.diag([0.35, 0.30]),
         rotation(2 * np.pi / 5) @ np.diag([0.50, 0.40])],
    ])
    MEASURE = BernoulliMeasure([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]])

    @staticmethod
    def assert_near_bisection(ce, bisected, bisected_bracket, xtol):
        """The bisected value and bracket of the previous root finder agree."""
        lo, hi = ce.diagnostics["bracket"]
        assert abs(ce.value - bisected) <= xtol
        assert lo <= bisected_bracket[1] and bisected_bracket[0] <= hi

    # recorded with the Illinois root finder; the bisected values, recorded on
    # the LAPACK SVD path and kept by the 2x2 closed form, stay within xtol
    @pytest.mark.parametrize("q, value, bracket, bisected, bisected_bracket", [
        (1.5, 1.0792959056481228, (1.078799696677636, 1.0797921146186096),
         1.07958984375, (1.0791015625, 1.080078125)),
        (3.0, 1.0201658004058554, (1.0196805401388727, 1.0206510606728383),
         1.02001953125, (1.01953125, 1.0205078125)),
    ], ids=["1.5-1.07958984375-bracket0", "3.0-1.02001953125-bracket1"])
    def test_depth_8_matches_recorded_values(self, q, value, bracket, bisected,
                                             bisected_bracket):
        ce = affine_series_dimension(self.SYSTEM, self.MEASURE, q, depth=8)
        assert ce.value == value
        assert ce.diagnostics["bracket"] == bracket
        assert ce.diagnostics["window"] == (4, 8)
        self.assert_near_bisection(ce, bisected, bisected_bracket, 1e-3)

    # one repeated level of two non-diagonal maps, roots between 1 and 2;
    # values recorded with the Illinois-Dekker root finder on prefix-sum spectra,
    # q = 1 with the level sums at s = 0 and s >= d as per-level products
    STATIONARY = AffineSystem([[rotation(np.pi / 6) @ np.diag([0.8, 0.5]),
                                np.array([[0.6, 0.2], [0.1, 0.7]])]])
    STATIONARY_MEASURE = BernoulliMeasure([[0.6, 0.4]])

    @pytest.mark.parametrize("q, value, bracket, single, bisected, bisected_bracket, xtol", [
        (1.0, 1.5398598667471208, (1.5398598617471209, 1.5398598717471208), None,
         1.539859864860773, (1.5398598611354828, 1.5398598685860634), 1e-8),
        (2.0, 1.461082506275953, (1.461082481274168, 1.461082531277738),
         1.487274131380421,
         1.461082547903061, (1.4610825181007385, 1.4610825777053833), 1e-7),
    ], ids=["q_one", "single_level_root"])
    def test_stationary_extras_match_recorded_values(self, q, value, bracket, single,
                                                     bisected, bisected_bracket, xtol):
        ce = affine_series_dimension(self.STATIONARY, self.STATIONARY_MEASURE, q, depth=14)
        assert ce.value == value
        assert ce.diagnostics["bracket"] == bracket
        assert ce.diagnostics["depth"] == 14
        assert ce.diagnostics.get("single_level_root") == single
        self.assert_near_bisection(ce, bisected, bisected_bracket, xtol)
        if single is not None:
            # bisected: 1.4872741401195526
            assert abs(single - 1.4872741401195526) <= xtol
        else:
            # recorded with every level sum enumerated
            assert abs(ce.value - 1.539859866747121) <= xtol


def dominant_diagonal_oracle(t, p, q, s_hi=2.0):
    """Root of the factorized level equation for consistently dominant diagonals."""
    t = np.asarray(t, float)
    p = np.asarray(p, float)

    def level_sum(s):
        if s <= 1:
            svf = t[:, 0] ** s
        else:
            svf = t[:, 0] * t[:, 1] ** (s - 1.0)
        return float((svf ** (1 - q) * p**q).sum())

    lo, hi = 0.0, s_hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if level_sum(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestStationaryAffineDimension:
    T = np.array([[0.8, 0.25], [0.75, 0.2]])
    P = np.array([0.5, 0.5])

    def test_scalar_family_recovers_similarity_closed_form(self):
        c = np.array([0.5, 0.3])
        p = np.array([0.6, 0.4])
        mats = [c[0] * np.eye(2), c[1] * np.eye(2)]
        for q in (1.0, 1.5, 2.0):
            ce = affine_series_dimension(AffineSystem([mats]), BernoulliMeasure([p]), q,
                                         depth=18)
            assert ce.value == pytest.approx(stationary_dimension(c, p, q), abs=1e-6)

    def test_dominant_diagonal_factorized_oracle(self):
        mats = [np.diag(self.T[0]), np.diag(self.T[1])]
        for q in (1.5, 2.0):
            ce = affine_series_dimension(AffineSystem([mats]), BernoulliMeasure([self.P]), q,
                                         depth=18)
            assert ce.value == pytest.approx(
                dominant_diagonal_oracle(self.T, self.P, q), abs=1e-4
            )

    def test_q_one_affine_in_s_oracle(self):
        # h(s) = sum p log p - (chi_1 + (s-1) chi_2) for 1 < s <= 2
        mats = [np.diag(self.T[0]), np.diag(self.T[1])]
        ent = float((self.P * np.log(self.P)).sum())
        chi1 = float((self.P * np.log(self.T[:, 0])).sum())
        chi2 = float((self.P * np.log(self.T[:, 1])).sum())
        expect = 1.0 + (ent - chi1) / chi2
        ce = affine_series_dimension(AffineSystem([mats]), BernoulliMeasure([self.P]), 1.0,
                                     depth=18)
        assert ce.value == pytest.approx(expect, abs=1e-4)

    def test_envelope_sandwich(self):
        mats = [np.diag([0.45, 0.3]), np.array([[0.3, 0.1], [0.05, 0.35]])]
        p = [0.5, 0.5]
        system = AffineSystem([mats])
        tops = [singular_values(T).values[0] for T in mats]
        bots = [singular_values(T).values[-1] for T in mats]
        ce = affine_series_dimension(system, BernoulliMeasure([p]), 2, depth=16)
        hi = stationary_dimension(tops, p, 2)
        lo = stationary_dimension(bots, p, 2)
        assert lo - 1e-6 <= ce.value <= hi + 1e-6

    def test_rejects_q_below_one(self):
        mats = [np.diag([0.4, 0.3]), np.diag([0.3, 0.4])]
        with pytest.raises(ValueError):
            affine_series_dimension(AffineSystem([mats]), BernoulliMeasure([[0.5, 0.5]]), 0.5)


class TestNearIntegerGuard:
    def test_roots_near_integers_are_nudged_and_flagged(self):
        from qdims.theory import _near_integer_guard

        diag = {}
        nudged = _near_integer_guard(1.0 + 2e-10, diag)
        assert diag.get("near_integer") is True
        assert nudged != 1.0 + 2e-10
        diag = {}
        assert _near_integer_guard(1.37, diag) == 1.37
        assert "near_integer" not in diag


class TestSpectrumAndClamp:
    def test_clamp(self):
        assert clamp_dimension(1.4, 1) == 1.0
        assert clamp_dimension(0.8, 1) == 0.8


class TestMonotonicity:
    Q_GRID = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)

    def test_similar_exponents_nonincreasing_in_q(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            n = int(rng.integers(2, 5))
            c = rng.uniform(0.1, 0.45, size=n)
            p = rng.uniform(0.2, 1.0, size=n)
            p /= p.sum()
            vals = [stationary_dimension(c, p, q) for q in self.Q_GRID]
            assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_affine_exponents_nonincreasing_in_q(self):
        mats = [np.diag([0.45, 0.3]), np.diag([0.4, 0.25])]
        p = [0.5, 0.5]
        vals = [affine_series_dimension(AffineSystem([mats]), BernoulliMeasure([p]), q,
                                        depth=14).value
                for q in (1.0, 1.5, 2.0, 3.0, 4.0)]
        assert all(a >= b - 1e-6 for a, b in zip(vals, vals[1:]))
