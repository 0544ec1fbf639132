import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import validate_letters

from qdims.codespace import (
    MAX_DEPTH,
    TIE_TOL,
    BernoulliMeasure,
    BranchingProfile,
    LevelSchedule,
    scale_cut_set_masses,
)
from qdims.errors import DepthCapError


def brute_force_cut_set(level_ratios, level_probs, r, depth_cap=30):
    """Independent oracle: full tree expansion keeping c_u <= r < c_parent.

    Products are formed directly rather than as log sums; ratios within a
    relative ``TIE_TOL`` of ``r`` count as ties. Returns ``(letters, log c_u, log p_u)`` for every member, sorted by letters.
    """
    out = []

    def walk(letters, c, p):
        level = len(letters) + 1
        assert level <= depth_cap
        for j, (cj, pj) in enumerate(zip(level_ratios(level), level_probs(level)), start=1):
            child, child_c, child_p = letters + (j,), c * cj, p * pj
            if child_c <= r * (1.0 + TIE_TOL):
                out.append((child, math.log(child_c), math.log(child_p)))
            else:
                walk(child, child_c, child_p)

    walk((), 1.0, 1.0)
    return sorted(out)


def cut_set_and_oracle(levels_c, levels_p, r):
    """``scale_cut_set_masses`` output after checking it against the oracle.

    Returns ``(log_c, log_p, oracle words)``.
    """
    sched = LevelSchedule.build(levels_c)
    measure = BernoulliMeasure(levels_p)
    log_c, log_p = scale_cut_set_masses(sched, measure, r)
    oracle = brute_force_cut_set(sched.at, measure.probs, r)
    assert len(log_c) == len(log_p) == len(oracle)
    assert np.allclose(np.sort(log_c), sorted(c for _, c, _ in oracle), rtol=0, atol=1e-10)
    assert np.allclose(np.sort(log_p), sorted(p for _, _, p in oracle), rtol=0, atol=1e-10)
    return log_c, log_p, [letters for letters, _, _ in oracle]


class TestBranchingProfile:
    def test_rejects_small_counts(self):
        with pytest.raises(ValueError):
            BranchingProfile.from_sizes([2, 1])

    def test_stationary_flag(self):
        assert BranchingProfile.from_sizes([2, 2]).stationary
        assert not BranchingProfile.from_sizes([2, 3]).stationary

    def test_tail_cycling(self):
        prof = BranchingProfile.from_sizes([2], tail=[3, 4])
        assert [prof.size(k) for k in range(1, 6)] == [2, 3, 4, 3, 4]

    def test_validate_letters(self):
        prof = BranchingProfile.from_sizes([2, 3])
        validate_letters(prof, (2, 3))
        with pytest.raises(ValueError, match="letter 3 at level 1 outside 1..2"):
            validate_letters(prof, (3, 1))

    def test_depth_within_budget(self):
        # 3**12 = 531441 <= 2**20 < 3**13
        assert BranchingProfile.from_sizes([3]).depth_within(2**20) == 12
        # running products 2, 6, 12, ..., 2592, 7776
        assert BranchingProfile.from_sizes([2, 3]).depth_within(4096) == 9
        assert BranchingProfile.from_sizes([5]).depth_within(4) == 0

    def test_depth_within_caps(self):
        assert BranchingProfile.from_sizes([2]).depth_within(2**100) == MAX_DEPTH == 64
        assert BranchingProfile.from_sizes([2]).depth_within(2**20, 3) == 3
        assert BranchingProfile.from_sizes([2]).depth_within(2**100, 80) == 64

    def test_from_sizes_rejects_non_integral_counts(self):
        with pytest.raises(ValueError, match="integers >= 2, got 2.5"):
            BranchingProfile.from_sizes([2.5, 3])
        with pytest.raises(ValueError, match="integers >= 2, got 3.5"):
            BranchingProfile.from_sizes([2], tail=[3.5])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(2, 3), min_size=1, max_size=6),
           st.lists(st.integers(2, 3), min_size=1, max_size=5),
           st.integers(1, 8), st.integers(1, 6),
           st.lists(st.integers(2, 3), min_size=14, max_size=14), st.booleans())
    def test_matches_is_exact(self, head_a, tail_a, len_head, len_tail, free, copy):
        a = BranchingProfile.from_sizes(head_a, tail_a)
        # b copies a's first levels into its own head and tail, or is drawn freely;
        # copies agree with a on a long prefix but not always forever
        sizes = [a.size(k) for k in range(1, 15)] if copy else free
        b = BranchingProfile.from_sizes(sizes[:len_head], sizes[len_head:len_head + len_tail])
        levels = 4 * (max(len_head, len(head_a)) + len_tail + len(tail_a)) + 10
        brute = all(a.size(k) == b.size(k) for k in range(1, levels + 1))
        assert a.matches(b) == b.matches(a) == brute

    def test_matches_sees_past_the_depth_cap(self):
        a = BranchingProfile.from_sizes([2] * 70, tail=[3])
        assert not a.matches(BranchingProfile.from_sizes([2]))
        assert a.matches(BranchingProfile.from_sizes([2] * 70 + [3, 3], tail=[3]))


class TestBernoulliMeasure:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            BernoulliMeasure([[0.5, 0.4]])

    def test_rejects_zero_mass_branch(self):
        with pytest.raises(ValueError):
            BernoulliMeasure([[1.0, 0.0]])

    def test_tail_cycling(self):
        m = BernoulliMeasure([[0.5, 0.5]], tail=[[0.25, 0.75]])
        assert np.allclose(m.probs(1), [0.5, 0.5])
        assert np.allclose(m.probs(4), [0.25, 0.75])


class TestCylinderMass:
    def test_uniform_product(self):
        _, log_p, _ = cut_set_and_oracle([[0.5, 0.5]], [[0.5, 0.5]], 0.125)
        assert np.allclose(np.exp(log_p), 1 / 8, rtol=0, atol=1e-15)

    def test_direct_product(self):
        _, log_p, _ = cut_set_and_oracle([[0.5, 0.5]], [[0.75, 0.25], [0.5, 0.5]], 0.25)
        assert np.allclose(np.sort(np.exp(log_p)), [1 / 8, 1 / 8, 3 / 8, 3 / 8],
                           rtol=0, atol=1e-15)

    def test_multiplicative_on_stationary_profile(self):
        sched = LevelSchedule.build([[0.5, 0.5, 0.5]])
        m = BernoulliMeasure([[0.3, 0.25, 0.45]])
        _, u = scale_cut_set_masses(sched, m, 0.5**2)
        _, v = scale_cut_set_masses(sched, m, 0.5**3)
        _, full = scale_cut_set_masses(sched, m, 0.5**5)
        assert np.allclose(np.sort(full), np.sort((u[:, None] + v[None, :]).ravel()),
                           rtol=0, atol=1e-12)


class TestScaleCutSet:
    def test_binary_two_levels(self):
        log_c, _, words = cut_set_and_oracle([[0.5, 0.5]], [[0.5, 0.5]], 0.3)
        assert words == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert np.allclose(log_c, np.log(0.25))

    def test_tie_includes_word(self):
        log_c, _, words = cut_set_and_oracle([[0.5, 0.5]], [[0.5, 0.5]], 0.5)
        assert words == [(1,), (2,)]
        assert np.all(log_c == np.log(0.5))

    def test_tie_split_by_rounding_includes_word(self):
        # 0.2**3 rounds above 0.008 both as a product and as a log sum
        log_c, _, words = cut_set_and_oracle([[0.2, 0.2]], [[0.5, 0.5]], 0.008)
        assert len(words) == 8 and {len(w) for w in words} == {3}
        assert np.allclose(log_c, np.log(0.008))

    def test_mixed_levels_against_oracle(self):
        _, _, words = cut_set_and_oracle([[0.5, 0.25], [0.5, 0.5]],
                                         [[0.7, 0.3], [0.4, 0.6]], 0.2)
        assert words == [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 1), (2, 2)]

    def test_r_above_all_ratios_gives_depth_one(self):
        log_c, _, words = cut_set_and_oracle([[0.5, 0.5]], [[0.5, 0.5]], 0.9)
        assert words == [(1,), (2,)]
        assert np.allclose(log_c, np.log(0.5))

    def test_depth_cap(self):
        # the 0.999 branch stays above r = 0.5 for 692 levels
        sched = LevelSchedule.build([[0.999, 0.001]])
        with pytest.raises(DepthCapError) as err:
            scale_cut_set_masses(sched, BernoulliMeasure([[0.5, 0.5]]), 0.5)
        assert err.value.depth == MAX_DEPTH == 64

    def test_member_bound(self):
        r = 0.09
        log_c, _, _ = cut_set_and_oracle([[0.5, 0.25], [0.4, 0.6]],
                                         [[0.5, 0.5], [0.2, 0.8]], r)
        c_min = 0.25
        assert np.all(np.log(c_min * r) < log_c)
        assert np.all(log_c <= np.log(r) + TIE_TOL)


@st.composite
def ratio_prob_tables(draw):
    n_levels = draw(st.integers(1, 3))
    levels_c, levels_p = [], []
    for _ in range(n_levels):
        n = draw(st.integers(2, 4))
        c = [draw(st.floats(0.15, 0.6)) for _ in range(n)]
        raw = [draw(st.floats(0.1, 1.0)) for _ in range(n)]
        total = sum(raw)
        levels_c.append(c)
        levels_p.append([x / total for x in raw])
    r = draw(st.floats(0.01, 0.12))
    return levels_c, levels_p, r


class TestCutSetProperties:
    @settings(max_examples=40, deadline=None)
    @given(ratio_prob_tables())
    def test_antichain_and_cover(self, table):
        _, log_p, words = cut_set_and_oracle(*table)
        assert np.exp(log_p).sum() == pytest.approx(1.0, abs=1e-10)
        # sorted order puts any prefix directly before one of its extensions
        for a, b in zip(words, words[1:]):
            assert b[: len(a)] != a

    @settings(max_examples=40, deadline=None)
    @given(ratio_prob_tables())
    def test_vectorized_masses_match_word_enumeration(self, table):
        levels_c, levels_p, r = table
        log_c, _, _ = cut_set_and_oracle(levels_c, levels_p, r)
        c_min = min(min(c) for c in levels_c)
        assert np.all(np.log(c_min * r) < log_c)
        assert np.all(log_c <= np.log(r) + TIE_TOL)
