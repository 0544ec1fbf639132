import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdims.codespace import (
    EMPTY_WORD,
    BernoulliMeasure,
    BranchingProfile,
    LevelSchedule,
    Word,
    common_prefix,
    cylinder_mass,
    is_prefix_free,
    scale_cut_set,
    scale_cut_set_masses,
)
from qdims.errors import DepthCapError, InvalidWordError


def brute_force_cut_set(level_ratios, r, depth_cap=30):
    """Independent oracle: full tree expansion keeping c_u <= r < c_parent."""
    out = []

    def walk(letters, c):
        level = len(letters) + 1
        assert level <= depth_cap
        for j, cj in enumerate(level_ratios(level), start=1):
            child_c = c * cj
            if child_c <= r:
                out.append(letters + (j,))
            else:
                walk(letters + (j,), child_c)

    walk((), 1.0)
    return sorted(out)


class TestWord:
    def test_parent_and_length(self):
        w = Word((1, 2, 1))
        assert len(w) == 3
        assert w.parent == Word((1, 2))
        assert w.extended(3) == Word((1, 2, 1, 3))

    def test_empty_word(self):
        assert len(EMPTY_WORD) == 0
        with pytest.raises(InvalidWordError):
            EMPTY_WORD.parent

    def test_prefix_relation(self):
        assert Word((1, 2)).is_prefix_of(Word((1, 2, 1)))
        assert not Word((2,)).is_prefix_of(Word((1, 2)))


class TestCommonPrefix:
    def test_shared_prefix(self):
        assert common_prefix(Word((1, 2, 1)), Word((1, 2, 2))) == Word((1, 2))

    def test_disjoint_first_letter(self):
        assert common_prefix(Word((1, 1, 1)), Word((2, 1, 1))) == EMPTY_WORD

    def test_identical(self):
        w = Word((2, 1, 2))
        assert common_prefix(w, w) == w


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
        prof.validate_letters((2, 3))
        with pytest.raises(InvalidWordError):
            prof.validate_letters((3, 1))

    def test_depth_within_budget(self):
        # 3**12 = 531441 <= 2**20 < 3**13
        assert BranchingProfile.from_sizes([3]).depth_within(2**20) == 12
        # running products 2, 6, 12, ..., 2592, 7776
        assert BranchingProfile.from_sizes([2, 3]).depth_within(4096) == 9
        assert BranchingProfile.from_sizes([5]).depth_within(4) == 0

    def test_depth_within_caps(self):
        assert BranchingProfile.from_sizes([2], max_depth=5).depth_within(2**20) == 5
        assert BranchingProfile.from_sizes([2]).depth_within(2**20, 3) == 3
        assert BranchingProfile.from_sizes([2], max_depth=5).depth_within(2**20, 8) == 5


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
        m = BernoulliMeasure([[0.5, 0.5]])
        assert cylinder_mass(m, Word((1, 2, 1))) == pytest.approx(1 / 8, abs=1e-15)

    def test_empty_word(self):
        m = BernoulliMeasure([[0.5, 0.5]])
        assert cylinder_mass(m, EMPTY_WORD) == 1.0

    def test_direct_product(self):
        m = BernoulliMeasure([[0.75, 0.25], [0.5, 0.5]])
        assert cylinder_mass(m, Word((2, 1))) == pytest.approx(1 / 8, abs=1e-15)

    def test_letter_out_of_range(self):
        m = BernoulliMeasure([[0.5, 0.5]])
        with pytest.raises(InvalidWordError):
            cylinder_mass(m, Word((3,)))

    def test_multiplicative_on_stationary_profile(self):
        m = BernoulliMeasure([[0.3, 0.25, 0.45]])
        u, v = (2, 3), (1, 3, 2)
        full = cylinder_mass(m, Word(u + v))
        assert full == pytest.approx(
            cylinder_mass(m, Word(u)) * cylinder_mass(m, Word(v)), rel=1e-12
        )


class TestScaleCutSet:
    def test_binary_two_levels(self):
        sched = LevelSchedule.build([[0.5, 0.5]])
        cs = scale_cut_set(sched, 0.3)
        assert sorted(w.letters for w in cs) == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_tie_includes_word(self):
        sched = LevelSchedule.build([[0.5, 0.5]])
        cs = scale_cut_set(sched, 0.5)
        assert sorted(w.letters for w in cs) == [(1,), (2,)]

    def test_mixed_levels_against_oracle(self):
        sched = LevelSchedule.build([[0.5, 0.25], [0.5, 0.5]])
        cs = scale_cut_set(sched, 0.2)
        expected = [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 1), (2, 2)]
        assert sorted(w.letters for w in cs) == expected
        assert brute_force_cut_set(sched.at, 0.2) == expected

    def test_r_above_all_ratios_gives_depth_one(self):
        sched = LevelSchedule.build([[0.5, 0.5]])
        cs = scale_cut_set(sched, 0.9)
        assert sorted(w.letters for w in cs) == [(1,), (2,)]

    def test_depth_cap(self):
        sched = LevelSchedule.build([[0.9, 0.9]])
        with pytest.raises(DepthCapError) as err:
            scale_cut_set(sched, 1e-4, max_depth=5)
        assert err.value.word is not None

    def test_member_bound(self):
        sched = LevelSchedule.build([[0.5, 0.25], [0.4, 0.6]])
        r = 0.09
        cs = scale_cut_set(sched, r)
        c_min = 0.25
        for w in cs:
            c_u = 1.0
            for k, letter in enumerate(w.letters, start=1):
                c_u *= float(sched.at(k)[letter - 1])
            assert c_min * r < c_u <= r


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
        levels_c, levels_p, r = table
        sched = LevelSchedule.build(levels_c)
        measure = BernoulliMeasure(levels_p)
        cs = scale_cut_set(sched, r)
        assert is_prefix_free(cs.words)
        total = sum(cylinder_mass(measure, w) for w in cs)
        assert total == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(ratio_prob_tables())
    def test_vectorized_masses_match_word_enumeration(self, table):
        levels_c, levels_p, r = table
        sched = LevelSchedule.build(levels_c)
        measure = BernoulliMeasure(levels_p)
        cs = scale_cut_set(sched, r)
        log_c, log_p = scale_cut_set_masses(sched, measure, r)
        assert len(log_c) == len(cs)
        masses = sorted(cylinder_mass(measure, w) for w in cs)
        assert np.allclose(sorted(np.exp(log_p)), masses, rtol=1e-10)
        ratios = []
        for w in cs:
            c_u = 1.0
            for k, letter in enumerate(w.letters, start=1):
                c_u *= float(sched.at(k)[letter - 1])
            ratios.append(c_u)
        assert np.allclose(sorted(np.exp(log_c)), sorted(ratios), rtol=1e-10)
