import csv
import hashlib
import itertools
import json
import math
import os
import re
import threading
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    cylinder_points,
    project_word,
    random_box_offsets,
    separation_walk,
    translation,
    word_count_letters,
    word_masses,
    word_spectrum,
)

from qdims import systems
from qdims.codespace import BernoulliMeasure
from qdims.errors import BranchBudgetError, IncompleteSchemeError, SampleError
from qdims.harness import ExperimentConfig, build_scheme, build_system_and_measure, realize_scheme
from qdims.systems import (
    _letter_chunks,
    AffineSystem,
    AttractorSample,
    ExplicitTranslations,
    FiniteTranslationSet,
    RandomBoxTranslations,
    SimilarSystem,
    check_separation,
    default_sampling_depth,
    load_sample_csv,
    sample_measure,
    save_sample_csv,
)


REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def cantor_system():
    return (SimilarSystem([[1 / 3, 1 / 3]]),
            FiniteTranslationSet(vectors=[[0.0], [2 / 3]]),
            BernoulliMeasure([[0.5, 0.5]]))


def interval_system():
    return (SimilarSystem([[0.5, 0.5]]),
            FiniteTranslationSet(vectors=[[0.0], [0.5]]),
            BernoulliMeasure([[0.5, 0.5]]))


def skewed_affine_system():
    # 2-D, non-diagonal, three maps
    return AffineSystem([[np.array([[0.3, 0.1], [-0.05, 0.25]]),
                          np.array([[0.2, -0.1], [0.12, 0.35]]),
                          np.array([[0.28, 0.0], [0.1, 0.2]])]])


# overrides at prefix lengths 1, 2 and 3
ASSIGNMENT = {(1,): 2, (2,): 3, (3, 1): 1, (2, 2): 2, (1, 3, 2): 3, (2, 1, 1): 1}


def complete_table(depth, dim=2, letters=3, seed=0):
    rng = np.random.default_rng(seed)
    table = {}
    for length in range(1, depth + 1):
        for prefix in itertools.product(range(1, letters + 1), repeat=length):
            table[prefix] = rng.normal(size=dim)
    return table


def choice_letters(measure, count, depth, seed):
    # reference draws: one rng.choice per level, in level order
    rng = np.random.default_rng(seed)
    letters = np.empty((count, depth), dtype=np.int64)
    for k in range(1, depth + 1):
        p = measure.probs(k)
        letters[:, k - 1] = rng.choice(len(p), size=count, p=p) + 1
    return letters


def sampled_letters(system, measure, count, depth, seed):
    # the letters of sample_measure's rows: word counts when the word tree
    # fits the word table, one rng.choice per level otherwise
    words = np.prod([system.profile.size(k) for k in range(1, depth + 1)])
    if words <= min(count, systems._WORD_TABLE_ROWS):
        return word_count_letters(measure, count, depth, seed)
    return choice_letters(measure, count, depth, seed)


def per_row_sample(system, scheme, measure, letters):
    """``sample_measure`` on its per-row path, fed ``letters`` as its draws.

    The word table is capped below one word, and ``_letter_chunks`` yields
    the given letters, in the sampler's letter type, one chunk of
    ``_SAMPLE_CHUNK_ROWS`` rows at a time.
    """
    count, depth = letters.shape
    sizes = [system.profile.size(k) for k in range(1, depth + 1)]
    letters = letters.astype(np.min_scalar_type(max(sizes)))

    def chunks(*_):
        for start in range(0, count, systems._SAMPLE_CHUNK_ROWS):
            yield start, letters[start:start + systems._SAMPLE_CHUNK_ROWS]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(systems, "_WORD_TABLE_ROWS", 0)
        mp.setattr(systems, "_letter_chunks", chunks)
        return sample_measure(system, scheme, measure, count=count, depth=depth)


def drawn_letters(count, depth, p, seed):
    # the letters sample_measure draws for these arguments, when the word
    # tree holds more words than the count
    return choice_letters(BernoulliMeasure([p]), count, depth, seed)


def matrix_stack_points(system, scheme, letters):
    # the general sampling loop, which composes full d x d products
    count, depth = letters.shape
    d = system.ambient_dim
    x = np.zeros((count, d))
    M = np.broadcast_to(np.eye(d), (count, d, d)).copy()
    for j, offs in enumerate(scheme.offsets(letters), start=1):
        x += (M @ offs[:, :, None])[:, :, 0]
        if j < depth:
            M = M @ system.linear_maps(j)[letters[:, j - 1] - 1]
    return x


class CountingOffsets:
    """A scheme that counts the rows handed to the scheme it wraps."""

    def __init__(self, scheme):
        self.scheme, self.calls = scheme, []

    @property
    def rows(self):
        return sum(self.calls)

    def offsets(self, letters):
        self.calls.append(len(letters))
        return self.scheme.offsets(letters)

    def sup_norm(self):
        return self.scheme.sup_norm()


class NaNOffsets:
    """A scheme whose offsets at level ``bad`` are NaN, the rest those of ``scheme``."""

    def __init__(self, scheme, bad):
        self.scheme, self.bad = scheme, bad

    def offsets(self, letters):
        for k, offs in enumerate(self.scheme.offsets(letters), start=1):
            yield np.full_like(offs, np.nan) if k == self.bad else offs

    def sup_norm(self):
        return self.scheme.sup_norm()


class TestSystems:
    def test_similar_requires_contracting_ratios(self):
        with pytest.raises(ValueError):
            SimilarSystem([[0.5, 1.0]])
        with pytest.raises(ValueError):
            SimilarSystem([[0.5, 0.0]])

    def test_ratio_envelope(self):
        system = SimilarSystem([[0.5, 0.25]], tail=[[0.4, 0.3]])
        assert system.c_lower == 0.25
        assert system.c_upper == 0.5

    def test_affine_rejects_expanding(self):
        with pytest.raises(ValueError):
            AffineSystem([[np.diag([1.1, 0.5])]])

    def test_affine_rejects_singular(self):
        with pytest.raises(Exception):
            AffineSystem([[np.array([[0.5, 0.0], [0.5, 0.0]])]])


class TestRotationParts:
    ROT90 = [[0.0, -1.0], [1.0, 0.0]]
    IDENT = [[1.0, 0.0], [0.0, 1.0]]

    def system(self):
        return SimilarSystem([[0.4, 0.4]], ambient_dim=2,
                             rotations=[[self.ROT90, self.IDENT]])

    def test_linear_maps_scale_the_rotation(self):
        maps = self.system().linear_maps(1)
        assert np.allclose(maps[0], 0.4 * np.array(self.ROT90))
        assert np.allclose(maps[1], 0.4 * np.eye(2))

    def test_projection_hand_values(self):
        scheme = FiniteTranslationSet(vectors=[[0.0, 0.0], [0.6, 0.0]])
        system = self.system()
        pt, _ = project_word(system, scheme, (2, 1))
        assert np.allclose(pt, [0.6, 0.0])
        # letter 1 rotates the next offset a quarter turn
        pt, _ = project_word(system, scheme, (1, 2))
        assert np.allclose(pt, [0.0, 0.24])

    def test_sampling_matches_projection(self):
        system = self.system()
        scheme = FiniteTranslationSet(vectors=[[0.0, 0.0], [0.6, 0.0]])
        measure = BernoulliMeasure([[0.5, 0.5]])
        s = sample_measure(system, scheme, measure, count=5, depth=7, seed=2)
        rng = np.random.default_rng(2)
        letters = np.empty((5, 7), dtype=np.int64)
        for k in range(7):
            letters[:, k] = rng.choice(2, size=5, p=[0.5, 0.5]) + 1
        for i in range(5):
            pt, _ = project_word(system, scheme, tuple(letters[i]))
            assert np.allclose(pt, s.points[i], atol=1e-12)

    def test_word_spectrum_stays_similar(self):
        spec = word_spectrum(self.system(), (1, 2, 1))
        assert np.allclose(spec.values, 0.4**3)

    def test_rejects_non_orthogonal_parts(self):
        with pytest.raises(ValueError):
            SimilarSystem([[0.4, 0.4]], ambient_dim=2,
                          rotations=[[[[1.0, 0.5], [0.0, 1.0]], self.IDENT]])


class TestProjectWord:
    def test_zero_translations_project_to_origin(self):
        system, _, _ = cantor_system()
        zero = FiniteTranslationSet(vectors=[[0.0], [0.0]])
        for letters in [(1,), (2, 1), (1, 2, 2, 1)]:
            pt, _ = project_word(system, zero, letters)
            assert np.allclose(pt, 0.0)

    def test_geometric_series(self):
        system, scheme, _ = interval_system()
        pt, bound = project_word(system, scheme, (2,) * 20)
        assert pt[0] == pytest.approx(1 - 2**-20, abs=1e-12)
        assert bound == pytest.approx(np.linalg.norm([0.5]) * 0.5**20 / 0.5)

    def test_middle_third(self):
        system, scheme, _ = cantor_system()
        pt, _ = project_word(system, scheme, (1, 2))
        assert pt[0] == pytest.approx(2 / 9, abs=1e-14)

    def test_depth_beyond_word_rejected(self):
        system, scheme, _ = cantor_system()
        with pytest.raises(ValueError):
            project_word(system, scheme, (1, 2), depth=3)

    def test_incomplete_explicit_scheme(self):
        system, _, _ = cantor_system()
        scheme = ExplicitTranslations({(1,): [0.0]})
        with pytest.raises(IncompleteSchemeError):
            project_word(system, scheme, (1, 2))

    def test_truncation_differences_bounded(self):
        rng = np.random.default_rng(0)
        system = SimilarSystem([[0.5, 0.35, 0.4]])
        scheme = FiniteTranslationSet(vectors=rng.uniform(-1, 1, size=(3, 1)))
        sup = scheme.sup_norm()
        w = tuple(int(x) for x in rng.integers(1, 4, size=12))
        for depth in range(1, 12):
            a, _ = project_word(system, scheme, w, depth)
            b, _ = project_word(system, scheme, w, depth + 1)
            assert np.linalg.norm(b - a) <= sup * system.c_upper**depth + 1e-12


class TestTranslationSchemes:
    def test_explicit_missing_prefix(self):
        scheme = ExplicitTranslations({(1,): [0.0]})
        with pytest.raises(IncompleteSchemeError):
            translation(scheme, (2,))

    def test_random_box_reproducible_from_seed_and_word(self):
        a = RandomBoxTranslations(low=[0.0, -1.0], high=[2.0, 1.0], seed=9)
        b = RandomBoxTranslations(low=[0.0, -1.0], high=[2.0, 1.0], seed=9)
        assert np.array_equal(translation(a, (1, 2, 1)), translation(b, (1, 2, 1)))
        c = RandomBoxTranslations(low=[0.0, -1.0], high=[2.0, 1.0], seed=10)
        assert not np.array_equal(translation(a, (1, 2, 1)), translation(c, (1, 2, 1)))

    def test_random_box_draws_inside_box(self):
        scheme = RandomBoxTranslations(low=[0.0, -1.0], high=[2.0, 1.0], seed=3)
        draws = np.array([translation(scheme, (1, j + 1)) for j in range(1)] +
                         [translation(scheme, (j % 2 + 1, j // 2 + 1)) for j in range(200)])
        assert draws[:, 0].min() >= 0.0 and draws[:, 0].max() <= 2.0
        assert draws[:, 1].min() >= -1.0 and draws[:, 1].max() <= 1.0

    def test_random_box_mean_near_center(self):
        scheme = RandomBoxTranslations(low=[0.0], high=[1.0], seed=8)
        n = 4096
        prefixes = [tuple(1 + ((i >> b) & 1) for b in range(12)) for i in range(n)]
        draws = np.array([translation(scheme, p) for p in prefixes]).ravel()
        sigma = (1 / np.sqrt(12)) / np.sqrt(n)
        assert abs(draws.mean() - 0.5) < 4 * sigma

    def test_finite_set_default_rule_uses_last_letter(self):
        scheme = FiniteTranslationSet(vectors=[[0.0], [0.5], [0.9]])
        assert translation(scheme, (2, 3))[0] == 0.9
        assert translation(scheme, (3, 1))[0] == 0.0

    def test_finite_set_table_override(self):
        scheme = FiniteTranslationSet(vectors=[[0.0], [0.5]],
                                      assignment={(1, 2): 1})
        assert translation(scheme, (1, 2))[0] == 0.0
        assert translation(scheme, (2, 2))[0] == 0.5

    def test_finite_set_rejects_bad_index(self):
        with pytest.raises(ValueError):
            FiniteTranslationSet(vectors=[[0.0], [0.5]], assignment={(1,): 3})

    @pytest.mark.parametrize("assignment, message", [
        ({(1,): 1.9}, "assignment index 1.9 is not an integer"),
        ({(1.7,): 1}, r"prefix \(1.7,\) must hold integer letters"),
    ])
    def test_finite_set_rejects_non_integral_assignment(self, assignment, message):
        with pytest.raises(ValueError, match=message):
            FiniteTranslationSet(vectors=[[0.0], [0.5]], assignment=assignment)

    def test_explicit_rejects_non_integral_prefix(self):
        with pytest.raises(ValueError, match=r"prefix \(1.5,\) must hold integer letters"):
            ExplicitTranslations({(1.5,): [0.0]})

    def test_finite_set_realize_jitters_within_radius(self):
        base = FiniteTranslationSet(vectors=[[0.0, 0.0], [1.0, 0.0]], jitter_radius=0.2)
        real = base.realize(5)
        assert real.jitter_radius == 0.0
        shift = np.linalg.norm(real.vectors - base.vectors, axis=1)
        assert np.all(shift <= 0.2 + 1e-12)
        assert np.any(shift > 0)
        assert np.array_equal(real.vectors, base.realize(5).vectors)

    @pytest.mark.parametrize("radius", [-1.0, -1e-12, np.inf, np.nan])
    def test_finite_set_rejects_negative_or_nonfinite_jitter(self, radius):
        # a radius of -1 read as not randomized, yet realize moved each vector
        # by up to 1 and sup_norm subtracted 1
        with pytest.raises(ValueError, match="jitter_radius must be finite and non-negative"):
            FiniteTranslationSet(vectors=[[0.0], [0.5]], jitter_radius=radius)

    def test_random_box_translation_pinned(self):
        # recorded values of the splitmix64 chain for this seed and word; any
        # drift in the chain, the letter salt or the per-axis salts shows here
        scheme = RandomBoxTranslations(low=[0.0, -1.0], high=[2.0, 1.0], seed=9)
        assert translation(scheme, (1, 2, 1)).tolist() == [1.2502207743167977,
                                                          0.1437498937254731]

    def test_random_box_offsets_match_translation(self):
        scheme = RandomBoxTranslations(low=[0.0, -1.0], high=[2.0, 1.0], seed=4)
        letters = drawn_letters(7, 5, [0.5, 0.5], seed=1)
        for j, offs in enumerate(scheme.offsets(letters), start=1):
            for row, off in zip(letters, offs):
                assert np.array_equal(off, translation(scheme, tuple(row[:j])))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 9, -3])
    def test_random_box_offsets_match_out_of_place_chain(self, d, seed):
        scheme = RandomBoxTranslations(low=-0.5 * np.arange(1, d + 1),
                                       high=np.arange(1, d + 1) / 3, seed=seed)
        letters = drawn_letters(500, 15, [0.2, 0.3, 0.5], seed=d)
        got = list(scheme.offsets(letters))
        want = random_box_offsets(scheme, letters)
        assert len(got) == len(want) == 15
        for a, b in zip(got, want):
            assert a.shape == b.shape == (500, d)
            assert (a == b).all() and a.tobytes() == b.tobytes()

    def test_finite_set_offsets_follow_documented_rule(self):
        scheme = FiniteTranslationSet(vectors=[[0.0, 0.0], [1.0, 0.2], [0.3, 1.0]],
                                      assignment=ASSIGNMENT)
        letters = np.array(list(itertools.product((1, 2, 3), repeat=4)))
        levels = list(scheme.offsets(letters))
        assert len(levels) == 4
        for j, offs in enumerate(levels, start=1):
            for row, off in zip(letters, offs):
                prefix = tuple(int(x) for x in row[:j])
                index = ASSIGNMENT.get(prefix, (prefix[-1] - 1) % 3 + 1)
                assert np.array_equal(off, scheme.vectors[index - 1])
                assert np.array_equal(off, translation(scheme, prefix))

    def test_realize_and_randomized(self):
        explicit = ExplicitTranslations({(1,): [0.0], (2,): [1.0]})
        assert not explicit.randomized
        assert explicit.realize(5) is explicit

        box = RandomBoxTranslations(low=[0.0], high=[1.0], seed=9)
        assert box.randomized
        real = box.realize(5)
        assert real.seed == 14 and real.randomized
        assert np.array_equal(real.low, box.low) and np.array_equal(real.high, box.high)
        assert np.array_equal(translation(real, (1, 2)),
                              translation(RandomBoxTranslations(low=[0.0], high=[1.0], seed=14),
                                          (1, 2)))

        fixed = FiniteTranslationSet(vectors=[[0.0], [0.5]])
        assert not fixed.randomized
        assert fixed.realize(5) is fixed

        jittered = FiniteTranslationSet(vectors=[[0.0], [0.5]], assignment={(1,): 2},
                                        jitter_radius=0.1)
        assert jittered.randomized
        real = jittered.realize(5)
        assert not real.randomized
        assert real.assignment == jittered.assignment


class TestSampling:
    def test_deterministic(self):
        system, scheme, measure = cantor_system()
        a = sample_measure(system, scheme, measure, count=2000, seed=5)
        b = sample_measure(system, scheme, measure, count=2000, seed=5)
        assert np.array_equal(a.points, b.points)

    def test_weights_sum_to_one(self):
        system, scheme, measure = cantor_system()
        s = sample_measure(system, scheme, measure, count=1234, seed=1)
        assert s.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_uniform_interval_ks_distance(self):
        system, scheme, measure = interval_system()
        s = sample_measure(system, scheme, measure, count=100_000, seed=3)
        x = np.sort(s.points[:, 0])
        n = len(x)
        ks = np.max(np.maximum(np.abs(np.arange(1, n + 1) / n - x),
                               np.abs(x - np.arange(n) / n)))
        assert ks < 0.01

    @pytest.mark.parametrize("depth", [0, -3])
    def test_depth_below_one_rejected(self, depth):
        system, scheme, measure = cantor_system()
        with pytest.raises(ValueError, match="depth must be at least 1"):
            sample_measure(system, scheme, measure, count=10, depth=depth)

    @pytest.mark.parametrize("resolution", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_target_resolution_rejected(self, resolution):
        system, scheme, measure = cantor_system()
        with mock.patch.object(systems, "_sample_blocks") as blocks, \
                pytest.raises(ValueError, match="resolution must be positive and finite"):
            sample_measure(system, scheme, measure, count=10, target_resolution=resolution)
        blocks.assert_not_called()

    def test_point_mass_degenerate(self):
        # two identical maps with identical translations: one fixed point
        system = SimilarSystem([[0.5, 0.5]])
        scheme = FiniteTranslationSet(vectors=[[0.25], [0.25]])
        measure = BernoulliMeasure([[0.5, 0.5]])
        s = sample_measure(system, scheme, measure, count=500, depth=50, seed=2)
        assert np.allclose(s.points, s.points[0], atol=1e-12)

    def test_cantor_gap_avoided(self):
        system, scheme, _ = cantor_system()
        measure = BernoulliMeasure([[0.5, 0.5]])
        s = sample_measure(system, scheme, measure, count=50_000, seed=4)
        bound = s.meta["truncation_bound"]
        inside_gap = (s.points > 1 / 3 + bound) & (s.points < 2 / 3 - bound)
        assert not inside_gap.any()

    def test_points_inside_geometric_bound(self):
        rng = np.random.default_rng(9)
        mats = [rng.normal(size=(2, 2)) * 0.2 + np.diag([0.3, 0.2]) for _ in range(2)]
        mats = [m * 0.9 / np.linalg.svd(m, compute_uv=False)[0] for m in mats]
        system = AffineSystem([mats])
        scheme = RandomBoxTranslations(low=[-1, -1], high=[1, 1], seed=0)
        s = sample_measure(system, scheme, measure=BernoulliMeasure([[0.5, 0.5]]),
                           count=5000, seed=0)
        limit = scheme.sup_norm() / (1 - system.alpha_upper)
        assert np.linalg.norm(s.points, axis=1).max() <= limit + 1e-9

    def test_vectorized_matches_per_word_projection(self):
        system = AffineSystem([[np.diag([0.4, 0.3]), np.diag([0.35, 0.45])]])
        scheme = RandomBoxTranslations(low=[0, 0], high=[1, 1], seed=21)
        measure = BernoulliMeasure([[0.5, 0.5]])
        s = sample_measure(system, scheme, measure, count=6, depth=9, seed=13)
        letters = drawn_letters(6, 9, [0.5, 0.5], seed=13)
        for i in range(6):
            pt, _ = project_word(system, scheme, tuple(letters[i]), depth=9)
            assert np.allclose(pt, s.points[i], atol=1e-12)

    @pytest.mark.parametrize("scheme", [
        RandomBoxTranslations(low=[0.0, -1.0], high=[2.0, 1.0], seed=9),
        FiniteTranslationSet(vectors=[[0.0, 0.0], [1.0, 0.2], [0.3, 1.0]],
                             assignment=ASSIGNMENT),
        ExplicitTranslations(complete_table(6)),
    ], ids=lambda scheme: scheme.kind)
    def test_sampling_matches_projection(self, scheme):
        system = skewed_affine_system()
        p = [0.2, 0.5, 0.3]
        s = sample_measure(system, scheme, BernoulliMeasure([p]), count=40, depth=6, seed=11)
        letters = drawn_letters(40, 6, p, seed=11)
        for i in range(40):
            pt, _ = project_word(system, scheme, tuple(letters[i]))
            assert np.allclose(pt, s.points[i], rtol=0.0, atol=1e-12)

    def test_explicit_scheme_sampling_matches_finite_set(self):
        # table reproducing the last-letter rule must sample identically
        system, finite, measure = cantor_system()
        depth = 6
        table = {}

        def fill(prefix):
            if len(prefix) == depth:
                return
            for j in (1, 2):
                table[prefix + (j,)] = finite.vectors[j - 1]
                fill(prefix + (j,))

        fill(())
        explicit = ExplicitTranslations(table)
        a = sample_measure(system, explicit, measure, count=500, depth=depth, seed=9)
        b = sample_measure(system, finite, measure, count=500, depth=depth, seed=9)
        assert np.array_equal(a.points, b.points)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([1, 2, 3]), st.booleans())
    def test_diagonal_path_matches_matrix_stack(self, seed, d, similar):
        # level-varying diagonal tables, reflections included for affine maps
        rng = np.random.default_rng(seed)
        sizes = rng.integers(2, 5, size=rng.integers(1, 4)).tolist()
        probs = [rng.dirichlet(np.ones(m)) for m in sizes]
        if similar:
            system = SimilarSystem([rng.uniform(0.05, 0.95, m) for m in sizes], ambient_dim=d)
        else:
            system = AffineSystem([[np.diag(rng.uniform(0.05, 0.95, d) * rng.choice([-1, 1], d))
                                    for _ in range(m)] for m in sizes])
        scheme = FiniteTranslationSet(vectors=rng.normal(size=(max(sizes), d)))
        count, depth, sample_seed = 50, int(rng.integers(1, 9)), int(rng.integers(2**31))
        s = sample_measure(system, scheme, BernoulliMeasure(probs), count=count,
                           depth=depth, seed=sample_seed)
        letters = sampled_letters(system, BernoulliMeasure(probs), count, depth, sample_seed)
        assert s.points.tobytes() == matrix_stack_points(system, scheme, letters).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.booleans(), st.sampled_from([7, 128, 300]))
    def test_letters_match_rng_choice(self, seed, wide, chunk_rows):
        # 300 rows: chunks of 7 and 128 end short, one chunk of 300 does not
        rng = np.random.default_rng(seed)
        sizes = rng.integers(2, 12, size=rng.integers(1, 5)).tolist()
        if wide:
            sizes.insert(int(rng.integers(len(sizes) + 1)), 256)
        measure = BernoulliMeasure([rng.dirichlet(np.ones(m)) for m in sizes])
        count, depth = 300, len(sizes) + 2
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(systems, "_SAMPLE_CHUNK_ROWS", chunk_rows)
            chunks = list(_letter_chunks(measure, count, depth, seed))
        starts = [start for start, _ in chunks]
        assert starts == list(range(0, count, chunk_rows))
        letters = np.concatenate([block for _, block in chunks])
        assert letters.dtype == (np.uint16 if wide else np.uint8)
        assert np.array_equal(letters, choice_letters(measure, count, depth, seed))

    @pytest.mark.parametrize("path", ["diagonal", "matrix", "random-box"])
    def test_points_do_not_depend_on_chunk_size(self, monkeypatch, path):
        # 1003 rows: not a multiple of 7 or 1000; level-varying branching,
        # with one similarity level of equal ratios
        probs = [[0.2, 0.5, 0.3], [0.6, 0.4], [0.1, 0.3, 0.6]]
        if path == "diagonal":
            system = SimilarSystem([[0.3, 0.25, 0.4], [0.4, 0.4], [0.35, 0.3, 0.2]],
                                   ambient_dim=2)
            scheme = FiniteTranslationSet(vectors=[[0.0, 0.0], [0.5, 0.3], [0.25, 0.6]],
                                          assignment=ASSIGNMENT)
        else:
            shear = np.array([[0.2, 0.1], [-0.1, 0.3]])
            system = AffineSystem([skewed_affine_system().linear_maps(1),
                                   [shear, shear.T]])
            scheme = (FiniteTranslationSet(vectors=[[0.0, 0.0], [1.0, 0.2], [0.3, 1.0]])
                      if path == "matrix"
                      else RandomBoxTranslations(low=[0.0, -1.0], high=[2.0, 1.0], seed=9))
            probs = [probs[0], probs[1]]
        measure = BernoulliMeasure(probs)
        count, depth, seed = 1003, 8, 17
        digests = set()
        for chunk_rows in (1, 7, 1000, count, 4 * count):
            monkeypatch.setattr(systems, "_SAMPLE_CHUNK_ROWS", chunk_rows)
            s = sample_measure(system, scheme, measure, count=count, depth=depth, seed=seed)
            digests.add(points_digest(s))
        assert len(digests) == 1
        letters = choice_letters(measure, count, depth, seed)
        assert s.points.tobytes() == matrix_stack_points(system, scheme, letters).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.booleans(), st.booleans(),
           st.sampled_from(["finite-set", "explicit", "random-box"]),
           st.sampled_from(["below", "at", "above"]))
    def test_word_table_matches_per_row_projection(self, seed, wide, matrix, kind, count_at):
        # the per-row path, fed the letters of the word-table path's rows,
        # must give their bits, and both the oracle's; a count below the
        # word count always projects each row
        rng = np.random.default_rng(seed)
        sizes = rng.integers(2, 5, size=rng.integers(1, 2 if wide else 4)).tolist()
        if wide:
            sizes.insert(int(rng.integers(len(sizes) + 1)), 256)
        depth, words = len(sizes), int(np.prod(sizes))
        d = 2 if matrix else int(rng.integers(1, 3))
        if matrix:
            mats = [[m * 0.8 / np.linalg.norm(m, 2) for m in rng.normal(size=(size, d, d))]
                    for size in sizes]
            system = AffineSystem(mats)
        else:
            system = SimilarSystem([rng.uniform(0.05, 0.95, m) for m in sizes], ambient_dim=d)
        if kind == "finite-set":
            keys = {tuple(int(rng.integers(1, sizes[j] + 1)) for j in range(length)): 2
                    for length in rng.integers(1, depth + 1, size=4)}
            scheme = FiniteTranslationSet(vectors=rng.normal(size=(3, d)), assignment=keys)
        elif kind == "explicit":
            scheme = ExplicitTranslations({
                prefix: rng.normal(size=d)
                for length in range(1, depth + 1)
                for prefix in itertools.product(*(range(1, m + 1) for m in sizes[:length]))})
        else:
            scheme = RandomBoxTranslations(low=-rng.random(d), high=rng.random(d),
                                           seed=int(rng.integers(2**31)))
        measure = BernoulliMeasure([rng.dirichlet(np.ones(m)) for m in sizes])
        step = int(rng.integers(1, words))
        count = {"below": words - step, "at": words, "above": words + step}[count_at]
        sample_seed = int(rng.integers(2**31))
        letters = sampled_letters(system, measure, count, depth, sample_seed)
        want = matrix_stack_points(system, scheme, letters)
        counting = CountingOffsets(scheme)
        s = sample_measure(system, counting, measure, count=count, depth=depth, seed=sample_seed)
        assert s.points.tobytes() == want.tobytes()
        if count >= words:
            assert counting.calls == [len(np.unique(letters, axis=0))]
        else:
            assert counting.rows == count
        rows = per_row_sample(system, scheme, measure, letters)
        assert rows.points.tobytes() == want.tobytes()

    def test_shallow_tree_projects_each_word_once(self):
        system, scheme, measure = cantor_system()
        counting = CountingOffsets(scheme)
        s = sample_measure(system, counting, measure, count=100_000, depth=10, seed=1)
        assert counting.rows == 2**10
        # the per-row path, fed the same words, projects every row
        letters = word_count_letters(measure, 100_000, 10, seed=1)
        per_row = CountingOffsets(scheme)
        want = per_row_sample(system, per_row, measure, letters)
        assert per_row.rows == 100_000
        assert s.points.tobytes() == want.points.tobytes()

    def test_word_table_cap_is_not_the_chunk_size(self, monkeypatch):
        # a tree of more words than one chunk of rows, as uniform.json's
        # 32,768 words against 16,384 rows, still projects each drawn word once
        system, scheme, measure = cantor_system()
        want = sample_measure(system, scheme, measure, count=5000, depth=10, seed=1)
        monkeypatch.setattr(systems, "_SAMPLE_CHUNK_ROWS", 7)
        counting = CountingOffsets(scheme)
        s = sample_measure(system, counting, measure, count=5000, depth=10, seed=1)
        assert counting.calls == [len(np.unique(s.points))]
        assert s.points.tobytes() == want.points.tobytes()

    def test_memory_bounded_by_chunk_not_count(self):
        # depth-200 letters for 200k rows alone would take 40 MB; the points
        # and weights take 3.2 MB and the peak, 8.4 MB, falls inside a chunk
        system, scheme, measure = cantor_system()
        tracemalloc.start()
        try:
            sample_measure(system, scheme, measure, count=200_000, depth=200, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("system", [
        SimilarSystem([[0.3, 0.4]], ambient_dim=2),
        AffineSystem([[np.diag([0.3, 0.2]), np.diag([0.4, 0.25])]]),
    ], ids=["similar", "affine"])
    def test_offsets_of_wrong_dimension_rejected(self, system):
        scheme = FiniteTranslationSet(vectors=[[0.0], [0.5]])
        with pytest.raises(ValueError, match=r"offsets of shape \(10, 1\)"):
            sample_measure(system, scheme, BernoulliMeasure([[0.5, 0.5]]), count=10, seed=0)

    def test_resolution_warning_flag(self):
        system, scheme, measure = cantor_system()
        s = sample_measure(system, scheme, measure, count=10, depth=2,
                           target_resolution=1e-6, seed=0)
        assert s.meta["resolution_warning"]

    def test_default_depth_subordinate_to_resolution(self):
        system, scheme, _ = cantor_system()
        depth = default_sampling_depth(system, scheme, 2**-12)
        bound = scheme.sup_norm() * system.c_upper**depth / (1 - system.c_upper)
        assert bound <= 2**-12


class TestWordCounts:
    @pytest.mark.parametrize("name, words", [
        ("cantor.json", 2**10), ("two_level.json", 2**10), ("uniform.json", 2**15),
    ])
    def test_counts_match_the_word_masses(self, name, words):
        # each config's tree as compare samples it; two_level's levels differ
        with open(os.path.join(REPO, "configs", name)) as fh:
            config = ExperimentConfig.from_dict(json.load(fh))
        system, measure = build_system_and_measure(config)
        scheme = realize_scheme(build_scheme(config, system), config.seed, 0)
        n, seed = config.samples, config.seed
        meta, blocks = systems._sample_stream(system, scheme, measure, n, seed=seed,
                                              target_resolution=min(config.scales))
        counts = systems._word_counts(measure, meta["depth"], n, seed)
        _, p = word_masses(measure, meta["depth"])
        assert len(counts) == words and counts.sum() == n
        mean, sd = n * p, np.sqrt(n * p * (1 - p))
        # every word within a few binomial standard deviations, and all of
        # them together within a few of the chi-square statistic's own
        assert (np.abs(counts - mean) <= 6 * sd + 1).all()
        assert abs(((counts - mean) ** 2 / mean).sum() - (words - 1)) <= 6 * np.sqrt(2 * words)
        # one block: the drawn words, in code order, with their counts
        [(start, points, drawn, weights)] = blocks
        assert start == 0 and drawn.tobytes() == counts[counts > 0].tobytes()
        assert len(points) == len(drawn) and (weights == 1 / n).all()
        again, other = (systems._word_counts(measure, meta["depth"], n, seed + k) for k in (0, 1))
        assert again.tobytes() == counts.tobytes() and other.tobytes() != counts.tobytes()

    def test_a_level_short_of_one_leaves_no_slack_to_the_last_word(self):
        # the second level sums to 1 - 1e-12; numpy takes the last entry as 1
        # minus the others, so unnormalised masses would give the last word
        # 1.5e-12 instead of 0.5e-12: 300 of 2e14 draws instead of 100
        measure = BernoulliMeasure([[0.5, 0.5], [1 - 2e-12, 1e-12]])
        assert 1 - measure.probs(2).sum() == pytest.approx(1e-12, rel=1e-3)
        counts = systems._word_counts(measure, 2, 2 * 10**14, seed=0)
        assert counts.sum() == 2 * 10**14
        # each short word expects 100 draws, with a standard deviation of 10
        assert abs(counts[1] - 100) <= 50 and abs(counts[3] - 100) <= 50


def float_texts(values):
    """The texts ``systems._float_texts`` gives ``values``, as str."""
    text, start, end = systems._float_texts(np.array(values, dtype=float))
    return [bytes(row[a:b]).decode() for row, a, b in zip(text, start, end)]


# zeros and subnormals, powers of two (lopsided rounding intervals), the
# domain's ends (1e-6 and 2**53), repr's switches of layout at 1e-4 and
# 1e16, a tie between two shortest strings and decimals that do not round-trip
# in 16 digits
FLOAT_EDGES = [
    0.0, 5e-324, 2.0**-1022, *(2.0**k for k in range(-21, 54)), 2.0**53 - 1, 2.0**53 + 2,
    1e16, 9999999999999998.0, 1e-4, 1e-05, 9.999999999999999e-05, 1e-6,
    1.0000000000000002e-06, 155353250393888.125, 0.1, 0.3, 1 / 3, 2 / 3, 123456.0, 1e15,
]


class TestFloatTexts:
    @pytest.mark.parametrize("value", FLOAT_EDGES, ids=repr)
    def test_edge_values_read_as_repr(self, value):
        assert float_texts([value, -value]) == [repr(value), repr(-value)]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_any_finite_values_read_as_repr(self, values):
        # a list, so that no value's text depends on the others formatted with it
        assert float_texts(values) == list(map(repr, values))

    def test_repr_is_left_only_the_documented_values(self):
        # ties between two shortest strings need few bits after the point,
        # so they are rare below 1e8 (and 17% of the values in [1e15, 2**53))
        rng = np.random.default_rng(0)
        values = np.concatenate([rng.random(1000), rng.normal(size=1000) * 1e3,
                                 10.0 ** rng.uniform(-5.9, 7.9, 1000)])
        assert systems._shortest_digits(np.abs(values))[3].all()
        # zeros and the domain's ends, a tie and a power of two
        for value in (0.0, 1e-6, 2.0**53, 155353250393888.125, 0.125):
            assert not systems._shortest_digits(np.array([value]))[3].any()


class TestSampleCsv:
    def test_round_trip(self, tmp_path):
        system, scheme, measure = cantor_system()
        s = sample_measure(system, scheme, measure, count=200, seed=6)
        path = tmp_path / "points.csv"
        save_sample_csv(s, path)
        back = load_sample_csv(path)
        assert np.array_equal(back.points, s.points)
        assert np.array_equal(back.weights, s.weights)

    def test_byte_deterministic(self, tmp_path):
        system, scheme, measure = cantor_system()
        s = sample_measure(system, scheme, measure, count=100, seed=6)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_sample_csv(s, p1)
        save_sample_csv(s, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("uniform", [True, False], ids=["equal", "non-uniform"])
    @pytest.mark.parametrize("rows", [40, systems._CSV_BLOCK_ROWS + 7],
                             ids=["short", "over-one-block"])
    def test_bytes_match_csv_writer(self, tmp_path, d, uniform, rows):
        rng = np.random.default_rng(d)
        values = np.array([-0.0, 0.0, 1e-07, 1e16, 1 / 3])
        points = np.where(rng.random((rows, d)) < 0.5, rng.choice(values, (rows, d)),
                          rng.normal(size=(rows, d)))
        if uniform:
            weights = np.full(rows, 1.0 / rows)
        else:
            # a few repeated weights, plus zeros of both signs
            weights = rng.integers(1, 4, rows) / 2.0
            weights[:2] = [-0.0, 0.0]
            weights /= weights.sum()
        sample = AttractorSample(points=points, weights=weights)
        path, oracle = tmp_path / "points.csv", tmp_path / "oracle.csv"
        save_sample_csv(sample, path)
        with open(oracle, "w", newline="") as fh:
            writer = csv.writer(fh)
            for pt, w in zip(sample.points, sample.weights):
                writer.writerow([repr(float(v)) for v in pt] + [repr(float(w))])
        assert (hashlib.sha256(path.read_bytes()).hexdigest()
                == hashlib.sha256(oracle.read_bytes()).hexdigest())
        back = load_sample_csv(path)
        assert back.points.tobytes() == sample.points.tobytes()
        assert back.weights.tobytes() == sample.weights.tobytes()

    @pytest.mark.parametrize("text, message", [
        ("0.5\n0.25\n", "at least one coordinate and a weight"),
        ("0.1,0.2\n0.3,0.2\n", "weights sum to 0.4, not 1"),
        ("0.1,0.5\nnan,0.5\n", "row 2 holds a non-finite value"),
        ("0.1,1.5\n0.9,-0.5\n", "row 2 has negative weight -0.5"),
        ("0.1,0.5\n0.3\n", "cannot read sample"),
        (None, "cannot read sample"),
    ], ids=["one-column", "weight-sum", "nan-row", "negative-weight", "ragged", "missing"])
    def test_malformed_file_raises_sample_error(self, tmp_path, text, message):
        path = tmp_path / "points.csv"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SampleError, match=message):
            load_sample_csv(path)

    @pytest.mark.parametrize("text", ["", "\n\n", "\n" * (systems._CSV_BLOCK_ROWS + 3)],
                             ids=["empty", "blank-lines", "blank-lines-past-one-block"])
    def test_file_without_rows_raises_sample_error_without_warning(self, tmp_path, text):
        path = tmp_path / "points.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SampleError, match="the file holds no rows"):
                load_sample_csv(path)

    @pytest.mark.parametrize("line, message", [
        ("0.5,nan\n", "{path}: row {row} holds a non-finite value"),
        ("0.5,-0.5\n", "{path}: row {row} has negative weight -0.5"),
        ("0.5\n", "cannot read sample {path}: row {row}: expected 2 columns, got 1"),
        ("0.5,x\n", "cannot read sample {path}: row {row} is not comma-separated numbers: "
                    "'0.5,x'"),
    ], ids=["nan", "negative-weight", "ragged", "unparsable"])
    def test_defect_past_the_first_block_names_its_row_in_the_file(self, tmp_path, line,
                                                                    message):
        # a blank line and a comment before the defect are not rows
        n = systems._CSV_BLOCK_ROWS + 5
        lines = ["\n", "# x,weight\n"] + [f"{i / n!r},{1 / n!r}\n" for i in range(n)]
        row = systems._CSV_BLOCK_ROWS + 3
        lines[row + 1] = line
        path = tmp_path / "points.csv"
        path.write_text("".join(lines))
        with pytest.raises(SampleError, match=re.escape(message.format(path=path, row=row))):
            load_sample_csv(path)

    def test_column_count_change_between_blocks_rejected(self, tmp_path):
        n = systems._CSV_BLOCK_ROWS
        path = tmp_path / "points.csv"
        path.write_text("0.1,0.2\n" * n + "0.1,0.2,0.3\n" * 3)
        with pytest.raises(SampleError, match=re.escape(
                f"cannot read sample {path}: row {n + 1}: expected 2 columns, got 3")):
            load_sample_csv(path)

    def test_block_of_blank_lines_before_the_rows_is_skipped(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("\n" * (2 * systems._CSV_BLOCK_ROWS + 1) + "0.1,0.25\n0.3,0.75\n")
        sample = load_sample_csv(path)
        assert sample.points.tolist() == [[0.1], [0.3]]
        assert sample.weights.tolist() == [0.25, 0.75]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_reads_a_stream_that_cannot_seek(self, tmp_path):
        # as in `cat points.csv | qdims estimate /dev/stdin`
        fifo = tmp_path / "points.fifo"
        os.mkfifo(fifo)

        def write():
            with open(fifo, "w") as fh:
                fh.write("0.1,0.25\n0.3,0.75\n")

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            sample = load_sample_csv(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert sample.weights.tolist() == [0.25, 0.75]

    def test_missing_file_is_named_not_found(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(SampleError, match=re.escape(
                f"cannot read sample {path}: {path} not found.")):
            load_sample_csv(path)

    def test_loaded_arrays_are_kept_without_a_copy(self, tmp_path, monkeypatch):
        # the joined blocks are handed over read-only, so the sample keeps them
        path = tmp_path / "points.csv"
        path.write_text("0.1,0.2,0.25\n0.3,0.4,0.75\n")
        kept = {}
        original = AttractorSample.__post_init__

        def recording(self):
            kept["points"], kept["weights"] = self.points, self.weights
            original(self)

        monkeypatch.setattr(AttractorSample, "__post_init__", recording)
        sample = load_sample_csv(path)
        assert np.shares_memory(sample.points, kept["points"])
        assert np.shares_memory(sample.weights, kept["weights"])
        assert sample.points.tolist() == [[0.1, 0.2], [0.3, 0.4]]
        assert sample.weights.tolist() == [0.25, 0.75]

    @pytest.mark.parametrize("weights", [
        np.full(10**5, 1e-5),
        np.random.default_rng(3).random(9000) * 1e-3,
        np.array([5e-324, 1e308, 0.0, -0.0, 2.2e-308, 1.0]),
        np.ldexp(np.random.default_rng(4).random(5000),
                 np.random.default_rng(5).integers(-1074, 1000, 5000)),
    ], ids=["equal", "uniform", "extremes", "every-exponent"])
    def test_exact_sum_is_the_exact_total(self, weights):
        exact = sum(map(Fraction, weights.tolist()), Fraction(0))
        assert Fraction(systems._exact_sum(weights), 2**1126) == exact
        # any split gives the same integer
        assert systems._exact_sum(weights[7:], systems._exact_sum(weights[:7])) \
            == systems._exact_sum(weights[::-1])

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            AttractorSample(points=np.zeros((3, 1)), weights=[0.5, 0.5, 0.5])

    def test_negative_weight_rejected(self):
        # sums to 1, but would bin to the cell masses [1.5, -0.5]
        with pytest.raises(ValueError, match="row 2 has negative weight -0.5"):
            AttractorSample(points=[[0.1], [0.9]], weights=[1.5, -0.5])

    @pytest.mark.parametrize("points, weights, row", [
        ([[0.1], [np.nan]], [0.5, 0.5], 2),
        ([[0.1, np.inf], [0.2, 0.3]], [0.5, 0.5], 1),
        ([[0.1], [0.2], [0.3]], [0.5, 0.5, np.nan], 3),
    ], ids=["nan-point", "inf-point", "nan-weight"])
    def test_non_finite_row_rejected(self, points, weights, row):
        with pytest.raises(ValueError, match=f"row {row} holds a non-finite value"):
            AttractorSample(points=points, weights=weights)

    def test_writable_inputs_are_copied(self):
        points, weights = np.array([[0.1], [0.9]]), np.array([0.25, 0.75])
        sample = AttractorSample(points=points, weights=weights)
        points[0, 0], weights[0] = 0.5, 0.5
        assert sample.points.ravel().tolist() == [0.1, 0.9]
        assert sample.weights.tolist() == [0.25, 0.75]
        assert not (sample.points.flags.writeable or sample.weights.flags.writeable)

    def test_sample_measure_hands_over_without_a_copy(self, monkeypatch):
        system, scheme, measure = cantor_system()
        want = sample_measure(system, scheme, measure, count=3000, seed=2)
        kept = {}
        original = AttractorSample.__post_init__

        def recording(self):
            kept["points"], kept["weights"] = self.points, self.weights
            original(self)

        monkeypatch.setattr(AttractorSample, "__post_init__", recording)
        s = sample_measure(system, scheme, measure, count=3000, seed=2)
        assert np.shares_memory(s.points, kept["points"])
        assert np.shares_memory(s.weights, kept["weights"])
        assert s.points.tobytes() == want.points.tobytes()
        assert s.weights.tobytes() == want.weights.tobytes()


class TestSeparation:
    def test_cantor_gap_ratio(self):
        system, scheme, _ = cantor_system()
        rep = check_separation(system, scheme, depth=5, kind="ssc")
        assert rep.holds_at_depth
        assert rep.worst_gap_ratio == pytest.approx(1 / 3, abs=1e-9)

    def test_touching_intervals(self):
        system, scheme, _ = interval_system()
        assert not check_separation(system, scheme, depth=4, kind="ssc").holds_at_depth
        assert check_separation(system, scheme, depth=4, kind="osc").holds_at_depth

    def test_overlapping_intervals_witness(self):
        # the attractor is [0, 0.625], and its images [0, 0.375] and
        # [0.25, 0.625] overlap
        system = SimilarSystem([[0.6, 0.6]])
        scheme = FiniteTranslationSet(vectors=[[0.0], [0.25]])
        rep = check_separation(system, scheme, depth=1, kind="osc")
        assert not rep.holds_at_depth
        assert rep.witness == ((1,), (2,))
        assert rep.worst_gap_ratio < 0

    def test_budget_error_before_any_word(self, monkeypatch):
        system, scheme, _ = cantor_system()
        monkeypatch.setattr(systems, "SEPARATION_WORD_CAP", 15)

        class Untouchable:
            def offsets(self, letters):
                raise AssertionError(f"offsets of {letters.shape} asked for over budget")

        with pytest.raises(BranchBudgetError, match="needs 16 words at depth 4"):
            check_separation(system, Untouchable(), depth=5)
        assert check_separation(system, scheme, depth=3).depth == 3

    @pytest.mark.parametrize("bad", [1, 2])
    def test_non_finite_offsets_name_their_level(self, bad):
        # a NaN ratio beats no worst one, so the judge would record no witness
        system, scheme, measure = cantor_system()
        with pytest.raises(ValueError, match=f"non-finite offsets at level {bad}"):
            check_separation(system, NaNOffsets(scheme, bad), depth=3)
        with pytest.raises(ValueError, match=f"non-finite offsets at level {bad}"):
            sample_measure(system, NaNOffsets(scheme, bad), measure, count=100, depth=3)

    def test_depth_validation(self):
        system, scheme, _ = cantor_system()
        with pytest.raises(ValueError):
            check_separation(system, scheme, depth=0)
        with pytest.raises(ValueError):
            check_separation(system, scheme, depth=10, kind="weird")
        with pytest.raises(ValueError):
            check_separation(system, scheme, depth=3, kind="gsc")


def rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return [[c, -s], [s, c]]


def rotated_similar_system():
    system = SimilarSystem([[0.3, 0.3, 0.3]], ambient_dim=2,
                           rotations=[[rotation(0.5), rotation(-1.0), rotation(2.0)]])
    return system, FiniteTranslationSet(vectors=[[0.0, 0.0], [0.65, 0.1], [0.2, 0.7]])


def report_values(rep):
    return rep.holds_at_depth, rep.worst_gap_ratio, rep.witness


class OffsetsOnly:
    """A scheme with nothing but the required ``offsets`` and ``sup_norm``:
    certified by the word-tree walk."""

    def __init__(self, scheme):
        self.offsets = scheme.offsets
        self.sup_norm = scheme.sup_norm


class TestSeparationPinned:
    """Verdicts, worst ratios and witnesses, recorded from the invariant-box
    certificate for finite sets and from the word-tree walk on the cube of
    half-width sup|o| / (1 - a) for random boxes."""

    @pytest.mark.parametrize("kind", ["ssc", "osc"])
    @pytest.mark.parametrize("depth", range(1, 7))
    def test_cantor(self, kind, depth):
        # one level is judged whatever the depth: [0, 1/3] and [2/3, 1] in [0, 1]
        system, scheme, _ = cantor_system()
        rep = check_separation(system, scheme, depth=depth, kind=kind)
        assert report_values(rep) == (True, pytest.approx(0.3333333333333334, rel=1e-12),
                                      ((1,), (2,)))
        assert rep.all_depths and rep.depth == depth

    @pytest.mark.parametrize("kind", ["ssc", "osc"])
    def test_rotated_similarity(self, kind):
        rep = check_separation(*rotated_similar_system(), depth=5, kind=kind)
        assert report_values(rep) == (True, pytest.approx(0.0500312581401191, rel=1e-12),
                                      ((1,), (3,)))
        assert rep.all_depths

    @pytest.mark.parametrize("system, scheme, kind, ratio, witness", [
        (AffineSystem([[np.diag([0.45, 0.40]), np.diag([0.42, 0.38]), np.diag([0.40, 0.35])]]),
         RandomBoxTranslations(low=[0.0, 0.0], high=[1.0, 1.0], seed=1_001_003), "ssc",
         -0.479161805475409, ((1, 1, 1), (1, 1, 3))),
        (skewed_affine_system(), RandomBoxTranslations(low=[0, 0], high=[1, 1], seed=4), "ssc",
         -0.5935201037272412, ((3, 3, 3, 1, 1), (3, 3, 3, 1, 3))),
    ], ids=["diagonal", "skewed"])
    def test_random_box_affine(self, system, scheme, kind, ratio, witness):
        rep = check_separation(system, scheme, depth=5, kind=kind)
        assert report_values(rep) == (False, pytest.approx(ratio, rel=1e-12), witness)
        assert not rep.all_depths

    @pytest.mark.parametrize("kind", ["ssc", "osc"])
    def test_level_varying_branching(self, kind):
        # boxes [0, 0.934], [0, 0.836] and [0, 0.787] by level; at level 2
        # the images of the third, [0.35, 0.586] and [0.6, 0.836], are 0.014 apart
        system = SimilarSystem([[0.4, 0.4], [0.3, 0.3, 0.3], [0.2, 0.2]])
        scheme = FiniteTranslationSet(vectors=[[0.0], [0.6], [0.35]])
        rep = check_separation(system, scheme, depth=3, kind=kind)
        assert report_values(rep) == (True, pytest.approx(0.016666666666666725, rel=1e-12),
                                      ((1, 2), (1, 3)))

    def test_certifies_through_offsets_alone(self):
        system, scheme = rotated_similar_system()
        for kind in ("ssc", "osc"):
            assert (separation_values(check_separation(system, OffsetsOnly(scheme), depth=5,
                                                       kind=kind))
                    == separation_values(separation_walk(system, scheme, 5, kind)))


def separation_values(rep):
    return (rep.kind, rep.depth, rep.holds_at_depth, rep.worst_gap_ratio.hex(), rep.witness,
            rep.all_depths)


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def random_table(rng, linear, d, head, tail, high):
    """A system of ``head`` and ``tail`` levels of m maps in d dimensions,
    contracting by 0.05 to ``high`` along each axis: similarities with or
    without orthogonal parts, diagonal maps with mixed signs, rotated
    diagonal maps or skewed maps (orthogonal x diagonal x orthogonal)."""
    def scales(m):
        return rng.uniform(0.05, high, size=(m, d))

    def level(m):
        if linear == "diagonal":
            return [np.diag(s * rng.choice([-1.0, 1.0], d)) for s in scales(m)]
        if linear == "rotated":
            return [random_orthogonal(rng, d) @ np.diag(s) for s in scales(m)]
        return [random_orthogonal(rng, d) @ np.diag(s) @ random_orthogonal(rng, d)
                for s in scales(m)]

    if linear.startswith("similar"):
        rotations = {}
        if linear == "similar-rotated":
            rotations = {"rotations": [[random_orthogonal(rng, d) for _ in range(m)]
                                       for m in head],
                         "rotations_tail": [[random_orthogonal(rng, d) for _ in range(m)]
                                            for m in tail]}
        return SimilarSystem([rng.uniform(0.05, high, m) for m in head],
                             tail=[rng.uniform(0.05, high, m) for m in tail],
                             ambient_dim=d, **rotations)
    return AffineSystem([level(m) for m in head], tail=[level(m) for m in tail])


def assert_sibling_cylinders_apart(system, scheme):
    """At each level k of the head and one period, map j sends the
    level-(k+1) attractor into its image box, so where the box certificate
    holds, the points of sibling cylinders of level k, read in level k's own
    coordinates (``cylinder_points`` from ``start = k - 1``), have axis-aligned
    hulls that do not overlap (up to rounding)."""
    head, period = system.cycle
    for start in range(head + period):
        letters, points = cylinder_points(system, scheme, head + period + 1 - start,
                                          start=start)
        n = system.profile.size(start + 1)
        lo, hi = (np.array([f(points[letters[:, 0] == j], axis=0) for j in range(1, n + 1)])
                  for f in (np.min, np.max))
        i, j = np.triu_indices(n, 1)
        apart = np.maximum(lo[i] - hi[j], lo[j] - hi[i]).max(axis=1)
        assert apart.min() > -1e-12 * (1.0 + np.abs(points).max()), start + 1


SCHEME_KINDS = ("finite-set", "assignment", "jittered", "random-box", "explicit",
                "offsets-only")


@st.composite
def separation_cases(draw, scheme_kinds=SCHEME_KINDS, high=0.95):
    """``(system, scheme, budget)``: a level-varying table and a translation scheme
    of one of ``scheme_kinds``.

    Up to three head levels and one or two tail levels of 2 to 4 maps in
    d = 1..3, contracting by 0.05 to ``high`` along each axis; similarities
    with or without orthogonal parts (reflections among them), diagonal
    affine maps with mixed signs, rotated diagonal maps and skewed maps
    (orthogonal x diagonal x orthogonal).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    d = draw(st.integers(1, 3))
    linear = draw(st.sampled_from(["similar", "similar-rotated", "diagonal", "rotated",
                                   "skewed"]))
    scheme_kind = draw(st.sampled_from(scheme_kinds))
    head = [int(m) for m in rng.integers(2, 5, size=draw(st.integers(1, 3)))]
    tail = [int(m) for m in rng.integers(2, 5, size=draw(st.integers(1, 2)))]
    budget = draw(st.integers(4, 600))
    system = random_table(rng, linear, d, head, tail, high)

    depth = system.profile.depth_within(budget)
    sizes = [system.profile.size(k) for k in range(1, depth + 1)]
    if scheme_kind == "random-box":
        low = rng.uniform(-1.0, 0.5, d)
        scheme = RandomBoxTranslations(low=low, high=low + rng.uniform(0.0, 1.0, d),
                                       seed=int(rng.integers(2**31)))
    elif scheme_kind == "explicit":
        scheme = ExplicitTranslations({
            prefix: rng.uniform(-0.5, 1.0, d)
            for length in range(1, depth + 1)
            for prefix in itertools.product(*(range(1, m + 1) for m in sizes[:length]))})
    else:
        vectors = rng.uniform(-0.5, 1.0, size=(int(rng.integers(1, 5)), d))
        assignment = None
        if scheme_kind == "assignment":
            assignment = {tuple(int(rng.integers(1, m + 1)) for m in sizes[:length]):
                          int(rng.integers(1, len(vectors) + 1))
                          for length in rng.integers(1, depth + 1, size=5)}
        scheme = FiniteTranslationSet(vectors=vectors, assignment=assignment,
                                      jitter_radius=0.2 if scheme_kind == "jittered" else 0.0)
        scheme = scheme.realize(int(rng.integers(2**31)))
        if scheme_kind == "offsets-only":
            scheme = OffsetsOnly(scheme)
    return system, scheme, budget


class TestSeparationMatchesWalk:
    """``check_separation`` against the level-by-level walk of ``oracles.separation_walk``
    wherever it walks: on schemes whose offsets depend on the whole prefix, and
    on letter-determined ones whose invariant boxes are not found."""

    @settings(max_examples=150, deadline=None)
    @given(separation_cases())
    def test_reports_are_bit_identical(self, case):
        system, scheme, budget = case
        for depth in range(1, system.profile.depth_within(budget) + 1):
            for kind in ("ssc", "osc"):
                with mock.patch.object(systems, "SEPARATION_WORD_CAP", budget):
                    rep = check_separation(system, scheme, depth=depth, kind=kind)
                if rep.all_depths:
                    assert getattr(scheme, "letter_determined", False)
                else:
                    assert separation_values(rep) == separation_values(
                        separation_walk(system, scheme, depth, kind))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(separation_cases(scheme_kinds=["assignment"]),
                     separation_cases(scheme_kinds=["assignment"], high=0.25)))
    @example((SimilarSystem([[0.3, 0.3, 0.3]]),
              FiniteTranslationSet(vectors=[[0.0], [0.72], [0.415]], assignment={(1,): 1}), 27))
    def test_walked_holds_only_with_sibling_cylinders_apart(self, case):
        # the points of the words of the deepest level walked, or of the
        # longest key or the head if deeper, each continued by letter 1, lie
        # in the attractor; where the walk holds down to depth D, sibling
        # cylinders of levels 1..D have hulls that do not overlap (up to
        # rounding). Tables contracting by up to 0.95 rarely hold on the
        # cube, and by up to 0.25 about one in seven does at depth 1. The
        # example's second and third pieces overlap.
        system, scheme, budget = case
        top = system.profile.depth_within(budget)
        end = max(top, system.cycle[0], *map(len, scheme.assignment))
        letters, points = cylinder_points(system, scheme, end)
        sizes = [system.profile.size(k) for k in range(1, end + 1)]
        tol = 1e-12 * (1.0 + np.abs(points).max())
        for depth in range(1, top + 1):
            for kind in ("ssc", "osc"):
                rep = check_separation(system, scheme, depth=depth, kind=kind)
                assert not rep.all_depths
                if not rep.holds_at_depth:
                    continue
                x = points.reshape(math.prod(sizes[:depth - 1]), sizes[depth - 1], -1,
                                   system.ambient_dim)
                lo, hi = x.min(axis=2), x.max(axis=2)
                i, j = np.triu_indices(sizes[depth - 1], 1)
                apart = np.maximum(lo[:, i] - hi[:, j], lo[:, j] - hi[:, i]).max(axis=2)
                assert apart.min() > -tol, (kind, depth)

    @pytest.mark.parametrize("linear", ["rotated", "skewed"])
    @pytest.mark.parametrize("scheme", [
        ExplicitTranslations(complete_table(4)),
        FiniteTranslationSet(vectors=[[0.0, 0.0], [0.65, 0.1], [0.2, 0.7]],
                             assignment=ASSIGNMENT),
    ], ids=["explicit", "assignment"])
    def test_prefix_keyed_schemes_are_walked(self, linear, scheme):
        system = rotated_similar_system()[0] if linear == "rotated" else skewed_affine_system()
        for depth in range(1, 5):
            for kind in ("ssc", "osc"):
                rep = check_separation(system, scheme, depth=depth, kind=kind)
                assert not rep.all_depths
                assert separation_values(rep) == separation_values(
                    separation_walk(system, scheme, depth, kind))

    def test_missing_prefix_raises_as_the_walk_does(self):
        # two level-3 prefixes and a level-4 one are missing; both name the
        # first level-3 prefix in word order
        system = SimilarSystem([[0.3, 0.3, 0.3]], ambient_dim=2)
        table = complete_table(4)
        for prefix in [(3, 1, 2), (2, 3, 1), (1, 1, 1, 1)]:
            del table[prefix]
        scheme = ExplicitTranslations(table)
        with pytest.raises(IncompleteSchemeError) as walk:
            separation_walk(system, scheme, 4, "ssc")
        with pytest.raises(IncompleteSchemeError, match=re.escape("prefix (2, 3, 1)")) as new:
            check_separation(system, scheme, depth=4)
        assert str(new.value) == str(walk.value)

    def test_over_budget_builds_no_letters(self):
        # the 2**22-word letter table alone would take 88 MiB
        system, scheme, _ = cantor_system()
        tracemalloc.start()
        try:
            with pytest.raises(BranchBudgetError, match="needs 262144 words at depth 18"):
                check_separation(system, scheme, depth=22)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_peak_memory_within_the_walks(self):
        # a binary depth-17 tree: 131,072 words, under the default budget
        system, scheme, _ = cantor_system()
        scheme = OffsetsOnly(scheme)
        peaks, reports = [], []
        for certify in (lambda: check_separation(system, scheme, depth=17),
                        lambda: separation_walk(system, scheme, 17, "ssc")):
            tracemalloc.start()
            try:
                reports.append(separation_values(certify()))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert reports[0] == reports[1]
        assert peaks[0] <= peaks[1]


class TestSeparationConfigsPinned:
    """The certificate of every shipped config and realization at the depth
    ``run_experiment`` uses (the deepest tree of at most 4,096 words). These
    are the ``separation`` entries of ``compare``'s reports. The finite sets
    are certified for all depths on invariant boxes; the random boxes are
    walked on the images of the cube of half-width sup|o| / (1 - a)."""

    PINS = [
        ("affine_finite_gamma", 0, 7, False, "-0x1.4ce45202699f4p-3", ((2,), (3,)), True),
        ("affine_finite_gamma", 1, 7, True, "0x1.8a4ba9c703760p-4", ((1,), (3,)), True),
        ("affine_finite_gamma", 2, 7, False, "-0x1.0022532a70263p-4", ((2,), (3,)), True),
        ("affine_finite_gamma", 3, 7, False, "-0x1.ee14e0d219ad4p-3", ((1,), (2,)), True),
        ("affine_finite_gamma", 4, 7, False, "-0x1.e287aaf98d616p-4", ((2,), (3,)), True),
        ("affine_random_box", 0, 7, False, "-0x1.eaa96470096a8p-2", ((1, 1, 1), (1, 1, 3)),
         False),
        ("affine_random_box", 1, 7, False, "-0x1.f9a9b6427cf5ap-2", ((1, 2, 1), (1, 2, 2)),
         False),
        ("affine_random_box", 2, 7, False, "-0x1.0a1edfd73c6c7p-1", ((2, 2), (2, 3)), False),
        ("affine_random_box", 3, 7, False, "-0x1.126799c96e020p-1", ((1,), (3,)), False),
        ("affine_random_box", 4, 7, False, "-0x1.09e0896dbe965p-1", ((2, 3, 1), (2, 3, 2)),
         False),
        ("cantor", 0, 12, True, "0x1.5555555555557p-2", ((1,), (2,)), True),
        ("two_level", 0, 12, True, "0x1.999999999999ap-2", ((1,), (2,)), True),
        ("uniform", 0, 12, False, "0x0.0p+0", ((1,), (2,)), True),
    ]

    @staticmethod
    def build(name):
        config = ExperimentConfig.from_file(os.path.join(REPO, "configs", f"{name}.json"))
        system, _ = build_system_and_measure(config)
        return config, system, build_scheme(config, system)

    def test_every_config_and_realization_is_pinned(self):
        names = sorted(name[:-5] for name in os.listdir(os.path.join(REPO, "configs"))
                       if name.endswith(".json"))
        want = []
        for name in names:
            config, _, scheme = self.build(name)
            want += [(name, i) for i in range(config.realizations if scheme.randomized else 1)]
        assert [pin[:2] for pin in self.PINS] == want

    @pytest.mark.parametrize("name, realization, depth, holds, ratio, witness, all_depths",
                             PINS, ids=[f"{pin[0]}-{pin[1]}" for pin in PINS])
    def test_config(self, name, realization, depth, holds, ratio, witness, all_depths):
        config, system, scheme = self.build(name)
        assert max(system.profile.depth_within(4096), 1) == depth
        rep = check_separation(system, realize_scheme(scheme, config.seed, realization),
                               depth=depth, kind="ssc")
        assert separation_values(rep) == ("ssc", depth, holds, ratio, witness, all_depths)


@st.composite
def line_tables(draw):
    """A 1-D level-varying similarity table with a head and a tail of one or
    two levels of 2 or 3 maps each, and a finite set of 2 to 4 offsets."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    head, tail = ([rng.uniform(0.05, 0.45, int(m)) for m in rng.integers(2, 4, size=levels)]
                  for levels in (draw(st.integers(1, 2)), draw(st.integers(1, 2))))
    vectors = rng.uniform(-0.5, 1.5, size=(int(rng.integers(2, 5)), 1))
    return SimilarSystem(head, tail=tail), FiniteTranslationSet(vectors=vectors)


@st.composite
def box_tables(draw):
    """A finite set with one offset in [-0.5, 1.5]^d per letter, on a table
    in d = 1..3 with a head and a tail of one or two levels of 2 or 3 maps
    contracting by 0.05 to 0.45 along each axis, whose box map contracts."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    d = draw(st.integers(1, 3))
    linear = draw(st.sampled_from(["similar-rotated", "diagonal", "rotated", "skewed"]))
    head = [int(m) for m in rng.integers(2, 4, size=draw(st.integers(1, 2)))]
    tail = [int(m) for m in rng.integers(2, 4, size=draw(st.integers(1, 2)))]
    system = random_table(rng, linear, d, head, tail, 0.45)
    return system, FiniteTranslationSet(vectors=rng.uniform(-0.5, 1.5, size=(3, d)))


class TestSeparationBoxes:
    """The all-depth certificate on invariant boxes, for letter-determined schemes."""

    def test_overlapping_attractor_images_fail(self):
        # the attractor spans [0, 0.72 / 0.7]; its second and third images,
        # [0.72, 1.0286] and [0.415, 0.7236], overlap by 0.0036, which the
        # unit-cube walk missed at every depth up to 11
        system = SimilarSystem([[0.3, 0.3, 0.3]])
        scheme = FiniteTranslationSet(vectors=[[0.0], [0.72], [0.415]])
        for kind in ("ssc", "osc"):
            rep = check_separation(system, scheme, depth=6, kind=kind)
            assert (rep.holds_at_depth, rep.all_depths, rep.witness) == (
                False, True, ((2,), (3,)))
            assert rep.worst_gap_ratio == pytest.approx(-0.0035714 / 1.0285714, rel=1e-4)
        letters, points = cylinder_points(system, scheme, 6)
        assert points[letters[:, 0] == 3].max() > points[letters[:, 0] == 2].min()

    @settings(max_examples=100, deadline=None)
    @given(line_tables())
    def test_holds_only_with_disjoint_cylinders(self, case):
        # where the certificate holds, sibling cylinders of every level down
        # to head + period + 3 have disjoint point hulls (up to rounding)
        system, scheme = case
        head, period = system.cycle
        depth = head + period + 3
        letters, points = cylinder_points(system, scheme, depth)
        sizes = [system.profile.size(k) for k in range(1, depth + 1)]
        for kind in ("ssc", "osc"):
            rep = check_separation(system, scheme, depth=1, kind=kind)
            assert rep.all_depths
            if not rep.holds_at_depth:
                continue
            for k in range(1, depth):
                x = points[:, 0].reshape(math.prod(sizes[:k - 1]), sizes[k - 1], -1)
                lo, hi = x.min(axis=2), x.max(axis=2)
                i, j = np.triu_indices(sizes[k - 1], 1)
                gaps = np.maximum(lo[:, i] - hi[:, j], lo[:, j] - hi[:, i])
                assert gaps.min() > -1e-12, (kind, k)

    @settings(max_examples=100, deadline=None)
    @given(box_tables())
    def test_holds_only_with_sibling_cylinders_apart(self, case):
        # rotated, skewed and mixed-sign tables in d = 1..3, checked level
        # by level in each level's own coordinates
        system, scheme = case
        for kind in ("ssc", "osc"):
            rep = check_separation(system, scheme, depth=1, kind=kind)
            assert rep.all_depths
            if rep.holds_at_depth:
                assert_sibling_cylinders_apart(system, scheme)

    def test_point_attractor_fails_osc(self):
        # both maps fix 0.5: touching on boxes without interior is no open set
        system = SimilarSystem([[0.4, 0.4]])
        scheme = FiniteTranslationSet(vectors=[[0.3], [0.3]])
        for kind in ("ssc", "osc"):
            rep = check_separation(system, scheme, depth=3, kind=kind)
            assert (rep.holds_at_depth, rep.worst_gap_ratio, rep.witness, rep.all_depths) == (
                False, 0.0, ((1,), (2,)), True)

    def test_flat_touching_attractor_fails_osc(self):
        # the attractor is [0, 1] x {0} and its halves touch at (0.5, 0); OSC
        # holds (a box thickened in y is invariant too), but the invariant box
        # has no interior, so the verdict is the conservative one
        system = SimilarSystem([[0.5, 0.5]], ambient_dim=2)
        scheme = FiniteTranslationSet(vectors=[[0.0, 0.0], [0.5, 0.0]])
        rep = check_separation(system, scheme, depth=3, kind="osc")
        assert (rep.holds_at_depth, rep.worst_gap_ratio, rep.all_depths) == (False, 0.0, True)

    def test_widening_closes_the_float_hulls(self):
        # the solved tail box of this diagonal table misses its own float
        # hulls by ulps, and is widened 7 times before they lie inside it
        ratios = [[[-0.6295708486062012, -0.18626755710654141],
                   [0.06411751485331704, -0.11787222723948712]],
                  [[0.7193644548564823, 0.13024881380447673],
                   [-0.06209885419038455, 0.5845709214490491],
                   [-0.39743201755397384, -0.8426780461747365],
                   [0.29338412716361856, -0.8195337580409437]]]
        system = AffineSystem([[np.diag(r) for r in ratios[0]]],
                              tail=[[np.diag(r) for r in ratios[1]]])
        scheme = FiniteTranslationSet(vectors=[[-0.059659375300983086, 0.17263080291649757],
                                               [0.5322902136279193, 0.06835247880120776],
                                               [1.360278632171792, 0.7964053697758366],
                                               [-0.10216687820111492, 1.0254882658189226]])
        rep = check_separation(system, scheme, depth=1)
        assert (rep.holds_at_depth, rep.witness, rep.all_depths) == (False, ((1, 1), (1, 2)), True)

    def test_expanding_box_map_is_walked(self):
        # rotated by 45 degrees, 0.9 x the unit square's box is 1.27 x as wide:
        # no invariant box exists, so the tree is walked as for other schemes
        system = SimilarSystem([[0.9, 0.9]], ambient_dim=2,
                               rotations=[[rotation(np.pi / 4), rotation(np.pi / 4)]])
        scheme = FiniteTranslationSet(vectors=[[0.0, 0.0], [1.0, 0.0]])
        rep = check_separation(system, scheme, depth=3)
        assert not rep.all_depths
        assert separation_values(rep) == separation_values(
            separation_walk(system, scheme, 3, "ssc"))

    def test_letter_tables_come_from_offsets(self):
        # level k's table is read off the words (1, ..., 1, j) alone
        system, scheme, _ = cantor_system()
        seen = []

        class Recording:
            letter_determined = True

            def offsets(self, letters):
                seen.append(letters.tolist())
                return scheme.offsets(letters)

            def sup_norm(self):
                return scheme.sup_norm()

        assert separation_values(check_separation(system, Recording(), depth=9)) == \
            separation_values(check_separation(system, scheme, depth=9))
        assert seen == [[[1], [2]]]

    def test_letter_determined_schemes(self):
        assert FiniteTranslationSet(vectors=[[0.0], [1.0]]).letter_determined
        assert FiniteTranslationSet(vectors=[[0.0], [1.0]], jitter_radius=0.1).letter_determined
        assert not FiniteTranslationSet(vectors=[[0.0], [1.0]],
                                        assignment={(1,): 2}).letter_determined
        for scheme in (ExplicitTranslations({(1,): [0.0]}),
                       RandomBoxTranslations(low=[0.0], high=[1.0], seed=0)):
            assert not getattr(scheme, "letter_determined", False)

    @pytest.mark.parametrize("system, cycle", [
        (SimilarSystem([[0.3, 0.3]]), (0, 1)),
        (SimilarSystem([[0.3, 0.3], [0.2, 0.2]]), (0, 2)),
        (SimilarSystem([[0.3, 0.3]], tail=[[0.2, 0.2], [0.1, 0.1]]), (1, 2)),
        (SimilarSystem([[0.3, 0.3]], tail=[[0.2, 0.2], [0.1, 0.1]], ambient_dim=2,
                       rotations=[[rotation(0.1), rotation(0.2)]] * 2,
                       rotations_tail=[[rotation(0.3), rotation(0.4)]] * 3), (2, 6)),
        (skewed_affine_system(), (0, 1)),
        (AffineSystem([[np.eye(2) * 0.5] * 2] * 3, tail=[[np.eye(2) * 0.4] * 2]), (3, 1)),
    ])
    def test_cycle(self, system, cycle):
        assert system.cycle == cycle
        head, period = cycle
        for k in range(head + 1, head + 2 * period + 1):
            assert np.array_equal(system.linear_maps(k), system.linear_maps(k + period))


def points_digest(sample):
    return hashlib.sha256(np.ascontiguousarray(sample.points).tobytes()).hexdigest()


class TestSamplingPinned:
    """Sampled points recorded from earlier versions of the sampler.

    The similarity and diagonal digests pin the diagonal path bit for bit;
    the skewed points pin the general matrix path.
    """

    def test_scalar_path(self):
        # recorded when the word counts became one multinomial draw; the
        # word table below pins the projection apart from the draw
        system, scheme, _ = cantor_system()
        s = sample_measure(system, scheme, BernoulliMeasure([[0.75, 0.25]]), count=20_000, seed=5)
        assert points_digest(s) == (
            "85b3e1b63b76f5008314199cc371cefa7a0ba10920f68bc5d595d9833c30aa7c")

    def test_cantor_word_table(self):
        # 2**16 draws reach every one of the 1,024 depth-10 words, whose
        # points in code order are the word table of the letter-drawing sampler
        system, scheme, measure = cantor_system()
        [(start, points, counts, _)] = systems._sample_blocks(system, scheme, measure,
                                                              2**16, 10, 1)
        assert start == 0 and len(points) == 2**10 and counts.min() > 0
        assert hashlib.sha256(points.tobytes()).hexdigest() == (
            "712e37e53f3dda865e8e8f9d98f1e7621e0a1aa35dc329c97e2cff6414c9681a")

    def test_matrix_path_diagonal(self):
        system = AffineSystem([[np.diag([0.45, 0.40]), np.diag([0.42, 0.38]),
                                np.diag([0.40, 0.35])]])
        scheme = FiniteTranslationSet(vectors=[[0.0, 0.0], [0.5, 0.3], [0.25, 0.6]],
                                      jitter_radius=0.35).realize(3)
        s = sample_measure(system, scheme, BernoulliMeasure([[0.2, 0.5, 0.3]]),
                           count=20_000, seed=4)
        assert points_digest(s) == (
            "b2e78362b7899b2279e02b2793597036e16509a9cafb6f99ffe5adbb02e94028")

    def test_matrix_path_rotated(self):
        # recorded before the sampler composed matrix stacks with matmul,
        # which may round differently by a few ulp
        scheme = RandomBoxTranslations(low=[0.0, -1.0], high=[2.0, 1.0], seed=9)
        s = sample_measure(skewed_affine_system(), scheme, BernoulliMeasure([[0.2, 0.5, 0.3]]),
                           count=200, seed=11)
        expected = [[0.9305056008702073, -0.5201351954979766],
                    [0.7593203478131242, -0.3807696330917192],
                    [0.6628758533162076, 0.23644591884594032],
                    [0.7926928918200745, -0.41002547067763684],
                    [0.7409309125897482, 0.31839444566567526]]
        assert np.allclose(s.points[::40], expected, rtol=0.0, atol=1e-12)
