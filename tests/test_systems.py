import itertools

import numpy as np
import pytest

from qdims.codespace import BernoulliMeasure, Word
from qdims.errors import IncompleteSchemeError
from qdims.systems import (
    AffineSystem,
    AttractorSample,
    ExplicitTranslations,
    FiniteTranslationSet,
    RandomBoxTranslations,
    SimilarSystem,
    check_separation,
    default_sampling_depth,
    load_sample_csv,
    project_word,
    sample_measure,
    save_sample_csv,
)


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


def drawn_letters(count, depth, p, seed):
    # the letters sample_measure draws for these arguments
    rng = np.random.default_rng(seed)
    letters = np.empty((count, depth), dtype=np.int64)
    for k in range(depth):
        letters[:, k] = rng.choice(len(p), size=count, p=p) + 1
    return letters


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

    def test_similar_diameter_is_ratio_product(self):
        from qdims.singular import word_product
        from qdims.systems import _parallelepiped_diameter

        system = SimilarSystem([[0.5, 0.25], [0.4, 0.6]], ambient_dim=2)
        for letters in [(1,), (2, 1), (1, 2), (2, 2)]:
            w = Word(letters)
            diam = _parallelepiped_diameter(word_product(system, w))
            assert diam == pytest.approx(system.ratio_product(w) * np.sqrt(2), rel=1e-12)


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
        pt, _ = project_word(system, scheme, Word((2, 1)))
        assert np.allclose(pt, [0.6, 0.0])
        # letter 1 rotates the next offset a quarter turn
        pt, _ = project_word(system, scheme, Word((1, 2)))
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
            pt, _ = project_word(system, scheme, Word(tuple(letters[i])))
            assert np.allclose(pt, s.points[i], atol=1e-12)

    def test_word_spectrum_stays_similar(self):
        from qdims.singular import word_spectrum

        spec = word_spectrum(self.system(), Word((1, 2, 1)))
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
            pt, _ = project_word(system, zero, Word(letters))
            assert np.allclose(pt, 0.0)

    def test_geometric_series(self):
        system, scheme, _ = interval_system()
        pt, bound = project_word(system, scheme, Word((2,) * 20))
        assert pt[0] == pytest.approx(1 - 2**-20, abs=1e-12)
        assert bound == pytest.approx(np.linalg.norm([0.5]) * 0.5**20 / 0.5)

    def test_middle_third(self):
        system, scheme, _ = cantor_system()
        pt, _ = project_word(system, scheme, Word((1, 2)))
        assert pt[0] == pytest.approx(2 / 9, abs=1e-14)

    def test_depth_beyond_word_rejected(self):
        system, scheme, _ = cantor_system()
        with pytest.raises(ValueError):
            project_word(system, scheme, Word((1, 2)), depth=3)

    def test_incomplete_explicit_scheme(self):
        system, _, _ = cantor_system()
        scheme = ExplicitTranslations({(1,): [0.0]})
        with pytest.raises(IncompleteSchemeError):
            project_word(system, scheme, Word((1, 2)))

    def test_truncation_differences_bounded(self):
        rng = np.random.default_rng(0)
        system = SimilarSystem([[0.5, 0.35, 0.4]])
        scheme = FiniteTranslationSet(vectors=rng.uniform(-1, 1, size=(3, 1)))
        sup = scheme.sup_norm()
        w = Word(tuple(int(x) for x in rng.integers(1, 4, size=12)))
        for depth in range(1, 12):
            a, _ = project_word(system, scheme, w, depth)
            b, _ = project_word(system, scheme, w, depth + 1)
            assert np.linalg.norm(b - a) <= sup * system.c_upper**depth + 1e-12


class TestTranslationSchemes:
    def test_explicit_missing_prefix(self):
        scheme = ExplicitTranslations({(1,): [0.0]})
        with pytest.raises(IncompleteSchemeError):
            scheme.translation((2,))

    def test_random_box_reproducible_from_seed_and_word(self):
        a = RandomBoxTranslations(low=[0.0, -1.0], high=[2.0, 1.0], seed=9)
        b = RandomBoxTranslations(low=[0.0, -1.0], high=[2.0, 1.0], seed=9)
        assert np.array_equal(a.translation((1, 2, 1)), b.translation((1, 2, 1)))
        c = RandomBoxTranslations(low=[0.0, -1.0], high=[2.0, 1.0], seed=10)
        assert not np.array_equal(a.translation((1, 2, 1)), c.translation((1, 2, 1)))

    def test_random_box_draws_inside_box(self):
        scheme = RandomBoxTranslations(low=[0.0, -1.0], high=[2.0, 1.0], seed=3)
        draws = np.array([scheme.translation((1, j + 1)) for j in range(1)] +
                         [scheme.translation((j % 2 + 1, j // 2 + 1)) for j in range(200)])
        assert draws[:, 0].min() >= 0.0 and draws[:, 0].max() <= 2.0
        assert draws[:, 1].min() >= -1.0 and draws[:, 1].max() <= 1.0

    def test_random_box_mean_near_center(self):
        scheme = RandomBoxTranslations(low=[0.0], high=[1.0], seed=8)
        n = 4096
        prefixes = [tuple(1 + ((i >> b) & 1) for b in range(12)) for i in range(n)]
        draws = np.array([scheme.translation(p) for p in prefixes]).ravel()
        sigma = (1 / np.sqrt(12)) / np.sqrt(n)
        assert abs(draws.mean() - 0.5) < 4 * sigma

    def test_finite_set_default_rule_uses_last_letter(self):
        scheme = FiniteTranslationSet(vectors=[[0.0], [0.5], [0.9]])
        assert scheme.translation((2, 3))[0] == 0.9
        assert scheme.translation((3, 1))[0] == 0.0

    def test_finite_set_table_override(self):
        scheme = FiniteTranslationSet(vectors=[[0.0], [0.5]],
                                      assignment={(1, 2): 1})
        assert scheme.translation((1, 2))[0] == 0.0
        assert scheme.translation((2, 2))[0] == 0.5

    def test_finite_set_rejects_bad_index(self):
        with pytest.raises(ValueError):
            FiniteTranslationSet(vectors=[[0.0], [0.5]], assignment={(1,): 3})

    def test_finite_set_realize_jitters_within_radius(self):
        base = FiniteTranslationSet(vectors=[[0.0, 0.0], [1.0, 0.0]], jitter_radius=0.2)
        real = base.realize(5)
        assert real.jitter_radius == 0.0
        shift = np.linalg.norm(real.vectors - base.vectors, axis=1)
        assert np.all(shift <= 0.2 + 1e-12)
        assert np.any(shift > 0)
        assert np.array_equal(real.vectors, base.realize(5).vectors)

    def test_random_box_translation_pinned(self):
        # recorded values of the splitmix64 chain for this seed and word; any
        # drift in the chain, the letter salt or the per-axis salts shows here
        scheme = RandomBoxTranslations(low=[0.0, -1.0], high=[2.0, 1.0], seed=9)
        assert scheme.translation((1, 2, 1)).tolist() == [1.2502207743167977,
                                                          0.1437498937254731]

    def test_random_box_offsets_match_translation(self):
        scheme = RandomBoxTranslations(low=[0.0, -1.0], high=[2.0, 1.0], seed=4)
        letters = drawn_letters(7, 5, [0.5, 0.5], seed=1)
        for j, offs in enumerate(scheme.offsets(letters), start=1):
            for row, off in zip(letters, offs):
                assert np.array_equal(off, scheme.translation(tuple(row[:j])))

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
                assert np.array_equal(off, scheme.translation(prefix))

    def test_realize_and_randomized(self):
        explicit = ExplicitTranslations({(1,): [0.0], (2,): [1.0]})
        assert not explicit.randomized
        assert explicit.realize(5) is explicit

        box = RandomBoxTranslations(low=[0.0], high=[1.0], seed=9)
        assert box.randomized
        real = box.realize(5)
        assert real.seed == 14 and real.randomized
        assert np.array_equal(real.low, box.low) and np.array_equal(real.high, box.high)
        assert np.array_equal(real.translation((1, 2)),
                              RandomBoxTranslations(low=[0.0], high=[1.0],
                                                    seed=14).translation((1, 2)))

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
        rng = np.random.default_rng(13)
        letters = np.empty((6, 9), dtype=np.int64)
        for k in range(9):
            letters[:, k] = rng.choice(2, size=6, p=[0.5, 0.5]) + 1
        for i in range(6):
            pt, _ = project_word(system, scheme, Word(tuple(letters[i])), depth=9)
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
            pt, _ = project_word(system, scheme, Word(tuple(letters[i])))
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

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            AttractorSample(points=np.zeros((3, 1)), weights=[0.5, 0.5, 0.5])


class TestSeparation:
    def test_cantor_gap_ratio(self):
        system, scheme, _ = cantor_system()
        rep = check_separation(system, scheme, depth=5, kind="gsc")
        assert rep.holds_at_depth
        assert rep.worst_gap_ratio == pytest.approx(1 / 3, abs=1e-9)
        ssc = check_separation(system, scheme, depth=5, kind="ssc")
        assert ssc.holds_at_depth

    def test_touching_intervals(self):
        system, scheme, _ = interval_system()
        assert not check_separation(system, scheme, depth=4, kind="ssc").holds_at_depth
        assert check_separation(system, scheme, depth=4, kind="osc").holds_at_depth

    def test_overlapping_intervals_witness(self):
        system = SimilarSystem([[0.5, 0.5]])
        scheme = FiniteTranslationSet(vectors=[[0.0], [0.25]])
        rep = check_separation(system, scheme, depth=1, kind="osc")
        assert not rep.holds_at_depth
        assert rep.witness == (Word((1,)), Word((2,)))
        assert rep.worst_gap_ratio < 0

    def test_depth_validation(self):
        system, scheme, _ = cantor_system()
        with pytest.raises(ValueError):
            check_separation(system, scheme, depth=0)
        with pytest.raises(ValueError):
            check_separation(system, scheme, depth=10, kind="weird")
