import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import singular_value_function, singular_values, word_product, word_spectrum

from qdims.errors import SingularMatrixError
from qdims.singular import batched_log_singular_values, svf_log
from qdims.systems import AffineSystem


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def within_envelope(system, word, s):
    """Check ``alpha_-**(s k) <= svf(product) <= alpha_+**(s k)`` for ``word``."""
    lo, hi = system.alpha_lower, system.alpha_upper
    k = len(word)
    val = svf_log(word_spectrum(system, word).log_values, s)
    slack = 1e-9 * max(1.0, abs(val))
    return (s * k * np.log(lo) - slack) <= val <= (s * k * np.log(hi) + slack)


def charpoly_singular_values(T):
    """Oracle: roots of the characteristic polynomial of T^t T, for d <= 3."""
    M = np.asarray(T, float).T @ np.asarray(T, float)
    coeffs = np.poly(M)
    eigs = np.sort(np.real(np.roots(coeffs)))[::-1]
    return np.sqrt(eigs)


def random_contraction(rng, d, top=0.9):
    while True:
        T = rng.normal(size=(d, d))
        norms = np.linalg.svd(T, compute_uv=False)
        if norms[-1] > 1e-3 * norms[0]:
            return T * (top * rng.uniform(0.3, 1.0) / norms[0])


class TestSingularValues:
    def test_diagonal(self):
        spec = singular_values(np.diag([0.5, 0.2]))
        assert np.allclose(spec.values, [0.5, 0.2])

    def test_scaled_rotation(self):
        for theta in (0.3, 1.2, 2.8):
            spec = singular_values(0.5 * rotation(theta))
            assert np.allclose(spec.values, [0.5, 0.5])

    def test_triangular_matches_charpoly_oracle(self):
        T = np.array([[0.5, 0.3], [0.0, 0.2]])
        spec = singular_values(T)
        assert np.allclose(spec.values, charpoly_singular_values(T), rtol=1e-10)

    def test_3d_matches_charpoly_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            T = random_contraction(rng, 3)
            assert np.allclose(singular_values(T).values,
                               charpoly_singular_values(T), rtol=1e-7)

    def test_sorted_and_det_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            T = random_contraction(rng, 2)
            spec = singular_values(T)
            assert spec.values[0] >= spec.values[1] > 0
            assert np.prod(spec.values) == pytest.approx(abs(np.linalg.det(T)), rel=1e-10)

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularMatrixError, match="numerically singular"):
            AffineSystem([[np.diag([0.5, 0.2]), np.array([[0.5, 0.0], [0.5, 0.0]])]])

    def test_condition_limit_rejected(self):
        # condition 5e14 is past CONDITION_LIMIT = 1e14; 5e13 is not
        with pytest.raises(SingularMatrixError,
                           match=r"condition estimate 5\.000e\+14 exceeds 1e\+14"):
            AffineSystem([[np.diag([0.5, 0.2]), np.diag([0.5, 1e-15])]])
        system = AffineSystem([[np.diag([0.5, 0.2]), np.diag([0.5, 1e-14])]])
        assert system.alpha_lower == pytest.approx(1e-14)


def lapack_logs(mats):
    return np.log(np.linalg.svd(mats, compute_uv=False))


def closed_form_stacks():
    """Named 2x2 stacks for the closed form; the last holds condition numbers to 1e10.

    Ill-conditioned cases are column-scaled or upper-triangular, where the LAPACK
    reference itself keeps full relative accuracy in the smallest value.
    """
    rng = np.random.default_rng(29)
    scalings = [np.diag([1.0, 10.0**-k]) for k in range(0, 11)]
    return {
        "diagonal": np.array([np.diag(v) for v in ([0.5, 0.2], [0.2, 0.5], [-0.3, 0.3],
                                                  [0.7, -0.7], [1.0, 1e-10])]),
        "upper": np.array([[[0.5, 0.3], [0.0, 0.2]], [[-0.4, 0.9], [0.0, 0.1]],
                           [[1.0, 0.7], [0.0, 1e-10]], [[1e-10, 1.0], [0.0, 1.0]]]),
        "lower": np.array([[[0.5, 0.0], [0.3, 0.2]], [[-0.4, 0.0], [0.9, 0.1]],
                           [[1.0, 0.0], [0.7, 1e-10]]]),
        "scaled rotation": np.array([r * rotation(t) for r in (0.3, 0.5, 0.9)
                                     for t in (0.3, 1.2, 2.8, -0.7)]),
        "near tie": np.array([rotation(0.4) @ np.diag([0.5, 0.5 - 10.0**-k]) @ rotation(t)
                              for k in (4, 6, 8, 10) for t in (0.0, 1.3)]),
        "random contraction": np.array([random_contraction(rng, 2) for _ in range(200)]),
        "condition to 1e10": np.array([rotation(t) @ D for D in scalings
                                       for t in (0.3, 1.1, -2.0)]),
    }


class TestBatchedLogSingularValues:
    @pytest.mark.parametrize("name", list(closed_form_stacks()))
    def test_closed_form_matches_lapack(self, name):
        mats = closed_form_stacks()[name]
        logs = batched_log_singular_values(mats)
        assert logs.shape == mats.shape[:-1]
        assert np.abs(logs - lapack_logs(mats)).max() < 1e-12
        assert np.all(logs[:, 1] <= logs[:, 0])

    def test_equal_values_stay_nonincreasing(self):
        mats = closed_form_stacks()["scaled rotation"]
        logs = batched_log_singular_values(mats)
        assert np.all(np.diff(logs, axis=-1) <= 0.0)
        assert np.abs(logs[:, 0] - logs[:, 1]).max() < 1e-15

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_scales_shift_the_logs(self, scale):
        # squares of these entries leave the float range; rows are rescaled
        # exactly, so the logs shift by log(scale) with no overflow warning
        mats = np.concatenate(list(closed_form_stacks().values()))
        want = batched_log_singular_values(mats)
        mixed = mats.copy()
        mixed[::2] *= scale
        got = batched_log_singular_values(mixed)
        want[::2] += np.log(scale)
        assert np.abs(got - want).max() < 1e-12
        assert np.all(got[:, 1] <= got[:, 0])

    @pytest.mark.parametrize("shape", [(4, 3, 2, 2), (5, 3, 3), (2, 2), (3, 3)])
    def test_leading_axes_and_lapack_path(self, shape):
        rng = np.random.default_rng(31)
        d = shape[-1]
        mats = np.array([random_contraction(rng, d) for _ in range(int(np.prod(shape[:-2])))])
        mats = mats.reshape(shape)
        logs = batched_log_singular_values(mats)
        assert logs.shape == shape[:-1]
        assert np.abs(logs - lapack_logs(mats)).max() < 1e-12
        assert np.all(np.diff(logs, axis=-1) <= 0.0)


class TestSingularValueFunction:
    def test_s_equals_one(self):
        assert singular_value_function(np.diag([0.5, 0.2]), 1.0) == pytest.approx(0.5)

    def test_fractional_branch(self):
        got = singular_value_function(np.diag([0.5, 0.2]), 1.5)
        assert got == pytest.approx(0.5 * 0.2**0.5, rel=1e-12)

    def test_determinant_branch(self):
        got = singular_value_function(np.diag([0.5, 0.2]), 3.0)
        assert got == pytest.approx(0.1**1.5, rel=1e-12)

    def test_zero_and_dim(self):
        T = np.array([[0.4, 0.1], [0.05, 0.3]])
        assert singular_value_function(T, 0.0) == 1.0
        assert singular_value_function(T, 2.0) == pytest.approx(abs(np.linalg.det(T)), rel=1e-10)

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            singular_value_function(np.diag([0.5, 0.2]), -0.5)

    def test_continuity_at_integers(self):
        T = np.array([[0.45, 0.2], [0.0, 0.3]])
        for m in (1.0, 2.0):
            mid = singular_value_function(T, m)
            for eps in (-1e-9, 1e-9):
                if m + eps < 0:
                    continue
                assert abs(singular_value_function(T, m + eps) - mid) < 1e-6

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, 1.9), st.floats(0.05, 0.5), st.integers(0, 2**31 - 1))
    def test_strictly_decreasing(self, s1, gap, seed):
        rng = np.random.default_rng(seed)
        T = random_contraction(rng, 2)
        s2 = s1 + max(gap, 1e-3)
        assert singular_value_function(T, s2) < singular_value_function(T, s1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5]))
    def test_submultiplicative(self, seed, s):
        rng = np.random.default_rng(seed)
        T, U = random_contraction(rng, 2), random_contraction(rng, 2)
        lhs = singular_value_function(T @ U, s)
        rhs = singular_value_function(T, s) * singular_value_function(U, s)
        assert lhs <= rhs * (1 + 1e-10)


class TestWordProduct:
    def setup_method(self):
        self.system = AffineSystem([[np.diag([0.5, 0.2]), np.diag([0.3, 0.4])]])

    def test_empty_word_identity(self):
        assert np.allclose(word_product(self.system, ()), np.eye(2))

    def test_commuting_diagonals(self):
        got = word_product(self.system, (1, 2))
        assert np.allclose(got, np.diag([0.15, 0.08]))

    def test_word_spectrum_matches_direct_svd(self):
        rng = np.random.default_rng(3)
        mats = [random_contraction(rng, 2) for _ in range(2)]
        system = AffineSystem([mats])
        w = tuple(rng.integers(1, 3) for _ in range(8))
        direct = np.linalg.svd(word_product(system, w), compute_uv=False)
        assert np.allclose(word_spectrum(system, w).values, direct, rtol=1e-8)

    def test_word_spectrum_long_word_stays_finite(self):
        system = AffineSystem([[0.9 * rotation(0.4), np.diag([0.85, 0.6])]])
        w = tuple([1, 2] * 100)
        spec = word_spectrum(system, w)
        assert np.all(np.isfinite(spec.log_values))
        lo, hi = system.alpha_lower, system.alpha_upper
        assert 200 * np.log(lo) - 1e-6 <= spec.log_values[0] <= 200 * np.log(hi) + 1e-6


class TestEnvelope:
    def test_single_matrix(self):
        T = np.diag([0.5, 0.2])
        system = AffineSystem([[T, T]])
        assert (system.alpha_lower, system.alpha_upper) == pytest.approx((0.2, 0.5))

    def test_table_sup_inf(self):
        system = AffineSystem([[np.diag([0.5, 0.2]), np.diag([0.4, 0.3])]])
        assert (system.alpha_lower, system.alpha_upper) == pytest.approx((0.2, 0.5))

    def test_envelope_bounds_random_words(self):
        rng = np.random.default_rng(17)
        mats = [random_contraction(rng, 2, top=0.8) for _ in range(3)]
        system = AffineSystem([mats])
        for _ in range(100):
            k = int(rng.integers(1, 12))
            w = tuple(int(x) for x in rng.integers(1, 4, size=k))
            s = float(rng.uniform(0.1, 2.5))
            assert within_envelope(system, w, s)

    def test_interpolation_inequality(self):
        # svf at a smaller exponent dominates: svf_s1 >= a_+**(-k (s - s1)) svf_s
        rng = np.random.default_rng(23)
        mats = [random_contraction(rng, 2, top=0.8) for _ in range(2)]
        system = AffineSystem([mats])
        a_plus = system.alpha_upper
        for _ in range(50):
            k = int(rng.integers(1, 10))
            w = tuple(int(x) for x in rng.integers(1, 3, size=k))
            s1 = float(rng.uniform(0.1, 1.5))
            s = s1 + float(rng.uniform(0.05, 0.5))
            logs = word_spectrum(system, w).log_values
            lhs = svf_log(logs, s1)
            rhs = -k * (s - s1) * np.log(a_plus) + svf_log(logs, s)
            assert lhs >= rhs - 1e-9
