"""Numeric utilities cross-checked against scipy/mpmath oracles.

The package computes quantiles and Cholesky factors in-repo; these tests are
the independent route: scipy for reference distributions and linear algebra,
mpmath for a high-precision t quantile.
"""

import csv
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from streamci.statutil import (
    IllConditionedError,
    RngStream,
    _blas_threads,
    matmul,
    normal_cdf,
    normal_quantile,
    spd_factorize,
    spd_solve,
    student_t_cdf,
    student_t_quantile,
)

P_GRID = np.linspace(0.01, 0.99, 99)
DATA = Path(__file__).parent / "data"


class TestNormalQuantile:
    def test_median_is_zero(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-9)

    def test_pinned_975(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_quantile_bits_pinned(self):
        # Bit pattern of the quantile at tail and central levels, as the
        # bisection of the erfc CDF on [-60, 60] to width 1e-12 gives it.
        pinned = {
            0.0005: "-0x1.a52ffadd2f7c0p+1",
            0.55: "0x1.015abc78e9c00p-3",
            0.95: "0x1.a515209676f80p+0",
            0.975: "0x1.f5c0331eefe80p+0",
            0.995: "0x1.49b4c64d68fc0p+1",
            0.9995: "0x1.a52ffadd2f7c0p+1",
        }
        assert {p: normal_quantile(p).hex() for p in pinned} == pinned

    def test_symmetry(self):
        for p in P_GRID:
            assert normal_quantile(p) == pytest.approx(-normal_quantile(1.0 - p), abs=2e-12)

    def test_matches_scipy_on_grid(self):
        ours = np.array([normal_quantile(p) for p in P_GRID])
        assert_allclose(ours, scipy.stats.norm.ppf(P_GRID), atol=1e-9)

    def test_strictly_increasing(self):
        qs = [normal_quantile(p) for p in P_GRID]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    def test_cdf_matches_scipy(self):
        z = np.linspace(-8.0, 8.0, 161)
        ours = np.array([normal_cdf(v) for v in z])
        assert_allclose(ours, scipy.stats.norm.cdf(z), rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_domain_error(self, p):
        with pytest.raises(ValueError):
            normal_quantile(p)


class TestStudentT:
    def test_cauchy_quartile(self):
        # df=1 is Cauchy: the 0.75 quantile is tan(pi/4) = 1.
        assert student_t_quantile(1.0, 0.75) == pytest.approx(1.0, abs=1e-8)

    def test_pinned_df5(self):
        assert student_t_quantile(5.0, 0.975) == pytest.approx(2.570582, abs=1e-6)

    def test_df5_against_mpmath(self):
        # Invert the high-precision mpmath t CDF at p=0.975 as the oracle.
        df = mpmath.mpf(5)

        def cdf(q):
            x = df / (df + q * q)
            tail = mpmath.betainc(df / 2, mpmath.mpf(1) / 2, 0, x, regularized=True) / 2
            return 1 - tail if q > 0 else tail

        oracle = mpmath.findroot(lambda q: cdf(q) - mpmath.mpf("0.975"), 2.5)
        assert student_t_quantile(5.0, 0.975) == pytest.approx(float(oracle), abs=1e-8)

    def test_large_df_limits_to_normal(self):
        assert student_t_quantile(1e6, 0.975) == pytest.approx(normal_quantile(0.975), abs=1e-3)

    @pytest.mark.parametrize("df", [1.0, 2.0, 4.0, 9.0, 30.0])
    def test_matches_scipy_on_grid(self, df):
        ours = np.array([student_t_quantile(df, p) for p in P_GRID])
        assert_allclose(ours, scipy.stats.t.ppf(P_GRID, df), atol=1e-8)

    def test_strictly_increasing(self):
        qs = [student_t_quantile(4.0, p) for p in P_GRID]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    def test_cdf_matches_scipy(self):
        t = np.linspace(-20.0, 20.0, 201)
        for df in (1, 2, 3, 4, 5, 12, 101, 1000):
            ours = np.array([student_t_cdf(v, df) for v in t])
            assert_allclose(ours, scipy.stats.t.cdf(t, df), atol=1e-13)

    def test_extreme_quantile_outside_initial_bracket(self):
        # Cauchy 0.995 quantile is tan(0.495*pi) ~ 63.66, past the [-60, 60] start.
        assert student_t_quantile(1.0, 0.995) == pytest.approx(
            math.tan(math.pi * 0.495), rel=1e-8
        )

    def test_quantile_bits_pinned(self):
        # Bit pattern of every quantile at df 1-12 over tail and central
        # levels, recorded from the incomplete-beta CDF this module used
        # before the closed-form series. The bisection reads only the sign
        # of cdf(mid) - p, so any CDF that orders each midpoint against p
        # the same way yields these bits. The df=1, p <= 0.005 rows need
        # the bracket to double outward past -60.
        with open(DATA / "student_t_quantile_hex.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 120
        got = {(r["df"], r["p"]): student_t_quantile(int(r["df"]), float(r["p"])).hex() for r in rows}
        assert got == {(r["df"], r["p"]): r["quantile_hex"] for r in rows}

    @pytest.mark.parametrize("df", range(1, 13))
    def test_cdf_strictly_increasing_through_zero(self, df):
        half = [10.0**-k for k in (3, 4, 6, 8, 10, 12)]
        t = [-v for v in half] + [0.0] + half[::-1]
        cdf = [student_t_cdf(v, df) for v in t]
        assert all(a < b for a, b in zip(cdf, cdf[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            student_t_quantile(0.0, 0.5)
        with pytest.raises(ValueError):
            student_t_quantile(5.0, 1.0)
        with pytest.raises(ValueError):
            student_t_cdf(1.0, -2.0)
        with pytest.raises(ValueError):
            student_t_cdf(1.0, 2.5)
        with pytest.raises(ValueError):
            student_t_quantile(2.5, 0.9)


class TestSpdFactorize:
    def test_identity(self):
        assert_allclose(spd_factorize(np.eye(3)), np.eye(3))

    def test_hand_example(self):
        assert_allclose(spd_factorize(np.array([[4.0, 2.0], [2.0, 5.0]])),
                        np.array([[2.0, 0.0], [1.0, 2.0]]))

    def test_rank_deficient_raises(self):
        with pytest.raises(IllConditionedError):
            spd_factorize(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_negative_diagonal_raises(self):
        with pytest.raises(IllConditionedError):
            spd_factorize(np.array([[-1.0, 0.0], [0.0, -2.0]]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_is_ill_conditioned(self, value):
        # A diverged pass's J holds inf or NaN: unavailable, as a singular J
        # is, on the diagonal or in a symmetric off-diagonal pair.
        for i, j in [(0, 0), (1, 1), (0, 1)]:
            a = np.array([[4.0, 2.0], [2.0, 5.0]])
            a[i, j] = a[j, i] = value
            with pytest.raises(IllConditionedError):
                spd_factorize(a)

    def test_asymmetric_raises(self):
        with pytest.raises(ValueError):
            spd_factorize(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            spd_factorize(np.ones((2, 3)))

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
    def test_roundtrip_random_spd(self, n, seed):
        # A = M'M + eps*I is SPD; factorization must reconstruct it.
        m = np.random.default_rng(seed).standard_normal((n, n))
        a = m.T @ m + 1e-3 * np.eye(n)
        lower = spd_factorize(a)
        assert_allclose(lower @ lower.T, a, rtol=1e-8, atol=1e-12)
        assert_allclose(lower, np.linalg.cholesky(a), rtol=1e-8, atol=1e-10)


class TestSpdSolve:
    def test_vector_rhs_matches_numpy(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((4, 4))
        a = m.T @ m + 0.5 * np.eye(4)
        b = rng.standard_normal(4)
        assert_allclose(spd_solve(spd_factorize(a), b), np.linalg.solve(a, b), rtol=1e-10)

    def test_matrix_rhs_gives_inverse(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((3, 3))
        a = m.T @ m + 0.5 * np.eye(3)
        inv = spd_solve(spd_factorize(a), np.eye(3))
        assert_allclose(a @ inv, np.eye(3), atol=1e-10)


class TestMatmul:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_equals_the_product_bit_for_bit(self, threads):
        # The Wald fit's shapes at d=20, T=10^4: the matrix-vector product
        # and X'X. Joining the helper threads changes no bit, at either
        # OpenBLAS thread count.
        rng = np.random.default_rng(41)
        X = rng.standard_normal((10**4, 20))
        theta = rng.standard_normal(20)
        with _blas_threads(threads):
            for a, b in (X, theta), (X.T, X):
                assert matmul(a, b).tobytes() == (a @ b).tobytes()


class TestRngStream:
    def test_identical_keys_reproduce(self):
        a = RngStream(42, 7).standard_normal(100)
        b = RngStream(42, 7).standard_normal(100)
        assert np.array_equal(a, b)

    def test_prefix_stable_across_call_granularity(self):
        s1 = RngStream(1, 2)
        chunks = np.concatenate([s1.standard_normal(3), s1.standard_normal(5)])
        assert np.array_equal(chunks, RngStream(1, 2).standard_normal(8))

    def test_distinct_stream_ids_collide_nowhere(self):
        a = RngStream(5, 0).standard_normal(10**4)
        b = RngStream(5, 1).standard_normal(10**4)
        assert np.all(a != b)

    def test_distinct_base_seeds_differ(self):
        assert not np.array_equal(
            RngStream(0, 3).standard_normal(16), RngStream(1, 3).standard_normal(16)
        )

    def test_uniform_range(self):
        u = RngStream(11, 0).uniform(1000)
        assert np.all((u >= 0.0) & (u < 1.0))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_key_domain(self, seed):
        with pytest.raises(ValueError):
            RngStream(seed, 0)
        with pytest.raises(ValueError):
            RngStream(0, seed)
