import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import psi as scipy_psi
from scipy.special import zeta as scipy_zeta

from landautrace.specfun import digamma, hurwitz_zeta, laguerre


def laguerre_literal_exact(m, alpha, x):
    """Falling-product sum in exact rational arithmetic (independent oracle)."""
    alpha = Fraction(alpha)
    x = Fraction(x)
    total = Fraction(0)
    for j in range(m + 1):
        prod = Fraction(1)
        for t in range(j + 1, m + 1):
            prod *= alpha + t
        total += prod / (math.factorial(j) * math.factorial(m - j)) * (-x) ** j
    return total


class TestLaguerre:
    def test_degree_zero_is_one(self):
        for alpha in (-3.0, 0.0, 2.5):
            for x in (-7.0, 0.0, 11.0):
                assert laguerre(0, alpha, x) == 1.0

    def test_degree_one(self):
        # L_1^(0)(x) = 1 - x
        assert laguerre(1, 0.0, 0.3) == pytest.approx(0.7, abs=1e-15)

    def test_l2_at_two(self):
        # L_2^(0)(x) = (x^2 - 4x + 2)/2, so L_2^(0)(2) = -1
        assert laguerre(2, 0.0, 2.0) == pytest.approx(-1.0, abs=1e-14)

    @pytest.mark.parametrize("m,alpha", [(1, -1), (2, -2), (3, -1), (4, -3), (5, -5), (6, 2), (8, -4)])
    def test_matches_exact_literal_sum(self, m, alpha):
        # includes negative integer alpha down to -m, where the falling
        # product kills the low-order terms
        for x in (Fraction(1, 3), Fraction(7, 2), Fraction(-5, 4)):
            ref = laguerre_literal_exact(m, alpha, x)
            got = laguerre(m, float(alpha), float(x))
            assert got == pytest.approx(float(ref), rel=1e-13, abs=1e-13)

    def test_matches_scipy_positive_alpha(self):
        from scipy.special import eval_genlaguerre

        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(0, 30))
            alpha = float(rng.uniform(0, 20))
            x = float(rng.uniform(0, 50))
            assert laguerre(m, alpha, x) == pytest.approx(
                eval_genlaguerre(m, alpha, x), rel=1e-10, abs=1e-10
            )

    def test_three_term_recurrence(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            m = int(rng.integers(1, 200))
            alpha = float(rng.uniform(-m, 20))
            x = float(rng.uniform(-50, 50))
            lm1 = laguerre(m - 1, alpha, x)
            lm = laguerre(m, alpha, x)
            lp1 = laguerre(m + 1, alpha, x)
            lhs = (m + 1) * lp1
            rhs = (2 * m + 1 + alpha - x) * lm - (m + alpha) * lm1
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_value_at_zero_is_one_for_alpha_zero(self):
        for m in range(0, 120, 7):
            assert laguerre(m, 0.0, 0.0) == pytest.approx(1.0, rel=1e-13)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0.0, 1.0)

    def test_vectorized(self):
        x = np.linspace(0, 5, 7)
        vals = laguerre(3, 1.0, x)
        assert vals.shape == x.shape
        assert vals[0] == pytest.approx(laguerre(3, 1.0, 0.0))


def zeta_brute(s, q, terms=2_000_000):
    """Partial sums plus integral tail bound bracket (independent oracle)."""
    j = np.arange(terms, dtype=float)
    head = float(np.sum((j + q) ** (-s)))
    lo = (terms + q) ** (1 - s) / (s - 1)          # tail lower bound
    hi = (terms - 1 + q) ** (1 - s) / (s - 1)      # tail upper bound
    return head + lo, head + hi


class TestHurwitzZeta:
    def test_matches_brute_force_bracket(self):
        for s, q in [(2.0, 1.0), (3.0, 2.0), (2.5, 0.7), (4.0, 5.0)]:
            lo, hi = zeta_brute(s, q)
            val = hurwitz_zeta(s, q)
            assert lo - 1e-12 <= val <= hi + 1e-12

    def test_basel(self):
        # sum 1/n^2 = pi^2/6 = 1.644934066848226...
        assert hurwitz_zeta(2.0, 1.0) == pytest.approx(np.pi ** 2 / 6.0, rel=1e-13)

    def test_riemann_special_case(self):
        for s in (1.5, 2.0, 3.0, 6.0):
            assert hurwitz_zeta(s, 1.0) == pytest.approx(float(scipy_zeta(s)), rel=1e-12)

    def test_index_shift(self):
        assert hurwitz_zeta(3.0, 2.0) == pytest.approx(hurwitz_zeta(3.0, 1.0) - 1.0, rel=1e-13)

    def test_matches_scipy_two_argument(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            s = float(rng.uniform(1.01, 8.0))
            q = float(rng.uniform(0.1, 20.0))
            assert hurwitz_zeta(s, q) == float(scipy_zeta(s, q))

    def test_bit_identical_to_scipy_at_command_call_points(self):
        points = []
        for xi in (0.0, 0.25, 0.5, 1.0):
            # zeta residue: s = 1 + 2^-k on every level j; trace_Q_power at 2 s
            for k in range(3, 13):
                s = 1.0 + 2.0 ** -k
                points += [(s, j + 2.0 * (1.0 + xi)) for j in range(12)]
                points += [(2.0 * s - 1.0, 1.0 + 2.0 * xi), (2.0 * s, 1.0 + 2.0 * xi)]
            # verify's zeta_closed_forms: trace_Q_power at s and the level sums
            for s in (2.5, 3.0, 4.0):
                points += [(s - 1.0, 1.0 + 2.0 * xi), (s, 1.0 + 2.0 * xi)]
            for s in (1.5, 2.0, 3.0):
                points += [(s, j + 2.0 + 2.0 * xi) for j in (0, 3, 7)]
        for s, q in points:
            assert hurwitz_zeta(s, q) == float(scipy_zeta(s, q)), (s, q)

    def test_bit_identical_to_scipy_on_random_grid(self):
        # q up to 1e9 reaches the asymptotic branch above q = 1e8
        rng = np.random.default_rng(17)
        ss = 1.0 + 10.0 ** rng.uniform(-6.0, 1.0, size=4000)
        qs = 10.0 ** rng.uniform(-2.0, 9.0, size=4000)
        assert (qs > 1e8).sum() > 100
        got = np.array([hurwitz_zeta(s, q) for s, q in zip(ss.tolist(), qs.tolist())])
        assert np.array_equal(got, scipy_zeta(ss, qs))

    @pytest.mark.parametrize("s,q", [(1.125, 2.0), (1.0 + 2.0 ** -12, 2.5), (1.5, 7.0), (2.5, 0.1),
                                     (3.0, 4.0), (11.0, 0.3), (1.0 + 2.0 ** -12, 1e6)])
    def test_matches_mpmath(self, s, q):
        with mpmath.workdps(40):
            ref = float(mpmath.zeta(s, q))
        assert hurwitz_zeta(s, q) == pytest.approx(ref, rel=1e-13)

    def test_decreasing_in_q_and_s(self):
        qs = [0.5, 1.0, 2.0, 5.0]
        vals = [hurwitz_zeta(2.5, q) for q in qs]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        ss = [1.5, 2.0, 3.0, 5.0]
        vals = [hurwitz_zeta(s, 2.0) for s in ss]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_divergent_domain(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(1.0, 1.0)
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, 0.0)
        with pytest.raises(ValueError):
            hurwitz_zeta(0.5, 1.0)


class TestDigamma:
    def test_bit_identical_to_scipy_on_partial_sum_schedule(self):
        # q_level_sequence's sums psi(N + a) - psi(a) at a = j + 2 + 2 xi
        shifts = [0.5 * m for m in range(1, 20)] + [j + 2.0 + 2.0 * xi for j in range(6)
                                                     for xi in (0.25, 0.5, 1.0)]
        for a in shifts:
            assert digamma(a) == float(scipy_psi(a)), a
            for e in range(10, 25):
                assert digamma(2.0 ** e + a) == float(scipy_psi(2.0 ** e + a)), (e, a)

    def test_bit_identical_to_scipy_on_random_grid(self):
        rng = np.random.default_rng(23)
        xs = np.concatenate([rng.uniform(0.0, 12.0, size=3000), 10.0 ** rng.uniform(-6.0, 18.0, size=3000)])
        got = np.array([digamma(x) for x in xs.tolist()])
        assert np.array_equal(got, scipy_psi(xs))

    @pytest.mark.parametrize("x", [0.01, 0.5, 1.0, 2.0, 2.5, 7.25, 10.0, 12.5, 2.0 ** 24 + 2.5, 1e10])
    def test_matches_mpmath(self, x):
        # relative accuracy holds away from the zero of psi at x = 1.4616...
        with mpmath.workdps(40):
            ref = float(mpmath.digamma(x))
        assert digamma(x) == pytest.approx(ref, rel=1e-15)

    def test_rejects_nonpositive_argument(self):
        for x in (0.0, -1.0, -2.5, float("nan")):
            with pytest.raises(ValueError):
                digamma(x)
