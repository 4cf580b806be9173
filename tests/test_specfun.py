import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import zeta as scipy_zeta

from landautrace.specfun import hurwitz_zeta, laguerre


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
            assert hurwitz_zeta(s, q) == pytest.approx(float(scipy_zeta(s, q)), rel=1e-11)

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
