import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyprec import specfn
from hyprec.errors import DomainError


class TestPochhammer:
    def test_empty_product(self):
        assert specfn.pochhammer(2, 0) == 1
        assert specfn.pochhammer(0, 0) == 1
        assert specfn.pochhammer(-3.5, 0) == 1

    def test_small_cases(self):
        assert specfn.pochhammer(2, 3) == 24
        assert specfn.pochhammer(Fraction(-1, 2), 2) == Fraction(-1, 4)
        assert specfn.pochhammer(1, 5) == math.factorial(5)

    def test_negative_integer_terminates(self):
        assert specfn.pochhammer(-2, 3) == 0
        assert specfn.pochhammer(-2, 2) == 2

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            specfn.pochhammer(1.0, -1)

    @given(
        st.fractions(min_value=-10, max_value=10, max_denominator=50),
        st.integers(min_value=0, max_value=25),
    )
    def test_recurrence_exact(self, a, n):
        assert specfn.pochhammer(a, n + 1) == specfn.pochhammer(a, n) * (a + n)


class TestGammaFamilyAnchors:
    def test_ln_gamma_anchors(self):
        assert specfn.ln_gamma(1.0) == 0.0
        assert abs(specfn.ln_gamma(0.5) - math.log(math.pi) / 2) < 1e-13
        assert abs(specfn.ln_gamma(5.0) - math.log(24.0)) < 1e-13

    def test_digamma_anchors(self):
        g = specfn.EULER_GAMMA
        assert abs(specfn.digamma(1.0) + g) < 1e-13
        assert abs(specfn.digamma(0.5) + g + 2 * math.log(2)) < 1e-13
        assert abs(specfn.digamma(2.0) - (1 - g)) < 1e-13

    def test_beta_anchors(self):
        assert abs(specfn.beta(1, 1) - 1.0) < 1e-14
        assert abs(specfn.beta(0.5, 0.5) - math.pi) < 1e-12
        assert abs(specfn.beta(2, 3) - 1 / 12) < 1e-14

    def test_r_zero_balanced_anchors(self):
        assert abs(specfn.r_zero_balanced(1, 1)) < 1e-13
        assert abs(specfn.r_zero_balanced(0.5, 0.5) - math.log(16)) < 1e-12
        assert abs(specfn.r_zero_balanced(2, 1) + 1.0) < 1e-13

    @pytest.mark.parametrize("fn", [specfn.ln_gamma, specfn.digamma])
    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain_errors(self, fn, x):
        with pytest.raises(DomainError):
            fn(x)

    @pytest.mark.parametrize(
        "num, den",
        [((2.5,), (0.5,)), ((-0.5, 3.2), (-1.5,)), ((-2.3,), (-3.7, 1.1)), ((7.0, -0.25), (4.5, -5.5))],
    )
    def test_gamma_ratio_signs_and_values(self, num, den):
        value, size = specfn.gamma_ratio(num, den, 0.0)
        expected = math.prod(map(math.gamma, num)) / math.prod(map(math.gamma, den))
        assert abs(value - expected) <= 1e-13 * abs(expected)
        assert size == pytest.approx(sum(abs(math.lgamma(z)) for z in (*num, *den)))

    def test_gamma_ratio_scale_keeps_it_finite(self):
        # Gamma(200) / Gamma(0.5) overflows alone; times exp(-700) it does not.
        value, _ = specfn.gamma_ratio((200.0,), (0.5,), -700.0)
        assert value == pytest.approx(math.exp(math.lgamma(200.0) - math.lgamma(0.5) - 700.0), rel=1e-12)

    def test_gamma_ratio_poles(self):
        assert specfn.gamma_ratio((1.5,), (0.0, 2.0), 0.0) == (0.0, 0.0)
        assert specfn.gamma_ratio((1.5,), (-3.0,), 0.0) == (0.0, 0.0)
        with pytest.raises(DomainError):
            specfn.gamma_ratio((-2.0,), (1.0,), 0.0)

    def test_beta_domain_errors(self):
        with pytest.raises(DomainError):
            specfn.beta(0.0, 1.0)
        with pytest.raises(DomainError):
            specfn.r_zero_balanced(1.0, -2.0)


class TestFunctionalEquations:
    @given(st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=60)
    def test_gamma_recurrence(self, x):
        lhs = math.exp(specfn.ln_gamma(x + 1))
        rhs = x * math.exp(specfn.ln_gamma(x))
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    @given(st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=60)
    def test_digamma_recurrence(self, x):
        assert abs(specfn.digamma(x + 1) - specfn.digamma(x) - 1 / x) <= 1e-12

    @given(
        st.floats(min_value=0.05, max_value=30.0),
        st.floats(min_value=0.05, max_value=30.0),
    )
    @settings(max_examples=40)
    def test_beta_symmetry_bitwise(self, z, w):
        assert specfn.beta(z, w) == specfn.beta(w, z)

    def test_r_symmetry(self):
        assert specfn.r_zero_balanced(0.3, 1.7) == specfn.r_zero_balanced(1.7, 0.3)

    def test_euler_gamma_value(self):
        assert abs(specfn.EULER_GAMMA - 0.5772156649015329) < 1e-15
