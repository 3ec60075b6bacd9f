import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyprec import hypergeom, numkit
from hyprec.errors import DomainError, NonConvergence, ParameterError
from hyprec.hypergeom import (
    CONNECTION_GAP,
    CONNECTION_X,
    HypParams,
    _hyp2f1_unit,
    contiguous_residual,
    df_relation_residuals,
    euler_transform_eval,
    gauss_value_at_one,
    hyp2f1,
    hyp2f1_derivative,
    zero_balanced_asymptote,
)

# Safe parameter box for identity checks on the standard grid x in {0.1..0.8}.
PARAM_BOX = [(0.3, 0.7, 1.5), (1.0, 1.0, 2.0), (0.7, 0.9, 1.2), (0.9, 0.2, 2.4)]
X_GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]


def exact_partial_sum(a, b, c, x, terms):
    """Independent oracle: exact-rational partial sum of the series."""
    term = Fraction(1)
    total = Fraction(1)
    for n in range(terms):
        term = term * (a + n) * (b + n) * x / ((c + n) * (n + 1))
        total += term
    return total


# Frozen from the oracle above with 200 terms at (1/2, 1/2; 1; 1/4); the tail
# at that point is below 1e-123.
F_HALF_QUARTER = 1.0731820071493643


class TestSeries:
    @pytest.mark.parametrize("abc", PARAM_BOX)
    def test_value_at_zero(self, abc):
        res = hyp2f1(HypParams(*abc), 0.0, 1e-12)
        assert res.value == 1.0
        assert res.error_bound == 0.0
        assert res.terms_used >= 1

    def test_log_closed_form(self):
        res = hyp2f1(HypParams(1, 1, 2), 0.5, 1e-14)
        assert abs(res.value - 2 * math.log(2)) < 1e-13

    def test_frozen_rational_oracle(self):
        oracle = exact_partial_sum(Fraction(1, 2), Fraction(1, 2), Fraction(1), Fraction(1, 4), 200)
        assert float(oracle) == F_HALF_QUARTER
        res = hyp2f1(HypParams(0.5, 0.5, 1.0), 0.25, 1e-14)
        assert abs(res.value - F_HALF_QUARTER) < 1e-13

    def test_terminating_series_is_exact(self):
        # a = -3: a cubic polynomial in x.
        params = HypParams(-3.0, 0.7, 1.5)
        x = 0.8
        term = 1.0
        poly = 1.0
        for n in range(3):
            term *= (-3 + n) * (0.7 + n) / ((1.5 + n) * (n + 1)) * x
            poly += term
        res = hyp2f1(params, x, 1e-12)
        assert res.value == pytest.approx(poly, abs=1e-15)
        assert res.error_bound == 0.0

    def test_negative_x_converges(self):
        res = hyp2f1(HypParams(0.3, 0.7, 1.5), -0.9, 1e-12)
        assert res.error_bound < 1e-10

    @pytest.mark.parametrize("x", [1.0, -1.0, 1.5])
    def test_domain_error_outside_disc(self, x):
        with pytest.raises(DomainError):
            hyp2f1(HypParams(1, 1, 2), x)

    def test_tol_must_be_positive(self):
        with pytest.raises(DomainError):
            hyp2f1(HypParams(1, 1, 2), 0.5, 0.0)

    def test_invalid_c_rejected(self):
        with pytest.raises(DomainError):
            HypParams(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            HypParams(1.0, 1.0, -2.0)
        HypParams(1.0, 1.0, -0.5)  # negative non-integer c is allowed

    def test_term_cap_env_triggers_nonconvergence(self, monkeypatch):
        monkeypatch.setenv(hypergeom.TERM_CAP_ENV, "10")
        with pytest.raises(NonConvergence):
            hyp2f1(HypParams(0.5, 0.5, 1.0), 0.9, 1e-12)
        monkeypatch.delenv(hypergeom.TERM_CAP_ENV)
        hyp2f1(HypParams(0.5, 0.5, 1.0), 0.9, 1e-12)

    @given(
        st.floats(min_value=-2, max_value=2),
        st.floats(min_value=-2, max_value=2),
        st.floats(min_value=-0.9, max_value=0.9),
    )
    @settings(max_examples=50)
    def test_symmetry_in_a_b(self, a, b, x):
        res_ab = hyp2f1(HypParams(a, b, 1.7), x, 1e-12)
        res_ba = hyp2f1(HypParams(b, a, 1.7), x, 1e-12)
        assert res_ab.value == res_ba.value


class TestIndependentOracle:
    """Cross-check the series engine against arbitrary-precision evaluation."""

    CASES = [(0.3, 0.7, 1.5), (1.0, 1.0, 2.0), (0.9, 0.2, 2.4), (-0.5, -0.5, 2.0),
             (2.0, 2.0, 1.2), (0.5, 0.5, 1.0)]
    XS = [-0.9, -0.5, -0.1, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95]

    @pytest.mark.parametrize("abc", CASES)
    def test_matches_mpmath(self, abc):
        # At tol the truncation leaves ~tol*rho/(1-rho) relative error, which
        # reaches ~2e-11 at x = 0.95; 5e-11 is the fair ceiling for tol=1e-12.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        a, b, c = abc
        for x in self.XS:
            res = hyp2f1(HypParams(a, b, c), x, 1e-12)
            true = float(mp.hyp2f1(a, b, c, x))
            assert abs(res.value - true) <= max(5e-11 * abs(true), 1e-13)

    @pytest.mark.parametrize("abc", CASES)
    def test_error_bound_tracks_true_error(self, abc):
        # The geometric tail estimate uses the last observed ratio; when the
        # term ratios still grow toward |x| it can understate the tail by a
        # few percent, and rounding accumulation (machine level, scaled by
        # the sum) sits on top.  Within that, it must cover the true error.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        a, b, c = abc
        for x in self.XS:
            res = hyp2f1(HypParams(a, b, c), x, 1e-12)
            true = float(mp.hyp2f1(a, b, c, x))
            allowance = 1e-13 * (1.0 + abs(res.value))
            assert abs(res.value - true) <= 1.25 * res.error_bound + allowance


class TestDerivative:
    def test_at_zero(self):
        res = hyp2f1_derivative(HypParams(0.3, 0.7, 1.5), 0.0)
        assert res.value == pytest.approx(0.3 * 0.7 / 1.5, abs=1e-15)

    @pytest.mark.parametrize("abc", PARAM_BOX)
    @pytest.mark.parametrize("x", [0.1, 0.3, 0.5, 0.8])
    def test_matches_central_difference(self, abc, x):
        params = HypParams(*abc)
        deriv = hyp2f1_derivative(params, x, 1e-13).value
        numeric = numkit.central_diff(
            lambda s: hyp2f1(params, s, 1e-13).value, x, 1e-3
        )
        assert abs(deriv - numeric) < 1e-6

    def test_mean_weight_derivative_identity(self):
        # F'(-a,b;2b;t) = -(a/2) F(1-a,b+1;2b+1;t)
        a, b, t = 0.5, 1.0, 0.35
        lhs = hyp2f1_derivative(HypParams(-a, b, 2 * b), t, 1e-13).value
        rhs = -(a / 2) * hyp2f1(HypParams(1 - a, b + 1, 2 * b + 1), t, 1e-13).value
        assert abs(lhs - rhs) < 1e-10


class TestNearOne:
    def test_gauss_value_anchor(self):
        assert abs(gauss_value_at_one(HypParams(0.5, 0.5, 2.0)) - 4 / math.pi) < 1e-12

    def test_gauss_value_trivial_a_zero(self):
        assert abs(gauss_value_at_one(HypParams(0.0, 0.7, 1.5)) - 1.0) < 1e-13

    def test_gauss_value_vs_series_extrapolation(self):
        # (-0.5, 1, 2): exact value Gamma(2)Gamma(1.5)/(Gamma(2.5)Gamma(1)) = 2/3
        value = gauss_value_at_one(HypParams(-0.5, 1.0, 2.0))
        assert abs(value - 2 / 3) < 1e-12
        near = hyp2f1(HypParams(-0.5, 1.0, 2.0), 0.999, 1e-12).value
        assert abs(value - near) < 1e-3

    def test_gauss_value_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for abc in [(0.3, 0.7, 1.5), (0.9, 0.2, 2.4), (-0.5, 1.0, 2.0)]:
            ours = gauss_value_at_one(HypParams(*abc))
            true = float(mp.hyp2f1(*abc, 1))
            assert abs(ours - true) <= 1e-12 * abs(true)

    def test_gauss_value_domain_errors(self):
        with pytest.raises(DomainError):
            gauss_value_at_one(HypParams(0.5, 0.5, 1.0))  # c = a+b
        with pytest.raises(DomainError):
            gauss_value_at_one(HypParams(3.0, -2.0, 1.5))  # c-a <= 0

    def test_zero_balanced_values(self):
        # a=b=1: R(1,1)=0, B(1,1)=1, so the asymptote is -ln(1-x)
        assert abs(zero_balanced_asymptote(1.0, 1.0, 0.5) - math.log(2)) < 1e-13
        expected = (math.log(16) - math.log(0.01)) / math.pi
        assert abs(zero_balanced_asymptote(0.5, 0.5, 0.99) - expected) < 1e-12

    def test_zero_balanced_remainder_scaling(self):
        # |F - asymptote| = O((1-x) ln(1-x)): the measured ratio stays bounded.
        for x in (0.9, 0.99, 0.999):
            f_val = hyp2f1(HypParams(0.5, 0.5, 1.0), x, 1e-13).value
            asym = zero_balanced_asymptote(0.5, 0.5, x)
            ratio = abs(f_val - asym) / abs((1 - x) * math.log1p(-x))
            assert ratio <= 10.0

    def test_zero_balanced_domain(self):
        with pytest.raises(DomainError):
            zero_balanced_asymptote(0.5, 0.5, 1.0)

    @pytest.mark.parametrize("abc", PARAM_BOX)
    @pytest.mark.parametrize("x", X_GRID)
    def test_euler_transform_self_consistency(self, abc, x):
        params = HypParams(*abc)
        direct = hyp2f1(params, x, 1e-13).value
        transformed = euler_transform_eval(params, x, 1e-13).value
        assert abs(direct - transformed) < 1e-10

    def test_euler_transform_zero_exponent(self):
        params = HypParams(1.0, 1.0, 2.0)
        assert euler_transform_eval(params, 0.5, 1e-13).value == pytest.approx(
            hyp2f1(params, 0.5, 1e-13).value, abs=1e-14
        )

    def test_euler_transform_at_zero(self):
        assert euler_transform_eval(HypParams(0.7, 0.9, 1.2), 0.0).value == 1.0


class TestContiguousAndDerivativeRelations:
    def test_residual_zero_at_origin(self):
        assert contiguous_residual(HypParams(0.3, 0.7, 1.5), 0.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("abc,x,tol", [
        ((0.3, 0.7, 1.5), 0.4, 1e-10),
        ((2.0, 1.0, 3.0), 0.25, 1e-12),
    ])
    def test_contiguous_residual_small(self, abc, x, tol):
        assert abs(contiguous_residual(HypParams(*abc), x, 1e-13)) <= tol

    @pytest.mark.parametrize("abc", PARAM_BOX)
    @pytest.mark.parametrize("x", X_GRID)
    def test_contiguous_residual_grid(self, abc, x):
        assert abs(contiguous_residual(HypParams(*abc), x, 1e-13)) <= 1e-9

    @pytest.mark.parametrize("abc", PARAM_BOX)
    @pytest.mark.parametrize("x", [0.1, 0.4, 0.5, 0.8])
    def test_df_residuals_grid(self, abc, x):
        r1, r2 = df_relation_residuals(HypParams(*abc), x, 1e-13)
        assert abs(r1) <= 1e-9
        assert abs(r2) <= 1e-9

    def test_df_second_relation_constant_case(self):
        # a = 1 makes F(a-1,b;c;x) identically 1; its derivative is 0.
        _, r2 = df_relation_residuals(HypParams(1.0, 0.7, 1.5), 0.5, 1e-13)
        assert abs(r2) <= 1e-12

    def test_df_requires_nonzero_x(self):
        with pytest.raises(DomainError):
            df_relation_residuals(HypParams(0.3, 0.7, 1.5), 0.0)

    @pytest.mark.parametrize("abc", PARAM_BOX)
    @pytest.mark.parametrize("x", [0.2, 0.5, 0.7])
    def test_shift_relations(self, abc, x):
        # x F' + a F = a F(a+1,b;c;x) and x F_(a-)' = (a-1)(F - F_(a-)).
        params = HypParams(*abc)
        a = params.a
        f_mid = hyp2f1(params, x, 1e-13).value
        f_plus = hyp2f1(params.shift_a(+1), x, 1e-13).value
        f_minus = hyp2f1(params.shift_a(-1), x, 1e-13).value
        df_mid = hyp2f1_derivative(params, x, 1e-13).value
        df_minus = hyp2f1_derivative(params.shift_a(-1), x, 1e-13).value
        assert abs(x * df_mid + a * f_mid - a * f_plus) <= 1e-9
        assert abs(x * df_minus - (a - 1) * (f_mid - f_minus)) <= 1e-9


def _family(k, a, b):
    """The parameter triples the library evaluates, in mean coordinates (a, b):
    G_m's three, the mean's, and the Q profile's numerator and denominator."""
    return (
        (1 - a, b, 2 * b + 1),
        (1 - a, b + 1, 2 * b + 1),
        (-a, b, 2 * b),
        (a + 2 * b, b, 2 * b + 1),
        (a, b, 2 * b + 1),
        (a, b + 1, 2 * b + 1),
    )[k]


#: The b at which each family's c - a - b equals a given excess, for a given a.
_B_FOR_EXCESS = (
    lambda e, a: e - a,
    lambda e, a: e + 1 - a,
    lambda e, a: e - a,
    lambda e, a: 1 - e - a,
    lambda e, a: e - 1 + a,
    lambda e, a: e + a,
)

#: Bound on the connection path's relative error against mpmath.  Seeded
#: searches over the box below found at most 1.4e-12, at c - a - b just
#: outside the integer gap, and 4.8e-13 for b from 6 to 630; the direct
#: series it replaces is off by up to ~7e-8 at t >= 0.99.
CONNECTION_REL_TOL = 5e-12


class TestConnectionFormula:
    """``_hyp2f1_unit``: the 1 - x connection formula for the library's near-one evaluations."""

    @given(
        st.integers(0, 5),
        st.floats(0.001, 0.999),
        st.one_of(st.integers(0, 3), st.integers(4, 300)),
        st.floats(math.log10(1.01 * CONNECTION_GAP), math.log10(0.5)),
        st.booleans(),
        st.floats(-12.0, math.log10(1 - CONNECTION_X)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_mpmath(self, family, a, whole, log_dist, below, log_y):
        # c - a - b = whole -/+ dist, pushed down to just outside CONNECTION_GAP
        # from an integer; t runs from the crossover up to 1 - 1e-12, and b up
        # to a few hundred, where the large-parameter fallback takes over.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        excess = whole + (-1 if below else 1) * 10**log_dist
        b = _B_FOR_EXCESS[family](excess, a)
        assume(0.001 < b < 300)
        params = HypParams._derived(*_family(family, a, b))
        y = 10**log_y
        t = 1.0 - y
        result = _hyp2f1_unit(params, t, 1e-12)
        true = mp.hyp2f1(params.a, params.b, params.c, t)
        assert abs(result.value - true) <= CONNECTION_REL_TOL * abs(true)
        # A few dozen terms, plus the ~|c - a - b| it takes one of the two
        # series in y to pass the pole of its c = 1 -/+ (c - a - b).
        assert result.terms_used < 60 + 2 * abs(excess)

    @pytest.mark.parametrize("b", [25.0, 30.0, 100.0])
    def test_series_in_y_sums_past_its_pole(self, b):
        # F(0.5,b;2b+1;0.9) sums F(0.5,b;-b+0.5;0.1): its terms shrink on the
        # way to the pole at n = b - 0.5 and grow again after it; stopping
        # before the pole put b = 25 off by 4.8e-9 and b = 30 by 1.4e-10.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        params = HypParams(0.5, b, 2 * b + 1)
        result = _hyp2f1_unit(params, 0.9, 1e-12)
        true = mp.hyp2f1(0.5, b, 2 * b + 1, 0.9)
        assert abs(result.value - true) <= 1e-12 * abs(true)

    def test_complement_keeps_its_digits(self):
        # t = 1 - 1e-17 rounds to 1; the complement passed as y still answers.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        params = HypParams._derived(-0.5, 0.3, 0.6)
        result = _hyp2f1_unit(params, 1.0, 1e-12, 1e-17)
        true = mp.hyp2f1(-0.5, 0.3, 0.6, 1 - mp.mpf(1e-17))
        assert abs(result.value - true) <= CONNECTION_REL_TOL * abs(true)

    @pytest.mark.parametrize("x", [0.0, 0.5, 0.89])
    def test_below_crossover_is_the_direct_series(self, x):
        params = HypParams(0.7, 0.9, 2.3)
        assert _hyp2f1_unit(params, x, 1e-12) == hyp2f1(params, x, 1e-12)

    @pytest.mark.parametrize("excess", [0.0, 1.0, 1 - CONNECTION_GAP / 2, 2 + CONNECTION_GAP / 2])
    def test_integer_gap_keeps_the_direct_series(self, excess):
        params = HypParams(0.3, 0.4, 0.7 + excess)
        assert _hyp2f1_unit(params, 0.95, 1e-12) == hyp2f1(params, 0.95, 1e-12)

    def test_integer_gap_at_t_rounding_to_one_is_nonconvergence(self):
        with pytest.raises(NonConvergence):
            _hyp2f1_unit(HypParams(-0.5, 0.5, 1.0), 1.0, 1e-12, 1e-17)

    def test_large_parameters_keep_the_direct_series(self):
        # ln Gamma(2001) ~ 1.3e4 leaves ~3e-12 of rounding in the gamma ratios,
        # above tol, so the direct series answers.
        params = HypParams(-0.5, 1000.0, 2000.0)
        assert _hyp2f1_unit(params, 0.95, 1e-12) == hyp2f1(params, 0.95, 1e-12)

    def test_public_series_is_unchanged(self):
        # hyp2f1 never takes the connection path: F(0.5,0.5;2.3;0.999) still
        # sums thousands of direct terms, where the connection path needs a few.
        params = HypParams(0.5, 0.5, 2.3)
        assert hyp2f1(params, 0.999).terms_used > 1000
        assert _hyp2f1_unit(params, 0.999, 1e-12).terms_used < 40


class TestEntryPointDomains:
    @pytest.mark.parametrize("x", [1.0, -1.0, 1.5])
    def test_series_x(self, x):
        with pytest.raises(ParameterError):
            hyp2f1(HypParams(1, 1, 2), x)

    @pytest.mark.parametrize("a,b,x", [(0.0, 0.5, 0.9), (0.5, -1.0, 0.9), (0.5, 0.5, 0.0), (0.5, 0.5, 1.5)])
    def test_zero_balanced(self, a, b, x):
        with pytest.raises(ParameterError):
            zero_balanced_asymptote(a, b, x)

    def test_euler_x(self):
        with pytest.raises(ParameterError):
            euler_transform_eval(HypParams(0.7, 0.9, 1.2), -1.5)

    @pytest.mark.parametrize("abc", [(0.5, 0.5, 1.0), (0.5, 0.7, 1.0), (3.0, -2.0, 1.5)])
    def test_value_at_one(self, abc):
        with pytest.raises(ParameterError):
            gauss_value_at_one(HypParams(*abc))
