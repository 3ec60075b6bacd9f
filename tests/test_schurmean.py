import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyprec import hypergeom, schurmean
from hyprec.cli import main
from hyprec.errors import DomainError, NonConvergence, ParameterError
from hyprec.hypergeom import EvalResult, HypParams, _hyp2f1_unit, hyp2f1
from hyprec.schurmean import (
    DEFAULT_T_GRID,
    NEAR_ONE_PROBES,
    GmScanReport,
    MeanParams,
    Region,
    RegionTriple,
    classify_region,
    classify_region_fuzzed,
    g_m,
    g_m_alt,
    g_m_series_reduction_residual,
    gamma_inequality_margin,
    gm_sign_scan,
    mean_quadrature,
    mean_series,
    q_p0_dn_sequence,
    q_p0_profile,
    schur_condition_sample,
    schur_grid_scan,
    q_params_for_mean,
)

MEAN_GRID = [(0.3, 0.4), (0.9, 0.2), (0.5, 1.5)]
XY_GRID = [0.5, 1.0, 2.0]


def triple(a, b, m):
    return RegionTriple(MeanParams(a, b), m)


def gm_scan_output(capsys, fmt, a, b, m):
    """What ``hyprec gm-scan`` prints for one triple in the given format."""
    assert main(["gm-scan", "--a", a, "--b", b, "--m", m, "--format", fmt]) == 0
    return capsys.readouterr().out


class TestParamsValidation:
    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 1.0), (-0.1, 1.0), (0.5, 0.0), (0.5, -1.0)])
    def test_invalid_mean_params(self, a, b):
        with pytest.raises(DomainError):
            MeanParams(a, b)

    def test_fraction_params_accepted(self):
        mp = MeanParams(Fraction(1, 4), Fraction(1, 4))
        assert mp.a == Fraction(1, 4)


class TestMean:
    @pytest.mark.parametrize("x", [0.2, 1.0, 7.5])
    def test_fixed_point(self, x):
        mp = MeanParams(0.5, 0.5)
        assert mean_series(x, x, mp) == x
        assert abs(mean_quadrature(x, x, mp) - x) <= 1e-10

    @pytest.mark.parametrize("ab", [(0.5, 0.5), (0.7, 0.8), (0.05, 2.0), (0.95, 0.1)])
    def test_quadrature_fixed_point_is_exact(self, ab):
        # Both methods return M(x, x) = x bit for bit, never a rounding above
        # max(x, y) such as 2.0000000000000018 at (0.7, 0.8), x = y = 2.
        mp = MeanParams(*ab)
        for x in (1e-3, 0.5, 1.0, 2.0, 3.7, 1e5):
            assert mean_quadrature(x, x, mp).hex() == mean_series(x, x, mp).hex() == x.hex()

    def test_symmetry_and_homogeneity(self):
        mp = MeanParams(0.5, 1.0)
        m12 = mean_series(1.0, 3.0, mp)
        assert mean_series(3.0, 1.0, mp) == m12
        assert abs(mean_series(2.0, 6.0, mp) - 2 * m12) <= 1e-12 * m12

    def test_bounds_random_grid(self):
        rng = random.Random(3)
        for _ in range(30):
            mp = MeanParams(rng.uniform(0.05, 0.95), rng.uniform(0.1, 2.0))
            x, y = rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0)
            for value in (mean_series(x, y, mp), mean_quadrature(x, y, mp)):
                assert min(x, y) - 1e-10 <= value <= max(x, y) + 1e-10

    def test_series_equals_quadrature_anchor(self):
        mp = MeanParams(0.5, 0.5)
        diff = abs(mean_series(1.0, 2.0, mp) - mean_quadrature(1.0, 2.0, mp))
        assert diff <= 1e-8

    @pytest.mark.parametrize("ab", MEAN_GRID)
    def test_series_equals_quadrature_grid(self, ab):
        mp = MeanParams(*ab)
        for x in XY_GRID:
            for y in XY_GRID:
                diff = abs(mean_series(x, y, mp) - mean_quadrature(x, y, mp))
                assert diff <= 1e-7

    def test_positive_arguments_required(self):
        with pytest.raises(DomainError):
            mean_series(0.0, 1.0, MeanParams(0.5, 0.5))
        with pytest.raises(DomainError):
            mean_quadrature(1.0, -1.0, MeanParams(0.5, 0.5))

    @pytest.mark.parametrize("b", [510.0, 530.0, 600.0, 1e4])
    def test_quadrature_names_the_underflow_at_large_b(self, b):
        # B(b, b) leaves the normal range from b of about 510 and is 0 from
        # about 537, where the quotient raised ZeroDivisionError; at 530 the
        # quadrature read 1.988 against the series' 1.9999, and at 535 read 0.
        with pytest.raises(NonConvergence, match="underflows"):
            mean_quadrature(1.0, 3.0, MeanParams(0.5, b))
        mean_series(1.0, 3.0, MeanParams(0.5, b))

    @pytest.mark.parametrize("b", [1e305, 2.6e305, 1e308, sys.float_info.max])
    def test_quadrature_names_the_underflow_where_ln_gamma_overflows(self, b):
        # From b of about 2.6e305 math.lgamma(b) overflows inside specfn.beta,
        # which escaped as OverflowError, an internal error to the CLI.
        with pytest.raises(NonConvergence, match="underflows"):
            mean_quadrature(1.0, 2.0, MeanParams(0.5, b))

    @pytest.mark.parametrize("b", [1e-300, 1e-310, 5e-324])
    def test_quadrature_refuses_a_vanishing_b_as_a_numerical_failure(self, b):
        # Below b of about 1.1e-308 B(b, b) overflows inside specfn.beta, and
        # the rule's weight (1-u)^(b-1) has b - 1 = -1.0 in doubles.
        with pytest.raises(DomainError, match="Gauss-Jacobi"):
            mean_quadrature(1.0, 2.0, MeanParams(0.5, b))

    def test_quadrature_still_answers_below_the_underflow(self):
        mp = MeanParams(0.5, 500.0)
        assert abs(mean_quadrature(1.0, 3.0, mp) - mean_series(1.0, 3.0, mp)) <= 1e-11


class TestGm:
    def test_limit_at_zero(self):
        tr = triple(0.5, 0.5, 0.3)
        assert abs(g_m(1e-8, tr)) <= 1e-7

    def test_slope_at_zero(self):
        tr = triple(0.5, 0.5, 0.3)
        m0 = (0.5 + 2 * 0.5) / (1 + 2 * 0.5)
        assert abs(g_m(1e-5, tr) / 1e-5 - (m0 - 0.3)) <= 1e-3

    @pytest.mark.parametrize("ab", [(0.5, 0.5), (0.9, 0.2), (0.2, 1.4)])
    def test_g1_negative(self, ab):
        tr = triple(ab[0], ab[1], 1.0)
        for t in [0.1 * k for k in range(1, 10)]:
            assert g_m(t, tr) < 0

    def test_alt_form_agrees(self):
        tr = triple(0.2, 0.2, 0.1)
        assert abs(g_m(0.5, tr) - g_m_alt(0.5, tr)) <= 1e-9

    def test_alt_form_at_m_equals_sum(self):
        # m = a+b: the weight is 1, leaving a plain difference of two series.
        a, b = 0.3, 0.4
        tr = triple(a, b, a + b)
        t = 0.6
        expected = (
            hyp2f1(HypParams(1 - a, b, 2 * b + 1), t, 1e-12).value
            - hyp2f1(HypParams(a + 2 * b, b, 2 * b + 1), t, 1e-12).value
        )
        assert abs(g_m_alt(t, tr) - expected) <= 1e-12

    def test_alt_form_degenerate_identity(self):
        # a+b = 1/2 and m = a+b: then 1-a = a+2b and the difference vanishes.
        a, b = 0.3, 0.2
        tr = triple(a, b, 0.5)
        assert abs(g_m_alt(0.7, tr)) <= 1e-13

    def test_alt_form_domain(self):
        with pytest.raises(DomainError):
            g_m_alt(0.5, triple(0.9, 0.5, 0.0))

    @pytest.mark.parametrize("ab,t", [((0.5, 0.5), 0.4), ((0.9, 0.2), 0.8), ((0.3, 1.5), 0.6)])
    def test_series_reduction_residual(self, ab, t):
        tr = triple(ab[0], ab[1], 0.0)
        assert abs(g_m_series_reduction_residual(t, tr)) <= 1e-9

    def test_t_domain(self):
        with pytest.raises(DomainError):
            g_m(0.0, triple(0.5, 0.5, 0.0))
        with pytest.raises(DomainError):
            g_m(1.0, triple(0.5, 0.5, 0.0))


class TestNearOne:
    """Evaluations at t near 1, through the connection formula, against mpmath."""

    @staticmethod
    def _mp():
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        return mp

    @pytest.mark.parametrize("t", [0.9, 0.999, 0.999999, 1 - 1e-12])
    def test_g_m_matches_mpmath(self, t):
        # g_m(0.999999) at (0.3, 0.9) raised NonConvergence on the direct series.
        mp = self._mp()
        a, b, m = 0.3, 0.9, 0.5
        T = mp.mpf(t)
        true = mp.hyp2f1(1 - a, b, 2 * b + 1, T) - (1 - T) ** (1 - m) * mp.hyp2f1(1 - a, b + 1, 2 * b + 1, T)
        assert abs(g_m(t, triple(a, b, m)) - true) <= 1e-12 * abs(true)

    @pytest.mark.parametrize("t", [0.95, 0.999999])
    def test_g_m_alt_and_reduction_near_one(self, t):
        tr = triple(0.3, 0.4, 0.6)
        assert g_m_alt(t, tr) == pytest.approx(g_m(t, tr), rel=1e-12)
        assert abs(g_m_series_reduction_residual(t, tr)) <= 1e-12

    @pytest.mark.parametrize("ratio", [1e-6, 1e-12, 1e-17])
    @pytest.mark.parametrize("ab", [(0.5, 0.3), (0.05, 0.06)])
    def test_mean_series_matches_mpmath(self, ab, ratio):
        # 1e-6 raised NonConvergence and 1e-17 (t rounds to 1) DomainError on
        # the direct series.  The complement min/max reaches the evaluator
        # intact: recomputed as 1 - t it would put (0.05, 0.06) off by 8% at 1e-17.
        mp = self._mp()
        a, b = ab
        true = mp.hyp2f1(-a, b, 2 * b, 1 - mp.mpf(ratio)) ** (1 / mp.mpf(a))
        assert abs(mean_series(1.0, ratio, MeanParams(a, b)) - true) <= 1e-13 * true

    def test_mean_series_integer_sum_stays_on_the_direct_series(self):
        # a + b = 1 puts c - a - b on an integer: the direct series still answers
        # at moderate ratios and still gives up near t = 1.
        mp = self._mp()
        true = mp.hyp2f1(-0.5, 0.5, 1, mp.mpf(0.99)) ** 2
        assert abs(mean_series(1.0, 0.01, MeanParams(0.5, 0.5)) - true) <= 1e-9 * true
        with pytest.raises(NonConvergence):
            mean_series(1.0, 1e-6, MeanParams(0.5, 0.5))

    def test_q_profile_matches_mpmath(self):
        mp = self._mp()
        a, b = 0.3, 1.1
        ts = [0.9, 0.99, 0.999999]
        for t, q in zip(ts, q_p0_profile(MeanParams(a, b), ts)):
            T = mp.mpf(t)
            true = (1 - T) ** (-a / (2 * b + 1)) * mp.hyp2f1(a, b, 2 * b + 1, T) / mp.hyp2f1(a, b + 1, 2 * b + 1, T)
            assert abs(q - true) <= 1e-12 * true

    @pytest.mark.parametrize("b", [30.0, 100.0])
    @pytest.mark.parametrize("t", [0.9, 0.97])
    def test_large_b_matches_mpmath(self, b, t):
        # At b = 30 and t = 0.9 the connection path once stopped one of its
        # series in 1 - t before the pole of its c, off by 1.4e-10.
        mp = self._mp()
        a, m = 0.5, 0.8
        T = mp.mpf(t)
        true_g = mp.hyp2f1(1 - a, b, 2 * b + 1, T) - (1 - T) ** (1 - m) * mp.hyp2f1(1 - a, b + 1, 2 * b + 1, T)
        assert abs(g_m(t, triple(a, b, m)) - true_g) <= 1e-12 * abs(true_g)
        true_q = (1 - T) ** (-a / (2 * b + 1)) * mp.hyp2f1(a, b, 2 * b + 1, T) / mp.hyp2f1(a, b + 1, 2 * b + 1, T)
        assert abs(q_p0_profile(MeanParams(a, b), [t])[0] - true_q) <= 1e-12 * true_q
        true_mean = mp.hyp2f1(-a, b, 2 * b, T) ** (1 / mp.mpf(a))
        assert abs(mean_series(1.0, 1.0 - t, MeanParams(a, b)) - true_mean) <= 1e-12 * true_mean

    def test_scan_probes_match_g_m(self):
        report = gm_sign_scan(triple(0.9, 0.5, 0.97))
        for t, g in report.near_one:
            assert g == g_m(t, triple(0.9, 0.5, 0.97))


def reference_membership(a, b, m):
    """Second, independently coded evaluation of the two set expressions."""
    m0 = (a + 2 * b) / (1 + 2 * b)
    s = a + b
    in_plus = (m0 - m >= 0) and (
        (s >= 1 and 1 > m) or (m < s and s < 1) or (m == s and 2 * s <= 1)
    )
    in_minus = (m - m0 >= 0) and (
        (s >= 1 and m >= 1) or (2 * s >= 1 and m == s and s < 1) or (s < min(m, 1))
    )
    return in_plus, in_minus


def membership_of(label):
    if label.branch.startswith("E+:"):
        return True, True
    return label.label is Region.EPLUS, label.label is Region.EMINUS


class TestClassifier:
    def test_reference_examples(self):
        lab = classify_region(triple(0.9, 0.5, 0.0))
        assert lab.label is Region.EPLUS
        assert lab.branch == "a+b>=1>m"
        assert abs(lab.m0 - 0.95) < 1e-15

        lab = classify_region(triple(0.9, 0.5, 1.0))
        assert lab.label is Region.EMINUS
        assert lab.branch == "a+b>=1,m>=1"

        lab = classify_region(triple(0.9, 0.5, 0.97))
        assert lab.label is Region.NEITHER
        assert lab.branch == ""

    @pytest.mark.parametrize(
        "b,m,label,branch",
        [
            (1e308, 0.5, Region.EPLUS, "a+b>=1>m"),
            (1e308, 1.0, Region.EMINUS, "a+b>=1,m>=1"),
            (sys.float_info.max, 0.0, Region.EPLUS, "a+b>=1>m"),
            (1e307, 0.5, Region.EPLUS, "a+b>=1>m"),
        ],
    )
    def test_huge_b_takes_the_m0_limit(self, b, m, label, branch):
        # From b of about 9e307, 1 + 2b overflows and (a + 2b)/(1 + 2b) is
        # inf/inf; m0 takes its limit 1, and 1e307 gives 1.0 from the quotient.
        lab = classify_region(triple(0.5, b, m))
        assert (lab.label, lab.branch, lab.m0) == (label, branch, 1.0)

    def test_interior_clauses(self):
        assert classify_region(triple(0.3, 0.4, 0.2)).branch == "m<a+b<1"
        assert classify_region(triple(0.2, 0.3, 0.9)).branch == "a+b<1,a+b<m"

    def test_equality_clauses_exact(self):
        # m = a+b = 0.4 < 1/2 with m <= m0: E+ third clause.
        lab = classify_region(triple(Fraction(1, 5), Fraction(1, 5), Fraction(2, 5)))
        assert lab.label is Region.EPLUS
        assert lab.branch == "m=a+b<=1/2"
        # m = a+b = 0.7 in [1/2, 1) with m >= m0: E- second clause.
        lab = classify_region(triple(Fraction(6, 10), Fraction(1, 10), Fraction(7, 10)))
        assert lab.label is Region.EMINUS
        assert lab.branch == "1/2<=m=a+b<1"

    def test_shared_boundary_point(self):
        # m = a+b = 1/2 = m0 is the one point in both sets.
        lab = classify_region(triple(Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
        assert lab.label is Region.EPLUS
        assert lab.branch == "E+:m=a+b<=1/2|E-:1/2<=m=a+b<1"
        assert membership_of(lab) == (True, True)

    def test_fuzzed_boundary_flag(self):
        # Just below m0 the point is E+; just above it falls in the gap band
        # m0 < m < 1 (with a+b >= 1) that belongs to neither region.
        center, boundary, (lo, hi) = classify_region_fuzzed(triple(0.9, 0.5, 0.95))
        assert boundary
        assert center.label is Region.EPLUS
        assert lo.label is Region.EPLUS
        assert hi.label is Region.NEITHER
        _, interior_flag, _ = classify_region_fuzzed(triple(0.9, 0.5, 0.0))
        assert not interior_flag

    @given(
        st.floats(min_value=0.02, max_value=0.98),
        st.floats(min_value=0.05, max_value=2.2),
        st.floats(min_value=-0.6, max_value=1.6),
    )
    @settings(max_examples=150)
    def test_double_entry_random(self, a, b, m):
        assert membership_of(classify_region(triple(a, b, m))) == reference_membership(a, b, m)

    @pytest.mark.parametrize("a,b", [(0.3, 0.4), (0.9, 0.5), (0.2, 0.2), (0.6, 1.4)])
    def test_double_entry_boundaries(self, a, b):
        m0 = (a + 2 * b) / (1 + 2 * b)
        for m in (m0, a + b, 0.5, 1.0):
            assert membership_of(classify_region(triple(a, b, m))) == reference_membership(a, b, m)

    @given(
        st.fractions(min_value="1/40", max_value="39/40", max_denominator=40),
        st.fractions(min_value="1/20", max_value="5/2", max_denominator=40),
        st.fractions(min_value=-1, max_value=2, max_denominator=40),
    )
    @settings(max_examples=120)
    def test_double_entry_exact_arithmetic(self, a, b, m):
        # Fractions exercise the exact boundary comparisons (m == m0, m == a+b)
        # far more often than floats ever hit them.
        got = membership_of(classify_region(triple(a, b, m)))
        assert got == reference_membership(a, b, m)

    def test_eminus_min_form_equivalence(self):
        # Third clause of the concave set: {a+b < 1 and a+b < m} = {a+b < min(m, 1)}.
        rng = random.Random(11)
        for _ in range(300):
            s = rng.uniform(0.1, 2.0)
            m = rng.uniform(-0.6, 1.6)
            assert (s < 1 and s < m) == (s < min(m, 1.0))


class TestMonotoneRatioMachinery:
    def test_q_constant_at_half_gap(self):
        values = q_p0_profile(MeanParams(0.9, 0.4), [0.1, 0.3, 0.5, 0.7, 0.9])
        assert max(abs(v - 1.0) for v in values) <= 1e-10

    def test_q_monotone_directions(self):
        grid = [0.1, 0.3, 0.5, 0.7, 0.9]
        down = q_p0_profile(MeanParams(0.9, 0.2), grid)
        up = q_p0_profile(MeanParams(0.3, 0.5), grid)
        assert all(down[i] > down[i + 1] for i in range(4))
        assert all(up[i] < up[i + 1] for i in range(4))

    def test_dn_exact_seeds_and_signs(self):
        d = q_p0_dn_sequence(MeanParams(Fraction(9, 10), Fraction(1, 5)), 30)
        assert d[0] == 0 and d[1] == 0
        assert all(x < 0 for x in d[2:])
        d = q_p0_dn_sequence(MeanParams(Fraction(3, 10), Fraction(1, 2)), 30)
        assert d[0] == 0 and d[1] == 0
        assert all(x > 0 for x in d[2:])

    def test_dn_float_matches_exact(self):
        exact = q_p0_dn_sequence(MeanParams(Fraction(9, 10), Fraction(1, 5)), 15)
        approx = q_p0_dn_sequence(MeanParams(0.9, 0.2), 15)
        for e, f in zip(exact, approx):
            assert abs(float(e) - f) <= 1e-13

    def test_dn_needs_two(self):
        with pytest.raises(DomainError):
            q_p0_dn_sequence(MeanParams(0.9, 0.2), 1)

    def test_adapter_roles(self):
        mp = MeanParams(0.9, 0.5)
        ratio_view = q_params_for_mean(mp)
        assert ratio_view.a == pytest.approx(0.1)
        assert ratio_view.b == 0.5
        # p0 in the adapted variables equals 1 - m0 of the original triple.
        p0 = ratio_view.a / (2 * ratio_view.b + 1)
        m0 = (mp.a + 2 * mp.b) / (1 + 2 * mp.b)
        assert abs(p0 - (1 - m0)) <= 1e-15

    def test_adapter_links_ratio_to_threshold_sign(self):
        # In the adapted variables 1-m0 becomes p0, so G_m0 > 0 is exactly
        # Q > 1; Q leaves 1 upward iff it is increasing, i.e. iff a+b > 1/2.
        for a, b in ((0.4, 0.3), (0.8, 0.6), (0.2, 0.2), (0.1, 0.3)):
            mp = MeanParams(a, b)
            m0 = (a + 2 * b) / (1 + 2 * b)
            tr = triple(a, b, m0)
            view = q_params_for_mean(mp)
            p0 = view.a / (2 * view.b + 1)
            assert p0 == pytest.approx(1 - m0, abs=1e-15)
            for t in (0.2, 0.5, 0.8):
                g_val = g_m(t, tr)
                q_val = q_p0_profile(view, [t])[0]
                assert (g_val > 0) == (q_val > 1) == (a + b > 0.5)

    def test_weighted_inequality_direction(self):
        # Q < 1 on (0,1) iff a-b > 1/2, i.e. F(a,b;2b+1;t) < (1-t)^p0 F(a,b+1;2b+1;t).
        for (a, b), less in (((0.9, 0.2), True), ((0.2, 1.0), False)):
            p0 = a / (2 * b + 1)
            for t in (0.2, 0.5, 0.8):
                lhs = hyp2f1(HypParams(a, b, 2 * b + 1), t, 1e-12).value
                rhs = (1 - t) ** p0 * hyp2f1(HypParams(a, b + 1, 2 * b + 1), t, 1e-12).value
                assert (lhs < rhs) is less


class TestGammaInequality:
    def test_zero_at_half(self):
        assert abs(gamma_inequality_margin(0.2, 0.3)) <= 1e-12

    def test_signs(self):
        assert gamma_inequality_margin(0.4, 0.3) < 0  # a+b = 0.7 > 1/2
        assert gamma_inequality_margin(0.1, 0.2) > 0  # a+b = 0.3 < 1/2

    @pytest.mark.parametrize("seed", [5, 10])
    def test_sampled_signs(self, seed):
        rng = random.Random(seed)
        count = 0
        while count < 50:
            a = rng.uniform(0.01, 0.95)
            b = rng.uniform(0.005, 0.98 - a)
            if not (0 < a < a + b < 1) or a + b == 0.5:
                continue
            count += 1
            assert gamma_inequality_margin(a, b) * (a + b - 0.5) < 0

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_inequality_margin(0.5, 0.6)  # a+b >= 1
        with pytest.raises(DomainError):
            gamma_inequality_margin(-0.1, 0.3)


class TestSchurSample:
    def test_equal_arguments_rejected(self):
        with pytest.raises(DomainError):
            schur_condition_sample(1.0, 1.0, triple(0.9, 0.5, 0.0))

    def test_eplus_sample_nonnegative(self):
        value = schur_condition_sample(1.0, 2.0, triple(0.9, 0.5, 0.0))
        assert value >= -1e-8

    @pytest.mark.parametrize("seed", [17, 11])
    def test_sign_agreement_seeded(self, seed):
        rng = random.Random(seed)
        done = 0
        while done < 20:
            a = rng.uniform(0.05, 0.95)
            b = rng.uniform(0.1, 2.0)
            m = rng.uniform(-0.5, 1.5)
            if a + b < 0.5:
                continue
            x, y = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
            if abs(x - y) < 1e-2:
                continue
            tr = triple(a, b, m)
            t = 1 - min(x, y) / max(x, y)
            if not 0 < t < 1:
                continue
            g_val = g_m(t, tr)
            if abs(g_val) <= 1e-4:
                continue
            done += 1
            assert schur_condition_sample(x, y, tr) * g_val > 0


def _per_point_series(a, b, ts, tol):
    """G_m's two series read one point at a time, each through ``_hyp2f1_unit``."""
    c = 2 * b + 1
    first = [_hyp2f1_unit(HypParams(a, b, c), t, tol) for t in ts]
    second = [_hyp2f1_unit(HypParams(a, b + 1, c), t, tol) for t in ts]
    return first, second


def _series_outcome(read, a, b, ts, tol):
    """Both series from ``read`` as bits, or the message of its first NonConvergence."""
    hypergeom._MEMO.clear()
    try:
        first, second = read(a, b, ts, tol)
    except NonConvergence as exc:
        return str(exc)
    return [v.hex() for v in first], [v.hex() for v in second]


#: (A, b) of G_m's series F(A,b;2b+1;t) and F(A,b+1;2b+1;t), A = 1 - a.  At
#: (0.5, 0.5) c - A - b is the integer 1, so t >= 0.9 keeps the direct series.
GRID_READ_CASES = [(0.5, 0.5), (0.1, 2.2), (0.96, 0.45), (0.3, 1.1)]
GRID = DEFAULT_T_GRID + NEAR_ONE_PROBES


class TestGridRead:
    """``_gm_series`` reads a grid at a time what per-point reads give."""

    @pytest.mark.parametrize("a,b", GRID_READ_CASES)
    @pytest.mark.parametrize("tol", [1e-12, 1e-9])
    def test_values_equal_per_point_reads(self, a, b, tol):
        grid = _series_outcome(schurmean._gm_series, a, b, GRID, tol)
        assert grid == _series_outcome(_per_point_series, a, b, GRID, tol)
        # The grid read finds what the per-point reads left in the memo.
        misses = hypergeom._MEMO.misses
        warm = schurmean._gm_series(a, b, GRID, tol)
        assert hypergeom._MEMO.misses == misses
        assert ([v.hex() for v in warm[0]], [v.hex() for v in warm[1]]) == grid

    def test_each_direct_point_is_one_hyp2f1_call_passed_only_its_ratios(self, monkeypatch):
        passed = []

        def counted_hyp2f1(params, x, tol=1e-12, **kwargs):
            passed.append(kwargs)
            return hyp2f1(params, x, tol, **kwargs)

        monkeypatch.setattr(hypergeom, "hyp2f1", counted_hyp2f1)
        hypergeom._MEMO.clear()
        # Cold, each direct-series point is one public hyp2f1 call, passed
        # its memo entry's term ratios and nothing else.
        schurmean._gm_series(0.5, 0.5, GRID, 1e-12)
        # c - a - b is an integer: no connection point.  0.9 is on the grid
        # and among the probes, and is computed once.
        assert len(passed) == 2 * len(set(GRID))
        assert all(list(kwargs) == ["_ratios"] and type(kwargs["_ratios"]) is list for kwargs in passed)
        passed.clear()
        # A cold cell reads each series once, over the t grid and the
        # near-one probes together.
        gm_sign_scan(triple(0.9, 0.5, 0.3))
        assert passed and all(list(kwargs) == ["_ratios"] for kwargs in passed)
        # Warm, the cell's other scans and its Q profile call it no more.
        passed.clear()
        gm_sign_scan(triple(0.9, 0.5, 0.7))
        q_p0_profile(q_params_for_mean(MeanParams(0.9, 0.5)), DEFAULT_T_GRID)
        assert passed == []

    @pytest.mark.parametrize("a,b", GRID_READ_CASES)
    @pytest.mark.parametrize("cap", [3, 40, 150, 2000])
    def test_lowered_cap_fails_as_per_point_reads_do(self, monkeypatch, a, b, cap):
        # The message names the series and its t, so equal messages mean the
        # same first failure.
        monkeypatch.setattr(hypergeom, "DEFAULT_TERM_CAP", cap)
        grid = _series_outcome(schurmean._gm_series, a, b, GRID, 1e-12)
        assert grid == _series_outcome(_per_point_series, a, b, GRID, 1e-12)

    def test_lowered_cap_fails_past_the_first_point(self, monkeypatch):
        monkeypatch.setattr(hypergeom, "DEFAULT_TERM_CAP", 60)
        message = _series_outcome(schurmean._gm_series, 0.5, 0.5, GRID, 1e-12)
        assert message.startswith("F(0.5,0.5;2.0;") and message.endswith("within 60 terms")
        t = float(message.split(";")[2].split(")")[0])
        assert GRID[0] < t < 0.9


# The scan path before each series was read once per cell, kept as the
# reference the scans must reproduce: the default grid checked on every
# call, signs tested through a helper and 1 - t formed per m.  Only its read
# order follows the scans: each series is read over the grid and then the
# probes, first F(1-a,b;2b+1;t), then F(1-a,b+1;2b+1;t), so a failing cell
# names the first failure of that order.


def _old_float_t_grid(t_grid):
    ts = tuple(float(t) for t in (DEFAULT_T_GRID if t_grid is None else t_grid))
    if not ts:
        raise ParameterError("the t grid is empty")
    for t in ts:
        schurmean._require_unit_interval(t)
    return ts


def _old_gm_series(a, b, ts, tol):
    c = 2 * b + 1
    points = [(t, None) for t in ts]
    return (
        hypergeom._hyp2f1_grid(HypParams(a, b, c), points, tol),
        hypergeom._hyp2f1_grid(HypParams(a, b + 1, c), points, tol),
    )


def _old_sign_with_tol(v, sign_tol):
    if v > sign_tol:
        return 1
    if v < -sign_tol:
        return -1
    return 0


def _old_build_report(triple, t_values, g_values, near_one, sign_tol):
    label = classify_region(triple)
    gm_min = min(g_values)
    gm_max = max(g_values)
    sign_change_t = None
    last_sign = 0
    for t, g in list(zip(t_values, g_values)) + list(near_one):
        s = _old_sign_with_tol(g, sign_tol)
        if s != 0:
            if last_sign != 0 and s != last_sign and sign_change_t is None:
                sign_change_t = t
            last_sign = s
    if label.label is Region.EPLUS:
        consistent = gm_min >= -sign_tol
    elif label.label is Region.EMINUS:
        consistent = gm_max <= sign_tol
    else:
        consistent = sign_change_t is not None
    a, b, m = triple.mean.a, triple.mean.b, triple.m
    warning = None
    if a + b < 0.5:
        warning = "hypothesis violated: a+b < 1/2, the sign dichotomy is not asserted there"
    elif not consistent:
        if label.label is Region.NEITHER:
            warning = "no sign change detected on the sampled grid"
        else:
            warning = "sampled signs contradict the region label"
    return GmScanReport(
        float(a), float(b), float(m), label.label.value, label.branch, gm_min, gm_max,
        consistent, sign_change_t, tuple(near_one), warning,
    )


def _old_scan_cell(mean, m_values, ts, tol, sign_tol):
    a, b = mean.a, mean.b
    n = len(ts)
    f1, f2 = _old_gm_series(1 - a, b, ts + NEAR_ONE_PROBES, tol)
    f1, f1_near, f2, f2_near = f1[:n], f1[n:], f2[:n], f2[n:]
    reports = []
    for m in m_values:
        g_values = [f1[i] - (1.0 - ts[i]) ** (1.0 - m) * f2[i] for i in range(len(ts))]
        near = tuple(
            (t, f1_near[i] - (1.0 - t) ** (1.0 - m) * f2_near[i])
            for i, t in enumerate(NEAR_ONE_PROBES)
        )
        reports.append(_old_build_report(RegionTriple(mean, m), ts, g_values, near, sign_tol))
    return reports


def _old_schur_grid_scan(a_values, b_values, m_values, t_grid=None, tol=1e-12, sign_tol=1e-8):
    ts = _old_float_t_grid(t_grid)
    reports = []
    for a in a_values:
        for b in b_values:
            if a + b < 0.5:
                continue
            reports.extend(_old_scan_cell(MeanParams(a, b), m_values, ts, tol, sign_tol))
    return reports


def _old_gm_sign_scan(triple, t_grid=None, tol=1e-12, sign_tol=1e-8):
    return _old_scan_cell(triple.mean, (triple.m,), _old_float_t_grid(t_grid), tol, sign_tol)[0]


def _old_q_p0_profile(mp, t_grid, tol=1e-12):
    a, b = mp.a, mp.b
    p0 = a / (2 * b + 1)
    ts = _old_float_t_grid(t_grid)
    num, den = _old_gm_series(a, b, ts, tol)
    return [(1.0 - t) ** (-p0) * n / d for t, n, d in zip(ts, num, den)]


def _exact(value):
    """A report field, or a list or tuple of them, with every float as its bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    return value


def _scan_outcome(grid_scan, sign_scan, q_profile, a, b, ms, t_grid, tol, sign_tol):
    """Every field of a cell's grid scan, its sign scans and its Q profile, or its first failure.

    The memo is cleared first, so every reading starts cold.
    """
    hypergeom._MEMO.clear()
    out = []
    try:
        for report in grid_scan([a], [b], ms, t_grid, tol, sign_tol):
            out.append([_exact(getattr(report, field)) for field in GmScanReport.__slots__])
        mean = MeanParams(a, b)
        for m in ms:
            report = sign_scan(RegionTriple(mean, m), t_grid, tol, sign_tol)
            out.append([_exact(getattr(report, field)) for field in GmScanReport.__slots__])
        out.append(_exact(q_profile(q_params_for_mean(mean), t_grid, tol)))
    except Exception as exc:  # noqa: BLE001 - the failure itself is compared
        return type(exc).__name__, str(exc), out
    return out


#: A t of an explicit grid: anywhere in (0, 1), a probe, or a Fraction.
_GRID_T = st.one_of(
    st.floats(0.001, 0.999),
    st.sampled_from([0.9, 0.99, 0.5, 0.02]),
    st.fractions(Fraction(1, 100), Fraction(99, 100), max_denominator=100),
)


class TestScanPathEquivalence:
    """The scans read each series once per cell and give the parent's reports, bit for bit."""

    @given(
        st.one_of(st.floats(0.04, 0.96), st.sampled_from([0.5, 0.9, 0.25])),
        st.one_of(st.floats(0.3, 2.5), st.sampled_from([0.5, 0.4, 0.25])),
        st.lists(st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 0.5, 1.0])), max_size=3),
        st.one_of(
            st.none(),
            st.lists(_GRID_T, min_size=1, max_size=6).flatmap(
                lambda ts: st.lists(st.sampled_from(ts), max_size=3).flatmap(
                    lambda extra: st.permutations(ts + extra)
                )
            ),
        ),
        st.sampled_from([1e-12, 1e-9]),
        st.sampled_from([1e-8, 0.0, 1e-3]),
        st.one_of(st.none(), st.integers(3, 200), st.integers(400, 3000)),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_reports_match_the_parent_scan_path(self, a, b, ms, t_grid, tol, sign_tol, cap, between):
        # Cells on and off the connection path (a + b = 1 keeps the direct
        # series near 1), m lists of any length, the default grid or an
        # explicit one in any order with repeats, 0.9 or 0.99 on it, and the
        # term cap lowered or left alone: the same fields, or the same first
        # failure with the same message after the same reports.  An m
        # between m0 and min(a + b, 1) is in neither region, so G_m changes
        # sign, on an unsorted grid more than once.
        if between:
            ms = ms + [((a + 2 * b) / (1 + 2 * b) + min(a + b, 1.0)) / 2]
        with pytest.MonkeyPatch.context() as patch:
            if cap is not None:
                patch.setattr(hypergeom, "DEFAULT_TERM_CAP", cap)
            old = _scan_outcome(
                _old_schur_grid_scan, _old_gm_sign_scan, _old_q_p0_profile, a, b, ms, t_grid, tol, sign_tol
            )
            new = _scan_outcome(schur_grid_scan, gm_sign_scan, q_p0_profile, a, b, ms, t_grid, tol, sign_tol)
            assert new == old

    @given(
        st.lists(
            st.tuples(
                st.floats(0.01, 0.99),
                st.one_of(st.floats(allow_nan=True), st.sampled_from([0.0, -0.0, 1e-8, -1e-8, 1.0, -1.0])),
            ),
            min_size=1,
            max_size=10,
        ),
        st.lists(st.sampled_from([0.0, 1e-8, -1e-8, 2e-8, -2e-8, 1.0, -1.0, math.nan]), min_size=3, max_size=3),
        st.sampled_from([(0.9, 0.5, 0.0), (0.9, 0.5, 1.0), (0.9, 0.5, 0.97), (0.2, 0.2, 0.1), (0.3, 0.5, 0.55)]),
        st.sampled_from([1e-8, 0.0]),
    )
    @settings(max_examples=300)
    def test_sign_profile_matches_the_parent(self, grid, near_g, abm, sign_tol):
        # Values on both sides of, and exactly at, +/- sign_tol, zeros of
        # both signs and NaN, in any order: the same report.
        ts = [t for t, _ in grid]
        g_values = [g for _, g in grid]
        near = tuple(zip(NEAR_ONE_PROBES, near_g))
        tr = triple(*abm)
        new = schurmean._build_report(tr, ts, g_values, near, sign_tol)
        old = _old_build_report(tr, ts, g_values, near, sign_tol)
        assert [_exact(getattr(new, f)) for f in GmScanReport.__slots__] == [
            _exact(getattr(old, f)) for f in GmScanReport.__slots__
        ]

    def test_a_probe_failure_of_the_first_series_comes_before_the_grid_of_the_second(self, monkeypatch):
        # At a + b = 1 both series stay direct near t = 1.  With 700 terms the
        # first series meets its tail rule on the whole grid and fails at the
        # probe 0.99, the second already fails at t = 0.98: the first series
        # is read over the grid and the probes before the second, so its
        # probe failure is the one raised.
        monkeypatch.setattr(hypergeom, "DEFAULT_TERM_CAP", 700)
        args = (0.5, 0.5, [0.3], None, 1e-12, 1e-8)
        old = _scan_outcome(_old_schur_grid_scan, _old_gm_sign_scan, _old_q_p0_profile, *args)
        assert old == ("NonConvergence", "F(0.5,0.5;2.0;0.99) did not meet the tail criterion within 700 terms", [])
        assert _scan_outcome(schur_grid_scan, gm_sign_scan, q_p0_profile, *args) == old

    def test_a_failing_cell_sums_its_failing_point_once(self, monkeypatch):
        # With 10 terms F(0.6,1.1;3.2;t) meets its tail rule at t = 0.02 and
        # 0.04 and fails at 0.06.  The cell is read once, and a point that
        # raises is not remembered, so a second read would sum it again.
        summed = hypergeom._sum_series
        calls = []

        def recorded(a, b, c, x, tol, cap, ratios=None):
            calls.append((a, b, c, x))
            return summed(a, b, c, x, tol, cap, ratios)

        monkeypatch.setattr(hypergeom, "_sum_series", recorded)
        monkeypatch.setattr(hypergeom, "DEFAULT_TERM_CAP", 10)
        hypergeom._MEMO.clear()
        with pytest.raises(NonConvergence, match=r"^F\(0\.6,1\.1;3\.2;0\.06\) did not meet"):
            gm_sign_scan(triple(0.4, 1.1, 0.5))
        failing = (1 - 0.4, 1.1, 2 * 1.1 + 1, DEFAULT_T_GRID[2])
        assert calls.count(failing) == 1
        assert calls == [(*failing[:3], t) for t in DEFAULT_T_GRID[:3]]

    @pytest.mark.parametrize("error", [MemoryError, NonConvergence])
    def test_a_failing_read_is_not_repeated(self, monkeypatch, error):
        # Neither the library's own failure nor any other is read again.
        reads = []

        def failing(a, b, ts, tol):
            reads.append(len(ts))
            raise error

        monkeypatch.setattr(schurmean, "_gm_series", failing)
        with pytest.raises(error):
            gm_sign_scan(triple(0.3, 0.5, 1.0))
        assert reads == [len(DEFAULT_T_GRID) + len(NEAR_ONE_PROBES)]


@st.composite
def _report_values(draw):
    """sign_tol and the grid and probe values of a report that mostly keeps one sign.

    Most values lie on one side, at +/- sign_tol, at 0.0 or -0.0, or are NaN,
    all of which the walk passes over but the first; a few values of the
    other sign go anywhere, the probes included.
    """
    side = draw(st.sampled_from([1, -1]))
    sign_tol = draw(st.sampled_from([0.0, 1e-8]))
    values = st.sampled_from(
        [side * 1.0, side * math.inf, side * 2 * sign_tol, side * sign_tol, -side * sign_tol, 0.0, -0.0, math.nan]
    )
    g_values = draw(st.lists(values, min_size=1, max_size=12))
    near_g = draw(st.lists(values, max_size=len(NEAR_ONE_PROBES)))
    for _ in range(draw(st.integers(0, 2))):
        cells = draw(st.sampled_from([g_values, near_g]))
        cells.insert(draw(st.integers(0, len(cells))), draw(st.sampled_from([-side * 1.0, -side * 3 * sign_tol])))
    return sign_tol, g_values, near_g[: len(NEAR_ONE_PROBES)]


class TestReportShortcut:
    """``_build_report`` skips its sign-change walk only where the walk finds no change."""

    @given(
        _report_values(),
        st.sampled_from([(0.9, 0.5, 0.0), (0.9, 0.5, 1.0), (0.3, 0.5, 0.55), (0.2, 0.2, 0.1)]),
    )
    # A leading NaN, then both signs; and a change that only a probe shows.
    @example((1e-8, [math.nan, 1.0, -1.0], [1.0, 1.0, 1.0]), (0.9, 0.5, 0.0))
    @example((0.0, [-1.0, math.nan, -1.0], [-0.0, math.nan, 1.0]), (0.3, 0.5, 0.55))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_full_walk(self, drawn, abm):
        sign_tol, g_values, near_g = drawn
        ts = [0.02 * (k + 1) for k in range(len(g_values))]
        near = tuple(zip(NEAR_ONE_PROBES, near_g))
        tr = triple(*abm)
        new = schurmean._build_report(tr, ts, g_values, near, sign_tol)
        old = _old_build_report(tr, ts, g_values, near, sign_tol)
        assert [_exact(getattr(new, f)) for f in GmScanReport.__slots__] == [
            _exact(getattr(old, f)) for f in GmScanReport.__slots__
        ]


class TestScans:
    def test_default_grid_shape(self):
        assert len(DEFAULT_T_GRID) == 49
        assert DEFAULT_T_GRID[0] == pytest.approx(0.02)
        assert DEFAULT_T_GRID[-1] == pytest.approx(0.98)
        assert all(0 < t < 1 for t in DEFAULT_T_GRID)

    def test_eplus_scan(self):
        report = gm_sign_scan(triple(0.9, 0.5, 0.0))
        assert report.label == "E+"
        assert report.consistent
        assert report.gm_min >= -1e-10
        assert report.warning is None

    def test_eminus_scan(self):
        report = gm_sign_scan(triple(0.9, 0.5, 1.0))
        assert report.label == "E-"
        assert report.consistent
        assert report.gm_max <= 1e-10

    def test_neither_scan_detects_mixed_signs(self):
        # Positive limit at t -> 1 (a+b > 1, m < 1) against a negative slope
        # at 0 (m > m0): the change shows up only in the near-one probes.
        report = gm_sign_scan(triple(0.9, 0.5, 0.97))
        assert report.label == "neither"
        assert report.sign_change_t is not None
        assert report.consistent

    def test_hypothesis_warning(self):
        report = gm_sign_scan(triple(0.2, 0.2, 0.1))
        assert report.warning is not None and "a+b < 1/2" in report.warning

    def test_custom_grid_validation(self):
        with pytest.raises(DomainError):
            gm_sign_scan(triple(0.9, 0.5, 0.0), t_grid=[0.5, 1.0])

    def test_empty_grid_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match="empty"):
            gm_sign_scan(triple(0.9, 0.5, 0.0), t_grid=[])
        with pytest.raises(ParameterError, match="empty"):
            schur_grid_scan([0.9], [0.5], [0.0], t_grid=[])
        with pytest.raises(ParameterError, match="empty"):
            q_p0_profile(MeanParams(0.9, 0.4), [])

    def test_grid_scan_matches_pointwise(self):
        reports = schur_grid_scan([0.9], [0.5], [0.0, 1.0], t_grid=[0.25, 0.5, 0.75])
        assert len(reports) == 2
        single = gm_sign_scan(triple(0.9, 0.5, 0.0), t_grid=[0.25, 0.5, 0.75])
        assert reports[0].gm_min == pytest.approx(single.gm_min, abs=1e-15)
        assert reports[0].gm_max == pytest.approx(single.gm_max, abs=1e-15)
        assert [r.m for r in reports] == [0.0, 1.0]

    def test_grid_scan_skips_hypothesis_violations(self):
        reports = schur_grid_scan([0.1], [0.1, 1.0], [0.5])
        assert [r.b for r in reports] == [1.0]

    @pytest.mark.parametrize(
        "a,b,message",
        [(-1.0, 0.2, "a must lie"), (0.3, -5.0, "b must be positive"), (5.0, 0.2, "a must lie")],
    )
    def test_grid_scan_checks_parameters_before_the_skip(self, a, b, message):
        # a + b < 1/2 in the first two: the skip must not hide parameters
        # outside the mean's domain.
        with pytest.raises(ParameterError, match=message):
            schur_grid_scan([a], [b], [0.5])

    def test_one_cell_fits_the_evaluation_cache(self):
        # Both series at every grid point and probe of a cell, and still far
        # below the ~80 series and ~4000 values of a scan over many cells.
        series_per_cell, points_per_series = 2, len(DEFAULT_T_GRID) + len(NEAR_ONE_PROBES)
        assert series_per_cell <= hypergeom._MEMO_SERIES <= 2 * series_per_cell
        assert points_per_series <= hypergeom._MEMO_POINTS <= 8 * points_per_series

    @pytest.mark.parametrize("a,b,m", [(0.9, 0.5, 0.97), (0.3, 1.1, 1.2), (0.6, 0.4, 0.5)])
    def test_scans_read_the_grid_scan_values_unchanged(self, a, b, m):
        tr = triple(a, b, m)
        q_mean = q_params_for_mean(tr.mean)
        hypergeom._MEMO.clear()
        cold = (gm_sign_scan(tr), q_p0_profile(q_mean, DEFAULT_T_GRID), g_m(0.5, tr))
        hypergeom._MEMO.clear()
        schur_grid_scan([a], [b], [m])
        computed = hypergeom._MEMO.misses
        warm = (gm_sign_scan(tr), q_p0_profile(q_mean, DEFAULT_T_GRID), g_m(0.5, tr))
        assert hypergeom._MEMO.misses == computed
        assert warm == cold

    @pytest.mark.parametrize("a,b", [(0.9, 0.5), (0.5, 0.5), (0.3, 1.1)])
    def test_each_direct_point_is_one_hyp2f1_call(self, monkeypatch, a, b):
        # The benchmark's tracer counts work at hypergeom.hyp2f1: a cold cell
        # calls it once per direct-series point of each series, and the
        # cell's sign scans, Q profiles and g_m read the memo and call it
        # no more.  Each series' points share one list of term ratios.
        calls = []
        lists = {}

        def counted(params, x, tol=1e-12, *, _ratios=None):
            calls.append((params, x))
            lists.setdefault(params, set()).add(id(_ratios))
            return hyp2f1(params, x, tol, _ratios=_ratios)

        monkeypatch.setattr(hypergeom, "hyp2f1", counted)
        hypergeom._MEMO.clear()
        schur_grid_scan([a], [b], [0.2, 1.3])
        s = a + b  # c - a - b of G_m's first series; the second's is s - 1
        connects = abs(s - round(s)) >= hypergeom.CONNECTION_GAP
        direct = sorted({t for t in GRID if t < hypergeom.CONNECTION_X or not connects})
        assert sorted(x for _, x in calls) == sorted(direct + direct)
        assert len(set(calls)) == len(calls)
        assert all(len(ids) == 1 for ids in lists.values())
        assert len({i for ids in lists.values() for i in ids}) == len(lists)
        calls.clear()
        for m in (0.2, 1.3):
            tr = triple(a, b, m)
            gm_sign_scan(tr)
            q_p0_profile(q_params_for_mean(tr.mean), DEFAULT_T_GRID)
            g_m(DEFAULT_T_GRID[24], tr)
        assert calls == []

    def test_a_cell_read_builds_one_record_per_direct_point(self, monkeypatch):
        # Only public hyp2f1 wraps a sum in an EvalResult: a cold cell on the
        # default grid builds one per direct point of its two series and none
        # for the two sums in y of each connection point.
        built = []

        def counted(*args):
            built.append(args)
            return EvalResult(*args)

        a, b = 0.9, 0.5  # c - a - b is 1.4 and 0.4: both series connect
        points = set(GRID)
        connection = {t for t in points if t >= hypergeom.CONNECTION_X}
        assert (len(points) - len(connection), len(connection)) == (44, 7)
        monkeypatch.setattr(hypergeom, "EvalResult", counted)
        hypergeom._MEMO.clear()
        gm_sign_scan(triple(a, b, 0.3))
        assert hypergeom._MEMO.misses == 2 * len(points)
        assert len(built) == 2 * (len(points) - len(connection)) == 88

    def test_report_serialization(self, capsys):
        text = gm_scan_output(capsys, "csv", "0.9", "0.5", "0.0")
        lines = text.splitlines()
        assert lines[0] == "a,b,m,label,branch,gm_min,gm_max,consistent,sign_change_t,warning"
        assert len(lines) == 2
        assert lines[1].startswith("0.9,0.5,0.0,E+,a+b>=1>m,")
        payload = gm_scan_output(capsys, "json", "0.9", "0.5", "0.0")
        assert '"label": "E+"' in payload

    def test_csv_quotes_comma_branch(self, capsys):
        text = gm_scan_output(capsys, "csv", "0.9", "0.5", "1.0")
        assert '"a+b>=1,m>=1"' in text


class TestOverflowedPowers:
    """A power that leaves the double range raises NonConvergence naming it, not a bare OverflowError."""

    CALLS = {
        "g_m": (lambda: g_m(0.999, triple(0.9, 0.5, 104)), "(1-t)^(1-m) = 0.0010000000000000009 ** -103.0"),
        "gm_sign_scan": (lambda: gm_sign_scan(triple(0.9, 0.5, 104)), "(1-t)^(1-m) = 0.0010000000000000009 ** -103.0"),
        "g_m_alt": (lambda: g_m_alt(0.999, triple(0.3, 0.4, 200)), "(1-t)^(a+b-m) = 0.0010000000000000009 ** -199.3"),
        "schur_condition_sample": (lambda: schur_condition_sample(0.5, 3.0, triple(0.5, 0.5, 5000)), "x^(1-m) = 0.5 ** -4999.0"),
        "mean_quadrature": (lambda: mean_quadrature(1, 2, MeanParams(1e-300, 0.5)), "(integral / B(b, b))^(1/a) = "),
    }

    @pytest.mark.parametrize("name", list(CALLS))
    def test_the_error_names_the_power(self, name):
        call, power = self.CALLS[name]
        with pytest.raises(NonConvergence, match="^" + re.escape(power) + ".* overflows a double$") as info:
            call()
        assert isinstance(info.value.__cause__, OverflowError)

    def test_a_scan_fails_where_its_weight_overflows(self):
        # At m = 103 the t = 0.999 probe's weight 0.001^-102 is about 1e306, still a double.
        assert gm_sign_scan(triple(0.9, 0.5, 103)).label == "E-"
        with pytest.raises(NonConvergence, match="overflows a double"):
            schur_grid_scan([0.9], [0.5], [1.0, 103.0, 104.0])
