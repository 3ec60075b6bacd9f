import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyprec.errors import DomainError, NonConvergence, ParameterError
from hyprec.hypergeom import HypParams, hyp2f1
from hyprec.schurmean import (
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
    scan_report_json,
    scan_reports_csv,
    schur_condition_sample,
    schur_grid_scan,
    q_params_for_mean,
)

MEAN_GRID = [(0.3, 0.4), (0.9, 0.2), (0.5, 1.5)]
XY_GRID = [0.5, 1.0, 2.0]


def triple(a, b, m):
    return RegionTriple(MeanParams(a, b), m)


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


class TestScans:
    def test_default_grid_shape(self):
        from hyprec.schurmean import DEFAULT_T_GRID

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

    def test_report_serialization(self):
        reports = [gm_sign_scan(triple(0.9, 0.5, 0.0))]
        text = scan_reports_csv(reports)
        lines = text.splitlines()
        assert lines[0] == "a,b,m,label,branch,gm_min,gm_max"
        assert len(lines) == 2
        assert lines[1].startswith("0.9,0.5,0.0,E+,a+b>=1>m,")
        payload = scan_report_json(reports[0])
        assert '"label": "E+"' in payload

    def test_csv_quotes_comma_branch(self):
        text = scan_reports_csv([gm_sign_scan(triple(0.9, 0.5, 1.0))])
        assert '"a+b>=1,m>=1"' in text
