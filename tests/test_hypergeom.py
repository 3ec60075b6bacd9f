import contextlib
import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyprec import hypergeom, numkit, specfn
from hyprec.errors import DomainError, NonConvergence, ParameterError
from hyprec.hypergeom import (
    CONNECTION_GAP,
    CONNECTION_X,
    EvalResult,
    HypParams,
    _hyp2f1_unit,
    euler_transform_eval,
    gauss_value_at_one,
    hyp2f1,
    hyp2f1_derivative,
    zero_balanced_asymptote,
)

from hyp_relations import contiguous_residual, df_relation_residuals

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

    def test_lowered_term_cap_triggers_nonconvergence(self, monkeypatch):
        # The cap is read from the module when hyp2f1 is called, so a
        # lowered constant takes effect at once and a restored one answers.
        params = HypParams(0.5, 0.5, 1.0)
        full = hyp2f1(params, 0.9, 1e-12)
        assert full.terms_used > 10
        monkeypatch.setattr(hypergeom, "DEFAULT_TERM_CAP", 10)
        with pytest.raises(NonConvergence, match="within 10 terms"):
            hyp2f1(params, 0.9, 1e-12)
        monkeypatch.undo()
        assert hyp2f1(params, 0.9, 1e-12) == full

    def test_cap_is_not_an_argument(self):
        params = HypParams(0.5, 0.5, 1.5)
        with pytest.raises(TypeError):
            hyp2f1(params, 0.5, 1e-12, cap=10)
        with pytest.raises(TypeError):
            hyp2f1(params, 0.5, 1e-12, 10)

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


def _plain_sum_series(a, b, c, x, tol, cap):
    """``hypergeom._sum_series`` written plainly, with an int counter and ``abs``.

    The loop as it read before its float counter, kept verbatim but for
    returning the same (value, bound, terms) triple, as the reference the
    faster loop must reproduce bit for bit.
    """
    settle = max(0, math.floor(-c) + 1)
    total = 1.0
    term = 1.0
    streak = 0
    n = 0
    while n < cap:
        factor = (a + n) * (b + n) / ((c + n) * (n + 1.0)) * x
        term *= factor
        total += term
        n += 1
        ratio = abs(factor)
        if abs(term) <= tol * abs(total) and ratio < 1.0 and n >= settle:
            streak += 1
            if streak >= 3:
                bound = abs(term) * ratio / (1.0 - ratio)
                return total, bound, n + 1
        else:
            streak = 0
    raise NonConvergence(
        f"F({a},{b};{c};{x}) did not meet the tail criterion within {cap} terms"
    )


def _summed(fn, *args):
    """fn's (value, bound, terms) triple, value and bound as bits, or the message of its NonConvergence."""
    try:
        value, bound, terms = fn(*args)
    except NonConvergence as exc:
        return str(exc)
    return value.hex(), bound.hex(), terms


class TestSumSeriesLoop:
    """``_sum_series`` gives the plain loop's results and messages exactly, but for an overflowed sum.

    The plain loop sums an overflowed sum on to the cap, or returns it as
    soon as the tail rule passes; ``_sum_series`` raises ``NonConvergence``
    naming the overflow at the end of its block or at that stop.
    """

    @given(
        st.floats(-3, 3, exclude_min=True, exclude_max=True),
        st.floats(-3, 3, exclude_min=True, exclude_max=True),
        st.floats(-4, 6, exclude_min=True, exclude_max=True),
        st.floats(-0.999, 0.999),
        st.sampled_from([1e-12, 1e-8, 1e-15, 0.5]),
        st.one_of(st.integers(1, 60), st.just(hypergeom.DEFAULT_TERM_CAP)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_plain_loop(self, a, b, c, x, tol, cap):
        # c below -1 exercises the past-pole settle rule.
        assume(round(c) > 0 or abs(c - round(c)) >= hypergeom.POLE_TOL)
        args = (a, b, c, x, tol, cap)
        assert _summed(hypergeom._sum_series, *args) == _summed(_plain_sum_series, *args)

    @pytest.mark.parametrize(
        "abc",
        [
            (Fraction(1, 2), Fraction(1, 3), Fraction(5, 4)),
            (1, 1, 2),
            (Fraction(1, 2), 0.5, Fraction(-7, 2)),
            (0.3, 2, Fraction(3, 2)),
        ],
    )
    @pytest.mark.parametrize("cap", [5, hypergeom.DEFAULT_TERM_CAP])
    def test_exact_parameters_match_the_plain_loop(self, abc, cap):
        args = (*abc, 0.7, 1e-12, cap)
        assert _summed(hypergeom._sum_series, *args) == _summed(_plain_sum_series, *args)

    @pytest.mark.parametrize("grid", [False, True], ids=["one-off", "grid"])
    @pytest.mark.parametrize(
        "b,total,cap,last",
        [
            (1e200, "inf", hypergeom.DEFAULT_TERM_CAP, hypergeom._RATIO_TERMS),
            (-1e200, "nan", hypergeom.DEFAULT_TERM_CAP, hypergeom._RATIO_TERMS),
            (1e200, "inf", 5, 5),
        ],
    )
    def test_an_overflowed_sum_stops_at_the_end_of_its_block(self, b, total, cap, last, grid):
        # q_0 = a b / c overflows, so every term is infinite and the total
        # inf (or nan, once terms of both signs meet); the plain loop sums
        # all cap terms before it names the tail criterion.
        args = (1e200, b, 1.0, 0.5, 1e-12, cap)
        with pytest.raises(NonConvergence, match=rf"overflowed to {total} by term {last}$"):
            hypergeom._sum_series(*args, [] if grid else None)
        assert _summed(_plain_sum_series, *args).endswith(f"within {cap} terms")

    @pytest.mark.parametrize("grid", [False, True], ids=["one-off", "grid"])
    @pytest.mark.parametrize(
        "abc,x,last",
        [((1000.0, 1000.0, 1.0), 0.1, 465), ((316.2, 316.2, 1.0), 0.5, 763)],
        ids=["a1000-x0.1", "a316-x0.5"],
    )
    def test_an_overflowed_sum_that_meets_the_tail_rule_raises(self, abc, x, last, grid):
        # Once a term is inf, tol * inf passes every comparison, so three
        # steps with |q_k x| < 1 meet the tail rule inside the first block.
        plain = _plain_sum_series(*abc, x, 1e-12, hypergeom.DEFAULT_TERM_CAP)
        assert plain[:2] == (math.inf, math.inf)
        with pytest.raises(NonConvergence, match=rf"overflowed to inf by term {last}$"):
            if grid:
                hypergeom._hyp2f1_grid(HypParams(*abc), [(x, None)], 1e-12)
            else:
                hyp2f1(HypParams(*abc), x)

    def test_public_overflow_names_it(self):
        with pytest.raises(NonConvergence, match="partial sum overflowed to inf"):
            hyp2f1(HypParams(1e200, 1e200, 1.0), 0.5)

    def test_negative_sums_stop_as_the_plain_loop_does(self):
        # F(-3.5,1;0.5;x) turns negative for x near 1: the tail rule then
        # compares against tol * |total| through the sign of total.
        args = (-3.5, 1.0, 0.5, 0.95, 1e-12, hypergeom.DEFAULT_TERM_CAP)
        assert hypergeom._sum_series(*args)[0] < 0
        assert _summed(hypergeom._sum_series, *args) == _summed(_plain_sum_series, *args)

    @given(
        st.floats(-3, 3, exclude_min=True, exclude_max=True),
        st.floats(-3, 3, exclude_min=True, exclude_max=True),
        st.floats(-4, 6, exclude_min=True, exclude_max=True),
        st.lists(st.floats(-0.999, 0.999), min_size=1, max_size=5),
        st.sampled_from([1e-12, 1e-8, 1e-15, 0.5]),
        st.one_of(st.integers(1, 60), st.integers(1000, 3000), st.just(hypergeom.DEFAULT_TERM_CAP)),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_triple_at_several_x_matches_the_plain_loop(self, a, b, c, xs, tol, cap):
        # One list of ratios, as a grid series keeps it: the first sum fills
        # it, and later ones sum over it and go on past it; every x is read
        # twice, so each sum also runs over ratios stored by another x.
        assume(round(c) > 0 or abs(c - round(c)) >= hypergeom.POLE_TOL)
        ratios = []
        for x in xs + xs:
            args = (a, b, c, x, tol, cap)
            assert _summed(hypergeom._sum_series, *args, ratios) == _summed(_plain_sum_series, *args)

    @pytest.mark.parametrize(
        "abc",
        [
            (0.5, 0.5, 1.5),
            (Fraction(1, 2), Fraction(1, 3), Fraction(5, 4)),
            (Fraction(1, 2), 1.0, Fraction(-7, 2)),
            (0.5, 30.0, -29.5),
        ],
    )
    @pytest.mark.parametrize("cap", [1, 7, 60, hypergeom.DEFAULT_TERM_CAP])
    def test_series_past_the_stored_ratios_match_the_plain_loop(self, abc, cap):
        # At 0.999 the direct series runs past the ratios a list may store,
        # and c = -7/2 and -29.5 sum past their pole before the streak counts.
        # A sum over s ratios leaves min(max(len before, s), _RATIO_TERMS, cap)
        # of them stored, no fewer and no more.
        exact = isinstance(abc[0], Fraction)
        xs = [0.3, 0.9, 0.5] if exact else [0.5, 0.999, 0.99, 0.9995, 0.1, -0.9]
        ratios = []
        for x in xs:
            args = (*abc, x, 1e-12, cap)
            before = len(ratios)
            summed = _summed(hypergeom._sum_series, *args, ratios)
            assert summed == _summed(_plain_sum_series, *args)
            terms = cap if isinstance(summed, str) else summed[2] - 1
            assert len(ratios) == min(max(before, terms), hypergeom._RATIO_TERMS, cap)

    @pytest.mark.parametrize("grid", [False, True], ids=["one-off", "grid"])
    @pytest.mark.parametrize("c", [-0.5, -1.5, -29.5])
    def test_settle_is_formed_only_past_c_of_minus_one(self, c, grid):
        # settle is 0 and k >= settle - 1 always holds for c > -1; from c <= -1
        # the streak starts at n = floor(-c) + 1.  At x = 0 and 1e-20 the tail
        # rule passes from the first step, so the settle point alone decides
        # the stop, and at 0.1 with c = -29.5 the terms shrink before the pole.
        ratios = [] if grid else None
        for x in (0.0, 1e-20, 0.1, 0.5, -0.5) * 2:
            args = (0.5, 30.0, c, x, 1e-12, hypergeom.DEFAULT_TERM_CAP)
            summed = _summed(hypergeom._sum_series, *args, ratios)
            assert summed == _summed(_plain_sum_series, *args)
            assert summed[2] >= max(0, math.floor(-c) + 1) + 3

    def test_equal_parameters_of_other_types_keep_their_own_ratios(self):
        # Each typed triple is its own grid series, with its own memo entry
        # and list; each read sums over what the first left there.
        triples = [(Fraction(1, 2), 1, 3), (0.5, 1.0, 3.0), (0.5, 1, 3.0)]
        hypergeom._MEMO.clear()
        for x in (0.7, 0.6):
            for abc in triples:
                (value,) = hypergeom._hyp2f1_grid(HypParams(*abc), [(x, None)], 1e-12)
                plain = _plain_sum_series(*abc, x, 1e-12, hypergeom.DEFAULT_TERM_CAP)
                assert value.hex() == plain[0].hex()
        entries = list(hypergeom._MEMO.series.values())
        assert len(entries) == 3
        assert len({id(entry.ratios) for entry in entries}) == 3
        assert all(entry.ratios for entry in entries)

    def test_memo_ratios_are_bounded(self):
        hypergeom._MEMO.clear()
        for k in range(3 * hypergeom._MEMO_SERIES):
            # c - a - b = 1 keeps the direct series at 0.998 and 0.999.
            hypergeom._hyp2f1_grid(HypParams(0.5, 0.5 + k, 2.0 + k), [(0.998, None), (0.999, None)], 1e-12)
        # Each series runs past 1024 terms, so every stored list is full.
        entries = hypergeom._MEMO.series.values()
        assert len(entries) == hypergeom._MEMO_SERIES
        assert {len(entry.ratios) for entry in entries} == {hypergeom._RATIO_TERMS}

    def test_threads_keep_their_own_ratios(self):
        # Threads reading one series at their own x each keep its ratios in
        # their own memo: every result is the plain loop's, and none of them
        # reaches this thread's memo.
        triple = (0.5, 1.5, 3.0)  # c - a - b = 1: the direct series near one
        xs = [0.9 + 0.001 * k for k in range(96)]
        expected = {x: _plain_sum_series(*triple, x, 1e-12, hypergeom.DEFAULT_TERM_CAP)[0].hex() for x in xs}
        hypergeom._MEMO.clear()
        got = {}

        def work(part):
            for x in part:
                got[x] = hypergeom._hyp2f1_unit(HypParams(*triple), x, 1e-12).hex()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(xs[k::6],)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == expected
        assert hypergeom._MEMO.series == {}


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

    @pytest.mark.parametrize(
        "evaluate,abc,reference",
        [
            (hyp2f1, (0.5, 30.0, -29.5), lambda mp: mp.hyp2f1(0.5, 30, -29.5, 0.1)),
            (hyp2f1_derivative, (-0.5, 29.0, -30.5),
             lambda mp: mp.mpf(-0.5) * 29 / -30.5 * mp.hyp2f1(0.5, 30, -29.5, 0.1)),
            (euler_transform_eval, (-30.0, -59.5, -29.5), lambda mp: mp.hyp2f1(-30, -59.5, -29.5, 0.1)),
        ],
        ids=["hyp2f1", "derivative", "euler"],
    )
    def test_sums_past_the_pole_of_c(self, evaluate, abc, reference):
        # F(0.5,30;-29.5;0.1): the terms shrink on the way to the pole of
        # 1/(c)_n at n = 29.5 and grow again after it; stopping at the first
        # small terms (n = 17) was off by 1.4e-10 with a bound of 1.5e-14.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        res = evaluate(HypParams(*abc), 0.1, 1e-12)
        true = reference(mp)
        assert abs(res.value - true) <= 1e-12 * abs(true)
        assert res.terms_used > 30


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

    @pytest.mark.parametrize(
        "call, quantity",
        [
            # ln Gamma(1e308) overflows; at c = 2e305 each ln Gamma is finite and their sum is not.
            (lambda: gauss_value_at_one(HypParams(1.0, 1.0, 1e308)), "ln Gamma(c) + "),
            (lambda: gauss_value_at_one(HypParams(1.0, 1.0, 2e305)), "ln Gamma(c) + "),
            # F(-600,-600;1;1) = C(1200, 600), about 1e359: the exp overflows.
            (lambda: gauss_value_at_one(HypParams(-600.0, -600.0, 1.0)), "F(a,b;c;1) "),
            (lambda: zero_balanced_asymptote(1e-320, 1.0, 0.5), "R(a, b) "),
            (lambda: zero_balanced_asymptote(1e-308, 1e-308, 0.5), "R(a, b) "),
            (lambda: zero_balanced_asymptote(1e308, 1e308, 0.5), "B(a, b) "),
            (lambda: zero_balanced_asymptote(3.0, 1e300, 0.5), "(R(a, b) - ln(1-x)) / B(a, b) "),
            (lambda: euler_transform_eval(HypParams(300.0, 300.0, 1.0), 0.999), "(1-x)^(c-a-b) = "),
            (lambda: euler_transform_eval(HypParams(3.0, 300.0, -0.5), 0.9), "(1-x)^(c-a-b) F(c-a,c-b;c;x) = inf"),
        ],
    )
    def test_an_overflowed_double_raises_nonconvergence_naming_it(self, call, quantity):
        with pytest.raises(NonConvergence, match="overflows a double") as info:
            call()
        assert str(info.value).startswith(quantity)


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
        a, b, c = abc
        f_mid = hyp2f1(params, x, 1e-13).value
        f_plus = hyp2f1(HypParams(a + 1, b, c), x, 1e-13).value
        f_minus = hyp2f1(HypParams(a - 1, b, c), x, 1e-13).value
        df_mid = hyp2f1_derivative(params, x, 1e-13).value
        df_minus = hyp2f1_derivative(HypParams(a - 1, b, c), x, 1e-13).value
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


@contextlib.contextmanager
def _summed_terms():
    """A list that collects the term count of every ``_sum_series`` call made inside the block.

    ``hyp2f1`` and the connection formula's two series in y all sum through
    ``_sum_series``, so the list counts every term a read sums.
    """
    terms = []
    summed = hypergeom._sum_series

    def counted(*args):
        result = summed(*args)
        terms.append(result[2])
        return result

    hypergeom._sum_series = counted
    try:
        yield terms
    finally:
        hypergeom._sum_series = summed


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
        with _summed_terms() as terms:
            value = _cold(params, t, 1e-12)
        true = mp.hyp2f1(params.a, params.b, params.c, t)
        assert abs(value - true) <= CONNECTION_REL_TOL * abs(true)
        # A few dozen terms, plus the ~|c - a - b| it takes one of the two
        # series in y to pass the pole of its c = 1 -/+ (c - a - b).
        assert sum(terms) < 60 + 2 * abs(excess)

    @pytest.mark.parametrize("b", [25.0, 30.0, 100.0])
    def test_series_in_y_sums_past_its_pole(self, b):
        # F(0.5,b;2b+1;0.9) sums F(0.5,b;-b+0.5;0.1): its terms shrink on the
        # way to the pole at n = b - 0.5 and grow again after it; stopping
        # before the pole put b = 25 off by 4.8e-9 and b = 30 by 1.4e-10.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        params = HypParams(0.5, b, 2 * b + 1)
        value = _hyp2f1_unit(params, 0.9, 1e-12)
        true = mp.hyp2f1(0.5, b, 2 * b + 1, 0.9)
        assert abs(value - true) <= 1e-12 * abs(true)

    def test_complement_keeps_its_digits(self):
        # t = 1 - 1e-17 rounds to 1; the complement passed as y still answers.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        params = HypParams._derived(-0.5, 0.3, 0.6)
        value = _hyp2f1_unit(params, 1.0, 1e-12, 1e-17)
        true = mp.hyp2f1(-0.5, 0.3, 0.6, 1 - mp.mpf(1e-17))
        assert abs(value - true) <= CONNECTION_REL_TOL * abs(true)

    @pytest.mark.parametrize("x", [0.0, 0.5, 0.89])
    def test_below_crossover_is_the_direct_series(self, x):
        params = HypParams(0.7, 0.9, 2.3)
        assert _hyp2f1_unit(params, x, 1e-12).hex() == hyp2f1(params, x, 1e-12).value.hex()

    @pytest.mark.parametrize("excess", [0.0, 1.0, 1 - CONNECTION_GAP / 2, 2 + CONNECTION_GAP / 2])
    def test_integer_gap_keeps_the_direct_series(self, excess):
        params = HypParams(0.3, 0.4, 0.7 + excess)
        assert _hyp2f1_unit(params, 0.95, 1e-12).hex() == hyp2f1(params, 0.95, 1e-12).value.hex()

    def test_integer_gap_at_t_rounding_to_one_is_nonconvergence(self):
        with pytest.raises(NonConvergence):
            _hyp2f1_unit(HypParams(-0.5, 0.5, 1.0), 1.0, 1e-12, 1e-17)

    def test_large_parameters_keep_the_direct_series(self):
        # ln Gamma(2001) ~ 1.3e4 leaves ~3e-12 of rounding in the gamma ratios,
        # above tol, so the direct series answers.
        params = HypParams(-0.5, 1000.0, 2000.0)
        assert _hyp2f1_unit(params, 0.95, 1e-12).hex() == hyp2f1(params, 0.95, 1e-12).value.hex()

    def test_public_series_is_unchanged(self):
        # hyp2f1 never takes the connection path: F(0.5,0.5;2.3;0.999) still
        # sums thousands of direct terms, where the connection path needs a few.
        params = HypParams(0.5, 0.5, 2.3)
        assert hyp2f1(params, 0.999).terms_used > 1000
        with _summed_terms() as terms:
            _cold(params, 0.999, 1e-12)
        assert len(terms) == 2 and sum(terms) < 40


def _cold(params, x, tol, y=None):
    """``_hyp2f1_unit`` computed afresh, with nothing remembered."""
    hypergeom._MEMO.clear()
    return _hyp2f1_unit(params, x, tol, y)


def _outcome(params, x, y):
    """The bits of ``_hyp2f1_unit``'s value, or a tuple that holds the message of its NonConvergence."""
    try:
        return _hyp2f1_unit(params, x, 1e-12, y).hex()
    except NonConvergence as exc:
        return ("NonConvergence", str(exc))


def _memo_size():
    return sum(len(entry.points) for entry in hypergeom._MEMO.series.values())


class TestUnitCache:
    """``_hyp2f1_unit`` remembers results per typed series and point and returns them unchanged."""

    @pytest.mark.parametrize("near_one", [False, True])
    @given(
        st.floats(0.05, 0.95),
        st.floats(0.05, 5.0),
        st.sampled_from([0, 1]),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_cached_results_equal_cold_ones(self, near_one, a, b, shift, data):
        # G_m's two series; y is drawn first, so x = 1 - y rounds and y holds
        # more digits.  Where a + b is an integer and t is very near 1 the
        # direct series gives up: that failure is not remembered, so it
        # recurs on every call.
        y = data.draw(st.floats(1e-12, 1 - CONNECTION_X) if near_one else st.floats(1 - CONNECTION_X, 0.999))
        x = 1.0 - y
        params = HypParams(1 - a, b + shift, 2 * b + 1)
        calls = [(x, None), (x, y)]
        hypergeom._MEMO.clear()
        first = [_outcome(params, *call) for call in calls]
        again = [_outcome(params, *call) for call in calls]
        assert again == first
        assert hypergeom._MEMO.hits == sum(isinstance(r, str) for r in first)
        for call, result in zip(calls, again):
            hypergeom._MEMO.clear()
            assert result == _outcome(params, *call)

    @pytest.mark.parametrize(
        "first,second",
        [(Fraction(1, 2), 0.5), (0.5, Fraction(1, 2)), (1, 1.0), (1.0, 1)],
    )
    @pytest.mark.parametrize("x", [0.5, 0.95])
    def test_equal_values_of_other_types_keep_their_own_entries(self, first, second, x):
        params = [HypParams(value, value, value + 2) for value in (first, second)]
        hypergeom._MEMO.clear()
        results = [_hyp2f1_unit(p, x, 1e-12) for p in params]
        assert hypergeom._MEMO.misses == 2
        for p, result in zip(params, results):
            assert result == _cold(p, x, 1e-12)

    def test_remembered_value_answers_after_the_cap_is_lowered(self, monkeypatch):
        # The cap is not part of the memo key: it decides only whether a sum
        # raises, never the value of one that converged.  A remembered point
        # answers under a lowered cap; a point not remembered is summed and
        # fails.
        params = HypParams(0.7, 0.9, 2.3)
        with _summed_terms() as terms:
            remembered = _cold(params, 0.5, 1e-12)
        assert terms[0] > 10
        monkeypatch.setattr(hypergeom, "DEFAULT_TERM_CAP", 10)
        assert _hyp2f1_unit(params, 0.5, 1e-12).hex() == remembered.hex()
        assert (hypergeom._MEMO.hits, hypergeom._MEMO.misses) == (1, 1)
        with pytest.raises(NonConvergence, match="within 10 terms"):
            _hyp2f1_unit(params, 0.6, 1e-12)
        monkeypatch.undo()
        assert _hyp2f1_unit(params, 0.5, 1e-12).hex() == remembered.hex()

    def test_size_is_bounded(self):
        maxsize = hypergeom._MEMO_SERIES * hypergeom._MEMO_POINTS
        hypergeom._MEMO.clear()
        count = 10 * maxsize
        for k in range(count):
            _hyp2f1_unit(HypParams(0.7, 0.9, 2.3), 0.5 * k / count, 1e-12)
        assert hypergeom._MEMO.misses == count
        assert _memo_size() <= maxsize

    def test_series_and_points_are_bounded(self):
        # Many series, one grid longer than a series may hold, and the
        # points of each, near one and not, read twice.
        hypergeom._MEMO.clear()
        grid = [((k + 0.5) / 600, None) for k in range(600)]
        for k in range(3 * hypergeom._MEMO_SERIES):
            params = HypParams(0.3, 0.2 + k, 1.1 + 2 * k)
            for _ in range(2):
                hypergeom._hyp2f1_grid(params, grid, 1e-12)
            assert len(hypergeom._MEMO.series) <= hypergeom._MEMO_SERIES
            assert all(len(v.points) <= hypergeom._MEMO_POINTS for v in hypergeom._MEMO.series.values())
            assert all(len(v.ratios) <= hypergeom._RATIO_TERMS for v in hypergeom._MEMO.series.values())
        assert len(hypergeom._MEMO.series) == hypergeom._MEMO_SERIES
        assert {len(v.points) for v in hypergeom._MEMO.series.values()} == {hypergeom._MEMO_POINTS}
        # A full entry stores no more points, so a grid longer than a series
        # may hold keeps its first points: the second read answers them from
        # the memo and computes only the rest.
        series = 3 * hypergeom._MEMO_SERIES
        assert hypergeom._MEMO.hits == series * hypergeom._MEMO_POINTS
        assert hypergeom._MEMO.misses == series * (2 * len(grid) - hypergeom._MEMO_POINTS)

    def test_warm_grid_counts_hits(self):
        params = HypParams(0.3, 0.7, 1.9)
        grid = [(0.1, None), (0.95, None), (0.95, 0.05), (0.1, None)]
        hypergeom._MEMO.clear()
        cold = hypergeom._hyp2f1_grid(params, grid, 1e-12)
        # The repeated point is computed once, and read again within the grid.
        assert (hypergeom._MEMO.hits, hypergeom._MEMO.misses) == (1, 3)
        assert hypergeom._hyp2f1_grid(params, grid, 1e-12) == cold
        assert (hypergeom._MEMO.hits, hypergeom._MEMO.misses) == (5, 3)

    def test_public_evaluations_leave_the_memo_empty(self, monkeypatch):
        # A one-off sum keeps nothing: no memo entry, and no list of ratios
        # handed to the summing loop.
        passed = []

        def recorded(a, b, c, x, tol, cap, ratios=None):
            passed.append(ratios)
            return summed(a, b, c, x, tol, cap, ratios)

        summed = hypergeom._sum_series
        monkeypatch.setattr(hypergeom, "_sum_series", recorded)
        hypergeom._MEMO.clear()
        params = HypParams(0.3, 0.7, 1.9)
        for x in (0.5, 0.95, 0.5):
            hyp2f1(params, x)
            hyp2f1_derivative(params, x)
            euler_transform_eval(params, x)
        assert passed == [None] * 9
        assert hypergeom._MEMO.series == {}
        assert (hypergeom._MEMO.hits, hypergeom._MEMO.misses) == (0, 0)

    def test_gamma_ratios_are_formed_once_per_series(self, monkeypatch):
        # Two reads of one series, each missing its points, share the
        # connection formula's gamma ratios through the memo entry.
        formed = []

        def counted(num, den, log_scale):
            formed.append((num, den))
            return gamma_ratio(num, den, log_scale)

        params = HypParams(0.3, 0.7, 1.9)
        reads = [[(0.95, None)], [(0.97, None), (0.99, 0.01)]]
        hypergeom._MEMO.clear()
        cold = [hypergeom._hyp2f1_grid(params, read, 1e-12) for read in reads]
        gamma_ratio = specfn.gamma_ratio
        monkeypatch.setattr(specfn, "gamma_ratio", counted)
        hypergeom._MEMO.clear()
        assert [hypergeom._hyp2f1_grid(params, read, 1e-12) for read in reads] == cold
        assert len(formed) == 1
        assert hypergeom._MEMO.misses == 3


def _head_gamma_ratio(num, den, log_scale):
    """``specfn.gamma_ratio`` as it read before it was split, kept verbatim as a reference."""
    for z in num:
        if z <= 0 and z == math.floor(z):
            raise DomainError(f"Gamma has a pole at {z!r} in the numerator")
    if any(z <= 0 and z == math.floor(z) for z in den):
        return 0.0, 0.0
    logs = [math.lgamma(z) for z in num] + [-math.lgamma(z) for z in den]
    sign = math.prod(1 if z > 0 or math.floor(z) % 2 == 0 else -1 for z in (*num, *den))
    return sign * math.exp(math.fsum([log_scale, *logs])), math.fsum(map(abs, logs))


def _head_unit_eval(a, b, c, x, tol, y, cap):
    """The per-point evaluator the grid evaluator replaced, kept as the reference it must reproduce.

    Verbatim but for its summing, which is the plain loop (the direct path
    was ``hyp2f1``, which sums float(x) with the same loop), and its gamma
    ratios, from the copy above; nothing is remembered.
    """
    if y is None:
        y = 1.0 - x
    s = c - a - b
    if x >= CONNECTION_X and abs(s - round(s)) >= CONNECTION_GAP:
        scale, scale_size = _head_gamma_ratio((c, s), (c - a, c - b), 0.0)
        weight, weight_size = _head_gamma_ratio((c, -s), (a, b), s * math.log(y) if y > 0 else -s * math.inf)
        if sys.float_info.epsilon * max(scale_size, weight_size) <= tol:
            first = EvalResult(*_plain_sum_series(a, b, 1 - s, y, tol, cap))
            second = EvalResult(*_plain_sum_series(c - a, c - b, 1 + s, y, tol, cap))
            return EvalResult(
                scale * first.value + weight * second.value,
                abs(scale) * first.error_bound + abs(weight) * second.error_bound,
                first.terms_used + second.terms_used,
            )
    if x >= 1:
        raise NonConvergence(
            f"F({a},{b};{c};x) at 1-x={y!r}: x rounds to 1, where the direct series "
            "cannot answer, and the connection formula does not apply"
        )
    return EvalResult(*_plain_sum_series(a, b, c, float(x), tol, cap))


def _grid_outcome(params, points, tol):
    """``_hyp2f1_grid``'s values as bits, or the message of its NonConvergence."""
    try:
        return [value.hex() for value in hypergeom._hyp2f1_grid(params, points, tol)]
    except NonConvergence as exc:
        return str(exc)


def _head_outcome(params, points, tol, cap):
    """The reference's values read point by point in grid order as bits, up to its first NonConvergence."""
    out = []
    for x, y in points:
        try:
            out.append(_head_unit_eval(params.a, params.b, params.c, x, tol, y, cap).value.hex())
        except NonConvergence as exc:
            return str(exc)
    return out


#: A parameter as an int, a Fraction or a float.
_TYPED = st.one_of(
    st.integers(0, 2),
    st.fractions(Fraction(-1, 2), Fraction(5, 2), max_denominator=12),
    st.floats(-0.5, 2.5),
)

#: A grid point below the crossover, or near one with y given or not.
_POINT = st.one_of(
    st.just((CONNECTION_X, None)),
    st.floats(0.0, CONNECTION_X, exclude_max=True).flatmap(lambda x: st.sampled_from([(x, None), (x, 1.0 - x)])),
    st.floats(1e-17, 1 - CONNECTION_X).flatmap(lambda y: st.sampled_from([(1.0 - y, None), (1.0 - y, y)])),
)


class TestGridEvaluator:
    """``_hyp2f1_grid`` gives what the per-point evaluator it replaced gave, bit for bit."""

    @given(
        _TYPED,
        _TYPED,
        st.integers(-1, 3),
        st.one_of(
            st.just(0),
            st.floats(-0.9 * CONNECTION_GAP, 0.9 * CONNECTION_GAP),
            st.floats(1.01 * CONNECTION_GAP, 0.5),
            st.floats(-0.5, -1.01 * CONNECTION_GAP),
            st.fractions(Fraction(-1, 2), Fraction(1, 2), max_denominator=7),
        ),
        st.lists(_POINT, min_size=1, max_size=8),
        st.data(),
        st.sampled_from([1e-12, 1e-9]),
        st.one_of(st.integers(1, 60), st.integers(200, 3000), st.none()),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_point_reads(self, a, b, whole, offset, points, data, tol, cap):
        # c - a - b = whole + offset: an integer, within CONNECTION_GAP of one,
        # or clear of it; grids in any order with repeated points, on both
        # sides of CONNECTION_X, y given or not, and the term cap lowered or
        # left alone.
        c = a + b + whole + offset
        assume(c > 0.05 and b != 0)
        if cap is None:
            # Fraction series run a few microseconds a term: keep them short.
            assume(all(type(v) is float for v in (a, b, c)))
        params = HypParams(a, b, c)
        points = points + data.draw(st.lists(st.sampled_from(points), max_size=4))
        points = data.draw(st.permutations(points))
        with pytest.MonkeyPatch.context() as patch:
            if cap is not None:
                patch.setattr(hypergeom, "DEFAULT_TERM_CAP", cap)
            cap = hypergeom.DEFAULT_TERM_CAP
            head = _head_outcome(params, points, tol, cap)
            hypergeom._MEMO.clear()
            assert _grid_outcome(params, points, tol) == head
            # Again, now reading what the first read remembered.
            assert _grid_outcome(params, points, tol) == head
            # And point by point, partly warm.
            for point in points[::2]:
                assert _grid_outcome(params, [point], tol) == _head_outcome(params, [point], tol, cap)


#: Series on the connection path: G_m's two, a mixed-type one, and one whose
#: first series in y has c = 1 - (c - a - b) = -24.5, so it sums past its pole.
_CONNECTION_SERIES = [(0.3, 0.7, 2.4), (0.7, 1.2, 3.4), (Fraction(1, 2), 3, 5.25), (0.5, 25.0, 51.0)]

#: A point at or past the crossover, with y given or not.
_NEAR_ONE_POINT = st.one_of(
    st.just((CONNECTION_X, None)),
    st.floats(1e-12, 1 - CONNECTION_X).flatmap(lambda y: st.sampled_from([(1.0 - y, None), (1.0 - y, y)])),
)


class TestConnectionRatios:
    """The connection formula's two series in y keep their term ratios in the series' memo entry."""

    @pytest.mark.parametrize("abc", _CONNECTION_SERIES, ids=str)
    @given(st.lists(_NEAR_ONE_POINT, min_size=1, max_size=8), st.lists(_NEAR_ONE_POINT, min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_grid_reads_equal_cold_single_reads(self, abc, first, second):
        # A read sums its later points over the ratios its earlier points
        # stored, and a second read sums over what the first left: every
        # value has the bits of the same point read alone from a cleared memo.
        params = HypParams._derived(*abc)
        hypergeom._MEMO.clear()
        reads = [(points, hypergeom._hyp2f1_grid(params, points, 1e-12)) for points in (first, second)]
        (entry,) = hypergeom._MEMO.series.values()
        assert entry.first_ratios and entry.second_ratios and not entry.ratios
        for points, values in reads:
            assert [v.hex() for v in values] == [_cold(params, x, 1e-12, y).hex() for x, y in points]

    def test_ratio_lists_are_bounded(self):
        # At tol 1e-9 the gamma ratios of F(0.5,1200;2401;t) round within tol,
        # so t >= 0.9 takes the connection path, whose first series in y has
        # c = -1199.5: it sums past its pole, more terms than a list may hold.
        # No list grows past _RATIO_TERMS, and every value is the plain loop's.
        params = HypParams(0.5, 1200.0, 2401.0)
        points = [(0.95, None), (0.5, None), (0.97, 0.03), (0.99, None)]
        hypergeom._MEMO.clear()
        values = [v.hex() for v in hypergeom._hyp2f1_grid(params, points, 1e-9)]
        assert values == _head_outcome(params, points, 1e-9, hypergeom.DEFAULT_TERM_CAP)
        (entry,) = hypergeom._MEMO.series.values()
        assert len(entry.first_ratios) == hypergeom._RATIO_TERMS
        assert 0 < len(entry.second_ratios) <= hypergeom._RATIO_TERMS
        assert 0 < len(entry.ratios) <= hypergeom._RATIO_TERMS


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
