import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyprec import coeffrec
from hyprec.cli import main
from hyprec.coeffrec import (
    CoeffSequence,
    LogProductSpec,
    Method,
    WeightedSeriesSpec,
    cauchy_oracle,
    format_number,
    hyp_series_coeffs,
    p_minus1_identity_residual,
    partial_sum,
    u_general,
    u_theta_minus1,
    u_theta_plus1,
    v_log_product,
    published_recurrence_pair,
)
from hyprec.errors import DomainError, ParameterError
from hyprec.hypergeom import HypParams, hyp2f1
from hyprec.numkit import rel_with_floor
from hyprec.specfn import pochhammer
from hyprec.verify import PARAM_BOX, PARAM_BOX_EXACT, THETAS, THETAS_EXACT


def spec_of(a, b, c, p, theta):
    return WeightedSeriesSpec(HypParams(a, b, c), p, theta)


def coeffs_output(capsys, fmt, *flags):
    """What ``hyprec coeffs`` prints for the given flags in the given format."""
    assert main(["coeffs", *flags, "--format", fmt]) == 0
    return capsys.readouterr().out


#: The flags of spec_of(0.3, 0.7, 1.5, 2.0, 0.5), without --n.
CLI_SPEC = ("--a", "0.3", "--b", "0.7", "--c", "1.5", "--p", "2.0", "--theta", "0.5")


class TestSeeds:
    def test_u0_and_u1_literals(self):
        seq = u_general(spec_of(0.3, 0.7, 1.5, 2.0, 0.5), 1)
        assert seq.coeffs[0] == 1.0
        assert seq.coeffs[1] == pytest.approx(0.3 * 0.7 / 1.5 - 2 * 0.5, abs=1e-15)
        assert seq.coeffs[1] == pytest.approx(-0.86, abs=1e-15)

    def test_u1_exact(self):
        seq = u_general(
            spec_of(Fraction(3, 10), Fraction(7, 10), Fraction(3, 2), Fraction(2), Fraction(1, 2)),
            1,
        )
        assert seq.coeffs[1] == Fraction(-43, 50)

    def test_u2_closed_seed_matches_oracle(self):
        spec = spec_of(0.3, 0.7, 1.5, 2.0, 0.5)
        a, b, c, p, th = 0.3, 0.7, 1.5, 2.0, 0.5
        direct = (
            0.5 * th * th * p * (p - 1)
            - th * p * a * b / c
            + 0.5 * a * b * (b + 1) * (a + 1) / (c * (c + 1))
        )
        assert u_general(spec, 2).coeffs[2] == pytest.approx(direct, abs=1e-15)
        assert cauchy_oracle(spec, 2).coeffs[2] == pytest.approx(direct, rel=1e-14)

    def test_theta_zero_collapses_to_plain_series(self):
        params = HypParams(Fraction(3, 10), Fraction(7, 10), Fraction(3, 2))
        for p in (Fraction(-1), Fraction(0), Fraction(2)):
            seq = u_general(WeightedSeriesSpec(params, p, Fraction(0)), 20)
            assert list(seq.coeffs) == hyp_series_coeffs(params, 20)


class TestOracleEquivalence:
    @pytest.mark.parametrize("abc", PARAM_BOX)
    @pytest.mark.parametrize("theta", THETAS)
    def test_float_box(self, abc, theta):
        a, b, c = abc
        for p in (-1.0, 0.0, 0.5, 2.0, c - a - b):
            spec = spec_of(a, b, c, p, theta)
            rec = u_general(spec, 30).coeffs
            orc = cauchy_oracle(spec, 30).coeffs
            assert max(rel_with_floor(x, y) for x, y in zip(rec, orc)) <= 1e-10

    @pytest.mark.parametrize("abc", PARAM_BOX_EXACT)
    def test_exact_box(self, abc):
        a, b, c = abc
        for p in (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2), c - a - b):
            for theta in THETAS_EXACT:
                spec = spec_of(a, b, c, p, theta)
                assert u_general(spec, 30).coeffs == cauchy_oracle(spec, 30).coeffs

    @given(
        st.fractions(min_value=-2, max_value=2, max_denominator=6),
        st.fractions(min_value=-2, max_value=2, max_denominator=6),
        st.fractions(min_value=-2, max_value=2, max_denominator=6),
        st.fractions(min_value=-1, max_value=1, max_denominator=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_exact_equivalence(self, a, b, p, theta):
        c = Fraction(7, 4)  # fixed valid c keeps the search space useful
        spec = spec_of(a, b, c, p, theta)
        assert u_general(spec, 12).coeffs == cauchy_oracle(spec, 12).coeffs

    def test_oracle_trivia(self):
        spec = spec_of(0.3, 0.7, 1.5, 2.0, 0.5)
        orc = cauchy_oracle(spec, 1)
        assert orc.coeffs[0] == 1.0
        assert orc.coeffs[1] == pytest.approx(-0.86, abs=1e-15)
        assert orc.method is Method.CAUCHY_ORACLE

    @pytest.mark.parametrize(
        "abc,p,theta,x",
        [
            ((0.3, 0.7, 1.5), 2.5, 0.5, 0.4),
            ((0.9, 0.2, 2.4), -0.75, -1.0, 0.35),
            ((1.0, 1.0, 2.0), 1.0, 1.0, 0.25),
        ],
    )
    def test_partial_sums_match_mpmath_product(self, abc, p, theta, x):
        # Third route: the summed recurrence coefficients must reproduce
        # (1 - theta*x)^p F(a,b;c;x) evaluated with arbitrary precision.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        a, b, c = abc
        seq = u_general(spec_of(a, b, c, p, theta), 80)
        direct = float((1 - theta * mp.mpf(x)) ** p * mp.hyp2f1(a, b, c, x))
        assert abs(partial_sum(seq, x) - direct) <= 1e-10 * max(1.0, abs(direct))


def fraction_sum_oracle(spec, n_max):
    """The Cauchy product summed one product at a time, in the field of the inputs.

    The reference for small N: the binomial factor from pochhammer, one
    Fraction (or float) per product.
    """
    params = spec.params
    w = hyp_series_coeffs(params, n_max)
    if isinstance(spec, LogProductSpec):
        values = (params.a, params.b, params.c)
    else:
        values = (params.a, params.b, params.c, spec.p, spec.theta)
    one = Fraction(1) if all(isinstance(v, (int, Fraction)) for v in values) else 1.0
    if isinstance(spec, LogProductSpec):
        g = [0 * one] + [-one / k for k in range(1, n_max + 1)]
    else:
        g = [one * spec.theta**j * pochhammer(-spec.p, j) / math.factorial(j) for j in range(n_max + 1)]
    return tuple(
        sum((w[k] * g[n - k] for k in range(n + 1)), start=0 * w[0]) for n in range(n_max + 1)
    )


def integer_convolution_oracle(spec, n_max):
    """The exact Cauchy product as integer numerators convolved over a common denominator.

    A copy of cauchy_oracle's exact mode before it summed by Horner over the
    term ratio: each factor sequence is scaled to integers over the lcm of its
    denominators, the integers are convolved, and each sum is normalised once.
    Fast enough at N = 200, where fraction_sum_oracle is not.
    """
    params = spec.params
    w = hyp_series_coeffs(params, n_max)
    if isinstance(spec, LogProductSpec):
        g = [Fraction(0)] + [Fraction(-1, k) for k in range(1, n_max + 1)]
    else:
        g = [Fraction(1)]
        for j in range(1, n_max + 1):
            g.append(g[-1] * spec.theta * (j - 1 - spec.p) / j)

    def over_common_denominator(seq):
        den = math.lcm(*(v.denominator for v in seq))
        return [v.numerator * (den // v.denominator) for v in seq], den

    (w_int, d_w), (g_int, d_g) = over_common_denominator(w), over_common_denominator(g)
    return tuple(
        Fraction(sum(w_int[k] * g_int[n - k] for k in range(n + 1)), d_w * d_g)
        for n in range(n_max + 1)
    )


def assert_same_rationals(spec, n_max, reference=fraction_sum_oracle):
    got = cauchy_oracle(spec, n_max).coeffs
    want = reference(spec, n_max)
    assert all(type(v) is Fraction for v in got)
    assert [(v.numerator, v.denominator) for v in got] == [(v.numerator, v.denominator) for v in want]


_SMALL_PRIMES = (1, 2, 3, 5, 7, 11, 13)


def _prime_rationals(bound):
    """Fractions k/d with d a small prime (or 1) and |k/d| <= bound."""
    return st.sampled_from(_SMALL_PRIMES).flatmap(
        lambda d: st.integers(-bound * d, bound * d).map(lambda k: Fraction(k, d))
    )


class TestExactOracleReference:
    """The Horner sum over the term ratio gives the Fraction sum's exact (numerator, denominator) pairs."""

    @given(
        _prime_rationals(3),
        _prime_rationals(3),
        _prime_rationals(4).filter(lambda c: c > 0 or c.denominator != 1),
        _prime_rationals(3),
        _prime_rationals(1),
        st.integers(0, 40),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_exact_specs(self, a, b, c, p, theta, n_max, log):
        params = HypParams(a, b, c)
        spec = LogProductSpec(params) if log else WeightedSeriesSpec(params, p, theta)
        assert_same_rationals(spec, n_max)

    @pytest.mark.parametrize(
        "spec,n_max",
        [
            (spec_of(Fraction(1, 3), Fraction(2, 5), Fraction(3, 2), Fraction(1, 2), Fraction(1, 2)), 0),
            (spec_of(Fraction(1, 3), Fraction(2, 5), Fraction(3, 2), Fraction(1, 2), Fraction(1, 2)), 1),
            (spec_of(1, 2, 3, 2, 1), 30),
            (spec_of(1, 2, 3, -3, -1), 30),
            (spec_of(Fraction(1, 3), Fraction(2, 5), Fraction(3, 2), Fraction(-7, 3), Fraction(-1)), 30),
            (spec_of(Fraction(1, 3), Fraction(2, 5), Fraction(3, 2), Fraction(-7, 3), Fraction(0)), 30),
            (spec_of(Fraction(1, 3), Fraction(2, 5), Fraction(3, 2), Fraction(-7, 3), Fraction(1)), 30),
            (spec_of(Fraction(1, 3), Fraction(2, 5), Fraction(3, 2), Fraction(0), Fraction(1, 2)), 30),
            (spec_of(Fraction(1, 3), Fraction(2, 5), Fraction(3, 2), Fraction(3), Fraction(-1, 2)), 30),
            (spec_of(Fraction(-3), Fraction(2, 5), Fraction(3, 2), Fraction(5, 7), Fraction(1, 3)), 30),
            (spec_of(Fraction(1, 3), Fraction(2, 5), Fraction(-5, 2), Fraction(5, 7), Fraction(1, 3)), 30),
            (LogProductSpec(HypParams(Fraction(1, 3), Fraction(2, 5), Fraction(3, 2))), 30),
            (LogProductSpec(HypParams(1, 1, 2)), 0),
            (LogProductSpec(HypParams(Fraction(-3), Fraction(2, 5), Fraction(-5, 2))), 30),
            (spec_of(Fraction(-2), Fraction(2, 5), Fraction(3, 2), Fraction(3), Fraction(1, 2)), 12),
            (spec_of(Fraction(1, 3), Fraction(-4), Fraction(3, 2), Fraction(5, 7), Fraction(-1, 2)), 30),
            (spec_of(Fraction(1, 3), Fraction(2, 5), Fraction(3, 2), Fraction(2), Fraction(0)), 30),
            (LogProductSpec(HypParams(Fraction(-2), Fraction(2, 5), Fraction(3, 2))), 30),
            (spec_of(-2, 1, 3, 3, -1), 12),
            (LogProductSpec(HypParams(1, -3, 2)), 12),
        ],
        ids=[
            "n0", "n1", "int-only", "int-only-theta-minus1", "theta-minus1", "theta0", "theta1",
            "p0", "p-nonneg-integer", "a-minus3", "c-negative-noninteger", "log", "log-n0",
            "log-terminating-negative-c", "a-minus2-and-p3", "b-minus4", "theta0-integer-p",
            "log-a-minus2", "int-only-both-windows", "log-int-only-b-minus3",
        ],
    )
    def test_edge_cases(self, spec, n_max):
        assert_same_rationals(spec, n_max)

    @pytest.mark.parametrize("theta", [Fraction(1, 2), None], ids=["theta-half", "log"])
    def test_benchmark_sized_spec(self, theta):
        # N = 200 with the benchmark's prime denominators (5, 37, 251, 43):
        # numerators of thousands of bits, against the integer convolution.
        params = HypParams(Fraction(7, 5), Fraction(-53, 37), Fraction(800, 251))
        spec = LogProductSpec(params) if theta is None else WeightedSeriesSpec(params, Fraction(-97, 43), theta)
        assert_same_rationals(spec, 200, integer_convolution_oracle)
        assert max(v.denominator.bit_length() for v in cauchy_oracle(spec, 200).coeffs) > 1000

    @pytest.mark.parametrize(
        "spec",
        [
            spec_of(Fraction(1, 3), Fraction(2, 5), Fraction(3, 2), 0.5, Fraction(1, 2)),
            spec_of(Fraction(1, 3), Fraction(2, 5), Fraction(3, 2), Fraction(1, 2), 0.5),
            spec_of(1, 2, 3, -1.5, -1),
            spec_of(0.3, 0.7, 1.5, Fraction(2), Fraction(1, 2)),
            LogProductSpec(HypParams(0.3, 0.7, 1.5)),
        ],
        ids=["float-p", "float-theta", "int-abc-float-p", "float-abc", "log-float"],
    )
    def test_mixed_and_float_paths_unchanged(self, spec):
        got = cauchy_oracle(spec, 40).coeffs
        assert all(type(v) is float for v in got)
        assert got == fraction_sum_oracle(spec, 40)

    @given(
        st.integers(0, 8),
        st.booleans(),
        _prime_rationals(3),
        _prime_rationals(4).filter(lambda c: c > 0 or c.denominator != 1),
        st.booleans(),
        st.integers(0, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_log_terminating_windows(self, k, on_a, other, c, as_int, n_max):
        # With a (or b) = -k, w ends at k_hi = k, and from n = k + 2 the
        # window's g_(n-k_hi) is no longer g_1: the closed form's
        # (n-k_hi-1)! then enters numerator and denominator alike.
        top = -k if as_int else Fraction(-k)
        a, b = (top, other) if on_a else (other, top)
        assert_same_rationals(LogProductSpec(HypParams(a, b, c)), n_max)

    @pytest.mark.parametrize("n_max", [171, 400])
    def test_float_oracle_past_170(self, n_max):
        # 171! no longer converts to a float; from there g_j steps from
        # g_(j-1), and the coefficients before keep their bits.
        floats = spec_of(0.3, 0.7, 1.5, 2.5, 0.5)
        got = cauchy_oracle(floats, n_max).coeffs
        assert [v.hex() for v in got[:171]] == [v.hex() for v in cauchy_oracle(floats, 170).coeffs]
        rational = spec_of(Fraction(3, 10), Fraction(7, 10), Fraction(3, 2), Fraction(5, 2), Fraction(1, 2))
        exact = cauchy_oracle(rational, n_max).coeffs
        w = hyp_series_coeffs(floats.params, n_max)
        g = [1.0]
        for j in range(1, n_max + 1):
            g.append(g[-1] * 0.5 * (j - 1 - 2.5) / j)
        for n in range(n_max + 1):
            scale = sum(abs(w[k] * g[n - k]) for k in range(n + 1))
            assert abs(got[n] - float(exact[n])) <= 1e-12 * scale, n

    @pytest.mark.parametrize(
        "p,theta,n_max,digest",
        [
            (Fraction(-1000), Fraction(1, 2), 100, "efcdd630d431c5fae8bb2da78a293db943e822b1fa5224625503ca95206b590a"),
            (2.5, 0.5, 400, "145855436976b13eb3ab2a7674f74a0129b2bc7ec865af1f3800a93de8cc77ae"),
        ],
        ids=["mixed-field-n100", "float-field-n400"],
    )
    def test_float_oracle_keeps_its_bits(self, p, theta, n_max, digest):
        # The SHA-256 of every coefficient's float.hex, joined by commas.
        # With an exact p of size 1000 the direct form of g_j still converts
        # at N = 100, and the float field steps g_j only past j = 170.
        got = cauchy_oracle(spec_of(0.3, 0.7, 1.5, p, theta), n_max).coeffs
        assert hashlib.sha256(",".join(v.hex() for v in got).encode()).hexdigest() == digest

    @pytest.mark.parametrize("n_max", [103, 150])
    def test_mixed_field_oracle_steps_past_an_exact_factor_too_large_for_a_float(self, n_max):
        # (-p)_j stays an exact Fraction for an exact p; with p = -1000 and
        # theta = 1/2, theta^j (-p)_j / j! no longer converts from j = 103,
        # and g_j steps from g_(j-1).  Every term of the product is positive.
        p, theta = Fraction(-1000), Fraction(1, 2)
        got = cauchy_oracle(spec_of(0.3, 0.7, 1.5, p, theta), n_max).coeffs
        exact = cauchy_oracle(spec_of(Fraction(3, 10), Fraction(7, 10), Fraction(3, 2), p, theta), n_max).coeffs
        assert got[:101] == cauchy_oracle(spec_of(0.3, 0.7, 1.5, p, theta), 100).coeffs
        for n in range(n_max + 1):
            assert abs(got[n] - float(exact[n])) <= 1e-12 * float(exact[n]), n

    def test_float_oracle_past_170_from_the_cli(self, capsys):
        flags = ("--family", "oracle", "--a", "0.3", "--b", "0.7", "--c", "1.5", "--p", "2.5", "--theta", "0.5")
        coeffs = json.loads(coeffs_output(capsys, "json", *flags, "--n", "171"))["coeffs"]
        assert len(coeffs) == 172 and all(math.isfinite(float(v)) for v in coeffs)

    @given(
        st.one_of(st.floats(-3, 3), st.sampled_from([0.5, -2.0])),
        st.one_of(st.floats(-3, 3), st.sampled_from([0.7, -3.0])),
        st.one_of(st.floats(0.1, 5), st.sampled_from([1.5, -2.5])),
        st.one_of(st.floats(-8, 8), st.integers(-3, 8), st.sampled_from([0.0, 3.0, -1.0, Fraction(5, 2)])),
        st.one_of(st.floats(-1, 1), st.sampled_from([-1.0, 0.0, 1.0, 0.5, Fraction(1, 2)])),
        st.integers(0, 60),
    )
    @settings(max_examples=150, deadline=None)
    def test_float_binomial_factor_keeps_its_bits(self, a, b, c, p, theta, n_max):
        # (-p)_j from a running product makes pochhammer(-p, j)'s
        # multiplications in its order, so every coefficient keeps its bits.
        spec = spec_of(a, b, c, p, theta)
        got = cauchy_oracle(spec, n_max).coeffs
        want = fraction_sum_oracle(spec, n_max)
        assert [float.hex(v) for v in got] == [float.hex(v) for v in want]


def in_field(*values):
    """The values as Fractions when every one is exact, else as given, and the field's 1."""
    if all(isinstance(v, (int, Fraction)) for v in values):
        return [Fraction(v) for v in values], Fraction(1)
    return list(values), 1.0


def _raise_vanished(n):
    raise DomainError(f"recurrence denominator (n+1)(n+c) vanished at n={n}")


def step_u_general(spec, n_max):
    """u_general as it stepped before integer rows: xi, eta, lam rebuilt in the field every step."""
    (a, b, c, p, th), one = in_field(spec.params.a, spec.params.b, spec.params.c, spec.p, spec.theta)
    u = [one]
    if n_max >= 1:
        u.append(a * b / c - p * th)
    if n_max >= 2:
        u.append(
            th * th * p * (p - 1) / 2
            - th * p * a * b / c
            + a * b * (b + 1) * (a + 1) / (2 * c * (c + 1))
        )
    for n in range(2, n_max):
        den = (n + 1) * (n + c)
        if den == 0:
            _raise_vanished(n)
        xi = (n + a) * (n + b) + th * (2 * n * n - 2 * n * (p - c + 1) - c * p)
        eta = (
            2 * n * n
            + 2 * (a + b - p - 2) * n
            - (a + b - 1) * p
            + 2 * (a - 1) * (b - 1)
            + th * (n - p - 1) * (n - p + c - 2)
        )
        lam = (n + a - p - 2) * (n + b - p - 2)
        u.append((xi * u[n] - th * eta * u[n - 1] + th * th * lam * u[n - 2]) / den)
    return tuple(u)


def step_u_theta_minus1(params, p, n_max):
    (a, b, c, p), one = in_field(params.a, params.b, params.c, p)
    u = [one]
    if n_max >= 1:
        u.append(a * b / c + p)
    if n_max >= 2:
        u.append(p * (p - 1) / 2 + p * a * b / c + a * b * (b + 1) * (a + 1) / (2 * c * (c + 1)))
    for n in range(2, n_max):
        den = (n + 1) * (n + c)
        if den == 0:
            _raise_vanished(n)
        xi = -n * n + (a + b - 2 * c + 2 * p + 2) * n + (a * b + c * p)
        eta = (n + 2 * a + 2 * b - c) * (n - 1) - p * p - (a + b - c + 2) * p + 2 * a * b
        lam = (n + a - p - 2) * (n + b - p - 2)
        u.append((xi * u[n] + eta * u[n - 1] + lam * u[n - 2]) / den)
    return tuple(u)


def _step_two_alpha_beta(a, b, c, p, n):
    den = (n + 1) * (n + c)
    if den == 0:
        _raise_vanished(n)
    two_alpha = (2 * n * n + (a + b + c - 2 * p - 1) * n + a * b - c * p) / den
    beta_n = (n + a - p - 1) * (n + b - p - 1) / den
    return two_alpha, beta_n


def step_u_theta_plus1(params, p, n_max):
    (a, b, c, p), one = in_field(params.a, params.b, params.c, p)
    u = [one]
    if n_max >= 1:
        u.append(a * b / c - p)
    for n in range(1, n_max):
        two_alpha, beta_n = _step_two_alpha_beta(a, b, c, p, n)
        u.append(two_alpha * u[n] - beta_n * u[n - 1])
    return tuple(u)


def step_v_log_product(params, n_max):
    (a, b, c), one = in_field(params.a, params.b, params.c)
    p = 0 * one
    v = [0 * one]
    if n_max >= 1:
        v.append(-one)
    w = hyp_series_coeffs(params, max(n_max - 1, 0))
    for n in range(1, n_max):
        gden = (n + 1) * (n + a - 1) * (n + b - 1) * (n + c)
        if gden == 0:
            raise DomainError(
                f"log-product coefficient denominator vanished at n={n} "
                f"(a={params.a!r}, b={params.b!r})"
            )
        gnum = (c - b - a) * n * n + (a + b - 2 * a * b) * n - c * (a - 1) * (b - 1)
        two_alpha, beta_n = _step_two_alpha_beta(a, b, c, p, n)
        v.append(two_alpha * v[n] - beta_n * v[n - 1] + gnum * w[n] / gden)
    return tuple(v)


#: kind -> (library call, Fraction-step reference), both of (params, p, theta, n_max).
RECURRENCES = {
    "general": (
        lambda params, p, th, n: u_general(WeightedSeriesSpec(params, p, th), n).coeffs,
        lambda params, p, th, n: step_u_general(WeightedSeriesSpec(params, p, th), n),
    ),
    "theta-1": (
        lambda params, p, th, n: u_theta_minus1(params, p, n).coeffs,
        lambda params, p, th, n: step_u_theta_minus1(params, p, n),
    ),
    "theta1": (
        lambda params, p, th, n: u_theta_plus1(params, p, n).coeffs,
        lambda params, p, th, n: step_u_theta_plus1(params, p, n),
    ),
    "log": (
        lambda params, p, th, n: v_log_product(params, n).coeffs,
        lambda params, p, th, n: step_v_log_product(params, n),
    ),
}


def _outcome(call, *args):
    try:
        return call(*args), None
    except DomainError as exc:
        return None, str(exc)


def assert_same_recurrence(kind, params, p, theta, n_max):
    """Library and reference give the same (numerator, denominator) pairs, or the same DomainError."""
    library, reference = RECURRENCES[kind]
    (got, got_err), (want, want_err) = (_outcome(f, params, p, theta, n_max) for f in (library, reference))
    assert got_err == want_err
    if got_err is None:
        assert all(type(v) is Fraction for v in got)
        assert [(v.numerator, v.denominator) for v in got] == [(v.numerator, v.denominator) for v in want]


_F = Fraction


class TestExactRecurrenceReference:
    """Stepping by integer rows gives the Fraction-step loops' exact (numerator, denominator) pairs."""

    @given(
        st.sampled_from(sorted(RECURRENCES)),
        _prime_rationals(3),
        _prime_rationals(3),
        _prime_rationals(4).filter(lambda c: c > 0 or c.denominator != 1),
        _prime_rationals(3),
        _prime_rationals(1),
        st.integers(0, 40),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_exact_specs(self, kind, a, b, c, p, theta, n_max):
        assert_same_recurrence(kind, HypParams(a, b, c), p, theta, n_max)

    @pytest.mark.parametrize("kind", sorted(RECURRENCES))
    @pytest.mark.parametrize("n_max", range(5))
    def test_first_steps(self, kind, n_max):
        # The integer rows come from four sample points past the seeds, also
        # when fewer steps than that are taken.
        assert_same_recurrence(kind, HypParams(_F(1, 3), _F(2, 5), _F(3, 2)), _F(-2, 3), _F(1, 2), n_max)

    @pytest.mark.parametrize("kind", sorted(RECURRENCES))
    @pytest.mark.parametrize(
        "abc,p,theta",
        [
            ((_F(1, 3), _F(2, 5), _F(3, 2)), _F(-7, 3), _F(-1)),
            ((_F(1, 3), _F(2, 5), _F(3, 2)), _F(-7, 3), _F(0)),
            ((_F(1, 3), _F(2, 5), _F(3, 2)), _F(-7, 3), _F(1)),
            ((_F(1, 3), _F(2, 5), _F(3, 2)), _F(0), _F(1, 2)),
            ((_F(1, 3), _F(2, 5), _F(3, 2)), _F(-1), _F(1, 2)),
            ((_F(1, 3), _F(2, 5), _F(3, 2)), _F(3), _F(-1, 2)),
            ((_F(-3), _F(2, 5), _F(3, 2)), _F(5, 7), _F(1, 3)),
            ((_F(1, 3), _F(-4), _F(3, 2)), _F(5, 7), _F(-1, 2)),
            ((_F(-2), _F(2, 5), _F(-5, 2)), _F(3), _F(1, 2)),
            ((_F(1, 3), _F(2, 5), _F(-5, 2)), _F(5, 7), _F(1, 3)),
            ((_F(1, 3), _F(2, 5), _F(-7, 3)), _F(-1), _F(-1)),
        ],
        ids=[
            "theta-minus1", "theta0", "theta1", "p0", "p-minus1", "p-nonneg-integer", "a-minus3",
            "b-minus4", "a-minus2-c-negative", "c-negative-noninteger", "c-negative-p-minus1",
        ],
    )
    def test_edge_cases(self, kind, abc, p, theta):
        assert_same_recurrence(kind, HypParams(*abc), p, theta, 30)

    @pytest.mark.parametrize("kind", sorted(RECURRENCES))
    def test_benchmark_sized_spec(self, kind):
        # N = 200 with the benchmark's prime denominators (5, 37, 251, 43).
        params = HypParams(_F(7, 5), _F(-53, 37), _F(800, 251))
        assert_same_recurrence(kind, params, _F(-97, 43), _F(1, 2), 200)

    @pytest.mark.parametrize(
        "a,b,n",
        [(0, _F(2, 5), 1), (-2, _F(2, 5), 3), (_F(1, 3), 0, 1), (_F(1, 3), -2, 3), (_F(-2), _F(0), 1)],
    )
    def test_log_product_domain_error(self, a, b, n):
        params = HypParams(a, b, _F(3, 2))
        for call in (v_log_product, step_v_log_product):
            with pytest.raises(DomainError, match=f"at n={n} "):
                call(params, 12)
        assert_same_recurrence("log", params, None, None, 12)

    @pytest.mark.parametrize("field", [Fraction, float], ids=["exact", "float"])
    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("n_max", [2, 4, 12])
    def test_log_product_domain_boundary(self, field, side, n_max):
        # n + a - 1 vanishes at n = 1 - a and the steps stop at n = N - 1, so
        # a = 1 - N still returns and a = 2 - N is the first to raise.
        def params(top):
            free = field(_F(2, 5))
            a, b = (field(top), free) if side == "a" else (free, field(top))
            return HypParams(a, b, field(_F(3, 2)))

        inside = params(1 - n_max)
        got = v_log_product(inside, n_max).coeffs
        want = cauchy_oracle(LogProductSpec(inside), n_max).coeffs
        if field is Fraction:
            assert got == want
        else:
            assert max(rel_with_floor(x, y) for x, y in zip(got, want)) <= 1e-12
        with pytest.raises(DomainError, match=f"at n={n_max - 1} "):
            v_log_product(params(2 - n_max), n_max)

    @pytest.mark.parametrize(
        "kind,abc,p,theta",
        [
            ("general", (0.3, 0.7, 1.5), 2.5, 0.3),
            ("general", (_F(1, 3), _F(2, 5), _F(3, 2)), 0.5, _F(1, 2)),
            ("general", (_F(1, 3), _F(2, 5), _F(3, 2)), _F(1, 2), 0.5),
            ("general", (1, 2, 3), -1.5, -1),
            ("general", (-2.0, 0.4, -2.5), 3.0, -1.0),
            ("theta-1", (0.3, 0.7, 1.5), 2.5, None),
            ("theta-1", (_F(1, 3), _F(2, 5), _F(3, 2)), 0.5, None),
            ("theta-1", (-2.0, 0.4, -2.5), _F(3), None),
            ("theta1", (0.3, 0.7, 1.5), 2.5, None),
            ("theta1", (_F(1, 3), _F(2, 5), _F(3, 2)), 0.5, None),
            ("theta1", (0.3, 0.7, 1.5), _F(2), None),
            ("log", (0.3, 0.7, 1.5), None, None),
            ("log", (_F(1, 3), _F(2, 5), 1.5), None, None),
            ("log", (1, 0.4, 3), None, None),
        ],
        ids=[
            "general-float", "general-float-p", "general-float-theta", "general-int-abc-float-p",
            "general-float-terminating", "theta-1-float", "theta-1-float-p", "theta-1-float-abc",
            "theta1-float", "theta1-float-p", "theta1-float-abc", "log-float", "log-float-c",
            "log-int-and-float",
        ],
    )
    def test_float_and_mixed_paths_unchanged(self, kind, abc, p, theta):
        library, reference = RECURRENCES[kind]
        params = HypParams(*abc)
        got = library(params, p, theta, 40)
        assert all(type(v) is float for v in got)
        assert got == reference(params, p, theta, 40)

    def test_plain_int_inputs_stay_exact(self):
        cases = [
            (u_theta_minus1(HypParams(_F(1, 3), _F(2, 5), _F(3, 2)), 2, 4),
             WeightedSeriesSpec(HypParams(_F(1, 3), _F(2, 5), _F(3, 2)), 2, -1)),
            (u_general(WeightedSeriesSpec(HypParams(1, 2, 3), 2, 1), 4), WeightedSeriesSpec(HypParams(1, 2, 3), 2, 1)),
            (u_theta_plus1(HypParams(1, 2, 3), 2, 4), WeightedSeriesSpec(HypParams(1, 2, 3), 2, 1)),
            (v_log_product(HypParams(1, 2, 3), 4), LogProductSpec(HypParams(1, 2, 3))),
        ]
        for seq, spec in cases:
            assert all(type(v) is Fraction for v in seq.coeffs)
            assert seq.coeffs == cauchy_oracle(spec, 4).coeffs
        residuals = p_minus1_identity_residual(HypParams(1, 2, 3), 1, 4)
        assert all(type(r) is Fraction and r == 0 for r in residuals)


def _any_field(bound):
    """An int, a Fraction or a float in [-bound, bound], the zeros of each kind included."""
    return st.one_of(
        _prime_rationals(bound),
        st.integers(-bound, bound),
        st.floats(-bound, bound),
        st.sampled_from([0, Fraction(0), 0.0, -0.0]),
    )


def _bits(values):
    """Each value as its type and bits: float.hex for a float, numerator and denominator otherwise."""
    return [(type(v).__name__, v.hex() if type(v) is float else (v.numerator, v.denominator)) for v in values]


class TestSharedSeedsReference:
    """The shared seeds and rows give the bits and Fractions of each recurrence's own expressions.

    ``step_u_theta_minus1`` and ``step_u_theta_plus1`` write out each
    specialisation's seeds (u_1 = ab/c + p and ab/c - p, u_2 at theta = -1),
    and ``step_u_general`` a float loop that subtracts theta eta u_(n-1);
    exact, float and mixed fields are drawn, the exact and float zeros
    included.
    """

    @given(
        st.sampled_from(["general", "theta-1", "theta1"]),
        _any_field(3),
        _any_field(3),
        _any_field(4),
        _any_field(3),
        _any_field(1),
        st.integers(0, 12),
    )
    @settings(max_examples=400, deadline=None)
    def test_seeds_and_coefficients(self, kind, a, b, c, p, theta, n_max):
        try:
            params = HypParams(a, b, c)
        except ParameterError:
            assume(False)
        library, reference = RECURRENCES[kind]
        (got, got_err), (want, want_err) = (_outcome(f, params, p, theta, n_max) for f in (library, reference))
        assert got_err == want_err
        if got_err is not None:
            return
        float_field = not coeffrec.is_exact(a, b, c, p)
        if kind == "theta-1" and n_max >= 1 and float_field and type(p) is not float and p == 0:
            ab_c = a * b / c
            # The one exception: u_1 is u_general's ab/c - p theta at
            # theta = -1, so an exact zero p leaves ab/c's own zero sign where
            # the written-out ab/c + p gives +0.0; later zero coefficients
            # may follow u_1's sign.
            assert got[1].hex() == ab_c.hex()
            assert [type(v) for v in got] == [type(v) for v in want] and list(got) == list(want)
        else:
            assert _bits(got) == _bits(want)

    def test_theta_plus1_forms_no_u2(self):
        # At this exact p in a float field, u_2's p(p-1)/2 would not convert
        # to a float; the second-order recurrence needs only u_0 and u_1.
        params, p = HypParams(0.3, 0.7, 1.5), Fraction(10**200)
        assert _bits(u_theta_plus1(params, p, 3).coeffs) == _bits(step_u_theta_plus1(params, p, 3))


class TestCorollaries:
    def test_theta_minus1_literals(self):
        seq = u_theta_minus1(HypParams(1.0, 1.0, 2.0), 3.0, 2)
        assert seq.coeffs[1] == pytest.approx(0.5 + 3, abs=1e-14)
        assert seq.coeffs[2] == pytest.approx(3 + 1.5 + 1 / 3, abs=1e-14)

    def test_theta_minus1_matches_general(self):
        params = HypParams(0.4, 0.6, 1.1)
        spec = WeightedSeriesSpec(params, -0.5, -1.0)
        gen = u_general(spec, 15).coeffs
        cor = u_theta_minus1(params, -0.5, 15).coeffs
        for x, y in zip(cor, gen):
            assert abs(x - y) <= max(1e-14, 1e-12 * max(abs(x), abs(y)))

    @pytest.mark.parametrize("abc", PARAM_BOX_EXACT)
    def test_specializations_exact(self, abc):
        a, b, c = abc
        params = HypParams(a, b, c)
        for p in (Fraction(-1), Fraction(1, 2), Fraction(2)):
            assert (
                u_theta_minus1(params, p, 20).coeffs
                == u_general(WeightedSeriesSpec(params, p, Fraction(-1)), 20).coeffs
            )
            assert (
                u_theta_plus1(params, p, 20).coeffs
                == u_general(WeightedSeriesSpec(params, p, Fraction(1)), 20).coeffs
            )

    def test_second_order_satisfies_third_order(self):
        a, b, c, p = Fraction(3, 10), Fraction(7, 10), Fraction(3, 2), Fraction(2)
        u = u_theta_plus1(HypParams(a, b, c), p, 31).coeffs
        for n in range(2, 30):
            xi = (n + a) * (n + b) + (2 * n * n - 2 * n * (p - c + 1) - c * p)
            eta = (
                2 * n * n + 2 * (a + b - p - 2) * n - (a + b - 1) * p
                + 2 * (a - 1) * (b - 1) + (n - p - 1) * (n - p + c - 2)
            )
            lam = (n + a - p - 2) * (n + b - p - 2)
            rhs = (xi * u[n] - eta * u[n - 1] + lam * u[n - 2]) / ((n + 1) * (n + c))
            assert u[n + 1] == rhs

    def test_euler_transform_closed_form(self):
        # (1-x)^(a+b-c) F(a,b;c;x) = F(c-a,c-b;c;x), so u_n has the
        # Pochhammer-ratio closed form.
        a, b, c = 0.7, 0.9, 1.2
        u = u_theta_plus1(HypParams(a, b, c), a + b - c, 15).coeffs
        for n in range(16):
            closed = pochhammer(c - a, n) * pochhammer(c - b, n) / (
                math.factorial(n) * pochhammer(c, n)
            )
            assert rel_with_floor(u[n], closed) <= 1e-11

    def test_binomial_closed_form(self):
        # c = b: F(a,b;b;x) = (1-x)^(-a), so u_n = (a-p)_n / n!.
        a, b, c, p = Fraction(2, 5), Fraction(11, 10), Fraction(11, 10), Fraction(1, 2)
        u = u_theta_plus1(HypParams(a, b, c), p, 12).coeffs
        for n in range(13):
            assert u[n] == pochhammer(a - p, n) / math.factorial(n)

    def test_degenerate_c_equals_a_ratio(self):
        a, b, c, p = Fraction(3, 2), Fraction(4, 5), Fraction(3, 2), Fraction(3, 10)
        u = u_theta_plus1(HypParams(a, b, c), p, 12).coeffs
        for n in range(1, 12):
            assert u[n] == (n - 1 + b - p) * u[n - 1] / n

    def test_elliptic_regression_vector(self):
        # (1-x)^(p/2) F(1/2,1/2;1;x): published seeds a_0=1, a_1=1/4-p/2 and
        # the 4n^2-denominator recurrence, checked at p in {1, 3}.
        for p in (1, 3):
            lit = [Fraction(1), Fraction(1, 4) - Fraction(p, 2)]
            for n in range(2, 11):
                lit.append(
                    Fraction(8 * n * n - 4 * (p + 3) * n + 2 * p + 5, 4 * n * n) * lit[n - 1]
                    - Fraction((p - 2 * n + 3) ** 2, 4 * n * n) * lit[n - 2]
                )
            mapped = u_theta_plus1(
                HypParams(Fraction(1, 2), Fraction(1, 2), Fraction(1)), Fraction(p, 2), 10
            ).coeffs
            assert tuple(lit) == mapped
        assert mapped[1] == Fraction(1, 4) - Fraction(3, 2)

    def test_ratio_weight_positivity(self):
        for alpha, beta_ in ((Fraction(9, 10), Fraction(1, 5)), (Fraction(1, 3), Fraction(3, 2))):
            c = 2 * beta_ + 1
            u = u_theta_plus1(HypParams(alpha, beta_, c), -alpha / c, 40).coeffs
            assert all(x > 0 for x in u)


class TestLogProduct:
    def test_seeds(self):
        seq = v_log_product(HypParams(0.3, 0.7, 1.5), 1)
        assert seq.coeffs[0] == 0.0
        assert seq.coeffs[1] == -1.0

    def test_exact_convolution_112(self):
        params = HypParams(Fraction(1), Fraction(1), Fraction(2))
        rec = v_log_product(params, 20).coeffs
        w = hyp_series_coeffs(params, 20)
        oracle = tuple(
            -sum((Fraction(1, k) * w[n - k] for k in range(1, n + 1)), start=Fraction(0))
            for n in range(21)
        )
        assert rec == oracle
        assert rec == cauchy_oracle(LogProductSpec(params), 20).coeffs

    @pytest.mark.parametrize("abc", PARAM_BOX)
    def test_float_box_vs_oracle(self, abc):
        params = HypParams(*abc)
        rec = v_log_product(params, 20).coeffs
        orc = cauchy_oracle(LogProductSpec(params), 20).coeffs
        assert max(rel_with_floor(x, y) for x, y in zip(rec, orc)) <= 1e-11

    def test_denominator_guard(self):
        with pytest.raises(DomainError):
            v_log_product(HypParams(0.0, 0.7, 1.5), 5)

    def test_partial_sum_consistency(self):
        params = HypParams(0.3, 0.7, 1.5)
        x = 0.3
        total = partial_sum(v_log_product(params, 60), x)
        direct = math.log1p(-x) * hyp2f1(params, x, 1e-14).value
        assert abs(total - direct) <= 1e-8


class TestIdentitiesAndRegressions:
    def test_p_minus1_exact(self):
        res = p_minus1_identity_residual(
            HypParams(Fraction(1), Fraction(1), Fraction(2)), Fraction(1, 2), 10
        )
        assert all(r == 0 for r in res)

    def test_p_minus1_theta_zero_trivial(self):
        res = p_minus1_identity_residual(HypParams(0.3, 0.7, 1.5), 0.0, 10)
        assert max(abs(r) for r in res) <= 1e-16

    def test_p_minus1_float(self):
        res = p_minus1_identity_residual(HypParams(0.3, 0.7, 1.5), -1.0, 20)
        assert max(abs(r) for r in res) <= 1e-12

    def test_published_pair_documented_divergence(self):
        literal, oracle = published_recurrence_pair(Fraction(1), 10)
        assert literal.coeffs[0] == 1 and oracle.coeffs[0] == 1
        assert literal.coeffs[1] == Fraction(7, 8)
        assert oracle.coeffs[1] == Fraction(9, 8)
        assert literal.coeffs != oracle.coeffs

    def test_published_pair_oracle_seed_formula(self):
        # oracle u_1 = ab/c - p*theta = 1/8 + q for any q
        for q in (Fraction(0), Fraction(2), Fraction(-1, 3)):
            _, oracle = published_recurrence_pair(q, 3)
            assert oracle.coeffs[1] == Fraction(1, 8) + q

    def test_published_pair_needs_two_terms(self):
        with pytest.raises(DomainError):
            published_recurrence_pair(1.0, 1)

    def test_partial_sum_weighted(self):
        params = HypParams(0.3, 0.7, 1.5)
        x = 0.3
        seq = u_theta_plus1(params, 2.0, 60)
        direct = (1 - x) ** 2.0 * hyp2f1(params, x, 1e-14).value
        assert abs(partial_sum(seq, x) - direct) <= 1e-8

    def test_partial_sum_at_zero(self):
        seq = u_general(spec_of(0.3, 0.7, 1.5, 2.0, 0.5), 5)
        assert partial_sum(seq, 0.0) == seq.coeffs[0]


class TestValidationAndSerialization:
    def test_theta_range_enforced(self):
        with pytest.raises(DomainError):
            spec_of(1.0, 1.0, 2.0, 0.0, 1.5)

    def test_n_cap(self):
        with pytest.raises(DomainError):
            u_general(spec_of(1.0, 1.0, 2.0, 0.0, 0.0), coeffrec.MAX_N + 1)
        with pytest.raises(DomainError):
            u_general(spec_of(1.0, 1.0, 2.0, 0.0, 0.0), -1)

    def test_leading_coefficient_invariant(self):
        with pytest.raises(ValueError):
            CoeffSequence(spec_of(1.0, 1.0, 2.0, 0.0, 0.0), (0.5,), Method.RECURRENCE)
        with pytest.raises(ValueError):
            CoeffSequence(LogProductSpec(HypParams(1, 1, 2)), (1.0,), Method.RECURRENCE)

    def test_format_number(self):
        assert format_number(0.1) == "0.1"
        assert format_number(-0.86) == "-0.86"
        assert format_number(Fraction(-43, 50)) == "-43/50"
        assert float(format_number(1 / 3)) == 1 / 3

    def test_json_round_trip(self, capsys):
        seq = u_general(spec_of(0.3, 0.7, 1.5, 2.0, 0.5), 4)
        payload = json.loads(coeffs_output(capsys, "json", *CLI_SPEC, "--n", "4"))
        assert payload["method"] == "recurrence"
        assert payload["spec"]["kind"] == "weighted"
        assert [float(s) for s in payload["coeffs"]] == [float(v) for v in seq.coeffs]
        assert list(payload) == sorted(payload)

    def test_json_rational_rendering(self, capsys):
        seq = u_general(
            spec_of(Fraction(3, 10), Fraction(7, 10), Fraction(3, 2), Fraction(2), Fraction(1, 2)),
            2,
        )
        flags = ("--a", "3/10", "--b", "7/10", "--c", "3/2", "--p", "2/1", "--theta", "1/2", "--n", "2")
        payload = json.loads(coeffs_output(capsys, "json", *flags))
        assert payload["coeffs"][1] == "-43/50"
        assert all(Fraction(s) == v for s, v in zip(payload["coeffs"], seq.coeffs))

    def test_csv_shape(self, capsys):
        lines = coeffs_output(capsys, "csv", *CLI_SPEC, "--n", "10").splitlines()
        assert lines[0] == "n,u_n"
        assert len(lines) == 12
        assert lines[1] == "0,1.0"
        assert float(lines[2].split(",")[1]) == pytest.approx(-0.86, abs=1e-15)

    def test_log_spec_json_kind(self, capsys):
        flags = ("--family", "log", "--a", "1.0", "--b", "1.0", "--c", "2.0", "--n", "3")
        assert json.loads(coeffs_output(capsys, "json", *flags))["spec"]["kind"] == "log-product"
