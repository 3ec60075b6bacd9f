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


def _is_pole(z) -> bool:
    return z <= 0 and z == math.floor(z)


def _gamma_sign(z) -> int:
    """Sign of Gamma(z) off its poles: +1 for z > 0, alternating on (-n-1, -n)."""
    return 1 if z > 0 or math.floor(z) % 2 == 0 else -1


def _two_pass_gamma_ratio_logs(num, den) -> tuple[int, list[float]]:
    """``specfn.gamma_ratio_logs`` as it read before its one-pass form, kept verbatim as a reference."""
    for z in num:
        if _is_pole(z):
            raise DomainError(f"Gamma has a pole at {z!r} in the numerator")
    if any(_is_pole(z) for z in den):
        return 0, []
    logs = [math.lgamma(z) for z in num] + [-math.lgamma(z) for z in den]
    return math.prod(_gamma_sign(z) for z in (*num, *den)), logs


def _outcome(fn, num, den):
    """fn's sign and logs as bits, or the type and message of what it raised."""
    try:
        sign, logs = fn(num, den)
    except Exception as exc:  # noqa: BLE001 - the failure itself is compared
        return type(exc), str(exc)
    return sign, [v.hex() for v in logs]


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

    @pytest.mark.parametrize(
        "num, den",
        [((2.5,), (0.5,)), ((-0.5, 3.2), (-1.5,)), ((-2.3,), (-3.7, 1.1)), ((1.5,), (0.0, 2.0))],
    )
    @pytest.mark.parametrize("log_scale", [0.0, -700.0, 3.7 * math.log(1e-9), -math.inf])
    def test_gamma_ratio_is_its_logs_scaled(self, num, den, log_scale):
        # One set of logs scaled many ways, as the connection formula scales
        # B by y^(c-a-b) at each point, gives gamma_ratio bit for bit.
        sign, logs = specfn.gamma_ratio_logs(num, den)
        value, size = specfn.gamma_ratio(num, den, log_scale)
        assert specfn.scaled_gamma_ratio(sign, logs, log_scale).hex() == value.hex()
        assert size == math.fsum(map(abs, logs))

    def test_gamma_ratio_logs_at_poles(self):
        assert specfn.gamma_ratio_logs((1.5,), (-3.0,)) == (0, [])
        assert specfn.scaled_gamma_ratio(0, [], math.inf) == 0.0
        with pytest.raises(DomainError):
            specfn.gamma_ratio_logs((-2.0,), (1.0,))

    @given(
        *[
            st.lists(
                st.one_of(
                    st.floats(allow_nan=False),
                    st.floats(-30, 30),
                    st.integers(-6, 6).map(float),
                    st.integers(-6, 6),
                    st.sampled_from([1e308, -1e308, 1e306, -1e15 - 0.5, math.inf, -math.inf, -0.5]),
                ),
                max_size=4,
            )
        ]
        * 2
    )
    @settings(max_examples=500, deadline=None)
    def test_gamma_ratio_logs_matches_the_two_pass_form(self, num, den):
        # Poles, signs, logs, and every exception with its message.  A NaN
        # raises ValueError in both, though not always first among the
        # failures of a list, so it is checked alone below.
        assert _outcome(specfn.gamma_ratio_logs, num, den) == _outcome(_two_pass_gamma_ratio_logs, num, den)

    @pytest.mark.parametrize("num, den", [((math.nan,), (1.5,)), ((2.5,), (-0.5, math.nan))])
    def test_gamma_ratio_logs_rejects_nan_as_the_two_pass_form(self, num, den):
        assert _outcome(specfn.gamma_ratio_logs, num, den) == _outcome(_two_pass_gamma_ratio_logs, num, den)

    def test_beta_domain_errors(self):
        with pytest.raises(DomainError):
            specfn.beta(0.0, 1.0)
        with pytest.raises(DomainError):
            specfn.r_zero_balanced(1.0, -2.0)


_EPS = 2.0**-52


class TestAgainstMpmath:
    def test_digamma_within_a_few_ulp(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        xs = [10.0 ** (-8 + 12 * i / 1200) for i in range(1201)]
        xs += [1.4616321449683622 + (i - 100) * 1e-3 for i in range(201)]
        for x in xs:
            ref = mpmath.digamma(mpmath.mpf(x))
            # Relative where |psi| >= 1, absolute near the root at 1.4616,
            # where the recurrence cancels to a few ulp of 1.
            assert abs(specfn.digamma(x) - ref) <= 4 * _EPS * max(abs(ref), 1), x

    def test_symmetric_beta_within_a_few_ulp(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        # B(b, b), the mean's normalisation; 2b is exact, so the only error
        # is the function's own.
        for i in range(301):
            b = 0.05 * (85.0 / 0.05) ** (i / 300)
            ref = mpmath.beta(b, b)
            assert abs(specfn.beta(b, b) - ref) <= 8 * _EPS * ref, b

    @pytest.mark.parametrize(
        "lo, hi",
        [(1e-3, 1e12), (1e-3, 1e16), (1e-3, 1e308), (0.5, 1e300), (2.5, 1e6)],
    )
    def test_small_beside_huge_beta(self, lo, hi):
        # Subtracting ln Gamma(hi + lo) from ln Gamma(hi) lost every digit of
        # these.  mpmath's own beta at 60 digits returns Gamma(lo) for the
        # last two, so the reference is exp of loggamma differences at 400.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(400):
            lo_mp, hi_mp = mpmath.mpf(lo), mpmath.mpf(hi)
            ref = mpmath.exp(mpmath.loggamma(lo_mp) + mpmath.loggamma(hi_mp) - mpmath.loggamma(lo_mp + hi_mp))
            for value in (specfn.beta(lo, hi), specfn.beta(hi, lo)):
                assert abs(value - ref) <= 1e-12 * ref

    def test_large_beta_within_digits_of_its_exponent(self):
        # From z + w = 171, B = exp(ln B) loses about ulp * |ln B| and no
        # more, over small and huge arguments and nearly equal ones.
        mpmath = pytest.importorskip("mpmath")
        cases = [
            (lo, hi)
            for lo in (1e-6, 1e-3, 0.5, 2.5, 30.0, 100.0, 300.0, 1e3)
            for hi in (171.0 - lo, lo, 1.5 * lo, 1e3, 1e6, 1e12, 1e30, 1e100, 1e300)
            if lo <= hi and lo + hi >= 171.0
        ]
        assert len(cases) > 50
        for lo, hi in cases:
            with mpmath.workdps(400):
                lo_mp, hi_mp = mpmath.mpf(lo), mpmath.mpf(hi)
                ln_ref = mpmath.loggamma(lo_mp) + mpmath.loggamma(hi_mp) - mpmath.loggamma(lo_mp + hi_mp)
                ref = mpmath.exp(ln_ref)
                if ref < 1e-300:
                    continue
                assert abs(specfn.beta(lo, hi) - ref) <= 4 * _EPS * (abs(ln_ref) + 8) * ref, (lo, hi)


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

    @given(st.floats(min_value=-300, max_value=305), st.floats(min_value=-300, max_value=305))
    @settings(max_examples=200)
    def test_beta_symmetry_bitwise_over_the_double_range(self, log_z, log_w):
        z, w = 10.0**log_z, 10.0**log_w
        try:
            forward = specfn.beta(z, w)
        except OverflowError:
            with pytest.raises(OverflowError):
                specfn.beta(w, z)
            return
        assert forward.hex() == specfn.beta(w, z).hex()

    @given(st.floats(min_value=1e-300, max_value=170.0), st.floats(min_value=1e-300, max_value=170.0))
    @settings(max_examples=300)
    def test_beta_below_171_is_the_gamma_ratio(self, z, w):
        # Below z + w = 171 (and above 1e-300) beta is this ratio, bit for bit.
        lo, hi = sorted((z, w))
        if lo + hi >= 171.0 or lo <= 1e-300:
            return
        assert specfn.beta(z, w).hex() == (math.gamma(hi) / math.gamma(lo + hi) * math.gamma(lo)).hex()

    def test_r_symmetry(self):
        assert specfn.r_zero_balanced(0.3, 1.7) == specfn.r_zero_balanced(1.7, 0.3)

    def test_euler_gamma_value(self):
        assert abs(specfn.EULER_GAMMA - 0.5772156649015329) < 1e-15
