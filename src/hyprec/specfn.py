"""Gamma-family special functions: the numerical bedrock for everything else.

All functions are restricted to positive real arguments (the only regime the
rest of the package needs); negative arguments raise :class:`DomainError`.
There are two exceptions.  The Pochhammer symbol is a finite product, defined
for every real ``a`` and computed without going through the gamma function,
so it stays exact when fed :class:`fractions.Fraction` values.  The gamma
ratio of the 1 - x connection formula takes any real argument off the poles
of its numerator, since that formula's gamma arguments go negative.

Everything here rests on the standard library's ``math`` module:
``math.lgamma`` for the gamma family, a recurrence plus asymptotic series
for ``digamma``, and Stirling's series for the ln Gamma difference that
``beta`` needs beside a large argument.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = [
    "EULER_GAMMA",
    "pochhammer",
    "ln_gamma",
    "digamma",
    "beta",
    "gamma_ratio",
    "gamma_ratio_logs",
    "scaled_gamma_ratio",
    "r_zero_balanced",
]

#: Euler-Mascheroni constant, full double precision.
EULER_GAMMA = 0.5772156649015328606065120900824024


def _require_positive(name: str, x) -> None:
    if not x > 0:
        raise DomainError(f"{name} must be positive, got {x!r}")


def pochhammer(a, n: int):
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1 for all a.

    Works for int, float and Fraction alike; the result stays exact for exact
    inputs.  Negative ``a`` is handled combinatorially (the product simply
    terminates or changes sign), never via gamma ratios.
    """
    if n < 0:
        raise DomainError(f"pochhammer order must be a nonnegative integer, got {n}")
    result = 1
    for k in range(n):
        result = result * (a + k)
    return result


def ln_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    _require_positive("x", x)
    return math.lgamma(x)


#: B_2k / (2k) for k = 1..12, the coefficients of the asymptotic series
#: psi(x) ~ ln x - 1/(2x) - sum_k B_2k / (2k x^(2k)).  At x >= 6 the twelfth
#: term is below 1e-17 and the series is within 2 ulp of psi.
_DIGAMMA_ASYMPTOTIC = (
    1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760,
    1 / 12, -3617 / 8160, 43867 / 14364, -174611 / 6600, 77683 / 276, -236364091 / 65520,
)


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) for x > 0.

    The recurrence psi(x) = psi(x + 1) - 1/x carries x up to 6, where the
    asymptotic series takes over; the pieces are added with ``math.fsum``.
    On 1e-8 <= x <= 1e4 it is within about 2 ulp of psi where |psi| >= 1,
    and within about 2 ulp of 1 in absolute terms where |psi| < 1, around
    the root at 1.4616, where the recurrence cancels.
    """
    _require_positive("x", x)
    x = float(x)
    parts = []
    while x < 6.0:
        parts.append(-1.0 / x)
        x += 1.0
    z = 1.0 / (x * x)
    series = 0.0
    for coefficient in reversed(_DIGAMMA_ASYMPTOTIC):
        series = series * z + coefficient
    parts += [math.log(x), -0.5 / x, -series * z]
    return math.fsum(parts)


#: ``_ln_gamma_drop`` takes Stirling's series from this x on, where its
#: terms through x^-7 leave less than 1e-18 of ln Gamma(x) out.
_STIRLING_X = 85.0

#: Coefficients B_2k / (2k (2k-1)) of Stirling's series for ln Gamma(x),
#: k = 1..4, the terms of x^-1, x^-3, x^-5 and x^-7.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680)


def _stirling_tail(x: float) -> float:
    """ln Gamma(x) - (x - 1/2) ln x + x - ln(2 pi) / 2 for x >= ``_STIRLING_X``."""
    z = 1.0 / (x * x)
    series = 0.0
    for coefficient in reversed(_STIRLING):
        series = series * z + coefficient
    return series / x


def _ln_gamma_drop(hi: float, lo: float) -> float:
    """ln Gamma(hi) - ln Gamma(hi + lo) for hi >= ``_STIRLING_X`` and 0 < lo <= hi.

    Stirling's series for both, with r = lo/hi, leaves

        -lo ln hi + hi (r - log1p(r)) - (lo - 1/2) log1p(r) + S(hi) - S(hi + lo),

    S the series' tail (``_stirling_tail``).  No term is as large as
    ln Gamma(hi), so the difference keeps the digits that subtracting two
    ``math.lgamma`` values loses (all of them at lo = 1e-3, hi = 1e16), and
    hi up to the largest double forms no overflowing term.
    """
    r = lo / hi
    log1p_r = math.log1p(r)
    return (
        -lo * math.log(hi)
        + hi * (r - log1p_r)
        - (lo - 0.5) * log1p_r
        + (_stirling_tail(hi) - _stirling_tail(hi + lo))
    )


def beta(z: float, w: float) -> float:
    """Beta function B(z, w) = Gamma(z) Gamma(w) / Gamma(z+w), z, w > 0.

    Below z + w = 171 it is a ratio of ``math.gamma`` values, good to a few
    ulp, taken as Gamma(hi) / Gamma(z+w) * Gamma(lo) so that no factor
    overflows.  Above, or for an argument under 1e-300, it goes through
    logarithms so large arguments cannot overflow: ln Gamma(lo) plus
    ln Gamma(hi) - ln Gamma(lo + hi), the latter from Stirling's series
    (``_ln_gamma_drop``) once hi >= ``_STIRLING_X``, and else from
    ``ln_gamma``.  exp of the sum loses digits in proportion to the size of
    its terms (4.5e-14 at z = w = 27.5), but the drop is never as large as
    ln Gamma(hi), so a small lo beside a huge hi keeps its digits:
    B(1e-3, 1e308) = 491.756.  Either way the arguments are ordered first,
    so ``beta(z, w) == beta(w, z)`` bit for bit.
    """
    _require_positive("z", z)
    _require_positive("w", w)
    lo, hi = (z, w) if z <= w else (w, z)
    if lo + hi < 171.0 and lo > 1e-300:
        return math.gamma(hi) / math.gamma(lo + hi) * math.gamma(lo)
    if hi >= _STIRLING_X:
        return math.exp(ln_gamma(lo) + _ln_gamma_drop(hi, lo))
    return math.exp(ln_gamma(lo) + ln_gamma(hi) - ln_gamma(lo + hi))


def gamma_ratio(num, den, log_scale: float) -> tuple[float, float]:
    """exp(log_scale) prod Gamma(num) / prod Gamma(den), and the size of its log.

    Built from ``math.lgamma`` and the signs, so a large ratio times a small
    scale does not overflow.  Arguments may be negative: 1/Gamma is 0 at the
    poles of ``den``, and a pole in ``num`` raises :class:`DomainError`.  The
    size, the sum of |ln|Gamma||, times the unit roundoff estimates the
    relative error of the ratio.  It is ``gamma_ratio_logs`` and
    ``scaled_gamma_ratio`` in one call; a caller that scales one ratio many
    ways takes the logs once and scales them per use.
    """
    sign, logs = gamma_ratio_logs(num, den)
    return scaled_gamma_ratio(sign, logs, log_scale), math.fsum(map(abs, logs))


def gamma_ratio_logs(num, den) -> tuple[int, list[float]]:
    """The sign and the ln|Gamma| terms of prod Gamma(num) / prod Gamma(den).

    The sign is 0, with no terms, at a pole of ``den``; a pole in ``num``
    raises :class:`DomainError`.  One pass over ``num``, then ``den``, finds
    the poles and the sign (alternating on (-n-1, -n)) before any lgamma.
    """
    sign = 1
    for z in num:
        if not z > 0:
            whole = math.floor(z)
            if z == whole:
                raise DomainError(f"Gamma has a pole at {z!r} in the numerator")
            if whole % 2:
                sign = -sign
    for z in den:
        if not z > 0:
            whole = math.floor(z)
            if z == whole:
                return 0, []
            if whole % 2:
                sign = -sign
    return sign, [math.lgamma(z) for z in num] + [-math.lgamma(z) for z in den]


def scaled_gamma_ratio(sign: int, logs: list[float], log_scale: float) -> float:
    """exp(log_scale) times the gamma ratio of ``gamma_ratio_logs``' sign and terms.

    The rule ``gamma_ratio`` rounds by: the scale and the terms are summed
    with ``math.fsum``, correctly rounded, and exponentiated once.
    """
    if not sign:
        return 0.0
    return sign * math.exp(math.fsum([log_scale, *logs]))


def r_zero_balanced(a: float, b: float) -> float:
    """R(a, b) = -2*gamma - psi(a) - psi(b), the zero-balanced constant.

    This is the constant governing the logarithmic behavior of F(a,b;a+b;x)
    as x -> 1.  The three terms are added with ``math.fsum``, which rounds
    once and in no particular order, so R(a, b) == R(b, a) bit for bit.
    """
    _require_positive("a", a)
    _require_positive("b", b)
    return math.fsum((-2.0 * EULER_GAMMA, -digamma(a), -digamma(b)))
