"""Gamma-family special functions: the numerical bedrock for everything else.

All functions are restricted to positive real arguments (the only regime the
rest of the package needs); negative arguments raise :class:`DomainError`.
There are two exceptions.  The Pochhammer symbol is a finite product, defined
for every real ``a`` and computed without going through the gamma function,
so it stays exact when fed :class:`fractions.Fraction` values.  The gamma
ratio of the 1 - x connection formula takes any real argument off the poles
of its numerator, since that formula's gamma arguments go negative.
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


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) for x > 0."""
    _require_positive("x", x)
    import scipy.special  # imported on first use: it costs about half a second of start-up

    return float(scipy.special.digamma(x))


def beta(z: float, w: float) -> float:
    """Beta function B(z, w) = Gamma(z) Gamma(w) / Gamma(z+w), z, w > 0.

    Evaluated through ``ln_gamma`` so large arguments cannot overflow, and in
    an order symmetric in (z, w) so ``beta(z, w) == beta(w, z)`` bit for bit.
    """
    _require_positive("z", z)
    _require_positive("w", w)
    return math.exp(ln_gamma(z) + ln_gamma(w) - ln_gamma(z + w))


def _is_pole(z) -> bool:
    return z <= 0 and z == math.floor(z)


def _gamma_sign(z) -> int:
    """Sign of Gamma(z) off its poles: +1 for z > 0, alternating on (-n-1, -n)."""
    return 1 if z > 0 or math.floor(z) % 2 == 0 else -1


def gamma_ratio(num, den, log_scale: float) -> tuple[float, float]:
    """exp(log_scale) prod Gamma(num) / prod Gamma(den), and the size of its log.

    Built from ``math.lgamma`` and the signs, so a large ratio times a small
    scale does not overflow.  Arguments may be negative: 1/Gamma is 0 at the
    poles of ``den``, and a pole in ``num`` raises :class:`DomainError`.  The
    size, the sum of |ln|Gamma||, times the unit roundoff estimates the
    relative error of the ratio.
    """
    for z in num:
        if _is_pole(z):
            raise DomainError(f"Gamma has a pole at {z!r} in the numerator")
    if any(_is_pole(z) for z in den):
        return 0.0, 0.0
    logs = [math.lgamma(z) for z in num] + [-math.lgamma(z) for z in den]
    sign = math.prod(_gamma_sign(z) for z in (*num, *den))
    return sign * math.exp(math.fsum([log_scale, *logs])), math.fsum(map(abs, logs))


def r_zero_balanced(a: float, b: float) -> float:
    """R(a, b) = -2*gamma - psi(a) - psi(b), the zero-balanced constant.

    This is the constant governing the logarithmic behavior of F(a,b;a+b;x)
    as x -> 1.
    """
    _require_positive("a", a)
    _require_positive("b", b)
    return -2.0 * EULER_GAMMA - digamma(a) - digamma(b)
