"""Gamma-family special functions: the numerical bedrock for everything else.

All functions are restricted to positive real arguments (the only regime the
rest of the package needs); negative arguments raise :class:`DomainError`.
The Pochhammer symbol is the exception: it is a finite product, defined for
every real ``a`` and computed without going through the gamma function, so it
stays exact when fed :class:`fractions.Fraction` values.
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


def r_zero_balanced(a: float, b: float) -> float:
    """R(a, b) = -2*gamma - psi(a) - psi(b), the zero-balanced constant.

    This is the constant governing the logarithmic behavior of F(a,b;a+b;x)
    as x -> 1.
    """
    _require_positive("a", a)
    _require_positive("b", b)
    return -2.0 * EULER_GAMMA - digamma(a) - digamma(b)
