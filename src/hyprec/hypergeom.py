"""Gauss hypergeometric series F(a,b;c;x) and its behavior near x = 1.

The series is summed directly on |x| < 1.  Behavior at or near x = 1 is
deliberately split into the three classical regimes, each with its own
entry point:

* ``gauss_value_at_one``       -- c > a+b, the finite Gauss value,
* ``zero_balanced_asymptote``  -- c = a+b, the logarithmic asymptote,
* ``euler_transform_eval``     -- c < a+b, via the Euler transformation
  F(a,b;c;x) = (1-x)^(c-a-b) F(c-a,c-b;c;x).

``hyp2f1`` itself refuses |x| >= 1 so that each regime remains an explicit,
separately testable code path.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

from . import specfn
from .errors import DomainError, NonConvergence, ParameterError

__all__ = [
    "DEFAULT_TERM_CAP",
    "HypParams",
    "EvalResult",
    "term_cap",
    "hyp2f1",
    "hyp2f1_derivative",
    "gauss_value_at_one",
    "zero_balanced_asymptote",
    "euler_transform_eval",
    "contiguous_residual",
    "df_relation_residuals",
]

DEFAULT_TERM_CAP = 100_000
TERM_CAP_ENV = "HYPREC_TERM_CAP"


def term_cap() -> int:
    """Series term cap; override with the HYPREC_TERM_CAP environment variable."""
    raw = os.environ.get(TERM_CAP_ENV)
    if raw is None:
        return DEFAULT_TERM_CAP
    cap = int(raw)
    if cap <= 0:
        raise DomainError(f"{TERM_CAP_ENV} must be a positive integer, got {raw!r}")
    return cap


#: Floating c within this distance of 0, -1, -2, ... counts as sitting on a pole.
POLE_TOL = 1e-12


def _require_off_poles(c, tol: float) -> None:
    """Reject c = 0, -1, -2, ...: exactly for int and Fraction c, within tol for floating c."""
    if isinstance(c, (int, Fraction)):
        on_pole = c <= 0 and c.denominator == 1
    else:
        if not math.isfinite(c):
            raise ParameterError(f"c must be finite, got c={c!r}")
        nearest = round(c)
        on_pole = nearest <= 0 and (c == nearest or abs(c - nearest) < tol)
    if on_pole:
        raise ParameterError(
            f"c={c!r} is (within {tol:g}) zero or a negative integer, "
            "which is outside the parameter domain"
        )


@dataclass(frozen=True)
class HypParams:
    """Parameter triple (a, b, c) of F(a,b;c;x); c must not be 0, -1, -2, ...

    Floating c is also rejected within ``POLE_TOL`` of those poles, where the
    series terms blow up and the result carries no accuracy.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        _require_off_poles(self.c, POLE_TOL)

    @classmethod
    def _derived(cls, a, b, c) -> "HypParams":
        """Parameters the library derives itself, checked against exact poles only.

        Such a c (for instance c = 2b of a mean with tiny b > 0) is never a
        pole, and the series stays well conditioned there, so the near-pole
        tolerance meant for caller input must not reject it.
        """
        _require_off_poles(c, 0.0)
        params = object.__new__(cls)
        for name, value in zip("abc", (a, b, c)):
            object.__setattr__(params, name, value)
        return params

    def shift_a(self, delta: int) -> "HypParams":
        return HypParams(self.a + delta, self.b, self.c)


@dataclass(frozen=True)
class EvalResult:
    """A value plus an a-posteriori truncation bound and the term count used."""

    value: float
    error_bound: float
    terms_used: int

    def __post_init__(self):
        if self.error_bound < 0:
            raise ValueError("error_bound must be nonnegative")
        if self.terms_used < 1:
            raise ValueError("terms_used must be at least 1")


def hyp2f1(params: HypParams, x: float, tol: float = 1e-12) -> EvalResult:
    """Sum the series F(a,b;c;x) = sum (a)_n (b)_n / ((c)_n n!) x^n on |x| < 1.

    Stops once three consecutive terms satisfy |term| <= tol*|partial sum|
    while the term ratio stays below 1 in magnitude; this guards against a
    premature stop at a sign change or at an early zero term when a or b sits
    next to a negative integer.  The reported ``error_bound`` is the geometric
    tail bound |last term| * rho / (1 - rho) with rho the last term ratio.
    When a or b is a nonpositive integer the series terminates and the result
    is exact up to rounding (error_bound 0).
    """
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    if abs(x) >= 1:
        raise DomainError(f"series evaluation requires |x| < 1, got x={x!r}")
    a, b, c = params.a, params.b, params.c
    x = float(x)
    cap = term_cap()
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
        if abs(term) <= tol * abs(total) and ratio < 1.0:
            streak += 1
            if streak >= 3:
                bound = abs(term) * ratio / (1.0 - ratio)
                return EvalResult(total, bound, n + 1)
        else:
            streak = 0
    raise NonConvergence(
        f"F({a},{b};{c};{x}) did not meet the tail criterion within {cap} terms"
    )


def hyp2f1_derivative(params: HypParams, x: float, tol: float = 1e-12) -> EvalResult:
    """dF/dx via the differentiation formula F' = (ab/c) F(a+1,b+1;c+1;x)."""
    a, b, c = params.a, params.b, params.c
    scale = a * b / c
    inner = hyp2f1(HypParams(a + 1, b + 1, c + 1), x, tol)
    return EvalResult(scale * inner.value, abs(scale) * inner.error_bound, inner.terms_used)


def gauss_value_at_one(params: HypParams) -> float:
    """F(a,b;c;1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)) for c > a+b.

    All four gamma arguments must be positive; anything else raises
    :class:`DomainError` rather than silently extending the domain.
    """
    a, b, c = params.a, params.b, params.c
    if not c > a + b:
        raise DomainError(f"value at 1 requires c > a+b, got c-a-b={c - a - b!r}")
    for name, arg in (("c", c), ("c-a-b", c - a - b), ("c-a", c - a), ("c-b", c - b)):
        if not arg > 0:
            raise DomainError(f"gamma argument {name}={arg!r} must be positive")
    return math.exp(
        specfn.ln_gamma(c)
        + specfn.ln_gamma(c - a - b)
        - specfn.ln_gamma(c - a)
        - specfn.ln_gamma(c - b)
    )


def zero_balanced_asymptote(a: float, b: float, x: float) -> float:
    """Leading behavior (R(a,b) - ln(1-x)) / B(a,b) of F(a,b;a+b;x) as x -> 1.

    Valid for a, b > 0 and 0 < x < 1; the neglected remainder is
    O((1-x) ln(1-x)), so the approximation is only meaningful near x = 1.
    """
    if not 0 < x < 1:
        raise DomainError(f"asymptote requires 0 < x < 1, got x={x!r}")
    return (specfn.r_zero_balanced(a, b) - math.log1p(-x)) / specfn.beta(a, b)


def euler_transform_eval(params: HypParams, x: float, tol: float = 1e-12) -> EvalResult:
    """Evaluate F(a,b;c;x) as (1-x)^(c-a-b) F(c-a,c-b;c;x).

    The transformed series converges where the direct one does; for c < a+b it
    additionally exposes the (1-x)^(c-a-b) blow-up explicitly, which is the
    point of using it near x = 1.
    """
    a, b, c = params.a, params.b, params.c
    if abs(x) >= 1:
        raise DomainError(f"Euler transform evaluation requires |x| < 1, got x={x!r}")
    weight = (1.0 - x) ** (c - a - b)
    inner = hyp2f1(HypParams(c - a, c - b, c), x, tol)
    return EvalResult(weight * inner.value, weight * inner.error_bound, inner.terms_used)


def contiguous_residual(params: HypParams, x: float, tol: float = 1e-12) -> float:
    """Residual of the Gauss contiguous relation

        (c-a) F(a-1,b;c;x) + (2a-c-ax+bx) F(a,b;c;x) + a(x-1) F(a+1,b;c;x) = 0.

    Returns the left-hand side; callers assert it is numerically small.
    """
    a, b, c = params.a, params.b, params.c
    f_minus = hyp2f1(params.shift_a(-1), x, tol).value
    f_mid = hyp2f1(params, x, tol).value
    f_plus = hyp2f1(params.shift_a(+1), x, tol).value
    return (c - a) * f_minus + (2 * a - c - a * x + b * x) * f_mid + a * (x - 1) * f_plus


def df_relation_residuals(params: HypParams, x: float, tol: float = 1e-12) -> tuple[float, float]:
    """Residuals of the two derivative relations for F and F(a-1,b;c;x):

        dF/dx      = ((c-a) F_(a-) + (a-c+bx) F) / (x(1-x))
        dF_(a-)/dx = (a-1)/x * (F - F_(a-))

    Derivatives on the left are computed via ``hyp2f1_derivative``; the pair
    (lhs - rhs, lhs - rhs) is returned.  Requires 0 < |x| < 1.
    """
    if x == 0 or abs(x) >= 1:
        raise DomainError(f"residuals require 0 < |x| < 1, got x={x!r}")
    a, b, c = params.a, params.b, params.c
    f_mid = hyp2f1(params, x, tol).value
    f_minus = hyp2f1(params.shift_a(-1), x, tol).value
    df_mid = hyp2f1_derivative(params, x, tol).value
    df_minus = hyp2f1_derivative(params.shift_a(-1), x, tol).value
    res_1 = df_mid - ((c - a) * f_minus + (a - c + b * x) * f_mid) / (x * (1.0 - x))
    res_2 = df_minus - (a - 1) / x * (f_mid - f_minus)
    return res_1, res_2
