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

A fourth path serves the library's own evaluations on [0, 1) (the mean, G_m
and its scans, the Q profile): ``_hyp2f1_unit`` switches at
x >= ``CONNECTION_X`` to the 1 - x connection formula (DLMF 15.8.4), whose
two series in y = 1 - x need a handful of terms where the direct series needs
thousands.  It keeps the direct series where c - a - b lies within
``CONNECTION_GAP`` of an integer, sums each series in y past the pole of its
c, and takes y from the caller when the caller holds it to more digits than
1 - x does.  The public ``hyp2f1``,
``hyp2f1_derivative`` and the three near-one entry points never take it.
"""

from __future__ import annotations

import math
import os
import sys
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
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ParameterError(f"{TERM_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap <= 0:
        raise ParameterError(f"{TERM_CAP_ENV} must be a positive integer, got {raw!r}")
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
        raise ParameterError(f"series evaluation requires |x| < 1, got x={x!r}")
    return _sum_series(params.a, params.b, params.c, float(x), tol, 0)


def _sum_series(a, b, c, x: float, tol: float, settle: int) -> EvalResult:
    """The direct series of ``hyp2f1``; its tail rule counts no term before the ``settle``-th."""
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
        if abs(term) <= tol * abs(total) and ratio < 1.0 and n >= settle:
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
    :class:`ParameterError` rather than silently extending the domain.
    """
    a, b, c = params.a, params.b, params.c
    if not c > a + b:
        raise ParameterError(f"value at 1 requires c > a+b, got c-a-b={c - a - b!r}")
    for name, arg in (("c", c), ("c-a-b", c - a - b), ("c-a", c - a), ("c-b", c - b)):
        if not arg > 0:
            raise ParameterError(f"gamma argument {name}={arg!r} must be positive")
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
    if not (a > 0 and b > 0):
        raise ParameterError(f"asymptote requires a, b > 0, got a={a!r}, b={b!r}")
    if not 0 < x < 1:
        raise ParameterError(f"asymptote requires 0 < x < 1, got x={x!r}")
    return (specfn.r_zero_balanced(a, b) - math.log1p(-x)) / specfn.beta(a, b)


def euler_transform_eval(params: HypParams, x: float, tol: float = 1e-12) -> EvalResult:
    """Evaluate F(a,b;c;x) as (1-x)^(c-a-b) F(c-a,c-b;c;x).

    The transformed series converges where the direct one does; for c < a+b it
    additionally exposes the (1-x)^(c-a-b) blow-up explicitly, which is the
    point of using it near x = 1.
    """
    a, b, c = params.a, params.b, params.c
    if abs(x) >= 1:
        raise ParameterError(f"Euler transform evaluation requires |x| < 1, got x={x!r}")
    weight = (1.0 - x) ** (c - a - b)
    inner = hyp2f1(HypParams(c - a, c - b, c), x, tol)
    return EvalResult(weight * inner.value, weight * inner.error_bound, inner.terms_used)


#: ``_hyp2f1_unit`` answers x >= CONNECTION_X through the connection formula.
#: Below about x = 0.8 the direct series is both faster and more accurate; at
#: 0.9 the connection path is about 2x faster and 100x more accurate.
CONNECTION_X = 0.9

#: c - a - b within this distance of an integer keeps the direct series: the
#: two gamma ratios grow like 1/distance and cancel, and at 1e-3 the
#: connection path's worst relative error is still below 1e-12.
CONNECTION_GAP = 1e-3


def _past_pole(a, b, c, y: float, tol: float) -> EvalResult:
    """F(a,b;c;y) by the direct series, summed past the pole of 1/(c)_n.

    For c < 0 the terms shrink on the way to n = -c and grow again after it,
    so the tail rule may only stop once every later denominator c + n is
    positive.
    """
    return _sum_series(a, b, c, y, tol, max(0, math.floor(-c) + 1))


def _hyp2f1_unit(params: HypParams, x: float, tol: float, y: float | None = None) -> EvalResult:
    """F(a,b;c;x) on 0 <= x < 1 for the library's own evaluations.

    From ``CONNECTION_X`` on this is the 1 - x connection formula (DLMF 15.8.4)

        F(a,b;c;x) = A F(a,b;a+b-c+1;y) + y^(c-a-b) B F(c-a,c-b;c-a-b+1;y),
        A = G(c) G(c-a-b) / (G(c-a) G(c-b)),   B = G(c) G(a+b-c) / (G(a) G(b)),

    with y = 1 - x and G the gamma function; y^(c-a-b) B is formed in log
    space, since B alone overflows for large parameters.  Below
    ``CONNECTION_X``, where c - a - b lies within ``CONNECTION_GAP`` of an
    integer, and where the parameters are so large that rounding in the
    gamma ratios exceeds ``tol``, it is ``hyp2f1``.  A caller that holds the
    complement to more digits than 1 - x passes it as ``y`` (x then only
    chooses the path).  The c of either series in y, 1 -/+ (c - a - b), may
    be negative, so both sum past their pole before the tail rule may stop.
    The error bound combines the truncation bounds of the two series, as
    ``hyp2f1`` reports its own.
    """
    if y is None:
        y = 1.0 - x
    a, b, c = params.a, params.b, params.c
    s = c - a - b
    if x >= CONNECTION_X and abs(s - round(s)) >= CONNECTION_GAP:
        scale, scale_size = specfn.gamma_ratio((c, s), (c - a, c - b), 0.0)
        weight, weight_size = specfn.gamma_ratio((c, -s), (a, b), s * math.log(y) if y > 0 else -s * math.inf)
        if sys.float_info.epsilon * max(scale_size, weight_size) <= tol:
            first = _past_pole(a, b, 1 - s, y, tol)
            second = _past_pole(c - a, c - b, 1 + s, y, tol)
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
    return hyp2f1(params, x, tol)


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
