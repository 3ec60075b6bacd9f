"""Residuals of the Gauss contiguous and derivative relations of F(a,b;c;x).

Test helpers only: ``test_hypergeom.py`` and ``test_acceptance.py`` assert
that these residuals of ``hyp2f1`` and ``hyp2f1_derivative`` are small.
"""

from hyprec.errors import DomainError
from hyprec.hypergeom import HypParams, hyp2f1, hyp2f1_derivative


def contiguous_residual(params: HypParams, x: float, tol: float = 1e-12) -> float:
    """Residual of the Gauss contiguous relation

        (c-a) F(a-1,b;c;x) + (2a-c-ax+bx) F(a,b;c;x) + a(x-1) F(a+1,b;c;x) = 0.

    Returns the left-hand side; callers assert it is numerically small.
    """
    a, b, c = params.a, params.b, params.c
    f_minus = hyp2f1(HypParams(a - 1, b, c), x, tol).value
    f_mid = hyp2f1(params, x, tol).value
    f_plus = hyp2f1(HypParams(a + 1, b, c), x, tol).value
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
    f_minus = hyp2f1(HypParams(a - 1, b, c), x, tol).value
    df_mid = hyp2f1_derivative(params, x, tol).value
    df_minus = hyp2f1_derivative(HypParams(a - 1, b, c), x, tol).value
    res_1 = df_mid - ((c - a) * f_minus + (a - c + b * x) * f_mid) / (x * (1.0 - x))
    res_2 = df_minus - (a - 1) / x * (f_mid - f_minus)
    return res_1, res_2
