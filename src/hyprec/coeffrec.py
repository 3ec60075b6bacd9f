"""Coefficient recurrences for weighted hypergeometric series.

Everything here is about the power-series coefficients of

    U_theta(x) = (1 - theta*x)^p * F(a,b;c;x) = sum u_n(theta) x^n,
    V(x)       = ln(1-x)        * F(a,b;c;x) = sum v_n x^n.

The u_n satisfy a third-order recurrence in general, a second-order one for
theta = 1, and the v_n an inhomogeneous second-order one; the independent
ground truth for all of them is the O(N^2) Cauchy-product oracle

    u_n = sum_k (a)_k (b)_k / (k! (c)_k) * theta^(n-k) (-p)_(n-k) / (n-k)! .

Every routine is written over an abstract field: feed it floats and it runs
in double precision, feed it ``fractions.Fraction`` (or int) values and every
coefficient comes back exact.  Exact mode is what certifies the floating
tolerances, since the higher-order recurrences can amplify rounding.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import DomainError, ParameterError
from .hypergeom import HypParams
from .specfn import pochhammer

__all__ = [
    "DEFAULT_N",
    "MAX_N",
    "Method",
    "WeightedSeriesSpec",
    "LogProductSpec",
    "CoeffSequence",
    "u_general",
    "u_theta_minus1",
    "u_theta_plus1",
    "v_log_product",
    "cauchy_oracle",
    "hyp_series_coeffs",
    "p_minus1_identity_residual",
    "published_recurrence_pair",
    "partial_sum",
    "format_number",
    "to_json",
    "to_csv",
]

DEFAULT_N = 64
MAX_N = 10_000


class Method(str, Enum):
    RECURRENCE = "recurrence"
    CAUCHY_ORACLE = "cauchy-oracle"
    CLOSED_FORM = "closed-form"


def is_exact(*values) -> bool:
    """True when every value is an int or Fraction (exact-arithmetic mode)."""
    return all(isinstance(v, (int, Fraction)) for v in values)


def _one(*values):
    """Multiplicative unit of the field the given values live in."""
    return Fraction(1) if is_exact(*values) else 1.0


@dataclass(frozen=True)
class WeightedSeriesSpec:
    """Generating data (a, b, c, p, theta) of (1 - theta*x)^p F(a,b;c;x)."""

    params: HypParams
    p: float
    theta: float

    def __post_init__(self):
        if not -1 <= self.theta <= 1:
            raise ParameterError(f"theta must lie in [-1, 1], got {self.theta!r}")


@dataclass(frozen=True)
class LogProductSpec:
    """Marker spec for the log product ln(1-x) * F(a,b;c;x)."""

    params: HypParams


@dataclass(frozen=True)
class CoeffSequence:
    """Coefficients u_0..u_N together with the spec and method that made them."""

    spec: WeightedSeriesSpec | LogProductSpec
    coeffs: tuple
    method: Method

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a coefficient sequence holds at least u_0")
        expected = 0 if isinstance(self.spec, LogProductSpec) else 1
        if self.coeffs[0] != expected:
            raise ValueError(
                f"leading coefficient must be {expected}, got {self.coeffs[0]!r}"
            )

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n):
        return self.coeffs[n]


def _check_n(n: int) -> None:
    if n < 0:
        raise ParameterError(f"N must be nonnegative, got {n}")
    if n > MAX_N:
        raise ParameterError(f"N={n} exceeds the hard cap {MAX_N}")


def hyp_series_coeffs(params: HypParams, n_max: int) -> list:
    """Plain series coefficients w_n = (a)_n (b)_n / (n! (c)_n), n = 0..n_max."""
    _check_n(n_max)
    a, b, c = params.a, params.b, params.c
    w = [_one(a, b, c)]
    for n in range(n_max):
        w.append(w[-1] * (a + n) * (b + n) / ((c + n) * (n + 1)))
    return w


def u_general(spec: WeightedSeriesSpec, n_max: int) -> CoeffSequence:
    """Coefficients of (1 - theta*x)^p F(a,b;c;x) by the third-order recurrence.

    Seeds:
        u_0 = 1
        u_1 = ab/c - p*theta
        u_2 = theta^2 p(p-1)/2 - theta p ab/c + ab(a+1)(b+1) / (2c(c+1))
    and for n >= 2

        u_(n+1) = [xi u_n - theta*eta u_(n-1) + theta^2*lam u_(n-2)] / ((n+1)(n+c))

    with
        xi  = (n+a)(n+b) + theta [2n^2 - 2n(p-c+1) - cp]
        eta = 2n^2 + 2(a+b-p-2)n - (a+b-1)p + 2(a-1)(b-1)
              + theta (n-p-1)(n-p+c-2)
        lam = (n+a-p-2)(n+b-p-2).

    The recurrence is applied uniformly for every theta in [-1, 1] and every
    p, including the degenerate combinations theta = 0 and p = -1; the oracle
    equivalence suite certifies those regimes.
    """
    _check_n(n_max)
    a, b, c = spec.params.a, spec.params.b, spec.params.c
    p, th = spec.p, spec.theta
    u = [_one(a, b, c, p, th)]
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
            raise DomainError(f"recurrence denominator (n+1)(n+c) vanished at n={n}")
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
    return CoeffSequence(spec, tuple(u), Method.RECURRENCE)


def u_theta_minus1(params: HypParams, p, n_max: int) -> CoeffSequence:
    """Coefficients of (1 + x)^p F(a,b;c;x) by the specialized recurrence

        u_(n+1) = [xi u_n + eta u_(n-1) + lam u_(n-2)] / ((n+1)(n+c)),  n >= 2

    with
        xi  = -n^2 + (a+b-2c+2p+2) n + (ab+cp)
        eta = (n+2a+2b-c)(n-1) - p^2 - (a+b-c+2) p + 2ab
        lam = (n+a-p-2)(n+b-p-2)

    and seeds u_0 = 1, u_1 = ab/c + p,
    u_2 = p(p-1)/2 + p ab/c + ab(a+1)(b+1)/(2c(c+1)).
    Agrees termwise with ``u_general`` at theta = -1.
    """
    _check_n(n_max)
    a, b, c = params.a, params.b, params.c
    u = [_one(a, b, c, p)]
    if n_max >= 1:
        u.append(a * b / c + p)
    if n_max >= 2:
        u.append(p * (p - 1) / 2 + p * a * b / c + a * b * (b + 1) * (a + 1) / (2 * c * (c + 1)))
    for n in range(2, n_max):
        den = (n + 1) * (n + c)
        if den == 0:
            raise DomainError(f"recurrence denominator (n+1)(n+c) vanished at n={n}")
        xi = -n * n + (a + b - 2 * c + 2 * p + 2) * n + (a * b + c * p)
        eta = (n + 2 * a + 2 * b - c) * (n - 1) - p * p - (a + b - c + 2) * p + 2 * a * b
        lam = (n + a - p - 2) * (n + b - p - 2)
        u.append((xi * u[n] + eta * u[n - 1] + lam * u[n - 2]) / den)
    minus_one = -_one(a, b, c, p)
    return CoeffSequence(
        WeightedSeriesSpec(params, p, minus_one), tuple(u), Method.RECURRENCE
    )


def _two_alpha_beta(a, b, c, p, n):
    """Numerators 2*alpha_n, beta_n of the theta = 1 second-order recurrence."""
    den = (n + 1) * (n + c)
    if den == 0:
        raise DomainError(f"recurrence denominator (n+1)(n+c) vanished at n={n}")
    two_alpha = (2 * n * n + (a + b + c - 2 * p - 1) * n + a * b - c * p) / den
    beta_n = (n + a - p - 1) * (n + b - p - 1) / den
    return two_alpha, beta_n


def u_theta_plus1(params: HypParams, p, n_max: int) -> CoeffSequence:
    """Coefficients of (1 - x)^p F(a,b;c;x) by the second-order recurrence

        u_(n+1) = 2 alpha_n u_n - beta_n u_(n-1),  n >= 1,

        alpha_n = [2n^2 + (a+b+c-2p-1) n + ab - cp] / (2 (n+1)(n+c))
        beta_n  = (n+a-p-1)(n+b-p-1) / ((n+1)(n+c))

    with seeds u_0 = 1, u_1 = ab/c - p.  This is the order-reduced form of the
    theta = 1 case of ``u_general`` and is the numerically preferred route.
    """
    _check_n(n_max)
    a, b, c = params.a, params.b, params.c
    u = [_one(a, b, c, p)]
    if n_max >= 1:
        u.append(a * b / c - p)
    for n in range(1, n_max):
        two_alpha, beta_n = _two_alpha_beta(a, b, c, p, n)
        u.append(two_alpha * u[n] - beta_n * u[n - 1])
    return CoeffSequence(
        WeightedSeriesSpec(params, p, _one(a, b, c, p)), tuple(u), Method.RECURRENCE
    )


def v_log_product(params: HypParams, n_max: int) -> CoeffSequence:
    """Coefficients v_n of ln(1-x) * F(a,b;c;x):

        v_0 = 0,  v_1 = -1,
        v_(n+1) = 2 alpha_n v_n - beta_n v_(n-1) + gamma_n w_n,  n >= 1,

    where alpha_n, beta_n are the theta = 1 coefficients at p = 0,
    w_n = (a)_n (b)_n / (n! (c)_n) and

        gamma_n = [(c-b-a) n^2 + (a+b-2ab) n - c(a-1)(b-1)]
                  / ((n+1)(n+a-1)(n+b-1)(n+c)).

    Raises :class:`DomainError` when a gamma_n denominator vanishes, i.e. when
    a or b is a nonpositive integer >= 1 - N.
    """
    _check_n(n_max)
    a, b, c = params.a, params.b, params.c
    one = _one(a, b, c)
    zero = 0 * one
    p = 0 * one
    v = [zero]
    if n_max >= 1:
        v.append(-one)
    w = hyp_series_coeffs(params, max(n_max - 1, 0))
    for n in range(1, n_max):
        gden = (n + 1) * (n + a - 1) * (n + b - 1) * (n + c)
        if gden == 0:
            raise DomainError(
                f"log-product coefficient denominator vanished at n={n} (a={a!r}, b={b!r})"
            )
        gnum = (c - b - a) * n * n + (a + b - 2 * a * b) * n - c * (a - 1) * (b - 1)
        two_alpha, beta_n = _two_alpha_beta(a, b, c, p, n)
        v.append(two_alpha * v[n] - beta_n * v[n - 1] + gnum * w[n] / gden)
    return CoeffSequence(LogProductSpec(params), tuple(v), Method.RECURRENCE)


def _log_series_coeffs(one, n_max: int) -> list:
    """Coefficients of ln(1-x): 0, -1, -1/2, -1/3, ..."""
    return [0 * one] + [-one / k for k in range(1, n_max + 1)]


def cauchy_oracle(spec: WeightedSeriesSpec | LogProductSpec, n_max: int) -> CoeffSequence:
    """Ground-truth coefficients by direct Cauchy-product convolution, O(N^2).

    For a :class:`WeightedSeriesSpec` the binomial factor contributes
    theta^j (-p)_j / j!; for a :class:`LogProductSpec` it is replaced by the
    ln(1-x) coefficients -1/j.  The Pochhammer factors are computed as finite
    products, never via gamma, so exact inputs give exact output.
    """
    _check_n(n_max)
    params = spec.params
    w = hyp_series_coeffs(params, n_max)
    if isinstance(spec, LogProductSpec):
        g = _log_series_coeffs(_one(params.a, params.b, params.c), n_max)
    else:
        p, th = spec.p, spec.theta
        one = _one(params.a, params.b, params.c, p, th)
        g = [one * th**j * pochhammer(-p, j) / math.factorial(j) for j in range(n_max + 1)]
    coeffs = tuple(
        sum((w[k] * g[n - k] for k in range(n + 1)), start=0 * w[0])
        for n in range(n_max + 1)
    )
    return CoeffSequence(spec, coeffs, Method.CAUCHY_ORACLE)


def p_minus1_identity_residual(params: HypParams, theta, n_max: int) -> list:
    """Residuals of the p = -1 telescoping identity

        u_(n+1) - theta*u_n = (a)_(n+1) (b)_(n+1) / ((n+1)! (c)_(n+1))

    for 0 <= n < N, with u from ``u_general`` at p = -1.  All residuals vanish
    identically; the list quantifies how well the recurrence honors that.
    """
    _check_n(n_max)
    one = _one(params.a, params.b, params.c, theta)
    u = u_general(WeightedSeriesSpec(params, -one, theta), n_max).coeffs
    w = hyp_series_coeffs(params, n_max)
    return [u[n + 1] - theta * u[n] - w[n + 1] for n in range(n_max)]


def published_recurrence_pair(q, n_max: int) -> tuple[CoeffSequence, CoeffSequence]:
    """The two candidate coefficient sequences of (1-x)^(-q) F(-1/2,-1/2;2;x).

    First element: the sequence generated by the published recurrence

        u_0 = 1, u_1 = q - 1/8,
        u_(n+1) = [2n^2 + (2q+1)n + 2q - 1/4] / ((n+1)(n+2)) u_n
                  - (n+q-1/2)(n+q-3/2) / ((n+1)(n+2)) u_(n-1);

    second element: the Cauchy oracle for (a,b,c,p,theta) = (-1/2,-1/2,2,-q,1).
    The two disagree from u_1 on (q - 1/8 vs q + 1/8); this routine exists to
    put both on the table so the divergence can be reported, not resolved.
    """
    if n_max < 2:
        raise DomainError(f"comparison needs N >= 2, got {n_max}")
    _check_n(n_max)
    exact = is_exact(q)
    one = Fraction(1) if exact else 1.0
    u = [one, q - Fraction(1, 8) * one]
    for n in range(1, n_max):
        den = (n + 1) * (n + 2)
        num1 = 2 * n * n + (2 * q + 1) * n + 2 * q - Fraction(1, 4) * one
        num2 = (n + q - Fraction(1, 2) * one) * (n + q - Fraction(3, 2) * one)
        u.append((num1 * u[n] - num2 * u[n - 1]) / den)
    half = Fraction(1, 2) if exact else 0.5
    spec = WeightedSeriesSpec(HypParams(-half, -half, 2 * one), -q, one)
    literal = CoeffSequence(spec, tuple(u), Method.RECURRENCE)
    return literal, cauchy_oracle(spec, n_max)


def partial_sum(seq: CoeffSequence, x):
    """Horner evaluation of sum coeffs[n] x^n.

    No convergence control is applied; meaningful only where the underlying
    series converges (heuristically |x| < 1/max(1, |theta|)), which is the
    caller's responsibility.
    """
    acc = 0 * seq.coeffs[0]
    for coef in reversed(seq.coeffs):
        acc = acc * x + coef
    return acc


# ---------------------------------------------------------------------------
# rendering / serialization


def format_number(v) -> str:
    """Shortest round-trip decimal for floats; "num/den" for exact values."""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, int):
        return f"{v}/1"
    return repr(float(v))


def _spec_dict(spec: WeightedSeriesSpec | LogProductSpec) -> dict:
    params = spec.params
    d = {
        "a": format_number(params.a),
        "b": format_number(params.b),
        "c": format_number(params.c),
    }
    if isinstance(spec, LogProductSpec):
        d["kind"] = "log-product"
    else:
        d["kind"] = "weighted"
        d["p"] = format_number(spec.p)
        d["theta"] = format_number(spec.theta)
    return d


def to_json(seq: CoeffSequence) -> str:
    """JSON rendering with stable (lexicographic) key order."""
    payload = {
        "coeffs": [format_number(v) for v in seq.coeffs],
        "method": seq.method.value,
        "spec": _spec_dict(seq.spec),
    }
    return json.dumps(payload, sort_keys=True)


def to_csv(seq: CoeffSequence) -> str:
    """CSV rows (n, u_n) with a header, comma separator, LF line endings."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["n", "u_n"])
    for n, v in enumerate(seq.coeffs):
        writer.writerow([n, format_number(v)])
    return out.getvalue()
