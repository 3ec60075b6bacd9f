"""Coefficient recurrences for weighted hypergeometric series.

Everything here is about the power-series coefficients of

    U_theta(x) = (1 - theta*x)^p * F(a,b;c;x) = sum u_n(theta) x^n,
    V(x)       = ln(1-x)        * F(a,b;c;x) = sum v_n x^n.

The u_n satisfy a third-order recurrence in general, a second-order one for
theta = 1, and the v_n an inhomogeneous second-order one; the independent
ground truth for all of them is the O(N^2) Cauchy-product oracle

    u_n = sum_k (a)_k (b)_k / (k! (c)_k) * theta^(n-k) (-p)_(n-k) / (n-k)! .

Every recurrence is written over an abstract field: feed it floats and it
runs in double precision, feed it ``fractions.Fraction`` (or int) values and
every coefficient comes back exact.  Exact mode is what certifies the
floating tolerances, since the higher-order recurrences can amplify rounding.
One helper, ``_in_field``, makes that decision for all four recurrences:
exact inputs are taken as Fractions once, where a routine starts, so int
inputs never divide as floats.  The three u-recurrences share their seeds
u_0, u_1, u_2 through ``_seeds``; the specialisations pass theta as the int
-1 or 1, which keeps every product in the field of p.

Each recurrence has one row function of n, ``row_at``, that returns its
denominator (n+1)(n+c) and its coefficient numerators.  The two third-order
recurrences read that one row in both fields: float mode one row per step
through ``_float_steps``, exact mode through ``_exact_steps``.  The theta = 1
and log-product float loops keep their own form, which divides each
numerator by den before it multiplies, since a sum over den would round
their coefficients differently.
In exact mode every row entry is quadratic in n, so the function is
evaluated at four consecutive n only: scaled to integers over one common
denominator, the rows then step by integer adds of their second differences.
One loop, ``_exact_steps``, steps all four: it carries the last terms as
integer numerators over the lcm of every denominator so far, which grows by
den / gcd(den, sum) per step, so the one large gcd of a step reduces its new
coefficient.  Every row ends with an auxiliary's input and step (y, q): the
log product's z_n = w_n / ((n+a-1)(n+b-1)) enters v_(n+1) with weight y and
steps z_(n+1) = q z_n / (n+1)(n+c) over the same denominator, so it too
stays an integer numerator; the u-recurrences pass (0, 1) with z = 0, which
adds nothing.

In exact mode the oracle sums each u_n by nested Horner over the ratio of
consecutive summands, a quotient of small integers, so every step multiplies
a big integer by a small one; it sums only the window of k where neither
factor vanishes (the binomial factor ends at j = p for an integer p >= 0 and
at j = 0 for theta = 0, w ends at k = -a for a nonpositive integer a or b).
The summands' first term and the Horner denominator come from running
integer products of the ratios' numerators and denominators, so no Fraction
is formed per term and each coefficient is normalised once, through one
closed form for both factors (ln(1-x) enters as g_1 = -1 with
g_(j-1)/g_j = j/(j-1)), which gives the same rationals as summing Fraction
products.  Float mode sums the products in the field of the inputs, as the
recurrences do.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from ._record import Record, set_field
from .errors import DomainError, ParameterError
from .hypergeom import HypParams, _require_finite

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
]

DEFAULT_N = 64
MAX_N = 10_000


class Method(str, Enum):
    RECURRENCE = "recurrence"
    CAUCHY_ORACLE = "cauchy-oracle"


def is_exact(*values) -> bool:
    """True when every value is an int or Fraction (exact-arithmetic mode)."""
    return all(isinstance(v, (int, Fraction)) for v in values)


def _one(*values):
    """Multiplicative unit of the field the given values live in."""
    return Fraction(1) if is_exact(*values) else 1.0


class WeightedSeriesSpec(Record):
    """Generating data (a, b, c, p, theta) of (1 - theta*x)^p F(a,b;c;x); p finite, theta in [-1, 1]."""

    __slots__ = ("params", "p", "theta")

    def __init__(self, params: HypParams, p: float, theta: float):
        if not -1 <= theta <= 1:
            raise ParameterError(f"theta must lie in [-1, 1], got {theta!r}")
        _require_finite("p", p)
        set_field(self, "params", params)
        set_field(self, "p", p)
        set_field(self, "theta", theta)


class LogProductSpec(Record):
    """Marker spec for the log product ln(1-x) * F(a,b;c;x)."""

    __slots__ = ("params",)

    def __init__(self, params: HypParams):
        set_field(self, "params", params)


class CoeffSequence(Record):
    """Coefficients u_0..u_N together with the spec and method that made them."""

    __slots__ = ("spec", "coeffs", "method")

    def __init__(self, spec: WeightedSeriesSpec | LogProductSpec, coeffs: tuple, method: Method):
        if not coeffs:
            raise ValueError("a coefficient sequence holds at least u_0")
        expected = 0 if isinstance(spec, LogProductSpec) else 1
        if coeffs[0] != expected:
            raise ValueError(f"leading coefficient must be {expected}, got {coeffs[0]!r}")
        set_field(self, "spec", spec)
        set_field(self, "coeffs", coeffs)
        set_field(self, "method", method)

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


def _den_vanished(n) -> DomainError:
    return DomainError(f"recurrence denominator (n+1)(n+c) vanished at n={n}")


def _in_field(*values):
    """A recurrence's field: its values, the field's 1 and whether the field is exact.

    When every value is an int or Fraction they come back as Fractions, so
    int inputs never divide as floats; otherwise they come back as given.
    """
    one = _one(*values)
    exact = type(one) is Fraction
    return ([Fraction(v) for v in values] if exact else values), one, exact


def _seeds(a, b, c, p, th, one, n_max: int) -> list:
    """The seeds of (1 - theta*x)^p F(a,b;c;x) up to u_min(2, N):

        u_0 = 1,  u_1 = ab/c - p theta,
        u_2 = theta^2 p(p-1)/2 - theta p ab/c + ab(a+1)(b+1) / (2c(c+1)).

    The specialisations pass theta as the int -1 or 1, so theta^2 p and
    theta p are p and -p exactly, in p's own field.  (An exact zero p has
    no sign, so in a float field u_1 = ab/c - 0 at theta = -1 keeps the sign
    of a zero ab/c, as ``u_general`` does at an exact theta = -1.)
    """
    u = [one, a * b / c - p * th][: n_max + 1]
    if n_max >= 2:
        u.append(th * th * p * (p - 1) / 2 - th * p * a * b / c + a * b * (b + 1) * (a + 1) / (2 * c * (c + 1)))
    return u


def _float_steps(u: list, row_at, n_max: int) -> None:
    """Extend the seeds u_0..u_2 to u_n_max by u_(n+1) = (x_0 u_n + x_1 u_(n-1) + x_2 u_(n-2)) / den.

    Each row ``row_at(n)`` is (den, x_0, x_1, x_2, y, q), the row that
    ``_exact_steps`` reads, its tail (y, q) unused; the values stay in the
    field the row is formed in.
    """
    for n in range(len(u) - 1, n_max):
        den, x0, x1, x2, _, _ = row_at(n)
        if den == 0:
            raise _den_vanished(n)
        u.append((x0 * u[n] + x1 * u[n - 1] + x2 * u[n - 2]) / den)


def _integer_rows(row_at, n0):
    """The coefficient rows row_at(n), n = n0, n0+1, ..., as integers.

    Every entry of a row is a polynomial of degree at most 2 in n, so the rows
    at four consecutive n fix all of them: scaled to integers over the lcm of
    their denominators (which leaves every ratio of entries alone), their
    third differences vanish, and each next row is two integer adds per entry
    away.  An entry 1 comes out as that common denominator.
    """
    rows = [row_at(n) for n in range(n0, n0 + 4)]
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    r0, r1, r2, r3 = ([v.numerator * (scale // v.denominator) for v in row] for row in rows)
    if any(x3 - 3 * x2 + 3 * x1 - x0 for x0, x1, x2, x3 in zip(r0, r1, r2, r3)):
        raise RuntimeError("a recurrence coefficient is not quadratic in n")
    row = r0
    d1 = [x1 - x0 for x0, x1 in zip(r0, r1)]
    d2 = [x2 - 2 * x1 + x0 for x0, x1, x2 in zip(r0, r1, r2)]
    while True:
        yield row
        row = [x + d for x, d in zip(row, d1)]
        d1 = [d + s for d, s in zip(d1, d2)]


def _exact_steps(u: list, row_at, n_max: int, z=0, vanished=_den_vanished) -> None:
    """Extend the seeds u_0..u_n0 to u_n_max by u_(n+1) = (x_0 u_n + x_1 u_(n-1) + ... + y z_n) / den.

    Each row ``row_at(n)`` is (den, x_0, x_1, ..., y, q): the denominator and
    numerators, then the row tail of an auxiliary z_n, its input y and its
    step q, with z_(n+1) = q z_n / den from ``z`` at n = n0.  The log product
    carries its z_n so; the u-recurrences end every row with (0, 1) and keep
    z = 0, which adds nothing to a sum or a gcd.  The integers (den, x_0,
    ..., y, q) at n = n0, n0+1, ... come from ``_integer_rows(row_at, n0)``,
    and the window u_n, u_(n-1), ... and z_n are carried as integer
    numerators over one common denominator, which starts as the lcm of the
    seeds' and z's.  A step sums integer products; the common denominator
    then grows only by den / gcd(den, sum, q z), which keeps it the lcm of
    every term so far, and den is small, so the one large gcd is the one
    that reduces each new u_(n+1).  A row whose den or q is 0 raises
    ``vanished(n)``, so each recurrence keeps its own message.
    """
    n0 = len(u) - 1
    if n_max <= n0:
        return
    scale = math.lcm(z.denominator, *(v.denominator for v in u))
    nums = [v.numerator * (scale // v.denominator) for v in reversed(u)]
    z = z.numerator * (scale // z.denominator)
    for n, (den, *xs, y, q) in zip(range(n0, n_max), _integer_rows(row_at, n0)):
        if den == 0 or q == 0:
            raise vanished(n)
        total = sum(x * m for x, m in zip(xs, nums)) + y * z
        z *= q
        g = math.gcd(den, total, z)
        k = den // g
        scale *= k
        nums = [total // g] + [m * k for m in nums[:-1]]
        z //= g
        u.append(Fraction(nums[0], scale))


def general_step(a, b, c, p, th, n):
    """Denominator (n+1)(n+c) and numerators xi, eta, lam of u_general's step at n."""
    den = (n + 1) * (n + c)
    xi = (n + a) * (n + b) + th * (2 * n * n - 2 * n * (p - c + 1) - c * p)
    eta = (
        2 * n * n
        + 2 * (a + b - p - 2) * n
        - (a + b - 1) * p
        + 2 * (a - 1) * (b - 1)
        + th * (n - p - 1) * (n - p + c - 2)
    )
    lam = (n + a - p - 2) * (n + b - p - 2)
    return den, xi, eta, lam


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
    (a, b, c, p, th), one, exact = _in_field(spec.params.a, spec.params.b, spec.params.c, spec.p, spec.theta)

    def row_at(n):
        # -(theta eta), not (-theta) eta: an exact zero theta has no sign to
        # negate, and the float step must subtract theta eta u_(n-1).
        den, xi, eta, lam = general_step(a, b, c, p, th, n)
        return den, xi, -(th * eta), th * th * lam, 0, 1

    u = _seeds(a, b, c, p, th, one, n_max)
    (_exact_steps if exact else _float_steps)(u, row_at, n_max)
    return CoeffSequence(spec, tuple(u), Method.RECURRENCE)


def _theta_minus1_step(a, b, c, p, n):
    """Denominator (n+1)(n+c) and numerators xi, eta, lam of u_theta_minus1's step at n."""
    den = (n + 1) * (n + c)
    xi = -n * n + (a + b - 2 * c + 2 * p + 2) * n + (a * b + c * p)
    eta = (n + 2 * a + 2 * b - c) * (n - 1) - p * p - (a + b - c + 2) * p + 2 * a * b
    lam = (n + a - p - 2) * (n + b - p - 2)
    return den, xi, eta, lam


def u_theta_minus1(params: HypParams, p, n_max: int) -> CoeffSequence:
    """Coefficients of (1 + x)^p F(a,b;c;x) by the specialized recurrence

        u_(n+1) = [xi u_n + eta u_(n-1) + lam u_(n-2)] / ((n+1)(n+c)),  n >= 2

    with
        xi  = -n^2 + (a+b-2c+2p+2) n + (ab+cp)
        eta = (n+2a+2b-c)(n-1) - p^2 - (a+b-c+2) p + 2ab
        lam = (n+a-p-2)(n+b-p-2)

    and seeds u_0 = 1, u_1 = ab/c + p,
    u_2 = p(p-1)/2 + p ab/c + ab(a+1)(b+1)/(2c(c+1)), which are
    ``u_general``'s at theta = -1 (``_seeds``).  Agrees termwise with
    ``u_general`` at theta = -1.
    """
    _check_n(n_max)
    field, one, exact = _in_field(params.a, params.b, params.c, p)
    spec = WeightedSeriesSpec(params, p, -one)
    a, b, c, p = field
    u = _seeds(a, b, c, p, -1, one, n_max)
    (_exact_steps if exact else _float_steps)(u, lambda n: (*_theta_minus1_step(a, b, c, p, n), 0, 1), n_max)
    return CoeffSequence(spec, tuple(u), Method.RECURRENCE)


def _theta_plus1_step(a, b, c, p, n):
    """Denominator (n+1)(n+c) and numerators of 2 alpha_n and beta_n at theta = 1."""
    den = (n + 1) * (n + c)
    two_alpha = 2 * n * n + (a + b + c - 2 * p - 1) * n + a * b - c * p
    beta = (n + a - p - 1) * (n + b - p - 1)
    return den, two_alpha, beta


def u_theta_plus1(params: HypParams, p, n_max: int) -> CoeffSequence:
    """Coefficients of (1 - x)^p F(a,b;c;x) by the second-order recurrence

        u_(n+1) = 2 alpha_n u_n - beta_n u_(n-1),  n >= 1,

        alpha_n = [2n^2 + (a+b+c-2p-1) n + ab - cp] / (2 (n+1)(n+c))
        beta_n  = (n+a-p-1)(n+b-p-1) / ((n+1)(n+c))

    with seeds u_0 = 1, u_1 = ab/c - p, ``u_general``'s first two at
    theta = 1.  This is the order-reduced form of the theta = 1 case of
    ``u_general`` and is the numerically preferred route.
    """
    _check_n(n_max)
    field, one, exact = _in_field(params.a, params.b, params.c, p)
    spec = WeightedSeriesSpec(params, p, one)
    a, b, c, p = field
    u = _seeds(a, b, c, p, 1, one, min(n_max, 1))
    if exact:

        def row_at(n):
            den, two_alpha, beta = _theta_plus1_step(a, b, c, p, n)
            return den, two_alpha, -beta, 0, 1

        _exact_steps(u, row_at, n_max)
    else:
        for n in range(1, n_max):
            den, two_alpha, beta = _theta_plus1_step(a, b, c, p, n)
            if den == 0:
                raise _den_vanished(n)
            u.append(two_alpha / den * u[n] - beta / den * u[n - 1])
    return CoeffSequence(spec, tuple(u), Method.RECURRENCE)


def _log_product_step(a, b, c, p, n):
    """The theta = 1 row at p = 0 (``p`` is that zero) and gamma_n's numerator and denominator."""
    den, two_alpha, beta = _theta_plus1_step(a, b, c, p, n)
    gden = (n + 1) * (n + a - 1) * (n + b - 1) * (n + c)
    gnum = (c - b - a) * n * n + (a + b - 2 * a * b) * n - c * (a - 1) * (b - 1)
    return den, two_alpha, beta, gnum, gden


def v_log_product(params: HypParams, n_max: int) -> CoeffSequence:
    """Coefficients v_n of ln(1-x) * F(a,b;c;x):

        v_0 = 0,  v_1 = -1,
        v_(n+1) = 2 alpha_n v_n - beta_n v_(n-1) + gamma_n w_n,  n >= 1,

    where alpha_n, beta_n are the theta = 1 coefficients at p = 0,
    w_n = (a)_n (b)_n / (n! (c)_n) and

        gamma_n = [(c-b-a) n^2 + (a+b-2ab) n - c(a-1)(b-1)]
                  / ((n+1)(n+a-1)(n+b-1)(n+c)).

    Raises :class:`DomainError` when a gamma_n denominator vanishes for some
    n <= N - 1, i.e. when a or b is a nonpositive integer >= 2 - N (the factor
    n + a - 1 vanishes at n = 1 - a).

    Exact mode steps on integers.  With z_n = w_n / ((n+a-1)(n+b-1)), which
    is w_(n-1) / (n (n+c-1)), the step reads

        v_(n+1) = [2 alpha'_n v_n - beta'_n v_(n-1) + gamma'_n z_n] / den_n,
        z_(n+1) = (n+a-1)(n+b-1) z_n / den_n,

    with den_n = (n+1)(n+c) and every primed numerator quadratic in n.  So
    ``_exact_steps`` steps it, with z_n as the auxiliary of its rows' tail
    (y, q) = (gamma'_n, (n+a-1)(n+b-1)) from z_1 = 1/c, and each v_n is
    normalised once.
    """
    _check_n(n_max)
    (a, b, c), one, exact = _in_field(params.a, params.b, params.c)
    p = 0 * one
    v = [0 * one]
    if n_max >= 1:
        v.append(-one)

    def vanished(n):
        return DomainError(
            f"log-product coefficient denominator vanished at n={n} "
            f"(a={params.a!r}, b={params.b!r})"
        )

    if exact:

        def row_at(n):
            # gamma_n's denominator over (n+1)(n+c) is (n+a-1)(n+b-1), which
            # is quadratic and is z_n's step factor.
            den, two_alpha, beta, gnum, gden = _log_product_step(a, b, c, p, n)
            return den, two_alpha, -beta, gnum, gden / den

        _exact_steps(v, row_at, n_max, 1 / c, vanished)
    else:
        w = hyp_series_coeffs(params, max(n_max - 1, 0))
        for n in range(1, n_max):
            den, two_alpha, beta, gnum, gden = _log_product_step(a, b, c, p, n)
            if gden == 0:
                raise vanished(n)
            v.append(two_alpha / den * v[n] - beta / den * v[n - 1] + gnum * w[n] / gden)
    return CoeffSequence(LogProductSpec(params), tuple(v), Method.RECURRENCE)


def _log_series_coeffs(one, n_max: int) -> list:
    """Coefficients of ln(1-x): 0, -1, -1/2, -1/3, ..."""
    return [0 * one] + [-one / k for k in range(1, n_max + 1)]


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms (the sign may sit in either)."""
    g = math.gcd(num, den)
    return num // g, den // g


def _exact_cauchy_product(spec: WeightedSeriesSpec | LogProductSpec, n_max: int) -> tuple:
    """The oracle's u_n = sum_k w_k g_(n-k), n = 0..n_max, for rational parameters.

    Each u_n is summed by nested Horner over the ratio of its summands,

        T_(k+1) / T_k = [(a+k)(b+k) / ((c+k)(k+1))] * g_(n-k-1) / g_(n-k),

    with g_(j-1)/g_j = j / (theta (j-1-p)) for the binomial factor and
    j / (j-1) for ln(1-x).  That ratio is P/Q with integers of a few dozen
    bits, so each step num <- den Q + P num, den <- den Q (from k = k_hi - 1
    down to k_lo, starting at num = den = 1) multiplies a big integer by a
    small one.  Only the nonzero window of k is summed: g ends at j = p for an
    integer p >= 0 and at j = 0 for theta = 0, the ln(1-x) factor starts at
    j = 1, and w ends at k = -a (or -b) for a nonpositive integer a (or b).

    No Fraction is formed per term.  w_k = WP_k / WQ_k and g_j = GQ_j / GP_j
    are kept as running integer products of the ratios' numerators and
    denominators, from w_0 = 1 and from g_0 = 1 for the binomial factor or
    g_1 = -1 for ln(1-x) (GQ_1 = -1, GP_1 = 1), and den = (WQ_hi / WQ_lo)
    (GQ_(n-lo) / GQ_(n-hi)), so one closed form serves both factors,

        u_n = WP_lo GQ_(n-hi) num / (WQ_hi GP_(n-lo)),

    with lo = k_lo and hi = k_hi, normalised once.  For ln(1-x) it is
    -WP_lo num (n-hi-1)! / (WQ_hi (n-lo)!), so where hi < n - 1 (w ends
    before the window does) (n-hi-1)! enters numerator and denominator alike.
    Fraction is canonical, so the values are identical to the termwise
    Fraction sums.
    """
    params = spec.params
    (an, ad), (bn, bd), (cn, cd) = ((v.numerator, v.denominator) for v in (params.a, params.b, params.c))
    k_end = n_max
    for top, bottom in ((an, ad), (bn, bd)):
        if bottom == 1 and top <= 0:
            k_end = min(k_end, -top)
    # w_(k+1)/w_k = (a+k)(b+k) / ((c+k)(k+1)), over the parameters' denominators.
    w_ratio = [
        _reduced((an + k * ad) * (bn + k * bd) * cd, ad * bd * (cn + k * cd) * (k + 1))
        for k in range(k_end)
    ]
    # w_k = wps[k] / wqs[k], k = 0..k_end, as unreduced running products.
    wps, wqs = [1], [1]
    for wp, wq in w_ratio:
        wps.append(wps[-1] * wp)
        wqs.append(wqs[-1] * wq)
    if isinstance(spec, LogProductSpec):
        j_lo, j_end = 1, n_max
        # g_1 = -1 and g_(j-1)/g_j = j/(j-1); g_0 = 0 lies outside the window.
        g_ratio = [None, None] + [(j, j - 1) for j in range(2, n_max + 1)]
        gps, gqs = [None, 1], [None, -1]
    else:
        (pn, pd), (tn, td) = ((v.numerator, v.denominator) for v in (spec.p, spec.theta))
        j_lo = 0
        if tn == 0:
            j_end = 0
        elif pd == 1 and pn >= 0:
            j_end = min(n_max, pn)
        else:
            j_end = n_max
        # g_(j-1)/g_j = j / (theta (j-1-p)).
        g_ratio = [None] + [
            _reduced(j * td * pd, tn * ((j - 1) * pd - pn)) for j in range(1, j_end + 1)
        ]
        gps, gqs = [1], [1]
    # g_j = gqs[j] / gps[j], j = j_lo..j_end, likewise.
    for gp, gq in g_ratio[j_lo + 1 :]:
        gps.append(gps[-1] * gp)
        gqs.append(gqs[-1] * gq)
    coeffs = []
    for n in range(n_max + 1):
        k_lo, k_hi = max(0, n - j_end), min(n - j_lo, k_end)
        if k_lo > k_hi:
            coeffs.append(Fraction(0))
            continue
        num = den = 1
        for (wp, wq), (gp, gq) in zip(
            reversed(w_ratio[k_lo:k_hi]), g_ratio[n - k_hi + 1 : n - k_lo + 1]
        ):
            den *= wq * gq
            num = den + (wp * gp) * num
        coeffs.append(Fraction(wps[k_lo] * gqs[n - k_hi] * num, wqs[k_hi] * gps[n - k_lo]))
    return tuple(coeffs)


def cauchy_oracle(spec: WeightedSeriesSpec | LogProductSpec, n_max: int) -> CoeffSequence:
    """Ground-truth coefficients by direct Cauchy-product convolution, O(N^2).

    The coefficients w_k = (a)_k (b)_k / (k! (c)_k) of F are convolved with
    those of the binomial factor, theta^j (-p)_j / j! for a
    :class:`WeightedSeriesSpec`, or with the ln(1-x) coefficients -1/j for a
    :class:`LogProductSpec`.  Nothing here uses the recurrences it certifies.

    Exact mode (every parameter an int or Fraction) sums each u_n by nested
    Horner over the term ratio of its summands, which is a quotient of small
    integers, over the window of k where neither factor vanishes.  It puts
    the sum over a closed-form denominator built from integer running
    products of the ratios, forms no Fraction per term and normalises once
    per coefficient; the result is the same Fraction, numerator and
    denominator, as summing Fraction products.  Float mode (any
    parameter a float) takes the Pochhammer factors as finite products, never
    via gamma, and sums the products in the field of the inputs.
    """
    _check_n(n_max)
    params = spec.params
    a, b, c = params.a, params.b, params.c
    log = isinstance(spec, LogProductSpec)
    exact = is_exact(a, b, c) if log else is_exact(a, b, c, spec.p, spec.theta)
    if exact:
        return CoeffSequence(spec, _exact_cauchy_product(spec, n_max), Method.CAUCHY_ORACLE)
    w = hyp_series_coeffs(params, n_max)
    if log:
        g = _log_series_coeffs(_one(a, b, c), n_max)
    else:
        p, th = spec.p, spec.theta
        # (-p)_j as a running product: pochhammer(-p, j)'s multiplications in
        # its order, so every g_j keeps its bits, in O(N) rather than O(N^2).
        # Once that direct form no longer converts to a float (j! from
        # j = 171, or an exact theta^j (-p)_j of more than about 1e308), g_j
        # steps from g_(j-1) instead.
        g, rising = [], 1
        for j in range(n_max + 1):
            try:
                g.append(1.0 * th**j * rising / math.factorial(j))
            except OverflowError:
                break
            rising *= -p + j
        for j in range(len(g), n_max + 1):
            g.append(g[-1] * th * (j - 1 - p) / j)
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
    one = _one(q)
    u = [one, q - Fraction(1, 8) * one]
    for n in range(1, n_max):
        den = (n + 1) * (n + 2)
        num1 = 2 * n * n + (2 * q + 1) * n + 2 * q - Fraction(1, 4) * one
        num2 = (n + q - Fraction(1, 2) * one) * (n + q - Fraction(3, 2) * one)
        u.append((num1 * u[n] - num2 * u[n - 1]) / den)
    half = one / 2
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
# number rendering


def format_number(v) -> str:
    """Shortest round-trip decimal for floats; "num/den" for exact values."""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, int):
        return f"{v}/1"
    return repr(float(v))
