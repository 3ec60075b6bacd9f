"""The hypergeometric mean M(x, y) and its Schur m-power convexity analysis.

For a in (0, 1) and b > 0 the mean has two equivalent representations,

    M(x,y) = [ (1/B(b,b)) * integral_0^1 (sx + (1-s)y)^a s^(b-1) (1-s)^(b-1) ds ]^(1/a)
           = max(x,y) * F(-a, b; 2b; t)^(1/a),   t = 1 - min(x,y)/max(x,y),

and whether it is Schur m-power convex or concave on the positive quadrant is
decided by the sign of

    G_m(t) = F(1-a, b; 2b+1; t) - (1-t)^(1-m) F(1-a, b+1; 2b+1; t)

on (0, 1).  This module provides both mean representations, G_m in both of
its forms, the exact set classifier for the parameter regions E+ / E- where
G_m keeps one sign, the monotone-ratio machinery (Q profile and d_n
sequence) behind the sufficiency proof, and a finite-difference sampler of
the Schur differential itself so the classification can be cross-checked
against the definition.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from fractions import Fraction

from . import numkit, specfn
from ._record import Record
from .coeffrec import is_exact, u_theta_plus1
from .errors import DomainError, NonConvergence, ParameterError
from .hypergeom import HypParams, _hyp2f1_grid, _hyp2f1_unit, _require_finite
from .hypergeom import hyp2f1  # noqa: F401  (kept as schurmean.hyp2f1, the binding perfbench's tracer wraps)
from .numkit import _power, rel_with_floor

__all__ = [
    "DEFAULT_T_GRID",
    "NEAR_ONE_PROBES",
    "MeanParams",
    "RegionTriple",
    "Region",
    "RegionLabel",
    "GmScanReport",
    "mean_series",
    "mean_quadrature",
    "g_m",
    "g_m_alt",
    "g_m_series_reduction_residual",
    "classify_region",
    "classify_region_fuzzed",
    "q_params_for_mean",
    "q_p0_profile",
    "q_p0_dn_sequence",
    "gamma_inequality_margin",
    "schur_condition_sample",
    "gm_sign_scan",
    "schur_grid_scan",
]

#: Default scan grid {0.02k : k = 1..49}.
DEFAULT_T_GRID = tuple(0.02 * k for k in range(1, 50))

#: Large-t probes used to detect growth direction near t = 1.
NEAR_ONE_PROBES = (0.9, 0.99, 0.999)

#: The default cell grid (``DEFAULT_T_GRID`` and the probes), its points
#: (t, None) and its complements 1 - t, built once for every scan cell.
_CELL_T = DEFAULT_T_GRID + NEAR_ONE_PROBES
_CELL_POINTS = tuple((t, None) for t in _CELL_T)
_CELL_YS = tuple(1.0 - t for t in _CELL_T)

#: Offset in m at which ``classify_region_fuzzed`` reclassifies a triple.
FUZZ_EPS = 1e-9
#: Finite-difference step of ``schur_condition_sample``, relative to max(x, y).
DIFF_STEP = 1e-4


class MeanParams(Record):
    """Mean parameters: a in (0, 1), b > 0 and finite."""

    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        if not 0 < a < 1:
            raise ParameterError(f"a must lie in (0, 1), got {a!r}")
        _require_finite("b", b)
        if not 0 < b:
            raise ParameterError(f"b must be positive, got {b!r}")
        Record.__init__(self, a, b)


class RegionTriple(Record):
    """A point (a, b, m): mean parameters plus the Schur power index m, finite."""

    __slots__ = ("mean", "m")

    def __init__(self, mean: MeanParams, m: float):
        _require_finite("m", m)
        Record.__init__(self, mean, m)


class Region(str, Enum):
    EPLUS = "E+"
    EMINUS = "E-"
    NEITHER = "neither"


class RegionLabel(Record):
    """Classification of a triple, the threshold m0 and the clause that fired."""

    __slots__ = ("label", "m0", "branch")


def _require_positive_args(x: float, y: float) -> None:
    if not (0 < x < math.inf and 0 < y < math.inf):
        raise ParameterError(f"mean arguments must be finite and positive, got ({x!r}, {y!r})")


def _series_c(b, shift: int):
    """c = 2b + shift, the c that the mean's series and G_m's derive from b.

    From b of about 9e307 it overflows to inf; b, the parameter the caller
    gave, is then named as too large.
    """
    c = 2 * b + shift
    if c == math.inf:
        raise ParameterError(f"b={b!r} is too large: the series' c = 2b{' + 1' if shift else ''} overflows to inf")
    return c


def mean_series(x: float, y: float, mp: MeanParams, tol: float = 1e-12) -> float:
    """M(x, y) through the series representation max * F(-a,b;2b;t)^(1/a).

    Symmetric by construction: the arguments are swapped so that
    t = 1 - min/max always lies in [0, 1).  The complement min/max goes to
    the evaluator as it is, so t near 1 keeps its digits.
    """
    _require_positive_args(x, y)
    hi, lo = (x, y) if x >= y else (y, x)
    ratio = lo / hi
    if ratio == 1.0:
        return float(hi)
    a, b = mp.a, mp.b
    f_val = _hyp2f1_unit(HypParams._derived(-a, b, _series_c(b, 0)), 1.0 - ratio, tol, ratio)
    return hi * f_val ** (1.0 / a)


def mean_quadrature(x: float, y: float, mp: MeanParams, tol: float = 1e-10) -> float:
    """M(x, y) through the Beta-weighted integral representation.

    The mean is homogeneous, M(x, y) = hi M(r, 1) with r = lo/hi, so the
    integrand is taken in units of hi as (r + s(1 - r))^a, between r^a and
    1.  ``tol`` bounds the error estimate of that integral, which a double
    can meet at any ratio.  The integrand turns at s = r/(1 - r), which is
    where ``weighted_quad`` grades its panels from; a ratio so large that r
    underflows to 0 turns at the smallest positive float instead.  No
    hypergeometric series is summed, so this stays an independent check on
    ``mean_series``.  Equal arguments give that argument exactly, as in
    ``mean_series``, since the rule's rounding can land above max(x, y);
    tol is checked first, so a bad one is refused there too.

    The integral is about B(b, b), which leaves the normal double range from
    b of about 510 and is 0 from about 537; the rule's weights shrink with
    it and lose their digits, so there :class:`NonConvergence` is raised.
    Where ``specfn.beta`` overflows, B(b, b) is taken as the double it
    rounds to: 0 from b of about 2.6e305, where ln Gamma(b) overflows, so
    :class:`NonConvergence` is raised there too, and inf below b of about
    1.1e-308, where the rule itself refuses the weight.
    """
    _require_positive_args(x, y)
    numkit._require_tol(tol)
    hi, lo = (x, y) if x >= y else (y, x)
    ratio = lo / hi
    if ratio == 1.0:
        return float(hi)
    a, b = mp.a, mp.b
    try:
        norm = specfn.beta(b, b)
    except OverflowError:
        norm = 0.0 if b > 1.0 else math.inf
    if norm < sys.float_info.min:
        raise NonConvergence(
            f"B(b, b) = {norm!r} at b={b!r} underflows the normal double range, and the "
            "quadrature weights with it, so the integral keeps too few digits"
        )
    turn = max(ratio / (1.0 - ratio), math.ulp(0.0))
    quad = numkit.weighted_quad(lambda s: (ratio + s * (1.0 - ratio)) ** a, b, tol, turn)
    return hi * _power(quad.value / norm, 1.0 / a, "(integral / B(b, b))^(1/a)")


def _require_unit_interval(t: float) -> None:
    if not 0 < t < 1:
        raise ParameterError(f"t must lie in (0, 1), got {t!r}")


def _float_t_grid(t_grid) -> tuple[float, ...]:
    """The t grid as floats, nonempty and inside (0, 1).

    None stands for ``DEFAULT_T_GRID``, which is returned as it is, valid by
    construction; a grid passed in is converted and checked on every call.
    """
    if t_grid is None:
        return DEFAULT_T_GRID
    ts = tuple(float(t) for t in t_grid)
    if not ts:
        raise ParameterError("the t grid is empty")
    for t in ts:
        _require_unit_interval(t)
    return ts


def _gm_series(a, b, ts, tol: float) -> tuple[list[float], list[float]]:
    """F(a,b;2b+1;t) and F(a,b+1;2b+1;t) over ts, the two series of G_m and of Q.

    G_m reads them at a -> 1-a and the Q profile at its own a, which
    ``q_params_for_mean`` sets to the same 1-a.  Built here alone, every
    reader forms the same parameters and so shares the values
    ``hypergeom._hyp2f1_grid`` remembers per series; each series is read a
    grid at a time, the first before the second, and the two lists of floats
    are returned as that evaluator gives them.  The callers' ``MeanParams``
    have checked a and b, and c = 2b + 1 > 1 is never near a pole, so both
    records are built by ``HypParams._derived``.  The default cell grid's
    points (t, None) are built once, at import.
    """
    c = _series_c(b, 1)
    points = _CELL_POINTS if ts is _CELL_T else [(t, None) for t in ts]
    return (
        _hyp2f1_grid(HypParams._derived(a, b, c), points, tol),
        _hyp2f1_grid(HypParams._derived(a, b + 1, c), points, tol),
    )


def g_m(t: float, triple: RegionTriple, tol: float = 1e-12) -> float:
    """G_m(t) = F(1-a,b;2b+1;t) - (1-t)^(1-m) F(1-a,b+1;2b+1;t)."""
    _require_unit_interval(t)
    a, b, m = triple.mean.a, triple.mean.b, triple.m
    (f1,), (f2,) = _gm_series(1 - a, b, (t,), tol)
    return f1 - _power(1.0 - t, 1.0 - m, "(1-t)^(1-m)") * f2


def g_m_alt(t: float, triple: RegionTriple, tol: float = 1e-12) -> float:
    """Alternative form F(1-a,b;2b+1;t) - (1-t)^(a+b-m) F(a+2b,b;2b+1;t).

    Obtained from ``g_m`` by Euler-transforming the second series; valid only
    for a + b < 1, where both forms agree identically.
    """
    _require_unit_interval(t)
    a, b, m = triple.mean.a, triple.mean.b, triple.m
    if not a + b < 1:
        raise DomainError(f"alternative form requires a+b < 1, got a+b={a + b!r}")
    c = _series_c(b, 1)
    f1 = _hyp2f1_unit(HypParams(1 - a, b, c), t, tol)
    f2 = _hyp2f1_unit(HypParams(a + 2 * b, b, c), t, tol)
    return f1 - _power(1.0 - t, a + b - m, "(1-t)^(a+b-m)") * f2


def g_m_series_reduction_residual(t: float, triple: RegionTriple, tol: float = 1e-12) -> float:
    """Residual of the series identity

        2 F(-a,b;2b;t) - (1-t) F(1-a,b+1;2b+1;t) = F(1-a,b;2b+1;t)

    which reduces the Schur differential of the mean to G_m.
    """
    _require_unit_interval(t)
    a, b = triple.mean.a, triple.mean.b
    f0 = _hyp2f1_unit(HypParams._derived(-a, b, _series_c(b, 0)), t, tol)
    (f1,), (f2,) = _gm_series(1 - a, b, (t,), tol)
    return 2.0 * f0 - (1.0 - t) * f2 - f1


_HALF = Fraction(1, 2)


def _eplus_branch(m, m0, s):
    """Clause of E+ = {m0 - m >= 0} & ({a+b>=1>m} | {m<a+b<1} | {m=a+b<=1/2})."""
    if not m <= m0:
        return None
    if s >= 1 and m < 1:
        return "a+b>=1>m"
    if m < s < 1:
        return "m<a+b<1"
    if m == s and s <= _HALF:
        return "m=a+b<=1/2"
    return None


def _eminus_branch(m, m0, s):
    """Clause of E- = {m0 - m <= 0} & ({a+b>=1, m>=1} | {1/2<=m=a+b<1} | {a+b<1, a+b<m})."""
    if not m >= m0:
        return None
    if s >= 1 and m >= 1:
        return "a+b>=1,m>=1"
    if m == s and _HALF <= s < 1:
        return "1/2<=m=a+b<1"
    if s < 1 and s < m:
        return "a+b<1,a+b<m"
    return None


def classify_region(triple: RegionTriple) -> RegionLabel:
    """Exact membership test of (a, b, m) in the sign regions E+ / E-.

    All comparisons are exact on the given inputs (Fractions classify
    exactly); callers wanting boundary fuzz apply it outside, e.g. through
    ``classify_region_fuzzed``.  The two regions overlap in the single
    boundary point m = a+b = 1/2; there the label is E+ and the branch tag
    records both memberships.
    """
    a, b, m = triple.mean.a, triple.mean.b, triple.m
    den = 1 + 2 * b
    # From b of about 9e307, 1 + 2b overflows and m0 takes its limit, 1.
    m0 = (a + 2 * b) / den if den < math.inf else 1.0
    s = a + b
    plus = _eplus_branch(m, m0, s)
    minus = _eminus_branch(m, m0, s)
    if plus is not None and minus is not None:
        return RegionLabel(Region.EPLUS, m0, f"E+:{plus}|E-:{minus}")
    if plus is not None:
        return RegionLabel(Region.EPLUS, m0, plus)
    if minus is not None:
        return RegionLabel(Region.EMINUS, m0, minus)
    return RegionLabel(Region.NEITHER, m0, "")


def classify_region_fuzzed(triple: RegionTriple):
    """Classify at m and at m +/- ``FUZZ_EPS``; flags triples sitting on a boundary.

    Returns (center_label, boundary_flag, labels_at_m_minus_plus).
    """
    center = classify_region(triple)
    lo = classify_region(RegionTriple(triple.mean, triple.m - FUZZ_EPS))
    hi = classify_region(RegionTriple(triple.mean, triple.m + FUZZ_EPS))
    boundary = not (lo.label == center.label == hi.label)
    return center, boundary, (lo, hi)


def q_params_for_mean(mp: MeanParams) -> MeanParams:
    """Adapter from mean parameters to the monotone-ratio variables.

    The ratio machinery below is stated for its own (a, b) with
    p0 = a/(2b+1); the convexity analysis invokes it at a -> 1-a, which also
    maps p0 to 1 - (a+2b)/(1+2b).  Keeping the substitution in one place lets
    each statement be tested in its own coordinates.
    """
    return MeanParams(1 - mp.a, mp.b)


def q_p0_profile(mp: MeanParams, t_grid, tol: float = 1e-12) -> list[float]:
    """Q_p0(t) = (1-t)^(-p0) F(a,b;2b+1;t) / F(a,b+1;2b+1;t), p0 = a/(2b+1).

    Evaluated on the given grid.  Q is identically 1 when a - b = 1/2 and is
    strictly decreasing (increasing) on (0, 1) when a - b > 1/2 (< 1/2).
    """
    a, b = mp.a, mp.b
    p0 = a / (2 * b + 1)
    ts = _float_t_grid(t_grid)
    num, den = _gm_series(a, b, ts, tol)
    return [(1.0 - t) ** (-p0) * n / d for t, n, d in zip(ts, num, den)]


def _alpha_prime(a, b, n):
    """alpha'_n = n ((2b+1)n + 4b^2 + 2a - 1) / ((2b+1)(n+1)(n+2b+1)), the d_n recursion's factor."""
    return n * ((2 * b + 1) * n + 4 * b * b + 2 * a - 1) / ((2 * b + 1) * (n + 1) * (n + 2 * b + 1))


def q_p0_dn_sequence(mp: MeanParams, n_max: int) -> list:
    """Differences d_n = u_(n+1) - (v_(n+1)/v_n) u_n driving the Q monotonicity.

    Here u_n are the coefficients of (1-t)^(-p0) F(a,b;2b+1;t) (computed with
    the second-order recurrence at p = -p0) and v_n those of F(a,b+1;2b+1;t),
    whose ratio is v_(n+1)/v_n = (n+a)(n+b+1) / ((n+1)(n+2b+1)).  Always
    d_0 = d_1 = 0, and for n >= 2 the sign of d_n is -sign(a-b-1/2).

    The closed-form recursion d_n = alpha'_n d_(n-1) + beta'_n u_(n-1) with

        alpha'_n = n ((2b+1)n + 4b^2 + 2a - 1) / ((2b+1)(n+1)(n+2b+1))
        beta'_n  = -[2b(2b+1-a)(a-b-1/2) / (2b+1)^2]
                   * (n-1) / ((n+1)(n+2b)(n+2b+1))

    is re-derived internally from the direct differences and a mismatch raises
    ``RuntimeError``; exact inputs must reproduce it exactly.

    Feed Fractions for a and b to get the whole computation exact.
    """
    if n_max < 2:
        raise DomainError(f"d_n sequence needs N >= 2, got {n_max}")
    a, b = mp.a, mp.b
    exact = is_exact(a, b)
    p0 = a / (2 * b + 1) if exact else float(a) / (2.0 * float(b) + 1.0)
    c = 2 * b + 1
    u = u_theta_plus1(HypParams(a, b, c), -p0, n_max + 1).coeffs
    d = [u[n + 1] - (n + a) * (n + b + 1) / ((n + 1) * (n + c)) * u[n] for n in range(n_max + 1)]
    half = _HALF if exact else 0.5
    for n in range(1, n_max + 1):
        alpha_p = _alpha_prime(a, b, n)
        beta_p = (
            -(2 * b * (2 * b + 1 - a) * (a - b - half) / (2 * b + 1) ** 2)
            * (n - 1)
            / ((n + 1) * (n + 2 * b) * (n + 2 * b + 1))
        )
        recursed = alpha_p * d[n - 1] + beta_p * u[n - 1]
        if exact:
            if recursed != d[n]:
                raise RuntimeError(f"d_n recursion failed exactly at n={n}")
        elif rel_with_floor(recursed, d[n]) > 1e-9:
            raise RuntimeError(
                f"d_n recursion mismatch at n={n}: direct={d[n]!r} recursed={recursed!r}"
            )
    return d


def gamma_inequality_margin(a: float, b: float) -> float:
    """Gamma(a+b)/Gamma(a+2b) - Gamma(1-a-b)/Gamma(1-a) for 0 < a < a+b < 1.

    The sign is -sign(a+b-1/2): log-convexity of Gamma makes the first ratio
    smaller (larger) exactly when a+b exceeds (falls below) 1/2, with equality
    at a+b = 1/2 by argument symmetry.
    """
    if not (0 < a and a < a + b and a + b < 1):
        raise DomainError(f"requires 0 < a < a+b < 1, got a={a!r}, b={b!r}")
    first = specfn.ln_gamma(a + b) - specfn.ln_gamma(a + 2 * b)
    second = specfn.ln_gamma(1 - a - b) - specfn.ln_gamma(1 - a)
    return math.exp(first) - math.exp(second)


def schur_condition_sample(
    x: float,
    y: float,
    triple: RegionTriple,
    tol: float = 1e-12,
) -> float:
    """The Schur m-power differential (y-x) (y^(1-m) dM/dy - x^(1-m) dM/dx).

    Partials are finite differences of the series representation (step
    h = 1e-4 * max(x, y), Richardson depth 3).  Up to the positive factor
    (1/2) y^(1-m) F^(1/a - 1), the sample equals G_m(t) at t = 1 - min/max, so
    its sign must agree with the sign of ``g_m`` wherever the latter is clear
    of the differentiation noise floor.
    """
    _require_positive_args(x, y)
    if x == y:
        raise DomainError("the differential criterion needs x != y (limit value is 0)")
    mp, m = triple.mean, triple.m
    h = DIFF_STEP * max(x, y)
    dm_dx = numkit.central_diff(lambda s: mean_series(s, y, mp, tol), x, h)
    dm_dy = numkit.central_diff(lambda s: mean_series(x, s, mp, tol), y, h)
    return (y - x) * (_power(y, 1.0 - m, "y^(1-m)") * dm_dy - _power(x, 1.0 - m, "x^(1-m)") * dm_dx)


# ---------------------------------------------------------------------------
# sign scans


class GmScanReport(Record):
    """Result of sampling G_m over a grid for one (a, b, m) triple.

    a, b and m are floats; label and branch are the region label's value
    and clause; gm_min and gm_max bound G_m over the grid; consistent says
    whether the sampled signs agree with the label; sign_change_t is the
    first t where the sign changed, or None; near_one holds the probes'
    (t, G_m) pairs; warning is a message, or None.
    """

    __slots__ = (
        "a", "b", "m", "label", "branch", "gm_min", "gm_max",
        "consistent", "sign_change_t", "near_one", "warning",
    )


def _build_report(
    triple: RegionTriple,
    t_values,
    g_values,
    near_one,
    sign_tol: float,
) -> GmScanReport:
    """The report of one triple from its grid values and its probes' (t, G_m) pairs, for sign_tol >= 0.

    The sign walk finds the first t whose sign, +1 above sign_tol and -1
    below -sign_tol, differs from the last one seen; values within sign_tol
    have none.  It is skipped where every grid and probe value lies above
    sign_tol, or every one below -sign_tol, since no sign can change there.
    A NaN has no sign in the walk, and the shortcut passes over it too: min
    and max skip a NaN unless it comes first, and then give NaN, which fails
    both tests, so the walk runs.
    """
    label = classify_region(triple)
    gm_min = min(g_values)
    gm_max = max(g_values)
    sign_change_t = None
    near_g = [g for _, g in near_one]
    if not (min((gm_min, *near_g)) > sign_tol or max((gm_max, *near_g)) < -sign_tol):
        last_sign = 0
        for t, g in (*zip(t_values, g_values), *near_one):
            if g > sign_tol:
                sign = 1
            elif g < -sign_tol:
                sign = -1
            else:
                continue
            if last_sign and sign != last_sign:
                sign_change_t = t
                break
            last_sign = sign
    if label.label is Region.EPLUS:
        consistent = gm_min >= -sign_tol
    elif label.label is Region.EMINUS:
        consistent = gm_max <= sign_tol
    else:
        consistent = sign_change_t is not None
    a, b, m = triple.mean.a, triple.mean.b, triple.m
    warning = None
    if a + b < 0.5:
        warning = "hypothesis violated: a+b < 1/2, the sign dichotomy is not asserted there"
    elif not consistent:
        if label.label is Region.NEITHER:
            warning = "no sign change detected on the sampled grid"
        else:
            warning = "sampled signs contradict the region label"
    return GmScanReport(
        float(a), float(b), float(m), label.label.value, label.branch, gm_min, gm_max,
        consistent, sign_change_t, tuple(near_one), warning,
    )


def _scan_cell(mean: MeanParams, m_values, ts, tol: float, sign_tol: float) -> list[GmScanReport]:
    """Reports for (a, b, m) over m_values, reading each series once per cell.

    One ``_gm_series`` call reads both series over ts and the near-one
    probes together, and 1 - t is formed once per point for every m: on the
    default grid the cell's t values and their 1 - t are built once, at
    import, and on any other grid once per cell.  A
    later ``gm_sign_scan``, ``q_p0_profile`` or ``g_m`` of the same cell at
    the same points reads the values this scan computed, as long as
    ``hypergeom._hyp2f1_grid`` still holds them.  A cell that fails raises
    the first failure of that one read: F(1-a,b;2b+1;t) over ts and then the
    probes, then F(1-a,b+1;2b+1;t) likewise.  Nothing is read again, so each
    point, the failing one included, is summed once.  A weight (1-t)^(1-m)
    that leaves the double range raises :class:`NonConvergence`.
    """
    if not sign_tol >= 0:
        raise ParameterError(f"sign_tol must be nonnegative, got {sign_tol!r}")
    if ts is DEFAULT_T_GRID:
        cell_t, ys = _CELL_T, _CELL_YS
    else:
        cell_t = ts + NEAR_ONE_PROBES
        ys = [1.0 - t for t in cell_t]
    f1, f2 = _gm_series(1 - mean.a, mean.b, cell_t, tol)
    n = len(ts)
    reports = []
    for m in m_values:
        power = 1.0 - m
        try:
            g_values = [u - y ** power * v for u, y, v in zip(f1, ys, f2)]
        except OverflowError:
            # Again through _power, which names the first weight that overflowed.
            g_values = [u - _power(y, power, "(1-t)^(1-m)") * v for u, y, v in zip(f1, ys, f2)]
        near = tuple(zip(NEAR_ONE_PROBES, g_values[n:]))
        reports.append(_build_report(RegionTriple(mean, m), ts, g_values[:n], near, sign_tol))
    return reports


def gm_sign_scan(
    triple: RegionTriple,
    t_grid=None,
    tol: float = 1e-12,
    sign_tol: float = 1e-8,
) -> GmScanReport:
    """Sample G_m over a t-grid and compare the sign profile with the label.

    E+ (E-) triples must show min >= -sign_tol (max <= sign_tol), with
    sign_tol >= 0; for triples in neither region the report records the
    first sign change if one is visible.  Growth direction near t = 1 is probed at t in {0.9, 0.99, 0.999}
    rather than by computing the limit itself.
    """
    return _scan_cell(triple.mean, (triple.m,), _float_t_grid(t_grid), tol, sign_tol)[0]


def schur_grid_scan(
    a_values,
    b_values,
    m_values,
    t_grid=None,
    tol: float = 1e-12,
    sign_tol: float = 1e-8,
) -> list[GmScanReport]:
    """Scan G_m over a full (a, b, m) grid, sharing series work across m.

    Both series in G_m depend only on (a, b, t), so for each (a, b) they are
    evaluated once per grid point and combined per m (``gm_sign_scan`` is the
    one-m case).  ``hypergeom._hyp2f1_grid`` remembers the last four series,
    256 values each, more than the two series at 52 points of one cell on
    the default grid, so scans, Q profiles and ``g_m`` of the cell just
    scanned read them again, while a scan of many cells still computes each
    value once.  Grid points are processed in the given order and reports
    are returned in that deterministic order.  Each (a, b) is checked first;
    triples with a + b < 1/2, outside the dichotomy's hypothesis, are skipped.
    The first cell that fails raises the first failure of its one read (see
    ``_scan_cell``), and the cells before it are not returned.
    """
    ts = _float_t_grid(t_grid)
    reports = []
    for a in a_values:
        for b in b_values:
            mean = MeanParams(a, b)
            if a + b >= 0.5:
                reports.extend(_scan_cell(mean, m_values, ts, tol, sign_tol))
    return reports
