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

import csv
import io
import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import numkit, specfn
from .compare import rel_with_floor
from .coeffrec import format_number, u_theta_plus1
from .errors import DomainError, ParameterError
from .hypergeom import HypParams, _hyp2f1_unit
from .hypergeom import hyp2f1  # noqa: F401  (kept as schurmean.hyp2f1, the binding perfbench's tracer wraps)

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
    "scan_report_json",
    "scan_reports_csv",
]

#: Default scan grid {0.02k : k = 1..49}.
DEFAULT_T_GRID = tuple(0.02 * k for k in range(1, 50))

#: Large-t probes used to detect growth direction near t = 1.
NEAR_ONE_PROBES = (0.9, 0.99, 0.999)

#: Offset in m at which ``classify_region_fuzzed`` reclassifies a triple.
FUZZ_EPS = 1e-9
#: Finite-difference step of ``schur_condition_sample``, relative to max(x, y).
DIFF_STEP = 1e-4


@dataclass(frozen=True)
class MeanParams:
    """Mean parameters: a in (0, 1), b > 0 and finite."""

    a: float
    b: float

    def __post_init__(self):
        if not 0 < self.a < 1:
            raise ParameterError(f"a must lie in (0, 1), got {self.a!r}")
        if not 0 < self.b < math.inf:
            raise ParameterError(f"b must be positive and finite, got {self.b!r}")


@dataclass(frozen=True)
class RegionTriple:
    """A point (a, b, m): mean parameters plus the Schur power index m."""

    mean: MeanParams
    m: float


class Region(str, Enum):
    EPLUS = "E+"
    EMINUS = "E-"
    NEITHER = "neither"


@dataclass(frozen=True)
class RegionLabel:
    """Classification of a triple, the threshold m0 and the clause that fired."""

    label: Region
    m0: float
    branch: str


def _require_positive_args(x: float, y: float) -> None:
    if not (x > 0 and y > 0):
        raise ParameterError(f"mean arguments must be positive, got ({x!r}, {y!r})")


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
    f_val = _hyp2f1_unit(HypParams._derived(-a, b, 2 * b), 1.0 - ratio, tol, ratio).value
    return hi * f_val ** (1.0 / a)


def mean_quadrature(x: float, y: float, mp: MeanParams, tol: float = 1e-10) -> float:
    """M(x, y) through the Beta-weighted integral representation."""
    _require_positive_args(x, y)
    a, b = mp.a, mp.b
    quad = numkit.weighted_quad(lambda s: (s * x + (1.0 - s) * y) ** a, b, tol)
    return (quad.value / specfn.beta(b, b)) ** (1.0 / a)


def _require_unit_interval(t: float) -> None:
    if not 0 < t < 1:
        raise ParameterError(f"t must lie in (0, 1), got {t!r}")


def _float_t_grid(t_grid) -> tuple[float, ...]:
    """The t grid (``DEFAULT_T_GRID`` for None) as floats, nonempty and inside (0, 1)."""
    ts = tuple(float(t) for t in (DEFAULT_T_GRID if t_grid is None else t_grid))
    if not ts:
        raise ParameterError("the t grid is empty")
    for t in ts:
        _require_unit_interval(t)
    return ts


def g_m(t: float, triple: RegionTriple, tol: float = 1e-12) -> float:
    """G_m(t) = F(1-a,b;2b+1;t) - (1-t)^(1-m) F(1-a,b+1;2b+1;t)."""
    _require_unit_interval(t)
    a, b, m = triple.mean.a, triple.mean.b, triple.m
    f1 = _hyp2f1_unit(HypParams(1 - a, b, 2 * b + 1), t, tol).value
    f2 = _hyp2f1_unit(HypParams(1 - a, b + 1, 2 * b + 1), t, tol).value
    return f1 - (1.0 - t) ** (1.0 - m) * f2


def g_m_alt(t: float, triple: RegionTriple, tol: float = 1e-12) -> float:
    """Alternative form F(1-a,b;2b+1;t) - (1-t)^(a+b-m) F(a+2b,b;2b+1;t).

    Obtained from ``g_m`` by Euler-transforming the second series; valid only
    for a + b < 1, where both forms agree identically.
    """
    _require_unit_interval(t)
    a, b, m = triple.mean.a, triple.mean.b, triple.m
    if not a + b < 1:
        raise DomainError(f"alternative form requires a+b < 1, got a+b={a + b!r}")
    f1 = _hyp2f1_unit(HypParams(1 - a, b, 2 * b + 1), t, tol).value
    f2 = _hyp2f1_unit(HypParams(a + 2 * b, b, 2 * b + 1), t, tol).value
    return f1 - (1.0 - t) ** (a + b - m) * f2


def g_m_series_reduction_residual(t: float, triple: RegionTriple, tol: float = 1e-12) -> float:
    """Residual of the series identity

        2 F(-a,b;2b;t) - (1-t) F(1-a,b+1;2b+1;t) = F(1-a,b;2b+1;t)

    which reduces the Schur differential of the mean to G_m.
    """
    _require_unit_interval(t)
    a, b = triple.mean.a, triple.mean.b
    lhs = (
        2.0 * _hyp2f1_unit(HypParams._derived(-a, b, 2 * b), t, tol).value
        - (1.0 - t) * _hyp2f1_unit(HypParams(1 - a, b + 1, 2 * b + 1), t, tol).value
    )
    return lhs - _hyp2f1_unit(HypParams(1 - a, b, 2 * b + 1), t, tol).value


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
    m0 = (a + 2 * b) / (1 + 2 * b)
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


def _q_p0_point(a, b, p0, t: float, tol: float) -> float:
    num = _hyp2f1_unit(HypParams(a, b, 2 * b + 1), t, tol).value
    den = _hyp2f1_unit(HypParams(a, b + 1, 2 * b + 1), t, tol).value
    return (1.0 - t) ** (-p0) * num / den


def q_p0_profile(mp: MeanParams, t_grid, tol: float = 1e-12) -> list[float]:
    """Q_p0(t) = (1-t)^(-p0) F(a,b;2b+1;t) / F(a,b+1;2b+1;t), p0 = a/(2b+1).

    Evaluated on the given grid.  Q is identically 1 when a - b = 1/2 and is
    strictly decreasing (increasing) on (0, 1) when a - b > 1/2 (< 1/2).
    """
    a, b = mp.a, mp.b
    p0 = a / (2 * b + 1)
    return [_q_p0_point(a, b, p0, t, tol) for t in _float_t_grid(t_grid)]


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
    exact = isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction))
    p0 = a / (2 * b + 1) if exact else float(a) / (2.0 * float(b) + 1.0)
    c = 2 * b + 1
    u = u_theta_plus1(HypParams(a, b, c), -p0, n_max + 1).coeffs
    d = [u[n + 1] - (n + a) * (n + b + 1) / ((n + 1) * (n + c)) * u[n] for n in range(n_max + 1)]
    half = _HALF if exact else 0.5
    for n in range(1, n_max + 1):
        alpha_p = n * ((2 * b + 1) * n + 4 * b * b + 2 * a - 1) / ((2 * b + 1) * (n + 1) * (n + 2 * b + 1))
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
    return (y - x) * (y ** (1.0 - m) * dm_dy - x ** (1.0 - m) * dm_dx)


# ---------------------------------------------------------------------------
# sign scans


@dataclass(frozen=True)
class GmScanReport:
    """Result of sampling G_m over a grid for one (a, b, m) triple."""

    a: float
    b: float
    m: float
    label: str
    branch: str
    gm_min: float
    gm_max: float
    consistent: bool
    sign_change_t: float | None
    near_one: tuple[tuple[float, float], ...]
    warning: str | None


def _sign_with_tol(v: float, sign_tol: float) -> int:
    if v > sign_tol:
        return 1
    if v < -sign_tol:
        return -1
    return 0


def _build_report(
    triple: RegionTriple,
    t_values,
    g_values,
    near_one,
    sign_tol: float,
) -> GmScanReport:
    label = classify_region(triple)
    gm_min = min(g_values)
    gm_max = max(g_values)
    sign_change_t = None
    last_sign = 0
    for t, g in list(zip(t_values, g_values)) + list(near_one):
        s = _sign_with_tol(g, sign_tol)
        if s != 0:
            if last_sign != 0 and s != last_sign and sign_change_t is None:
                sign_change_t = t
            last_sign = s
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
        a=float(a),
        b=float(b),
        m=float(m),
        label=label.label.value,
        branch=label.branch,
        gm_min=gm_min,
        gm_max=gm_max,
        consistent=consistent,
        sign_change_t=sign_change_t,
        near_one=tuple(near_one),
        warning=warning,
    )


def _scan_cell(mean: MeanParams, m_values, ts, tol: float, sign_tol: float) -> list[GmScanReport]:
    """Reports for (a, b, m) over m_values, evaluating both series once per t."""
    a, b = mean.a, mean.b
    f1 = [_hyp2f1_unit(HypParams(1 - a, b, 2 * b + 1), t, tol).value for t in ts]
    f2 = [_hyp2f1_unit(HypParams(1 - a, b + 1, 2 * b + 1), t, tol).value for t in ts]
    f1_near = [_hyp2f1_unit(HypParams(1 - a, b, 2 * b + 1), t, tol).value for t in NEAR_ONE_PROBES]
    f2_near = [_hyp2f1_unit(HypParams(1 - a, b + 1, 2 * b + 1), t, tol).value for t in NEAR_ONE_PROBES]
    reports = []
    for m in m_values:
        g_values = [f1[i] - (1.0 - ts[i]) ** (1.0 - m) * f2[i] for i in range(len(ts))]
        near = tuple(
            (t, f1_near[i] - (1.0 - t) ** (1.0 - m) * f2_near[i])
            for i, t in enumerate(NEAR_ONE_PROBES)
        )
        reports.append(_build_report(RegionTriple(mean, m), ts, g_values, near, sign_tol))
    return reports


def gm_sign_scan(
    triple: RegionTriple,
    t_grid=None,
    tol: float = 1e-12,
    sign_tol: float = 1e-8,
) -> GmScanReport:
    """Sample G_m over a t-grid and compare the sign profile with the label.

    E+ (E-) triples must show min >= -sign_tol (max <= sign_tol); for triples
    in neither region the report records the first sign change if one is
    visible.  Growth direction near t = 1 is probed at t in {0.9, 0.99, 0.999}
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
    one-m case).  Grid points are processed in the given order and reports are
    returned in that deterministic order.  Triples with a + b < 1/2, outside
    the hypothesis of the sign dichotomy, are skipped.
    """
    ts = _float_t_grid(t_grid)
    reports = []
    for a in a_values:
        for b in b_values:
            if a + b < 0.5:
                continue
            reports.extend(_scan_cell(MeanParams(a, b), m_values, ts, tol, sign_tol))
    return reports


def scan_report_json(report: GmScanReport) -> str:
    """JSON rendering of one scan report, stable key order."""
    payload = {
        "a": report.a,
        "b": report.b,
        "m": report.m,
        "label": report.label,
        "branch": report.branch,
        "gm_min": report.gm_min,
        "gm_max": report.gm_max,
        "consistent": report.consistent,
        "sign_change_t": report.sign_change_t,
        "near_one": [[t, g] for t, g in report.near_one],
        "warning": report.warning,
    }
    return json.dumps(payload, sort_keys=True)


def scan_reports_csv(reports) -> str:
    """CSV rendering (a, b, m, label, branch, gm_min, gm_max) of scan reports."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["a", "b", "m", "label", "branch", "gm_min", "gm_max"])
    for r in reports:
        writer.writerow(
            [
                format_number(r.a),
                format_number(r.b),
                format_number(r.m),
                r.label,
                r.branch,
                format_number(r.gm_min),
                format_number(r.gm_max),
            ]
        )
    return out.getvalue()
