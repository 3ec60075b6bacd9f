"""Seeded, deterministic property suites over every module's invariants.

Each suite re-runs the mathematical guarantees of one layer of the package
(recurrences against the convolution oracle, corollary specializations,
special cases and closed forms, mean representations, region classification,
monotone-ratio machinery) with a deterministic parameter sampler.  Failures
are data, not exceptions: each suite yields one row per property, its name,
status, margin and note (what a margin holds differs by record; see
:class:`PropertyResult`), and the driver builds every record from a row and
the suite's name.  Identical inputs produce byte-identical reports.

The recurrence-level records (the recurrence and corollaries suites) draw
their specs from one sampler, ``_specs``: the parameter box ``PARAM_BOX``
times the weight exponents -1, 0, 1/2, 2 and c - a - b times ``THETAS``, or
the same box as exact rationals, each theta or only the ones a record asks
for.  A record that checks the box reads it there, so each sample set is
written once.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from fractions import Fraction

from . import coeffrec, schurmean
from ._record import Record
from .coeffrec import (
    LogProductSpec,
    WeightedSeriesSpec,
    cauchy_oracle,
    general_step,
    hyp_series_coeffs,
    partial_sum,
    u_general,
    u_theta_minus1,
    u_theta_plus1,
    v_log_product,
    published_recurrence_pair,
)
from .errors import ParameterError
from .hypergeom import HypParams, hyp2f1
from .numkit import rel_with_floor
from .schurmean import (
    MeanParams,
    Region,
    RegionTriple,
    classify_region,
    g_m,
    g_m_alt,
    g_m_series_reduction_residual,
    gamma_inequality_margin,
    q_p0_dn_sequence,
    q_p0_profile,
    schur_condition_sample,
    schur_grid_scan,
)
from .specfn import pochhammer

__all__ = ["SUITES", "PropertyResult", "VerifySummary", "verify_driver"]

PASS = "pass"
FAIL = "fail"
WARN = "warn"
NOTE = "note"

#: Parameter box shared by the recurrence-level suites.
PARAM_BOX = ((0.3, 0.7, 1.5), (1.0, 1.0, 2.0), (0.9, 0.2, 2.4), (-0.5, -0.5, 2.0))
THETAS = (-1.0, -0.5, 0.0, 0.5, 1.0)
#: The same box as exact rationals: Fraction(str(v)) reads each decimal literal exactly.
PARAM_BOX_EXACT = tuple(tuple(Fraction(str(v)) for v in abc) for abc in PARAM_BOX)
THETAS_EXACT = tuple(Fraction(str(v)) for v in THETAS)

#: What a suite yields per property: (name, status, margin, note).
Row = tuple[str, str, float | None, str]


def _specs(exact: bool, thetas=None) -> Iterator[WeightedSeriesSpec]:
    """The box's specs, the one sample set of the recurrence-level checks.

    Each (a, b, c) of ``PARAM_BOX`` (``PARAM_BOX_EXACT`` when ``exact``),
    each weight exponent -1, 0, 1/2, 2 and c - a - b in the field of a, and
    each theta of ``THETAS`` (``THETAS_EXACT``), or of ``thetas`` when given.
    """
    box, box_thetas = (PARAM_BOX_EXACT, THETAS_EXACT) if exact else (PARAM_BOX, THETAS)
    for a, b, c in box:
        one = coeffrec._one(a)
        for p in (-one, 0 * one, one / 2, 2 * one, c - a - b):
            for th in box_thetas if thetas is None else thetas:
                yield WeightedSeriesSpec(HypParams(a, b, c), p, th)


class PropertyResult(Record):
    """One checked property: its suite, name, status, margin and a note.

    For most records the margin is the worst deviation found, an error or a
    residual, so smaller is better and 0.0 is an exact match; a pass/fail
    check with no number reads 0.0 when it passes and None when it fails
    (the rule of ``_holds``).
    Four records hold something else:

    - ``classify-double-entry``: the number of triples whose two
      classifications disagree;
    - ``schur-differential-sign``: the number of draws, of 20, whose signs
      agree, so larger is better;
    - ``alpha-prime-positivity``: the smallest alpha'_n;
    - ``published-recurrence-divergence``: the gap between the published
      and the oracle's u_1, 7/8 against 9/8 at q = 1, so 0.25.
    """

    __slots__ = ("suite", "name", "status", "margin", "note")

    def __init__(self, suite: str, name: str, status: str, margin: float | None, note: str = ""):
        Record.__init__(self, suite, name, status, margin, note)


class VerifySummary(Record):
    __slots__ = ("suite", "seed", "results")

    @property
    def failures(self) -> int:
        return sum(1 for r in self.results if r.status == FAIL)

    @property
    def warnings(self) -> int:
        return sum(1 for r in self.results if r.status == WARN)

    @property
    def exit_code(self) -> int:
        return min(self.failures, 99)


def _check(name, ok, margin, note) -> Row:
    """A pass/fail check's row."""
    return name, PASS if ok else FAIL, margin, note


def _holds(name, ok, note) -> Row:
    """A check with no number: margin 0.0 when it passes, None when it fails."""
    return _check(name, ok, 0.0 if ok else None, note)


def _worst_rel(pairs) -> float:
    """The largest rel_with_floor between the terms of any (got, want) pair of float sequences."""
    worst = 0.0
    for got, want in pairs:
        worst = max(worst, max(map(rel_with_floor, got, want)))
    return worst


# ---------------------------------------------------------------------------
# recurrence suite


def _suite_recurrence(rng: random.Random) -> Iterator[Row]:
    worst = _worst_rel((u_general(s, 30).coeffs, cauchy_oracle(s, 30).coeffs) for s in _specs(False))
    yield _check("oracle-equivalence-float", worst <= 1e-10, worst,
                 "third-order recurrence vs Cauchy convolution, N=30")
    exact_ok = True
    for spec in _specs(True):
        if u_general(spec, 30).coeffs != cauchy_oracle(spec, 30).coeffs:
            exact_ok = False
    yield _holds("oracle-equivalence-exact", exact_ok, "identical rational coefficients")

    params = HypParams(0.3, 0.7, 1.5)
    x = 0.3
    f = hyp2f1(params, x, 1e-14).value
    for name, seq, weight, note in (
        ("partial-sum-weighted", u_theta_plus1(params, 2.0, 60), (1 - x) ** 2.0,
         "sum of 60 recurrence terms vs (1-x)^p F at x=0.3"),
        ("partial-sum-log", v_log_product(params, 60), math.log1p(-x),
         "sum of 60 log-product terms vs ln(1-x) F at x=0.3"),
    ):
        diff = abs(partial_sum(seq, x) - weight * f)
        yield _check(name, diff <= 1e-8, diff, note)


# ---------------------------------------------------------------------------
# corollaries suite


def _suite_corollaries(rng: random.Random) -> Iterator[Row]:
    exact_ok = True
    # Each specialization of the general recurrence, at its theta, in floats and exactly.
    for special, theta, name, weight in (
        (u_theta_minus1, -1, "theta-minus1-consistency", "(1+x)^p"),
        (u_theta_plus1, 1, "theta-plus1-consistency", "(1-x)^p"),
    ):
        specs = _specs(False, (float(theta),))
        worst = _worst_rel((special(s.params, s.p, 30).coeffs, u_general(s, 30).coeffs) for s in specs)
        yield _check(name, worst <= 1e-12, worst, f"{weight} specialization vs general recurrence")
        for spec in _specs(True, (Fraction(theta),)):
            if special(spec.params, spec.p, 20).coeffs != u_general(spec, 20).coeffs:
                exact_ok = False
    yield _holds("specialization-exact", exact_ok, "rational mode, termwise equality")

    worst = 0.0
    for spec in _specs(False, (1.0,)):
        u = u_theta_plus1(spec.params, spec.p, 31).coeffs
        for n in range(2, 30):
            den, xi, eta, lam = general_step(spec.params.a, spec.params.b, spec.params.c, spec.p, 1, n)
            res = u[n + 1] - (xi * u[n] - eta * u[n - 1] + lam * u[n - 2]) / den
            worst = max(worst, abs(res))
    yield _check("order-reduction-residual", worst <= 1e-12, worst,
                 "second-order sequence satisfies the third-order recurrence at theta=1")

    box = [HypParams(a, b, c) for a, b, c in PARAM_BOX]
    worst = _worst_rel((v_log_product(params, 30).coeffs, cauchy_oracle(LogProductSpec(params), 30).coeffs)
                       for params in box)
    exact = v_log_product(HypParams(Fraction(1), Fraction(1), Fraction(2)), 20).coeffs == cauchy_oracle(
        LogProductSpec(HypParams(Fraction(1), Fraction(1), Fraction(2))), 20
    ).coeffs
    yield _check("log-product-oracle", worst <= 1e-11 and exact, worst,
                 "log-product recurrence vs harmonic convolution; exact at (1,1,2)")


# ---------------------------------------------------------------------------
# special cases suite


def _elliptic_weight_literal(p: int, n_max: int) -> list[Fraction]:
    """Published recurrence for the coefficients a_n of (1-x)^(p/2) F(1/2,1/2;1;x)."""
    a = [Fraction(1), Fraction(1, 4) - Fraction(p, 2)]
    for n in range(2, n_max + 1):
        a.append(
            Fraction(8 * n * n - 4 * (p + 3) * n + (2 * p + 5), 4 * n * n) * a[n - 1]
            - Fraction((p - 2 * n + 3) ** 2, 4 * n * n) * a[n - 2]
        )
    return a[: n_max + 1]


def _suite_special_cases(rng: random.Random) -> Iterator[Row]:
    params = HypParams(Fraction(3, 10), Fraction(7, 10), Fraction(3, 2))
    w = hyp_series_coeffs(params, 25)
    collapse = all(
        u_general(WeightedSeriesSpec(params, p, Fraction(0)), 25).coeffs == tuple(w)
        for p in (Fraction(-1), Fraction(2), Fraction(7, 3))
    )
    yield _holds("theta0-collapse", collapse, "theta=0 reduces to the plain series for every p")

    worst = 0.0
    for a, b, c in PARAM_BOX:
        for th in THETAS:
            res = coeffrec.p_minus1_identity_residual(HypParams(a, b, c), th, 20)
            worst = max(worst, max(abs(r) for r in res))
    exact = all(
        r == 0
        for r in coeffrec.p_minus1_identity_residual(
            HypParams(Fraction(1), Fraction(1), Fraction(2)), Fraction(1, 2), 10
        )
    )
    yield _check("p-minus1-identity", worst <= 1e-12 and exact, worst,
                 "u_(n+1) - theta u_n telescopes to the plain series term")

    a, b, c, p = Fraction(3, 2), Fraction(4, 5), Fraction(3, 2), Fraction(3, 10)
    u = u_theta_plus1(HypParams(a, b, c), p, 12).coeffs
    ratio_ok = all(u[n] == (n - 1 + b - p) * u[n - 1] / n for n in range(1, 13 - 1))
    yield _holds("degenerate-c-equals-a", ratio_ok,
                 "c=a collapses to the first-order ratio (n-1+b-p)/n")

    a, b, c = 0.7, 0.9, 1.2
    u = u_theta_plus1(HypParams(a, b, c), a + b - c, 15).coeffs
    worst = max(
        rel_with_floor(u[n], pochhammer(c - a, n) * pochhammer(c - b, n)
                       / (math.factorial(n) * pochhammer(c, n)))
        for n in range(16)
    )
    yield _check("euler-closed-form", worst <= 1e-11, worst,
                 "p=a+b-c gives u_n=(c-a)_n(c-b)_n/(n!(c)_n) by the Euler transform")

    a, b, c, p = 0.4, 1.1, 1.1, 0.5
    u = u_theta_plus1(HypParams(a, b, c), p, 12).coeffs
    worst = max(
        rel_with_floor(u[n], pochhammer(a - p, n) / math.factorial(n)) for n in range(13)
    )
    yield _check("binomial-closed-form", worst <= 1e-11, worst,
                 "c=b gives u_n=(a-p)_n/n! since F(a,b;b;x)=(1-x)^(-a)")

    elliptic_ok = True
    for p in (1, 3):
        lit = _elliptic_weight_literal(p, 10)
        mapped = u_theta_plus1(
            HypParams(Fraction(1, 2), Fraction(1, 2), Fraction(1)), Fraction(p, 2), 10
        ).coeffs
        if tuple(lit) != mapped or lit[1] != Fraction(1, 4) - Fraction(p, 2):
            elliptic_ok = False
    yield _holds("elliptic-weight-regression", elliptic_ok,
                 "weight exponent p/2 in x=r^2 reproduces the published a_n exactly, p in {1,3}")

    literal, oracle = published_recurrence_pair(Fraction(1), 10)
    lit_u1, orc_u1 = literal.coeffs[1], oracle.coeffs[1]
    expected = lit_u1 == Fraction(7, 8) and orc_u1 == Fraction(9, 8)
    yield (
        "published-recurrence-divergence",
        NOTE if expected else FAIL,
        float(abs(lit_u1 - orc_u1)),
        "known discrepancy: published seed u1=q-1/8 vs convolution oracle u1=q+1/8 "
        "(q=1: 7/8 vs 9/8); the oracle is the pinned truth",
    )

    pos_ok = True
    for alpha, beta_ in ((Fraction(9, 10), Fraction(1, 5)), (Fraction(1, 3), Fraction(3, 2))):
        c = 2 * beta_ + 1
        p = -alpha / c
        u = u_theta_plus1(HypParams(alpha, beta_, c), p, 40).coeffs
        if not all(x > 0 for x in u):
            pos_ok = False
    yield _holds("positive-weight-coefficients", pos_ok,
                 "(1-x)^(-a/(2b+1)) F(a,b;2b+1;x) has positive coefficients")


# ---------------------------------------------------------------------------
# mean suite


def _suite_mean(rng: random.Random) -> Iterator[Row]:
    worst = 0.0
    ok = True
    for _ in range(25):
        a = rng.uniform(0.05, 0.95)
        b = rng.uniform(0.1, 2.0)
        x = rng.uniform(0.2, 3.0)
        y = rng.uniform(0.2, 3.0)
        mp = MeanParams(a, b)
        m_xy = schurmean.mean_series(x, y, mp)
        m_yx = schurmean.mean_series(y, x, mp)
        m_scaled = schurmean.mean_series(2 * x, 2 * y, mp)
        lo, hi = min(x, y), max(x, y)
        for diff in (
            abs(m_xy - m_yx),
            abs(m_scaled - 2 * m_xy) / 2,
            max(0.0, lo - m_xy),
            max(0.0, m_xy - hi),
        ):
            worst = max(worst, diff)
            ok = ok and diff <= 1e-10
        fixed = schurmean.mean_series(x, x, mp)
        worst = max(worst, abs(fixed - x))
        ok = ok and abs(fixed - x) <= 1e-10
    yield _check("mean-axioms-series", ok, worst,
                 "symmetry, homogeneity, min/max bounds, M(x,x)=x")

    worst = 0.0
    for x in (0.5, 1.0, 2.0):
        for y in (0.5, 1.0, 2.0):
            for ab in ((0.3, 0.4), (0.9, 0.2), (0.5, 1.5)):
                mp = MeanParams(*ab)
                diff = abs(
                    schurmean.mean_series(x, y, mp) - schurmean.mean_quadrature(x, y, mp)
                )
                worst = max(worst, diff)
    yield _check("series-vs-quadrature", worst <= 1e-7, worst,
                 "integral and series representations agree on the 3x3x3 grid")


# ---------------------------------------------------------------------------
# regions suite


def _reference_membership(a, b, m) -> tuple[bool, bool]:
    """Independently coded second reading of the E+ / E- set expressions."""
    m0 = (a + 2 * b) / (1 + 2 * b)
    s = a + b
    in_plus = (m0 - m >= 0) and (
        (s >= 1 and 1 > m) or (m < s and s < 1) or (m == s and 2 * s <= 1)
    )
    # E- third clause in the equivalent min form a+b < min(m, 1).
    in_minus = (m - m0 >= 0) and (
        (s >= 1 and m >= 1) or (2 * s >= 1 and m == s and s < 1) or (s < min(m, 1))
    )
    return in_plus, in_minus


def _membership_from_label(triple) -> tuple[bool, bool]:
    label = classify_region(triple)
    if label.branch.startswith("E+:"):
        return True, True
    return label.label is Region.EPLUS, label.label is Region.EMINUS


def _suite_regions(rng: random.Random) -> Iterator[Row]:
    mismatches = 0
    checked = 0
    triples = []
    for _ in range(400):
        a = rng.uniform(0.02, 0.98)
        b = rng.uniform(0.05, 2.2)
        pick = rng.random()
        m0 = (a + 2 * b) / (1 + 2 * b)
        if pick < 0.25:
            m = rng.uniform(-0.6, 1.6)
        elif pick < 0.5:
            m = m0
        elif pick < 0.75:
            m = a + b
        else:
            m = rng.choice([0.5, 1.0, a + b, m0])
        triples.append((a, b, m))
    triples.append((0.25, 0.25, 0.5))  # m = a+b = 1/2 = m0: the shared boundary point
    for a, b, m in triples:
        got = _membership_from_label(RegionTriple(MeanParams(a, b), m))
        if got != _reference_membership(a, b, m):
            mismatches += 1
        checked += 1
    yield _check("classify-double-entry", mismatches == 0, float(mismatches),
                 f"two independent set evaluations on {checked} triples")

    a_vals = [(i + 0.5) / 10 for i in range(10)]
    b_vals = [0.2 * j for j in range(1, 11)]
    m_vals = [-0.5 + k * (2.0 / 9) for k in range(9)] + [1.5]
    reports = schur_grid_scan(a_vals, b_vals, m_vals)
    worst_plus = 0.0
    worst_minus = 0.0
    bad = 0
    n_plus = n_minus = 0
    for r in reports:
        if r.label == "E+":
            n_plus += 1
            worst_plus = max(worst_plus, -r.gm_min)
            bad += 0 if r.consistent else 1
        elif r.label == "E-":
            n_minus += 1
            worst_minus = max(worst_minus, r.gm_max)
            bad += 0 if r.consistent else 1
    yield _check(
        "sign-dichotomy-grid", bad == 0, max(worst_plus, worst_minus),
        f"10x10x10 grid, a+b>=1/2: {n_plus} E+ triples keep G_m >= -1e-8, "
        f"{n_minus} E- triples keep G_m <= 1e-8",
    )

    draws = 0
    agree_count = 0
    while draws < 20:
        a = rng.uniform(0.05, 0.95)
        b = rng.uniform(0.1, 2.0)
        m = rng.uniform(-0.5, 1.5)
        if a + b < 0.5:
            continue
        x = rng.uniform(0.2, 3.0)
        y = rng.uniform(0.2, 3.0)
        if abs(x - y) < 1e-2:
            continue
        triple = RegionTriple(MeanParams(a, b), m)
        t = 1 - min(x, y) / max(x, y)
        if not 0 < t < 1:
            continue
        g = g_m(t, triple)
        if abs(g) <= 1e-4:
            continue
        sample = schur_condition_sample(x, y, triple)
        draws += 1
        if sample * g > 0:
            agree_count += 1
    yield _check("schur-differential-sign", agree_count == 20, float(agree_count),
                 "finite-difference Schur differential matches sign(G_m) on 20 draws")

    zero_case = gamma_inequality_margin(0.2, 0.3)
    ok = abs(zero_case) <= 1e-12
    worst = abs(zero_case)
    sampled = 0
    while sampled < 50:
        a = rng.uniform(0.01, 0.95)
        b = rng.uniform(0.005, 0.98 - a)
        if not (0 < a < a + b < 1) or a + b == 0.5:
            continue
        sampled += 1
        margin = gamma_inequality_margin(a, b)
        if margin * (a + b - 0.5) >= 0:
            ok = False
    yield _check("gamma-ratio-inequality", ok, worst,
                 "margin sign is -sign(a+b-1/2) on 50 samples; zero at a+b=1/2")

    worst = 0.0
    sampled = 0
    while sampled < 20:
        a = rng.uniform(0.05, 0.9)
        b = rng.uniform(0.05, 0.9)
        if a + b >= 1:
            continue
        sampled += 1
        m = rng.uniform(-0.5, 1.5)
        t = rng.uniform(0.05, 0.95)
        triple = RegionTriple(MeanParams(a, b), m)
        worst = max(worst, abs(g_m(t, triple) - g_m_alt(t, triple)))
    yield _check("gm-representation-agreement", worst <= 1e-9, worst,
                 "direct and Euler-transformed forms of G_m agree for a+b<1")

    worst = 0.0
    for ab in ((0.5, 0.5), (0.9, 0.2), (0.3, 1.5), (0.7, 0.8)):
        triple = RegionTriple(MeanParams(*ab), 0.0)
        for t in (0.1, 0.4, 0.8):
            worst = max(worst, abs(g_m_series_reduction_residual(t, triple)))
    yield _check("gm-series-reduction", worst <= 1e-9, worst,
                 "2F(-a,b;2b;t) - (1-t)F(1-a,b+1;2b+1;t) = F(1-a,b;2b+1;t)")

    g1_ok = True
    for ab in ((0.5, 0.5), (0.9, 0.2), (0.2, 1.4)):
        triple = RegionTriple(MeanParams(*ab), 1.0)
        for t in [0.1 * k for k in range(1, 10)]:
            if not g_m(t, triple) < 0:
                g1_ok = False
    yield _holds("g1-negative", g1_ok, "G_1 < 0 on (0,1) for every valid (a,b)")

    triple = RegionTriple(MeanParams(0.5, 0.5), 0.3)
    slope = g_m(1e-5, triple) / 1e-5
    m0 = (0.5 + 1.0) / 2.0
    diff = abs(slope - (m0 - 0.3))
    yield _check("gm-slope-at-zero", diff <= 1e-3, diff, "G_m(t)/t -> (a+2b)/(1+2b) - m as t -> 0")


# ---------------------------------------------------------------------------
# monotone-ratio suite


def _suite_monotone_ratio(rng: random.Random) -> Iterator[Row]:
    grid = (0.1, 0.3, 0.5, 0.7, 0.9)

    q = q_p0_profile(MeanParams(0.9, 0.4), grid)
    worst = max(abs(v - 1.0) for v in q)
    yield _check("q-constant-at-half-gap", worst <= 1e-10, worst,
                 "a-b=1/2 makes the weighted ratio identically 1")

    q_down = q_p0_profile(MeanParams(0.9, 0.2), grid)
    q_up = q_p0_profile(MeanParams(0.3, 0.5), grid)
    mono = all(q_down[i] > q_down[i + 1] for i in range(len(grid) - 1)) and all(
        q_up[i] < q_up[i + 1] for i in range(len(grid) - 1)
    )
    yield _holds("q-monotone-directions", mono,
                 "strictly decreasing for a-b>1/2, increasing for a-b<1/2")

    ok = True
    for a, b, expect_sign in (
        (Fraction(9, 10), Fraction(1, 5), -1),
        (Fraction(3, 10), Fraction(1, 2), +1),
    ):
        d = q_p0_dn_sequence(MeanParams(a, b), 30)
        if d[0] != 0 or d[1] != 0:
            ok = False
        if not all((x > 0) == (expect_sign > 0) and x != 0 for x in d[2:]):
            ok = False
    yield _holds("dn-seeds-and-signs", ok,
                 "d_0=d_1=0 exactly; sign(d_n) = -sign(a-b-1/2) for n>=2")

    violations = 0
    min_alpha = math.inf
    for _ in range(40):
        a = rng.uniform(0.01, 0.99)
        b = rng.uniform(0.01, 2.5)
        for n in range(1, 31):
            alpha_p = schurmean._alpha_prime(a, b, n)
            min_alpha = min(min_alpha, alpha_p)
            if alpha_p <= 0:
                violations += 1
    status = PASS if violations == 0 else WARN
    yield ("alpha-prime-positivity", status, min_alpha,
           f"{violations} nonpositive alpha'_n found (claimed positive for n>=1)")

    ineq_ok = True
    for a, b in ((0.9, 0.2), (0.8, 0.1), (0.3, 0.5), (0.2, 1.0)):
        p0 = a / (2 * b + 1)
        want_less = a - b > 0.5
        for t in grid:
            lhs = hyp2f1(HypParams(a, b, 2 * b + 1), t, 1e-12).value
            rhs = (1 - t) ** p0 * hyp2f1(HypParams(a, b + 1, 2 * b + 1), t, 1e-12).value
            if want_less and not lhs < rhs:
                ineq_ok = False
            if not want_less and not lhs > rhs:
                ineq_ok = False
    yield _holds("weighted-series-inequality", ineq_ok,
                 "F(a,b;2b+1;t) vs (1-t)^(p0) F(a,b+1;2b+1;t) per sign(a-b-1/2)")


_SUITE_FUNCS = {
    "recurrence": _suite_recurrence,
    "corollaries": _suite_corollaries,
    "special-cases": _suite_special_cases,
    "mean": _suite_mean,
    "regions": _suite_regions,
    "monotone-ratio": _suite_monotone_ratio,
}

#: The suite names, in the order ``--suite all`` runs them.
SUITES = tuple(_SUITE_FUNCS)


def verify_driver(suite: str = "all", seed: int = 42) -> VerifySummary:
    """Run the named property suite (or all of them) with a seeded sampler.

    Each row a suite yields becomes one :class:`PropertyResult` that names
    the suite.
    """
    if suite != "all" and suite not in _SUITE_FUNCS:
        raise ParameterError(f"unknown suite {suite!r}; choose from {('all',) + SUITES}")
    names = SUITES if suite == "all" else (suite,)
    results: list[PropertyResult] = []
    for name in names:
        # One independent stream per suite keeps single-suite runs identical
        # to their slice of an --suite all run.
        rng = random.Random(f"{seed}:{name}")
        results.extend(PropertyResult(name, *row) for row in _SUITE_FUNCS[name](rng))
    return VerifySummary(suite, seed, tuple(results))
