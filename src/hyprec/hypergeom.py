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

The library reads its series a grid at a time through ``_hyp2f1_grid``
(``_hyp2f1_unit`` is its one-point case), which returns plain floats: every
reader wants the value alone, and no error bound is formed for a connection
point, whose two truncation bounds say nothing of its rounding.  It
remembers the last four series (a, b, c and tol, each with its type) in a
memo that counts the points it answered and those it computed.  A series'
entry holds all that series reuses: the values of its first 256 points;
the term ratios of its direct series and of the connection formula's two
series in y; and the connection formula's gamma ratios, formed once per
series.  The G_m scans and the Q profile read the
same two series at the same points for every m, so they share one
evaluation; four series are more than one (a, b) cell of a scan reads and
far fewer than a scan of many cells does, so what is reused is the work on
one cell.  Each direct-series point stays one call to ``hyp2f1``, which is
passed the entry's ratios and whose value is kept.  Every sum stops at
``DEFAULT_TERM_CAP`` terms, a constant that no setting changes.

Every float series, public ``hyp2f1`` and both connection series, is summed
by ``_sum_series`` in one loop body.  It returns a plain (value, bound,
terms) triple: only ``hyp2f1`` wraps it in an ``EvalResult``, so each
direct point of a grid read is still one traced ``hyp2f1`` call, and the
two sums of a connection point build no record.  It runs on a float
counter and tests the tail rule without ``abs``, and gives the same results
and messages as the plain loop with an int counter and ``abs``, bit for bit,
except that a partial sum no longer finite at the end of a block of
``_RATIO_TERMS`` steps raises at once instead of summing on to the term
cap.  Only a grid read passes it a list of term ratios, the entry's list
for the series it sums: each step reads its ratio from the list while there
is one, and otherwise forms it and appends it while the list is shorter
than ``_RATIO_TERMS`` and the cap, so the list never holds a ratio that no
sum has used.  A one-off sum, public ``hyp2f1`` and its relatives, keeps
nothing.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from fractions import Fraction

from . import specfn
from ._record import Record, field_setters
from .errors import NonConvergence, ParameterError
from .numkit import _require_tol

__all__ = [
    "DEFAULT_TERM_CAP",
    "HypParams",
    "EvalResult",
    "hyp2f1",
    "hyp2f1_derivative",
    "gauss_value_at_one",
    "zero_balanced_asymptote",
    "euler_transform_eval",
]

#: The most terms any float series sums before it raises :class:`NonConvergence`.
DEFAULT_TERM_CAP = 100_000


#: Floating c within this distance of 0, -1, -2, ... counts as sitting on a pole.
POLE_TOL = 1e-12


def _require_finite(name: str, value) -> None:
    """Reject a float that is NaN or infinite; int and Fraction values are always finite.

    Only ``float`` is tested: an ``isinstance`` test against ``Fraction``, an
    abstract base class, costs more than the rest of a record's construction.
    """
    if isinstance(value, float) and not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {name}={value!r}")


def _require_off_poles(c, tol: float) -> None:
    """Reject c = 0, -1, -2, ...: exactly for int and Fraction c, within tol for finite floating c."""
    if isinstance(c, (int, Fraction)):
        on_pole = c <= 0 and c.denominator == 1
    else:
        nearest = round(c)
        on_pole = nearest <= 0 and (c == nearest or abs(c - nearest) < tol)
    if on_pole:
        raise ParameterError(
            f"c={c!r} is (within {tol:g}) zero or a negative integer, "
            "which is outside the parameter domain"
        )


class HypParams(Record):
    """Parameter triple (a, b, c) of F(a,b;c;x); c must not be 0, -1, -2, ...

    Floating c is also rejected within ``POLE_TOL`` of those poles, where the
    series terms blow up and the result carries no accuracy.  Floating a, b
    and c must be finite; int and Fraction values always are.
    """

    __slots__ = ("a", "b", "c")

    def __init__(self, a: float, b: float, c: float):
        _require_finite("a", a)
        _require_finite("b", b)
        _require_finite("c", c)
        _require_off_poles(c, POLE_TOL)
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)

    @classmethod
    def _derived(cls, a, b, c) -> "HypParams":
        """Parameters the library derives itself, checked against exact poles only.

        Such a c (for instance c = 2b of a mean with tiny b > 0) is never a
        pole, and the series stays well conditioned there, so the near-pole
        tolerance meant for caller input must not reject it.
        """
        _require_finite("c", c)
        _require_off_poles(c, 0.0)
        params = object.__new__(cls)
        _set_a(params, a)
        _set_b(params, b)
        _set_c(params, c)
        return params


_set_a, _set_b, _set_c = field_setters(HypParams)


class EvalResult(Record):
    """A value plus an a-posteriori truncation bound and the term count used."""

    __slots__ = ("value", "error_bound", "terms_used")

    def __init__(self, value: float, error_bound: float, terms_used: int):
        if error_bound < 0:
            raise ValueError("error_bound must be nonnegative")
        if terms_used < 1:
            raise ValueError("terms_used must be at least 1")
        _set_value(self, value)
        _set_bound(self, error_bound)
        _set_terms(self, terms_used)


_set_value, _set_bound, _set_terms = field_setters(EvalResult)


def hyp2f1(params: HypParams, x: float, tol: float = 1e-12, *, _ratios=None) -> EvalResult:
    """Sum the series F(a,b;c;x) = sum (a)_n (b)_n / ((c)_n n!) x^n on |x| < 1.

    Stops once three consecutive terms satisfy |term| <= tol*|partial sum|
    while the term ratio stays below 1 in magnitude; this guards against a
    premature stop at a sign change or at an early zero term when a or b sits
    next to a negative integer.  For c < -1 no term before the pole of
    1/(c)_n counts: the terms shrink on the way to n = -c and grow again
    after it, so the streak starts once every later c + n is positive.  The
    reported ``error_bound`` is the geometric tail bound
    |last term| * rho / (1 - rho) with rho the last term ratio.
    When a or b is a nonpositive integer the series terminates and the result
    is exact up to rounding (error_bound 0).

    At most ``DEFAULT_TERM_CAP`` terms are summed, by ``_sum_series``, whose
    (value, bound, terms) triple this wraps; it is the one evaluator that
    builds the record.  ``_ratios`` is the pass-through of ``_hyp2f1_grid``,
    its memo entry's term ratios of this series (see ``_sum_series``); every
    other caller leaves it None.
    """
    _require_tol(tol)
    if not abs(x) < 1:
        raise ParameterError(f"series evaluation requires |x| < 1, got x={x!r}")
    return EvalResult(*_sum_series(params.a, params.b, params.c, float(x), tol, DEFAULT_TERM_CAP, _ratios))


#: Each list of term ratios a grid series keeps (its direct series and the
#: connection formula's two series in y) holds at most its first
#: ``_RATIO_TERMS``, about 33 KB.
_RATIO_TERMS = 1024


@functools.lru_cache(maxsize=8)
def _blocks(cap: int) -> tuple[range, ...]:
    """range(cap) cut into ranges of ``_RATIO_TERMS`` steps, made once per cap."""
    return tuple(range(s, min(s + _RATIO_TERMS, cap)) for s in range(0, cap, _RATIO_TERMS))


def _sum_series(a, b, c, x: float, tol: float, cap: int, ratios=None) -> tuple[float, float, int]:
    """The direct series of ``hyp2f1``, summed past the pole of 1/(c)_n, in at most cap terms.

    Returns the plain triple (value, error bound, terms used) that
    ``hyp2f1`` wraps in its :class:`EvalResult`; the connection formula's
    two series in y read the value alone and build no record.

    One loop takes term k + 1 = term k * q_k * x for k = 0, 1, ..., cap - 1,
    with the term ratio q_k = (a+k)(b+k) / ((c+k)(k+1)).  The tail rule
    counts no term before the ``settle``-th, the first n with every later
    denominator c + n positive.  It is formed only where c <= -1: for c > -1
    it would be 0 or 1, and k >= settle - 1 holds at every step.  The loop
    is the hot path of every float series in the package, so it keeps its
    arithmetic float-float: the counter is a float when a, b and c are,
    which forms each a + k, c + k and k + 1 exactly as an int counter does,
    and other parameter types (a ``Fraction``) keep an int counter, so their
    ratios are formed as before.  |term| <= tol |total| is tested as
    -lim <= term <= lim with lim = tol * total negated when total is, and
    |q_k x| < 1 as -1 < q_k * x < 1; both decide alike for every float, NaN
    included.  The product q_k * x is formed again where the term passes
    rather than kept in a local, which would cost every step a store and a
    load, and the ratio is taken only at the stop.  Every result and message
    is the one the plain loop with ``abs`` gives, but for a sum that
    overflows: the steps run over ``_blocks(cap)``, so once per block of
    ``_RATIO_TERMS`` steps, never per step, the partial sum is tested, as it
    is where the tail rule stops (an infinite total passes that rule), and
    one that is no longer finite raises :class:`NonConvergence` naming the
    overflow rather than summing on to the cap or returning it.

    q_k does not depend on x, so a caller that reads one series at many x
    (``_hyp2f1_grid``) passes a list, ``ratios``, that it keeps for (a, b, c)
    with their types, as the counter's type depends on them.  Step k reads
    q_k from that list while k is below its length on entry, and otherwise
    forms q_k on the counter, which moves only then, and appends it while k
    is below ``_RATIO_TERMS`` (every k is below cap).  So after a sum of s
    terms the list holds min(max(its length before, s), ``_RATIO_TERMS``,
    cap) ratios, and q_k * x is the same float product whether q_k was read
    or formed.  With None, as for every one-off sum, nothing is stored.
    """
    settle = math.floor(-c) + 1 if c <= -1 else 0
    total = 1.0
    term = 1.0
    streak = 0
    stored = record = 0
    if ratios is not None:
        stored = len(ratios)
        record = _RATIO_TERMS
    if type(a) is type(b) is type(c) is float:
        n, one = float(stored), 1.0
    else:
        n, one = stored, 1
    for block in _blocks(cap):
        for k in block:
            if k < stored:
                q = ratios[k]
            else:
                q = (a + n) * (b + n) / ((c + n) * (n + 1.0))
                n += one
                if k < record:
                    ratios.append(q)
            term *= q * x
            total += term
            lim = tol * total
            if total < 0.0:
                lim = -lim
            if term <= lim and -lim <= term and -1.0 < q * x < 1.0 and k >= settle - 1:
                streak += 1
                if streak >= 3:
                    if not math.isfinite(total):
                        break
                    ratio = abs(q * x)
                    return total, abs(term) * ratio / (1.0 - ratio), k + 2
            else:
                streak = 0
        if not math.isfinite(total):
            raise NonConvergence(f"F({a},{b};{c};{x}): the partial sum overflowed to {total} by term {k + 1}")
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

    Valid for finite a, b > 0 and 0 < x < 1; the neglected remainder is
    O((1-x) ln(1-x)), so the approximation is only meaningful near x = 1.
    """
    _require_finite("a", a)
    _require_finite("b", b)
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
    if not abs(x) < 1:
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


#: The memo of ``_hyp2f1_grid``: the last ``_MEMO_SERIES`` series, the
#: values of their first ``_MEMO_POINTS`` points each, at about 140 bytes a
#: point (its key tuple, x, the value and the dict slot; ``tracemalloc`` over
#: 256 connection-formula points of one series).  One scan cell reads two
#: series at 52 points on the default grid.
_MEMO_SERIES = 4
_MEMO_POINTS = 256


class _Series:
    """All that the reads of one series in ``_hyp2f1_grid`` reuse.

    ``points`` maps a point to its value, for the first ``_MEMO_POINTS``
    points computed: a full entry stores no more, so a grid longer than that
    keeps its first points for the next read.  ``ratios`` is the direct
    series' list of term ratios for ``_sum_series``, and ``first_ratios``
    and ``second_ratios`` are those of the connection formula's series in y,
    F(a,b;a+b-c+1;y) and F(c-a,c-b;c-a-b+1;y); none holds more than
    ``_RATIO_TERMS``.  The first read that needs them forms ``connects`` and
    ``connection`` (A, B's sign and log-gammas, and whether their rounding is
    within tol).
    """

    __slots__ = ("points", "ratios", "first_ratios", "second_ratios", "connects", "connection")

    def __init__(self) -> None:
        self.points: dict = {}
        self.ratios: list = []
        self.first_ratios: list = []
        self.second_ratios: list = []
        self.connects = self.connection = None


class _Memo(threading.local):
    """One thread's memo of ``_hyp2f1_grid``: ``series`` maps a key to its ``_Series``, oldest first.

    ``hits`` counts the points answered from it and ``misses`` those
    computed, or attempted when they raised.  No two threads share an entry.
    """

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        """Forget every series and reset both counts."""
        self.series: dict[tuple, _Series] = {}
        self.hits = 0
        self.misses = 0


_MEMO = _Memo()


def _hyp2f1_unit(params: HypParams, x: float, tol: float, y: float | None = None) -> float:
    """The value of F(a,b;c;x) on 0 <= x < 1 for the library's own evaluations: ``_hyp2f1_grid`` at one point."""
    return _hyp2f1_grid(params, ((x, y),), tol)[0]


def _hyp2f1_grid(params: HypParams, points, tol: float) -> list[float]:
    """The value of F(a,b;c;x), a float, at each point (x, y) of ``points``, in order, with 0 <= x < 1.

    From ``CONNECTION_X`` on this is the 1 - x connection formula (DLMF 15.8.4)

        F(a,b;c;x) = A F(a,b;a+b-c+1;y) + y^(c-a-b) B F(c-a,c-b;c-a-b+1;y),
        A = G(c) G(c-a-b) / (G(c-a) G(c-b)),   B = G(c) G(a+b-c) / (G(a) G(b)),

    with y = 1 - x and G the gamma function; y^(c-a-b) B is formed in log
    space, since B alone overflows for large parameters.  Below
    ``CONNECTION_X``, where c - a - b lies within ``CONNECTION_GAP`` of an
    integer, and where the parameters are so large that rounding in the
    gamma ratios exceeds ``tol``, it is ``hyp2f1``, one call per point.  A
    caller that holds the complement to more digits than 1 - x passes it as
    y, and None otherwise (x then only chooses the path).  The c of either
    series in y, 1 -/+ (c - a - b), may be negative, so both sum past their
    pole before the tail rule may stop.

    What a read computes is remembered in the calling thread's memo
    (``_MEMO``), in the entry of the series (a, b, c and tol, with the type
    of each, so a Fraction and an equal float never share; see
    ``_Series``).  The term cap is not part of the key: it decides only
    whether a sum raises, never the value of a sum that converged.  A, B's
    sign and log-gammas are formed once per series; each connection point
    scales B by its own y^(c-a-b) through ``specfn.scaled_gamma_ratio``, the
    rule ``specfn.gamma_ratio`` uses, and sums its two series in y over
    the entry's lists of their term ratios, which it extends; each direct
    point's ``hyp2f1`` takes ``params`` as they came, already checked, sums
    over and extends the entry's direct term ratios, and gives its value.
    A stored ratio gives the bits a formed one does (see ``_sum_series``).
    x and y enter only through comparisons, ``1.0 - x`` and float
    arithmetic, so equal points of other types give the same value.  A grid
    read before is answered by one lookup pass, ``map(values.get, points)``
    (a value may be 0.0, so the test is that no point came back None); the
    points it misses are computed in order.  A remembered
    value is the float computed for it; a point that raises is not
    remembered, and the first such point in grid order raises as it would
    alone.
    """
    a, b, c = params.a, params.b, params.c
    memo = _MEMO
    key = (a, b, c, tol, type(a), type(b), type(c), type(tol))
    entry = memo.series.get(key)
    if entry is None:
        entry = memo.series[key] = _Series()
        if len(memo.series) > _MEMO_SERIES:
            del memo.series[next(iter(memo.series))]
    values = entry.points
    found = list(map(values.get, points))
    if None not in found:
        memo.hits += len(found)
        return found
    s = c - a - b
    if entry.connects is None:
        entry.connects = abs(s - round(s)) >= CONNECTION_GAP
    connects, connection = entry.connects, entry.connection
    results = []
    hits = misses = 0
    try:
        for point in points:
            result = values.get(point)
            if result is not None:
                hits += 1
                results.append(result)
                continue
            misses += 1
            x, y = point
            if y is None:
                y = 1.0 - x
            if x >= CONNECTION_X and connects:
                if connection is None:
                    scale, scale_size = specfn.gamma_ratio((c, s), (c - a, c - b), 0.0)
                    sign, logs = specfn.gamma_ratio_logs((c, -s), (a, b))
                    accurate = sys.float_info.epsilon * max(scale_size, math.fsum(map(abs, logs))) <= tol
                    connection = entry.connection = scale, sign, logs, accurate
                scale, sign, logs, accurate = connection
                log_scale = s * math.log(y) if y > 0 else -s * math.inf
                weight = specfn.scaled_gamma_ratio(sign, logs, log_scale)
                if accurate:
                    first = _sum_series(a, b, 1 - s, y, tol, DEFAULT_TERM_CAP, entry.first_ratios)[0]
                    second = _sum_series(c - a, c - b, 1 + s, y, tol, DEFAULT_TERM_CAP, entry.second_ratios)[0]
                    result = scale * first + weight * second
            if result is None:
                if x >= 1:
                    raise NonConvergence(
                        f"F({a},{b};{c};x) at 1-x={y!r}: x rounds to 1, where the direct series "
                        "cannot answer, and the connection formula does not apply"
                    )
                result = hyp2f1(params, x, tol, _ratios=entry.ratios).value
            if len(values) < _MEMO_POINTS:
                values[point] = result
            results.append(result)
    finally:
        memo.hits += hits
        memo.misses += misses
    return results
