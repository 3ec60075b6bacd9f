"""Order statistics, span self time, and the parent-versus-change rule.

Everything here is pure and imports nothing from hyprec, so the tests in
``test_stats.py`` exercise it without running a workload.
"""

from __future__ import annotations

import math
import statistics

#: Percentiles the tail metric may report, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond the reported tail percentile.
TAIL_MIN_BEYOND = 10


def rank(n: int, pct: float) -> int:
    """1-based nearest rank of the pct-th percentile among n sorted samples."""
    return max(1, math.ceil(pct * n / 100.0 - 1e-9))


def samples_beyond(n: int, pct: float) -> int:
    """How many of n samples lie strictly above the pct-th percentile rank."""
    return n - rank(n, pct)


def pick_tail_percentile(n: int, ladder=TAIL_LADDER, min_beyond: int = TAIL_MIN_BEYOND):
    """Highest ladder percentile with at least ``min_beyond`` samples beyond it.

    Returns None when even the lowest rung has too few samples beyond it.
    """
    best = None
    for pct in ladder:
        if samples_beyond(n, pct) >= min_beyond:
            best = pct
    return best


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of a nonempty sample."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), pct) - 1]


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median (0 when the median is 0)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


# ---------------------------------------------------------------------------
# span self time


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals if e > start and s < end)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` are mappings with ``id``, ``parent``, ``start`` and ``end``, and
    optionally ``ext``: time spent in callees that are timed in aggregate
    rather than as spans (a quadrature integrand), also subtracted.
    """
    children: dict = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append((sp["start"], sp["end"]))
    out = {}
    for sp in spans:
        kids = children.get(sp["id"], ())
        own = sp["end"] - sp["start"] - covered(sp["start"], sp["end"], kids) - sp.get("ext", 0.0)
        out[sp["id"]] = max(own, 0.0)
    return out


# ---------------------------------------------------------------------------
# parent versus change


def _worse(change: float, parent: float, better: str) -> float:
    """Signed amount by which ``change`` is worse than ``parent``."""
    return change - parent if better == "lower" else parent - change


def compare_metric(parent, change, better: str, bound: float) -> dict:
    """Apply the pairwise rule to one metric on one workload.

    ``parent`` and ``change`` are equally long lists of values from runs
    paired by seed.  Returns the medians and quartiles of both sides, the
    share of pairs the change won (ties count for neither), and a verdict:

    * ``gain``       -- the change won at least 9/10 of the pairs and the
                        medians differ by more than the parent's IQR;
    * ``regression`` -- the change's median is worse than the parent's by
                        more than ``bound`` times the parent's median;
    * ``unresolved`` -- either side's IQR exceeds ``bound`` of its median,
                        unless every change run beats every parent run;
    * ``same``       -- none of the above.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("parent and change need the same nonzero number of runs")
    pq = quartiles(parent) if len(parent) > 1 else (parent[0],) * 3
    cq = quartiles(change) if len(change) > 1 else (change[0],) * 3
    wins = sum(1 for p, c in zip(parent, change) if _worse(c, p, better) < 0)
    won = wins / len(parent)
    base = abs(pq[1])
    worse_by = _worse(cq[1], pq[1], better)
    parent_iqr = pq[2] - pq[0]
    spread_p = (pq[2] - pq[0]) / base if base else 0.0
    spread_c = (cq[2] - cq[0]) / abs(cq[1]) if cq[1] else 0.0
    all_better = all(_worse(c, p, better) < 0 for c in change for p in parent)
    if won >= 0.9 and -worse_by > parent_iqr:
        verdict = "gain"
    elif worse_by > bound * base:
        verdict = "regression"
    elif max(spread_p, spread_c) > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "same"
    return {
        "parent": pq,
        "change": cq,
        "won": won,
        "worse_by_frac": worse_by / base if base else 0.0,
        "spread_parent": spread_p,
        "spread_change": spread_c,
        "verdict": verdict,
    }
