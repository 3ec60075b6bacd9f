"""Generic numerics: Beta-weighted quadrature and Richardson differentiation."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, NonConvergence

__all__ = ["QuadResult", "weighted_quad", "central_diff"]


def __getattr__(name: str):
    """Import scipy.special on first use (it costs about half a second of start-up).

    It is bound as the module global ``_sp``, which ``_jacobi_rule`` reads;
    keep that name, because the benchmark tracer replaces it to time the
    Gauss-Jacobi node computation.
    """
    if name != "_sp":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global _sp
    import scipy.special as _sp

    return _sp


# Gauss-Jacobi rules kept by ``_jacobi_rule``.  An order-4096 rule is two
# 32 KB arrays, so even a cache full of the largest rules stays near 8 MB.
_RULE_CACHE_SIZE = 128


@functools.lru_cache(maxsize=_RULE_CACHE_SIZE)
def _jacobi_rule(order: int, alpha: float):
    """Nodes and weights of the order-point rule for ((1-u)(1+u))^alpha on [-1, 1].

    The arrays are shared by every caller, so they are returned read-only.
    """
    special = globals().get("_sp") or __getattr__("_sp")
    nodes, weights = special.roots_jacobi(order, alpha, alpha)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be nonnegative")


def weighted_quad(
    f: Callable[[float], float],
    b: float,
    tol: float = 1e-10,
    max_order: int = 4096,
) -> QuadResult:
    """Integrate f(s) s^(b-1) (1-s)^(b-1) over (0, 1) for finite b > 0.

    Substituting s = (1+u)/2 turns the weight into the symmetric Jacobi weight
    ((1-u)(1+u))^(b-1) on [-1, 1] times 2^(1-2b), so fixed-order Gauss-Jacobi
    nodes handle the endpoint singularity for b < 1 exactly.  The order is
    doubled until two successive rules agree within ``tol``; the difference of
    the last two is reported as the error estimate, so ``max_order`` must
    reach 16.

    Each rule is computed once per process and cached per (order, b), at most
    ``_RULE_CACHE_SIZE`` (128) rules or about 8 MB; a cached rule gives the
    same nodes and weights, so results are unchanged.
    """
    if not 0 < b < math.inf:
        raise DomainError(f"weight exponent b must be positive and finite, got {b!r}")
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    if not max_order >= 16:
        raise DomainError(f"max_order must be at least 16 to compare two rules, got {max_order!r}")
    scale = 2.0 ** (1.0 - 2.0 * b)
    previous = None
    evaluations = 0
    order = 8
    while order <= max_order:
        nodes, weights = _jacobi_rule(order, b - 1.0)
        value = scale * math.fsum(
            w * f(0.5 * (1.0 + u)) for u, w in zip(nodes.tolist(), weights.tolist())
        )
        evaluations += order
        if previous is not None:
            err = abs(value - previous)
            if err <= tol:
                return QuadResult(value, err, evaluations)
        previous = value
        order *= 2
    raise NonConvergence(
        f"quadrature did not stabilize within tol={tol!r} up to order {max_order}"
    )


def central_diff(
    f: Callable[[float], float],
    x: float,
    h0: float,
    levels: int = 3,
) -> float:
    """Richardson-extrapolated central difference of f at x.

    Builds the standard extrapolation table from step sizes h0, h0/2, ...,
    h0/2^(levels-1); each level cancels the next even power of h, so three
    levels leave an O(h^6) error.  For smooth f and h0 about 1e-3*max(1, |x|)
    that is ~1e-8 accuracy or better.
    """
    if not h0 > 0:
        raise DomainError(f"h0 must be positive, got {h0!r}")
    if levels < 1:
        raise DomainError(f"levels must be at least 1, got {levels}")
    table: list[list[float]] = []
    h = h0
    for i in range(levels):
        row = [(f(x + h) - f(x - h)) / (2.0 * h)]
        for j in range(1, i + 1):
            pow4 = 4.0**j
            row.append(row[j - 1] + (row[j - 1] - table[i - 1][j - 1]) / (pow4 - 1.0))
        table.append(row)
        h *= 0.5
    return table[-1][-1]
