"""Generic numerics: Beta-weighted quadrature and Richardson differentiation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, NonConvergence

__all__ = ["QuadResult", "weighted_quad", "central_diff"]


def __getattr__(name: str):
    """Import scipy.special on first use (it costs about half a second of start-up).

    It is bound as the module global ``_sp``, which ``weighted_quad`` reads;
    keep that name, because the benchmark tracer replaces it to time the
    Gauss-Jacobi node computation.
    """
    if name != "_sp":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global _sp
    import scipy.special as _sp

    return _sp


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
    """Integrate f(s) s^(b-1) (1-s)^(b-1) over (0, 1) for b > 0.

    Substituting s = (1+u)/2 turns the weight into the symmetric Jacobi weight
    ((1-u)(1+u))^(b-1) on [-1, 1] times 2^(1-2b), so fixed-order Gauss-Jacobi
    nodes handle the endpoint singularity for b < 1 exactly.  The order is
    doubled until two successive rules agree within ``tol``; the difference of
    the last two is reported as the error estimate.
    """
    if not b > 0:
        raise DomainError(f"weight exponent b must be positive, got {b!r}")
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    special = globals().get("_sp") or __getattr__("_sp")
    scale = 2.0 ** (1.0 - 2.0 * b)
    previous = None
    evaluations = 0
    order = 8
    while order <= max_order:
        nodes, weights = special.roots_jacobi(order, b - 1.0, b - 1.0)
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
