"""Generic numerics: Beta-weighted quadrature and Richardson differentiation.

Gauss rules are built here in pure Python, so neither scipy nor numpy is
needed: each n-point rule for the Jacobi weight (1-u)^alpha (1+u)^beta on
[-1, 1] comes from the eigen-decomposition of its symmetric tridiagonal
Jacobi matrix (Golub and Welsch, "Calculation of Gauss quadrature rules",
Math. Comp. 23 (1969)).  ``weighted_quad`` sums such rules over panels
graded toward the point where its integrand turns.
"""

from __future__ import annotations

import functools
import math
import types
from collections.abc import Callable

from ._record import Record, set_field
from .errors import DomainError, NonConvergence, ParameterError

__all__ = ["QuadResult", "weighted_quad", "central_diff"]


def _require_tol(tol) -> None:
    """The package's one tolerance rule: tol > 0, so 0, negative values and NaN are refused."""
    if not tol > 0:
        raise ParameterError(f"tol must be positive, got {tol!r}")


def _jacobi_matrix(n: int, alpha: float, beta: float) -> tuple[list[float], list[float], float]:
    """Diagonal and off-diagonal of the n x n Jacobi matrix, and the weight's mass.

    The matrix is that of the three-term recurrence of the Jacobi
    polynomials for (1-u)^alpha (1+u)^beta; the off-diagonal list carries a
    trailing 0.0, so it is n long like the diagonal.  The mass is
    mu_0 = 2^(alpha+beta+1) B(alpha+1, beta+1).
    """
    ab = alpha + beta
    diag = [(beta - alpha) / (ab + 2.0)]
    off = []
    for k in range(1, n):
        s = 2.0 * k + ab
        diag.append((beta * beta - alpha * alpha) / (s * (s + 2.0)))
        if k == 1:
            # (1 + alpha + beta) cancels, which keeps alpha + beta = -1 finite.
            off.append(math.sqrt(4.0 * (1.0 + alpha) * (1.0 + beta) / ((2.0 + ab) ** 2 * (3.0 + ab))))
        else:
            off.append(math.sqrt(4.0 * k * (k + alpha) * (k + beta) * (k + ab) / (s * s * (s + 1.0) * (s - 1.0))))
    off.append(0.0)
    if alpha == 0.0 or beta == 0.0:
        # Gamma(x + 1) / Gamma(x + 2) = 1/(x + 1): one rounding, where
        # lgamma would lose digits at large x.
        mass = 2.0 ** (ab + 1.0) / (ab + 1.0)
    else:
        mass = 2.0 ** (ab + 1.0) * math.exp(math.lgamma(alpha + 1.0) + math.lgamma(beta + 1.0) - math.lgamma(ab + 2.0))
    return diag, off, mass


@functools.lru_cache(maxsize=64)
def _gauss_jacobi(n: int, alpha: float, beta: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights of the n-point Gauss rule for (1-u)^alpha (1+u)^beta on [-1, 1].

    Golub and Welsch: the nodes are the eigenvalues of the Jacobi matrix and
    each weight is mu_0 times the squared first component of its unit
    eigenvector.  An implicit QL sweep with Wilkinson shifts finds both,
    carrying only the first row of the eigenvector matrix.  The rule is
    exact for polynomials of degree 2n - 1; nodes ascend.  Rules are kept
    per (n, alpha, beta), at most 64 of them (a 48-point rule is 96 floats),
    and returned as tuples because every caller shares them.
    """
    if not (n >= 1 and alpha > -1.0 and beta > -1.0):
        raise DomainError(f"a Gauss-Jacobi rule needs n >= 1 and alpha, beta > -1, got {(n, alpha, beta)!r}")
    d, e, mass = _jacobi_matrix(n, alpha, beta)
    z = [0.0] * n
    z[0] = 1.0
    for l in range(n):
        for _ in range(60):
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) + dd == dd:
                    break
                m += 1
            if m == l:
                break
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                bb = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # Underflow: the matrix split; finish this sweep early.
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * bb
                p = s * r
                d[i + 1] = g + p
                g = c * r - bb
                z[i], z[i + 1] = c * z[i] - s * z[i + 1], s * z[i] + c * z[i + 1]
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
        else:
            raise NonConvergence(f"QL did not converge for the Gauss-Jacobi rule {(n, alpha, beta)!r}")
    pairs = sorted(zip(d, z))
    return tuple(u for u, _ in pairs), tuple(mass * v * v for _, v in pairs)


#: The source ``weighted_quad`` fetches every rule from, cache included, with
#: the signature of ``scipy.special.roots_jacobi``.  perfbench's tracer
#: replaces this binding to time rule construction.
_sp = types.SimpleNamespace(roots_jacobi=_gauss_jacobi)

#: Nodes per panel of the two composite rules; their difference is the error estimate.
_ORDERS = (24, 48)


class QuadResult(Record):
    __slots__ = ("value", "error_estimate", "evaluations")

    def __init__(self, value: float, error_estimate: float, evaluations: int):
        if error_estimate < 0:
            raise ValueError("error_estimate must be nonnegative")
        set_field(self, "value", value)
        set_field(self, "error_estimate", error_estimate)
        set_field(self, "evaluations", evaluations)


def _panel_edges(turn: float) -> list[float]:
    """0, turn, 4 turn, 16 turn, ... while below 1/2, then 1/2 and 1."""
    edges = [0.0]
    edge = turn
    while edge < 0.5:
        edges.append(edge)
        edge *= 4.0
    edges += [0.5, 1.0]
    return edges


def _composite_rule(b: float, edges: list[float], n: int) -> tuple[list[float], list[float]]:
    """Points and weights of the n-node-per-panel rule for s^(b-1) (1-s)^(b-1) on (0, 1).

    The end panels [0, q] and [1/2, 1] carry the singular factor of the
    weight in a Gauss-Jacobi rule for (1+u)^(b-1), the second through
    1 - s; each middle panel is Gauss-Legendre with the whole weight folded
    into its weights.
    """
    bm1 = b - 1.0
    nodes, weights = _sp.roots_jacobi(n, 0.0, bm1)
    q = edges[1]
    # s = q(1+u)/2 turns s^(b-1) ds into (q/2)^b (1+u)^(b-1) du.
    points = [0.5 * q * (1.0 + u) for u in nodes]
    scale = (0.5 * q) ** b
    rule = [scale * w * (1.0 - s) ** bm1 for s, w in zip(points, weights)]
    # 1 - s = (1+u)/4 turns (1-s)^(b-1) ds over [1/2, 1] into 4^-b (1+u)^(b-1) du.
    tail = [1.0 - 0.25 * (1.0 + u) for u in nodes]
    scale = 0.25**b
    points += tail
    rule += [scale * w * s**bm1 for s, w in zip(tail, weights)]
    if len(edges) > 3:
        nodes, weights = _sp.roots_jacobi(n, 0.0, 0.0)
        for p, q in zip(edges[1:-2], edges[2:-1]):
            half = 0.5 * (q - p)
            middle = [p + half * (1.0 + u) for u in nodes]
            points += middle
            rule += [half * w * (s * (1.0 - s)) ** bm1 for s, w in zip(middle, weights)]
    return points, rule


def weighted_quad(
    f: Callable[[float], float],
    b: float,
    tol: float = 1e-10,
    turn: float = 0.5,
) -> QuadResult:
    """Integrate f(s) s^(b-1) (1-s)^(b-1) over (0, 1) for finite b > 0.

    A composite rule on the panels [0, h], [h, 4h], [4h, 16h], ... up to
    1/2, then [1/2, 1], with h = min(turn, 1/2): panels graded geometrically
    away from ``turn`` resolve an f that turns sharply there, as the mean's
    integrand does at lo/(hi - lo).  The two end panels use Gauss-Jacobi
    rules, so the weight's endpoint singularity for b < 1 is integrated
    exactly; the middle panels use Gauss-Legendre.  Every panel is summed
    with 24 and then 48 nodes; the 48-node sum is the value and the
    difference of the two is the error estimate, which must not exceed
    ``tol`` or :class:`NonConvergence` is raised.

    Rules are fetched through ``_sp.roots_jacobi`` and built once per
    process, so repeated calls give the same results.
    """
    if not 0 < b < math.inf:
        raise DomainError(f"weight exponent b must be positive and finite, got {b!r}")
    _require_tol(tol)
    if not turn > 0:
        raise DomainError(f"turn must be positive, got {turn!r}")
    edges = _panel_edges(turn)
    coarse, fine = (
        math.fsum([w * f(s) for s, w in zip(*_composite_rule(b, edges, n))]) for n in _ORDERS
    )
    err = abs(fine - coarse)
    if not err <= tol:
        raise NonConvergence(
            f"quadrature did not stabilize within tol={tol!r}: the {_ORDERS[0]}- and "
            f"{_ORDERS[1]}-node rules differ by {err!r}"
        )
    return QuadResult(fine, err, sum(_ORDERS) * (len(edges) - 1))


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
