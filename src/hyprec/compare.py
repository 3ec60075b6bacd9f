"""Floating-point comparison helpers used by the verification suites."""

from __future__ import annotations

__all__ = ["rel_with_floor"]


def rel_with_floor(x, y, floor: float = 1e-14) -> float:
    """Relative difference of x and y, zeroed below an absolute floor.

    Plain relative error is meaningless for coefficients that cross zero; the
    absolute floor keeps those comparable.  Returns 0.0 when |x - y| <= floor,
    otherwise |x - y| / max(|x|, |y|).
    """
    diff = abs(x - y)
    if diff <= floor:
        return 0.0
    mag = max(abs(x), abs(y))
    return float(diff / mag) if mag else float("inf")

