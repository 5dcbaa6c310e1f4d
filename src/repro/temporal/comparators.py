"""Approximation comparators ``equals`` and ``greater``.

The paper (Figure 3) scores the equality or inequality of two interval endpoints
``a`` and ``b`` with two piecewise-linear functions of the difference
``d = a - b``, parameterised by a tolerance ``lambda`` and a slope width ``rho``:

* ``equals(a, b)`` equals 1 when ``|d| <= lambda``, decreases linearly to 0 over
  the next ``rho`` time units, and is 0 when ``|d| >= lambda + rho``.
* ``greater(a, b)`` equals 0 when ``d <= lambda``, increases linearly over the next
  ``rho`` time units, and is 1 when ``d >= lambda + rho``.

Setting ``lambda = rho = 0`` recovers the Boolean interpretation (exact equality,
strict inequality), which is how the paper's ``PB`` parameter set and the Boolean
baselines are expressed.

A slope is capped at 1.0: just past ``lambda`` it can round to
1.0000000000000002.

Both comparators are functions of the single scalar ``d``; this module also exposes
their exact image over an interval of ``d`` values, which is the primitive the
bound solver uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ComparatorParams",
    "PredicateParams",
    "equals_score",
    "greater_score",
    "equals_score_range",
    "greater_score_range",
]


@dataclass(frozen=True, slots=True)
class ComparatorParams:
    """``(lambda, rho)`` pair controlling the tolerance of one comparator."""

    lam: float
    rho: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and math.isfinite(self.rho)):
            raise ValueError(f"lambda and rho must be finite, got {self.lam!r}, {self.rho!r}")
        if self.lam < 0 or self.rho < 0:
            raise ValueError("lambda and rho must be non-negative")


@dataclass(frozen=True, slots=True)
class PredicateParams:
    """Scoring parameters of a predicate: one pair for each comparator kind.

    This mirrors Table 2 of the paper, where a parameter set such as ``P1`` is
    written ``(lambda_equals, rho_equals), (lambda_greater, rho_greater)``.
    """

    equals: ComparatorParams
    greater: ComparatorParams

    @classmethod
    def of(
        cls,
        lambda_equals: float,
        rho_equals: float,
        lambda_greater: float,
        rho_greater: float,
    ) -> "PredicateParams":
        """Convenience constructor taking the four scalars of Table 2."""
        return cls(
            ComparatorParams(lambda_equals, rho_equals),
            ComparatorParams(lambda_greater, rho_greater),
        )

    @classmethod
    def boolean(cls) -> "PredicateParams":
        """The Boolean parameter set ``PB = (0, 0), (0, 0)``."""
        return cls.of(0.0, 0.0, 0.0, 0.0)


def equals_score(a: float, b: float, params: ComparatorParams) -> float:
    """Degree to which ``a`` equals ``b`` (Figure 3, left curve)."""
    d = abs(a - b)
    if d <= params.lam:
        return 1.0
    if params.rho == 0.0:
        return 0.0
    if d >= params.lam + params.rho:
        return 0.0
    return min((params.lam + params.rho - d) / params.rho, 1.0)


def greater_score(a: float, b: float, params: ComparatorParams) -> float:
    """Degree to which ``a`` is greater than ``b`` (Figure 3, right curve)."""
    d = a - b
    if params.rho == 0.0:
        return 1.0 if d > params.lam else 0.0
    if d <= params.lam:
        return 0.0
    if d >= params.lam + params.rho:
        return 1.0
    return min((d - params.lam) / params.rho, 1.0)


def equals_score_range(
    d_min: float, d_max: float, params: ComparatorParams
) -> tuple[float, float]:
    """Exact image of ``equals`` over the difference range ``[d_min, d_max]``.

    ``equals`` viewed as a function of ``d = a - b`` is a symmetric tent: it peaks
    (value 1) on ``[-lambda, lambda]`` and decreases monotonically as ``|d|`` grows.
    Hence on a difference interval the maximum is attained at the point of smallest
    ``|d|`` and the minimum at the point of largest ``|d|``.
    """
    if d_min > d_max:
        raise ValueError("empty difference range")
    # Point of smallest |d| inside [d_min, d_max].
    if d_min <= 0.0 <= d_max:
        closest = 0.0
    elif d_max < 0.0:
        closest = d_max
    else:
        closest = d_min
    farthest = d_min if abs(d_min) >= abs(d_max) else d_max
    hi = equals_score(closest, 0.0, params)
    lo = equals_score(farthest, 0.0, params)
    return lo, hi


def greater_score_range(
    d_min: float, d_max: float, params: ComparatorParams
) -> tuple[float, float]:
    """Exact image of ``greater`` over the difference range ``[d_min, d_max]``.

    ``greater`` is non-decreasing in ``d``, so the extrema are at the range ends.
    The only subtlety is the Boolean case ``rho = 0``: the step happens strictly
    after ``lambda``, so a range whose upper end sits exactly at ``lambda`` cannot
    reach 1, while any range extending beyond ``lambda`` can.
    """
    if d_min > d_max:
        raise ValueError("empty difference range")
    lo = greater_score(d_min, 0.0, params)
    hi = greater_score(d_max, 0.0, params)
    return lo, hi
