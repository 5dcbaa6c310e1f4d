"""Monotone aggregation functions for RTJ result scores.

The score of a result tuple ``(x_1, ..., x_n)`` aggregates the partial scores of
every query edge with a monotone function ``S``.  The paper uses the normalised sum
(average) in its experiments and allows any monotone function; weighted sums and
``min`` are also provided.

Besides combining concrete scores, the join pipeline needs two more operations on
``S``:

* combining per-edge *bounds* into tuple-level bounds, which is valid verbatim for
  monotone functions (replace every partial score with its bound);
* computing the *residual threshold* one designated edge must reach for the
  aggregate to still attain a target value, given one estimate per edge (the
  actual score of a resolved edge, the upper bound of an unresolved one) --
  this drives the threshold index lookups of the local join.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

__all__ = ["Aggregation", "AverageScore", "WeightedSum", "MinScore", "SumScore"]


class Aggregation(ABC):
    """A monotone (non-decreasing in every argument) aggregation function."""

    @abstractmethod
    def combine(self, scores: Sequence[float]) -> float:
        """Aggregate the partial scores of all edges (edge order)."""

    @abstractmethod
    def residual_threshold(
        self, target: float, edge_index: int, estimates: Sequence[float]
    ) -> float:
        """Minimum score edge ``edge_index`` needs for the aggregate to reach ``target``.

        ``estimates`` holds one value per edge: the actual score of a resolved
        edge, the upper bound of an unresolved one; the entry of ``edge_index``
        itself is ignored.  The returned value may be ``<= 0`` (no constraint)
        or ``> 1`` (the target is unreachable).
        """

    def upper_bound(self, edge_upper_bounds: Sequence[float]) -> float:
        """Tuple-level upper bound from per-edge upper bounds (valid by monotonicity)."""
        return self.combine(edge_upper_bounds)

    def lower_bound(self, edge_lower_bounds: Sequence[float]) -> float:
        """Tuple-level lower bound from per-edge lower bounds (valid by monotonicity)."""
        return self.combine(edge_lower_bounds)


@dataclass(frozen=True)
class SumScore(Aggregation):
    """Plain sum of edge scores."""

    def combine(self, scores: Sequence[float]) -> float:
        return float(sum(scores))

    def residual_threshold(
        self, target: float, edge_index: int, estimates: Sequence[float]
    ) -> float:
        return target - sum(_others(edge_index, estimates))


@dataclass(frozen=True)
class AverageScore(Aggregation):
    """Normalised sum ``sum(scores) / |E|`` -- the paper's experimental choice."""

    num_edges: int

    def __post_init__(self) -> None:
        if self.num_edges <= 0:
            raise ValueError("num_edges must be positive")

    def combine(self, scores: Sequence[float]) -> float:
        if len(scores) != self.num_edges:
            raise ValueError(
                f"expected {self.num_edges} edge scores, got {len(scores)}"
            )
        return float(sum(scores)) / self.num_edges

    def residual_threshold(
        self, target: float, edge_index: int, estimates: Sequence[float]
    ) -> float:
        return target * self.num_edges - sum(_others(edge_index, estimates))


@dataclass(frozen=True)
class WeightedSum(Aggregation):
    """Weighted sum with non-negative weights, one per edge (in edge order)."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("weights must be non-empty")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")

    def combine(self, scores: Sequence[float]) -> float:
        if len(scores) != len(self.weights):
            raise ValueError(
                f"expected {len(self.weights)} edge scores, got {len(scores)}"
            )
        return float(sum(w * s for w, s in zip(self.weights, scores)))

    def residual_threshold(
        self, target: float, edge_index: int, estimates: Sequence[float]
    ) -> float:
        rest = sum(
            weight * value
            for index, (weight, value) in enumerate(zip(self.weights, estimates))
            if index != edge_index
        )
        weight = self.weights[edge_index]
        if weight == 0:
            # The designated edge cannot influence the aggregate at all.
            return 0.0 if rest >= target else float("inf")
        return (target - rest) / weight


@dataclass(frozen=True)
class MinScore(Aggregation):
    """Minimum of edge scores (a conjunction-like semantics)."""

    def combine(self, scores: Sequence[float]) -> float:
        return float(min(scores))

    def residual_threshold(
        self, target: float, edge_index: int, estimates: Sequence[float]
    ) -> float:
        if any(value < target for value in _others(edge_index, estimates)):
            return float("inf")
        return target


def _others(edge_index: int, estimates: Sequence[float]) -> list[float]:
    """Every estimate except ``edge_index``'s, in edge order (the summation order)."""
    return [*estimates[:edge_index], *estimates[edge_index + 1 :]]
