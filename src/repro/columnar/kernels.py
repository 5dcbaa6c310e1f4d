"""Vectorized comparator, predicate and aggregation kernels.

These are the columnar counterparts of the scalar hot paths: each kernel
evaluates one operation over a whole candidate array instead of one tuple at a
time, with bit-identical float results.  Parity is load-bearing, not cosmetic —
the local join's pruning decisions compare scores against thresholds, so any
rounding difference would change *which* tuples get enumerated, not just how
fast.  The predicate scorers are therefore printed from the same
:class:`~repro.temporal.comparison_plan.ComparisonPlan` branch tables as the
scalar :meth:`ScoredPredicate.compile` (same operations, same order, the same
1.0 cap), the aggregation kernel folds in the scalar ``combine``'s order, and
the hypothesis suite in ``tests/test_columnar.py`` asserts elementwise
equality.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from ..index.interval_index import Rect, box_window
from ..temporal.aggregation import (
    Aggregation,
    AverageScore,
    MinScore,
    SumScore,
    WeightedSum,
)
from ..temporal.predicates import ScoredPredicate
from ..temporal.terms import EndpointVar

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .columns import IntervalColumns

__all__ = [
    "compile_vector",
    "score_range_v",
    "combine_scores_v",
    "box_mask",
    "sweep_positions",
    "VectorScorer",
]

VectorScorer = Callable[[object, object, object, object], np.ndarray]
"""``f(x_start, x_end, y_start, y_end) -> scores``; any argument may be an
array (numpy broadcasting), so one compiled scorer serves both orientations
of an edge."""


_VECTOR_OPERANDS = ("x_start", "x_end", "y_start", "y_end")


def compile_vector(
    predicate: ScoredPredicate, first_var: str = "x", second_var: str = "y"
) -> VectorScorer:
    """Vectorized counterpart of :meth:`ScoredPredicate.compile`.

    The returned scorer takes the four endpoint operands (scalars or aligned
    arrays) and returns the per-candidate predicate score: the running ``min``
    over the conjuncts' ``np.where`` chains, printed from the same plans as the
    scalar scorer.  ``np.where`` evaluates the slope on plateau lanes too,
    where a subnormal ``rho`` may overflow; those lanes are discarded.
    """
    plans = predicate.comparison_plans(first_var, second_var)
    if not plans:
        raise ValueError("predicate has no comparisons")
    lines = ["def score_v(x_start, x_end, y_start, y_end):", "  with np.errstate(over='ignore'):"]
    for position, plan in enumerate(plans):
        part = plan.numpy_expression("v")
        lines.append(f"    v = {plan.difference(_VECTOR_OPERANDS, 'np.abs')}")
        lines.append(f"    best = {f'np.minimum(best, {part})' if position else part}")
    lines.append("  return np.asarray(best, dtype=float)")
    namespace = {"np": np}
    exec("\n".join(lines), namespace)
    return namespace["score_v"]


def score_range_v(
    predicate: ScoredPredicate, boxes: Mapping[str, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :meth:`ScoredPredicate.score_range` over arrays of endpoint boxes.

    ``boxes`` maps each predicate variable to a ``(4, ...)`` array of
    start-low/start-high/end-low/end-high box edges; the trailing shapes
    broadcast against each other, and the result has one element per combination
    of boxes (``(4, S, 1)`` against ``(4, 1, T)`` bounds every pair).  The
    difference range of every conjunct comes from the scalar :meth:`Term.bounds`
    itself (its arithmetic is elementwise on arrays), the plan's ``np.where``
    chain scores the closest/farthest difference exactly like ``equals_score_range`` /
    ``greater_score_range``, and the running ``min`` starts from 1.0, so every
    element equals the scalar result bit for bit.
    """
    domains = {}
    for var, sides in zip(boxes, np.broadcast_arrays(*boxes.values())):
        domains[EndpointVar(var, "start")] = (sides[0], sides[1])
        domains[EndpointVar(var, "end")] = (sides[2], sides[3])
    lo: object = 1.0
    hi: object = 1.0
    plans = predicate.comparison_plans(*boxes)
    for comparison, plan in zip(predicate.comparisons, plans):
        d_min, d_max = (comparison.left - comparison.right).bounds(domains)
        image = eval(f"lambda v: {plan.numpy_expression('v')}", {"np": np})
        with np.errstate(over="ignore"):
            if plan.kind == "equals":
                closest = np.where(
                    (d_min <= 0.0) & (d_max >= 0.0), 0.0, np.where(d_max < 0.0, d_max, d_min)
                )
                farthest = np.where(np.abs(d_min) >= np.abs(d_max), d_min, d_max)
                c_lo, c_hi = image(np.abs(farthest)), image(np.abs(closest))
            else:
                c_lo, c_hi = image(d_min), image(d_max)
        lo = np.minimum(lo, c_lo)
        hi = np.minimum(hi, c_hi)
    return np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)


def combine_scores_v(
    aggregation: Aggregation, parts: Sequence[object], size: int
) -> np.ndarray:
    """Vectorized ``aggregation.combine`` over per-edge score columns.

    ``parts`` holds one entry per query edge, in edge order; each entry is
    either a scalar (an already-resolved score or an upper bound) or an array of
    per-candidate scores.  Accumulation runs in edge order — the same float
    operation sequence as the scalar ``combine`` — so results are bit-identical.
    Aggregations without a closed vector form fall back to the scalar combine
    per candidate, trading speed for guaranteed parity.
    """
    if isinstance(aggregation, (SumScore, AverageScore)):
        total: object = 0.0
        for part in parts:
            total = total + part
        if isinstance(aggregation, AverageScore):
            if len(parts) != aggregation.num_edges:
                raise ValueError(
                    f"expected {aggregation.num_edges} edge scores, got {len(parts)}"
                )
            total = total / aggregation.num_edges
        return np.broadcast_to(np.asarray(total, dtype=float), (size,))
    if isinstance(aggregation, WeightedSum):
        if len(parts) != len(aggregation.weights):
            raise ValueError(
                f"expected {len(aggregation.weights)} edge scores, got {len(parts)}"
            )
        total = 0.0
        for weight, part in zip(aggregation.weights, parts):
            total = total + weight * part
        return np.broadcast_to(np.asarray(total, dtype=float), (size,))
    if isinstance(aggregation, MinScore):
        best: object | None = None
        for part in parts:
            best = part if best is None else np.minimum(best, part)
        if best is None:
            raise ValueError("cannot combine zero scores")
        return np.broadcast_to(np.asarray(best, dtype=float), (size,))
    # Unknown monotone aggregation: exact fallback, one scalar combine per row.
    columns = [np.broadcast_to(np.asarray(part, dtype=float), (size,)) for part in parts]
    return np.fromiter(
        (aggregation.combine([column[row] for column in columns]) for row in range(size)),
        dtype=float,
        count=size,
    )


def box_mask(box: Rect, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Candidates whose ``(start, end)`` point lies in ``box``.

    The vector kernel's resolver: one boolean range filter over the bucket's
    columns selects the threshold box's candidate rows (a superset of the true
    candidates — see :mod:`repro.index.interval_index`).
    """
    return (
        (starts >= box.min_x)
        & (starts <= box.max_x)
        & (ends >= box.min_y)
        & (ends <= box.max_y)
    )


_EMPTY_POSITIONS = np.empty(0, dtype=np.int64)


def sweep_positions(box: Rect, columns: "IntervalColumns") -> np.ndarray:
    """Sweep twin of ``flatnonzero(box_mask(...))``: same positions, same order.

    Resolves ``box`` to a candidate window over the batch's endpoint-sorted
    views (:func:`repro.index.box_window`), walks the *narrower* of the start
    and end windows, filters the remaining dimension with a residual mask over
    only those rows, and sorts the surviving insertion-order positions.  Cost
    is ``O(log n + w)`` for window size ``w`` versus the full-column
    ``O(n)`` scan of :func:`box_mask`; the result is identical — the window is
    exactly one dimension of the conjunction, the residual mask is the other,
    and the final sort restores insertion order — so the sweep kernel inherits
    the vector kernel's enumeration order and work counters bit for bit.
    """
    views = columns.sorted_views()
    (s_lo, s_hi), (e_lo, e_hi) = box_window(
        box, views.starts_sorted, views.ends_sorted
    )
    if s_hi <= s_lo or e_hi <= e_lo:
        return _EMPTY_POSITIONS
    if s_hi - s_lo <= e_hi - e_lo:
        window = views.start_order[s_lo:s_hi]
        residual = columns.ends[window]
        keep = (residual >= box.min_y) & (residual <= box.max_y)
    else:
        window = views.end_order[e_lo:e_hi]
        residual = columns.starts[window]
        keep = (residual >= box.min_x) & (residual <= box.max_x)
    positions = window[keep]
    positions.sort()
    return positions
