"""Columnar execution substrate: record batches and vectorized kernels.

The scalar engine scores one Python object at a time; this package provides the
MonetDB/X100-style alternative — numpy record batches (:class:`IntervalColumns`)
built once per bucket, plus vectorized comparator/predicate/aggregation kernels
with bit-identical float results, plus endpoint-sorted views and the
searchsorted window resolution the sweep kernel is built on.  The local join
selects between the kernels through ``LocalJoinConfig.kernel`` (see DESIGN.md
§8 and §11).
"""

from .columns import (
    FixedInterval,
    IntervalColumns,
    SortedEndpointViews,
    as_columns,
    as_intervals,
)
from .shm import SharedIntervalColumns, SharedMemoryPool
from .kernels import (
    VectorScorer,
    box_mask,
    combine_scores_v,
    compile_vector,
    equals_score_v,
    greater_score_v,
    score_range_v,
    sweep_positions,
)

__all__ = [
    "FixedInterval",
    "IntervalColumns",
    "SharedIntervalColumns",
    "SharedMemoryPool",
    "SortedEndpointViews",
    "as_columns",
    "as_intervals",
    "VectorScorer",
    "box_mask",
    "combine_scores_v",
    "compile_vector",
    "equals_score_v",
    "greater_score_v",
    "score_range_v",
    "sweep_positions",
]
