"""Score-threshold lookups: a score threshold on one join edge becomes a box
over the (start, end) plane, and the box becomes a bucket's candidate rows."""

from .interval_index import (
    CompiledPredicateQuery,
    Rect,
    box_window,
    threshold_difference_range,
)

__all__ = [
    "CompiledPredicateQuery",
    "Rect",
    "box_window",
    "threshold_difference_range",
]
