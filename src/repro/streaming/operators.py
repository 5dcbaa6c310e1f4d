"""The streaming pruning rule.

:class:`CandidateFilter` is applied by :class:`~repro.core.FilteredDistributeOp`
on top of the standard loose TopBuckets selection: a combination survives only
if (1) at least one of its buckets received intervals in the current batch
(otherwise every tuple it can form was already considered) and (2) its score
upper bound can still crack the current top-k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..core.bounds import CombinationTable
from ..core.statistics import BucketKey

__all__ = ["CandidateFilter"]


@dataclass
class CandidateFilter:
    """The streaming keep-mask over selected combinations, with counters.

    ``dirty`` maps each query vertex to the bucket keys that received intervals
    in the current batch; ``threshold`` is the score of the persistent k-th
    result (``None`` while fewer than k results exist).  A combination whose
    upper bound does not *strictly* exceed the threshold is pruned: its tuples
    can at best tie the incumbent k-th result, and top-k answers are defined up
    to boundary ties (see :func:`repro.streaming.equivalent_top_k`) — the
    persistent heap already holds k results at or above that score.  A clean
    combination counts as ``clean_skipped`` whatever its bound.
    """

    dirty: Mapping[str, frozenset[BucketKey]]
    threshold: float | None
    kept: int = 0
    clean_skipped: int = 0
    bound_pruned: int = 0

    def __call__(self, table: CombinationTable) -> np.ndarray:
        """Boolean mask of the rows of ``table`` to keep."""
        touched = np.zeros(len(table), dtype=bool)
        for v, vertex in enumerate(table.vertices):
            fresh = self.dirty.get(vertex, frozenset())
            flags = np.array([key in fresh for key in table.keys[v]], dtype=bool)
            touched |= flags[table.positions[:, v]]
        keep = touched if self.threshold is None else touched & (table.upper > self.threshold)
        dirty, kept = int(touched.sum()), int(keep.sum())
        self.clean_skipped += len(table) - dirty
        self.bound_pruned += dirty - kept
        self.kept += kept
        return keep
