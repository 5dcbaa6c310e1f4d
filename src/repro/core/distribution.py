"""Workload assignment of bucket combinations to reducers (TKIJ phase c).

``DistributeTopBuckets`` (DTB, Algorithms 3-4) hands out the selected combinations
``Ω_k,S`` so that every reducer receives a fair share of *high-scoring* work — the
key to early termination in top-k processing — while opportunistically limiting
input replication and capping worst-case output load.  The paper compares DTB to an
LPT-style assignment (largest number of results first, least-loaded reducer); both
are implemented here, plus a plain round-robin used as an extra ablation arm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .bounds import BucketCombination, CombinationTable
from .statistics import BucketKey

__all__ = [
    "WorkloadAssignment",
    "distribute_top_buckets",
    "lpt_assignment",
    "round_robin_assignment",
    "ASSIGNERS",
    "assign",
]

VertexBucket = tuple[str, BucketKey]


@dataclass
class WorkloadAssignment:
    """The outcome of a workload-assignment policy.

    ``combinations_per_reducer`` drives the local joins (one
    :class:`CombinationTable` slice per reducer, in assignment order);
    ``buckets_per_reducer`` (the ``M`` relation of Algorithm 3) determines which
    reducers each input interval must be replicated to, and therefore the
    shuffle cost.
    """

    num_reducers: int
    combinations_per_reducer: dict[int, Sequence[BucketCombination]] = field(default_factory=dict)
    buckets_per_reducer: dict[int, set[VertexBucket]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for reducer in range(self.num_reducers):
            self.combinations_per_reducer[reducer] = CombinationTable.of(
                self.combinations_per_reducer.get(reducer, ())
            )
            self.buckets_per_reducer.setdefault(reducer, set())

    @classmethod
    def of_rows(
        cls, table: CombinationTable, rows_per_reducer: Sequence[Sequence[int]]
    ) -> "WorkloadAssignment":
        """Assignment giving reducer ``r`` the rows ``rows_per_reducer[r]`` of ``table``."""
        parts = {reducer: table.take(rows) for reducer, rows in enumerate(rows_per_reducer)}
        return cls(
            len(rows_per_reducer),
            parts,
            {reducer: part.bucket_items() for reducer, part in parts.items()},
        )

    # ----------------------------------------------------------------- queries
    def reducers_of_bucket(self, vertex: str, bucket: BucketKey) -> list[int]:
        """Reducers that must receive the intervals of ``(vertex, bucket)``."""
        return [
            reducer
            for reducer, buckets in self.buckets_per_reducer.items()
            if (vertex, bucket) in buckets
        ]

    def results_per_reducer(self) -> dict[int, int]:
        """Worst-case number of candidate results each reducer may evaluate."""
        return {
            reducer: combos.total_results()
            for reducer, combos in self.combinations_per_reducer.items()
        }

    def replication_cost(self, bucket_counts: Mapping[VertexBucket, int]) -> int:
        """Total shuffled records: every bucket's cardinality times its replication."""
        cost = 0
        for buckets in self.buckets_per_reducer.values():
            for item in buckets:
                cost += bucket_counts.get(item, 0)
        return cost

    def describe(self, bucket_counts: Mapping[VertexBucket, int] | None = None) -> dict[str, float]:
        """Flat summary used by the experiment reports."""
        per_reducer = self.results_per_reducer()
        loads = list(per_reducer.values())
        total = sum(loads)
        summary = {
            "assigned_combinations": float(
                sum(len(c) for c in self.combinations_per_reducer.values())
            ),
            "max_results_per_reducer": float(max(loads) if loads else 0),
            "avg_results_per_reducer": float(total / len(loads)) if loads else 0.0,
        }
        if bucket_counts is not None:
            summary["shuffle_replication"] = float(self.replication_cost(bucket_counts))
        return summary


# --------------------------------------------------------------------------- DTB
def distribute_top_buckets(
    combinations: Sequence[BucketCombination], num_reducers: int
) -> WorkloadAssignment:
    """Algorithms 3-4 (DistributeTopBuckets with ``getReducer``).

    Combinations are visited in descending order of score upper bound so that the
    round-robin over least-loaded reducers spreads the likely high-scoring work
    evenly.  For each one, reducers already holding more than twice the average
    number of results are discarded (worst-case output cap; when every reducer
    exceeds it, e.g. after a single huge combination, all are considered rather
    than failing); among the remaining reducers with the fewest assigned
    combinations, the first one that needs the least *new* input wins.  The paper
    describes that tie-break as favouring the reducer "already assigned the
    largest fraction of the current ω", i.e. the one whose additional input cost
    is smallest; ``inCost`` is therefore counted over the buckets the reducer
    does *not* yet hold (weight 1 per bucket: cardinalities are folded into
    ``nb_res``).
    """
    if num_reducers <= 0:
        raise ValueError("num_reducers must be positive")
    table = CombinationTable.of(combinations)
    order = table.descending(table.upper)
    # One integer per (vertex, bucket): bucket positions offset per vertex.
    offsets = np.cumsum([0] + [len(keys) for keys in table.keys[:-1]])
    rows = (table.positions[order] + offsets).tolist()
    sizes = table.nb_res[order].tolist()
    cap = 2.0 * (sum(sizes) / num_reducers)

    reducers = list(range(num_reducers))
    under_cap = list(reducers)
    results = [0] * num_reducers
    counts = [0] * num_reducers
    assigned: list[list[int]] = [[] for _ in reducers]
    held: list[set[int]] = [set() for _ in reducers]
    holds = [mine.__contains__ for mine in held]
    for at, row in enumerate(rows):
        candidates = under_cap or reducers
        fewest = min(map(counts.__getitem__, candidates))
        best, most_held = -1, -1
        for r in candidates:
            if counts[r] == fewest:
                already = sum(map(holds[r], row))
                if already > most_held:
                    best, most_held = r, already
                    if already == len(row):
                        break
        assigned[best].append(at)
        counts[best] += 1
        held[best].update(row)
        results[best] += sizes[at]
        if cap and results[best] >= cap and best in under_cap:
            under_cap.remove(best)
    return WorkloadAssignment.of_rows(table, [order[picked] for picked in assigned])


# --------------------------------------------------------------------------- LPT
def lpt_assignment(
    combinations: Sequence[BucketCombination], num_reducers: int
) -> WorkloadAssignment:
    """The LPT baseline of Section 4.2.2.

    Combinations are treated as tasks whose processing time is their result count;
    they are assigned in descending ``nbRes`` order to the reducer with the least
    total results so far.  Scores are ignored entirely.
    """
    if num_reducers <= 0:
        raise ValueError("num_reducers must be positive")
    table = CombinationTable.of(combinations)
    order = table.descending(table.nb_res)
    load = [0] * num_reducers
    assigned: list[list[int]] = [[] for _ in load]
    for at, size in enumerate(table.nb_res[order].tolist()):
        reducer = load.index(min(load))
        assigned[reducer].append(at)
        load[reducer] += size
    return WorkloadAssignment.of_rows(table, [order[picked] for picked in assigned])


# ------------------------------------------------------------------- round robin
def round_robin_assignment(
    combinations: Sequence[BucketCombination], num_reducers: int
) -> WorkloadAssignment:
    """Naive round-robin in input order (ablation arm, not in the paper)."""
    if num_reducers <= 0:
        raise ValueError("num_reducers must be positive")
    table = CombinationTable.of(combinations)
    return WorkloadAssignment.of_rows(
        table, [np.arange(r, len(table), num_reducers) for r in range(num_reducers)]
    )


ASSIGNERS = {
    "dtb": distribute_top_buckets,
    "lpt": lpt_assignment,
    "round-robin": round_robin_assignment,
}
"""Named workload-assignment policies selectable on the TKIJ runner."""


def assign(
    name: str, combinations: Sequence[BucketCombination], num_reducers: int
) -> WorkloadAssignment:
    """Dispatch to a named assignment policy."""
    if name not in ASSIGNERS:
        raise ValueError(f"unknown assigner {name!r}; expected one of {sorted(ASSIGNERS)}")
    return ASSIGNERS[name](combinations, num_reducers)
