"""All-Matrix: the Boolean sequence-join baseline of Chawda et al. (EDBT 2014).

All-Matrix targets *sequence* queries (``before``-style predicates) where some
replication is unavoidable: each collection is range-partitioned into ``p``
partitions and one reducer is created per feasible n-tuple of partitions.  Every
interval is replicated to every reducer whose coordinate for its vertex matches the
interval's partition, which is why the baseline's shuffle cost — and therefore its
running time — grows steadily with the collection size (the behaviour Figure 11a
contrasts with TKIJ).

Following the paper's experimental protocol (Section 4.2.5), the baseline evaluates
the *Boolean* interpretation of the query's predicates, each reducer stops as soon
as it has found ``k`` results, and a final merge returns ``k`` of them (all with
score 1.0).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator

from ..mapreduce import (
    ClusterConfig,
    ExecutionBackend,
    FirstElementPartitioner,
    MapReduceEngine,
    MapReduceJob,
    Mapper,
    Reducer,
)
from ..query.graph import ResultTuple, RTJQuery
from ..solver.domain import DomainSet, VariableBox
from ..solver.objective import EdgeObjective
from ..temporal.comparators import PredicateParams
from .common import (
    BaselineResult,
    boolean_query,
    compile_boolean_checker,
    iter_batch_matches,
    top_k_matches,
)

__all__ = ["AllMatrixConfig", "AllMatrixJoin"]


@dataclass(frozen=True)
class AllMatrixConfig:
    """Knobs of the All-Matrix baseline."""

    num_partitions: int = 4
    boolean_params: PredicateParams = field(default_factory=PredicateParams.boolean)


def _partition_index(bounds: list[tuple[float, float]], start: float) -> int:
    """Index of the start-time partition containing ``start`` (clamped to the last)."""
    for index, (low, high) in enumerate(bounds):
        if low <= start <= high:
            return index
    return len(bounds) - 1


class _AllMatrixMapper(Mapper):
    """Replicates each interval to every reducer tuple matching its partition."""

    def __init__(self, partitions, reducers_by_vertex_partition) -> None:
        self._partitions = partitions
        self._reducers_by_vertex_partition = reducers_by_vertex_partition

    def map(self, key, value):
        vertex, interval = key, value
        partition = _partition_index(self._partitions[vertex], interval.start)
        for reducer_id in self._reducers_by_vertex_partition.get((vertex, partition), ()):
            self.counters.increment("allmatrix.intervals_shuffled")
            yield (reducer_id, vertex), interval


class _AllMatrixReducer(Reducer):
    """Boolean join over the reducer's local partitions, capped at k.

    The innermost pool is scored as one columnar batch per prefix tuple
    (:func:`iter_batch_matches`); hybrid queries with attribute constraints
    keep the scalar nested loop, which the batch kernels do not model.
    """

    def __init__(self, query: RTJQuery, k: int) -> None:
        self._query = query
        self._k = k
        self._intervals: dict[str, list] = {}

    def reduce(self, key, values):
        _, vertex = key
        self._intervals.setdefault(vertex, []).extend(values)
        return iter(())

    def cleanup(self) -> Iterator:
        if len(self._intervals) < len(self._query.vertices):
            return
        vertices = self._query.vertices
        pools = [self._intervals[vertex] for vertex in vertices]
        if self._query.has_attribute_constraints:
            check = compile_boolean_checker(self._query)
            found = 0
            for combo in itertools.product(*pools):
                self.counters.increment("allmatrix.tuples_checked")
                if check(combo):
                    found += 1
                    yield "match", ResultTuple(tuple(i.uid for i in combo), 1.0)
                    if found >= self._k:
                        return
            return
        for result in iter_batch_matches(
            self._query, pools, self._k, self.counters, "allmatrix.tuples_checked"
        ):
            yield "match", result


@dataclass
class AllMatrixJoin:
    """Runs the All-Matrix baseline for a query on the simulated cluster.

    ``backend`` optionally shares an already-created execution backend (the
    caller keeps ownership); otherwise the engine creates its own, released by
    ``close()`` or by using the baseline as a context manager.
    """

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    config: AllMatrixConfig = field(default_factory=AllMatrixConfig)
    backend: "ExecutionBackend | None" = None

    def __post_init__(self) -> None:
        self.engine = MapReduceEngine(self.cluster, self.backend)

    def close(self) -> None:
        """Release the engine's own backend workers (injected backends stay up)."""
        self.engine.close()

    def __enter__(self) -> "AllMatrixJoin":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def execute(self, query: RTJQuery) -> BaselineResult:
        """Evaluate the Boolean interpretation of ``query`` and return up to ``k`` matches."""
        started = time.perf_counter()
        bool_query = boolean_query(query, self.config.boolean_params)

        partitions = self._build_partitions(bool_query)
        reducer_tuples = self._feasible_reducer_tuples(bool_query, partitions)
        reducer_lists: dict[tuple[str, int], list[int]] = {}
        for reducer_id, parts in enumerate(reducer_tuples):
            for vertex, part in zip(bool_query.vertices, parts):
                reducer_lists.setdefault((vertex, part), []).append(reducer_id)
        reducers_by_vertex_partition = {
            item: tuple(reducers) for item, reducers in reducer_lists.items()
        }

        input_pairs = [
            (vertex, interval)
            for vertex in bool_query.vertices
            for interval in bool_query.collections[vertex]
        ]
        job = MapReduceJob(
            name="allmatrix-join",
            mapper_factory=partial(_AllMatrixMapper, partitions, reducers_by_vertex_partition),
            reducer_factory=partial(_AllMatrixReducer, bool_query.without_data(), bool_query.k),
            partitioner=FirstElementPartitioner(),
            num_reducers=max(1, len(reducer_tuples)),
        )
        job_result = self.engine.run(job, input_pairs)
        ordered = top_k_matches(job_result.outputs, bool_query.k)
        elapsed = time.perf_counter() - started
        return BaselineResult(
            name="All-Matrix",
            results=ordered,
            phase_metrics=[job_result.metrics],
            elapsed_seconds=elapsed,
        )

    # ----------------------------------------------------------------- internal
    def _build_partitions(self, query: RTJQuery) -> dict[str, list[tuple[float, float]]]:
        """Uniform start-time partitions per vertex collection."""
        partitions: dict[str, list[tuple[float, float]]] = {}
        for vertex in query.vertices:
            collection = query.collections[vertex]
            low, high = collection.time_range()
            width = (high - low) / self.config.num_partitions or 1.0
            partitions[vertex] = [
                (low + i * width, low + (i + 1) * width)
                for i in range(self.config.num_partitions)
            ]
            partitions[vertex][-1] = (partitions[vertex][-1][0], high)
        return partitions

    def _feasible_reducer_tuples(
        self, query: RTJQuery, partitions: dict[str, list[tuple[float, float]]]
    ) -> list[tuple[int, ...]]:
        """Partition tuples that can possibly satisfy every Boolean predicate.

        Feasibility is checked with the scored-range machinery under Boolean
        parameters: a tuple is kept when every edge's upper bound is positive given
        boxes covering the partitions (start confined to the partition, end
        unconstrained up to the collection maximum).
        """
        objectives = [
            EdgeObjective.from_edge(e.source, e.target, e.predicate) for e in query.edges
        ]
        tuples: list[tuple[int, ...]] = []
        ranges = [range(self.config.num_partitions) for _ in query.vertices]
        global_high = {
            vertex: query.collections[vertex].time_range()[1] for vertex in query.vertices
        }
        for candidate in itertools.product(*ranges):
            boxes = {}
            for vertex, part in zip(query.vertices, candidate):
                low, high = partitions[vertex][part]
                boxes[vertex] = VariableBox(low, high, low, global_high[vertex])
            domains = DomainSet.from_mapping(boxes).endpoint_domains()
            feasible = all(objective.score_range(domains)[1] > 0.0 for objective in objectives)
            if feasible:
                tuples.append(candidate)
        return tuples
