"""Local top-k RTJ evaluation on one reducer (TKIJ phase d).

Each reducer receives a set of bucket combinations and the intervals of the buckets
they reference, and evaluates the full RTJ query restricted to those combinations.
Combinations are processed in descending order of score upper bound; once the
reducer's top-k heap is full and the next combination's upper bound cannot beat the
current k-th score, the remaining combinations are skipped (early termination).

Inside a combination the query is evaluated left-deep along the query graph's BFS
join order.  When extending a partial tuple with a new vertex, the residual score
the connecting edge must reach (for the final aggregate to still beat the current
k-th score) is derived from the monotone aggregation.  That residual score becomes
a threshold box over the (start, end) plane and the box becomes the bucket's
candidate rows — the paper's reducer lookup "for an interval x_i and a score value
v, return the x_j with s-p(x_i, x_j) >= v".
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from ..columnar import (
    FixedInterval,
    IntervalColumns,
    as_columns,
    box_mask,
    combine_scores_v,
    compile_vector,
    sweep_positions,
)
from ..index import CompiledPredicateQuery, Rect
from ..query.graph import QueryEdge, ResultTuple, RTJQuery
from ..temporal.interval import Interval
from .bounds import BucketCombination, CombinationTable
from .statistics import BucketKey

__all__ = ["KERNELS", "LocalJoinConfig", "LocalJoinStats", "LocalTopKJoin"]

VertexBucket = tuple[str, BucketKey]
Scorer = Callable[[Interval, Interval], float]

KERNELS = ("scalar", "vector", "sweep")
"""Valid values of ``LocalJoinConfig.kernel``."""


@dataclass(frozen=True)
class LocalJoinConfig:
    """Tuning knobs of the local join (all are ablated in the benchmarks).

    ``use_index`` turns each extension step's threshold box → candidate rows
    lookup on (off: every step scans its whole bucket).  ``kernel`` selects
    the execution substrate of the candidate loops: ``"scalar"`` scores one
    Python object at a time (the box's rows bisected out of the bucket's
    endpoint-sorted views), ``"vector"`` scores whole candidate arrays with
    the numpy kernels of :mod:`repro.columnar` (one boxed range filter per
    extension step), and ``"sweep"`` scores the same candidate arrays but
    resolves each threshold box to a window over endpoint-sorted views with
    ``searchsorted`` instead of scanning the whole bucket (DESIGN.md §11).
    All kernels enumerate the same tuples in the same order, so results are
    tie-aware identical and the work counters match exactly (DESIGN.md §8).
    """

    use_index: bool = True
    early_termination: bool = True
    kernel: str = "scalar"

    def __post_init__(self) -> None:
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown join kernel {self.kernel!r}; expected one of {KERNELS}")


@dataclass
class LocalJoinStats:
    """Work counters of one local join execution."""

    combinations_processed: int = 0
    combinations_skipped: int = 0
    candidates_examined: int = 0
    tuples_scored: int = 0

    def merge(self, other: "LocalJoinStats") -> None:
        self.combinations_processed += other.combinations_processed
        self.combinations_skipped += other.combinations_skipped
        self.candidates_examined += other.candidates_examined
        self.tuples_scored += other.tuples_scored


class _TopKHeap:
    """Fixed-capacity min-heap of result tuples ordered by score."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._heap: list[tuple[float, tuple[int, ...]]] = []

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def is_full(self) -> bool:
        return len(self._heap) >= self.capacity

    @property
    def kth_score(self) -> float:
        """Score of the current k-th result; 0 while the heap is not full."""
        if len(self._heap) < self.capacity:
            return 0.0
        return self._heap[0][0]

    def offer(self, score: float, uids: tuple[int, ...]) -> None:
        if len(self._heap) < self.capacity:
            heapq.heappush(self._heap, (score, uids))
        elif score > self._heap[0][0]:
            heapq.heapreplace(self._heap, (score, uids))

    def results(self) -> list[ResultTuple]:
        ordered = sorted(self._heap, key=lambda item: (-item[0], item[1]))
        return [ResultTuple(uids=uids, score=score) for score, uids in ordered]


class _Step(NamedTuple):
    """One join-order depth of the compiled walk (built once per join)."""

    vertex: str
    edges: tuple[tuple[int, Scorer, str, bool], ...]
    """Connecting edges as ``(edge index, scorer, other vertex, candidate is
    the edge's source)``."""
    attribute_edges: tuple[QueryEdge, ...]
    """Connecting edges carrying attribute constraints (almost always none)."""
    driver: tuple[int, CompiledPredicateQuery, str] | None
    """``(edge index, threshold-box query, fixed vertex)`` of the first
    connecting edge; ``None`` for the first vertex."""
    last: bool
    """Binding this vertex completes a tuple."""


def _plan_steps(query: RTJQuery, join_order: Sequence[str]) -> list[_Step]:
    """One step plan per join-order depth: the edges resolved when its vertex
    is bound, with their compiled scorers, and the driver edge's box query."""
    steps = []
    for depth, vertex in enumerate(join_order):
        bound = join_order[:depth]
        connecting = [
            (index, edge)
            for index, edge in enumerate(query.edges)
            if (edge.source == vertex and edge.target in bound)
            or (edge.target == vertex and edge.source in bound)
        ]
        edges = tuple(
            (
                index,
                edge.predicate.compile(),
                edge.target if edge.source == vertex else edge.source,
                edge.source == vertex,
            )
            for index, edge in connecting
        )
        driver = None
        if connecting:
            index, edge = connecting[0]
            fixed = edges[0][2]
            renamed = edge.predicate.rename(edge.source, edge.target)
            driver = (index, CompiledPredicateQuery(renamed, fixed, vertex), fixed)
        attribute_edges = tuple(edge for _, edge in connecting if edge.attributes)
        steps.append(_Step(vertex, edges, attribute_edges, driver, depth + 1 == len(join_order)))
    return steps


class LocalTopKJoin:
    """Evaluates an RTJ query over a set of bucket combinations, returning the top-k."""

    def __init__(self, query: RTJQuery, config: LocalJoinConfig | None = None) -> None:
        self.query = query
        self.config = config or LocalJoinConfig()
        self._floor = 0.0
        self._num_edges = len(query.edges)
        self._join_order = query.join_order()
        self._steps = _plan_steps(query, self._join_order)
        # Vectorized per-edge scorers (x = source, y = target), shared by both
        # columnar kernels.
        self._vector_scorers = (
            {index: compile_vector(edge.predicate) for index, edge in enumerate(query.edges)}
            if self.config.kernel != "scalar"
            else {}
        )
        # The kernels read the same per-bucket columns and differ in how a
        # threshold box becomes candidates and in the extension body scoring them.
        self._resolve, self._extend_kernel = {
            "scalar": (_window_rows, self._walk),
            "vector": (_mask_positions, self._extend_columnar),
            "sweep": (sweep_positions, self._extend_columnar),
        }[self.config.kernel]

    # ------------------------------------------------------------------ public
    def run(
        self,
        combinations: Sequence[BucketCombination],
        intervals: Mapping[VertexBucket, "Sequence[Interval] | IntervalColumns"],
        k: int | None = None,
        initial_threshold: float = 0.0,
    ) -> tuple[list[ResultTuple], LocalJoinStats]:
        """Top-k results over the given combinations and their bucket contents.

        ``intervals`` maps each ``(vertex, bucket)`` to its contents, either as
        a columnar :class:`IntervalColumns` batch (what the join operator
        ships) or as interval objects; every referenced bucket is coerced to
        columns once and shared by all combinations referencing it.

        ``initial_threshold`` seeds the early-termination score floor before the
        local heap fills: tuples that cannot score *strictly above* it are
        pruned from the start.  Callers that merge the returned list into an
        existing top-k whose k-th score is the floor (the streaming evaluator)
        lose nothing but boundary ties, which the merge ignores anyway.  The
        floor is inert (0.0) for plain one-shot evaluation and disabled with
        ``early_termination``.
        """
        k = k if k is not None else self.query.k
        heap = _TopKHeap(k)
        stats = LocalJoinStats()
        buckets: dict[VertexBucket, IntervalColumns] = {}
        self._floor = initial_threshold if self.config.early_termination else 0.0

        # Only the rows actually processed become BucketCombination objects.
        table = CombinationTable.of(combinations)
        ordered = table.descending(table.upper)
        for row, upper_bound in zip(ordered, table.upper[ordered].tolist()):
            threshold = max(self._floor, heap.kth_score if heap.is_full else 0.0)
            if (
                self.config.early_termination
                and (heap.is_full or self._floor > 0.0)
                and upper_bound <= threshold
            ):
                stats.combinations_skipped += len(ordered) - stats.combinations_processed
                break
            stats.combinations_processed += 1
            self._process_combination(table[row], intervals, buckets, heap, stats)
        return heap.results(), stats

    # ----------------------------------------------------------------- internal
    def _process_combination(
        self,
        combination: BucketCombination,
        intervals: Mapping[VertexBucket, "Sequence[Interval] | IntervalColumns"],
        buckets: dict[VertexBucket, IntervalColumns],
        heap: _TopKHeap,
        stats: LocalJoinStats,
    ) -> None:
        per_vertex: dict[str, IntervalColumns] = {}
        for vertex, bucket in combination.bucket_items():
            key = (vertex, bucket)
            columns = buckets.get(key)
            if columns is None:
                columns = buckets[key] = as_columns(intervals.get(key, ()))
            per_vertex[vertex] = columns
        if any(len(columns) == 0 for columns in per_vertex.values()):
            return

        # Every kernel carries one estimate per edge down the walk: the actual
        # score of a resolved edge, the upper bound of an unresolved one.
        edge_ubs = self._edge_upper_bounds(combination)
        first_vertex = self._join_order[0]
        first = per_vertex[first_vertex]
        # The scalar kernel scores Interval rows (in process the original
        # objects), the columnar kernels lightweight records of the columns.
        rows = (
            first.to_intervals()
            if self.config.kernel == "scalar"
            else map(first.record, range(len(first)))
        )
        assignment: dict = {}
        for row in rows:
            assignment[first_vertex] = row
            self._extend_kernel(1, per_vertex, assignment, edge_ubs, heap, stats)

    def _edge_upper_bounds(self, combination: BucketCombination) -> list[float]:
        if combination.edge_bounds and len(combination.edge_bounds) == self._num_edges:
            return [bounds[1] for bounds in combination.edge_bounds]
        return [1.0] * self._num_edges

    def _threshold(self, heap: _TopKHeap) -> tuple[bool, float]:
        """Whether the step prunes, and the score it must reach (frozen per step)."""
        pruning = self.config.early_termination and (heap.is_full or self._floor > 0.0)
        return pruning, (max(self._floor, heap.kth_score) if pruning else 0.0)

    def _candidates(
        self,
        step: _Step,
        columns: IntervalColumns,
        assignment: Mapping[str, "Interval | FixedInterval"],
        estimates: Sequence[float],
        threshold: float,
    ):
        """Candidates for the step's vertex among its bucket ``columns``;
        ``None`` means the whole bucket.

        The residual score the driver edge must reach is boxed by its
        :class:`CompiledPredicateQuery` and the kernel's resolver turns the
        threshold box into candidate rows: a bisected start window over the
        bucket's start-sorted lists returning intervals (scalar), a boolean
        range filter over the bucket columns (vector) or a searchsorted window
        over the endpoint-sorted views (sweep) returning positions.  All three
        select exactly the same rows, in bucket order.
        """
        if not self.config.use_index or step.driver is None or threshold <= 0.0:
            return None
        driver_index, box_query, fixed_var = step.driver
        required = self.query.aggregation.residual_threshold(threshold, driver_index, estimates)
        if required <= 0.0:
            return None
        if required > 1.0:
            return _EMPTY_POSITIONS
        box = box_query.box(assignment[fixed_var], required)
        if box is None:
            return _EMPTY_POSITIONS
        return self._resolve(box, columns)

    # ------------------------------------------------------------ scalar kernel
    def _walk(
        self,
        depth: int,
        per_vertex: Mapping[str, IntervalColumns],
        assignment: dict[str, Interval],
        estimates: list[float],
        heap: _TopKHeap,
        stats: LocalJoinStats,
    ) -> None:
        """Bind the join-order vertex at ``depth`` to each candidate, one at a time.

        The last depth scores, combines and offers its candidates in its own
        loop; an inner depth recurses for every candidate whose optimistic
        estimate can still reach the threshold, which is frozen at entry.
        """
        step = self._steps[depth]
        pruning, threshold = self._threshold(heap)
        columns = per_vertex[step.vertex]
        candidates = self._candidates(step, columns, assignment, estimates, threshold)
        if candidates is None:
            candidates = columns.to_intervals()
        stats.candidates_examined += len(candidates)
        if not len(candidates):
            return

        vertex, last, attribute_edges = step.vertex, step.last, step.attribute_edges
        # Only the connecting-edge slots change between candidates, so the
        # step patches its own copy of the estimates in place; the other side
        # of every connecting edge is bound for the whole step.
        estimates = estimates.copy()
        edges = [
            (index, scorer, assignment[other], is_source)
            for index, scorer, other, is_source in step.edges
        ]
        combine = self.query.aggregation.combine
        if last:
            uids = [
                None if name == vertex else assignment[name].uid
                for name in self.query.vertices
            ]
            slot = self.query.vertices.index(vertex)
        for candidate in candidates:
            if attribute_edges:
                # Hybrid queries: attribute constraints are hard filters on the pair.
                assignment[vertex] = candidate
                if not all(edge.attributes_hold(assignment) for edge in attribute_edges):
                    continue
            for index, scorer, other, is_source in edges:
                estimates[index] = (
                    scorer(candidate, other) if is_source else scorer(other, candidate)
                )
            if not last:
                if pruning and combine(estimates) < threshold:
                    # The estimate cannot beat the current k-th score.
                    continue
                assignment[vertex] = candidate
                self._walk(depth + 1, per_vertex, assignment, estimates, heap, stats)
                continue
            # Every edge is resolved: the estimate *is* the tuple's score.
            score = combine(estimates)
            if pruning and score < threshold:
                continue
            stats.tuples_scored += 1
            uids[slot] = candidate.uid
            heap.offer(score, tuple(uids))

    # --------------------------------------------------------- columnar kernels
    def _extend_columnar(
        self,
        depth: int,
        per_vertex: Mapping[str, IntervalColumns],
        assignment: dict[str, FixedInterval],
        estimates: list[float],
        heap: _TopKHeap,
        stats: LocalJoinStats,
    ) -> None:
        """Bind the join-order vertex at ``depth``, scoring all candidates at once.

        Parity with the scalar :meth:`_walk` is exact by construction: the
        threshold is frozen at entry (as in the scalar loop), the candidate set
        comes from the same threshold box (:meth:`_candidates`), candidates are
        visited in the same bucket order, and the comparator/aggregation
        kernels produce bit-identical floats — so the same tuples pass the same
        pruning tests and the counters agree exactly.
        """
        step = self._steps[depth]
        vertex = step.vertex
        pruning, threshold = self._threshold(heap)
        columns = per_vertex[vertex]
        positions = self._candidates(step, columns, assignment, estimates, threshold)
        if positions is None:
            cand_uids, cand_starts, cand_ends = columns.uids, columns.starts, columns.ends
        else:
            if len(positions) == 0:
                return
            cand_uids = columns.uids[positions]
            cand_starts = columns.starts[positions]
            cand_ends = columns.ends[positions]
        count = len(cand_uids)
        if count == 0:
            return
        stats.candidates_examined += count

        # Hybrid queries: attribute constraints are hard filters on the pair.
        keep = self._attribute_mask(
            step.attribute_edges, assignment, vertex, columns, positions, count
        )

        # Resolved edges keep their scores and unresolved ones their upper
        # bounds, so ``parts`` is the optimistic estimate of every candidate.
        parts: list[object] = list(estimates)
        for index, _, other_vertex, is_source in step.edges:
            scorer = self._vector_scorers[index]
            other = assignment[other_vertex]
            if is_source:
                parts[index] = scorer(cand_starts, cand_ends, other.start, other.end)
            else:
                parts[index] = scorer(other.start, other.end, cand_starts, cand_ends)

        if step.last:
            # Every edge is resolved: the optimistic estimate *is* the score.
            scores = combine_scores_v(self.query.aggregation, parts, count)
            if pruning:
                if keep is None:
                    keep = scores >= threshold
                else:
                    keep &= scores >= threshold
            rows = np.flatnonzero(keep) if keep is not None else range(count)
            slot = self.query.vertices.index(vertex)
            prefix = [
                None if v == vertex else assignment[v].uid for v in self.query.vertices
            ]
            for row in rows:
                stats.tuples_scored += 1
                prefix[slot] = int(cand_uids[row])
                heap.offer(float(scores[row]), tuple(prefix))
            return

        if pruning:
            estimate = combine_scores_v(self.query.aggregation, parts, count)
            if keep is None:
                keep = estimate >= threshold
            else:
                keep &= estimate >= threshold
        rows = np.flatnonzero(keep) if keep is not None else range(count)
        for row in rows:
            original = int(positions[row]) if positions is not None else int(row)
            payload = columns.payloads[original] if columns.payloads is not None else None
            assignment[vertex] = FixedInterval(
                int(cand_uids[row]), float(cand_starts[row]), float(cand_ends[row]), payload
            )
            new_estimates = estimates.copy()
            for index, *_ in step.edges:
                new_estimates[index] = float(parts[index][row])
            self._extend_columnar(depth + 1, per_vertex, assignment, new_estimates, heap, stats)

    def _attribute_mask(
        self,
        attribute_edges: Sequence[QueryEdge],
        assignment: dict[str, FixedInterval],
        vertex: str,
        columns: IntervalColumns,
        positions: np.ndarray | None,
        count: int,
    ) -> np.ndarray | None:
        """Per-candidate attribute filter; ``None`` when no edge carries one."""
        if not attribute_edges:
            return None
        keep = np.ones(count, dtype=bool)
        for row in range(count):
            original = int(positions[row]) if positions is not None else row
            assignment[vertex] = columns.record(original)
            if not all(edge.attributes_hold(assignment) for edge in attribute_edges):
                keep[row] = False
        return keep


def _window_rows(box: Rect, columns: IntervalColumns) -> list[Interval]:
    """Scalar resolver: the bucket's rows in ``box``, in bucket order.

    Bisects the start window out of the batch's memoised start-sorted lists,
    keeps the rows whose end lies in the box and sorts their positions — the
    rows at ``flatnonzero(box_mask(...))``, as interval objects.  Pure Python
    per call: on buckets of a few dozen rows it beats any numpy round trip.
    """
    starts, order, ends = columns.by_start()
    low, high = bisect_left(starts, box.min_x), bisect_right(starts, box.max_x)
    min_y, max_y = box.min_y, box.max_y
    positions = [
        position
        for position, end in zip(order[low:high], ends[low:high])
        if min_y <= end <= max_y
    ]
    positions.sort()
    rows = columns.to_intervals()
    return [rows[position] for position in positions]


def _mask_positions(box: Rect, columns: IntervalColumns) -> np.ndarray:
    """Vector resolver: boolean range filter over the whole bucket column."""
    return np.flatnonzero(box_mask(box, columns.starts, columns.ends))


_EMPTY_POSITIONS = np.empty(0, dtype=np.int64)
