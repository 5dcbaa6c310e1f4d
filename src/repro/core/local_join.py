"""Local top-k RTJ evaluation on one reducer (TKIJ phase d).

Each reducer receives a set of bucket combinations and the intervals of the buckets
they reference, and evaluates the full RTJ query restricted to those combinations.
Combinations are processed in descending order of score upper bound; once the
reducer's top-k heap is full and the next combination's upper bound cannot beat the
current k-th score, the remaining combinations are skipped (early termination).

Inside a combination the query is evaluated left-deep along the query graph's BFS
join order.  When extending a partial tuple with a new vertex, the residual score
the connecting edge must reach (for the final aggregate to still beat the current
k-th score) is derived from the monotone aggregation, and candidate intervals are
fetched from an R-tree with a score-threshold lookup, mirroring the paper's use of
R-trees ("for an interval x_i and a score value v, return the x_j with
s-p(x_i, x_j) >= v").
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, Sequence

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
from ..index import CompiledPredicateQuery, Rect, ThresholdIndex
from ..query.graph import QueryEdge, ResultTuple, RTJQuery
from ..temporal.interval import Interval
from .bounds import BucketCombination, CombinationTable
from .statistics import BucketKey

__all__ = ["KERNELS", "LocalJoinConfig", "LocalJoinStats", "LocalTopKJoin"]

VertexBucket = tuple[str, BucketKey]

KERNELS = ("scalar", "vector", "sweep")
"""Valid values of ``LocalJoinConfig.kernel``."""


@dataclass(frozen=True)
class LocalJoinConfig:
    """Tuning knobs of the local join (all are ablated in the benchmarks).

    ``kernel`` selects the execution substrate of the candidate loops:
    ``"scalar"`` scores one Python object at a time (per-candidate R-tree
    probes), ``"vector"`` scores whole candidate arrays with the numpy kernels
    of :mod:`repro.columnar` (one boxed range filter per extension step), and
    ``"sweep"`` scores the same candidate arrays but resolves each threshold
    box to a window over endpoint-sorted views with ``searchsorted`` instead
    of scanning the whole bucket (DESIGN.md §11).  All kernels enumerate the
    same tuples in the same order, so results are tie-aware identical and the
    work counters match exactly (DESIGN.md §8).
    """

    use_index: bool = True
    early_termination: bool = True
    index_leaf_capacity: int = 32
    kernel: str = "scalar"


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


class LocalTopKJoin:
    """Evaluates an RTJ query over a set of bucket combinations, returning the top-k."""

    def __init__(self, query: RTJQuery, config: LocalJoinConfig | None = None) -> None:
        self.query = query
        self.config = config or LocalJoinConfig()
        if self.config.kernel not in KERNELS:
            raise ValueError(
                f"unknown join kernel {self.config.kernel!r}; expected one of {KERNELS}"
            )
        self._floor = 0.0
        self._num_edges = len(query.edges)
        self._join_order = query.join_order()
        # Edges resolved when each join-order vertex is bound.
        self._edges_at: list[list[tuple[int, QueryEdge]]] = []
        bound: list[str] = []
        for vertex in self._join_order:
            connecting = [
                (index, edge)
                for index, edge in enumerate(query.edges)
                if (edge.source == vertex and edge.target in bound)
                or (edge.target == vertex and edge.source in bound)
            ]
            self._edges_at.append(connecting)
            bound.append(vertex)
        # Compiled per-edge scorers (hot path) and threshold-box queries (index path).
        self._scorers = {
            index: edge.predicate.compile() for index, edge in enumerate(query.edges)
        }
        self._threshold_queries: dict[tuple[int, str], CompiledPredicateQuery] = {}
        for index, edge in enumerate(query.edges):
            renamed = edge.predicate.rename(edge.source, edge.target)
            self._threshold_queries[(index, edge.source)] = CompiledPredicateQuery(
                renamed, fixed_var=edge.source, target_var=edge.target
            )
            self._threshold_queries[(index, edge.target)] = CompiledPredicateQuery(
                renamed, fixed_var=edge.target, target_var=edge.source
            )
        # Vectorized per-edge scorers (x = source, y = target, like _scorers),
        # shared by both columnar kernels.
        self._vector_scorers = (
            {index: compile_vector(edge.predicate) for index, edge in enumerate(query.edges)}
            if self.config.kernel != "scalar"
            else {}
        )
        # The kernels read the same per-bucket columns and differ in how a
        # threshold box becomes candidates and in the extension body scoring them.
        self._resolve, self._extend_kernel = {
            "scalar": (self._probe_index, self._extend),
            "vector": (_mask_positions, self._extend_columnar),
            "sweep": (sweep_positions, self._extend_columnar),
        }[self.config.kernel]
        # Scalar kernel: one R-tree per bucket batch of a run, keyed by the
        # batch's id() — run() keeps every batch alive in its bucket cache.
        self._indexes: dict[int, ThresholdIndex] = {}

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
        self._indexes = {}
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

        edge_ubs = self._edge_upper_bounds(combination)
        first_vertex = self._join_order[0]
        empty_scores: list[float | None] = [None] * self._num_edges
        first = per_vertex[first_vertex]
        # The scalar kernel scores Interval rows (in process the original
        # objects), the columnar kernels lightweight records of the columns.
        rows = (
            first.to_intervals()
            if self.config.kernel == "scalar"
            else map(first.record, range(len(first)))
        )
        for row in rows:
            self._extend_kernel(
                per_vertex, {first_vertex: row}, empty_scores, 1, edge_ubs, heap, stats
            )

    def _edge_upper_bounds(self, combination: BucketCombination) -> list[float]:
        if combination.edge_bounds and len(combination.edge_bounds) == self._num_edges:
            return [bounds[1] for bounds in combination.edge_bounds]
        return [1.0] * self._num_edges

    def _candidates(
        self,
        columns: IntervalColumns,
        assignment: Mapping[str, "Interval | FixedInterval"],
        edge_scores: Sequence[float | None],
        vertex: str,
        connecting: Sequence[tuple[int, QueryEdge]],
        edge_ubs: Sequence[float],
        threshold: float,
    ):
        """Candidates for the next join-order vertex among its bucket ``columns``;
        ``None`` means the whole bucket.

        The residual score the driver edge must reach is boxed by its
        :class:`CompiledPredicateQuery` and the kernel's resolver turns the box
        into candidates: an R-tree probe returning intervals (scalar), a
        boolean range filter over the bucket columns (vector) or a window over
        its endpoint-sorted views (sweep) returning positions.  All three
        select exactly the same intervals, in bucket order.
        """
        if not self.config.use_index or not connecting or threshold <= 0.0:
            return None

        driver_index, driver_edge = connecting[0]
        fixed_var = driver_edge.source if driver_edge.target == vertex else driver_edge.target
        # Residual score the driver edge must reach: actual scores for resolved
        # edges, upper bounds for every other unresolved edge.
        known = {
            index: score for index, score in enumerate(edge_scores) if score is not None
        }
        required = self.query.aggregation.residual_threshold(
            threshold, driver_index, known, edge_ubs
        )
        if required <= 0.0:
            return None
        if required > 1.0:
            return _EMPTY_POSITIONS
        box = self._threshold_queries[(driver_index, fixed_var)].box(
            assignment[fixed_var], required
        )
        if box is None:
            return _EMPTY_POSITIONS
        return self._resolve(box, columns)

    # ------------------------------------------------------------ scalar kernel
    def _probe_index(self, box: Rect, columns: IntervalColumns) -> list[Interval]:
        """Scalar resolver: probe the bucket's R-tree (built on first use in a run)."""
        index = self._indexes.get(id(columns))
        if index is None:
            index = self._indexes[id(columns)] = ThresholdIndex.build(
                columns.to_intervals(), leaf_capacity=self.config.index_leaf_capacity
            )
        return index.in_box(box)

    def _extend(
        self,
        per_vertex: Mapping[str, IntervalColumns],
        assignment: dict[str, Interval],
        edge_scores: list[float | None],
        depth: int,
        edge_ubs: Sequence[float],
        heap: _TopKHeap,
        stats: LocalJoinStats,
    ) -> None:
        if depth == len(self._join_order):
            score = self.query.aggregation.combine(edge_scores)
            stats.tuples_scored += 1
            uids = tuple(assignment[vertex].uid for vertex in self.query.vertices)
            heap.offer(score, uids)
            return

        vertex = self._join_order[depth]
        connecting = self._edges_at[depth]
        pruning = self.config.early_termination and (heap.is_full or self._floor > 0.0)
        threshold = max(self._floor, heap.kth_score) if pruning else 0.0
        columns = per_vertex[vertex]
        candidates = self._candidates(
            columns, assignment, edge_scores, vertex, connecting, edge_ubs, threshold
        )
        if candidates is None:
            candidates = columns.to_intervals()

        aggregation = self.query.aggregation
        scorers = self._scorers
        # Only the connecting-edge slots change between candidates, so the
        # score vector and the optimistic estimate (actual scores for resolved
        # edges, upper bounds for the rest) are built once per extension step
        # and patched in place per candidate.  Callees copy ``new_scores`` on
        # their own first mutation, so the in-place reuse never aliases a
        # deeper frame.
        new_scores = edge_scores.copy()
        estimate_vector = [
            edge_scores[index] if edge_scores[index] is not None else edge_ubs[index]
            for index in range(self._num_edges)
        ]
        for candidate in candidates:
            stats.candidates_examined += 1
            assignment[vertex] = candidate
            # Hybrid queries: attribute constraints are hard filters on the pair.
            if any(
                edge.attributes and not edge.attributes_hold(assignment)
                for _, edge in connecting
            ):
                del assignment[vertex]
                continue
            for edge_index, edge in connecting:
                score = scorers[edge_index](
                    assignment[edge.source], assignment[edge.target]
                )
                new_scores[edge_index] = score
                estimate_vector[edge_index] = score
            if pruning and aggregation.combine(estimate_vector) < threshold:
                # The estimate cannot beat the current k-th score.
                del assignment[vertex]
                continue
            self._extend(
                per_vertex, assignment, new_scores, depth + 1, edge_ubs, heap, stats
            )
            del assignment[vertex]

    # --------------------------------------------------------- columnar kernels
    def _extend_columnar(
        self,
        per_vertex: Mapping[str, IntervalColumns],
        assignment: dict[str, FixedInterval],
        edge_scores: list[float | None],
        depth: int,
        edge_ubs: Sequence[float],
        heap: _TopKHeap,
        stats: LocalJoinStats,
    ) -> None:
        """Bind the join-order vertex at ``depth``, scoring all candidates at once.

        Parity with the scalar :meth:`_extend` is exact by construction: the
        threshold is frozen at entry (as in the scalar loop), the candidate set
        comes from the same threshold box (:meth:`_candidates`), candidates are
        visited in the same bucket order, and the comparator/aggregation
        kernels produce bit-identical floats — so the same tuples pass the same
        pruning tests and the counters agree exactly.
        """
        vertex = self._join_order[depth]
        connecting = self._edges_at[depth]
        pruning = self.config.early_termination and (heap.is_full or self._floor > 0.0)
        threshold = max(self._floor, heap.kth_score) if pruning else 0.0
        columns = per_vertex[vertex]
        positions = self._candidates(
            columns, assignment, edge_scores, vertex, connecting, edge_ubs, threshold
        )
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
            connecting, assignment, vertex, columns, positions, count
        )

        parts: list[object] = list(edge_scores)
        for edge_index, edge in connecting:
            scorer = self._vector_scorers[edge_index]
            if edge.source == vertex:
                other = assignment[edge.target]
                parts[edge_index] = scorer(cand_starts, cand_ends, other.start, other.end)
            else:
                other = assignment[edge.source]
                parts[edge_index] = scorer(other.start, other.end, cand_starts, cand_ends)

        final = depth + 1 == len(self._join_order)
        if final:
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
            estimate_parts = [
                parts[index] if parts[index] is not None else edge_ubs[index]
                for index in range(self._num_edges)
            ]
            estimate = combine_scores_v(self.query.aggregation, estimate_parts, count)
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
            new_scores = edge_scores.copy()
            for edge_index, _ in connecting:
                new_scores[edge_index] = float(parts[edge_index][row])
            self._extend_columnar(
                per_vertex, assignment, new_scores, depth + 1, edge_ubs, heap, stats
            )
            del assignment[vertex]

    def _attribute_mask(
        self,
        connecting: Sequence[tuple[int, QueryEdge]],
        assignment: dict[str, FixedInterval],
        vertex: str,
        columns: IntervalColumns,
        positions: np.ndarray | None,
        count: int,
    ) -> np.ndarray | None:
        """Per-candidate attribute filter; ``None`` when no edge carries one."""
        attr_edges = [(i, e) for i, e in connecting if e.attributes]
        if not attr_edges:
            return None
        keep = np.ones(count, dtype=bool)
        for row in range(count):
            original = int(positions[row]) if positions is not None else row
            assignment[vertex] = columns.record(original)
            if any(not edge.attributes_hold(assignment) for _, edge in attr_edges):
                keep[row] = False
        del assignment[vertex]
        return keep


def _mask_positions(box: Rect, columns: IntervalColumns) -> np.ndarray:
    """Vector resolver: boolean range filter over the whole bucket column."""
    return np.flatnonzero(box_mask(box, columns.starts, columns.ends))


_EMPTY_POSITIONS = np.empty(0, dtype=np.int64)
