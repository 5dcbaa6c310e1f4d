"""Bucket combinations and their score bounds (TKIJ phase b, part 1).

A *bucket combination* ``ω = (b_1, ..., b_n)`` picks one bucket per query vertex.
Its cardinality ``ω.nbRes`` is the product of the bucket cardinalities and its
score bounds ``ω.LB``/``ω.UB`` bracket the aggregate score of every result tuple
that can be formed from it (Definition 1).  This module enumerates the
combinations of a query as one columnar :class:`CombinationTable` and computes
their bounds, either per edge (exact per pair of buckets, aggregated through the
monotone function — the *loose* bounds, vectorised over all pairs at once) or
jointly over all vertices with the branch-and-bound solver (the *tight* bounds
of brute-force / two-phase).  The table is what travels through selection,
assignment and the shuffle; a :class:`BucketCombination` object exists only for
a row somebody actually looks at.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from ..columnar import combine_scores_v, score_range_v
from ..query.graph import RTJQuery
from ..solver import AggregateObjective, BranchAndBoundSolver, DomainSet, EdgeObjective
from ..solver.domain import VariableBox
from .statistics import BucketKey, DatasetStatistics

__all__ = [
    "BucketCombination",
    "CombinationTable",
    "CombinationSpace",
    "BoundsEstimator",
]

_INT64_SAFE = 2**62
"""Result counts are kept in ``int64`` columns while every sum of them stays
below this; beyond it the column holds Python ints (``object`` dtype)."""


@dataclass(frozen=True)
class BucketCombination:
    """One bucket per query vertex, with cardinality and score bounds."""

    vertices: tuple[str, ...]
    buckets: tuple[BucketKey, ...]
    nb_res: int
    lower_bound: float = 0.0
    upper_bound: float = 1.0
    edge_bounds: tuple[tuple[float, float], ...] = ()

    def bucket_of(self, vertex: str) -> BucketKey:
        """Bucket assigned to ``vertex`` in this combination."""
        return self.buckets[self.vertices.index(vertex)]

    def bucket_items(self) -> list[tuple[str, BucketKey]]:
        """``(vertex, bucket)`` pairs of the combination."""
        return list(zip(self.vertices, self.buckets))

    def with_bounds(
        self,
        lower_bound: float,
        upper_bound: float,
        edge_bounds: Sequence[tuple[float, float]] | None = None,
    ) -> "BucketCombination":
        """Copy with (re)computed bounds."""
        return replace(
            self,
            lower_bound=lower_bound,
            upper_bound=upper_bound,
            edge_bounds=tuple(edge_bounds) if edge_bounds is not None else self.edge_bounds,
        )

    def key(self) -> tuple[tuple[str, BucketKey], ...]:
        """Hashable identity of the combination (vertex/bucket pairs)."""
        return tuple(zip(self.vertices, self.buckets))


@dataclass(eq=False)
class CombinationTable(Sequence):
    """Bucket combinations as columns: one row per combination.

    ``positions[row, v]`` is the position of the row's bucket in ``keys[v]`` (the
    sorted bucket keys of vertex ``v``); ``edge_bounds[row, e]`` is the
    ``(lower, upper)`` score range of query edge ``e``.  ``rank`` orders rows
    by :meth:`BucketCombination.key` — the tie-break of every score-ordered
    walk over combinations — and survives :meth:`take`.  An enumerated table
    lists rows in ``itertools.product`` order over the sorted keys, which *is*
    key order, so there the rank is the row number.

    The table is a ``Sequence[BucketCombination]``: ``len``, indexing and
    iteration work, and rows are materialised one at a time on access.
    """

    vertices: tuple[str, ...]
    keys: tuple[list[BucketKey], ...]
    positions: np.ndarray
    nb_res: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    edge_bounds: np.ndarray
    rank: np.ndarray

    @classmethod
    def of(cls, combinations: Sequence[BucketCombination]) -> "CombinationTable":
        """``combinations`` itself when it already is a table, else its columnar copy.

        The copy keeps the caller's row order; vertices are taken from the
        first combination (all combinations of one query share them).
        """
        if isinstance(combinations, cls):
            return combinations
        combos = list(combinations)
        vertices = combos[0].vertices if combos else ()
        keys = tuple(sorted({c.buckets[v] for c in combos}) for v in range(len(vertices)))
        positions = np.empty((len(combos), len(vertices)), dtype=np.int32)
        for v, vertex_keys in enumerate(keys):
            position_of = {key: at for at, key in enumerate(vertex_keys)}
            positions[:, v] = [position_of[c.buckets[v]] for c in combos]
        sizes = [c.nb_res for c in combos]
        by_key = sorted(range(len(combos)), key=lambda row: combos[row].buckets)
        rank = np.empty(len(combos), dtype=np.int64)
        rank[np.array(by_key, dtype=np.intp)] = np.arange(len(combos))
        num_edges = len(combos[0].edge_bounds) if combos else 0
        return cls(
            vertices,
            keys,
            positions,
            np.array(sizes, dtype=np.int64 if sum(sizes) < _INT64_SAFE else object),
            np.array([c.lower_bound for c in combos], dtype=float),
            np.array([c.upper_bound for c in combos], dtype=float),
            np.array([c.edge_bounds for c in combos], dtype=float).reshape(
                len(combos), num_edges, 2
            ),
            rank,
        )

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, row: int) -> BucketCombination:
        return BucketCombination(
            self.vertices,
            tuple(keys[at] for keys, at in zip(self.keys, self.positions[row].tolist())),
            int(self.nb_res[row]),
            float(self.lower[row]),
            float(self.upper[row]),
            tuple(map(tuple, self.edge_bounds[row].tolist())),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def take(self, rows) -> "CombinationTable":
        """The sub-table of ``rows`` (an integer array or list), in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        return replace(
            self,
            positions=self.positions[rows],
            nb_res=self.nb_res[rows],
            lower=self.lower[rows],
            upper=self.upper[rows],
            edge_bounds=self.edge_bounds[rows],
            rank=self.rank[rows],
        )

    def descending(self, column: np.ndarray) -> np.ndarray:
        """Rows by descending ``column``, ties in ascending key order.

        Equals ``sorted(rows, key=lambda c: (-c.<column>, c.key()))`` without
        building a tuple key per row.
        """
        return np.lexsort((self.rank, -column))

    def total_results(self) -> int:
        """Sum of ``nb_res`` over all rows, as a Python int."""
        return int(self.nb_res.sum())

    def bucket_items(self) -> set[tuple[str, BucketKey]]:
        """Every ``(vertex, bucket)`` pair some row references."""
        return {
            (vertex, keys[at])
            for v, (vertex, keys) in enumerate(zip(self.vertices, self.keys))
            for at in np.unique(self.positions[:, v]).tolist()
        }


class CombinationSpace:
    """The bucket-combination search space ``Ω`` of a query.

    Only non-empty buckets participate: a combination with an empty bucket cannot
    produce results.  The per-vertex bucket lists, counts and boxes are cached so
    that the bounds code and the solver can reuse them.
    """

    def __init__(self, query: RTJQuery, statistics: DatasetStatistics) -> None:
        self.query = query
        self.statistics = statistics
        self._buckets_per_vertex: dict[str, list[BucketKey]] = {}
        self._counts: dict[tuple[str, BucketKey], int] = {}
        self._boxes: dict[tuple[str, BucketKey], VariableBox] = {}
        for vertex in query.vertices:
            collection_name = query.collections[vertex].name
            matrix = statistics.matrix(collection_name)
            keys = matrix.nonempty_buckets()
            self._buckets_per_vertex[vertex] = keys
            for key in keys:
                self._counts[(vertex, key)] = matrix.count(key)
                self._boxes[(vertex, key)] = matrix.bucket_box(key)

    # ------------------------------------------------------------------ access
    def buckets_of(self, vertex: str) -> list[BucketKey]:
        """Non-empty buckets available for ``vertex``, in sorted order."""
        return self._buckets_per_vertex[vertex]

    def count(self, vertex: str, bucket: BucketKey) -> int:
        """Cardinality of ``bucket`` for ``vertex``'s collection."""
        return self._counts[(vertex, bucket)]

    def box(self, vertex: str, bucket: BucketKey) -> VariableBox:
        """Endpoint box of ``bucket`` for ``vertex``'s collection."""
        return self._boxes[(vertex, bucket)]

    def size(self) -> int:
        """|Ω|: the number of combinations of the space."""
        return math.prod(len(self._buckets_per_vertex[v]) for v in self.query.vertices)

    def pair_count(self) -> int:
        """Bucket pairs the loose strategy bounds (Algorithm 2, lines 1-3)."""
        return sum(
            len(self._buckets_per_vertex[edge.source]) * len(self._buckets_per_vertex[edge.target])
            for edge in self.query.edges
        )

    def domain_set(self, combination: BucketCombination) -> DomainSet:
        """Solver domains of a combination (one box per query vertex)."""
        boxes = {
            vertex: self._boxes[(vertex, bucket)]
            for vertex, bucket in combination.bucket_items()
        }
        return DomainSet.from_mapping(boxes)


@dataclass
class BoundsEstimator:
    """Computes loose (pairwise) and tight (joint) bounds of bucket combinations."""

    query: RTJQuery
    space: CombinationSpace
    solver: BranchAndBoundSolver = field(default_factory=BranchAndBoundSolver)

    def __post_init__(self) -> None:
        self._objective = AggregateObjective(
            edges=tuple(
                EdgeObjective.from_edge(edge.source, edge.target, edge.predicate)
                for edge in self.query.edges
            ),
            aggregation=self.query.aggregation,
        )

    # ------------------------------------------------------------------ bounds
    def pair_bounds(self, edge_index: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact ``(LB, UB)`` of one edge's score over every pair of buckets.

        Both arrays have shape ``(|B_source|, |B_target|)``, indexed by bucket
        position.  For a single edge the comparator ranges over a pair of boxes
        are exact per conjunct, so no branching is needed; all pairs are bounded
        in one broadcast, element for element what ``EdgeObjective.score_range``
        returns for that pair of boxes.
        """
        edge = self._objective.edges[edge_index]
        return score_range_v(
            edge.predicate,
            {
                edge.source: self.box_columns(edge.source)[:, :, None],
                edge.target: self.box_columns(edge.target)[:, None, :],
            },
        )

    def box_columns(self, vertex: str) -> np.ndarray:
        """``(4, |B|)`` start-low/start-high/end-low/end-high columns of a vertex's boxes."""
        boxes = [self.space.box(vertex, key) for key in self.space.buckets_of(vertex)]
        return np.array(
            [(b.start_low, b.start_high, b.end_low, b.end_high) for b in boxes], dtype=float
        ).reshape(len(boxes), 4).T

    def loose_table(self) -> CombinationTable:
        """Every combination of the space, with bounds from per-edge pairwise
        bounds aggregated through S (the loose strategy)."""
        query, space = self.query, self.space
        vertices = query.vertices
        keys = tuple(space.buckets_of(vertex) for vertex in vertices)
        counts = [
            [space.count(vertex, key) for key in vertex_keys]
            for vertex, vertex_keys in zip(vertices, keys)
        ]
        positions = np.ascontiguousarray(
            np.indices([len(k) for k in keys], dtype=np.int32).reshape(len(vertices), -1).T
        )
        size = len(positions)
        # Every partial sum of nb_res is bounded by the full cross product.
        small = math.prod(sum(column) for column in counts) < _INT64_SAFE
        nb_res = np.ones(size, dtype=np.int64 if small else object)
        for v, column in enumerate(counts):
            nb_res = nb_res * np.array(column, dtype=nb_res.dtype)[positions[:, v]]
        slot = {vertex: v for v, vertex in enumerate(vertices)}
        edge_bounds = np.empty((size, len(query.edges), 2))
        for e, edge in enumerate(query.edges):
            pair = positions[:, slot[edge.source]], positions[:, slot[edge.target]]
            lows, highs = self.pair_bounds(e)
            edge_bounds[:, e, 0] = lows[pair]
            edge_bounds[:, e, 1] = highs[pair]
        lower, upper = (
            np.array(combine_scores_v(query.aggregation, list(edge_bounds[:, :, side].T), size))
            for side in (0, 1)
        )
        return CombinationTable(
            vertices, keys, positions, nb_res, lower, upper, edge_bounds, np.arange(size)
        )

    def tight_bounds(self, combination: BucketCombination) -> BucketCombination:
        """Joint bounds over all vertices via branch-and-bound (brute-force strategy).

        ``combination`` carries its loose bounds (a row of :meth:`loose_table`);
        its per-edge bounds are kept so that the local join can derive residual
        thresholds per edge.
        """
        lower, upper = self.solver.bounds(self._objective, self.space.domain_set(combination))
        # Joint bounds can only be tighter than (or equal to) the aggregated
        # pairwise bounds; guard against solver budget artefacts.
        lower = max(lower, combination.lower_bound)
        upper = min(upper, combination.upper_bound)
        if lower > upper:
            return combination
        return combination.with_bounds(lower, upper)

    def tighten(self, table: CombinationTable) -> CombinationTable:
        """``table`` with every row's bounds replaced by its :meth:`tight_bounds`."""
        rows = [self.tight_bounds(row) for row in table]
        return replace(
            table,
            lower=np.array([row.lower_bound for row in rows], dtype=float),
            upper=np.array([row.upper_bound for row in rows], dtype=float),
        )

    @property
    def objective(self) -> AggregateObjective:
        """The aggregate objective (shared with the distribution/join phases)."""
        return self._objective
