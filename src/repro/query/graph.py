"""RTJ query graphs.

A Ranked Temporal Join query is a weakly connected, oriented, simple graph whose
vertices are bound to interval collections and whose edges carry scored temporal
predicates (Section 2 of the paper).  The query also fixes the monotone aggregation
function ``S`` and the number ``k`` of results to return.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

from ..temporal.aggregation import Aggregation, AverageScore
from ..temporal.attributes import AttributeConstraint
from ..temporal.interval import Interval, IntervalCollection
from ..temporal.predicates import ScoredPredicate

__all__ = ["QueryEdge", "RTJQuery", "ResultTuple"]


@dataclass(frozen=True)
class QueryEdge:
    """A directed query edge ``(source, target)`` labelled with a scored predicate.

    The predicate is stored over its canonical variables ``x``/``y``; ``x`` binds to
    the source vertex and ``y`` to the target vertex.  ``attributes`` holds optional
    Boolean constraints over the two intervals' payloads (hybrid queries, the
    paper's future-work extension): they act as filters and do not contribute to
    the score.
    """

    source: str
    target: str
    predicate: ScoredPredicate
    attributes: tuple[AttributeConstraint, ...] = ()

    def score(self, assignment: Mapping[str, Interval]) -> float:
        """Scored evaluation on a variable assignment covering source and target."""
        return self.predicate.score(assignment[self.source], assignment[self.target])

    def holds(self, assignment: Mapping[str, Interval]) -> bool:
        """Boolean evaluation (temporal predicate and attribute constraints)."""
        return self.predicate.holds(
            assignment[self.source], assignment[self.target]
        ) and self.attributes_hold(assignment)

    def attributes_hold(self, assignment: Mapping[str, Interval]) -> bool:
        """True when every attribute constraint of the edge is satisfied."""
        if not self.attributes:
            return True
        source = assignment[self.source]
        target = assignment[self.target]
        return all(constraint.matches(source, target) for constraint in self.attributes)

    def key(self) -> tuple[str, str]:
        """The ``(source, target)`` pair identifying this edge."""
        return (self.source, self.target)


@dataclass(frozen=True, slots=True)
class ResultTuple:
    """One result of an RTJ query: interval uids per vertex plus the aggregate score."""

    uids: tuple[int, ...]
    score: float

    def sort_key(self) -> tuple[float, tuple[int, ...]]:
        """Deterministic ordering: descending score, then ascending uids."""
        return (-self.score, self.uids)


@dataclass
class RTJQuery:
    """An n-ary Ranked Temporal Join query.

    Parameters
    ----------
    vertices:
        Vertex names in a fixed order; result tuples list interval ids in this
        order.
    collections:
        Mapping from vertex name to its :class:`IntervalCollection`.
    edges:
        Query edges with their scored predicates.
    k:
        Number of results to return.
    aggregation:
        Monotone aggregation of the per-edge scores; defaults to the normalised
        sum used in the paper's experiments.
    """

    vertices: tuple[str, ...]
    collections: dict[str, IntervalCollection]
    edges: tuple[QueryEdge, ...]
    k: int = 100
    aggregation: Aggregation | None = None
    name: str = ""
    _edge_index: dict[tuple[str, str], int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.validate()
        if self.aggregation is None:
            self.aggregation = AverageScore(num_edges=len(self.edges))
        self._edge_index = {edge.key(): i for i, edge in enumerate(self.edges)}

    # -------------------------------------------------------------- validation
    def validate(self) -> None:
        """Check the structural constraints of Section 2.

        The query graph must have an edge (a tuple's score aggregates edge
        scores), be simple (no self loops, no anti-parallel duplicate edges),
        oriented and weakly connected, and every vertex must be bound to a
        collection.  ``k`` must be positive.
        """
        if self.k <= 0:
            raise ValueError("k must be positive")
        if not self.vertices:
            raise ValueError("query has no vertices")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        missing = [v for v in self.vertices if v not in self.collections]
        if missing:
            raise ValueError(f"vertices without a collection: {missing}")
        if not self.edges:
            raise ValueError("a query needs at least one edge: every score is an edge score")
        seen: set[tuple[str, str]] = set()
        for edge in self.edges:
            if edge.source == edge.target:
                raise ValueError(f"self loop on vertex {edge.source!r}")
            if edge.source not in self.collections or edge.target not in self.collections:
                raise ValueError(f"edge {edge.key()} references an unknown vertex")
            if edge.key() in seen:
                raise ValueError(f"duplicate edge {edge.key()}")
            if (edge.target, edge.source) in seen:
                raise ValueError(
                    f"anti-parallel edges between {edge.source!r} and {edge.target!r}"
                )
            seen.add(edge.key())
        if not self._is_weakly_connected():
            raise ValueError("query graph must be weakly connected")

    def _is_weakly_connected(self) -> bool:
        adjacency: dict[str, set[str]] = {v: set() for v in self.vertices}
        for edge in self.edges:
            adjacency[edge.source].add(edge.target)
            adjacency[edge.target].add(edge.source)
        stack = [self.vertices[0]]
        seen = {self.vertices[0]}
        while stack:
            vertex = stack.pop()
            for neighbour in adjacency[vertex]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        return len(seen) == len(self.vertices)

    # ----------------------------------------------------------------- queries
    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def collection_of(self, vertex: str) -> IntervalCollection:
        """Collection bound to ``vertex``."""
        return self.collections[vertex]

    def edge_position(self, edge: QueryEdge) -> int:
        """Index of ``edge`` in edge order (used by weighted aggregations)."""
        return self._edge_index[edge.key()]

    def edges_between(self, bound: Iterable[str], new_vertex: str) -> list[QueryEdge]:
        """Edges connecting ``new_vertex`` to any vertex already in ``bound``."""
        bound_set = set(bound)
        result = []
        for edge in self.edges:
            if edge.source == new_vertex and edge.target in bound_set:
                result.append(edge)
            elif edge.target == new_vertex and edge.source in bound_set:
                result.append(edge)
        return result

    # ------------------------------------------------------------------ scoring
    def score_assignment(self, assignment: Mapping[str, Interval]) -> float:
        """Aggregate score of a full assignment of intervals to vertices."""
        scores = [edge.score(assignment) for edge in self.edges]
        return self.aggregation.combine(scores)

    def score_tuple(self, uids: Sequence[int]) -> float:
        """Aggregate score of a result tuple given by interval ids (vertex order)."""
        assignment = {
            vertex: self.collections[vertex].get(uid)
            for vertex, uid in zip(self.vertices, uids)
        }
        return self.score_assignment(assignment)

    def boolean_holds(self, assignment: Mapping[str, Interval]) -> bool:
        """True when every edge predicate holds in the Boolean interpretation."""
        return all(edge.holds(assignment) for edge in self.edges)

    def admits(self, assignment: Mapping[str, Interval]) -> bool:
        """True when the assignment satisfies every attribute constraint (hybrid queries)."""
        return all(edge.attributes_hold(assignment) for edge in self.edges)

    @property
    def has_attribute_constraints(self) -> bool:
        """True when any edge carries attribute constraints."""
        return any(edge.attributes for edge in self.edges)

    # ------------------------------------------------------------------ helpers
    def with_k(self, k: int) -> "RTJQuery":
        """Copy of the query with a different ``k``."""
        return replace(self, k=k)

    def with_collections(self, collections: Mapping[str, IntervalCollection]) -> "RTJQuery":
        """Copy of the query bound to different collections (same vertex names)."""
        return replace(self, collections=dict(collections))

    def without_data(self) -> "RTJQuery":
        """Copy bound to empty collections of the same names.

        Keeps vertices, edges, ``k``, aggregation and name — everything a
        reducer reads — so a task shipping the query pickles no interval.
        """
        return self.with_collections(
            {vertex: IntervalCollection(c.name) for vertex, c in self.collections.items()}
        )

    def join_order(self) -> list[str]:
        """A join order: BFS over the undirected query graph from the first vertex.

        Every vertex after the first is connected to at least one previously
        visited vertex, so a left-deep evaluation can always use an index lookup on
        a connecting edge.
        """
        adjacency: dict[str, set[str]] = {v: set() for v in self.vertices}
        for edge in self.edges:
            adjacency[edge.source].add(edge.target)
            adjacency[edge.target].add(edge.source)
        order = [self.vertices[0]]
        seen = {self.vertices[0]}
        frontier = [self.vertices[0]]
        while frontier:
            next_frontier = []
            for vertex in frontier:
                for neighbour in sorted(adjacency[vertex]):
                    if neighbour not in seen:
                        seen.add(neighbour)
                        order.append(neighbour)
                        next_frontier.append(neighbour)
            frontier = next_frontier
        return order

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        edges = ", ".join(f"{e.source}-{e.predicate.name}->{e.target}" for e in self.edges)
        return f"RTJQuery({self.name or 'unnamed'}: {edges}, k={self.k})"
