"""SQLite correctness oracle: the RTJ top-k join evaluated as one SQL query.

``sql-oracle`` loads every bound collection into an in-memory stdlib
``sqlite3`` database as a plain ``(uid, s, e)`` endpoint table and evaluates
the whole query as a single cross join with a computed score column::

    SELECT v0.uid, v1.uid, <aggregate of per-edge CASE cascades> AS score
    FROM c0 AS v0, c1 AS v1
    ORDER BY score DESC, v0.uid ASC, v1.uid ASC LIMIT k

Each comparison's ``CASE`` is printed from its
:class:`~repro.temporal.comparison_plan.ComparisonPlan` branch table
(:meth:`~repro.temporal.comparison_plan.ComparisonPlan.sql_case`), the table
the scalar and vector scorers are printed from, so the three cannot drift.
What stays independent is the *evaluation*: SQLite runs the printed
arithmetic, not the engine, and ``repro.temporal.comparators`` stays a
separate reference.  SQLite evaluates the IEEE doubles in the printed order,
so scores come out bit-identical, and the ``ORDER BY`` above matches the
engine's ``(-score, uids)`` result order exactly.

The oracle doubles as a perf baseline: it is what a row-store SQL engine pays
for the same join without TKIJ's bucket pruning — a full O(n^m) cross product
ordered by score.  Keep it on parity-sized workloads.

Hybrid queries raise :class:`NotImplementedError` from :meth:`plan`: attribute
constraints compare opaque Python payloads, which have no SQL column form.
"""

from __future__ import annotations

import sqlite3
import time
from typing import Any, Mapping, Sequence

from ..core.operators import collections_by_name
from ..query.graph import QueryEdge, ResultTuple, RTJQuery
from ..temporal.aggregation import (
    Aggregation,
    AverageScore,
    MinScore,
    SumScore,
    WeightedSum,
)
from ..temporal.comparison_plan import float_literal
from .algorithm import Algorithm, ExecutionPlan, RunReport
from .context import ExecutionContext
from .registry import register

__all__ = ["SQLOracleAlgorithm", "compile_query_sql"]


def _edge_sql(edge: QueryEdge, x_alias: str, y_alias: str) -> str:
    """One edge's predicate score: the minimum over its conjunct comparisons.

    Comparator scores never exceed 1.0 (the plan caps the slope), so the
    scalar scorer's ``best = 1.0`` seed is redundant under ``MIN`` and
    omitted.  SQLite's multi-argument ``MIN`` is the scalar minimum; a single
    conjunct must stay bare (one argument would select the *aggregate*
    ``MIN``).
    """
    operands = (f"{x_alias}.s", f"{x_alias}.e", f"{y_alias}.s", f"{y_alias}.e")
    parts = [plan.sql_case(operands) for plan in edge.predicate.comparison_plans()]
    if len(parts) == 1:
        return parts[0]
    return f"MIN({', '.join(parts)})"


def _aggregate_sql(aggregation: Aggregation, edge_exprs: Sequence[str]) -> str:
    """The tuple score: ``aggregation.combine`` as left-associative SQL.

    Python's ``sum`` folds left from ``0``; ``0.0 + s`` is bit-identical to
    ``s`` for the non-negative scores comparators produce, so the leading zero
    is omitted.  Aggregations without a closed SQL form are refused — the
    oracle must never approximate.
    """
    if isinstance(aggregation, AverageScore):
        if len(edge_exprs) != aggregation.num_edges:
            raise ValueError(
                f"expected {aggregation.num_edges} edge scores, got {len(edge_exprs)}"
            )
        return f"(({' + '.join(edge_exprs)}) / {float_literal(aggregation.num_edges)})"
    if isinstance(aggregation, SumScore):
        return f"({' + '.join(edge_exprs)})"
    if isinstance(aggregation, WeightedSum):
        if len(edge_exprs) != len(aggregation.weights):
            raise ValueError(
                f"expected {len(aggregation.weights)} edge scores, got {len(edge_exprs)}"
            )
        terms = [
            f"{float_literal(weight)}*{expr}"
            for weight, expr in zip(aggregation.weights, edge_exprs)
        ]
        return f"({' + '.join(terms)})"
    if isinstance(aggregation, MinScore):
        if len(edge_exprs) == 1:
            return edge_exprs[0]
        return f"MIN({', '.join(edge_exprs)})"
    raise NotImplementedError(
        f"sql-oracle has no SQL form for aggregation {type(aggregation).__name__}"
    )


def _table_names(query: RTJQuery) -> dict[str, str]:
    """Deterministic table name per distinct collection (names are arbitrary text)."""
    names: dict[str, str] = {}
    for vertex in query.vertices:
        name = query.collections[vertex].name
        if name not in names:
            names[name] = f"c{len(names)}"
    return names


def compile_query_sql(query: RTJQuery, tables: Mapping[str, str]) -> str:
    """The whole RTJ query as one SELECT (see the module docstring).

    ``tables`` maps collection names to their SQL table names (one table per
    distinct collection; two vertices over the same collection self-join
    through aliases).
    """
    aliases = {vertex: f"v{position}" for position, vertex in enumerate(query.vertices)}
    edge_exprs = [
        _edge_sql(edge, aliases[edge.source], aliases[edge.target])
        for edge in query.edges
    ]
    score = _aggregate_sql(query.aggregation, edge_exprs)
    select_uids = ", ".join(f"{aliases[vertex]}.uid" for vertex in query.vertices)
    from_clause = ", ".join(
        f"{tables[query.collections[vertex].name]} AS {aliases[vertex]}"
        for vertex in query.vertices
    )
    order = ", ".join(
        ["score DESC"] + [f"{aliases[vertex]}.uid ASC" for vertex in query.vertices]
    )
    return (
        f"SELECT {select_uids}, {score} AS score FROM {from_clause} "
        f"ORDER BY {order} LIMIT {int(query.k)}"
    )


class SQLOracleAlgorithm(Algorithm):
    """The join as SQL over endpoint tables: independent oracle, naive-SQL baseline."""

    name = "sql-oracle"
    title = "SQL oracle"
    scored = True

    def plan(self, query: RTJQuery, context: ExecutionContext, **knobs: Any) -> ExecutionPlan:
        if knobs:
            raise ValueError(f"sql-oracle accepts no knobs, got {sorted(knobs)}")
        if query.has_attribute_constraints:
            raise NotImplementedError(
                "sql-oracle does not support hybrid attribute constraints: "
                "payloads are opaque Python objects with no SQL column form"
            )
        # Fail fast on unsupported shapes (unknown aggregations):
        # generating the SQL exercises every refusal path without touching data.
        compile_query_sql(query, _table_names(query))
        return ExecutionPlan(self.name, query, context)

    def execute(self, plan: ExecutionPlan) -> RunReport:
        query = plan.query
        tables = _table_names(query)
        collections = collections_by_name(query)
        load_started = time.perf_counter()
        connection = sqlite3.connect(":memory:")
        try:
            for collection_name, table in tables.items():
                connection.execute(f"CREATE TABLE {table} (uid INTEGER, s REAL, e REAL)")
                connection.executemany(
                    f"INSERT INTO {table} VALUES (?, ?, ?)",
                    (
                        (interval.uid, interval.start, interval.end)
                        for interval in collections[collection_name]
                    ),
                )
            load_seconds = time.perf_counter() - load_started
            join_started = time.perf_counter()
            rows = connection.execute(compile_query_sql(query, tables)).fetchall()
            join_seconds = time.perf_counter() - join_started
        finally:
            connection.close()
        results = [
            ResultTuple(
                uids=tuple(int(uid) for uid in row[:-1]), score=float(row[-1])
            )
            for row in rows
        ]
        return RunReport(
            algorithm=self.name,
            title=self.title,
            results=results,
            phase_seconds={"load": load_seconds, "join": join_seconds},
        )


register(SQLOracleAlgorithm())
