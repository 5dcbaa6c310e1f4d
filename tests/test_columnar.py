"""Columnar substrate: elementwise kernel parity and record-batch behaviour.

The vector kernels must be *bit-identical* to their scalar twins — the local
join compares scores against pruning thresholds, so any rounding drift would
change which tuples are enumerated.  The hypothesis suites below therefore
assert exact float equality (no tolerance) over random ``(lambda, rho)`` grids,
including the Boolean corner ``lambda = rho = 0`` and differences one ulp
either side of the comparators' breakpoints.
"""

from __future__ import annotations

import math
import pickle
import sqlite3

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.columnar import IntervalColumns, combine_scores_v, compile_vector
from repro.plan.sql_oracle import compile_query_sql
from repro.query import QueryEdge, RTJQuery
from repro.temporal import (
    Comparison,
    ComparatorParams,
    Interval,
    IntervalCollection,
    PredicateParams,
    ScoredPredicate,
    constant,
    equals_score,
    greater_score,
    start_of,
)
from repro.temporal.aggregation import AverageScore, MinScore, SumScore, WeightedSum
from repro.temporal.predicates import ALLEN_PREDICATES, predicate_by_name

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Includes the Boolean corner lam = rho = 0 explicitly (via min_value=0 plus a
# dedicated test) and degenerate rho-only / lam-only configurations.
params_strategy = st.one_of(
    st.just(ComparatorParams(0.0, 0.0)),
    st.builds(
        ComparatorParams,
        lam=st.floats(0, 25, allow_nan=False),
        rho=st.floats(0, 50, allow_nan=False),
    ),
)

differences_strategy = st.lists(
    st.floats(-300, 300, allow_nan=False, allow_infinity=False), min_size=1, max_size=40
)


def comparator_v(kind: str, params: ComparatorParams):
    """The vector scorer of the one-conjunct predicate ``start(x) <kind> 0``:
    the printed comparator over an array of differences ``d = x.start``."""
    predicate = ScoredPredicate(
        kind, (Comparison(kind, start_of("x"), constant(0.0)),), PredicateParams(params, params)
    )
    scorer = compile_vector(predicate)
    return lambda d: scorer(d, 0.0, 0.0, 0.0)


class TestComparatorKernels:
    @_SETTINGS
    @given(params=params_strategy, differences=differences_strategy)
    def test_equals_kernel_matches_scalar_elementwise(self, params, differences):
        batch = comparator_v("equals", params)(np.array(differences))
        expected = [equals_score(d, 0.0, params) for d in differences]
        assert list(batch) == expected

    @_SETTINGS
    @given(params=params_strategy, differences=differences_strategy)
    def test_greater_kernel_matches_scalar_elementwise(self, params, differences):
        batch = comparator_v("greater", params)(np.array(differences))
        expected = [greater_score(d, 0.0, params) for d in differences]
        assert list(batch) == expected

    def test_boolean_corner_is_a_step(self):
        boolean = ComparatorParams(0.0, 0.0)
        d = np.array([-1.0, -1e-12, 0.0, 1e-12, 1.0])
        assert list(comparator_v("equals", boolean)(d)) == [0.0, 0.0, 1.0, 0.0, 0.0]
        assert list(comparator_v("greater", boolean)(d)) == [0.0, 0.0, 0.0, 1.0, 1.0]


interval_strategy = st.builds(
    lambda uid, start, length: Interval(uid, start, start + length),
    uid=st.integers(0, 10_000),
    start=st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False),
    length=st.floats(0, 500, allow_nan=False, allow_infinity=False),
)


PREDICATE_NAMES = sorted(ALLEN_PREDICATES) + ["justBefore", "shiftMeets", "sparks"]

# Fractional, zero and boundary tolerances: a subnormal, a tiny normal, and the
# integers of the paper's parameter sets.
tolerance_strategy = st.one_of(
    st.just(0.0),
    st.sampled_from([5e-324, 1e-300, 1.0, 4.0, 10.0, 16.0]),
    st.floats(0, 20, allow_nan=False, allow_infinity=False),
)


@st.composite
def boundary_case(draw):
    """A predicate and intervals whose endpoint differences sit on its breakpoints.

    Each row is anchored (by its start or its end) at ``0``, at a ``lam`` or a
    ``lam + rho`` (or the average length ``justBefore``/``shiftMeets`` use),
    one ulp either side of one, at a negation of any of these, or anywhere;
    against a fixed interval with an endpoint at 0 the anchor *is* the
    difference.
    """
    name = draw(st.sampled_from(PREDICATE_NAMES))
    lam_eq, rho_eq, lam_gt, rho_gt = (draw(tolerance_strategy) for _ in range(4))
    avg_length = draw(st.one_of(tolerance_strategy, st.just(lam_eq)))
    params = PredicateParams.of(lam_eq, rho_eq, lam_gt, rho_gt)
    predicate = predicate_by_name(name, params, avg_length)
    breakpoints = {0.0}
    for lam, rho in ((lam_eq, rho_eq), (lam_gt, rho_gt), (avg_length, rho_eq)):
        for point in (lam, lam + rho):
            breakpoints |= {point, math.nextafter(point, -1.0), math.nextafter(point, math.inf)}
    widths = st.one_of(st.sampled_from(sorted(p for p in breakpoints if p >= 0)), st.floats(0, 1e4))
    breakpoints |= {-point for point in breakpoints}
    anchors = st.one_of(st.sampled_from(sorted(breakpoints)), st.floats(-1e4, 1e4))

    def interval(uid):
        anchor, width = draw(anchors), draw(widths)
        if draw(st.booleans()):
            return Interval(uid, anchor, anchor + width)
        return Interval(uid, anchor - width, anchor)

    fixed = interval(0) if draw(st.booleans()) else Interval(0, 0.0, 0.0)
    rows = [interval(uid) for uid in range(draw(st.integers(1, 25)))]
    return predicate, fixed, rows


def _sql_scores(predicate, fixed, rows, fixed_is_source):
    """Per-row scores of the oracle's printed CASE, evaluated by sqlite3."""
    collections = {"F": IntervalCollection("F", [fixed]), "C": IntervalCollection("C", rows)}
    source, target = ("F", "C") if fixed_is_source else ("C", "F")
    query = RTJQuery(
        vertices=("x", "y"),
        collections={"x": collections[source], "y": collections[target]},
        edges=(QueryEdge("x", "y", predicate),),
        k=len(rows),
        aggregation=MinScore(),
    )
    connection = sqlite3.connect(":memory:")
    try:
        for name, collection in collections.items():
            connection.execute(f"CREATE TABLE {name.lower()} (uid INTEGER, s REAL, e REAL)")
            connection.executemany(
                f"INSERT INTO {name.lower()} VALUES (?, ?, ?)",
                [(i.uid, i.start, i.end) for i in collection],
            )
        found = connection.execute(compile_query_sql(query, {"F": "f", "C": "c"})).fetchall()
    finally:
        connection.close()
    by_uid = {row[1 if fixed_is_source else 0]: row[2] for row in found}
    return [by_uid[row.uid] for row in rows]


CAPPED_PARAMS = PredicateParams.of(2.092141463103788, 6.316025095719721, 0.0, 0.0)


class TestVectorPredicates:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=boundary_case())
    @example(
        # A slope just past lam rounds to 1.0000000000000002 unless capped.
        case=(
            ALLEN_PREDICATES["equals"](CAPPED_PARAMS),
            Interval(0, 0.0, 1.9939297807743972),
            [Interval(0, 2.0921414631037885, 4.086071243878186)],
        )
    )
    def test_vector_scorer_matches_compiled_scalar(self, case):
        """The scalar, numpy and SQL forms are float.hex-identical and at most
        1.0, in both edge orientations, on every predicate and breakpoint."""
        predicate, fixed, rows = case
        scalar = predicate.compile()
        vector = compile_vector(predicate)
        columns = IntervalColumns.from_intervals(rows)
        orientations = {
            True: (
                [scalar(fixed, y) for y in rows],
                vector(fixed.start, fixed.end, columns.starts, columns.ends),
                [predicate.score(fixed, y) for y in rows],
            ),
            False: (
                [scalar(x, fixed) for x in rows],
                vector(columns.starts, columns.ends, fixed.start, fixed.end),
                [predicate.score(x, fixed) for x in rows],
            ),
        }
        for fixed_is_source, (scalar_scores, vector_scores, reference) in orientations.items():
            sql_scores = _sql_scores(predicate, fixed, rows, fixed_is_source)
            assert [float(s).hex() for s in vector_scores] == [s.hex() for s in scalar_scores]
            assert [s.hex() for s in sql_scores] == [s.hex() for s in scalar_scores]
            assert max(scalar_scores) <= 1.0 and max(reference) <= 1.0

    @_SETTINGS
    @given(
        name=st.sampled_from(sorted(ALLEN_PREDICATES)),
        xs=st.lists(interval_strategy, min_size=1, max_size=25),
        y=interval_strategy,
    )
    def test_vector_scorer_boolean_params_fixed_target(self, name, xs, y):
        predicate = ALLEN_PREDICATES[name](PredicateParams.boolean())
        scalar = predicate.compile()
        vector = compile_vector(predicate)
        columns = IntervalColumns.from_intervals(xs)
        batch = vector(columns.starts, columns.ends, y.start, y.end)
        assert list(batch) == [scalar(x, y) for x in xs]


class TestVectorAggregation:
    @_SETTINGS
    @given(
        rows=st.lists(
            st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
            min_size=1,
            max_size=20,
        )
    )
    def test_combine_matches_scalar_for_all_aggregations(self, rows):
        columns = [np.array([row[i] for row in rows]) for i in range(3)]
        size = len(rows)
        for aggregation in (
            AverageScore(num_edges=3),
            SumScore(),
            MinScore(),
            WeightedSum((0.5, 0.0, 2.0)),
        ):
            batch = combine_scores_v(aggregation, columns, size)
            expected = [aggregation.combine(list(row)) for row in rows]
            assert list(batch) == expected

    def test_combine_broadcasts_scalar_parts(self):
        aggregation = AverageScore(num_edges=2)
        batch = combine_scores_v(aggregation, [0.5, np.array([0.0, 1.0])], 2)
        assert list(batch) == [aggregation.combine([0.5, 0.0]), aggregation.combine([0.5, 1.0])]


class TestIntervalColumns:
    def _columns(self):
        intervals = [Interval(3, 0.0, 2.0, "a"), Interval(1, 1.0, 4.0), Interval(2, 2.0, 2.5)]
        return intervals, IntervalColumns.from_intervals(intervals)

    def test_roundtrip_preserves_rows(self):
        intervals, columns = self._columns()
        assert len(columns) == 3
        assert columns.to_intervals() is intervals  # memoised original rows
        assert [columns.record(i).uid for i in range(3)] == [3, 1, 2]
        assert columns.payloads == ("a", None, None)

    def test_payloads_dropped_when_all_none(self):
        columns = IntervalColumns.from_intervals([Interval(0, 0.0, 1.0), Interval(1, 2.0, 3.0)])
        assert columns.payloads is None

    def test_pickle_ships_arrays_not_objects(self):
        _, columns = self._columns()
        restored = pickle.loads(pickle.dumps(columns))
        assert restored._intervals is None  # the row view does not travel
        assert list(restored.uids) == [3, 1, 2]
        rebuilt = restored.to_intervals()
        assert [x.uid for x in rebuilt] == [3, 1, 2]
        assert rebuilt[0].payload == "a"

    def test_sort_by_uid(self):
        _, columns = self._columns()
        ordered = columns.sort_by_uid()
        assert list(ordered.uids) == [1, 2, 3]
        assert ordered.payloads == (None, None, "a")

    def test_concat(self):
        left = IntervalColumns.from_intervals([Interval(0, 0.0, 1.0)])
        right = IntervalColumns.from_intervals([Interval(1, 2.0, 3.0, "p")])
        merged = IntervalColumns.concat([left, right])
        assert list(merged.uids) == [0, 1]
        assert merged.payloads == (None, "p")

    def test_empty_batch(self):
        columns = IntervalColumns.from_intervals([])
        assert len(columns) == 0
        assert columns.payloads is None


class TestKernelValidation:
    def test_unknown_kernel_rejected(self):
        from repro.core import LocalJoinConfig, LocalTopKJoin
        from repro.query.graph import QueryEdge, RTJQuery
        from repro.temporal.interval import IntervalCollection
        from repro.temporal.predicates import before

        collection = IntervalCollection.from_tuples("c", [(0.0, 1.0)])
        query = RTJQuery(
            vertices=("x", "y"),
            collections={"x": collection, "y": collection},
            edges=(QueryEdge("x", "y", before(PredicateParams.boolean())),),
            k=1,
        )
        with pytest.raises(ValueError, match="unknown join kernel"):
            LocalTopKJoin(query, LocalJoinConfig(kernel="simd"))
