"""The paper's evaluation as one table: each experiment of Section 4 (Figures
7-14, the effect of k, statistics collection) and each ablation is a
:class:`Figure` row.

A row holds the paper's setting, one reduced scale (``settings``; its one
tuple-valued setting is swept), the arms (a registered algorithm plus knobs),
the columns and the claims, each checked on **exact counters**.
:func:`run_figure` loops sweep x query x arm through
``get_algorithm(name).run(query, context, **knobs)``; the rows that
characterise data (Figures 7 and 12, statistics collection) name a probe
instead.  No claim reads a ``timings`` column, so :func:`reproduction`
(REPRODUCTION.md) is byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from ..baselines.naive import all_pair_scores
from ..core import LocalJoinConfig
from ..core.statistics import collect_statistics_mapreduce
from ..datagen import (
    NetworkTraceConfig,
    SyntheticConfig,
    generate_collections,
    generate_network_collection,
    sample_collection,
)
from ..mapreduce import ClusterConfig, MapReduceEngine
from ..plan import ExecutionContext, RunReport, get_algorithm
from ..temporal.interval import IntervalCollection
from ..temporal.predicates import predicate_by_name
from .harness import ResultTable, _fmt
from .workloads import PARAMETERS, build_query

__all__ = ["Arm", "Claim", "Figure", "FIGURES", "run_figure", "reproduction"]

Claim = tuple[str, Callable[["Figure", ResultTable], tuple[bool, str]]]
"""A claim of the paper in words, and its check: whether it holds, and why."""


@dataclass(frozen=True)
class Arm:
    """One configuration a row compares: a registered algorithm plus knobs, its
    parameter set (``None``: the row's, PB for a Boolean algorithm) and the
    queries it runs on (empty: all of the row's)."""

    label: str
    algorithm: str = "tkij"
    knobs: Mapping[str, Any] = field(default_factory=dict)
    params: str | None = None
    queries: tuple[str, ...] = ()


@dataclass(frozen=True)
class Figure:
    """One experiment of the paper at one reduced scale (see the module doc).

    ``data`` is ``synthetic`` or ``network`` (the simulated trace, copied once
    per query vertex; its ``size`` counts sessions).  ``reads`` names the CLI
    option groups the row reads; ``timings`` are its wall-clock columns.
    """

    name: str
    title: str
    paper: str
    settings: Mapping[str, Any]
    columns: tuple[str, ...]
    claims: tuple[Claim, ...]
    queries: tuple[str, ...] = ()
    arms: tuple[Arm, ...] = (Arm("TKIJ"),)
    probe: Callable[..., Iterable[dict]] | None = None
    timings: tuple[str, ...] = ("total_seconds",)
    data: str = "synthetic"
    reads: frozenset[str] = frozenset({"engine"})

    @property
    def sweep(self) -> str:
        """The swept setting: the one whose value is a tuple."""
        return next(name for name, value in self.settings.items() if isinstance(value, tuple))

    def resolve(self, overrides: Mapping[str, Sequence[Any]] | None = None) -> dict[str, Any]:
        """The settings under CLI overrides: an override of the swept setting
        replaces the sweep, any other pins its setting to one value."""
        settings = dict(self.settings)
        for name, given in (overrides or {}).items():
            if name != self.sweep and len(given) > 1:
                raise ValueError(f"{self.name} sweeps {self.sweep}, not {name}")
            settings[name] = tuple(given) if name == self.sweep else given[0]
        return settings


def run_figure(
    figure: Figure,
    cluster: ClusterConfig | None = None,
    overrides: Mapping[str, Sequence[Any]] | None = None,
    plan: str | None = None,
    kernel: str | None = None,
) -> ResultTable:
    """Measure one row: every sweep point x query x arm, or the row's probe.
    ``plan``/``kernel`` reach every arm that has those knobs and sets neither."""
    settings = figure.resolve(overrides)
    scale = ", ".join(f"{name}={value}" for name, value in settings.items())
    table = ResultTable(f"{figure.title} ({scale})", [*figure.columns, *figure.timings])
    with ExecutionContext(cluster=cluster or ClusterConfig()) as context:
        for value in settings[figure.sweep]:
            point = {**settings, figure.sweep: value}
            collections = _dataset(figure.data, point)
            if figure.probe is not None:
                for row in figure.probe(collections, point, context):
                    table.add_row(**point, **row)
            for query_name in figure.queries:
                for arm in figure.arms:
                    if arm.queries and query_name not in arm.queries:
                        continue
                    algorithm = get_algorithm(arm.algorithm)
                    params = arm.params or (point["params"] if algorithm.scored else "PB")
                    query = build_query(query_name, collections, params, point["k"], point.get("n"))
                    options = {"num_granules": point["g"], "mode": plan, "kernel": kernel}
                    knobs = {**algorithm.plan_knobs(options), **arm.knobs}
                    counters = _counters(algorithm.run(query, context, **knobs))
                    row = {**point, **counters, "query": query_name, "arm": arm.label}
                    table.add_row(**row, intervals=len(collections[0]))
    return table


def _dataset(data: str, point: Mapping[str, Any]) -> list[IntervalCollection]:
    """The ``n`` (default 3) collections of one sweep point."""
    count = point.get("n", 3)
    seed = point["seed"]
    if data == "network":
        base = generate_network_collection(NetworkTraceConfig(num_sessions=point["size"]), seed)
        if "fraction" in point:
            base = sample_collection(base, point["fraction"], seed=seed)
        copies = range(1, count + 1)
        return [IntervalCollection(f"{base.name}-{i}", list(base.intervals)) for i in copies]
    # ``spread`` keeps the temporal density of the paper's |Ci| = 1e4 over
    # [0, 1e5] at any size (Figure 7); otherwise the generator's default range.
    start_max = point["spread"] * point["size"] if "spread" in point else SyntheticConfig.start_max
    config = SyntheticConfig(size=point["size"], start_max=start_max)
    return list(generate_collections(count, config, seed=seed).values())


def _counters(report: RunReport) -> dict[str, Any]:
    """What a column can name about one run: the report's, its raw result's
    and the TKIJ assignment's ``describe()``, plus a few derived values."""
    values = report.describe()
    raw = report.raw
    for part in (raw, getattr(raw, "assignment", None)):
        values.update(part.describe() if hasattr(part, "describe") else {})
    if hasattr(raw, "top_buckets"):
        selected = raw.top_buckets.selected
        values["combinations"] = float(raw.top_buckets.total_combinations)
        values["max_lower_bound"] = max((c.lower_bound for c in selected), default=0.0)
        values["selected"] = frozenset(c.buckets for c in selected)
    scores = [result.score for result in report.results] or [0.0]
    values["top_score"] = scores[0]
    values["kth_score"] = scores[-1]
    values["perfect_results"] = sum(score >= 1.0 for score in scores)
    values["shuffle_size"] = float(sum(metrics.shuffle_size for metrics in report.metrics))
    return values


# --------------------------------------------------------------------- probes
_RANKS = (1, 10, 100, 1_000, 10_000, 50_000)


def _score_distribution(collections, point, context) -> Iterable[dict]:
    """Figure 7: the score at selected ranks of all |C1| x |C2| pairs."""
    left, right = collections[:2]
    for name in ("before", "overlaps", "meets", "starts"):
        predicate = predicate_by_name(name, PARAMETERS[point["params"]], left.average_length())
        scores = all_pair_scores(predicate, left, right)
        ranks = {f"rank_{r}": float(scores[r - 1]) if r <= len(scores) else 0.0 for r in _RANKS}
        yield {"predicate": f"s-{name}", **ranks, "perfect_scores": int((scores >= 1.0).sum())}


def _trace_distribution(collections, point, context) -> Iterable[dict]:
    """Figure 12: start-point and length histograms (ten equal-width bins, in
    percent of the connections), then the length statistics the paper quotes."""
    trace = collections[0]
    lengths = trace.ends - trace.starts
    starts = np.histogram(trace.starts, bins=10)[0] * 100.0 / len(trace)
    spans = np.histogram(lengths, bins=10)[0] * 100.0 / len(trace)
    for index in range(10):
        yield {"bin": f"{index + 1}/10", "start_pct": starts[index], "length_pct": spans[index]}
    for name, value in (("mean", lengths.mean()), ("p75", np.percentile(lengths, 75))):
        yield {"bin": f"length {name}", "length_s": float(value)}
    yield {"bin": "length max", "length_s": float(lengths.max())}


def _statistics(collections, point, context) -> Iterable[dict]:
    """Phase (a), statistics collection, as its own Map-Reduce job."""
    engine = MapReduceEngine(context.cluster, backend=context.get_backend())
    named = {collection.name: collection for collection in collections}
    statistics = collect_statistics_mapreduce(named, point["g"], engine)
    metrics = statistics.collection_metrics
    yield {
        "collections": len(named),
        "shuffle_records": metrics.shuffle_records,
        "nonempty_buckets": statistics.nonempty_bucket_count(collections[0].name),
        "seconds": metrics.elapsed_seconds,
    }


# --------------------------------------------------------------------- claims
def along(
    statement: str, column: str, holds: Callable[[list], bool], queries=(), arm=None
) -> Claim:
    """Per query, ``column`` in sweep order (of one arm, when given) ``holds``."""

    def check(figure: Figure, table: ResultTable) -> tuple[bool, str]:
        series: dict[str, list] = {}
        for row in table.rows:
            if (not queries or row["query"] in queries) and arm in (None, row["arm"]):
                series.setdefault(row["query"], []).append(row[column])
        shown = "; ".join(f"{q} {' -> '.join(map(_fmt, v))}" for q, v in series.items())
        return all(map(holds, series.values())), f"{column}: {shown}"

    return statement, check


def _grows(values: list) -> bool:
    """Never falls, and ends above its start."""
    return values == sorted(values) and values[-1] > values[0]


def _within(factor: float) -> Callable[[list], bool]:
    """Varies by at most ``factor`` (1: not at all)."""
    return lambda values: max(values) <= factor * min(values)


def at_most(statement: str, column: str, arm: str, other: str, factor: float = 1.0) -> Claim:
    """``arm``'s ``column`` is at most ``factor`` x ``other``'s wherever both ran."""

    def check(figure: Figure, table: ResultTable) -> tuple[bool, str]:
        cells = {(row[figure.sweep], row["query"], row["arm"]): row[column] for row in table.rows}
        points = [(v, q) for v, q, a in cells if a == arm and (v, q, other) in cells]
        worse = [f"{q}/{v}" for v, q in points if cells[v, q, arm] > factor * cells[v, q, other]]
        bound = f"{other}'s" if factor == 1.0 else f"{factor:g}x {other}'s"
        reason = f"{arm}'s {column} exceeds {bound} at {len(worse)} of {len(points)} points"
        return not worse and bool(points), reason + (f": {', '.join(worse)}" if worse else "")

    return statement, check


def same(statement: str, column: str) -> Claim:
    """Every arm measures the same ``column`` at each sweep point and query."""

    def check(figure: Figure, table: ResultTable) -> tuple[bool, str]:
        seen: dict[tuple, set] = {}
        for row in table.rows:
            seen.setdefault((row[figure.sweep], row["query"]), set()).add(row[column])
        split = sum(len(values) > 1 for values in seen.values())
        return not split, f"{column} differs across arms at {split} of {len(seen)} points"

    return statement, check


def _perfect_order(figure: Figure, table: ResultTable) -> tuple[bool, str]:
    perfect = {row["predicate"]: row["perfect_scores"] for row in table.rows}
    counts = [perfect[f"s-{name}"] for name in ("before", "overlaps", "meets", "starts")]
    held = counts[0] > counts[1] >= counts[2] >= counts[3]
    return held, "perfect-scoring pairs " + " / ".join(map(str, counts))


def _heavy_tail(figure: Figure, table: ResultTable) -> tuple[bool, str]:
    length = {row["bin"]: row.get("length_s") for row in table.rows}
    mean, p75, top = (length[f"length {name}"] for name in ("mean", "p75", "max"))
    held = top > 10 * mean and p75 < 2 * mean
    return held, f"length mean {mean:.4g} s, p75 {p75:.4g} s, max {top:.4g} s"


def _skewed_starts(figure: Figure, table: ResultTable) -> tuple[bool, str]:
    busiest = float(max(row["start_pct"] for row in table.rows if "start_pct" in row))
    return busiest > 13.0, f"the busiest tenth of the day holds {busiest:.4g} % of the connections"


def _one_record_per_interval(figure: Figure, table: ResultTable) -> tuple[bool, str]:
    rows = [(row["shuffle_records"], row["collections"], row["size"]) for row in table.rows]
    held = all(records == count * size for records, count, size in rows)
    return held, "shuffle_records " + ", ".join(f"{r} for {c} x {s}" for r, c, s in rows)


def _boolean_agreement(figure: Figure, table: ResultTable) -> tuple[bool, str]:
    """TKIJ-PB's tuples scoring 1.0 against the Boolean baseline's matches."""
    rows = {(row["size"], row["query"], row["arm"]): row for row in table.rows}
    pairs = [(row, rows[size, query, "TKIJ-PB"]) for (size, query, arm), row in rows.items()
             if row["algorithm"] != "tkij"]
    shown = [f"{row['query']}/{row['size']} {pb['perfect_results']} vs {row['results']:.0f}"
             for row, pb in pairs]
    held = all(pb["perfect_results"] == row["results"] for row, pb in pairs)
    return held, "TKIJ-PB tuples scoring 1.0 vs the baseline's matches: " + ", ".join(shown)


def _qom_prunes(figure: Figure, table: ResultTable) -> tuple[bool, str]:
    """Pruning grows with g on Qo,m; when it never fires, say why."""
    held, reason = along("", "pruned_results_fraction", _grows, ("Qo,m",))[1](figure, table)
    rows = [row for row in table.rows if row["query"] == "Qo,m"]
    if held or any(row["pruned_results_fraction"] for row in rows):
        return held, reason
    bound = max(row["max_lower_bound"] for row in rows)
    row = rows[len(rows) // 2]
    return False, (
        f"{reason}: no combination's score lower bound exceeds {bound:g}, so kthResLB is 0 "
        f"and at g={row['g']} all {row['selected_combinations']:.0f} of "
        f"{row['combinations']:.0f} combinations are kept, though the k-th result scores "
        f"{row['kth_score']:g}"
    )


# ---------------------------------------------------------------------- table
def _arms(knob: str, *values: str) -> tuple[Arm, ...]:
    return tuple(Arm(value, knobs={knob: value}) for value in values)


def _join(label: str, **config: bool) -> Arm:
    return Arm(label, knobs={"join_config": LocalJoinConfig(**config)})


_PLANNED = frozenset({"engine", "plan"})
_JOIN_WORK = "the running time is nearly flat in k: join work within 2x"

FIGURES: tuple[Figure, ...] = (
    Figure(
        name="fig7",
        title="Figure 7: score distribution",
        paper="|Ci| = 1e4 over [0, 1e5], P1, all |C1| x |C2| pairs scored.",
        settings={"size": (600,), "params": "P1", "spread": 10.0, "seed": 7},
        columns=("predicate", *(f"rank_{r}" for r in _RANKS), "perfect_scores"),
        claims=(("s-before has the most perfect-scoring pairs, then overlaps, meets, starts",
                 _perfect_order),),
        probe=_score_distribution,
        timings=(),
        reads=frozenset(),
    ),
    Figure(
        name="fig8",
        title="Figure 8: workload distribution, DTB against LPT",
        paper="|Ci| in [1M, 1.6M], g = 20, k = 1000, P2, loose strategy.",
        settings={"size": (100, 200), "k": 100, "g": 12, "params": "P2", "seed": 7},
        columns=("size", "query", "arm", "join_shuffle_size", "max_results_per_reducer",
                 "min_kth_score"),
        claims=(
            at_most("DTB replicates no more intervals than LPT", "join_shuffle_size", "DTB", "LPT"),
            at_most("DTB's busiest reducer holds no more candidate results than LPT's",
                    "max_results_per_reducer", "DTB", "LPT"),
            at_most("the lowest k-th score of a reducer is at least as high with DTB",
                    "min_kth_score", "LPT", "DTB"),
        ),
        queries=("Qb,b", "Qo,o", "Qf,f", "Qs,s", "Qs,f,m"),
        arms=(Arm("LPT", knobs={"assigner": "lpt"}), Arm("DTB", knobs={"assigner": "dtb"})),
        timings=("seconds_join", "join_max_reduce_seconds"),
    ),
    Figure(
        name="fig9",
        title="Figure 9: TopBuckets strategies",
        paper="|Ci| = 2e5, g = 15, k = 100, P1, stars of n in 3..5 vertices.",
        settings={"n": (2, 3), "size": 100, "k": 100, "g": 5, "params": "P1", "seed": 7},
        columns=("n", "query", "arm", "pairs_bounded", "tight_bounds_computed",
                 "selected_combinations", "selected_results"),
        claims=(
            at_most("loose bounds fewer combinations jointly than brute-force",
                    "tight_bounds_computed", "loose", "brute-force"),
            along("brute-force's joint bounds grow with n", "tight_bounds_computed", _grows,
                  arm="brute-force"),
            same("every strategy selects the same combinations", "selected"),
        ),
        queries=("Qb*", "Qo*", "Qm*"),
        arms=_arms("strategy", "brute-force", "two-phase", "loose"),
        timings=("seconds_top_buckets", "seconds_join", "total_seconds"),
    ),
    Figure(
        name="fig10",
        title="Figure 10: number of granules",
        paper="|Ci| = 2e6, k = 100, P1, loose strategy, g in [5, 160].",
        settings={"g": (5, 10, 20, 30), "size": 500, "k": 100, "params": "P1", "seed": 7},
        columns=("query", "g", "combinations", "selected_combinations",
                 "pruned_results_fraction", "max_lower_bound", "kth_score"),
        claims=(
            along("finer statistics give TopBuckets more combinations to bound", "combinations",
                  _grows),
            along("finer statistics prune more candidate results", "pruned_results_fraction",
                  _grows, ("Qb,b", "Qf,b")),
            ("finer statistics prune more on Qo,m, the query Figure 10c details", _qom_prunes),
        ),
        queries=("Qb,b", "Qf,b", "Qo,m"),
        timings=("total_seconds", "join_imbalance", "seconds_top_buckets", "seconds_join"),
    ),
    Figure(
        name="fig11",
        title="Figure 11: scalability against All-Matrix and RCCIS",
        paper="|Ci| in [1M, 5M], g = 40, k = 100; TKIJ with P1 and PB against All-Matrix "
        "(Qb,b) and RCCIS (Qo,o, Qs,m). The paper asks the Boolean question, which tuples "
        "satisfy every predicate; the baselines answer it, capped at k. TKIJ-PB answers a "
        "top-k over averaged Boolean scores and fills up with partial matches when fewer "
        "than k tuples match (on Qs,m all it returns score 0.5), so only its tuples "
        "scoring 1.0 are compared with the baselines' matches.",
        settings={"size": (200, 400), "k": 50, "g": 10, "params": "P1", "seed": 7},
        columns=("size", "query", "arm", "results", "perfect_results", "shuffle_size"),
        claims=(
            at_most("TKIJ-PB shuffles no more intervals than All-Matrix-PB on Qb,b",
                    "shuffle_size", "TKIJ-PB", "All-Matrix-PB"),
            ("TKIJ-PB's tuples scoring 1.0 are the baseline's Boolean matches",
             _boolean_agreement),
        ),
        queries=("Qb,b", "Qo,o", "Qs,m"),
        arms=(
            Arm("TKIJ-P1", params="P1"),
            Arm("TKIJ-PB", params="PB"),
            Arm("All-Matrix-PB", "allmatrix", queries=("Qb,b",)),
            Arm("RCCIS-PB", "rccis", queries=("Qo,o", "Qs,m")),
        ),
        reads=_PLANNED,
    ),
    Figure(
        name="fig12",
        title="Figure 12: network trace distribution",
        paper="3.6M connections of one day of firewall logs; lengths 1 s min, 54 s avg, "
        "86 459 s max.",
        settings={"size": (4_000,), "seed": 13},
        columns=("bin", "start_pct", "length_pct", "length_s"),
        claims=(
            ("connection lengths are heavy-tailed", _heavy_tail),
            ("start points are skewed towards busy hours", _skewed_starts),
        ),
        probe=_trace_distribution,
        timings=(),
        data="network",
        reads=frozenset(),
    ),
    Figure(
        name="fig13",
        title="Figure 13: network scalability",
        paper="samples of 5 %-35 % of the day (0.58M-2.31M connections), g = 40, k = 100, P3.",
        settings={"fraction": (0.25, 0.5, 1.0), "size": 800, "k": 100, "g": 10,
                  "params": "P3", "seed": 13},
        columns=("query", "fraction", "intervals", "combinations", "selected_combinations"),
        claims=(along("larger samples populate more bucket combinations", "combinations", _grows),),
        queries=("Qb,b", "Qo,m", "QjB,jB", "QsM,sM"),
        timings=("total_seconds", "seconds_top_buckets"),
        data="network",
        reads=_PLANNED,
    ),
    Figure(
        name="fig14",
        title="Figure 14: network trace, effect of k",
        paper="|Ci| = 1.03e6 connections, g = 40, P3, k in [10, 1e5].",
        settings={"k": (10, 100, 1_000), "size": 600, "g": 10, "params": "P3", "seed": 13},
        columns=("query", "k", "selected_combinations", "tuples_scored"),
        claims=(
            along("the selected combinations do not depend on k", "selected_combinations",
                  _within(1.0)),
            along(_JOIN_WORK, "tuples_scored", _within(2.0)),
        ),
        queries=("Qb,b", "Qo,m", "QjB,jB"),
        data="network",
        reads=_PLANNED,
    ),
    Figure(
        name="effect-k",
        title="Section 4.2.6: effect of k on synthetic data",
        paper="|Ci| = 2e6, k in [10, 1e5].",
        settings={"k": (10, 100, 1_000), "size": 500, "g": 10, "params": "P1", "seed": 7},
        columns=("query", "k", "selected_combinations", "tuples_scored"),
        claims=(
            along("the selected combinations do not depend on k", "selected_combinations",
                  _within(1.0)),
            along(_JOIN_WORK, "tuples_scored", _within(2.0)),
        ),
        queries=("Qb,b", "Qf,b", "Qo,m"),
        reads=_PLANNED,
    ),
    Figure(
        name="statistics",
        title="Statistics collection",
        paper="28 s for |Ci| = 2e5 up to 36 s for |Ci| = 5e6 on six workers: one cheap pass.",
        settings={"size": (2_000, 10_000, 40_000), "g": 20, "seed": 7},
        columns=("size", "collections", "shuffle_records", "nonempty_buckets"),
        claims=(("collection reads each interval once", _one_record_per_interval),),
        probe=_statistics,
        timings=("seconds",),
    ),
    Figure(
        name="ablation-assigners",
        title="Ablation: workload assignment",
        paper="not in the paper; DTB's replication-aware tie-break against round-robin.",
        settings={"size": (300,), "k": 100, "g": 12, "params": "P2", "seed": 11},
        columns=("query", "arm", "join_shuffle_size", "max_results_per_reducer", "min_kth_score"),
        claims=(
            at_most("DTB replicates at most 1.2x what round-robin does",
                    "join_shuffle_size", "dtb", "round-robin", factor=1.2),
        ),
        queries=("Qs,s", "Qo,o"),
        arms=_arms("assigner", "dtb", "lpt", "round-robin"),
        timings=("seconds_join", "join_max_reduce_seconds"),
    ),
    Figure(
        name="ablation-local-join",
        title="Ablation: local-join pruning",
        paper="not in the paper; early termination and threshold-box lookups switched off.",
        settings={"size": (120,), "k": 50, "g": 12, "params": "P1", "seed": 7},
        columns=("query", "arm", "candidates_examined", "tuples_scored", "top_score"),
        claims=(
            at_most("both optimisations examine no more candidates than neither",
                    "candidates_examined", "full", "no-index-no-termination"),
            same("the optimisations do not change the answer", "top_score"),
        ),
        queries=("Qs,m",),
        arms=(
            _join("full"),
            _join("no-early-termination", early_termination=False),
            _join("no-index", use_index=False),
            _join("no-index-no-termination", use_index=False, early_termination=False),
        ),
        timings=("seconds_join",),
    ),
)
"""Every experiment of the paper's evaluation, in the paper's order."""


def reproduction(figures: Sequence[Figure] = FIGURES) -> str:
    """REPRODUCTION.md: every row at its reduced scale, every claim checked."""
    lines = [
        "# Reproduction of the paper's evaluation",
        "",
        "Generated by `python -m repro.experiments reproduce` from `FIGURES`",
        "(`src/repro/experiments/figures.py`); do not edit. Each experiment runs at one",
        "reduced scale on the serial backend and each claim is checked on exact counters.",
        "No wall-clock value appears, so regenerating the file gives the same bytes;",
        "`python -m repro.experiments <experiment>` prints each table with its timings.",
        "",
    ]
    index = ["| experiment | claims that hold |", "| --- | --- |"]
    sections: list[str] = []
    for figure in figures:
        table = run_figure(figure)
        verdicts = [(statement, *check(figure, table)) for statement, check in figure.claims]
        index.append(f"| {figure.name} | {sum(v[1] for v in verdicts)} of {len(verdicts)} |")
        sections += [f"## {figure.name}: {figure.title}", "", f"Paper: {figure.paper}", ""]
        for statement, holds, reason in verdicts:
            verdict = "holds" if holds else "does not hold"
            sections.append(f"- **{verdict}**: {statement}. {reason}.")
        exact = ResultTable(table.title, list(figure.columns), table.rows)
        sections += ["", exact.to_markdown(), ""]
    return "\n".join([*lines, *index, "", *sections])
