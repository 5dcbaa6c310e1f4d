"""Experiment harness: result tables and registry-dispatched runners.

Every figure/table driver returns a :class:`ResultTable` whose rows are the series
the paper plots (one row per configuration point).  Benchmarks print these tables
so the reproduction numbers can be compared against the paper's shapes, and
EXPERIMENTS.md records one captured run.  All query evaluation dispatches through
the :data:`repro.plan.REGISTRY`; nothing in this module (or the figure drivers)
branches on a concrete algorithm.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..core import LocalJoinConfig, TKIJResult
from ..datagen.synthetic import SyntheticConfig, generate_collections
from ..mapreduce import ClusterConfig
from ..plan import ExecutionContext, RunReport, get_algorithm
from ..query.graph import RTJQuery
from ..solver import BranchAndBoundSolver

__all__ = [
    "ResultTable",
    "TKIJRunConfig",
    "run_tkij",
    "run_algorithm",
    "run_single_query",
    "summarize",
]

RESULTS_DIR = Path("benchmarks") / "results"
"""Default directory for tables written by the CLI's ``--output``."""


@dataclass
class ResultTable:
    """A small column-oriented table with text/CSV/Markdown rendering."""

    title: str
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        """Append a row; missing columns render as blanks."""
        self.rows.append(values)

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        return [row.get(name) for row in self.rows]

    def to_text(self) -> str:
        """Fixed-width text rendering (printed by the benchmark harness)."""
        header = [self.title, ""]
        widths = {
            column: max(len(column), *(len(_fmt(row.get(column))) for row in self.rows))
            if self.rows
            else len(column)
            for column in self.columns
        }
        header.append("  ".join(column.ljust(widths[column]) for column in self.columns))
        header.append("  ".join("-" * widths[column] for column in self.columns))
        for row in self.rows:
            header.append(
                "  ".join(_fmt(row.get(column)).ljust(widths[column]) for column in self.columns)
            )
        return "\n".join(header)

    def to_csv(self) -> str:
        """RFC-4180 rendering with raw (unrounded) cell values; blank for missing."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(
                ["" if row.get(column) is None else row.get(column) for column in self.columns]
            )
        return buffer.getvalue()

    def to_markdown(self) -> str:
        """GitHub-flavoured Markdown table (title as a heading)."""
        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join(" --- " for _ in self.columns) + "|")
        for row in self.rows:
            lines.append(
                "| " + " | ".join(_fmt(row.get(column)) for column in self.columns) + " |"
            )
        return "\n".join(lines)

    def render(self, format: str = "text") -> str:
        """Render as ``text``, ``csv`` or ``markdown`` (``md``)."""
        renderers = {
            "text": self.to_text,
            "csv": self.to_csv,
            "markdown": self.to_markdown,
            "md": self.to_markdown,
        }
        if format not in renderers:
            raise ValueError(f"unknown format {format!r}; expected one of {sorted(renderers)}")
        return renderers[format]()

    def save(self, path: str | Path, results_dir: str | Path | None = None) -> Path:
        """Write the table to ``path`` and return the resolved location.

        Relative paths land under ``results_dir`` (default
        ``benchmarks/results/``), which is created when missing; the format
        follows the file extension (``.csv``, ``.md``/``.markdown``, else text).
        """
        path = Path(path)
        if not path.is_absolute():
            path = Path(results_dir if results_dir is not None else RESULTS_DIR) / path
        path.parent.mkdir(parents=True, exist_ok=True)
        suffix = path.suffix.lower().lstrip(".")
        format = {"csv": "csv", "md": "markdown", "markdown": "markdown"}.get(suffix, "text")
        path.write_text(self.render(format) + "\n", encoding="utf-8")
        return path

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_text()


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


@dataclass(frozen=True)
class TKIJRunConfig:
    """One TKIJ configuration point of an experiment: what TKIJ computes.

    How the engine runs (reducers, backend, shuffle transfer, memory budget,
    fault knobs) is the :class:`~repro.mapreduce.ClusterConfig` of the
    :class:`~repro.plan.ExecutionContext` the run executes in.  ``plan``
    selects who configures the evaluator: ``manual`` uses this config's knobs
    verbatim, ``auto`` lets the cost-based :class:`repro.plan.AutoPlanner`
    price granularity and join kernel from exact bucket counts.
    """

    num_granules: int = 20
    strategy: str = "loose"
    assigner: str = "dtb"
    use_index: bool = True
    early_termination: bool = True
    solver_max_nodes: int = 64
    plan: str = "manual"
    kernel: str | None = None
    """Local-join kernel.  ``None`` defers: scalar under manual planning, the
    planner's pick under ``plan="auto"``.  An explicit value always wins."""

    def plan_knobs(self) -> dict[str, Any]:
        """The TKIJ plan knobs encoded by this configuration."""
        knobs: dict[str, Any] = {
            "mode": self.plan,
            "num_granules": self.num_granules,
            "strategy": self.strategy,
            "assigner": self.assigner,
            "join_config": LocalJoinConfig(
                use_index=self.use_index,
                early_termination=self.early_termination,
                kernel=self.kernel or "scalar",
            ),
            "solver": BranchAndBoundSolver(max_nodes=self.solver_max_nodes),
        }
        if self.kernel is not None:
            # Forwarded as an explicit knob so it beats the auto planner's pick.
            knobs["kernel"] = self.kernel
        return knobs


def run_tkij(
    query: RTJQuery,
    config: TKIJRunConfig | None = None,
    context: ExecutionContext | None = None,
) -> TKIJResult:
    """Run one query under one configuration and return the execution report.

    Dispatches through the algorithm registry (``repro.plan.REGISTRY['tkij']``).
    Pass ``context`` to share worker pools *and* the statistics cache across many
    queries (figure drivers do — phase (a) then runs once per dataset); without
    it a transient default :class:`ExecutionContext` lives only for this call.
    """
    config = config or TKIJRunConfig()
    owns_context = context is None
    context = context or ExecutionContext()
    try:
        report = get_algorithm("tkij").run(query, context, **config.plan_knobs())
        return report.raw
    finally:
        if owns_context:
            context.close()


def run_algorithm(
    name: str,
    query: RTJQuery,
    context: ExecutionContext,
    **knobs: Any,
) -> RunReport:
    """Run any registered algorithm on a query and return its execution report."""
    return get_algorithm(name).run(query, context, **knobs)


def run_single_query(
    algorithm: str = "tkij",
    query_name: str = "Qo,m",
    size: int = 200,
    k: int = 20,
    params_name: str = "P1",
    options: Mapping[str, Any] | None = None,
    cluster: ClusterConfig | None = None,
    seed: int = 7,
) -> ResultTable:
    """Generic driver: one Table-1 query, one registered algorithm, one report.

    Boolean-only algorithms automatically get the Boolean parameter set (PB).
    ``options`` holds generic knob candidates (``mode``, ``num_granules``, ...);
    each algorithm picks the subset it understands via ``plan_knobs``, so this
    driver needs no per-algorithm branches.  ``cluster`` says how the engine
    runs; its ``fault_plan`` (or ``speculative_slowdown``) turns the run into a
    chaos demo: faults are injected into every Map-Reduce task, retried away,
    and the discarded attempts are tabulated alongside the usual metrics.
    """
    from .workloads import build_query

    algo = get_algorithm(algorithm)
    params = params_name if algo.scored else "PB"
    collections = list(
        generate_collections(3, SyntheticConfig(size=size), seed=seed).values()
    )
    query = build_query(query_name, collections, params, k=k)
    cluster = cluster or ClusterConfig()
    with ExecutionContext(cluster=cluster) as context:
        plan = algo.plan(query, context, **algo.plan_knobs(options or {}))
        report = algo.execute(plan)

    table = ResultTable(
        title=f"{algo.title} on {query_name} ({params}, |Ci|={size}, k={k})",
        columns=["metric", "value"],
    )
    for knob, value in plan.knobs.items():
        # Only scalar knobs tabulate usefully (not solver/join-config objects).
        if isinstance(value, (int, float, str, bool)):
            table.add_row(metric=f"knob_{knob}", value=value)
    for setting in ("transfer", "memory_budget_bytes"):
        if getattr(cluster, setting) is not None:
            table.add_row(metric=f"knob_{setting}", value=getattr(cluster, setting))
    for metric, value in report.describe().items():
        table.add_row(metric=metric, value=value)
    if cluster.fault_plan is not None or cluster.speculative_slowdown is not None:
        failed = sum(len(metrics.failed_attempts) for metrics in report.metrics)
        retried = sum(metrics.retried_tasks for metrics in report.metrics)
        launches = sum(metrics.speculative_launches for metrics in report.metrics)
        wins = sum(metrics.speculative_wins for metrics in report.metrics)
        table.add_row(metric="failed_attempts", value=float(failed))
        table.add_row(metric="retried_tasks", value=float(retried))
        table.add_row(metric="speculative_launches", value=float(launches))
        table.add_row(metric="speculative_wins", value=float(wins))
    if report.explanation is not None:
        for index, reason in enumerate(report.explanation.reasons):
            table.add_row(metric=f"plan_reason_{index}", value=reason)
    return table


def summarize(results: Mapping[str, TKIJResult], keys: Sequence[str]) -> ResultTable:
    """Tabulate selected metrics of several named runs."""
    table = ResultTable(title="TKIJ runs", columns=["run", *keys])
    for name, result in results.items():
        summary = result.describe()
        table.add_row(run=name, **{key: summary.get(key) for key in keys})
    return table
