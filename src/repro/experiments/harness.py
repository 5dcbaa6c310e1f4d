"""Experiment harness: result tables and the generic one-query driver.

Every experiment returns a :class:`ResultTable` whose rows are the series the
paper plots (one row per configuration point); REPRODUCTION.md records every
``FIGURES`` row's table.  All query evaluation dispatches through the
:data:`repro.plan.REGISTRY`; nothing in this module (or ``figures.py``)
branches on a concrete algorithm.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ..datagen.synthetic import SyntheticConfig, generate_collections
from ..mapreduce import ClusterConfig
from ..plan import ExecutionContext, get_algorithm

__all__ = ["ResultTable", "run_single_query"]

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
        # Counts arrive as floats from describe(); print them whole.
        return f"{value:.0f}" if value.is_integer() else f"{value:.4g}"
    return str(value)


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
