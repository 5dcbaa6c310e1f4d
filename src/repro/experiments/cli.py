"""Command-line entry point for the experiment drivers.

``python -m repro.experiments <experiment> [options]`` regenerates one of the
paper's tables/figures (a row of :data:`~repro.experiments.figures.FIGURES`)
at its reduced scale, or at the one ``--size/--sizes/--k/--granules`` set, and
prints (or saves) the measured series with its timings.  ``python -m
repro.experiments reproduce`` runs every row and prints REPRODUCTION.md, each
claim of the paper checked on exact counters.  All query evaluation
dispatches through the algorithm registry
(:data:`repro.plan.REGISTRY`): ``--list-algorithms`` shows what is registered,
the generic ``run`` experiment evaluates one query with ``--algorithm``, and
``--plan auto`` hands TKIJ's knobs to the cost-based planner.  Each experiment
reads some of the engine, plan and fault option groups (:data:`EXPERIMENTS`);
passing a flag of a group it does not read is an error, not a no-op.
``--output PATH`` writes the table under ``benchmarks/results/`` (absolute
paths are honoured; ``.csv``/``.md`` select the format).

Two serving subcommands ride on the same entry point: ``python -m
repro.experiments serve`` starts the long-lived query server of
:mod:`repro.serving` and ``... load`` registers synthetic collections on a
running server (both documented in docs/PROTOCOL.md and the README's
"Serving" section; ``repro-serve`` is the installed alias of ``serve``).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..checks import positive_int
from ..core import KERNELS
from ..mapreduce import BACKEND_NAMES, TRANSFER_NAMES, ClusterConfig, FaultPlan
from ..plan import PLAN_MODES, REGISTRY, available_algorithms
from .figures import FIGURES, Figure, reproduction, run_figure
from .harness import ResultTable, run_single_query
from .streaming_figures import figure_streaming
from .workloads import QUERIES

__all__ = [
    "ENGINE_FLAGS",
    "EXPERIMENTS",
    "Experiment",
    "OPTION_GROUPS",
    "add_engine_flags",
    "build_parser",
    "engine_cluster",
    "experiment_cluster",
    "list_algorithms_table",
    "load_fault_plan",
    "positive_int_flag",
    "validate_options",
    "run_experiment",
    "main",
]


def _sizes(argument: str) -> tuple[int, ...]:
    return tuple(int(part) for part in argument.split(",") if part)


def positive_int_flag(text: str) -> int:
    """The argparse ``type`` of the positive integer flags of both CLIs: the
    shared :func:`~repro.plan.algorithm.positive_int` check on the flag's text
    (argparse names the flag first: ``argument --size: value must be ...``)."""
    try:
        return positive_int("value", int(text))
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _slowdown_factor(argument: str) -> float:
    value = float(argument)
    if value <= 1.0:
        raise argparse.ArgumentTypeError("must be a factor greater than 1.0")
    return value


_BYTE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def _byte_size(argument: str) -> int:
    """A positive byte count, accepting ``k``/``m``/``g`` binary suffixes (``64m``)."""
    text = argument.strip().lower().removesuffix("b")
    multiplier = 1
    if text and text[-1] in _BYTE_SUFFIXES:
        multiplier = _BYTE_SUFFIXES[text[-1]]
        text = text[:-1]
    try:
        value = int(text) * multiplier
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid byte size {argument!r}; expected e.g. 1048576, 64k, 16M or 1g"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive byte count")
    return value


def load_fault_plan(source: "str | FaultPlan | None") -> FaultPlan | None:
    """Resolve the ``--fault-plan`` option (a JSON path) into a :class:`FaultPlan`.

    Already-built plans and ``None`` pass through.  Malformed files raise
    ``ValueError`` with the parse error (surfaced as an argparse error by
    :func:`main`).
    """
    if source is None or isinstance(source, FaultPlan):
        return source
    return FaultPlan.load(source)


ENGINE_FLAGS: dict[str, tuple[str, dict[str, Any]]] = {
    "--backend": (
        "backend",
        {
            "choices": list(BACKEND_NAMES),
            "help": "execution backend for map/reduce tasks (default serial)",
        },
    ),
    "--max-workers": (
        "max_workers",
        {
            "type": positive_int_flag,
            "help": "worker pool size for the thread/process backends (default: CPU count)",
        },
    ),
    "--transfer": (
        "transfer",
        {
            "choices": list(TRANSFER_NAMES),
            "help": (
                "shuffle transfer strategy: 'inline' (same-address-space zero copy), "
                "'pickle' (by-value across processes) or 'shm' (columnar batches via "
                "shared memory); default follows the backend"
            ),
        },
    ),
    "--memory-budget": (
        "memory_budget_bytes",
        {
            "type": _byte_size,
            "metavar": "BYTES",
            "help": (
                "shuffle memory budget (accepts k/m/g suffixes, e.g. 64m); partitions "
                "beyond it spill to sorted on-disk runs and reducers stream the merge"
            ),
        },
    ),
    "--max-task-attempts": (
        "max_task_attempts",
        {
            "type": positive_int_flag,
            "help": (
                "per-task attempt budget of the engine (default 4, like Hadoop's "
                "maxattempts); a task failing every attempt aborts the job"
            ),
        },
    ),
    "--fault-plan": (
        "fault_plan",
        {
            "metavar": "PATH",
            "help": (
                "JSON fault plan injected into every Map-Reduce task (deterministic "
                "chaos demo; see DESIGN.md §9 for the format)"
            ),
        },
    ),
}
"""The engine flags of both CLIs: flag -> (:class:`ClusterConfig` field, argparse
options).  Each defaults to ``None``, meaning "not passed": the ``ClusterConfig``
default applies."""


def add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """Define every :data:`ENGINE_FLAGS` entry on ``parser``."""
    for flag, (field, options) in ENGINE_FLAGS.items():
        parser.add_argument(flag, dest=field, default=None, **options)


def engine_cluster(args: argparse.Namespace, **fields: Any) -> ClusterConfig:
    """The :class:`ClusterConfig` the parsed engine flags (plus ``fields``) set.

    ``None`` values are left out so the ``ClusterConfig`` defaults apply;
    ``--fault-plan`` is loaded here (``ValueError`` on a malformed file).
    """
    values = {field: getattr(args, field) for field, _ in ENGINE_FLAGS.values()}
    values.update(fields)
    values["fault_plan"] = load_fault_plan(values["fault_plan"])
    return ClusterConfig(**{name: value for name, value in values.items() if value is not None})


OPTION_GROUPS: dict[str, dict[str, str]] = {
    "engine": {
        flag: ENGINE_FLAGS[flag][0]
        for flag in ("--backend", "--max-workers", "--transfer", "--memory-budget")
    },
    "fault": {
        "--max-task-attempts": "max_task_attempts",
        "--fault-plan": "fault_plan",
        "--speculative-slowdown": "speculative_slowdown",
    },
    "plan": {"--plan": "plan", "--kernel": "kernel"},
}
"""Option group -> its flags (flag -> parsed attribute).  An experiment reads a
group or rejects every flag of it (see :class:`Experiment`)."""


@dataclass(frozen=True)
class Experiment:
    """One experiment: its driver call and the option groups it reads."""

    run: Callable[[argparse.Namespace, ClusterConfig], ResultTable]
    reads: frozenset[str] = frozenset()
    """Subset of :data:`OPTION_GROUPS`; empty for experiments that only
    characterise data and never run the engine."""


def _plan(args: argparse.Namespace) -> dict[str, Any]:
    """The TKIJ planning options, for experiments that read the plan group."""
    return {"plan": args.plan or "manual", "kernel": args.kernel}


_RUN_SCALE = {"size": 400, "k": 100, "granules": 10}
"""The scale of the ``run`` and ``streaming`` experiments when no flag sets it
(a ``FIGURES`` row has its own)."""


def _scale(args: argparse.Namespace, name: str) -> int:
    value = getattr(args, name)
    return _RUN_SCALE[name] if value is None else value


def _overrides(args: argparse.Namespace) -> dict[str, tuple[int, ...]]:
    """The scale flags passed, as ``FIGURES`` settings: each pins its setting
    or, when the row sweeps it, replaces the sweep."""
    given = {
        "size": args.sizes or (args.size,),
        "k": (args.k,),
        "g": (args.granules,),
    }
    return {name: values for name, values in given.items() if None not in values}


def _figure(figure: Figure) -> Experiment:
    return Experiment(
        lambda args, cluster: run_figure(
            figure,
            cluster=cluster,
            overrides=_overrides(args),
            plan=args.plan,
            kernel=args.kernel,
        ),
        figure.reads,
    )


_CHAOS = frozenset({"engine", "plan", "fault"})

EXPERIMENTS: dict[str, Experiment] = {
    # The paper's evaluation: one experiment per FIGURES row.  fig7 and fig12
    # only characterise the data; fig8/fig9/fig10 sweep an assigner, strategy
    # or granularity and so never read --plan (auto would override the knob
    # under study).
    **{figure.name: _figure(figure) for figure in FIGURES},
    # Streaming: ingest the workload batch by batch through tkij-streaming,
    # comparing each batch against full recomputation.
    "streaming": Experiment(
        lambda args, cluster: figure_streaming(
            batch_counts=args.stream_batches or (5, 10),
            batch_sizes=args.stream_batch_size or (40,),
            query_name=args.query,
            k=_scale(args, "k"),
            num_granules=_scale(args, "granules"),
            cluster=cluster,
            **_plan(args),
        ),
        _CHAOS,
    ),
    # Generic registry dispatch: one query, any registered algorithm.
    "run": Experiment(
        lambda args, cluster: run_single_query(
            algorithm=args.algorithm,
            query_name=args.query,
            size=_scale(args, "size"),
            k=_scale(args, "k"),
            options={
                "mode": args.plan,
                "num_granules": _scale(args, "granules"),
                "kernel": args.kernel,
            },
            cluster=cluster,
        ),
        _CHAOS,
    ),
}
"""Experiment name -> driver call (given the parsed options and the cluster the
engine flags describe) and the option groups it reads."""


def validate_options(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Reject passed flags the experiment would ignore, and conflicting knobs."""
    reads = EXPERIMENTS[args.experiment].reads
    for group, flags in OPTION_GROUPS.items():
        passed = [flag for flag, dest in flags.items() if getattr(args, dest) is not None]
        if not passed or group in reads:
            continue
        if not reads:
            parser.error(
                f"{'/'.join(passed)} cannot apply to {args.experiment!r}: "
                "it only characterises data and never runs the engine"
            )
        readers = sorted(name for name, entry in EXPERIMENTS.items() if group in entry.reads)
        parser.error(
            f"{'/'.join(passed)} is only supported by the {'/'.join(readers)} experiments"
        )
    if args.speculative_slowdown is not None and args.backend in (None, "serial"):
        parser.error(
            "--speculative-slowdown needs a pool backend "
            "(--backend thread or process); the serial backend cannot race a backup"
        )


def experiment_cluster(args: argparse.Namespace) -> ClusterConfig:
    """The cluster an experiment runs on: the engine flags plus ``--speculative-slowdown``."""
    return engine_cluster(args, speculative_slowdown=args.speculative_slowdown)


def list_algorithms_table() -> ResultTable:
    """The registry contents as a table (``--list-algorithms``)."""
    table = ResultTable(
        title="Registered algorithms",
        columns=["name", "title", "semantics", "description"],
    )
    for name in available_algorithms():
        algorithm = REGISTRY[name]
        doc = (algorithm.__doc__ or "").strip().splitlines()
        table.add_row(
            name=name,
            title=algorithm.title,
            semantics="scored" if algorithm.scored else "boolean",
            description=doc[0] if doc else "",
        )
    return table


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of ``python -m repro.experiments``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate one experiment of the TKIJ paper at laptop scale.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=sorted(EXPERIMENTS),
        help="experiment to run",
    )
    parser.add_argument(
        "--size",
        type=int,
        default=None,
        help="intervals per collection (sessions of a network trace); default: the "
        "experiment's own scale, 400 for run",
    )
    parser.add_argument(
        "--sizes", type=_sizes, default=None, help="comma-separated sizes for sweeps"
    )
    parser.add_argument(
        "--k",
        type=int,
        default=None,
        help="number of results to return; default: the experiment's own, 100 for "
        "run and streaming",
    )
    parser.add_argument(
        "--granules",
        type=int,
        default=None,
        help="granules per collection; default: the experiment's own, 10 for run "
        "and streaming",
    )
    parser.add_argument(
        "--algorithm",
        choices=available_algorithms(),
        default="tkij",
        help="registered algorithm evaluated by the 'run' experiment",
    )
    parser.add_argument(
        "--plan",
        choices=list(PLAN_MODES),
        default=None,
        help=(
            "who configures TKIJ: 'manual' (the default) uses the CLI knobs, "
            "'auto' the cost-based planner"
        ),
    )
    parser.add_argument(
        "--kernel",
        choices=list(KERNELS),
        default=None,
        help=(
            "local-join kernel: 'scalar' (per-tuple Python), 'vector' (columnar "
            "numpy batches) or 'sweep' (sorted-endpoint windows via searchsorted); "
            "default lets --plan auto decide and is scalar otherwise"
        ),
    )
    parser.add_argument(
        "--list-algorithms",
        action="store_true",
        help="list the registered algorithms and exit",
    )
    parser.add_argument(
        "--query",
        choices=sorted(QUERIES),
        default="Qo,m",
        help="Table 1 query evaluated by the 'run' experiment",
    )
    parser.add_argument(
        "--stream-batches",
        type=_sizes,
        default=None,
        help="comma-separated batch counts swept by the 'streaming' experiment",
    )
    parser.add_argument(
        "--stream-batch-size",
        type=_sizes,
        default=None,
        help="comma-separated per-collection batch sizes for the 'streaming' experiment",
    )
    add_engine_flags(parser)
    parser.add_argument(
        "--speculative-slowdown",
        type=_slowdown_factor,
        default=None,
        metavar="FACTOR",
        help=(
            "speculatively duplicate tasks running FACTOR times past the batch "
            "median (> 1.0; requires --backend thread or process)"
        ),
    )
    parser.add_argument(
        "--output",
        type=str,
        default=None,
        help=(
            "write the table to this file; relative paths land under "
            "benchmarks/results/ and .csv/.md extensions pick the format"
        ),
    )
    return parser


def run_experiment(name: str, args: argparse.Namespace) -> ResultTable:
    """Run one named experiment with the parsed options."""
    return EXPERIMENTS[name].run(args, experiment_cluster(args))


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in ("serve", "load"):
        # The serving subcommands have their own option sets; dispatch before
        # the experiment parser sees (and rejects) the unknown positional.
        from ..serving import cli as serving_cli

        if argv[0] == "serve":
            return serving_cli.serve_main(argv[1:])
        return serving_cli.load_main(argv[1:])
    if argv[:1] == ["reproduce"]:
        argparse.ArgumentParser(
            prog="python -m repro.experiments reproduce",
            description="Run every FIGURES row and print REPRODUCTION.md.",
        ).parse_args(argv[1:])
        print(reproduction(), end="")
        return 0
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_algorithms:
        print(list_algorithms_table().to_text())
        return 0
    if args.experiment is None:
        parser.error("an experiment is required (or pass --list-algorithms)")
    validate_options(parser, args)
    try:
        cluster = experiment_cluster(args)
    except ValueError as error:
        parser.error(str(error))
    try:
        table = EXPERIMENTS[args.experiment].run(args, cluster)
    except (ValueError, KeyError) as error:
        # Driver-level validation failures (a bad k, an unknown query, an
        # impossible knob combination) are user errors, not crashes: report
        # on stderr and exit non-zero, like every other CLI error path.
        message = error.args[0] if error.args else error
        print(f"error: {message}", file=sys.stderr)
        return 1
    if args.output:
        written = table.save(args.output)
        print(f"wrote {written}")
    print(table.to_text())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
