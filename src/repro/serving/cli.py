"""Command-line entry points of the serving layer.

``repro-serve`` (the console script) and ``python -m repro.experiments serve``
both land in :func:`serve_main`: build a cluster config from the engine
flags shared with the experiments CLI, wrap it in a warm
:class:`~repro.plan.ExecutionContext`, and serve until a ``shutdown`` request
or Ctrl-C.  ``python -m repro.experiments load`` (:func:`load_main`) is the
matching client-side loader: connect to a running server and register
synthetic collections through the wire protocol.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from pathlib import Path
from typing import Sequence

from ..experiments.cli import ENGINE_FLAGS, _positive_int, add_engine_flags, engine_cluster
from ..plan import ExecutionContext
from .client import QueryClient, ServingError
from .server import QueryServer
from .supervisor import ServerSupervisor

__all__ = ["build_serve_parser", "build_load_parser", "serve_main", "load_main", "main"]


def build_serve_parser() -> argparse.ArgumentParser:
    """The argument parser of ``repro-serve`` / the ``serve`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Serve TKIJ/streaming/baseline queries over the NDJSON protocol "
            "(docs/PROTOCOL.md) from one warm ExecutionContext."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=7781, help="bind port (0 picks an ephemeral port)"
    )
    add_engine_flags(parser)
    parser.add_argument(
        "--reducers", type=_positive_int, default=None, help="reduce tasks per job (default 8)"
    )
    parser.add_argument(
        "--mappers", type=_positive_int, default=None, help="map waves per job (default 4)"
    )
    parser.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=4,
        help="queries executing concurrently before new ones queue",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=16,
        help="queries allowed to wait for a slot before the server answers BUSY",
    )
    parser.add_argument(
        "--default-deadline-ms",
        type=_positive_int,
        default=None,
        help="deadline applied to queries that do not carry their own (default: none)",
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help=(
            "worker processes; above 1 runs the supervised multi-worker frontend "
            "(crash respawn, session-affinity routing, rolling restart)"
        ),
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="seconds inflight queries get to finish when draining (SIGTERM or drain verb)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "directory for server checkpoints; workers respawn warm from here "
            "(default: supervisor mode uses a private directory removed on exit; "
            "single mode does not checkpoint)"
        ),
    )
    parser.add_argument(
        "--stats-cache-entries",
        type=_positive_int,
        default=None,
        help="bound the warm statistics cache to this many entries (LRU eviction)",
    )
    parser.add_argument(
        "--plan-cache-entries",
        type=int,
        default=128,
        help="bound the auto-plan cache per worker; 0 disables planner feedback",
    )
    parser.add_argument(
        "--cost-store",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "observed-cost store (JSON lines) calibrating the auto planner; "
            "in supervisor mode a directory holding one file per worker"
        ),
    )
    return parser


def build_load_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``load`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments load",
        description="Register server-side synthetic collections on a running query server.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="server address")
    parser.add_argument("--port", type=int, default=7781, help="server port")
    parser.add_argument(
        "--names",
        default="R,S,T",
        help="comma-separated collection names to create (default R,S,T)",
    )
    parser.add_argument(
        "--size", type=_positive_int, default=10_000, help="intervals per collection"
    )
    parser.add_argument("--seed", type=int, default=7, help="base random seed")
    parser.add_argument(
        "--streaming",
        action="store_true",
        help="create streaming collections (ingest batches via the 'ingest' verb)",
    )
    return parser


def _serve_supervised(args: argparse.Namespace) -> int:
    """The ``--workers N`` (N > 1) path: supervised multi-worker frontend."""
    # Each supervised worker builds its own default context, so no flag that
    # configures the in-process engine can take effect there.
    engine_dests = [(flag, field) for flag, (field, _) in ENGINE_FLAGS.items()]
    engine_dests += [("--reducers", "reducers"), ("--mappers", "mappers")]
    for flag, dest in engine_dests:
        if getattr(args, dest) is not None:
            print(
                f"error: {flag} configures the in-process engine and is not "
                "supported with --workers > 1",
                file=sys.stderr,
            )
            return 1
    supervisor = ServerSupervisor(
        num_workers=args.workers,
        host=args.host,
        port=args.port,
        checkpoint_dir=args.checkpoint_dir,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        drain_timeout=args.drain_timeout,
        default_deadline_ms=args.default_deadline_ms,
        stats_cache_entries=args.stats_cache_entries,
        plan_cache_entries=args.plan_cache_entries,
        cost_store_dir=args.cost_store,
    )

    async def run() -> None:
        host, port = await supervisor.start()
        print(f"supervising {args.workers} workers on {host}:{port}", flush=True)
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, supervisor.shutdown_requested.set)
        try:
            await supervisor.shutdown_requested.wait()
        finally:
            await supervisor.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    except (OSError, RuntimeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def serve_main(argv: Sequence[str] | None = None) -> int:
    """Run a query server in the foreground until shutdown or Ctrl-C."""
    parser = build_serve_parser()
    args = parser.parse_args(argv)
    if args.drain_timeout <= 0:
        print("error: --drain-timeout must be positive", file=sys.stderr)
        return 1
    if args.max_queue < 0:
        print("error: --max-queue must be non-negative", file=sys.stderr)
        return 1
    if args.plan_cache_entries < 0:
        print("error: --plan-cache-entries must be non-negative", file=sys.stderr)
        return 1
    if args.workers > 1:
        return _serve_supervised(args)
    try:
        cluster = engine_cluster(args, num_reducers=args.reducers, num_mappers=args.mappers)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    checkpoint_path = (
        Path(args.checkpoint_dir) / "server.ckpt" if args.checkpoint_dir else None
    )
    context = ExecutionContext(cluster=cluster)
    server = QueryServer(
        context,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        default_deadline_ms=args.default_deadline_ms,
        checkpoint_path=checkpoint_path,
        drain_timeout=args.drain_timeout,
        stats_cache_entries=args.stats_cache_entries,
        plan_cache_entries=args.plan_cache_entries,
        cost_store_path=args.cost_store,
    )
    if checkpoint_path is not None and checkpoint_path.exists():
        try:
            server.restore_state(checkpoint_path)
            print(f"restored checkpoint ({len(server.collections)} collections)")
        except ValueError as error:
            print(f"starting cold: {error}", file=sys.stderr)

    async def run() -> None:
        loop = asyncio.get_running_loop()
        # SIGTERM drains: reject new work, finish inflight, checkpoint, exit.
        loop.add_signal_handler(signal.SIGTERM, server.begin_drain)
        host, port = await server.start()
        print(f"serving on {host}:{port}", flush=True)
        try:
            await server.shutdown_requested.wait()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        context.close()
    return 0


def load_main(argv: Sequence[str] | None = None) -> int:
    """Ask a running server to generate and register synthetic collections."""
    parser = build_load_parser()
    args = parser.parse_args(argv)
    names = [name for name in args.names.split(",") if name]
    if not names:
        print("error: --names must list at least one collection", file=sys.stderr)
        return 1
    try:
        with QueryClient(args.host, args.port) as client:
            response = client.load(
                names, size=args.size, seed=args.seed, streaming=args.streaming
            )
    except (ConnectionError, OSError) as error:
        print(f"error: cannot reach {args.host}:{args.port}: {error}", file=sys.stderr)
        return 1
    except ServingError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    for collection in response["collections"]:
        kind = "streaming" if collection["streaming"] else "static"
        print(f"loaded {collection['name']}: {collection['size']} intervals ({kind})")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """The ``repro-serve`` console-script entry point."""
    return serve_main(argv)


if __name__ == "__main__":  # pragma: no cover - exercised via the experiments CLI
    raise SystemExit(main())
