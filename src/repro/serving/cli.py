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
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

from ..experiments.cli import (
    ENGINE_FLAGS,
    add_engine_flags,
    engine_cluster,
    positive_int_flag,
)
from ..plan import ExecutionContext
from .client import QueryClient, ServingError
from .server import QueryServer, ServerSettings, add_server_flags, server_settings
from .supervisor import ServerSupervisor
from .worker import run_server

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
        "--reducers", type=positive_int_flag, help="reduce tasks per job (default 8)"
    )
    parser.add_argument("--mappers", type=positive_int_flag, help="map waves per job (default 4)")
    parser.add_argument(
        "--workers",
        type=positive_int_flag,
        default=1,
        help=(
            "worker processes; above 1 runs the supervised multi-worker frontend "
            "(crash respawn, session-affinity routing, rolling restart)"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "directory for server checkpoints: one file (server.ckpt, or "
            "worker-<n>.ckpt per worker) holding a snapshot and every change "
            "since; a restart or respawn restores it (default: supervisor "
            "mode uses a private directory removed on exit; single mode does "
            "not checkpoint)"
        ),
    )
    add_server_flags(parser)
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
        "--size", type=positive_int_flag, help="intervals per collection (default: the server's)"
    )
    parser.add_argument("--seed", type=int, help="base random seed (default: the server's)")
    parser.add_argument(
        "--streaming",
        action="store_true",
        help="create streaming collections (ingest batches via the 'ingest' verb)",
    )
    return parser


def _serve_supervised(args: argparse.Namespace, settings: ServerSettings) -> int:
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
        args.workers, args.host, args.port, args.checkpoint_dir, **asdict(settings)
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
    args = build_serve_parser().parse_args(argv)
    try:
        settings = server_settings(args)
        if args.workers == 1:
            cluster = engine_cluster(args, num_reducers=args.reducers, num_mappers=args.mappers)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.workers > 1:
        return _serve_supervised(args, settings)
    checkpoint_path = Path(args.checkpoint_dir) / "server.ckpt" if args.checkpoint_dir else None
    server = QueryServer(
        ExecutionContext(cluster=cluster),
        host=args.host,
        port=args.port,
        checkpoint_path=checkpoint_path,
        **asdict(settings),
    )
    try:
        return asyncio.run(run_server(server, announce=True))
    except KeyboardInterrupt:
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
