"""The run loop of a query-server process, and the supervised worker entry point.

:func:`run_server` serves both single-mode ``serve`` and ``python -m
repro.serving.worker`` (the module :class:`ServerSupervisor` spawns — a module,
not a ``-c`` script, so a process listing and the CI orphan check find it):

* restore the checkpoint file — its snapshot, then every change logged
  after it — when it exists and is readable, so a respawned worker comes
  back warm; a corrupt checkpoint, or one of an older format, starts cold,
  never crash-loops;
* drain on SIGTERM: reject new work with DRAINING, give inflight queries the
  drain timeout, rewrite the checkpoint as one fresh snapshot, exit 0;
* announce the bound address — ``serving on HOST:PORT`` on stdout, or
  atomically to the port file the supervisor polls;
* with a parent pid, drain when re-parented: a worker whose supervisor died
  by SIGKILL or OOM does not linger as an orphan.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys
from dataclasses import asdict
from pathlib import Path

from .server import QueryServer, add_server_flags, server_settings

__all__ = ["main", "run_server"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.serving.worker",
        description="One supervised query-server worker process.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 binds an ephemeral port")
    parser.add_argument("--worker-id", type=int, default=0)
    parser.add_argument("--checkpoint", default=None, help="server checkpoint file")
    parser.add_argument(
        "--port-file", default=None, help="publish the bound 'host port' here"
    )
    parser.add_argument(
        "--parent-pid",
        type=int,
        default=None,
        help="drain when this process is no longer the parent (orphan watchdog)",
    )
    add_server_flags(parser)
    return parser


def _publish_address(port_file: str, host: str, port: int) -> None:
    """Atomically write the bound address (the supervisor polls for this file)."""
    path = Path(port_file)
    staging = path.with_name(path.name + ".tmp")
    staging.write_text(f"{host} {port}\n", encoding="utf-8")
    os.replace(staging, path)


async def _watch_parent(server: QueryServer, parent: int, interval: float = 1.0) -> None:
    """Drain when the parent process dies (the worker gets re-parented).

    The supervisor passes its own pid explicitly: a worker whose parent died
    before this first runs is already re-parented, and comparing against a
    pid recorded *now* would miss that.
    """
    while True:
        if os.getppid() != parent:
            print(
                f"worker {server.worker_id}: supervisor died; draining",
                file=sys.stderr,
            )
            server.begin_drain()
            return
        await asyncio.sleep(interval)


async def run_server(
    server: QueryServer,
    *,
    port_file: str | None = None,
    parent_pid: int | None = None,
    announce: bool = False,
) -> int:
    """Serve until shutdown, then stop and close the server's context.

    Returns the process exit status: 1 when the address cannot be bound.
    """
    label = "server" if server.worker_id is None else f"worker {server.worker_id}"
    watchdog: asyncio.Task | None = None
    try:
        checkpoint = server.checkpoint_path
        if checkpoint is not None and checkpoint.exists():
            try:
                server.restore_state(checkpoint)
                print(
                    f"{label}: restored checkpoint ({len(server.collections)} collections)",
                    file=sys.stderr,
                )
            except ValueError as error:
                print(f"{label}: starting cold ({error})", file=sys.stderr)
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, server.begin_drain)
        try:
            host, port = await server.start()
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        if announce:
            print(f"serving on {host}:{port}", flush=True)
        if port_file:
            _publish_address(port_file, host, port)
        if parent_pid is not None:
            watchdog = asyncio.create_task(_watch_parent(server, parent_pid))
        await server.shutdown_requested.wait()
    finally:
        if watchdog is not None:
            watchdog.cancel()
            await asyncio.gather(watchdog, return_exceptions=True)
        await server.stop()
        server.context.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        settings = server_settings(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    server = QueryServer(
        host=args.host,
        port=args.port,
        worker_id=args.worker_id,
        checkpoint_path=args.checkpoint,
        **asdict(settings),
    )
    try:
        return asyncio.run(
            run_server(server, port_file=args.port_file, parent_pid=args.parent_pid)
        )
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
