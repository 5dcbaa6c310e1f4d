"""Supervised multi-worker serving: respawn on crash, drain on restart.

:class:`ServerSupervisor` runs N :class:`~repro.serving.server.QueryServer`
workers as child processes (``python -m repro.serving.worker``), each behind
its own socket, and exposes one frontend address that routes client
connections to workers:

* **session affinity** — each connection is routed on its *first* request:
  a string ``affinity`` field is hashed (keyed blake2b, stable across
  processes and supervisor restarts) to a fixed worker, so a client's
  streaming sessions — and its retries after a crash — land on the worker
  holding (or restoring) their state.  Connections without an affinity are
  spread round-robin over READY workers.
* **crash recovery** — a heartbeat task watches the children; a crashed
  worker is respawned with exponential backoff and restores the server
  checkpoint it was writing (collections, statistics cache, stream state,
  ingest dedup table), so it comes back warm.  A worker that crash-loops —
  ``max_crashes`` exits within ``crash_window`` seconds — trips a circuit
  breaker to FAILED and is not respawned; its connections get UNAVAILABLE.
* **graceful drain** — :meth:`rolling_restart` cycles workers one at a time:
  drain verb, wait for inflight to finish and the checkpoint to land, respawn,
  readiness-gate on the ``health`` verb before touching the next worker.

While a routed worker is down (respawning or FAILED) the frontend answers the
connection's first request itself with a structured UNAVAILABLE error — a
*complete* frame, so a retrying client backs off cleanly instead of parsing a
truncated line.  After routing, the frontend is a transparent byte pump; a
worker killed mid-response surfaces to the client as a truncated frame or
reset, which the client's :class:`~repro.serving.retry.RetryPolicy` handles.

The supervisor duck-types :class:`~repro.serving.server.QueryServer` for
lifecycle purposes (async ``start``/``stop``, ``shutdown_requested``,
``address``), so :class:`~repro.serving.server.BackgroundServer` can run one
on a daemon thread for tests and benchmarks.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import deque
from hashlib import blake2b
from pathlib import Path
from typing import Any

from .protocol import (
    E_UNAVAILABLE,
    MAX_LINE_BYTES,
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
)
from .server import ServerSettings

__all__ = ["ServerSupervisor", "WorkerHandle"]

# Worker lifecycle states.
STARTING = "STARTING"
READY = "READY"
DRAINING = "DRAINING"
RESTARTING = "RESTARTING"
FAILED = "FAILED"
STOPPED = "STOPPED"

#: Respawn backoff grows by this factor per crash inside the crash window.
RESTART_MULTIPLIER = 2.0
#: Seconds a spawned worker gets to publish its port and answer ``health``.
READY_TIMEOUT = 20.0


def _affinity_index(affinity: str, num_workers: int) -> int:
    """Stable affinity → worker mapping (keyed hash, not the salted ``hash()``)."""
    digest = blake2b(affinity.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % num_workers


class WorkerHandle:
    """One supervised worker: its process, socket, checkpoint and crash history."""

    def __init__(self, worker_id: int, checkpoint_dir: Path) -> None:
        self.worker_id = worker_id
        self.state = STARTING
        self.port: int | None = None
        self.process: subprocess.Popen | None = None
        self.checkpoint_path = checkpoint_dir / f"worker-{worker_id}.ckpt"
        self.port_file = checkpoint_dir / f"worker-{worker_id}.port"
        self.crash_times: deque[float] = deque(maxlen=32)
        self.restarts = 0

    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def describe(self) -> dict[str, Any]:
        return {
            "worker": self.worker_id,
            "state": self.state,
            "port": self.port,
            "pid": self.process.pid if self.process is not None else None,
            "restarts": self.restarts,
        }


class ServerSupervisor:
    """Run, watch and route to N query-server worker processes.

    ``port=0`` binds the frontend on an ephemeral port (read :attr:`address`
    after :meth:`start`).  ``checkpoint_dir=None`` creates a private directory
    (removed on :meth:`stop`); pass a path to keep checkpoints across
    supervisor restarts.  The keyword ``settings`` are
    :class:`~repro.serving.server.ServerSettings` fields, forwarded to every
    worker.  All methods must run on one event loop — the supervisor owns no
    locks, exactly like the server it multiplies.
    """

    def __init__(
        self,
        num_workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        checkpoint_dir: str | Path | None = None,
        *,
        heartbeat_interval: float = 0.25,
        restart_base: float = 0.1,
        restart_cap: float = 2.0,
        max_crashes: int = 5,
        crash_window: float = 30.0,
        **settings: Any,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        # Checked before any directory or process exists, so a bad value
        # leaves nothing behind.
        self.settings = ServerSettings(**settings)
        self.num_workers = num_workers
        self.host = host
        self.port = port
        self.heartbeat_interval = heartbeat_interval
        self.restart_base = restart_base
        self.restart_cap = restart_cap
        self.max_crashes = max_crashes
        self.crash_window = crash_window
        self._owns_checkpoint_dir = checkpoint_dir is None
        if checkpoint_dir is None:
            self.checkpoint_dir = Path(tempfile.mkdtemp(prefix="repro-serve-ckpt-"))
        else:
            self.checkpoint_dir = Path(checkpoint_dir)
        self.workers = [
            WorkerHandle(worker_id, self.checkpoint_dir)
            for worker_id in range(num_workers)
        ]
        self.shutdown_requested = asyncio.Event()
        self.respawns = 0
        self._frontend: asyncio.base_events.Server | None = None
        self._monitor_task: asyncio.Task | None = None
        self._active: set[asyncio.Task] = set()
        self._round_robin = 0

    # -------------------------------------------------------------- lifecycle
    @property
    def address(self) -> tuple[str, int]:
        """The frontend (host, port) — valid after :meth:`start`."""
        if self._frontend is None:
            raise RuntimeError("supervisor is not started")
        sock = self._frontend.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> tuple[str, int]:
        """Spawn all workers, wait until READY, then open the frontend."""
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        for handle in self.workers:
            self._spawn(handle)
        ready = await asyncio.gather(*[self._wait_ready(handle) for handle in self.workers])
        if not all(ready):
            failed = [h.worker_id for h, ok in zip(self.workers, ready) if not ok]
            await self.stop()
            raise RuntimeError(f"workers failed to become ready: {failed}")
        self._frontend = await asyncio.start_server(
            self._serve_frontend_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self._monitor_task = asyncio.get_running_loop().create_task(self._monitor())
        return self.address

    async def stop(self) -> None:
        """Stop the frontend, terminate every worker, clean owned state."""
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except asyncio.CancelledError:
                pass
            self._monitor_task = None
        if self._frontend is not None:
            self._frontend.close()
            try:
                await asyncio.wait_for(self._frontend.wait_closed(), timeout=5)
            except asyncio.TimeoutError:
                pass
            self._frontend = None
        for task in list(self._active):
            task.cancel()
        if self._active:
            await asyncio.gather(*self._active, return_exceptions=True)
        for handle in self.workers:
            await self._terminate(handle)
        if self._owns_checkpoint_dir:
            shutil.rmtree(self.checkpoint_dir, ignore_errors=True)
        self.shutdown_requested.set()

    async def _terminate(self, handle: WorkerHandle) -> None:
        handle.state = STOPPED
        if not handle.alive():
            return
        handle.process.terminate()  # SIGTERM → worker drains and checkpoints
        if not await self._wait_exit(handle, self.settings.drain_timeout + 5.0):
            handle.process.kill()
            await self._wait_exit(handle, 5.0)

    async def _wait_exit(self, handle: WorkerHandle, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not handle.alive():
                return True
            await asyncio.sleep(0.02)
        return not handle.alive()

    # ------------------------------------------------------------- spawning
    def _spawn(self, handle: WorkerHandle) -> None:
        handle.port_file.unlink(missing_ok=True)
        handle.port = None
        command = [sys.executable, "-m", "repro.serving.worker", "--host", self.host, "--port", "0"]
        command += ["--worker-id", str(handle.worker_id), "--port-file", str(handle.port_file)]
        command += ["--checkpoint", str(handle.checkpoint_path), "--parent-pid", str(os.getpid())]
        command += self.settings.argv()
        # The spawned interpreter must import `repro` even when the parent got
        # it from a pytest pythonpath entry that does not propagate.
        package_root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            str(package_root) if not existing else f"{package_root}{os.pathsep}{existing}"
        )
        handle.process = subprocess.Popen(command, env=env)

    def _read_port(self, handle: WorkerHandle) -> int | None:
        try:
            text = handle.port_file.read_text(encoding="utf-8").strip()
        except OSError:
            return None
        if not text:
            return None
        try:
            return int(text.split()[1])
        except (IndexError, ValueError):
            return None

    async def _wait_ready(self, handle: WorkerHandle) -> bool:
        """Poll the port file, then readiness-gate on the ``health`` verb."""
        deadline = time.monotonic() + READY_TIMEOUT
        while time.monotonic() < deadline:
            if not handle.alive():
                return False
            port = self._read_port(handle)
            if port is not None:
                handle.port = port
                if await self._probe_health(handle):
                    handle.state = READY
                    return True
            await asyncio.sleep(0.05)
        return False

    async def _probe_health(self, handle: WorkerHandle) -> bool:
        if handle.port is None:
            return False
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, handle.port), timeout=2.0
            )
        except (OSError, asyncio.TimeoutError):
            return False
        try:
            writer.write(encode_message({"id": 0, "verb": "health"}))
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout=2.0)
            response = decode_message(line)
            return bool(response.get("ok")) and response.get("status") == "ok"
        except (OSError, asyncio.TimeoutError, ProtocolError):
            return False
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionResetError):
                pass

    # ------------------------------------------------------------- monitoring
    async def _monitor(self) -> None:
        """Heartbeat loop: respawn crashed workers, trip the circuit breaker."""
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            for handle in self.workers:
                # DRAINING workers are owned by rolling_restart; FAILED and
                # STOPPED ones are terminal.
                if handle.state in (DRAINING, FAILED, STOPPED):
                    continue
                if not handle.alive():
                    await self._respawn(handle)

    async def _respawn(self, handle: WorkerHandle) -> None:
        now = time.monotonic()
        handle.crash_times.append(now)
        recent = [t for t in handle.crash_times if now - t <= self.crash_window]
        if len(recent) >= self.max_crashes:
            handle.state = FAILED
            return
        handle.state = RESTARTING
        backoff = min(
            self.restart_base * RESTART_MULTIPLIER ** (len(recent) - 1),
            self.restart_cap,
        )
        await asyncio.sleep(backoff)
        self._spawn(handle)
        self.respawns += 1
        handle.restarts += 1
        if not await self._wait_ready(handle):
            # Never became ready: count it as another crash (the breaker will
            # trip if this keeps happening) and let the next heartbeat retry.
            if handle.alive():
                handle.process.kill()
            await self._wait_exit(handle, 5.0)

    # -------------------------------------------------------- rolling restart
    async def rolling_restart(self, drain_timeout_ms: int | None = None) -> int:
        """Drain and respawn workers one at a time, readiness-gated.

        Each worker gets the ``drain`` verb (new work rejected with DRAINING,
        inflight queries finish, state checkpointed, process exits), is
        respawned warm from its checkpoint, and must answer ``health`` with
        ``"ok"`` before the next worker is touched — so at most one worker is
        down at any moment.  Returns the number of workers cycled.
        """
        cycled = 0
        for handle in self.workers:
            if handle.state in (FAILED, STOPPED):
                continue
            handle.state = DRAINING
            await self._drain_worker(handle, drain_timeout_ms)
            budget = (
                self.settings.drain_timeout
                if drain_timeout_ms is None
                else drain_timeout_ms / 1000.0
            )
            if not await self._wait_exit(handle, budget + 10.0):
                handle.process.kill()
                await self._wait_exit(handle, 5.0)
            handle.state = RESTARTING
            self._spawn(handle)
            handle.restarts += 1
            if not await self._wait_ready(handle):
                raise RuntimeError(
                    f"worker {handle.worker_id} did not come back after rolling restart"
                )
            cycled += 1
        return cycled

    async def _drain_worker(self, handle: WorkerHandle, timeout_ms: int | None) -> None:
        """Send the drain verb directly to one worker (SIGTERM as fallback)."""
        request: dict[str, Any] = {"id": 0, "verb": "drain"}
        if timeout_ms is not None:
            request["timeout_ms"] = timeout_ms
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, handle.port), timeout=2.0
            )
        except (OSError, asyncio.TimeoutError):
            if handle.alive():
                handle.process.terminate()
            return
        try:
            writer.write(encode_message(request))
            await writer.drain()
            await asyncio.wait_for(reader.readline(), timeout=5.0)
        except (OSError, asyncio.TimeoutError):
            if handle.alive():
                handle.process.terminate()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionResetError):
                pass

    # ---------------------------------------------------------------- routing
    def worker_for(self, affinity: str) -> WorkerHandle:
        """The worker an affinity token routes to (tests kill this one)."""
        return self.workers[_affinity_index(affinity, self.num_workers)]

    def _route(self, affinity: str | None) -> WorkerHandle | None:
        """Pick the connection's worker; ``None`` when it cannot serve now."""
        if affinity is not None:
            handle = self.worker_for(affinity)
            # Affinity pins the session to the worker holding its state; a
            # worker mid-respawn answers UNAVAILABLE (retryable) rather than
            # failing over to a worker without that state.
            return handle if handle.state == READY else None
        ready = [handle for handle in self.workers if handle.state == READY]
        if not ready:
            return None
        handle = ready[self._round_robin % len(ready)]
        self._round_robin += 1
        return handle

    async def _serve_frontend_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Route on the first request, then pump bytes both ways."""
        task = asyncio.current_task()
        if task is not None:
            self._active.add(task)
        try:
            while True:
                try:
                    first = await reader.readline()
                except ValueError:
                    first = b""
                if not first:
                    return
                affinity: str | None = None
                request_id: Any = None
                try:
                    request = decode_message(first)
                    request_id = request.get("id")
                    raw_affinity = request.get("affinity")
                    affinity = raw_affinity if isinstance(raw_affinity, str) else None
                except ProtocolError:
                    pass  # let the worker produce the BAD_REQUEST response
                handle = self._route(affinity)
                backend = None
                if handle is not None and handle.port is not None:
                    try:
                        backend = await asyncio.wait_for(
                            asyncio.open_connection(self.host, handle.port), timeout=2.0
                        )
                    except (OSError, asyncio.TimeoutError):
                        backend = None
                if backend is not None:
                    break
                # Answer on the same connection and re-route the next request:
                # a retrying client must be able to sit out a respawn without
                # its retries dying on a half-closed socket.
                error = ProtocolError(
                    E_UNAVAILABLE,
                    "no worker available for this session; retry with backoff",
                    {"affinity": affinity},
                )
                writer.write(encode_message(error_response(request_id, error)))
                await writer.drain()
            worker_reader, worker_writer = backend
            try:
                worker_writer.write(first)
                await worker_writer.drain()
                await asyncio.gather(
                    self._pump(reader, worker_writer),
                    self._pump(worker_reader, writer),
                )
            finally:
                worker_writer.close()
                try:
                    await worker_writer.wait_closed()
                except (OSError, ConnectionResetError):
                    pass
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass  # stop() cancels lingering connections; exit quietly
        finally:
            if task is not None:
                self._active.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, ConnectionResetError, RuntimeError):
                pass

    @staticmethod
    async def _pump(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        """Copy bytes until EOF, then half-close so the peer sees the EOF too."""
        try:
            while True:
                chunk = await reader.read(64 * 1024)
                if not chunk:
                    break
                writer.write(chunk)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            try:
                if writer.can_write_eof():
                    writer.write_eof()
            except (OSError, RuntimeError):
                pass

    # ------------------------------------------------------------------ stats
    def describe(self) -> dict[str, Any]:
        """A snapshot of worker states for operators and tests."""
        return {
            "num_workers": self.num_workers,
            "respawns": self.respawns,
            "workers": [handle.describe() for handle in self.workers],
        }
