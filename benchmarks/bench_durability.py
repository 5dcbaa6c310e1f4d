"""Durability benchmark — a checkpointing server logs the change, not the world.

A server started with a checkpoint path keeps one file: a log whose first
record is a snapshot, to which it appends one digest-framed record per
state-changing verb; it rewrites the file as one fresh snapshot only when the
changes have grown to the snapshot's size (DESIGN.md §13).  Two gates, both
exact (no timing ratio), so the step is blocking in CI:

* **O(change) writes.** One tick of a stream — three ``ingest`` of 25
  intervals and one ``tkij-streaming`` query, the ``stream_durable`` shapes —
  grows the checkpoint file, right after a compaction, by the same number of
  bytes whether 1 or 40 other streams are registered on the server.
* **Crash recovery.** A single-mode ``serve --checkpoint-dir`` process is
  SIGKILLed mid-life — after a tick's ingests, before its query — and
  restarted on the same directory; the restarted server's answers to the
  rest of the life are ``==`` an uninterrupted in-process reference
  (results, metrics, ``statistics_cached``).

The median milliseconds a write spends persisting (pickling and appending
its record, or compacting) at 1 and 40 other streams land in
``extra_info``.  Run it with ``python -m pytest
benchmarks/bench_durability.py -q`` (about 10 s).
"""

from __future__ import annotations

import os
import random
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.serving import BackgroundServer, QueryClient, QueryServer

BASE = 100  # intervals a stream opens with
BATCH = 25  # intervals per ingest
TICKS = 3
CROWD = 40
QUERY = {
    "query": "Qo,m",
    "k": 20,
    "algorithm": "tkij-streaming",
    "options": {"num_granules": 20, "stream_id": "durability"},
}
SRC = Path(__file__).resolve().parents[1] / "src"


def rows(stream: str, index: int, tick: int) -> list[list[float]]:
    """Collection ``index`` of ``stream``: its opening (tick -1) or one batch.

    Two anchors at the ends of [0, 5 000] keep every batch inside the range
    the stream's first plan was built on.
    """
    rng = random.Random(f"{stream}/{index}/{tick}")
    if tick < 0:
        first, size, anchors = 0, BASE - 2, [[BASE - 2, 0.0, 1.0], [BASE - 1, 4999.0, 5000.0]]
    else:
        first, size, anchors = BASE + tick * BATCH, BATCH, []
    triples = []
    for offset in range(size):
        start = rng.uniform(10.0, 4900.0)
        triples.append([first + offset, start, start + rng.uniform(1.0, 80.0)])
    return triples + anchors


def names(stream: str) -> list[str]:
    return [f"{stream}{vertex}" for vertex in range(3)]


def answer(response: dict) -> tuple:
    return response["results"], response["metrics"], response["statistics_cached"]


def open_stream(client: QueryClient, stream: str) -> tuple:
    for index, name in enumerate(names(stream)):
        client.register(name, rows(stream, index, -1), streaming=True)
    return answer(client.query(collections=names(stream), **QUERY))


def ingest(client: QueryClient, stream: str, tick: int) -> None:
    for index, name in enumerate(names(stream)):
        client.ingest(name, rows(stream, index, tick), seq=tick)


def tick(client: QueryClient, stream: str, tick: int) -> tuple:
    ingest(client, stream, tick)
    return answer(client.query(collections=names(stream), **QUERY))


class TimedServer(QueryServer):
    """A query server that times every persist (record append or compaction)."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.persist_seconds: list[float] = []

    def _persist(self) -> None:
        started = time.perf_counter()
        super()._persist()
        self.persist_seconds.append(time.perf_counter() - started)


def tick_cost(scratch: Path, others: int) -> tuple[int, float]:
    """Log bytes of one tick of stream ``T`` and the median persist
    milliseconds of its writes, with ``others`` other streams opened first."""
    path = scratch / f"others-{others}" / "server.ckpt"
    server = TimedServer(checkpoint_path=path)
    background = BackgroundServer(server)
    host, port = background.start()
    try:
        with QueryClient(host, port) as client:
            for stream in [f"O{index}-" for index in range(others)] + ["T"]:
                open_stream(client, stream)

            async def compact() -> None:
                server.checkpoint(path)

            # Start the tick's records right after a fresh snapshot, so no
            # compaction falls inside the tick being measured.
            background.run_coroutine(compact())
            before = path.stat().st_size
            server.persist_seconds.clear()
            tick(client, "T", 0)
            written = path.stat().st_size - before
    finally:
        background.stop()
    return written, statistics.median(server.persist_seconds) * 1000.0


class ServeProcess:
    """``python -m repro.experiments serve --checkpoint-dir`` as a child process."""

    def __init__(self, checkpoint_dir: Path) -> None:
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "serve", "--port", "0"]
            + ["--checkpoint-dir", str(checkpoint_dir)],
            env={**os.environ, "PYTHONPATH": path},
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        deadline = time.monotonic() + 60.0
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([self.process.stdout], [], [], remaining)[0]:
                self.kill()
                raise RuntimeError("the server did not announce its address")
            line = self.process.stdout.readline()
            if not line:
                self.kill()
                raise RuntimeError("the server exited before serving")
            if line.startswith("serving on "):
                host, port = line.split()[-1].rsplit(":", 1)
                self.address = host, int(port)
                return

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait()
        self.process.stdout.close()


def crash_and_resume(scratch: Path) -> tuple[list[tuple], list[tuple]]:
    """One stream life against an uninterrupted reference and against a
    durable server SIGKILLed after tick 1's ingests, then restarted."""
    background = BackgroundServer(QueryServer())
    host, port = background.start()
    try:
        with QueryClient(host, port) as client:
            reference = [open_stream(client, "L")]
            reference += [tick(client, "L", index) for index in range(TICKS)]
    finally:
        background.stop()

    checkpoint_dir = scratch / "serve"
    server = ServeProcess(checkpoint_dir)
    try:
        with QueryClient(*server.address) as client:
            resumed = [open_stream(client, "L"), tick(client, "L", 0)]
            ingest(client, "L", 1)
    finally:
        server.kill()  # SIGKILL: no drain, no final snapshot
    server = ServeProcess(checkpoint_dir)
    try:
        with QueryClient(*server.address) as client:
            resumed.append(answer(client.query(collections=names("L"), **QUERY)))
            resumed += [tick(client, "L", index) for index in range(2, TICKS)]
    finally:
        server.kill()
    return reference, resumed


def durability() -> dict[str, float]:
    with tempfile.TemporaryDirectory(prefix="repro-durability-") as scratch:
        alone_bytes, alone_ms = tick_cost(Path(scratch), 1)
        crowd_bytes, crowd_ms = tick_cost(Path(scratch), CROWD)
        assert alone_bytes == crowd_bytes > 0, (alone_bytes, crowd_bytes)
        reference, resumed = crash_and_resume(Path(scratch))
        assert resumed == reference
    return {
        "tick_log_bytes": alone_bytes,
        "persist_ms_1_stream": alone_ms,
        f"persist_ms_{CROWD}_streams": crowd_ms,
    }


def bench_durability(benchmark):
    measured = benchmark.pedantic(durability, rounds=1, iterations=1)
    benchmark.extra_info.update(workload="durability", **measured)
