"""Measurement primitives of the perf ledger: clocks, quantiles, /proc readers.

Everything here observes the system under test from the outside — wall clock,
the CPU and peak RSS of a process tree read from ``/proc``, a calibration loop
that says how fast the host was — so nothing under ``src/`` has to change for
the ledger to measure it.
"""

from __future__ import annotations

import ctypes
import os
import platform
import signal
import statistics
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "quantile",
    "median",
    "process_tree",
    "tree_cpu_seconds",
    "tree_peak_rss_mb",
    "adopt_orphans",
    "reap_descendants",
    "calibration_ms",
    "host_fingerprint",
]

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def quantile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of ``samples`` (``q`` in [0, 1])."""
    if not samples:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(samples: Iterable[float]) -> float:
    """Median that answers 0.0 on an empty sample (a layer that never ran)."""
    values = list(samples)
    return statistics.median(values) if values else 0.0


# ------------------------------------------------------------------ /proc tree
def _stat_fields(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name (``None`` once gone)."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name sits in parentheses and may itself contain spaces.
    return text[text.rindex(")") + 2 :].split()


def process_tree(root: int) -> list[int]:
    """``root`` plus every live descendant (pool workers of the process backend)."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parents[int(entry)] = int(fields[1])
    tree = [root]
    for pid in tree:
        tree.extend(child for child, parent in parents.items() if parent == pid)
    return tree


def tree_cpu_seconds(root: int) -> float:
    """User+system CPU of the tree, reaped children included.

    Fields 14-17 of ``stat`` are utime, stime, cutime, cstime: a live worker
    counts through its own utime/stime, one that already exited through its
    parent's cutime/cstime, so a pool that recycles workers loses nothing.
    """
    ticks = 0
    for pid in process_tree(root):
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += sum(int(value) for value in fields[11:15])
    return ticks / _CLOCK_TICKS


def tree_peak_rss_mb(root: int) -> float:
    """Sum of ``VmHWM`` (peak resident set) over the live tree, in MiB."""
    total_kb = 0
    for pid in process_tree(root):
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


# ------------------------------------------------------------ leaving nothing
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the parent of every descendant whose own parent exits.

    Without it a helper of a helper (a server's pool worker, a
    ``resource_tracker``) that outlives its parent is handed to pid 1, where
    :func:`reap_descendants` can neither see it end nor wait for it.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux: direct children are still reaped
        pass


def reap_descendants(grace: float = 5.0) -> int:
    """Stop every process this one still has below it and wait until each ended.

    Called last thing before a pass exits, on every path out.  The workloads
    stop what they start; what is left here is what the library started behind
    their back — above all multiprocessing's ``resource_tracker``, which a
    shared-memory transfer spawns and which otherwise ends only *after* its
    parent, as an orphan.  Returns how many processes it had to signal.
    """
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        try:
            stop()  # closes its pipe (it ignores SIGTERM) and waits for it
        except (OSError, ChildProcessError):
            pass
    signalled: set[int] = set()
    for signum in (signal.SIGTERM, signal.SIGKILL):
        deadline = time.monotonic() + grace
        while alive := _live_descendants():
            for pid in alive - signalled if signum == signal.SIGTERM else alive:
                try:
                    os.kill(pid, signum)
                except ProcessLookupError:
                    pass
            signalled |= alive
            if time.monotonic() >= deadline:
                break
            time.sleep(0.01)
    _live_descendants()
    return len(signalled)


def _live_descendants() -> set[int]:
    """Collect the children that have ended; answer the descendants that have not."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid == 0:
            break
    alive = set()
    for pid in process_tree(os.getpid())[1:]:
        fields = _stat_fields(pid)
        if fields is not None and fields[0] != "Z":
            alive.add(pid)
    return alive


# ---------------------------------------------------------------------- host
def calibration_ms() -> float:
    """A fixed pure-Python + numpy loop; its wall time says how fast the host is now.

    The shared 2-core hosts this runs on slow down by 20-30 % for minutes at
    a time (CPU time per operation rises with wall time: the cores themselves
    get slower).  The loop is timed before and after every pass so that a
    reader — and ``compare.py`` — can tell a slow host from slow code.
    """
    started = time.perf_counter()
    total = 0
    for value in range(40_000):
        total += value * value % 7
    grid = np.arange(60_000, dtype=np.float64)
    for _ in range(10):
        total += float(np.sqrt(grid * 1.0001 + 1.0).sum())
    if total < 0:  # keeps the loop's result alive
        raise AssertionError
    return (time.perf_counter() - started) * 1000.0


def host_fingerprint() -> dict[str, object]:
    """What a reader needs to judge whether two ledgers are comparable."""
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
