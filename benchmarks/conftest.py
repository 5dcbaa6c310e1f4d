"""Shared helpers for the benchmark harness.

Every benchmark measures one engineering property (backends, kernels, shuffle,
serving, streaming, durability) and records its table under
``benchmarks/results/``.  The paper's own figures are not benchmarks: they are
the ``FIGURES`` rows of ``repro.experiments``, checked on exact counters in
REPRODUCTION.md (``python -m repro.experiments reproduce``).  The
pytest-benchmark timings measure the end-to-end driver; the interesting
quantities (per-phase times, shuffle volume, pruning rates) are inside the
recorded tables.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def record_table():
    """Persist a ResultTable under benchmarks/results/ and echo it to stdout."""

    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(name: str, table) -> None:
        text = table.to_text()
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _record


@pytest.fixture(autouse=True)
def _default_benchmark_meta(request):
    """Stamp workload/kernel/backend metadata into every BENCH_*.json payload.

    Payloads are only comparable like-for-like, so every one must say what
    configuration it measured.  Defaults describe the common case (the
    benchmark's own workload on the scalar kernel over the serial backend);
    benchmarks that sweep kernels or backends override them explicitly.
    """
    if "benchmark" in request.fixturenames:
        benchmark = request.getfixturevalue("benchmark")
        benchmark.extra_info.setdefault(
            "workload", request.node.name.removeprefix("bench_")
        )
        benchmark.extra_info.setdefault("kernel", "scalar")
        benchmark.extra_info.setdefault("backend", "serial")
    yield
