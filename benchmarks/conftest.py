"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at laptop scale and
records the resulting series under ``benchmarks/results/`` so the numbers can be
compared against the paper's shapes (see EXPERIMENTS.md).  The pytest-benchmark
timings measure the end-to-end driver; the interesting quantities (per-phase times,
shuffle volume, pruning rates) are inside the recorded tables.
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
