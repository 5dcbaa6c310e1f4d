"""Smoke test of the perf ledger (``pytest benchmarks/ledger``, tiny ``--smoke`` inputs).

Checks the instrument, not the program: every workload and metric that
``BENCHMARK.json`` names is emitted in the driver's output form, names and
units are well-formed, the traced pass writes well-formed spans, exact counts
repeat for a seed, a deliberately bad operation is counted as failed, and a
pass takes every process below it along when it ends.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
import registry
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def driver_pass(workload: str, trace: int) -> dict:
    """One pass in the form the benchmark driver runs; its last line, parsed."""
    command = [sys.executable, str(run.HERE / "run.py"), "--smoke", "--workload", workload]
    command += ["--seed", "11", "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(command, cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def passes() -> dict[tuple[str, int], dict]:
    """All eight passes, two at a time (the checks below do not read timings).

    ``table1_mix``'s traced pass runs a second time, under the key
    ``("again", 1)``, for the exact-count check.
    """
    keys = [(workload, trace) for trace in (1, 0) for workload in WORKLOADS] + [("again", 1)]
    names = {"again": "table1_mix"}
    with ThreadPoolExecutor(max_workers=2) as pool:
        lines = pool.map(lambda key: driver_pass(names.get(key[0], key[0]), key[1]), keys)
        return dict(zip(keys, lines))


def bench_benchmark_json_matches_the_registry():
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]
    assert set(WORKLOADS) == {"serve_warm", "table1_mix", "scale_auto", "stream_durable"}
    listed = {entry["name"]: entry for entry in BENCHMARK["end_to_end"]}
    bounded = {n: v for n, v in registry.END_TO_END.items() if n != "latency_p90_ms"}
    assert {n: (e["unit"], e["better"]) for n, e in listed.items()} == bounded
    assert all(0 < entry["bound"] <= 0.25 for entry in listed.values())
    layers = {e["name"]: (e["unit"], e["better"]) for e in BENCHMARK["per_layer"]}
    assert layers == {name: registry.PER_LAYER[name] for name in registry.UNIVERSAL}
    for name, (unit, better) in {**registry.END_TO_END, **registry.PER_LAYER}.items():
        assert NAME.fullmatch(name) and UNIT.fullmatch(unit) and better in ("lower", "higher")


@pytest.mark.parametrize("workload", WORKLOADS)
def bench_every_listed_metric_is_emitted(passes, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        line = passes[workload, trace]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        expected = {entry["name"]: entry["unit"] for entry in BENCHMARK[section]}
        assert {n: m["unit"] for n, m in line["metrics"].items()} == expected
        assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    assert all(m["value"] > 0 for m in passes[workload, 0]["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def bench_layer_metrics_cover_the_layers_a_workload_traverses(passes, workload):
    full = json.loads((run.OUT / f"{workload}.traced.json").read_text())["metrics"]
    assert set(full) <= set(registry.PER_LAYER)
    assert set(registry.UNIVERSAL) <= set(full)
    served = workload in ("serve_warm", "stream_durable")
    assert ("serving.wire_ms" in full) == served
    assert ("streaming.replans" in full) == (workload == "stream_durable")
    assert ("mapreduce.backend_s.process" in full) == (workload == "scale_auto")


@pytest.mark.parametrize("workload", WORKLOADS)
def bench_spans_are_well_formed(passes, workload):
    spans = json.loads((run.OUT / f"trace_{workload}.json").read_text())
    by_id = {span["span_id"]: span for span in spans}
    assert len(spans) > 10
    for span in spans:
        assert span["end"] >= span["start"] and span["self_seconds"] >= 0
        if span["parent_id"] is not None:
            parent = by_id[span["parent_id"]]
            assert parent["trace_id"] == span["trace_id"]
            assert parent["start"] - 1e-6 <= span["start"] <= span["end"] <= parent["end"] + 1e-6
    names = {span["name"] for span in spans}
    assert {"library.run", "plan.plan", "core.join", "mapreduce.job:tkij-join"} <= names
    assert "mapreduce.reduce_task" in names


def bench_exact_counts_repeat_for_a_seed(passes):
    again = passes["again", 1]["metrics"]
    first = passes["table1_mix", 1]["metrics"]
    for name in registry.EXACT & set(first):
        assert again[name]["value"] == first[name]["value"], name


def bench_a_bad_operation_is_counted_as_failed(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    result = run.run_pass("table1_mix", 11, 0.5, trace=False, smoke=True, sabotage=True)
    assert result["failed"] == 1 and result["attempted"] > 1
    assert result["correct"] is False and "Qx,x" in result["problems"][0]
    assert not list(tmp_path.glob("scratch-*"))


LEAKY = """
import json, os, subprocess, measure
from multiprocessing import shared_memory
measure.adopt_orphans()
segment = shared_memory.SharedMemory(create=True, size=64)  # spawns the resource_tracker
segment.close(), segment.unlink()
subprocess.run(["sh", "-c", "sleep 60 & exit 0"])  # an orphan: its parent is gone
below = measure.process_tree(os.getpid())[1:]
measure.reap_descendants(grace=1.0)
print(json.dumps(below))
"""


def bench_a_pass_leaves_no_process_behind():
    done = subprocess.run(
        [sys.executable, "-c", LEAKY], cwd=run.HERE, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr[-2000:]
    below = json.loads(done.stdout.strip().splitlines()[-1])
    assert len(below) == 2, below  # the tracker and the orphan
    assert not [pid for pid in below if Path(f"/proc/{pid}").exists()]
