"""Perf ledger — the repository's benchmark, behind one command.

    python3 benchmarks/ledger/run.py --seed 7 [--trace 1] [--repeat 3]

runs the four workloads of ``BENCHMARK.json`` (each in a child process, so
peak memory and CPU are per workload), prints every metric by name with its
unit, checks every answer, and writes ``out/ledger.json`` + ``out/LEDGER.md``.
End-to-end numbers are taken with tracing off; ``--trace 1`` adds a separate,
shorter traced pass per workload that yields the per-layer metrics and
``out/trace_<workload>.json``.

    python3 benchmarks/ledger/run.py --workload serve_warm --seed 7 --seconds 20 --trace 0

is one pass of one workload — the form the benchmark driver calls.  Its last
line of output is one JSON object: ``correct``, ``attempted``, ``failed`` and
the ``metrics`` that ``BENCHMARK.json`` lists for that pass.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Sequence

import measure as host
import registry
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
SETUP_REPEATS = 3
"""Set-ups per run; ``setup_s`` is their median (one set-up is one noisy sample)."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one pass of this workload (driver form)")
    parser.add_argument("--seed", type=int, default=7, help="seed of every generated input")
    parser.add_argument(
        "--seconds", type=float, default=None, help="measured window (default: run_seconds)"
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0, help="1: the traced per-layer pass"
    )
    parser.add_argument("--repeat", type=int, default=1, help="full runs to take (ledger form)")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (the smoke test's)")
    return parser


# ------------------------------------------------------------------ one pass
def run_pass(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False, sabotage: bool = False
) -> dict[str, Any]:
    """One pass of one workload; returns (and writes under ``out/``) its result.

    ``sabotage`` appends one deliberately malformed operation to the window —
    the smoke test's proof that a failure is counted.
    """
    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    # Spill directories and pool sockets of in-process jobs follow TMPDIR;
    # keep them inside the checkout, where the sweep below finds them.
    os.environ["TMPDIR"] = str(scratch)
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    workloads = importlib.import_module("workloads")
    import_seconds = time.perf_counter() - started

    scale = "smoke" if smoke else "full"
    workload = workloads.WORKLOADS[name](seed, workloads.SIZES[scale], scratch)
    calibration = [host.median(host.calibration_ms() for _ in range(5))]
    try:
        if trace:
            metrics, attempted, failed = traced_pass(workload)
        else:
            metrics, attempted, failed = end_to_end_pass(
                workload, seconds, import_seconds, sabotage
            )
    finally:
        workload.stop()
        sweep(scratch)
    calibration.append(host.median(host.calibration_ms() for _ in range(5)))
    if trace:
        metrics["host.calibration_ms_before"], metrics["host.calibration_ms_after"] = calibration
    result = {
        "workload": name,
        "pass": "traced" if trace else "end_to_end",
        "seed": seed,
        "seconds": seconds,
        "sizes": scale,
        "clients": workload.clients,
        "correct": not workload.problems,
        "attempted": attempted,
        "failed": failed,
        "problems": workload.problems[:20],
        "calibration_ms": calibration,
        "metrics": {
            metric: {"value": value, "unit": registry.unit_of(metric)}
            for metric, value in metrics.items()
        },
    }
    (OUT / f"{name}.{result['pass']}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def end_to_end_pass(
    workload: Any, seconds: float, import_seconds: float, sabotage: bool
) -> tuple[dict[str, float], int, int]:
    """Set-up (repeated), the measured window with tracing off, verification."""
    setups = []
    for _ in range(SETUP_REPEATS):
        workload.stop()
        started = time.perf_counter()
        workload.start()
        setups.append(time.perf_counter() - started)
    workload.warm_up()
    pid = workload.pid()
    cpu_before = host.tree_cpu_seconds(pid)
    started = time.perf_counter()
    samples = workload.window(seconds)
    wall = time.perf_counter() - started
    cpu_seconds = host.tree_cpu_seconds(pid) - cpu_before
    peak_rss = host.tree_peak_rss_mb(pid)
    if sabotage:
        samples.append(workload.sabotage())
    try:
        workload.verify()
    except Exception as error:  # noqa: BLE001 - a verification that cannot run has failed
        workload.note(f"verification could not run: {error!r}")
    good = [sample.seconds * 1000.0 for sample in samples if not sample.failed]
    if not good:
        raise SystemExit(f"{workload.name}: no operation succeeded: {workload.problems[:5]}")
    metrics = {
        "setup_s": host.median(setups) + (import_seconds if workload.in_process else 0.0),
        "latency_p50_ms": host.quantile(good, 0.5),
        "latency_p90_ms": host.quantile(good, 0.9),
        "throughput_ops_s": len(good) / wall,
        "cpu_ms_per_op": cpu_seconds * 1000.0 / len(good),
        "peak_rss_mb": peak_rss,
    }
    return metrics, len(samples), len(samples) - len(good)


def traced_pass(workload: Any) -> tuple[dict[str, float], int, int]:
    """The traced slice: spans in memory, written once at the end."""
    tracer = tracing.Tracer()
    metrics, attempted = workload.trace(tracer)
    workload.problems.extend(tracing.check_spans(tracer.spans))
    tracer.dump(OUT / f"trace_{workload.name}.json")
    return metrics, attempted, min(attempted, len(workload.problems))


def sweep(scratch: Path) -> None:
    """Remove what a run may leave behind, also when it was interrupted."""
    shutil.rmtree(scratch, ignore_errors=True)
    # Shared-memory segments carry the pid of the engine that created them;
    # the engine unlinks them per job, this is the backstop for a killed run.
    for segment in Path("/dev/shm").glob(f"tkij-shm-{os.getpid()}-*"):
        segment.unlink(missing_ok=True)


def report(result: dict[str, Any]) -> None:
    """Every metric by name, with its unit."""
    print(
        f"== {result['workload']} [{result['pass']}] seed={result['seed']} "
        f"clients={result['clients']} ops={result['attempted']} failed={result['failed']} "
        f"correct={result['correct']}"
    )
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<40} {entry['value']:>16.4f} {entry['unit']}")
    for problem in result["problems"]:
        print(f"  ! {problem}")


def run_one(args: argparse.Namespace, benchmark: dict[str, Any]) -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    host.adopt_orphans()
    try:
        result = run_pass(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    finally:
        # This process ends here: nothing it started, directly or through the
        # library, may outlive it (not even as an orphan on its way out).
        host.reap_descendants()
    report(result)
    listed = benchmark["per_layer" if args.trace else "end_to_end"]
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {entry["name"]: result["metrics"][entry["name"]] for entry in listed},
    }
    print(json.dumps(line), flush=True)
    return 0


# ------------------------------------------------------------------- ledger
def run_ledger(args: argparse.Namespace, benchmark: dict[str, Any]) -> int:
    """Every workload, ``--repeat`` times, each pass in its own child process."""
    ledger: dict[str, Any] = {
        "schema": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "sizes": "smoke" if args.smoke else "full",
        "repeats": args.repeat,
        "host": host.host_fingerprint(),
        "workloads": {},
    }
    started = time.perf_counter()
    for _ in range(args.repeat):
        for workload in benchmark["workloads"]:
            for trace in (0, 1) if args.trace else (0,):
                result = child_pass(workload["name"], args, trace)
                if result is None:
                    return 1
                merge(ledger, workload, result)
    ledger["wall_seconds"] = time.perf_counter() - started
    (OUT / "ledger.json").write_text(json.dumps(ledger, indent=1) + "\n")
    (OUT / "LEDGER.md").write_text(render_markdown(ledger, benchmark))
    print(f"\nledger written to {OUT / 'ledger.json'} ({ledger['wall_seconds']:.0f} s)")
    return 0 if all(all(w["correct"]) for w in ledger["workloads"].values()) else 1


def child_pass(name: str, args: argparse.Namespace, trace: int) -> dict[str, Any] | None:
    command = [sys.executable, str(HERE / "run.py"), "--workload", name]
    command += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    child = subprocess.Popen(command, cwd=ROOT)
    try:
        code = child.wait()
    except KeyboardInterrupt:
        child.wait()  # the child got the same Ctrl-C and is cleaning up
        raise
    if code != 0:
        print(f"error: {name} (trace={trace}) exited with {code}", file=sys.stderr)
        return None
    path = OUT / f"{name}.{'traced' if trace else 'end_to_end'}.json"
    return json.loads(path.read_text())


def merge(ledger: dict[str, Any], workload: dict[str, str], result: dict[str, Any]) -> None:
    """Fold one pass into the ledger: one value per repeat under each metric."""
    entry = ledger["workloads"].setdefault(
        workload["name"],
        {
            "why": workload["why"],
            "clients": result["clients"],
            "end_to_end": {},
            "per_layer": {},
            "attempted": [],
            "failed": [],
            "correct": [],
            "calibration_ms": [],
        },
    )
    section = entry["per_layer" if result["pass"] == "traced" else "end_to_end"]
    for metric, measured in result["metrics"].items():
        slot = section.setdefault(metric, {"unit": measured["unit"], "values": []})
        slot["values"].append(measured["value"])
    entry["correct"].append(result["correct"])
    if result["pass"] == "end_to_end":
        entry["attempted"].append(result["attempted"])
        entry["failed"].append(result["failed"])
        entry["calibration_ms"].append(result["calibration_ms"])


def render_markdown(ledger: dict[str, Any], benchmark: dict[str, Any]) -> str:
    """The human table of a ledger: medians, with min-max when repeated."""
    machine = ledger["host"]
    lines = [
        "# Perf ledger",
        "",
        f"seed {ledger['seed']}, window {ledger['seconds']} s, {ledger['repeats']} run(s), "
        f"sizes `{ledger['sizes']}`; host: {machine['nproc']} x {machine['cpu_model']}, "
        f"Python {machine['python']}, numpy {machine['numpy']}.",
        "",
        "Cells are medians over the runs, with [min to max] where the runs differ.",
    ]
    bounds = {entry["name"]: entry["bound"] for entry in benchmark["end_to_end"]}

    def cell(slot: dict[str, Any] | None) -> str:
        if slot is None:
            return "-"
        values = slot["values"]
        if min(values) == max(values):
            return f"{values[0]:.7g}"
        return f"{host.median(values):.4g} [{min(values):.4g} to {max(values):.4g}]"

    names = list(ledger["workloads"])
    for title, section in (("End to end", "end_to_end"), ("Per layer", "per_layer")):
        metrics: dict[str, str] = {}
        for entry in ledger["workloads"].values():
            for metric, slot in entry[section].items():
                metrics.setdefault(metric, slot["unit"])
        if not metrics:
            continue
        lines += ["", f"## {title}", "", "| metric | unit | " + " | ".join(names) + " |"]
        lines.append("| --- | --- | " + " | ".join("---" for _ in names) + " |")
        for metric, unit in metrics.items():
            label = f"{metric} (±{bounds[metric]:.0%})" if metric in bounds else metric
            cells = [cell(ledger["workloads"][name][section].get(metric)) for name in names]
            lines.append(f"| `{label}` | {unit} | " + " | ".join(cells) + " |")
    lines += ["", "## Operations", "", "| workload | clients | attempted | failed | correct |"]
    lines.append("| --- | --- | --- | --- | --- |")
    for name, entry in ledger["workloads"].items():
        lines.append(
            f"| {name} | {entry['clients']} | {sum(entry['attempted'])} | "
            f"{sum(entry['failed'])} | {all(entry['correct'])} |"
        )
    return "\n".join(lines) + "\n"


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} does not hold the program under test (src/repro)", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    if args.workload is None:
        return run_ledger(args, benchmark)
    if args.workload not in {workload["name"] for workload in benchmark["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_one(args, benchmark)


if __name__ == "__main__":
    raise SystemExit(main())
