"""Compare two ledgers: ``python3 benchmarks/ledger/compare.py BASE.json NEW.json``.

For every workload x end-to-end metric: the base and new medians, their ratio,
the bound ``BENCHMARK.json`` fixes for the metric, and a verdict —

* ``regressed``  the new median is worse than the base by more than the bound;
* ``improved``   it is better by more than the bound;
* ``unchanged``  within the bound;
* ``unresolved`` the runs of either side spread wider than the bound (unless
  every new run beats every base run, which is ``improved``), or the hosts'
  calibration loops differ by more than 20 %: the ledgers cannot settle it.

Exact-count layer metrics are compared with ``==``; a difference is reported
(the work changed) but is not by itself a regression.  More failed operations
than the base is always a regression.  Exit code 1 on any regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Sequence

import registry

CALIBRATION_DRIFT = 0.20


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread as a share of the median: the interquartile distance
    from four runs up, the full range below that, nothing for a single run."""
    center = statistics.median(values)
    if len(values) < 2 or center == 0:
        return 0.0
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        return (quartiles[2] - quartiles[0]) / abs(center)
    return (max(values) - min(values)) / abs(center)


def verdict(base: Sequence[float], new: Sequence[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (statistics.median(new) - statistics.median(base)) / statistics.median(base)
    if max(spread(base), spread(new)) > bound:
        # Too noisy for the bound to mean anything — unless the two sets of
        # runs do not even overlap.
        repeated = len(base) >= 5 and len(new) >= 5
        apart = max(new) < min(base) if sign > 0 else min(new) > max(base)
        return "improved" if repeated and apart else "unresolved"
    if worse_by > bound:
        return "regressed"
    return "improved" if worse_by < -bound else "unchanged"


def calibration(entry: dict[str, Any]) -> float:
    return statistics.median(value for pair in entry["calibration_ms"] for value in pair)


def failed_share(entry: dict[str, Any]) -> float:
    return sum(entry["failed"]) / sum(entry["attempted"])


def compare(base: dict[str, Any], new: dict[str, Any], benchmark: dict[str, Any]) -> int:
    """Print the comparison; returns the number of regressions."""
    regressions = 0
    for name, new_entry in new["workloads"].items():
        base_entry = base["workloads"].get(name)
        if base_entry is None:
            print(f"\n{name}: not in the base ledger")
            continue
        drift = calibration(new_entry) / calibration(base_entry) - 1.0
        comparable = abs(drift) <= CALIBRATION_DRIFT
        print(f"\n{name}  (host calibration {drift:+.1%}{'' if comparable else ': drifted'})")
        print(f"  {'metric':<22}{'base':>12}{'new':>12}{'ratio':>8}{'bound':>7}  verdict")
        for metric in benchmark["end_to_end"]:
            old = base_entry["end_to_end"][metric["name"]]["values"]
            cur = new_entry["end_to_end"][metric["name"]]["values"]
            result = verdict(old, cur, metric["better"], metric["bound"])
            host_bound = metric["name"] != "peak_rss_mb"
            if result != "unchanged" and host_bound and not comparable:
                result = "unresolved"
            regressions += result == "regressed"
            old_median, new_median = statistics.median(old), statistics.median(cur)
            print(
                f"  {metric['name']:<22}{old_median:>12.4g}{new_median:>12.4g}"
                f"{new_median / old_median:>8.3f}{metric['bound']:>7.0%}  {result}"
            )
        tail_old = statistics.median(base_entry["end_to_end"]["latency_p90_ms"]["values"])
        tail_new = statistics.median(new_entry["end_to_end"]["latency_p90_ms"]["values"])
        print(
            f"  {'latency_p90_ms':<22}{tail_old:>12.4g}{tail_new:>12.4g}"
            f"{tail_new / tail_old:>8.3f}{'-':>7}  (reported, not bounded)"
        )
        old_share, new_share = failed_share(base_entry), failed_share(new_entry)
        if new_share > old_share or not all(new_entry["correct"]):
            regressions += 1
            print(
                f"  failed_share {old_share:.4f} -> {new_share:.4f}, "
                f"correct={all(new_entry['correct'])}  regressed"
            )
        for metric in sorted(registry.EXACT):
            old = base_entry["per_layer"].get(metric)
            cur = new_entry["per_layer"].get(metric)
            if old is None or cur is None:
                continue
            counts = set(old["values"]) | set(cur["values"])
            if len(counts) > 1:
                print(f"  {metric}: {sorted(set(old['values']))} -> {sorted(set(cur['values']))}")
    return regressions


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    root = Path(__file__).resolve().parents[2]
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    regressions = compare(base, new, benchmark)
    print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
