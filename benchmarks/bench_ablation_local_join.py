"""Ablation — local-join design choices (not a paper figure; see DESIGN.md §5).

Two knobs of the per-reducer join are switched off one at a time:

* early termination on the per-combination score upper bound,
* threshold box -> candidate rows lookups (``use_index``; off, every extension
  step scans its whole bucket).

Expected shape: both optimisations reduce the number of candidate tuples examined
without changing the returned results (the correctness part is covered by the test
suite; here the work counters are recorded).
"""

from repro.datagen import SyntheticConfig, generate_collections
from repro.experiments import ResultTable, TKIJRunConfig, build_query, run_tkij

SIZE = 250
QUERY = "Qs,m"
K = 50
GRANULES = 12

_VARIANTS = {
    "full": TKIJRunConfig(num_granules=GRANULES),
    "no-early-termination": TKIJRunConfig(num_granules=GRANULES, early_termination=False),
    "no-index": TKIJRunConfig(num_granules=GRANULES, use_index=False),
    "no-index-no-termination": TKIJRunConfig(
        num_granules=GRANULES, use_index=False, early_termination=False
    ),
}


def _run_ablation() -> ResultTable:
    collections = list(generate_collections(3, SyntheticConfig(size=SIZE), seed=7).values())
    table = ResultTable(
        title=f"Ablation — local join pruning ({QUERY}, |Ci|={SIZE}, k={K})",
        columns=["variant", "join_seconds", "candidates_examined", "tuples_scored", "top_score"],
    )
    for name, config in _VARIANTS.items():
        query = build_query(QUERY, collections, "P1", k=K)
        result = run_tkij(query, config)
        table.add_row(
            variant=name,
            join_seconds=result.phase_seconds["join"],
            candidates_examined=result.local_join_stats.candidates_examined,
            tuples_scored=result.local_join_stats.tuples_scored,
            top_score=result.results[0].score if result.results else 0.0,
        )
    return table


def bench_local_join_ablation(benchmark, record_table):
    table = benchmark.pedantic(_run_ablation, rounds=1, iterations=1)
    record_table("ablation_local_join", table)

    work = {row["variant"]: row["candidates_examined"] for row in table.rows}
    assert work["full"] <= work["no-index-no-termination"]
    scores = {row["variant"]: row["top_score"] for row in table.rows}
    assert len(set(round(s, 9) for s in scores.values())) == 1
