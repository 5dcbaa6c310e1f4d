"""Ablation — workload-assignment policies (DTB vs LPT vs round-robin).

Extends Figure 8's DTB/LPT comparison with a naive round-robin arm to isolate the
two ingredients of DTB: visiting combinations in descending score order and the
replication-aware tie-break.
"""

from repro.datagen import SyntheticConfig, generate_collections
from repro.experiments import ResultTable, TKIJRunConfig, build_query, run_tkij

SIZE = 450
QUERIES = ("Qs,s", "Qo,o")
K = 100
GRANULES = 12
ASSIGNERS = ("dtb", "lpt", "round-robin")


def _run() -> ResultTable:
    collections = list(generate_collections(3, SyntheticConfig(size=SIZE), seed=11).values())
    table = ResultTable(
        title=f"Ablation — workload assignment (|Ci|={SIZE}, k={K}, g={GRANULES})",
        columns=[
            "query",
            "assigner",
            "join_seconds",
            "max_reduce_seconds",
            "shuffle_records",
            "min_kth_score",
        ],
    )
    for query_name in QUERIES:
        for assigner in ASSIGNERS:
            query = build_query(query_name, collections, "P2", k=K)
            result = run_tkij(query, TKIJRunConfig(num_granules=GRANULES, assigner=assigner))
            table.add_row(
                query=query_name,
                assigner=assigner,
                join_seconds=result.phase_seconds["join"],
                max_reduce_seconds=result.join_metrics.max_reduce_seconds,
                # Replicated intervals (the engine's records are bucket batches).
                shuffle_records=result.join_metrics.shuffle_size,
                min_kth_score=result.min_kth_score,
            )
    return table


def bench_assigner_ablation(benchmark, record_table):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    record_table("ablation_assigners", table)

    # DTB's replication-aware tie-break should not shuffle more than round-robin.
    for query_name in QUERIES:
        shuffle = {
            row["assigner"]: row["shuffle_records"]
            for row in table.rows
            if row["query"] == query_name
        }
        assert shuffle["dtb"] <= shuffle["round-robin"] * 1.2
