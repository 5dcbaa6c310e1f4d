"""Streaming evaluation — incremental maintenance vs. per-batch full recompute.

Replays a 10-batch append-only workload through ``tkij-streaming``, planned
manually and by the AutoPlanner (whose full ticks are ``tkij``'s own plan and
execute), and after every batch re-evaluates the accumulated snapshot with the
static ``tkij`` algorithm.  The recorded table is the per-batch series
(latency, candidate and pruned bucket-pair counts, join work, speedup, parity);
the assertions are the streaming layer's contract:

* every batch's incremental answer is equivalent to full recomputation;
* the candidate pruning actually fires (pruned bucket pairs > 0);
* the incremental evaluation does strictly less join work (tuples scored)
  than recomputing from scratch on every batch.
"""

from __future__ import annotations

import pytest

from repro.experiments import ResultTable, figure_streaming

NUM_BATCHES = 10
BATCH_SIZE = 30
QUERY = "Qo,m"
K = 20
GRANULES = 8


def streaming_table(
    num_batches: int = NUM_BATCHES,
    batch_size: int = BATCH_SIZE,
    query_name: str = QUERY,
    k: int = K,
    num_granules: int = GRANULES,
    plan: str = "manual",
) -> ResultTable:
    """The per-batch incremental-vs-full series of one streamed workload."""
    return figure_streaming(
        batch_counts=(num_batches,),
        batch_sizes=(batch_size,),
        query_name=query_name,
        k=k,
        num_granules=num_granules,
        plan=plan,
        compare_full=True,
    )


@pytest.mark.parametrize("plan", ["manual", "auto"])
def bench_streaming_incremental(benchmark, record_table, plan):
    benchmark.extra_info.update(workload="streaming", kernel="scalar", backend="serial", plan=plan)
    table = benchmark.pedantic(streaming_table, kwargs={"plan": plan}, rounds=1, iterations=1)
    record_table(f"streaming_incremental_{plan}", table)

    assert len(table.rows) == NUM_BATCHES
    # Parity: every batch's incremental top-k is equivalent to full recompute.
    assert all(row["matches_full"] for row in table.rows), [
        row["batch"] for row in table.rows if not row["matches_full"]
    ]
    # The candidate pruning must fire on the incremental batches.
    pruned_pairs = sum(row["pruned_pairs"] for row in table.rows)
    assert pruned_pairs > 0
    # Strictly less join work than recomputing from scratch on every batch.
    incremental_work = sum(row["tuples_scored"] for row in table.rows)
    full_work = sum(row["full_tuples_scored"] for row in table.rows)
    assert incremental_work < full_work, (incremental_work, full_work)
