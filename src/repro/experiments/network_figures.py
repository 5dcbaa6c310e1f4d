"""Network-traffic experiments (paper Section 4.3, Figures 12-14).

The real firewall trace is proprietary; the simulated trace of
:mod:`repro.datagen.network` is used instead (see DESIGN.md §2).  As in the paper,
the connection collection is copied once per query vertex and 3-way queries are
evaluated on the copies.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..datagen.network import (
    NetworkTraceConfig,
    generate_network_collection,
    sample_collection,
)
from ..mapreduce import ClusterConfig
from ..plan import ExecutionContext
from ..temporal.interval import IntervalCollection
from .harness import ResultTable, TKIJRunConfig, run_tkij
from .workloads import build_query

__all__ = [
    "figure12_network_distribution",
    "figure13_network_scalability",
    "figure14_network_effect_k",
    "network_collections",
]


def network_collections(
    config: NetworkTraceConfig | None = None,
    seed: int = 13,
    copies: int = 3,
) -> list[IntervalCollection]:
    """The connection collection copied ``copies`` times (the paper's protocol)."""
    base = generate_network_collection(config, seed=seed)
    collections = []
    for index in range(copies):
        copy = IntervalCollection(f"{base.name}-{index + 1}", list(base.intervals))
        collections.append(copy)
    return collections


# ------------------------------------------------------------------ Figure 12
def figure12_network_distribution(
    config: NetworkTraceConfig | None = None,
    seed: int = 13,
    num_bins: int = 10,
) -> ResultTable:
    """Start-point (12a) and length (12b) distributions of the simulated connections."""
    collection = generate_network_collection(config, seed=seed)
    starts = collection.starts
    lengths = collection.ends - collection.starts

    table = ResultTable(
        title=f"Figure 12 — network data distribution (n={len(collection)})",
        columns=["bin_pct", "start_pct_tuples", "length_pct_tuples"],
    )
    start_edges = np.linspace(starts.min(), starts.max(), num_bins + 1)
    length_edges = np.linspace(lengths.min(), lengths.max(), num_bins + 1)
    start_hist, _ = np.histogram(starts, bins=start_edges)
    length_hist, _ = np.histogram(lengths, bins=length_edges)
    total = len(collection)
    for bin_index in range(num_bins):
        table.add_row(
            bin_pct=f"{(bin_index + 1) * 100 // num_bins}%",
            start_pct_tuples=100.0 * start_hist[bin_index] / total,
            length_pct_tuples=100.0 * length_hist[bin_index] / total,
        )
    summary = collection.describe()
    table.add_row(
        bin_pct="length min/avg/max",
        start_pct_tuples=None,
        length_pct_tuples=f"{summary['length_min']:.0f}/{summary['length_avg']:.0f}/{summary['length_max']:.0f}",
    )
    return table


# ------------------------------------------------------------------ Figure 13
def figure13_network_scalability(
    fractions: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    queries: Sequence[str] = ("Qb,b", "Qf,b", "Qo,o", "Qo,m", "Qs,f,m", "QjB,jB", "QsM,sM"),
    k: int = 100,
    num_granules: int = 10,
    params_name: str = "P3",
    config: NetworkTraceConfig | None = None,
    seed: int = 13,
    plan: str = "manual",
    kernel: str | None = None,
    cluster: ClusterConfig | None = None,
) -> ResultTable:
    """Running time while the sampled fraction of the trace grows (Figure 13)."""
    base = generate_network_collection(config, seed=seed)
    table = ResultTable(
        title=f"Figure 13 — network scalability ({params_name}, g={num_granules}, k={k})",
        columns=["query", "fraction", "size", "total_seconds", "topbuckets_seconds", "nonempty_buckets"],
    )
    with ExecutionContext(cluster=cluster or ClusterConfig()) as context:
        for fraction in fractions:
            sampled = sample_collection(base, fraction, seed=seed)
            collections = [
                IntervalCollection(f"{sampled.name}-{i + 1}", list(sampled.intervals))
                for i in range(3)
            ]
            for query_name in queries:
                query = build_query(query_name, collections, params_name, k=k)
                result = run_tkij(
                    query,
                    TKIJRunConfig(num_granules=num_granules, plan=plan, kernel=kernel),
                    context=context,
                )
                matrix = result.top_buckets
                table.add_row(
                    query=query_name,
                    fraction=fraction,
                    size=len(sampled),
                    total_seconds=result.total_seconds,
                    topbuckets_seconds=result.phase_seconds["top_buckets"],
                    nonempty_buckets=matrix.total_combinations,
                )
    return table


# ------------------------------------------------------------------ Figure 14
def figure14_network_effect_k(
    ks: Sequence[int] = (10, 100, 1_000, 5_000),
    queries: Sequence[str] = ("Qb,b", "Qf,b", "Qo,o", "Qo,m", "Qs,f,m", "QjB,jB", "QsM,sM"),
    num_granules: int = 10,
    params_name: str = "P3",
    config: NetworkTraceConfig | None = None,
    seed: int = 13,
    plan: str = "manual",
    kernel: str | None = None,
    cluster: ClusterConfig | None = None,
) -> ResultTable:
    """Running time as k grows on the network trace (Figure 14)."""
    collections = network_collections(config, seed=seed)
    table = ResultTable(
        title=f"Figure 14 — network data, effect of k ({params_name}, g={num_granules})",
        columns=["query", "k", "total_seconds", "selected_combinations"],
    )
    with ExecutionContext(cluster=cluster or ClusterConfig()) as context:
        for query_name in queries:
            for k in ks:
                query = build_query(query_name, collections, params_name, k=k)
                result = run_tkij(
                    query,
                    TKIJRunConfig(num_granules=num_granules, plan=plan, kernel=kernel),
                    context=context,
                )
                table.add_row(
                    query=query_name,
                    k=k,
                    total_seconds=result.total_seconds,
                    selected_combinations=result.top_buckets.selected_count,
                )
    return table
