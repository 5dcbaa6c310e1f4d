"""Synthetic-data experiments (paper Section 4.2, Figures 7-10 and the effect of k).

Every driver returns a :class:`~repro.experiments.harness.ResultTable` whose rows
are the series of the corresponding figure.  Sizes default to laptop-scale values;
the paper's cluster-scale parameters are recorded in EXPERIMENTS.md next to the
scaled ones.
"""

from __future__ import annotations

from typing import Sequence

from ..baselines.naive import all_pair_scores
from ..datagen.synthetic import SyntheticConfig, generate_collections
from ..mapreduce import ClusterConfig
from ..plan import ExecutionContext
from ..temporal.predicates import predicate_by_name
from .harness import ResultTable, TKIJRunConfig, run_tkij
from .workloads import PARAMETERS, build_query, star_spec

__all__ = [
    "figure7_score_distribution",
    "figure8_workload_distribution",
    "figure9_topbuckets_strategies",
    "figure10_granules",
    "effect_of_k_synthetic",
]


def _collections(num: int, size: int, seed: int = 7, start_max: float = 100_000.0):
    config = SyntheticConfig(size=size, start_max=start_max)
    return list(generate_collections(num, config, seed=seed).values())


# ------------------------------------------------------------------- Figure 7
def figure7_score_distribution(
    size: int = 400,
    ranks: Sequence[int] = (1, 10, 100, 1_000, 10_000),
    params_name: str = "P1",
    seed: int = 7,
    start_max: float | None = None,
) -> ResultTable:
    """Score of the rank-r pair for s-before / s-overlaps / s-meets / s-starts.

    The paper (Figure 7) evaluates all |C1| x |C2| pairs and plots the score of the
    top 50 000 results; this driver reports the score at selected ranks plus the
    number of pairs with a perfect score, which captures the same ordering
    (before >> overlaps > meets > starts in number of high-scoring results).
    ``start_max`` defaults to ``10 * size`` so the temporal density matches the
    paper's |Ci| = 1e4 over a [0, 1e5] range at any scaled-down size.
    """
    if start_max is None:
        start_max = 10.0 * size
    left, right = _collections(2, size, seed=seed, start_max=start_max)
    params = PARAMETERS[params_name]
    table = ResultTable(
        title=f"Figure 7 — score distribution (|Ci|={size}, {params_name})",
        columns=["predicate", *[f"rank_{r}" for r in ranks], "perfect_scores"],
    )
    for name in ("before", "overlaps", "meets", "starts"):
        predicate = predicate_by_name(name, params, avg_length=left.average_length())
        scores = all_pair_scores(predicate, left, right)
        row = {
            f"rank_{r}": float(scores[r - 1]) if r - 1 < len(scores) else 0.0 for r in ranks
        }
        row["perfect_scores"] = int((scores >= 1.0).sum())
        table.add_row(predicate=f"s-{name}", **row)
    return table


# ------------------------------------------------------------------- Figure 8
def figure8_workload_distribution(
    sizes: Sequence[int] = (500, 1_000),
    queries: Sequence[str] = ("Qb,b", "Qo,o", "Qf,f", "Qs,s", "Qs,f,m"),
    k: int = 100,
    num_granules: int = 10,
    params_name: str = "P2",
    assigners: Sequence[str] = ("lpt", "dtb"),
    seed: int = 7,
    cluster: ClusterConfig | None = None,
) -> ResultTable:
    """LPT vs DTB: join time (8a), max reducer time (8b), min k-th score (8c).

    This figure *sweeps* the assigner, so runs are always manually planned (an
    auto plan would override the very knob under study).
    """
    table = ResultTable(
        title=f"Figure 8 — workload distribution ({params_name}, g={num_granules}, k={k})",
        columns=[
            "size",
            "query",
            "assigner",
            "join_seconds",
            "max_reduce_seconds",
            "min_kth_score",
            "shuffle_records",
        ],
    )
    with ExecutionContext(cluster=cluster or ClusterConfig()) as context:
        for size in sizes:
            collections = _collections(3, size, seed=seed)
            for query_name in queries:
                for assigner in assigners:
                    query = build_query(query_name, collections, params_name, k=k)
                    config = TKIJRunConfig(num_granules=num_granules, assigner=assigner)
                    result = run_tkij(query, config, context=context)
                    table.add_row(
                        size=size,
                        query=query_name,
                        assigner=assigner.upper(),
                        join_seconds=result.phase_seconds["join"],
                        max_reduce_seconds=result.join_metrics.max_reduce_seconds,
                        min_kth_score=result.min_kth_score,
                        # Replicated intervals (the engine's records are batches).
                        shuffle_records=result.join_metrics.shuffle_size,
                    )
    return table


# ------------------------------------------------------------------- Figure 9
def figure9_topbuckets_strategies(
    num_vertices: Sequence[int] = (3, 4),
    families: Sequence[str] = ("Qb*", "Qo*", "Qm*"),
    size: int = 300,
    num_granules: int = 6,
    k: int = 100,
    params_name: str = "P1",
    strategies: Sequence[str] = ("brute-force", "two-phase", "loose"),
    seed: int = 7,
    cluster: ClusterConfig | None = None,
) -> ResultTable:
    """Detailed stage times of the three TopBuckets strategies on Qb*, Qo*, Qm*.

    This figure *sweeps* the strategy, so runs are always manually planned (an
    auto plan would override the very knob under study).
    """
    table = ResultTable(
        title=f"Figure 9 — TopBuckets strategies (|Ci|={size}, g={num_granules}, k={k})",
        columns=[
            "query",
            "n",
            "strategy",
            "topbuckets_seconds",
            "distribution_seconds",
            "join_seconds",
            "merge_seconds",
            "total_seconds",
            "selected_combinations",
        ],
    )
    with ExecutionContext(cluster=cluster or ClusterConfig()) as context:
        for family in families:
            for n in num_vertices:
                collections = _collections(n, size, seed=seed)
                spec = star_spec(family, n)
                for strategy in strategies:
                    query = spec.build(collections, PARAMETERS[params_name], k=k)
                    config = TKIJRunConfig(num_granules=num_granules, strategy=strategy)
                    result = run_tkij(query, config, context=context)
                    table.add_row(
                        query=family,
                        n=n,
                        strategy=strategy,
                        topbuckets_seconds=result.phase_seconds["top_buckets"],
                        distribution_seconds=result.phase_seconds["distribution"],
                        join_seconds=result.phase_seconds["join"],
                        merge_seconds=result.phase_seconds["merge"],
                        total_seconds=result.total_seconds,
                        selected_combinations=result.top_buckets.selected_count,
                    )
    return table


# ------------------------------------------------------------------ Figure 10
def figure10_granules(
    granules: Sequence[int] = (5, 10, 20, 40),
    queries: Sequence[str] = ("Qb,b", "Qf,b", "Qo,o", "Qo,m", "Qs,f,m"),
    size: int = 1_000,
    k: int = 100,
    params_name: str = "P1",
    seed: int = 7,
    cluster: ClusterConfig | None = None,
) -> ResultTable:
    """Effect of the number of granules: total time (10a), imbalance (10b), detail (10c).

    This figure *sweeps* the granularity, so runs are always manually planned
    (an auto plan would override the very knob under study).
    """
    table = ResultTable(
        title=f"Figure 10 — number of granules (|Ci|={size}, {params_name}, k={k})",
        columns=[
            "query",
            "g",
            "total_seconds",
            "imbalance",
            "topbuckets_seconds",
            "join_seconds",
            "pruned_fraction",
            "selected_combinations",
        ],
    )
    with ExecutionContext(cluster=cluster or ClusterConfig()) as context:
        for query_name in queries:
            collections = _collections(3, size, seed=seed)
            for g in granules:
                query = build_query(query_name, collections, params_name, k=k)
                result = run_tkij(query, TKIJRunConfig(num_granules=g), context=context)
                table.add_row(
                    query=query_name,
                    g=g,
                    total_seconds=result.total_seconds,
                    imbalance=result.join_metrics.imbalance,
                    topbuckets_seconds=result.phase_seconds["top_buckets"],
                    join_seconds=result.phase_seconds["join"],
                    pruned_fraction=result.top_buckets.pruned_results_fraction,
                    selected_combinations=result.top_buckets.selected_count,
                )
    return table


# ----------------------------------------------------------- Effect of k (§4.2.6)
def effect_of_k_synthetic(
    ks: Sequence[int] = (10, 100, 1_000, 10_000),
    queries: Sequence[str] = ("Qb,b", "Qo,o", "Qf,b", "Qo,m", "Qs,f,m"),
    size: int = 1_000,
    num_granules: int = 10,
    params_name: str = "P1",
    seed: int = 7,
    plan: str = "manual",
    kernel: str | None = None,
    cluster: ClusterConfig | None = None,
) -> ResultTable:
    """Section 4.2.6: running time as k varies (expected to stay nearly flat)."""
    table = ResultTable(
        title=f"Effect of k (synthetic, |Ci|={size}, g={num_granules})",
        columns=["query", "k", "total_seconds", "selected_combinations"],
    )
    with ExecutionContext(cluster=cluster or ClusterConfig()) as context:
        for query_name in queries:
            collections = _collections(3, size, seed=seed)
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
