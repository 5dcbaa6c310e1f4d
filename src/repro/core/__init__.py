"""TKIJ core: statistics, bounds, TopBuckets, workload distribution, join, merge."""

from .bounds import BoundsEstimator, BucketCombination, CombinationSpace, CombinationTable
from .distribution import (
    ASSIGNERS,
    WorkloadAssignment,
    assign,
    distribute_top_buckets,
    lpt_assignment,
    round_robin_assignment,
)
from .local_join import KERNELS, LocalJoinConfig, LocalJoinStats, LocalTopKJoin
from .merge import merge_top_k, run_merge_job
from .operators import (
    DistributeOp,
    FilteredDistributeOp,
    JoinOp,
    MergeOp,
    PhaseOperator,
    PhaseState,
    StatisticsOp,
    TopBucketsOp,
    collections_by_name,
    run_pipeline,
)
from .statistics import (
    BucketKey,
    BucketMatrix,
    DatasetStatistics,
    Granularity,
    collect_statistics,
    collect_statistics_mapreduce,
    update_statistics,
)
from .tkij import TKIJ, TKIJResult
from .top_buckets import (
    STRATEGIES,
    TopBucketsResult,
    TopBucketsSelector,
    get_top_buckets,
)

__all__ = [
    "BoundsEstimator",
    "BucketCombination",
    "CombinationSpace",
    "CombinationTable",
    "ASSIGNERS",
    "WorkloadAssignment",
    "assign",
    "distribute_top_buckets",
    "lpt_assignment",
    "round_robin_assignment",
    "KERNELS",
    "LocalJoinConfig",
    "LocalJoinStats",
    "LocalTopKJoin",
    "merge_top_k",
    "run_merge_job",
    "DistributeOp",
    "FilteredDistributeOp",
    "JoinOp",
    "MergeOp",
    "PhaseOperator",
    "PhaseState",
    "StatisticsOp",
    "TopBucketsOp",
    "collections_by_name",
    "run_pipeline",
    "BucketKey",
    "BucketMatrix",
    "DatasetStatistics",
    "Granularity",
    "collect_statistics",
    "collect_statistics_mapreduce",
    "update_statistics",
    "TKIJ",
    "TKIJResult",
    "STRATEGIES",
    "TopBucketsResult",
    "TopBucketsSelector",
    "get_top_buckets",
]
