"""The paper's evaluation as one table (``FIGURES``), its runner and the
generic one-query and streaming drivers."""

from .figures import FIGURES, Arm, Claim, Figure, reproduction, run_figure
from .harness import ResultTable, run_single_query
from .streaming_figures import figure_streaming
from .workloads import PARAMETERS, QUERIES, QuerySpec, build_query, star_spec

__all__ = [
    "FIGURES",
    "Arm",
    "Claim",
    "Figure",
    "reproduction",
    "run_figure",
    "ResultTable",
    "run_single_query",
    "figure_streaming",
    "PARAMETERS",
    "QUERIES",
    "QuerySpec",
    "build_query",
    "star_spec",
]
