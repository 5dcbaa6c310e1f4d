"""Streaming evaluation layer: incremental top-k joins over appending collections.

* :class:`StreamingCollection` / :class:`AppendLog` — append-only collections
  ingesting interval batches (staged, then committed per evaluation tick);
* :class:`StreamingTKIJ` — the ``tkij-streaming`` registry algorithm keeping a
  persistent top-k fresh per batch (statistics maintained incrementally via the
  context's cache, candidate bucket pairs pruned against the current k-th
  score, full replans on a doubling schedule);
* :class:`CandidateFilter` — the streaming pruning rule (the pair-pruning
  ``FilteredDistributeOp`` operator it plugs into lives in
  :mod:`repro.core.operators`; ``JoinOp`` ships only the buckets it keeps).

Importing this package registers ``tkij-streaming`` in the plan registry.
"""

from .algorithm import StreamingTKIJ
from .collection import AppendBatch, AppendLog, StreamingCollection, replay_batches
from .operators import CandidateFilter
from .parity import equivalent_top_k
from .state import BatchReport, StreamState, StreamingRunResult

__all__ = [
    "equivalent_top_k",
    "AppendBatch",
    "AppendLog",
    "StreamingCollection",
    "replay_batches",
    "StreamingTKIJ",
    "CandidateFilter",
    "BatchReport",
    "StreamState",
    "StreamingRunResult",
]
