"""Map-Reduce job interfaces.

The engine executes jobs expressed with the classic interface of Dean &
Ghemawat: a mapper emits ``(key, value)`` pairs for every input record, pairs are
shuffled to reducers by a partitioner, and each reducer folds the values of every
key it owns.  Jobs may declare a custom partitioner (TKIJ routes buckets to the
reducers chosen by DTB rather than by hash) and a record-size estimator used for
shuffle-volume accounting.

**Picklability contract.**  Map splits and reduce partitions may execute on a
process pool (``ClusterConfig(backend="process")``), in which case each task
is pickled — and a task carries only what it reads, never the whole job: a
map task the job name, ``mapper_factory`` and its split; a reduce task the job
name, :meth:`MapReduceJob.reducer_factory_for` of its partition (the shared
``reducer_factory`` unless the job overrides the hook) and its partition.
``partitioner`` and ``record_size`` run on the driver.  Factories must
therefore be importable module-level objects: classes, functions, or
:func:`functools.partial` over them.  A lambda or a locally-defined closure
works on the serial and thread backends but raises a pickling error on the
process backend — prefer ``functools.partial(MyMapper, arg1, arg2)`` to
``lambda: MyMapper(arg1, arg2)`` everywhere.  Whatever a factory closes over
is pickled into every task that ships it, so bind the least it needs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from .counters import Counters

__all__ = [
    "Mapper",
    "Reducer",
    "Partitioner",
    "HashPartitioner",
    "RoutingPartitioner",
    "FirstElementPartitioner",
    "MapReduceJob",
    "default_record_size",
]

KeyValue = tuple[Any, Any]


class Mapper(ABC):
    """Transforms one input record into zero or more ``(key, value)`` pairs."""

    def setup(self, counters: Counters) -> None:
        """Called once before the task processes its split."""
        self.counters = counters

    @abstractmethod
    def map(self, key: Any, value: Any) -> Iterator[KeyValue]:
        """Emit intermediate pairs for one input record."""


class Reducer(ABC):
    """Folds all values of one intermediate key into zero or more output pairs."""

    def setup(self, counters: Counters) -> None:
        """Called once before the task processes its partition."""
        self.counters = counters

    @abstractmethod
    def reduce(self, key: Any, values: list[Any]) -> Iterator[KeyValue]:
        """Emit output pairs for one key and all of its values."""

    def cleanup(self) -> Iterator[KeyValue]:
        """Emit trailing output after every key of the partition was reduced."""
        return iter(())


class Partitioner(ABC):
    """Chooses the reducer responsible for an intermediate key."""

    @abstractmethod
    def partition(self, key: Any, num_reducers: int) -> int:
        """Index (0-based) of the reducer that receives ``key``."""


class HashPartitioner(Partitioner):
    """Default partitioner: stable hash of the key modulo the reducer count."""

    def partition(self, key: Any, num_reducers: int) -> int:
        return _stable_hash(key) % num_reducers


class RoutingPartitioner(Partitioner):
    """Partitioner driven by an explicit routing table.

    TKIJ's join phase uses this to send every (bucket, interval) pair to exactly
    the reducers DTB selected.  Keys missing from the table fall back to hashing.
    """

    def __init__(self, routing: dict[Any, int]) -> None:
        self._routing = routing

    def partition(self, key: Any, num_reducers: int) -> int:
        if key in self._routing:
            return self._routing[key] % num_reducers
        return _stable_hash(key) % num_reducers


class FirstElementPartitioner(Partitioner):
    """Partitions composite keys by their first element.

    Jobs whose mappers already encode the destination in the key — TKIJ's join
    phase emits ``(reducer, vertex, bucket)``, the baselines emit
    ``(partition, ...)`` — route on that element directly: an integer first
    element is taken modulo the reducer count, anything else falls back to the
    stable hash.  Stateless, hence trivially picklable for the process backend.
    """

    def partition(self, key: Any, num_reducers: int) -> int:
        first = key[0]
        if isinstance(first, int) and not isinstance(first, bool):
            return first % num_reducers
        return _stable_hash(first) % num_reducers


def _stable_hash(key: Any) -> int:
    """Deterministic, process-independent hash for keys made of primitives/tuples."""
    if isinstance(key, tuple):
        value = 1469598103
        for item in key:
            value = (value * 1099511628211 + _stable_hash(item)) % (2 ** 61 - 1)
        return value
    if isinstance(key, str):
        value = 1469598103
        for char in key:
            value = (value * 31 + ord(char)) % (2 ** 61 - 1)
        return value
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, int):
        return key % (2 ** 61 - 1)
    if isinstance(key, float):
        return int(key * 1000003) % (2 ** 61 - 1)
    return abs(hash(key))


def default_record_size(key: Any, value: Any) -> int:
    """Default shuffle-size estimate: one abstract unit per record.

    A module-level function (not a lambda) so that job descriptions stay
    picklable for the process backend.
    """
    return 1


@dataclass
class MapReduceJob:
    """A complete job description handed to the engine.

    ``record_size`` estimates the size (in abstract units, e.g. records) of one
    shuffled value; the engine multiplies it into the shuffle counters so that the
    I/O comparisons of the paper (Figure 8's shuffle-cost discussion) can be
    reproduced without serialising anything.

    Every callable field must honour the module-level picklability contract
    (see the module docstring) for the job to run on the process backend.
    """

    name: str
    mapper_factory: Callable[[], Mapper]
    reducer_factory: Callable[[], Reducer]
    partitioner: Partitioner | None = None
    num_reducers: int = 1
    record_size: Callable[[Any, Any], int] = default_record_size

    def make_partitioner(self) -> Partitioner:
        return self.partitioner if self.partitioner is not None else HashPartitioner()

    def reducer_factory_for(self, partition: int) -> Callable[[], Reducer]:
        """Factory of the reducer folding partition ``partition``.

        The one factory a reduce task ships.  The default is the shared
        ``reducer_factory``; a job whose reducers each read their own slice of
        driver-side state overrides this, so a task carries its slice only.
        """
        return self.reducer_factory
