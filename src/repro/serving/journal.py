"""The durable server's journal: one digest-framed record per state-changing verb.

A checkpointing :class:`~repro.serving.QueryServer` keeps two files: the
snapshot ``<checkpoint>`` (written whole, framed like every checkpoint, see
:func:`repro.plan.context.atomic_pickle_dump`) and the append-only
``<checkpoint>.journal`` of what each verb changed since that snapshot
(DESIGN.md §13).  The journal's layout:

* a header: the magic line ``repro-journal``, a format-version byte and the
  64-bit *generation* of the snapshot its records follow;
* then records, each an 8-byte length, the 4-byte blake2b digest of those
  8 bytes, the 32-byte blake2b digest of the body, then the body (a pickle).

The reader checks both digests before it unpickles a byte.  A record cut
short by the end of the file — or a bad last record — is a write whose reply
was never sent, and is dropped; a bad record with more bytes after it is
corruption, and raises :class:`ValueError`.

This module also holds the columnar form collections take in snapshots and
records: int64 uids and float64 endpoints as
:class:`~repro.columnar.IntervalColumns`, plus a stream's batch sizes.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path
from typing import Any, BinaryIO, Sequence

from ..columnar.columns import IntervalColumns
from ..plan.context import atomic_write
from ..streaming.collection import StreamingCollection
from ..temporal.interval import Interval, IntervalCollection

__all__ = [
    "Journal",
    "collection_state",
    "journal_path",
    "read_journal",
    "rebuild_collection",
]

_MAGIC = b"repro-journal\n\x01"  # a magic line, then the format version
_GENERATION = struct.Struct("<Q")
_HEADER_SIZE = len(_MAGIC) + _GENERATION.size
_LENGTH = struct.Struct("<Q")
_FRAME = struct.Struct("<Q4s32s")  # body length, its digest, the body's digest


def _digest(data: bytes | memoryview, size: int = 32) -> bytes:
    return hashlib.blake2b(data, digest_size=size).digest()


def journal_path(checkpoint: Path) -> Path:
    """The journal beside a snapshot: ``<checkpoint>.journal``."""
    return checkpoint.with_name(checkpoint.name + ".journal")


class Journal:
    """An open journal, appended to record by record."""

    def __init__(self, handle: BinaryIO, size: int) -> None:
        self._handle = handle
        self.size = size
        """Bytes in the file: the header plus every record appended."""

    @classmethod
    def create(cls, path: Path, generation: int) -> "Journal":
        """Start an empty journal following the snapshot of ``generation``.

        The header is published by an atomic rename, so a crash leaves either
        the previous journal or this empty one, never a torn header.
        """
        atomic_write(path, lambda handle: handle.write(_MAGIC + _GENERATION.pack(generation)))
        return cls(open(path, "ab"), _HEADER_SIZE)

    def append(self, body: bytes) -> None:
        """Write one record and flush it to the operating system (no fsync)."""
        length = _LENGTH.pack(len(body))
        self._handle.write(length + _digest(length, 4) + _digest(body))
        self._handle.write(body)
        self._handle.flush()
        self.size += _FRAME.size + len(body)

    def close(self) -> None:
        self._handle.close()


def read_journal(path: Path, generation: int) -> list[bytes]:
    """The record bodies of the journal at ``path``, oldest first.

    Empty when there is no journal or its header names another generation
    (a crash between a compaction's snapshot and its fresh journal leaves
    the old journal, whose records the new snapshot already holds).  A torn
    last record is dropped; a malformed header, a record whose length fails
    its digest or a bad record with more bytes after it raises
    :class:`ValueError`.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return []
    if len(data) < _HEADER_SIZE or not data.startswith(_MAGIC):
        raise ValueError(f"{str(path)!r} is not a journal of this format")
    if _GENERATION.unpack_from(data, len(_MAGIC))[0] != generation:
        return []
    view = memoryview(data)
    records = []
    offset = _HEADER_SIZE
    while len(data) - offset >= _FRAME.size:
        length, length_digest, digest = _FRAME.unpack_from(data, offset)
        if _digest(view[offset : offset + _LENGTH.size], 4) != length_digest:
            raise ValueError(f"journal record at byte {offset} has a corrupt length")
        start = offset + _FRAME.size
        end = start + length
        if end > len(data):
            break  # torn: the write was cut short
        body = view[start:end]
        if _digest(body) != digest:
            if end == len(data):
                break  # a bad last record: its reply was never sent
            raise ValueError(f"journal record at byte {offset} fails its digest")
        records.append(bytes(body))
        offset = end
    return records


# ------------------------------------------------------------- collections
def interval_columns(intervals: Sequence[Interval]) -> IntervalColumns:
    """A batch of intervals as columns (int64 uids, float64 endpoints)."""
    return IntervalColumns.from_intervals(list(intervals))


def collection_state(collection: IntervalCollection) -> dict[str, Any]:
    """A collection in columnar form: every interval — committed, then staged —
    and, for a stream, the sizes of its committed and staged batches."""
    if not isinstance(collection, StreamingCollection):
        return {"streaming": False, "intervals": interval_columns(collection.intervals)}
    staged = collection.staged_batches()
    rows = collection.intervals + [interval for batch in staged for interval in batch]
    return {
        "streaming": True,
        "intervals": interval_columns(rows),
        "committed": list(collection.log.sizes),
        "staged": [len(batch) for batch in staged],
    }


def rebuild_collection(name: str, state: dict[str, Any]) -> IntervalCollection:
    """The collection a :func:`collection_state` describes, rebuilt through
    the public ingest/commit path (so uids are re-checked)."""
    rows = state["intervals"].to_intervals()
    if not state["streaming"]:
        return IntervalCollection(name, list(rows))
    committed = len(state["committed"])
    batches = [*state["committed"], *state["staged"]]
    cursor = len(rows) - sum(batches)
    if cursor < 0:
        raise ValueError(f"collection {name!r}: batch sizes exceed its intervals")
    stream = StreamingCollection(name, rows[:cursor])
    for index, size in enumerate(batches):
        stream.ingest(rows[cursor : cursor + size])
        cursor += size
        if index < committed:
            stream.commit_next()
    return stream
