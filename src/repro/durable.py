"""The checkpoint file: one append-only log of digest-framed records.

Every checkpoint — an :meth:`~repro.plan.ExecutionContext.checkpoint` file
and a durable :class:`~repro.serving.QueryServer`'s state — is one log:

* a header: the magic line ``repro-checkpoint`` and a format-version byte;
* then records, each an 8-byte length, the 4-byte blake2b digest of those
  8 bytes, the 32-byte blake2b digest of the body, then the body (a pickle).

Record 0 is the full snapshot; every later record is one change a durable
server appended after it (DESIGN.md §13).  :func:`read_log` checks both
digests of a record before it unpickles a byte.  A file whose snapshot is
not intact is refused.  A change record cut short by the end of the file —
or a bad last one — is a write whose reply was never sent, and is dropped;
a bad record with more bytes after it is corruption.

This module holds the only pickling of checkpoint bodies, and imports
nothing from the package.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import struct
from pathlib import Path
from typing import Any, BinaryIO, Callable

__all__ = ["Appender", "atomic_write", "encode", "read_log", "write_log"]

_MAGIC = b"repro-checkpoint\n\x02"  # a magic line, then the format version
_LENGTH = struct.Struct("<Q")
_FRAME = struct.Struct("<Q4s32s")  # body length, its digest, the body's digest

_staging_ids = itertools.count()


def _digest(data: bytes | memoryview, size: int = 32) -> bytes:
    return hashlib.blake2b(data, digest_size=size).digest()


def _frame(length: int, digest: bytes) -> bytes:
    packed = _LENGTH.pack(length)
    return packed + _digest(packed, 4) + digest


def atomic_write(path: str | Path, write: Callable[[BinaryIO], object]) -> int:
    """Publish the file ``write(handle)`` writes at ``path`` via a unique
    staging sibling + rename; returns the file's size.

    The staging name (``<path>.tmp.<pid>.<n>``) carries the writer's pid and
    a process-local counter, so concurrent writers of the *same* path never
    interleave write/rename on a shared staging file (each rename atomically
    publishes one complete file; last writer wins).  A crash mid-write
    leaves only a staging sibling behind, never a torn ``path``; a failed
    write cleans its staging file up before re-raising.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    staging = path.with_name(f"{path.name}.tmp.{os.getpid()}.{next(_staging_ids)}")
    try:
        with open(staging, "wb") as handle:
            write(handle)
            size = handle.seek(0, os.SEEK_END)
        os.replace(staging, path)
    except BaseException:
        staging.unlink(missing_ok=True)
        raise
    return size


class _HashingWriter:
    """A file wrapper that hashes every chunk written through it."""

    def __init__(self, handle: BinaryIO) -> None:
        self.handle = handle
        self.hash = hashlib.blake2b(digest_size=32)

    def write(self, chunk: bytes) -> int:
        self.hash.update(chunk)
        return self.handle.write(chunk)


def write_log(path: str | Path, snapshot: Any) -> int:
    """Publish a fresh log at ``path`` holding only ``snapshot`` (record 0),
    atomically (:func:`atomic_write`); returns the file's size.

    The pickle streams into the staging file as it is made, hashed on the
    way, and its frame is written last, so no copy of the whole pickle is
    ever held in memory.
    """

    def write(handle: BinaryIO) -> None:
        start = handle.write(_MAGIC + bytes(_FRAME.size))
        body = _HashingWriter(handle)
        pickle.dump(snapshot, body, protocol=pickle.HIGHEST_PROTOCOL)
        length = handle.tell() - start
        handle.seek(len(_MAGIC))
        handle.write(_frame(length, body.hash.digest()))

    return atomic_write(path, write)


def encode(change: Any) -> bytes:
    """The body of one change record, for :meth:`Appender.append`."""
    return pickle.dumps(change, protocol=pickle.HIGHEST_PROTOCOL)


class Appender:
    """The log at ``path`` (a :func:`write_log` file) open for appending."""

    def __init__(self, path: str | Path) -> None:
        self._handle = open(path, "ab")
        self.size = self._handle.tell()
        """Bytes in the file: the snapshot plus every record appended."""

    def append(self, body: bytes) -> None:
        """Write one change record and flush it to the operating system (no fsync)."""
        self._handle.write(_frame(len(body), _digest(body)))
        self._handle.write(body)
        self._handle.flush()
        self.size += _FRAME.size + len(body)

    def close(self) -> None:
        self._handle.close()


def read_log(path: str | Path) -> tuple[Any, list[Any]]:
    """The snapshot of the log at ``path`` and its changes, oldest first.

    Every failure raises :class:`ValueError`: a missing or unreadable file,
    a header of another format, a snapshot record that is not intact, a
    record whose length fails its digest, a bad change record with more
    bytes after it, or a body that does not unpickle (a class that no longer
    exists, say).  A torn or bad last change record is dropped.
    """
    try:
        data = Path(path).read_bytes()
        if not data.startswith(_MAGIC):
            raise ValueError("not a checkpoint file of this frame format")
        view = memoryview(data)
        bodies = []
        offset = len(_MAGIC)
        while len(data) - offset >= _FRAME.size:
            length, length_digest, digest = _FRAME.unpack_from(data, offset)
            if _digest(view[offset : offset + _LENGTH.size], 4) != length_digest:
                raise ValueError(f"the record at byte {offset} has a corrupt length")
            start = offset + _FRAME.size
            end = start + length
            body = view[start:end]
            if end > len(data) or _digest(body) != digest:
                if bodies and end >= len(data):
                    break  # a torn or bad last change: its reply was never sent
                raise ValueError(f"the record at byte {offset} is truncated or corrupted")
            bodies.append(body)
            offset = end
        if not bodies:
            raise ValueError("the file holds no intact snapshot")
        snapshot, *changes = [pickle.loads(body) for body in bodies]
    except Exception as error:
        raise ValueError(f"cannot read checkpoint {str(path)!r}: {error!r}") from error
    return snapshot, changes
