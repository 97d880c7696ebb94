"""Write-ahead log: length+CRC32-framed insert/delete records.

The log is the durability half of the online-update design (the other
half is the in-memory :class:`~repro.wal.delta.DeltaSegment` the records
are replayed into).  An ingest-time write costs O(one log frame) of I/O
— Goswami et al.'s block-transfer budget for external-memory updates —
instead of the full snapshot rewrite the pre-WAL path paid.

Frame format (little-endian, one frame per record)::

    +----------------+----------------+-------------------------------+
    | length: u32    | crc32: u32     | payload (length bytes)        |
    +----------------+----------------+-------------------------------+
    payload = op: u8 | object_id: i64 | -1: i32 | vector: f64[dim]

``op`` is :data:`OP_INSERT` (vector present), :data:`OP_DELETE` (no
vector) or :data:`OP_INSERT_META` (a u32 length-prefixed UTF-8 JSON
metadata dict between the fixed prefix and the vector — the filtered-kNN
attributes riding the insert).  Plain inserts keep the exact
:data:`OP_INSERT` framing, so logs written before the metadata opcode
existed replay unchanged.  The i32 is always written as ``-1`` and
ignored on read (it once named a shard), so log bytes never moved.  The
CRC covers the payload only; the length prefix lets replay skip to the
next frame boundary without decoding.

Replay (:func:`replay_wal`) stops at the first frame that fails any
check — short header, short payload, CRC mismatch, undecodable payload —
and (by default) truncates the file back to the last good frame
boundary.  A torn tail from a crash mid-append therefore costs exactly
the un-acked suffix, never the records before it.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib

import numpy as np

__all__ = [
    "OP_DELETE",
    "OP_INSERT",
    "OP_INSERT_META",
    "WalError",
    "WalRecord",
    "WriteAheadLog",
    "replay_wal",
]

#: Frame header: (payload length, crc32 of payload), little-endian u32s.
_HEADER = struct.Struct("<II")
#: Payload prefix: (op, object_id, -1).
_BODY = struct.Struct("<Bqi")
#: Metadata-JSON length prefix inside OP_INSERT_META payloads.
_META_LEN = struct.Struct("<I")

OP_INSERT = 1
OP_DELETE = 2
OP_INSERT_META = 3

#: fsync policies a :class:`WriteAheadLog` accepts.
FSYNC_POLICIES = ("always", "batch")


class WalError(RuntimeError):
    """A write-ahead log violated its framing or sequencing contract."""


class WalRecord:
    """One decoded log record.

    Attributes
    ----------
    op:
        ``"insert"`` or ``"delete"``.
    object_id:
        The global object id the record applies to (dense, append-order).
    vector:
        ``(dim,)`` float64 descriptor for inserts, ``None`` for deletes.
    metadata:
        Per-point attribute dict for inserts that carried one
        (:data:`OP_INSERT_META`), else ``None``.
    """

    __slots__ = ("op", "object_id", "vector", "metadata")

    def __init__(self, op: str, object_id: int,
                 vector: np.ndarray | None = None,
                 metadata: dict | None = None) -> None:
        self.op = op
        self.object_id = int(object_id)
        self.vector = vector
        self.metadata = metadata

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dim = None if self.vector is None else self.vector.shape[0]
        return (f"WalRecord(op={self.op!r}, object_id={self.object_id}, "
                f"dim={dim})")


def _encode(op: int, object_id: int, vector: np.ndarray | None,
            metadata: dict | None = None) -> bytes:
    payload = _BODY.pack(op, object_id, -1)
    if metadata is not None:
        blob = json.dumps(metadata, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        payload += _META_LEN.pack(len(blob)) + blob
    if vector is not None:
        payload += np.ascontiguousarray(vector, dtype="<f8").tobytes()
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _decode_vector(body: bytes, label: str) -> np.ndarray:
    if not body or len(body) % 8:
        raise WalError(
            f"{label} payload carries {len(body)} vector bytes, "
            f"not a positive multiple of 8")
    return np.frombuffer(body, dtype="<f8").astype(np.float64)


def _decode(payload: bytes) -> WalRecord:
    if len(payload) < _BODY.size:
        raise WalError("WAL payload shorter than its fixed prefix")
    op, object_id, _ = _BODY.unpack_from(payload)
    body = payload[_BODY.size:]
    if op == OP_INSERT:
        return WalRecord("insert", object_id,
                         _decode_vector(body, "insert"))
    if op == OP_INSERT_META:
        if len(body) < _META_LEN.size:
            raise WalError("insert payload shorter than its metadata "
                           "length prefix")
        (meta_length,) = _META_LEN.unpack_from(body)
        meta_end = _META_LEN.size + meta_length
        if len(body) < meta_end:
            raise WalError(
                f"insert payload advertises {meta_length} metadata bytes "
                f"but carries {len(body) - _META_LEN.size}")
        try:
            metadata = json.loads(
                body[_META_LEN.size:meta_end].decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise WalError(f"undecodable insert metadata: {error}") \
                from None
        if not isinstance(metadata, dict):
            raise WalError("insert metadata is not a JSON object")
        return WalRecord("insert", object_id,
                         _decode_vector(body[meta_end:], "insert"),
                         metadata)
    if op == OP_DELETE:
        if body:
            raise WalError("delete payload carries trailing bytes")
        return WalRecord("delete", object_id)
    raise WalError(f"unknown WAL opcode {op}")


class WriteAheadLog:
    """Appender for the framed log at ``path``.

    Args:
        path: Log file (created on first append; parent directory must
            exist).
        fsync: Durability policy — ``"always"`` fsyncs every append (a
            crash loses nothing acknowledged), ``"batch"`` flushes every
            append but fsyncs only on :meth:`sync` (a crash may lose the
            OS-buffered tail, replay repairs any torn frame).

    Thread-safe: appends serialise on an internal lock, so concurrent
    ingest threads produce a valid frame sequence.
    """

    def __init__(self, path: str | os.PathLike[str],
                 fsync: str = "always") -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync!r}; choose from "
                f"{FSYNC_POLICIES}")
        self.path = os.fspath(path)
        self.fsync = fsync
        self._lock = threading.Lock()
        self._handle = None
        self._appended = 0

    # -- writing -------------------------------------------------------

    def _file(self):
        if self._handle is None:
            self._handle = open(self.path, "ab")
        return self._handle

    def _append(self, frame: bytes) -> None:
        with self._lock:
            handle = self._file()
            handle.write(frame)
            handle.flush()
            if self.fsync == "always":
                os.fsync(handle.fileno())
            self._appended += 1

    def append_insert(self, object_id: int, vector: np.ndarray,
                      metadata: dict | None = None) -> None:
        """Append an insert record (the descriptor travels as float64, so
        compaction can re-quantize from the original values).  With
        ``metadata`` the record uses the :data:`OP_INSERT_META` framing;
        without it the plain :data:`OP_INSERT` frame stays byte-identical
        to pre-metadata logs."""
        op = OP_INSERT if metadata is None else OP_INSERT_META
        self._append(_encode(op, int(object_id),
                             np.asarray(vector, dtype=np.float64).ravel(),
                             metadata))

    def append_delete(self, object_id: int) -> None:
        """Append a delete record."""
        self._append(_encode(OP_DELETE, int(object_id), None))

    def sync(self) -> None:
        """Force appended frames to stable storage (no-op under
        ``"always"``, the batch boundary under ``"batch"``)."""
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                os.fsync(self._handle.fileno())

    # -- lifecycle -----------------------------------------------------

    def truncate(self) -> None:
        """Drop every record (called after compaction folds them into a
        published snapshot generation)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            with open(self.path, "wb") as handle:
                handle.flush()
                os.fsync(handle.fileno())
            self._appended = 0

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def size_bytes(self) -> int:
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    @property
    def appended(self) -> int:
        """Records appended through this handle (not the file total)."""
        return self._appended

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WriteAheadLog(path={self.path!r}, fsync={self.fsync!r})"


def replay_wal(path: str | os.PathLike[str], repair: bool = True
               ) -> tuple[list[WalRecord], int]:
    """Read every intact record from a log file.

    Args:
        path: Log file; missing or empty files replay to no records.
        repair: Truncate the file back to the last good frame boundary
            when a torn/corrupt tail is found (the crash-recovery
            default).  With ``False`` the file is left untouched — used
            by read-only inspection.

    Returns:
        ``(records, dropped_bytes)`` — the decoded prefix of the log and
        how many trailing bytes were discarded (0 for a clean log).
        Replay is idempotent: replaying twice yields the same records,
        and a repaired file replays identically to the first pass.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        return [], 0
    records: list[WalRecord] = []
    offset = 0
    good = 0
    total = len(blob)
    while offset + _HEADER.size <= total:
        length, crc = _HEADER.unpack_from(blob, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > total:
            break  # torn tail: frame body ran past EOF
        payload = blob[start:end]
        if zlib.crc32(payload) != crc:
            break  # bit rot / torn rewrite: stop at the first bad frame
        try:
            records.append(_decode(payload))
        except WalError:
            break
        offset = end
        good = end
    dropped = total - good
    if dropped and repair:
        with open(path, "r+b") as handle:
            handle.truncate(good)
            handle.flush()
            os.fsync(handle.fileno())
    return records, dropped
