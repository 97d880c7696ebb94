"""Online updates: write-ahead log, delta segments, generation swaps.

The base HD-Index snapshot is immutable once built; this package makes
it *servable under live traffic* anyway:

* :class:`~repro.wal.log.WriteAheadLog` — length+CRC32-framed
  insert/delete records with a configurable fsync policy; replay
  truncates torn tails back to the last good frame;
* :class:`~repro.wal.delta.DeltaSegment` — the in-memory tail of
  un-compacted inserts, brute-force merged into the engine's
  survivor/rerank stage beside the base snapshot;
* :mod:`~repro.wal.manager` — generation-tagged compaction: the delta is
  folded into a sibling ``gen-NNNNNN/`` snapshot, atomically published
  via the ``CURRENT`` pointer, and adopted by live pools/services
  between micro-batches (zero-downtime swap).

Every insert lands in the delta segment whether or not a log is
attached; the log adds durability — one frame of I/O per write — and
the generation chain.
"""

from repro.wal.delta import DeltaSegment
from repro.wal.log import (
    OP_DELETE,
    OP_INSERT,
    WalError,
    WalRecord,
    WriteAheadLog,
    replay_wal,
)
from repro.wal.manager import (
    CURRENT_FILE,
    WAL_FILE,
    attach_wal,
    compact_index,
    enable_wal,
    generation_name,
    has_wal_layout,
    publish_current,
    read_current,
    resolve_snapshot_dir,
)

__all__ = [
    "CURRENT_FILE",
    "DeltaSegment",
    "OP_DELETE",
    "OP_INSERT",
    "WAL_FILE",
    "WalError",
    "WalRecord",
    "WriteAheadLog",
    "attach_wal",
    "compact_index",
    "enable_wal",
    "generation_name",
    "has_wal_layout",
    "publish_current",
    "read_current",
    "replay_wal",
    "resolve_snapshot_dir",
]
