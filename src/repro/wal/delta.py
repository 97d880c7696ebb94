"""In-memory delta segment: un-folded inserts searched beside the base.

Inserts never touch the built RDB-trees or the descriptor heap; they
land here (and, when one is attached, in the write-ahead log first)
until ``HDIndex._fold_delta``.  The query engine unions the delta's id
range into the survivor set (the delta is brute-force reranked — every
delta member reaches stage iii, where the exact distance decides), and
:meth:`gather` serves their descriptors during the rerank fetch.

Two copies of each vector are kept deliberately:

* a row in the *storage dtype* of the base heap (float32 by default) —
  rerank distances must be computed over the same representation the
  heap would have stored, so a delta hit and the post-compaction base
  hit are bit-identical;
* the original float64 row — compaction re-inserts from the original so
  reference distances and Hilbert quantization match an index built from
  the full stream in one shot.

Deleted delta entries stay in the segment (id density: compaction
replays them so object ids keep matching a one-shot build); the engine's
deleted-id filter hides them, exactly as for base objects.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["DeltaSegment"]


class DeltaSegment:
    """Append-only in-memory segment of post-snapshot inserts.

    Args:
        base_count: Objects in the base snapshot; delta ids are assigned
            densely from here.
        dim: Descriptor dimensionality.
        dtype: Storage dtype of the base heap (rerank representation).
    """

    def __init__(self, base_count: int, dim: int,
                 dtype: np.dtype | type = np.float32) -> None:
        self.base_count = int(base_count)
        self.dim = int(dim)
        self.dtype = np.dtype(dtype)
        self._lock = threading.Lock()
        self._rows: list[np.ndarray] = []
        self._originals: list[np.ndarray] = []
        self._metadata: list[dict | None] = []

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def next_id(self) -> int:
        """Id the next :meth:`append` will receive."""
        return self.base_count + len(self._rows)

    def append(self, vector: np.ndarray,
               metadata: dict | None = None) -> int:
        """Add one descriptor (plus its optional per-point metadata
        dict); returns its assigned (dense) object id."""
        original = np.asarray(vector, dtype=np.float64).ravel()
        if original.shape[0] != self.dim:
            raise ValueError(
                f"vector has dimension {original.shape[0]}, "
                f"expected {self.dim}")
        row = original.astype(self.dtype)
        with self._lock:
            object_id = self.base_count + len(self._rows)
            self._originals.append(original)
            self._rows.append(row)
            self._metadata.append(metadata)
        return object_id

    def id_range(self) -> np.ndarray:
        """Dense ids currently held (``base_count .. base_count+len-1``)."""
        return np.arange(self.base_count, self.base_count + len(self._rows),
                         dtype=np.int64)

    def gather(self, ids: np.ndarray) -> np.ndarray:
        """Storage-dtype descriptors for delta ids (``ids >= base_count``)."""
        ids = np.asarray(ids, dtype=np.int64)
        out = np.empty((ids.shape[0], self.dim), dtype=self.dtype)
        rows = self._rows
        for position, object_id in enumerate(ids):
            out[position] = rows[int(object_id) - self.base_count]
        return out

    def metadata_rows(self) -> list[dict | None]:
        """Per-entry metadata dicts in insert order (``None`` entries for
        inserts that carried none) — the engine's scalar-predicate path
        over the un-compacted tail."""
        with self._lock:
            return list(self._metadata)

    def records(self) -> list[tuple[int, np.ndarray, dict | None]]:
        """``(object_id, original float64 vector, metadata)`` snapshot,
        in insert order — what compaction folds into the next
        generation."""
        with self._lock:
            originals = list(self._originals)
            metadata = list(self._metadata)
        return [(self.base_count + position, vector, meta)
                for position, (vector, meta)
                in enumerate(zip(originals, metadata))]

    def memory_bytes(self) -> int:
        return sum(row.nbytes for row in self._rows) + sum(
            row.nbytes for row in self._originals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DeltaSegment(base_count={self.base_count}, "
                f"len={len(self._rows)}, dim={self.dim}, "
                f"dtype={self.dtype.name})")
