"""Paged heap file of raw vectors ("complete object descriptors").

RDB-tree leaves hold an 8-byte *pointer* to the full descriptor (paper
Sec. 3.2); resolving a candidate therefore costs one random page read.  This
module is that descriptor file: vectors are packed row-major into fixed-size
pages, held as one ``(num_pages, page_size)`` byte matrix — an array in RAM,
or a read-only mapping of the page file — and fetched by object id with one
fancy index, every page it touches counted, so each κ-candidate refinement
pass shows up in the I/O accounting exactly as in Sec. 4.4.1.
"""

from __future__ import annotations

import os

import numpy as np

from repro.storage.pages import DEFAULT_PAGE_SIZE, StorageError
from repro.storage.stats import ModelledPool


class VectorHeapFile(ModelledPool):
    """Fixed-width vector records packed into pages.

    Parameters
    ----------
    dim:
        Vector dimensionality ν.
    dtype:
        Storage dtype.  The paper stores 8-byte values for SIFT-style data in
        its leaf-order arithmetic but real corpora ship as float32/uint8;
        the dtype is configurable and reported in size accounting.
    page_size:
        B — bytes per page.
    cache_pages:
        Capacity of the modelled buffer pool
        (:class:`~repro.storage.stats.ModelledPool`; 0 = caching disabled,
        paper default).
    path:
        The page file to serve from, created empty if missing: a flat
        file of whole pages, mapped read-only and grown by appending.
        ``None`` keeps the pages in process memory.
    """

    def __init__(self, dim: int, dtype: np.dtype | str = np.float32,
                 page_size: int = DEFAULT_PAGE_SIZE, cache_pages: int = 0,
                 path: str | os.PathLike[str] | None = None) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        super().__init__(cache_pages, page_size)
        self.dim = dim
        self.dtype = np.dtype(dtype)
        self.record_size = dim * self.dtype.itemsize
        # A block is the unit records never straddle: one page of
        # ``records_per_page`` records, or — when a record is wider than
        # a page, so fetching it costs > 1 page read — the
        # ``_pages_per_record`` pages holding one.
        self.records_per_page = max(1, page_size // self.record_size)
        self._pages_per_record = -(-self.record_size // page_size)
        self.path = None if path is None else os.fspath(path)
        #: In-memory pages, over-allocated so appends are amortised O(1).
        self._buffer = np.zeros((0, page_size), dtype=np.uint8)
        if self.path is not None and not os.path.exists(self.path):
            open(self.path, "wb").close()
        # (page matrix, record count): one attribute, replaced whole, so
        # a gather concurrent with an append never pairs a new count
        # with an old matrix.
        self._state: tuple[np.ndarray | None, int] = (self._matrix(0), 0)

    def _matrix(self, pages: int) -> np.ndarray:
        """The page matrix, never writable: every page of the file,
        mapped, or the first ``pages`` pages of the buffer."""
        if self.path is not None and self._file_pages(self.path):
            return np.memmap(self.path, dtype=np.uint8, mode="r").view(
                np.ndarray).reshape(-1, self.page_size)
        # In memory — or an empty file, which cannot be mapped (the
        # buffer of a heap on disk stays empty).
        matrix = self._buffer[:pages]
        matrix.flags.writeable = False
        return matrix

    def _file_pages(self, path: str | os.PathLike[str]) -> int:
        size = os.path.getsize(path)
        if size % self.page_size:
            raise StorageError(
                f"existing file {os.fspath(path)} ({size} B) is not a whole "
                f"number of {self.page_size} B pages")
        return size // self.page_size

    def read(self, path: str | os.PathLike[str]) -> None:
        """Take the pages of the file at ``path`` into memory — how an
        in-memory heap reopens a snapshot (:meth:`restore_count` then
        says how many records they hold)."""
        self._buffer = np.fromfile(path, dtype=np.uint8).reshape(
            self._file_pages(path), self.page_size)
        self._state = (self._matrix(len(self._buffer)), 0)

    def _live(self) -> tuple[np.ndarray, int]:
        matrix, count = self._state
        if matrix is None:
            raise StorageError("descriptor heap is closed")
        return matrix, count

    def _records(self, matrix: np.ndarray) -> np.ndarray:
        """``matrix`` as ``(block, slot, record byte)`` — a pure view."""
        return matrix.reshape(
            -1, self._pages_per_record * self.page_size
        )[:, :self.records_per_page * self.record_size].reshape(
            -1, self.records_per_page, self.record_size)

    def restore_count(self, count: int) -> None:
        """Adopt the record count of a reopened file (persistence path)."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        matrix, _ = self._live()
        capacity = (matrix.shape[0] // self._pages_per_record
                    * self.records_per_page)
        if count > capacity:
            raise StorageError(
                f"heap holds at most {capacity} records, cannot restore "
                f"count {count}")
        self._state = (matrix, count)

    # -- writing -------------------------------------------------------

    def append_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Append ``vectors`` (n × dim) and return their object ids.

        One run of whole pages — from the block the first new record
        lands in (the open one, rewritten with its old records in place)
        to the last — is laid out, written once and counted as one
        sequential pass: into the over-allocated buffer in memory, as an
        ordinary file write followed by a fresh mapping on disk.  Earlier
        matrices stay valid for whoever holds them.
        """
        vectors = np.ascontiguousarray(vectors, dtype=self.dtype)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(
                f"expected shape (n, {self.dim}), got {vectors.shape}"
            )
        matrix, count = self._live()
        ids = np.arange(count, count + len(vectors), dtype=np.int64)
        if not len(vectors):
            return ids
        per_block, span = self.records_per_page, self._pages_per_record
        first_block = count // per_block
        first = first_block * span
        pages = -(-(count + len(ids)) // per_block) * span
        if self.path is None:
            if pages > len(self._buffer):
                grown = np.zeros((max(pages, 2 * len(self._buffer)),
                                  self.page_size), dtype=np.uint8)
                grown[:len(matrix)] = matrix
                self._buffer = grown
            run = self._buffer[first:pages]
        else:
            run = np.zeros((pages - first, self.page_size), dtype=np.uint8)
            if count % per_block:
                run[:span] = matrix[first:first + span]
        blocks, slots = np.divmod(ids, per_block)
        self._records(run)[blocks - first_block, slots] = \
            vectors.view(np.uint8).reshape(len(ids), self.record_size)
        if self.path is not None:
            with open(self.path, "r+b") as handle:
                handle.seek(first * self.page_size)
                handle.write(run)
        self._state = (self._matrix(pages), count + len(ids))
        self.stats.record_write_run(first, pages - first)
        return ids

    def append(self, vector: np.ndarray) -> int:
        """Append one vector, returning its object id."""
        ids = self.append_batch(np.asarray(vector, dtype=self.dtype)[None, :])
        return int(ids[0])

    def sync(self) -> None:
        """Make the page file durable (appends go through the OS cache)."""
        if self.path is not None:
            with open(self.path, "rb") as handle:
                os.fsync(handle.fileno())

    # -- reading -----------------------------------------------------------

    def fetch(self, object_id: int) -> np.ndarray:
        """Fetch a single vector by id (costs >= 1 counted page read)."""
        return self.gather([object_id])[0]

    def fetch_many(self, object_ids) -> np.ndarray:
        """Fetch several vectors as an ``(n, dim)`` array (:meth:`gather`)."""
        return self.gather(object_ids)

    def gather(self, object_ids) -> np.ndarray:
        """Vectorised multi-row fetch — the Algo.-2 refinement gather.

        A single numpy fancy-index over the page matrix plus one
        accounting pass over the pages it touched, in id order; duplicate
        page reads are not elided (caching policy is the modelled pool's
        job).  A fresh ``(n, dim)`` array of the storage dtype is
        returned, byte-identical across backends.

        An **empty** id set — the Algo.-2 refinement stage when every
        candidate was filtered or deleted — returns an empty ``(0, dim)``
        array immediately: neither the matrix nor the accountant is
        touched, so a zero-survivor query records zero heap reads (and
        the sequential-pattern state is preserved too).
        """
        object_ids = np.asarray(object_ids, dtype=np.int64).ravel()
        if object_ids.size == 0:
            return np.empty((0, self.dim), dtype=self.dtype)
        matrix, count = self._live()
        low, high = int(object_ids.min()), int(object_ids.max())
        if low < 0 or high >= count:
            bad = low if low < 0 else high
            raise StorageError(
                f"object id {bad} out of range [0, {count})")
        blocks, slots = np.divmod(object_ids, self.records_per_page)
        # The fancy index is the one copy.
        raw = self._records(matrix)[blocks, slots]
        span = self._pages_per_record
        self.record_read_many(blocks[:, None] * span + np.arange(span))
        return raw.view(self.dtype)

    def scan(self) -> np.ndarray:
        """Sequentially scan the whole file (linear-scan baseline path)."""
        return self.gather(np.arange(len(self)))

    def page_matrix(self) -> np.ndarray:
        """The ``(num_pages, page_size)`` ``uint8`` page matrix, read-only."""
        return self._live()[0]

    # -- informational ----------------------------------------------------

    def __len__(self) -> int:
        return self._state[1]

    def size_bytes(self) -> int:
        """On-disk footprint of the descriptor file: whole pages."""
        return (-(-len(self) // self.records_per_page)
                * self._pages_per_record * self.page_size)

    def close(self) -> None:
        """Drop the pages (the mapping, on disk); matrices already handed
        to a reader stay valid until it lets go.  Idempotent."""
        self._state, self._buffer = (None, self._state[1]), None


def heap_file_from_array(data: np.ndarray, dtype: np.dtype | str = np.float32,
                         page_size: int = DEFAULT_PAGE_SIZE,
                         cache_pages: int = 0,
                         path: str | os.PathLike[str] | None = None
                         ) -> VectorHeapFile:
    """Convenience constructor: wrap an (n, ν) array in a heap file."""
    heap = VectorHeapFile(dim=data.shape[1], dtype=dtype,
                          page_size=page_size, cache_pages=cache_pages,
                          path=path)
    heap.append_batch(data)
    return heap
