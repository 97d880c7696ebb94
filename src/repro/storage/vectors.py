"""Paged heap file of raw vectors ("complete object descriptors").

RDB-tree leaves hold an 8-byte *pointer* to the full descriptor (paper
Sec. 3.2); resolving a candidate therefore costs one random page read.  This
module is that descriptor file: vectors are packed row-major into fixed-size
pages and fetched by object id through a buffer pool, so every κ-candidate
refinement pass shows up in the I/O accounting exactly as in Sec. 4.4.1.
"""

from __future__ import annotations

import numpy as np

from repro.storage.buffer import BufferPool
from repro.storage.pages import DEFAULT_PAGE_SIZE, InMemoryPageStore, PageStore, StorageError


class VectorHeapFile:
    """Fixed-width vector records packed into pages.

    Parameters
    ----------
    dim:
        Vector dimensionality ν.
    dtype:
        Storage dtype.  The paper stores 8-byte values for SIFT-style data in
        its leaf-order arithmetic but real corpora ship as float32/uint8;
        the dtype is configurable and reported in size accounting.
    store:
        Backing page store (an in-memory store is created by default).
    cache_pages:
        Buffer-pool capacity in pages (0 = caching disabled, paper default).
    """

    def __init__(self, dim: int, dtype: np.dtype | str = np.float32,
                 store: PageStore | None = None, cache_pages: int = 0) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim
        self.dtype = np.dtype(dtype)
        self.record_size = dim * self.dtype.itemsize
        self._store = store if store is not None else InMemoryPageStore()
        if self.record_size > self._store.page_size:
            # One record spans several pages; fetching costs > 1 page read.
            self.records_per_page = 1
            self._pages_per_record = -(-self.record_size // self._store.page_size)
        else:
            self.records_per_page = self._store.page_size // self.record_size
            self._pages_per_record = 1
        self.pool = BufferPool(self._store, capacity=cache_pages)
        self._count = 0

    def restore_count(self, count: int) -> None:
        """Adopt the record count of a reopened store (persistence path)."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        capacity = self._store.num_pages * self.records_per_page \
            if self._pages_per_record == 1 \
            else self._store.num_pages // self._pages_per_record
        if count > capacity:
            raise StorageError(
                f"store holds at most {capacity} records, cannot restore "
                f"count {count}")
        self._count = count

    # -- writing -------------------------------------------------------

    def append_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Append ``vectors`` (n × dim) and return their object ids."""
        vectors = np.ascontiguousarray(vectors, dtype=self.dtype)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(
                f"expected shape (n, {self.dim}), got {vectors.shape}"
            )
        first_id, per_page = self._count, self.records_per_page
        # Finish the open page row by row, emit whole pages from one
        # (pages, per_page * record_size) view — one allocate and one
        # write per page, not a read-patch-write per row — and start the
        # last page row by row.  Records wider than a page go row by row.
        head = min(-first_id % per_page, len(vectors)) \
            if self._pages_per_record == 1 else len(vectors)
        whole = (len(vectors) - head) // per_page * per_page
        for row in vectors[:head]:
            self._append_row(row)
        for page in vectors[head:head + whole].view(np.uint8).reshape(
                whole // per_page, per_page * self.record_size):
            self.pool.write(self.pool.allocate(), page.tobytes())
        self._count += whole
        for row in vectors[head + whole:]:
            self._append_row(row)
        return np.arange(first_id, self._count, dtype=np.int64)

    def append(self, vector: np.ndarray) -> int:
        """Append one vector, returning its object id."""
        ids = self.append_batch(np.asarray(vector, dtype=self.dtype)[None, :])
        return int(ids[0])

    def _append_row(self, row: np.ndarray) -> None:
        object_id = self._count
        raw = row.tobytes()
        if self._pages_per_record == 1:
            page_id, slot = divmod(object_id, self.records_per_page)
            if slot == 0:
                page_id = self.pool.allocate()
            page = bytearray(self.pool.read(page_id))
            page[slot * self.record_size:(slot + 1) * self.record_size] = raw
            self.pool.write(page_id, bytes(page))
        else:
            page_size = self._store.page_size
            for chunk_index in range(self._pages_per_record):
                page_id = self.pool.allocate()
                chunk = raw[chunk_index * page_size:(chunk_index + 1) * page_size]
                self.pool.write(page_id, chunk)
        self._count += 1

    # -- reading -----------------------------------------------------------

    def fetch(self, object_id: int) -> np.ndarray:
        """Fetch a single vector by id (costs >= 1 counted page read)."""
        self._check_id(object_id)
        if self._pages_per_record == 1:
            page_id, slot = divmod(object_id, self.records_per_page)
            page = self.pool.read(page_id)
            raw = page[slot * self.record_size:(slot + 1) * self.record_size]
        else:
            first_page = object_id * self._pages_per_record
            raw = b"".join(
                self.pool.read(first_page + i)
                for i in range(self._pages_per_record)
            )[: self.record_size]
        return np.frombuffer(raw, dtype=self.dtype).copy()

    def fetch_many(self, object_ids) -> np.ndarray:
        """Fetch several vectors as an ``(n, dim)`` array.

        Delegates to :meth:`gather`, which vectorises the whole multi-row
        fetch over a zero-copy page view when the backing store supports
        it (``MmapPageStore``), and loops through the buffer pool
        otherwise.  Duplicate page reads are not elided (caching policy is
        the buffer pool's — or, in mmap mode, the OS page cache's — job).
        """
        return self.gather(object_ids)

    def gather(self, object_ids) -> np.ndarray:
        """Vectorised multi-row fetch — the Algo.-2 refinement gather.

        Over an :class:`~repro.storage.pages.MmapPageStore` with caching
        disabled (``cache_pages=0``, the recommended mmap configuration —
        the OS page cache is the buffer pool) this is a single numpy
        fancy-index over the store's zero-copy page matrix plus one
        vectorised I/O-accounting pass; page reads are counted exactly as
        the per-record loop would count them.  Other stores — and any
        store with a live buffer pool, whose hit accounting the fast path
        must not bypass — fall back to per-record fetches through the
        pool.  Either way a fresh ``(n, dim)`` array of the storage dtype
        is returned, byte-identical across backends.

        An **empty** id set — the Algo.-2 refinement stage when every
        candidate was filtered or deleted — returns an empty ``(0, dim)``
        array immediately: the store, the buffer pool and the
        :class:`~repro.storage.stats.IOStats` accountant are not touched,
        so a zero-survivor query records zero heap reads on every backend.
        """
        object_ids = np.asarray(object_ids, dtype=np.int64).ravel()
        if object_ids.size == 0:
            # Before any store/pool access: no reads happen and none are
            # recorded (the sequential-pattern state is preserved too).
            return np.empty((0, self.dim), dtype=self.dtype)
        page_matrix = getattr(self._store, "page_matrix", None)
        if page_matrix is None or self.pool.capacity > 0:
            out = np.empty((object_ids.size, self.dim), dtype=self.dtype)
            for i, object_id in enumerate(object_ids):
                out[i] = self.fetch(int(object_id))
            return out
        low, high = int(object_ids.min()), int(object_ids.max())
        if low < 0 or high >= self._count:
            bad = low if low < 0 else high
            raise StorageError(
                f"object id {bad} out of range [0, {self._count})")
        matrix = page_matrix()
        if self._pages_per_record == 1:
            page_ids, slots = np.divmod(object_ids, self.records_per_page)
            usable = self.records_per_page * self.record_size
            # Splitting the contiguous in-page region into (slot, byte)
            # axes is a pure view; the fancy index below is the one copy.
            records = matrix[:, :usable].reshape(
                matrix.shape[0], self.records_per_page, self.record_size)
            raw = records[page_ids, slots]
            self._store.stats.record_read_many(page_ids)
        else:
            first = object_ids * self._pages_per_record
            pages = first[:, None] + np.arange(self._pages_per_record)
            raw = matrix[pages].reshape(
                object_ids.size, -1)[:, :self.record_size]
            self._store.stats.record_read_many(pages)
        return np.ascontiguousarray(raw).view(self.dtype).reshape(
            object_ids.size, self.dim)

    def scan(self) -> np.ndarray:
        """Sequentially scan the whole file (linear-scan baseline path)."""
        rows = [self.fetch(i) for i in range(self._count)]
        if not rows:
            return np.empty((0, self.dim), dtype=self.dtype)
        return np.vstack(rows)

    # -- informational ----------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def stats(self):
        return self._store.stats

    def size_bytes(self) -> int:
        """On-disk footprint of the descriptor file."""
        return self._store.size_bytes()

    def close(self) -> None:
        self._store.close()

    def _check_id(self, object_id: int) -> None:
        if not 0 <= object_id < self._count:
            raise StorageError(
                f"object id {object_id} out of range [0, {self._count})"
            )


def heap_file_from_array(data: np.ndarray, dtype: np.dtype | str = np.float32,
                         page_size: int = DEFAULT_PAGE_SIZE,
                         cache_pages: int = 0,
                         store: PageStore | None = None) -> VectorHeapFile:
    """Convenience constructor: wrap an (n, ν) array in a heap file."""
    if store is None:
        store = InMemoryPageStore(page_size=page_size)
    heap = VectorHeapFile(
        dim=data.shape[1], dtype=dtype, store=store, cache_pages=cache_pages,
    )
    heap.append_batch(data)
    return heap
