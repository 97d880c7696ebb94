"""Fixed-size page stores.

Every disk-resident structure in this reproduction (RDB-trees, the baselines'
B+-trees, the raw vector heap file) sits on top of a :class:`PageStore` — an
allocate/read/write interface over fixed-size pages, mirroring how the paper's
C++ implementation talks to a 4 KB-page filesystem.

Three implementations are provided:

* :class:`InMemoryPageStore` — a list of ``bytes`` objects.  Fast, used by
  tests and benchmarks; I/O is still *counted* so the disk-access analysis of
  the paper can be reproduced without physical disk latency.
* :class:`FilePageStore` — a real file on disk accessed with seek/read/write,
  for end-to-end demonstrations of the disk-resident design.
* :class:`MmapPageStore` — the same file format served through ``mmap``:
  reads are zero-copy ``memoryview`` slices over the mapping (no per-read
  ``read()`` copy, no syscall on a warm page), so an index bigger than RAM
  can be opened and queried with the OS page cache doing the caching.
"""

from __future__ import annotations

import mmap
import os
import threading
from typing import Iterator

import numpy as np

from repro.storage.stats import IOStats

#: Disk page size used throughout the paper's evaluation (Sec. 5).
DEFAULT_PAGE_SIZE = 4096


class StorageError(RuntimeError):
    """Raised for invalid page-store operations (bad id, closed store...)."""


class PageStore:
    """Abstract fixed-size page store.

    Subclasses implement :meth:`_read` and :meth:`_write`; this base class
    owns allocation, bounds checking, and I/O accounting.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size <= 0:
            raise ValueError(f"page_size must be positive, got {page_size}")
        self.page_size = page_size
        self.stats = IOStats()
        self._num_pages = 0
        self._closed = False

    # -- interface -----------------------------------------------------

    def allocate(self) -> int:
        """Allocate a fresh zeroed page and return its id."""
        self._check_open()
        page_id = self._num_pages
        self._num_pages += 1
        self._write(page_id, bytes(self.page_size))
        return page_id

    def read(self, page_id: int) -> bytes:
        """Read one page, recording the access."""
        self._check_open()
        self._check_page_id(page_id)
        self.stats.record_read(page_id)
        return self._read(page_id)

    def write(self, page_id: int, data: bytes) -> None:
        """Write one page, recording the access.

        ``data`` shorter than the page size is zero-padded; longer data is
        rejected because it would silently corrupt a neighbouring page.
        """
        self._check_open()
        self._check_page_id(page_id)
        if len(data) > self.page_size:
            raise StorageError(
                f"record of {len(data)} bytes exceeds page size {self.page_size}"
            )
        if len(data) < self.page_size:
            data = bytes(data) + bytes(self.page_size - len(data))
        self.stats.record_write(page_id)
        self._write(page_id, bytes(data))

    def close(self) -> None:
        """Release resources; further access raises :class:`StorageError`."""
        self._closed = True

    # -- informational -------------------------------------------------

    @property
    def num_pages(self) -> int:
        """Number of pages allocated so far."""
        return self._num_pages

    def size_bytes(self) -> int:
        """Total on-"disk" footprint of the store."""
        return self._num_pages * self.page_size

    def iter_page_ids(self) -> Iterator[int]:
        """Yield all allocated page ids in order (sequential scan order)."""
        return iter(range(self._num_pages))

    # -- hooks ----------------------------------------------------------

    def _read(self, page_id: int) -> bytes:
        raise NotImplementedError

    def _write(self, page_id: int, data: bytes) -> None:
        raise NotImplementedError

    # -- validation ------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("page store is closed")

    def _check_page_id(self, page_id: int) -> None:
        if not 0 <= page_id < self._num_pages:
            raise StorageError(
                f"page id {page_id} out of range [0, {self._num_pages})"
            )

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "PageStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _open_page_file(path: str, page_size: int):
    """Open (or create) a flat page file, validating whole-page size.

    Shared by the file and mmap backends so the on-disk contract cannot
    drift between them.  Returns ``(file object, page count)``.
    """
    existing = os.path.exists(path)
    handle = open(path, "r+b" if existing else "w+b")
    num_pages = 0
    if existing:
        size = os.path.getsize(path)
        if size % page_size != 0:
            handle.close()
            raise StorageError(
                f"existing file {path} ({size} B) is not a whole "
                f"number of {page_size} B pages"
            )
        num_pages = size // page_size
    return handle, num_pages


def replace_file(path: str | os.PathLike[str], data: bytes | str) -> None:
    """Atomically put ``data`` at ``path`` (write ``<path>.tmp``, fsync,
    ``os.replace``).  For every snapshot file this process or a worker
    pool may have mapped: a mapping of the old file keeps its complete
    bytes (truncating in place would pull them from under it), and a
    crash leaves the old file or the new one, never a torn one."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "w" if isinstance(data, str) else "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


class InMemoryPageStore(PageStore):
    """Page store backed by a Python list.

    Used for tests and benchmarks: all the paper's disk-access accounting is
    preserved through :class:`~repro.storage.stats.IOStats` without paying
    filesystem latency.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        super().__init__(page_size)
        self._pages: list[bytes] = []

    @classmethod
    def from_bytes(cls, data: bytes,
                   page_size: int = DEFAULT_PAGE_SIZE) -> "InMemoryPageStore":
        """Materialise a store from a flat page image in one step.

        The bulk path for ``load_index(..., backend="memory")``: slicing
        one read of the whole file beats a per-page seek/read loop by
        orders of magnitude on large snapshots.
        """
        if len(data) % page_size != 0:
            raise StorageError(
                f"page image of {len(data)} B is not a whole number of "
                f"{page_size} B pages")
        store = cls(page_size=page_size)
        store._pages = [bytes(data[offset:offset + page_size])
                        for offset in range(0, len(data), page_size)]
        store._num_pages = len(store._pages)
        return store

    def _read(self, page_id: int) -> bytes:
        return self._pages[page_id]

    def _write(self, page_id: int, data: bytes) -> None:
        if page_id == len(self._pages):
            self._pages.append(data)
        else:
            self._pages[page_id] = data

    def close(self) -> None:
        super().close()
        self._pages.clear()


class FilePageStore(PageStore):
    """Page store backed by a real file, for disk-resident demonstrations."""

    def __init__(self, path: str | os.PathLike[str],
                 page_size: int = DEFAULT_PAGE_SIZE) -> None:
        super().__init__(page_size)
        self.path = os.fspath(path)
        self._file, self._num_pages = _open_page_file(self.path, page_size)
        # seek + read share the single file position: concurrent readers
        # (service threads, online-update readers during a hot swap) must
        # not interleave them.
        self._io_lock = threading.Lock()

    def _read(self, page_id: int) -> bytes:
        with self._io_lock:
            self._file.seek(page_id * self.page_size)
            data = self._file.read(self.page_size)
        if len(data) != self.page_size:
            raise StorageError(f"short read on page {page_id}")
        return data

    def _write(self, page_id: int, data: bytes) -> None:
        with self._io_lock:
            self._file.seek(page_id * self.page_size)
            self._file.write(data)

    def flush(self) -> None:
        """Push buffered writes to the file (persistence checkpoint)."""
        self._check_open()
        self._file.flush()

    def close(self) -> None:
        if not self._closed:
            self._file.flush()
            self._file.close()
        super().close()


class MmapPageStore(PageStore):
    """Memory-mapped page store: zero-copy reads over the page file.

    The on-disk format is identical to :class:`FilePageStore` (a flat file
    of ``page_size`` pages), so the two backends are interchangeable over
    the same ``.pages`` files.  The differences are operational:

    * :meth:`read` returns a ``memoryview`` slice of the mapping — no copy,
      no syscall; the OS page cache decides what is resident, which is what
      lets an index *larger than RAM* be served without ever materialising
      it (the ROADMAP's production-serving tier).
    * :meth:`page_matrix` exposes the whole store as a zero-copy
      ``(num_pages, page_size)`` ``uint8`` numpy view, enabling the
      vectorised multi-row descriptor gather of the Algo.-2 refinement
      stage (:meth:`repro.storage.vectors.VectorHeapFile.gather`).
    * Writes go through the mapping too; the file is grown geometrically
      (``ftruncate`` + a fresh mapping — never ``mmap.resize``, which
      would fail while numpy views over the old mapping are alive) and
      trimmed back to exactly ``num_pages`` pages on :meth:`flush` /
      :meth:`close` so the file stays whole-page-sized for the other
      backends.
    """

    #: Smallest file capacity (in pages) allocated when a store grows.
    MIN_CAPACITY_PAGES = 64

    def __init__(self, path: str | os.PathLike[str],
                 page_size: int = DEFAULT_PAGE_SIZE) -> None:
        super().__init__(page_size)
        self.path = os.fspath(path)
        self._mm: mmap.mmap | None = None
        self._view: memoryview | None = None
        self._matrix: np.ndarray | None = None
        self._file, self._num_pages = _open_page_file(self.path, page_size)
        self._capacity_pages = self._num_pages
        if self._num_pages:
            self._map()

    # -- mapping management ------------------------------------------------

    def _map(self) -> None:
        self._mm = mmap.mmap(self._file.fileno(),
                             self._capacity_pages * self.page_size)
        self._view = memoryview(self._mm)
        self._matrix = None

    def _grow_to(self, pages: int) -> None:
        capacity = max(pages, 2 * self._capacity_pages,
                       self.MIN_CAPACITY_PAGES)
        self._file.truncate(capacity * self.page_size)
        self._capacity_pages = capacity
        # A fresh mapping of the grown file.  The previous mmap object is
        # simply dropped: numpy views / memoryviews handed out earlier keep
        # it alive until they die, and both mappings share the same file
        # pages (MAP_SHARED), so old views stay coherent with new writes.
        self._map()

    # -- hooks -------------------------------------------------------------

    def _read(self, page_id: int) -> memoryview:
        start = page_id * self.page_size
        return self._view[start:start + self.page_size]

    def _write(self, page_id: int, data: bytes) -> None:
        if page_id >= self._capacity_pages:
            self._grow_to(page_id + 1)
        start = page_id * self.page_size
        self._mm[start:start + self.page_size] = data

    # -- zero-copy bulk view ----------------------------------------------

    def page_matrix(self) -> np.ndarray:
        """Zero-copy ``(num_pages, page_size)`` uint8 view of every page.

        The view is cached and rebuilt whenever pages have been allocated
        since it was taken; it never copies page data.
        """
        self._check_open()
        if self._num_pages == 0:
            return np.empty((0, self.page_size), dtype=np.uint8)
        if self._matrix is None or self._matrix.shape[0] != self._num_pages:
            self._matrix = np.frombuffer(
                self._mm, dtype=np.uint8,
                count=self._num_pages * self.page_size,
            ).reshape(self._num_pages, self.page_size)
        return self._matrix

    # -- durability --------------------------------------------------------

    def flush(self) -> None:
        """Flush dirty pages and trim the file to exactly ``num_pages``
        pages (so FilePageStore / reopen size checks keep holding)."""
        self._check_open()
        if self._mm is not None:
            self._mm.flush()
        if self._capacity_pages != self._num_pages:
            self._file.truncate(self._num_pages * self.page_size)
            # The live mapping still covers the old capacity; pages past
            # num_pages are never touched, and the next grow re-truncates
            # and remaps, so shrinking the bookkeeping here is safe.
            self._capacity_pages = self._num_pages

    def close(self) -> None:
        if not self._closed:
            self._matrix = None
            if self._view is not None:
                try:
                    self._view.release()
                except BufferError:  # pragma: no cover - defensive
                    pass
                self._view = None
            if self._mm is not None:
                self._mm.flush()
                try:
                    self._mm.close()
                except BufferError:
                    # numpy views over the mapping are still alive; drop
                    # our reference and let GC unmap once they die.
                    pass
                self._mm = None
            self._file.truncate(self._num_pages * self.page_size)
            self._file.close()
        super().close()


def open_page_store(path: str, page_size: int, backend: str) -> PageStore:
    """Open (or, for the disk backends, create) the ``.pages`` file at
    ``path``: lazily under ``"file"``/``"mmap"``; ``"memory"`` reads every
    page into an :class:`InMemoryPageStore` up front (the O(size) cold
    start the mmap backend exists to avoid)."""
    if backend == "mmap":
        return MmapPageStore(path, page_size=page_size)
    if backend == "memory":
        with open(path, "rb") as handle:  # one bulk read, then slice
            return InMemoryPageStore.from_bytes(handle.read(),
                                                page_size=page_size)
    return FilePageStore(path, page_size=page_size)
