"""Fixed-size page stores.

The node-based :class:`~repro.btree.tree.BPlusTree` — the substrate of the
three B+-tree baselines and the node-path oracle of the tests — sits on top
of a :class:`PageStore`: an allocate/read/write interface over fixed-size
pages, mirroring how the paper's C++ implementation talks to a 4 KB-page
filesystem.  :class:`InMemoryPageStore` keeps the pages in a list of
``bytes``; I/O is still *counted*, so the disk-access analysis of the paper
is reproduced without physical disk latency.  (The HD-Index structures
themselves are arrays, not page stores: :mod:`repro.storage.vectors`,
:mod:`repro.core.rdbtree`.)
"""

from __future__ import annotations

import os
from typing import Iterator

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


def replace_file(path: str | os.PathLike[str], data) -> None:
    """Atomically put ``data`` (text, or anything bytes-like) at ``path``
    (write ``<path>.tmp``, fsync, ``os.replace``).  For every snapshot file this process or a worker
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
