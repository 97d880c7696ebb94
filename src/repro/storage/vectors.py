"""Paged heap file of raw vectors ("complete object descriptors").

RDB-tree leaves hold an 8-byte *pointer* to the full descriptor (paper
Sec. 3.2); resolving a candidate therefore costs one random page read.  This
module is that descriptor file: vectors are packed row-major into fixed-size
pages, held as one ``(num_pages, page_size)`` byte matrix — an array in RAM,
or a read-only mapping of the page file — and fetched by object id with one
fancy index, every page it touches counted, so each κ-candidate refinement
pass shows up in the I/O accounting exactly as in Sec. 4.4.1.

The page model charges every record at the configured storage dtype (the
values' dtype); the file stores it at the narrowest lossless width.  When
every value of the first append is a non-negative integer that
round-trips bit for bit through an unsigned integer narrower than the
storage dtype (SIFT-like data: uint8, a quarter of a float32 record),
records are stored at that width, whole pages of them; a later append
that breaks the choice rewrites the file at the storage dtype once.
Page ids, page reads, page writes and :meth:`VectorHeapFile.size_bytes`
are the model's either way.
"""

from __future__ import annotations

import os

import numpy as np

from repro.storage.pages import DEFAULT_PAGE_SIZE, StorageError, replace_file
from repro.storage.stats import IOStats


class VectorHeapFile:
    """Fixed-width vector records packed into pages.

    Parameters
    ----------
    dim:
        Vector dimensionality ν.
    dtype:
        Storage dtype: the dtype appended values are rounded to, and the
        record the page model charges.  The paper stores 8-byte values for
        SIFT-style data in its leaf-order arithmetic but real corpora ship
        as float32/uint8; the dtype is configurable and reported in size
        accounting.  The file may hold the records narrower
        (:attr:`stored_dtype`); :meth:`gather` returns them as stored.
    page_size:
        B — bytes per page.
    path:
        The page file to serve from, created empty if missing: a flat
        file of whole pages, mapped read-only and grown by appending.
        ``None`` keeps the pages in process memory.
    """

    def __init__(self, dim: int, dtype: np.dtype | str = np.float32,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 path: str | os.PathLike[str] | None = None) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if page_size <= 0:
            raise ValueError(f"page_size must be positive, got {page_size}")
        self.page_size = page_size
        #: Every page the heap reads and writes, counted.
        self.stats = IOStats()
        self.dim = dim
        self.dtype = np.dtype(dtype)
        self.record_size = dim * self.dtype.itemsize
        # The page model: blocks of records of the storage dtype.
        self.records_per_page, self._pages_per_record = \
            self._geometry(self.dtype)
        self.path = None if path is None else os.fspath(path)
        #: In-memory pages, over-allocated so appends are amortised O(1).
        self._buffer = np.zeros((0, page_size), dtype=np.uint8)
        if self.path is not None and not os.path.exists(self.path):
            open(self.path, "wb").close()
        # (page matrix, record count, stored dtype): one attribute,
        # replaced whole, so a gather concurrent with an append never
        # pairs a new count or record width with an old matrix.  The
        # stored dtype is None until the first append chooses it.
        self._state: tuple[np.ndarray | None, int, np.dtype | None] = (
            self._matrix(0), 0, None)

    def _geometry(self, stored: np.dtype) -> tuple[int, int]:
        """(records, pages) of a block of ``stored`` records.  A block is
        the unit records never straddle: one page of records, or — when
        a record is wider than a page, so fetching it costs > 1 page
        read — the pages holding one."""
        record = self.dim * stored.itemsize
        return (max(1, self.page_size // record),
                -(-record // self.page_size))

    @property
    def stored_dtype(self) -> np.dtype:
        """dtype of the records in the file: :attr:`dtype`, or an
        unsigned integer narrower than it that the first append chose."""
        stored = self._state[2]
        return self.dtype if stored is None else stored

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
        self._state = (self._matrix(len(self._buffer)), 0, None)

    def _live(self) -> tuple[np.ndarray, int, np.dtype | None]:
        matrix, count, stored = self._state
        if matrix is None:
            raise StorageError("descriptor heap is closed")
        return matrix, count, stored

    def _records(self, matrix: np.ndarray, stored: np.dtype) -> np.ndarray:
        """``matrix`` as ``(block, slot, record byte)`` of ``stored``
        records — a pure view."""
        per_block, span = self._geometry(stored)
        record = self.dim * stored.itemsize
        return matrix.reshape(-1, span * self.page_size)[
            :, :per_block * record].reshape(-1, per_block, record)

    def restore_count(self, count: int,
                      stored: np.dtype | str | None = None) -> None:
        """Adopt the record count of a reopened file (persistence path)
        and the dtype its records are ``stored`` at (``None``: the one
        already chosen, else the storage dtype, which every file written
        before narrow records holds)."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        matrix, _, chosen = self._live()
        try:
            stored = np.dtype(stored if stored is not None
                              else chosen if chosen is not None
                              else self.dtype)
        except TypeError:
            raise StorageError(f"unknown record dtype {stored!r}") from None
        if stored != self.dtype and not (
                stored.kind == "u" and stored.itemsize in (1, 2, 4, 8)
                and stored.itemsize < self.dtype.itemsize):
            raise StorageError(
                f"{self.dtype} values cannot be stored as {stored} records")
        per_block, span = self._geometry(stored)
        capacity = matrix.shape[0] // span * per_block
        if count > capacity:
            raise StorageError(
                f"heap holds at most {capacity} records, cannot restore "
                f"count {count}")
        self._state = (matrix, count, stored)

    # -- writing -------------------------------------------------------

    def append_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Append ``vectors`` (n × dim) and return their object ids.

        Records are written at the stored dtype (:meth:`_encode`), as one
        run of whole pages (:meth:`_lay_out`) counted as one sequential
        pass of the model's pages.  Rows that break a narrow choice first
        rewrite every record at the storage dtype, once, into fresh pages
        (a new file on disk, so a mapping of the old one keeps its
        bytes), uncounted: the model charged wide records all along.
        """
        vectors = np.ascontiguousarray(vectors, dtype=self.dtype)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(
                f"expected shape (n, {self.dim}), got {vectors.shape}"
            )
        matrix, count, stored = self._live()
        ids = np.arange(count, count + len(vectors), dtype=np.int64)
        if not len(vectors):
            return ids
        rows = self._encode(vectors, stored)
        if stored is not None and rows.dtype != stored:
            wide = self._records(matrix, stored)[np.divmod(
                np.arange(count), self._geometry(stored)[0])].view(stored)
            self._buffer = self._buffer[:0]
            matrix = self._lay_out(matrix[:0], 0, wide.astype(self.dtype),
                                   fresh=True)
        self._lay_out(matrix, count, rows)
        # Counted in the model's pages, of storage-dtype records.
        per_page, span = self.records_per_page, self._pages_per_record
        start = count // per_page * span
        self.stats.record_write_run(
            start, -(-(count + len(ids)) // per_page) * span - start)
        return ids

    def _lay_out(self, matrix: np.ndarray, count: int, rows: np.ndarray,
                 fresh: bool = False) -> np.ndarray:
        """Write ``rows`` (of the stored dtype) after the ``count``
        records of ``matrix`` and publish the new matrix.

        One run of whole pages — from the block the first new record
        lands in (the open one, rewritten with its old records in place)
        to the last — is laid out and written once: into the
        over-allocated buffer in memory, as an ordinary file write (a
        new file when ``fresh``) followed by a fresh mapping on disk.
        Earlier matrices stay valid for whoever holds them.
        """
        stored = rows.dtype
        per_block, span = self._geometry(stored)
        first_block = count // per_block
        first = first_block * span
        pages = -(-(count + len(rows)) // per_block) * span
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
        blocks, slots = np.divmod(np.arange(count, count + len(rows)),
                                  per_block)
        self._records(run, stored)[blocks - first_block, slots] = \
            rows.view(np.uint8).reshape(len(rows), -1)
        if self.path is not None and fresh:
            replace_file(self.path, run)
        elif self.path is not None:
            with open(self.path, "r+b") as handle:
                handle.seek(first * self.page_size)
                handle.write(run)
        self._state = (self._matrix(pages), count + len(rows), stored)
        return self._state[0]

    def _encode(self, vectors: np.ndarray,
                stored: np.dtype | None) -> np.ndarray:
        """``vectors`` (storage dtype) as the records to write: cast to
        the unsigned ``stored`` dtype if every value round-trips through
        it bit for bit (so -0.0, a fraction, a negative or too large a
        value keeps them wide), else as given.  ``stored=None``, the
        first append, tries the narrowest unsigned dtype that holds the
        largest value (``np.min_scalar_type``) if it is narrower than the
        storage dtype."""
        if self.dtype.kind not in "fiu" or (
                stored is not None and stored.itemsize >= self.dtype.itemsize):
            return vectors
        low, high = vectors.min(), vectors.max()
        if not 0 <= low <= high < 2 ** 64:  # NaN fails too
            return vectors
        if stored is None:
            stored = np.min_scalar_type(int(high))
        if (stored.itemsize >= self.dtype.itemsize
                or high > np.iinfo(stored).max
                or (self.dtype.kind == "f" and low == 0
                    and np.signbit(vectors).any())):
            return vectors
        rows = vectors.astype(stored)
        return rows if np.array_equal(rows, vectors) else vectors

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
        accounting pass over the model's pages it touched, in id order;
        duplicate page reads are not elided (no page is cached).  A fresh
        ``(n, dim)`` array of the records as stored (:attr:`stored_dtype`,
        values of the storage dtype) is returned, byte-identical across
        backends.

        An **empty** id set — the Algo.-2 refinement stage when every
        candidate was filtered or deleted — returns an empty ``(0, dim)``
        array immediately: neither the matrix nor the accountant is
        touched, so a zero-survivor query records zero heap reads (and
        the sequential-pattern state is preserved too).
        """
        object_ids = np.asarray(object_ids, dtype=np.int64).ravel()
        if object_ids.size == 0:
            return np.empty((0, self.dim), dtype=self.dtype)
        matrix, count, stored = self._live()
        low, high = int(object_ids.min()), int(object_ids.max())
        if low < 0 or high >= count:
            bad = low if low < 0 else high
            raise StorageError(
                f"object id {bad} out of range [0, {count})")
        per_block = self._geometry(stored)[0]
        blocks, slots = np.divmod(object_ids, per_block)
        # The fancy index is the one copy.
        rows = self._records(matrix, stored)[blocks, slots].view(stored)
        if per_block != self.records_per_page:  # narrow records
            blocks = object_ids // self.records_per_page
        span = self._pages_per_record
        self.stats.record_read_many(blocks[:, None] * span + np.arange(span))
        return rows

    def scan(self) -> np.ndarray:
        """Every record, as :meth:`gather` returns them, read front to
        back (the linear-scan baseline path): each of the model's pages
        is counted once, in one sequential run."""
        matrix, count, stored = self._live()
        if stored is None:
            return np.empty((0, self.dim), dtype=self.dtype)
        rows = self._records(matrix, stored)[
            np.divmod(np.arange(count), self._geometry(stored)[0])]
        self.stats.record_read_many(np.arange(
            -(-count // self.records_per_page) * self._pages_per_record))
        return rows.view(stored)

    def page_matrix(self) -> np.ndarray:
        """The ``(num_pages, page_size)`` ``uint8`` page matrix, read-only."""
        return self._live()[0]

    # -- informational ----------------------------------------------------

    def __len__(self) -> int:
        return self._state[1]

    def size_bytes(self) -> int:
        """Modelled footprint of the descriptor file: whole pages of
        storage-dtype records (the file may be smaller)."""
        return (-(-len(self) // self.records_per_page)
                * self._pages_per_record * self.page_size)

    def close(self) -> None:
        """Drop the pages (the mapping, on disk); matrices already handed
        to a reader stay valid until it lets go.  Idempotent."""
        self._state, self._buffer = (None, *self._state[1:]), None


def heap_file_from_array(data: np.ndarray, dtype: np.dtype | str = np.float32,
                         page_size: int = DEFAULT_PAGE_SIZE,
                         path: str | os.PathLike[str] | None = None
                         ) -> VectorHeapFile:
    """Convenience constructor: wrap an (n, ν) array in a heap file."""
    heap = VectorHeapFile(dim=data.shape[1], dtype=dtype,
                          page_size=page_size, path=path)
    heap.append_batch(data)
    return heap
