"""I/O accounting for the paged storage layer.

The HD-Index paper evaluates disk-resident methods by the number and pattern
of page accesses (Sec. 4.4.1 analyses random disk accesses explicitly).  Pure
Python cannot reproduce the authors' HDD wall-clock numbers, so every page
read and write in this reproduction flows through an :class:`IOStats`
accountant.  Reads and writes are classified as *sequential* when they touch
the page immediately following the previously accessed page, and *random*
otherwise — the classic rotating-disk cost model the paper assumes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class IOStats:
    """Counters for page-level I/O.

    Attributes
    ----------
    page_reads:
        Total number of pages read from the backing store.
    page_writes:
        Total number of pages written to the backing store.
    random_reads / sequential_reads:
        Breakdown of ``page_reads`` by access pattern.
    random_writes / sequential_writes:
        Breakdown of ``page_writes`` by access pattern.
    cache_hits:
        Reads satisfied by a buffer pool without touching the store.
    """

    page_reads: int = 0
    page_writes: int = 0
    random_reads: int = 0
    sequential_reads: int = 0
    random_writes: int = 0
    sequential_writes: int = 0
    cache_hits: int = 0
    _last_read_page: int = field(default=-2, repr=False)
    _last_write_page: int = field(default=-2, repr=False)

    def record_read(self, page_id: int) -> None:
        """Record a physical page read and classify its access pattern."""
        self.page_reads += 1
        if page_id == self._last_read_page + 1:
            self.sequential_reads += 1
        else:
            self.random_reads += 1
        self._last_read_page = page_id

    def record_write(self, page_id: int) -> None:
        """Record a physical page write and classify its access pattern."""
        self.page_writes += 1
        if page_id == self._last_write_page + 1:
            self.sequential_writes += 1
        else:
            self.random_writes += 1
        self._last_write_page = page_id

    def record_write_run(self, first_page: int, count: int) -> None:
        """:meth:`record_write` over ``count`` consecutive pages starting
        at ``first_page`` — one sequential pass of a bulk load."""
        if count <= 0:
            return
        self.record_write(first_page)
        self.page_writes += count - 1
        self.sequential_writes += count - 1
        self._last_write_page = first_page + count - 1

    def record_read_many(self, page_ids) -> None:
        """Vectorised :meth:`record_read` over a batch of page reads.

        The counters (totals and the random/sequential split) end up
        exactly as if :meth:`record_read` had been called once per page
        id, in order, without a Python-level loop.
        """
        page_ids = np.asarray(page_ids, dtype=np.int64).ravel()
        if page_ids.size == 0:
            return
        previous = np.empty_like(page_ids)
        previous[0] = self._last_read_page
        previous[1:] = page_ids[:-1]
        sequential = int(np.count_nonzero(page_ids == previous + 1))
        self.page_reads += int(page_ids.size)
        self.sequential_reads += sequential
        self.random_reads += int(page_ids.size) - sequential
        self._last_read_page = int(page_ids[-1])

    def record_cache_hit(self) -> None:
        """Record a read absorbed by the buffer pool."""
        self.cache_hits += 1

    def reset(self) -> None:
        """Zero all counters (used between experiment phases)."""
        self.page_reads = 0
        self.page_writes = 0
        self.random_reads = 0
        self.sequential_reads = 0
        self.random_writes = 0
        self.sequential_writes = 0
        self.cache_hits = 0
        self._last_read_page = -2
        self._last_write_page = -2

    def snapshot(self) -> dict[str, int]:
        """Return a plain-dict copy of the public counters."""
        return {
            "page_reads": self.page_reads,
            "page_writes": self.page_writes,
            "random_reads": self.random_reads,
            "sequential_reads": self.sequential_reads,
            "random_writes": self.random_writes,
            "sequential_writes": self.sequential_writes,
            "cache_hits": self.cache_hits,
        }

    def __add__(self, other: "IOStats") -> "IOStats":
        combined = IOStats()
        combined.page_reads = self.page_reads + other.page_reads
        combined.page_writes = self.page_writes + other.page_writes
        combined.random_reads = self.random_reads + other.random_reads
        combined.sequential_reads = self.sequential_reads + other.sequential_reads
        combined.random_writes = self.random_writes + other.random_writes
        combined.sequential_writes = self.sequential_writes + other.sequential_writes
        combined.cache_hits = self.cache_hits + other.cache_hits
        return combined


class ModelledPool:
    """Base of the two paged structures of an HD-Index — the descriptor
    heap and an RDB-tree: their :class:`IOStats` and the buffer pool of
    ``cache_pages`` pages their reads are *modelled* to go through.

    Both structures are arrays (in RAM, or mappings the OS pages in), so
    no page is ever held here: the pool is an LRU over page *ids* that
    only decides whether a read of the trace counts as a cache hit or as
    a page read.  ``cache_pages=0`` is the paper's methodology (caching
    off): every read is counted.  Writes do not warm the model, so a
    freshly built structure starts as cold as :meth:`clear_cache` leaves
    it.
    """

    def __init__(self, cache_pages: int, page_size: int) -> None:
        if cache_pages < 0:
            raise ValueError(f"cache_pages must be >= 0, got {cache_pages}")
        if page_size <= 0:
            raise ValueError(f"page_size must be positive, got {page_size}")
        self.cache_pages = cache_pages
        self.page_size = page_size
        self.stats = IOStats()
        self._resident: OrderedDict[int, None] = OrderedDict()

    def record_read_many(self, page_ids: np.ndarray) -> None:
        """Account for a trace of page reads, in order: a resident page
        is a cache hit, any other a counted read that evicts the least
        recently used."""
        if not self.cache_pages:
            self.stats.record_read_many(page_ids)
            return
        resident, stats = self._resident, self.stats
        for page_id in page_ids.ravel().tolist():
            if page_id in resident:
                resident.move_to_end(page_id)
                stats.record_cache_hit()
                continue
            stats.record_read(page_id)
            resident[page_id] = None
            if len(resident) > self.cache_pages:
                resident.popitem(last=False)

    def clear_cache(self) -> None:
        """Empty the modelled buffer pool (a cold start)."""
        self._resident.clear()

    def memory_bytes(self) -> int:
        """Resident RAM charged to the structure: the modelled pool."""
        return len(self._resident) * self.page_size
