"""I/O accounting for the paged storage layer.

The HD-Index paper evaluates disk-resident methods by the number and pattern
of page accesses (Sec. 4.4.1 analyses random disk accesses explicitly).  Pure
Python cannot reproduce the authors' HDD wall-clock numbers, so every page
read and write in this reproduction flows through an :class:`IOStats`
accountant.  Reads and writes are classified as *sequential* when they touch
the page immediately following the previously accessed page, and *random*
otherwise — the classic rotating-disk cost model the paper assumes.  No
buffer pool sits between a read and its count: the paper measures with
caching off (Sec. 5), so every page a structure reads is counted.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

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
    """

    page_reads: int = 0
    page_writes: int = 0
    random_reads: int = 0
    sequential_reads: int = 0
    random_writes: int = 0
    sequential_writes: int = 0
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

    def reset(self) -> None:
        """Zero all counters (used between experiment phases)."""
        for name, value in asdict(IOStats()).items():
            setattr(self, name, value)

    def snapshot(self) -> dict[str, int]:
        """Return a plain-dict copy of the public counters."""
        return {name: value for name, value in asdict(self).items()
                if not name.startswith("_")}

    def __add__(self, other: "IOStats") -> "IOStats":
        """The public counters summed; no page was read last."""
        return IOStats(**{name: value + getattr(other, name)
                          for name, value in self.snapshot().items()})
