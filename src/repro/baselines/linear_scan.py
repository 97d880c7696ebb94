"""Exact linear scan — the Sec. 5.5 ground-truth method.

Reads every descriptor page once, front to back, and keeps the top k.  It
is exact (MAP = 1, ratio = 1) and its page reads are one sequential run (a
seek to the first page, then each next page): the baseline every index must
beat on I/O pattern, not just count [71].
"""

from __future__ import annotations

import numpy as np

from repro.core.interface import KNNIndex
from repro.distance.metrics import (
    DistanceCounter,
    euclidean_to_many,
    top_k_smallest,
)
from repro.storage.pages import DEFAULT_PAGE_SIZE
from repro.storage.stats import IOStats
from repro.storage.vectors import VectorHeapFile, heap_file_from_array


class LinearScan(KNNIndex):
    """Brute-force exact kNN over the paged descriptor file."""

    name = "LinearScan"

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE,
                 storage_dtype: str = "float32") -> None:
        self.page_size = page_size
        self.storage_dtype = storage_dtype
        self.heap: VectorHeapFile | None = None

    def _build(self, data: np.ndarray) -> int:
        self.heap = heap_file_from_array(
            data, dtype=self.storage_dtype, page_size=self.page_size)
        return self.page_size  # one page at a time

    def _search(self, point: np.ndarray, k: int):
        counter = DistanceCounter()
        distances = euclidean_to_many(point, self.heap.scan(), counter)
        best = top_k_smallest(distances, min(k, len(distances)))
        return (best.astype(np.int64), distances[best], len(distances),
                counter.count, {})

    def index_size_bytes(self) -> int:
        # No index structure at all — only the database file exists.
        return 0

    def memory_bytes(self) -> int:
        # One page of vectors at a time plus the running top-k.
        return self.page_size

    def _accountants(self) -> list[IOStats]:
        return [] if self.heap is None else [self.heap.stats]
