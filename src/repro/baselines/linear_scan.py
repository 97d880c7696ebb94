"""Exact linear scan — the Sec. 5.5 ground-truth method.

Sequentially reads every descriptor page and keeps a running top-k.  It is
exact (MAP = 1, ratio = 1) and its page reads are all sequential: the
baseline every index must beat on I/O pattern, not just count [71].
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.interface import BuildStats, KNNIndex, QueryStats
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

    def build(self, data: np.ndarray) -> None:
        started = time.perf_counter()
        data = np.asarray(data, dtype=np.float64)
        self.heap = heap_file_from_array(
            data, dtype=self.storage_dtype, page_size=self.page_size)
        self._build_stats = BuildStats(
            time_sec=time.perf_counter() - started,
            page_writes=self.heap.stats.page_writes,
            peak_memory_bytes=self.page_size,  # one page at a time
        )

    def query(self, point: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        if self.heap is None:
            raise RuntimeError("index has not been built; call build() first")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        started = time.perf_counter()
        reads_before = self._read_totals()[0]
        counter = DistanceCounter()
        point = np.asarray(point, dtype=np.float64).ravel()
        everything = self.heap.scan()
        distances = euclidean_to_many(point, everything, counter)
        best = top_k_smallest(distances, min(k, len(distances)))
        reads = self._read_totals()[0] - reads_before
        self._query_stats = QueryStats(
            time_sec=time.perf_counter() - started,
            page_reads=reads,
            sequential_reads=reads,
            candidates=len(distances),
            distance_computations=counter.count,
        )
        return best.astype(np.int64), distances[best]

    def index_size_bytes(self) -> int:
        # No index structure at all — only the database file exists.
        return 0

    def memory_bytes(self) -> int:
        # One page of vectors at a time plus the running top-k.
        return self.page_size

    def _accountants(self) -> list[IOStats]:
        return [] if self.heap is None else [self.heap.stats]
