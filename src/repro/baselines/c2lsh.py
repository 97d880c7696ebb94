"""C2LSH [26] — collision counting LSH with virtual rehashing.

Gan, Feng, Fang & Ng (SIGMOD 2012).  m base hash functions
``h_j(o) = floor((a_j·o + b_j)/w)`` are computed once; querying at radius
R ∈ {1, c, c², ...} re-uses them by comparing ``floor(h_j(·)/R)`` — with
integer c the buckets nest, so each round only has to extend per-function
scan windows.  Objects colliding with the query under at least l functions
become candidates and are verified with an exact distance computation
(a random descriptor-page read here, as in the disk-based original).  The
hash-table pages a query's windows cover are modelled as one sequential
stream and counted in :attr:`C2LSH.bucket_stats`.

Paper parameters (Sec. 5): c = 2, w = 1, β = 100/n, δ = 1/e.

The public C2LSH implementation loads the whole dataset into RAM to build
(paper Sec. 5.1) — reproduced in ``build_memory_bytes``.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.lsh_common import (
    derive_collision_parameters,
    e2lsh_collision_probability,
    gaussian_projections,
    top_k,
)
from repro.baselines.verify import exact_distance
from repro.core.interface import KNNIndex
from repro.distance.metrics import DistanceCounter
from repro.storage.pages import DEFAULT_PAGE_SIZE
from repro.storage.stats import IOStats
from repro.storage.vectors import VectorHeapFile, heap_file_from_array

#: Bytes per hash-table entry in the on-disk accounting (hash + object id).
_HASH_ENTRY_BYTES = 12


class C2LSH(KNNIndex):
    """Collision-counting LSH for c-approximate kNN."""

    name = "C2LSH"

    def __init__(self, approximation_ratio: float = 2.0, width: float = 1.0,
                 error_probability: float = 1.0 / np.e,
                 false_positive_rate: float | None = None,
                 max_functions: int = 128,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 storage_dtype: str = "float32", seed: int = 0) -> None:
        self.approximation_ratio = approximation_ratio
        self.width = width
        self.error_probability = error_probability
        self.false_positive_rate = false_positive_rate
        self.max_functions = max_functions
        self.page_size = page_size
        self.storage_dtype = storage_dtype
        self.seed = seed
        self.heap: VectorHeapFile | None = None
        #: The modelled hash-table pages queries read.
        self.bucket_stats = IOStats()
        self.count = 0
        self._projections: np.ndarray | None = None
        self._offsets: np.ndarray | None = None
        self._hashes: np.ndarray | None = None        # (m, n) int64
        self._sorted_order: np.ndarray | None = None  # (m, n) argsort
        self._sorted_hashes: np.ndarray | None = None
        self._params = None

    # -- construction ----------------------------------------------------

    def _build(self, data: np.ndarray) -> int:
        n, dim = data.shape
        self.count = n
        rng = np.random.default_rng(self.seed)
        beta = (self.false_positive_rate if self.false_positive_rate
                is not None else min(1.0, 100.0 / n))
        self._params = derive_collision_parameters(
            n, self.approximation_ratio, self.width,
            self.error_probability, beta, e2lsh_collision_probability,
            self.max_functions)
        m = self._params.num_functions
        self._projections = gaussian_projections(dim, m, rng)
        self._offsets = rng.uniform(0.0, self.width, size=m)
        raw = data @ self._projections.T + self._offsets[None, :]
        self._hashes = np.floor(raw / self.width).astype(np.int64).T
        self._sorted_order = np.argsort(self._hashes, axis=1)
        self._sorted_hashes = np.take_along_axis(
            self._hashes, self._sorted_order, axis=1)
        self.heap = heap_file_from_array(
            data, dtype=self.storage_dtype, page_size=self.page_size)
        self.bucket_stats = IOStats()
        # The public implementation keeps the dataset + tables in RAM.
        return (data.nbytes + self._hashes.nbytes + self._sorted_order.nbytes
                + self._sorted_hashes.nbytes)

    # -- querying ----------------------------------------------------------

    def _search(self, point: np.ndarray, k: int):
        counter = DistanceCounter()
        m = self._params.num_functions
        threshold = self._params.threshold
        beta_budget = max(1, int(np.ceil(
            (self.false_positive_rate if self.false_positive_rate is not None
             else 100.0 / self.count) * self.count))) + k

        query_hash = np.floor(
            (self._projections @ point + self._offsets) / self.width
        ).astype(np.int64)
        counts = np.zeros(self.count, dtype=np.int32)
        window_low = np.empty(m, dtype=np.int64)   # current scan window
        window_high = np.empty(m, dtype=np.int64)  # (sorted positions)
        for j in range(m):
            position = np.searchsorted(self._sorted_hashes[j], query_hash[j],
                                       side="left")
            window_low[j] = position
            window_high[j] = position
        verified: dict[int, float] = {}
        bucket_entries_scanned = 0
        radius = 1
        c = int(round(self.approximation_ratio))
        while True:
            touched: list[np.ndarray] = []
            for j in range(m):
                bucket = query_hash[j] // radius
                low_hash = bucket * radius
                high_hash = low_hash + radius  # exclusive
                row = self._sorted_hashes[j]
                new_low = int(np.searchsorted(row, low_hash, side="left"))
                new_high = int(np.searchsorted(row, high_hash, side="left"))
                if new_low < window_low[j]:
                    delta = self._sorted_order[j, new_low:window_low[j]]
                    counts[delta] += 1
                    touched.append(delta)
                    bucket_entries_scanned += delta.shape[0]
                if new_high > window_high[j]:
                    delta = self._sorted_order[j, window_high[j]:new_high]
                    counts[delta] += 1
                    touched.append(delta)
                    bucket_entries_scanned += delta.shape[0]
                window_low[j] = min(window_low[j], new_low)
                window_high[j] = max(window_high[j], new_high)
            if touched:
                for object_id in np.unique(np.concatenate(touched)):
                    object_id = int(object_id)
                    if counts[object_id] >= threshold and (
                            object_id not in verified):
                        verified[object_id] = exact_distance(
                            self.heap, object_id, point, counter)
                        if len(verified) >= beta_budget:
                            break
            # Termination conditions (C2LSH Sec. 4.2).
            within = sum(1 for d in verified.values()
                         if d <= self.approximation_ratio * radius * self.width)
            if within >= k or len(verified) >= beta_budget:
                break
            if all(window_low == 0) and all(window_high == self.count):
                break  # every bucket fully scanned
            radius *= c
        ids, dists = top_k(verified, k)
        bucket_pages = -(-bucket_entries_scanned
                         // max(1, self.page_size // _HASH_ENTRY_BYTES))
        self.bucket_stats.page_reads += bucket_pages
        self.bucket_stats.sequential_reads += bucket_pages
        return ids, dists, len(verified), counter.count, {
            "final_radius": radius, "bucket_entries": bucket_entries_scanned}

    # -- accounting --------------------------------------------------------

    def index_size_bytes(self) -> int:
        """On-disk hash tables: m functions × n (hash, id) entries."""
        if self._params is None:
            return 0
        return self._params.num_functions * self.count * _HASH_ENTRY_BYTES

    def memory_bytes(self) -> int:
        """Query-time RAM: collision counters + projection vectors."""
        if self._projections is None:
            return 0
        return (self.count * 4 + self._projections.nbytes
                + self._offsets.nbytes)

    def _accountants(self) -> list[IOStats]:
        heap = [] if self.heap is None else [self.heap.stats]
        return heap + [self.bucket_stats]

    def collision_parameters(self):
        """The derived (m, l, α, p1, p2) — exposed for tests."""
        return self._params
