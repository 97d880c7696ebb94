"""QALSH [33] — query-aware LSH over B+-trees of raw projections.

Huang, Feng, Zhang, Fang & Ng (PVLDB 2015).  Unlike C2LSH, no bucket grid is
fixed at build time: each of the m hash functions stores the *raw*
projection ``a_j·o`` in a B+-tree, and at query time the bucket of radius R
is the window ``[a_j·q − R·w/2, a_j·q + R·w/2]`` centred on the query.
Collision counting, the threshold l and the termination conditions are the
C2LSH framework; the query-centred buckets are what buys the higher quality
the paper credits QALSH with.

Paper parameters: c = 2, β = 100/n, δ = 1/e, and the QALSH-optimal bucket
width ``w = sqrt(8 c² ln c / (c² − 1))`` (≈ 2.719 for c = 2).

Being B+-tree-based, QALSH inherits full disk-access accounting from the
tree substrate — its window scans are the dominant I/O, matching the
"high quality but slow" position the paper assigns it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.baselines.lsh_common import (
    derive_collision_parameters,
    gaussian_projections,
    qalsh_collision_probability,
    top_k,
)
from repro.baselines.verify import exact_distance
from repro.btree.packed import PackedTree, bulk_load
from repro.core.interface import KNNIndex
from repro.distance.metrics import DistanceCounter
from repro.storage.codecs import Float64Codec
from repro.storage.pages import DEFAULT_PAGE_SIZE
from repro.storage.stats import IOStats
from repro.storage.vectors import VectorHeapFile, heap_file_from_array


def qalsh_optimal_width(approximation_ratio: float) -> float:
    """The width minimising m (QALSH Sec. 5.2): √(8c²ln c / (c²−1))."""
    c = approximation_ratio
    return math.sqrt(8.0 * c * c * math.log(c) / (c * c - 1.0))


class QALSH(KNNIndex):
    """Query-aware LSH for c-approximate kNN."""

    name = "QALSH"

    def __init__(self, approximation_ratio: float = 2.0,
                 width: float | None = None,
                 error_probability: float = 1.0 / np.e,
                 false_positive_rate: float | None = None,
                 max_functions: int = 64,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 storage_dtype: str = "float32", seed: int = 0) -> None:
        self.approximation_ratio = approximation_ratio
        self.width = (width if width is not None
                      else qalsh_optimal_width(approximation_ratio))
        self.error_probability = error_probability
        self.false_positive_rate = false_positive_rate
        self.max_functions = max_functions
        self.page_size = page_size
        self.storage_dtype = storage_dtype
        self.seed = seed
        self.heap: VectorHeapFile | None = None
        self.trees: list[PackedTree] = []
        self.tree_stats: list[IOStats] = []
        self.count = 0
        self._projections: np.ndarray | None = None
        self._proj_min: np.ndarray | None = None
        self._proj_max: np.ndarray | None = None
        self._params = None

    # -- construction --------------------------------------------------

    def _build(self, data: np.ndarray) -> int:
        n, dim = data.shape
        self.count = n
        rng = np.random.default_rng(self.seed)
        beta = (self.false_positive_rate if self.false_positive_rate
                is not None else min(1.0, 100.0 / n))
        self._params = derive_collision_parameters(
            n, self.approximation_ratio, self.width,
            self.error_probability, beta, qalsh_collision_probability,
            self.max_functions)
        m = self._params.num_functions
        self._projections = gaussian_projections(dim, m, rng)
        projected = data @ self._projections.T    # (n, m)
        self._proj_min = projected.min(axis=0)
        self._proj_max = projected.max(axis=0)
        self.trees, self.tree_stats = [], []
        for j in range(m):
            order = np.argsort(projected[:, j], kind="stable")
            tree, stats = bulk_load(Float64Codec(), projected[order, j],
                                    order, self.page_size)
            self.trees.append(tree)
            self.tree_stats.append(stats)
        self.heap = heap_file_from_array(
            data, dtype=self.storage_dtype, page_size=self.page_size)
        # The public implementation builds from an in-RAM dataset and
        # projection matrix (paper Sec. 5.1).
        return data.nbytes + projected.nbytes

    # -- querying ---------------------------------------------------------

    def _search(self, point: np.ndarray, k: int):
        counter = DistanceCounter()
        m = self._params.num_functions
        threshold = self._params.threshold
        beta_budget = max(1, int(np.ceil(
            (self.false_positive_rate if self.false_positive_rate is not None
             else 100.0 / self.count) * self.count))) + k
        query_proj = self._projections @ point

        key_codec = self.trees[0].key_codec
        counts = np.zeros(self.count, dtype=np.int32)
        scanned_low = query_proj.copy()
        scanned_high = query_proj.copy()
        verified: dict[int, float] = {}
        radius = 1.0
        while True:
            half_window = radius * self.width / 2.0
            newly_counted: list[int] = []
            for j, (tree, stats) in enumerate(zip(self.trees,
                                                  self.tree_stats)):
                low = query_proj[j] - half_window
                high = query_proj[j] + half_window
                # Two rings beyond the already-scanned window; the inclusive
                # range_entries bounds are nudged to keep the rings disjoint.
                rings = (
                    (low, np.nextafter(scanned_low[j], -np.inf)),
                    (np.nextafter(scanned_high[j], np.inf), high),
                )
                for ring_low, ring_high in rings:
                    if ring_high < ring_low:
                        continue
                    for _, raw_value in tree.range_entries(
                            key_codec.encode(ring_low),
                            key_codec.encode(ring_high), stats):
                        object_id = int.from_bytes(raw_value, "big")
                        counts[object_id] += 1
                        newly_counted.append(object_id)
                scanned_low[j] = min(scanned_low[j], low)
                scanned_high[j] = max(scanned_high[j], high)
            for object_id in set(newly_counted):
                if counts[object_id] >= threshold and object_id not in verified:
                    verified[object_id] = exact_distance(
                        self.heap, object_id, point, counter)
                    if len(verified) >= beta_budget:
                        break
            within = sum(1 for d in verified.values()
                         if d <= self.approximation_ratio * radius)
            if within >= k or len(verified) >= beta_budget:
                break
            if len(verified) >= self.count:
                break
            covered = np.all(scanned_low <= self._proj_min) and np.all(
                scanned_high >= self._proj_max)
            if covered:
                break  # every projection window exhausted
            radius *= self.approximation_ratio
        ids, dists = top_k(verified, k)
        return ids, dists, len(verified), counter.count, {
            "final_radius": radius}

    # -- accounting ------------------------------------------------------

    def index_size_bytes(self) -> int:
        return sum(tree.num_pages for tree in self.trees) * self.page_size

    def memory_bytes(self) -> int:
        if self._projections is None:
            return 0
        # Counters + projections; the trees stay on disk (paper: QALSH is
        # one of the low-RAM methods at query time).
        return self.count * 4 + self._projections.nbytes

    def collision_parameters(self):
        return self._params

    def _accountants(self) -> list[IOStats]:
        heap = [] if self.heap is None else [self.heap.stats]
        return self.tree_stats + heap
