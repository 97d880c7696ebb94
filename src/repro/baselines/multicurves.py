"""Multicurves [66] — multiple Hilbert curves with full descriptors in leaves.

Valle, Cord & Philipp-Foliguet (CIKM 2008): like HD-Index, τ curves each
handle a subset of the dimensions; *unlike* HD-Index, every B+-tree leaf
entry carries the **complete ν-dimensional descriptor**, so candidates can
be ranked by exact distance without any random descriptor fetch.

That design choice is exactly what the paper's Sec. 3.2 argues against: the
index stores τ copies of the dataset (1.2 TB for SIFT100M in the paper,
Sec. 5.4.3), few entries fit per leaf, and the method cannot scale to very
high ν — reproduced here by the entry-width check that refuses to build when
one leaf cannot hold a single descriptor (the paper's "NP" entries for SUN
and Enron with Multicurves).
"""

from __future__ import annotations

import time

import numpy as np

from repro.btree.packed import PackedTree, bulk_load, leaf_capacity
from repro.core.interface import BuildStats, KNNIndex, QueryStats
from repro.core.partition import contiguous_partition
from repro.distance.metrics import (
    DistanceCounter,
    euclidean_to_many,
    top_k_smallest,
)
from repro.hilbert.butz import HilbertCurve
from repro.hilbert.quantize import GridQuantizer
from repro.storage.codecs import UIntCodec
from repro.storage.pages import DEFAULT_PAGE_SIZE
from repro.storage.stats import IOStats


class MulticurvesUnsupportedError(ValueError):
    """Raised when one leaf entry cannot fit in a page (paper's "NP")."""


class Multicurves(KNNIndex):
    """Multicurves with paper-recommended parameters τ = 8, α = 4096
    (α is split evenly across the curves, as in [66])."""

    name = "Multicurves"

    def __init__(self, num_curves: int = 8, alpha: int = 4096,
                 hilbert_order: int = 8,
                 domain: tuple[float, float] | None = None,
                 page_size: int = DEFAULT_PAGE_SIZE, seed: int = 0) -> None:
        if num_curves < 1:
            raise ValueError(f"num_curves must be >= 1, got {num_curves}")
        if alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {alpha}")
        self.num_curves = num_curves
        self.alpha = alpha
        self.hilbert_order = hilbert_order
        self.domain = domain
        self.page_size = page_size
        self.seed = seed
        self.trees: list[PackedTree] = []
        self.tree_stats: list[IOStats] = []
        self.curves: list[HilbertCurve] = []
        self.partitions: list[np.ndarray] = []
        self.quantizer: GridQuantizer | None = None
        self.dim = 0
        self._record: np.dtype | None = None
        self._build_stats = BuildStats()
        self._query_stats = QueryStats()

    def build(self, data: np.ndarray) -> None:
        started = time.perf_counter()
        data = np.asarray(data, dtype=np.float64)
        n, dim = data.shape
        if self.num_curves > dim:
            raise ValueError(
                f"num_curves={self.num_curves} exceeds dimensionality {dim}")
        self.dim = dim
        # Full descriptor (float32) + object id in every leaf entry.
        self._record = np.dtype([("id", ">u8"), ("vector", ">f4", (dim,))])
        records = np.empty(n, dtype=self._record)
        records["id"] = np.arange(n)
        records["vector"] = data
        if self.domain is not None:
            self.quantizer = GridQuantizer(self.domain[0], self.domain[1],
                                           self.hilbert_order)
        else:
            self.quantizer = GridQuantizer.from_data(data, self.hilbert_order)
        self.partitions = contiguous_partition(dim, self.num_curves)
        self.trees, self.tree_stats, self.curves = [], [], []
        for part in self.partitions:
            curve = HilbertCurve(len(part), self.hilbert_order)
            if leaf_capacity(self.page_size, curve.key_bytes,
                             self._record.itemsize) < 1:
                raise MulticurvesUnsupportedError(
                    f"one leaf entry needs "
                    f"{curve.key_bytes + self._record.itemsize} bytes, more "
                    f"than a {self.page_size}-byte page holds: Multicurves "
                    f"cannot index ν={dim} at this page size (paper's NP)")
            coords = self.quantizer.quantize(data[:, part])
            keys = curve.encode_batch(coords)
            order = sorted(range(n), key=lambda i: keys[i])
            tree, stats = bulk_load(
                UIntCodec(curve.key_bytes), keys[order],
                records[order].view(np.uint8).reshape(n, -1), self.page_size)
            self.trees.append(tree)
            self.tree_stats.append(stats)
            self.curves.append(curve)
        self._build_stats = BuildStats(
            time_sec=time.perf_counter() - started,
            page_writes=sum(s.page_writes for s in self.tree_stats),
            peak_memory_bytes=data.nbytes,
        )

    def query(self, point: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        if not self.trees:
            raise RuntimeError("index has not been built; call build() first")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        started = time.perf_counter()
        reads_before = self._page_reads()
        counter = DistanceCounter()
        point = np.asarray(point, dtype=np.float64).ravel()
        per_curve = max(k, self.alpha // self.num_curves)
        best: dict[int, float] = {}
        for tree, stats, curve, part in zip(self.trees, self.tree_stats,
                                            self.curves, self.partitions):
            coords = self.quantizer.quantize(point[part])[None, :]
            key = int(curve.encode_batch(coords)[0])
            window = tree.nearest_positions(tree.key_codec.encode(key),
                                            per_curve, stats)
            if not window.size:
                continue
            records = tree.values_raw[window].view(self._record).ravel()
            ids = records["id"].astype(np.int64)
            distances = euclidean_to_many(
                point, records["vector"].astype(np.float64), counter)
            for object_id, distance in zip(ids, distances):
                object_id = int(object_id)
                if object_id not in best or distance < best[object_id]:
                    best[object_id] = float(distance)
        merged_ids = np.fromiter(best.keys(), dtype=np.int64, count=len(best))
        merged_dists = np.fromiter(best.values(), dtype=np.float64,
                                   count=len(best))
        top = top_k_smallest(merged_dists, min(k, len(merged_ids)))
        self._query_stats = QueryStats(
            time_sec=time.perf_counter() - started,
            page_reads=self._page_reads() - reads_before,
            candidates=len(best),
            distance_computations=counter.count,
        )
        return merged_ids[top], merged_dists[top]

    def index_size_bytes(self) -> int:
        # τ trees each embedding the full dataset: the paper's huge index.
        return sum(tree.num_pages for tree in self.trees) * self.page_size

    def memory_bytes(self) -> int:
        # Disk-based querying; only the per-curve candidate buffer is in RAM.
        per_curve = max(1, self.alpha // max(1, self.num_curves))
        return per_curve * (8 + 4 * max(1, self.dim))

    def build_memory_bytes(self) -> int:
        return self._build_stats.peak_memory_bytes

    def last_query_stats(self) -> QueryStats:
        return self._query_stats

    def build_stats(self) -> BuildStats:
        return self._build_stats

    def _page_reads(self) -> int:
        return sum(stats.page_reads for stats in self.tree_stats)
