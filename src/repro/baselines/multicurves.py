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

import numpy as np

from repro.btree.packed import PackedTree, bulk_load, leaf_capacity
from repro.core.interface import KNNIndex
from repro.core.partition import contiguous_partition
from repro.distance.metrics import DistanceCounter, euclidean_to_many
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
        self._record: np.dtype | None = None

    def _build(self, data: np.ndarray) -> int:
        n, dim = data.shape
        if self.num_curves > dim:
            raise ValueError(
                f"num_curves={self.num_curves} exceeds dimensionality {dim}")
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
        return data.nbytes

    def _search(self, point: np.ndarray, k: int):
        counter = DistanceCounter()
        per_curve = max(k, self.alpha // self.num_curves)
        ids, dists = [], []
        for tree, stats, curve, part in zip(self.trees, self.tree_stats,
                                            self.curves, self.partitions):
            coords = self.quantizer.quantize(point[part])[None, :]
            key = int(curve.encode_batch(coords)[0])
            window = tree.nearest_positions(tree.key_codec.encode(key),
                                            per_curve, stats)
            records = tree.values_raw[window].view(self._record).ravel()
            ids.append(records["id"].astype(np.int64))
            dists.append(euclidean_to_many(
                point, records["vector"].astype(np.float64), counter))
        ids, dists = np.concatenate(ids), np.concatenate(dists)
        # Each id once, at its nearest copy; ties by id (windows are sets).
        order = np.lexsort((ids, dists))
        first = np.sort(np.unique(ids[order], return_index=True)[1])
        top = order[first[:k]]
        return ids[top], dists[top], first.size, counter.count, {}

    def index_size_bytes(self) -> int:
        # τ trees each embedding the full dataset: the paper's huge index.
        return sum(tree.num_pages for tree in self.trees) * self.page_size

    def memory_bytes(self) -> int:
        # Disk-based querying; only the per-curve candidate buffer is in RAM.
        per_curve = max(1, self.alpha // max(1, self.num_curves))
        return per_curve * (8 + 4 * max(1, self.dim))

    def _accountants(self) -> list[IOStats]:
        return self.tree_stats
