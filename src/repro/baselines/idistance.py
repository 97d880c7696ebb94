"""iDistance [73] — exact kNN through one-dimensional distance keys.

Yu, Ooi, Tan & Jagadish (VLDB 2001): partition the data space with k-means,
map every object to the scalar key ``partition_id · C + d(o, center_i)``,
index the keys in a B+-tree, and answer kNN queries by expanding a search
radius r (start ``r0``, step ``Δr``) until the k-th best exact distance is
within r — at which point the answer is provably exact.

The paper uses iDistance as its exact reference method (MAP = 1 always) and
shows it is neither efficient (near linear-scan time) nor scalable (the
public implementation loads the dataset into RAM to build).  Both properties
are reproduced: query I/O grows with the rings scanned, and
``build_memory_bytes`` accounts the full in-RAM dataset during construction.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.verify import exact_distance, push
from repro.btree.packed import PackedTree, bulk_load
from repro.cluster.kmeans import kmeans
from repro.core.interface import KNNIndex
from repro.distance.metrics import DistanceCounter, euclidean_to_many
from repro.storage.codecs import Float64Codec
from repro.storage.pages import DEFAULT_PAGE_SIZE
from repro.storage.stats import IOStats
from repro.storage.vectors import VectorHeapFile, heap_file_from_array


class IDistance(KNNIndex):
    """Exact kNN with the iDistance scheme.

    Parameters
    ----------
    num_partitions:
        Number of k-means partitions (reference spheres).
    initial_radius / radius_step:
        r0 and Δr of the expanding search (paper Sec. 5: 0.01 each,
        *relative* to the estimated data radius so one setting works across
        domains of very different scales).
    """

    name = "iDistance"

    def __init__(self, num_partitions: int = 32,
                 initial_radius: float = 0.01, radius_step: float = 0.01,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 storage_dtype: str = "float32", seed: int = 0) -> None:
        if num_partitions < 1:
            raise ValueError(
                f"num_partitions must be >= 1, got {num_partitions}")
        self.num_partitions = num_partitions
        self.initial_radius = initial_radius
        self.radius_step = radius_step
        self.page_size = page_size
        self.storage_dtype = storage_dtype
        self.seed = seed
        self.heap: VectorHeapFile | None = None
        self.tree: PackedTree | None = None
        self.tree_stats = IOStats()
        self.centers: np.ndarray | None = None
        self.partition_radius: np.ndarray | None = None
        self._spacing = 0.0
        self._scale = 1.0

    # -- construction ------------------------------------------------------

    def _build(self, data: np.ndarray) -> int:
        n = data.shape[0]
        partitions = min(self.num_partitions, n)
        rng = np.random.default_rng(self.seed)
        result = kmeans(data, partitions, rng)
        self.centers = result.centers
        distances = np.empty(n, dtype=np.float64)
        for index in range(partitions):
            members = result.labels == index
            if members.any():
                distances[members] = euclidean_to_many(
                    self.centers[index], data[members])
        self.partition_radius = np.zeros(partitions, dtype=np.float64)
        for index in range(partitions):
            members = result.labels == index
            if members.any():
                self.partition_radius[index] = float(distances[members].max())
        # Key spacing C must exceed any within-partition distance.
        self._spacing = float(distances.max()) * 2.0 + 1.0
        self._scale = float(distances.max()) if distances.max() > 0 else 1.0

        self.heap = heap_file_from_array(
            data, dtype=self.storage_dtype, page_size=self.page_size)
        keys = result.labels * self._spacing + distances
        order = np.argsort(keys, kind="stable")
        self.tree, self.tree_stats = bulk_load(
            Float64Codec(), keys[order], order, self.page_size)
        # The public implementation loads the whole dataset in RAM.
        return data.nbytes + self.centers.nbytes

    # -- querying ----------------------------------------------------------

    def _search(self, point: np.ndarray, k: int):
        counter = DistanceCounter()
        center_dist = euclidean_to_many(point, self.centers, counter)

        key_codec = self.tree.key_codec
        seen: set[int] = set()
        best_ids: list[int] = []
        best_dists: list[float] = []
        radius = self.initial_radius * self._scale
        step = self.radius_step * self._scale
        scanned_low = center_dist.copy()   # per-partition scanned interval
        scanned_high = center_dist.copy()
        while True:
            for index in range(self.centers.shape[0]):
                if center_dist[index] - radius > self.partition_radius[index]:
                    continue  # query sphere misses this partition entirely
                low = max(0.0, center_dist[index] - radius)
                high = min(self.partition_radius[index],
                           center_dist[index] + radius)
                # Only scan the two new rings beyond what previous rounds saw.
                for ring_low, ring_high in (
                        (low, scanned_low[index]),
                        (scanned_high[index], high)):
                    if ring_high <= ring_low:
                        continue
                    base = index * self._spacing
                    for _, raw_value in self.tree.range_entries(
                            key_codec.encode(base + ring_low),
                            key_codec.encode(base + ring_high),
                            self.tree_stats):
                        object_id = int.from_bytes(raw_value, "big")
                        if object_id in seen:
                            continue
                        seen.add(object_id)
                        push(best_ids, best_dists, object_id, exact_distance(
                            self.heap, object_id, point, counter), k)
                scanned_low[index] = min(scanned_low[index], low)
                scanned_high[index] = max(scanned_high[index], high)
            if len(best_ids) >= k and best_dists[-1] <= radius:
                break  # k-th neighbour certified within the scanned radius
            if len(seen) >= len(self.heap):
                break  # everything examined: degenerate to exact scan
            radius += step
        return (np.asarray(best_ids[:k], dtype=np.int64),
                np.asarray(best_dists[:k], dtype=np.float64), len(seen),
                counter.count, {"final_radius": radius})

    # -- accounting ---------------------------------------------------------

    def index_size_bytes(self) -> int:
        if self.tree is None:
            return 0
        return self.tree.num_pages * self.page_size

    def memory_bytes(self) -> int:
        if self.centers is None:
            return 0
        return int(self.centers.nbytes + self.partition_radius.nbytes)

    def _accountants(self) -> list[IOStats]:
        return [] if self.heap is None else [self.tree_stats, self.heap.stats]
