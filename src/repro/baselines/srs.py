"""SRS [64] — tiny-index c-approximate kNN via 2-stable projection.

Sun, Wang, Qin, Zhang & Lin (PVLDB 2014).  The whole index is an in-memory
spatial tree over an ``m_srs``-dimensional Gaussian projection of the data
(m_srs = 6 in the paper) — linear space with a minuscule constant, the
method's selling point.  SRS-12 examines database points in increasing order
of *projected* distance (incremental NN on the projection tree), verifies
each with one exact distance (a random descriptor read), and stops when

* the early-termination test fires: the χ²_m tail bound certifies that the
  current best is a c-approximate answer with the target confidence
  (threshold τ_SRS, 0.1809 in the paper's setting), or
* ``t·n`` points have been examined (t = 0.00242 in the paper).

The paper's narrative for SRS — small index, stable RAM, but low MAP in very
high dimensions — follows from this construction directly.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.interface import BuildStats, KNNIndex, QueryStats
from repro.distance.metrics import DistanceCounter
from repro.neighbors.kdtree import KDTree
from repro.storage.pages import DEFAULT_PAGE_SIZE
from repro.storage.vectors import VectorHeapFile, heap_file_from_array


class SRS(KNNIndex):
    """SRS-12 with the paper's parameter set.

    Parameters
    ----------
    num_projections:
        m_SRS — projected dimensionality (6 in the paper).
    threshold:
        τ_SRS — early-termination probability threshold (0.1809).
    max_fraction:
        t — maximum fraction of the database examined (0.00242 in the paper
        for n = 10⁶; scaled-up default here so small corpora still examine
        a meaningful candidate pool, see EXPERIMENTS.md).
    approximation_ratio:
        c of the (1 + ε) guarantee the stop test certifies.
    """

    name = "SRS"

    def __init__(self, num_projections: int = 6, threshold: float = 0.1809,
                 max_fraction: float = 0.00242,
                 approximation_ratio: float = 2.0,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 storage_dtype: str = "float32", seed: int = 0) -> None:
        if num_projections < 1:
            raise ValueError(
                f"num_projections must be >= 1, got {num_projections}")
        if not 0.0 < max_fraction <= 1.0:
            raise ValueError(
                f"max_fraction must be in (0, 1], got {max_fraction}")
        self.num_projections = num_projections
        self.threshold = threshold
        self.max_fraction = max_fraction
        self.approximation_ratio = approximation_ratio
        self.page_size = page_size
        self.storage_dtype = storage_dtype
        self.seed = seed
        self.heap: VectorHeapFile | None = None
        self.tree: KDTree | None = None
        self.count = 0
        self._matrix: np.ndarray | None = None
        self._build_stats = BuildStats()
        self._query_stats = QueryStats()

    def build(self, data: np.ndarray) -> None:
        started = time.perf_counter()
        data = np.asarray(data, dtype=np.float64)
        n, dim = data.shape
        self.count = n
        rng = np.random.default_rng(self.seed)
        self._matrix = rng.standard_normal(size=(dim, self.num_projections))
        projected = data @ self._matrix
        self.tree = KDTree(projected)
        self.heap = heap_file_from_array(
            data, dtype=self.storage_dtype, page_size=self.page_size)
        self._build_stats = BuildStats(
            time_sec=time.perf_counter() - started,
            page_writes=self.heap.stats.page_writes,
            # Chunked builds keep RAM at the projection size (Sec. 5.1/5.4.3).
            peak_memory_bytes=projected.nbytes + self._matrix.nbytes,
        )

    def query(self, point: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        if self.tree is None or self.heap is None:
            raise RuntimeError("index has not been built; call build() first")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        from scipy.stats import chi2
        started = time.perf_counter()
        reads_before = self.heap.stats.page_reads
        counter = DistanceCounter()
        point = np.asarray(point, dtype=np.float64).ravel()
        projected_query = point @ self._matrix
        budget = max(k, int(np.ceil(self.max_fraction * self.count)))
        best_ids: list[int] = []
        best_dists: list[float] = []
        examined = 0
        stopped_early = False
        for object_id, projected_distance in self.tree.nearest_stream(
                projected_query):
            vector = self.heap.fetch(object_id)
            distance = float(np.sqrt(np.sum(
                (vector.astype(np.float64) - point) ** 2)))
            counter.add(1)
            self._push(best_ids, best_dists, object_id, distance, k)
            examined += 1
            if examined >= budget:
                break
            # SRS-12 early-termination test: an unseen point at original
            # distance s has projected distance² ~ s²·χ²_m, so any point
            # better than d_k/c still ahead in the stream would need
            # χ²_m >= (c·r_proj/d_k)².  Stop once that tail is < τ.
            if len(best_dists) >= k and best_dists[-1] > 0:
                statistic = (projected_distance * self.approximation_ratio
                             / best_dists[-1]) ** 2
                if chi2.cdf(statistic, df=self.num_projections) \
                        >= 1.0 - self.threshold:
                    stopped_early = True
                    break
        self._query_stats = QueryStats(
            time_sec=time.perf_counter() - started,
            page_reads=self.heap.stats.page_reads - reads_before,
            random_reads=self.heap.stats.page_reads - reads_before,
            candidates=examined,
            distance_computations=counter.count,
            extra={"stopped_early": stopped_early},
        )
        return (np.asarray(best_ids[:k], dtype=np.int64),
                np.asarray(best_dists[:k], dtype=np.float64))

    @staticmethod
    def _push(ids: list[int], dists: list[float], object_id: int,
              distance: float, k: int) -> None:
        position = 0
        while position < len(dists) and (
                dists[position] < distance
                or (dists[position] == distance and ids[position] < object_id)):
            position += 1
        ids.insert(position, object_id)
        dists.insert(position, distance)
        if len(ids) > k:
            ids.pop()
            dists.pop()

    # -- accounting -----------------------------------------------------

    def index_size_bytes(self) -> int:
        """The projected points — the paper's 'tiny index'."""
        return self.count * self.num_projections * 8

    def memory_bytes(self) -> int:
        if self._matrix is None:
            return 0
        # SRS keeps the whole projection tree in RAM while querying.
        return (self.count * self.num_projections * 8
                + self._matrix.nbytes)

    def build_memory_bytes(self) -> int:
        return self._build_stats.peak_memory_bytes

    def last_query_stats(self) -> QueryStats:
        return self._query_stats

    def build_stats(self) -> BuildStats:
        return self._build_stats
