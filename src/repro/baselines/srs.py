"""SRS [64] — tiny-index c-approximate kNN via 2-stable projection.

Sun, Wang, Qin, Zhang & Lin (PVLDB 2014).  The whole index is an
``(n, m_srs)`` array, the ``m_srs``-dimensional Gaussian projection of the
data (m_srs = 6 in the paper) — linear space with a minuscule constant, the
method's selling point.  SRS-12 examines database points in increasing order
of *projected* distance, verifies each with one exact distance (a random
descriptor read), and stops when

* the early-termination test fires: the χ²_m tail bound certifies that the
  current best is a c-approximate answer with the target confidence
  (threshold τ_SRS, 0.1809 in the paper's setting), or
* ``t·n`` points have been examined (t = 0.00242 in the paper).

The paper streams that order from a spatial tree (incremental NN).  Since
the stream is never read past ``⌈t·n⌉`` points, a query here computes every
projected distance, keeps the budget nearest with one partition and orders
them by (distance, id) with one sort.  The distances are the tree leaf's
own formula and a best-first stream yields them in non-decreasing order, so
this is the prefix of that stream the stop tests can reach.  Points at
equal projected distance, which a tree emits in leaf-visit order, come here
in id order.

The paper's narrative for SRS — small index, stable RAM, but low MAP in very
high dimensions — follows from this construction directly.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.verify import exact_distance, push
from repro.core.interface import KNNIndex
from repro.distance.metrics import DistanceCounter
from repro.storage.pages import DEFAULT_PAGE_SIZE
from repro.storage.stats import IOStats
from repro.storage.vectors import VectorHeapFile, heap_file_from_array


class SRS(KNNIndex):
    """SRS-12 with the paper's parameter set.

    ``projected`` holds the data's projections; a query visits them in
    (projected distance, id) order, cut at the examination budget.

    Parameters
    ----------
    num_projections:
        m_SRS — projected dimensionality (6 in the paper).
    threshold:
        τ_SRS — early-termination probability threshold (0.1809).
    max_fraction:
        t — maximum fraction of the database examined (0.00242 in the paper
        for n = 10⁶; scaled-up default here so small corpora still examine
        a meaningful candidate pool; ``benchmarks/sweep.py``).
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
        self.projected: np.ndarray | None = None
        self.count = 0
        self._matrix: np.ndarray | None = None

    def _build(self, data: np.ndarray) -> int:
        n, dim = data.shape
        self.count = n
        rng = np.random.default_rng(self.seed)
        self._matrix = rng.standard_normal(size=(dim, self.num_projections))
        self.projected = data @ self._matrix
        self.heap = heap_file_from_array(
            data, dtype=self.storage_dtype, page_size=self.page_size)
        # Chunked builds keep RAM at the projection size (Sec. 5.1/5.4.3).
        return self.projected.nbytes + self._matrix.nbytes

    def _search(self, point: np.ndarray, k: int):
        from scipy.stats import chi2
        counter = DistanceCounter()
        budget = max(k, int(np.ceil(self.max_fraction * self.count)))
        diff = self.projected - point @ self._matrix
        projected_dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        ids = np.arange(self.count)
        if budget < self.count:
            # Every point within the budget-th distance, ties included, so
            # the cut below keeps the lower ids of a tie that straddles it.
            cut = np.partition(projected_dists, budget - 1)[budget - 1]
            ids = np.flatnonzero(projected_dists <= cut)
        order = ids[np.lexsort((ids, projected_dists[ids]))][:budget]
        best_ids: list[int] = []
        best_dists: list[float] = []
        examined = 0
        stopped_early = False
        for object_id, projected_distance in zip(
                order.tolist(), projected_dists[order].tolist()):
            push(best_ids, best_dists, object_id,
                 exact_distance(self.heap, object_id, point, counter), k)
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
        return (np.asarray(best_ids[:k], dtype=np.int64),
                np.asarray(best_dists[:k], dtype=np.float64), examined,
                counter.count, {"stopped_early": stopped_early})

    # -- accounting -----------------------------------------------------

    def index_size_bytes(self) -> int:
        """The projected points — the paper's 'tiny index'."""
        return self.count * self.num_projections * 8

    def memory_bytes(self) -> int:
        if self._matrix is None:
            return 0
        # SRS keeps the whole projection array in RAM while querying.
        return (self.count * self.num_projections * 8
                + self._matrix.nbytes)

    def _accountants(self) -> list[IOStats]:
        return [] if self.heap is None else [self.heap.stats]
