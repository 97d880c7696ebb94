"""Product quantisation baselines: PQ [35] and OPQ [27].

Jégou, Douze & Schmid (PAMI 2011) split the space into M sub-spaces,
k-means each independently, and represent every vector by M centroid ids —
asymmetric distance computation (ADC) then ranks the whole database from
per-sub-space lookup tables without touching the original vectors.

Ge, He, Ke & Sun (CVPR 2013) prepend a learned orthonormal rotation R,
alternating between (a) re-training the codebooks on the rotated data and
(b) solving the orthogonal Procrustes problem for R against the current
reconstruction — the non-parametric OPQ of the paper.

Both are *in-memory* methods: codes, codebooks (and the rotation) stay in
RAM, which is why the paper groups them with HNSW as fast but RAM-bound
(Sec. 5.4.3).  An optional exact re-ranking stage (``rerank_factor``) lets
the harness tune their MAP to HD-Index levels as the paper describes.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.kmeans import kmeans
from repro.core.interface import KNNIndex
from repro.core.partition import contiguous_partition
from repro.distance.metrics import DistanceCounter, top_k_smallest
from repro.storage.pages import DEFAULT_PAGE_SIZE
from repro.storage.stats import IOStats
from repro.storage.vectors import VectorHeapFile, heap_file_from_array


class PQIndex(KNNIndex):
    """Product quantisation with exhaustive ADC scan.

    Parameters
    ----------
    num_subspaces:
        M — sub-space count (8 in the paper's OPQ configuration).
    num_centroids:
        k* per sub-space (256 in the original papers; clamped to n).
    rerank_factor:
        If positive, the top ``rerank_factor · k`` ADC candidates are
        re-ranked with exact distances (random descriptor reads).
    """

    name = "PQ"

    def __init__(self, num_subspaces: int = 8, num_centroids: int = 256,
                 rerank_factor: int = 0, kmeans_iterations: int = 25,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 storage_dtype: str = "float32", seed: int = 0) -> None:
        if num_subspaces < 1:
            raise ValueError(
                f"num_subspaces must be >= 1, got {num_subspaces}")
        if num_centroids < 1:
            raise ValueError(
                f"num_centroids must be >= 1, got {num_centroids}")
        self.num_subspaces = num_subspaces
        self.num_centroids = num_centroids
        self.rerank_factor = rerank_factor
        self.kmeans_iterations = kmeans_iterations
        self.page_size = page_size
        self.storage_dtype = storage_dtype
        self.seed = seed
        self.codebooks: list[np.ndarray] = []
        self.codes: np.ndarray | None = None
        self.subspaces: list[np.ndarray] = []
        self.heap: VectorHeapFile | None = None
        self.count = 0
        self.dim = 0

    # -- training -----------------------------------------------------------

    def _build(self, data: np.ndarray) -> int:
        self._train(self._transform(data))
        if self.rerank_factor > 0:
            self.heap = heap_file_from_array(
                data, dtype=self.storage_dtype, page_size=self.page_size)
        return data.nbytes + self._codes_bytes()

    def _transform(self, data: np.ndarray) -> np.ndarray:
        """Hook for OPQ's rotation; identity for plain PQ."""
        return data

    def _train(self, data: np.ndarray) -> None:
        n, dim = data.shape
        if self.num_subspaces > dim:
            raise ValueError(
                f"num_subspaces={self.num_subspaces} exceeds "
                f"dimensionality {dim}")
        self.count, self.dim = n, dim
        rng = np.random.default_rng(self.seed)
        self.subspaces = contiguous_partition(dim, self.num_subspaces)
        centroids = min(self.num_centroids, n)
        self.codebooks = []
        code_dtype = np.uint8 if centroids <= 256 else np.uint16
        self.codes = np.empty((n, self.num_subspaces), dtype=code_dtype)
        for index, part in enumerate(self.subspaces):
            result = kmeans(data[:, part], centroids, rng,
                            max_iterations=self.kmeans_iterations)
            self.codebooks.append(result.centers)
            self.codes[:, index] = result.labels

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Quantise new vectors to (n, M) codes."""
        data = self._transform(np.asarray(data, dtype=np.float64))
        if data.ndim == 1:
            data = data[None, :]
        codes = np.empty((data.shape[0], self.num_subspaces),
                         dtype=self.codes.dtype)
        for index, part in enumerate(self.subspaces):
            chunk = data[:, part]
            book = self.codebooks[index]
            sq = (np.sum(chunk ** 2, axis=1)[:, None]
                  + np.sum(book ** 2, axis=1)[None, :]
                  - 2.0 * chunk @ book.T)
            codes[:, index] = np.argmin(sq, axis=1)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct vectors from codes (rotated space for OPQ)."""
        codes = np.asarray(codes)
        out = np.empty((codes.shape[0], self.dim), dtype=np.float64)
        for index, part in enumerate(self.subspaces):
            out[:, part] = self.codebooks[index][codes[:, index]]
        return out

    def reconstruction_error(self, data: np.ndarray) -> float:
        """Mean squared quantisation error — OPQ's training objective."""
        transformed = self._transform(np.asarray(data, dtype=np.float64))
        reconstructed = self.decode(self.encode(data))
        return float(np.mean((transformed - reconstructed) ** 2))

    # -- querying ---------------------------------------------------------

    def _search(self, point: np.ndarray, k: int):
        counter = DistanceCounter()
        transformed = self._transform(point[None, :])[0]
        approx_sq = np.zeros(self.count, dtype=np.float64)
        for index, part in enumerate(self.subspaces):
            sub = transformed[part]
            book = self.codebooks[index]
            table = (np.sum((book - sub[None, :]) ** 2, axis=1))
            approx_sq += table[self.codes[:, index]]
        if self.rerank_factor > 0 and self.heap is not None:
            shortlist = top_k_smallest(
                approx_sq, min(self.count, self.rerank_factor * k))
            vectors = self.heap.fetch_many(shortlist)
            diffs = vectors.astype(np.float64) - point[None, :]
            exact = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
            counter.add(len(shortlist))
            best = top_k_smallest(exact, min(k, len(shortlist)))
            ids, dists = shortlist[best], exact[best]
        else:
            best = top_k_smallest(approx_sq, min(k, self.count))
            ids, dists = best, np.sqrt(approx_sq[best])
        return ids.astype(np.int64), dists, self.count, counter.count, {}

    # -- accounting -------------------------------------------------------

    def _codes_bytes(self) -> int:
        codes = self.codes.nbytes if self.codes is not None else 0
        books = sum(book.nbytes for book in self.codebooks)
        return codes + books

    def index_size_bytes(self) -> int:
        return self._codes_bytes()

    def memory_bytes(self) -> int:
        # Everything lives in RAM at query time — the in-memory trade-off.
        return self._codes_bytes() + self.count * 8

    def _accountants(self) -> list[IOStats]:
        return [] if self.heap is None else [self.heap.stats]


class OPQIndex(PQIndex):
    """Optimised product quantisation (non-parametric alternation)."""

    name = "OPQ"

    def __init__(self, num_subspaces: int = 8, num_centroids: int = 256,
                 opq_iterations: int = 8, rerank_factor: int = 0,
                 kmeans_iterations: int = 15,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 storage_dtype: str = "float32", seed: int = 0) -> None:
        super().__init__(num_subspaces=num_subspaces,
                         num_centroids=num_centroids,
                         rerank_factor=rerank_factor,
                         kmeans_iterations=kmeans_iterations,
                         page_size=page_size, storage_dtype=storage_dtype,
                         seed=seed)
        if opq_iterations < 1:
            raise ValueError(
                f"opq_iterations must be >= 1, got {opq_iterations}")
        self.opq_iterations = opq_iterations
        self.rotation: np.ndarray | None = None

    def _build(self, data: np.ndarray) -> int:
        dim = data.shape[1]
        self.rotation = np.eye(dim)
        for _ in range(self.opq_iterations):
            rotated = data @ self.rotation
            self._train(rotated)
            reconstructed = self.decode(self.codes)
            # Orthogonal Procrustes: min_R ||X R - X̂||_F with RᵀR = I.
            u, _, vt = np.linalg.svd(data.T @ reconstructed)
            self.rotation = u @ vt
        # PQ over the rotated data, holding the data twice.
        return super()._build(data) + data.nbytes + self.rotation.nbytes

    def _transform(self, data: np.ndarray) -> np.ndarray:
        if self.rotation is None:
            return data
        return data @ self.rotation

    def memory_bytes(self) -> int:
        rotation = self.rotation.nbytes if self.rotation is not None else 0
        return super().memory_bytes() + rotation
