"""Exact kNN ground truth via brute force.

Every quality number in the paper is relative to the true k nearest
neighbours; this module computes them with a blocked exact scan (and is also
the correctness oracle for the exact methods — linear scan and iDistance).
"""

from __future__ import annotations

import numpy as np

from repro.distance.metrics import pairwise_euclidean


def exact_knn(data: np.ndarray, queries: np.ndarray, k: int,
              block: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """True k nearest neighbours of each query.

    Returns ``(ids, distances)`` of shape (Q, k), rows ordered by increasing
    distance, ties broken by id for determinism — also a tie that
    straddles the k-th place, which keeps its lowest ids.  Queries are
    processed in blocks to bound the distance-matrix footprint; the data's
    squared norms are computed once.
    """
    data = np.asarray(data, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim == 1:
        queries = queries[None, :]
    if data.ndim != 2 or queries.shape[1] != data.shape[1]:
        raise ValueError(
            f"queries {queries.shape} incompatible with data {data.shape}")
    n = data.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    all_ids = np.empty((queries.shape[0], k), dtype=np.int64)
    all_dists = np.empty((queries.shape[0], k), dtype=np.float64)
    data_sq = np.einsum("ij,ij->i", data, data)
    for start in range(0, queries.shape[0], block):
        chunk = queries[start:start + block]
        distances = pairwise_euclidean(chunk, data, b_sq=data_sq)
        # Every column at or below the k-th smallest distance (a tie at
        # the cut kept whole), then the two-key order: distance, then id.
        cut = np.partition(distances, k - 1, axis=1)[:, k - 1]
        for row in range(chunk.shape[0]):
            ids = np.flatnonzero(distances[row] <= cut[row])
            chosen = ids[np.lexsort((ids, distances[row, ids]))][:k]
            all_ids[start + row] = chosen
            all_dists[start + row] = distances[row, chosen]
    return all_ids, all_dists


class GroundTruth:
    """Cached exact answers for a (dataset, query set) pair.

    Computed once per experiment at the largest k needed, then sliced for
    smaller k (the Fig. 13 k-sweep reuses one computation).
    """

    def __init__(self, data: np.ndarray, queries: np.ndarray,
                 max_k: int) -> None:
        self.max_k = max_k
        self.ids, self.distances = exact_knn(data, queries, max_k)

    def top_ids(self, k: int) -> np.ndarray:
        self._check_k(k)
        return self.ids[:, :k]

    def top_distances(self, k: int) -> np.ndarray:
        self._check_k(k)
        return self.distances[:, :k]

    def _check_k(self, k: int) -> None:
        if not 1 <= k <= self.max_k:
            raise ValueError(
                f"k must be in [1, {self.max_k}], got {k}")
