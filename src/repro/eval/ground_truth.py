"""Exact kNN ground truth via brute force.

Every quality number in the paper is relative to the true k nearest
neighbours; this module computes them with a tiled exact scan (and is also
the correctness oracle for the exact methods — linear scan and iDistance).
"""

from __future__ import annotations

import numpy as np

#: Query rows per GEMM: a data tile is packed once per block of this many.
GEMM_ROWS = 256
#: float64 values in one tile matrix (8 MB); the scan holds two and a mask.
TILE_VALUES = 1 << 20


def exact_knn(data: np.ndarray, queries: np.ndarray, k: int,
              block: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """True k nearest neighbours of each query.

    Returns ``(ids, distances)`` of shape (Q, k), rows ordered by increasing
    distance, ties broken by id for determinism — also a tie that
    straddles the k-th place, which keeps its lowest ids:

    >>> data = np.array([[0.0], [2.0], [1.0], [-1.0]])
    >>> exact_knn(data, np.array([0.0]), k=2)
    (array([[0, 2]]), array([[0., 1.]]))

    ``block`` bounds the working set: one GEMM's output holds at most
    ``block × n`` float64 values, and never more than ``TILE_VALUES``, so
    the scratch does not grow with n.  Per block of up to ``GEMM_ROWS``
    queries and per data tile, the scan (1) multiplies ``−2·q`` by the
    tile (the scaling is exact); (2) keeps the entries whose partial key
    ``|x|² − 2q·x`` is at most the query's running k-th bound plus a
    rounding slack (a partition of the first tile of k or more rows sets
    it); (3) takes those entries' ``(|q|² + |x|²) − 2q·x`` as
    :func:`~repro.distance.pairwise_euclidean` does, clipped and rooted,
    and keeps the k least by (distance, id).

    The distances are the bytes ``pairwise_euclidean`` gives for the same
    GEMM entries.  Where dot products round (rows not integer-valued),
    BLAS may round an entry an ulp apart in a GEMM of another shape, as a
    different ``block`` always could.
    """
    data = np.asarray(data, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim == 1:
        queries = queries[None, :]
    if data.ndim != 2 or queries.shape[1] != data.shape[1]:
        raise ValueError(
            f"queries {queries.shape} incompatible with data {data.shape}")
    (n, dim), count = data.shape, len(queries)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if block < 1:
        raise ValueError(f"block must be positive, got {block}")
    data_sq = np.einsum("ij,ij->i", data, data)
    query_sq = np.einsum("ij,ij->i", queries, queries)
    scale = query_sq + data_sq.max()
    if not np.isfinite(scale).all():
        raise ValueError("rows must be finite, with squared norms whose "
                         "sums stay in float64 range")
    # A key and |q|² + (the distance's square) round apart by a few ulps
    # of ``scale``, and a square may sit below 0 by the GEMM's own error
    # (dim ulps): an answer's key is within this generous multiple of
    # both of the largest key of any k entries.
    slack = 2.0 ** -50 * (dim + 16) * scale
    neg2q = queries * -2.0
    values = min(block * n, TILE_VALUES)
    # Even query blocks and tiles, so that no GEMM is one row (a GEMV).
    blocks = max(1, -(-count // min(GEMM_ROWS, values)))
    row_edges = count * np.arange(blocks + 1) // blocks
    block_rows = -(-count // blocks)
    width = min(n, values // max(block_rows, 1))
    tiles = -(-n // width)
    col_edges = n * np.arange(tiles + 1) // tiles
    scratch = np.empty((2, block_rows * width))
    mask = np.empty(block_rows * width, dtype=bool)
    bounds = np.full(count, np.inf)
    all_ids = np.empty((count, k), dtype=np.int64)
    all_dists = np.empty((count, k))
    # Loops: over query blocks (ceil(Q / GEMM_ROWS)) and, in each, over
    # data tiles (about n · rows / TILE_VALUES): one GEMM and three
    # whole-tile passes a tile, one sort of candidates per ~rows · k.
    tile_spans = list(zip(col_edges, col_edges[1:]))
    for start, stop in zip(row_edges, row_edges[1:]):  # lint: disable=HK101
        rows, bound = stop - start, bounds[start:stop]
        best, waiting = [], 0
        for lo, hi in tile_spans:  # lint: disable=HK101
            shape, size = (rows, hi - lo), rows * (hi - lo)
            dot = np.matmul(neg2q[start:stop], data[lo:hi].T,
                            out=scratch[0, :size].reshape(shape))
            key = np.add(dot, data_sq[lo:hi],
                         out=scratch[1, :size].reshape(shape))
            if hi - lo >= k and np.isinf(bound).any():
                key.partition(k - 1, axis=1)
                np.minimum(bound, key[:, k - 1], out=bound)
                np.add(dot, data_sq[lo:hi], out=key)
            keep = np.less_equal(key, (bound + slack[start:stop])[:, None],
                                 out=mask[:size].reshape(shape))
            row, col = np.nonzero(keep)
            sq = (query_sq[start + row] + data_sq[col + lo]) + dot[row, col]
            best.append((row, col + lo, np.sqrt(np.maximum(sq, 0.0)),
                         key[row, col]))
            waiting += len(row)
            if waiting >= rows * k or hi == n:
                best, waiting = [_best_k(best, k, bound)], 0
        all_ids[start:stop] = best[0][1].reshape(rows, k)
        all_dists[start:stop] = best[0][2].reshape(rows, k)
    return all_ids, all_dists


def _best_k(parts: list, k: int,
            bound: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each query row's k least (distance, id) among the candidate
    ``parts`` (row, id, distance, key), grouped by row.  A row that holds
    k lowers its ``bound`` (in place) to the largest key among them."""
    row, ids, dists, keys = (np.concatenate(column) for column in zip(*parts))
    order = np.lexsort((ids, dists, row))
    row, ids, dists, keys = row[order], ids[order], dists[order], keys[order]
    kept = np.arange(len(row)) - np.searchsorted(row, row) < k
    row, ids, dists, keys = row[kept], ids[kept], dists[kept], keys[kept]
    largest = np.full(len(bound), -np.inf)
    np.maximum.at(largest, row, keys)
    full = np.bincount(row, minlength=len(bound)) == k
    np.minimum(bound, largest, out=bound, where=full)
    return row, ids, dists, keys


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
