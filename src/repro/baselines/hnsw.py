"""HNSW [48] — hierarchical navigable small-world graphs.

Malkov & Yashunin (2016).  A multi-layer proximity graph: each point is
assigned a top layer drawn from a geometric distribution; upper layers form
increasingly sparse "express lanes" and layer 0 contains everything.
Insertion greedily descends to the point's top layer, then at each layer
runs a beam search (``ef_construction``) and connects to M neighbours chosen
by the paper's *heuristic* selection (Algo. 4: a candidate is kept only if
it is closer to the new point than to any already-kept neighbour, which
preserves graph navigability in clustered data).

Queries descend greedily to layer 1 and beam-search layer 0 with
``ef_search``.

HNSW keeps the full vector set *and* adjacency lists in RAM — the paper's
Sec. 5.4.3 point that its memory requirement (1.43 GB for SIFT1M) is what
stops it from scaling on commodity hardware.  ``memory_bytes`` accounts
exactly those two components.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.core.interface import KNNIndex
from repro.distance.metrics import DistanceCounter


class HNSW(KNNIndex):
    """Hierarchical navigable small-world index.

    Parameters
    ----------
    M:
        Maximum connections per node on layers > 0 (paper evaluation: 10);
        layer 0 allows 2·M.
    ef_construction / ef_search:
        Beam widths during insertion and querying.
    """

    name = "HNSW"

    def __init__(self, M: int = 10, ef_construction: int = 100,
                 ef_search: int = 64, seed: int = 0) -> None:
        if M < 2:
            raise ValueError(f"M must be >= 2, got {M}")
        if ef_construction < 1 or ef_search < 1:
            raise ValueError("ef parameters must be >= 1")
        self.M = M
        self.max_layer0 = 2 * M
        self.ef_construction = ef_construction
        self.ef_search = ef_search
        self.seed = seed
        self.level_multiplier = 1.0 / math.log(M)
        self.data: np.ndarray | None = None
        self._levels: list[int] = []
        #: _links[node][layer] -> list of neighbour ids.
        self._links: list[list[list[int]]] = []
        self._entry_point = -1
        self._max_level = -1
        self._rng = np.random.default_rng(seed)
        self._counter = DistanceCounter()

    # -- construction -------------------------------------------------

    def _build(self, data: np.ndarray) -> int:
        self.data = data
        self._rng = np.random.default_rng(self.seed)
        self._levels = []
        self._links = []
        self._entry_point = -1
        self._max_level = -1
        for index in range(data.shape[0]):
            self._insert(index)
        return self.memory_bytes()

    def add(self, vector: np.ndarray) -> int:
        """Insert one new vector, returning its id (HNSW is incremental).

        Raises ``ValueError``, as :meth:`query` does, for a vector of
        another length or holding a NaN or infinite value, before the
        data or the graph changes."""
        if self.data is None:
            raise RuntimeError("build() the index before adding points")
        vector = np.asarray(vector, dtype=np.float64).ravel()
        self._check_rows(vector[None, :])
        self.data = np.vstack([self.data, vector[None, :]])
        new_id = self.data.shape[0] - 1
        self._insert(new_id)
        return new_id

    def _draw_level(self) -> int:
        uniform = float(self._rng.random())
        return int(-math.log(max(uniform, 1e-12)) * self.level_multiplier)

    def _insert(self, index: int) -> None:
        level = self._draw_level()
        self._levels.append(level)
        self._links.append([[] for _ in range(level + 1)])
        if self._entry_point < 0:
            self._entry_point = index
            self._max_level = level
            return
        point = self.data[index]
        entry = self._entry_point
        entry_dist = self._distance(point, entry)
        # Greedy descent through layers above the new node's top level.
        for layer in range(self._max_level, level, -1):
            entry, entry_dist = self._greedy_step(point, entry, entry_dist,
                                                  layer)
        # Beam search + heuristic linking at each layer the node joins.
        for layer in range(min(level, self._max_level), -1, -1):
            candidates = self._search_layer(point, [(entry_dist, entry)],
                                            self.ef_construction, layer)
            limit = self.max_layer0 if layer == 0 else self.M
            neighbours = self._select_heuristic(point, candidates, self.M)
            self._links[index][layer] = [n for _, n in neighbours]
            for dist, neighbour in neighbours:
                links = self._links[neighbour][layer]
                links.append(index)
                if len(links) > limit:
                    self._shrink(neighbour, layer, limit)
            best = min(candidates)
            entry, entry_dist = best[1], best[0]
        if level > self._max_level:
            self._max_level = level
            self._entry_point = index

    def _shrink(self, node: int, layer: int, limit: int) -> None:
        """Re-select a node's neighbours with the heuristic when over limit."""
        point = self.data[node]
        links = self._links[node][layer]
        scored = [(self._distance(point, other), other) for other in links]
        kept = self._select_heuristic(point, scored, limit)
        self._links[node][layer] = [n for _, n in kept]

    def _select_heuristic(self, point: np.ndarray,
                          candidates: list[tuple[float, int]],
                          limit: int) -> list[tuple[float, int]]:
        """Paper Algo. 4: keep a candidate only if it is closer to the new
        point than to every neighbour kept so far."""
        kept: list[tuple[float, int]] = []
        for dist, candidate in sorted(candidates):
            if len(kept) >= limit:
                break
            good = True
            for _, existing in kept:
                if self._distance_between(candidate, existing) < dist:
                    good = False
                    break
            if good:
                kept.append((dist, candidate))
        if not kept and candidates:
            kept = sorted(candidates)[:limit]
        return kept

    # -- search -----------------------------------------------------------

    def _greedy_step(self, point: np.ndarray, entry: int, entry_dist: float,
                     layer: int) -> tuple[int, float]:
        improved = True
        while improved:
            improved = False
            for neighbour in self._links[entry][layer]:
                dist = self._distance(point, neighbour)
                if dist < entry_dist:
                    entry, entry_dist = neighbour, dist
                    improved = True
        return entry, entry_dist

    def _search_layer(self, point: np.ndarray,
                      entries: list[tuple[float, int]], ef: int,
                      layer: int) -> list[tuple[float, int]]:
        """Beam search (paper Algo. 2) returning up to ef (dist, id) pairs."""
        visited = {node for _, node in entries}
        candidates = list(entries)          # min-heap by distance
        heapq.heapify(candidates)
        results = [(-dist, node) for dist, node in entries]  # max-heap
        heapq.heapify(results)
        while candidates:
            dist, node = heapq.heappop(candidates)
            if results and dist > -results[0][0] and len(results) >= ef:
                break
            for neighbour in self._links[node][layer]:
                if neighbour in visited:
                    continue
                visited.add(neighbour)
                neighbour_dist = self._distance(point, neighbour)
                if len(results) < ef or neighbour_dist < -results[0][0]:
                    heapq.heappush(candidates, (neighbour_dist, neighbour))
                    heapq.heappush(results, (-neighbour_dist, neighbour))
                    if len(results) > ef:
                        heapq.heappop(results)
        return [(-negative, node) for negative, node in results]

    def _search(self, point: np.ndarray, k: int):
        self._counter.reset()
        entry = self._entry_point
        entry_dist = self._distance(point, entry)
        for layer in range(self._max_level, 0, -1):
            entry, entry_dist = self._greedy_step(point, entry, entry_dist,
                                                  layer)
        ef = max(self.ef_search, k)
        results = self._search_layer(point, [(entry_dist, entry)], ef, 0)
        results.sort()
        top = results[:k]
        # No accountants, so no page reads: fully in-memory, the paper's
        # point exactly.
        return (np.asarray([node for _, node in top], dtype=np.int64),
                np.asarray([dist for dist, _ in top], dtype=np.float64),
                len(results), self._counter.count, {})

    # -- distances -----------------------------------------------------

    def _distance(self, point: np.ndarray, node: int) -> float:
        self._counter.add(1)
        diff = point - self.data[node]
        return float(math.sqrt(np.dot(diff, diff)))

    def _distance_between(self, first: int, second: int) -> float:
        self._counter.add(1)
        diff = self.data[first] - self.data[second]
        return float(math.sqrt(np.dot(diff, diff)))

    # -- accounting ------------------------------------------------------

    def index_size_bytes(self) -> int:
        """Adjacency lists (8 bytes per directed link)."""
        return sum(8 * len(layer) for node in self._links for layer in node)

    def memory_bytes(self) -> int:
        """Vectors + links, all RAM-resident — the scaling bottleneck."""
        vectors = self.data.nbytes if self.data is not None else 0
        return vectors + self.index_size_bytes()
