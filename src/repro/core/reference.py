"""Reference object selection (paper Sec. 3.3, Fig. 10).

Three strategies are reproduced:

* ``random`` — m uniform picks; the paper notes even this is within ~90% of
  SSS quality, evidence that the RDB-tree design itself does the heavy
  lifting.
* ``sss`` — Sparse Spatial Selection [56]: greedily admit objects further
  than ``f·dmax`` from every already-chosen reference, after estimating dmax
  with the repeated farthest-neighbour heuristic.  Recommended by the paper.
* ``sss-dyn`` — SSS-Dynamic [18]: keep scanning past the first m admissions
  and replace the *victim* reference (least contribution to lower-bounding a
  fixed sample of object pairs) whenever a better candidate appears.
"""

from __future__ import annotations

import numpy as np

from repro.core.filters import pair_table
from repro.distance.metrics import euclidean_to_many, pairwise_euclidean

#: Iteration cap for the farthest-neighbour dmax estimation heuristic.
DMAX_MAX_ROUNDS = 10
#: Object pairs sampled to score contributions in SSS-Dyn.
SSS_DYN_PAIRS = 64


def estimate_dmax(data: np.ndarray, rng: np.random.Generator) -> float:
    """Estimate the dataset diameter by repeated farthest-neighbour hops.

    A random object's farthest neighbour is found, then that neighbour's,
    and so on until the distance stops growing or a fixed round budget is
    exhausted (Sec. 3.3).
    """
    n = data.shape[0]
    current = int(rng.integers(n))
    best = 0.0
    for _ in range(DMAX_MAX_ROUNDS):
        distances = euclidean_to_many(data[current], data)
        farthest = int(np.argmax(distances))
        if distances[farthest] <= best:
            break
        best = float(distances[farthest])
        current = farthest
    return best


def select_random(data: np.ndarray, m: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Pick m distinct objects uniformly at random."""
    _validate(data, m)
    return np.sort(rng.choice(data.shape[0], size=m, replace=False))


def select_sss(data: np.ndarray, m: int, rng: np.random.Generator,
               fraction: float = 0.3) -> np.ndarray:
    """Sparse Spatial Selection.

    Scans the dataset (in index order, as in [56]) admitting any object whose
    distance to *all* previously selected references exceeds ``fraction *
    dmax``.  If a full scan cannot fill m slots the threshold is relaxed
    geometrically, guaranteeing termination with exactly m references.
    """
    _validate(data, m)
    n = data.shape[0]
    dmax = estimate_dmax(data, rng)
    threshold = fraction * dmax
    selected: list[int] = [int(rng.integers(n))]
    min_dist = euclidean_to_many(data[selected[0]], data)
    while len(selected) < m:
        admitted = False
        for candidate in range(n):
            if len(selected) >= m:
                break
            if candidate in selected:
                continue
            if min_dist[candidate] > threshold:
                selected.append(candidate)
                np.minimum(min_dist,
                           euclidean_to_many(data[candidate], data),
                           out=min_dist)
                admitted = True
        if len(selected) < m and not admitted:
            threshold *= 0.9
            if threshold < 1e-12:
                # Degenerate data (e.g. all-identical): fill with randoms.
                remaining = [i for i in range(n) if i not in selected]
                extra = rng.choice(remaining, size=m - len(selected),
                                   replace=False)
                selected.extend(int(i) for i in extra)
    return np.sort(np.asarray(selected[:m], dtype=np.int64))


def select_sss_dyn(data: np.ndarray, m: int, rng: np.random.Generator,
                   fraction: float = 0.3,
                   num_pairs: int = SSS_DYN_PAIRS) -> np.ndarray:
    """SSS-Dynamic: SSS followed by contribution-driven replacement.

    A fixed sample of object pairs is drawn; each reference r contributes
    ``|d(a, r) - d(b, r)|`` to pair (a, b) — how tightly it lower-bounds the
    pair's true distance.  Scanning continues beyond the first m admissions;
    any admissible candidate that out-contributes the current *victim*
    (lowest total contribution) replaces it.
    """
    _validate(data, m)
    n = data.shape[0]
    base = select_sss(data, m, rng, fraction)
    pair_count = min(num_pairs, max(1, n * (n - 1) // 2))
    left = rng.integers(0, n, size=pair_count)
    right = rng.integers(0, n, size=pair_count)
    degenerate = left == right
    right[degenerate] = (right[degenerate] + 1) % n

    def contribution(index: int) -> float:
        d_left = euclidean_to_many(data[index], data[left])
        d_right = euclidean_to_many(data[index], data[right])
        return float(np.sum(np.abs(d_left - d_right)))

    selected = [int(i) for i in base]
    scores = [contribution(i) for i in selected]
    dmax = estimate_dmax(data, rng)
    threshold = fraction * dmax
    ref_matrix = data[np.asarray(selected)]
    for candidate in range(n):
        if candidate in selected:
            continue
        distances = euclidean_to_many(data[candidate], ref_matrix)
        if np.min(distances) <= threshold:
            continue
        victim = int(np.argmin(scores))
        candidate_score = contribution(candidate)
        if candidate_score > scores[victim]:
            selected[victim] = candidate
            scores[victim] = candidate_score
            ref_matrix = data[np.asarray(selected)]
    return np.sort(np.asarray(selected, dtype=np.int64))


def select_references(data: np.ndarray, m: int, method: str,
                      rng: np.random.Generator,
                      fraction: float = 0.3) -> np.ndarray:
    """Dispatch on the method name used by :class:`HDIndexParams`."""
    if method == "random":
        return select_random(data, m, rng)
    if method == "sss":
        return select_sss(data, m, rng, fraction)
    if method == "sss-dyn":
        return select_sss_dyn(data, m, rng, fraction)
    raise ValueError(f"unknown reference selection method {method!r}")


class ReferenceSet:
    """Materialised reference objects plus the matrices querying needs.

    Holds the reference vectors (assumed memory-resident, Sec. 4.4.1), their
    pairwise distances (denominator of Eq. (6)) with the pair table the
    Ptolemaic kernel reads them through, and computes per-object /
    per-query reference distances.
    """

    def __init__(self, vectors: np.ndarray, indices: np.ndarray | None = None):
        self.vectors = np.asarray(vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ValueError("reference vectors must be a 2-D array")
        self.indices = (np.asarray(indices, dtype=np.int64)
                        if indices is not None else None)
        self.ref_ref = pairwise_euclidean(self.vectors, self.vectors)
        self.pairs = pair_table(self.ref_ref)

    @classmethod
    def select(cls, data: np.ndarray, m: int, method: str,
               rng: np.random.Generator, fraction: float = 0.3
               ) -> "ReferenceSet":
        indices = select_references(data, m, method, rng, fraction)
        return cls(data[indices], indices)

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    def distances_from(self, points: np.ndarray) -> np.ndarray:
        """(n, m) matrix of distances from each point to each reference."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points[None, :]
        return pairwise_euclidean(points, self.vectors)

    def memory_bytes(self) -> int:
        """RAM the reference set keeps resident during querying."""
        total = (self.vectors.nbytes + self.ref_ref.nbytes
                 + self.pairs.nbytes)
        if self.indices is not None:
            total += self.indices.nbytes
        return total


def _validate(data: np.ndarray, m: int) -> None:
    if data.ndim != 2:
        raise ValueError("data must be a 2-D array")
    if not 1 <= m <= data.shape[0]:
        raise ValueError(
            f"m must be in [1, {data.shape[0]}], got {m}")
