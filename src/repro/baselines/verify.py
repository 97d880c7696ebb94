"""Candidate verification shared by the disk-based baselines.

C2LSH, iDistance, QALSH and SRS check a candidate the same way: read its
descriptor from the heap (a counted page read) and take its exact
distance to the query.  iDistance and SRS keep the best k so far in one
sorted list.
"""

from __future__ import annotations

import numpy as np

from repro.distance.metrics import DistanceCounter
from repro.storage.vectors import VectorHeapFile


def exact_distance(heap: VectorHeapFile, object_id: int, point: np.ndarray,
                   counter: DistanceCounter) -> float:
    """Fetch ``object_id``'s descriptor and return its exact distance to
    ``point``, counting one distance computation."""
    vector = heap.fetch(object_id)
    counter.add(1)
    return float(np.sqrt(np.sum((vector.astype(np.float64) - point) ** 2)))


def push(ids: list[int], dists: list[float], object_id: int,
         distance: float, k: int) -> None:
    """Insert into the sorted running top-k (ties broken by id)."""
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
