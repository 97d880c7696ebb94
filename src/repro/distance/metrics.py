"""Distance kernels with computation accounting.

The paper works in Euclidean (L2) space throughout (Sec. 2.1).  The filters
of Sec. 4.2 exist precisely to avoid full ν-dimensional distance evaluations,
so every kernel here can report how many object-to-object distances it
computed — the quantity the κ-candidate analysis of Sec. 4.4 bounds.

Beyond Euclidean, the module carries the workload's *metric axis*
(:data:`METRICS`): ``angular`` is served through the same Euclidean
machinery over unit-normalised vectors (the chord distance
``sqrt(2 - 2 cos θ)`` is monotone in the angle, so every Euclidean
lower-bound filter stays valid verbatim), and ``cosine`` is the usual
``1 - cos θ`` dissimilarity for callers that want similarity scores.
One batched kernel, :func:`distances_to_many`, implements all of them;
the per-metric ``*_to_many`` functions are thin aliases over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Metrics an index can be built with (``HDIndexParams.metric``).
#: ``cosine`` is a kernel-level convenience (it has no lower-bounding
#: filter), so the index itself accepts only the first two.
METRICS = ("euclidean", "angular")

#: |v| may drift from 1.0 by accumulated float32 round-off; anything
#: inside this band counts as unit-normalised.
NORMALIZATION_ATOL = 1e-6


@dataclass
class DistanceCounter:
    """Counts full ν-dimensional distance evaluations."""

    count: int = 0

    def add(self, amount: int) -> None:
        self.count += amount

    def reset(self) -> None:
        self.count = 0


def euclidean(a: np.ndarray, b: np.ndarray,
              counter: DistanceCounter | None = None) -> float:
    """Distance between two vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if counter is not None:
        counter.add(1)
    return float(np.sqrt(np.sum((a - b) ** 2)))


def distances_to_many(query: np.ndarray, points: np.ndarray,
                      metric: str = "euclidean",
                      counter: DistanceCounter | None = None) -> np.ndarray:
    """Distances from one query to each row of ``points``.

    The single batched one-to-many kernel behind every metric:

    * ``euclidean`` — plain L2 over the rows as given.
    * ``angular`` — chord distance: both sides are unit-normalised and
      the same L2 arithmetic runs; ``sqrt(2 - 2 cos θ)``.
    * ``cosine`` — ``1 - cos θ`` (a dissimilarity, not a metric).

    The Euclidean path keeps the difference-then-``einsum`` formulation
    (never the ``|x|²+|y|²-2x·y`` expansion) so results stay bitwise
    stable across releases — the WAL/compaction and process-parity
    suites diff query answers byte-for-byte.
    """
    query = np.asarray(query, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[None, :]
    if counter is not None:
        counter.add(points.shape[0])
    if metric == "angular":
        query = _normalize_one(query)
        points = normalize_rows(points)
    elif metric == "cosine":
        query = _normalize_one(query)
        points = normalize_rows(points)
        return 1.0 - points @ query
    elif metric != "euclidean":
        raise ValueError(f"unknown metric {metric!r}")
    diff = points - query[None, :]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def euclidean_to_many(query: np.ndarray, points: np.ndarray,
                      counter: DistanceCounter | None = None) -> np.ndarray:
    """Euclidean distances from one query to each row of ``points``."""
    return distances_to_many(query, points, "euclidean", counter)


def angular_to_many(query: np.ndarray, points: np.ndarray,
                    counter: DistanceCounter | None = None) -> np.ndarray:
    """Chord distances ``sqrt(2 - 2 cos θ)`` from one query to each row."""
    return distances_to_many(query, points, "angular", counter)


def cosine_to_many(query: np.ndarray, points: np.ndarray,
                   counter: DistanceCounter | None = None) -> np.ndarray:
    """Cosine dissimilarity ``1 - cos θ`` from one query to each row."""
    return distances_to_many(query, points, "cosine", counter)


def normalize_rows(points: np.ndarray) -> np.ndarray:
    """Unit-normalise each row; zero rows are left at zero.

    Already-normalised inputs come back untouched (same object), so the
    angular hot path pays one reduction, not a copy, per call.
    """
    points = np.asarray(points, dtype=np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", points, points))
    if np.all(np.abs(norms - 1.0) <= NORMALIZATION_ATOL):
        return points
    safe = np.where(norms > 0.0, norms, 1.0)
    return points / safe[:, None]


def rows_are_normalized(points: np.ndarray,
                        atol: float = NORMALIZATION_ATOL) -> bool:
    """True when every row is unit length to within ``atol``."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[None, :]
    norms = np.sqrt(np.einsum("ij,ij->i", points, points))
    return bool(np.all(np.abs(norms - 1.0) <= atol))


def require_normalized(points: np.ndarray, label: str = "data",
                       atol: float = NORMALIZATION_ATOL) -> None:
    """Raise ``ValueError`` unless every row is unit length.

    The angular metric serves queries through the Euclidean machinery,
    which is only angle-monotone when the stored vectors sit on the unit
    sphere — so normalisation is a *build/insert-time contract*, checked
    here, rather than a per-query cost.
    """
    if not rows_are_normalized(points, atol):
        raise ValueError(
            f"metric='angular' requires unit-normalised {label}; "
            f"normalise rows (e.g. repro.distance.normalize_rows) first")


def require_finite(points: np.ndarray, label: str = "data") -> None:
    """Raise ``ValueError`` if any coordinate is NaN or infinite: one
    such value poisons every distance it meets (SSS reference selection
    never terminates on it; a query returns ``nan`` distances)."""
    if not np.isfinite(points).all():
        raise ValueError(
            f"{label} contains NaN or infinite values; every coordinate "
            f"must be finite")


def _normalize_one(vector: np.ndarray) -> np.ndarray:
    norm = float(np.sqrt(vector @ vector))
    if abs(norm - 1.0) <= NORMALIZATION_ATOL or norm == 0.0:
        return vector
    return vector / norm


def pairwise_euclidean(a: np.ndarray, b: np.ndarray,
                       counter: DistanceCounter | None = None) -> np.ndarray:
    """All-pairs distance matrix between rows of ``a`` and rows of ``b``.

    Uses the expansion ``|x - y|^2 = |x|^2 + |y|^2 - 2 x·y`` with a clip
    against negative round-off, which is orders of magnitude faster than
    broadcasting differences for the (n × m) reference-distance matrix of
    Algo. 1 line 2.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if counter is not None:
        counter.add(a.shape[0] * b.shape[0])
    a_sq = np.einsum("ij,ij->i", a, a)
    b_sq = np.einsum("ij,ij->i", b, b)
    sq = a_sq[:, None] + b_sq[None, :] - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq)


def top_k_smallest(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest values, ordered ascending by value.

    ``argpartition`` + local sort: O(n + k log k), the heap-based selection
    the paper assumes in its filter-cost analysis (Sec. 4.4.1).
    """
    values = np.asarray(values)
    n = values.shape[0]
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    if k >= n:
        return np.argsort(values, kind="stable").astype(np.int64)
    part = np.argpartition(values, k)[:k]
    return part[np.argsort(values[part], kind="stable")].astype(np.int64)
