"""Synthetic stand-ins for the paper's corpora (Table 4).

The real SIFT/Audio/SUN/Yorck/Enron/Glove files are not redistributable
here, so each corpus is replaced by a clustered synthetic generator matched
on the attributes the algorithms actually see: dimensionality ν, value
domain, integer-vs-float dtype, and clusteredness (descriptor corpora are
strongly multi-modal — that is what makes Hilbert-key locality informative).
The substitution is recorded in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of one corpus family (one row of Table 4)."""

    name: str
    dim: int
    low: float
    high: float
    integer_valued: bool
    paper_size: int
    paper_queries: int
    default_size: int
    default_queries: int
    hilbert_order: int
    num_trees: int
    clusters: int
    cluster_std: float        # std-dev as a fraction of the domain span
    description: str = ""

    @property
    def domain(self) -> tuple[float, float]:
        return (self.low, self.high)


@dataclass
class Dataset:
    """A generated (or loaded) dataset plus its query workload."""

    spec: DatasetSpec
    data: np.ndarray
    queries: np.ndarray

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def __len__(self) -> int:
        return self.data.shape[0]


def generate_clustered(spec: DatasetSpec, n: int, num_queries: int,
                       seed: int = 0) -> Dataset:
    """Draw ``n`` database points and ``num_queries`` queries from a
    Gaussian mixture over the spec's domain.

    Queries are fresh mixture samples (never database points), mirroring the
    paper's held-out query sets; duplicates are removed as in Sec. 5.1.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if num_queries < 1:
        raise ValueError(f"num_queries must be >= 1, got {num_queries}")
    rng = np.random.default_rng(seed)
    span = spec.high - spec.low
    centers = rng.uniform(spec.low + 0.1 * span, spec.high - 0.1 * span,
                          size=(spec.clusters, spec.dim))
    std = spec.cluster_std * span

    def draw(count: int) -> np.ndarray:
        assignment = rng.integers(0, spec.clusters, size=count)
        points = centers[assignment] + rng.normal(0.0, std,
                                                  size=(count, spec.dim))
        points = np.clip(points, spec.low, spec.high)
        if spec.integer_valued:
            points = np.rint(points)
        return points

    data = draw(n)
    data = _dedupe(data)
    while data.shape[0] < n:
        data = _dedupe(np.vstack([data, draw(n - data.shape[0])]))
    queries = draw(num_queries)
    return Dataset(spec=spec, data=data[:n], queries=queries)


def generate_uniform(dim: int, n: int, num_queries: int, seed: int = 0,
                     low: float = 0.0, high: float = 1.0) -> Dataset:
    """Uniform (unclustered) data — the curse-of-dimensionality worst case,
    used by robustness tests and the dmax-concentration demonstrations."""
    rng = np.random.default_rng(seed)
    spec = DatasetSpec(
        name=f"uniform{dim}d", dim=dim, low=low, high=high,
        integer_valued=False, paper_size=n, paper_queries=num_queries,
        default_size=n, default_queries=num_queries, hilbert_order=8,
        num_trees=min(8, dim), clusters=1, cluster_std=1.0,
        description="i.i.d. uniform control dataset",
    )
    data = rng.uniform(low, high, size=(n, dim))
    queries = rng.uniform(low, high, size=(num_queries, dim))
    return Dataset(spec=spec, data=data, queries=queries)


def _dedupe(points: np.ndarray) -> np.ndarray:
    """Drop duplicate rows, preserving first-seen order (paper Sec. 5.1).

    Each row is sorted as one opaque byte key; ``+ 0.0`` turns -0.0 into
    0.0 first, so rows equal by value share a key.  The stable sort is
    spelled out because ``np.unique`` would copy the keys twice more.
    """
    keys = np.ascontiguousarray(points + 0.0)
    keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1])))[:, 0]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return points[np.sort(order[first])]
