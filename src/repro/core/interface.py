"""Common interface implemented by HD-Index and every baseline.

The comparative experiments (Fig. 8, Table 5) measure the same five things
for each method: result quality, query time, index size, indexing RAM and
querying RAM.  :class:`KNNIndex` fixes the vocabulary so the harness in
:mod:`repro.eval.harness` can drive any method uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np


@dataclass
class QueryStats:
    """Per-query (or per-batch, averaged) execution statistics."""

    time_sec: float = 0.0
    page_reads: int = 0
    random_reads: int = 0
    sequential_reads: int = 0
    candidates: int = 0
    distance_computations: int = 0
    extra: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "time_sec": self.time_sec,
            "page_reads": self.page_reads,
            "random_reads": self.random_reads,
            "sequential_reads": self.sequential_reads,
            "candidates": self.candidates,
            "distance_computations": self.distance_computations,
        }
        data.update(self.extra)
        return data


@dataclass
class BuildStats:
    """Statistics collected while constructing an index."""

    time_sec: float = 0.0
    page_writes: int = 0
    peak_memory_bytes: int = 0
    extra: dict[str, Any] = field(default_factory=dict)


class KNNIndex:
    """Protocol for every kANN method in this reproduction.

    Subclasses implement :meth:`build` and :meth:`query`; the base class
    provides batching and default accounting.  The examples below use
    :class:`~repro.core.hdindex.HDIndex`, the primary implementation; a
    tiny deterministic diagonal dataset keeps them fast and stable:

    >>> import numpy as np
    >>> from repro import HDIndex, HDIndexParams
    >>> data = np.repeat(np.arange(32.0)[:, None], 4, axis=1)  # (32, 4)
    >>> index = HDIndex(HDIndexParams(num_trees=2, hilbert_order=4,
    ...                               num_references=4, alpha=8, seed=0))
    >>> index.build(data)
    >>> ids, dists = index.query(data[5], k=3)
    >>> int(ids[0]), float(dists[0])
    (5, 0.0)
    """

    #: Human-readable method name used in experiment tables.
    name: str = "abstract"

    #: Monotonic mutation counter: implementations bump it on every
    #: ``insert``/``delete`` (via :meth:`_bump_update_epoch`) so caching
    #: layers — e.g. :class:`~repro.serve.QueryService`'s LRU result
    #: cache — can detect that previously computed answers may be stale
    #: without being told.  Rebuilds/compactions that preserve the
    #: logical contents do not bump it.
    update_epoch: int = 0

    def _bump_update_epoch(self) -> None:
        """Record a logical-content mutation (insert/delete)."""
        self.update_epoch = self.update_epoch + 1

    def build(self, data: np.ndarray) -> None:
        """Construct the index over a dataset.

        Args:
            data: ``(n, ν)`` array of vectors; coerced to float64.

        Raises:
            ValueError: If ``data`` is not 2-D, is empty, or violates a
                structural parameter (e.g. ``num_trees`` exceeding ν for
                the HD-Index family).
        """
        raise NotImplementedError

    def query(self, point: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Approximate k nearest neighbours of one point.

        Args:
            point: ``(ν,)`` query vector.
            k: Number of neighbours requested (``>= 1``).

        Returns:
            ``(ids, distances)`` arrays of length ``<= k``, ordered by
            increasing reported distance.

        Raises:
            ValueError: If ``k < 1`` or the point's dimensionality does
                not match the index.
            RuntimeError: If called before :meth:`build`.

        >>> import numpy as np
        >>> from repro import HDIndex, HDIndexParams
        >>> data = np.repeat(np.arange(32.0)[:, None], 4, axis=1)
        >>> index = HDIndex(HDIndexParams(num_trees=2, hilbert_order=4,
        ...                               num_references=4, alpha=8, seed=0))
        >>> index.build(data)
        >>> ids, dists = index.query(data[7], k=2)
        >>> int(ids[0]), float(dists[0])
        (7, 0.0)
        >>> index.query(data[0], k=0)
        Traceback (most recent call last):
            ...
        ValueError: k must be >= 1, got 0
        """
        raise NotImplementedError

    def query_batch(self, points: np.ndarray, k: int,
                    **overrides: Any) -> tuple[np.ndarray, np.ndarray]:
        """Query each row of ``points`` in one call.

        Args:
            points: ``(Q, ν)`` array of query vectors (a single ``(ν,)``
                vector is promoted to a one-row batch).
            k: Neighbours per query (``>= 1``).
            **overrides: Forwarded to :meth:`query` (the HD-Index family
                accepts per-call ``alpha``/``beta``/``gamma``/
                ``use_ptolemaic``).

        Returns:
            ``(ids, distances)`` arrays of shape ``(Q, k)``; rows with
            fewer than k answers are padded with id ``-1`` and distance
            ``+inf``.  Row ``r`` is identical to ``query(points[r], k)``.

        This default runs a plain loop; indexes that can amortise work
        across the batch (the whole HD-Index family) override it with a
        vectorised implementation returning identical results.
        Afterwards :meth:`last_query_stats` reports totals over the whole
        batch with ``extra["batch_size"]`` — matching the vectorised
        overrides — provided the subclass stores its stats in the
        conventional ``_query_stats`` attribute (all in-repo methods do).

        >>> import numpy as np
        >>> from repro import HDIndex, HDIndexParams
        >>> data = np.repeat(np.arange(32.0)[:, None], 4, axis=1)
        >>> index = HDIndex(HDIndexParams(num_trees=2, hilbert_order=4,
        ...                               num_references=4, alpha=8, seed=0))
        >>> index.build(data)
        >>> ids, dists = index.query_batch(data[:4], k=2)
        >>> ids.shape, [int(i) for i in ids[:, 0]]
        ((4, 2), [0, 1, 2, 3])
        >>> index.last_query_stats().extra["batch_size"]
        4
        """
        points = np.asarray(points)
        if points.ndim == 1:
            points = points[None, :]
        ids = np.full((points.shape[0], k), -1, dtype=np.int64)
        dists = np.full((points.shape[0], k), np.inf, dtype=np.float64)
        total = QueryStats(extra={"batch_size": points.shape[0]})
        for row, point in enumerate(points):
            got_ids, got_dists = self.query(point, k, **overrides)
            count = min(k, len(got_ids))
            ids[row, :count] = got_ids[:count]
            dists[row, :count] = got_dists[:count]
            stats = self.last_query_stats()
            total.time_sec += stats.time_sec
            total.page_reads += stats.page_reads
            total.random_reads += stats.random_reads
            total.sequential_reads += stats.sequential_reads
            total.candidates += stats.candidates
            total.distance_computations += stats.distance_computations
        if hasattr(self, "_query_stats"):
            self._query_stats = total
        return ids, dists

    # -- accounting -------------------------------------------------------

    def index_size_bytes(self) -> int:
        """On-disk footprint of the index structure, in bytes.

        Returns:
            Bytes of the index pages only — the shared descriptor file is
            excluded unless the method embeds descriptors (as Multicurves
            does), so methods are compared on the structure they add.
        """
        raise NotImplementedError

    def memory_bytes(self) -> int:
        """RAM the method must keep resident while answering queries.

        Returns:
            Bytes of query-time state (reference sets, buffer pools,
            candidate workspaces) — the "querying RAM" column of the
            paper's Table 5.
        """
        raise NotImplementedError

    def build_memory_bytes(self) -> int:
        """Peak RAM during index construction (structural accounting).

        Returns:
            Bytes at the construction peak; defaults to
            :meth:`memory_bytes` for methods whose build holds no more
            than their query state.
        """
        return self.memory_bytes()

    def last_query_stats(self) -> QueryStats:
        """Statistics of the most recent :meth:`query` /
        :meth:`query_batch` call.

        Returns:
            A :class:`QueryStats` (zeroed default if nothing ran yet):
            wall-clock, page reads with the random/sequential split,
            candidate count and distance computations.
        """
        return QueryStats()

    def build_stats(self) -> BuildStats:
        """Statistics of the :meth:`build` call.

        Returns:
            A :class:`BuildStats` (zeroed default before any build).
        """
        return BuildStats()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release backing resources (executors, page-store file handles).

        A no-op by default; disk-resident methods override it.  Must be
        idempotent, so generic drivers (the CLI, the serve subsystem) can
        close any index unconditionally.
        """

    def __enter__(self) -> "KNNIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
