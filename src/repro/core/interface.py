"""Common interface implemented by HD-Index and every baseline.

The comparative experiments (Fig. 8, Table 5) measure the same five things
for each method: result quality, query time, index size, indexing RAM and
querying RAM.  :class:`KNNIndex` fixes the vocabulary so the harness in
:mod:`repro.eval.harness` can drive any method uniformly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.distance.metrics import require_finite
from repro.storage.stats import IOStats


@dataclass
class QueryStats:
    """Execution statistics of one query, or totals over one batch."""

    time_sec: float = 0.0
    page_reads: int = 0
    random_reads: int = 0
    sequential_reads: int = 0
    candidates: int = 0
    distance_computations: int = 0
    extra: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        data = {name: value for name, value in vars(self).items()
                if name != "extra"}
        data.update(self.extra)
        return data


@dataclass
class BuildStats:
    """Statistics collected while constructing an index."""

    time_sec: float = 0.0
    page_writes: int = 0
    peak_memory_bytes: int = 0


class KNNIndex:
    """Protocol for every kANN method in this reproduction.

    :meth:`build`, :meth:`query` and :meth:`query_batch` are the method
    contract: they validate their input, time the call and fill the
    stats records, around the hooks a method implements, :meth:`_build`
    and :meth:`_search` (or :meth:`_search_batch`, which HD-Index
    answers through its query engine).  The examples below use
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

    #: What the last query and the build recorded; ``None`` until then,
    #: when :meth:`last_query_stats` / :meth:`build_stats` report zeros
    #: (a reopened snapshot records a zeroed build: it counts as built).
    _query_stats: QueryStats | None = None
    _build_stats: BuildStats | None = None

    #: ν of the data the index was built over.
    dim: int = 0

    #: Monotonic mutation counter: implementations bump it on every
    #: ``insert``/``delete``/``build`` (via :meth:`_bump_update_epoch`)
    #: so a layer answering from a copy — :class:`~repro.serve.QueryService`'s
    #: worker pool, which opens the snapshot — can detect that the index
    #: moved on without being told.  Compactions, which preserve the
    #: logical contents, do not bump it.
    update_epoch: int = 0

    def _check_rows(self, points: np.ndarray) -> None:
        """``ValueError`` unless ``points`` is a ``(Q, ν)`` block of the
        index's ν holding only finite values."""
        if points.ndim != 2:
            raise ValueError(f"queries have shape {points.shape}, index "
                             f"expects (Q, {self.dim})")
        if points.shape[1] != self.dim:
            raise ValueError(f"query has dimension {points.shape[1]}, "
                             f"index expects {self.dim}")
        require_finite(points, "query")

    def _require_built(self) -> None:
        """``RuntimeError`` unless a build succeeded or a snapshot was
        reopened: both leave :class:`BuildStats` recorded."""
        if self._build_stats is None:
            raise RuntimeError("index has not been built; call build() first")

    def _bump_update_epoch(self) -> None:
        """Record a logical-content mutation (insert/delete/build)."""
        self.update_epoch = self.update_epoch + 1

    def build(self, data: np.ndarray, metadata: Any = None) -> None:
        """Construct the index over a dataset, from nothing.

        Validates ``data``, then :meth:`_timed_build` runs :meth:`_build`.

        Args:
            data: ``(n, ν)`` array of vectors; coerced to float64.
            metadata: Per-point attributes, passed to :meth:`_build` when
                given (HD-Index's filtered queries; a baseline takes none).

        Raises:
            ValueError: If ``data`` is not 2-D, is empty, holds a NaN or
                infinite value, or violates a structural parameter (e.g.
                ``num_trees`` exceeding ν for the HD-Index family).
        """
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(f"data must be 2-D, got shape {data.shape}")
        if not data.size:
            raise ValueError("cannot build an index over an empty dataset")
        require_finite(data)
        self._timed_build(self._build, data, **(
            {} if metadata is None else {"metadata": metadata}))
        self.dim = data.shape[1]

    def _timed_build(self, construct, *args: Any, **kwargs: Any) -> None:
        """The one build step: forget the earlier :class:`BuildStats`,
        time ``construct`` and record the peak bytes it returns with the
        page writes of :meth:`_accountants`.  The index counts as built
        only once a construction returns."""
        self._build_stats = None
        started = time.perf_counter()
        peak_memory_bytes = construct(*args, **kwargs)
        self._build_stats = BuildStats(
            time_sec=time.perf_counter() - started,
            page_writes=sum(stats.page_writes
                            for stats in self._accountants()),
            peak_memory_bytes=peak_memory_bytes,
        )

    def _build(self, data: np.ndarray) -> int:
        """Construct the structure over validated float64 ``data``.

        Returns:
            Peak bytes the construction held (the ``index_RAM`` column).
        """
        raise NotImplementedError

    def query(self, point: np.ndarray, k: int,
              **overrides: Any) -> tuple[np.ndarray, np.ndarray]:
        """Approximate k nearest neighbours of one point.

        :meth:`query_batch` on the one row, padding stripped, except that
        the stats carry no ``extra["batch_size"]``.

        Args:
            point: ``(ν,)`` query vector.
            k: Number of neighbours requested (``>= 1``).
            **overrides: Forwarded to :meth:`_search_batch`.

        Returns:
            ``(ids, distances)`` arrays of length ``<= k``, ordered by
            increasing reported distance.

        Raises:
            ValueError: If ``k < 1``, or the point's length does not
                match the index or it holds a NaN or infinite value.
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
        point = np.asarray(point, dtype=np.float64).ravel()
        ids, dists = self._query_rows(point[None, :], k, overrides)
        found = ids[0] >= 0
        return ids[0][found], dists[0][found]

    def query_batch(self, points: np.ndarray, k: int,
                    **overrides: Any) -> tuple[np.ndarray, np.ndarray]:
        """Query each row of ``points`` in one call.

        Args:
            points: ``(Q, ν)`` array of query vectors (a single ``(ν,)``
                vector is promoted to a one-row batch).
            k: Neighbours per query (``>= 1``).
            **overrides: Forwarded to :meth:`_search_batch` (the
                HD-Index family accepts per-call ``alpha``/``beta``/
                ``gamma``/``use_ptolemaic``/``predicate``).

        Returns:
            ``(ids, distances)`` arrays of shape ``(Q, k)``; rows with
            fewer than k answers are padded with id ``-1`` and distance
            ``+inf``.  Row ``r`` is identical to ``query(points[r], k)``.

        Afterwards :meth:`last_query_stats` reports totals over the whole
        batch with ``extra["batch_size"]``.

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
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        ids, dists = self._query_rows(points, k, overrides)
        self._query_stats.extra["batch_size"] = points.shape[0]
        return ids, dists

    def _query_rows(self, points: np.ndarray, k: int,
                    overrides: dict[str, Any]
                    ) -> tuple[np.ndarray, np.ndarray]:
        """The one path of :meth:`query` and :meth:`query_batch`: refuse
        an unbuilt index, ``k < 1`` and float64 ``points`` that are not
        ``(Q, ν)`` finite rows, then time :meth:`_search_batch` and record
        a :class:`QueryStats` whose page reads and their random/sequential
        split are the difference of :meth:`_read_totals` around it."""
        self._require_built()
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self._check_rows(points)
        started = time.perf_counter()
        before = self._read_totals()
        ids, dists, candidates, computations, extra = self._search_batch(
            points, k, **overrides)
        reads, random_reads, sequential_reads = (
            after - was for after, was in zip(self._read_totals(), before))
        self._query_stats = QueryStats(
            time_sec=time.perf_counter() - started, page_reads=reads,
            random_reads=random_reads, sequential_reads=sequential_reads,
            candidates=candidates, distance_computations=computations,
            extra=extra)
        return ids, dists

    def _search_batch(self, points: np.ndarray, k: int, **overrides: Any
                      ) -> tuple[np.ndarray, np.ndarray, int, int,
                                 dict[str, Any]]:
        """Answer checked query rows: float64 ``(Q, ν)`` ``points``,
        ``k >= 1``.

        This default runs :meth:`_search` on each row; a method that
        amortises work across the rows (HD-Index) overrides it.

        Returns:
            ``(ids, distances, candidates, distance_computations,
            extra)``: ``(Q, k)`` answers padded as :meth:`query_batch`
            returns them, then the :class:`QueryStats` fields the method
            counts itself, summed over the rows (``extra`` is the row's
            own for one row, else empty).
        """
        ids = np.full((points.shape[0], k), -1, dtype=np.int64)
        dists = np.full((points.shape[0], k), np.inf, dtype=np.float64)
        candidates = computations = 0
        extra: dict[str, Any] = {}
        for row, point in enumerate(points):
            got_ids, got_dists, got_candidates, got_computations, extra = \
                self._search(point, k, **overrides)
            count = min(k, len(got_ids))
            ids[row, :count] = got_ids[:count]
            dists[row, :count] = got_dists[:count]
            candidates += got_candidates
            computations += got_computations
        return (ids, dists, candidates, computations,
                extra if points.shape[0] == 1 else {})

    def _search(self, point: np.ndarray, k: int
                ) -> tuple[np.ndarray, np.ndarray, int, int, dict[str, Any]]:
        """Answer one checked query: a float64 ``(ν,)`` point, ``k >= 1``.

        Returns:
            ``(ids, distances, candidates, distance_computations,
            extra)``: at most k answers by increasing distance, then the
            :class:`QueryStats` fields the method counts itself.
        """
        raise NotImplementedError

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
            Bytes of query-time state (reference sets, decoded tree
            columns, candidate workspaces) — the "querying RAM" column
            of the paper's Table 5.
        """
        raise NotImplementedError

    def build_memory_bytes(self) -> int:
        """Peak RAM during index construction (structural accounting).

        Returns:
            ``build_stats().peak_memory_bytes``, which each method's
            :meth:`build` records.
        """
        return self.build_stats().peak_memory_bytes

    def last_query_stats(self) -> QueryStats:
        """Statistics of the most recent :meth:`query` /
        :meth:`query_batch` call.

        Returns:
            The call's :class:`QueryStats` (a fresh zeroed one if nothing
            ran yet): wall-clock, page reads with the random/sequential
            split, candidate count and distance computations.
        """
        return self._query_stats or QueryStats()

    def build_stats(self) -> BuildStats:
        """Statistics of the :meth:`build` call.

        Returns:
            The :class:`BuildStats` the build stored in ``_build_stats``
            (a fresh zeroed one before any build).
        """
        return self._build_stats or BuildStats()

    def _accountants(self) -> list[IOStats]:
        """The :class:`~repro.storage.stats.IOStats` every page this
        index reads is counted in (none for an in-memory method)."""
        return []

    def _read_totals(self) -> tuple[int, int, int]:
        """``(page_reads, random_reads, sequential_reads)`` summed over
        :meth:`_accountants` in one pass: a query's reads are the
        difference of the totals taken before and after it."""
        reads = random_reads = sequential_reads = 0
        for stats in self._accountants():
            reads += stats.page_reads
            random_reads += stats.random_reads
            sequential_reads += stats.sequential_reads
        return reads, random_reads, sequential_reads

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release backing resources (log and page-store file handles).

        A no-op by default; disk-resident methods override it.  Must be
        idempotent, so generic drivers (the CLI, the serve subsystem) can
        close any index unconditionally.
        """

    def __enter__(self) -> "KNNIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
