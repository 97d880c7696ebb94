"""Shared Algorithm-2 query engine for the HD-Index family.

The paper claims HD-Index "can be easily parallelized and/or distributed
with little synchronization" because the three stages of Algo. 2 —
(i) α nearest-by-Hilbert-key candidates per RDB-tree, (ii) triangular /
Ptolemaic filter refinement, (iii) exact re-ranking of the κ survivors —
touch independent trees until the final merge.  This module is the single
implementation of those stages.  Every deployment shape an
:class:`~repro.core.spec.IndexSpec` can declare — plain or sharded
topology, sequential / threaded / process execution — is a configuration
of this one code path: the only degree of freedom is the
:class:`Executor` that maps the per-tree stage-(i)/(ii) work, so the
variants cannot drift apart in semantics or in the
:class:`~repro.core.interface.QueryStats` they report.

There is one pipeline, :meth:`QueryEngine.run_batch`, laid out over a
(Q, ν) block of query rows so the per-call fixed costs are paid once,
MRPT/HDIdx-style:

* query-to-reference distances for all Q points in one matmul;
* Hilbert keys for every (tree, row) in one fused ``encode_for_curves``
  pass;
* one descriptor fetch per distinct candidate across the batch, their
  :func:`sorted_union` (the κ sets of nearby queries overlap heavily, so
  this collapses the stage-(iii) random reads);
* a single executor (thread pool, for the parallel index) reused across
  all Q × τ tree scans;
* the predicate's eligible ids, each tree's key-ordered eligible
  positions, the WAL-delta screen and the sorted deleted-id array
  computed once per call, not per row.

Stage (ii) is deliberately *not* on that list: each (tree, row) segment
is bounded and cut to γ survivors (:meth:`QueryEngine.filter_survivors`)
as soon as its tree descent returns, while its α × m block of reference
distances is still in cache.  The filters cost O(α·m + β·m²) per tree on
bytes already in memory (Sec. 4.4.1); fusing the segments of a call into
one matrix only moved that working set out of cache.

The one-point entry (:meth:`QueryEngine.run`) is that pipeline at Q = 1
with the padding stripped.  The scalar pieces kept beside it (the
node-path tree walk, per-point ``curve.encode``) are the reference the
tests and benches compare the pipeline against.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.filters import (
    filter_candidates,
    ptolemaic_lower_bounds_many,
    triangular_lower_bounds_many,
)
from repro.core.interface import QueryStats
from repro.distance.metrics import (
    euclidean_to_many,
    normalize_rows,
    require_finite,
    top_k_smallest,
)
from repro.hilbert.butz import encode_for_curves


def sorted_union(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """``np.unique(np.concatenate(arrays))`` by a sort and an adjacent
    difference mask, a tenth the cost of numpy's hash-based ``unique``."""
    ids = np.sort(np.concatenate(arrays))
    keep = np.ones(ids.shape[0], dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


class Executor:
    """Strategy for mapping the independent per-tree scans of Algo. 2.

    ``workers`` is ``None`` for sequential execution (the stats then omit a
    worker count, as the sequential index always has) and the pool width
    otherwise.
    """

    workers: int | None = None

    def map(self, fn: Callable, items: Iterable) -> list:
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (idempotent)."""


class SequentialExecutor(Executor):
    """Run tree scans inline, in order — the plain :class:`HDIndex` mode.
    With no pool (``workers`` is ``None``) the engine hands every tree
    to one :meth:`QueryEngine.scan_many` call and never maps."""


class ProcessExecutor(Executor):
    """Fan tree scans over worker *processes* sharing one mmap snapshot.

    The GIL bounds :class:`ThreadedExecutor` wherever the per-tree work is
    Python-heavy (B+-tree descent, key decode); this executor escapes it.
    Workers never receive pickled index state: each one lazily reopens the
    bound snapshot directory (``backend="mmap"`` by default, so the OS
    shares the physical pages pool-wide) and runs stages (i)+(ii) of
    Algo. 2 for its assigned trees, returning survivor ids plus its I/O
    deltas.  Stage (iii) — the merge and exact re-rank — stays in the
    parent.  Results are byte-identical to sequential execution; a worker
    crash or a task past ``timeout`` raises a typed
    :class:`~repro.core.procpool.ProcessPoolError` instead of hanging.
    """

    #: Engine capability flag: scans run in another process, so the engine
    #: routes through :meth:`scan_trees` (a map() closure could not cross).
    remote = True

    def __init__(self, snapshot_dir=None, num_workers: int | None = None,
                 backend: str = "mmap", cache_pages: int | None = None,
                 timeout: float | None = None) -> None:
        from repro.core.procpool import SnapshotWorkerPool
        # The *requested* width, None preserved: a spec persisted from
        # this executor must record "size to the serving machine", not
        # the build machine's resolved CPU count.
        self.requested_workers = num_workers
        self.pool = SnapshotWorkerPool(
            snapshot_dir, num_workers=num_workers, backend=backend,
            cache_pages=cache_pages, timeout=timeout)

    @property
    def snapshot_dir(self):
        return self.pool.directory

    @property
    def workers(self) -> int | None:  # type: ignore[override]
        return self.pool.num_workers

    def scan_trees(self, num_trees: int, points, alpha: int, beta: int,
                   gamma: int, ptolemaic: bool, predicate=None):
        """Stages (i)+(ii) for all trees in the worker pool; returns
        (per-tree-per-row survivors, summed worker stats deltas).

        ``predicate`` crosses the process boundary in its JSON dict
        form; each worker rebuilds it and computes the eligibility mask
        against its own snapshot's metadata store."""
        return self.pool.scan_trees(num_trees, points, alpha, beta, gamma,
                                    ptolemaic, predicate)

    def close(self) -> None:
        self.pool.close()


class ThreadedExecutor(Executor):
    """Fan tree scans over a lazily created, reusable thread pool.

    The numpy filter kernels release the GIL, so the independent per-tree
    scans genuinely overlap; only the survivor merge synchronises — the
    paper's "little synchronization".

    Parameters
    ----------
    num_workers:
        Pool width; when ``None`` it is resolved by ``default_workers`` at
        first use (the parallel index sizes it to its tree count, which is
        only known after ``build()``).
    default_workers:
        Zero-argument callable producing the fallback width.
    """

    def __init__(self, num_workers: int | None = None,
                 default_workers: Callable[[], int] | None = None) -> None:
        if num_workers is not None and num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self._default_workers = default_workers or (lambda: 8)
        self._pool: ThreadPoolExecutor | None = None

    @property
    def workers(self) -> int | None:  # type: ignore[override]
        if self._pool is not None:
            return self._pool._max_workers
        return self.num_workers

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            workers = self.num_workers or max(1, self._default_workers())
            self._pool = ThreadPoolExecutor(max_workers=workers)
        return self._pool

    def map(self, fn: Callable, items: Iterable) -> list:
        return list(self._ensure_pool().map(fn, items))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class QueryEngine:
    """The three stages of Algo. 2 over one HD-Index's components.

    The engine reads the index's live attributes (``trees``, ``partitions``,
    ``quantizer``, ``references``, ``heap``, ``_deleted``) at call time, so
    it survives rebuilds, inserts and persistence reloads without
    re-wiring.
    """

    def __init__(self, index, executor: Executor | None = None) -> None:
        self.index = index
        self.executor = executor if executor is not None else SequentialExecutor()

    # -- stage (i): RDB-tree candidate retrieval --------------------------

    def scan_many(self, tree_indices: Sequence[int], points: np.ndarray,
                  query_ref: np.ndarray, alpha: int, beta: int, gamma: int,
                  ptolemaic: bool, eligible_ids: np.ndarray | None = None
                  ) -> list[list[np.ndarray]]:
        """Stages (i)+(ii) for the given trees over all Q query rows.

        This is the array-native hot path: one quantisation pass over the
        full points, one fused :func:`encode_for_curves` call producing
        every (tree, query) Hilbert key, then per (tree, query) segment a
        packed-tree candidate lookup and, at once, that segment's
        :meth:`filter_survivors` — no per-candidate Python loop anywhere,
        and no array larger than one segment's (pairs, β) bound matrix.
        Returns, per tree, one survivor-id array per query row.

        ``eligible_ids`` are the base objects the predicate admits, in
        id order.  Each tree turns them, once per call, into the key-ordered
        positions of its eligible entries, and every row's lookup takes
        its α candidates among those — so α, β and γ mean what they mean
        without a predicate and an ineligible point never reaches the
        lower-bound kernels.
        """
        index = self.index
        quantized = index.quantizer.quantize(points)
        curves = [index.trees[t].curve for t in tree_indices]
        coords = [quantized[:, index.partitions[t]] for t in tree_indices]
        keys = encode_for_curves(curves, coords)
        survivors: list[list[np.ndarray]] = []
        for tree_position, tree_index in enumerate(tree_indices):
            tree = index.trees[tree_index]
            tree_keys = keys[tree_position]
            subset = (None if eligible_ids is None
                      else tree.positions_of(eligible_ids))
            tree_rows: list[np.ndarray] = []
            # One packed-tree descent per (tree, row): the tree candidate
            # API is inherently per-key and each call is O(log n) page
            # work, so this loop is over *queries*, not array elements.
            for row in range(points.shape[0]):  # lint: disable=HK101
                ids, ref = tree.candidates(tree_keys[row].tobytes(), alpha,
                                           subset)
                tree_rows.append(self.filter_survivors(
                    query_ref[row], ids, ref, beta, gamma, ptolemaic))
            survivors.append(tree_rows)
        return survivors

    def _dispatch_scans(self, points: np.ndarray, query_ref: np.ndarray,
                        alpha: int, beta: int, gamma: int, ptolemaic: bool,
                        eligible_ids: np.ndarray | None = None
                        ) -> list[list[np.ndarray]]:
        """Shape stages (i)+(ii) to the executor: sequential execution gets
        one :meth:`scan_many` over every tree (one fused encode); a pool gets
        one task per tree, preserving the one-thread-per-tree invariant
        (page stores are not thread-safe)."""
        index = self.index
        tree_count = len(index.trees)
        if self.executor.workers is None:
            return self.scan_many(range(tree_count), points, query_ref,
                                  alpha, beta, gamma, ptolemaic, eligible_ids)

        def scan_one(tree_index):
            return self.scan_many([tree_index], points, query_ref, alpha,
                                  beta, gamma, ptolemaic, eligible_ids)[0]

        return self.executor.map(scan_one, range(tree_count))

    # -- stage (ii): lower-bound filtering --------------------------------

    def filter_survivors(self, query_ref: np.ndarray, cand_ids: np.ndarray,
                         cand_ref: np.ndarray, beta: int, gamma: int,
                         ptolemaic: bool) -> np.ndarray:
        """Triangular (Eq. 5) then optional Ptolemaic (Eq. 6) refinement
        of one tree's candidates for one query row down to γ survivors
        (Algo. 2 lines 5-10): the pipeline's stage (ii), called per
        segment by :meth:`scan_many`.  ``query_ref`` is that row's (m,)
        reference distances; the survivors are a set, in no order.
        """
        keep = filter_candidates(
            triangular_lower_bounds_many(query_ref, cand_ref), beta)
        cand_ids = cand_ids[keep]
        if ptolemaic:
            # The β survivors, cut as columns of the reference-major block.
            ptol = ptolemaic_lower_bounds_many(
                query_ref, np.take(cand_ref.T, keep, axis=1).T,
                self.index.references.pairs)
            cand_ids = cand_ids[filter_candidates(ptol, gamma)]
        return cand_ids

    # -- stage (iii): exact re-ranking ------------------------------------

    def rerank(self, point: np.ndarray, merged: np.ndarray, k: int
               ) -> tuple[np.ndarray, np.ndarray]:
        """Fetch the κ merged survivors' descriptors and rank exactly
        (Algo. 2 lines 12-14): one row of :meth:`_rerank_rows`, padding
        stripped.  κ = 0 (every candidate filtered or deleted) gives
        empty arrays without touching the heap store."""
        ids, dists = self._rerank_rows(point[None, :], [merged], k)
        found = min(k, merged.shape[0])
        return ids[0, :found], dists[0, :found]

    def _rerank_rows(self, points: np.ndarray,
                     merged_per_row: Sequence[np.ndarray], k: int
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Stage (iii) for Q rows of sorted distinct ids, amortised: fetch
        their union once for the whole batch and rank each row against it
        (a row as long as the union is the union: no remap).  Rows short
        of k answers are padded with id -1 / distance +inf.

        The fetch is the heap file's vectorised multi-row :meth:`gather`
        — over an mmap backend, one fancy-index into the zero-copy page
        matrix instead of κ per-record page reads, which is where the
        refinement stage's I/O cost (the binding constraint at scale)
        actually goes.
        """
        batch = points.shape[0]
        ids_out = np.full((batch, k), -1, dtype=np.int64)
        dists_out = np.full((batch, k), np.inf, dtype=np.float64)
        if any(merged.shape[0] for merged in merged_per_row):
            union = sorted_union(merged_per_row)
            descriptors = self._gather_descriptors(union)
            for row, merged in enumerate(merged_per_row):
                if not merged.shape[0]:
                    continue
                block = (descriptors if merged.shape[0] == union.shape[0]
                         else descriptors[np.searchsorted(union, merged)])
                exact = euclidean_to_many(points[row], block,
                                          self.index._distance_counter)
                best = top_k_smallest(exact, min(k, merged.shape[0]))
                ids_out[row, :best.shape[0]] = merged[best]
                dists_out[row, :best.shape[0]] = exact[best]
        return ids_out, dists_out

    # -- full Algo. 2 ------------------------------------------------------

    def run(self, point: np.ndarray, k: int,
            alpha: int | None = None, beta: int | None = None,
            gamma: int | None = None, use_ptolemaic: bool | None = None,
            predicate=None) -> tuple[np.ndarray, np.ndarray, QueryStats]:
        """Answer one query; returns (ids, dists, stats).

        This is :meth:`run_batch` at Q = 1 with the -1 / +inf padding
        stripped (fewer than k survivors give short arrays) and no
        ``extra["batch_size"]`` in the stats.
        """
        point = np.asarray(point, dtype=np.float64).ravel()
        if point.shape[0] != self.index.dim:
            raise ValueError(
                f"query has dimension {point.shape[0]}, "
                f"index expects {self.index.dim}")
        ids, dists, stats = self.run_batch(
            point[None, :], k, alpha=alpha, beta=beta, gamma=gamma,
            use_ptolemaic=use_ptolemaic, predicate=predicate)
        del stats.extra["batch_size"]
        found = ids[0] >= 0
        return ids[0][found], dists[0][found], stats

    def run_batch(self, points: np.ndarray, k: int,
                  alpha: int | None = None, beta: int | None = None,
                  gamma: int | None = None,
                  use_ptolemaic: bool | None = None, predicate=None
                  ) -> tuple[np.ndarray, np.ndarray, QueryStats]:
        """Answer Q queries; returns ((Q, k) ids, (Q, k) dists, stats).

        Rows are independent — row r is what the same point gets alone —
        and rows short of k answers are padded with id -1 / distance
        +inf; the work layout is described in the module docstring.  The
        returned stats aggregate the whole batch and carry
        ``extra["batch_size"]``.

        ``predicate`` (a :class:`~repro.meta.Predicate` or its dict
        form) restricts every row's answer to matching points via
        pushdown: the eligible ids are computed once here (inside
        ``time_sec``) and each tree hands stage (ii) its α nearest
        *eligible* entries, so the (α, β, γ) budgets are the unfiltered
        ones; at most α eligible rows in all are re-ranked exactly with
        no tree asked.  ``extra["selectivity"]`` reports the eligible
        fraction.
        """
        index = self.index
        started = time.perf_counter()
        predicate = index._coerce_query_predicate(predicate)
        ptolemaic = (index.params.use_ptolemaic
                     if use_ptolemaic is None else use_ptolemaic)
        eff_alpha, eff_beta, eff_gamma = index._effective_sizes(
            k, alpha, beta, gamma, ptolemaic)
        eligible_ids, selectivity = index._eligibility(predicate)

        reads_before = index._total_page_reads()
        random_before, sequential_before = index._read_breakdown()
        index._distance_counter.reset()

        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points[None, :]
        if points.ndim != 2 or points.shape[1] != index.dim:
            raise ValueError(
                f"queries have shape {points.shape}, index expects "
                f"(Q, {index.dim})")
        require_finite(points, "query")
        if index.params.metric == "angular":
            points = normalize_rows(points)
        batch = points.shape[0]

        if eligible_ids is not None and eligible_ids.size <= eff_alpha:
            # No more eligible rows than one tree offers candidates:
            # every tree would offer all of them, so no tree is asked
            # and no bound computed — they go to the exact re-rank as
            # they are (a predicate matching no row reads no page).
            remote_delta = None
            per_tree = [[eligible_ids] * batch]
        else:
            # The (Q, m) reference-distance matmul is charged once per
            # call whoever computes it — sequential-equivalent
            # accounting, not once per worker group.
            index._distance_counter.add(batch * index.references.size)
            if getattr(self.executor, "remote", False):
                # Worker processes run stages (i)+(ii) for their
                # assigned trees over all Q rows against their own
                # snapshot view; the reference matmul and Hilbert
                # encoding happen worker-side, and their page reads and
                # distance computations arrive as a delta alongside the
                # survivors.
                per_tree, remote_delta = self.executor.scan_trees(
                    len(index.trees), points, eff_alpha, eff_beta,
                    eff_gamma, ptolemaic,
                    None if predicate is None else predicate.to_dict())
            else:
                remote_delta = None
                # Stages (i)+(ii) through the array-native path (one
                # task per tree under a pool — a tree's page store stays
                # on a single thread, the independence the paper's
                # "little synchronization" argument rests on).
                query_ref = index.references.distances_from(points)
                per_tree = self._dispatch_scans(
                    points, query_ref, eff_alpha, eff_beta, eff_gamma,
                    ptolemaic, eligible_ids)
        tail = self._merge_tail(predicate)
        merged_per_row = [self._merge_survivors(rows, tail)
                          for rows in zip(*per_tree)]
        ids_out, dists_out = self._rerank_rows(points, merged_per_row, k)

        random_after, sequential_after = index._read_breakdown()
        extra = {"alpha": eff_alpha, "beta": eff_beta, "gamma": eff_gamma,
                 "ptolemaic": ptolemaic}
        if predicate is not None:
            extra["selectivity"] = selectivity
        if self.executor.workers is not None:
            extra["workers"] = self.executor.workers
        extra["batch_size"] = batch
        stats = QueryStats(
            time_sec=time.perf_counter() - started,
            page_reads=index._total_page_reads() - reads_before,
            random_reads=random_after - random_before,
            sequential_reads=sequential_after - sequential_before,
            candidates=sum(m.shape[0] for m in merged_per_row),
            distance_computations=index._distance_counter.count,
            extra=extra,
        )
        if remote_delta is not None:
            # Fold the worker-process counters in, so process-mode
            # accounting matches what the sequential path would have
            # charged for the same scans.
            stats.page_reads += remote_delta["page_reads"]
            stats.random_reads += remote_delta["random_reads"]
            stats.sequential_reads += remote_delta["sequential_reads"]
            stats.distance_computations += \
                remote_delta["distance_computations"]
        return ids_out, dists_out, stats

    # -- internals --------------------------------------------------------

    def _merge_tail(self, predicate=None) -> tuple[np.ndarray, np.ndarray]:
        """The per-call half of the merge: (delta ids, sorted deleted ids).

        Every un-compacted delta entry joins each row's survivor set:
        the delta is the brute-force-searched tail of the index, and
        stage (iii)'s exact distances decide whether any of it ranks.
        Delta rows are screened here against their WAL-side metadata, so
        an ineligible insert never reaches the gather.  Neither array
        depends on the query row, so a batch derives them once.
        """
        delta = self.index._delta
        delta_ids = delta.id_range()
        if predicate is not None and delta_ids.size:
            rows = delta.metadata_rows()
            keep = np.fromiter(
                (row is not None and predicate.matches(row)
                 for row in rows),
                dtype=bool, count=len(rows))
            delta_ids = delta_ids[keep]
        return delta_ids, np.sort(self.index._deleted_ids())

    def _merge_survivors(self, survivor_ids: Sequence[np.ndarray],
                         tail: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Sorted distinct union of one row's per-tree survivor sets and
        the WAL delta segment, minus deleted ids (Algo. 2 line 11) — the
        single synchronisation point.  ``tail`` is the :meth:`_merge_tail`
        pair; each merged id is looked up in its sorted deleted ids by
        binary search, base and delta entries alike, so a deleted-in-delta
        id can never surface from the base snapshot.  Base survivors are
        predicate-eligible already (the trees offered nothing else).
        """
        delta_ids, deleted = tail
        merged = sorted_union([*survivor_ids, delta_ids])
        if deleted.size:
            found = deleted.take(np.searchsorted(deleted, merged), mode="clip")
            merged = merged[found != merged]
        return merged

    def _gather_descriptors(self, ids: np.ndarray) -> np.ndarray:
        """Stage-(iii) descriptor fetch, delta-aware: base ids come from
        the heap file's vectorised gather, delta ids from the in-memory
        segment (same storage dtype, so distances are bit-identical to a
        post-compaction fetch).  ``ids`` is sorted (:func:`sorted_union`)."""
        index = self.index
        # Snapshot the (heap, delta) pair coherently: a fold or a
        # generation hot-swap replaces both under this lock, and a mixed
        # pair (old heap, new delta) would send post-base ids to a heap
        # file that does not hold them.  Either coherent generation
        # covers every id a scan could have produced.
        with index._update_lock:
            heap, delta = index.heap, index._delta
        base_count = len(heap)
        if not ids.shape[0] or ids[-1] < base_count:
            return heap.gather(ids)
        in_delta = ids >= base_count
        descriptors = np.empty((ids.shape[0], index.dim),
                               dtype=heap.dtype)
        base_ids = ids[~in_delta]
        if base_ids.shape[0]:
            descriptors[~in_delta] = heap.gather(base_ids)
        descriptors[in_delta] = delta.gather(ids[in_delta])
        return descriptors

    def close(self) -> None:
        self.executor.close()
