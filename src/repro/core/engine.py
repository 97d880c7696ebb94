"""Shared Algorithm-2 query engine for the HD-Index family.

The paper claims HD-Index "can be easily parallelized and/or distributed
with little synchronization" because the three stages of Algo. 2 —
(i) α nearest-by-Hilbert-key candidates per RDB-tree, (ii) triangular /
Ptolemaic filter refinement, (iii) exact re-ranking of the κ survivors —
touch independent trees until the final merge.  This module is the single
implementation of those stages.  Every index an
:class:`~repro.core.spec.IndexSpec` can declare, answered in-process or
by a serving pool's worker, runs this one code path: stages (i)+(ii)
are one :meth:`QueryEngine.scan_many` over all τ trees, so the variants
cannot drift apart in semantics or in the
:class:`~repro.core.interface.QueryStats` they report.

There is one pipeline, :meth:`QueryEngine.run_batch`, HD-Index's
``_search_batch`` hook (``KNNIndex`` validates, times and counts every
call around it), laid out over a (Q, ν) block of query rows so the
per-call fixed costs are paid once, MRPT/HDIdx-style:

* query-to-reference distances for all Q points in one matmul;
* Hilbert keys for every (tree, row) in one fused ``encode_for_curves``
  pass;
* one descriptor fetch per distinct candidate across the batch, their
  :func:`sorted_union` (the κ sets of nearby queries overlap heavily, so
  this collapses the stage-(iii) random reads);
* the predicate's eligible ids and each tree's key-ordered eligible
  positions taken once per predicate and base generation (the index's
  :class:`~repro.core.hdindex.EligibleMemo`, so a recurring predicate
  pays neither a mask nor a sort), the WAL-delta screen and the sorted
  deleted-id array once per call, not per row;
* one (m, τ, α) block of reference distances that each row's descents
  refill and one :meth:`QueryEngine.filter_survivors` cuts, Eq. 6's
  weights built once a row (655 KB at τ = 8, α = 1024, m = 10: in L2)
  and its bound computed once per distinct object of the row.
"""

from __future__ import annotations

import weakref
from typing import Sequence

import numpy as np

from repro.core.filters import (
    CandidateWindowError,
    filter_candidates,
    ptolemaic_lower_bounds_many,
    triangular_lower_bounds_many,
)
from repro.distance.metrics import (
    euclidean_to_many,
    normalize_rows,
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


def representatives(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(each entry's representative, the representatives) as indices of
    ``ids``, without a sort or anything sized by the ids' range: the entry
    left in its slot of a table of at least 4x as many slots (a power of
    two, ``slot = id & (size - 1)``) stands for its id's entries; another
    id's entries there (a collision) stand for themselves."""
    size = 1 << (4 * ids.shape[0] - 1).bit_length()
    slot = ids & (size - 1)
    own = np.arange(ids.shape[0])
    table = np.empty(size, dtype=np.intp)
    table[slot] = own
    rep = table.take(slot)
    np.copyto(rep, own, where=ids.take(rep) != ids)
    return rep, (rep == own).nonzero()[0]


class QueryEngine:
    """The three stages of Algo. 2 over one HD-Index's components.

    The engine reads the index's live attributes (``trees``, ``heap``, ...)
    at call time, so it survives rebuilds, inserts and reloads without
    re-wiring, through a weak proxy: the index owns its engine, and with
    no cycle a dropped index is freed at once, not at the next collection.
    """

    def __init__(self, index) -> None:
        self.index = None if index is None else weakref.proxy(index)

    # -- stage (i): RDB-tree candidate retrieval --------------------------

    def scan_many(self, tree_indices: Sequence[int], points: np.ndarray,
                  query_ref: np.ndarray, alpha: int, beta: int, gamma: int,
                  ptolemaic: bool, eligible=None
                  ) -> list[list[np.ndarray]]:
        """Stages (i)+(ii) for the given trees over all Q query rows.

        This is the array-native hot path: one quantisation pass over the
        full points, one fused :func:`encode_for_curves` call producing
        every (tree, query) Hilbert key, then per row τ packed-tree lookups
        filling the call's (τ, α') id and (m, τ, α') distance blocks, and
        one :meth:`filter_survivors`.  The trees hold the same entries; a
        window of another length raises :class:`CandidateWindowError`.
        Returns, per tree, one survivor-id array per query row.

        ``eligible`` (an :class:`~repro.core.hdindex.EligibleSet`) holds
        the base objects the predicate admits and, taken on a tree's
        first use and shared by later calls, the key-ordered positions of
        each tree's eligible entries; every row's lookup takes its α
        candidates among those — so α, β and γ mean what they mean
        without a predicate and an ineligible point never reaches the
        lower-bound kernels.
        """
        index = self.index
        trees = [index.trees[t] for t in tree_indices]
        quantized = index.quantizer.quantize(points)
        keys = encode_for_curves(
            [tree.curve for tree in trees],
            [quantized[:, index.partitions[t]] for t in tree_indices])
        subsets = [None if eligible is None
                   else eligible.positions(t, tree)
                   for t, tree in zip(tree_indices, trees)]
        width = min(alpha, len(trees[0]) if eligible is None
                    else eligible.ids.size)
        id_block = np.empty((len(trees), width), dtype=np.int64)
        ref_block = np.empty((index.references.size, len(trees), width))
        slices = list(zip(id_block, ref_block.transpose(1, 2, 0)))
        rows = []
        # One packed-tree descent per (tree, row): the tree candidate API
        # is inherently per-key and each call is O(log n) page work, so
        # these loops are over *queries* and τ trees, not array elements.
        for row in range(points.shape[0]):  # lint: disable=HK101
            for tree, tree_keys, subset, out in zip(  # lint: disable=HK101
                    trees, keys, subsets, slices):
                ids, _ = tree.candidates(tree_keys[row].tobytes(), alpha,
                                         subset, out=out)
                if ids.shape[0] != width:
                    raise CandidateWindowError(
                        f"{ids.shape[0]} candidates for a block of {width}")
            rows.append(self.filter_survivors(
                query_ref[row], id_block, ref_block, beta, gamma, ptolemaic))
        return [[block[t] for block in rows] for t in range(len(trees))]

    # -- stage (ii): lower-bound filtering --------------------------------

    def filter_survivors(self, query_ref: np.ndarray, cand_ids: np.ndarray,
                         cand_ref: np.ndarray, beta: int, gamma: int,
                         ptolemaic: bool) -> np.ndarray:
        """Triangular (Eq. 5) then optional Ptolemaic (Eq. 6) refinement
        of one query row's τ trees to γ survivors each (Algo. 2 lines
        5-10): one kernel call per bound of the row's (m,) ``query_ref``
        against its (τ, α') ids and (m, τ, α') ``cand_ref``, one cut per
        tree.  Returns (τ, γ') ids, each row a set, in no order."""
        trees, width = cand_ids.shape
        block = cand_ref.reshape(cand_ref.shape[0], trees * width)
        rows = np.arange(trees)[:, None]
        keep = filter_candidates(triangular_lower_bounds_many(
            query_ref, block.T).reshape(trees, width), beta)
        # The survivors' columns in the (m, τ·α') block, cut by cut.
        columns = (keep + width * rows).ravel()
        if ptolemaic:
            # Eq. 6 reads an object's stored distances alone, so it runs
            # once per distinct β-survivor and each copy takes that bound
            # (a tree holds an id once: one tree repeats none).
            rep, own = (representatives(np.take(cand_ids, columns))
                        if trees > 1 else (slice(None), slice(None)))
            ptol = np.empty(columns.shape[0])
            ptol[own] = ptolemaic_lower_bounds_many(
                query_ref, np.take(block, columns[own], axis=1).T,
                self.index.references.pairs)
            cut = filter_candidates(ptol[rep].reshape(keep.shape), gamma)
            columns = np.take(columns, (cut + keep.shape[1] * rows).ravel())
        return np.take(cand_ids, columns).reshape(trees, -1)

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

    def run_batch(self, points: np.ndarray, k: int,
                  alpha: int | None = None, beta: int | None = None,
                  gamma: int | None = None,
                  use_ptolemaic: bool | None = None, predicate=None
                  ) -> tuple[np.ndarray, np.ndarray, int, int, dict]:
        """Answer Q checked query rows: HD-Index's
        :meth:`~repro.core.interface.KNNIndex._search_batch`, so it returns
        (Q, k) ids, (Q, k) distances, the candidate and distance counts
        and the ``extra`` of :class:`~repro.core.interface.QueryStats`.

        Rows are independent — row r is what the same point gets alone —
        and rows short of k answers are padded with id -1 / distance
        +inf; the work layout is described in the module docstring.

        ``predicate`` (a :class:`~repro.meta.Predicate` or its dict
        form) restricts every row's answer to matching points via
        pushdown: the eligible ids are looked up here (a mask only on
        the predicate's first use on this base generation) and each tree
        hands stage (ii) its α nearest *eligible* entries, so the
        (α, β, γ) budgets are the unfiltered ones; at most α eligible
        rows in all are re-ranked exactly with no tree asked.
        ``extra["selectivity"]`` reports the eligible fraction.
        """
        index = self.index
        predicate = index._coerce_query_predicate(predicate)
        ptolemaic = (index.params.use_ptolemaic
                     if use_ptolemaic is None else use_ptolemaic)
        eff_alpha, eff_beta, eff_gamma = index.params.resolve_filter_sizes(
            k, alpha, beta, gamma, ptolemaic)
        eligible = index._eligibility(predicate)
        index._distance_counter.reset()
        if index.params.metric == "angular":
            points = normalize_rows(points)
        batch = points.shape[0]

        if eligible is not None and eligible.ids.size <= eff_alpha:
            # No more eligible rows than one tree offers candidates:
            # every tree would offer all of them, so no tree is asked
            # and no bound computed — they go to the exact re-rank as
            # they are (a predicate matching no row reads no page).
            per_tree = [[eligible.ids] * batch]
        else:
            # The (Q, m) reference-distance matmul, charged once per call;
            # every tree in one scan_many (one fused encode).
            index._distance_counter.add(batch * index.references.size)
            per_tree = self.scan_many(
                range(len(index.trees)), points,
                index.references.distances_from(points), eff_alpha,
                eff_beta, eff_gamma, ptolemaic, eligible)
        tail = self._merge_tail(predicate)
        merged_per_row = [self._merge_survivors(rows, tail)
                          for rows in zip(*per_tree)]
        ids_out, dists_out = self._rerank_rows(points, merged_per_row, k)
        extra = {"alpha": eff_alpha, "beta": eff_beta, "gamma": eff_gamma,
                 "ptolemaic": ptolemaic}
        if eligible is not None:
            extra["selectivity"] = eligible.selectivity
        return (ids_out, dists_out,
                sum(merged.shape[0] for merged in merged_per_row),
                index._distance_counter.count, extra)

    #: The benchmark tracer resolves ``QueryEngine.run`` in this class's
    #: dict; it is :meth:`run_batch`, the one pipeline.
    run = run_batch

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
        segment (the same values, so distances are bit-identical to a
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
