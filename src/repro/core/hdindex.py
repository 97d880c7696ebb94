"""HD-Index: construction (Algo. 1) and kANN querying (Algo. 2).

The index is a union of τ RDB-trees, one per dimension partition, plus the
memory-resident reference set.  Querying proceeds exactly as the paper's
three stages: (i) α nearest-by-Hilbert-key candidates per tree, (ii) filter
refinement with the triangular and (optionally) Ptolemaic lower bounds to γ
candidates per tree, (iii) κ ≤ τ·γ random descriptor fetches and exact
distance ranking.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict

import numpy as np

from repro.core.engine import QueryEngine
from repro.core.interface import KNNIndex
from repro.core.params import HDIndexParams
from repro.core.partition import make_partition
from repro.core.rdbtree import RDBTree
from repro.core.reference import ReferenceSet
from repro.core.spec import IndexSpec
from repro.distance.metrics import (
    DistanceCounter,
    require_finite,
    require_normalized,
)
from repro.hilbert.butz import HilbertCurve, encode_for_curves
from repro.hilbert.quantize import GridQuantizer
from repro.meta import MetadataStore, coerce_predicate
from repro.storage.stats import IOStats
from repro.storage.vectors import VectorHeapFile
from repro.wal.delta import DeltaSegment
from repro.wal.manager import compact_index, has_wal_layout, open_log


class EligibleSet:
    """One predicate's eligible base objects on one base generation: their
    ascending ``ids``, the ``selectivity`` and, filled on a tree's first
    use, each tree's key-ordered positions of them (``subsets``).  The
    arrays are read-only: every query the predicate recurs in shares
    them.  ``weight`` is what the memo charges: the ids and τ positions
    arrays of as many, an empty set as if it held one id."""

    __slots__ = ("ids", "selectivity", "weight", "subsets", "_base")

    def __init__(self, ids: np.ndarray, selectivity: float,
                 base: tuple) -> None:
        ids.flags.writeable = False
        self.ids, self.selectivity, self._base = ids, selectivity, base
        self.weight = (len(base) - 1) * max(ids.size, 1)
        self.subsets: list[np.ndarray | None] = [None] * (len(base) - 2)

    def positions(self, tree_index: int, tree: RDBTree) -> np.ndarray:
        """``tree``'s :meth:`RDBTree.positions_of` the ids, held for the
        layout the set was taken on (a call scanning a layout adopted
        since its lookup takes them afresh there, unheld)."""
        if self._base[2 + tree_index]() is not tree.packed:
            return tree.positions_of(self.ids)
        if self.subsets[tree_index] is None:
            subset = self.subsets[tree_index] = tree.positions_of(self.ids)
            subset.flags.writeable = False
        return self.subsets[tree_index]

    def nbytes(self) -> int:
        return self.ids.nbytes + sum(
            subset.nbytes for subset in self.subsets if subset is not None)


class EligibleMemo:
    """The :class:`EligibleSet` of each recurring predicate, valid for one
    base generation: the same metadata store object at the same row count
    and the same tree layouts, checked by identity through weak
    references (a superseded generation is not kept alive).  A fold, a
    compaction's transplant or a rebuild changes one of them and the next
    lookup drops every set; inserts and deletes change none (the merge
    screens delta rows and subtracts deleted ids).  LRU by weight, at
    most (τ+1)·n: what predicates partitioning the rows take."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._base: tuple = ()
        self._sets: OrderedDict = OrderedDict()
        self.held = self._bound = 0

    def lookup(self, index: "HDIndex", predicate) -> EligibleSet:
        """The predicate's set on ``index``'s base, computed on a miss:
        one mask over the store and one ``flatnonzero``."""
        with self._lock:
            base = self._rebase(index)
            found = self._sets.get(predicate)
            if found is not None:
                self._sets.move_to_end(predicate)
                return found
        mask = predicate.mask(index.metadata)
        found = EligibleSet(np.flatnonzero(mask), (  # mean() is 10x dearer
            int(np.count_nonzero(mask)) / mask.size if mask.size else 0.0),
            base)
        with self._lock:
            if self._rebase(index) is base and predicate not in self._sets:
                self._sets[predicate] = found
                self.held += found.weight
                while self.held > self._bound and self._sets:
                    self.held -= self._sets.popitem(last=False)[1].weight
        return found

    def nbytes(self, index: "HDIndex") -> int:
        """Bytes of the sets held for ``index``'s current base."""
        with self._lock:
            self._rebase(index)
            return sum(found.nbytes() for found in self._sets.values())

    def _rebase(self, index: "HDIndex") -> tuple:
        """(row count, weak references to the store and the layouts) of
        ``index``'s base; every set is dropped when it changed."""
        store, trees, base = index.metadata, index.trees, self._base
        if not (len(base) == len(trees) + 2 and base[0] == store.count
                and base[1]() is store
                and all(ref() is tree.packed
                        for ref, tree in zip(base[2:], trees))):
            self._base = base = (store.count, weakref.ref(store), *[
                weakref.ref(tree.packed) for tree in trees])
            self._sets.clear()
            self.held, self._bound = 0, (len(trees) + 1) * store.count
        return base


class HDIndex(KNNIndex):
    """The paper's primary contribution.

    Construction (Algo. 1) builds τ RDB-trees over Hilbert-ordered
    dimension partitions plus a descriptor heap file; querying (Algo. 2)
    runs the shared three-stage :class:`~repro.core.engine.QueryEngine`.
    Both of the deployment degrees of freedom are parameters, not
    subclasses: ``HDIndexParams(storage_dir=..., backend=...)`` picks
    where the heap's pages and the trees' columns live (arrays in memory,
    or mappings of their files for larger-than-RAM serving).  Prefer
    declaring the deployment with :class:`~repro.core.spec.IndexSpec`
    and building through :func:`repro.build`.  The index answers
    in-process; ``QueryService(..., workers=N)`` serves its snapshot
    over ``N`` worker processes.

    There is one write path.  The built trees and heap — the *base* —
    are immutable between folds: :meth:`insert` lands in an in-memory
    delta segment every query reranks exactly beside the base,
    :meth:`delete` in the deleted-id set; no write touches a page or a
    tree column.  The ``wal`` policy (``IndexSpec.wal``)
    decides durability only: with a write-ahead log (:mod:`repro.wal`)
    each mutation is one log frame first and :meth:`compact` publishes
    a new on-disk generation; without one, updates are volatile until
    :meth:`compact` / ``save_index`` fold them into the base in place.

    >>> import numpy as np
    >>> from repro import HDIndex, HDIndexParams
    >>> data = np.repeat(np.arange(32.0)[:, None], 4, axis=1)  # (n=32, ν=4)
    >>> index = HDIndex(HDIndexParams(num_trees=2, hilbert_order=4,
    ...                               num_references=4, alpha=8, seed=0))
    >>> index.build(data)
    >>> ids, dists = index.query(data[5], k=3)
    >>> int(ids[0]), float(dists[0])
    (5, 0.0)
    """

    name = "HD-Index"

    def __init__(self, params: HDIndexParams | None = None) -> None:
        self.params = params if params is not None else HDIndexParams()
        self.trees: list[RDBTree] = []
        self.partitions: list[np.ndarray] = []
        self.references: ReferenceSet | None = None
        self.heap: VectorHeapFile | None = None
        self.quantizer: GridQuantizer | None = None
        self.metadata: MetadataStore | None = None
        self.dim: int = 0
        self.count: int = 0
        self._deleted: set[int] = set()
        self._distance_counter = DistanceCounter()
        # Online-update state: every built index has a delta segment,
        # a log handle only while a write-ahead log is attached, and the
        # three-state log policy ``wal`` (None = auto).
        self.generation = 0
        self.wal: bool | None = None
        self._wal = None
        self._delta: DeltaSegment | None = None
        self._wal_root: str | None = None
        self._wal_fsync = "always"
        self._retired = None
        self._update_lock = threading.Lock()
        self._eligible = EligibleMemo()
        self._engine = QueryEngine(self)

    @property
    def spec(self) -> IndexSpec:
        """The declarative :class:`~repro.core.spec.IndexSpec` describing
        this index's current configuration (persisted into snapshots)."""
        return IndexSpec(params=self.params, wal=self.wal)

    # -- online updates (Sec. 3.6) ----------------------------------------

    def _empty_delta(self) -> DeltaSegment:
        return DeltaSegment(len(self.heap), self.dim, self.heap.dtype)

    def _delta_insert(self, vector: np.ndarray, metadata=None) -> int:
        """Land one validated insert in the delta segment (its log
        frame, when a log is attached, is already written)."""
        object_id = self._delta.append(vector, metadata)
        self.count += 1
        return object_id

    def _fold_delta(self) -> None:
        """Sec. 3.6, deferred — the only code that changes a built base:
        append every delta row to the heap and the metadata store, merge
        them into each RDB-tree (reference set kept as-is; one sorted
        merge per tree into *new* columns, :meth:`RDBTree.merge`), start
        an empty delta.  Runs on a detached copy under a log
        (``wal.manager.fold_generation``), else in place
        (``fold_in_place``, ``save_index``), where it must not overlap
        queries on this index."""
        with self._update_lock:
            records = self._delta.records()
            if records:
                vectors = np.stack([vector for _, vector, _ in records])
                object_ids = self.heap.append_batch(vectors)
                distances = self.references.distances_from(vectors)
                coords = self.quantizer.quantize(vectors)
                for tree, part in zip(self.trees, self.partitions):
                    keys = tree.curve.encode_batch_bytes(coords[:, part])
                    tree.merge(keys, object_ids, distances)
                if self.metadata is not None:
                    self.metadata.append_rows(
                        [metadata for _, _, metadata in records])
            self._delta = self._empty_delta()

    def _deleted_ids(self) -> np.ndarray:
        """Stable array snapshot of the deleted-id set (safe against a
        concurrent delete mutating the set mid-filter)."""
        with self._update_lock:
            return np.fromiter(self._deleted, dtype=np.int64,
                               count=len(self._deleted))

    def compact(self) -> int:
        """Fold the delta into the base.

        With a write-ahead log attached: write a new snapshot
        generation, publish it via the ``CURRENT`` pointer, truncate the
        log, and adopt the new generation in place.  Without one:
        :func:`repro.core.persistence.fold_in_place`.

        Returns:
            The snapshot generation now live (unchanged without a log).
        """
        self._require_built()
        if open_log(self) is None:
            from repro.core.persistence import fold_in_place
            return fold_in_place(self)
        generation = compact_index(self)
        self._adopt_current()
        return generation

    def _adopt_current(self) -> None:
        """Reload the published generation and transplant its structures
        into this live object (queries between micro-batches see either
        the old base+delta or the new base — both correct)."""
        from repro.core.persistence import load_index
        root = self._wal_root
        fresh = load_index(root, backend=self.params.resolved_backend)
        old_heap, old_wal = self.heap, self._wal
        with self._update_lock:
            self.params = fresh.params
            self.trees = fresh.trees
            self.partitions = fresh.partitions
            self.references = fresh.references
            self.heap = fresh.heap
            self.quantizer = fresh.quantizer
            self.metadata = fresh.metadata
            self.dim = fresh.dim
            self.count = fresh.count
            self._deleted = fresh._deleted
            self.generation = fresh.generation
            self._wal = fresh._wal
            self._delta = fresh._delta
            self._wal_root = fresh._wal_root
        if old_wal is not None and old_wal is not self._wal:
            old_wal.close()
        # Retire (don't close) the superseded heap: concurrent readers
        # that resolved ``self.heap`` just before the transplant may
        # still be mid-gather on it (the old trees are plain arrays and
        # live as long as a reader holds them).  One retired generation
        # is kept live — the same window the on-disk pruning grants —
        # and closed at the *next* swap (or at close()).
        self._close_retired()
        self._retired = old_heap

    def _close_retired(self) -> None:
        retired, self._retired = getattr(self, "_retired", None), None
        if retired is not None:
            retired.close()

    # -- construction (Algo. 1) -------------------------------------------

    #: The benchmark tracer resolves ``HDIndex.build`` in this class's
    #: dict; it is the base class's one build entry.
    build = KNNIndex.build

    #: Rows per block of the build's second pass: one read of the array or
    #: the heap gives a block's reference distances and, by one Hilbert
    #: encode (one transform of its τ partitions, bit planes of one
    #: tree's block), its τ keys.  Besides that block a build holds the
    #: float32 reference distances and the τ key columns, τ·n·key_bytes.
    STREAM_CHUNK_ROWS = 8192

    def build_from_chunks(self, chunks) -> None:
        """Construct the index from a stream of ``(rows, ν)`` blocks.

        The out-of-core counterpart of :meth:`build` for datasets that do
        not fit in RAM (e.g. a generator of h5py dataset slices), through
        the same block pipeline: every block is checked and appended to
        the descriptor heap in storage dtype as it arrives, reference
        objects are drawn by reservoir sampling over the stream, and one
        re-read of the heap, block by block, gives the reference
        distances and the Hilbert keys of all τ trees.  Peak memory is
        O(n·(m + τ·key_bytes)), as for an array build, but the dataset
        is never held: the heap is its only full copy.

        Restrictions: ``params.reference_method`` must be ``"random"``
        (SSS needs the full dataset), and per-point metadata is not
        supported — build from an array when filtered queries are
        needed.

        >>> import numpy as np
        >>> from repro import HDIndex, HDIndexParams
        >>> data = np.repeat(np.arange(32.0)[:, None], 4, axis=1)
        >>> index = HDIndex(HDIndexParams(
        ...     num_trees=2, hilbert_order=4, num_references=4, alpha=8,
        ...     reference_method="random", seed=0))
        >>> index.build_from_chunks(data[start:start + 16]
        ...                         for start in (0, 16))
        >>> ids, dists = index.query(data[21], k=1)
        >>> int(ids[0]), float(dists[0])
        (21, 0.0)

        Raises:
            ValueError: If the stream is empty, blocks disagree on
                dimensionality, a block holds a NaN or infinite value,
                the metric's normalisation contract is violated, the
                configuration cannot stream, or :meth:`_start_build`
                refuses.
        """
        self._timed_build(self._build, iter(chunks))

    def _build(self, data, metadata=None) -> int:
        """Algo. 1 over row blocks, from nothing (:meth:`_start_build`);
        returns the build's peak bytes.

        ``data`` is :meth:`build`'s checked ``(n, ν)`` array, taken as one
        block, or :meth:`build_from_chunks`' iterator of blocks.  Each
        block is checked (unit rows under ``metric="angular"``) before
        anything is written for it, then appended to the heap in
        ``params.storage_dtype``.  The quantiser's domain (the blocks'
        min/max unless ``params.domain`` is set) and the references
        (Algo. 1 lines 1-2: chosen over the array, or the stream's
        reservoir sample) follow.  One second pass, ``STREAM_CHUNK_ROWS``
        rows at a time over the array or the heap, fills the float32
        reference distances and, by one :func:`encode_for_curves` per
        block, the τ key columns each partition's RDB-tree is bulk loaded
        from (lines 3-10).  ``metadata`` (one dict per point, or a
        :class:`~repro.meta.MetadataStore`) enables filtered queries and
        must align with the array; ``num_references`` may not exceed n.
        """
        params = self.params
        array = data if isinstance(data, np.ndarray) else None
        if array is None and params.reference_method != "random":
            raise ValueError(
                f"streaming build supports reference_method='random' "
                f"only (got {params.reference_method!r}): SSS selection "
                f"needs the full dataset in memory")
        rng = np.random.default_rng(params.seed)
        num_references = params.num_references
        n, low, high = 0, np.inf, -np.inf
        for block in data if array is None else [array]:
            if array is None:
                block = np.asarray(block, dtype=np.float64)
                if block.ndim != 2:
                    raise ValueError(
                        f"stream blocks must be 2-D, got shape {block.shape}")
                if not len(block):
                    continue
                if n and block.shape[1] != self.dim:
                    raise ValueError(
                        f"stream block has dimensionality {block.shape[1]}, "
                        f"expected {self.dim}")
                require_finite(block)
            if params.metric == "angular":
                require_normalized(block, "data")
            if not n:
                dim = block.shape[1]
                metadata = self._coerce_metadata(metadata, len(block))
                self._start_build(dim)
                self.metadata, self.dim = metadata, dim
                reservoir = np.empty((num_references, dim))
                reservoir_ids = np.empty(num_references, dtype=np.int64)
            self.heap.append_batch(block)
            if params.domain is None:
                low = min(low, float(block.min()))
                high = max(high, float(block.max()))
            if array is None:
                self._reservoir_update(reservoir, reservoir_ids, block, n,
                                       rng)
            n += len(block)
        if not n:
            raise ValueError("cannot build an index over an empty dataset")
        if num_references > n:
            raise ValueError(
                f"num_references={num_references} exceeds the dataset's "
                f"{n} rows")
        self.count = n

        if array is None:
            # Ordered by original id, so a re-run over the same stream and
            # seed reproduces the reservoir's set exactly.
            order = np.argsort(reservoir_ids)
            self.references = ReferenceSet(reservoir[order],
                                           reservoir_ids[order])
        else:
            self.references = ReferenceSet.select(
                array, num_references, params.reference_method, rng,
                params.sss_fraction)
        # One quantiser shared by all partitions (Table 4 domains are
        # global per dataset).
        self.quantizer = (
            GridQuantizer(*params.domain, params.hilbert_order)
            if params.domain is not None
            else GridQuantizer.from_data([low, high], params.hilbert_order))
        self.partitions = make_partition(
            self.dim, params.num_trees, params.partition_scheme, rng)
        curves = [HilbertCurve(len(part), params.hilbert_order)
                  for part in self.partitions]
        keys = [np.empty((n, curve.key_bytes), dtype=np.uint8)
                for curve in curves]
        reference_distances = np.empty((n, num_references), dtype=np.float32)
        step = max(1, int(self.STREAM_CHUNK_ROWS))
        for start in range(0, n, step):
            rows = (array[start:start + step] if array is not None else
                    self.heap.gather(np.arange(start, min(start + step, n))))
            reference_distances[start:start + step] = \
                self.references.distances_from(rows)
            coords = self.quantizer.quantize(rows)
            for column, raw in zip(keys, encode_for_curves(
                    curves, [coords[:, part] for part in self.partitions])):
                column[start:start + step] = raw
        peak_memory = (reference_distances.nbytes
                       + self.references.memory_bytes()
                       + sum(column.nbytes for column in keys)
                       + min(step, n) * self.dim
                       * self.quantizer.dtype.itemsize)
        self.trees = []
        object_ids = np.arange(n, dtype=np.int64)
        for tree_index, curve in enumerate(curves):
            tree = RDBTree(curve, num_references, page_size=params.page_size)
            # Hand the column over: it is freed once its tree is sorted.
            column, keys[tree_index] = keys[tree_index], None
            tree.bulk_build(column, object_ids, reference_distances)
            if params.resolved_backend != "memory":
                # Disk-resident: serve the columns from their file's
                # mapping, so a build holds one tree's sorted columns.
                path = os.path.join(params.storage_dir,
                                    f"tree_{tree_index}.packed")
                tree.write(path)
                tree.read(path, mapped=True)
            self.trees.append(tree)
        self._delta = self._empty_delta()
        return peak_memory

    @staticmethod
    def _reservoir_update(reservoir: np.ndarray, reservoir_ids: np.ndarray,
                          chunk: np.ndarray, seen: int,
                          rng: np.random.Generator) -> None:
        """Algorithm-R reservoir sampling over one stream block after
        ``seen`` rows.  The per-row draws are vectorised; only accepted
        rows (O(m log n) over the whole stream) are written back."""
        size = reservoir.shape[0]
        rows = chunk.shape[0]
        # Rows that land while the reservoir is still filling.
        fill = min(max(size - seen, 0), rows)
        if fill:
            reservoir[seen:seen + fill] = chunk[:fill]
            reservoir_ids[seen:seen + fill] = np.arange(seen, seen + fill)
        if fill < rows:
            positions = np.arange(seen + fill, seen + rows)
            draws = (rng.random(positions.shape[0])
                     * (positions + 1)).astype(np.int64)
            accepted = np.nonzero(draws < size)[0]
            for offset in accepted:
                slot = int(draws[offset])
                row = fill + int(offset)
                reservoir[slot] = chunk[row]
                reservoir_ids[slot] = seen + row

    def _search_batch(self, points: np.ndarray, k: int,
                      **overrides) -> tuple:
        """Algo. 2 over checked query rows, in the shared
        :class:`~repro.core.engine.QueryEngine` (one reference-distance
        matmul, one Hilbert-encoding pass per tree and one descriptor
        fetch per distinct candidate for the whole batch).

        The ``alpha`` / ``beta`` / ``gamma`` / ``use_ptolemaic``
        overrides replace the :class:`HDIndexParams` fields for this
        call only (the parameter sweeps of Sec. 5.2).  ``predicate`` (a
        :class:`~repro.meta.Predicate` or its JSON dict form) restricts
        answers to metadata-matching points via pushdown — the trees
        offer eligible points only, so the others are never bounded or
        gathered; it requires the index to have been built with
        ``metadata``.  One ``predicate`` applies to every row.
        """
        return self._engine.run_batch(points, k, **overrides)

    #: The benchmark tracer resolves ``HDIndex.query_batch`` in this
    #: class's dict; it is the base class's one batch entry.
    query_batch = KNNIndex.query_batch

    # -- updates (Sec. 3.6) ----------------------------------------------

    def insert(self, vector: np.ndarray, metadata=None) -> int:
        """Insert a new object; the reference set is kept as-is (Sec. 3.6).

        It lands in the delta segment — reranked exactly by every later
        query — after one log frame when a log is attached; the trees
        and heap absorb it at the next fold.

        Args:
            vector: ``(ν,)`` descriptor to add (unit-normalised when
                ``params.metric="angular"``).
            metadata: Per-point attribute dict — required iff the index
                was built with metadata (same columns, same kinds).

        Returns:
            The new object's id (ids stay dense and persist across
            folds and save/load).

        Raises:
            ValueError: If the vector's dimensionality does not match,
                it holds a NaN or infinite value, or ``metadata``
                disagrees with the build-time columns.
            TypeError: If a metadata value is not of its column's kind.
            RuntimeError: If called before :meth:`build`.
        """
        self._require_built()
        vector, metadata = self._validate_insert(vector, metadata)
        log = open_log(self)
        with self._update_lock:
            if log is not None:
                log.append_insert(self._delta.next_id, vector,
                                  metadata=metadata)
            object_id = self._delta_insert(vector, metadata)
        self._bump_update_epoch()
        return object_id

    def _validate_insert(self, vector, metadata
                         ) -> tuple[np.ndarray, dict | None]:
        """Everything that can reject an insert, run before its log
        frame is written: a record that passes here must fold."""
        vector = np.asarray(vector, dtype=np.float64).ravel()
        if vector.shape[0] != self.dim:
            raise ValueError(
                f"vector has dimension {vector.shape[0]}, expected {self.dim}")
        require_finite(vector, "vector")
        if self.params.metric == "angular":
            require_normalized(vector[None, :], "vector")
        if self.metadata is None:
            if metadata is not None:
                raise ValueError(
                    "insert() got metadata but the index was built "
                    "without it; rebuild with metadata= to enable "
                    "filtered queries")
        elif metadata is None:
            raise ValueError(
                "this index carries metadata; insert() requires a "
                f"metadata dict with columns "
                f"{', '.join(sorted(self.metadata.names))}")
        else:
            metadata = self.metadata.validate_row(metadata)
        return vector, metadata

    def delete(self, object_id: int) -> None:
        """Mark an object deleted; it is never returned again (Sec. 3.6).

        Args:
            object_id: Id previously returned by :meth:`build` ordering
                or :meth:`insert`.

        Raises:
            ValueError: If the id was never allocated.
            RuntimeError: If called before :meth:`build`.
        """
        self._require_built()
        if not 0 <= object_id < self.count:
            raise ValueError(f"unknown object id {object_id}")
        log = open_log(self)
        with self._update_lock:
            if log is not None:
                log.append_delete(int(object_id))
            self._deleted.add(int(object_id))
        self._bump_update_epoch()

    # -- accounting ----------------------------------------------------

    def index_size_bytes(self) -> int:
        """On-disk bytes of the τ RDB-trees (descriptor heap excluded — it
        is the database itself, shared by all methods)."""
        return sum(tree.size_bytes() for tree in self.trees)

    def total_size_bytes(self) -> int:
        """Index plus descriptor heap."""
        size = self.index_size_bytes()
        if self.heap is not None:
            size += self.heap.size_bytes()
        return size

    def memory_bytes(self) -> int:
        """Query-time RAM: reference set + decoded id and id -> position
        columns + held eligible sets + row block."""
        if self.references is None:
            return 0
        total = self.references.memory_bytes()
        if self.metadata is not None:
            total += self._eligible.nbytes(self)
        total += sum(tree.memory_bytes() for tree in self.trees)
        # A query's (τ, α) candidate block: ids + m float64 distances each.
        total += len(self.trees) * self.params.alpha * (
            8 + 8 * self.params.num_references)
        return total

    def io_snapshot(self) -> dict[str, int]:
        """Combined I/O counters across trees and the descriptor heap
        (``{}`` before a build)."""
        accountants = self._accountants()
        return sum(accountants, IOStats()).snapshot() if accountants else {}

    def _accountants(self) -> list[IOStats]:
        heap = [] if self.heap is None else [self.heap.stats]
        return [tree.stats for tree in self.trees] + heap

    # -- internals --------------------------------------------------------

    def _coerce_metadata(self, metadata, n: int) -> MetadataStore | None:
        """Normalise build-time metadata to an aligned store (or None)."""
        if metadata is None:
            return None
        if not isinstance(metadata, MetadataStore):
            metadata = MetadataStore.from_rows(metadata)
        if metadata.count != n:
            raise ValueError(
                f"metadata has {metadata.count} rows for {n} data points")
        return metadata

    def _coerce_query_predicate(self, predicate):
        """Validate and normalise a query-time predicate (object or dict
        wire form) against this index's metadata store."""
        predicate = coerce_predicate(predicate)
        if predicate is None:
            return None
        if self.metadata is None:
            raise ValueError(
                "filtered query on an index without metadata; pass "
                "metadata= to build()")
        self.metadata.check_columns(predicate.columns())
        for column, value in predicate.constants():
            self.metadata.coerce(column, value)  # typed, before any hash
        return predicate

    def _eligibility(self, predicate) -> EligibleSet | None:
        """The base objects the predicate admits (what the trees take
        their α candidates among), their selectivity (the eligible
        fraction reported as ``extra["selectivity"]``) and each tree's
        positions of them: taken once per predicate and base generation
        (:class:`EligibleMemo`), so a recurring predicate pays no mask."""
        return None if predicate is None else \
            self._eligible.lookup(self, predicate)

    def _start_build(self, dim: int) -> VectorHeapFile:
        """Where both builds start, before they write any file: refuse
        ``num_trees > ν`` and a ``storage_dir`` holding a write-ahead-log
        layout or this index's files (a reader, a worker pool or the log
        may still read them), forget the earlier build's deleted ids and
        generation (the build ends on an empty delta), close
        its heap, bump :attr:`update_epoch`, and return the new empty
        heap: in memory, or ``descriptors.pages`` in ``storage_dir``."""
        params, directory = self.params, self.params.storage_dir
        if params.num_trees > dim:
            raise ValueError(
                f"num_trees={params.num_trees} exceeds dimensionality {dim}")
        if directory is not None and (
                self.heap is not None or has_wal_layout(directory)):
            raise ValueError(
                f"{directory} holds a built index's files; build a new "
                f"index into an empty directory with repro.build")
        if self.heap is not None:
            self.heap.close()
        self._deleted, self.generation = set(), 0
        self._bump_update_epoch()
        path = None
        if params.resolved_backend != "memory":
            os.makedirs(directory, exist_ok=True)
            path = os.path.join(directory, "descriptors.pages")
            if os.path.exists(path):
                os.remove(path)  # unlinked, not truncated: it may be mapped
        self.heap = VectorHeapFile(dim, params.storage_dtype,
                                   params.page_size, path=path)
        return self.heap

    def close(self) -> None:
        """Release the log handle and the descriptor heap's pages.
        Idempotent."""
        if self._wal is not None:
            self._wal.close()
        self._close_retired()
        if self.heap is not None:
            self.heap.close()
