"""Shard routing — the paper's "distributed" extension (Sec. 5.2.8).

The paper observes HD-Index "can be easily parallelized and/or distributed
with little synchronization steps".  :class:`ShardRouter` implements the
distributed half at the library level: the dataset is split into
``shards`` horizontal shards, each indexed by an independent
:class:`~repro.core.hdindex.HDIndex` (in a real deployment, one per
machine).  A query fans out to every shard and the per-shard top-k lists
are merged by exact distance — the only synchronisation point, exactly as
the paper predicts.

A router answers in-process like a plain index; its persisted snapshot
(a manifest plus one ``shard_<s>/`` snapshot per shard) is served over
worker processes by ``QueryService(..., execution="process")``, each
worker holding a whole router.

Updates (Sec. 3.6) belong to the shard that owns the id: ``insert`` /
``delete`` land in that shard's delta segment, volatile until
:meth:`ShardRouter.compact` (or ``save_index``) folds every shard in
place.  A sharded deployment keeps no write-ahead log; giving it one
raises ``ValueError``.

Object ids are global: shard s owns the contiguous id range
``[offsets[s], offsets[s+1])``, so results are directly comparable to the
unsharded index over the same data.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.core.hdindex import HDIndex
from repro.core.interface import BuildStats, KNNIndex, QueryStats
from repro.core.params import HDIndexParams
from repro.core.spec import IndexSpec
from repro.distance.metrics import require_finite
from repro.meta import MetadataStore


def refuse_log(wal: bool | None) -> None:
    """Raise when a sharded deployment is asked for a write-ahead log
    (``IndexSpec(wal=True)``, ``repro.open(..., wal=True)``)."""
    if wal:
        raise ValueError(
            "a sharded deployment keeps no write-ahead log: its updates "
            "are volatile until compact() or save_index "
            "(docs/MIGRATION.md)")


class ShardRouter(KNNIndex):
    """Horizontal sharding over independent HD-Index instances.

    Parameters
    ----------
    params:
        Per-shard HD-Index parameters (shared by all shards; seeds are
        derived per shard so reference sets differ, as they would across
        machines).
    shards:
        Number of horizontal partitions (``>= 1``).
    wal:
        The log policy recorded in the manifest: ``None`` or ``False``;
        ``True`` is refused (:func:`refuse_log`).
    """

    name = "HD-Index(sharded)"

    def __init__(self, params: HDIndexParams | None = None,
                 shards: int = 2, wal: bool | None = None) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        refuse_log(wal)
        self.params = params if params is not None else HDIndexParams()
        self.wal = wal
        self.num_shards = shards
        self.shards: list[HDIndex] = []
        self.offsets: np.ndarray | None = None
        self.count = 0
        self._build_stats = BuildStats()
        self._query_stats = QueryStats()
        # Recorded in the manifest; a fold in place never moves it.
        self.generation = 0

    @property
    def spec(self) -> IndexSpec:
        """The declarative spec describing this router's configuration."""
        return IndexSpec(params=self.params, shards=self.num_shards,
                         wal=self.wal)

    # -- child construction ------------------------------------------------

    def _shard_params(self, shard_index: int) -> HDIndexParams:
        """Per-shard params: derived seed and ``shard_<s>/`` storage
        subdirectory."""
        storage_dir = self.params.storage_dir
        return dataclasses.replace(
            self.params, seed=self.params.seed + shard_index,
            storage_dir=(None if storage_dir is None
                         else f"{storage_dir}/shard_{shard_index}"))

    def _make_shard(self, shard_index: int) -> HDIndex:
        shard = HDIndex(self._shard_params(shard_index))
        shard.wal = False  # a shard never attaches a log of its own
        return shard

    # -- construction ------------------------------------------------------

    def build(self, data: np.ndarray, metadata=None) -> None:
        started = time.perf_counter()
        data = np.asarray(data, dtype=np.float64)
        require_finite(data)
        n = data.shape[0]
        if n < self.num_shards:
            raise ValueError(
                f"cannot split {n} points into {self.num_shards} shards")
        if metadata is not None and not isinstance(metadata, MetadataStore):
            metadata = MetadataStore.from_rows(metadata)
        if metadata is not None and metadata.count != n:
            raise ValueError(
                f"metadata has {metadata.count} rows for {n} data points")
        self.count = n
        boundaries = np.linspace(0, n, self.num_shards + 1).astype(np.int64)
        self.offsets = boundaries
        self.shards = []
        # Local-to-global id maps; grown on insert so later inserts get
        # fresh global ids without colliding with other shards' ranges.
        self._id_maps: list[list[int]] = []
        # Array views of _id_maps for vectorised lookups, rebuilt lazily
        # after inserts.
        self._id_arrays: list[np.ndarray | None] = [None] * self.num_shards
        for shard_index in range(self.num_shards):
            shard = self._make_shard(shard_index)
            low = int(boundaries[shard_index])
            high = int(boundaries[shard_index + 1])
            shard.build(data[low:high],
                        metadata=(None if metadata is None
                                  else metadata.slice(low, high)))
            self.shards.append(shard)
            self._id_maps.append(list(range(
                int(boundaries[shard_index]),
                int(boundaries[shard_index + 1]))))
        self._build_stats = BuildStats(
            time_sec=time.perf_counter() - started,
            page_writes=sum(s.build_stats().page_writes
                            for s in self.shards),
            # Peak, not sum: shards build one at a time here (and on
            # separate machines in a deployment).
            peak_memory_bytes=max(s.build_memory_bytes()
                                  for s in self.shards),
        )

    # -- online updates (Sec. 3.6) ----------------------------------------

    def _fold_delta(self) -> None:
        for shard in self.shards:
            shard._fold_delta()

    def compact(self) -> int:
        """Fold every shard's delta into its base in place
        (:func:`repro.core.persistence.fold_in_place`: a persisted
        router re-saves its shards and manifest).

        Returns:
            The manifest's generation, which a fold never moves.
        """
        self._require_built()
        from repro.core.persistence import fold_in_place
        return fold_in_place(self)

    def query(self, point: np.ndarray, k: int,
              alpha: int | None = None, beta: int | None = None,
              gamma: int | None = None,
              use_ptolemaic: bool | None = None,
              predicate=None) -> tuple[np.ndarray, np.ndarray]:
        """Fan the query out to every shard and merge by exact distance:
        :meth:`query_batch` at Q = 1 with the -1 / +inf padding stripped
        and no ``extra["batch_size"]`` in the stats.

        The per-call parameter overrides (and ``predicate``) are
        forwarded to every shard, so α/β/γ sweeps and filtered queries
        behave exactly as on the unsharded index.
        """
        point = np.asarray(point, dtype=np.float64).ravel()
        ids, dists = self.query_batch(
            point[None, :], k, alpha=alpha, beta=beta, gamma=gamma,
            use_ptolemaic=use_ptolemaic, predicate=predicate)
        del self._query_stats.extra["batch_size"]
        found = ids[0] >= 0
        return ids[0][found], dists[0][found]

    def query_batch(self, points: np.ndarray, k: int,
                    alpha: int | None = None, beta: int | None = None,
                    gamma: int | None = None,
                    use_ptolemaic: bool | None = None,
                    predicate=None) -> tuple[np.ndarray, np.ndarray]:
        """Batch querying: each shard answers the whole batch through its
        vectorised :meth:`HDIndex.query_batch`, then the per-shard (Q, k)
        blocks are merged by exact distance per query."""
        self._require_built()
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        started = time.perf_counter()
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points[None, :]
        batch = points.shape[0]
        shard_stats: list[QueryStats] = []
        shard_ids: list[np.ndarray] = []
        shard_dists: list[np.ndarray] = []
        for shard_index, shard in enumerate(self.shards):
            ids, dists = shard.query_batch(
                points, k, alpha=alpha, beta=beta, gamma=gamma,
                use_ptolemaic=use_ptolemaic, predicate=predicate)
            shard_stats.append(shard.last_query_stats())
            # Map local ids to global ids; -1 padding stays -1.
            id_map = self._id_array(shard_index)
            valid = ids >= 0
            global_ids = np.full_like(ids, -1)
            global_ids[valid] = id_map[ids[valid]]
            shard_ids.append(global_ids)
            shard_dists.append(dists)
        # (Q, shards*k) candidate pools; padded entries rank last (+inf).
        pool_ids = np.concatenate(shard_ids, axis=1)
        pool_dists = np.concatenate(shard_dists, axis=1)
        ids_out = np.full((batch, k), -1, dtype=np.int64)
        dists_out = np.full((batch, k), np.inf, dtype=np.float64)
        for row in range(batch):
            order = np.lexsort((pool_ids[row], pool_dists[row]))[:k]
            keep = pool_ids[row][order] >= 0
            ids_out[row, :keep.sum()] = pool_ids[row][order][keep]
            dists_out[row, :keep.sum()] = pool_dists[row][order][keep]
        # Sum the per-shard counters (each shard is one machine; the
        # merge adds no I/O).
        self._query_stats = QueryStats(
            time_sec=time.perf_counter() - started,
            page_reads=sum(s.page_reads for s in shard_stats),
            random_reads=sum(s.random_reads for s in shard_stats),
            sequential_reads=sum(s.sequential_reads for s in shard_stats),
            candidates=sum(s.candidates for s in shard_stats),
            distance_computations=sum(s.distance_computations
                                      for s in shard_stats),
            extra={"shards": self.num_shards, "batch_size": batch},
        )
        return ids_out, dists_out

    def insert(self, vector: np.ndarray, metadata=None) -> int:
        """Route the insert to the least-loaded shard; return a global id.

        The write lands in that shard's delta segment, volatile until
        :meth:`compact`.  No snapshot is rewritten.
        """
        self._require_built()
        target = int(np.argmin([shard.count for shard in self.shards]))
        shard = self.shards[target]
        vector, metadata = shard._validate_insert(vector, metadata)
        global_id = self.count
        with shard._update_lock:
            shard._delta_insert(vector, metadata)
        self._id_maps[target].append(global_id)
        self._id_arrays[target] = None
        self.count += 1
        self._bump_update_epoch()
        return global_id

    def _id_array(self, shard_index: int) -> np.ndarray:
        cached = self._id_arrays[shard_index]
        if cached is None:
            cached = np.asarray(self._id_maps[shard_index], dtype=np.int64)
            self._id_arrays[shard_index] = cached
        return cached

    def delete(self, object_id: int) -> None:
        """Delete a *global* id by routing it to the owning shard
        (Sec. 3.6 update path, distributed)."""
        self._require_built()
        shard_index, local_id = self._locate(int(object_id))
        shard = self.shards[shard_index]
        with shard._update_lock:
            shard._deleted.add(int(local_id))
        self._bump_update_epoch()

    def _require_built(self) -> None:
        if not self.shards:
            raise RuntimeError("index has not been built; call build() first")

    def _locate(self, object_id: int) -> tuple[int, int]:
        """Resolve a global id to (shard index, shard-local id).

        Build-time ids live in the contiguous ranges recorded in
        ``offsets``; ids handed out by :meth:`insert` are found in the
        grown tails of ``_id_maps``.
        """
        base = int(self.offsets[-1])
        if 0 <= object_id < base:
            shard_index = int(np.searchsorted(
                self.offsets, object_id, side="right")) - 1
            return shard_index, object_id - int(self.offsets[shard_index])
        for shard_index, id_map in enumerate(self._id_maps):
            built = int(self.offsets[shard_index + 1]
                        - self.offsets[shard_index])
            for local in range(built, len(id_map)):
                if id_map[local] == object_id:
                    return shard_index, local
        raise ValueError(f"unknown object id {object_id}")

    # -- accounting -----------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimensionality ν of the indexed vectors (0 before build)."""
        return self.shards[0].dim if self.shards else 0

    def index_size_bytes(self) -> int:
        return sum(shard.index_size_bytes() for shard in self.shards)

    def total_size_bytes(self) -> int:
        """Index plus descriptor heaps, summed over all shards."""
        return sum(shard.total_size_bytes() for shard in self.shards)

    def memory_bytes(self) -> int:
        # Each machine holds one shard's reference set; report the max.
        if not self.shards:
            return 0
        return max(shard.memory_bytes() for shard in self.shards)

    def build_memory_bytes(self) -> int:
        return self._build_stats.peak_memory_bytes

    def last_query_stats(self) -> QueryStats:
        return self._query_stats

    def build_stats(self) -> BuildStats:
        return self._build_stats

    def close(self) -> None:
        for shard in self.shards:
            shard.close()
