"""Shard routing — the paper's "distributed" extension (Sec. 5.2.8).

The paper observes HD-Index "can be easily parallelized and/or distributed
with little synchronization steps".  :class:`ShardRouter` implements the
distributed half at the library level: the dataset is split into
``topology.shards`` horizontal shards, each indexed by an independent
:class:`~repro.core.hdindex.HDIndex` (in a real deployment, one per
machine).  A query fans out to every shard and the per-shard top-k lists
are merged by exact distance — the only synchronisation point, exactly as
the paper predicts.

Topology and execution are orthogonal axes of
:class:`~repro.core.spec.IndexSpec`, so the router composes with *any*
:class:`~repro.core.spec.Execution`: each child index gets its own
executor (sequential scans, a thread pool, or a process pool bootstrapping
from that shard's own ``shard_<s>/`` snapshot) — the sharded x process
combination the old class-per-combination design could not express.  A
:class:`~repro.core.spec.Topology` may also assign heterogeneous per-shard
storage backends (e.g. the hot shard in RAM, the cold tail mmap'd).

Object ids are global: shard s owns the contiguous id range
``[offsets[s], offsets[s+1])``, so results are directly comparable to the
unsharded index over the same data.
"""

from __future__ import annotations

import dataclasses
import os
import time

import numpy as np

from repro.core.hdindex import HDIndex
from repro.core.interface import BuildStats, KNNIndex, QueryStats
from repro.core.params import HDIndexParams
from repro.core.spec import Execution, IndexSpec, Topology, make_executor
from repro.distance.metrics import require_finite
from repro.meta import MetadataStore
from repro.wal.manager import compact_router, open_log, resolve_snapshot_dir


def placement_order(key: bytes, nodes: int, salt: bytes = b"") -> list[int]:
    """Rendezvous (highest-random-weight) preference order of ``nodes``
    placements for one routing key.

    The serve tier's :class:`~repro.serve.router.ReplicaRouter` routes
    each query by its byte content: ``placement_order(point.tobytes(),
    n)[0]`` is the query's home replica (stable across clients and
    processes, so repeated queries land on the same replica's LRU
    cache), and the rest of the list is the failover order.  Unlike
    :class:`ShardRouter`'s contiguous id ranges — where every shard
    holds *different* data and a query must visit all of them — replicas
    hold the *same* snapshot, so one placement answers and the others
    are spares.

    Removing a node only reassigns the keys that lived on it (the
    consistent-hashing property): every other key keeps its placement.

    >>> placement_order(b"query-bytes", 3) == placement_order(
    ...     b"query-bytes", 3)
    True
    >>> sorted(placement_order(b"q", 4))
    [0, 1, 2, 3]
    """
    import hashlib
    if nodes < 1:
        raise ValueError(f"nodes must be >= 1, got {nodes}")
    scores = []
    for node in range(nodes):
        digest = hashlib.blake2b(
            key, digest_size=8,
            key=salt + node.to_bytes(4, "big")).digest()
        scores.append((digest, node))
    scores.sort(reverse=True)
    return [node for _, node in scores]


class ShardRouter(KNNIndex):
    """Horizontal sharding over independent HD-Index instances.

    Parameters
    ----------
    params:
        Per-shard HD-Index parameters (shared by all shards; seeds are
        derived per shard so reference sets differ, as they would across
        machines).
    topology:
        A :class:`~repro.core.spec.Topology` (or a bare shard count).
    execution:
        The :class:`~repro.core.spec.Execution` every child index runs
        its per-tree scans with; ``None`` means sequential.
        ``kind="process"`` requires ``params.storage_dir`` — each shard's
        worker pool bootstraps from its own ``shard_<s>/`` snapshot.
    """

    name = "HD-Index(sharded)"

    def __init__(self, params: HDIndexParams | None = None,
                 topology: Topology | int | None = None,
                 execution: Execution | None = None) -> None:
        if topology is None:
            topology = Topology(shards=2)
        elif isinstance(topology, int):
            topology = Topology(shards=topology)
        self.params = params if params is not None else HDIndexParams()
        self.topology = topology
        self.execution = execution if execution is not None else Execution()
        if self._remote and self.params.storage_dir is None:
            raise ValueError(
                "sharded process execution requires "
                "HDIndexParams(storage_dir=...): each shard's worker pool "
                "bootstraps from its own shard_<s>/ snapshot")
        self.num_shards = topology.shards
        self.shards: list[HDIndex] = []
        self.offsets: np.ndarray | None = None
        self.count = 0
        self._build_stats = BuildStats()
        self._query_stats = QueryStats()
        # Online-update state (repro.wal): one router-level log whose
        # records carry the target shard; shards never log individually.
        self.generation = 0
        self._wal = None
        self._wal_policy: bool | None = self.execution.wal
        self._wal_root: str | None = None
        self._wal_fsync = "always"

    @property
    def spec(self) -> IndexSpec:
        """The declarative spec describing this router's configuration."""
        execution = self.execution
        if self._wal_policy != execution.wal:
            execution = dataclasses.replace(execution, wal=self._wal_policy)
        return IndexSpec(params=self.params, topology=self.topology,
                         execution=execution)

    # -- child construction ------------------------------------------------

    def _shard_params(self, shard_index: int) -> HDIndexParams:
        """Per-shard params: derived seed, ``shard_<s>/`` storage
        subdirectory, and the topology's per-shard backend override."""
        updates: dict = {"seed": self.params.seed + shard_index}
        if self.params.storage_dir is not None:
            updates["storage_dir"] = (
                f"{self.params.storage_dir}/shard_{shard_index}")
        else:
            updates["storage_dir"] = None
        if self.topology.shard_backends is not None:
            updates["backend"] = self.topology.shard_backends[shard_index]
        return dataclasses.replace(self.params, **updates)

    def _make_shard(self, shard_index: int) -> HDIndex:
        shard = HDIndex(self._shard_params(shard_index))
        # The router owns the write-ahead log; a shard must never
        # attach one of its own (process shards would).
        shard._wal_policy = False
        shard.set_executor(make_executor(self.execution, shard))
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
        if self._remote:
            # The shard snapshots are already on disk (each remote child
            # persists itself); write the manifest too so the whole
            # sharded snapshot is immediately reopenable.
            from repro.core.persistence import save_index
            save_index(self, self.params.storage_dir)

    # -- online updates (Sec. 3.6) ----------------------------------------

    @property
    def _remote(self) -> bool:
        return self.execution.kind == "process"

    def _fold_delta(self) -> None:
        for shard in self.shards:
            shard._fold_delta()

    def compact(self) -> int:
        """Fold every shard's delta into its base.

        With the write-ahead log attached: write new shard generations,
        publish the per-shard ``CURRENT`` pointers, atomically rewrite
        the manifest, truncate the log, and hot-swap the shards onto the
        new generations.  Without one:
        :func:`repro.core.persistence.fold_in_place`.

        Returns:
            The snapshot generation now live (unchanged without a log).
        """
        self._require_built()
        if open_log(self) is None:
            from repro.core.persistence import fold_in_place
            return fold_in_place(self)
        generation = compact_router(self)
        for shard_index, shard in enumerate(self.shards):
            shard_root = f"{self._wal_root}/shard_{shard_index}"
            if (os.path.abspath(resolve_snapshot_dir(shard_root))
                    != os.path.abspath(shard.params.storage_dir)):
                # This shard folded into a new generation: hot-swap onto
                # it (the shard keeps its executor; a process pool
                # re-binds without cancelling in-flight work).
                shard._wal_root = shard_root
                shard._adopt_current()
        return generation

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

        The write lands in that shard's delta segment, after one frame
        in the router's log when one is attached — the record carries
        the target shard (and the metadata dict, when the deployment is
        filtered).  No snapshot is rewritten and no worker pool restarts.
        """
        self._require_built()
        target = int(np.argmin([shard.count for shard in self.shards]))
        shard = self.shards[target]
        vector, metadata = shard._validate_insert(vector, metadata)
        global_id = self.count
        log = open_log(self)
        if log is not None:
            log.append_insert(global_id, vector, shard=target,
                              metadata=metadata)
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
        log = open_log(self)
        if log is not None:
            log.append_delete(int(object_id), shard=shard_index)
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
        if self._wal is not None:
            self._wal.close()
        for shard in self.shards:
            shard.close()
