"""Factory entry points: one declarative spec in, one ready index out.

The two functions here are the public face of the
:class:`~repro.core.spec.IndexSpec` redesign:

* :func:`build` — construct (and optionally persist) the index a spec
  describes over a dataset;
* :func:`open_index` (exported as ``repro.open``) — reconstruct an index
  from a snapshot directory, honouring the spec recorded inside it, with
  per-call overrides for the storage backend and execution strategy.

Both delegate to :func:`create_index`, the single place a spec is turned
into objects — a plain :class:`~repro.core.hdindex.HDIndex` whose
executor realises ``spec.execution``, or a
:class:`~repro.core.router.ShardRouter` when ``spec.topology`` shards the
data — so every topology x execution x backend combination flows through
one code path instead of a class matrix.

>>> import numpy as np, tempfile
>>> from repro.core.factory import build, open_index
>>> from repro.core.spec import Execution, IndexSpec, Topology
>>> from repro.core.params import HDIndexParams
>>> data = np.repeat(np.arange(32.0)[:, None], 4, axis=1)
>>> spec = IndexSpec(params=HDIndexParams(num_trees=2, hilbert_order=4,
...                                       num_references=4, alpha=8),
...                  topology=Topology(shards=2))
>>> with tempfile.TemporaryDirectory() as tmp:
...     index = build(spec, data, storage_dir=tmp)
...     ids, _ = index.query(data[5], k=1)
...     index.close()
...     with open_index(tmp) as reopened:
...         same = int(reopened.query(data[5], k=1)[0][0]) == int(ids[0])
>>> same
True
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.hdindex import HDIndex
from repro.core.router import ShardRouter
from repro.core.spec import (
    Execution,
    IndexSpec,
    coerce_spec,
    make_executor,
)


def create_index(spec: IndexSpec | None = None,
                 storage_dir: str | os.PathLike[str] | None = None
                 ) -> HDIndex | ShardRouter:
    """Instantiate (but do not build) the index a spec describes.

    Args:
        spec: An :class:`~repro.core.spec.IndexSpec`, bare
            :class:`~repro.core.params.HDIndexParams`, spec dict, or
            ``None`` for all defaults.
        storage_dir: Overrides ``spec.params.storage_dir`` — the page
            files (and, for process execution, the bootstrap snapshot)
            live here.

    Returns:
        An unbuilt :class:`~repro.core.hdindex.HDIndex` (plain topology)
        or :class:`~repro.core.router.ShardRouter` (sharded topology)
        whose executor(s) realise ``spec.execution``.
    """
    spec = coerce_spec(spec)
    params = spec.resolved_params(
        None if storage_dir is None else os.fspath(storage_dir))
    if spec.execution.wal is True and params.storage_dir is None:
        raise ValueError(
            "Execution(wal=True) requires a disk-backed index "
            "(storage_dir=...): the write-ahead log lives next to the "
            "snapshot")
    if spec.topology.shards > 1 or spec.topology.shard_backends is not None:
        return ShardRouter(params, spec.topology, spec.execution)
    index = HDIndex(params)
    index._wal_policy = spec.execution.wal
    index.set_executor(make_executor(spec.execution, index))
    return index


def build(spec: IndexSpec | None, data,
          storage_dir: str | os.PathLike[str] | None = None,
          metadata=None) -> HDIndex | ShardRouter:
    """Build the index a spec describes over ``data``.

    Args:
        spec: An :class:`~repro.core.spec.IndexSpec`, bare
            :class:`~repro.core.params.HDIndexParams`, spec dict, or
            ``None`` for all defaults.
        data: ``(n, ν)`` dataset to index, or an *iterator* of
            ``(rows, ν)`` blocks (e.g.
            :func:`repro.datasets.iter_hdf5_chunks`) for an out-of-core
            streaming build — see
            :meth:`~repro.core.hdindex.HDIndex.build_from_chunks` for
            the streaming path's restrictions.
        storage_dir: When given, the built index is persisted there (its
            full spec recorded in the snapshot metadata, so
            :func:`open_index` reconstructs the same deployment); with
            the ``"mmap"`` backend the heap and tree files are written
            straight into the directory during construction, so
            persisting adds only a metadata write.
        metadata: Optional per-point attributes enabling filtered
            queries: one dict per point or a prepared
            :class:`~repro.meta.MetadataStore`.  Not supported with
            streaming ``data``.

    Returns:
        The built (and, with ``storage_dir``, persisted) index.
    """
    index = create_index(spec, storage_dir=storage_dir)
    if hasattr(data, "__next__"):  # an iterator: the streaming path
        if metadata is not None:
            raise ValueError(
                "metadata is not supported with a streaming build: "
                "per-point attributes need the row count up front "
                "(materialise the data or attach metadata at insert time)")
        if isinstance(index, ShardRouter):
            raise ValueError(
                "streaming build is not supported with a sharded "
                "topology: shard assignment needs the total row count "
                "up front")
        index.build_from_chunks(data)
    else:
        index.build(data, metadata=metadata)
    if storage_dir is not None and not _already_persisted(index,
                                                          storage_dir):
        from repro.core.persistence import save_index
        save_index(index, storage_dir)
    return index


def _already_persisted(index: HDIndex | ShardRouter,
                       storage_dir: str | os.PathLike[str]) -> bool:
    """True when build() itself persisted a complete snapshot at
    ``storage_dir`` (process-execution indexes auto-persist so their
    workers can bootstrap) — re-saving would only rewrite identical
    metadata and reference arrays."""
    target = os.path.abspath(os.fspath(storage_dir))
    if isinstance(index, ShardRouter):
        return (index._remote
                and index.params.storage_dir is not None
                and os.path.abspath(index.params.storage_dir) == target)
    return (index._remote
            and index.snapshot_dir is not None
            and os.path.abspath(index.snapshot_dir) == target)


def open_index(path: str | os.PathLike[str],
               backend: str | None = None,
               cache_pages: int | None = None,
               execution: Execution | str | None = None,
               wal: bool | None = None
               ) -> HDIndex | ShardRouter:
    """Reopen a persisted index, honouring the spec recorded in its
    snapshot — no kind-dispatch special cases.

    Args:
        path: Snapshot directory written by :func:`build` /
            :func:`repro.core.save_index` (pre-spec snapshots from
            earlier releases open too; their legacy ``kind`` tag is
            mapped to the equivalent spec).
        backend: How the snapshot files are reopened: ``"mmap"``
            (mapped, O(metadata) cold start; what ``None`` means) or
            ``"memory"`` (read into RAM).
        cache_pages: Overrides the buffer-pool capacity recorded at save
            time.
        execution: Overrides the snapshot's execution strategy — an
            :class:`~repro.core.spec.Execution` or a bare kind string
            (``"sequential"``/``"thread"``/``"process"``).  This is how a
            snapshot built sequentially is served process-parallel
            without rebuilding.
        wal: Durability override (:mod:`repro.wal`), as for
            :func:`~repro.core.persistence.load_index`: ``True`` attaches
            and replays the write-ahead log, ``False`` none (the
            read-only reader), ``None`` honours the snapshot's policy.

    Returns:
        A ready-to-query :class:`~repro.core.hdindex.HDIndex` or
        :class:`~repro.core.router.ShardRouter`.
    """
    from repro.core.persistence import load_index
    index = load_index(path, cache_pages=cache_pages, backend=backend,
                       wal=wal)
    if execution is not None:
        if isinstance(execution, str):
            execution = Execution(kind=execution)
        set_execution(index, execution)
        if execution.wal is not None and wal is None:
            from repro.wal.manager import attach_wal
            attach_wal(index, os.fspath(path), execution.wal)
    return index


def set_execution(index: HDIndex | ShardRouter,
                  execution: Execution) -> None:
    """Swap a live index's execution strategy in place.

    On a :class:`~repro.core.router.ShardRouter` the strategy applies to
    every child shard (each gets its own pool).  Process execution
    requires the index (or each shard) to be disk-backed, as always.
    """
    if isinstance(index, ShardRouter):
        # Validate every shard before mutating anything: a failure
        # mid-swap would leave the router claiming an execution its
        # shards do not run (and persist that lie into the manifest).
        if execution.kind == "process":
            for position, shard in enumerate(index.shards):
                if shard.params.storage_dir is None:
                    raise ValueError(
                        f"process execution requires disk-backed shards; "
                        f"shard {position} has no storage_dir (build the "
                        f"router with params.storage_dir=... first)")
        for shard in index.shards:
            shard.set_executor(make_executor(execution, shard))
        index.execution = execution
        return
    index.set_executor(make_executor(execution, index))
