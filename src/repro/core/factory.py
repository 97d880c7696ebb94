"""Factory entry points: one declarative spec in, one ready index out.

The two functions here are the public face of the
:class:`~repro.core.spec.IndexSpec` redesign:

* :func:`build` — construct (and optionally persist) the index a spec
  describes over a dataset;
* :func:`open_index` (exported as ``repro.open``) — reconstruct an index
  from a snapshot directory, honouring the spec recorded inside it, with
  per-call overrides for the storage backend and durability.

Both delegate to :func:`create_index`, the single place a spec is turned
into objects — a plain :class:`~repro.core.hdindex.HDIndex`, or a
:class:`~repro.core.router.ShardRouter` when ``spec.shards > 1`` — so
every shards x backend combination flows through one code path instead
of a class matrix.  Every index answers in-process; a
:class:`~repro.serve.QueryService` serves a snapshot over worker
processes.

>>> import numpy as np, tempfile
>>> from repro.core.factory import build, open_index
>>> from repro.core.spec import IndexSpec
>>> from repro.core.params import HDIndexParams
>>> data = np.repeat(np.arange(32.0)[:, None], 4, axis=1)
>>> spec = IndexSpec(params=HDIndexParams(num_trees=2, hilbert_order=4,
...                                       num_references=4, alpha=8),
...                  shards=2)
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

import dataclasses
import os

import numpy as np

from repro.core.hdindex import HDIndex
from repro.core.router import ShardRouter
from repro.core.spec import IndexSpec, coerce_spec


def create_index(spec: IndexSpec | None = None,
                 storage_dir: str | os.PathLike[str] | None = None
                 ) -> HDIndex | ShardRouter:
    """Instantiate (but do not build) the index a spec describes.

    Args:
        spec: An :class:`~repro.core.spec.IndexSpec`, bare
            :class:`~repro.core.params.HDIndexParams`, spec dict, or
            ``None`` for all defaults.
        storage_dir: Overrides ``spec.params.storage_dir`` — the page
            files live here.

    Returns:
        An unbuilt :class:`~repro.core.hdindex.HDIndex` (one shard) or
        :class:`~repro.core.router.ShardRouter` (``spec.shards > 1``)
        recording ``spec.wal``.

    Raises:
        ValueError: For ``wal=True`` without a ``storage_dir`` or with
            shards.
    """
    spec = coerce_spec(spec)
    params = spec.params
    if storage_dir is not None:
        params = dataclasses.replace(params,
                                     storage_dir=os.fspath(storage_dir))
    if spec.shards > 1:
        return ShardRouter(params, spec.shards, spec.wal)
    if spec.wal is True and params.storage_dir is None:
        raise ValueError(
            "wal=True requires a disk-backed index (storage_dir=...): "
            "the write-ahead log lives next to the snapshot")
    index = HDIndex(params)
    index.wal = spec.wal
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
            ``(rows, ν)`` blocks (e.g. slices of an h5py dataset) for an
            out-of-core streaming build — see
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
    if storage_dir is not None:
        from repro.core.persistence import save_index
        save_index(index, storage_dir)
    return index


def open_index(path: str | os.PathLike[str],
               backend: str | None = None,
               cache_pages: int | None = None,
               wal: bool | None = None
               ) -> HDIndex | ShardRouter:
    """Reopen a persisted index, honouring the spec recorded in its
    snapshot — no kind-dispatch special cases.

    Args:
        path: Snapshot directory written by :func:`build` /
            :func:`repro.core.save_index`.
        backend: How the snapshot files are reopened: ``"mmap"``
            (mapped, O(metadata) cold start; what ``None`` means) or
            ``"memory"`` (read into RAM).
        cache_pages: Overrides the buffer-pool capacity recorded at save
            time.
        wal: Durability override (:mod:`repro.wal`), as for
            :func:`~repro.core.persistence.load_index`: ``True`` attaches
            and replays the write-ahead log, ``False`` none (the
            read-only reader), ``None`` honours the snapshot's policy.
            A sharded snapshot refuses ``True`` (``ValueError``).

    Returns:
        A ready-to-query :class:`~repro.core.hdindex.HDIndex` or
        :class:`~repro.core.router.ShardRouter`.
    """
    from repro.core.persistence import load_index
    return load_index(path, cache_pages=cache_pages, backend=backend,
                      wal=wal)
