"""Save/load a built index of the HD-Index family to/from a directory.

A persisted plain index is a directory containing:

* ``meta.json`` — parameters, partitions, quantiser domain, per-tree
  shape (height / count), heap record count, the deleted-id set and the
  index's declarative ``spec`` (:mod:`repro.core.spec`);
* ``references.npz`` — the reference vectors, their pairwise distances and
  original indices (the only part of the index that is memory-resident at
  query time, Sec. 4.4.1);
* ``descriptors.pages`` — the descriptor heap's page matrix, a flat file
  of whole pages, records at the narrowest lossless width (``meta.json``'s
  heap ``stored`` dtype: uint8 for SIFT-like data) while the page model
  charges the storage dtype;
* ``tree_<i>.packed`` — one file per RDB-tree: its key and record columns
  (:mod:`repro.btree.packed`), ids at the narrowest width that holds
  them; the page geometry is laid out again at open from the count and
  the capacities (``metadata.packed`` holds per-point attributes in the
  same container).

Files a reader may have mapped are replaced (``replace_file``), never
truncated.  A torn or foreign heap, tree, metadata or reference file
is refused with a :class:`PersistenceError` naming it.

A persisted :class:`~repro.core.router.ShardRouter` is a directory
containing a ``manifest.json`` (shard count, global-id layout, base
parameters, spec) plus one ``shard_<s>/`` subdirectory per shard, each of
which is a plain persisted index as above — the "build offline, serve
online" split, with every shard deployable to its own machine.  It keeps
no write-ahead log: a ``wal.log`` an older release left holding records
is refused at open (:func:`repro.wal.manager.refuse_sharded_log`).

Loading maps or reads those files without touching the data — build
once, reopen and query on a machine that never holds the dataset in RAM.
:func:`load_index` reconstructs the *spec* the snapshot records, so every
deployment shape flows through one construction path; a snapshot whose
spec is missing or invalid is refused (``docs/MIGRATION.md``).
:func:`repro.open` adds per-call backend and durability overrides on top.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import zipfile

import numpy as np

from repro.core.hdindex import HDIndex
from repro.core.params import HDIndexParams, check_backend
from repro.core.reference import ReferenceSet
from repro.core.spec import IndexSpec, params_from_dict
from repro.core.rdbtree import RDBTree
from repro.hilbert.quantize import GridQuantizer
from repro.meta import MetadataStore
from repro.storage.pages import StorageError, read_file, replace_file
from repro.storage.vectors import VectorHeapFile

META_FILE = "meta.json"
MANIFEST_FILE = "manifest.json"
REFERENCES_FILE = "references.npz"
FORMAT_VERSION = 1
#: Opens of a root that compactions keep republishing before giving up.
OPEN_TRIES = 8


class PersistenceError(RuntimeError):
    """Raised when a directory does not hold a valid persisted index."""


def save_index(index, directory: str | os.PathLike[str]) -> None:
    """Persist a built index of the HD-Index family.

    Accepts :class:`HDIndex` and
    :class:`~repro.core.router.ShardRouter`.  The snapshot records the
    index's full :class:`~repro.core.spec.IndexSpec` so
    :func:`load_index` reconstructs the same deployment.

    If the index was built with ``storage_dir`` pointing at ``directory``
    the heap's page file is already in place; an in-memory heap is
    written out in one sequential pass.  An index with no write-ahead log
    attached (every router) first folds its delta segment into the base
    (``HDIndex._fold_delta``: un-logged inserts become durable here), so
    save -> load -> ``insert()`` / ``delete()`` -> save again keeps the
    snapshot consistent.

    Args:
        index: A **built** member of the HD-Index family.
        directory: Destination directory (created if missing).

    Raises:
        PersistenceError: If ``index`` is not a family member, it is
            file-backed somewhere other than ``directory``, or it holds
            logged delta entries (``compact()`` publishes those).
        RuntimeError: If the index has not been built.

    >>> import numpy as np, tempfile
    >>> from repro.core import (HDIndex, HDIndexParams, load_index,
    ...                         save_index)
    >>> data = np.repeat(np.arange(32.0)[:, None], 4, axis=1)
    >>> index = HDIndex(HDIndexParams(num_trees=2, hilbert_order=4,
    ...                               num_references=4, alpha=8, seed=0))
    >>> index.build(data)
    >>> with tempfile.TemporaryDirectory() as tmp:
    ...     save_index(index, tmp)
    ...     with load_index(tmp, backend="mmap") as reopened:
    ...         int(reopened.query(data[5], k=1)[0][0])
    5
    """
    from repro.core.router import ShardRouter
    if isinstance(index, ShardRouter):
        _save_sharded(index, os.fspath(directory))
    elif isinstance(index, HDIndex):
        _save_hdindex(index, os.fspath(directory))
    else:
        raise PersistenceError(
            f"cannot persist a {type(index).__name__}; expected a member "
            f"of the HD-Index family")


def fold_in_place(index) -> int:
    """``compact()`` with no log attached: fold the delta into the base
    in place — not concurrently with queries — and, when
    ``params.storage_dir`` already holds this index's snapshot,
    re-persist it there so disk matches the rewritten pages.  Returns
    the unchanged generation: there is no ``gen-*`` chain without a
    log."""
    directory = index.params.storage_dir
    if directory is not None and any(
            os.path.exists(os.path.join(directory, name))
            for name in (META_FILE, MANIFEST_FILE)):
        save_index(index, directory)
    else:
        index._fold_delta()
    return index.generation


def load_index(directory: str | os.PathLike[str],
               cache_pages: int | None = None,
               backend: str | None = None,
               wal: bool | None = None):
    """Re-open a persisted index for querying (and further updates).

    The directory is inspected for a ``manifest.json`` (sharded snapshot)
    or a ``meta.json`` (plain snapshot) and an instance of the
    saved class is returned.  A WAL-enabled root (``CURRENT`` pointer /
    ``wal.log``, :mod:`repro.wal`) resolves to its live generation and
    replays the log into an in-memory delta segment, so a crash-recovered
    index answers exactly as the pre-crash one did.

    Args:
        directory: A directory written by :func:`save_index`.
        cache_pages: Overrides the buffer-pool capacity recorded at save
            time (plumbed through to every shard); ``None`` keeps the
            saved value.
        backend: How the snapshot files are opened — ``"mmap"`` (the
            default: read-only mappings, so the reopen is O(metadata),
            resident memory is the pages queries touch and snapshots
            larger than RAM start in milliseconds) or ``"memory"`` (every
            file is read into RAM up front: O(index size) reopen).
            Results and counted I/O are identical across backends.
        wal: Durability override — ``True`` attaches (and replays) the
            write-ahead log; ``False`` attaches none (a log on disk
            stays unread, updates are volatile until ``compact()`` /
            ``save_index``: the read-only-reader spelling); ``None``
            honours the snapshot's recorded policy
            (:class:`~repro.core.spec.IndexSpec` ``wal``).  A sharded
            snapshot keeps no log: it refuses ``True`` (``ValueError``)
            and ignores a recorded policy.

    Returns:
        A ready-to-query :class:`HDIndex` or
        :class:`~repro.core.router.ShardRouter`, answering in-process
        (whatever dispatch an older release recorded).

    Raises:
        PersistenceError: If the directory is not a valid snapshot, the
            format version is unsupported, or ``backend`` is unknown.
        WalError: If the log does not extend the published generation,
            a sharded root's log holds records (and ``wal`` is not
            ``False``), or compactions republished the root under every
            open.
    """
    directory = os.fspath(directory)
    if backend is not None:
        try:
            check_backend(backend)
        except ValueError as exc:
            raise PersistenceError(str(exc)) from None
    if wal not in (None, True, False):
        raise PersistenceError(
            f"wal must be True, False or None, got {wal!r}")
    from repro.wal.log import WalError
    from repro.wal.manager import attach_wal, read_current, resolve_snapshot_dir
    # A seqlock over the generation and its log: a compaction publishes,
    # then truncates the log, so a pair read across it (an old base, a
    # later generation's records) is retried, never replayed.  A WAL
    # root's CURRENT pointer wins over any stale in-root meta.
    for _ in range(OPEN_TRIES):
        seen, index = read_current(directory), None
        try:
            target = resolve_snapshot_dir(directory)
            if os.path.exists(os.path.join(target, MANIFEST_FILE)):
                index = _load_sharded(target, cache_pages, backend, wal)
            elif os.path.exists(os.path.join(target, META_FILE)):
                index = _load_hdindex(target, cache_pages, backend)
                attach_wal(index, directory, wal)
            else:
                raise PersistenceError(
                    f"{directory} has neither {META_FILE} nor "
                    f"{MANIFEST_FILE}")
        except (PersistenceError, WalError):
            if read_current(directory) == seen:
                raise
        if read_current(directory) == seen:
            return index
        if index is not None:
            index.close()
    raise WalError(
        f"{directory} was republished under each of {OPEN_TRIES} opens")


# -- plain indexes --------------------------------------------------------


def _save_hdindex(index: HDIndex, directory: str) -> None:
    index._require_built()
    if index._wal is not None and len(index._delta):
        # A logged delta is compact()'s to publish as a new generation.
        raise PersistenceError(
            "index holds un-compacted WAL delta entries; call "
            "compact() to fold them into a snapshot generation "
            "before save_index()")
    if len(index._delta):
        index._fold_delta()
    os.makedirs(directory, exist_ok=True)

    heap, heap_path = index.heap, os.path.join(directory, "descriptors.pages")
    if heap.path is None:
        replace_file(heap_path, heap.page_matrix())
    elif os.path.abspath(heap.path) != os.path.abspath(heap_path):
        raise PersistenceError(
            f"index already file-backed at {heap.path}; save to its own "
            f"directory or rebuild with storage_dir={directory!r}")
    else:
        heap.sync()
    for tree_index, tree in enumerate(index.trees):
        stem = os.path.join(directory, f"tree_{tree_index}")
        tree.write(stem + ".packed")

    references = index.references
    np.savez(os.path.join(directory, REFERENCES_FILE),
             vectors=references.vectors,
             ref_ref=references.ref_ref,
             indices=(references.indices if references.indices is not None
                      else np.empty(0, dtype=np.int64)))
    _write_metadata_sidecar(index, directory)

    meta = {
        "format_version": FORMAT_VERSION,
        "spec": _spec_section(1, index.wal),
        "params": dataclasses.asdict(index.params),
        "dim": index.dim,
        "count": index.count,
        "generation": int(getattr(index, "generation", 0)),
        "deleted": sorted(index._deleted),
        "partitions": [part.tolist() for part in index.partitions],
        "quantizer": {"low": index.quantizer.low,
                      "high": index.quantizer.high,
                      "order": index.quantizer.order},
        "heap": {"count": len(index.heap),
                 "dtype": str(np.dtype(index.params.storage_dtype)),
                 "stored": str(index.heap.stored_dtype)},
        "trees": [tree.state() for tree in index.trees],
    }
    replace_file(os.path.join(directory, META_FILE),
                 json.dumps(meta, indent=2))


def _load_hdindex(directory: str, cache_pages: int | None,
                  backend: str | None = None) -> HDIndex:
    meta_path = os.path.join(directory, META_FILE)
    if not os.path.exists(meta_path):
        raise PersistenceError(f"{directory} has no {META_FILE}")
    with open(meta_path) as handle:
        meta = json.load(handle)
    if meta.get("format_version") != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported index format {meta.get('format_version')!r}")

    _, wal = _recorded_spec(meta, meta_path)
    backend = backend or "mmap"
    params = _restore_params(meta["params"], directory, cache_pages, backend)
    index = HDIndex(params)
    index.dim = int(meta["dim"])
    index.count = int(meta["count"])
    index.generation = int(meta.get("generation", 0))
    index.wal = wal
    index._deleted = set(int(i) for i in meta["deleted"])
    index.partitions = [np.asarray(part, dtype=np.int64)
                        for part in meta["partitions"]]
    quantizer_meta = meta["quantizer"]
    index.quantizer = GridQuantizer(quantizer_meta["low"],
                                    quantizer_meta["high"],
                                    int(quantizer_meta["order"]))

    index.references = _decode(os.path.join(directory, REFERENCES_FILE),
                               _read_references)
    index.metadata = _load_metadata_sidecar(directory, backend)

    def open_heap(path: str) -> VectorHeapFile:
        os.stat(path)  # a missing file is no empty heap
        heap = VectorHeapFile(index.dim, meta["heap"]["dtype"],
                              params.page_size, params.cache_pages,
                              path if backend == "mmap" else None)
        if backend == "memory":
            heap.read(path)
        # A snapshot without "stored" predates narrow records.
        heap.restore_count(int(meta["heap"]["count"]),
                           meta["heap"].get("stored"))
        return heap

    index.heap = _decode(os.path.join(directory, "descriptors.pages"),
                         open_heap)
    index._delta = index._empty_delta()

    index.trees = []
    for tree_index, tree_state in enumerate(meta["trees"]):
        tree = RDBTree.from_state(
            tree_state, cache_pages=params.cache_pages,
            page_size=params.page_size)
        path = os.path.join(directory, f"tree_{tree_index}.packed")
        _decode(path, lambda path: tree.read(path, mapped=backend == "mmap"))
        shape = (len(tree), tree.leaf_capacity)
        recorded = tree_state["tree"]
        if shape != (recorded["count"], recorded["leaf_capacity"]):
            raise PersistenceError(
                f"{path} holds {shape[0]} entries, {shape[1]} a leaf, but "
                f"{META_FILE} records {recorded['count']} and "
                f"{recorded['leaf_capacity']}")
        index.trees.append(tree)
    return index


def _decode(path: str, read):
    """``read(path)``, the one place a snapshot's binary files are
    decoded: a missing, torn or foreign file raises
    :class:`PersistenceError` naming it, not whatever the decoder
    tripped on."""
    try:
        return read(path)
    except (EOFError, KeyError, OSError, StorageError, ValueError,
            struct.error, zipfile.BadZipFile) as exc:
        raise PersistenceError(
            f"{path} is missing, damaged or not a snapshot file "
            f"({type(exc).__name__}: {exc})") from None


def _read_references(path: str) -> ReferenceSet:
    with np.load(path) as archive:
        indices = archive["indices"]
        return ReferenceSet(archive["vectors"],
                            indices if indices.size else None)


def _spec_section(shards: int, wal: bool | None) -> dict:
    """The ``spec`` a snapshot records, byte for byte as releases with a
    topology and an execution wrote it: only ``shards`` and ``wal`` are
    read back (:func:`_recorded_spec`); the rest are the values those
    releases wrote for an index answering in-process."""
    return {"topology": {"shards": shards, "shard_backends": None,
                         "replicas": 1},
            "execution": {"kind": "sequential", "workers": None,
                          "worker_backend": "mmap", "worker_timeout": None,
                          "wal": wal}}


def _recorded_spec(meta: dict, path: str) -> tuple[int, bool | None]:
    """The shard count and log policy a snapshot's ``spec`` records.  A
    snapshot without them, or with values this release rejects, is
    refused rather than guessed at.  The execution section's four
    dispatch fields, the replica count and the per-shard backends are
    ignored: an index answers in-process, from the backend it is opened
    with."""
    try:
        spec = meta["spec"]
        recorded = IndexSpec(
            shards=int(spec["topology"].get("shards", 1)),
            wal=spec["execution"].get("wal"))
        return recorded.shards, recorded.wal
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(
            f"{path} records no valid spec ({type(exc).__name__}: {exc}); "
            f"see docs/MIGRATION.md") from None


def _restore_params(params_dict: dict, directory: str,
                    cache_pages: int | None,
                    backend: str) -> HDIndexParams:
    params_dict = dict(params_dict)
    params_dict["storage_dir"] = directory
    params_dict["backend"] = backend
    if cache_pages is not None:
        params_dict["cache_pages"] = cache_pages
    # One deserialiser for the asdict form (spec.py owns the JSON-type
    # coercions, e.g. domain list -> tuple), shared with
    # IndexSpec.from_dict so snapshots and spec files cannot drift.
    return params_from_dict(params_dict)


# -- sharded indexes -------------------------------------------------------


def _shard_dir(directory: str, shard_index: int) -> str:
    return os.path.join(directory, f"shard_{shard_index}")


def _save_sharded(index, directory: str) -> None:
    from repro.wal.manager import resolve_snapshot_dir
    index._require_built()
    os.makedirs(directory, exist_ok=True)
    for shard_index, shard in enumerate(index.shards):
        # A shard of an older, logged root may live in a published
        # generation: fold into that one, the one its CURRENT names.
        _save_hdindex(shard, resolve_snapshot_dir(
            _shard_dir(directory, shard_index)))
    params = dataclasses.asdict(index.params)
    # The wrapper's storage_dir is a property of the *deployment*, not the
    # snapshot; load_index re-points it at the snapshot directory.
    params["storage_dir"] = None
    manifest = {
        "format_version": FORMAT_VERSION,
        "spec": _spec_section(index.num_shards, index.wal),
        "num_shards": index.num_shards,
        "count": index.count,
        "generation": int(getattr(index, "generation", 0)),
        "offsets": [int(v) for v in index.offsets],
        # Only ids handed out by insert(); the build-time ranges are
        # implied by the contiguous offsets.
        "insert_tails": [
            [int(v) for v in id_map[int(index.offsets[s + 1])
                                    - int(index.offsets[s]):]]
            for s, id_map in enumerate(index._id_maps)],
        "params": params,
    }
    replace_file(os.path.join(directory, MANIFEST_FILE),
                 json.dumps(manifest, indent=2))


def _load_sharded(directory: str, cache_pages: int | None,
                  backend: str | None = None, wal: bool | None = None):
    from repro.core.router import ShardRouter, refuse_log
    from repro.wal.manager import refuse_sharded_log, resolve_snapshot_dir
    refuse_log(wal)
    if wal is None:
        refuse_sharded_log(directory)
    with open(os.path.join(directory, MANIFEST_FILE)) as handle:
        manifest = json.load(handle)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported index format {manifest.get('format_version')!r}")
    shards, recorded_wal = _recorded_spec(
        manifest, os.path.join(directory, MANIFEST_FILE))
    params = _restore_params(manifest["params"], directory, cache_pages,
                             backend or "mmap")
    num_shards = int(manifest["num_shards"])
    # Older releases logged sharded updates (a recorded True); this one
    # keeps no log.
    index = ShardRouter(params, shards,
                        False if recorded_wal is False else None)
    index.count = int(manifest["count"])
    index.generation = int(manifest.get("generation", 0))
    index.offsets = np.asarray(manifest["offsets"], dtype=np.int64)
    index.shards = []
    index._id_maps = []
    index._id_arrays = [None] * num_shards
    for shard_index in range(num_shards):
        # A shard of an older, logged root may carry its own published
        # generation; resolve it before reading meta.json.
        shard_directory = resolve_snapshot_dir(
            _shard_dir(directory, shard_index))
        shard = _load_hdindex(shard_directory, cache_pages, backend)
        shard.wal = False  # shards never attach a log of their own
        index.shards.append(shard)
        built = list(range(int(index.offsets[shard_index]),
                           int(index.offsets[shard_index + 1])))
        tail = [int(v) for v in manifest["insert_tails"][shard_index]]
        index._id_maps.append(built + tail)
    return index


METADATA_FILE = "metadata.packed"


def _write_metadata_sidecar(index, directory: str) -> None:
    """Persist (or clear) the per-point metadata columns.

    Same RPAK container as the packed-tree sidecars: one
    ``metadata.packed`` file holding every typed column, loaded zero-copy
    on the mmap backend so a process pool's workers share the physical
    pages with the parent."""
    path = os.path.join(directory, METADATA_FILE)
    if index.metadata is None:
        if os.path.exists(path):
            os.remove(path)
        return
    replace_file(path, index.metadata.to_packed())


def _load_metadata_sidecar(directory: str,
                           backend: str) -> MetadataStore | None:
    path = os.path.join(directory, METADATA_FILE)
    if not os.path.exists(path):
        return None
    return _decode(path, lambda path: MetadataStore.from_packed(
        read_file(path, mapped=backend == "mmap")))
