"""Save/load a built HD-Index to/from a directory.

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

A root holding a ``manifest.json`` is a sharded snapshot an older
release wrote; it is refused with a :class:`PersistenceError` naming
``docs/MIGRATION.md``, which shows how to rebuild one index from its
``shard_<s>/`` snapshots.

Loading maps or reads those files without touching the data — build
once, reopen and query on a machine that never holds the dataset in RAM.
:func:`load_index` reconstructs the *spec* the snapshot records; a
snapshot whose
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
from repro.core.interface import BuildStats
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
    """Persist a built :class:`HDIndex`.

    The snapshot records the index's full
    :class:`~repro.core.spec.IndexSpec` so :func:`load_index`
    reconstructs the same deployment.

    If the index was built with ``storage_dir`` pointing at ``directory``
    the heap's page file is already in place; an in-memory heap is
    written out in one sequential pass.  An index with no write-ahead log
    attached first folds its delta segment into the base
    (``HDIndex._fold_delta``: un-logged inserts become durable here), so
    save -> load -> ``insert()`` / ``delete()`` -> save again keeps the
    snapshot consistent.

    Args:
        index: A **built** :class:`HDIndex`.
        directory: Destination directory (created if missing).

    Raises:
        PersistenceError: If ``index`` is not an :class:`HDIndex`, it is
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
    if not isinstance(index, HDIndex):
        raise PersistenceError(
            f"cannot persist a {type(index).__name__}; expected an HDIndex")
    _save_hdindex(index, os.fspath(directory))


def fold_in_place(index) -> int:
    """``compact()`` with no log attached: fold the delta into the base
    in place — not concurrently with queries — and, when
    ``params.storage_dir`` already holds this index's snapshot,
    re-persist it there so disk matches the rewritten pages.  Returns
    the unchanged generation: there is no ``gen-*`` chain without a
    log."""
    directory = index.params.storage_dir
    if directory is not None and os.path.exists(
            os.path.join(directory, META_FILE)):
        save_index(index, directory)
    else:
        index._fold_delta()
    return index.generation


def load_index(directory: str | os.PathLike[str],
               backend: str | None = None,
               wal: bool | None = None):
    """Re-open a persisted index for querying (and further updates).

    A WAL-enabled root (``CURRENT`` pointer /
    ``wal.log``, :mod:`repro.wal`) resolves to its live generation and
    replays the log into an in-memory delta segment, so a crash-recovered
    index answers exactly as the pre-crash one did.

    Args:
        directory: A directory written by :func:`save_index`.
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
            (:class:`~repro.core.spec.IndexSpec` ``wal``).

    Returns:
        A ready-to-query :class:`HDIndex`, answering in-process
        (whatever dispatch an older release recorded).

    Raises:
        PersistenceError: If the directory is not a valid snapshot (a
            sharded root included), the format version is unsupported,
            or ``backend`` is unknown.
        WalError: If the log does not extend the published generation,
            or compactions republished the root under every open.
    """
    directory = os.fspath(directory)
    if os.path.exists(os.path.join(directory, MANIFEST_FILE)):
        raise PersistenceError(
            f"{directory} is a sharded snapshot, which this release no "
            f"longer opens: rebuild one index from its shards "
            f"(docs/MIGRATION.md)")
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
            index = _load_hdindex(resolve_snapshot_dir(directory), backend)
            attach_wal(index, directory, wal)
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
        "spec": _spec_section(index.wal),
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


def _load_hdindex(directory: str, backend: str | None = None) -> HDIndex:
    meta_path = os.path.join(directory, META_FILE)
    if not os.path.exists(meta_path):
        raise PersistenceError(f"{directory} has no {META_FILE}")
    with open(meta_path) as handle:
        meta = json.load(handle)
    if meta.get("format_version") != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported index format {meta.get('format_version')!r}")

    wal = _recorded_spec(meta, meta_path)
    backend = backend or "mmap"
    params = _restore_params(meta["params"], directory, backend)
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
                              params.page_size,
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
        tree = RDBTree.from_state(tree_state, page_size=params.page_size)
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
    index._build_stats = BuildStats()  # built, though not timed here
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


def _spec_section(wal: bool | None) -> dict:
    """The ``spec`` a snapshot records, byte for byte as releases with a
    topology and an execution wrote it: only ``wal`` is read back
    (:func:`_recorded_spec`); the rest are the values those releases
    wrote for one index answering in-process."""
    return {"topology": {"shards": 1, "shard_backends": None,
                         "replicas": 1},
            "execution": {"kind": "sequential", "workers": None,
                          "worker_backend": "mmap", "worker_timeout": None,
                          "wal": wal}}


def _recorded_spec(meta: dict, path: str) -> bool | None:
    """The log policy a snapshot's ``spec`` records.  A snapshot without
    one, with a shard count other than 1, or with values this release
    rejects, is refused rather than guessed at.  The execution section's
    four dispatch fields, the replica count and the per-shard backends
    are ignored: an index answers in-process, from the backend it is
    opened with."""
    try:
        spec = meta["spec"]
        if int(spec["topology"].get("shards", 1)) != 1:
            raise ValueError("a shard count other than 1")
        return IndexSpec(wal=spec["execution"].get("wal")).wal
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(
            f"{path} records no valid spec ({type(exc).__name__}: {exc}); "
            f"see docs/MIGRATION.md") from None


def _restore_params(params_dict: dict, directory: str,
                    backend: str) -> HDIndexParams:
    params_dict = dict(params_dict)
    params_dict["storage_dir"] = directory
    params_dict["backend"] = backend
    # A snapshot may record a buffer-pool size: no code reads the field,
    # every read is counted, and 0 is its one valid value.
    params_dict["cache_pages"] = 0
    # One deserialiser for the asdict form (spec.py owns the JSON-type
    # coercions, e.g. domain list -> tuple), shared with
    # IndexSpec.from_dict so snapshots and spec files cannot drift.
    return params_from_dict(params_dict)


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
