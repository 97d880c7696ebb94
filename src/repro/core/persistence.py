"""Save/load a built index of the HD-Index family to/from a directory.

A persisted plain index is a directory containing:

* ``meta.json`` — parameters, partitions, quantiser domain, per-tree
  shape (height / count), heap record count, the deleted-id set, the
  index's declarative ``spec`` (:mod:`repro.core.spec`) and a legacy
  ``kind`` tag so snapshots stay readable across the spec redesign;
* ``references.npz`` — the reference vectors, their pairwise distances and
  original indices (the only part of the index that is memory-resident at
  query time, Sec. 4.4.1);
* ``descriptors.pages`` — the descriptor heap's page matrix, a flat file
  of whole pages;
* ``tree_<i>.packed`` — one file per RDB-tree: its key and record columns
  plus page geometry (:mod:`repro.btree.packed`), the only form a tree
  has (``metadata.packed`` holds per-point attributes the same way).

Files a reader may have mapped are replaced (``replace_file``), never
truncated.  Snapshots of releases that also wrote the trees as node pages
(``tree_<i>.pages``) load from their ``.packed`` files; the next save
drops the ``.pages``.

A persisted :class:`~repro.core.router.ShardRouter` is a directory
containing a ``manifest.json`` (shard count, global-id layout, base
parameters, spec) plus one ``shard_<s>/`` subdirectory per shard, each of
which is a plain persisted index as above — the "build offline, serve
online" split, with every shard deployable to its own machine.

Loading maps or reads those files without touching the data — build
once, reopen and query on a machine that never holds the dataset in RAM.
:func:`load_index` reconstructs the *spec* the snapshot records (mapping
pre-spec ``kind`` tags onto the equivalent spec), so every deployment
shape flows through one construction path; :func:`repro.open` adds
per-call execution and backend overrides on top.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from repro.core.hdindex import HDIndex
from repro.core.params import HDIndexParams, check_backend
from repro.core.reference import ReferenceSet
from repro.core.spec import (
    EXECUTION_TO_KIND,
    KIND_TO_EXECUTION,
    Execution,
    Topology,
    make_executor,
    params_from_dict,
)
from repro.core.rdbtree import RDBTree
from repro.hilbert.quantize import GridQuantizer
from repro.meta import MetadataStore
from repro.storage.pages import replace_file
from repro.storage.vectors import VectorHeapFile

META_FILE = "meta.json"
MANIFEST_FILE = "manifest.json"
REFERENCES_FILE = "references.npz"
FORMAT_VERSION = 1


class PersistenceError(RuntimeError):
    """Raised when a directory does not hold a valid persisted index."""


def save_index(index, directory: str | os.PathLike[str]) -> None:
    """Persist a built index of the HD-Index family.

    Accepts :class:`HDIndex` (any executor) and
    :class:`~repro.core.router.ShardRouter` — plus the deprecated class
    shims, which are just configurations of those two.  The snapshot
    records the index's full :class:`~repro.core.spec.IndexSpec` so
    :func:`load_index` reconstructs the same deployment.

    If the index was built with ``storage_dir`` pointing at ``directory``
    the heap's page file is already in place; an in-memory heap is
    written out in one sequential pass.  An index with no write-ahead log
    attached first folds its delta segment into the base
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
    re-persist it there so disk matches the rewritten pages (a process
    pool re-binds to it once).  Returns the unchanged generation: there
    is no ``gen-*`` chain without a log."""
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
    or a ``meta.json`` (plain / parallel snapshot) and an instance of the
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
            (:class:`~repro.core.spec.Execution` ``wal``).

    Returns:
        A ready-to-query :class:`HDIndex` (executor reconstructed from
        the snapshot's spec — sequential, threaded, or a process pool
        re-bound to this very directory) or
        :class:`~repro.core.router.ShardRouter`.

    Raises:
        PersistenceError: If the directory is not a valid snapshot, the
            format version is unsupported, or ``backend`` is unknown.
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
    from repro.wal.manager import attach_wal, resolve_snapshot_dir
    # A WAL root's CURRENT pointer wins over any stale in-root meta: the
    # published generation is the durable truth.
    target = resolve_snapshot_dir(directory)
    if os.path.exists(os.path.join(target, MANIFEST_FILE)):
        index = _load_sharded(target, cache_pages, backend)
    elif os.path.exists(os.path.join(target, META_FILE)):
        index = _load_hdindex(target, cache_pages, backend)
    else:
        raise PersistenceError(
            f"{directory} has neither {META_FILE} nor {MANIFEST_FILE}")
    attach_wal(index, directory, wal)
    return index


# -- plain / parallel indexes ----------------------------------------------


def _refuse_logged_delta(owner, parts) -> None:
    """A logged delta is ``compact()``'s to publish as a new generation:
    refuse before any file of the live one is touched.  ``owner`` holds
    the log (the router for its shards, which never log themselves)."""
    if owner._wal is not None and any(len(p._delta) for p in parts):
        raise PersistenceError(
            "index holds un-compacted WAL delta entries; call "
            "compact() to fold them into a snapshot generation "
            "before save_index()")


def _save_hdindex(index: HDIndex, directory: str) -> None:
    index._require_built()
    _refuse_logged_delta(index, [index])
    folded = len(index._delta) > 0
    if folded:
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
        if os.path.exists(stem + ".pages"):
            os.remove(stem + ".pages")  # left by a pre-columns snapshot

    references = index.references
    np.savez(os.path.join(directory, REFERENCES_FILE),
             vectors=references.vectors,
             ref_ref=references.ref_ref,
             indices=(references.indices if references.indices is not None
                      else np.empty(0, dtype=np.int64)))
    _write_metadata_sidecar(index, directory)

    execution = index.spec.execution
    meta = {
        "format_version": FORMAT_VERSION,
        # Legacy tag kept alongside the spec so pre-redesign readers (and
        # the cross-version tests) keep working.
        "kind": EXECUTION_TO_KIND[execution.kind],
        "spec": {"topology": Topology().to_dict(),
                 "execution": execution.to_dict()},
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
                 "dtype": str(np.dtype(index.params.storage_dtype))},
        "trees": [tree.state() for tree in index.trees],
    }
    if execution.kind != "sequential":
        meta["num_workers"] = execution.workers
    replace_file(os.path.join(directory, META_FILE),
                 json.dumps(meta, indent=2))
    if folded and index._remote:
        # The fold rewrote files the workers have mapped: re-bind the
        # pool so the next dispatch reopens what was saved.
        index.attach_snapshot(directory)


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

    backend = backend or "mmap"
    params = _restore_params(meta["params"], directory, cache_pages, backend)
    execution = _restore_execution(meta)
    index = HDIndex(params)
    index.dim = int(meta["dim"])
    index.count = int(meta["count"])
    index.generation = int(meta.get("generation", 0))
    index._wal_policy = execution.wal
    index._deleted = set(int(i) for i in meta["deleted"])
    index.partitions = [np.asarray(part, dtype=np.int64)
                        for part in meta["partitions"]]
    quantizer_meta = meta["quantizer"]
    index.quantizer = GridQuantizer(quantizer_meta["low"],
                                    quantizer_meta["high"],
                                    int(quantizer_meta["order"]))

    archive = np.load(os.path.join(directory, REFERENCES_FILE))
    indices = archive["indices"]
    index.references = ReferenceSet(
        archive["vectors"], indices if indices.size else None)
    index.metadata = _load_metadata_sidecar(directory, backend)

    heap_path = os.path.join(directory, "descriptors.pages")
    index.heap = VectorHeapFile(
        index.dim, meta["heap"]["dtype"], params.page_size,
        params.cache_pages, heap_path if backend == "mmap" else None)
    if backend == "memory":
        index.heap.read(heap_path)
    index.heap.restore_count(int(meta["heap"]["count"]))
    index._delta = index._empty_delta()

    index.trees = []
    for tree_index, tree_state in enumerate(meta["trees"]):
        tree = RDBTree.from_state(
            tree_state, cache_pages=params.cache_pages,
            page_size=params.page_size)
        path = os.path.join(directory, f"tree_{tree_index}.packed")
        if not os.path.exists(path):
            raise PersistenceError(
                f"{directory} has no tree_{tree_index}.packed: it predates "
                f"the column format (trees kept only as tree_<i>.pages); "
                f"rebuild it, or re-save it as docs/MIGRATION.md describes")
        tree.read(path, mapped=backend == "mmap")
        if len(tree) != int(tree_state["tree"]["count"]):
            raise PersistenceError(
                f"{path} holds {len(tree)} entries but {META_FILE} "
                f"records {tree_state['tree']['count']}")
        index.trees.append(tree)
    # One construction path for every execution kind: realise the spec's
    # executor.  A process executor binds to this very directory (its
    # worker processes bootstrap from the snapshot, never from the live
    # state restored above) — set_executor wires that up because
    # params.storage_dir is the snapshot directory itself.
    index.set_executor(make_executor(execution, index))
    return index


def _restore_execution(meta: dict) -> Execution:
    """The snapshot's execution strategy: its recorded spec, or — for
    pre-spec snapshots — the legacy ``kind`` tag mapped onto the
    equivalent spec."""
    spec_meta = _recorded_spec(meta)
    if "execution" in spec_meta:
        return Execution.from_dict(spec_meta["execution"])
    kind = meta.get("kind", "hdindex")
    execution_kind = KIND_TO_EXECUTION.get(kind)
    if execution_kind is None:
        raise PersistenceError(f"unknown index kind {kind!r}")
    return Execution(kind=execution_kind, workers=meta.get("num_workers"))


def _recorded_spec(meta: dict) -> dict:
    """The sections of the ``spec`` a snapshot recorded.  A ``"file"``
    backend in them — releases before the heap became a page matrix had
    one — reads as ``"mmap"``: the same files, served mapped."""
    spec = {name: dict(section)
            for name, section in (meta.get("spec") or {}).items()
            if section is not None}
    if spec.get("execution", {}).get("worker_backend") == "file":
        spec["execution"]["worker_backend"] = "mmap"
    if spec.get("topology", {}).get("shard_backends"):
        spec["topology"]["shard_backends"] = [
            "mmap" if backend == "file" else backend
            for backend in spec["topology"]["shard_backends"]]
    return spec


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
    index._require_built()
    _refuse_logged_delta(index, index.shards)
    os.makedirs(directory, exist_ok=True)
    for shard_index, shard in enumerate(index.shards):
        shard_directory = _shard_dir(directory, shard_index)
        if _shard_snapshot_is_current(shard, shard_directory):
            # A remote (process-execution) shard persisted itself at
            # build/fold time; its pages, metadata and references are
            # already exactly what _save_hdindex would write.
            continue
        _save_hdindex(shard, shard_directory)
    _write_manifest(index, directory)


def _write_manifest(index, directory: str) -> None:
    """Atomically (re)write a router's ``manifest.json`` — also the
    publish step of sharded compaction, which must never leave a torn
    manifest behind a crash."""
    params = dataclasses.asdict(index.params)
    # The wrapper's storage_dir is a property of the *deployment*, not the
    # snapshot; load_index re-points it at the snapshot directory.
    params["storage_dir"] = None
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "sharded",
        "spec": {"topology": index.topology.to_dict(),
                 "execution": index.execution.to_dict()},
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


def _shard_snapshot_is_current(shard, shard_directory: str) -> bool:
    """True when a remote shard's self-persisted snapshot at exactly
    ``shard_directory`` is still what a save would write (remote shards
    save themselves on build and when an un-logged fold re-persists).

    The base pages only change in a fold, which re-persists; inserts
    and deletes since then live in memory, so the recorded count and
    deleted set are checked against live state — either one moving
    forces a real re-save.
    """
    if not (shard._remote
            and shard.snapshot_dir is not None
            and os.path.abspath(shard.snapshot_dir)
            == os.path.abspath(shard_directory)):
        return False
    try:
        with open(os.path.join(shard_directory, META_FILE)) as handle:
            meta = json.load(handle)
    except (OSError, ValueError):
        return False
    return (sorted(int(i) for i in meta.get("deleted", []))
            == sorted(shard._deleted)
            and int(meta.get("count", -1)) == shard.count)


def _load_sharded(directory: str, cache_pages: int | None,
                  backend: str | None = None):
    from repro.core.router import ShardRouter
    with open(os.path.join(directory, MANIFEST_FILE)) as handle:
        manifest = json.load(handle)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported index format {manifest.get('format_version')!r}")
    if manifest.get("kind") != "sharded":
        raise PersistenceError(
            f"manifest kind {manifest.get('kind')!r} is not 'sharded'")

    params = _restore_params(manifest["params"], directory, cache_pages,
                             backend or "mmap")
    spec_meta = _recorded_spec(manifest)
    topology = (Topology.from_dict(spec_meta["topology"])
                if "topology" in spec_meta
                else Topology(shards=int(manifest["num_shards"])))
    execution = Execution.from_dict(spec_meta.get("execution", {}))
    num_shards = int(manifest["num_shards"])
    index = ShardRouter(params, topology, execution)
    index.count = int(manifest["count"])
    index.generation = int(manifest.get("generation", 0))
    index.offsets = np.asarray(manifest["offsets"], dtype=np.int64)
    index.shards = []
    index._id_maps = []
    index._id_arrays = [None] * num_shards
    from repro.wal.manager import resolve_snapshot_dir
    for shard_index in range(num_shards):
        # Each shard directory may carry its own published generation
        # (sharded compaction); resolve it before reading meta.json.
        shard_directory = resolve_snapshot_dir(
            _shard_dir(directory, shard_index))
        shard = _load_hdindex(shard_directory, cache_pages, backend)
        # The router owns the (single) write-ahead log; shards never
        # attach one of their own.
        shard._wal_policy = False
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
    if backend == "mmap":
        buffer = np.memmap(path, dtype=np.uint8, mode="r")
    else:
        buffer = np.fromfile(path, dtype=np.uint8)
    return MetadataStore.from_packed(buffer)
