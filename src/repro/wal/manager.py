"""WAL lifecycle: attach/replay, generations, compaction, `CURRENT`.

On-disk layout of a WAL-enabled snapshot root::

    <root>/
        meta.json, *.pages, *.packed  # generation 0, written by build()
        wal.log                     # framed insert/delete records
        CURRENT                     # name of the live generation subdir
        gen-000001/                 # compacted snapshots (full, self-
        gen-000002/                 #  contained plain-index directories)

``CURRENT`` does not exist until the first compaction: absent, the root
itself is the live generation.  Compaction folds the WAL delta into a
*new* sibling generation (the base snapshot is never mutated in place),
fsyncs it, runs the fault hook (the crash seam the swap tests kill at),
then atomically publishes via write-temp + ``os.replace`` of ``CURRENT``
+ directory fsync.  Only after the pointer is durable is the log
truncated — so a crash at *any* point leaves either the old generation +
full log, or the new generation + (possibly not-yet-truncated) log whose
records replay as no-ops because their ids are already below the folded
count.  Replay is idempotent by construction.

Only a plain index logs.  A sharded root keeps no log: its updates are
volatile until ``compact()`` / ``save_index`` fold every shard in place.
Older releases logged them in a router-level ``wal.log`` and published
per-shard ``shard_<s>/gen-*`` generations; those generations still
resolve, and :func:`refuse_sharded_log` refuses a root whose log still
holds records rather than open it without them.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np

from repro.storage.pages import replace_file
from repro.wal.log import WalError, WalRecord, WriteAheadLog, replay_wal

__all__ = [
    "CURRENT_FILE",
    "WAL_FILE",
    "attach_wal",
    "compact_index",
    "enable_wal",
    "generation_name",
    "has_wal_layout",
    "publish_current",
    "read_current",
    "refuse_sharded_log",
    "resolve_snapshot_dir",
]

CURRENT_FILE = "CURRENT"
WAL_FILE = "wal.log"
_GENERATION_PREFIX = "gen-"

#: Test seam: compaction calls this (when set) after the new generation
#: is fully written but *before* ``CURRENT`` is published — the widest
#: crash window.
_FAULT_HOOK = None

#: Test seam: :func:`attach_wal` calls this (when set) between loading a
#: generation and reading its log, where a compaction can republish.
_OPEN_HOOK = None


def _run_fault_hook() -> None:
    hook = _FAULT_HOOK
    if hook is not None:
        hook()


# -- layout ------------------------------------------------------------


def generation_name(generation: int) -> str:
    """Directory name for a compacted generation (``gen-000001``...)."""
    return f"{_GENERATION_PREFIX}{generation:06d}"


def wal_path(root: str | os.PathLike[str]) -> str:
    return os.path.join(os.fspath(root), WAL_FILE)


def read_current(root: str | os.PathLike[str]) -> str | None:
    """The generation name ``CURRENT`` points at, or ``None`` (the root
    itself is the live generation)."""
    try:
        with open(os.path.join(os.fspath(root), CURRENT_FILE)) as handle:
            name = handle.read().strip()
    except FileNotFoundError:
        return None
    return name or None


def resolve_snapshot_dir(root: str | os.PathLike[str]) -> str:
    """Directory holding the live generation's snapshot files."""
    root = os.fspath(root)
    name = read_current(root)
    if name is None:
        return root
    target = os.path.join(root, name)
    if not os.path.isdir(target):
        raise WalError(
            f"{root}/CURRENT points at {name!r} but that generation "
            f"directory does not exist")
    return target


def has_wal_layout(root: str | os.PathLike[str]) -> bool:
    """True when the directory carries online-update state (a ``CURRENT``
    pointer or a write-ahead log)."""
    root = os.fspath(root)
    return (os.path.exists(os.path.join(root, CURRENT_FILE))
            or os.path.exists(wal_path(root)))


def _fsync_dir(directory: str) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def publish_current(root: str | os.PathLike[str], name: str) -> None:
    """Atomically point ``CURRENT`` at a generation directory (write a
    temp file, fsync it, ``os.replace`` into place, fsync the dir)."""
    root = os.fspath(root)
    replace_file(os.path.join(root, CURRENT_FILE), name + "\n")
    _fsync_dir(root)


def _read_generation(snapshot_dir: str) -> int:
    try:
        with open(os.path.join(snapshot_dir, "meta.json")) as handle:
            return int(json.load(handle).get("generation", 0))
    except (OSError, ValueError):
        return 0


def _prune_generations(root: str, keep: set[str]) -> None:
    """Drop superseded ``gen-*`` directories, keeping the published and
    previous generations (in-flight readers of the previous one finish
    safely).  The in-root generation-0 files are never touched."""
    for name in sorted(os.listdir(root)):
        if (name.startswith(_GENERATION_PREFIX) and name not in keep
                and os.path.isdir(os.path.join(root, name))):
            shutil.rmtree(os.path.join(root, name), ignore_errors=True)


# -- attach / replay ---------------------------------------------------


def enable_wal(index, root: str | os.PathLike[str] | None = None,
               fsync: str | None = None) -> None:
    """Create the log handle for a built plain index.

    Idempotent; called on the first logged mutation (:func:`open_log`)
    and by :func:`attach_wal` at load time.
    """
    if root is None:
        root = index._wal_root or index.params.storage_dir
    if root is None:
        raise ValueError(
            "wal=True requires a disk-backed index "
            "(HDIndexParams(storage_dir=...)): the write-ahead log lives "
            "next to the snapshot")
    root = os.fspath(root)
    os.makedirs(root, exist_ok=True)
    index._wal_root = root
    if index._wal is None:
        index._wal = WriteAheadLog(wal_path(root),
                                   fsync=fsync or index._wal_fsync)


def _wants_log(index, on_disk: bool = False) -> bool:
    """The index's ``wal`` policy resolved: the explicit policy, else
    (auto) whether a log is already on disk."""
    wal = index.wal
    return on_disk if wal is None else wal


def open_log(index):
    """The write-ahead log a mutation of ``index`` is framed in first
    (attached on first use), or ``None`` when its updates are volatile —
    the one place durability is decided; the data path never forks on
    it."""
    if index._wal is None and _wants_log(index):
        enable_wal(index)
    return index._wal


def attach_wal(index, root: str | os.PathLike[str],
               wal: bool | None = None) -> None:
    """Wire up (and replay) online-update state on a just-loaded index.

    Args:
        index: A loaded :class:`~repro.core.hdindex.HDIndex`.
        root: The snapshot *root* (the directory :func:`load_index` was
            given, not the resolved generation directory).
        wal: Per-call override — ``True`` attaches the log, ``False``
            attaches none (updates stay volatile; a log on disk is not
            replayed), ``None`` honours the snapshot's recorded policy,
            falling back to auto-detection (:func:`_wants_log`).
    """
    root = os.fspath(root)
    if wal is not None:
        index.wal = bool(wal)
    if index._wal is not None or not _wants_log(index, has_wal_layout(root)):
        return
    hook = _OPEN_HOOK
    if hook is not None:
        hook()
    records, _ = replay_wal(wal_path(root))
    enable_wal(index, root)
    _replay_into_index(index, records)


def refuse_sharded_log(root: str | os.PathLike[str]) -> None:
    """Refuse a sharded root whose ``wal.log`` (written by an older
    release) still holds records: this release replays no sharded log,
    so opening it would silently drop those updates.  An empty or
    absent log passes."""
    records, _ = replay_wal(wal_path(root), repair=False)
    if records:
        raise WalError(
            f"{wal_path(root)} holds {len(records)} logged sharded "
            f"update(s) this release does not replay: compact() the root "
            f"with the release that wrote it, or pass wal=False to open "
            f"it without them (docs/MIGRATION.md)")


def _replay_into_index(index, records: list[WalRecord]) -> None:
    """Apply log records to a plain index's delta segment.

    Idempotent: records whose id is below the (already folded) count are
    skipped, so replaying a log that survived a crash between publish and
    truncate is a no-op.
    """
    for record in records:
        if record.op == "insert":
            if record.object_id < index.count:
                continue  # folded into the loaded generation already
            if record.object_id != index._delta.next_id:
                raise WalError(
                    f"WAL id gap: record {record.object_id} but next "
                    f"delta id is {index._delta.next_id}")
            index._delta_insert(record.vector, record.metadata)
        else:
            if 0 <= record.object_id < index.count:
                index._deleted.add(record.object_id)


# -- compaction --------------------------------------------------------


def fold_generation(source: str, dest: str,
                    records: list[tuple[int, np.ndarray, dict | None]],
                    deleted: set[int], generation: int) -> None:
    """Write a new self-contained generation: the ``source`` snapshot
    plus ``records`` folded into the trees and heap by
    ``HDIndex._fold_delta`` on a detached copy.

    Every record is re-inserted from its original float64 descriptor —
    including later-deleted ones, so object ids stay dense and match an
    index built from the full stream in one shot.  Records carrying
    metadata fold it into the generation's metadata store the same way.
    Folding is idempotent per id: records already below the source count
    are skipped.
    """
    from repro.core.persistence import load_index, save_index
    if os.path.exists(dest):
        shutil.rmtree(dest)  # leftover from a crashed earlier attempt
    os.makedirs(dest)
    for name in os.listdir(source):
        if (name in (CURRENT_FILE, WAL_FILE)
                or name.startswith(_GENERATION_PREFIX)
                or name.endswith(".tmp")):
            continue
        path = os.path.join(source, name)
        if os.path.isfile(path):
            shutil.copy2(path, os.path.join(dest, name))
    with open(os.path.join(source, "meta.json")) as handle:
        source_meta = json.load(handle)
    folded = load_index(dest, backend="mmap", wal=False)
    try:
        for object_id, vector, metadata in records:
            if object_id < folded.count:
                continue
            if object_id != folded.count:
                raise WalError(
                    f"compaction id gap: record {object_id} but folded "
                    f"count is {folded.count}")
            folded._delta_insert(vector, metadata)
        folded._deleted = set(int(i) for i in deleted)
        folded._fold_delta()
        folded.generation = int(generation)
        save_index(folded, dest)
    finally:
        folded.close()
    # ``folded`` was loaded with no log so the fold never touches it —
    # but save_index derives the persisted spec from the *live*
    # object.  Restore the source snapshot's recorded spec so the new
    # generation reopens exactly like the one it replaces (wal policy).
    meta_path = os.path.join(dest, "meta.json")
    with open(meta_path) as handle:
        meta = json.load(handle)
    meta["spec"] = source_meta["spec"]
    replace_file(meta_path, json.dumps(meta, indent=2))
    _fsync_dir(dest)


def compact_index(index) -> int:
    """Fold a plain index's delta into the next generation and publish.

    The caller (:meth:`HDIndex.compact`) decides whether to adopt the new
    generation in-process afterwards; this function only makes it
    durable.  Returns the new generation number.
    """
    root = index._wal_root
    source = resolve_snapshot_dir(root)
    next_generation = _read_generation(source) + 1
    dest_name = generation_name(next_generation)
    with index._update_lock:
        records = index._delta.records()
        deleted = set(index._deleted)
    fold_generation(source, os.path.join(root, dest_name), records,
                    deleted, next_generation)
    _run_fault_hook()
    previous = read_current(root)
    publish_current(root, dest_name)
    index._wal.truncate()
    keep = {dest_name}
    if previous is not None:
        keep.add(previous)
    _prune_generations(root, keep)
    return next_generation
