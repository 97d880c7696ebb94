"""Runtime invariant sanitizer (``REPRO_SANITIZE=1``).

The static rules in :mod:`repro.devtools.lint` catch *shapes* of bugs;
this module catches *behaviours*.  :func:`install` monkey-wraps the
storage and tree layers with cross-checking shims:

* **IOStats balance** — after every recorded access,
  ``page_reads == random_reads + sequential_reads`` (same for writes)
  and no counter is negative.  A drifting split silently corrupts the
  paper's random-access cost model.
* **BufferPool accounting** — the cache never exceeds ``capacity``,
  ``capacity=0`` keeps it empty (the paper's no-caching methodology),
  and every resident page is exactly ``page_size`` bytes.
* **Zero-copy write protection** —
  :meth:`~repro.storage.pages.MmapPageStore.page_matrix` returns
  read-only views, so an accidental in-place write through the gather
  fast path raises instead of corrupting the snapshot on disk.
* **Packed-vs-node trace parity** — every
  :meth:`~repro.btree.tree.BPlusTree.nearest` /
  :meth:`~repro.btree.tree.BPlusTree.nearest_positions` call that takes
  the packed fast path is re-run down the scalar node path into
  sandboxed :class:`~repro.storage.stats.IOStats`; the two answers must
  be byte-identical and the two I/O traces (totals *and*
  random/sequential split) must agree, query by query.  This is the
  PR-6 contract — the packed mirror is an optimisation, never an
  observable behaviour change — enforced at runtime rather than by a
  handful of parity tests.
* **Fold postconditions** — when ``HDIndex._fold_delta`` (the only
  code that mutates a built base) returns, the heap, every RDB-tree
  and the metadata store hold exactly ``count`` rows and the delta is
  empty with ``base_count == count``: ids stay dense and nothing the
  delta held was dropped or folded twice.

Activate with ``REPRO_SANITIZE=1`` in the environment (checked at
``import repro`` time) or explicitly::

    from repro.devtools import sanitize
    sanitize.install()
    ...
    sanitize.uninstall()

Violations raise :class:`SanitizerError`.  The shims are global (class-
level patches) and are NOT thread-safe during install/uninstall; flip
them before starting worker threads.  Cross-checking roughly doubles
query-path page walks — this is a testing mode, not a serving mode.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable

#: (class, attribute) -> original function, for uninstall().
_ORIGINALS: dict[tuple[type, str], Callable[..., Any]] = {}

#: Serialises sanitized tree reads.  The cross-check temporarily swaps
#: the tree's live IOStats for a sandbox; a concurrent reader of the
#: same tree (the serve tier's worker thread vs. a caller thread) would
#: otherwise record into the sandbox and fake a trace divergence.
_TREE_LOCK = threading.RLock()


class SanitizerError(AssertionError):
    """A runtime invariant the sanitizer enforces was violated."""


def installed() -> bool:
    """Whether the sanitizer shims are currently active."""
    return bool(_ORIGINALS)


def _patch(cls: type, name: str,
           wrap: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
    original = cls.__dict__[name]
    _ORIGINALS[(cls, name)] = original
    wrapper = wrap(original)
    wrapper.__name__ = getattr(original, "__name__", name)
    wrapper.__doc__ = getattr(original, "__doc__", None)
    setattr(cls, name, wrapper)


# -- IOStats ----------------------------------------------------------------


def _check_stats_balance(stats: Any) -> None:
    if stats.page_reads != stats.random_reads + stats.sequential_reads:
        raise SanitizerError(
            f"IOStats read split out of balance: page_reads="
            f"{stats.page_reads} != random {stats.random_reads} + "
            f"sequential {stats.sequential_reads}")
    if stats.page_writes != stats.random_writes + stats.sequential_writes:
        raise SanitizerError(
            f"IOStats write split out of balance: page_writes="
            f"{stats.page_writes} != random {stats.random_writes} + "
            f"sequential {stats.sequential_writes}")
    for field in ("page_reads", "page_writes", "random_reads",
                  "sequential_reads", "random_writes", "sequential_writes",
                  "cache_hits"):
        if getattr(stats, field) < 0:
            raise SanitizerError(
                f"IOStats.{field} went negative: {getattr(stats, field)}")


def _install_iostats() -> None:
    from repro.storage.stats import IOStats

    def checked(original: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            result = original(self, *args, **kwargs)
            _check_stats_balance(self)
            return result
        return wrapper

    for name in ("record_read", "record_write", "record_read_many",
                 "record_cache_hit", "reset", "__add__"):
        _patch(IOStats, name, checked)


# -- BufferPool -------------------------------------------------------------


def _check_pool(pool: Any) -> None:
    resident = len(pool._cache)
    if pool.capacity == 0 and resident:
        raise SanitizerError(
            f"BufferPool(capacity=0) holds {resident} page(s); the "
            f"no-caching methodology is being violated")
    if resident > pool.capacity:
        raise SanitizerError(
            f"BufferPool eviction failed: {resident} resident pages "
            f"exceed capacity {pool.capacity}")
    page_size = pool.store.page_size
    for page_id, data in pool._cache.items():
        if len(data) != page_size:
            raise SanitizerError(
                f"BufferPool page {page_id} cached with {len(data)} bytes "
                f"(page_size is {page_size})")
    if pool.memory_bytes() != resident * page_size:
        raise SanitizerError(
            f"BufferPool memory accounting drifted: memory_bytes()="
            f"{pool.memory_bytes()} != {resident} pages * {page_size}")


def _install_bufferpool() -> None:
    from repro.storage.buffer import BufferPool

    def checked(original: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            result = original(self, *args, **kwargs)
            _check_pool(self)
            return result
        return wrapper

    for name in ("read", "write", "clear", "_insert"):
        _patch(BufferPool, name, checked)


# -- mmap zero-copy views ---------------------------------------------------


def _install_mmap_guard() -> None:
    from repro.storage.pages import MmapPageStore

    def guarded(original: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(self: Any) -> Any:
            matrix = original(self)
            view = matrix.view()
            view.flags.writeable = False
            return view
        return wrapper

    _patch(MmapPageStore, "page_matrix", guarded)


# -- packed-vs-node cross-check ---------------------------------------------


def _as_bytes_entries(entries: Any) -> list[tuple[bytes, bytes]]:
    return [(bytes(key), bytes(value)) for key, value in entries]


def _cross_check(tree: Any, key: bytes, count: int,
                 original_nearest: Callable[..., Any]) -> Any:
    """Run the packed and node paths side by side into sandboxed stats.

    Returns the active :class:`PackedTree` when the packed path applies
    (after verifying parity), else ``None`` — caller then falls back to
    the original method against the real stats.
    """
    from repro.storage.stats import IOStats

    packed = tree._active_packed()
    if packed is None or len(key) != tree.key_width:
        return None
    if count <= 0:
        return packed

    real_stats = tree._store.stats

    sandbox_packed = IOStats()
    sandbox_packed._last_read_page = real_stats._last_read_page
    sandbox_packed._last_write_page = real_stats._last_write_page
    packed_entries = _as_bytes_entries(packed.entries(
        packed.nearest_positions(key, count, sandbox_packed)))

    sandbox_node = IOStats()
    sandbox_node._last_read_page = real_stats._last_read_page
    sandbox_node._last_write_page = real_stats._last_write_page
    tree._packed = None
    tree._store.stats = sandbox_node
    try:
        node_entries = _as_bytes_entries(original_nearest(tree, key, count))
    finally:
        tree._store.stats = real_stats
        tree._packed = packed

    if packed_entries != node_entries:
        raise SanitizerError(
            f"packed/node answer divergence for count={count}: packed "
            f"returned {len(packed_entries)} entr(ies), node path "
            f"{len(node_entries)}; first mismatch at index "
            f"{_first_mismatch(packed_entries, node_entries)}")
    if sandbox_packed.snapshot() != sandbox_node.snapshot():
        raise SanitizerError(
            f"packed/node I/O trace divergence for count={count}: packed "
            f"recorded {sandbox_packed.snapshot()}, node path "
            f"{sandbox_node.snapshot()}")
    return packed


def _first_mismatch(left: list, right: list) -> int | str:
    for index, (a, b) in enumerate(zip(left, right)):
        if a != b:
            return index
    return "length" if len(left) != len(right) else -1


def _install_tree_crosscheck() -> None:
    from repro.btree.tree import BPlusTree

    def checked_nearest(original: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(self: Any, key: bytes, count: int) -> Any:
            with _TREE_LOCK:
                packed = None
                if count > 0:
                    packed = _cross_check(self, key, count, original)
                if packed is None:
                    return original(self, key, count)
                # Parity held: replay the packed path against the real
                # stats so the caller-visible accounting is exactly one
                # traversal.
                return packed.entries(
                    packed.nearest_positions(key, count, self.stats))
        return wrapper

    def checked_positions(original: Callable[..., Any]
                          ) -> Callable[..., Any]:
        def wrapper(self: Any, key: bytes, count: int) -> Any:
            with _TREE_LOCK:
                nearest_original = _ORIGINALS[(BPlusTree, "nearest")]
                if count > 0 and self._active_packed() is not None:
                    _cross_check(self, key, count, nearest_original)
                return original(self, key, count)
        return wrapper

    _patch(BPlusTree, "nearest", checked_nearest)
    _patch(BPlusTree, "nearest_positions", checked_positions)


# -- delta fold -------------------------------------------------------------


def _check_folded(index: Any) -> None:
    sizes = {"heap": len(index.heap),
             "delta.base_count": index._delta.base_count}
    sizes.update((f"tree_{position}", len(tree))
                 for position, tree in enumerate(index.trees))
    if index.metadata is not None:
        sizes["metadata"] = index.metadata.count
    wrong = {name: size for name, size in sizes.items()
             if size != index.count}
    if wrong or len(index._delta):
        raise SanitizerError(
            f"_fold_delta left count={index.count} but {wrong} and "
            f"{len(index._delta)} row(s) still in the delta")


def _install_fold_check() -> None:
    from repro.core.hdindex import HDIndex

    def checked(original: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(self: Any) -> None:
            original(self)
            _check_folded(self)
        return wrapper

    _patch(HDIndex, "_fold_delta", checked)


# -- public API -------------------------------------------------------------


def install() -> None:
    """Activate every sanitizer shim (idempotent)."""
    if installed():
        return
    _install_iostats()
    _install_bufferpool()
    _install_mmap_guard()
    _install_tree_crosscheck()
    _install_fold_check()


def uninstall() -> None:
    """Restore the original, unchecked implementations (idempotent)."""
    while _ORIGINALS:
        (cls, name), original = _ORIGINALS.popitem()
        setattr(cls, name, original)


def install_from_env(env_var: str = "REPRO_SANITIZE") -> bool:
    """Install when the environment asks for it; returns whether active."""
    value = os.environ.get(env_var, "").strip().lower()
    if value in ("1", "true", "yes", "on"):
        install()
    return installed()
