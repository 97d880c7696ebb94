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
  and every resident page is exactly ``page_size`` bytes.  The same
  bound holds for the page-id LRU of the heap and the RDB-trees
  (:class:`~repro.storage.stats.ModelledPool`): never more than
  ``cache_pages`` resident ids, none at ``cache_pages=0``.
* **Heap write protection** — the page matrix a
  :class:`~repro.storage.vectors.VectorHeapFile` publishes is never
  writable (a read-only mapping on disk, ``flags.writeable`` cleared in
  memory), so an accidental in-place write through a gathered view
  raises instead of corrupting the heap or the snapshot on disk.
* **Packed-vs-node trace parity** — every
  :meth:`~repro.core.rdbtree.RDBTree.candidates` call is re-run down a
  node-path oracle (a :class:`~repro.btree.tree.BPlusTree` bulk-loaded,
  once per layout, from the tree's columns; a lookup among a subset of
  the entries as the same walk passing over the others), and every
  :meth:`~repro.btree.tree.BPlusTree.nearest` call that takes a
  baseline tree's packed mirror is re-run down that tree's own nodes,
  into sandboxed :class:`~repro.storage.stats.IOStats`; the two answers
  must be byte-identical and the two I/O traces (totals *and*
  random/sequential split) must agree, query by query.  This is the
  PR-6 contract — the array path reads what a node-by-node walk would
  read — enforced at runtime rather than by a handful of parity tests.
  The block ``candidates`` returns must also be finite: Eq. 6 is a
  product, and a zero weight times a NaN or inf is NaN.
* **Fold postconditions** — when ``HDIndex._fold_delta`` (the only
  code that changes a built base) returns, the heap, every RDB-tree
  and the metadata store hold exactly ``count`` rows, every tree's key
  column is sorted, and the delta is empty with ``base_count ==
  count``: ids stay dense and nothing the delta held was dropped or
  folded twice.

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

    for name in ("record_read", "record_write", "record_write_run",
                 "record_read_many", "record_cache_hit", "reset",
                 "__add__"):
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


# -- modelled pool and heap page matrix ---------------------------------------


def _install_heap_checks() -> None:
    from repro.storage.stats import ModelledPool
    from repro.storage.vectors import VectorHeapFile

    def bounded(original: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(self: Any, page_ids: Any) -> None:
            original(self, page_ids)
            if len(self._resident) > self.cache_pages:
                raise SanitizerError(
                    f"modelled pool holds {len(self._resident)} page ids, "
                    f"over cache_pages={self.cache_pages}")
        return wrapper

    def read_only(original: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(self: Any) -> Any:
            matrix, count = original(self)
            if matrix.flags.writeable:
                raise SanitizerError(
                    "the heap published a writable page matrix")
            return matrix, count
        return wrapper

    _patch(ModelledPool, "record_read_many", bounded)
    # Every reader and writer of the heap takes its state through _live.
    _patch(VectorHeapFile, "_live", read_only)


# -- packed-vs-node cross-check ---------------------------------------------


def _cross_check(packed: Any, node_tree: Any, key: bytes, count: int,
                 real_stats: Any, check_trace: bool = True,
                 subset: Any = None) -> None:
    """Run the packed search and a walk of ``node_tree``'s real nodes
    side by side, into sandboxed stats that continue ``real_stats``'
    access pattern; answers and I/O traces must agree.  With a
    ``subset`` the walk accepts the entries at those positions only."""
    from repro.storage.stats import IOStats

    packed_stats, node_stats = (
        IOStats(_last_read_page=real_stats._last_read_page,
                _last_write_page=real_stats._last_write_page)
        for _ in range(2))
    packed_entries = packed.entries(
        packed.nearest_positions(key, count, packed_stats, subset))
    accept = None
    if subset is not None:
        wanted = set(packed.entries(subset))
        accept = lambda entry: (bytes(entry[0]), bytes(entry[1])) in wanted
    node_entries = [(bytes(k), bytes(v)) for k, v in
                    _node_walk(node_tree, key, count, node_stats, accept)]
    if packed_entries != node_entries:
        differ = [a != b for a, b in zip(packed_entries, node_entries)]
        raise SanitizerError(
            f"packed/node answer divergence for count={count}: packed "
            f"returned {len(packed_entries)} entr(ies), node path "
            f"{len(node_entries)}; first mismatch at index "
            f"{differ.index(True) if True in differ else 'length'}")
    if check_trace and packed_stats.snapshot() != node_stats.snapshot():
        raise SanitizerError(
            f"packed/node I/O trace divergence for count={count}: packed "
            f"recorded {packed_stats.snapshot()}, node path "
            f"{node_stats.snapshot()}")


def _node_walk(tree: Any, key: bytes, count: int, sandbox: Any,
               accept: Any = None) -> Any:
    """``tree.nearest`` down the real nodes (mirror detached for the
    call), recorded into ``sandbox``."""
    from repro.btree.tree import BPlusTree

    packed, real_stats = tree._packed, tree._store.stats
    tree._packed, tree._store.stats = None, sandbox
    try:
        return _ORIGINALS[(BPlusTree, "nearest")](tree, key, count, accept)
    finally:
        tree._packed, tree._store.stats = packed, real_stats


def _install_tree_crosscheck() -> None:
    import numpy as np

    from repro.btree.tree import BPlusTree
    from repro.core.rdbtree import RDBTree

    def checked_nearest(original: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(self: Any, key: bytes, count: int,
                    accept: Any = None) -> Any:
            with _TREE_LOCK:
                if (count > 0 and self._active_packed() is not None
                        and len(key) == self.key_width and accept is None):
                    _cross_check(self._packed, self, key, count, self.stats)
                # Parity held in the sandboxes: the caller-visible
                # accounting is exactly one traversal.
                return original(self, key, count, accept)
        return wrapper

    def checked_candidates(original: Callable[..., Any]
                           ) -> Callable[..., Any]:
        def wrapper(self: Any, query_key: Any, alpha: int,
                    subset: Any = None, out: Any = None) -> Any:
            with _TREE_LOCK:
                packed = self.packed
                if alpha > 0 and packed.count:
                    key = bytes(query_key) \
                        if isinstance(query_key, (bytes, bytearray)) \
                        else packed.key_codec.encode(int(query_key))
                    oracle, bulk_shaped = node_oracle(self)
                    _cross_check(packed, oracle, key, alpha, self.stats,
                                 check_trace=bulk_shaped, subset=subset)
                found = original(self, query_key, alpha, subset, out)
            if not np.isfinite(found[1]).all():
                raise SanitizerError("candidates returned a non-finite block")
            return found
        return wrapper

    _patch(BPlusTree, "nearest", checked_nearest)
    _patch(RDBTree, "candidates", checked_candidates)


def node_oracle(tree: Any) -> tuple[Any, bool]:
    """The node-path twin of an RDB-tree's columns — a
    :class:`~repro.btree.tree.BPlusTree` bulk-loaded from them, once per
    layout — plus whether the layout is the one bulk loading gives (its
    page trace is only comparable then: a snapshot an old release folded
    row by row carries half-full split leaves)."""
    import numpy as np

    from repro.btree.tree import BPlusTree

    packed = tree.packed
    cached = getattr(packed, "_sanitize_oracle", None)
    if cached is None:
        oracle = BPlusTree.from_columns(packed, tree.leaf_capacity,
                                        tree.page_size)
        bulk_shaped = np.array_equal(packed.leaf_starts, np.minimum(
            np.arange(packed.leaf_pages.size + 1) * tree.leaf_capacity,
            packed.count))
        cached = packed._sanitize_oracle = (oracle, bulk_shaped)
    return cached


def node_candidates(tree: Any, query_key: int, alpha: int,
                    eligible: Any = None) -> tuple[Any, Any]:
    """:meth:`RDBTree.candidates` answered by walking the real nodes of
    :func:`node_oracle` (whose own ``stats`` take the page reads): the
    scalar reference of the parity tests and ``bench_hotpath``.  With an
    ``eligible`` bitmap over object ids, the walk accepts an entry only
    when ``eligible[id]``."""
    import numpy as np

    oracle, _ = node_oracle(tree)
    accept = None if eligible is None else (
        lambda entry: eligible[int.from_bytes(entry[1][:8], "big")])
    entries = oracle.nearest(
        tree.packed.key_codec.encode(int(query_key)), alpha, accept)
    records = np.frombuffer(b"".join(bytes(v) for _, v in entries),
                            dtype=tree._record_dtype)
    return (records["id"].astype(np.int64),
            records["ref"].astype(np.float64))


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
    for position, tree in enumerate(index.trees):
        keys = tree.packed.key_S
        if (keys[:-1] > keys[1:]).any():
            raise SanitizerError(
                f"_fold_delta left the key column of tree_{position} "
                f"unsorted")


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
    _install_heap_checks()
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
