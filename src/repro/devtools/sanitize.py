"""Runtime invariant sanitizer (``REPRO_SANITIZE=1``).

The static rules in :mod:`repro.devtools.lint` catch *shapes* of bugs;
this module catches *behaviours*.  :func:`install` monkey-wraps the
storage and tree layers with cross-checking shims:

* **IOStats balance** — after every recorded access,
  ``page_reads == random_reads + sequential_reads`` (same for writes)
  and no counter is negative.  A drifting split silently corrupts the
  paper's random-access cost model.
* **Heap write protection** — the page matrix a
  :class:`~repro.storage.vectors.VectorHeapFile` publishes is never
  writable (a read-only mapping on disk, ``flags.writeable`` cleared in
  memory), so an accidental in-place write through a gathered view
  raises instead of corrupting the heap or the snapshot on disk.
* **Packed-vs-node read parity** — every
  :meth:`~repro.btree.packed.PackedTree.nearest_positions` call (each
  :meth:`~repro.core.rdbtree.RDBTree.candidates` and each baseline
  nearest-by-key lookup) is re-run down
  :class:`~repro.devtools.nodewalk.NodeWalk`, the node-by-node walk of
  the same entries, made once per layout (a lookup among a subset of
  the entries as the same walk passing over the others).  Each side
  counts into a sandbox :class:`~repro.storage.stats.IOStats` that
  starts from the caller's last page read; the two answers must be the
  same set of entries, and the counted reads must equal the walk's, query
  by query: the same total, the same random/sequential split and the
  same last page.  The array path counts what a node-by-node walk would
  read, enforced at runtime rather than by a handful of parity tests.
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
from typing import Any, Callable

from repro.storage.stats import IOStats

#: (class, attribute) -> original function, for uninstall().
_ORIGINALS: dict[tuple[type, str], Callable[..., Any]] = {}


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
    wrapper.__wrapped__ = original
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
                  "sequential_reads", "random_writes", "sequential_writes"):
        if getattr(stats, field) < 0:
            raise SanitizerError(
                f"IOStats.{field} went negative: {getattr(stats, field)}")


def _install_iostats() -> None:
    def checked(original: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            result = original(self, *args, **kwargs)
            _check_stats_balance(self)
            return result
        return wrapper

    for name in ("record_read", "record_write", "record_write_run",
                 "record_read_many", "reset", "__add__"):
        _patch(IOStats, name, checked)


# -- heap page matrix ---------------------------------------------------------


def _install_heap_checks() -> None:
    from repro.storage.vectors import VectorHeapFile

    def read_only(original: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(self: Any) -> Any:
            state = original(self)
            if state[0].flags.writeable:
                raise SanitizerError(
                    "the heap published a writable page matrix")
            return state
        return wrapper

    # Every reader and writer of the heap takes its state through _live.
    _patch(VectorHeapFile, "_live", read_only)


# -- packed-vs-node cross-check ---------------------------------------------


def _cross_check(search: Callable[..., Any], packed: Any, key: bytes,
                 count: int, stats: Any, subset: Any) -> None:
    """Run the packed ``search`` and the node walk of the same entries
    side by side, each counting into a sandbox that starts from the last
    page ``stats`` read: the answers must be the same set of entries and
    the counts the same (total, random/sequential split and last page).
    With a ``subset`` the walk accepts the entries at those positions
    only."""
    previous = -2 if stats is None else stats._last_read_page
    packed_stats, walk_stats = (IOStats(_last_read_page=previous),
                                IOStats(_last_read_page=previous))
    packed_entries = sorted(packed.entries(
        search(packed, key, count, packed_stats, subset)))
    walk = node_oracle(packed)
    accept = None if subset is None \
        else set(packed.entries(subset)).__contains__
    walk_entries = sorted(walk.nearest(key, count, walk_stats, accept))
    if packed_entries != walk_entries:
        raise SanitizerError(
            f"packed/node answer divergence for count={count}: packed "
            f"returned {len(packed_entries)} entr(ies), node path "
            f"{len(walk_entries)}, not the same set")
    if packed_stats != walk_stats:  # the last pages read compared too
        raise SanitizerError(
            f"packed/node read count divergence for count={count}: packed "
            f"{packed_stats, packed_stats._last_read_page}, node path "
            f"{walk_stats, walk_stats._last_read_page}")


def _install_tree_crosscheck() -> None:
    import numpy as np

    from repro.btree.packed import PackedTree
    from repro.core.rdbtree import RDBTree

    def checked_nearest(original: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(self: Any, key: bytes, count: int, stats: Any = None,
                    subset: Any = None) -> Any:
            if count > 0 and self.count:
                _cross_check(original, self, key, count, stats, subset)
            # Parity held in the sandboxes: the caller-visible
            # accounting is exactly one traversal.
            return original(self, key, count, stats, subset)
        return wrapper

    def finite(original: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            found = original(self, *args, **kwargs)
            if not np.isfinite(found[1]).all():
                raise SanitizerError("candidates returned a non-finite block")
            return found
        return wrapper

    _patch(PackedTree, "nearest_positions", checked_nearest)
    _patch(RDBTree, "candidates", finite)


def node_oracle(packed: Any) -> Any:
    """The :class:`~repro.devtools.nodewalk.NodeWalk` of a packed layout's
    entries at the layout's capacities, made once per layout."""
    from repro.devtools.nodewalk import NodeWalk

    walk = getattr(packed, "_sanitize_oracle", None)
    if walk is None:
        walk = packed._sanitize_oracle = NodeWalk(
            packed.key_codec, packed.entries(range(packed.count)),
            packed.leaf_capacity, packed.internal_capacity)
    return walk


def node_candidates(tree: Any, query_key: int, alpha: int,
                    eligible: Any = None) -> tuple[Any, Any]:
    """:meth:`RDBTree.candidates` answered by the node walk of the tree's
    columns (:func:`node_oracle`; its page reads go uncounted): the
    scalar reference of the parity tests' ``scalar_oracle``.  With an
    ``eligible`` bitmap over object ids, the walk accepts an entry only
    when ``eligible[id]``."""
    import numpy as np

    walk = node_oracle(tree.packed)
    # A record starts with its id, as wide as the layout's record says.
    id_width = tree._record_dtype["id"].itemsize
    accept = None if eligible is None else (
        lambda entry: eligible[int.from_bytes(entry[1][:id_width], "big")])
    entries = walk.nearest(tree.packed.key_codec.encode(int(query_key)),
                           alpha, IOStats(), accept)
    records = np.frombuffer(b"".join(value for _, value in entries),
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
