"""Packed-array B+-tree: every entry in two sorted columns.

A bulk-built tree is fully described by its entries in key order plus the
page geometry bulk loading gives them, so that is all this module keeps:
every key and value in one contiguous sorted array each, the leaf
boundaries and the page ids of the leaf and internal levels.  On that,

* descent is ``np.searchsorted`` over the per-leaf minimum keys, its
  page reads the tree's height, counted,
* the bidirectional nearest-by-key merge picks one run of positions, so
  a bisection of exact key comparisons, about ``2 log2(count)`` keys
  decoded, finds its forward picks — in a slice of the key column either
  side of the query key or, for a lookup among a subset of the entries
  (a filtered query's eligible ones), the subset there, and
* range scans slice the arrays directly.

These columns **are the tree**, for the RDB-trees
(:mod:`repro.core.rdbtree`) and for the one-dimensional baselines
(iDistance, QALSH, Multicurves, through :func:`bulk_load`) alike:
:class:`PackedTree` lays sorted entries out, from its two capacities,
exactly as a bottom-up bulk load of a node-based B+-tree would, and
nothing else is built, saved or read.  The page geometry is an
accounting model, not a storage layout: :meth:`nearest_positions` and
:meth:`range_entries` count into :class:`~repro.storage.stats.IOStats`,
by arithmetic over the layout, precisely the page reads a node-by-node
walk of that tree would issue, so the paper's I/O figures are
reproduced without the pages existing.  That walk, :mod:`repro.devtools.nodewalk`, is the reference
the tests' scalar oracle and the sanitizer diff this module against.

Only the two columns are stored (an RDB-tree's ``tree_<i>.packed``
file, :func:`repro.storage.codecs.pack_arrays`): a reopen lays them out
again from the capacities, and an mmap reopen maps them zero-copy, so a
process pool shares one physical copy across workers.
"""

from __future__ import annotations

import bisect
import functools

import numpy as np

from repro.storage.codecs import Codec, Float64Codec, UIntCodec
from repro.storage.stats import IOStats

#: Page id meaning "no page" (the root an empty tree records).
NO_PAGE = 0xFFFFFFFFFFFFFFFF


def leaf_capacity(page_size: int, key_width: int, value_width: int) -> int:
    """Entries per leaf page: a 19-byte header (type, entry count, left
    and right sibling ids), then fixed-width (key, value) entries — the
    layout Eq. (4)'s accounting assumes."""
    return (page_size - 19) // (key_width + value_width)


def internal_capacity(page_size: int, key_width: int) -> int:
    """Separator keys per internal page (children = capacity + 1): a
    3-byte header (type, key count), then 8-byte child ids and keys."""
    return (page_size - 3 - 8) // (key_width + 8)


def key_kind(codec: Codec) -> str | None:
    """``'uint'``/``'float'`` when the codec's keys admit vectorised
    distance arithmetic, else ``None`` (no packed tree takes them)."""
    if isinstance(codec, Float64Codec):
        return "float"
    if isinstance(codec, UIntCodec):
        return "uint"
    return None


class PackedTree:
    """One bulk-built B+-tree as contiguous sorted arrays.

    Parameters
    ----------
    key_codec:
        The tree's key codec (one :func:`key_kind` knows).
    keys_raw / values_raw:
        ``(n, key_width)`` / ``(n, value_width)`` uint8 arrays holding every
        entry in global key order — the leaf entries' bytes.  May be
        read-only views over an mmap'd snapshot file.
    leaf_capacity / internal_capacity:
        Entries a leaf holds and separator keys an internal node holds.
        The page geometry is what a bottom-up bulk load gives them: full
        leaves on pages ``0..L-1`` (the last one takes the remainder),
        ``leaf_starts`` their ``(L + 1,)`` entry prefix, then each
        internal level, bottom-up, on the next contiguous page range with
        ``internal_capacity + 1`` children per node (``level_pages`` /
        ``level_starts``, root level first: the nodes' page ids and the
        prefix of their child counts).  Page reads are counted on it.
    """

    def __init__(self, key_codec: Codec, keys_raw: np.ndarray,
                 values_raw: np.ndarray, leaf_capacity: int,
                 internal_capacity: int) -> None:
        kind = key_kind(key_codec)
        if kind is None:
            raise ValueError(
                f"cannot pack keys of {type(key_codec).__name__}")
        self._kind = kind
        self.key_codec = key_codec
        self.key_width = key_codec.width
        self.keys_raw = np.ascontiguousarray(keys_raw, dtype=np.uint8)
        self.values_raw = np.ascontiguousarray(values_raw, dtype=np.uint8)
        self.count = count = int(self.keys_raw.shape[0])
        self.value_width = int(self.values_raw.shape[1])
        self.leaf_capacity = int(leaf_capacity)
        self.internal_capacity = int(internal_capacity)
        leaves = -(-count // self.leaf_capacity)
        self.leaf_starts = np.minimum(
            np.arange(leaves + 1, dtype=np.int64) * self.leaf_capacity, count)
        self.leaf_pages = np.arange(leaves, dtype=np.int64)
        self.level_pages: list[np.ndarray] = []
        self.level_starts: list[np.ndarray] = []
        children, next_page, fanout = leaves, leaves, internal_capacity + 1
        while children > 1:
            nodes = -(-children // fanout)
            self.level_pages.insert(0, np.arange(
                next_page, next_page + nodes, dtype=np.int64))
            self.level_starts.insert(0, np.minimum(
                np.arange(nodes + 1, dtype=np.int64) * fanout, children))
            next_page += nodes
            children = nodes
        # Codecs guarantee bytewise order == numeric order, so every binary
        # search runs on a zero-copy 'S' view of the raw key bytes.
        self.key_S = self.keys_raw.view(f"S{self.key_width}").ravel()
        self.min_key_S = self.key_S[self.leaf_starts[:-1]]
        #: Key bytes -> the number they encode (exact for integers).
        self._decode = (functools.partial(int.from_bytes, byteorder="big")
                        if kind == "uint" else key_codec.decode)
        # What reads are counted from; the root is the last page allocated.
        self.root, self._height = next_page - 1, self.height

    @property
    def height(self) -> int:
        """Number of levels (0 when empty, 1 for a lone leaf)."""
        return len(self.level_pages) + 1 if self.count else 0

    @property
    def num_pages(self) -> int:
        """Pages of the modelled tree: its leaves plus internal nodes."""
        return int(self.leaf_pages.size
                   + sum(pages.size for pages in self.level_pages))

    # -- searches ---------------------------------------------------------

    def nearest_positions(self, key: bytes, count: int,
                          stats: IOStats | None = None,
                          subset: np.ndarray | None = None) -> np.ndarray:
        """Global entry positions of the ``count`` nearest-by-key entries,
        ascending: the set the node path's bidirectional merge emits
        (forward wins distance ties).  The merge takes ``f`` entries from
        the split on and the rest behind it, so the answer is one run of
        positions and ``f`` is bisected for, not sorted for.

        ``subset`` (ascending entry positions; integer keys only) makes
        that the ``count`` nearest *among those positions*: what the same
        merge emits when it passes over every other entry and stops at the
        ``count``-th one it accepts, or where both directions run dry — a
        run of the subset.

        When ``stats`` is given, the page reads the node path would have
        issued for the same call are counted into it (no page is listed).
        """
        n = self.count
        if count <= 0 or n == 0:
            return np.empty(0, dtype=np.int64)
        scalar = self._scalar(key)
        gbl = int(self.key_S.searchsorted(scalar, side="left"))
        leaf = max(0, int(self.min_key_S.searchsorted(scalar, "right")) - 1)
        split = max(gbl, int(self.leaf_starts[leaf]))
        if subset is None:
            start = max(0, split - count)
            run = range(start, min(n, split + count))
            behind, total = split - start, min(count, n)
        else:
            if self._kind != "uint":
                raise ValueError("subset lookups need integer keys")
            at = int(subset.searchsorted(split))
            run = subset[max(0, at - count):at + count]
            behind, total = min(at, count), min(count, subset.size)
        keys, width, decode = self.key_S, self.key_width, self._decode
        target = decode(key)

        def farther(row: int, back: int = total) -> bool:
            # Whether forward row ``row`` is farther from the key than
            # backward row ``row - back``: rows before ``behind`` hold keys
            # up to the key, the rest keys from it on, so neither distance
            # needs abs().
            return not (decode(keys[run[row]].ljust(width, b"\0")) - target
                        <= target - decode(
                            keys[run[row - back]].ljust(width, b"\0")))

        # Forward row r is picked iff it is no farther than row r - total
        # (always, where there is none): true on a prefix of the rows, so
        # bisected for.
        first, last = max(behind, total), min(len(run), behind + total)
        ahead = first - behind + bisect.bisect_left(
            range(first, last), True, key=farther)
        low = behind + ahead - total  # the row of the farthest backward pick
        if stats is not None:
            if subset is None:
                taken = ahead, total - ahead
            elif total < count:
                taken = n - split, split  # both directions ran dry
            else:
                # Up to the last pick: the farther of the two frontier
                # picks, the backward one (row low) on a tie.
                pick = behind + ahead - 1
                if not ahead or ahead < total and not farther(pick,
                                                              total - 1):
                    pick = low
                taken = self._raw_taken(key, split, int(run[pick]))
            self._count_nearest(stats, key, leaf, split, *taken)
        if subset is None:
            return np.arange(start + low, start + low + total)
        return run[low:low + total].copy()

    def entries(self, positions: np.ndarray) -> list[tuple[bytes, bytes]]:
        """Materialise ``(key, value)`` byte pairs for global positions."""
        keys_raw, values_raw = self.keys_raw, self.values_raw
        return [(keys_raw[p].tobytes(), values_raw[p].tobytes())
                for p in positions]

    def range_entries(self, low: bytes, high: bytes, stats=None):
        """Yield ``(key, value)`` pairs with ``low <= key <= high``.

        A generator, like the node path: nothing happens until first
        consumption, and leaf-boundary page reads are counted into
        ``stats`` at the same points of the iteration where the node path
        would issue them.
        """
        n = self.count
        if n == 0 or low > high:
            return
        low_s, high_s = self._scalar(low), self._scalar(high)
        leaf = max(0, int(np.searchsorted(self.min_key_S, low_s,
                                          side="left")) - 1)
        start = int(np.searchsorted(self.key_S, low_s, side="left"))
        end = int(np.searchsorted(self.key_S, high_s, side="right"))
        if stats is not None:
            self._count_descent(stats, leaf)
        starts = self.leaf_starts
        if start < n and start == int(starts[leaf + 1]):
            # The landing leaf has no in-range entry: the node path walks
            # one sibling right before it can decide anything.
            leaf += 1
            if stats is not None:
                stats.record_read(leaf)
        keys_raw, values_raw = self.keys_raw, self.values_raw
        position = start
        while position < end:
            yield keys_raw[position].tobytes(), values_raw[position].tobytes()
            position += 1
            if position < n and position == int(starts[leaf + 1]):
                leaf += 1
                if stats is not None:
                    stats.record_read(leaf)

    # -- key arithmetic ---------------------------------------------------

    def _scalar(self, key: bytes):
        return np.frombuffer(key, dtype=f"S{self.key_width}", count=1)[0]

    def _boundary_distances(self, above: np.ndarray, below: np.ndarray,
                            key: bytes) -> tuple[np.ndarray, np.ndarray]:
        """|key distance| of the leaf-boundary keys ``above`` (``S`` values
        none of which is below ``key``) and of those ``below`` (none above
        it), as two arrays ordered as the distances are: doubles for float
        keys, else the exact distances as big-endian ``S`` strings — every
        key read into one integer, those above minus copies of ``key``,
        copies of ``key`` minus those below, which borrows across no key."""
        upper, lower, cut = above.tobytes(), below.tobytes(), above.size
        if self._kind == "float":  # the codec's decoding, vectorised
            bits = np.frombuffer(upper + lower, dtype=">u8").astype(np.uint64)
            sign = np.uint64(1 << 63)
            keys = np.where(bits & sign, bits & ~sign, ~bits).view(np.float64)
            target = self._decode(key)
            return keys[:cut] - target, target - keys[cut:]
        dist = (int.from_bytes(upper + key * below.size, "big")
                - int.from_bytes(key * cut + lower, "big"))
        dist = np.frombuffer(dist.to_bytes(len(upper) + len(lower), "big"),
                             dtype=above.dtype)
        return dist[:cut], dist[cut:]

    def _raw_taken(self, key: bytes, split: int,
                   last: int) -> tuple[int, int]:
        """Entries the merge took from each direction, accepted or not,
        up to its pick of position ``last``: that direction's as far as
        ``last``, the other one's nearer than it (at the same distance
        too if forward: forward wins ties) — one ``searchsorted`` of
        ``last``'s key mirrored about ``key``."""
        mirrored = (2 * int.from_bytes(key, "big")
                    - int.from_bytes(self.keys_raw[last].tobytes(), "big"))
        if mirrored < 0:
            return last - split + 1, split
        if mirrored >> (8 * self.key_width):
            return self.count - split, split - last
        beyond = int(self.key_S.searchsorted(
            self._scalar(mirrored.to_bytes(self.key_width, "big")),
            side="right"))
        if last >= split:
            return last - split + 1, split - min(split, beyond)
        return beyond - split, split - last

    # -- counted page reads -----------------------------------------------

    def _count_descent(self, stats: IOStats, leaf: int) -> None:
        """Count a descent to ``leaf``: every internal page comes after its
        children, so only the root's read can follow on the previous one."""
        height = self._height
        sequential = self.root == stats._last_read_page + 1
        stats.page_reads += height
        stats.sequential_reads += sequential
        stats.random_reads += height - sequential
        stats._last_read_page = leaf

    def _count_nearest(self, stats: IOStats, key: bytes, leaf: int,
                       split: int, forward: int, backward: int) -> None:
        """Count into ``stats`` the page reads of the node path's nearest
        walk that took ``forward`` / ``backward`` entries (picked or passed
        over) from each side of ``split``.

        Each scan descends and may read one sibling first; then the pick
        of a leaf's last entry (forward) or first (backward) reads the next
        leaf, in the merge's order of the picks: by distance, forward first
        on a tie.  Leaf ``l`` is page ``l`` from entry ``l * cap`` on, so
        those picks are two strided views of the key column, and of their
        reads only a forward one after another is sequential."""
        n, cap = self.count, self.leaf_capacity
        self._count_descent(stats, leaf)
        if split < n and split == (leaf + 1) * cap:
            stats.record_read(leaf + 1)
        self._count_descent(stats, leaf)
        if 0 < split == leaf * cap:
            stats.record_read(leaf - 1)
        # Forward leaf l is read iff l * cap is in (split, split + reach];
        # backward leaf l - 1 iff l * cap is in [split - reach_b, split).
        reach = max(0, min(forward, n - split - 1))
        reach_b = max(0, min(backward, split - 1))
        f_lo, f_hi = split // cap + 1, (split + reach) // cap + 1
        b_lo, b_hi = -(-(split - reach_b) // cap), -(-split // cap)
        picks_f, picks_b = f_hi - f_lo, b_hi - b_lo
        if not picks_f + picks_b:
            return
        runs, first, last = 1, f_lo, f_hi - 1
        if picks_b:
            # Forward picks merged ahead of each backward one, nearest first.
            near_f, near_b = self._boundary_distances(
                self.key_S[f_lo * cap - 1:f_hi * cap - 1:cap],
                self.key_S[b_lo * cap:b_hi * cap:cap], key)
            ahead = near_f.searchsorted(near_b[::-1], "right")
            runs += int(np.count_nonzero(ahead[1:] != ahead[:-1])) \
                + int(ahead[0] != 0) - int(ahead[-1] == picks_f)
            first = first if ahead[0] else b_hi - 2
            last = b_lo - 1 if ahead[-1] == picks_f else last
        sequential = (first == stats._last_read_page + 1) + picks_f - runs
        stats.page_reads += picks_f + picks_b
        stats.sequential_reads += sequential
        stats.random_reads += picks_f + picks_b - sequential
        stats._last_read_page = last


def bulk_load(key_codec: Codec, keys, values: np.ndarray,
              page_size: int) -> tuple[PackedTree, IOStats]:
    """A tree of entries in ascending key order on ``page_size``-byte
    pages, each as full as the page layout allows, and the accountant of
    its I/O, charged one sequential write of every page.

    ``keys`` are the logical keys, encoded here by ``key_codec``;
    ``values`` is their ``(n, value_width)`` uint8 value column, or a 1-D
    array of object ids, stored as 8-byte big-endian integers.
    """
    if values.ndim == 1:
        values = values.astype(">u8").view(np.uint8).reshape(-1, 8)
    width, value_width = key_codec.width, values.shape[1]
    leaf = leaf_capacity(page_size, width, value_width)
    internal = internal_capacity(page_size, width)
    if leaf < 1 or internal < 2:
        raise ValueError(f"page size {page_size} cannot hold a "
                         f"({width}+{value_width})-byte entry")
    keys_raw = np.frombuffer(b"".join(map(key_codec.encode, keys)),
                             dtype=np.uint8).reshape(-1, width)
    tree = PackedTree(key_codec, keys_raw, values, leaf, internal)
    if (tree.key_S[1:] < tree.key_S[:-1]).any():
        raise ValueError("bulk_load input must be sorted by key")
    stats = IOStats()
    stats.record_write_run(0, tree.num_pages)
    return tree, stats
