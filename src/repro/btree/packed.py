"""Packed-array B+-tree: every entry in two sorted columns.

A bulk-built tree is fully described by its entries in key order plus the
page geometry bulk loading gives them, so that is all this module keeps:
every key and value in one contiguous sorted array each, the leaf
boundaries and the page ids of the leaf and internal levels.  On that,

* descent is ``np.searchsorted`` over the per-leaf minimum keys, its
  internal pages one row of an ancestor table made with the layout,
* the bidirectional nearest-by-key merge picks one run of positions, so
  one comparison of leading distance words over a run of keys (the rare
  ties settled exactly) counts its forward picks — a slice of the key
  column either side of the query key or, for a lookup among a subset of
  the entries (a filtered query's eligible ones), the subset there, and
* range scans slice the arrays directly.

These columns **are the tree**, for the RDB-trees
(:mod:`repro.core.rdbtree`) and for the one-dimensional baselines
(iDistance, QALSH, Multicurves, through :func:`bulk_load`) alike:
:meth:`PackedTree.from_sorted` lays sorted entries out exactly as a
bottom-up bulk load of a node-based B+-tree would, and nothing else is
built, saved or read.  The page geometry is an accounting model, not a
storage layout: :meth:`nearest_positions` and :meth:`range_entries`
replay, against :class:`~repro.storage.stats.IOStats`, precisely the
page-read sequence a node-by-node walk of that tree would issue, so the
paper's I/O figures are reproduced without the pages existing.  That
walk, :mod:`repro.devtools.nodewalk`, is the reference the tests'
scalar oracle and the sanitizer diff this module against.

Only the two columns are stored (an RDB-tree's ``tree_<i>.packed``
file, :func:`repro.storage.codecs.pack_arrays`): a reopen lays them out
again with :meth:`PackedTree.from_sorted`, and an mmap reopen maps them
zero-copy, so a process pool shares one physical copy across workers.
"""

from __future__ import annotations

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
    leaf_starts:
        ``(L + 1,)`` prefix array: leaf ``l`` holds entries
        ``[leaf_starts[l], leaf_starts[l + 1])``.
    leaf_pages:
        ``(L,)`` page ids of the leaves, left to right.
    level_pages / level_starts:
        Per internal level (root level first): the level's node page ids and
        the prefix array of its nodes' child counts, from which the
        ancestor table of the I/O trace's descents is derived.
    """

    def __init__(self, key_codec: Codec, keys_raw: np.ndarray,
                 values_raw: np.ndarray, leaf_starts: np.ndarray,
                 leaf_pages: np.ndarray, level_pages: list[np.ndarray],
                 level_starts: list[np.ndarray]) -> None:
        kind = key_kind(key_codec)
        if kind is None:
            raise ValueError(
                f"cannot pack keys of {type(key_codec).__name__}")
        self._kind = kind
        self.key_codec = key_codec
        self.key_width = key_codec.width
        self.keys_raw = np.ascontiguousarray(keys_raw, dtype=np.uint8)
        self.values_raw = np.ascontiguousarray(values_raw, dtype=np.uint8)
        self.count = int(self.keys_raw.shape[0])
        self.value_width = int(self.values_raw.shape[1])
        self.leaf_starts = np.asarray(leaf_starts, dtype=np.int64)
        self.leaf_pages = np.asarray(leaf_pages, dtype=np.int64)
        self.level_pages = [np.asarray(p, dtype=np.int64)
                            for p in level_pages]
        self.level_starts = [np.asarray(s, dtype=np.int64)
                             for s in level_starts]
        # Codecs guarantee bytewise order == numeric order, so every binary
        # search runs on a zero-copy 'S' view of the raw key bytes.
        self.key_S = self.keys_raw.view(f"S{self.key_width}").ravel()
        self.min_key_S = self.key_S[self.leaf_starts[:-1]]
        #: 64-bit words a key takes once zero-padded on the right.
        self._words = -(-self.key_width // 8)
        self._descents = self._ancestor_table()

    @classmethod
    def from_sorted(cls, key_codec: Codec, keys_raw: np.ndarray,
                    values_raw: np.ndarray, leaf_capacity: int,
                    internal_capacity: int) -> "PackedTree":
        """Lay key-sorted entries out as a bottom-up bulk load does: full
        leaves on pages ``0..L-1`` (the last one takes the remainder),
        then each internal level, bottom-up, on the next contiguous page
        range with ``internal_capacity + 1`` children per node."""
        count = int(keys_raw.shape[0])
        leaves = -(-count // leaf_capacity)
        leaf_starts = np.minimum(
            np.arange(leaves + 1, dtype=np.int64) * leaf_capacity, count)
        level_pages: list[np.ndarray] = []
        level_starts: list[np.ndarray] = []
        children, next_page, fanout = leaves, leaves, internal_capacity + 1
        while children > 1:
            nodes = -(-children // fanout)
            level_pages.append(
                np.arange(next_page, next_page + nodes, dtype=np.int64))
            level_starts.append(np.minimum(
                np.arange(nodes + 1, dtype=np.int64) * fanout, children))
            next_page += nodes
            children = nodes
        return cls(key_codec, keys_raw, values_raw, leaf_starts,
                   np.arange(leaves, dtype=np.int64),
                   level_pages[::-1], level_starts[::-1])

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

    def nearest_positions(self, key: bytes, count: int, stats=None,
                          subset: np.ndarray | None = None) -> np.ndarray:
        """Global entry positions of the ``count`` nearest-by-key entries,
        ascending: the set the node path's bidirectional merge emits
        (forward wins distance ties).  The merge takes ``f`` entries from
        the split on and the rest behind it, so the answer is one run of
        positions and ``f`` is counted, not sorted for.

        ``subset`` (ascending entry positions; integer keys only) makes
        that the ``count`` nearest *among those positions*: what the same
        merge emits when it passes over every other entry and stops at the
        ``count``-th one it accepts, or where both directions run dry — a
        run of the subset.

        When ``stats`` is given, the page-read sequence the node path would
        have issued for the same call is replayed into it.
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
            run = slice(start, min(n, split + count))
            behind, total = split - start, min(count, n)
        else:
            if self._kind != "uint":
                raise ValueError("subset lookups need integer keys")
            at = int(subset.searchsorted(split))
            run = subset[max(0, at - count):at + count]
            behind, total = min(at, count), min(count, subset.size)
        words = self._key_words(self.key_S[run])
        dist = self._distances(key, words, behind)
        # Forward row r is picked iff it is no farther than row r - total
        # (always, where there is none): true on a prefix of the rows.
        first, last = max(behind, total), min(dist.size, behind + total)
        ahead = first - behind + np.count_nonzero(self._no_farther(
            key, words, dist, slice(first, last),
            slice(first - total, last - total)))
        low = behind + ahead - total  # the row of the farthest backward pick
        if stats is not None:
            window = None
            if subset is None:
                taken, window = (ahead, total - ahead), (start, words, dist)
            elif total < count:
                taken = n - split, split  # both directions ran dry
            else:
                # Up to the last pick: the farther of the two frontier
                # picks, the backward one (row low) on a tie.
                pick = behind + ahead - 1
                if not ahead or ahead < total and self._no_farther(
                        key, words, dist, slice(pick, pick + 1),
                        slice(low, low + 1))[0]:
                    pick = low
                taken = self._raw_taken(key, split, int(run[pick]))
            stats.record_read_many(
                self._nearest_trace(key, leaf, split, taken, window))
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
        consumption, and leaf-boundary page reads are replayed into
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
        starts, pages = self.leaf_starts, self.leaf_pages
        trace = self._descent_pages(leaf)
        if start < n and start == int(starts[leaf + 1]):
            # The landing leaf has no in-range entry: the node path walks
            # one sibling right before it can decide anything.
            leaf += 1
            trace = np.append(trace, pages[leaf])
        if stats is not None:
            stats.record_read_many(trace)
        keys_raw, values_raw = self.keys_raw, self.values_raw
        position = start
        while position < end:
            yield keys_raw[position].tobytes(), values_raw[position].tobytes()
            position += 1
            if position < n and position == int(starts[leaf + 1]):
                leaf += 1
                if stats is not None:
                    stats.record_read(int(pages[leaf]))

    # -- distance kernels -------------------------------------------------

    def _scalar(self, key: bytes):
        return np.frombuffer(key, dtype=f"S{self.key_width}", count=1)[0]

    def _distances(self, key: bytes, words: np.ndarray,
                   behind: int) -> np.ndarray:
        """|key distance| of keys given as native words (:meth:`_key_words`),
        the first ``behind`` of them below ``key`` and the rest not (so in
        a run of the column both halves ascend away from the split).  An
        integer distance is its leading word, the head difference minus
        the borrow out of the tail words: exact up to 8 bytes, else up to
        ties (:meth:`_exact`)."""
        column = words[:, 0]
        if self._kind == "float":
            sign = np.uint64(1) << np.uint64(63)
            column = np.where(column & sign != 0, column & ~sign,
                              ~column).view(np.float64)
            head = np.float64(self.key_codec.decode(key))
        else:
            target = np.frombuffer(key.ljust(8 * self._words, b"\0"),
                                   dtype=">u8").astype(np.uint64)
            head = target[0]
        # Below the key the difference is negative: negated, it is
        # head - column exactly (in float too), so nothing needs abs().
        dist = column - head
        np.negative(dist[:behind], out=dist[:behind])
        if self._words > 1:  # m - s borrows where m's tail is below s's
            for part, m, s in ((dist[behind:], words[behind:], target),
                               (dist[:behind], target, words[:behind])):
                borrow = m[..., -1] < s[..., -1]
                for word in range(self._words - 2, 0, -1):
                    borrow = (m[..., word] < s[..., word]) | (
                        (m[..., word] == s[..., word]) & borrow)
                part -= borrow
        return dist

    def _key_words(self, keys: np.ndarray) -> np.ndarray:
        """Native words of a 1-D ``S`` array of keys, zero-padded right."""
        width = self.key_width
        if width % 8:
            padded = np.zeros((keys.size, 8 * self._words), dtype=np.uint8)
            padded[:, :width] = keys.view(np.uint8).reshape(-1, width)
            keys = padded
        return keys.view(">u8").astype(np.uint64).reshape(-1, self._words)

    def _no_farther(self, key: bytes, words: np.ndarray, dist: np.ndarray,
                    rows: slice, partners: slice) -> np.ndarray:
        """Whether each key of ``rows`` is at most as far from ``key`` as
        the key at the same place of ``partners`` (rows of ``words`` and of
        their :meth:`_distances`): the leading words compared, the pairs
        whose leading words tie settled exactly (:meth:`_exact`)."""
        near, far = dist[rows], dist[partners]
        closer = near <= far
        if self._words > 1:
            tied = (near == far).nonzero()[0]
            if tied.size:
                closer[tied] = (self._exact(key, words[rows][tied])
                                <= self._exact(key, words[partners][tied]))
        return closer

    def _exact(self, key: bytes, words: np.ndarray) -> np.ndarray:
        """|key distance| of rows of key words as an object array of
        Python integers: the one exact comparison at any key width, for
        the rare entries whose leading distance words tie."""
        target = int.from_bytes(key.ljust(8 * self._words, b"\0"), "big")
        raw, width = words.astype(">u8").tobytes(), 8 * self._words
        return np.array([abs(int.from_bytes(raw[at:at + width], "big")
                             - target) for at in range(0, len(raw), width)],
                        dtype=object)

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

    # -- synthetic I/O traces ---------------------------------------------

    def _ancestor_table(self) -> np.ndarray:
        """``(leaves, height)`` page ids, row ``l`` the ancestor chain of
        leaf ``l`` root first and then the leaf: what a descent reads."""
        leaves = self.leaf_pages.size
        table = np.empty((leaves, len(self.level_pages) + 1), dtype=np.int64)
        table[:, -1] = self.leaf_pages
        index = np.arange(leaves)
        for level in range(len(self.level_pages) - 1, -1, -1):
            index = self.level_starts[level].searchsorted(
                index, side="right") - 1
            table[:, level] = self.level_pages[level][index]
        return table

    def _descent_pages(self, leaf_index: int) -> np.ndarray:
        """The pages a descent to this leaf reads, root first and the leaf
        last: a row of the ancestor table (:meth:`_ancestor_table`)."""
        return self._descents[leaf_index]

    def _nearest_trace(self, key: bytes, leaf: int, split: int,
                       taken: tuple[int, int], window: tuple | None
                       ) -> np.ndarray:
        """The node path's exact read sequence for one ``nearest`` call
        that ``taken`` (forward, backward) entries from each direction,
        picked or passed over; ``window`` is a plain lookup's (first
        position, key words, distances), which hold every pick.

        Both scan generators descend (the descent row appears twice); each
        may read one sibling before producing its first entry.  After
        that, a stream reads its next leaf on the lookahead ``next()``
        that follows each pick, so every later read is keyed to the pick
        that triggered it and goes in the merge's order of those picks:
        by distance, forward first on a tie, backward nearest first.
        """
        n = self.count
        starts, pages = self.leaf_starts, self.leaf_pages
        # Forward entry i (position split + i) is consumed after the pick
        # of entry i - 1 and reads a page iff it opens a leaf: those
        # starting in (split, split + limit_f].  Backward entry t, at
        # split - 1 - t, reads the left sibling iff it closes its leaf:
        # those starting in [split - limit_b, split).
        limit_f = max(0, min(taken[0], n - split - 1))
        limit_b = max(0, min(taken[1], split - 1))
        lo_f, hi_f, lo_b, hi_b = starts.searchsorted(
            (split + 1, split + limit_f + 1, split - limit_b, split))
        picks = np.concatenate([starts[lo_f:hi_f] - 1,
                                starts[lo_b:hi_b][::-1]])
        if window is None:  # passed-over picks; reversed, lower keys first
            words = self._key_words(self.key_S[picks[::-1]])[::-1]
            dist = self._distances(key, words[::-1], hi_b - lo_b)[::-1]
        else:
            words, dist = (part[picks - window[0]] for part in window[1:])
        order = dist.argsort(kind="stable")
        ranked = dist[order]
        if self._words > 1 and (ranked[1:] == ranked[:-1]).any():
            order = self._exact(key, words).argsort(kind="stable")
        descent = self._descent_pages(leaf)
        sibling_f = split < n and split == starts[leaf + 1]
        sibling_b = 0 < split == starts[leaf]
        return np.concatenate([
            descent, pages[leaf + 1:leaf + 1 + sibling_f],
            descent, pages[leaf - 1:leaf - 1 + sibling_b],
            np.concatenate([pages[lo_f:hi_f],
                            pages[lo_b - 1:hi_b - 1][::-1]])[order]])


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
    tree = PackedTree.from_sorted(key_codec, keys_raw, values, leaf,
                                  internal)
    if (tree.key_S[1:] < tree.key_S[:-1]).any():
        raise ValueError("bulk_load input must be sorted by key")
    stats = IOStats()
    stats.record_write_run(0, tree.num_pages)
    return tree, stats
