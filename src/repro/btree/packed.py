"""Packed-array B+-tree: every entry in two sorted columns.

A bulk-built tree is fully described by its entries in key order plus the
page geometry bulk loading gives them, so that is all this module keeps:
every key and value in one contiguous sorted array each, the leaf
boundaries and the page ids of the leaf and internal levels.  On that,

* descent is ``np.searchsorted`` over the per-leaf minimum keys,
* the bidirectional nearest-by-key merge is one ``searchsorted`` of the
  forward window's key distances into the backward window's (the
  backward ranks are the complement), on the leading 64-bit word of each
  distance when keys are wider than 8 bytes, with the rare leading-word
  ties settled exactly — over a slice of the key column either side of
  the query key or, for a lookup among a subset of the entries (a
  filtered query's eligible ones), over the subset's positions there, and
* range scans slice the arrays directly.

For the RDB-trees (:mod:`repro.core.rdbtree`) these columns **are the
tree**: :meth:`PackedTree.from_sorted` lays sorted entries out exactly as
a bottom-up bulk load of the node-based :class:`~repro.btree.tree.BPlusTree`
would, and nothing else is built, saved or read.  The page geometry is an
accounting model, not a storage layout: :meth:`nearest_positions` and
:meth:`range_entries` replay, against
:class:`~repro.storage.stats.IOStats`, precisely the page-read sequence a
node-by-node walk of that tree would issue, so the paper's I/O figures
are reproduced without the pages existing.  The node-based tree remains
the substrate of the one-dimensional baselines (which keep such a layout
as a mirror of their pages) and the oracle the tests and the sanitizer
diff this module against.

Arrays serialise through :func:`repro.storage.codecs.pack_arrays` into a
``tree_<i>.packed`` snapshot file; an mmap reopen maps them zero-copy,
so a process pool shares one physical copy across workers.
"""

from __future__ import annotations

import numpy as np

from repro.storage.codecs import Codec, Float64Codec, UInt64Codec, UIntCodec


def key_kind(codec: Codec) -> str | None:
    """``'uint'``/``'float'`` when the codec's keys admit vectorised
    distance arithmetic, else ``None`` (packing disabled)."""
    if isinstance(codec, Float64Codec):
        return "float"
    if isinstance(codec, (UIntCodec, UInt64Codec)):
        return "uint"
    return None


def supports_packing(codec: Codec) -> bool:
    """Whether a tree keyed by this codec can carry a packed layout."""
    return key_kind(codec) is not None


class PackedTree:
    """One bulk-built B+-tree as contiguous sorted arrays.

    Parameters
    ----------
    key_codec:
        The tree's key codec (must satisfy :func:`supports_packing`).
    keys_raw / values_raw:
        ``(n, key_width)`` / ``(n, value_width)`` uint8 arrays holding every
        entry in global key order — the exact bytes stored in the leaves.
        May be read-only views over an mmap'd sidecar.
    leaf_starts:
        ``(L + 1,)`` prefix array: leaf ``l`` holds entries
        ``[leaf_starts[l], leaf_starts[l + 1])``.
    leaf_pages:
        ``(L,)`` page ids of the leaves, left to right.
    level_pages / level_starts:
        Per internal level (root level first): the level's node page ids and
        the prefix array of its nodes' child counts.  Used only to synthesise
        the descent portion of the I/O trace.
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
        #: For keys wider than 8 bytes, a zero-copy (head, tail) view of
        #: every key: its leading big-endian word and the bytes after it.
        self._wide = None
        if kind == "uint" and self.key_width > 8:
            self._wide = self.keys_raw.view(
                [("head", ">u8"), ("tail", f"S{self.key_width - 8}")]).ravel()

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
        in exactly the order the node path's bidirectional merge emits them
        (forward wins distance ties; within a direction, key order).

        ``subset`` (ascending entry positions; integer keys only) makes
        that the ``count`` nearest *among those positions*: what the same
        merge emits when it passes over every other entry and stops at the
        ``count``-th one it accepts, or where both directions run dry.

        When ``stats`` is given, the page-read sequence the node path would
        have issued for the same call is replayed into it.
        """
        n = self.count
        if count <= 0 or n == 0:
            return np.empty(0, dtype=np.int64)
        scalar = self._scalar(key)
        gbl = int(self.key_S.searchsorted(scalar, side="left"))
        leaf = max(0, int(self.min_key_S.searchsorted(scalar,
                                                      side="right")) - 1)
        split = max(gbl, int(self.leaf_starts[leaf]))
        if subset is None:
            fwd = slice(split, split + min(count, n - split))
            bwd = slice(split - min(count, split), split)
            total = min(count, n)
        else:
            if self._kind != "uint":
                raise ValueError("subset lookups need integer keys")
            at = int(subset.searchsorted(split))
            fwd, bwd = subset[at:at + count], subset[max(0, at - count):at]
            total = min(count, subset.size)
        rank_f, rank_b = self._merge_ranks(key, fwd, bwd, total)
        out = np.empty(total, dtype=np.int64)
        if subset is None:
            out[rank_f] = np.arange(split, split + rank_f.size)
            out[rank_b] = np.arange(split - 1, split - 1 - rank_b.size, -1)
        else:
            out[rank_f] = fwd[:rank_f.size]
            out[rank_b] = bwd[::-1][:rank_b.size]
        if stats is not None:
            if subset is None:
                taken = None
            elif total < count:
                taken = n - split, split  # both directions ran dry
            else:
                taken = self._raw_taken(key, split, int(out[-1]))
            stats.record_read_many(
                self._nearest_trace(key, leaf, split, rank_f, rank_b, taken))
        return out

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
        trace.append(int(pages[leaf]))
        if start < n and start == int(starts[leaf + 1]):
            # The landing leaf has no in-range entry: the node path walks
            # one sibling right before it can decide anything.
            leaf += 1
            trace.append(int(pages[leaf]))
        if stats is not None:
            stats.record_read_many(np.asarray(trace, dtype=np.int64))
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

    def _merge_ranks(self, key: bytes, fwd, bwd,
                     total: int) -> tuple[np.ndarray, np.ndarray]:
        """Ranks, in the merge by key distance of a forward and a backward
        window, of the forward and of the backward entries that land below
        ``total`` (each in its direction's order, nearest first).

        A window is a slice of the key column or an ascending array of
        positions in it, ``fwd`` at or after the split, ``bwd`` before.
        One ``searchsorted`` of the forward distances into the backward
        ones ranks the forward entries (they win ties); ranks are a
        permutation, so the backward ones fill the slots left, in order.
        """
        dist_f, dist_b = self._window_distances(key, fwd, bwd)
        nearer = dist_b.searchsorted(dist_f, side="left")
        if self._wide is not None and dist_b.size:
            tied = (dist_b.take(nearer, mode="clip") == dist_f).nonzero()[0]
            if tied.size:
                self._settle_ties(key, fwd, bwd, dist_f, dist_b, nearer, tied)
        rank_f = nearer + np.arange(dist_f.size, dtype=np.int64)
        rank_f = rank_f[:int(rank_f.searchsorted(total))]
        from_forward = np.zeros(total, dtype=bool)
        from_forward[rank_f] = True
        return rank_f, (~from_forward).nonzero()[0]

    def _window_distances(self, key: bytes, fwd,
                          bwd) -> tuple[np.ndarray, np.ndarray]:
        """Ascending |key distance| arrays for the windows of
        :meth:`_merge_ranks` (the backward one nearest first), comparable
        across the two arrays.  For keys wider than 8 bytes they hold the
        *leading word* of each distance — head minus head minus the borrow
        out of the tail bytes — which orders distances up to ties
        (:meth:`_settle_ties`)."""
        if self._wide is not None:
            head = np.uint64(int.from_bytes(key[:8], "big"))
            tail = key[8:]
            fwd = self._wide[fwd]
            bwd = self._wide[bwd][::-1]
            return (fwd["head"].astype(np.uint64) - head
                    - (fwd["tail"] < tail),
                    head - bwd["head"].astype(np.uint64)
                    - (bwd["tail"] > tail))
        target = self.key_codec.decode(key)
        fwd = self._numeric_window(fwd)
        bwd = self._numeric_window(bwd)[::-1]
        if self._kind == "uint":
            target = np.uint64(target)
        else:
            target = np.float64(target)
        # Windows lie on the proper side of the split, so both differences
        # are non-negative and need no abs().
        return fwd - target, target - bwd

    def _settle_ties(self, key: bytes, fwd, bwd, dist_f: np.ndarray,
                     dist_b: np.ndarray, nearer: np.ndarray,
                     tied: np.ndarray) -> None:
        """Make ``nearer`` exact for the forward entries ``tied`` whose
        leading distance word equals some backward entry's.

        Rare (a forward and a backward distance must agree in their top
        64 bits), so the tied entries of both windows are compared as
        exact Python integers: among the tied backward entries, those
        strictly nearer replace those with a smaller leading word, which
        ``nearer`` already counts.
        """
        tied_b = np.flatnonzero(np.isin(dist_b, dist_f[tied]))
        target = int.from_bytes(key, "big")
        fwd, bwd = (np.arange(w.start, w.stop) if isinstance(w, slice) else w
                    for w in (fwd, bwd))
        exact_f = self._exact_keys(fwd[tied]) - target
        exact_b = target - self._exact_keys(bwd[::-1][tied_b])
        nearer[tied] += (np.searchsorted(exact_b, exact_f, side="left")
                         - np.searchsorted(dist_b[tied_b], dist_f[tied],
                                           side="left"))

    def _exact_keys(self, positions: np.ndarray) -> np.ndarray:
        """Keys at ``positions`` as an object array of Python integers."""
        width = self.key_width
        raw = self.keys_raw[positions].tobytes()
        return np.array([int.from_bytes(raw[at:at + width], "big")
                         for at in range(0, len(raw), width)], dtype=object)

    def _numeric_window(self, window) -> np.ndarray:
        raw = self.keys_raw[window]
        if self._kind == "float":
            bits = raw.view(">u8").ravel().astype(np.uint64)
            sign = np.uint64(1) << np.uint64(63)
            decoded = np.where(bits & sign != 0, bits & ~sign, ~bits)
            return decoded.view(np.float64)
        width = self.key_width
        padded = np.zeros((raw.shape[0], 8), dtype=np.uint8)
        padded[:, 8 - width:] = raw
        return padded.view(">u8").ravel().astype(np.uint64)

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

    def _descent_pages(self, leaf_index: int) -> list[int]:
        """Root-first internal pages a descent to this leaf reads (its
        ancestor chain — the same pages whichever bisect variant routed
        there)."""
        pages: list[int] = []
        index = leaf_index
        for level in range(len(self.level_pages) - 1, -1, -1):
            index = int(self.level_starts[level].searchsorted(
                index, side="right")) - 1
            pages.append(int(self.level_pages[level][index]))
        pages.reverse()
        return pages

    def _nearest_trace(self, key: bytes, leaf: int, split: int,
                       rank_f: np.ndarray, rank_b: np.ndarray,
                       taken: tuple[int, int] | None) -> np.ndarray:
        """The node path's exact read sequence for one ``nearest`` call,
        given the merge ranks of the picked forward / backward entries
        and, when the merge passed over entries (a ``subset`` lookup), how
        many it ``taken`` from each direction in all.

        Both scan generators descend (the internal chain appears twice) and
        read the landing leaf; each may read one sibling before producing
        its first entry.  After that, a stream reads its next leaf on the
        lookahead ``next()`` that follows each pick, so every later read is
        keyed to the pick that triggered it: by its merge rank or, picks
        passed over having none, by ranking those boundary entries alone.
        """
        n = self.count
        starts, pages = self.leaf_starts, self.leaf_pages
        descent = self._descent_pages(leaf)
        descent.append(int(pages[leaf]))
        trace = list(descent)
        if split < n and split == int(starts[leaf + 1]):
            trace.append(int(pages[leaf + 1]))
        trace += descent
        if 0 < split == int(starts[leaf]):
            trace.append(int(pages[leaf - 1]))
        taken_f, taken_b = taken or (rank_f.size, rank_b.size)
        # Forward: entry i (position split + i) is consumed by the call
        # after forward pick #i, and reads a page iff it opens a new leaf:
        # the leaves starting in (split, split + limit].
        limit = min(taken_f, n - split - 1)
        lo = int(starts.searchsorted(split + 1, side="left"))
        hi = max(lo, int(starts.searchsorted(split + limit, side="right")))
        opened, pages_f = starts[lo:hi], pages[lo:hi]
        # Backward: entry t (position split - 1 - t) reads its leaf's left
        # sibling iff it closes the current leaf: the leaves starting in
        # [split - limit, split).
        limit = min(taken_b, split - 1)
        lo = int(starts.searchsorted(split - limit, side="left"))
        hi = max(lo, int(starts.searchsorted(split - 1, side="right")))
        closed, pages_b = starts[lo:hi], pages[lo - 1:hi - 1]
        if taken is None:
            when_f = rank_f[opened - (split + 1)]
            when_b = rank_b[(split - 1) - closed]
        else:
            when_f, when_b = self._merge_ranks(key, opened - 1, closed,
                                               opened.size + closed.size)
            when_b = when_b[::-1]
        order = np.argsort(np.concatenate([when_f, when_b]), kind="stable")
        return np.concatenate([np.asarray(trace, dtype=np.int64),
                               np.concatenate([pages_f, pages_b])[order]])

    # -- serialisation ----------------------------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flat named-array form for :func:`repro.storage.codecs.pack_arrays`."""
        arrays = {
            "keys": self.keys_raw,
            "values": self.values_raw,
            "leaf_starts": self.leaf_starts,
            "leaf_pages": self.leaf_pages,
            "num_levels": np.asarray([len(self.level_pages)],
                                     dtype=np.int64),
        }
        for level, (page_ids, child_starts) in enumerate(
                zip(self.level_pages, self.level_starts)):
            arrays[f"level_{level}_pages"] = page_ids
            arrays[f"level_{level}_starts"] = child_starts
        return arrays

    @classmethod
    def from_arrays(cls, key_codec: Codec,
                    arrays: dict[str, np.ndarray]) -> "PackedTree":
        """Rebuild from :meth:`to_arrays` output (views stay zero-copy)."""
        num_levels = int(arrays["num_levels"][0])
        return cls(
            key_codec, arrays["keys"], arrays["values"],
            arrays["leaf_starts"], arrays["leaf_pages"],
            [arrays[f"level_{level}_pages"] for level in range(num_levels)],
            [arrays[f"level_{level}_starts"] for level in range(num_levels)])
