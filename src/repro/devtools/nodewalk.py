"""A bulk-loaded B+-tree walked node by node: the packed tree's reference.

:class:`~repro.btree.packed.PackedTree` answers a lookup from two sorted
columns and *replays* the page reads a node-by-node walk of the tree
would issue.  This module is that walk, written the plain way, so the
tests (the scalar oracle of ``tests/test_core_engine.py``) and the
sanitizer (:mod:`repro.devtools.sanitize`) can diff the columns with it:
answers, page ids, their order and hence the random/sequential split.

Key-sorted entries are laid out the way a bottom-up bulk load lays them
out — full leaves on pages ``0..L-1``, then each internal level on the
next pages, bottom-up, ``internal_capacity + 1`` children a node — and
every node a lookup visits is one page read recorded into the caller's
:class:`~repro.storage.stats.IOStats`.  Keys are raw bytes whose bytewise
order is their codec's numeric order.  It is read-only: no page bytes,
no inserts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Callable, Iterable, Iterator

Entry = tuple[bytes, bytes]


class NodeWalk:
    """Sorted ``(key, value)`` entries as the nodes of a bulk-loaded tree.

    ``leaves[p]`` is leaf page ``p`` as ``(keys, values)``, its siblings
    the pages ``p - 1`` and ``p + 1``; ``nodes[p]`` is internal page ``p``
    as ``(separators, children)``, ``separators[i]`` the least key under
    ``children[i + 1]``; ``root`` is the last page allocated.
    """

    def __init__(self, key_codec: Any, entries: Iterable[Entry],
                 leaf_capacity: int, internal_capacity: int) -> None:
        if leaf_capacity < 1 or internal_capacity < 1:
            raise ValueError("a leaf needs room for an entry and an "
                             "internal node for two children")
        self.key_codec = key_codec
        pairs = list(entries)
        self.count = len(pairs)
        self.leaves = [([key for key, _ in run], [value for _, value in run])
                       for run in (pairs[start:start + leaf_capacity]
                                   for start in range(0, len(pairs),
                                                      leaf_capacity))]
        self.nodes: dict[int, tuple[list[bytes], list[int]]] = {}
        level = list(range(len(self.leaves)))
        least = [keys[0] for keys, _ in self.leaves]
        fanout = internal_capacity + 1
        self.height = 1 if level else 0
        while len(level) > 1:
            parents: list[int] = []
            for start in range(0, len(level), fanout):
                page = len(self.leaves) + len(self.nodes)
                self.nodes[page] = (least[start + 1:start + fanout],
                                    level[start:start + fanout])
                parents.append(page)
            level, least = parents, least[::fanout]
            self.height += 1
        self.root = level[0] if level else None

    def nearest(self, key: bytes, count: int, stats: Any,
                accept: Callable[[Entry], bool] | None = None
                ) -> list[Entry]:
        """Up to ``count`` entries nearest ``key`` by decoded key (Algo. 2
        line 4): from the leaf position of ``key`` one scan runs forward
        and one backward, and the next entry taken is always the nearer
        of their heads, forward on a tie.  ``accept`` makes the walk pass
        over the entries failing it, up to the ``count``-th it accepts or
        until both scans run dry."""
        if count <= 0 or not self.count:
            return []
        decode = self.key_codec.decode
        target = decode(key)
        forward, backward = self._forward(key, stats), self._backward(key,
                                                                      stats)
        ahead, behind = next(forward, None), next(backward, None)
        found: list[Entry] = []
        while len(found) < count and (ahead or behind):
            if behind is None or (ahead is not None and abs(
                    decode(ahead[0]) - target) <= abs(
                    decode(behind[0]) - target)):
                entry, ahead = ahead, next(forward, None)
            else:
                entry, behind = behind, next(backward, None)
            if accept is None or accept(entry):
                found.append(entry)
        return found

    def range(self, low: bytes, high: bytes, stats: Any) -> Iterator[Entry]:
        """Entries with ``low <= key <= high`` in key order, from the
        first leaf that can hold ``low``."""
        if not self.count or low > high:
            return
        for page in range(self._leaf(low, stats, bisect_left),
                          len(self.leaves)):
            stats.record_read(page)
            keys, values = self.leaves[page]
            for at in range(bisect_left(keys, low), len(keys)):
                if keys[at] > high:
                    return
                yield keys[at], values[at]

    def _leaf(self, key: bytes, stats: Any, bisect=bisect_right) -> int:
        """The leaf a descent for ``key`` lands on, each internal node on
        the way a page read.  ``bisect_left`` takes the leftmost subtree
        that can hold ``key`` (duplicates may span leaves)."""
        page = self.root
        while page in self.nodes:
            stats.record_read(page)
            separators, children = self.nodes[page]
            page = children[bisect(separators, key)]
        return page

    def _forward(self, key: bytes, stats: Any) -> Iterator[Entry]:
        """Entries with key >= ``key``, ascending, along right siblings."""
        landing = self._leaf(key, stats)
        for page in range(landing, len(self.leaves)):
            stats.record_read(page)
            keys, values = self.leaves[page]
            start = bisect_left(keys, key) if page == landing else 0
            for at in range(start, len(keys)):
                yield keys[at], values[at]

    def _backward(self, key: bytes, stats: Any) -> Iterator[Entry]:
        """Entries with key < ``key``, descending, along left siblings."""
        landing = self._leaf(key, stats)
        for page in range(landing, -1, -1):
            stats.record_read(page)
            keys, values = self.leaves[page]
            start = bisect_left(keys, key) if page == landing else len(keys)
            for at in range(start - 1, -1, -1):
                yield keys[at], values[at]
