"""Disk-paged B+-tree with bulk loading and nearest-by-key scans.

This is the hierarchical substrate under the baselines that index
one-dimensional keys (iDistance, QALSH, Multicurves) and — bulk-loaded
from an RDB-tree's columns (:meth:`BPlusTree.from_columns`) — the
node-by-node oracle of that array-held tree (Sec. 3.2).  All node accesses
flow through a buffer pool so the disk-access analysis of Sec. 4.4.1 —
``O(log_θ n + α/Ω)`` pages per candidate retrieval — is directly
measurable.

Keys and values are fixed-width byte strings produced by
:mod:`repro.storage.codecs`; key codecs preserve numeric order bytewise, so
nodes compare raw bytes.  Duplicate keys are allowed (distinct points can
share a Hilbert key).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator

import numpy as np

from repro.btree.node import (
    NO_PAGE,
    InternalNode,
    LeafNode,
    internal_capacity,
    leaf_capacity,
    parse_node,
    serialize_internal,
    serialize_leaf,
)
from repro.btree.packed import PackedTree, supports_packing
from repro.storage.buffer import BufferPool
from repro.storage.codecs import BytesCodec, Codec
from repro.storage.pages import DEFAULT_PAGE_SIZE, InMemoryPageStore, PageStore


class BPlusTree:
    """A B+-tree over fixed-width keys and values on a page store.

    Parameters
    ----------
    key_codec / value_codec:
        Fixed-width codecs.  ``key_codec.decode`` must return a numeric type
        (used by :meth:`nearest` to order entries by key distance).
    store:
        Backing page store; a private in-memory store is created by default.
    cache_pages:
        Buffer-pool capacity (0 = caching off, the paper's methodology).
    leaf_capacity_override:
        Cap on entries per leaf.  The RDB-tree passes the paper's Eq. (4)
        order Ω here so leaf occupancy matches the paper's accounting.
    """

    def __init__(self, key_codec: Codec, value_codec: Codec,
                 store: PageStore | None = None, cache_pages: int = 0,
                 leaf_capacity_override: int | None = None,
                 page_size: int = DEFAULT_PAGE_SIZE) -> None:
        self._store = store if store is not None else InMemoryPageStore(page_size)
        self.pool = BufferPool(self._store, capacity=cache_pages)
        self.key_codec = key_codec
        self.value_codec = value_codec
        self.key_width = key_codec.width
        self.value_width = value_codec.width
        page = self._store.page_size
        layout_leaf = leaf_capacity(page, self.key_width, self.value_width)
        if layout_leaf < 1:
            raise ValueError(
                f"page size {page} cannot hold a single "
                f"({self.key_width}+{self.value_width})-byte entry"
            )
        if leaf_capacity_override is not None:
            if leaf_capacity_override < 1:
                raise ValueError("leaf capacity override must be >= 1")
            self.leaf_capacity = min(layout_leaf, leaf_capacity_override)
        else:
            self.leaf_capacity = layout_leaf
        self.internal_capacity = internal_capacity(page, self.key_width)
        if self.internal_capacity < 2:
            raise ValueError(f"page size {page} too small for internal nodes")
        self._root: int = NO_PAGE
        self._height = 0
        self._count = 0
        #: Packed-array mirror of a bulk-built tree (None until built).
        self._packed: PackedTree | None = None

    @classmethod
    def from_columns(cls, packed: PackedTree, leaf_capacity: int,
                     page_size: int = DEFAULT_PAGE_SIZE) -> "BPlusTree":
        """Node-path twin of a packed layout: the same entries bulk-loaded
        onto real pages with no mirror kept, so every read walks nodes —
        the oracle the tests, ``bench_hotpath`` and the sanitizer diff
        the array path against."""
        tree = cls(packed.key_codec, BytesCodec(packed.value_width),
                   leaf_capacity_override=leaf_capacity, page_size=page_size)
        tree.bulk_load(packed.entries(range(packed.count)))
        tree._packed = None
        return tree

    # -- informational -------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def height(self) -> int:
        """Number of levels (0 for an empty tree, 1 for a lone leaf)."""
        return self._height

    @property
    def stats(self):
        return self._store.stats

    def size_bytes(self) -> int:
        """On-disk footprint of the tree."""
        return self._store.size_bytes()

    # -- bulk loading -----------------------------------------------------

    def bulk_load(self, entries: Iterable[tuple[bytes, bytes]],
                  fill: float = 1.0) -> None:
        """Build the tree bottom-up from key-sorted ``(key, value)`` pairs.

        Construction writes each page exactly once (sequential writes), which
        is what makes the paper's index-construction phase feasible at scale.
        """
        if self._count:
            raise RuntimeError("bulk_load requires an empty tree")
        if not 0.0 < fill <= 1.0:
            raise ValueError(f"fill factor must be in (0, 1], got {fill}")
        per_leaf = max(1, int(self.leaf_capacity * fill))
        # Capture the entry bytes for the packed read path while they stream
        # past: only with the pool off (the synthetic I/O trace models
        # uncached reads, see _active_packed) and on a fresh store (the
        # mirror's geometry assumes page ids count up from 0).
        capture = (supports_packing(self.key_codec)
                   and self.pool.capacity == 0 and not self._store.num_pages)
        key_buffer = bytearray()
        value_buffer = bytearray()
        leaf_pages: list[int] = []
        leaf_min_keys: list[bytes] = []
        pending = LeafNode()
        previous_key: bytes | None = None
        for key, value in entries:
            if len(key) != self.key_width or len(value) != self.value_width:
                raise ValueError("entry width does not match codecs")
            if previous_key is not None and key < previous_key:
                raise ValueError("bulk_load input must be sorted by key")
            previous_key = key
            if capture:
                key_buffer += key
                value_buffer += value
            pending.keys.append(key)
            pending.values.append(value)
            self._count += 1
            if len(pending) >= per_leaf:
                self._flush_bulk_leaf(pending, leaf_pages, leaf_min_keys)
                pending = LeafNode()
        if pending.keys:
            self._flush_bulk_leaf(pending, leaf_pages, leaf_min_keys)
        if not leaf_pages:
            return
        self._link_siblings(leaf_pages)
        self._root, self._height = self._build_internal_levels(
            leaf_pages, leaf_min_keys)
        if capture:
            # Pages were allocated leaves first, then level by level: the
            # geometry from_sorted lays out.
            self._packed = PackedTree.from_sorted(
                self.key_codec,
                np.frombuffer(bytes(key_buffer), dtype=np.uint8).reshape(
                    self._count, self.key_width),
                np.frombuffer(bytes(value_buffer), dtype=np.uint8).reshape(
                    self._count, self.value_width),
                per_leaf, self.internal_capacity)

    def _flush_bulk_leaf(self, node: LeafNode, pages: list[int],
                         min_keys: list[bytes]) -> None:
        page_id = self.pool.allocate()
        pages.append(page_id)
        min_keys.append(node.keys[0])
        self._write_leaf(page_id, node)

    def _link_siblings(self, leaf_pages: list[int]) -> None:
        for index, page_id in enumerate(leaf_pages):
            node = self._read_leaf(page_id)
            node.left = leaf_pages[index - 1] if index > 0 else NO_PAGE
            node.right = (leaf_pages[index + 1]
                          if index + 1 < len(leaf_pages) else NO_PAGE)
            self._write_leaf(page_id, node)

    def _build_internal_levels(self, child_pages: list[int],
                               child_min_keys: list[bytes]
                               ) -> tuple[int, int]:
        """Returns (root page, height)."""
        height = 1
        fanout = self.internal_capacity + 1
        while len(child_pages) > 1:
            next_pages: list[int] = []
            next_min_keys: list[bytes] = []
            for start in range(0, len(child_pages), fanout):
                group = child_pages[start:start + fanout]
                group_keys = child_min_keys[start:start + fanout]
                node = InternalNode(keys=group_keys[1:], children=group)
                page_id = self.pool.allocate()
                self._write_internal(page_id, node)
                next_pages.append(page_id)
                next_min_keys.append(group_keys[0])
            child_pages, child_min_keys = next_pages, next_min_keys
            height += 1
        return child_pages[0], height

    # -- point insert (Sec. 3.6 updates) -------------------------------

    def insert(self, key: bytes, value: bytes) -> None:
        """Insert one entry (duplicates allowed), splitting as needed.

        Drops the packed mirror for good (the arrays cannot absorb a page
        split): later reads walk the nodes.
        """
        if len(key) != self.key_width or len(value) != self.value_width:
            raise ValueError("entry width does not match codecs")
        self._packed = None
        if self._root == NO_PAGE:
            node = LeafNode(keys=[key], values=[value])
            self._root = self.pool.allocate()
            self._write_leaf(self._root, node)
            self._height = 1
            self._count = 1
            return
        split = self._insert_recursive(self._root, key, value)
        self._count += 1
        if split is not None:
            sep_key, right_page = split
            root = InternalNode(keys=[sep_key],
                                children=[self._root, right_page])
            self._root = self.pool.allocate()
            self._write_internal(self._root, root)
            self._height += 1

    def _insert_recursive(self, page_id: int, key: bytes,
                          value: bytes) -> tuple[bytes, int] | None:
        node = self._read_node(page_id)
        if isinstance(node, LeafNode):
            return self._insert_into_leaf(page_id, node, key, value)
        child_index = bisect_right(node.keys, key)
        split = self._insert_recursive(node.children[child_index], key, value)
        if split is None:
            return None
        sep_key, right_page = split
        # Directly after the child that split — not bisect_right of the
        # separator, which among equal separators (duplicate keys spanning
        # leaves) would file the new page behind the wrong sibling.
        node.keys.insert(child_index, sep_key)
        node.children.insert(child_index + 1, right_page)
        if len(node.keys) <= self.internal_capacity:
            self._write_internal(page_id, node)
            return None
        return self._split_internal(page_id, node)

    def _insert_into_leaf(self, page_id: int, node: LeafNode, key: bytes,
                          value: bytes) -> tuple[bytes, int] | None:
        position = bisect_right(node.keys, key)
        node.keys.insert(position, key)
        node.values.insert(position, value)
        if len(node) <= self.leaf_capacity:
            self._write_leaf(page_id, node)
            return None
        middle = len(node) // 2
        # Materialise the right half's values: over an mmap store they are
        # zero-copy views into page ``page_id``, whose bytes are rewritten
        # (left half) below, before ``right`` is serialized.
        right = LeafNode(keys=node.keys[middle:],
                         values=[bytes(v) for v in node.values[middle:]],
                         left=page_id, right=node.right)
        right_page = self.pool.allocate()
        node.keys = node.keys[:middle]
        node.values = node.values[:middle]
        old_right = node.right
        node.right = right_page
        self._write_leaf(page_id, node)
        self._write_leaf(right_page, right)
        if old_right != NO_PAGE:
            neighbour = self._read_leaf(old_right)
            neighbour.left = right_page
            self._write_leaf(old_right, neighbour)
        return right.keys[0], right_page

    def _split_internal(self, page_id: int,
                        node: InternalNode) -> tuple[bytes, int]:
        middle = len(node.keys) // 2
        promoted = node.keys[middle]
        right = InternalNode(keys=node.keys[middle + 1:],
                             children=node.children[middle + 1:])
        node.keys = node.keys[:middle]
        node.children = node.children[:middle + 1]
        right_page = self.pool.allocate()
        self._write_internal(page_id, node)
        self._write_internal(right_page, right)
        return promoted, right_page

    # -- lookups -------------------------------------------------------

    def get_all(self, key: bytes) -> list[bytes]:
        """Return the values of every entry with exactly this key."""
        if self._root == NO_PAGE:
            return []
        page_id = self._descend_to_leaf_leftmost(key)
        results: list[bytes] = []
        while page_id != NO_PAGE:
            node = self._read_leaf(page_id)
            start = bisect_left(node.keys, key)
            if start == len(node.keys) and results:
                break
            for position in range(start, len(node.keys)):
                if node.keys[position] != key:
                    return results
                results.append(node.values[position])
            page_id = node.right
        return results

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Iterate all entries in key order (sequential leaf walk)."""
        page_id = self._leftmost_leaf()
        while page_id != NO_PAGE:
            node = self._read_leaf(page_id)
            yield from zip(node.keys, node.values)
            page_id = node.right

    def range(self, low: bytes, high: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Iterate entries with ``low <= key <= high`` in key order."""
        if self._root == NO_PAGE or low > high:
            return
        packed = self._active_packed()
        if (packed is not None and len(low) == self.key_width
                and len(high) == self.key_width):
            yield from packed.range_entries(low, high, self.stats)
            return
        page_id = self._descend_to_leaf_leftmost(low)
        while page_id != NO_PAGE:
            node = self._read_leaf(page_id)
            start = bisect_left(node.keys, low)
            for position in range(start, len(node.keys)):
                if node.keys[position] > high:
                    return
                yield node.keys[position], node.values[position]
            page_id = node.right

    def nearest(self, key: bytes, count: int,
                accept=None) -> list[tuple[bytes, bytes]]:
        """Return up to ``count`` entries nearest to ``key`` in key order.

        This is the RDB-tree candidate retrieval of Algo. 2 line 4: starting
        from the leaf position of the query's Hilbert key, entries are pulled
        from both directions, always taking the one whose decoded key is
        numerically closer.  ``accept`` (entry -> bool; node walk only)
        makes it pass over the entries failing that, up to the ``count``-th
        accepted one or to where both directions have run dry.
        """
        if count <= 0 or self._root == NO_PAGE:
            return []
        packed = self._active_packed()
        if (packed is not None and len(key) == self.key_width
                and accept is None):
            return packed.entries(
                packed.nearest_positions(key, count, self.stats))
        target = self.key_codec.decode(key)
        forward = self._scan_forward(key)
        backward = self._scan_backward(key)
        result: list[tuple[bytes, bytes]] = []
        next_forward = next(forward, None)
        next_backward = next(backward, None)

        def distance(entry):
            return abs(self.key_codec.decode(entry[0]) - target)

        while len(result) < count and (next_forward or next_backward):
            if next_backward is None or (
                    next_forward is not None
                    and distance(next_forward) <= distance(next_backward)):
                entry, next_forward = next_forward, next(forward, None)
            else:
                entry, next_backward = next_backward, next(backward, None)
            if accept is None or accept(entry):
                result.append(entry)
        return result

    # -- packed read path --------------------------------------------------

    @property
    def packed_layout(self) -> PackedTree | None:
        """The packed mirror, whether or not it is currently active."""
        return self._packed

    def _active_packed(self) -> PackedTree | None:
        """The packed mirror, when usable.

        Its synthetic I/O trace models uncached reads, so it is bypassed
        whenever a buffer pool is enabled — with caching the two paths
        would diverge on hit/miss accounting.
        """
        if self._packed is not None and self.pool.capacity == 0:
            return self._packed
        return None

    # -- scan generators ---------------------------------------------------

    def _scan_forward(self, key: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Entries with key >= ``key`` in ascending order."""
        page_id = self._descend_to_leaf(key)
        first = True
        while page_id != NO_PAGE:
            node = self._read_leaf(page_id)
            start = bisect_left(node.keys, key) if first else 0
            first = False
            for position in range(start, len(node.keys)):
                yield node.keys[position], node.values[position]
            page_id = node.right

    def _scan_backward(self, key: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Entries with key < ``key`` in descending order."""
        if self._root == NO_PAGE:
            return
        page_id = self._descend_to_leaf(key)
        first = True
        while page_id != NO_PAGE:
            node = self._read_leaf(page_id)
            start = bisect_left(node.keys, key) - 1 if first else len(node) - 1
            first = False
            for position in range(start, -1, -1):
                yield node.keys[position], node.values[position]
            page_id = node.left

    # -- node I/O --------------------------------------------------------

    def _descend_to_leaf(self, key: bytes) -> int:
        page_id = self._root
        for _ in range(self._height - 1):
            node = self._read_node(page_id)
            if isinstance(node, LeafNode):
                break
            page_id = node.children[bisect_right(node.keys, key)]
        return page_id

    def _descend_to_leaf_leftmost(self, key: bytes) -> int:
        """Descend to the leaf holding the FIRST occurrence of ``key``.

        Duplicate keys can span leaves; separators equal to the key route a
        ``bisect_right`` descent to the rightmost run, so point lookups and
        range starts use ``bisect_left`` instead.
        """
        page_id = self._root
        for _ in range(self._height - 1):
            node = self._read_node(page_id)
            if isinstance(node, LeafNode):
                break
            page_id = node.children[bisect_left(node.keys, key)]
        return page_id

    def _leftmost_leaf(self) -> int:
        if self._root == NO_PAGE:
            return NO_PAGE
        page_id = self._root
        for _ in range(self._height - 1):
            node = self._read_node(page_id)
            if isinstance(node, LeafNode):
                break
            page_id = node.children[0]
        return page_id

    def _read_node(self, page_id: int) -> LeafNode | InternalNode:
        raw = self.pool.read(page_id)
        return parse_node(raw, self.key_width, self.value_width)

    def _read_leaf(self, page_id: int) -> LeafNode:
        node = self._read_node(page_id)
        if not isinstance(node, LeafNode):
            raise RuntimeError(f"page {page_id} is not a leaf")
        return node

    def _write_leaf(self, page_id: int, node: LeafNode) -> None:
        raw = serialize_leaf(node, self._store.page_size,
                             self.key_width, self.value_width)
        self.pool.write(page_id, raw)

    def _write_internal(self, page_id: int, node: InternalNode) -> None:
        raw = serialize_internal(node, self._store.page_size, self.key_width)
        self.pool.write(page_id, raw)
