"""Unit, integration and model-based property tests for the B+-tree.

The tree is two sorted columns (:mod:`repro.btree.packed`) laid out with
the page geometry of a bulk load; the node walk
(:mod:`repro.devtools.nodewalk`) is the same tree read node by node.
Lookups on the columns are checked against the walk, and the walk
against plain lists and brute force.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.btree import PackedTree, bulk_load, internal_capacity, leaf_capacity
from repro.devtools.nodewalk import NodeWalk
from repro.storage import UIntCodec
from repro.storage.stats import IOStats

CODEC = UIntCodec(8)


def columns(pairs, leaf_cap, internal_cap=8):
    """Key-sorted ``(key, value)`` integer pairs as a packed tree."""
    keys = np.frombuffer(b"".join(CODEC.encode(k) for k, _ in pairs),
                         dtype=np.uint8).reshape(-1, 8)
    values = np.asarray([v for _, v in pairs], dtype=">u8")
    return PackedTree(CODEC, keys, values.view(np.uint8).reshape(-1, 8),
                      leaf_cap, internal_cap)


def walk_of(tree, leaf_cap, internal_cap=8):
    """The node walk of the same entries and capacities."""
    return NodeWalk(tree.key_codec, tree.entries(range(tree.count)),
                    leaf_cap, internal_cap)


def decode_items(entries):
    return [(CODEC.decode(k), CODEC.decode(v)) for k, v in entries]


def load(pairs, page_size=4096):
    return bulk_load(CODEC, [k for k, _ in pairs],
                     np.asarray([v for _, v in pairs], dtype=np.int64),
                     page_size)


class TestNodeLayout:
    def test_capacity_formulas(self):
        assert leaf_capacity(4096, 16, 48) == (4096 - 19) // 64
        assert internal_capacity(4096, 16) == (4096 - 3 - 8) // 24

    @pytest.mark.parametrize("count,leaf_cap,internal_cap", [
        (1, 1, 1), (2, 1, 1), (9, 3, 2), (10, 3, 2), (64, 4, 3),
        (65, 4, 3), (500, 6, 7), (1000, 2, 2)])
    def test_columns_and_walk_share_the_layout(self, count, leaf_cap,
                                               internal_cap):
        """Leaves full but the last on pages 0..L-1, then each internal
        level bottom-up in allocation order, the root the last page."""
        tree = columns([(i, i) for i in range(count)], leaf_cap,
                       internal_cap)
        walk = walk_of(tree, leaf_cap, internal_cap)
        assert tree.height == walk.height
        assert tree.leaf_pages.tolist() == list(range(len(walk.leaves)))
        assert np.diff(tree.leaf_starts).tolist() == [
            len(keys) for keys, _ in walk.leaves]
        assert [len(keys) for keys, _ in walk.leaves[:-1]] == [leaf_cap] * (
            len(walk.leaves) - 1)
        internal = [page for level in tree.level_pages[::-1]
                    for page in level.tolist()]
        assert internal == sorted(walk.nodes)
        assert tree.num_pages == len(walk.leaves) + len(walk.nodes)
        assert walk.root == tree.num_pages - 1
        for page, (separators, children) in walk.nodes.items():
            assert len(children) <= internal_cap + 1
            assert len(separators) == len(children) - 1

    def test_walk_rejects_empty_nodes(self):
        with pytest.raises(ValueError, match="room"):
            NodeWalk(CODEC, [], 0, 2)
        with pytest.raises(ValueError, match="room"):
            NodeWalk(CODEC, [], 4, 0)


class TestBulkLoad:
    def test_items_in_key_order(self):
        pairs = sorted((int(k), i) for i, k in enumerate(
            np.random.default_rng(0).integers(0, 10**6, size=500)))
        tree, stats = load(pairs)
        assert decode_items(tree.entries(range(tree.count))) == pairs
        assert tree.count == 500
        # Every page written once, in one sequential run; none read back.
        assert (stats.page_writes, stats.sequential_writes,
                stats.page_reads) == (tree.num_pages, tree.num_pages - 1, 0)

    def test_unsorted_input_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            load([(5, 0), (3, 1)])

    def test_duplicates_survive_bulk_load(self):
        tree, stats = load([(7, 0), (7, 1), (7, 2), (9, 3)])
        seven = CODEC.encode(7)
        assert sorted(CODEC.decode(v) for _, v in
                      tree.range_entries(seven, seven, stats)) == [0, 1, 2]

    def test_empty_bulk_load(self):
        tree, stats = load([])
        assert tree.count == tree.num_pages == tree.height == 0
        assert list(tree.range_entries(CODEC.encode(0), CODEC.encode(9),
                                       stats)) == []
        assert stats.page_writes == 0

    def test_single_entry(self):
        tree, _ = load([(42, 7)])
        assert decode_items(tree.entries(range(1))) == [(42, 7)]
        assert tree.height == 1

    def test_multi_level_structure(self):
        # 128-byte pages: six entries a leaf and fanout 8, so 167 leaves
        # take four levels, as the node walk lays them out too.
        pairs = [(i, i) for i in range(1000)]
        tree, _ = load(pairs, page_size=128)
        assert tree.height >= 3
        assert tree.height == walk_of(tree, 6, 7).height
        assert decode_items(tree.entries(range(tree.count))) == pairs

    @pytest.mark.parametrize("page_size,value_width", [
        (26, 8), (40, 8), (4096, 4080)])
    def test_page_too_small_rejected(self, page_size, value_width):
        """A leaf must hold one entry and an internal node two
        separators: 26 bytes hold neither, 40 bytes one 16-byte entry
        but one separator, and 4096 bytes no 4088-byte entry."""
        with pytest.raises(ValueError, match="cannot hold"):
            bulk_load(CODEC, [1], np.zeros((1, value_width), dtype=np.uint8),
                      page_size)

    def test_ids_stored_as_big_endian_values(self):
        """A 1-D id array is the 8-byte big-endian value column."""
        ids = np.array([5, 2**40, 0], dtype=np.int64)
        by_id, _ = bulk_load(CODEC, [1, 2, 3], ids, 4096)
        by_column, _ = bulk_load(
            CODEC, [1, 2, 3], ids.astype(">u8").view(np.uint8).reshape(3, 8),
            4096)
        assert by_id.entries(range(3)) == by_column.entries(range(3))
        assert [CODEC.decode(v) for _, v in
                by_id.entries(range(3))] == [5, 2**40, 0]


def top_down_layout(walk):
    """The walk's entries read off its nodes the way a descent sees them:
    internal children top-down, then the leaves in that order — not the
    sibling order the scans follow."""
    level = [walk.root]
    while level[0] in walk.nodes:
        level = [child for page in level for child in walk.nodes[page][1]]
    return [entry for page in level
            for entry in zip(*walk.leaves[page])]


class TestSplitAmongEqualSeparators:
    """Duplicate keys spanning leaves make equal separators: a descent
    must still find the children in leaf-chain order, and both scans
    must reach every duplicate across the leaf boundaries.  The entries
    are a sorted base with a delta folded in by a stable merge (base
    first), as an RDB-tree fold lays them out."""

    @pytest.mark.parametrize("seed", range(20))
    def test_children_order_matches_leaf_chain(self, seed):
        rng = np.random.default_rng(seed)
        codec = UIntCodec(1)
        leaf_cap, internal_cap = (int(rng.integers(2, 8)),
                                  int(rng.integers(2, 5)))
        base = np.sort(rng.integers(0, 4, size=100))
        keys = np.concatenate([base, rng.integers(0, 4, size=60)])
        order = keys.argsort(kind="stable")
        tree = PackedTree(
            codec, keys[order].astype(np.uint8).reshape(-1, 1),
            order.astype(">u8").view(np.uint8).reshape(-1, 8),
            leaf_cap, internal_cap)
        walk = NodeWalk(codec, tree.entries(range(tree.count)), leaf_cap,
                        internal_cap)
        assert walk.height >= 3
        chain = list(walk.range(b"\x00", b"\x03", IOStats()))
        assert top_down_layout(walk) == chain
        assert tree.entries(range(tree.count)) == chain
        assert [key for key, _ in chain] == sorted(key for key, _ in chain)
        for probe in range(4):
            raw = codec.encode(probe)
            packed_stats, walk_stats = IOStats(), IOStats()
            same_key = list(tree.range_entries(raw, raw, packed_stats))
            assert same_key == list(walk.range(raw, raw, walk_stats))
            assert packed_stats == walk_stats
            assert [int.from_bytes(value, "big") for _, value in same_key] \
                == np.flatnonzero(keys == probe).tolist()
            for count in (1, 7, 160):
                # A set: in key order (values ascend among equal keys).
                packed_stats, walk_stats = IOStats(), IOStats()
                want = sorted(walk.nearest(raw, count, walk_stats))
                assert tree.entries(tree.nearest_positions(
                    raw, count, packed_stats)) == want
                assert packed_stats == walk_stats


class TestLookups:
    """The columns' lookups, each equal to the node walk's: the same
    entries and the same page reads."""

    def make_loaded(self):
        pairs = [(i * 3, i) for i in range(200)]
        tree = columns(pairs, leaf_cap=6)
        return tree, walk_of(tree, 6), pairs

    @staticmethod
    def range_keys(tree, walk, low, high):
        low, high = CODEC.encode(low), CODEC.encode(high)
        packed_stats, walk_stats = IOStats(), IOStats()
        got = list(tree.range_entries(low, high, packed_stats))
        assert got == list(walk.range(low, high, walk_stats))
        assert packed_stats == walk_stats
        return [CODEC.decode(k) for k, _ in got]

    @staticmethod
    def nearest_keys(tree, walk, key, count):
        """The keys found, ascending: the walk's, nearest first, as a set."""
        key = CODEC.encode(key)
        packed_stats, walk_stats = IOStats(), IOStats()
        got = tree.entries(tree.nearest_positions(key, count, packed_stats))
        assert got == sorted(walk.nearest(key, count, walk_stats))
        assert packed_stats == walk_stats
        return [CODEC.decode(k) for k, _ in got]

    def test_get_all_exact(self):
        """An exact-key lookup is the range from the key to itself."""
        tree, walk, _ = self.make_loaded()
        key = CODEC.encode(33)
        got = list(tree.range_entries(key, key))
        assert [CODEC.decode(v) for _, v in got] == [11]
        assert self.range_keys(tree, walk, 33, 33) == [33]

    def test_get_all_missing(self):
        tree, walk, _ = self.make_loaded()
        assert self.range_keys(tree, walk, 34, 34) == []
        assert self.range_keys(tree, walk, 10**6, 10**6) == []

    def test_range_inclusive(self):
        tree, walk, _ = self.make_loaded()
        assert self.range_keys(tree, walk, 30, 45) == [30, 33, 36, 39, 42, 45]

    def test_range_empty_and_inverted(self):
        tree, walk, _ = self.make_loaded()
        assert self.range_keys(tree, walk, 100, 90) == []
        assert self.range_keys(tree, walk, 31, 32) == []

    def test_nearest_exact_midpoint(self):
        tree, walk, pairs = self.make_loaded()
        keys = sorted(self.nearest_keys(tree, walk, 300, 7))
        expected = sorted(sorted((k for k, _ in pairs),
                                 key=lambda k: abs(k - 300))[:7])
        assert keys == expected

    def test_nearest_at_boundaries(self):
        tree, walk, _ = self.make_loaded()
        assert sorted(self.nearest_keys(tree, walk, 0, 5)) == [
            0, 3, 6, 9, 12]
        assert sorted(self.nearest_keys(tree, walk, 597, 5)) == [
            585, 588, 591, 594, 597]

    def test_nearest_more_than_size_returns_all(self):
        tree, walk, pairs = self.make_loaded()
        assert len(self.nearest_keys(tree, walk, 300, 10_000)) == len(pairs)

    def test_nearest_from_the_far_end_reads_every_leaf(self):
        """From the last key, the backward scan follows the left
        siblings down to leaf 0: each leaf is read once."""
        tree, walk, pairs = self.make_loaded()
        assert self.nearest_keys(tree, walk, 597, len(pairs)) == [
            k for k, _ in pairs]
        stats = IOStats()
        tree.nearest_positions(CODEC.encode(597), len(pairs), stats)
        assert stats.page_reads == 2 * tree.height + tree.leaf_pages.size - 1

    def test_nearest_zero_or_empty(self):
        tree, walk, _ = self.make_loaded()
        assert self.nearest_keys(tree, walk, 0, 0) == []
        empty = columns([], leaf_cap=6)
        assert self.nearest_keys(empty, walk_of(empty, 6), 0, 5) == []

    def test_page_reads_counted_during_search(self):
        tree, _, _ = self.make_loaded()
        stats = IOStats()
        tree.nearest_positions(CODEC.encode(300), 10, stats)
        assert stats.page_reads >= tree.height


class TestModelBased:
    @given(st.lists(st.tuples(st.integers(0, 500), st.integers(0, 2**32)),
                    min_size=0, max_size=120),
           st.integers(1, 6), st.integers(0, 500), st.integers(0, 500))
    @settings(max_examples=50, deadline=None)
    def test_against_sorted_list_model(self, operations, leaf_cap, bound_a,
                                       bound_b):
        """Entries in any order, stably sorted by key and bulk loaded:
        the columns hold the model's list, and a range is its slice."""
        model = sorted(operations, key=lambda pair: pair[0])
        tree = columns(model, leaf_cap, internal_cap=2)
        assert decode_items(tree.entries(range(tree.count))) == model
        low, high = sorted((bound_a, bound_b))
        got = tree.range_entries(CODEC.encode(low), CODEC.encode(high))
        assert decode_items(got) == [
            (key, value) for key, value in model if low <= key <= high]

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=80,
                    unique=True),
           st.integers(0, 10**6), st.integers(1, 20))
    @settings(max_examples=50, deadline=None)
    def test_nearest_matches_brute_force(self, keys, probe, count):
        """The node walk — the reference the columns are held to —
        against a sort by distance."""
        walk = NodeWalk(CODEC, [(CODEC.encode(k), CODEC.encode(0))
                                for k in sorted(keys)], 4, 2)
        got = [CODEC.decode(k) for k, _ in
               walk.nearest(CODEC.encode(probe), count, IOStats())]
        expected = sorted(keys, key=lambda k: abs(k - probe))[:count]
        assert sorted(abs(g - probe) for g in got) == sorted(
            abs(e - probe) for e in expected)
