"""Unit, integration and model-based property tests for the B+-tree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.btree import BPlusTree, NodeFormatError, parse_node
from repro.btree.packed import PackedTree
from repro.btree.node import (
    InternalNode,
    LeafNode,
    internal_capacity,
    leaf_capacity,
    serialize_internal,
    serialize_leaf,
)
from repro.storage import InMemoryPageStore, UInt64Codec, UIntCodec


def int_tree(key_width=8, leaf_cap=None, page_size=4096, cache=0):
    return BPlusTree(UIntCodec(key_width), UInt64Codec(),
                     leaf_capacity_override=leaf_cap,
                     page_size=page_size, cache_pages=cache)


def encode_pairs(tree, pairs):
    kc, vc = tree.key_codec, tree.value_codec
    return ((kc.encode(k), vc.encode(v)) for k, v in pairs)


def decode_items(tree):
    kc, vc = tree.key_codec, tree.value_codec
    return [(kc.decode(k), vc.decode(v)) for k, v in tree.items()]


class TestNodeLayout:
    def test_leaf_serialize_parse_round_trip(self):
        node = LeafNode(keys=[b"\x00" * 8, b"\x01" * 8],
                        values=[b"A" * 8, b"B" * 8], left=3, right=9)
        raw = serialize_leaf(node, 4096, 8, 8)
        assert len(raw) == 4096
        parsed = parse_node(raw, 8, 8)
        assert parsed.keys == node.keys
        assert parsed.values == node.values
        assert parsed.left == 3 and parsed.right == 9

    def test_internal_serialize_parse_round_trip(self):
        node = InternalNode(keys=[b"\x05" * 8], children=[1, 2])
        raw = serialize_internal(node, 4096, 8)
        parsed = parse_node(raw, 8, 8)
        assert parsed.keys == node.keys
        assert parsed.children == node.children

    def test_leaf_overflow_rejected(self):
        cap = leaf_capacity(128, 8, 8)
        node = LeafNode(keys=[b"\x00" * 8] * (cap + 1),
                        values=[b"v" * 8] * (cap + 1))
        with pytest.raises(NodeFormatError):
            serialize_leaf(node, 128, 8, 8)

    def test_internal_children_count_enforced(self):
        with pytest.raises(NodeFormatError):
            serialize_internal(InternalNode(keys=[b"\x00" * 8], children=[1]),
                               4096, 8)

    def test_corrupt_type_byte_detected(self):
        raw = bytes([7]) + bytes(4095)
        with pytest.raises(NodeFormatError):
            parse_node(raw, 8, 8)

    def test_corrupt_count_detected(self):
        # Leaf claiming more entries than fit in the page.
        raw = bytes([1]) + (5000).to_bytes(2, "big") + bytes(4093)
        with pytest.raises(NodeFormatError):
            parse_node(raw, 8, 8)

    def test_capacity_formulas(self):
        assert leaf_capacity(4096, 16, 48) == (4096 - 19) // 64
        assert internal_capacity(4096, 16) == (4096 - 3 - 8) // 24


class TestBulkLoad:
    def test_items_in_key_order(self):
        tree = int_tree()
        pairs = sorted((int(k), i) for i, k in enumerate(
            np.random.default_rng(0).integers(0, 10**6, size=500)))
        tree.bulk_load(encode_pairs(tree, pairs))
        assert decode_items(tree) == pairs
        assert len(tree) == 500

    def test_unsorted_input_rejected(self):
        tree = int_tree()
        with pytest.raises(ValueError):
            tree.bulk_load(encode_pairs(tree, [(5, 0), (3, 1)]))

    def test_duplicates_survive_bulk_load(self):
        tree = int_tree()
        pairs = [(7, 0), (7, 1), (7, 2), (9, 3)]
        tree.bulk_load(encode_pairs(tree, pairs))
        assert sorted(v for v in
                      (tree.value_codec.decode(r)
                       for r in tree.get_all(tree.key_codec.encode(7)))
                      ) == [0, 1, 2]

    def test_empty_bulk_load(self):
        tree = int_tree()
        tree.bulk_load(iter(()))
        assert len(tree) == 0
        assert list(tree.items()) == []

    def test_single_entry(self):
        tree = int_tree()
        tree.bulk_load(encode_pairs(tree, [(42, 7)]))
        assert decode_items(tree) == [(42, 7)]
        assert tree.height == 1

    def test_fill_factor_spreads_leaves(self):
        full = int_tree(leaf_cap=8)
        half = int_tree(leaf_cap=8)
        pairs = [(i, i) for i in range(64)]
        full.bulk_load(encode_pairs(full, pairs))
        half.bulk_load(encode_pairs(half, pairs), fill=0.5)
        assert half.size_bytes() > full.size_bytes()
        assert decode_items(half) == decode_items(full)

    def test_bulk_load_on_nonempty_tree_rejected(self):
        tree = int_tree()
        tree.insert(tree.key_codec.encode(1), tree.value_codec.encode(1))
        with pytest.raises(RuntimeError):
            tree.bulk_load(encode_pairs(tree, [(2, 2)]))

    def test_invalid_fill_rejected(self):
        tree = int_tree()
        with pytest.raises(ValueError):
            tree.bulk_load(encode_pairs(tree, [(1, 1)]), fill=0.0)

    def test_multi_level_structure(self):
        # Small pages force internal fanout 8, so 250 leaves need >= 3 levels.
        tree = int_tree(leaf_cap=4, page_size=128)
        pairs = [(i, i) for i in range(1000)]
        tree.bulk_load(encode_pairs(tree, pairs))
        assert tree.height >= 3
        assert decode_items(tree) == pairs


class TestInsert:
    def test_random_inserts_stay_sorted(self):
        tree = int_tree(leaf_cap=4)
        rng = np.random.default_rng(9)
        pairs = [(int(k), i) for i, k in enumerate(
            rng.integers(0, 1000, size=300))]
        for key, value in pairs:
            tree.insert(tree.key_codec.encode(key),
                        tree.value_codec.encode(value))
        got = decode_items(tree)
        assert sorted(got) == sorted(pairs)
        assert [g[0] for g in got] == sorted(g[0] for g in got)

    def test_insert_into_bulk_loaded_tree(self):
        tree = int_tree(leaf_cap=8)
        tree.bulk_load(encode_pairs(tree, [(i * 2, i) for i in range(100)]))
        tree.insert(tree.key_codec.encode(33), tree.value_codec.encode(999))
        keys = [k for k, _ in decode_items(tree)]
        assert 33 in keys
        assert keys == sorted(keys)
        assert len(tree) == 101

    def test_sibling_links_after_splits(self):
        tree = int_tree(leaf_cap=4)
        for i in range(100):
            tree.insert(tree.key_codec.encode(i), tree.value_codec.encode(i))
        # items() walks right-links; completeness proves the chain is intact.
        assert [k for k, _ in decode_items(tree)] == list(range(100))
        # nearest() walks left-links from the far end.
        near = tree.nearest(tree.key_codec.encode(99), 100)
        assert len(near) == 100

    def test_wrong_width_rejected(self):
        tree = int_tree()
        with pytest.raises(ValueError):
            tree.insert(b"\x00" * 4, tree.value_codec.encode(0))


def top_down_layout(tree):
    """The tree as a packed layout read off its pages the way a descent
    sees them: internal children top-down, then the leaves in that
    order — not the leaf sibling chain ``items()`` follows."""
    level, level_pages, level_starts = [tree._root], [], []
    for _ in range(tree.height - 1):
        nodes = [tree._read_node(page_id) for page_id in level]
        level_pages.append(level)
        level_starts.append(
            np.cumsum([0] + [len(node.children) for node in nodes]))
        level = [child for node in nodes for child in node.children]
    leaves = [tree._read_leaf(page_id) for page_id in level]
    keys = b"".join(key for leaf in leaves for key in leaf.keys)
    values = b"".join(bytes(v) for leaf in leaves for v in leaf.values)
    return PackedTree(
        tree.key_codec,
        np.frombuffer(keys, dtype=np.uint8).reshape(-1, tree.key_width),
        np.frombuffer(values, dtype=np.uint8).reshape(-1, tree.value_width),
        np.cumsum([0] + [len(leaf) for leaf in leaves]), level,
        level_pages, level_starts)


class TestSplitAmongEqualSeparators:
    """Regression: ``_insert_recursive`` filed the separator of a split
    child at ``bisect_right(node.keys, sep_key)`` instead of directly
    after that child.  With duplicate keys spanning leaves the
    separators are equal, so the new page landed behind the wrong
    sibling: the leaf chain stayed right while the internal children —
    what a descent follows — were reordered (17 of these 20 seeds fail without the fix)."""

    @pytest.mark.parametrize("seed", range(20))
    def test_children_order_matches_leaf_chain(self, seed):
        rng = np.random.default_rng(seed)
        tree = BPlusTree(UIntCodec(1), UInt64Codec(),
                         leaf_capacity_override=int(rng.integers(2, 8)),
                         page_size=128)
        keys = np.sort(rng.integers(0, 4, size=100)).tolist()
        tree.bulk_load(encode_pairs(tree, zip(keys, range(100))))
        for value, key in enumerate(rng.integers(0, 4, size=60).tolist()):
            tree.insert(tree.key_codec.encode(key),
                        tree.value_codec.encode(100 + value))
        packed = top_down_layout(tree)
        chain = list(tree.items())
        assert packed.entries(range(packed.count)) == chain
        assert [key for key, _ in chain] == sorted(key for key, _ in chain)
        assert tree.packed_layout is None  # inserts dropped the mirror
        for probe in range(4):
            raw = tree.key_codec.encode(probe)
            for count in (1, 7, 160):
                assert packed.entries(packed.nearest_positions(
                    raw, count)) == tree.nearest(raw, count)


class TestLookups:
    def make_loaded(self):
        tree = int_tree(leaf_cap=6)
        pairs = [(i * 3, i) for i in range(200)]
        tree.bulk_load(encode_pairs(tree, pairs))
        return tree, pairs

    def test_get_all_exact(self):
        tree, _ = self.make_loaded()
        got = tree.get_all(tree.key_codec.encode(33))
        assert [tree.value_codec.decode(v) for v in got] == [11]

    def test_get_all_missing(self):
        tree, _ = self.make_loaded()
        assert tree.get_all(tree.key_codec.encode(34)) == []

    def test_range_inclusive(self):
        tree, _ = self.make_loaded()
        got = [tree.key_codec.decode(k) for k, _ in tree.range(
            tree.key_codec.encode(30), tree.key_codec.encode(45))]
        assert got == [30, 33, 36, 39, 42, 45]

    def test_range_empty_and_inverted(self):
        tree, _ = self.make_loaded()
        assert list(tree.range(tree.key_codec.encode(100),
                               tree.key_codec.encode(90))) == []
        assert [tree.key_codec.decode(k) for k, _ in tree.range(
            tree.key_codec.encode(31), tree.key_codec.encode(32))] == []

    def test_nearest_exact_midpoint(self):
        tree, pairs = self.make_loaded()
        got = tree.nearest(tree.key_codec.encode(300), 7)
        keys = sorted(tree.key_codec.decode(k) for k, _ in got)
        expected = sorted(sorted((k for k, _ in pairs),
                                 key=lambda k: abs(k - 300))[:7])
        assert keys == expected

    def test_nearest_at_boundaries(self):
        tree, _ = self.make_loaded()
        low = tree.nearest(tree.key_codec.encode(0), 5)
        assert sorted(tree.key_codec.decode(k) for k, _ in low) == [
            0, 3, 6, 9, 12]
        high = tree.nearest(tree.key_codec.encode(597), 5)
        assert sorted(tree.key_codec.decode(k) for k, _ in high) == [
            585, 588, 591, 594, 597]

    def test_nearest_more_than_size_returns_all(self):
        tree, pairs = self.make_loaded()
        got = tree.nearest(tree.key_codec.encode(300), 10_000)
        assert len(got) == len(pairs)

    def test_nearest_zero_or_empty(self):
        tree, _ = self.make_loaded()
        assert tree.nearest(tree.key_codec.encode(0), 0) == []
        empty = int_tree()
        assert empty.nearest(empty.key_codec.encode(0), 5) == []

    def test_page_reads_counted_during_search(self):
        tree, _ = self.make_loaded()
        tree.stats.reset()
        tree.nearest(tree.key_codec.encode(300), 10)
        assert tree.stats.page_reads >= tree.height


class TestModelBased:
    @given(st.lists(st.tuples(st.integers(0, 500), st.integers(0, 2**32)),
                    min_size=0, max_size=120))
    @settings(max_examples=50, deadline=None)
    def test_against_sorted_list_model(self, operations):
        tree = int_tree(leaf_cap=4)
        model = []
        for key, value in operations:
            tree.insert(tree.key_codec.encode(key),
                        tree.value_codec.encode(value))
            model.append((key, value))
        model.sort(key=lambda pair: pair[0])
        got = decode_items(tree)
        assert sorted(got) == sorted(model)
        assert [g[0] for g in got] == [m[0] for m in model]

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=80,
                    unique=True),
           st.integers(0, 10**6), st.integers(1, 20))
    @settings(max_examples=50, deadline=None)
    def test_nearest_matches_brute_force(self, keys, probe, count):
        tree = int_tree(leaf_cap=4)
        tree.bulk_load(encode_pairs(tree, [(k, 0) for k in sorted(keys)]))
        got = [tree.key_codec.decode(k)
               for k, _ in tree.nearest(tree.key_codec.encode(probe), count)]
        expected = sorted(keys, key=lambda k: abs(k - probe))[:count]
        assert sorted(abs(g - probe) for g in got) == sorted(
            abs(e - probe) for e in expected)
