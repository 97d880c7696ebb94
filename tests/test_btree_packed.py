"""Packed-array read path vs the node-path B+-tree oracle.

The packed layout (:mod:`repro.btree.packed`) must be *indistinguishable*
from walking the serialized nodes: same entries from ``range``, same
entries in the same order from ``nearest``, and the same synthesized
page-read accounting (total, random, sequential) — the bench numbers in
EXPERIMENTS.md are only meaningful if the array path charges the I/O the
node path would have performed.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.btree import BPlusTree
from repro.btree.packed import PackedTree, key_kind, supports_packing
from repro.storage import (
    BytesCodec,
    Float64Codec,
    UInt64Codec,
    UIntCodec,
    pack_arrays,
    unpack_arrays,
)
from repro.storage.stats import IOStats


def make_tree(key_codec, leaf_cap=4, cache=0):
    return BPlusTree(key_codec, UInt64Codec(),
                     leaf_capacity_override=leaf_cap, cache_pages=cache)


def load_int_pairs(tree, keys, fill=1.0):
    pairs = [(tree.key_codec.encode(k), tree.value_codec.encode(i))
             for i, k in enumerate(sorted(keys))]
    tree.bulk_load(pairs, fill=fill)
    return pairs


def node_path_copy(tree, keys, fill=1.0):
    """The oracle: an identical tree with its packed mirror detached."""
    other = make_tree(tree.key_codec, leaf_cap=tree.leaf_capacity)
    load_int_pairs(other, keys, fill=fill)
    other._packed = None
    return other


def stats_triple(tree):
    return (tree.stats.page_reads, tree.stats.random_reads,
            tree.stats.sequential_reads)


class ReadLog(IOStats):
    """An accountant that also keeps the page ids, in read order."""

    def __init__(self):
        super().__init__()
        self.pages = []

    def record_read(self, page_id):
        self.pages.append(int(page_id))
        super().record_read(page_id)

    def record_read_many(self, page_ids):
        self.pages.extend(int(page) for page in np.asarray(page_ids).ravel())
        super().record_read_many(page_ids)


@st.composite
def wide_key_cases(draw):
    """(width, keys, probe, count, leaf capacity) for keys wider than one
    word, shaped to reach what the leading-word merge could get wrong."""
    width = draw(st.sampled_from([9, 12, 16, 24, 40]))
    top = (1 << (8 * width)) - 1
    anywhere = st.integers(min_value=0, max_value=top)
    centre = draw(anywhere)
    shape = draw(st.sampled_from(["spread", "shared-head", "mirrored"]))
    if shape == "spread":
        keys = draw(st.lists(anywhere, min_size=1, max_size=40))
    elif shape == "shared-head":
        # One leading word, keys differing only in the last byte (with
        # duplicates): every leading distance word ties.
        base = centre & ~0xFF
        keys = [base | low for low in draw(st.lists(
            st.integers(min_value=0, max_value=255),
            min_size=1, max_size=40))]
        centre = base | draw(st.integers(min_value=0, max_value=255))
    else:
        # Pairs at equal distance either side of the centre: forward and
        # backward distances tie exactly (forward must win).
        offsets = draw(st.lists(st.integers(min_value=0, max_value=600),
                                min_size=1, max_size=20))
        keys = [min(top, centre + offset) for offset in offsets] \
            + [max(0, centre - offset) for offset in offsets]
    probe = draw(st.one_of(
        st.just(centre), st.sampled_from(keys), st.just(0), st.just(top),
        st.just(max(0, min(keys) - 1)), st.just(min(top, max(keys) + 1)),
        anywhere))
    count = draw(st.sampled_from(
        [1, len(keys) - 1, len(keys), len(keys) + 5]).filter(bool))
    return width, keys, probe, count, draw(st.integers(2, 7))


class TestActivation:
    def test_bulk_load_captures_packed(self):
        tree = make_tree(UIntCodec(8))
        load_int_pairs(tree, range(0, 100, 3))
        assert tree.packed_layout is not None
        assert tree.packed_layout.count == len(tree)

    def test_key_kinds(self):
        assert key_kind(UIntCodec(16)) == "uint"
        assert key_kind(UInt64Codec()) == "uint"
        assert key_kind(Float64Codec()) == "float"
        assert key_kind(BytesCodec(8)) is None
        assert not supports_packing(BytesCodec(8))

    def test_opaque_keys_not_captured(self):
        tree = BPlusTree(BytesCodec(4), UInt64Codec(),
                         leaf_capacity_override=4, cache_pages=0)
        tree.bulk_load([(bytes([0, 0, 0, i]), (i).to_bytes(8, "big"))
                        for i in range(10)])
        assert tree.packed_layout is None

    def test_cached_pool_disables_packed_path(self):
        # The synthetic I/O trace models uncached reads, so a warm buffer
        # pool must route through the real node path.
        tree = make_tree(UIntCodec(8), cache=32)
        load_int_pairs(tree, range(50))
        assert tree.packed_layout is None
        assert tree._active_packed() is None

    def test_insert_invalidates_packed(self):
        tree = make_tree(UIntCodec(8))
        load_int_pairs(tree, range(20))
        tree.insert(tree.key_codec.encode(1000),
                    tree.value_codec.encode(99))
        assert tree.packed_layout is None


class TestParity:
    """Packed answers and stats vs the node-path oracle."""

    CASES = [
        (UIntCodec(2), range(0, 300, 7), 4, 1.0),
        (UIntCodec(8), [0, 1, 1, 1, 5, 5, 9, 2**40], 2, 1.0),
        (UIntCodec(16), [3**i for i in range(60)], 5, 0.7),
        (Float64Codec(), [-50.0, -1.5, 0.0, 0.25, 3.0, 1e12], 3, 1.0),
    ]

    @pytest.mark.parametrize("codec,keys,leaf_cap,fill", CASES,
                             ids=["u16", "dup-u64", "wide-u128", "f64"])
    def test_range_parity(self, codec, keys, leaf_cap, fill):
        keys = list(keys)
        tree = make_tree(codec, leaf_cap=leaf_cap)
        load_int_pairs(tree, keys, fill=fill)
        oracle = node_path_copy(tree, keys, fill=fill)
        assert tree.packed_layout is not None
        probes = [(min(keys), max(keys)), (keys[0], keys[0]),
                  (min(keys), keys[len(keys) // 2])]
        for low, high in probes:
            lo, hi = codec.encode(low), codec.encode(high)
            tree.stats.reset(), oracle.stats.reset()
            assert list(tree.range(lo, hi)) == list(oracle.range(lo, hi))
            assert stats_triple(tree) == stats_triple(oracle)

    @pytest.mark.parametrize("codec,keys,leaf_cap,fill", CASES,
                             ids=["u16", "dup-u64", "wide-u128", "f64"])
    def test_nearest_parity(self, codec, keys, leaf_cap, fill):
        keys = list(keys)
        tree = make_tree(codec, leaf_cap=leaf_cap)
        load_int_pairs(tree, keys, fill=fill)
        oracle = node_path_copy(tree, keys, fill=fill)
        for probe in {min(keys), max(keys), keys[len(keys) // 2]}:
            for count in (1, 3, len(keys), len(keys) + 5):
                raw = codec.encode(probe)
                tree.stats.reset(), oracle.stats.reset()
                assert tree.nearest(raw, count) == oracle.nearest(raw, count)
                assert stats_triple(tree) == stats_triple(oracle)

    def test_post_insert_fallback_matches(self):
        tree = make_tree(UIntCodec(8))
        load_int_pairs(tree, range(0, 60, 2))
        tree.insert(tree.key_codec.encode(31), tree.value_codec.encode(77))
        oracle = make_tree(UIntCodec(8))
        load_int_pairs(oracle, range(0, 60, 2))
        oracle.insert(oracle.key_codec.encode(31),
                      oracle.value_codec.encode(77))
        raw = tree.key_codec.encode(30)
        assert tree.nearest(raw, 8) == oracle.nearest(raw, 8)
        assert list(tree.range(tree.key_codec.encode(25),
                               tree.key_codec.encode(40))) == \
            list(oracle.range(oracle.key_codec.encode(25),
                              oracle.key_codec.encode(40)))

    @given(st.lists(st.integers(min_value=0, max_value=2**31),
                    min_size=1, max_size=80),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=2**31),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_nearest_property(self, keys, leaf_cap, probe, count):
        tree = make_tree(UIntCodec(8), leaf_cap=leaf_cap)
        load_int_pairs(tree, keys)
        oracle = node_path_copy(tree, keys)
        raw = tree.key_codec.encode(probe)
        tree.stats.reset(), oracle.stats.reset()
        assert tree.nearest(raw, count) == oracle.nearest(raw, count)
        assert stats_triple(tree) == stats_triple(oracle)

    @given(wide_key_cases())
    @settings(max_examples=300, deadline=None)
    def test_nearest_property_wide_keys(self, case):
        """Keys of more than 8 bytes: same entries in the same order and
        the same page-read *sequence* as the node path."""
        width, keys, probe, count, leaf_cap = case
        tree = make_tree(UIntCodec(width), leaf_cap=leaf_cap)
        load_int_pairs(tree, keys)
        oracle = node_path_copy(tree, keys)
        tree._store.stats, oracle._store.stats = ReadLog(), ReadLog()
        raw = tree.key_codec.encode(probe)
        assert tree.nearest(raw, count) == oracle.nearest(raw, count)
        assert tree.stats.pages == oracle.stats.pages
        assert stats_triple(tree) == stats_triple(oracle)

    @given(st.lists(st.integers(min_value=0, max_value=1000),
                    min_size=1, max_size=60),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=1000),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=60, deadline=None)
    def test_range_property(self, keys, leaf_cap, bound_a, bound_b):
        low, high = sorted((bound_a, bound_b))
        tree = make_tree(UIntCodec(8), leaf_cap=leaf_cap)
        load_int_pairs(tree, keys)
        oracle = node_path_copy(tree, keys)
        lo = tree.key_codec.encode(low)
        hi = tree.key_codec.encode(high)
        tree.stats.reset(), oracle.stats.reset()
        assert list(tree.range(lo, hi)) == list(oracle.range(lo, hi))
        assert stats_triple(tree) == stats_triple(oracle)


class TestSerialization:
    def test_pack_unpack_round_trip(self):
        tree = make_tree(UIntCodec(16), leaf_cap=3)
        load_int_pairs(tree, [5**i for i in range(40)], fill=0.8)
        packed = tree.packed_layout
        buffer = pack_arrays(packed.to_arrays())
        restored = PackedTree.from_arrays(tree.key_codec,
                                          unpack_arrays(buffer))
        assert restored.count == packed.count
        np.testing.assert_array_equal(restored.keys_raw, packed.keys_raw)
        np.testing.assert_array_equal(restored.values_raw,
                                      packed.values_raw)
        np.testing.assert_array_equal(restored.leaf_starts,
                                      packed.leaf_starts)
        key = tree.key_codec.encode(5**7)
        np.testing.assert_array_equal(restored.nearest_positions(key, 9),
                                      packed.nearest_positions(key, 9))

    def test_unpacked_views_are_zero_copy(self):
        tree = make_tree(UIntCodec(8))
        load_int_pairs(tree, range(30))
        buffer = np.frombuffer(pack_arrays(tree.packed_layout.to_arrays()),
                               dtype=np.uint8)
        arrays = unpack_arrays(buffer)
        for array in arrays.values():
            assert array.base is not None
