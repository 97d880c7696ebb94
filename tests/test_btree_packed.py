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


def draw_keys(draw, width):
    """(keys, centre) of ``width`` bytes, shaped to reach what a merge on
    leading distance words could get wrong."""
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
    return keys, centre


def draw_probe(draw, width, keys, centre):
    top = (1 << (8 * width)) - 1
    return draw(st.one_of(
        st.just(centre), st.sampled_from(keys), st.just(0), st.just(top),
        st.just(max(0, min(keys) - 1)), st.just(min(top, max(keys) + 1)),
        st.integers(min_value=0, max_value=top)))


@st.composite
def wide_key_cases(draw):
    """(width, keys, probe, count, leaf capacity) for keys wider than one
    word."""
    width = draw(st.sampled_from([9, 12, 16, 24, 40]))
    keys, centre = draw_keys(draw, width)
    probe = draw_probe(draw, width, keys, centre)
    count = draw(st.sampled_from(
        [1, len(keys) - 1, len(keys), len(keys) + 5]).filter(bool))
    return width, keys, probe, count, draw(st.integers(2, 7))


@st.composite
def subset_cases(draw):
    """(width, keys, probe, count, leaf capacity, eligible mask) for a
    lookup among a subset of the entries."""
    width = draw(st.sampled_from([4, 8, 9, 16, 24]))
    keys, centre = draw_keys(draw, width)
    probe = draw_probe(draw, width, keys, centre)
    count = draw(st.sampled_from([1, 3, 17, len(keys), len(keys) + 5]))
    selectivity = draw(st.sampled_from([0, 0.02, 0.1, 0.5, 1]))
    mask = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(
        len(keys)) < selectivity
    return width, keys, probe, count, draw(st.integers(1, 7)), mask


def subset_lookup(width, keys, probe, count, leaf_cap, mask):
    """One lookup among the entries ``mask`` marks (by key-ordered
    position), answered by the columns and by the filtered node walk:
    ((positions, pages read) of each, the packed layout, the raw key)."""
    tree = make_tree(UIntCodec(width), leaf_cap=leaf_cap)
    load_int_pairs(tree, keys)  # the value of an entry is its position
    oracle = node_path_copy(tree, keys)
    oracle._store.stats = ReadLog()
    raw, log = tree.key_codec.encode(probe), ReadLog()
    got = tree.packed_layout.nearest_positions(raw, count, log,
                                               np.flatnonzero(mask))
    want = [int.from_bytes(value, "big") for _, value in oracle.nearest(
        raw, count, lambda entry: mask[int.from_bytes(entry[1], "big")])]
    return ((got.tolist(), log.pages), (want, oracle.stats.pages),
            tree.packed_layout, raw)


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


class TestSubsetLookup:
    """``nearest_positions(subset=...)``: the ``count`` nearest among a
    subset of the entries, and the page reads of the walk that passes
    over the others."""

    @given(subset_cases())
    @settings(max_examples=400, deadline=None)
    def test_subset_property(self, case):
        got, want, packed, raw = subset_lookup(*case)
        assert got == want
        if case[-1].all():
            # Every entry eligible: the unrestricted lookup, exactly.
            log = ReadLog()
            plain = packed.nearest_positions(raw, case[3], log)
            assert (plain.tolist(), log.pages) == got

    @pytest.mark.parametrize("width", [8, 16])
    def test_exhausted_subset_walks_to_both_ends(self, width):
        keys = [7 * i for i in range(40)]
        mask = np.zeros(40, dtype=bool)
        mask[[2, 11, 30]] = True
        got, want, packed, _ = subset_lookup(width, keys, 7 * 12 + 1, 5, 3,
                                             mask)
        assert got == want
        assert got[0] == [11, 2, 30]
        assert set(got[1]) >= set(packed.leaf_pages.tolist())

    def test_boundary_entries_tying_on_the_leading_word(self, monkeypatch):
        """Leaf reads are ordered by the distance of the entry whose pick
        triggers them; here a backward one (distance 2**64 + 1) goes
        before a forward one (2**64 + 3) although their leading words
        tie, which forward would win."""
        word, target = 1 << 64, (5 << 64) + 0x80
        keys = [target - 3 * word - 9, target - 3 * word, target - word - 1,
                target - 1, target + 1, target + word + 3,
                target + 3 * word, target + 3 * word + 9]
        mask = np.zeros(8, dtype=bool)
        mask[[0, 7]] = True
        settled = []
        settle = PackedTree._settle_ties

        def recording(self, key, fwd, *rest):
            settled.append(np.asarray(fwd).tolist())
            return settle(self, key, fwd, *rest)

        monkeypatch.setattr(PackedTree, "_settle_ties", recording)
        got, want, packed, _ = subset_lookup(16, keys, target, 2, 2, mask)
        assert got == want
        assert got[0] == [7, 0]
        assert got[1][-2:] == [0, 3]
        assert [5] in settled  # among the boundary entries

    def test_float_keys_refused(self):
        tree = make_tree(Float64Codec())
        load_int_pairs(tree, [0.5, 1.5, 2.5])
        with pytest.raises(ValueError, match="integer keys"):
            tree.packed_layout.nearest_positions(
                Float64Codec().encode(1.0), 2, None, np.arange(3))


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
