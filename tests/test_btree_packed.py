"""Packed-array read path vs the node walk.

The packed layout (:mod:`repro.btree.packed`) must be *indistinguishable*
from walking the tree's nodes (:mod:`repro.devtools.nodewalk`): same
entries from ``range``, same entries in the same order from ``nearest``,
and the same synthesized page-read accounting (total, random,
sequential) — the bench numbers are only meaningful if the array path
charges the I/O a node-by-node walk would have performed.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.btree.packed import PackedTree, bulk_load, key_kind
from repro.devtools.nodewalk import NodeWalk
from repro.storage import (
    BytesCodec,
    Float64Codec,
    UInt64Codec,
    UIntCodec,
    pack_arrays,
    unpack_arrays,
)
from repro.storage.stats import IOStats


def make_tree(key_codec, keys, leaf_cap=4, internal_cap=3):
    """(columns, node walk) of ``keys`` in sorted order, the value of an
    entry its position; three separators a node, so a few dozen keys
    already make several levels."""
    keys = sorted(keys)
    raw = np.frombuffer(b"".join(key_codec.encode(k) for k in keys),
                        dtype=np.uint8).reshape(-1, key_codec.width)
    values = np.arange(len(keys), dtype=">u8").view(np.uint8).reshape(-1, 8)
    packed = PackedTree.from_sorted(key_codec, raw, values, leaf_cap,
                                    internal_cap)
    return packed, NodeWalk(key_codec, packed.entries(range(packed.count)),
                            leaf_cap, internal_cap)


def stats_triple(stats):
    return stats.page_reads, stats.random_reads, stats.sequential_reads


def nearest_both(packed, walk, raw, count, stats_cls=IOStats):
    """``nearest`` on the columns and on the walk: (entries, stats) each."""
    packed_stats, walk_stats = stats_cls(), stats_cls()
    got = packed.entries(packed.nearest_positions(raw, count, packed_stats))
    return (got, packed_stats), (walk.nearest(raw, count, walk_stats),
                                 walk_stats)


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
    shape = draw(st.sampled_from(["spread", "shared-head", "last-word",
                                  "mirrored"]))
    if shape == "spread":
        keys = draw(st.lists(anywhere, min_size=1, max_size=40))
    elif shape == "last-word":
        # Every 64-bit word but the last (of the key zero-padded to whole
        # words) shared: leading words tie and the borrow runs through
        # every equal tail word.
        low = 8 * (width - 8 * ((width - 1) // 8))
        base = centre >> low << low
        last = st.integers(min_value=0, max_value=(1 << low) - 1)
        keys = [base | word for word in draw(st.lists(last, min_size=1,
                                                        max_size=40))]
        centre = base | draw(last)
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
    codec = UIntCodec(width)
    packed, walk = make_tree(codec, keys, leaf_cap)
    raw, log, walk_log = codec.encode(probe), ReadLog(), ReadLog()
    got = packed.nearest_positions(raw, count, log, np.flatnonzero(mask))
    want = [int.from_bytes(value, "big") for _, value in walk.nearest(
        raw, count, walk_log,
        lambda entry: mask[int.from_bytes(entry[1], "big")])]
    return ((got.tolist(), log.pages), (want, walk_log.pages), packed, raw)


class TestActivation:
    def test_bulk_load_captures_packed(self):
        tree, stats = bulk_load(UIntCodec(8), range(0, 100, 3),
                                np.arange(34), 4096)
        assert tree.count == 34 and tree.height == 1
        assert tree.entries([5])[0] == ((15).to_bytes(8, "big"),
                                         (5).to_bytes(8, "big"))
        assert stats.page_writes == tree.num_pages == 1

    def test_key_kinds(self):
        assert key_kind(UIntCodec(16)) == "uint"
        assert key_kind(UInt64Codec()) == "uint"
        assert key_kind(Float64Codec()) == "float"
        assert key_kind(BytesCodec(8)) is None

    def test_opaque_keys_not_captured(self):
        keys = np.arange(10, dtype=">u4").view(np.uint8).reshape(10, 4)
        with pytest.raises(ValueError, match="cannot pack"):
            PackedTree.from_sorted(BytesCodec(4), keys, keys, 4, 3)


class TestParity:
    """Packed answers and stats vs the node walk."""

    CASES = [
        (UIntCodec(2), range(0, 300, 7), 4),
        (UIntCodec(8), [0, 1, 1, 1, 5, 5, 9, 2**40], 2),
        (UIntCodec(16), [3**i for i in range(60)], 3),
        (Float64Codec(), [-50.0, -1.5, 0.0, 0.25, 3.0, 1e12], 3),
    ]

    @pytest.mark.parametrize("codec,keys,leaf_cap", CASES,
                             ids=["u16", "dup-u64", "wide-u128", "f64"])
    def test_range_parity(self, codec, keys, leaf_cap):
        keys = list(keys)
        packed, walk = make_tree(codec, keys, leaf_cap)
        probes = [(min(keys), max(keys)), (keys[0], keys[0]),
                  (min(keys), keys[len(keys) // 2])]
        for low, high in probes:
            lo, hi = codec.encode(low), codec.encode(high)
            packed_stats, walk_stats = IOStats(), IOStats()
            assert list(packed.range_entries(lo, hi, packed_stats)) == \
                list(walk.range(lo, hi, walk_stats))
            assert stats_triple(packed_stats) == stats_triple(walk_stats)

    @pytest.mark.parametrize("codec,keys,leaf_cap", CASES,
                             ids=["u16", "dup-u64", "wide-u128", "f64"])
    def test_nearest_parity(self, codec, keys, leaf_cap):
        keys = list(keys)
        packed, walk = make_tree(codec, keys, leaf_cap)
        for probe in {min(keys), max(keys), keys[len(keys) // 2]}:
            for count in (1, 3, len(keys), len(keys) + 5):
                (got, got_stats), (want, want_stats) = nearest_both(
                    packed, walk, codec.encode(probe), count)
                assert got == want
                assert stats_triple(got_stats) == stats_triple(want_stats)

    @given(st.lists(st.integers(min_value=0, max_value=2**31),
                    min_size=1, max_size=80),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=2**31),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_nearest_property(self, keys, leaf_cap, probe, count):
        packed, walk = make_tree(UIntCodec(8), keys, leaf_cap)
        (got, got_stats), (want, want_stats) = nearest_both(
            packed, walk, UIntCodec(8).encode(probe), count)
        assert got == want
        assert stats_triple(got_stats) == stats_triple(want_stats)

    @given(wide_key_cases())
    @settings(max_examples=300, deadline=None)
    def test_nearest_property_wide_keys(self, case):
        """Keys of more than 8 bytes: same entries in the same order and
        the same page-read *sequence* as the node path."""
        width, keys, probe, count, leaf_cap = case
        packed, walk = make_tree(UIntCodec(width), keys, leaf_cap)
        (got, got_log), (want, want_log) = nearest_both(
            packed, walk, UIntCodec(width).encode(probe), count, ReadLog)
        assert got == want
        assert got_log.pages == want_log.pages
        assert stats_triple(got_log) == stats_triple(want_log)

    @given(st.lists(st.integers(min_value=0, max_value=1000),
                    min_size=1, max_size=60),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=1000),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=60, deadline=None)
    def test_range_property(self, keys, leaf_cap, bound_a, bound_b):
        low, high = sorted((bound_a, bound_b))
        packed, walk = make_tree(UIntCodec(8), keys, leaf_cap)
        lo, hi = UIntCodec(8).encode(low), UIntCodec(8).encode(high)
        packed_log, walk_log = ReadLog(), ReadLog()
        assert list(packed.range_entries(lo, hi, packed_log)) == \
            list(walk.range(lo, hi, walk_log))
        assert packed_log.pages == walk_log.pages


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

        def recording(self, key, words, behind, *rest):
            # The forward window's keys: the run's rows from ``behind`` on.
            settled.append([int.from_bytes(row.astype(">u8").tobytes(), "big")
                            for row in words[behind:]])
            return settle(self, key, words, behind, *rest)

        monkeypatch.setattr(PackedTree, "_settle_ties", recording)
        got, want, packed, _ = subset_lookup(16, keys, target, 2, 2, mask)
        assert got == want
        assert got[0] == [7, 0]
        assert got[1][-2:] == [0, 3]
        # Among the boundary entries: the last entry of a leaf, at 5.
        assert [keys[5]] in settled

    def test_float_keys_refused(self):
        packed, _ = make_tree(Float64Codec(), [0.5, 1.5, 2.5])
        with pytest.raises(ValueError, match="integer keys"):
            packed.nearest_positions(
                Float64Codec().encode(1.0), 2, None, np.arange(3))


def walked_descent(packed, leaf):
    """Root-first pages of a descent to ``leaf``, found level by level:
    the parent index at each internal level from its child counts."""
    pages, index = [int(packed.leaf_pages[leaf])], leaf
    for starts, level_pages in zip(packed.level_starts[::-1],
                                   packed.level_pages[::-1]):
        index = int(starts.searchsorted(index, side="right")) - 1
        pages.append(int(level_pages[index]))
    return pages[::-1]


@st.composite
def layouts(draw):
    """(height, entries, leaf capacity, internal capacity) of a bulk
    load with 1 to 4 levels."""
    height = draw(st.integers(1, 4))
    leaf_cap, internal_cap = draw(st.integers(1, 4)), draw(st.integers(2, 3))
    fanout = internal_cap + 1
    leaves = 1 if height == 1 else draw(st.integers(
        fanout ** (height - 2) + 1, fanout ** (height - 1)))
    count = draw(st.integers((leaves - 1) * leaf_cap + 1, leaves * leaf_cap))
    return height, count, leaf_cap, internal_cap


class TestAncestorTable:
    """Descents read one row of a table derived with the layout; it is
    not part of the ``.packed`` file."""

    @given(layouts())
    @settings(max_examples=150, deadline=None)
    def test_rows_are_the_level_by_level_walk(self, layout):
        height, count, leaf_cap, internal_cap = layout
        codec = UIntCodec(4)
        keys = np.arange(count, dtype=">u4").view(np.uint8).reshape(count, 4)
        packed = PackedTree.from_sorted(codec, keys, keys, leaf_cap,
                                        internal_cap)
        assert packed.height == height
        arrays = packed.to_arrays()
        assert sorted(arrays) == sorted(
            ["keys", "values", "leaf_starts", "leaf_pages", "num_levels"]
            + [f"level_{level}_{part}" for level in range(height - 1)
               for part in ("pages", "starts")])
        restored = PackedTree.from_arrays(codec,
                                          unpack_arrays(pack_arrays(arrays)))
        for tree in (packed, restored):
            for leaf in range(packed.leaf_pages.size):
                assert tree._descent_pages(leaf).tolist() == \
                    walked_descent(packed, leaf)


class TestSerialization:
    def test_pack_unpack_round_trip(self):
        codec = UIntCodec(16)
        packed, _ = make_tree(codec, [5**i for i in range(40)], leaf_cap=2)
        buffer = pack_arrays(packed.to_arrays())
        restored = PackedTree.from_arrays(codec, unpack_arrays(buffer))
        assert restored.count == packed.count
        np.testing.assert_array_equal(restored.keys_raw, packed.keys_raw)
        np.testing.assert_array_equal(restored.values_raw,
                                      packed.values_raw)
        np.testing.assert_array_equal(restored.leaf_starts,
                                      packed.leaf_starts)
        key = codec.encode(5**7)
        np.testing.assert_array_equal(restored.nearest_positions(key, 9),
                                      packed.nearest_positions(key, 9))

    def test_unpacked_views_are_zero_copy(self):
        packed, _ = make_tree(UIntCodec(8), range(30))
        buffer = np.frombuffer(pack_arrays(packed.to_arrays()),
                               dtype=np.uint8)
        arrays = unpack_arrays(buffer)
        for array in arrays.values():
            assert array.base is not None
