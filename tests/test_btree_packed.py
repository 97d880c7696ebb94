"""Packed-array read path vs the node walk.

The packed layout (:mod:`repro.btree.packed`) must be *indistinguishable*
from walking the tree's nodes (:mod:`repro.devtools.nodewalk`): same
entries from ``range``, the same set of entries from ``nearest`` (the
columns return it in key order, the walk nearest first), and the same
page reads counted from any previous page: the total, the
random/sequential split and the last page read.  The bench numbers are
only meaningful if the array path charges the I/O a node-by-node walk
would have performed.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.btree.packed import PackedTree, bulk_load, key_kind
from repro.devtools.nodewalk import NodeWalk
from repro.storage import (
    Codec,
    Float64Codec,
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
    packed = PackedTree(key_codec, raw, values, leaf_cap, internal_cap)
    return packed, NodeWalk(key_codec, packed.entries(range(packed.count)),
                            leaf_cap, internal_cap)


def layout_arrays(packed):
    """A layout's two columns and its geometry, by name."""
    arrays = {"keys": packed.keys_raw, "values": packed.values_raw,
              "leaf_starts": packed.leaf_starts,
              "leaf_pages": packed.leaf_pages}
    for level, (pages, starts) in enumerate(zip(packed.level_pages,
                                                packed.level_starts)):
        arrays[f"level_{level}_pages"] = pages
        arrays[f"level_{level}_starts"] = starts
    return arrays


def counts(stats):
    """What a lookup leaves in its accountant: the reads, their
    random/sequential split and the last page read (which the next
    lookup's first read is classified against)."""
    return (stats.page_reads, stats.random_reads, stats.sequential_reads,
            stats._last_read_page)


def seeded(previous=-2):
    """An accountant whose last read was page ``previous``."""
    return IOStats(_last_read_page=previous)


def nearest_both(packed, walk, raw, count, previous=-2):
    """``nearest`` on the columns and on the walk, both counting from
    page ``previous``: (entries, counts) each, the walk's entries in key
    order (values are positions, so sorting them is the key order the
    columns return)."""
    packed_stats, walk_stats = seeded(previous), seeded(previous)
    got = packed.entries(packed.nearest_positions(raw, count, packed_stats))
    return (got, counts(packed_stats)), (
        sorted(walk.nearest(raw, count, walk_stats)), counts(walk_stats))


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
    ((ascending positions, counts) of each, the packed layout, the raw
    key)."""
    codec = UIntCodec(width)
    packed, walk = make_tree(codec, keys, leaf_cap)
    raw, stats, walk_stats = codec.encode(probe), IOStats(), IOStats()
    got = packed.nearest_positions(raw, count, stats, np.flatnonzero(mask))
    want = sorted(int.from_bytes(value, "big") for _, value in walk.nearest(
        raw, count, walk_stats,
        lambda entry: mask[int.from_bytes(entry[1], "big")]))
    return ((got.tolist(), counts(stats)), (want, counts(walk_stats)),
            packed, raw)


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
        assert key_kind(Float64Codec()) == "float"
        assert key_kind(Codec()) is None

    def test_opaque_keys_not_captured(self):
        keys = np.arange(10, dtype=">u4").view(np.uint8).reshape(10, 4)
        with pytest.raises(ValueError, match="cannot pack"):
            PackedTree(Codec(), keys, keys, 4, 3)


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
            assert counts(packed_stats) == counts(walk_stats)

    @pytest.mark.parametrize("codec,keys,leaf_cap", CASES,
                             ids=["u16", "dup-u64", "wide-u128", "f64"])
    def test_nearest_parity(self, codec, keys, leaf_cap):
        keys = list(keys)
        packed, walk = make_tree(codec, keys, leaf_cap)
        for probe in {min(keys), max(keys), keys[len(keys) // 2]}:
            for count in (1, 3, len(keys), len(keys) + 5):
                got, want = nearest_both(packed, walk, codec.encode(probe),
                                         count, packed.root - 1)
                assert got == want

    @given(st.lists(st.integers(min_value=0, max_value=2**31),
                    min_size=1, max_size=80),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=2**31),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_nearest_property(self, keys, leaf_cap, probe, count):
        packed, walk = make_tree(UIntCodec(8), keys, leaf_cap)
        got, want = nearest_both(packed, walk, UIntCodec(8).encode(probe),
                                 count)
        assert got == want

    @given(wide_key_cases())
    @settings(max_examples=300, deadline=None)
    def test_nearest_property_wide_keys(self, case):
        """Keys of more than 8 bytes: the same entries as the node path,
        and the same reads counted, after a random read and after the
        page below the root (so the first descent is sequential)."""
        width, keys, probe, count, leaf_cap = case
        packed, walk = make_tree(UIntCodec(width), keys, leaf_cap)
        for previous in (-2, packed.root - 1):
            got, want = nearest_both(packed, walk,
                                     UIntCodec(width).encode(probe), count,
                                     previous)
            assert got == want

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
        for previous in (-2, packed.root - 1):
            packed_stats, walk_stats = seeded(previous), seeded(previous)
            assert list(packed.range_entries(lo, hi, packed_stats)) == \
                list(walk.range(lo, hi, walk_stats))
            assert counts(packed_stats) == counts(walk_stats)


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
            stats = IOStats()
            plain = packed.nearest_positions(raw, case[3], stats)
            assert (plain.tolist(), counts(stats)) == got

    @pytest.mark.parametrize("width", [8, 16])
    def test_exhausted_subset_walks_to_both_ends(self, width):
        keys = [7 * i for i in range(40)]
        mask = np.zeros(40, dtype=bool)
        mask[[2, 11, 30]] = True
        got, want, packed, _ = subset_lookup(width, keys, 7 * 12 + 1, 5, 3,
                                             mask)
        assert got == want
        assert got[0] == [2, 11, 30]
        # Both descents read the landing leaf; every other leaf is read
        # once.
        assert got[1][0] == 2 * packed.height + packed.leaf_pages.size - 1

    def test_boundary_entries_tying_on_the_leading_word(self, monkeypatch):
        """Leaf reads are ordered by the distance of the entry whose pick
        triggers them; here a backward one (distance 2**64 + 1) goes
        before a forward one (2**64 + 3) although their leading words
        tie, which forward would win.  The two frontier picks (both at
        3 * 2**64 + 9) tie exactly: the backward one is the last pick."""
        word, target = 1 << 64, (5 << 64) + 0x80
        keys = [target - 3 * word - 9, target - 3 * word, target - word - 1,
                target - 1, target + 1, target + word + 3,
                target + 3 * word, target + 3 * word + 9]
        mask = np.zeros(8, dtype=bool)
        mask[[0, 7]] = True
        settled = []
        exact = PackedTree._exact

        def recording(self, key, words):
            settled.append([int.from_bytes(row.astype(">u8").tobytes(), "big")
                            for row in words])
            return exact(self, key, words)

        monkeypatch.setattr(PackedTree, "_exact", recording)
        got, want, packed, _ = subset_lookup(16, keys, target, 2, 2, mask)
        assert got == want
        assert got[0] == [0, 7]
        # Leaf 0 is read before leaf 3: the last page read is 3.
        assert got[1][3] == 3
        # The frontier, then the boundary entries: the last entry of a
        # leaf going forward (5), the first of one going backward (2).
        # (Under the sanitizer the lookup runs twice.)
        assert settled[-4:] == [[keys[7]], [keys[0]], [keys[5]], [keys[2]]]

    def test_float_keys_refused(self):
        packed, _ = make_tree(Float64Codec(), [0.5, 1.5, 2.5])
        with pytest.raises(ValueError, match="integer keys"):
            packed.nearest_positions(
                Float64Codec().encode(1.0), 2, None, np.arange(3))


@st.composite
def counted_cases(draw):
    """(width, keys, probe, count, leaf capacity, eligible mask or None)
    where a counted window is easy to get wrong: clipped at 0 or at n,
    wider than the tree, over duplicates spanning leaves."""
    width = draw(st.sampled_from([2, 8, 24]))
    top = (1 << (8 * width)) - 1
    values = draw(st.lists(st.integers(0, 12), min_size=1, max_size=50))
    step = draw(st.sampled_from([1, 1 << (8 * width - 8), top // 13]))
    keys = [value * step for value in values]  # few distinct: duplicates
    probe = draw(st.sampled_from([0, min(keys), max(keys), top,
                                  keys[len(keys) // 2]]))
    count = draw(st.sampled_from([1, 2, len(keys) // 2 + 1, len(keys),
                                  len(keys) + 1, 3 * len(keys)]))
    mask = None
    if draw(st.booleans()):
        mask = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))) \
            .random(len(keys)) < draw(st.sampled_from([0.2, 0.6, 1.0]))
    return width, keys, probe, count, draw(st.integers(1, 4)), mask


W24 = 1 << 128  #: a 24-byte key's leading word counts in units of this


def walk_and_columns(width, keys, probe, count, leaf_cap, mask=None,
                     previous=-2):
    """One lookup on the columns and down the node walk, both counting
    from page ``previous``: (ascending positions, counts) of each."""
    codec = UIntCodec(width)
    packed, walk = make_tree(codec, keys, leaf_cap)
    raw, stats, walk_stats = (codec.encode(probe), seeded(previous),
                              seeded(previous))
    got = packed.nearest_positions(
        raw, count, stats, None if mask is None else np.flatnonzero(mask))
    accept = None if mask is None else (
        lambda entry: mask[int.from_bytes(entry[1], "big")])
    want = sorted(int.from_bytes(value, "big") for _, value in walk.nearest(
        raw, count, walk_stats, accept))
    return (got.tolist(), counts(stats)), (want, counts(walk_stats))


class TestCountedWindow:
    """The count of forward picks (no sort) against the node walk: the
    same entries as a set and the same reads counted, split and last
    page included."""

    @given(counted_cases(), st.sampled_from([-2, 0, 1, 5]))
    @settings(max_examples=400, deadline=None)
    def test_count_property(self, case, previous):
        got, want = walk_and_columns(*case, previous=previous)
        assert got == want
        positions = got[0]
        assert positions == sorted(set(positions))  # ascending, distinct

    @pytest.mark.parametrize("forward,backward,picked", [
        (W24 + 3, W24 + 5, 3), (W24 + 5, W24 + 3, 0)],
        ids=["forward-nearer", "backward-nearer"])
    def test_leading_words_tie_at_the_crossover_pair(self, forward,
                                                     backward, picked):
        """The third pick is the forward entry at W + 3 or the backward
        one at W + 3: their leading words (1) tie, the tails decide."""
        target = (7 << 128) + (1 << 100)
        keys = [target - backward, target - 1, target + 1, target + forward]
        got, want = walk_and_columns(24, keys, target, 3, 2)
        assert got == want
        assert picked in got[0] and len(got[0]) == 3

    def test_leading_words_tie_between_two_boundary_reads(self):
        """A plain lookup: the backward pick at W + 1 that closes a leaf
        reads its sibling before the forward pick at W + 3 that ends one
        reads the next leaf, though forward wins a tie of leading words."""
        target = (7 << 128) + (1 << 100)
        offsets = [-3 * W24 - 9, -3 * W24, -W24 - 1, -1, 1, W24 + 3,
                   3 * W24, 3 * W24 + 9]
        got, want = walk_and_columns(
            24, [target + offset for offset in offsets], target, 6, 2)
        assert got == want
        assert got[0] == [1, 2, 3, 4, 5, 6]
        assert got[1][3] == 3  # leaf 0 (before 2), then leaf 3

    @pytest.mark.parametrize("forward,backward", [
        (3 * W24 + 7, 3 * W24 + 9), (3 * W24 + 9, 3 * W24 + 7)],
        ids=["backward-last", "forward-last"])
    def test_leading_words_tie_at_a_subset_frontier(self, forward,
                                                    backward):
        """The last pick, which fixes how far the walk went, is the
        farther frontier entry; both leading words are 3.  A further
        forward entry, alone in the last leaf, is read only when the
        forward scan has to pass the nearer forward frontier."""
        target = (7 << 128) + (1 << 100)
        offsets = [-backward, -3 * W24, -W24 - 1, -1, 1, W24 + 3,
                   forward, forward, 3 * W24 + 8]
        mask = np.zeros(len(offsets), dtype=bool)
        mask[[0, 6]] = True
        got, want = walk_and_columns(
            24, [target + offset for offset in offsets], target, 2, 2, mask)
        assert got == want
        assert got[0] == [0, 6]
        # Leaf 4 is one read more, and then the last page read.
        assert got[1][0] == 9 + (forward < backward)
        assert (got[1][3] == 4) == (forward < backward)


@st.composite
def counted_read_cases(draw):
    """(codec, keys, probe, count, leaf and internal capacities, eligible
    mask or None): integer keys of 1 to 17 bytes shaped so that leading
    distance words tie, or float keys; for integer keys, sometimes a
    lookup among a subset, down to no entry eligible (both directions
    run dry)."""
    mask = None
    if draw(st.integers(0, 4)) == 0:
        codec = Float64Codec()
        values = st.one_of(st.sampled_from([-2.5, 0.0, 1.0, 1e12]),
                           st.floats(-1e6, 1e6, allow_nan=False))
        # + 0.0: -0.0 and 0.0 are one key.
        keys = [key + 0.0 for key in draw(st.lists(values, min_size=1,
                                                   max_size=40))]
        probe = draw(st.one_of(st.sampled_from(keys), values)) + 0.0
    else:
        width = draw(st.integers(1, 17))
        codec = UIntCodec(width)
        keys, centre = draw_keys(draw, width)
        probe = draw_probe(draw, width, keys, centre)
        if draw(st.booleans()):
            mask = np.random.default_rng(draw(st.integers(0, 2**32 - 1))) \
                .random(len(keys)) < draw(st.sampled_from([0, 0.1, 0.5, 1]))
    return (codec, keys, probe, draw(st.integers(1, len(keys) + 5)),
            draw(st.integers(1, 5)), draw(st.integers(2, 3)), mask)


class TestCountedReads:
    """The four numbers a lookup leaves in its accountant — reads,
    random and sequential reads, last page — against the node walk's
    page reads fed one by one through an :class:`IOStats`, from a
    previous read that is random, just below the root (the first
    descent then reads sequentially) or anywhere."""

    @given(counted_read_cases(), st.data())
    @settings(max_examples=400, deadline=None)
    def test_counts_equal_the_walk(self, case, data):
        codec, keys, probe, count, leaf_cap, internal_cap, mask = case
        packed, walk = make_tree(codec, keys, leaf_cap, internal_cap)
        previous = data.draw(st.one_of(
            st.just(-2), st.just(packed.root - 1),
            st.integers(0, packed.num_pages - 1)))
        raw, subset, accept = codec.encode(probe), None, None
        if mask is not None:
            subset = np.flatnonzero(mask)
            accept = lambda entry: mask[int.from_bytes(entry[1], "big")]
        stats, walk_stats = seeded(previous), seeded(previous)
        got = packed.entries(packed.nearest_positions(raw, count, stats,
                                                      subset))
        assert got == sorted(walk.nearest(raw, count, walk_stats, accept))
        assert counts(stats) == counts(walk_stats)


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


class TestDescentCount:
    """A descent is counted, not listed: its reads are the height, and
    only the first, the root's, can follow on the previous read — which
    holds on every layout bulk loading makes."""

    @given(layouts())
    @settings(max_examples=150, deadline=None)
    def test_counted_descent_is_the_level_by_level_walk(self, layout):
        height, count, leaf_cap, internal_cap = layout
        codec = UIntCodec(4)
        keys = np.arange(count, dtype=">u4").view(np.uint8).reshape(count, 4)
        packed = PackedTree(codec, keys, keys, leaf_cap, internal_cap)
        assert packed.height == height
        for leaf in range(packed.leaf_pages.size):
            walked = walked_descent(packed, leaf)
            assert walked[0] == packed.root and walked[-1] == leaf
            for previous in (-2, packed.root - 1, leaf):
                counted, read = seeded(previous), seeded(previous)
                packed._count_descent(counted, leaf)
                for page in walked:
                    read.record_read(page)
                assert counts(counted) == counts(read)


class TestSerialization:
    """A tree is stored as its two columns; the same capacities lay them
    out again as the layout they came from."""

    def test_pack_unpack_round_trip(self):
        codec = UIntCodec(16)
        packed, _ = make_tree(codec, [5**i for i in range(40)], leaf_cap=2)
        arrays = unpack_arrays(b"".join(pack_arrays(
            {"keys": packed.keys_raw, "values": packed.values_raw})))
        restored = PackedTree(codec, arrays["keys"], arrays["values"], 2, 3)
        want = layout_arrays(packed)
        for name, array in layout_arrays(restored).items():
            np.testing.assert_array_equal(array, want.pop(name),
                                          err_msg=name)
        assert not want
        key = codec.encode(5**7)
        np.testing.assert_array_equal(restored.nearest_positions(key, 9),
                                      packed.nearest_positions(key, 9))

    def test_unpacked_views_are_zero_copy(self):
        packed, _ = make_tree(UIntCodec(8), range(30))
        buffer = np.frombuffer(b"".join(pack_arrays(
            {"keys": packed.keys_raw, "values": packed.values_raw})),
            dtype=np.uint8)
        arrays = unpack_arrays(buffer)
        for array in arrays.values():
            assert array.base is not None
