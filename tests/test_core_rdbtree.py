"""Unit tests for the RDB-tree (Sec. 3.2).

The tree is two sorted columns plus page geometry; the node walk
(:mod:`repro.devtools.nodewalk`) — the same sorted entries laid out as a
bulk load lays them out and read node by node — is the reference every
build and lookup here is diffed against, and a stable sort (base first,
then the delta in input order) the reference of a merge.
"""

import itertools
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import rdb_leaf_order
from repro.core.filters import CandidateWindowError
from repro.core.rdbtree import RDBTree
from repro.devtools.nodewalk import NodeWalk
from repro.devtools.sanitize import node_oracle
from repro.hilbert import HilbertCurve
from repro.storage import UIntCodec, pack_arrays
from test_btree import top_down_layout
from test_btree_packed import counts, layout_arrays, seeded


def build_tree(n=200, dim=4, order=8, m=5, seed=0):
    rng = np.random.default_rng(seed)
    curve = HilbertCurve(dim, order)
    coords = rng.integers(0, 1 << order, size=(n, dim))
    keys = curve.encode_batch(coords)
    ids = np.arange(n, dtype=np.int64)
    ref_dists = rng.uniform(0.0, 100.0, size=(n, m)).astype(np.float32)
    tree = RDBTree(curve, m)
    tree.bulk_build(keys, ids, ref_dists)
    return tree, keys, ids, ref_dists


class TestConstruction:
    def test_leaf_order_matches_eq4(self):
        curve = HilbertCurve(16, 8)
        tree = RDBTree(curve, 10)
        assert tree.leaf_order == rdb_leaf_order(16, 8, 10)

    def test_page_too_small_for_one_entry_rejected(self):
        """A 4-byte key with a pointer and five distances is 32 bytes."""
        with pytest.raises(ValueError, match="cannot hold one RDB leaf"):
            RDBTree(HilbertCurve(4, 8), 5, page_size=32)
        tree = RDBTree(HilbertCurve(4, 8), 5, page_size=64)
        assert (tree.page_size, tree.leaf_capacity) == (64, 1)

    def test_bulk_build_count_and_height(self):
        tree, *_ = build_tree(n=500)
        assert len(tree) == 500
        assert tree.height >= 1

    def test_misaligned_inputs_rejected(self):
        curve = HilbertCurve(4, 8)
        tree = RDBTree(curve, 5)
        with pytest.raises(ValueError):
            tree.bulk_build(np.asarray([1, 2], dtype=object),
                            np.asarray([0]), np.zeros((2, 5)))
        with pytest.raises(ValueError):
            tree.bulk_build(np.asarray([1], dtype=object),
                            np.asarray([0]), np.zeros((1, 3)))

    def test_unsorted_keys_accepted(self):
        """bulk_build sorts internally (Algo. 1 inserts by Hilbert key)."""
        curve = HilbertCurve(2, 4)
        tree = RDBTree(curve, 2)
        keys = np.asarray([9, 1, 5], dtype=object)
        tree.bulk_build(keys, np.asarray([0, 1, 2]),
                        np.zeros((3, 2), dtype=np.float32))
        assert len(tree) == 3


class TestCandidates:
    def test_returns_alpha_nearest_by_key(self):
        tree, keys, ids, _ = build_tree(n=300, seed=1)
        probe = int(keys[137])
        got_ids, got_dists = tree.candidates(probe, 20)
        assert got_ids.shape == (20,)
        assert got_dists.shape == (20, 5)
        expected = sorted(range(300), key=lambda i: abs(int(keys[i]) - probe))
        got_key_dists = sorted(abs(int(keys[i]) - probe) for i in got_ids)
        expected_dists = sorted(abs(int(keys[i]) - probe)
                                for i in expected[:20])
        assert got_key_dists == expected_dists

    def test_reference_distances_round_trip(self):
        tree, keys, ids, ref = build_tree(n=100, seed=2)
        got_ids, got_dists = tree.candidates(int(keys[0]), 100)
        for row, object_id in enumerate(got_ids):
            np.testing.assert_allclose(got_dists[row],
                                       ref[object_id], rtol=1e-6)

    def test_alpha_larger_than_tree(self):
        tree, *_ = build_tree(n=30)
        got_ids, _ = tree.candidates(0, 100)
        assert got_ids.shape == (30,)

    def test_io_counted(self):
        tree, keys, *_ = build_tree(n=500)
        tree.stats.reset()
        tree.candidates(int(keys[250]), 50)
        # Descent + ceil(50/leaf_order) leaves at minimum.
        assert tree.stats.page_reads >= tree.height

    @pytest.mark.parametrize("alpha", [0, 1, 20, 400])
    def test_block_is_float64_and_reference_major(self, alpha):
        """What the Eq. 5/6 kernels reduce over without a copy: float64
        whose transpose is C-contiguous — for a window of the value
        column and for a ``subset`` of its positions alike."""
        tree, keys, ids, ref = build_tree(n=300, seed=4)
        subset = tree.positions_of(np.arange(0, 300, 3))
        for chosen in (None, subset):
            got_ids, block = tree.candidates(int(keys[11]), alpha, chosen)
            found = min(alpha, 300 if chosen is None else subset.size)
            assert got_ids.shape == (found,) and block.shape == (found, 5)
            assert block.dtype == np.float64
            assert block.T.flags.c_contiguous
            np.testing.assert_array_equal(block, ref[got_ids])
            if chosen is not None:
                assert np.all(got_ids % 3 == 0)

    def test_out_fills_a_slice_of_a_row_block(self):
        """The engine hands each tree its slices of one (τ, α') id block
        and one (m, τ, α') distance block; what lands there is what a
        call without ``out`` returns, and the neighbours stay untouched."""
        tree, keys, _, _ = build_tree(n=300, seed=5)
        subset = tree.positions_of(np.arange(0, 300, 2))
        for chosen in (None, subset):
            id_block = np.full((3, 40), -7, dtype=np.int64)
            ref_block = np.full((5, 3, 40), -7.0)
            out = (id_block[1], ref_block[:, 1].T)
            got = tree.candidates(int(keys[60]), 40, chosen, out=out)
            assert got[0] is out[0] and got[1] is out[1]
            want_ids, want_ref = tree.candidates(int(keys[60]), 40, chosen)
            np.testing.assert_array_equal(id_block[1], want_ids)
            np.testing.assert_array_equal(ref_block[:, 1], want_ref.T)
            assert np.all(id_block[[0, 2]] == -7)
            assert np.all(ref_block[:, [0, 2]] == -7.0)

    @pytest.mark.parametrize("width", [1, 39, 41])
    def test_out_of_another_length_raises(self, width):
        """A one-entry slice would take a window by broadcasting; every
        mismatch raises instead."""
        tree, keys, _, _ = build_tree(n=300, seed=5)
        out = (np.empty(width, dtype=np.int64), np.empty((5, width)).T)
        with pytest.raises(CandidateWindowError):
            tree.candidates(int(keys[60]), 40, out=out)


def merge_one(tree, key, object_id, distances):
    tree.merge(np.asarray([key], dtype=object), [object_id],
               np.asarray(distances, dtype=np.float32).reshape(1, -1))


class TestInsert:
    def test_insert_then_retrieve(self):
        tree, keys, ids, ref = build_tree(n=50, seed=3)
        new_dists = np.linspace(0, 1, 5).astype(np.float32)
        merge_one(tree, 12345, 999, new_dists)
        assert len(tree) == 51
        got_ids, got_dists = tree.candidates(12345, 1)
        assert got_ids[0] == 999
        np.testing.assert_allclose(got_dists[0], new_dists, rtol=1e-6)

    def test_insert_wrong_reference_count_rejected(self):
        tree, *_ = build_tree(m=5)
        with pytest.raises(ValueError):
            merge_one(tree, 1, 1, np.zeros(3, dtype=np.float32))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_reference_distance_refused(self, bad):
        """Eq. 6 multiplies every stored distance, by zero for the
        references a pair does not name: a NaN or inf would surface as a
        wrong answer at query time, so it is refused here."""
        tree, *_ = build_tree(n=50, seed=3)
        before = tree.packed
        with pytest.raises(ValueError, match="reference distances"):
            merge_one(tree, 77, 999, [0.0, bad, 1.0, 2.0, 3.0])
        assert tree.packed is before and len(tree) == 50

    def test_negative_id_refused(self):
        """No unsigned record width holds one."""
        tree, *_ = build_tree(n=50, seed=3)
        with pytest.raises(ValueError, match="non-negative"):
            merge_one(tree, 77, -1, np.zeros(5, dtype=np.float32))

    def test_size_grows_with_inserts(self):
        tree, *_ = build_tree(n=50)
        before = tree.size_bytes()
        for index in range(200):
            merge_one(tree, index * 7, 1000 + index,
                      np.zeros(5, dtype=np.float32))
        assert tree.size_bytes() > before


# -- the columns against the node-based tree ---------------------------------

M = 2
PAGE = 256
#: Curve shapes giving 1-, 8- and 16-byte keys.
CURVES = {1: (2, 4), 8: (8, 8), 16: (16, 8)}


def empty_tree(width, page_size=PAGE):
    return RDBTree(HilbertCurve(*CURVES[width]), M, page_size=page_size)


def random_rows(rng, width, n, duplicates, first_id=0):
    """(int keys, ids, float32 reference distances) for ``n`` rows."""
    top = 1 << (8 * width)
    if duplicates:
        pool = rng.integers(0, min(top, 1 << 62), size=4)
        keys = [int(k) for k in rng.choice(pool, size=n)]
    else:
        keys = [int.from_bytes(rng.bytes(width), "big") for _ in range(n)]
    return (keys, np.arange(first_id, first_id + n),
            rng.uniform(0, 50, size=(n, M)).astype(np.float32))


#: ``struct`` formats of the big-endian id widths a leaf record takes.
ID_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def id_width(ids):
    """Bytes of the narrowest unsigned integer holding every id."""
    return np.min_scalar_type(max(ids, default=0)).itemsize


def key_matrix(keys, width):
    return np.frombuffer(b"".join(k.to_bytes(width, "big") for k in keys),
                         dtype=np.uint8).reshape(-1, width)


def node_entries(keys, ids, distances, width, id_bytes):
    """The same rows as ``(key, value)`` byte pairs the way a leaf
    stores them, ids ``id_bytes`` wide — one ``struct.pack`` per
    record."""
    record = struct.Struct(f">{ID_FORMATS[id_bytes]}{M}f")
    return [(key.to_bytes(width, "big"), record.pack(int(i), *row))
            for key, i, row in zip(keys, ids, distances)]


def node_walk(tree, width, entries):
    """Sorted entries as the nodes of a tree of ``tree``'s capacities."""
    return NodeWalk(UIntCodec(width), entries, tree.leaf_capacity,
                    tree._internal_capacity)


def assert_same_arrays(got, want):
    got, want = layout_arrays(got), layout_arrays(want)
    assert got.keys() == want.keys()
    for name in got:
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


class TestBuildAgainstBulkLoad:
    """``bulk_build`` writes, entry for entry, what the node walk of the
    same sorted entries holds, read off its nodes top-down, in a tree of
    the walk's height and pages."""

    @pytest.mark.parametrize("as_matrix", [False, True],
                             ids=["int-keys", "byte-matrix"])
    @pytest.mark.parametrize("duplicates", [False, True],
                             ids=["distinct", "duplicates"])
    @pytest.mark.parametrize("width", [1, 8, 16])
    def test_arrays_equal_name_for_name(self, width, duplicates, as_matrix):
        probe = empty_tree(width)
        omega, fanout = probe.leaf_capacity, probe._internal_capacity + 1
        sizes = [1, omega - 1, omega, omega + 1, fanout * omega,
                 fanout * omega + 1, 3000]
        for n in sizes:
            rng = np.random.default_rng([width, duplicates, n])
            keys, ids, distances = random_rows(rng, width, n, duplicates)
            tree = empty_tree(width)
            tree.bulk_build(
                key_matrix(keys, width) if as_matrix
                else np.asarray(keys, dtype=object), ids, distances)
            order = sorted(range(n), key=keys.__getitem__)  # stable
            assert tree._record_dtype["id"].itemsize == id_width(ids)
            walk = node_walk(tree, width, node_entries(
                [keys[i] for i in order], ids[order], distances[order],
                width, id_width(ids)))
            assert tree.packed.entries(range(n)) == top_down_layout(walk)
            assert (len(tree), tree.height) == (n, walk.height)
            pages = len(walk.leaves) + len(walk.nodes)
            assert tree.size_bytes() == pages * tree.page_size
            assert tree.stats.page_writes == pages

    def test_rebuild_refused(self):
        tree = empty_tree(8)
        rows = random_rows(np.random.default_rng(0), 8, 5, False)
        tree.bulk_build(np.asarray(rows[0], dtype=object), *rows[1:])
        with pytest.raises(RuntimeError, match="empty tree"):
            tree.bulk_build(np.asarray(rows[0], dtype=object), *rows[1:])


class TestMerge:
    """A fold is a merge: build(n) + merge(r) is build(n + r)."""

    @staticmethod
    def built(width, keys, ids, distances, page_size=PAGE):
        tree = empty_tree(width, page_size=page_size)
        tree.bulk_build(key_matrix(keys, width), ids, distances)
        return tree

    @pytest.mark.parametrize("width", [1, 8, 16])
    @pytest.mark.parametrize("duplicates", [False, True],
                             ids=["distinct", "duplicates"])
    def test_merge_equals_build_of_everything(self, width, duplicates):
        n = 500
        for r in (1, 15, n):
            rng = np.random.default_rng([width, duplicates, r])
            keys, ids, distances = random_rows(rng, width, n + r,
                                               duplicates)
            tree = self.built(width, keys[:n], ids[:n], distances[:n])
            old = tree.packed
            old_keys = old.keys_raw.copy()
            tree.merge(key_matrix(keys[n:], width), ids[n:], distances[n:])
            assert_same_arrays(
                tree.packed, self.built(width, keys, ids, distances).packed)
            # The layout a reader may still hold was not written to.
            assert tree.packed is not old and old.count == n
            np.testing.assert_array_equal(old.keys_raw, old_keys)

    @pytest.mark.parametrize("delta_key", [0, 7, 2 ** 64 - 1],
                             ids=["below-min", "all-equal", "above-max"])
    def test_edges(self, delta_key):
        base = [7] * 40
        delta = [delta_key] * 9
        rng = np.random.default_rng(3)
        _, ids, distances = random_rows(rng, 8, 49, True)
        tree = self.built(8, base, ids[:40], distances[:40])
        tree.merge(np.asarray(delta, dtype=object), ids[40:],
                   distances[40:])
        assert_same_arrays(
            tree.packed, self.built(8, base + delta, ids, distances).packed)
        # Equal keys: later ids after earlier ones.
        got_ids, _ = tree.candidates(delta_key, 49)
        if delta_key == 7:
            assert sorted(got_ids.tolist()) == list(range(49))
            records = tree.packed.values_raw.view(tree._record_dtype)
            assert records["id"].ravel().tolist() == list(range(49))

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=200),
           st.lists(st.integers(0, 3), min_size=1, max_size=200),
           st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_merge_is_what_row_by_row_inserts_give(self, base, delta, seed):
        """The merged (key, value) sequence is what inserting the rows
        one by one into the built tree gives: a new entry after every
        equal key already there, i.e. a stable sort of the sorted base
        followed by the delta in input order — four key values on
        two-entry leaves, so duplicates span leaves."""
        rng = np.random.default_rng(seed)
        _, ids, distances = random_rows(rng, 1, len(base) + len(delta),
                                        True)
        n = len(base)
        tree = self.built(1, base, ids[:n], distances[:n], page_size=64)
        assert tree.leaf_capacity == 2
        tree.merge(key_matrix(delta, 1), ids[n:], distances[n:])
        order = sorted(range(n), key=base.__getitem__)
        rows = node_entries([base[i] for i in order], ids[order],
                            distances[order], 1, id_width(ids)) \
            + node_entries(delta, ids[n:], distances[n:], 1, id_width(ids))
        assert tree.packed.entries(range(len(tree))) == sorted(
            rows, key=lambda entry: entry[0])


class TestKeyOrder:
    """``merge`` sorts by each key's leading 64-bit word and settles the
    rows whose words tie by (full key, input position): exactly the
    stable byte-string order, at any key width."""

    #: (dim, order) of the curves giving 5-, 8-, 13- and 16-byte keys.
    SHAPES = {5: (5, 8), 8: (8, 8), 13: (13, 8), 16: (16, 8)}

    @staticmethod
    def tied_keys(rng, width, n):
        """Keys drawn from four leading words (longer keys vary behind
        them), a quarter of them copies of earlier rows."""
        lead = min(width, 8)
        heads = rng.integers(0, 256, size=(4, lead), dtype=np.uint8)
        keys = np.empty((n, width), dtype=np.uint8)
        keys[:, :lead] = heads[rng.integers(0, 4, size=n)]
        keys[:, lead:] = rng.integers(0, 3, size=(n, width - lead))
        copies = rng.integers(0, n, size=n // 4)
        keys[rng.integers(0, n, size=n // 4)] = keys[copies]
        return keys

    @pytest.mark.parametrize("width", [5, 8, 13, 16])
    def test_empty_and_built_trees_take_the_stable_byte_order(self, width):
        rng = np.random.default_rng(width)
        n, base = 600, 250
        keys = self.tied_keys(rng, width, n)
        ids = np.arange(n)
        distances = rng.uniform(0, 50, size=(n, M)).astype(np.float32)
        want = np.argsort(keys.view(f"S{width}").ravel(), kind="stable")
        curve = HilbertCurve(*self.SHAPES[width])
        assert curve.key_bytes == width
        whole = RDBTree(curve, M, page_size=PAGE)
        whole.bulk_build(keys, ids, distances)
        np.testing.assert_array_equal(whole._records()[0], want)
        np.testing.assert_array_equal(whole.packed.keys_raw, keys[want])
        # Into a built tree: the base's rows, then the delta's, each in
        # input order among equal keys — the same order again.
        tree = RDBTree(curve, M, page_size=PAGE)
        tree.bulk_build(keys[:base], ids[:base], distances[:base])
        tree.merge(keys[base:], ids[base:], distances[base:])
        assert_same_arrays(tree.packed, whole.packed)

    def test_duplicates_keep_their_input_order(self):
        keys = np.tile(np.arange(13, dtype=np.uint8), (9, 1))
        keys[4, 12] = 0  # ties the others' leading word, sorts first
        tree = RDBTree(HilbertCurve(*self.SHAPES[13]), M, page_size=PAGE)
        tree.bulk_build(keys, np.arange(9), np.zeros((9, M), np.float32))
        np.testing.assert_array_equal(tree._records()[0],
                                      [4, 0, 1, 2, 3, 5, 6, 7, 8])


class TestOwnedColumns:
    """Into an empty tree the sorted copies of the caller's rows become
    the columns as they are: they still belong to the tree alone."""

    def test_changing_the_callers_arrays_changes_nothing(self):
        rng = np.random.default_rng(21)
        keys, ids, distances = random_rows(rng, 8, 300, False)
        keys.sort()  # already in order: the sort may not skip its copy
        matrix = key_matrix(keys, 8).copy()
        tree = empty_tree(8)
        tree.bulk_build(matrix, ids, distances)
        columns = {name: array.copy()
                   for name, array in layout_arrays(tree.packed).items()}
        answer = tree.candidates(keys[17], 40)
        matrix[:] = 0
        distances[:] = -1.0
        ids[:] = 0
        for name, array in layout_arrays(tree.packed).items():
            np.testing.assert_array_equal(array, columns[name], err_msg=name)
        for got, want in zip(tree.candidates(keys[17], 40), answer):
            np.testing.assert_array_equal(got, want)

    def test_merge_into_a_built_tree_is_the_one_shot_build(self):
        rng = np.random.default_rng(22)
        keys, ids, distances = random_rows(rng, 8, 400, True)
        whole = empty_tree(8)
        whole.bulk_build(key_matrix(keys, 8), ids.copy(), distances.copy())
        matrix = key_matrix(keys, 8).copy()
        tree = empty_tree(8)
        tree.bulk_build(matrix[:250], ids[:250], distances[:250])
        tree.merge(matrix[250:], ids[250:], distances[250:])
        assert_same_arrays(tree.packed, whole.packed)
        matrix[:] = 0
        distances[:] = -1.0
        assert_same_arrays(tree.packed, whole.packed)


def write_legacy_tree(tree, path):
    """``tree`` as the format before narrow ids wrote it: ``>u8`` ids,
    and the page geometry stored beside the two columns."""
    packed = tree.packed
    records = packed.values_raw.reshape(-1).view(tree._record_dtype)
    wide = np.empty(records.size, dtype=[("id", ">u8"), (
        "ref", ">f4", (tree.num_references,))])
    wide["id"], wide["ref"] = records["id"], records["ref"]
    arrays = {"keys": packed.keys_raw,
              "values": wide.view(np.uint8).reshape(records.size, -1),
              "leaf_starts": packed.leaf_starts,
              "leaf_pages": packed.leaf_pages,
              "num_levels": np.asarray([len(packed.level_pages)],
                                       dtype=np.int64)}
    for level, (pages, starts) in enumerate(zip(packed.level_pages,
                                                packed.level_starts)):
        arrays[f"level_{level}_pages"] = pages
        arrays[f"level_{level}_starts"] = starts
    with open(path, "wb") as handle:
        handle.writelines(pack_arrays(arrays))


def lookups(tree, probes, alpha=30):
    """Each probe's (ids, distances, reads counted from a previous read
    of the page below the root)."""
    found = []
    for probe in probes:
        tree.stats = seeded(tree.packed.root - 1)
        found.append((*tree.candidates(probe, alpha), counts(tree.stats)))
    return found


def assert_same_lookups(got, want):
    for (ids, ref, read), (want_ids, want_ref, want_read) in zip(got, want):
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(ref, want_ref)
        assert read == want_read


class TestNarrowIds:
    """A leaf record stores its id at the narrowest width that holds the
    largest id; the page model still charges Eq. (4)'s 8 bytes, so the
    width moves no page, no answer and no read."""

    @pytest.mark.parametrize("boundary, widths", [(2 ** 8, (1, 2)),
                                                  (2 ** 16, (2, 4)),
                                                  (2 ** 32, (4, 8))])
    def test_merge_across_a_width_is_the_one_shot_build(self, boundary,
                                                         widths):
        """Up to 300 rows with the ids just below ``boundary``, then 40
        from it on."""
        rng = np.random.default_rng(widths)
        base = min(boundary, 300)
        keys, ids, distances = random_rows(rng, 8, base + 40, False,
                                           first_id=boundary - base)
        whole = TestMerge.built(8, keys, ids, distances)
        tree = TestMerge.built(8, keys[:base], ids[:base],
                               distances[:base])
        before = tree._record_dtype["id"].itemsize
        tree.merge(key_matrix(keys[base:], 8), ids[base:], distances[base:])
        assert (before, tree._record_dtype["id"].itemsize) == widths
        assert_same_arrays(tree.packed, whole.packed)
        assert tree.leaf_capacity == empty_tree(8).leaf_capacity
        probes = keys[::37] + [0, 2 ** 64 - 1]
        assert_same_lookups(lookups(tree, probes), lookups(whole, probes))

    @pytest.mark.parametrize("mapped", [False, True],
                             ids=["memory", "mmap"])
    def test_a_legacy_file_opens_and_folds_narrow(self, mapped, tmp_path):
        rng = np.random.default_rng(40)
        keys, ids, distances = random_rows(rng, 8, 700, True)
        built = TestMerge.built(8, keys[:600], ids[:600], distances[:600])
        write_legacy_tree(built, tmp_path / "legacy.packed")
        built.write(tmp_path / "narrow.packed")
        legacy, narrow = empty_tree(8), empty_tree(8)
        legacy.read(tmp_path / "legacy.packed", mapped)
        narrow.read(tmp_path / "narrow.packed", mapped)
        assert legacy._record_dtype["id"].itemsize == 8
        assert narrow._record_dtype["id"].itemsize == 2
        want = layout_arrays(narrow.packed)
        for name, array in layout_arrays(legacy.packed).items():
            if name != "values":
                np.testing.assert_array_equal(array, want[name], name)
        probes = keys[::97] + [0, 2 ** 64 - 1]
        assert_same_lookups(lookups(legacy, probes),
                            lookups(narrow, probes))
        subset = legacy.positions_of(np.arange(0, 600, 5))
        for probe in probes:
            for got, expected in zip(legacy.candidates(probe, 20, subset),
                                     narrow.candidates(probe, 20, subset)):
                np.testing.assert_array_equal(got, expected)
        legacy.merge(key_matrix(keys[600:], 8), ids[600:], distances[600:])
        assert legacy._record_dtype["id"].itemsize == 2
        assert_same_arrays(legacy.packed,
                           TestMerge.built(8, keys, ids, distances).packed)


class TestNodeOracleParity:
    """``candidates`` against the node walk of the tree's entries at the
    tree's own capacities: the same entries — as the run of the value
    column they are, in key order, where the walk emits them nearest
    first — and the same reads counted, from a random previous read and
    from the page below the root.  The sanitizer's walk, whose
    capacities it reads off the layout, is that walk."""

    @pytest.mark.parametrize("width", [1, 8, 16])
    def test_positions_and_read_counts(self, width):
        rng = np.random.default_rng(width)
        keys, ids, distances = random_rows(rng, width, 700, width == 1)
        tree = TestMerge.built(width, keys, ids, distances)
        walk = node_walk(tree, width, tree.packed.entries(range(700)))
        oracle = node_oracle(tree.packed)
        assert (oracle.leaves, oracle.nodes) == (walk.leaves, walk.nodes)
        probes = keys[:5] + [0, (1 << (8 * width)) - 1]
        stored = tree.packed.values_raw.reshape(-1).view(tree._record_dtype)
        for probe in probes:
            for alpha, previous in itertools.product(
                    (1, 30, 700, 900), (-2, tree.packed.root - 1)):
                tree.stats, walk_stats = seeded(previous), seeded(previous)
                got_ids, got_ref = tree.candidates(probe, alpha)
                want = walk.nearest(probe.to_bytes(width, "big"), alpha,
                                    walk_stats)
                records = np.frombuffer(b"".join(v for _, v in want),
                                        dtype=tree._record_dtype)
                records = records[np.argsort(records["id"])]
                by_id = np.argsort(got_ids)
                np.testing.assert_array_equal(got_ids[by_id], records["id"])
                np.testing.assert_array_equal(got_ref[by_id], records["ref"])
                start = int(tree.packed.nearest_positions(
                    probe.to_bytes(width, "big"), alpha).min())
                np.testing.assert_array_equal(
                    got_ids, stored["id"][start:start + got_ids.size])
                assert counts(tree.stats) == counts(walk_stats)


class TestResidentColumns:
    def test_first_lookup_holds_the_id_column_until_a_merge(self):
        """The int64 id column a tree decodes on its first lookup is
        resident: counted while cached, gone with the layout a merge
        adopts."""
        tree, keys, _, _ = build_tree(n=300, seed=6)
        before = tree.memory_bytes()
        tree.candidates(int(keys[5]), 20)
        assert tree.memory_bytes() - before == 8 * len(tree)
        tree.candidates(int(keys[9]), 20)
        assert tree.memory_bytes() - before == 8 * len(tree)
        merge_one(tree, 3, 300, [1.0] * 5)
        assert tree.memory_bytes() == before


class TestWriteMemory:
    def test_writing_a_tree_copies_no_column(self, tmp_path):
        """``write`` hands the columns' own memory to the file: the traced
        peak stays a small fraction of the column bytes (copying each
        column to bytes and joining them peaked at twice the columns)."""
        tree, *_ = build_tree(n=20_000, dim=16, m=10, seed=4)
        packed = tree.packed
        column_bytes = packed.keys_raw.nbytes + packed.values_raw.nbytes
        assert column_bytes >= 1 << 20
        tracemalloc.start()
        try:
            tree.write(tmp_path / "tree.packed")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * column_bytes
        again = RDBTree(tree.curve, 10)
        again.read(tmp_path / "tree.packed", mapped=False)
        np.testing.assert_array_equal(again.packed.values_raw,
                                      packed.values_raw)


class TestMappedSubsetGather:
    """A subset lookup takes the window's whole records from the value
    column; over the read-only mapping of a written tree it must give
    what the in-memory tree gives, bit for bit."""

    N, ALPHA = 400, 20

    @pytest.fixture
    def trees(self, tmp_path):
        tree, _, _, ref = build_tree(n=self.N, dim=4, order=8, seed=7)
        path = tmp_path / "tree.packed"
        tree.write(path)
        mapped = RDBTree.from_state(tree.state())
        mapped.read(path, mapped=True)
        assert not mapped.packed.values_raw.flags.writeable
        return tree, mapped, ref

    def lookups(self, tree, probe, alpha, subset):
        """(ids, block) without ``out`` and through slices of a row block."""
        plain = tree.candidates(probe, alpha, subset)
        found = plain[0].size
        id_block = np.full((3, found), -7, dtype=np.int64)
        ref_block = np.full((5, 3, found), -7.0)
        filled = tree.candidates(probe, alpha, subset,
                                 out=(id_block[2], ref_block[:, 2].T))
        assert np.all(id_block[:2] == -7) and np.all(ref_block[:, :2] == -7)
        return plain, filled

    def assert_bitwise(self, got, want):
        for (got_ids, got_ref), (want_ids, want_ref) in zip(got, want):
            assert got_ids.dtype == want_ids.dtype == np.int64
            assert got_ids.tobytes() == want_ids.tobytes()
            assert got_ref.dtype == want_ref.dtype == np.float64
            assert got_ref.shape == want_ref.shape
            assert np.ascontiguousarray(got_ref).tobytes() == \
                np.ascontiguousarray(want_ref).tobytes()

    def test_window_at_each_end_of_the_subset(self, trees):
        tree, mapped, ref = trees
        # The first and last 10 entries by key are outside the subset,
        # so key 0 falls below every eligible key and the top key above.
        subset = np.arange(10, self.N - 10, 3, dtype=np.int64)
        top = (1 << (8 * tree.curve.key_bytes)) - 1
        stored = tree.packed.values_raw.reshape(-1).view(tree._record_dtype)
        for probe, window in ((0, subset[:self.ALPHA]),
                              (top, subset[-self.ALPHA:])):
            want = self.lookups(tree, probe, self.ALPHA, subset)
            self.assert_bitwise(
                self.lookups(mapped, probe, self.ALPHA, subset), want)
            for ids, block in want:
                np.testing.assert_array_equal(ids, stored["id"][window])
                np.testing.assert_array_equal(block, ref[ids])

    def test_subset_shorter_than_alpha(self, trees):
        tree, mapped, ref = trees
        subset = tree.positions_of(np.asarray([5, 77, 120, 301, 399]))
        for probe in (0, tree.packed.keys_raw[200].tobytes()):
            want = self.lookups(tree, probe, self.ALPHA, subset)
            self.assert_bitwise(
                self.lookups(mapped, probe, self.ALPHA, subset), want)
            for ids, block in want:
                assert sorted(ids) == [5, 77, 120, 301, 399]
                np.testing.assert_array_equal(block, ref[ids])
