"""Unit tests for the RDB-tree (Sec. 3.2).

The tree is two sorted columns plus page geometry; the node-based
``BPlusTree`` — real pages, bulk-loaded or inserted into row by row — is
the oracle every build, merge and lookup here is diffed against.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.btree import BPlusTree
from repro.core import rdb_leaf_order
from repro.core.rdbtree import RDBTree
from repro.devtools.sanitize import node_oracle
from repro.hilbert import HilbertCurve
from repro.storage import BytesCodec, UIntCodec
from test_btree import top_down_layout
from test_btree_packed import ReadLog


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


def empty_tree(width, cache_pages=0, page_size=PAGE):
    return RDBTree(HilbertCurve(*CURVES[width]), M, cache_pages=cache_pages,
                   page_size=page_size)


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


def key_matrix(keys, width):
    return np.frombuffer(b"".join(k.to_bytes(width, "big") for k in keys),
                         dtype=np.uint8).reshape(-1, width)


def node_entries(keys, ids, distances, width):
    """The same rows as ``(key, value)`` byte pairs the way the node
    tree stores them — one ``struct.pack`` per record."""
    record = struct.Struct(f">Q{M}f")
    return [(key.to_bytes(width, "big"), record.pack(int(i), *row))
            for key, i, row in zip(keys, ids, distances)]


def node_tree(tree, width):
    return BPlusTree(UIntCodec(width), BytesCodec(8 + 4 * M),
                     leaf_capacity_override=tree.leaf_capacity,
                     page_size=tree.page_size)


def assert_same_arrays(got, want):
    got, want = got.to_arrays(), want.to_arrays()
    assert got.keys() == want.keys()
    for name in got:
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


class TestBuildAgainstBulkLoad:
    """``bulk_build`` writes, array for array, what bulk-loading the same
    sorted entries onto real pages gives — both as the load's captured
    mirror and as read back off the pages top-down."""

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
            paged = node_tree(tree, width)
            paged.bulk_load(node_entries(
                [keys[i] for i in order], ids[order], distances[order],
                width))
            assert_same_arrays(tree.packed, paged.packed_layout)
            assert_same_arrays(tree.packed, top_down_layout(paged))
            assert (len(tree), tree.height) == (n, paged.height)
            assert tree.size_bytes() == paged.size_bytes()
            assert tree.stats.page_writes == paged._store.num_pages

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
        """The merged (key, value) sequence is ``list(items())`` of a
        bulk-loaded node tree the same rows were inserted into one by
        one — four key values on two-entry leaves, so duplicates span
        leaves and internal nodes split (this holds only with separators
        filed directly after the split child)."""
        rng = np.random.default_rng(seed)
        _, ids, distances = random_rows(rng, 1, len(base) + len(delta),
                                        True)
        n = len(base)
        tree = self.built(1, base, ids[:n], distances[:n], page_size=64)
        assert tree.leaf_capacity == 2
        tree.merge(key_matrix(delta, 1), ids[n:], distances[n:])
        order = sorted(range(n), key=base.__getitem__)
        paged = node_tree(tree, 1)
        paged.bulk_load(node_entries([base[i] for i in order], ids[order],
                                     distances[order], 1))
        for entry in node_entries(delta, ids[n:], distances[n:], 1):
            paged.insert(*entry)
        assert tree.packed.entries(range(len(tree))) == list(paged.items())


class TestNodeOracleParity:
    """``candidates`` against a node-by-node walk of the oracle tree:
    the same entries — as the run of the value column they are, in key
    order, where the walk emits them nearest first — and the same
    page-read sequence."""

    @pytest.mark.parametrize("width", [1, 8, 16])
    def test_positions_and_read_sequence(self, width):
        rng = np.random.default_rng(width)
        keys, ids, distances = random_rows(rng, width, 700, width == 1)
        tree = TestMerge.built(width, keys, ids, distances)
        oracle, bulk_shaped = node_oracle(tree)
        assert bulk_shaped and oracle.packed_layout is None
        probes = keys[:5] + [0, (1 << (8 * width)) - 1]
        stored = tree.packed.values_raw.reshape(-1).view(tree._record_dtype)
        for probe in probes:
            for alpha in (1, 30, 700, 900):
                tree.stats = ReadLog()
                oracle._store.stats = ReadLog()
                got_ids, got_ref = tree.candidates(probe, alpha)
                want = oracle.nearest(probe.to_bytes(width, "big"), alpha)
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
                assert tree.stats.pages == oracle.stats.pages
                assert tree.stats.snapshot() == oracle.stats.snapshot()


class TestModelledBufferPool:
    def test_hits_plus_reads_is_the_uncached_trace(self):
        rng = np.random.default_rng(9)
        keys, ids, distances = random_rows(rng, 8, 900, False)
        probes = keys[:12] * 2
        results = {}
        for capacity in (0, 8, 10 ** 6):
            tree = empty_tree(8, cache_pages=capacity)
            tree.bulk_build(key_matrix(keys, 8), ids, distances)
            answers = [tree.candidates(probe, 60) for probe in probes]
            results[capacity] = (answers, tree.stats.page_reads,
                                 tree.stats.cache_hits)
            assert tree.memory_bytes() == \
                min(capacity, tree.stats.page_reads) * PAGE
            tree.clear_cache()
            assert tree.memory_bytes() == 0
        uncached_reads = results[0][1]
        assert results[0][2] == 0
        for capacity in (8, 10 ** 6):
            answers, reads, hits = results[capacity]
            assert reads + hits == uncached_reads
            for (ids_a, ref_a), (ids_b, ref_b) in zip(answers,
                                                      results[0][0]):
                np.testing.assert_array_equal(ids_a, ids_b)
                np.testing.assert_array_equal(ref_a, ref_b)
        assert 0 < results[8][2] <= results[10 ** 6][2]
