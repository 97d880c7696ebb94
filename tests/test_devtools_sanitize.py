"""Tests for the runtime invariant sanitizer (repro.devtools.sanitize).

Each shim is driven both ways: legitimate use stays silent, a seeded
violation raises :class:`SanitizerError`.  The cross-check tests build
a real bulk-loaded B+-tree with an active packed mirror (and an
RDB-tree, checked against the oracle loaded from its columns) and then
corrupt one side.
"""

import numpy as np
import pytest

from repro.btree.tree import BPlusTree
from repro.devtools import sanitize
from repro.devtools.sanitize import SanitizerError
from repro.storage.buffer import BufferPool
from repro.storage.codecs import UIntCodec
from repro.storage.pages import InMemoryPageStore
from repro.storage.stats import IOStats
from repro.storage.vectors import heap_file_from_array


@pytest.fixture(autouse=True)
def _restore_sanitizer_state():
    """Leave the process-global sanitizer exactly as found, so these
    tests behave identically under a plain run and REPRO_SANITIZE=1."""
    was_installed = sanitize.installed()
    yield
    if was_installed:
        sanitize.install()
    else:
        sanitize.uninstall()


@pytest.fixture()
def sanitized():
    sanitize.install()
    yield


@pytest.fixture()
def unsanitized():
    sanitize.uninstall()
    yield


def build_tree(n=500, cache_pages=0):
    tree = BPlusTree(UIntCodec(8), UIntCodec(8), page_size=512,
                     cache_pages=cache_pages)
    entries = [(UIntCodec(8).encode(i * 3), UIntCodec(8).encode(i))
               for i in range(n)]
    tree.bulk_load(entries)
    return tree


class TestInstall:
    def test_install_uninstall_round_trip(self, unsanitized):
        from repro.storage.stats import IOStats as stats_cls
        original = stats_cls.__dict__["record_read"]
        sanitize.install()
        try:
            assert sanitize.installed()
            assert stats_cls.__dict__["record_read"] is not original
            sanitize.install()  # idempotent
        finally:
            sanitize.uninstall()
        assert not sanitize.installed()
        assert stats_cls.__dict__["record_read"] is original
        sanitize.uninstall()  # idempotent

    def test_install_from_env(self, unsanitized, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize.install_from_env()
        assert not sanitize.installed()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize.install_from_env()
        assert sanitize.installed()


class TestIOStatsBalance:
    def test_normal_accounting_is_silent(self, sanitized):
        stats = IOStats()
        stats.record_read(0)
        stats.record_read(1)
        stats.record_write(7)
        stats.record_read_many(np.array([2, 3, 9]))
        stats.reset()
        assert stats.page_reads == 0

    def test_corrupted_split_raises(self, sanitized):
        stats = IOStats()
        stats.record_read(0)
        stats.random_reads += 1  # drift the split behind the total
        with pytest.raises(SanitizerError, match="read split"):
            stats.record_read(1)

    def test_negative_counter_raises(self, sanitized):
        stats = IOStats()
        stats.cache_hits = -3
        with pytest.raises(SanitizerError, match="negative"):
            stats.record_read(0)


class TestBufferPoolAccounting:
    def test_lru_stays_within_capacity(self, sanitized):
        store = InMemoryPageStore(128)
        pool = BufferPool(store, capacity=2)
        for _ in range(4):
            pool.write(store.allocate(), b"x" * 128)
        for page_id in (0, 1, 2, 3, 1, 0):
            pool.read(page_id)
        assert pool.cached_pages() == 2

    def test_capacity_zero_must_stay_empty(self, sanitized):
        store = InMemoryPageStore(128)
        pool = BufferPool(store, capacity=0)
        page = store.allocate()
        pool.write(page, b"y" * 128)
        pool._cache[page] = b"y" * 128  # seeded violation
        with pytest.raises(SanitizerError, match="capacity=0"):
            pool.read(page)

    def test_short_cached_page_raises(self, sanitized):
        store = InMemoryPageStore(128)
        pool = BufferPool(store, capacity=4)
        page = store.allocate()
        pool.write(page, b"z" * 128)
        pool._cache[page] = b"short"  # seeded corruption
        with pytest.raises(SanitizerError, match="bytes"):
            pool.read(store.allocate())


class TestModelledPool:
    def test_page_id_lru_stays_within_cache_pages(self, sanitized):
        heap = heap_file_from_array(np.zeros((64, 4)), page_size=64,
                                    cache_pages=3)
        heap.gather(np.arange(64))
        heap.gather([0, 63, 5, 0])
        assert heap.memory_bytes() == 3 * 64

    def test_overfull_pool_raises(self, sanitized):
        for cache_pages in (0, 2):
            heap = heap_file_from_array(np.zeros((64, 4)), page_size=64,
                                        cache_pages=cache_pages)
            heap._resident.update(dict.fromkeys(range(10, 13)))  # seeded
            with pytest.raises(SanitizerError, match="modelled pool"):
                heap.gather([0])


class TestMmapWriteProtection:
    def test_page_matrix_views_are_read_only(self, sanitized, tmp_path):
        data = np.arange(32, dtype=np.float32).reshape(8, 4)
        for path in (None, tmp_path / "pages.bin"):
            heap = heap_file_from_array(data, page_size=256, path=path)
            matrix = heap.page_matrix()
            assert not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0, 0] = 1
            # The data itself is still readable and correct.
            assert bytes(matrix[0, :128]) == data.tobytes()
            heap.close()

    def test_writable_matrix_raises(self, sanitized):
        heap = heap_file_from_array(np.zeros((8, 4)), page_size=256)
        heap._state = (heap._buffer, 8)  # seeded: the raw buffer
        with pytest.raises(SanitizerError, match="writable"):
            heap.gather([0])

    def test_without_sanitizer_views_are_read_only_too(self, unsanitized,
                                                       tmp_path):
        for path in (None, tmp_path / "pages.bin"):
            heap = heap_file_from_array(np.ones((8, 4)), page_size=256,
                                        path=path)
            assert not heap.page_matrix().flags.writeable
            heap.close()


class TestPackedNodeCrossCheck:
    def test_intact_tree_passes_and_accounts_once(self, sanitized):
        tree = build_tree()
        before = tree.stats.snapshot()
        entries = tree.nearest(UIntCodec(8).encode(300), 16)
        after = tree.stats.snapshot()
        assert len(entries) == 16
        # Parity verified in sandboxes; the caller-visible accounting is
        # exactly one packed traversal, not three.
        reads = after["page_reads"] - before["page_reads"]
        assert 0 < reads <= tree.height + 16

    def test_matches_unsanitized_answer_and_stats(self, unsanitized):
        key = UIntCodec(8).encode(777)
        plain_tree = build_tree()
        plain = plain_tree.nearest(key, 12)
        plain_stats = plain_tree.stats.snapshot()
        sanitize.install()
        try:
            checked_tree = build_tree()
            checked = checked_tree.nearest(key, 12)
            checked_stats = checked_tree.stats.snapshot()
        finally:
            sanitize.uninstall()
        assert [(bytes(k), bytes(v)) for k, v in plain] == \
            [(bytes(k), bytes(v)) for k, v in checked]
        assert plain_stats == checked_stats

    def test_corrupted_packed_values_raise(self, sanitized):
        tree = build_tree()
        packed = tree._packed
        packed.values_raw = packed.values_raw.copy()
        packed.values_raw[40] ^= 0xFF  # one entry's payload corrupted
        target = bytes(packed.keys_raw[40].tobytes())
        with pytest.raises(SanitizerError, match="answer divergence"):
            # count large enough to cover the corrupted position for
            # any nearby key
            tree.nearest(target, 8)

    def test_trace_divergence_raises(self, sanitized):
        tree = build_tree()
        packed = tree._packed
        original = type(packed).nearest_positions

        def noisy(self, key, count, stats, subset=None):
            positions = original(self, key, count, stats, subset)
            stats.record_read(10_000)  # phantom page read
            return positions

        type(packed).nearest_positions = noisy
        try:
            with pytest.raises(SanitizerError, match="trace divergence"):
                tree.nearest(UIntCodec(8).encode(42), 4)
        finally:
            type(packed).nearest_positions = original

    def test_node_only_tree_unaffected(self, sanitized):
        # cache_pages > 0 disables the packed mirror; the node path must
        # work untouched under the sanitizer.
        tree = build_tree(cache_pages=8)
        assert tree._active_packed() is None
        entries = tree.nearest(UIntCodec(8).encode(90), 5)
        assert len(entries) == 5


class TestColumnsOracleCrossCheck:
    """``RDBTree.candidates`` against the node-path oracle bulk-loaded
    from the tree's own columns."""

    def build_rdbtree(self, n=600, cache_pages=0):
        from repro.core.rdbtree import RDBTree
        from repro.hilbert import HilbertCurve

        rng = np.random.default_rng(4)
        curve = HilbertCurve(3, 4)  # 4096 cells: duplicate keys
        keys = curve.encode_batch_bytes(rng.integers(0, 16, size=(n, 3)))
        tree = RDBTree(curve, 2, cache_pages=cache_pages, page_size=256)
        tree.bulk_build(keys, np.arange(n),
                        rng.uniform(0, 9, size=(n, 2)).astype(np.float32))
        return tree, keys

    def test_intact_tree_passes_and_accounts_once(self, unsanitized):
        plain, keys = self.build_rdbtree()
        plain_ids, plain_ref = plain.candidates(keys[17].tobytes(), 40)
        sanitize.install()
        checked, _ = self.build_rdbtree()
        ids, ref = checked.candidates(keys[17].tobytes(), 40)
        np.testing.assert_array_equal(ids, plain_ids)
        np.testing.assert_array_equal(ref, plain_ref)
        assert checked.stats.snapshot() == plain.stats.snapshot()

    def test_oracle_is_built_once_per_layout(self, sanitized):
        tree, keys = self.build_rdbtree()
        tree.candidates(keys[0].tobytes(), 8)
        oracle = tree.packed._sanitize_oracle
        tree.candidates(keys[1].tobytes(), 8)
        assert tree.packed._sanitize_oracle is oracle
        tree.merge(keys[:1], [999], np.zeros((1, 2), dtype=np.float32))
        tree.candidates(5, 8)
        assert tree.packed._sanitize_oracle is not oracle

    def test_corrupted_geometry_raises(self, sanitized):
        tree, keys = self.build_rdbtree()
        tree.packed.leaf_pages = tree.packed.leaf_pages[::-1].copy()
        with pytest.raises(SanitizerError, match="trace divergence"):
            tree.candidates(keys[300].tobytes(), 8)

    def test_non_finite_stored_distance_raises(self, sanitized):
        """``merge`` refuses one; this is a column corrupted afterwards."""
        tree, keys = self.build_rdbtree()
        records = tree.packed.values_raw.reshape(-1).view(tree._record_dtype)
        records["ref"][:, 1] = np.nan
        with pytest.raises(SanitizerError, match="non-finite"):
            tree.candidates(keys[300].tobytes(), 8)

    def test_eligible_lookup_is_checked_against_the_filtered_walk(
            self, sanitized):
        """A lookup among a subset of the entries used to raise
        TypeError under the sanitizer (the shim took two arguments); it
        is now diffed against the walk that passes over the others, and
        equals :func:`node_candidates` with the same eligibility."""
        tree, keys = self.build_rdbtree()
        eligible = np.arange(600) % 7 == 0
        subset = tree.positions_of(np.flatnonzero(eligible))
        ids, ref = tree.candidates(keys[300].tobytes(), 20, subset)
        assert ids.shape == (20,) and eligible[ids].all()
        want_ids, want_ref = sanitize.node_candidates(
            tree, int.from_bytes(keys[300].tobytes(), "big"), 20, eligible)
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(ref, want_ref)
        # More wanted than eligible: every eligible entry, the whole
        # tree walked.
        ids, _ = tree.candidates(keys[300].tobytes(), 200, subset)
        assert sorted(ids.tolist()) == np.flatnonzero(eligible).tolist()

    def test_eligible_lookup_divergence_raises(self, sanitized):
        tree, keys = self.build_rdbtree()
        subset = tree.positions_of(np.arange(0, 600, 5))
        raw_taken = type(tree.packed)._raw_taken
        type(tree.packed)._raw_taken = \
            lambda self, key, split, last: (1, 1)
        try:
            with pytest.raises(SanitizerError, match="trace divergence"):
                tree.candidates(keys[300].tobytes(), 20, subset)
        finally:
            type(tree.packed)._raw_taken = raw_taken

    def test_cached_tree_checked_against_the_uncached_trace(self, sanitized):
        tree, keys = self.build_rdbtree(cache_pages=16)
        tree.candidates(keys[9].tobytes(), 30)
        tree.candidates(keys[9].tobytes(), 30)
        assert tree.stats.cache_hits > 0


class TestEndToEndQueryParity:
    def test_small_index_queries_identically(self, sanitized):
        import repro
        from repro import HDIndexParams, IndexSpec

        rng = np.random.default_rng(5)
        data = rng.uniform(0, 100, size=(400, 12))
        queries = rng.uniform(0, 100, size=(5, 12))
        index = repro.build(
            IndexSpec(params=HDIndexParams(
                num_trees=3, num_references=4, alpha=64, gamma=16,
                domain=(0.0, 100.0), seed=1)),
            data)
        try:
            for query in queries:
                ids, dists = index.query(query, 5)
                assert ids.shape == (5,)
                assert np.all(np.isfinite(dists))
        finally:
            index.close()


class TestFoldPostconditions:
    def build_with_delta(self):
        from repro import HDIndex, HDIndexParams

        rng = np.random.default_rng(8)
        index = HDIndex(HDIndexParams(
            num_trees=2, num_references=3, alpha=32, gamma=8,
            domain=(0.0, 100.0), seed=1))
        index.build(rng.uniform(0, 100, size=(120, 6)),
                    metadata=[{"label": i % 3} for i in range(120)])
        for label, vector in enumerate(rng.uniform(0, 100, size=(4, 6))):
            index.insert(vector, metadata={"label": label})
        return index

    def test_clean_fold_is_silent(self, sanitized):
        index = self.build_with_delta()
        index.compact()
        assert len(index.heap) == index.metadata.count == index.count == 124

    def test_dropped_tree_insert_raises(self, sanitized):
        index = self.build_with_delta()
        index.trees[1].merge = lambda *args: None
        with pytest.raises(SanitizerError, match="tree_1"):
            index.compact()
