"""Tests for the runtime invariant sanitizer (repro.devtools.sanitize).

Each shim is driven both ways: legitimate use stays silent, a seeded
violation raises :class:`SanitizerError`.  The cross-check tests build a
baseline's bulk-loaded tree (and an RDB-tree), each checked against the
node walk of its columns, and then corrupt one side.
"""

import numpy as np
import pytest

from repro.btree.packed import PackedTree, bulk_load
from repro.devtools import sanitize
from repro.devtools.sanitize import SanitizerError
from repro.storage.codecs import UIntCodec
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


def build_tree(n=500):
    """A baseline's tree: keys 0, 3, 6, ... on 512-byte pages (17 leaves),
    the value of an entry its position; and its IOStats."""
    return bulk_load(UIntCodec(8), range(0, 3 * n, 3), np.arange(n), 512)


def nearest(tree, stats, key, count):
    return tree.entries(tree.nearest_positions(UIntCodec(8).encode(key),
                                               count, stats))


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
        stats.sequential_writes = -3
        stats.random_writes = 3  # the write split still balances
        with pytest.raises(SanitizerError, match="negative"):
            stats.record_read(0)

    @pytest.mark.parametrize("field,drift", [
        ("page_reads", {"page_reads": -3, "random_reads": -3}),
        ("page_writes", {"page_writes": -3, "random_writes": -3}),
        ("random_reads", {"random_reads": -3, "sequential_reads": 3}),
        ("sequential_reads", {"sequential_reads": -3, "random_reads": 3}),
        ("random_writes", {"random_writes": -3, "sequential_writes": 3}),
        ("sequential_writes", {"sequential_writes": -3, "random_writes": 3}),
    ], ids=lambda value: value if isinstance(value, str) else "")
    def test_every_counter_is_checked_for_sign(self, sanitized, field,
                                               drift):
        """Each public counter is checked, with both splits in balance so
        only the sign can trip, and an empty trace is checked too."""
        stats = IOStats()
        for name, value in drift.items():
            setattr(stats, name, value)
        with pytest.raises(SanitizerError,
                           match=rf"IOStats\.{field} went negative"):
            stats.record_read_many([])


class TestMmapWriteProtection:
    def test_page_matrix_views_are_read_only(self, sanitized, tmp_path):
        data = np.arange(32, dtype=np.float32).reshape(8, 4)
        for path in (None, tmp_path / "pages.bin"):
            heap = heap_file_from_array(data, page_size=256, path=path)
            matrix = heap.page_matrix()
            assert not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0, 0] = 1
            # The data itself is still readable and correct, stored at
            # one byte a value (integers in [0, 255]).
            assert bytes(matrix[0, :32]) == data.astype(np.uint8).tobytes()
            heap.close()

    def test_writable_matrix_raises(self, sanitized):
        heap = heap_file_from_array(np.zeros((8, 4)), page_size=256)
        heap._state = (heap._buffer, 8, heap.stored_dtype)  # seeded: raw
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
        tree, stats = build_tree()
        before = stats.snapshot()
        entries = nearest(tree, stats, 300, 16)
        after = stats.snapshot()
        assert len(entries) == 16
        # Parity verified in sandboxes; the caller-visible accounting is
        # exactly one packed traversal, not three.
        reads = after["page_reads"] - before["page_reads"]
        assert 0 < reads <= tree.height + 16

    def test_matches_unsanitized_answer_and_stats(self, unsanitized):
        plain_tree, plain_stats = build_tree()
        plain = nearest(plain_tree, plain_stats, 777, 12)
        sanitize.install()
        try:
            checked_tree, checked_stats = build_tree()
            checked = nearest(checked_tree, checked_stats, 777, 12)
        finally:
            sanitize.uninstall()
        assert plain == checked
        assert plain_stats.snapshot() == checked_stats.snapshot()

    def test_corrupted_packed_values_raise(self, sanitized):
        tree, stats = build_tree()
        target = tree.keys_raw[40].tobytes()
        tree.nearest_positions(target, 8, stats)  # the walk is made
        tree.values_raw = tree.values_raw.copy()
        tree.values_raw[40] ^= 0xFF  # one entry's payload corrupted
        with pytest.raises(SanitizerError, match="answer divergence"):
            # count large enough to cover the corrupted position for
            # any nearby key
            tree.nearest_positions(target, 8, stats)

    def test_trace_divergence_raises(self, sanitized, monkeypatch):
        tree, stats = build_tree()
        replay = PackedTree._nearest_trace

        def noisy(*args):
            return np.append(replay(*args), 10_000)  # phantom page read

        monkeypatch.setattr(PackedTree, "_nearest_trace", noisy)
        with pytest.raises(SanitizerError, match="trace divergence"):
            nearest(tree, stats, 42, 4)

    def test_baseline_lookups_are_checked(self, sanitized):
        """Multicurves looks up its trees directly, and each lookup is
        diffed against the node walk."""
        from repro.baselines import Multicurves

        rng = np.random.default_rng(3)
        index = Multicurves(num_curves=2, alpha=64, domain=(0.0, 1.0))
        index.build(rng.uniform(0, 1, size=(300, 8)))
        index.query(rng.uniform(0, 1, size=8), 5)
        tree = index.trees[0]
        tree.values_raw = tree.values_raw.copy()
        tree.values_raw[:, -1] ^= 0xFF  # every stored vector corrupted
        with pytest.raises(SanitizerError, match="answer divergence"):
            index.query(rng.uniform(0, 1, size=8), 5)


class TestColumnsOracleCrossCheck:
    """``RDBTree.candidates`` against the node walk of the tree's own
    columns."""

    def build_rdbtree(self, n=600):
        from repro.core.rdbtree import RDBTree
        from repro.hilbert import HilbertCurve

        rng = np.random.default_rng(4)
        curve = HilbertCurve(3, 4)  # 4096 cells: duplicate keys
        keys = curve.encode_batch_bytes(rng.integers(0, 16, size=(n, 3)))
        tree = RDBTree(curve, 2, page_size=256)
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
        # The same set: compared by id (the walk emits it nearest first).
        got, want = np.argsort(ids), np.argsort(want_ids)
        np.testing.assert_array_equal(ids[got], want_ids[want])
        np.testing.assert_array_equal(ref[got], want_ref[want])
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
