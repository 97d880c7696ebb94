"""Tests for HD-Index family save/load persistence."""

import json

import numpy as np
import pytest

from repro.core import (
    HDIndex,
    HDIndexParams,
    PersistenceError,
    ShardRouter,
    ThreadedExecutor,
    load_index,
    save_index,
)


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(99)
    centers = rng.uniform(0.0, 100.0, size=(5, 16))
    data = np.vstack([
        center + rng.normal(0.0, 3.0, size=(60, 16)) for center in centers])
    queries = data[rng.choice(len(data), 6, replace=False)] \
        + rng.normal(0.0, 0.5, size=(6, 16))
    return np.clip(data, 0, 100), np.clip(queries, 0, 100)


def params(**overrides):
    defaults = dict(num_trees=4, num_references=5, alpha=128, gamma=32,
                    domain=(0.0, 100.0), seed=0)
    defaults.update(overrides)
    return HDIndexParams(**defaults)


class TestSaveLoad:
    def test_round_trip_from_memory_build(self, workload, tmp_path):
        data, queries = workload
        original = HDIndex(params())
        original.build(data)
        save_index(original, tmp_path / "index")
        reloaded = load_index(tmp_path / "index")
        for query in queries:
            ids_a, dists_a = original.query(query, 10)
            ids_b, dists_b = reloaded.query(query, 10)
            np.testing.assert_array_equal(ids_a, ids_b)
            np.testing.assert_allclose(dists_a, dists_b)
        reloaded.close()

    def test_round_trip_from_disk_build(self, workload, tmp_path):
        data, queries = workload
        directory = tmp_path / "hd"
        original = HDIndex(params(storage_dir=str(directory)))
        original.build(data)
        save_index(original, directory)   # metadata only; pages in place
        original.close()
        reloaded = load_index(directory)
        ids, dists = reloaded.query(queries[0], 10)
        assert len(ids) == 10
        assert np.all(np.diff(dists) >= 0)
        reloaded.close()

    def test_reloaded_index_accepts_updates(self, workload, tmp_path):
        data, queries = workload
        original = HDIndex(params())
        original.build(data)
        save_index(original, tmp_path / "index")
        reloaded = load_index(tmp_path / "index")
        new_point = np.full(16, 55.0)
        new_id = reloaded.insert(new_point)
        ids, _ = reloaded.query(new_point, 1)
        assert ids[0] == new_id
        reloaded.close()

    def test_deleted_ids_survive_round_trip(self, workload, tmp_path):
        data, queries = workload
        original = HDIndex(params())
        original.build(data)
        ids, _ = original.query(data[7], 1)
        assert ids[0] == 7
        original.delete(7)
        save_index(original, tmp_path / "index")
        reloaded = load_index(tmp_path / "index")
        ids, _ = reloaded.query(data[7], 1)
        assert ids[0] != 7
        reloaded.close()

    def test_meta_file_contents(self, workload, tmp_path):
        data, _ = workload
        index = HDIndex(params())
        index.build(data)
        save_index(index, tmp_path / "index")
        meta = json.loads((tmp_path / "index" / "meta.json").read_text())
        assert meta["format_version"] == 1
        assert meta["dim"] == 16
        assert meta["count"] == len(data)
        assert len(meta["trees"]) == 4
        assert meta["params"]["num_references"] == 5

    def test_load_missing_directory_rejected(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_index(tmp_path / "nothing")

    def test_load_bad_version_rejected(self, workload, tmp_path):
        data, _ = workload
        index = HDIndex(params())
        index.build(data)
        save_index(index, tmp_path / "index")
        meta_path = tmp_path / "index" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(PersistenceError):
            load_index(tmp_path / "index")

    def test_save_unbuilt_index_rejected(self, tmp_path):
        with pytest.raises(RuntimeError):
            save_index(HDIndex(params()), tmp_path / "index")

    def test_cache_override_on_load(self, workload, tmp_path):
        data, queries = workload
        index = HDIndex(params())
        index.build(data)
        save_index(index, tmp_path / "index")
        cached = load_index(tmp_path / "index", cache_pages=256)
        cached.query(queries[0], 5)
        cached.query(queries[0], 5)
        assert cached.io_snapshot()["cache_hits"] > 0
        cached.close()


def write_pages_beside_columns(directory, index):
    """Make ``directory`` look as a snapshot of the release before the
    column format: every tree also as node pages (``tree_<i>.pages``)
    beside its ``tree_<i>.packed``."""
    from repro.btree import BPlusTree
    for position, tree in enumerate(index.trees):
        paged = BPlusTree.from_columns(tree.packed, tree.leaf_capacity,
                                       tree.page_size)
        with open(directory / f"tree_{position}.pages", "wb") as out:
            for page_id in paged._store.iter_page_ids():
                out.write(paged._store.read(page_id))


class TestOneFilePerTree:
    def test_snapshot_has_no_tree_pages(self, workload, tmp_path):
        data, _ = workload
        index = HDIndex(params())
        index.build(data)
        save_index(index, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["meta.json", "references.npz", "descriptors.pages"]
            + [f"tree_{i}.packed" for i in range(4)])

    def test_old_layout_loads_and_sheds_its_pages(self, workload, tmp_path):
        data, queries = workload
        index = HDIndex(params())
        index.build(data)
        save_index(index, tmp_path)
        write_pages_beside_columns(tmp_path, index)
        old = load_index(tmp_path)
        for query in queries:
            for got, want in zip(old.query(query, 10),
                                 index.query(query, 10)):
                np.testing.assert_array_equal(got, want)
            assert old.last_query_stats().page_reads \
                == index.last_query_stats().page_reads
        assert (tmp_path / "tree_0.pages").exists()  # loading is read-only
        old.insert(data[0])
        save_index(old, tmp_path)
        old.close()
        assert not list(tmp_path.glob("tree_*.pages"))
        with load_index(tmp_path) as again:
            assert again.count == len(data) + 1

    def test_pages_only_snapshot_is_refused(self, workload, tmp_path):
        data, _ = workload
        index = HDIndex(params())
        index.build(data)
        save_index(index, tmp_path)
        write_pages_beside_columns(tmp_path, index)
        (tmp_path / "tree_2.packed").unlink()
        with pytest.raises(PersistenceError, match="MIGRATION"):
            load_index(tmp_path)

    def test_entry_count_must_match_meta(self, workload, tmp_path):
        data, _ = workload
        index = HDIndex(params())
        index.build(data)
        save_index(index, tmp_path)
        index.insert(data[0])
        index.compact()
        index.trees[1].write(tmp_path / "tree_1.packed")
        with pytest.raises(PersistenceError, match="entries"):
            load_index(tmp_path)

    @pytest.mark.parametrize("backend", ["mmap"])
    def test_mapped_files_are_replaced_not_truncated(self, workload,
                                                     tmp_path, backend):
        """An un-logged fold rewrites the snapshot in place while the old
        layouts may still be mapped (by this process or a worker pool):
        a reader holding them keeps the old, complete columns."""
        data, queries = workload
        index = HDIndex(params())
        index.build(data, metadata=[{"label": i % 3}
                                    for i in range(len(data))])
        save_index(index, tmp_path)
        expected = [tree.packed.to_arrays() for tree in index.trees]
        opened = load_index(tmp_path, backend=backend, wal=False)
        held = [tree.packed for tree in opened.trees]
        labels = opened.metadata.column("label")
        for vector in data[:7]:
            opened.insert(vector + 0.25, metadata={"label": 1})
        opened.compact()  # folds, then save_index into tmp_path
        assert not list(tmp_path.glob("*.tmp"))
        for layout, arrays in zip(held, expected):
            for name, array in layout.to_arrays().items():
                np.testing.assert_array_equal(array, arrays[name])
        np.testing.assert_array_equal(
            labels, np.arange(len(data)) % 3)
        assert all(len(tree) == len(data) + 7 for tree in opened.trees)
        opened.close()
        with load_index(tmp_path, backend=backend) as again:
            assert again.count == len(data) + 7

    def test_cache_pages_only_changes_the_hit_split(self, workload,
                                                    tmp_path):
        data, queries = workload
        index = HDIndex(params())
        index.build(data)
        save_index(index, tmp_path)
        runs = {}
        for capacity in (0, 8, 10 ** 6):
            with load_index(tmp_path, cache_pages=capacity) as opened:
                answers = [opened.query(query, 10)
                           for query in list(queries) * 2]
                runs[capacity] = (
                    answers,
                    [tree.stats.page_reads for tree in opened.trees],
                    [tree.stats.cache_hits for tree in opened.trees])
        answers, uncached, no_hits = runs[0]
        assert not any(no_hits)
        for capacity in (8, 10 ** 6):
            got, reads, hits = runs[capacity]
            assert [r + h for r, h in zip(reads, hits)] == uncached
            for (ids_a, dists_a), (ids_b, dists_b) in zip(got, answers):
                np.testing.assert_array_equal(ids_a, ids_b)
                np.testing.assert_array_equal(dists_a, dists_b)
        assert all(0 < few <= many
                   for few, many in zip(runs[8][2], runs[10 ** 6][2]))


class TestFamilySaveLoad:
    """Whole-family persistence: parallel and sharded snapshots reopen as
    the class that was saved (PR-2 tentpole)."""

    def test_parallel_round_trip_restores_class(self, workload, tmp_path):
        data, queries = workload
        original = HDIndex(params(), executor=ThreadedExecutor(3))
        original.build(data)
        save_index(original, tmp_path / "index")
        reloaded = load_index(tmp_path / "index")
        # The snapshot's spec reconstructs the deployment: a thread-pool
        # executor of the saved width (no per-combination class needed).
        assert isinstance(reloaded, HDIndex)
        assert isinstance(reloaded.executor, ThreadedExecutor)
        assert reloaded.spec.execution.workers == 3
        for query in queries:
            ids_a, dists_a = original.query(query, 10)
            ids_b, dists_b = reloaded.query(query, 10)
            np.testing.assert_array_equal(ids_a, ids_b)
            np.testing.assert_array_equal(dists_a, dists_b)
        original.close()
        reloaded.close()

    def test_sharded_round_trip_matches_pre_save_exactly(self, workload,
                                                         tmp_path):
        data, queries = workload
        original = ShardRouter(params(), 3)
        original.build(data)
        save_index(original, tmp_path / "index")
        reloaded = load_index(tmp_path / "index")
        assert isinstance(reloaded, ShardRouter)
        assert reloaded.num_shards == 3
        assert reloaded.count == original.count
        np.testing.assert_array_equal(reloaded.offsets, original.offsets)
        for query in queries:
            ids_a, dists_a = original.query(query, 10)
            ids_b, dists_b = reloaded.query(query, 10)
            np.testing.assert_array_equal(ids_a, ids_b)
            np.testing.assert_array_equal(dists_a, dists_b)
        batch_a = original.query_batch(queries, 10)
        batch_b = reloaded.query_batch(queries, 10)
        np.testing.assert_array_equal(batch_a[0], batch_b[0])
        np.testing.assert_array_equal(batch_a[1], batch_b[1])
        original.close()
        reloaded.close()

    def test_sharded_snapshot_layout(self, workload, tmp_path):
        data, _ = workload
        index = ShardRouter(params(), 2)
        index.build(data)
        save_index(index, tmp_path / "index")
        manifest = json.loads(
            (tmp_path / "index" / "manifest.json").read_text())
        assert manifest["kind"] == "sharded"
        assert manifest["num_shards"] == 2
        assert manifest["count"] == len(data)
        assert manifest["offsets"][0] == 0
        assert manifest["offsets"][-1] == len(data)
        for shard in range(2):
            shard_dir = tmp_path / "index" / f"shard_{shard}"
            assert (shard_dir / "meta.json").exists()
            assert (shard_dir / "descriptors.pages").exists()

    def test_sharded_inserts_and_deletes_survive(self, workload, tmp_path):
        data, _ = workload
        index = ShardRouter(params(), 2)
        index.build(data)
        point = np.full(16, 55.0)
        new_id = index.insert(point)
        index.delete(3)
        save_index(index, tmp_path / "index")
        reloaded = load_index(tmp_path / "index")
        assert reloaded.count == len(data) + 1
        ids, _ = reloaded.query(point, 1)
        assert ids[0] == new_id
        ids, _ = reloaded.query(data[3], 1)
        assert ids[0] != 3
        # The reloaded index keeps handing out fresh, non-colliding ids.
        another = reloaded.insert(np.full(16, 45.0))
        assert another == len(data) + 1
        reloaded.delete(new_id)
        ids, _ = reloaded.query(point, 1)
        assert ids[0] != new_id
        index.close()
        reloaded.close()

    def test_sharded_cache_pages_plumbed_to_shards(self, workload, tmp_path):
        data, queries = workload
        index = ShardRouter(params(), 2)
        index.build(data)
        save_index(index, tmp_path / "index")
        reloaded = load_index(tmp_path / "index", cache_pages=128)
        reloaded.query(queries[0], 5)
        reloaded.query(queries[0], 5)
        for shard in reloaded.shards:
            assert shard.params.cache_pages == 128
        assert any(shard.io_snapshot()["cache_hits"] > 0
                   for shard in reloaded.shards)
        index.close()
        reloaded.close()

    def test_save_unbuilt_sharded_rejected(self, tmp_path):
        with pytest.raises(RuntimeError):
            save_index(ShardRouter(params()), tmp_path / "index")

    def test_save_foreign_index_rejected(self, tmp_path):
        from repro.baselines import LinearScan
        with pytest.raises(PersistenceError):
            save_index(LinearScan(), tmp_path / "index")

    def test_load_empty_directory_rejected(self, tmp_path):
        (tmp_path / "index").mkdir()
        with pytest.raises(PersistenceError):
            load_index(tmp_path / "index")

    def test_load_bad_manifest_kind_rejected(self, workload, tmp_path):
        data, _ = workload
        index = ShardRouter(params(), 2)
        index.build(data)
        save_index(index, tmp_path / "index")
        manifest_path = tmp_path / "index" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["kind"] = "mystery"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError):
            load_index(tmp_path / "index")
        index.close()


class TestMutateResaveRoundTrip:
    """Regression (PR 2): save -> load -> insert()/delete() -> save on the
    same directory must keep the snapshot consistent across cycles."""

    def test_two_mutation_cycles_preserve_state(self, workload, tmp_path):
        data, queries = workload
        directory = tmp_path / "index"
        index = HDIndex(params())
        index.build(data)
        save_index(index, directory)
        inserted = []
        rng = np.random.default_rng(5)
        for cycle in range(2):
            reloaded = load_index(directory)
            # Enough inserts to allocate fresh heap pages and split leaves.
            for _ in range(40):
                inserted.append(reloaded.insert(
                    rng.uniform(0.0, 100.0, size=16)))
            reloaded.delete(cycle)
            save_index(reloaded, directory)
            ids_before, dists_before = reloaded.query(queries[0], 10)
            reloaded.close()
            final = load_index(directory)
            assert final.count == len(data) + len(inserted)
            assert len(final.heap) == len(data) + len(inserted)
            assert final._deleted == set(range(cycle + 1))
            for tree in final.trees:
                assert len(tree) == len(data) + len(inserted)
            ids_after, dists_after = final.query(queries[0], 10)
            np.testing.assert_array_equal(ids_before, ids_after)
            np.testing.assert_array_equal(dists_before, dists_after)
            final.close()

    def test_resave_original_after_mutation(self, workload, tmp_path):
        """Saving the still-open memory-built index again (after updates)
        refreshes the page files rather than leaving a stale copy."""
        data, _ = workload
        directory = tmp_path / "index"
        index = HDIndex(params())
        index.build(data)
        save_index(index, directory)
        point = np.full(16, 42.0)
        new_id = index.insert(point)
        index.delete(0)
        save_index(index, directory)
        reloaded = load_index(directory)
        assert len(reloaded.heap) == len(data) + 1
        assert reloaded._deleted == {0}
        ids, _ = reloaded.query(point, 1)
        assert ids[0] == new_id
        reloaded.close()

    def test_query_parity_after_mutated_reload(self, workload, tmp_path):
        data, queries = workload
        directory = tmp_path / "index"
        index = HDIndex(params())
        index.build(data)
        save_index(index, directory)
        mutated = load_index(directory)
        for offset in range(8):
            mutated.insert(np.clip(queries[0] + offset, 0, 100))
        mutated.delete(11)
        save_index(mutated, directory)
        expected = [mutated.query(query, 10) for query in queries]
        mutated.close()
        reloaded = load_index(directory)
        for query, (ids, dists) in zip(queries, expected):
            got_ids, got_dists = reloaded.query(query, 10)
            np.testing.assert_array_equal(got_ids, ids)
            np.testing.assert_array_equal(got_dists, dists)
        reloaded.close()


class TestMaterialiseStore:
    """How ``save_index`` gets the descriptor heap onto disk."""

    def test_contiguous_store_copies_all_pages(self, workload, tmp_path):
        """An in-memory heap is written out whole, in one pass that
        charges the index's own counters nothing."""
        data, _ = workload
        index = HDIndex(params())
        index.build(data)
        before = index.io_snapshot()
        save_index(index, tmp_path)
        assert index.io_snapshot() == before
        raw = (tmp_path / "descriptors.pages").read_bytes()
        assert raw == index.heap.page_matrix().tobytes()
        assert len(raw) == index.heap.size_bytes() > 0
        assert not (tmp_path / "descriptors.pages.tmp").exists()
        index.close()

    def test_file_backed_elsewhere_rejected(self, workload, tmp_path):
        data, _ = workload
        index = HDIndex(params(storage_dir=str(tmp_path / "origin")))
        index.build(data)
        with pytest.raises(PersistenceError, match="file-backed"):
            save_index(index, tmp_path / "elsewhere")
        index.close()
