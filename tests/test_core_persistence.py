"""Tests for HD-Index family save/load persistence."""

import dataclasses
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import (
    BuildStats,
    HDIndex,
    IndexSpec,
    HDIndexParams,
    PersistenceError,
    load_index,
    save_index,
)
from repro.storage import pack_arrays, unpack_arrays
from repro.wal.manager import resolve_snapshot_dir
from test_btree_packed import layout_arrays
from test_core_rdbtree import write_legacy_tree


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
    @pytest.mark.parametrize("reopen", ["memory", "mmap", "wal"])
    def test_round_trip_from_memory_build(self, workload, tmp_path, reopen):
        """A reopened snapshot counts as built: ``repro.open`` answers
        both entries exactly as the built index, and reports the zeroed
        build it did not time."""
        data, queries = workload
        original = HDIndex(params())
        original.build(data)
        if reopen == "wal":
            repro.build(IndexSpec(params(), wal=True), data,
                        storage_dir=tmp_path / "index").close()
        else:
            save_index(original, tmp_path / "index")
        reloaded = repro.open(tmp_path / "index",
                              backend=None if reopen == "wal" else reopen)
        assert reloaded.build_stats() == BuildStats()
        for query in queries:
            ids_a, dists_a = original.query(query, 10)
            ids_b, dists_b = reloaded.query(query, 10)
            np.testing.assert_array_equal(ids_a, ids_b)
            np.testing.assert_array_equal(dists_a, dists_b)
        for got, want in zip(reloaded.query_batch(queries, 10),
                             original.query_batch(queries, 10)):
            np.testing.assert_array_equal(got, want)
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


class TestOneFilePerTree:
    def test_snapshot_has_no_tree_pages(self, workload, tmp_path):
        data, _ = workload
        index = HDIndex(params())
        index.build(data)
        save_index(index, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["meta.json", "references.npz", "descriptors.pages"]
            + [f"tree_{i}.packed" for i in range(4)])

    def test_stray_file_beside_the_columns_is_ignored(self, workload,
                                                      tmp_path):
        """Only the files a snapshot names are read or rewritten: a
        foreign ``tree_0.pages`` neither changes answers or counted
        reads nor is touched by a save."""
        data, queries = workload
        index = HDIndex(params())
        index.build(data)
        save_index(index, tmp_path)
        stray = tmp_path / "tree_0.pages"
        stray.write_bytes(bytes(4096))
        opened = load_index(tmp_path)
        for query in queries:
            for got, want in zip(opened.query(query, 10),
                                 index.query(query, 10)):
                np.testing.assert_array_equal(got, want)
            assert opened.last_query_stats().page_reads \
                == index.last_query_stats().page_reads
        opened.insert(data[0])
        save_index(opened, tmp_path)
        opened.close()
        assert stray.read_bytes() == bytes(4096)
        with load_index(tmp_path) as again:
            assert again.count == len(data) + 1

    def test_missing_packed_tree_is_refused(self, workload, tmp_path):
        data, _ = workload
        index = HDIndex(params())
        index.build(data)
        save_index(index, tmp_path)
        (tmp_path / "tree_2.packed").unlink()
        with pytest.raises(PersistenceError, match=r"tree_2\.packed"):
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
        expected = [layout_arrays(tree.packed) for tree in index.trees]
        opened = load_index(tmp_path, backend=backend, wal=False)
        held = [tree.packed for tree in opened.trees]
        labels = opened.metadata.column("label")
        for vector in data[:7]:
            opened.insert(vector + 0.25, metadata={"label": 1})
        opened.compact()  # folds, then save_index into tmp_path
        assert not list(tmp_path.glob("*.tmp"))
        for layout, arrays in zip(held, expected):
            for name, array in layout_arrays(layout).items():
                np.testing.assert_array_equal(array, arrays[name])
        np.testing.assert_array_equal(
            labels, np.arange(len(data)) % 3)
        assert all(len(tree) == len(data) + 7 for tree in opened.trees)
        opened.close()
        with load_index(tmp_path, backend=backend) as again:
            assert again.count == len(data) + 7


def id_widths(directory, num_references=5):
    """The id width each ``tree_<i>.packed`` of a snapshot stores."""
    widths = []
    for path in sorted(Path(directory).glob("tree_*.packed")):
        values = unpack_arrays(np.fromfile(path, dtype=np.uint8))["values"]
        widths.append(values.shape[1] - 4 * num_references)
    return widths


def tree_files(directory):
    return {path.name: path.read_bytes()
            for path in sorted(Path(directory).glob("tree_*.packed"))}


def answers(index, queries):
    """Each query's ids, distances and stats but the time."""
    found = []
    for query in queries:
        ids, dists = index.query(query, 10)
        stats = dataclasses.replace(index.last_query_stats(), time_sec=0.0)
        found.append((ids.tolist(), dists.tolist(), stats))
    return found


class TestLegacyTreeFiles:
    """Tree files written before narrow ids store every id as ``>u8``
    and the page geometry beside the columns: such a snapshot opens on
    both backends, answers and counts as the narrow one does, and is
    written narrow at its next fold."""

    @pytest.fixture
    def snapshots(self, workload, tmp_path):
        data, _ = workload
        index = HDIndex(params())
        index.build(data)
        save_index(index, tmp_path / "narrow")
        save_index(index, tmp_path / "legacy")
        for position, tree in enumerate(index.trees):
            write_legacy_tree(tree, tmp_path / "legacy"
                              / f"tree_{position}.packed")
        index.close()
        assert id_widths(tmp_path / "narrow") == [2] * 4
        assert id_widths(tmp_path / "legacy") == [8] * 4
        return tmp_path / "narrow", tmp_path / "legacy"

    @pytest.mark.parametrize("backend", ["memory", "mmap"])
    def test_opens_and_answers_as_the_narrow_format(self, workload,
                                                    snapshots, backend):
        _, queries = workload
        narrow, legacy = snapshots
        with load_index(narrow, backend=backend) as want, \
                load_index(legacy, backend=backend) as got:
            assert answers(got, queries) == answers(want, queries)

    @pytest.mark.parametrize("logged", [False, True],
                             ids=["un-logged", "logged"])
    def test_a_fold_rewrites_it_narrow(self, workload, snapshots, logged):
        """After an insert and ``compact()`` the legacy snapshot's tree
        files are byte for byte those of the narrow snapshot put through
        the same steps, and both answer alike."""
        data, queries = workload
        for directory in snapshots:
            with load_index(directory, wal=logged) as opened:
                for vector in data[:7]:
                    opened.insert(vector + 0.25)
                assert opened.compact() == int(logged)
        narrow, legacy = (resolve_snapshot_dir(str(directory))
                          for directory in snapshots)
        assert (Path(legacy).name == "gen-000001") == logged
        assert id_widths(legacy) == [2] * 4
        assert tree_files(legacy) == tree_files(narrow)
        with load_index(snapshots[0]) as want, \
                load_index(snapshots[1]) as got:
            assert got.count == len(data) + 7
            assert answers(got, queries) == answers(want, queries)


class TestTornFiles:
    """A torn or foreign tree, metadata or reference file is refused with
    a :class:`PersistenceError` naming it, and so is a tree that is not
    the one ``meta.json`` records."""

    CORRUPTIONS = {"half": lambda raw: raw[:len(raw) // 2],
                   "zeros": lambda raw: bytes(100),
                   "head": lambda raw: raw[:40]}

    @pytest.fixture(scope="class")
    def snapshot(self, workload, tmp_path_factory):
        data, _ = workload
        index = HDIndex(params())
        index.build(data, metadata=[{"label": i % 3}
                                    for i in range(len(data))])
        directory = tmp_path_factory.mktemp("snapshot")
        save_index(index, directory)
        index.close()
        return directory

    @pytest.mark.parametrize("backend", ["memory", "mmap"])
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("name", ["tree_1.packed", "metadata.packed",
                                      "references.npz"])
    def test_refused_naming_the_file(self, snapshot, tmp_path, name,
                                     corruption, backend):
        directory = shutil.copytree(snapshot, tmp_path / "copy")
        path = directory / name
        path.write_bytes(self.CORRUPTIONS[corruption](path.read_bytes()))
        with pytest.raises(PersistenceError, match=re.escape(name)):
            load_index(directory, backend=backend)

    #: Cuts of ``descriptors.pages`` (4 KiB pages): torn mid-page, torn
    #: with a partial page after, empty, and whole pages too few for the
    #: count ``meta.json`` records.
    HEAP_CUTS = {"half": lambda raw: raw[:len(raw) // 2],
                 "half_plus_100": lambda raw: raw[:len(raw) // 2 + 100],
                 "empty": lambda raw: b"",
                 "page_aligned": lambda raw: raw[:4096]}

    @pytest.fixture(scope="class")
    def snapshots(self, snapshot, workload, tmp_path_factory):
        """The float snapshot (a float32 heap) and one of the rounded
        data (a uint8 heap)."""
        data, _ = workload
        index = HDIndex(params())
        index.build(np.rint(data))
        directory = tmp_path_factory.mktemp("integer")
        save_index(index, directory)
        index.close()
        return {"float32": snapshot, "uint8": directory}

    @pytest.mark.parametrize("backend", ["memory", "mmap"])
    @pytest.mark.parametrize("cut", sorted(HEAP_CUTS))
    @pytest.mark.parametrize("stored", ["float32", "uint8"])
    def test_a_torn_heap_is_refused_naming_it(self, snapshots, tmp_path,
                                              stored, cut, backend):
        directory = shutil.copytree(snapshots[stored], tmp_path / "copy")
        meta = json.loads((directory / "meta.json").read_text())
        assert meta["heap"]["stored"] == stored
        path = directory / "descriptors.pages"
        path.write_bytes(self.HEAP_CUTS[cut](path.read_bytes()))
        with pytest.raises(PersistenceError,
                           match=re.escape("descriptors.pages")):
            load_index(directory, backend=backend)

    @pytest.mark.parametrize("backend", ["memory", "mmap"])
    @pytest.mark.parametrize("stored", ["uint24", "V3", "float16", "int8",
                                        "uint16"])
    def test_a_heap_of_a_foreign_width_is_refused(self, snapshots,
                                                  tmp_path, stored,
                                                  backend):
        """Widths outside {1, 2, 4, 8}, signed or float records, and a
        width whose records the pages cannot hold (u2 over u1 pages)."""
        directory = shutil.copytree(snapshots["uint8"], tmp_path / "copy")
        meta = json.loads((directory / "meta.json").read_text())
        meta["heap"]["stored"] = stored
        (directory / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(PersistenceError,
                           match=re.escape("descriptors.pages")):
            load_index(directory, backend=backend)

    @pytest.mark.parametrize("defect", ["rows", "width", "leaf_capacity"])
    def test_a_tree_unlike_the_recorded_one_is_refused(self, snapshot,
                                                       tmp_path, defect):
        directory = shutil.copytree(snapshot, tmp_path / "copy")
        path = directory / "tree_1.packed"
        arrays = unpack_arrays(np.fromfile(path, dtype=np.uint8))
        keys, values = arrays["keys"], arrays["values"]
        if defect == "rows":
            values = values[:-1]
        elif defect == "width":  # 4m + 3 bytes: no id width
            values = np.pad(values, ((0, 0), (0, 1)))
        else:
            meta = json.loads((directory / "meta.json").read_text())
            meta["trees"][1]["tree"]["leaf_capacity"] += 1
            (directory / "meta.json").write_text(json.dumps(meta))
        path.write_bytes(pack_arrays({"keys": keys, "values": values}))
        with pytest.raises(PersistenceError, match=r"tree_1\.packed"):
            load_index(directory, backend="memory")


class TestFamilySaveLoad:
    """What ``save_index`` / ``load_index`` refuse."""

    def test_save_foreign_index_rejected(self, tmp_path):
        from repro.baselines import LinearScan
        with pytest.raises(PersistenceError):
            save_index(LinearScan(), tmp_path / "index")

    def test_load_empty_directory_rejected(self, tmp_path):
        (tmp_path / "index").mkdir()
        with pytest.raises(PersistenceError):
            load_index(tmp_path / "index")

    def test_sharded_root_refused_naming_migration(self, tmp_path):
        """A root an older release wrote with shards: its manifest is
        refused by every way in, naming the rebuild recipe."""
        import repro
        from repro.serve import QueryService
        root = tmp_path / "index"
        (root / "shard_0").mkdir(parents=True)
        (root / "manifest.json").write_text(json.dumps({
            "format_version": 1, "num_shards": 2, "count": 10,
            "offsets": [0, 5, 10], "insert_tails": [[], []],
            "spec": {"topology": {"shards": 2}, "execution": {"wal": None}},
        }))
        for open_root in (load_index, repro.open,
                          QueryService.from_snapshot):
            with pytest.raises(PersistenceError,
                               match=r"docs/MIGRATION\.md"):
                open_root(root)

    def test_meta_recording_shards_rejected(self, workload, tmp_path):
        data, _ = workload
        index = HDIndex(params())
        index.build(data)
        save_index(index, tmp_path / "index")
        index.close()
        meta_path = tmp_path / "index" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["spec"]["topology"]["shards"] = 2
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(PersistenceError, match="spec"):
            load_index(tmp_path / "index")


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
