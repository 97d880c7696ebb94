"""Tests for the parallel-query extension (paper Sec. 5.2.8 / Sec. 6)."""

import numpy as np
import pytest

from repro.core import (
    Execution,
    HDIndex,
    HDIndexParams,
    IndexSpec,
    create_index,
)


def process_index(p, directory, workers=2):
    """Per-tree scans over worker processes, declared through the spec
    API (the workers bootstrap from the snapshot in ``directory``)."""
    return create_index(IndexSpec(
        params=p, execution=Execution(kind="process", workers=workers)),
        storage_dir=str(directory))


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(88)
    centers = rng.uniform(0.0, 100.0, size=(6, 16))
    data = np.vstack([
        center + rng.normal(0.0, 3.0, size=(60, 16)) for center in centers])
    queries = data[rng.choice(len(data), 8, replace=False)] \
        + rng.normal(0.0, 0.5, size=(8, 16))
    return np.clip(data, 0, 100), np.clip(queries, 0, 100)


def params(**overrides):
    defaults = dict(num_trees=4, num_references=5, alpha=128, gamma=32,
                    domain=(0.0, 100.0), seed=0)
    defaults.update(overrides)
    return HDIndexParams(**defaults)


class TestParallelHDIndex:
    def test_results_identical_to_sequential(self, workload, tmp_path):
        """The paper's claim: per-tree scans are independent, so
        parallelising them must not change the answer set."""
        data, queries = workload
        sequential = HDIndex(params())
        parallel = process_index(params(), tmp_path, workers=4)
        sequential.build(data)
        parallel.build(data)
        for query in queries:
            ids_seq, dists_seq = sequential.query(query, 10)
            ids_par, dists_par = parallel.query(query, 10)
            np.testing.assert_array_equal(ids_seq, ids_par)
            np.testing.assert_allclose(dists_seq, dists_par)
        parallel.close()

    def test_ptolemaic_path_identical(self, workload, tmp_path):
        data, queries = workload
        sequential = HDIndex(params(use_ptolemaic=True))
        parallel = process_index(params(use_ptolemaic=True), tmp_path)
        sequential.build(data)
        parallel.build(data)
        ids_seq, _ = sequential.query(queries[0], 10)
        ids_par, _ = parallel.query(queries[0], 10)
        np.testing.assert_array_equal(ids_seq, ids_par)
        parallel.close()

    def test_worker_count_respected(self, workload, tmp_path):
        data, queries = workload
        index = process_index(params(), tmp_path, workers=2)
        index.build(data)
        index.query(queries[0], 5)
        assert index.last_query_stats().extra["workers"] == 2
        index.close()

    def test_context_manager(self, workload, tmp_path):
        data, queries = workload
        with process_index(params(), tmp_path) as index:
            index.build(data)
            ids, _ = index.query(queries[0], 5)
            assert len(ids) == 5

    def test_close_is_idempotent(self, workload, tmp_path):
        data, _ = workload
        index = process_index(params(), tmp_path)
        index.build(data)
        index.close()
        index.close()

    def test_sequential_execution_drops_the_pool(self, workload, tmp_path):
        """Process execution is one optional pool: setting sequential
        execution closes it and the same index answers inline."""
        data, queries = workload
        index = process_index(params(), tmp_path)
        index.build(data)
        want = index.query_batch(queries, 10)
        pool = index._engine.pool
        index.set_execution(Execution())
        assert index._engine.pool is None and pool._closed
        assert index.spec.execution.kind == "sequential"
        got = index.query_batch(queries, 10)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert "workers" not in index.last_query_stats().extra
        index.close()

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            Execution(kind="process", workers=0)

    def test_updates_still_work(self, workload, tmp_path):
        data, _ = workload
        index = process_index(params(), tmp_path)
        index.build(data)
        new_point = np.full(16, 42.0)
        new_id = index.insert(new_point)
        ids, _ = index.query(new_point, 1)
        assert ids[0] == new_id
        index.delete(new_id)
        ids, _ = index.query(new_point, 1)
        assert ids[0] != new_id
        index.close()


class TestDiskBackedIndex:
    def test_storage_dir_creates_page_files(self, workload, tmp_path):
        data, queries = workload
        index = HDIndex(params(storage_dir=str(tmp_path / "hd")))
        index.build(data)
        files = sorted(p.name for p in (tmp_path / "hd").iterdir())
        assert "descriptors.pages" in files
        assert sum(name.startswith("tree_") for name in files) == 4
        ids, _ = index.query(queries[0], 5)
        assert len(ids) == 5
        index.close()

    def test_disk_and_memory_results_match(self, workload, tmp_path):
        data, queries = workload
        memory_index = HDIndex(params())
        disk_index = HDIndex(params(storage_dir=str(tmp_path / "hd2")))
        memory_index.build(data)
        disk_index.build(data)
        for query in queries[:4]:
            ids_mem, _ = memory_index.query(query, 10)
            ids_disk, _ = disk_index.query(query, 10)
            np.testing.assert_array_equal(ids_mem, ids_disk)
        disk_index.close()

    def test_on_disk_footprint_matches_accounting(self, workload, tmp_path):
        data, _ = workload
        index = HDIndex(params(storage_dir=str(tmp_path / "hd3")))
        index.build(data)
        directory = tmp_path / "hd3"
        assert sorted(p.name for p in directory.iterdir()) == sorted(
            ["descriptors.pages"]
            + [f"tree_{i}.packed" for i in range(len(index.trees))])
        assert (directory / "descriptors.pages").stat().st_size \
            == index.heap.size_bytes()
        # A tree file is its two columns plus a little geometry: at least
        # the entries, at most the paged footprint the accounting (the
        # paper's Table 5: pages x page size) charges for them.
        for position, tree in enumerate(index.trees):
            on_disk = (directory / f"tree_{position}.packed").stat().st_size
            columns = (tree.packed.keys_raw.nbytes
                       + tree.packed.values_raw.nbytes)
            assert columns <= on_disk <= tree.size_bytes()
        index.close()
