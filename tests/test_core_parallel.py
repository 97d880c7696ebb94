"""Tests for the parallel-query extension (paper Sec. 5.2.8 / Sec. 6):
a snapshot served by a process-mode ``QueryService``, whose workers
each answer whole rows."""

import numpy as np
import pytest

from repro.core import (
    Execution,
    HDIndex,
    HDIndexParams,
    IndexSpec,
    build,
)
from repro.serve import QueryService, ServiceClosed


def served(p, data, directory, workers=2, wal=False):
    """A started process-mode service over a snapshot of ``data`` built
    with ``p`` in ``directory`` (the workers bootstrap from it)."""
    index = build(IndexSpec(params=p, wal=wal), data,
                  storage_dir=str(directory))
    service = QueryService(index, execution=Execution(kind="process",
                                                      workers=workers))
    service._owns_index = True
    return service.start()


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


class TestProcessServedHDIndex:
    def test_results_identical_to_sequential(self, workload, tmp_path):
        """The paper's claim: queries are independent, so answering them
        in parallel must not change the answer set."""
        data, queries = workload
        sequential = HDIndex(params())
        sequential.build(data)
        with served(params(), data, tmp_path, workers=4) as parallel:
            futures = [parallel.submit(query, 10) for query in queries]
            for query, future in zip(queries, futures):
                ids_seq, dists_seq = sequential.query(query, 10)
                ids_par, dists_par = future.result(timeout=60)
                np.testing.assert_array_equal(ids_seq, ids_par)
                np.testing.assert_allclose(dists_seq, dists_par)

    def test_ptolemaic_path_identical(self, workload, tmp_path):
        data, queries = workload
        sequential = HDIndex(params(use_ptolemaic=True))
        sequential.build(data)
        with served(params(use_ptolemaic=True), data, tmp_path) as parallel:
            ids_par, _ = parallel.query(queries[0], 10, timeout=60)
        ids_seq, _ = sequential.query(queries[0], 10)
        np.testing.assert_array_equal(ids_seq, ids_par)

    def test_worker_count_respected(self, workload, tmp_path):
        data, queries = workload
        with served(params(), data, tmp_path, workers=2) as parallel:
            assert parallel._pool.num_workers == 2
            assert len(parallel._pool._pool._processes) == 2
            ids, _ = parallel.query(queries[0], 5, timeout=60)
            assert len(ids) == 5

    def test_context_manager(self, workload, tmp_path):
        """Leaving the block stops the service and its worker
        processes; later calls fail typed instead of hanging."""
        data, queries = workload
        with served(params(), data, tmp_path) as parallel:
            ids, _ = parallel.query(queries[0], 5, timeout=60)
            assert len(ids) == 5
            processes = list(parallel._pool._pool._processes.values())
        assert parallel._pool._closed and parallel._pool._pool is None
        for process in processes:
            process.join(timeout=60)
            assert not process.is_alive()
        with pytest.raises(ServiceClosed):
            parallel.submit(queries[0], 5)

    def test_close_is_idempotent(self, workload, tmp_path):
        data, queries = workload
        parallel = served(params(), data, tmp_path)
        parallel.query(queries[0], 5, timeout=60)
        parallel.close()
        parallel.close()
        assert parallel._pool._closed

    def test_sequential_service_holds_no_pool(self, workload, tmp_path):
        """Sequential execution is the default: the same index answers
        inline, with no worker process, exactly as the pool does."""
        data, queries = workload
        with served(params(), data, tmp_path) as parallel:
            want = [parallel.query(query, 10, timeout=60)
                    for query in queries]
            with QueryService(parallel.index) as inline:
                assert inline._pool is None
                for query, (ids, dists) in zip(queries, want):
                    got_ids, got_dists = inline.query(query, 10, timeout=60)
                    np.testing.assert_array_equal(got_ids, ids)
                    np.testing.assert_array_equal(got_dists, dists)

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            Execution(kind="process", workers=0)

    @pytest.mark.parametrize("wal", [True, False],
                             ids=["logged", "unlogged"])
    def test_updates_still_work(self, workload, tmp_path, wal):
        """Workers serve a snapshot, so an update reaches them through
        ``compact()`` and a swap, without restarting the service."""
        data, _ = workload
        new_point = np.full(16, 42.0)
        with served(params(), data, tmp_path, wal=wal) as parallel:
            new_id = parallel.index.insert(new_point)
            parallel.index.compact()
            parallel.swap_snapshot(timeout=60)
            ids, dists = parallel.query(new_point, 1, timeout=60)
            assert ids[0] == new_id and dists[0] == 0.0
            parallel.index.delete(new_id)
            parallel.index.compact()
            parallel.swap_snapshot(timeout=60)
            ids, _ = parallel.query(new_point, 1, timeout=60)
            assert ids[0] != new_id


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
