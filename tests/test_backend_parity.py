"""Storage-backend parity: memory and mmap must answer identically.

The guarantee of the mmap backend is that it changes *where reads
come from*, never *what is read*: ``query`` / ``query_batch`` results are
byte-identical across backends, before and after snapshot reloads and
insert/delete updates.
"""

import dataclasses

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
from repro.serve import QueryService

BACKENDS = ("memory", "mmap")
K = 5


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(7)
    return rng.normal(size=(500, 16)), rng.normal(size=(12, 16))


def _params(**overrides):
    defaults = dict(num_trees=4, hilbert_order=6, num_references=5,
                    alpha=48, gamma=12, seed=3)
    defaults.update(overrides)
    return HDIndexParams(**defaults)


def _answers(index, queries):
    single = [index.query(q, K) for q in queries]
    batch = index.query_batch(queries, K)
    return single, batch


def _assert_same_answers(got, expected, label):
    for row, ((gi, gd), (ei, ed)) in enumerate(zip(got[0], expected[0])):
        np.testing.assert_array_equal(gi, ei, err_msg=f"{label} ids row {row}")
        np.testing.assert_array_equal(gd, ed,
                                      err_msg=f"{label} dists row {row}")
    np.testing.assert_array_equal(got[1][0], expected[1][0],
                                  err_msg=f"{label} batch ids")
    np.testing.assert_array_equal(got[1][1], expected[1][1],
                                  err_msg=f"{label} batch dists")


class TestBuildBackends:
    def test_build_parity_across_backends(self, workload, tmp_path):
        data, queries = workload
        reference = None
        for backend in BACKENDS:
            params = _params(
                backend=backend,
                storage_dir=(None if backend == "memory"
                             else str(tmp_path / backend)))
            index = HDIndex(params)
            index.build(data)
            assert _is_mapped(index.heap.page_matrix()) \
                == (backend == "mmap")
            answers = _answers(index, queries)
            if reference is None:
                reference = answers
            else:
                _assert_same_answers(answers, reference, f"build[{backend}]")
            index.close()

    def test_backend_without_storage_dir_rejected(self):
        with pytest.raises(ValueError):
            _params(backend="mmap")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            _params(backend="tape")


class TestLoadBackends:
    @pytest.fixture(scope="class")
    def snapshot(self, workload, tmp_path_factory):
        data, queries = workload
        directory = tmp_path_factory.mktemp("snap")
        index = HDIndex(_params(storage_dir=str(directory)))
        index.build(data)
        save_index(index, directory)
        reference = _answers(index, queries)
        index.close()
        return directory, reference

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_load_parity(self, workload, snapshot, backend):
        _, queries = workload
        directory, reference = snapshot
        reopened = load_index(directory, backend=backend)
        assert _is_mapped(reopened.heap.page_matrix()) \
            == (backend == "mmap")
        assert reopened.params.resolved_backend == backend
        _assert_same_answers(_answers(reopened, queries), reference,
                             f"load[{backend}]")
        reopened.close()

    def test_load_rejects_unknown_backend(self, snapshot):
        directory, _ = snapshot
        with pytest.raises(PersistenceError):
            load_index(directory, backend="tape")

    def test_mmap_snapshot_reopens_as_mmap_by_default(
            self, workload, tmp_path):
        data, _ = workload
        index = HDIndex(_params(backend="mmap", storage_dir=str(tmp_path)))
        index.build(data)
        save_index(index, tmp_path)
        index.close()
        reopened = load_index(tmp_path)
        assert _is_mapped(reopened.heap.page_matrix())
        reopened.close()


class TestMutatedSnapshotParity:
    def test_insert_delete_on_loaded_snapshot(self, workload, tmp_path):
        data, queries = workload
        index = HDIndex(_params(storage_dir=str(tmp_path / "base")))
        index.build(data)
        save_index(index, tmp_path / "base")
        index.close()

        extra = np.linspace(-1.0, 1.0, 16)
        reference = None
        for backend in BACKENDS:
            reopened = load_index(tmp_path / "base", backend=backend)
            new_id = reopened.insert(extra)
            assert new_id == len(data)
            reopened.delete(11)
            answers = _answers(reopened, queries)
            got = reopened.query(extra, K)
            # float32 storage rounds the descriptor, so the self-distance
            # is tiny but not exactly zero.
            assert got[0][0] == new_id and got[1][0] < 1e-6
            assert all(11 not in ids for ids, _ in answers[0])
            if reference is None:
                reference = answers
            else:
                _assert_same_answers(answers, reference,
                                     f"mutated[{backend}]")
            reopened.close()

    def test_mmap_mutations_survive_resave(self, workload, tmp_path):
        data, queries = workload
        index = HDIndex(_params(storage_dir=str(tmp_path)))
        index.build(data)
        save_index(index, tmp_path)
        index.close()

        mutated = load_index(tmp_path, backend="mmap")
        new_id = mutated.insert(np.full(16, 0.25))
        mutated.delete(3)
        # save_index folds the un-logged delta into the trees: from here
        # the insert is found through the tree scan, like a built point.
        save_index(mutated, tmp_path)
        expected = _answers(mutated, queries)
        mutated.close()

        for backend in BACKENDS:
            reopened = load_index(tmp_path, backend=backend)
            assert reopened.count == len(data) + 1
            assert int(reopened.query(np.full(16, 0.25), K)[0][0]) == new_id
            _assert_same_answers(_answers(reopened, queries), expected,
                                 f"resaved[{backend}]")
            reopened.close()


class TestFamilyBackends:
    def test_parallel_mmap_matches_sequential(self, workload, tmp_path):
        data, queries = workload
        plain = HDIndex(_params())
        plain.build(data)
        expected = _answers(plain, queries)
        plain.close()
        parallel = HDIndex(
            _params(backend="mmap", storage_dir=str(tmp_path)),
            executor=ThreadedExecutor(3))
        parallel.build(data)
        _assert_same_answers(_answers(parallel, queries), expected,
                             "parallel-mmap")
        parallel.close()

    def test_sharded_snapshot_mmap_parity(self, workload, tmp_path):
        data, queries = workload
        sharded = ShardRouter(_params(), 2)
        sharded.build(data)
        save_index(sharded, tmp_path)
        expected = _answers(sharded, queries)
        sharded.close()
        reopened = load_index(tmp_path, backend="mmap")
        for shard in reopened.shards:
            assert _is_mapped(shard.heap.page_matrix())
        _assert_same_answers(_answers(reopened, queries), expected,
                             "sharded-mmap")
        reopened.close()

    def test_service_from_snapshot_mmap(self, workload, tmp_path):
        data, queries = workload
        index = HDIndex(_params(storage_dir=str(tmp_path)))
        index.build(data)
        save_index(index, tmp_path)
        expected = [index.query(q, K) for q in queries]
        index.close()
        with QueryService.from_snapshot(tmp_path, backend="mmap",
                                        max_batch=4) as service:
            assert _is_mapped(service.index.heap.page_matrix())
            for query, (ids, dists) in zip(queries, expected):
                got_ids, got_dists = service.query(query, K)
                np.testing.assert_array_equal(got_ids, ids)
                np.testing.assert_array_equal(got_dists, dists)


def _is_mapped(array) -> bool:
    """Whether ``array`` is (a view of a view of ...) a file mapping."""
    while array is not None:
        if isinstance(array, np.memmap):
            return True
        array = getattr(array, "base", None)
    return False


class TestColdStartCost:
    def test_mmap_reopen_reads_no_pages(self, workload, tmp_path):
        """The O(metadata) claim: an mmap reopen does not touch page data
        (the 'memory' backend, by contrast, reads every page)."""
        data, _ = workload
        index = HDIndex(_params(storage_dir=str(tmp_path)))
        index.build(data)
        save_index(index, tmp_path)
        index.close()

        mapped = load_index(tmp_path, backend="mmap")
        reads = (mapped.heap.stats.page_reads
                 + sum(t.stats.page_reads for t in mapped.trees))
        assert reads == 0
        # The tree columns are views of the file mapping, not copies.
        assert all(_is_mapped(t.packed.keys_raw) for t in mapped.trees)
        heap_pages = len(mapped.heap.page_matrix())
        tree_pages = [t.packed.num_pages for t in mapped.trees]
        mapped.close()

        materialised = load_index(tmp_path, backend="memory")
        assert len(materialised.heap.page_matrix()) == heap_pages > 0
        assert not _is_mapped(materialised.heap.page_matrix())
        # Materialisation slurped every page and column up front (one
        # bulk read per file; query-time accounting starts at zero).
        assert [t.packed.num_pages for t in materialised.trees] \
            == tree_pages
        assert not any(_is_mapped(t.packed.keys_raw)
                       for t in materialised.trees)
        assert materialised.heap.stats.page_reads == 0
        materialised.close()

    def test_mmap_with_buffer_pool_matches_file_accounting(
            self, workload, tmp_path):
        """cache_pages > 0 must mean the same thing on every backend: the
        modelled pool decides hit vs counted read, wherever the pages
        are."""
        data, queries = workload
        index = HDIndex(_params(storage_dir=str(tmp_path)))
        index.build(data)
        save_index(index, tmp_path)
        index.close()

        snapshots = {}
        for backend in BACKENDS:
            reopened = load_index(tmp_path, cache_pages=256,
                                  backend=backend)
            reopened.query(queries[0], K)   # cold
            reopened.query(queries[0], K)   # warm: pool hits, not reads
            stats = reopened.last_query_stats()
            snapshots[backend] = (stats.page_reads, stats.random_reads,
                                  stats.sequential_reads)
            reopened.close()
        assert snapshots["memory"] == snapshots["mmap"]
