"""Integration tests for the full HD-Index (Algo. 1 + Algo. 2)."""

import numpy as np
import pytest

from repro.core import HDIndex, HDIndexParams
from repro.eval import exact_knn, mean_average_precision


def small_params(**overrides):
    defaults = dict(num_trees=4, hilbert_order=8, num_references=5,
                    alpha=128, gamma=32, domain=(0.0, 100.0), seed=0)
    defaults.update(overrides)
    return HDIndexParams(**defaults)


@pytest.fixture(scope="module")
def built_index(tiny_clustered_module):
    data, queries = tiny_clustered_module
    index = HDIndex(small_params())
    index.build(data)
    return index, data, queries


@pytest.fixture(scope="module")
def tiny_clustered_module():
    rng = np.random.default_rng(77)
    centers = rng.uniform(0.0, 100.0, size=(6, 16))
    data = np.vstack([
        center + rng.normal(0.0, 3.0, size=(60, 16)) for center in centers])
    queries = data[rng.choice(len(data), 8, replace=False)] \
        + rng.normal(0.0, 0.5, size=(8, 16))
    return np.clip(data, 0.0, 100.0), np.clip(queries, 0.0, 100.0)


class TestBuild:
    def test_structure_counts(self, built_index):
        index, data, _ = built_index
        assert len(index.trees) == 4
        assert all(len(tree) == len(data) for tree in index.trees)
        assert index.count == len(data)

    def test_build_stats_populated(self, built_index):
        index, _, _ = built_index
        stats = index.build_stats()
        assert stats.time_sec > 0
        assert stats.page_writes > 0
        assert stats.peak_memory_bytes > 0
        assert len(stats.extra["leaf_orders"]) == 4

    def test_index_size_is_sum_of_trees(self, built_index):
        index, _, _ = built_index
        assert index.index_size_bytes() == sum(
            t.size_bytes() for t in index.trees)
        assert index.total_size_bytes() > index.index_size_bytes()

    def test_too_many_trees_rejected(self):
        index = HDIndex(small_params(num_trees=64))
        with pytest.raises(ValueError):
            index.build(np.zeros((10, 8)))

    def test_empty_data_rejected(self):
        index = HDIndex(small_params())
        with pytest.raises(ValueError):
            index.build(np.zeros((0, 16)))

    def test_non_2d_rejected(self):
        index = HDIndex(small_params())
        with pytest.raises(ValueError):
            index.build(np.zeros(16))

    def test_random_partition_scheme_builds(self, tiny_clustered_module):
        data, queries = tiny_clustered_module
        index = HDIndex(small_params(partition_scheme="random"))
        index.build(data)
        ids, _ = index.query(queries[0], 5)
        assert len(ids) == 5


class TestQuery:
    def test_returns_k_sorted_results(self, built_index):
        index, data, queries = built_index
        ids, dists = index.query(queries[0], 10)
        assert len(ids) == 10
        assert np.all(np.diff(dists) >= 0)
        assert len(set(ids.tolist())) == 10

    def test_high_recall_on_clustered_data(self, built_index):
        index, data, queries = built_index
        k = 10
        true_ids, _ = exact_knn(data, queries, k)
        results = [index.query(q, k)[0] for q in queries]
        score = mean_average_precision(list(true_ids), results, k)
        assert score > 0.8, f"MAP@10 too low: {score}"

    def test_query_on_database_point_finds_itself(self, built_index):
        index, data, _ = built_index
        ids, dists = index.query(data[17], 1)
        assert ids[0] == 17
        assert dists[0] < 1e-3   # float32 storage round-off only

    def test_ptolemaic_path(self, built_index):
        index, data, queries = built_index
        ids_tri, _ = index.query(queries[0], 5, use_ptolemaic=False)
        ids_ptol, _ = index.query(queries[0], 5, use_ptolemaic=True)
        assert len(ids_ptol) == 5
        stats = index.last_query_stats()
        assert stats.extra["ptolemaic"] is True

    def test_overrides_change_candidate_counts(self, built_index):
        index, _, queries = built_index
        index.query(queries[0], 5, alpha=16, gamma=8)
        small = index.last_query_stats()
        index.query(queries[0], 5, alpha=256, gamma=128)
        large = index.last_query_stats()
        assert small.extra["alpha"] == 16
        assert large.candidates >= small.candidates

    def test_query_stats_io_accounting(self, built_index):
        index, _, queries = built_index
        index.query(queries[1], 5)
        stats = index.last_query_stats()
        assert stats.page_reads > 0
        assert stats.candidates > 0
        assert stats.distance_computations >= stats.candidates
        assert stats.time_sec > 0

    def test_dimension_mismatch_rejected(self, built_index):
        index, _, _ = built_index
        with pytest.raises(ValueError):
            index.query(np.zeros(7), 5)

    def test_invalid_k_rejected(self, built_index):
        index, _, queries = built_index
        with pytest.raises(ValueError):
            index.query(queries[0], 0)

    def test_query_before_build_rejected(self):
        index = HDIndex(small_params())
        with pytest.raises(RuntimeError):
            index.query(np.zeros(16), 5)

    def test_query_batch_shape(self, built_index):
        index, _, queries = built_index
        ids, dists = index.query_batch(queries, 7)
        assert ids.shape == (len(queries), 7)
        assert dists.shape == (len(queries), 7)
        assert np.all(ids >= 0)

    def test_k_larger_than_gamma_still_returns_k(self, built_index):
        index, data, queries = built_index
        ids, _ = index.query(queries[0], 40)
        assert len(ids) == 40


class TestUpdates:
    def test_insert_is_immediately_searchable(self, tiny_clustered_module):
        data, _ = tiny_clustered_module
        index = HDIndex(small_params())
        index.build(data)
        new_point = np.full(16, 50.0)
        new_id = index.insert(new_point)
        assert new_id == len(data)
        ids, dists = index.query(new_point, 1)
        assert ids[0] == new_id
        assert index.count == len(data) + 1

    def test_base_is_immutable_between_folds(self, tiny_clustered_module):
        """Writes never touch the built trees or heap — no page written,
        no column replaced — until compact() merges the delta in; and
        the merge builds new columns, so a reader still holding the old
        layout keeps seeing exactly the old entries."""
        data, queries = tiny_clustered_module
        n = len(data)
        index = HDIndex(small_params())
        index.build(data)
        structures = [tree for tree in index.trees] + [index.heap]
        writes = [s.stats.page_writes for s in structures]
        layouts = [tree.packed for tree in index.trees]
        columns = [(layout.keys_raw.copy(), layout.values_raw.copy())
                   for layout in layouts]
        rng = np.random.default_rng(3)
        fresh = rng.uniform(0.0, 100.0, size=(12, 16))
        for step, vector in enumerate(fresh):
            assert index.insert(vector) == n + step
            index.delete(step)
            index.query(queries[step % len(queries)], 5)
        assert [s.stats.page_writes for s in structures] == writes
        assert all(tree.packed is layout
                   for tree, layout in zip(index.trees, layouts))
        assert [len(s) for s in structures] == [n] * len(structures)
        assert index.count == n + len(fresh)

        index.compact()
        assert [len(s) for s in structures] \
            == [n + len(fresh)] * len(structures)
        for tree, layout, (keys, values) in zip(index.trees, layouts,
                                                columns):
            assert tree.packed is not layout
            assert tree.packed.count == n + len(fresh)
            np.testing.assert_array_equal(layout.keys_raw, keys)
            np.testing.assert_array_equal(layout.values_raw, values)
        assert len(index._delta) == 0
        ids, _ = index.query(fresh[-1], 1)
        assert ids[0] == n + len(fresh) - 1

    def test_delete_hides_object(self, tiny_clustered_module):
        data, _ = tiny_clustered_module
        index = HDIndex(small_params())
        index.build(data)
        target = data[5]
        ids, _ = index.query(target, 1)
        assert ids[0] == 5
        index.delete(5)
        ids, _ = index.query(target, 1)
        assert ids[0] != 5

    def test_delete_unknown_id_rejected(self, tiny_clustered_module):
        data, _ = tiny_clustered_module
        index = HDIndex(small_params())
        index.build(data)
        with pytest.raises(ValueError):
            index.delete(10**9)

    def test_insert_wrong_dim_rejected(self, tiny_clustered_module):
        data, _ = tiny_clustered_module
        index = HDIndex(small_params())
        index.build(data)
        with pytest.raises(ValueError):
            index.insert(np.zeros(3))


class TestAccounting:
    def test_memory_bytes_components(self, built_index):
        index, _, _ = built_index
        total = index.memory_bytes()
        assert total >= index.references.memory_bytes()

    def test_io_snapshot_keys(self, built_index):
        index, _, queries = built_index
        index.query(queries[0], 5)
        snap = index.io_snapshot()
        assert snap["page_reads"] > 0

    def test_deterministic_given_seed(self, tiny_clustered_module):
        data, queries = tiny_clustered_module
        first = HDIndex(small_params(seed=5))
        second = HDIndex(small_params(seed=5))
        first.build(data)
        second.build(data)
        ids_a, _ = first.query(queries[0], 10)
        ids_b, _ = second.query(queries[0], 10)
        np.testing.assert_array_equal(ids_a, ids_b)
