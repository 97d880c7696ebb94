"""Tests for the exact baselines: linear scan and iDistance.

Both must return *exactly* the true kNN (the paper uses iDistance as the
MAP=1 reference method), so the oracle comparison is equality, not overlap.
"""

import numpy as np
import pytest

from repro.baselines import IDistance, LinearScan
from repro.eval import exact_knn


@pytest.fixture(scope="module")
def workload(tiny_clustered_session):
    return tiny_clustered_session


@pytest.fixture(scope="module")
def tiny_clustered_session():
    rng = np.random.default_rng(55)
    centers = rng.uniform(0.0, 100.0, size=(5, 12))
    data = np.vstack([
        center + rng.normal(0.0, 2.5, size=(50, 12)) for center in centers])
    queries = data[rng.choice(len(data), 6, replace=False)] \
        + rng.normal(0.0, 0.4, size=(6, 12))
    return data, queries


class TestLinearScan:
    def test_exactness(self, workload):
        data, queries = workload
        scan = LinearScan()
        scan.build(data.astype(np.float64))
        true_ids, true_dists = exact_knn(data, queries, k=8)
        for row, query in enumerate(queries):
            ids, dists = scan.query(query, 8)
            assert set(ids.tolist()) == set(true_ids[row].tolist())
            np.testing.assert_allclose(np.sort(dists),
                                       np.sort(true_dists[row]), atol=1e-3)

    def test_reads_are_sequential(self, workload):
        data, queries = workload
        scan = LinearScan()
        scan.build(data)
        scan.query(queries[0], 5)
        stats = scan.last_query_stats()
        # Each page once, in one run: a seek to the first, then the rest.
        pages = scan.heap.size_bytes() // scan.page_size
        assert (stats.page_reads, stats.random_reads,
                stats.sequential_reads) == (pages, 1, pages - 1)
        assert stats.candidates == len(data)

    def test_zero_index_size(self, workload):
        data, _ = workload
        scan = LinearScan()
        scan.build(data)
        assert scan.index_size_bytes() == 0

    def test_query_before_build_rejected(self):
        with pytest.raises(RuntimeError):
            LinearScan().query(np.zeros(4), 1)

    def test_invalid_k(self, workload):
        data, queries = workload
        scan = LinearScan()
        scan.build(data)
        with pytest.raises(ValueError):
            scan.query(queries[0], 0)

    def test_query_outside_data_range(self, workload):
        data, _ = workload
        scan = LinearScan()
        scan.build(data)
        far = np.full(data.shape[1], 1e4)
        ids, _ = scan.query(far, 3)
        true_ids, _ = exact_knn(data, far, k=3)
        assert set(ids.tolist()) == set(true_ids[0].tolist())


class TestIDistance:
    def test_exactness_matches_oracle(self, workload):
        """iDistance is an exact method: ids must equal the true kNN."""
        data, queries = workload
        index = IDistance(num_partitions=8, seed=0)
        index.build(data)
        true_ids, _ = exact_knn(data, queries, k=10)
        for row, query in enumerate(queries):
            ids, dists = index.query(query, 10)
            assert set(ids.tolist()) == set(true_ids[row].tolist()), row
            assert np.all(np.diff(dists) >= 0)

    def test_distances_match_oracle(self, workload):
        data, queries = workload
        index = IDistance(num_partitions=8, seed=0)
        index.build(data)
        _, true_dists = exact_knn(data, queries, k=10)
        for row, query in enumerate(queries):
            _, dists = index.query(query, 10)
            np.testing.assert_allclose(dists, true_dists[row], atol=1e-3)

    def test_query_outside_data_range(self, workload):
        data, _ = workload
        index = IDistance(num_partitions=8, seed=4)
        index.build(data)
        far = np.full(data.shape[1], 1e4)
        ids, _ = index.query(far, 3)
        true_ids, _ = exact_knn(data, far, k=3)
        assert set(ids.tolist()) == set(true_ids[0].tolist())

    def test_exact_on_overlapping_low_dimensional_clusters(self):
        """Clipped, overlapping clusters in 6-d with a query off the data:
        partition radii overlap and the search must still be exact for any
        partition count."""
        rng = np.random.default_rng(2475)
        centers = rng.uniform(0.0, 50.0, size=(4, 6))
        assignment = rng.integers(0, 4, size=90)
        data = np.clip(centers[assignment]
                       + rng.normal(0.0, 1.5, size=(90, 6)), 0.0, 50.0)
        query = np.random.default_rng(2475 + 3).uniform(0.0, 50.0, size=6)
        true_ids, _ = exact_knn(data, query, k=7)
        for partitions in (1, 2, 3, 12):
            index = IDistance(num_partitions=partitions,
                              storage_dtype="float64", seed=5)
            index.build(data)
            ids, _ = index.query(query, 7)
            assert set(ids.tolist()) == set(true_ids[0].tolist()), partitions

    def test_invalid_k(self, workload):
        data, queries = workload
        index = IDistance(num_partitions=4, seed=6)
        index.build(data)
        with pytest.raises(ValueError):
            index.query(queries[0], 0)

    def test_exactness_with_single_partition(self, workload):
        data, queries = workload
        index = IDistance(num_partitions=1, seed=1)
        index.build(data)
        true_ids, _ = exact_knn(data, queries[:2], k=5)
        for row in range(2):
            ids, _ = index.query(queries[row], 5)
            assert set(ids.tolist()) == set(true_ids[row].tolist())

    def test_expanding_radius_prunes_partitions(self, workload):
        """Queries should not examine the whole database when clusters are
        well separated."""
        data, queries = workload
        index = IDistance(num_partitions=8, seed=2)
        index.build(data)
        index.query(queries[0], 5)
        stats = index.last_query_stats()
        assert stats.candidates < len(data)

    def test_query_stats_track_radius(self, workload):
        data, queries = workload
        index = IDistance(num_partitions=4, seed=3)
        index.build(data)
        index.query(queries[0], 5)
        assert index.last_query_stats().extra["final_radius"] > 0

    def test_build_writes_each_page_once(self, workload):
        """Heap pages plus the tree's pages, each written once; the build
        reads nothing back."""
        data, _ = workload
        index = IDistance(num_partitions=4, seed=3)
        index.build(data)
        assert index.build_stats().page_writes == len(
            index.heap.page_matrix()) + index.tree.num_pages
        assert index.tree_stats.page_reads == index.heap.stats.page_reads == 0

    def test_build_memory_includes_dataset(self, workload):
        """The public implementation loads the data into RAM to build —
        the scalability failure the paper reports (crash on SIFT100M)."""
        data, _ = workload
        index = IDistance(num_partitions=4)
        index.build(data)
        assert index.build_memory_bytes() >= data.nbytes

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            IDistance(num_partitions=0)

    def test_query_before_build_rejected(self):
        with pytest.raises(RuntimeError):
            IDistance().query(np.zeros(4), 1)
