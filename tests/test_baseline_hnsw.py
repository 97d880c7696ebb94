"""Tests for the HNSW baseline."""

import numpy as np
import pytest

from repro.baselines import HNSW
from repro.eval import exact_knn, recall_at_k


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(41)
    centers = rng.uniform(0.0, 30.0, size=(6, 12))
    data = np.vstack([
        center + rng.normal(0.0, 0.8, size=(50, 12)) for center in centers])
    queries = data[rng.choice(len(data), 8, replace=False)] \
        + rng.normal(0.0, 0.1, size=(8, 12))
    return data, queries


@pytest.fixture(scope="module")
def built(workload):
    data, queries = workload
    index = HNSW(M=8, ef_construction=60, ef_search=60, seed=0)
    index.build(data)
    return index, data, queries


class TestHNSW:
    def test_high_recall(self, built):
        index, data, queries = built
        true_ids, _ = exact_knn(data, queries, k=10)
        recalls = [recall_at_k(true_ids[row], index.query(q, 10)[0], 10)
                   for row, q in enumerate(queries)]
        assert np.mean(recalls) > 0.9

    def test_results_sorted(self, built):
        index, _, queries = built
        _, dists = index.query(queries[0], 10)
        assert np.all(np.diff(dists) >= 0)

    def test_query_point_in_db_found(self, built):
        index, data, _ = built
        ids, dists = index.query(data[17], 1)
        assert ids[0] == 17
        assert dists[0] == pytest.approx(0.0, abs=1e-12)

    def test_layer_degrees_bounded(self, built):
        index, _, _ = built
        for node, layers in enumerate(index._links):
            for level, neighbours in enumerate(layers):
                limit = index.max_layer0 if level == 0 else index.M
                assert len(neighbours) <= limit, (node, level)

    def test_level_zero_contains_everyone(self, built):
        index, data, _ = built
        assert len(index._links) == len(data)
        assert all(len(layers) >= 1 for layers in index._links)

    def test_links_are_valid_node_ids(self, built):
        index, data, _ = built
        n = len(data)
        for layers in index._links:
            for neighbours in layers:
                assert all(0 <= other < n for other in neighbours)

    def test_level_distribution_geometric(self):
        rng_index = HNSW(M=8, seed=3)
        levels = [rng_index._draw_level() for _ in range(4000)]
        share_zero = sum(1 for level in levels if level == 0) / len(levels)
        # P[level = 0] = 1 - 1/M ≈ 0.875 for M = 8.
        assert 0.8 < share_zero < 0.95

    def test_incremental_add(self, built):
        index, data, _ = built
        point = np.full(12, 15.0)
        new_id = index.add(point)
        ids, dists = index.query(point, 1)
        assert ids[0] == new_id
        assert dists[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("vector, match", [
        (np.zeros(3), "dimension 3"),
        (np.full(12, np.nan), "NaN or infinite"),
        (np.r_[np.zeros(11), np.inf], "NaN or infinite"),
        (np.r_[np.zeros(11), -np.inf], "NaN or infinite"),
    ], ids=["short", "nan", "inf", "-inf"])
    def test_add_refuses_a_malformed_vector(self, vector, match):
        rng = np.random.default_rng(5)
        index = HNSW(M=4, seed=1)
        index.build(rng.uniform(0, 30, size=(40, 12)))
        nodes = (len(index.data), len(index._levels), len(index._links))
        with pytest.raises(ValueError, match=match):
            index.add(vector)
        assert (len(index.data), len(index._levels),
                len(index._links)) == nodes == (40, 40, 40)

    def test_memory_includes_vectors(self, built):
        """The paper's point: HNSW must keep all vectors in RAM."""
        index, data, _ = built
        assert index.memory_bytes() >= data.nbytes

    def test_no_page_reads(self, built):
        index, _, queries = built
        index.query(queries[0], 5)
        assert index.last_query_stats().page_reads == 0

    def test_ef_search_trades_recall(self, workload):
        data, queries = workload
        narrow = HNSW(M=8, ef_construction=60, ef_search=2, seed=1)
        wide = HNSW(M=8, ef_construction=60, ef_search=80, seed=1)
        narrow.build(data)
        wide.build(data)
        true_ids, _ = exact_knn(data, queries, k=10)
        recall_narrow = np.mean([
            recall_at_k(true_ids[row], narrow.query(q, 10)[0], 10)
            for row, q in enumerate(queries)])
        recall_wide = np.mean([
            recall_at_k(true_ids[row], wide.query(q, 10)[0], 10)
            for row, q in enumerate(queries)])
        assert recall_wide >= recall_narrow

    def test_single_point_index(self):
        index = HNSW(M=4, seed=2)
        index.build(np.zeros((1, 4)))
        ids, _ = index.query(np.zeros(4), 1)
        assert ids[0] == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HNSW(M=1)
        with pytest.raises(ValueError):
            HNSW(ef_construction=0)

    def test_query_before_build_rejected(self):
        with pytest.raises(RuntimeError):
            HNSW().query(np.zeros(4), 1)

    def test_k_zero_rejected(self, built):
        index, _, queries = built
        with pytest.raises(ValueError):
            index.query(queries[0], 0)
