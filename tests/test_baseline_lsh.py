"""Tests for the LSH baselines: the shared math, C2LSH and QALSH."""

import numpy as np
import pytest

from repro.baselines import (
    C2LSH,
    QALSH,
    derive_collision_parameters,
    e2lsh_collision_probability,
    qalsh_collision_probability,
    qalsh_optimal_width,
)
from repro.eval import exact_knn, recall_at_k


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(13)
    centers = rng.uniform(0.0, 100.0, size=(6, 16))
    data = np.vstack([
        center + rng.normal(0.0, 2.0, size=(60, 16)) for center in centers])
    queries = data[rng.choice(len(data), 6, replace=False)] \
        + rng.normal(0.0, 0.3, size=(6, 16))
    return data, queries


class TestCollisionMath:
    def test_e2lsh_probability_decreases_with_distance(self):
        widths = e2lsh_collision_probability
        assert widths(0.5, 1.0) > widths(1.0, 1.0) > widths(2.0, 1.0)

    def test_e2lsh_probability_at_zero_distance(self):
        assert e2lsh_collision_probability(0.0, 1.0) == 1.0

    def test_e2lsh_known_value(self):
        # p(1) with w=1 is ~0.368 (C2LSH paper's p1 for its default setting).
        assert e2lsh_collision_probability(1.0, 1.0) == pytest.approx(
            0.3685, abs=2e-3)

    def test_qalsh_probability_decreases_with_distance(self):
        assert qalsh_collision_probability(1.0, 2.719) > \
            qalsh_collision_probability(2.0, 2.719)

    def test_qalsh_optimal_width_for_c2(self):
        # QALSH paper: w* ≈ 2.719 for c = 2.
        assert qalsh_optimal_width(2.0) == pytest.approx(2.719, abs=1e-3)

    def test_derived_parameters_sane(self):
        params = derive_collision_parameters(
            10_000, 2.0, 1.0, 1.0 / np.e, 0.01,
            e2lsh_collision_probability, max_functions=4096)
        assert params.p2 < params.alpha < params.p1
        assert 1 <= params.threshold <= params.num_functions
        # C2LSH needs on the order of 10² functions at this setting.
        assert 100 <= params.num_functions <= 300

    def test_qalsh_needs_fewer_functions_than_c2lsh(self):
        c2 = derive_collision_parameters(
            10_000, 2.0, 1.0, 1.0 / np.e, 0.01,
            e2lsh_collision_probability, max_functions=4096)
        qa = derive_collision_parameters(
            10_000, 2.0, qalsh_optimal_width(2.0), 1.0 / np.e, 0.01,
            qalsh_collision_probability, max_functions=4096)
        assert qa.num_functions < c2.num_functions

    def test_max_functions_cap(self):
        params = derive_collision_parameters(
            10_000, 2.0, 1.0, 1.0 / np.e, 0.01,
            e2lsh_collision_probability, max_functions=32)
        assert params.num_functions == 32

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            derive_collision_parameters(0, 2.0, 1.0, 0.5, 0.01,
                                        e2lsh_collision_probability)
        with pytest.raises(ValueError):
            derive_collision_parameters(10, 1.0, 1.0, 0.5, 0.01,
                                        e2lsh_collision_probability)


class TestC2LSH:
    def test_finds_most_true_neighbours(self, workload):
        data, queries = workload
        index = C2LSH(max_functions=96, seed=0)
        index.build(data)
        true_ids, _ = exact_knn(data, queries, k=10)
        recalls = []
        for row, query in enumerate(queries):
            ids, _ = index.query(query, 10)
            recalls.append(recall_at_k(true_ids[row], ids, 10))
        assert np.mean(recalls) > 0.5

    def test_results_sorted_and_unique(self, workload):
        data, queries = workload
        index = C2LSH(max_functions=64, seed=1)
        index.build(data)
        ids, dists = index.query(queries[0], 10)
        assert np.all(np.diff(dists) >= 0)
        assert len(set(ids.tolist())) == len(ids)

    def test_candidate_budget_respected(self, workload):
        """C2LSH verifies at most βn + k candidates."""
        data, queries = workload
        index = C2LSH(max_functions=64, false_positive_rate=0.1, seed=2)
        index.build(data)
        index.query(queries[0], 5)
        stats = index.last_query_stats()
        assert stats.candidates <= int(0.1 * len(data)) + 5 + 1

    def test_collision_parameters_exposed(self, workload):
        data, _ = workload
        index = C2LSH(max_functions=64)
        index.build(data)
        params = index.collision_parameters()
        assert params.threshold <= params.num_functions

    def test_build_memory_includes_dataset(self, workload):
        data, _ = workload
        index = C2LSH(max_functions=32)
        index.build(data)
        assert index.build_memory_bytes() >= data.nbytes

    def test_query_before_build_rejected(self):
        with pytest.raises(RuntimeError):
            C2LSH().query(np.zeros(4), 1)


class TestQALSH:
    def test_high_recall(self, workload):
        """QALSH is the paper's quality-leading LSH variant."""
        data, queries = workload
        index = QALSH(max_functions=48, seed=0)
        index.build(data)
        true_ids, _ = exact_knn(data, queries, k=10)
        recalls = []
        for row, query in enumerate(queries):
            ids, _ = index.query(query, 10)
            recalls.append(recall_at_k(true_ids[row], ids, 10))
        assert np.mean(recalls) > 0.7

    def test_query_io_counted_via_btrees(self, workload):
        data, queries = workload
        index = QALSH(max_functions=24, seed=1)
        index.build(data)
        index.query(queries[0], 5)
        stats = index.last_query_stats()
        assert stats.page_reads > 0

    def test_index_is_btree_per_function(self, workload):
        data, _ = workload
        index = QALSH(max_functions=24, seed=2)
        index.build(data)
        assert len(index.trees) == index.collision_parameters().num_functions
        assert all(tree.count == len(data) for tree in index.trees)
        assert index.index_size_bytes() == sum(
            t.num_pages for t in index.trees) * index.page_size

    def test_build_writes_each_page_once(self, workload):
        """Heap pages plus every tree's pages, each written once; the
        build reads nothing back."""
        data, _ = workload
        index = QALSH(max_functions=24, seed=2)
        index.build(data)
        assert index.build_stats().page_writes == len(
            index.heap.page_matrix()) + sum(t.num_pages for t in index.trees)
        assert index._page_reads() == 0

    def test_no_duplicate_counting_across_rounds(self, workload):
        """Expanding windows must not double-count boundary entries, or
        collision counts would overshoot the threshold spuriously."""
        data, queries = workload
        index = QALSH(max_functions=16, seed=3)
        index.build(data)
        index.query(queries[0], 5)
        # Radius expansion happened but candidates stayed within budget.
        stats = index.last_query_stats()
        assert stats.candidates <= len(data)

    def test_query_before_build_rejected(self):
        with pytest.raises(RuntimeError):
            QALSH().query(np.zeros(4), 1)
