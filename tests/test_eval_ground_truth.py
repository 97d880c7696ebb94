"""Unit tests for the exact ground-truth oracle."""

import numpy as np
import pytest

from repro.distance import pairwise_euclidean
from repro.eval import GroundTruth, exact_knn


class TestExactKnn:
    def test_matches_naive_argsort(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(200, 10))
        queries = rng.normal(size=(5, 10))
        ids, dists = exact_knn(data, queries, k=7)
        for row in range(5):
            naive = np.sqrt(((data - queries[row]) ** 2).sum(axis=1))
            expected = np.argsort(naive, kind="stable")[:7]
            np.testing.assert_array_equal(np.sort(ids[row]),
                                          np.sort(expected))
            np.testing.assert_allclose(dists[row], np.sort(naive)[:7],
                                       atol=1e-9)

    def test_distances_sorted(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(100, 4))
        ids, dists = exact_knn(data, rng.normal(size=(3, 4)), k=10)
        assert np.all(np.diff(dists, axis=1) >= 0)

    def test_query_point_in_database_is_rank_one(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(50, 6))
        ids, dists = exact_knn(data, data[13], k=1)
        assert ids[0, 0] == 13
        assert dists[0, 0] == 0.0

    def test_single_query_vector_accepted(self):
        data = np.eye(4)
        ids, dists = exact_knn(data, np.zeros(4), k=2)
        assert ids.shape == (1, 2)

    def test_k_equals_n(self):
        data = np.eye(5)
        ids, _ = exact_knn(data, np.zeros(5), k=5)
        assert sorted(ids[0].tolist()) == [0, 1, 2, 3, 4]

    def test_blocking_consistency(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(300, 8))
        queries = rng.normal(size=(20, 8))
        ids_small, _ = exact_knn(data, queries, k=5, block=3)
        ids_large, _ = exact_knn(data, queries, k=5, block=1000)
        np.testing.assert_array_equal(ids_small, ids_large)

    def test_tie_break_by_id_is_deterministic(self):
        data = np.zeros((4, 3))  # all identical -> all distances tie
        ids, _ = exact_knn(data, np.zeros(3), k=3)
        assert ids[0].tolist() == [0, 1, 2]

    def test_a_tie_straddling_the_cut_keeps_its_lowest_ids(self):
        """Five copies of each of 50 small-integer rows: most queries have
        a tie across the k-th place, which ``argpartition`` cut at
        arbitrary members (19 of these 20 rows differed).  Oracle: the
        (distance, id) order of the same distance matrix, brute force."""
        rng = np.random.default_rng(0)
        data = np.repeat(rng.integers(0, 3, (50, 4)).astype(float), 5,
                         axis=0)
        queries = rng.integers(0, 3, (20, 4)).astype(float)
        ids, dists = exact_knn(data, queries, k=7)
        distances = pairwise_euclidean(queries, data)
        for row in range(len(queries)):
            order = np.lexsort((np.arange(len(data)), distances[row]))[:7]
            np.testing.assert_array_equal(ids[row], order)
            np.testing.assert_array_equal(dists[row], distances[row, order])

    def test_data_norms_taken_once_give_the_same_bits(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(120, 9))
        queries = rng.normal(size=(11, 9))
        _, dists = exact_knn(data, queries, k=120, block=4)
        np.testing.assert_array_equal(
            dists, np.sort(pairwise_euclidean(queries, data), axis=1))

    def test_invalid_k_rejected(self):
        data = np.eye(3)
        with pytest.raises(ValueError):
            exact_knn(data, np.zeros(3), k=0)
        with pytest.raises(ValueError):
            exact_knn(data, np.zeros(3), k=4)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            exact_knn(np.eye(3), np.zeros((1, 4)), k=1)


class TestGroundTruthCache:
    def test_slices_smaller_k(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(80, 5))
        queries = rng.normal(size=(4, 5))
        cache = GroundTruth(data, queries, max_k=20)
        direct_ids, direct_dists = exact_knn(data, queries, k=5)
        np.testing.assert_array_equal(cache.top_ids(5), direct_ids)
        np.testing.assert_allclose(cache.top_distances(5), direct_dists)

    def test_k_beyond_max_rejected(self):
        data = np.random.default_rng(5).normal(size=(30, 4))
        cache = GroundTruth(data, data[:2], max_k=10)
        with pytest.raises(ValueError):
            cache.top_ids(11)
        with pytest.raises(ValueError):
            cache.top_ids(0)
