"""Tests for the SRS baseline."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import SRS
from repro.datasets import make_dataset
from repro.eval import exact_knn, recall_at_k


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(21)
    centers = rng.uniform(0.0, 50.0, size=(5, 20))
    data = np.vstack([
        center + rng.normal(0.0, 1.0, size=(60, 20)) for center in centers])
    queries = data[rng.choice(len(data), 6, replace=False)] \
        + rng.normal(0.0, 0.2, size=(6, 20))
    return data, queries


class TestSRS:
    def test_reasonable_recall_with_generous_budget(self, workload):
        # Early termination disabled: recall is then budget-limited only.
        data, queries = workload
        index = SRS(max_fraction=0.3, threshold=1e-9, seed=0)
        index.build(data)
        true_ids, _ = exact_knn(data, queries, k=10)
        recalls = [recall_at_k(true_ids[row], index.query(q, 10)[0], 10)
                   for row, q in enumerate(queries)]
        assert np.mean(recalls) > 0.6

    def test_early_stop_certifies_ratio_not_rank(self, workload):
        """The paper's core criticism of SRS: the χ² stop fires as soon as
        the answer is c-approximate, long before the *ranking* is right —
        good ratio, poor MAP."""
        data, queries = workload
        index = SRS(max_fraction=1.0, seed=0)   # paper threshold 0.1809
        index.build(data)
        true_ids, true_dists = exact_knn(data, queries, k=10)
        from repro.eval import approximation_ratio, average_precision
        ratios, aps = [], []
        for row, query in enumerate(queries):
            ids, dists = index.query(query, 10)
            stats = index.last_query_stats()
            assert stats.extra["stopped_early"]
            ratios.append(approximation_ratio(true_dists[row], dists))
            aps.append(average_precision(true_ids[row], ids, 10))
        assert np.mean(ratios) <= 2.0          # the guarantee holds
        assert np.mean(aps) < 0.9              # but the ranking suffers

    def test_budget_caps_examined_points(self, workload):
        data, queries = workload
        index = SRS(max_fraction=0.02, threshold=1e-9, seed=1)
        index.build(data)
        index.query(queries[0], 3)
        stats = index.last_query_stats()
        assert stats.candidates <= int(np.ceil(0.02 * len(data)))

    def test_tiny_index_size(self, workload):
        """SRS's selling point: the index is m_SRS floats per point."""
        data, _ = workload
        index = SRS(seed=2)
        index.build(data)
        assert index.index_size_bytes() == len(data) * 6 * 8
        assert index.index_size_bytes() < data.nbytes

    def test_every_fetch_is_a_random_read(self, workload):
        data, queries = workload
        index = SRS(max_fraction=0.1, seed=3)
        index.build(data)
        index.query(queries[0], 5)
        stats = index.last_query_stats()
        assert stats.page_reads == stats.random_reads
        assert stats.page_reads >= stats.candidates // 10

    def test_early_termination_flag(self, workload):
        data, queries = workload
        # A lax threshold makes the χ² test fire almost immediately.
        index = SRS(max_fraction=1.0, threshold=0.999, seed=4)
        index.build(data)
        index.query(queries[0], 3)
        assert index.last_query_stats().extra["stopped_early"]

    def test_full_budget_degenerates_to_exact(self, workload):
        data, queries = workload
        index = SRS(max_fraction=1.0, threshold=1e-12, seed=5)
        index.build(data)
        true_ids, _ = exact_knn(data, queries[:2], k=5)
        for row in range(2):
            ids, _ = index.query(queries[row], 5)
            assert set(ids.tolist()) == set(true_ids[row].tolist())

    def test_projection_dimensionality(self, workload):
        data, _ = workload
        index = SRS(num_projections=8, seed=6)
        index.build(data)
        assert index.projected.shape == (len(data), 8)

    def test_duplicate_rows_both_returned_lower_id_first(self):
        rng = np.random.default_rng(7)
        data = rng.normal(0.0, 1.0, size=(40, 5))
        data[[11, 29]] = data[3]
        index = SRS(max_fraction=1.0, threshold=1e-9, seed=0)
        index.build(data)
        ids, dists = index.query(data[3] + 1e-3, 3)
        assert ids.tolist() == [3, 11, 29]
        assert dists[0] == dists[1] == dists[2]

    def test_budget_cut_inside_a_tie_keeps_the_lower_ids(self):
        data = np.vstack([np.ones((5, 3)), np.zeros((40, 3))])
        index = SRS(max_fraction=0.04, threshold=1e-9, seed=0)
        index.build(data)
        ids, _ = index.query(np.zeros(3), 2)
        assert index.last_query_stats().candidates == 2
        assert ids.tolist() == [5, 6]

    def test_exact_match_examined_first(self, workload):
        data, _ = workload
        index = SRS(max_fraction=0.1, threshold=1e-9,
                    storage_dtype="float64", seed=8)
        index.build(data)
        ids, dists = index.query(data[42], 1)
        assert ids.tolist() == [42]
        assert dists[0] == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SRS(num_projections=0)
        with pytest.raises(ValueError):
            SRS(max_fraction=0.0)

    def test_query_before_build_rejected(self):
        with pytest.raises(RuntimeError):
            SRS().query(np.zeros(4), 1)


def examined_ids(index, query, k):
    """Run ``index.query`` and return the ids it fetched, in fetch order."""
    fetched = []
    fetch = index.heap.fetch

    def recording_fetch(object_id):
        fetched.append(object_id)
        return fetch(object_id)

    index.heap.fetch = recording_fetch
    try:
        answer = index.query(query, k)
    finally:
        index.heap.fetch = fetch
    return fetched, answer


def projected_order(index, query):
    """Every id in (projected distance, id) order, the full stream."""
    diff = index.projected - np.asarray(query, dtype=np.float64) @ index._matrix
    dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return np.lexsort((np.arange(len(dists)), dists)), dists


class TestProjectedOrder:
    """The examination order is the head of the (projected distance, id)
    stream a best-first tree over the projections would yield."""

    def test_examined_prefix_is_the_nearest_projections(self, workload):
        data, queries = workload
        index = SRS(max_fraction=0.05, threshold=1e-9, seed=9)
        index.build(data)
        budget = int(np.ceil(0.05 * len(data)))
        for query in queries:
            fetched, _ = examined_ids(index, query, 3)
            order, dists = projected_order(index, query)
            assert fetched == order[:len(fetched)].tolist()
            assert len(fetched) <= budget
            np.testing.assert_allclose(np.sort(dists[fetched]),
                                       np.sort(dists)[:len(fetched)])

    def test_examined_projected_distances_are_nondecreasing(self, workload):
        data, queries = workload
        index = SRS(max_fraction=0.5, threshold=1e-9, seed=10)
        index.build(data)
        fetched, _ = examined_ids(index, queries[1], 5)
        _, dists = projected_order(index, queries[1])
        assert len(fetched) > 5
        assert np.all(np.diff(dists[fetched]) >= 0.0)

    def test_whole_budget_examines_every_point_once(self, workload):
        # With k = n the stop test can only run once everything is seen.
        data, queries = workload
        index = SRS(max_fraction=1.0, seed=11)
        index.build(data)
        fetched, (ids, _) = examined_ids(index, queries[0], len(data))
        assert sorted(fetched) == list(range(len(data)))
        assert sorted(ids.tolist()) == list(range(len(data)))

    def test_budget_is_at_least_k(self, workload):
        data, queries = workload
        index = SRS(max_fraction=0.001, threshold=1e-9, seed=12)
        index.build(data)
        fetched, (ids, _) = examined_ids(index, queries[2], 7)
        assert len(fetched) == index.last_query_stats().candidates == 7
        assert len(ids) == 7

    def test_invalid_k(self, workload):
        data, queries = workload
        index = SRS(seed=13)
        index.build(data)
        with pytest.raises(ValueError):
            index.query(queries[0], 0)

    def test_dim_mismatch_rejected(self, workload):
        data, _ = workload
        index = SRS(seed=14)
        index.build(data)
        with pytest.raises(ValueError):
            index.query(np.zeros(data.shape[1] - 1), 1)

    @given(st.integers(0, 10**6), st.integers(5, 60), st.integers(1, 10),
           st.floats(0.01, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_order_and_answer_match_brute_force_property(
            self, seed, n, k, fraction):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n, 4))
        query = rng.normal(size=4)
        index = SRS(num_projections=3, max_fraction=fraction,
                    storage_dtype="float64", seed=seed)
        index.build(data)
        k = min(k, n)
        fetched, (ids, dists) = examined_ids(index, query, k)
        order, _ = projected_order(index, query)
        assert fetched == order[:len(fetched)].tolist()
        assert len(fetched) <= max(k, int(np.ceil(fraction * n)))
        # The answer is the exact top-k of the examined points.
        seen = np.asarray(fetched)
        true = np.sqrt(((data[seen] - query) ** 2).sum(axis=1))
        best = np.lexsort((seen, true))[:k]
        assert ids.tolist() == seen[best].tolist()
        np.testing.assert_allclose(dists, true[best], rtol=1e-12)


class TestFrozenAnswers:
    """Digests of ``SRS(seed=0)``'s answers to 8 ``sift10k`` queries, taken
    while the projections were still streamed from a k-d tree: ids and
    ``stats.candidates`` in one, the float64 distances in the other.  The
    budget-bounded (distance, id) order must examine the same points in
    the same sequence.  ``whole`` gives every point to the order, so no
    partition runs."""

    DIGESTS = {
        "n2000": (2000, {}, "6bf09ca81ca1edd6", "17995b6ea0ac83d7"),
        "n10000": (10000, {}, "9c04a3fb3447ae7a", "ebbb396cca003530"),
        "whole": (2000, {"max_fraction": 1.0, "threshold": 1e-9},
                  "871d87d88a1022a5", "341d64492fd8ce40"),
    }

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_answers_are_the_trees(self, name):
        n, options, ids_digest, dists_digest = self.DIGESTS[name]
        dataset = make_dataset("sift10k", n, 8, seed=0)
        index = SRS(seed=0, **options)
        index.build(dataset.data)
        answers, distances = hashlib.sha256(), hashlib.sha256()
        for query in dataset.queries:
            ids, dists = index.query(query, 10)
            candidates = index.last_query_stats().candidates
            answers.update(ids.astype("<i8").tobytes())
            answers.update(candidates.to_bytes(8, "little"))
            distances.update(dists.astype("<f8").tobytes())
        assert (answers.hexdigest()[:16],
                distances.hexdigest()[:16]) == (ids_digest, dists_digest)
