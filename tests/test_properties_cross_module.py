"""Cross-module property-based tests (hypothesis).

These tie the invariants of the whole pipeline together: whatever the
configuration, the structural guarantees of Sec. 3-4 must hold —
candidate-set bounds, filter validity end-to-end, determinism, and
consistency between the exact oracle and the exact methods.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import IDistance
from repro.core import HDIndex, HDIndexParams
from repro.eval import average_precision, exact_knn


def make_data(seed, n, dim, clusters=4, span=50.0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, span, size=(clusters, dim))
    assignment = rng.integers(0, clusters, size=n)
    data = centers[assignment] + rng.normal(0.0, span * 0.03,
                                            size=(n, dim))
    return np.clip(data, 0.0, span)


class TestHDIndexInvariants:
    @given(st.integers(0, 10**6),
           st.integers(2, 4),          # τ
           st.integers(2, 6),          # m
           st.integers(8, 48),         # α
           st.integers(1, 5))          # k
    @settings(max_examples=15, deadline=None)
    def test_kappa_bounded_by_tau_gamma(self, seed, tau, m, alpha, k):
        """Sec. 4.2: γ <= κ <= τ·γ for the merged candidate set."""
        data = make_data(seed, n=120, dim=8)
        gamma = max(k, alpha // 4)
        index = HDIndex(HDIndexParams(
            num_trees=tau, num_references=m, alpha=alpha, gamma=gamma,
            domain=(0.0, 50.0), seed=seed % 100))
        index.build(data)
        query = data[seed % len(data)] + 0.1
        index.query(query, k)
        kappa = index.last_query_stats().candidates
        effective_gamma = min(gamma, len(data))
        assert kappa <= tau * effective_gamma
        assert kappa >= min(effective_gamma, len(data)) // 2 or kappa > 0

    @given(st.integers(0, 10**6), st.integers(1, 8))
    @settings(max_examples=15, deadline=None)
    def test_results_sorted_unique_valid(self, seed, k):
        data = make_data(seed, n=100, dim=8)
        index = HDIndex(HDIndexParams(
            num_trees=4, num_references=4, alpha=32, gamma=16,
            domain=(0.0, 50.0), seed=0))
        index.build(data)
        rng = np.random.default_rng(seed + 1)
        query = rng.uniform(0.0, 50.0, size=8)
        ids, dists = index.query(query, k)
        assert len(ids) == min(k, len(data))
        assert len(set(ids.tolist())) == len(ids)
        assert np.all(np.diff(dists) >= 0)
        assert np.all((ids >= 0) & (ids < len(data)))

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_reported_distances_are_true_distances(self, seed):
        """Stage (iii) computes exact distances: every reported distance
        must equal the true L2 distance to that id (up to storage dtype)."""
        data = make_data(seed, n=80, dim=8)
        index = HDIndex(HDIndexParams(
            num_trees=4, num_references=4, alpha=32, gamma=16,
            domain=(0.0, 50.0), seed=0))
        index.build(data)
        query = data[0] + 0.05
        ids, dists = index.query(query, 5)
        for object_id, reported in zip(ids, dists):
            true = float(np.sqrt(np.sum((data[object_id] - query) ** 2)))
            assert reported == pytest.approx(true, abs=1e-3)

    @given(st.integers(0, 10**6))
    @settings(max_examples=8, deadline=None)
    def test_alpha_covering_database_is_exact(self, seed):
        """With α = γ = n the filters cannot drop anything: HD-Index
        degenerates to exact search — the correctness anchor."""
        data = make_data(seed, n=60, dim=6)
        # float64 storage so near-ties agree bit-for-bit with the oracle.
        index = HDIndex(HDIndexParams(
            num_trees=3, num_references=4, alpha=60, gamma=60,
            domain=(0.0, 50.0), storage_dtype="float64", seed=0))
        index.build(data)
        rng = np.random.default_rng(seed + 2)
        query = rng.uniform(0.0, 50.0, size=6)
        ids, _ = index.query(query, 5)
        true_ids, _ = exact_knn(data, query, 5)
        assert set(ids.tolist()) == set(true_ids[0].tolist())


class TestExactMethodAgreement:
    @given(st.integers(0, 10**6), st.integers(1, 12))
    @settings(max_examples=10, deadline=None)
    def test_idistance_equals_oracle(self, seed, partitions):
        data = make_data(seed, n=90, dim=6)
        # float64 storage so near-ties agree bit-for-bit with the oracle.
        index = IDistance(num_partitions=partitions, storage_dtype="float64",
                          seed=seed)
        index.build(data)
        rng = np.random.default_rng(seed + 3)
        query = rng.uniform(0.0, 50.0, size=6)
        ids, _ = index.query(query, 7)
        true_ids, _ = exact_knn(data, query, 7)
        assert set(ids.tolist()) == set(true_ids[0].tolist())


class TestMetricInvariants:
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=10,
                    unique=True),
           st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_ap_monotone_under_prefix_corruption(self, true_ids, seed):
        """Replacing a prefix of a perfect ranking with junk can only
        lower AP."""
        rng = np.random.default_rng(seed)
        k = len(true_ids)
        junk = 1000 + rng.integers(0, 100, size=k)
        perfect = average_precision(true_ids, true_ids, k)
        for corrupt in range(1, k + 1):
            result = list(junk[:corrupt]) + list(true_ids[corrupt:])
            assert average_precision(true_ids, result, k) <= perfect + 1e-12

    @given(st.integers(0, 10**6), st.integers(2, 20))
    @settings(max_examples=20, deadline=None)
    def test_map_of_exact_results_is_one(self, seed, k):
        data = make_data(seed, n=60, dim=5)
        queries = data[:3] + 0.01
        true_ids, _ = exact_knn(data, queries, k=min(k, 20))
        for row in range(3):
            assert average_precision(true_ids[row], true_ids[row]) == 1.0
