"""Unit and property tests for the distance kernels."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.distance import (
    DistanceCounter,
    distances_to_many,
    euclidean,
    euclidean_to_many,
    normalize_rows,
    pairwise_euclidean,
    top_k_smallest,
)
from repro.distance.metrics import BLOCK_BYTES, _normalize_one, block_rows

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


class TestEuclidean:
    def test_known_value(self):
        assert euclidean([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_zero_distance(self):
        assert euclidean([1.5, -2.5], [1.5, -2.5]) == 0.0

    def test_counter_increments(self):
        counter = DistanceCounter()
        euclidean([0, 0], [1, 1], counter)
        euclidean([0, 0], [1, 1], counter)
        assert counter.count == 2
        counter.reset()
        assert counter.count == 0

    def test_to_many_matches_scalar(self):
        rng = np.random.default_rng(0)
        query = rng.normal(size=8)
        points = rng.normal(size=(20, 8))
        batch = euclidean_to_many(query, points)
        for index in range(20):
            assert batch[index] == pytest.approx(
                euclidean(query, points[index]))

    def test_to_many_counts_rows(self):
        counter = DistanceCounter()
        euclidean_to_many(np.zeros(4), np.zeros((7, 4)), counter)
        assert counter.count == 7

    def test_to_many_accepts_single_vector(self):
        got = euclidean_to_many(np.zeros(3), np.asarray([3.0, 0.0, 4.0]))
        assert got.shape == (1,)
        assert got[0] == pytest.approx(5.0)


def one_shot_distances(query, points, metric):
    """The kernel before it ran in row blocks: one float64 copy of the
    rows, one n x ν difference, one ``einsum``."""
    query = np.asarray(query, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    if metric != "euclidean":
        query = _normalize_one(query)
        points = normalize_rows(points)
    if metric == "cosine":
        return 1.0 - points @ query
    diff = points - query[None, :]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


class TestBlockedKernel:
    """The row-blocked kernel is the one-shot formula byte for byte: on
    each side of every block boundary, for narrow and wide rows, float32
    and float64 input and every metric (angular and cosine over rows
    that are, and are not, unit length already)."""

    #: (whole blocks, extra rows): 1, B - 1, B, B + 1 and 3B + 7 rows.
    ROWS = [(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)]

    @given(st.sampled_from([1, 17, 128, 960]), st.sampled_from(ROWS),
           st.sampled_from([np.float32, np.float64]),
           st.sampled_from(["euclidean", "angular", "cosine"]),
           st.booleans(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_equals_one_shot_formula(self, dim, rows, dtype, metric,
                                     unit, seed):
        blocks, extra = rows
        count = blocks * block_rows(dim) + extra
        rng = np.random.default_rng(seed)
        points = rng.normal(0.0, 40.0, size=(count, dim)).astype(dtype)
        if unit:
            points = normalize_rows(points).astype(dtype)
        query = rng.normal(0.0, 40.0, size=dim)
        got = distances_to_many(query, points, metric)
        assert got.dtype == np.float64 and got.shape == (count,)
        assert got.tobytes() == one_shot_distances(
            query, points, metric).tobytes()

    def test_float32_input_is_not_copied_whole(self):
        """The float32 rows are widened block by block: the kernel's
        peak is its output plus one ~1 MB scratch, not n x ν float64."""
        points = np.ones((20000, 64), dtype=np.float32)
        tracemalloc.start()
        try:
            distances_to_many(np.zeros(64), points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20000 * 8 + 2 * BLOCK_BYTES


class TestPairwise:
    def test_matches_naive(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(6, 5))
        b = rng.normal(size=(9, 5))
        fast = pairwise_euclidean(a, b)
        naive = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
        np.testing.assert_allclose(fast, naive, atol=1e-9)

    def test_self_distance_zero_diagonal(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(10, 4))
        matrix = pairwise_euclidean(points, points)
        np.testing.assert_allclose(np.diag(matrix), 0.0, atol=1e-7)

    def test_no_negative_under_roundoff(self):
        # Large magnitudes stress the |x|² + |y|² − 2x·y cancellation.
        points = np.full((3, 4), 1e8)
        matrix = pairwise_euclidean(points, points)
        assert np.all(matrix >= 0.0)

    @given(hnp.arrays(np.float64, (4, 3), elements=finite_floats),
           hnp.arrays(np.float64, (5, 3), elements=finite_floats))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_property(self, a, b):
        np.testing.assert_allclose(pairwise_euclidean(a, b),
                                   pairwise_euclidean(b, a).T,
                                   atol=1e-6, rtol=1e-9)

    @given(hnp.arrays(np.float64, (5, 3), elements=finite_floats))
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality_property(self, points):
        matrix = pairwise_euclidean(points, points)
        # The |x|²+|y|²−2x·y expansion loses absolute precision at large
        # magnitudes; tolerance must scale with the values involved.
        tolerance = 1e-6 * (1.0 + float(matrix.max()))
        for i in range(5):
            for j in range(5):
                for k in range(5):
                    assert matrix[i, j] <= (matrix[i, k] + matrix[k, j]
                                            + tolerance)


class TestTopK:
    def test_orders_ascending(self):
        values = np.asarray([5.0, 1.0, 3.0, 2.0, 4.0])
        assert top_k_smallest(values, 3).tolist() == [1, 3, 2]

    def test_k_larger_than_n(self):
        values = np.asarray([3.0, 1.0])
        assert top_k_smallest(values, 10).tolist() == [1, 0]

    def test_k_zero(self):
        assert top_k_smallest(np.asarray([1.0]), 0).size == 0

    def test_stability_on_ties(self):
        values = np.asarray([2.0, 1.0, 1.0, 1.0])
        got = top_k_smallest(values, 2).tolist()
        assert got == [1, 2]

    @given(hnp.arrays(np.float64, st.integers(1, 50),
                      elements=finite_floats),
           st.integers(1, 50))
    @settings(max_examples=60, deadline=None)
    def test_matches_full_sort_property(self, values, k):
        got = top_k_smallest(values, k)
        expected = np.sort(values)[: min(k, len(values))]
        np.testing.assert_array_equal(values[got], expected)
