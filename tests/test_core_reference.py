"""Unit tests for reference object selection (Sec. 3.3)."""

import numpy as np
import pytest

from repro.core import (
    ReferenceSet,
    estimate_dmax,
    select_random,
    select_references,
    select_sss,
    select_sss_dyn,
)
from repro.distance import pairwise_euclidean


@pytest.fixture(scope="module")
def spread_data():
    rng = np.random.default_rng(42)
    centers = rng.uniform(0.0, 100.0, size=(8, 12))
    return np.vstack([
        center + rng.normal(0.0, 2.0, size=(40, 12)) for center in centers])


class TestDmax:
    def test_lower_bounds_and_never_exceeds_true_diameter(self, spread_data):
        rng = np.random.default_rng(0)
        estimate = estimate_dmax(spread_data, rng)
        true_dmax = pairwise_euclidean(spread_data, spread_data).max()
        assert 0.5 * true_dmax <= estimate <= true_dmax + 1e-9

    def test_degenerate_identical_points(self):
        data = np.ones((10, 4))
        assert estimate_dmax(data, np.random.default_rng(0)) == 0.0


class TestSelection:
    def test_random_selects_m_distinct(self, spread_data):
        chosen = select_random(spread_data, 10, np.random.default_rng(1))
        assert len(chosen) == 10
        assert len(set(chosen.tolist())) == 10

    def test_sss_selects_m_well_separated(self, spread_data):
        chosen = select_sss(spread_data, 6, np.random.default_rng(2),
                            fraction=0.3)
        assert len(chosen) == 6
        refs = spread_data[chosen]
        distances = pairwise_euclidean(refs, refs)
        off_diagonal = distances[~np.eye(6, dtype=bool)]
        # SSS guarantees pairwise separation above the threshold used.
        assert off_diagonal.min() > 0.0

    def test_sss_separation_beats_random_on_average(self, spread_data):
        rng = np.random.default_rng(3)
        sss_refs = spread_data[select_sss(spread_data, 8, rng)]
        random_refs = spread_data[select_random(spread_data, 8, rng)]

        def min_separation(refs):
            distances = pairwise_euclidean(refs, refs)
            return distances[~np.eye(len(refs), dtype=bool)].min()

        assert min_separation(sss_refs) >= min_separation(random_refs) * 0.5

    def test_sss_fills_m_even_with_tight_threshold(self, spread_data):
        # With a huge fraction, no pair qualifies — relaxation must kick in.
        chosen = select_sss(spread_data, 12, np.random.default_rng(4),
                            fraction=0.99)
        assert len(chosen) == 12
        assert len(set(chosen.tolist())) == 12

    def test_sss_degenerate_identical_points(self):
        data = np.ones((20, 4))
        chosen = select_sss(data, 5, np.random.default_rng(5))
        assert len(chosen) == 5

    def test_sss_dyn_selects_m(self, spread_data):
        chosen = select_sss_dyn(spread_data, 6, np.random.default_rng(6))
        assert len(chosen) == 6
        assert len(set(chosen.tolist())) == 6

    def test_dispatch(self, spread_data):
        rng = np.random.default_rng(7)
        for method in ("random", "sss", "sss-dyn"):
            chosen = select_references(spread_data, 4, method, rng)
            assert len(chosen) == 4
        with pytest.raises(ValueError):
            select_references(spread_data, 4, "clustered", rng)

    def test_m_validation(self, spread_data):
        with pytest.raises(ValueError):
            select_random(spread_data, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            select_random(spread_data, len(spread_data) + 1,
                          np.random.default_rng(0))


class TestReferenceSet:
    def test_select_and_matrices(self, spread_data):
        refs = ReferenceSet.select(spread_data, 5, "sss",
                                   np.random.default_rng(8))
        assert refs.size == 5
        assert refs.vectors.shape == (5, spread_data.shape[1])
        assert refs.ref_ref.shape == (5, 5)
        np.testing.assert_allclose(np.diag(refs.ref_ref), 0.0, atol=1e-9)

    def test_distances_from_matches_pairwise(self, spread_data):
        refs = ReferenceSet.select(spread_data, 5, "random",
                                   np.random.default_rng(9))
        points = spread_data[:7]
        np.testing.assert_allclose(
            refs.distances_from(points),
            pairwise_euclidean(points, refs.vectors), atol=1e-9)

    def test_distances_from_single_point(self, spread_data):
        refs = ReferenceSet.select(spread_data, 3, "random",
                                   np.random.default_rng(10))
        out = refs.distances_from(spread_data[0])
        assert out.shape == (1, 3)

    def test_memory_accounting_positive(self, spread_data):
        refs = ReferenceSet.select(spread_data, 5, "random",
                                   np.random.default_rng(11))
        assert refs.memory_bytes() >= refs.vectors.nbytes + refs.ref_ref.nbytes

    def test_pair_table_is_the_positive_upper_triangle(self, spread_data):
        """Built once with ``ref_ref`` (so every way of making a
        ReferenceSet has it) and counted as resident memory."""
        vectors = spread_data[:5].copy()
        vectors[4] = vectors[1]
        refs = ReferenceSet(vectors)
        pairs = refs.pairs
        want = [(i, j) for i in range(5) for j in range(i + 1, 5)
                if (i, j) != (1, 4)]
        assert list(zip(pairs.first.tolist(), pairs.second.tolist())) == want
        np.testing.assert_array_equal(
            pairs.reciprocals, [1.0 / refs.ref_ref[i, j] for i, j in want])
        assert pairs.size == 5
        # Two index columns and the reciprocal denominators.
        assert pairs.nbytes == 9 * (8 + 8 + 8)
        assert refs.memory_bytes() == (refs.vectors.nbytes
                                       + refs.ref_ref.nbytes + pairs.nbytes)
        assert ReferenceSet(vectors[:1]).pairs.first.shape == (0,)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ReferenceSet(np.zeros(5))
