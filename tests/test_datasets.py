"""Unit tests for the synthetic dataset generators and the catalog."""

import numpy as np
import pytest

from repro.datasets import (
    DATASET_CATALOG,
    generate_clustered,
    generate_uniform,
    make_dataset,
)
from repro.datasets import synthetic


class TestCatalog:
    def test_all_paper_datasets_present(self):
        expected = {"sift10k", "audio", "sun", "sift1m", "yorck", "enron",
                    "glove"}
        assert expected <= set(DATASET_CATALOG)

    def test_table4_attributes(self):
        sift = DATASET_CATALOG["sift10k"]
        assert sift.dim == 128
        assert sift.domain == (0.0, 255.0)
        assert sift.integer_valued
        assert sift.paper_size == 10_000
        audio = DATASET_CATALOG["audio"]
        assert audio.dim == 192
        assert audio.domain == (-1.0, 1.0)
        assert not audio.integer_valued
        sun = DATASET_CATALOG["sun"]
        assert sun.dim == 512
        assert sun.num_trees == 16   # Sec. 5.2.4: τ=16 beyond 500 dims
        glove = DATASET_CATALOG["glove"]
        assert glove.dim == 100
        assert glove.domain == (-10.0, 10.0)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            make_dataset("imagenet")


class TestGeneration:
    def test_shapes_and_domain(self):
        ds = make_dataset("audio", n=300, num_queries=10, seed=1)
        assert ds.data.shape == (300, 192)
        assert ds.queries.shape == (10, 192)
        assert ds.data.min() >= -1.0 and ds.data.max() <= 1.0

    def test_integer_datasets_are_integral(self):
        ds = make_dataset("sift10k", n=100, num_queries=5, seed=2)
        assert np.all(ds.data == np.rint(ds.data))
        assert ds.data.min() >= 0 and ds.data.max() <= 255

    def test_no_duplicate_rows(self):
        ds = make_dataset("sift10k", n=400, num_queries=5, seed=3)
        unique = np.unique(ds.data, axis=0)
        assert unique.shape[0] == ds.data.shape[0]

    def test_seeded_reproducibility(self):
        a = make_dataset("glove", n=200, num_queries=5, seed=4)
        b = make_dataset("glove", n=200, num_queries=5, seed=4)
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.queries, b.queries)

    def test_different_seeds_differ(self):
        a = make_dataset("glove", n=100, num_queries=5, seed=5)
        b = make_dataset("glove", n=100, num_queries=5, seed=6)
        assert not np.array_equal(a.data, b.data)

    def test_clusteredness(self):
        """Clustered data must have NN distances far below random-pair
        distances — the property that makes ANN indexes work at all."""
        ds = make_dataset("sift10k", n=500, num_queries=5, seed=7)
        rng = np.random.default_rng(0)
        sample = ds.data[rng.choice(500, 50, replace=False)]
        from repro.distance import pairwise_euclidean
        distances = pairwise_euclidean(sample, ds.data)
        distances[distances == 0] = np.inf
        nearest = distances.min(axis=1)
        mean_pair = distances[np.isfinite(distances)].mean()
        assert nearest.mean() < 0.5 * mean_pair

    def test_invalid_sizes_rejected(self):
        spec = DATASET_CATALOG["sift10k"]
        with pytest.raises(ValueError):
            generate_clustered(spec, 0, 5)
        with pytest.raises(ValueError):
            generate_clustered(spec, 10, 0)

    def test_len_and_properties(self):
        ds = make_dataset("enron", n=50, num_queries=3, seed=8)
        assert len(ds) == 50
        assert ds.dim == DATASET_CATALOG["enron"].dim
        assert ds.name == "enron"


def dedupe_oracle(points):
    """First-seen unique rows, rows compared by value."""
    return points[np.sort(np.unique(points, axis=0, return_index=True)[1])]


def assert_same_bytes(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


class TestDedupeParity:
    """``_dedupe`` sorts one byte key per row; it keeps exactly the rows
    the by-value ``np.unique(axis=0)`` oracle keeps, in first-seen
    order."""

    @pytest.mark.parametrize("integer", [False, True],
                             ids=["float", "integer"])
    def test_planted_duplicates(self, integer):
        rng = np.random.default_rng(11)
        base = rng.integers(-3, 4, size=(300, 6))
        points = base[rng.integers(0, 300, size=900)]
        if not integer:
            points = points * 0.5
        got = synthetic._dedupe(points)
        assert got.shape[0] < 300
        assert_same_bytes(got, dedupe_oracle(points))

    def test_signed_zeros_are_one_value(self):
        points = np.array([[-0.0, 1.0], [0.0, 1.0], [0.0, -0.0],
                           [-0.0, 0.0], [1.0, 1.0], [-0.0, 1.0]])
        got = synthetic._dedupe(points)
        assert_same_bytes(got, dedupe_oracle(points))
        # The first-seen row is kept as it was, sign bit and all.
        assert got.shape[0] == 3 and np.signbit(got[0, 0])

    @pytest.mark.parametrize("name", sorted(DATASET_CATALOG))
    def test_make_dataset_equals_the_oracle(self, name, monkeypatch):
        got = make_dataset(name, n=1500, num_queries=4, seed=13)
        monkeypatch.setattr(synthetic, "_dedupe", dedupe_oracle)
        want = make_dataset(name, n=1500, num_queries=4, seed=13)
        assert_same_bytes(got.data, want.data)
        assert_same_bytes(got.queries, want.queries)


class TestUniform:
    def test_uniform_control(self):
        ds = generate_uniform(dim=20, n=100, num_queries=5, seed=0)
        assert ds.data.shape == (100, 20)
        assert 0.0 <= ds.data.min() and ds.data.max() <= 1.0

    def test_custom_domain(self):
        ds = generate_uniform(dim=4, n=50, num_queries=2, seed=1,
                              low=-5.0, high=5.0)
        assert ds.data.min() >= -5.0 and ds.data.max() <= 5.0
