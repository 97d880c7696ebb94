"""The tiled exact scan against a brute-force oracle, and its scratch.

The oracle is the (distance, id) lexsort of ``pairwise_euclidean``'s whole
matrix.  ``TILE_VALUES`` is patched down so that a few dozen rows span
several data tiles and query blocks.  Integer-valued rows and Gaussian
rows on a dyadic grid (multiples of 2^-6) have exact dot products, so a
GEMM of any shape gives the oracle's bytes.  Unrounded Gaussian rows can
round an entry an ulp apart in a GEMM of another shape, so they are held
to equal ids and squared distances within a bound fixed from float64's
epsilon.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.distance import pairwise_euclidean
from repro.eval import exact_knn, ground_truth


def brute_force(data, queries, k):
    distances = pairwise_euclidean(queries, data)
    ids = np.broadcast_to(np.arange(len(data)), distances.shape)
    order = np.lexsort((ids, distances), axis=-1)[:, :k]
    return order, np.take_along_axis(distances, order, axis=1)


def tiled(data, queries, k, block=256, tile_values=None):
    tile_values = tile_values or ground_truth.TILE_VALUES
    with mock.patch.object(ground_truth, "TILE_VALUES", tile_values):
        return exact_knn(data, queries, k, block=block)


@st.composite
def scans(draw):
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 4))
    count = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["integer", "dyadic", "gaussian"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "integer":  # three values per axis: ties everywhere
        data = rng.integers(-1, 2, (n, dim)).astype(float)
        queries = rng.integers(-1, 2, (count, dim)).astype(float)
    else:
        data = rng.normal(size=(n, dim))
        queries = rng.normal(size=(count, dim))
        if kind == "dyadic":
            data = np.round(data * 64) / 64
            queries = np.round(queries * 64) / 64
    if draw(st.booleans()):  # a query equal to a data row: 0.0 via the clip
        queries[0] = data[draw(st.integers(0, n - 1))]
    k = draw(st.sampled_from([1, n]) | st.integers(1, n))
    block = draw(st.sampled_from([1, 2, 10_000]))
    # From one value to three whole matrices: n above, at and below the
    # width of one tile.
    tile_values = draw(st.integers(1, 3 * n * count))
    return kind, data, queries, k, block, tile_values


class TestTiledScanParity:
    @settings(max_examples=400, deadline=None)
    @given(scans())
    def test_equals_the_brute_force_order(self, scan):
        kind, data, queries, k, block, tile_values = scan
        ids, dists = tiled(data, queries, k, block, tile_values)
        want_ids, want_dists = brute_force(data, queries, k)
        np.testing.assert_array_equal(ids, want_ids)
        if kind == "gaussian":
            scale = (queries ** 2).sum(axis=1) + (data ** 2).sum(axis=1).max()
            bound = 8 * (data.shape[1] + 2) * np.finfo(float).eps * scale
            assert np.all(np.abs(dists ** 2 - want_dists ** 2)
                          <= bound[:, None])
        else:
            assert dists.tobytes() == want_dists.tobytes()

    def test_a_tie_across_the_kth_place_and_a_tile_boundary(self):
        """Ids 4-11 tie at distance 1 across the boundary of two 6-row
        tiles; k = 6 cuts the tie after id 5, inside the first tile whose
        partition set the bound, so the second tile's members lose."""
        data = np.array([[0.0]] * 4 + [[1.0], [-1.0]] * 4)
        ids, dists = tiled(data, np.zeros(1), k=6, tile_values=6)
        assert ids.tolist() == [[0, 1, 2, 3, 4, 5]]
        assert dists.tolist() == [[0.0, 0.0, 0.0, 0.0, 1.0, 1.0]]

    def test_a_tie_across_tiles_narrower_than_k(self):
        """Tiles of two or three rows are narrower than k = 5: the bound
        comes from the candidates, and the tie at distance 1 (ids 2-9)
        keeps ids 2-4."""
        data = np.array([[0.0]] * 2 + [[1.0], [-1.0]] * 4)
        ids, _ = tiled(data, np.zeros(1), k=5, tile_values=3)
        assert ids.tolist() == [[0, 1, 2, 3, 4]]


class TestScratch:
    def test_the_peak_allocation_does_not_grow_with_n(self):
        """The call's traced peak at 20k and at 80k rows: two tile
        matrices and a mask, plus 8 bytes of squared norm per row.  A
        whole block × n distance matrix is 10 MB at 20k rows and 41 MB
        at 80k, before its temporaries."""
        rng = np.random.default_rng(0)
        queries = rng.normal(size=(64, 8))
        peaks = []
        for n in (20_000, 80_000):
            data = rng.normal(size=(n, 8))
            tracemalloc.start()
            try:
                exact_knn(data, queries, k=10)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 20 * 2**20, peaks
        assert peaks[1] - peaks[0] < 8 * 60_000 + 2**18, peaks
