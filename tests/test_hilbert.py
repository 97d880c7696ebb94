"""Unit and property tests for the Hilbert curve (Butz/Skilling)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import HDIndex, HDIndexParams, save_index
from repro.hilbert import GridQuantizer, HilbertCurve, encode_for_curves
from repro.storage import unpack_arrays


class TestScalarCurve:
    def test_2d_order1_is_the_classic_u(self):
        curve = HilbertCurve(2, 1)
        walk = [curve.decode(key) for key in range(4)]
        # The order-1 Hilbert curve visits 4 cells, each step adjacent.
        assert sorted(map(tuple, walk)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for first, second in zip(walk, walk[1:]):
            assert sum(abs(a - b) for a, b in zip(first, second)) == 1

    def test_bijective_2d_order3(self):
        curve = HilbertCurve(2, 3)
        seen = {tuple(curve.decode(key)) for key in range(64)}
        assert len(seen) == 64

    def test_adjacency_3d(self):
        curve = HilbertCurve(3, 3)
        previous = curve.decode(0)
        for key in range(1, 512):
            current = curve.decode(key)
            step = sum(abs(a - b) for a, b in zip(previous, current))
            assert step == 1, f"non-adjacent step at key {key}"
            previous = current

    def test_encode_decode_inverse(self):
        curve = HilbertCurve(4, 4)
        rng = np.random.default_rng(5)
        for _ in range(50):
            point = [int(v) for v in rng.integers(0, 16, size=4)]
            assert curve.decode(curve.encode(point)) == point

    def test_one_dimensional_curve_is_identity(self):
        curve = HilbertCurve(1, 5)
        for value in (0, 1, 17, 31):
            assert curve.encode([value]) == value
            assert curve.decode(value) == [value]

    def test_key_bits_and_bytes(self):
        curve = HilbertCurve(16, 8)
        assert curve.key_bits == 128
        assert curve.key_bytes == 16
        assert HilbertCurve(3, 3).key_bytes == 2  # ceil(9/8)

    def test_out_of_range_coordinate_rejected(self):
        curve = HilbertCurve(2, 3)
        with pytest.raises(ValueError):
            curve.encode([8, 0])
        with pytest.raises(ValueError):
            curve.encode([-1, 0])

    def test_out_of_range_key_rejected(self):
        curve = HilbertCurve(2, 2)
        with pytest.raises(ValueError):
            curve.decode(16)
        with pytest.raises(ValueError):
            curve.decode(-1)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HilbertCurve(0, 4)
        with pytest.raises(ValueError):
            HilbertCurve(2, 0)
        with pytest.raises(ValueError):
            HilbertCurve(2, 63)


class TestBatchCurve:
    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        for dim, order in [(2, 4), (3, 7), (8, 8), (16, 8), (5, 32)]:
            curve = HilbertCurve(dim, order)
            points = rng.integers(0, 1 << order, size=(64, dim))
            keys = curve.encode_batch(points)
            for index in range(0, 64, 7):
                assert keys[index] == curve.encode(points[index])

    def test_batch_round_trip(self):
        curve = HilbertCurve(10, 8)
        rng = np.random.default_rng(3)
        points = rng.integers(0, 256, size=(40, 10))
        decoded = curve.decode_batch(curve.encode_batch(points))
        np.testing.assert_array_equal(decoded, points.astype(np.uint64))

    def test_wide_keys_use_python_ints(self):
        curve = HilbertCurve(16, 32)   # 512-bit keys
        points = np.full((2, 16), (1 << 32) - 1, dtype=np.uint64)
        keys = curve.encode_batch(points)
        assert all(isinstance(int(k), int) for k in keys)
        assert max(int(k) for k in keys) < (1 << 512)

    def test_empty_batch(self):
        curve = HilbertCurve(4, 4)
        assert curve.encode_batch(np.empty((0, 4), dtype=np.int64)).size == 0
        assert curve.decode_batch(np.empty(0, dtype=object)).shape == (0, 4)

    def test_wrong_shape_rejected(self):
        curve = HilbertCurve(4, 4)
        with pytest.raises(ValueError):
            curve.encode_batch(np.zeros((3, 5), dtype=np.int64))

    def test_out_of_range_batch_rejected(self):
        curve = HilbertCurve(2, 3)
        with pytest.raises(ValueError):
            curve.encode_batch(np.asarray([[8, 0]]))

    @given(st.integers(min_value=2, max_value=6),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_bijectivity_property(self, dim, order, raw_seed):
        curve = HilbertCurve(dim, order)
        rng = np.random.default_rng(raw_seed)
        point = [int(v) for v in rng.integers(0, 1 << order, size=dim)]
        key = curve.encode(list(point))
        assert 0 <= key < (1 << (dim * order))
        assert curve.decode(key) == point

    @given(st.integers(min_value=2, max_value=4),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_locality_property(self, dim, order, raw_key):
        """Consecutive keys map to grid cells exactly one step apart —
        the locality guarantee HD-Index candidate retrieval relies on."""
        curve = HilbertCurve(dim, order)
        total = 1 << (dim * order)
        key = raw_key % (total - 1)
        first = curve.decode(key)
        second = curve.decode(key + 1)
        assert sum(abs(a - b) for a, b in zip(first, second)) == 1


class TestBatchKeyBytes:
    """The array-native kernel (``encode_batch_bytes`` /
    ``encode_for_curves``) against the scalar ``encode`` oracle."""

    def test_bytes_match_scalar_encode(self):
        rng = np.random.default_rng(17)
        for dim, order in [(2, 4), (3, 7), (8, 8), (16, 8), (5, 32)]:
            curve = HilbertCurve(dim, order)
            points = rng.integers(0, 1 << order, size=(48, dim))
            raw = curve.encode_batch_bytes(points)
            assert raw.shape == (48, curve.key_bytes)
            assert raw.dtype == np.uint8
            for index in range(0, 48, 5):
                key = curve.encode([int(v) for v in points[index]])
                expected = int(key).to_bytes(curve.key_bytes, "big")
                assert raw[index].tobytes() == expected

    def test_bytes_match_encode_batch(self):
        curve = HilbertCurve(7, 9)
        rng = np.random.default_rng(23)
        points = rng.integers(0, 1 << 9, size=(100, 7))
        keys = curve.encode_batch(points)
        raw = curve.encode_batch_bytes(points)
        for key, row in zip(keys, raw):
            assert row.tobytes() == int(key).to_bytes(curve.key_bytes, "big")

    def test_empty_and_invalid(self):
        curve = HilbertCurve(4, 4)
        empty = curve.encode_batch_bytes(np.empty((0, 4), dtype=np.int64))
        assert empty.shape == (0, curve.key_bytes)
        with pytest.raises(ValueError):
            curve.encode_batch_bytes(np.zeros((3, 5), dtype=np.int64))
        with pytest.raises(ValueError):
            curve.encode_batch_bytes(np.asarray([[16, 0, 0, 0]]))

    def test_encode_for_curves_groups_geometries(self):
        rng = np.random.default_rng(29)
        curves = [HilbertCurve(4, 6), HilbertCurve(4, 6),
                  HilbertCurve(3, 6), HilbertCurve(4, 6)]
        coords = [rng.integers(0, 64, size=(count, c.dim))
                  for count, c in zip((5, 9, 4, 1), curves)]
        batched = encode_for_curves(curves, coords)
        for curve, points, raw in zip(curves, coords, batched):
            np.testing.assert_array_equal(
                raw, curve.encode_batch_bytes(points))

    def test_encode_for_curves_misaligned_rejected(self):
        with pytest.raises(ValueError):
            encode_for_curves([HilbertCurve(2, 2)], [])

    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_batch_bytes_property(self, dim, order, raw_seed):
        """Batched rows are byte-identical to the scalar oracle across
        random (dim, order) geometries, including multi-word keys."""
        curve = HilbertCurve(dim, order)
        rng = np.random.default_rng(raw_seed)
        points = rng.integers(0, 1 << order, size=(8, dim))
        raw = curve.encode_batch_bytes(points)
        for row, point in zip(raw, points):
            key = curve.encode([int(v) for v in point])
            assert row.tobytes() == int(key).to_bytes(curve.key_bytes, "big")


class TestKeysAreFrozen:
    """Every key the batch transform emits is the scalar oracle's, and the
    keys of a fixed input are the ones the repository has always written:
    a faster transform may not move a single byte of a snapshot."""

    #: Each side of every lane-width boundary of the packed transform
    #: (8 | 9, 16 | 17, 32 | 33 bits) and of the 64-bit bit-plane group.
    DIMS = (1, 2, 3, 16, 63, 64, 65, 171)
    ORDERS = (1, 7, 8, 9, 16, 17, 32, 33, 62)

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("dim", DIMS)
    def test_bytes_match_scalar_encode(self, dim, order):
        curve = HilbertCurve(dim, order)
        rng = np.random.default_rng(1000 * dim + order)
        for count in (1, 8, 257):
            points = rng.integers(0, 1 << order, size=(count, dim))
            points[0] = 0
            points[-1] = (1 << order) - 1
            raw = curve.encode_batch_bytes(points)
            assert raw.shape == (count, curve.key_bytes)
            # All of a small batch; of the large one both ends, both
            # sides of the middle and a stride (the oracle is slow).
            rows = sorted({0, 1, 127, 128, 129, 255, 256,
                           *range(0, count, 37)} & set(range(count)))
            for row in rows:
                key = curve.encode([int(v) for v in points[row]])
                assert raw[row].tobytes() == key.to_bytes(
                    curve.key_bytes, "big"), (count, row)

    @pytest.mark.parametrize("dim,order", [(2, 8), (3, 9), (16, 8),
                                           (5, 17), (4, 33), (65, 2)])
    def test_batch_round_trip(self, dim, order):
        curve = HilbertCurve(dim, order)
        points = np.random.default_rng(dim + order).integers(
            0, 1 << order, size=(9, dim))
        points[0], points[-1] = 0, (1 << order) - 1
        np.testing.assert_array_equal(
            curve.decode_batch(curve.encode_batch(points)),
            points.astype(np.uint64))

    def test_golden_digest_of_encode_for_curves(self):
        """Computed at the commit before the lane-packed transform."""
        rng = np.random.default_rng(2016)
        curves = [HilbertCurve(16, 8)] * 8 + [HilbertCurve(5, 8),
                                              HilbertCurve(16, 12)]
        coords = [rng.integers(0, 1 << curve.order, size=(16, curve.dim))
                  for curve in curves]
        digest = hashlib.sha256()
        for raw in encode_for_curves(curves, coords):
            digest.update(raw.tobytes())
        assert digest.hexdigest() == (
            "d75f394f126d9b88ffffe7fce83df74d"
            "523cb4841605518d6180c79c78669cd9")

    def test_golden_digest_of_a_built_key_column(self, tmp_path):
        """The ``tree_0.packed`` key column of a fixed-seed 2 000-point
        index, computed at the same commit: the build encodes through
        the same transform as a query."""
        rng = np.random.default_rng(7)
        data = rng.uniform(0.0, 255.0, size=(2000, 64))
        index = HDIndex(HDIndexParams(num_trees=4, hilbert_order=8,
                                      num_references=4, alpha=64, gamma=16,
                                      seed=7))
        index.build(data)
        save_index(index, str(tmp_path))
        index.close()
        buffer = np.fromfile(tmp_path / "tree_0.packed", dtype=np.uint8)
        keys = unpack_arrays(buffer)["keys"]
        assert keys.shape == (2000, 16)
        assert hashlib.sha256(keys.tobytes()).hexdigest() == (
            "b0a7c5542812fb63c869c05a82a5d040"
            "8039c5899379d9542056029725941d42")


class TestGridQuantizer:
    def test_quantize_maps_domain_to_grid(self):
        quantizer = GridQuantizer(0.0, 10.0, order=3)
        cells = quantizer.quantize(np.asarray([0.0, 4.9, 9.99]))
        assert cells.tolist() == [0, 3, 7]

    def test_clipping_outside_domain(self):
        quantizer = GridQuantizer(0.0, 1.0, order=4)
        cells = quantizer.quantize(np.asarray([-5.0, 2.0]))
        assert cells.tolist() == [0, 15]

    def test_dequantize_returns_cell_centres(self):
        quantizer = GridQuantizer(0.0, 8.0, order=2)  # cells of width 2
        centres = quantizer.dequantize(np.asarray([0, 3]))
        np.testing.assert_allclose(centres, [1.0, 7.0])

    def test_round_trip_error_bounded_by_cell(self):
        quantizer = GridQuantizer(-1.0, 1.0, order=6)
        rng = np.random.default_rng(2)
        values = rng.uniform(-1.0, 1.0, size=100)
        recovered = quantizer.dequantize(quantizer.quantize(values))
        assert np.max(np.abs(recovered - values)) <= 2.0 / 64

    def test_from_data_fits_domain(self):
        data = np.asarray([[1.0, 5.0], [3.0, 2.0]])
        quantizer = GridQuantizer.from_data(data, order=4)
        assert quantizer.low == 1.0
        assert quantizer.high == 5.0

    def test_from_data_degenerate_constant(self):
        quantizer = GridQuantizer.from_data(np.full((3, 2), 7.0), order=2)
        assert quantizer.quantize(np.asarray([7.0])).tolist() == [0]

    def test_invalid_domain_rejected(self):
        with pytest.raises(ValueError):
            GridQuantizer(1.0, 1.0, order=4)
        with pytest.raises(ValueError):
            GridQuantizer(0.0, 1.0, order=0)

    def test_monotonic(self):
        quantizer = GridQuantizer(0.0, 1.0, order=5)
        values = np.linspace(0.0, 1.0, 200)
        cells = quantizer.quantize(values)
        assert np.all(np.diff(cells.astype(np.int64)) >= 0)
