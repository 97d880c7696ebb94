"""Unit and property tests for the Hilbert curve (Butz/Skilling)."""

import hashlib
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.core import HDIndex, HDIndexParams, save_index
from repro.hilbert import GridQuantizer, HilbertCurve, butz, encode_for_curves
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


class TestTransformContainers:
    """The batch transform holds a batch's lanes in one Python integer
    below ``WORD_LANE_BYTES`` per axis and in uint64 words from it; both
    give the scalar ``encode`` row by row."""

    @pytest.mark.parametrize("order", [8, 12, 30, 62],
                             ids=["u1", "u2", "u4", "u8"])
    @pytest.mark.parametrize("dim", [1, 3, 16])
    def test_both_sides_of_the_switch_match_scalar_encode(
            self, dim, order, monkeypatch):
        curve = HilbertCurve(dim, order)
        switch = butz.WORD_LANE_BYTES // curve._lane.itemsize
        rng = np.random.default_rng([dim, order])
        points = rng.integers(0, 1 << order, size=(switch + 3, dim),
                              dtype=np.uint64)
        points[0], points[-1] = 0, (1 << order) - 1
        for count in (switch - 1, switch, switch + 3):
            raw = curve.encode_batch_bytes(points[:count])
            assert raw.shape == (count, curve.key_bytes)
            # Both ends (the last word's padding), both sides of the
            # middle and a stride; the oracle is slow.
            rows = {0, 1, count // 2, count // 2 + 1, count - 2, count - 1,
                    *range(0, count, 97)}
            for row in sorted(rows):
                key = curve.encode([int(v) for v in points[row]])
                assert raw[row].tobytes() == key.to_bytes(
                    curve.key_bytes, "big"), (count, row)
            # Every row: the words against the integer container.
            with monkeypatch.context() as patch:
                patch.setattr(butz, "WORD_LANE_BYTES", 1 << 62)
                np.testing.assert_array_equal(
                    curve.encode_batch_bytes(points[:count]), raw)

    def test_key_width_off_a_whole_word(self):
        """η·ω = 36 bits: 5-byte keys behind four pad bits."""
        curve = HilbertCurve(3, 12)
        assert curve.key_bytes == 5
        count = butz.WORD_LANE_BYTES // curve._lane.itemsize + 1
        points = np.random.default_rng(5).integers(0, 1 << 12,
                                                   size=(count, 3))
        raw = curve.encode_batch_bytes(points)
        for row in range(0, count, 61):
            assert raw[row].tobytes() == curve.encode(
                [int(v) for v in points[row]]).to_bytes(5, "big")

    def test_a_build_block_packs_each_curve_alone(self):
        """Past the switch ``encode_for_curves`` runs one transform for
        the group and packs it one curve's rows at a time."""
        curves = [HilbertCurve(16, 8)] * 3 + [HilbertCurve(5, 8)]
        rng = np.random.default_rng(11)
        coords = [rng.integers(0, 256, size=(butz.WORD_LANE_BYTES, c.dim))
                  for c in curves]
        for curve, points, raw in zip(curves, coords,
                                      encode_for_curves(curves, coords)):
            np.testing.assert_array_equal(
                raw, curve.encode_batch_bytes(points))


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

    @given(st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=20),
           st.integers(min_value=1, max_value=40),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_pack_matches_scalar_key_off_byte_boundaries(
            self, dim, order, count, seed):
        """``_pack_key_bytes`` over lane-dtype planes against the scalar
        interleave, at η·ω not a multiple of 8 (leading pad bits)."""
        assume(dim * order % 8)
        curve = HilbertCurve(dim, order)
        rng = np.random.default_rng(seed)
        transposed = rng.integers(0, 1 << order, size=(dim, count))
        raw = curve._pack_key_bytes(transposed.astype(curve._lane))
        assert raw.shape == (count, curve.key_bytes)
        for row in range(count):
            key = curve._transpose_to_key(
                [int(v) for v in transposed[:, row]])
            assert raw[row].tobytes() == key.to_bytes(curve.key_bytes, "big")

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

    @pytest.mark.parametrize("order,dtype", [(1, np.uint8), (8, np.uint8),
                                             (9, np.uint16), (16, np.uint16),
                                             (17, np.uint32), (33, np.uint64),
                                             (62, np.uint64)])
    def test_cells_come_in_the_curves_lane_dtype(self, order, dtype):
        quantizer = GridQuantizer(0.0, 1.0, order)
        cells = quantizer.quantize(np.asarray([-1.0, 0.5, 2.0]))
        assert cells.dtype == dtype == HilbertCurve(1, order)._lane
        assert cells.tolist() == [0, 1 << (order - 1), (1 << order) - 1]

    def test_huge_finite_values_clip_to_the_edge_cells(self):
        """Through an int64 cast ±1e300 overflowed (with a RuntimeWarning)
        to cell 0 on both sides; run warnings-as-errors
        in a fresh interpreter so no filter of this one hides it."""
        script = textwrap.dedent("""
            import numpy as np
            from repro.hilbert import GridQuantizer
            quantizer = GridQuantizer(0.0, 255.0, 8)
            cells = quantizer.quantize(np.asarray([-1e300, 300.0, 1e300]))
            assert cells.tolist() == [0, 255, 255], cells.tolist()
            big = GridQuantizer(0.0, 1.0, 62).quantize(np.asarray([1e300]))
            assert big.tolist() == [(1 << 62) - 1], big.tolist()
        """)
        done = subprocess.run([sys.executable, "-W", "error", "-c", script],
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    @given(st.floats(min_value=-1e3, max_value=1e3),
           st.floats(min_value=1e-3, max_value=1e4),
           st.integers(min_value=1, max_value=62),
           st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=24))
    @example(low=-157.0, span=168.29296875, order=54, values=[12.0])
    @settings(max_examples=300, deadline=None)
    def test_equals_the_int64_clip_below_two_to_the_63(self, low, span,
                                                        order, values):
        """Wherever the scaled value fits int64, the float clip gives
        the int64 clip's cell (the quantiser before the fix).  The
        example clipped 12.0 to ``high``, which scaled to 2**54 - 2."""
        quantizer = GridQuantizer(low, low + span, order)
        values = np.asarray(values)
        with np.errstate(invalid="ignore", over="ignore"):
            scaled = np.floor((values - quantizer.low) * quantizer._scale)
            fits = np.abs(scaled) < 2.0 ** 63
            int64_clip = np.clip(scaled.astype(np.int64), 0,
                                 quantizer.cells - 1).astype(np.uint64)
        got = quantizer.quantize(values)
        np.testing.assert_array_equal(got[fits].astype(np.uint64),
                                      int64_clip[fits])
        assert np.all(got.astype(np.uint64) <= quantizer.cells - 1)

    @given(st.floats(min_value=-1e3, max_value=1e3),
           st.floats(min_value=1e-3, max_value=1e4),
           st.integers(min_value=1, max_value=62),
           st.lists(st.floats(min_value=0.0, max_value=1e300),
                    min_size=1, max_size=8))
    @example(low=-157.0, span=168.29296875, order=54, above=[0.0])
    @settings(max_examples=300, deadline=None)
    def test_high_and_beyond_land_in_the_top_cell(self, low, span, order,
                                                  above):
        """``high`` itself, the float just past it and anything further
        out are all the top cell, at every order, silently; the domains
        below 2**53 cells keep the plain ``cells / span`` scale."""
        quantizer = GridQuantizer(low, low + span, order)
        high = quantizer.high
        values = [high, np.nextafter(high, np.inf)] + [high + a for a in above]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = quantizer.quantize(np.asarray(values))
        assert got.tolist() == [quantizer.cells - 1] * len(values)
        if order < 53:
            assert quantizer._scale == quantizer.cells / (high - low)
