"""Unit and property tests for the fixed-width codecs."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.storage import (
    ARRAY_PACK_MAGIC,
    Float64Codec,
    UIntCodec,
    pack_arrays,
    unpack_arrays,
)


class TestUIntCodec:
    def test_round_trip(self):
        codec = UIntCodec(16)
        for value in (0, 1, 2**64, 2**127, 2**128 - 1):
            assert codec.decode(codec.encode(value)) == value

    def test_width_enforced(self):
        codec = UIntCodec(2)
        with pytest.raises(ValueError):
            codec.encode(2**16)
        with pytest.raises(ValueError):
            codec.encode(-1)

    def test_byte_order_matches_numeric_order(self):
        codec = UIntCodec(8)
        values = [0, 1, 255, 256, 2**32, 2**63, 2**64 - 1]
        encoded = [codec.encode(v) for v in values]
        assert encoded == sorted(encoded)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            UIntCodec(0)

    @given(st.integers(min_value=0, max_value=2**128 - 1))
    def test_round_trip_property(self, value):
        codec = UIntCodec(16)
        assert codec.decode(codec.encode(value)) == value


class TestFloat64Codec:
    def test_round_trip_signed(self):
        codec = Float64Codec()
        for value in (-1e300, -2.5, -0.0, 0.0, 1e-12, 3.14, 1e300):
            assert codec.decode(codec.encode(value)) == value

    def test_total_order_with_negatives(self):
        codec = Float64Codec()
        values = [-1e9, -42.0, -1.5, -1e-9, 0.0, 1e-9, 1.5, 42.0, 1e9]
        encoded = [codec.encode(v) for v in values]
        assert encoded == sorted(encoded)

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_order_preserving_property(self, a, b):
        codec = Float64Codec()
        if a < b:
            assert codec.encode(a) < codec.encode(b)
        elif a > b:
            assert codec.encode(a) > codec.encode(b)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trip_property(self, value):
        codec = Float64Codec()
        decoded = codec.decode(codec.encode(value))
        assert decoded == value or (value == 0.0 and decoded == 0.0)


class TestPackArrays:
    def test_round_trip_mixed_dtypes(self):
        arrays = {
            "bytes": np.arange(24, dtype=np.uint8).reshape(6, 4),
            "offsets": np.asarray([0, 3, 6], dtype=np.int64),
            "floats": np.linspace(-1.0, 1.0, 5),
        }
        restored = unpack_arrays(pack_arrays(arrays))
        assert set(restored) == set(arrays)
        for name, array in arrays.items():
            assert restored[name].dtype == array.dtype
            np.testing.assert_array_equal(restored[name], array)

    def test_segments_are_aligned_views(self):
        buffer = np.frombuffer(
            pack_arrays({"a": np.arange(7, dtype=np.int64),
                         "b": np.ones(3, dtype=np.float64)}),
            dtype=np.uint8)
        restored = unpack_arrays(buffer)
        for array in restored.values():
            # Zero-copy (views into the buffer) and 64-byte aligned
            # relative to the container start, so over a page-aligned
            # mmap the views are safe for any dtype.
            assert array.base is not None
            assert (array.ctypes.data - buffer.ctypes.data) % 64 == 0

    def test_empty_arrays_and_empty_dict(self):
        restored = unpack_arrays(pack_arrays(
            {"none": np.empty((0, 16), dtype=np.uint8)}))
        assert restored["none"].shape == (0, 16)
        assert unpack_arrays(pack_arrays({})) == {}

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            unpack_arrays(b"NOPE" + bytes(64))
        assert pack_arrays({}).startswith(ARRAY_PACK_MAGIC)
