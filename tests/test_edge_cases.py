"""Targeted edge-case tests across modules."""

import numpy as np
import pytest

from repro.btree import BPlusTree
from repro.eval.harness import _padded_ratio
from repro.storage import StorageError, UInt64Codec, UIntCodec, VectorHeapFile


class TestDuplicateKeysAcrossLeaves:
    def test_get_all_spans_leaf_boundaries(self):
        """Ten identical keys with 2-entry leaves force duplicates across
        five leaves; get_all must walk the sibling chain."""
        kc, vc = UIntCodec(8), UInt64Codec()
        tree = BPlusTree(kc, vc, leaf_capacity_override=2)
        entries = [(5, v) for v in range(10)] + [(9, 99)]
        tree.bulk_load((kc.encode(k), vc.encode(v))
                       for k, v in sorted(entries))
        values = sorted(vc.decode(raw) for raw in tree.get_all(kc.encode(5)))
        assert values == list(range(10))
        assert [vc.decode(raw) for raw in tree.get_all(kc.encode(9))] == [99]

    def test_nearest_with_massive_duplication(self):
        kc, vc = UIntCodec(8), UInt64Codec()
        tree = BPlusTree(kc, vc, leaf_capacity_override=3)
        tree.bulk_load((kc.encode(7), vc.encode(v)) for v in range(20))
        got = tree.nearest(kc.encode(7), 20)
        assert len(got) == 20
        assert all(kc.decode(k) == 7 for k, _ in got)


class TestPaddedRatio:
    def test_empty_results_get_worst_case_padding(self):
        true = np.asarray([1.0, 2.0])
        value = _padded_ratio(true, np.asarray([]), k=2)
        assert value > 1.0

    def test_short_results_padded_with_own_worst(self):
        true = np.asarray([1.0, 2.0, 4.0])
        value = _padded_ratio(true, np.asarray([1.0]), k=3)
        # Pads ranks 2-3 with 1.0: (1/1 + 1/2 + 1/4) / 3.
        assert value == pytest.approx((1.0 + 0.5 + 0.25) / 3)

    def test_full_results_unchanged(self):
        true = np.asarray([1.0, 2.0])
        value = _padded_ratio(true, np.asarray([2.0, 2.0]), k=2)
        assert value == pytest.approx(1.5)


class TestFilePageStoreLifecycle:
    """The descriptor heap's page file across close and reopen."""

    def test_grow_after_reopen(self, tmp_path):
        path = tmp_path / "grow.pages"
        heap = VectorHeapFile(2, np.float64, 64, path=path)
        assert heap.append(np.asarray([1.0, 1.5])) == 0
        heap.close()
        reopened = VectorHeapFile(2, np.float64, 64, path=path)
        reopened.restore_count(1)
        assert reopened.append(np.asarray([2.0, 2.5])) == 1
        np.testing.assert_array_equal(reopened.fetch(0), [1.0, 1.5])
        np.testing.assert_array_equal(reopened.fetch(1), [2.0, 2.5])
        reopened.close()

    def test_write_after_close_rejected(self, tmp_path):
        path = tmp_path / "x.pages"
        heap = VectorHeapFile(2, np.float64, 64, path=path)
        heap.append(np.zeros(2))
        heap.close()
        with pytest.raises(StorageError):
            heap.append(np.ones(2))
        assert path.read_bytes() == bytes(64)

    def test_double_close_is_safe(self, tmp_path):
        for path in (tmp_path / "y.pages", None):
            heap = VectorHeapFile(2, np.float64, 64, path=path)
            heap.close()
            heap.close()


class TestHilbertExtremes:
    def test_maximum_coordinate_round_trip(self):
        from repro.hilbert import HilbertCurve
        curve = HilbertCurve(4, 8)
        point = [255, 255, 255, 255]
        assert curve.decode(curve.encode(point)) == point

    def test_order_62_single_dim(self):
        from repro.hilbert import HilbertCurve
        curve = HilbertCurve(1, 62)
        value = (1 << 62) - 1
        assert curve.encode([value]) == value

    def test_batch_of_one(self):
        from repro.hilbert import HilbertCurve
        curve = HilbertCurve(3, 5)
        keys = curve.encode_batch(np.asarray([[1, 2, 3]]))
        assert keys.shape == (1,)
        assert curve.decode(int(keys[0])) == [1, 2, 3]
