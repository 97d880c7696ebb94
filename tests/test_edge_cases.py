"""Targeted edge-case tests across modules."""

import numpy as np
import pytest

from repro.btree import PackedTree
from repro.devtools.nodewalk import NodeWalk
from repro.eval.harness import _padded_ratio
from repro.storage import StorageError, UIntCodec, VectorHeapFile
from repro.storage.stats import IOStats


def tree_and_walk(keys, leaf_cap):
    """Sorted keys, the value of an entry its position, as columns and as
    the node walk of the same tree."""
    raw = np.asarray(keys, dtype=">u8").view(np.uint8).reshape(-1, 8)
    values = np.arange(len(keys), dtype=">u8").view(np.uint8).reshape(-1, 8)
    tree = PackedTree(UIntCodec(8), raw, values, leaf_cap, 2)
    return tree, NodeWalk(UIntCodec(8), tree.entries(range(len(keys))),
                          leaf_cap, 2)


class TestDuplicateKeysAcrossLeaves:
    def test_get_all_spans_leaf_boundaries(self):
        """Ten identical keys with 2-entry leaves force duplicates across
        five leaves; an exact-key lookup must start at the first of them
        and walk the sibling chain."""
        tree, walk = tree_and_walk([5] * 10 + [9], leaf_cap=2)
        for key, want in ((5, list(range(10))), (9, [10])):
            raw = UIntCodec(8).encode(key)
            got = list(tree.range_entries(raw, raw, IOStats()))
            assert got == list(walk.range(raw, raw, IOStats()))
            assert [int.from_bytes(v, "big") for _, v in got] == want

    def test_nearest_with_massive_duplication(self):
        tree, walk = tree_and_walk([7] * 20, leaf_cap=3)
        raw = UIntCodec(8).encode(7)
        got = tree.entries(tree.nearest_positions(raw, 20))
        assert got == sorted(walk.nearest(raw, 20, IOStats()))
        assert len(got) == 20
        assert all(key == raw for key, _ in got)


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
