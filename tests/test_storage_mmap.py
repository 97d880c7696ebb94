"""Unit tests for the descriptor heap's page file and its gather."""

import os

import numpy as np
import pytest

from repro.storage import (
    IOStats,
    StorageError,
    VectorHeapFile,
    heap_file_from_array,
)
from test_backend_parity import _is_mapped


def _rows(count, dim=4, seed=0):
    return np.random.default_rng(seed).normal(
        size=(count, dim)).astype(np.float32)


class TestMmapPageStore:
    """The heap served from a page file (16 B records, 4 to a 64 B page)."""

    def _heap(self, path, page_size=64):
        return VectorHeapFile(4, np.float32, page_size, path=path)

    def test_round_trip(self, tmp_path):
        heap = self._heap(tmp_path / "pages.bin")
        rows = _rows(6)
        np.testing.assert_array_equal(heap.append_batch(rows), np.arange(6))
        np.testing.assert_array_equal(heap.gather([5, 0]), rows[[5, 0]])
        assert bytes(heap.page_matrix()[1, 32:]) == bytes(32)  # zero-padded
        heap.close()

    def test_read_is_zero_copy_view(self, tmp_path):
        heap = self._heap(tmp_path / "pages.bin")
        heap.append_batch(_rows(6))
        matrix = heap.page_matrix()
        assert _is_mapped(matrix) and not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 1
        # What gather hands out is the caller's own copy.
        assert heap.gather([0]).flags.writeable
        heap.close()

    def test_file_holds_exactly_the_pages(self, tmp_path):
        """No over-allocation: after every append the file is the
        matrix, a whole number of pages."""
        path = tmp_path / "pages.bin"
        heap = self._heap(path)
        assert os.path.getsize(path) == 0
        for count, pages in ((3, 1), (1, 1), (1, 2), (9, 4)):
            heap.append_batch(_rows(count))
            assert os.path.getsize(path) == pages * 64
            assert path.read_bytes() == heap.page_matrix().tobytes()
        heap.close()
        assert os.path.getsize(path) == 4 * 64

    def test_reopen_existing_file(self, tmp_path):
        path = tmp_path / "pages.bin"
        rows = _rows(5)
        first = self._heap(path)
        first.append_batch(rows)
        first.close()
        heap = self._heap(path)
        assert len(heap.page_matrix()) == 2 and len(heap) == 0
        heap.restore_count(5)
        np.testing.assert_array_equal(heap.scan(), rows)
        heap.close()

    def test_reopen_with_wrong_page_size_rejected(self, tmp_path):
        path = tmp_path / "pages.bin"
        heap = self._heap(path)
        heap.append_batch(_rows(1))
        heap.close()
        with pytest.raises(StorageError):
            self._heap(path, page_size=48)
        with pytest.raises(StorageError):
            VectorHeapFile(4, np.float32, 48).read(path)

    def test_growth_keeps_old_views_alive(self, tmp_path):
        heap = self._heap(tmp_path / "pages.bin")
        rows = _rows(300)
        heap.append_batch(rows[:3])
        matrix = heap.page_matrix()
        # Many appends, each one a file write and a fresh mapping; the
        # first fills the open slot of the page the old matrix maps, and
        # none touches a record it already held.
        for start in range(3, 300, 11):
            heap.append_batch(rows[start:start + 11])
        assert matrix.shape == (1, 64)
        assert matrix[0, :48].tobytes() == rows[:3].tobytes()
        np.testing.assert_array_equal(heap.scan(), rows)
        heap.close()

    def test_close_trims_even_with_live_numpy_views(self, tmp_path):
        path = tmp_path / "pages.bin"
        heap = self._heap(path)
        rows = _rows(2)
        heap.append_batch(rows)
        matrix = heap.page_matrix()
        heap.close()
        heap.close()  # idempotent
        assert os.path.getsize(path) == 64
        # The exported view still reads the mapped data after close.
        assert matrix[0, :16].tobytes() == rows[0].tobytes()
        for closed_call in (lambda: heap.gather([0]),
                            lambda: heap.append_batch(rows),
                            heap.page_matrix):
            with pytest.raises(StorageError):
                closed_call()
        assert os.path.getsize(path) == 64 and len(heap) == 2

    def test_page_matrix_tracks_allocation(self, tmp_path):
        heap = self._heap(tmp_path / "pages.bin", page_size=32)
        assert heap.page_matrix().shape == (0, 32)
        heap.append_batch(_rows(2))
        assert heap.page_matrix().shape == (1, 32)
        heap.append_batch(_rows(1, seed=1))
        matrix = heap.page_matrix()
        assert matrix.shape == (2, 32)
        assert matrix[1, :16].tobytes() == _rows(1, seed=1).tobytes()
        heap.close()


class TestRecordReadMany:
    def test_matches_sequential_record_read(self):
        loop, bulk = IOStats(), IOStats()
        pattern = [0, 1, 2, 5, 6, 3, 4, 5, 6, 7, 0]
        for page_id in pattern:
            loop.record_read(page_id)
        bulk.record_read_many(np.asarray(pattern))
        assert loop.snapshot() == bulk.snapshot()
        # A follow-up single read continues the same run.
        loop.record_read(1)
        bulk.record_read(1)
        assert loop.snapshot() == bulk.snapshot()

    def test_empty_batch_is_a_no_op(self):
        stats = IOStats()
        stats.record_read_many(np.empty(0, dtype=np.int64))
        assert stats.page_reads == 0


class TestHeapGather:
    def _heaps(self, tmp_path, data, dtype="float32", page_size=256):
        mapped = heap_file_from_array(data, dtype=dtype, page_size=page_size,
                                      path=tmp_path / "m.pages")
        memory = heap_file_from_array(data, dtype=dtype, page_size=page_size)
        return mapped, memory

    def test_gather_matches_loop_fetch(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(40, 12))
        mapped, memory = self._heaps(tmp_path, data)
        ids = np.array([7, 0, 39, 7, 12])
        np.testing.assert_array_equal(mapped.gather(ids), memory.gather(ids))
        np.testing.assert_array_equal(
            mapped.gather(ids), np.stack([mapped.fetch(i) for i in ids]))
        mapped.close()
        memory.close()

    def test_gather_accounting_matches_loop(self, tmp_path):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(40, 12))
        mapped, memory = self._heaps(tmp_path, data)
        ids = np.array([3, 4, 5, 30, 0, 1])
        mapped.stats.reset()
        memory.stats.reset()
        mapped.gather(ids)
        for object_id in ids:
            memory.fetch(object_id)
        assert mapped.stats.snapshot() == memory.stats.snapshot()
        assert mapped.stats.page_reads == len(ids)
        mapped.close()
        memory.close()

    def test_gather_multi_page_records(self, tmp_path):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(10, 100))  # 800 B float64 > 256 B pages
        mapped, memory = self._heaps(tmp_path, data, dtype="float64")
        assert mapped._pages_per_record > 1
        ids = np.array([9, 0, 4, 4])
        np.testing.assert_array_equal(mapped.gather(ids), memory.gather(ids))
        mapped.stats.reset()
        memory.stats.reset()
        mapped.gather(ids)
        memory.gather(ids)
        assert mapped.stats.snapshot() == memory.stats.snapshot()
        mapped.close()
        memory.close()

    def test_gather_after_insert(self, tmp_path):
        data = np.arange(24, dtype=np.float64).reshape(6, 4)
        heap = heap_file_from_array(
            data, page_size=64, path=tmp_path / "m.pages")
        new_id = heap.append(np.full(4, 9.5))
        got = heap.gather([new_id, 0])
        np.testing.assert_array_equal(got[0], np.full(4, 9.5, np.float32))
        np.testing.assert_array_equal(got[1], data[0].astype(np.float32))
        heap.close()

    def test_gather_rejects_bad_ids(self, tmp_path):
        data = np.zeros((4, 3))
        heap = heap_file_from_array(
            data, page_size=64, path=tmp_path / "m.pages")
        with pytest.raises(StorageError):
            heap.gather([0, 4])
        with pytest.raises(StorageError):
            heap.gather([-1])
        assert heap.gather([]).shape == (0, 3)
        heap.close()

    def test_fetch_many_delegates_to_gather(self, tmp_path):
        data = np.arange(12, dtype=np.float64).reshape(3, 4)
        heap = heap_file_from_array(
            data, page_size=64, path=tmp_path / "m.pages")
        np.testing.assert_array_equal(
            heap.fetch_many([2, 1]), data[[2, 1]].astype(np.float32))
        heap.close()


class TestVectorHeapOnMmap:
    def test_append_persists_across_backends(self, tmp_path):
        path = tmp_path / "heap.pages"
        data = np.arange(20, dtype=np.float64).reshape(5, 4)
        heap = heap_file_from_array(data, page_size=64, path=path)
        heap.append(np.full(4, 7.0))
        count, stored = len(heap), heap.stored_dtype
        heap.close()
        reopened = VectorHeapFile(dim=4, dtype=np.float32, page_size=64)
        reopened.read(path)
        reopened.restore_count(count, stored)
        np.testing.assert_array_equal(
            reopened.fetch(count - 1), np.full(4, 7.0, np.float32))
        reopened.close()
