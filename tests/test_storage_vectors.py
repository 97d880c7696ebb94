"""Unit tests for the paged descriptor heap file."""

import numpy as np
import pytest

from repro.storage import StorageError, VectorHeapFile
from repro.storage.vectors import heap_file_from_array


class TestVectorHeapFile:
    def test_append_and_fetch_round_trip(self):
        heap = VectorHeapFile(dim=8, dtype=np.float32)
        vectors = np.arange(24, dtype=np.float32).reshape(3, 8)
        ids = heap.append_batch(vectors)
        assert list(ids) == [0, 1, 2]
        for object_id in ids:
            np.testing.assert_array_equal(heap.fetch(object_id),
                                          vectors[object_id])

    def test_fetch_many_preserves_order(self):
        heap = heap_file_from_array(
            np.arange(40, dtype=np.float32).reshape(5, 8))
        out = heap.fetch_many([3, 1, 4])
        np.testing.assert_array_equal(out[0], np.arange(24, 32))
        np.testing.assert_array_equal(out[1], np.arange(8, 16))

    def test_scan_returns_everything_in_order(self):
        data = np.random.default_rng(0).normal(size=(17, 6)).astype(np.float32)
        heap = heap_file_from_array(data)
        np.testing.assert_array_equal(heap.scan(), data)

    @pytest.mark.parametrize("start", [0, 3, 4, 5])
    @pytest.mark.parametrize("count", [1, 3, 4, 5, 8, 9, 23])
    def test_batch_append_writes_what_row_appends_write(self, start, count):
        """``append_batch`` against one ``append`` per row: same ids,
        byte-identical pages, for counts each side of a page boundary and
        a heap that starts empty, mid-page and page-aligned."""
        rng = np.random.default_rng([start, count])
        existing = rng.normal(size=(start, 4)).astype(np.float32)
        vectors = rng.normal(size=(count, 4))
        heaps = []
        for batched in (True, False):
            heap = VectorHeapFile(dim=4, dtype=np.float32, page_size=64)
            for row in existing:
                heap.append(row)
            writes = heap.stats.page_writes
            if batched:
                ids = heap.append_batch(vectors)
            else:
                ids = np.asarray([heap.append(row) for row in vectors])
            np.testing.assert_array_equal(
                ids, np.arange(start, start + count))
            heaps.append((heap, heap.stats.page_writes - writes))
        (batch, batch_writes), (rows, row_writes) = heaps
        assert len(batch) == len(rows) == start + count
        # Nothing is read back to patch the open page.
        assert batch.stats.page_reads == rows.stats.page_reads == 0
        np.testing.assert_array_equal(batch.page_matrix(),
                                      rows.page_matrix())
        np.testing.assert_array_equal(
            batch.scan(), np.vstack([existing, vectors]).astype(np.float32))
        # One write per page the run touches instead of one per row.
        pages = len(batch.page_matrix())
        assert batch_writes == pages - start // 4
        assert row_writes == count
        # restore_count still sees a heap that holds exactly the rows.
        batch.restore_count(start + count)
        with pytest.raises(StorageError):
            batch.restore_count(4 * pages + 1)

    def test_multi_page_records_still_append_row_by_row(self):
        heap = VectorHeapFile(dim=40, dtype=np.float32, page_size=64)
        vectors = np.arange(120, dtype=np.float32).reshape(3, 40)
        np.testing.assert_array_equal(heap.append_batch(vectors), [0, 1, 2])
        assert len(heap.page_matrix()) == 3 * 3
        assert heap.stats.page_writes == 9
        np.testing.assert_array_equal(heap.scan(), vectors)

    def test_records_packed_per_page(self):
        heap = VectorHeapFile(dim=4, dtype=np.float32, page_size=64)
        # 4 × 4 B = 16 B per record -> 4 records per 64 B page.
        assert heap.records_per_page == 4
        heap.append_batch(np.zeros((9, 4), dtype=np.float32))
        assert heap.size_bytes() == 3 * 64  # ceil(9/4) pages

    def test_fetch_counts_page_reads(self):
        data = np.zeros((8, 4), dtype=np.float32)
        heap = VectorHeapFile(dim=4, dtype=np.float32, page_size=64)
        heap.append_batch(data)
        reads_before = heap.stats.page_reads
        heap.fetch(0)
        heap.fetch(7)
        assert heap.stats.page_reads == reads_before + 2

    def test_record_spanning_multiple_pages(self):
        # 48 dims × 4 B = 192 B record on 64 B pages -> 3 pages per record.
        heap = VectorHeapFile(dim=48, dtype=np.float32, page_size=64)
        vectors = np.random.default_rng(1).normal(
            size=(3, 48)).astype(np.float32)
        heap.append_batch(vectors)
        for object_id in range(3):
            np.testing.assert_array_equal(heap.fetch(object_id),
                                          vectors[object_id])
        reads_before = heap.stats.page_reads
        heap.fetch(1)
        assert heap.stats.page_reads == reads_before + 3

    def test_unknown_id_rejected(self):
        heap = heap_file_from_array(np.zeros((2, 4), dtype=np.float32))
        with pytest.raises(StorageError):
            heap.fetch(2)
        with pytest.raises(StorageError):
            heap.fetch(-1)

    def test_wrong_shape_rejected(self):
        heap = VectorHeapFile(dim=4)
        with pytest.raises(ValueError):
            heap.append_batch(np.zeros((2, 5), dtype=np.float32))

    def test_invalid_dim_rejected(self):
        with pytest.raises(ValueError):
            VectorHeapFile(dim=0)

    def test_dtype_is_respected(self):
        heap = VectorHeapFile(dim=4, dtype=np.float64)
        heap.append(np.asarray([0.1, 0.2, 0.3, 0.4]))
        got = heap.fetch(0)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, [0.1, 0.2, 0.3, 0.4])

    def test_float32_rounding_is_visible(self):
        heap = VectorHeapFile(dim=1, dtype=np.float32)
        heap.append(np.asarray([1.0 + 1e-12]))
        assert heap.fetch(0)[0] == np.float32(1.0)

    def test_len_tracks_appends(self):
        heap = VectorHeapFile(dim=4)
        assert len(heap) == 0
        heap.append_batch(np.zeros((5, 4), dtype=np.float32))
        assert len(heap) == 5

    def test_empty_scan(self):
        heap = VectorHeapFile(dim=3)
        assert heap.scan().shape == (0, 3)

    def test_cache_pages_reduces_reads(self):
        data = np.zeros((8, 4), dtype=np.float32)
        cached = VectorHeapFile(dim=4, dtype=np.float32, page_size=64,
                                cache_pages=4)
        cached.append_batch(data)
        cached.stats.reset()
        cached.fetch(0)   # appends do not warm the modelled pool
        cached.fetch(1)   # same page, now resident
        cached.fetch(7)
        cached.fetch(2)
        assert cached.stats.page_reads == 2
        assert cached.stats.cache_hits == 2
        assert cached.memory_bytes() == 2 * 64
        cached.clear_cache()
        cached.fetch(0)
        assert cached.stats.page_reads == 3


class TestEmptyGather:
    """Regression: an empty id set (the Algo.-2 refinement stage when no
    candidate survives) must return an empty result WITHOUT touching the
    store, the buffer pool, or the IOStats accountant."""

    def _poison(self, heap):
        """Make any access to the pages or the accountant blow up so the
        contract is structural, not just observed-by-counter."""
        def boom(*_args, **_kwargs):
            raise AssertionError("heap touched for an empty gather")
        heap._live = heap._records = heap.record_read_many = boom

    @pytest.mark.parametrize("cache_pages", [0, 4])
    def test_memory_store_untouched(self, cache_pages):
        heap = VectorHeapFile(dim=6, dtype=np.float32,
                              cache_pages=cache_pages)
        heap.append_batch(np.zeros((9, 6), dtype=np.float32))
        snapshot = heap.stats.snapshot()
        self._poison(heap)
        for empty in ([], np.empty(0, dtype=np.int64),
                      np.empty((0,), dtype=np.float64)):
            out = heap.gather(empty)
            assert out.shape == (0, 6) and out.dtype == np.float32
        assert heap.fetch_many([]).shape == (0, 6)
        assert heap.stats.snapshot() == snapshot

    @pytest.mark.parametrize("cache_pages", [0, 4])
    def test_mmap_store_untouched(self, tmp_path, cache_pages):
        heap = VectorHeapFile(dim=6, dtype=np.float32,
                              cache_pages=cache_pages,
                              path=tmp_path / "d.pages")
        heap.append_batch(np.ones((9, 6), dtype=np.float32))
        snapshot = heap.stats.snapshot()
        self._poison(heap)
        out = heap.gather(np.empty(0, dtype=np.int64))
        assert out.shape == (0, 6)
        assert heap.stats.snapshot() == snapshot
        heap.close()

    def test_sequential_classification_unperturbed(self):
        """An interleaved empty gather must not disturb the random/
        sequential read classification of its neighbours."""
        data = np.zeros((64, 32), dtype=np.float32)
        plain = heap_file_from_array(data, page_size=256)
        probe = heap_file_from_array(data, page_size=256)
        per_page = plain.records_per_page
        plain.gather([0, per_page, 2 * per_page])
        probe.gather([0, per_page])
        probe.gather([])
        probe.gather([2 * per_page])
        assert probe.stats.snapshot() == plain.stats.snapshot()

    def test_engine_rerank_skips_heap_on_empty_survivors(self):
        """Engine-level: once every point is deleted, query and
        query_batch must answer without a single heap read."""
        from repro.core import HDIndex, HDIndexParams
        data = np.random.default_rng(3).normal(size=(20, 8))
        index = HDIndex(HDIndexParams(num_trees=2, hilbert_order=5,
                                      num_references=3, alpha=8, seed=0))
        index.build(data)
        for object_id in range(20):
            index.delete(object_id)
        self._poison(index.heap)
        ids, dists = index.query(np.zeros(8), k=4)
        assert ids.shape == (0,) and dists.shape == (0,)
        batch_ids, _ = index.query_batch(np.zeros((2, 8)), k=4)
        assert np.all(batch_ids == -1)
