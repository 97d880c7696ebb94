"""Unit tests for page I/O accounting and the heap's page file."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.storage import (
    DEFAULT_PAGE_SIZE,
    IOStats,
    StorageError,
    VectorHeapFile,
)
from repro.storage.pages import replace_file


class TestIOAccounting:
    def test_reads_and_writes_counted(self):
        stats = IOStats()
        stats.record_write(0)
        stats.record_write(0)
        stats.record_read(0)
        stats.record_read(0)
        assert stats.page_writes == 2
        assert stats.page_reads == 2

    def test_sequential_vs_random_classification(self):
        stats = IOStats()
        for page_id in range(5):          # strictly sequential scan
            stats.record_read(page_id)
        assert stats.sequential_reads == 4
        assert stats.random_reads == 1  # the very first read
        stats.record_read(0)              # jump back: random
        assert stats.random_reads == 2

    def test_stats_reset(self):
        stats = IOStats()
        stats.record_read(0)
        stats.reset()
        assert stats.page_reads == 0
        assert stats.page_writes == 0

    def test_stats_addition(self):
        a, b = IOStats(), IOStats()
        a.record_write(0)
        b.record_write(0)
        a.record_read(0)
        b.record_read(0)
        b.record_read(0)
        combined = a + b
        assert combined.page_reads == 3
        assert combined.page_writes == 2

    def test_snapshot_is_plain_dict(self):
        stats = IOStats()
        stats.record_write(0)
        snap = stats.snapshot()
        assert snap["page_writes"] == 1
        assert set(snap) == {
            "page_reads", "page_writes", "random_reads", "sequential_reads",
            "random_writes", "sequential_writes", "cache_hits"}

    @pytest.mark.parametrize("prior,first,count", [
        ([], 0, 5), ([], 3, 1), ([0, 1, 2], 3, 4), ([7], 0, 3), ([4], 9, 0)])
    def test_write_run_is_one_sequential_pass(self, prior, first, count):
        """record_write_run counts what record_write page by page does:
        the first page sequential only if it follows the last write."""
        run, one_by_one = IOStats(), IOStats()
        for stats in (run, one_by_one):
            for page_id in prior:
                stats.record_write(page_id)
        run.record_write_run(first, count)
        for page_id in range(first, first + count):
            one_by_one.record_write(page_id)
        assert run == one_by_one
        run.record_write(first + count)
        one_by_one.record_write(first + count)
        assert run == one_by_one

    @given(st.lists(st.integers(0, 20), max_size=6),
           st.lists(st.integers(0, 20), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_read_many_matches_read_one_by_one(self, prior, batch):
        many, one_by_one = IOStats(), IOStats()
        for stats in (many, one_by_one):
            for page_id in prior:
                stats.record_read(page_id)
        many.record_read_many(np.asarray(batch, dtype=np.int64))
        for page_id in batch:
            one_by_one.record_read(page_id)
        assert many == one_by_one


class TestFilePageStore:
    """The one page file left — the descriptor heap's: a flat file of
    whole pages, grown by appending (16 B records, 4 to a 64 B page)."""

    @pytest.mark.parametrize("offset,stored,pages", [
        (0.5, "float32", (2, 3)), (0.0, "uint8", (1, 1))])
    def test_reopen_after_close_continues_allocation(self, tmp_path, offset,
                                                     stored, pages):
        """Close -> reopen -> keep appending: the insert-on-loaded-snapshot
        path the persistence layer depends on, for float32 records and
        for integers stored a byte a value (4 B records, 16 a page)."""
        path = tmp_path / "pages.bin"
        rows = np.arange(40, dtype=np.float32).reshape(10, 4) + offset
        heap = VectorHeapFile(4, np.float32, 64, path=path)
        heap.append_batch(rows[:6])
        assert heap.stored_dtype == stored
        heap.close()
        with pytest.raises(StorageError):
            heap.fetch(0)  # a closed heap stays closed
        reopened = VectorHeapFile(4, np.float32, 64, path=path)
        reopened.restore_count(6, stored)
        assert len(reopened.page_matrix()) == pages[0]
        # Ids continue past the reopen, into the page left half full.
        np.testing.assert_array_equal(
            reopened.append_batch(rows[6:]), [6, 7, 8, 9])
        reopened.close()
        final = VectorHeapFile(4, np.float32, 64, path=path)
        final.restore_count(10, stored)
        assert len(final.page_matrix()) == pages[1]
        np.testing.assert_array_equal(final.scan(), rows)
        final.close()

    def test_flush_then_reopen_sees_writes(self, tmp_path):
        """Appends are ordinary file writes: a second opener of the file
        sees them without the first closing."""
        path = tmp_path / "pages.bin"
        heap = VectorHeapFile(4, np.float32, 64, path=path)
        heap.append(np.full(4, 2.5))
        heap.sync()
        parallel_view = VectorHeapFile(4, np.float32, 64, path=path)
        parallel_view.restore_count(1)
        np.testing.assert_array_equal(parallel_view.fetch(0), np.full(4, 2.5))
        parallel_view.close()
        heap.close()

    def test_default_page_size_is_paper_value(self):
        assert DEFAULT_PAGE_SIZE == 4096
        assert VectorHeapFile(4).page_size == 4096

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_closed_heap_rejects_everything(self, tmp_path, on_disk):
        path = tmp_path / "pages.bin" if on_disk else None
        heap = VectorHeapFile(4, np.float32, 64, path=path)
        heap.append_batch(np.ones((5, 4)))
        heap.close()
        heap.close()  # idempotent
        for call in (lambda: heap.fetch(0), lambda: heap.gather([1, 2]),
                     heap.scan, heap.page_matrix, lambda: heap.restore_count(1),
                     lambda: heap.append(np.zeros(4))):
            with pytest.raises(StorageError, match="closed"):
                call()

    @pytest.mark.parametrize("dim,records,pages,stored_pages", [
        (4, 0, 0, 0), (4, 1, 1, 1), (4, 4, 1, 1), (4, 5, 2, 1),
        (4, 9, 3, 1), (32, 3, 6, 2)])
    def test_size_bytes_counts_whole_pages(self, dim, records, pages,
                                           stored_pages):
        """The model's 16-byte records fill a 64-byte page four at a time;
        a 128-byte record takes two pages of its own.  The file stores the
        zeros a byte a value: 4 B records sixteen a page, 32 B two."""
        heap = VectorHeapFile(dim, np.float32, 64)
        heap.append_batch(np.zeros((records, dim)))
        assert heap.size_bytes() == pages * 64
        assert heap.page_matrix().shape == (stored_pages, 64)
        assert heap.stats.page_writes == pages

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_unused_page_bytes_are_zeroed(self, tmp_path, on_disk):
        """Past the last record a page holds zeros, in memory and in the
        page file: five 12-byte records leave 4 bytes of page 0, and the
        sixth opens page 1."""
        path = tmp_path / "pages.bin" if on_disk else None
        heap = VectorHeapFile(3, np.float32, 64, path=path)
        heap.append_batch(np.full((5, 3), -1.0))
        heap.append(np.full(3, -2.0))
        matrix = heap.page_matrix()
        assert matrix.shape == (2, 64)
        assert not matrix[0, 5 * 12:].any()
        assert not matrix[1, 12:].any()
        assert matrix[1, :12].tobytes() == np.full(3, -2.0,
                                                    np.float32).tobytes()
        if on_disk:
            assert (tmp_path / "pages.bin").read_bytes() == matrix.tobytes()
        heap.close()

    @pytest.mark.parametrize("data", ["text snapshot\n", b"\x00\x01bytes"])
    def test_replace_file_swaps_whole_file(self, tmp_path, data):
        path = tmp_path / "meta"
        path.write_bytes(b"an older and longer file" * 10)
        replace_file(path, data)
        expected = data.encode() if isinstance(data, str) else data
        assert path.read_bytes() == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == ["meta"]
