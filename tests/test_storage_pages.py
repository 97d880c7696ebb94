"""Unit tests for the fixed-size page stores."""

import numpy as np
import pytest

from repro.storage import (
    DEFAULT_PAGE_SIZE,
    InMemoryPageStore,
    StorageError,
    VectorHeapFile,
)


class TestInMemoryPageStore:
    def test_allocate_returns_sequential_ids(self):
        store = InMemoryPageStore()
        assert [store.allocate() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_new_pages_are_zeroed(self):
        store = InMemoryPageStore(page_size=64)
        page_id = store.allocate()
        assert store.read(page_id) == bytes(64)

    def test_round_trip(self):
        store = InMemoryPageStore(page_size=64)
        page_id = store.allocate()
        store.write(page_id, b"hello")
        assert store.read(page_id) == b"hello" + bytes(59)

    def test_write_full_page(self):
        store = InMemoryPageStore(page_size=32)
        page_id = store.allocate()
        payload = bytes(range(32))
        store.write(page_id, payload)
        assert store.read(page_id) == payload

    def test_oversized_write_rejected(self):
        store = InMemoryPageStore(page_size=16)
        page_id = store.allocate()
        with pytest.raises(StorageError):
            store.write(page_id, bytes(17))

    def test_out_of_range_read_rejected(self):
        store = InMemoryPageStore()
        with pytest.raises(StorageError):
            store.read(0)
        store.allocate()
        with pytest.raises(StorageError):
            store.read(1)
        with pytest.raises(StorageError):
            store.read(-1)

    def test_closed_store_rejects_everything(self):
        store = InMemoryPageStore()
        page_id = store.allocate()
        store.close()
        with pytest.raises(StorageError):
            store.read(page_id)
        with pytest.raises(StorageError):
            store.allocate()

    def test_size_bytes_counts_pages(self):
        store = InMemoryPageStore(page_size=128)
        for _ in range(3):
            store.allocate()
        assert store.size_bytes() == 3 * 128
        assert store.num_pages == 3

    def test_invalid_page_size_rejected(self):
        with pytest.raises(ValueError):
            InMemoryPageStore(page_size=0)

    def test_context_manager_closes(self):
        with InMemoryPageStore() as store:
            store.allocate()
        with pytest.raises(StorageError):
            store.allocate()

    def test_iter_page_ids(self):
        store = InMemoryPageStore()
        for _ in range(4):
            store.allocate()
        assert list(store.iter_page_ids()) == [0, 1, 2, 3]


class TestIOAccounting:
    def test_reads_and_writes_counted(self):
        store = InMemoryPageStore(page_size=32)
        page_id = store.allocate()        # allocation is not counted I/O
        store.write(page_id, b"x")
        store.write(page_id, b"y")
        store.read(page_id)
        store.read(page_id)
        assert store.stats.page_writes == 2
        assert store.stats.page_reads == 2

    def test_sequential_vs_random_classification(self):
        store = InMemoryPageStore(page_size=32)
        for _ in range(5):
            store.allocate()
        for page_id in range(5):          # strictly sequential scan
            store.read(page_id)
        assert store.stats.sequential_reads == 4
        assert store.stats.random_reads == 1  # the very first read
        store.read(0)                      # jump back: random
        assert store.stats.random_reads == 2

    def test_stats_reset(self):
        store = InMemoryPageStore(page_size=32)
        page = store.allocate()
        store.read(page)
        store.stats.reset()
        assert store.stats.page_reads == 0
        assert store.stats.page_writes == 0

    def test_stats_addition(self):
        a = InMemoryPageStore(page_size=32)
        b = InMemoryPageStore(page_size=32)
        pa, pb = a.allocate(), b.allocate()
        a.write(pa, b"x")
        b.write(pb, b"y")
        a.read(pa)
        b.read(pb)
        b.read(pb)
        combined = a.stats + b.stats
        assert combined.page_reads == 3
        assert combined.page_writes == 2

    def test_snapshot_is_plain_dict(self):
        store = InMemoryPageStore(page_size=32)
        page = store.allocate()
        store.write(page, b"z")
        snap = store.stats.snapshot()
        assert snap["page_writes"] == 1
        assert set(snap) == {
            "page_reads", "page_writes", "random_reads", "sequential_reads",
            "random_writes", "sequential_writes", "cache_hits"}


class TestFilePageStore:
    """The one page file left — the descriptor heap's: a flat file of
    whole pages, grown by appending (16 B records, 4 to a 64 B page)."""

    def test_reopen_after_close_continues_allocation(self, tmp_path):
        """Close -> reopen -> keep appending: the insert-on-loaded-snapshot
        path the persistence layer depends on."""
        path = tmp_path / "pages.bin"
        rows = np.arange(40, dtype=np.float32).reshape(10, 4)
        heap = VectorHeapFile(4, np.float32, 64, path=path)
        heap.append_batch(rows[:6])
        heap.close()
        with pytest.raises(StorageError):
            heap.fetch(0)  # a closed heap stays closed
        reopened = VectorHeapFile(4, np.float32, 64, path=path)
        reopened.restore_count(6)
        assert len(reopened.page_matrix()) == 2
        # Ids continue past the reopen, into the page left half full.
        np.testing.assert_array_equal(
            reopened.append_batch(rows[6:]), [6, 7, 8, 9])
        reopened.close()
        final = VectorHeapFile(4, np.float32, 64, path=path)
        final.restore_count(10)
        assert len(final.page_matrix()) == 3
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
