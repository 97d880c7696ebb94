"""Unit tests for the paged descriptor heap file."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    HDIndex,
    HDIndexParams,
    IndexSpec,
    build,
    load_index,
)
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

    @pytest.mark.parametrize("rows, page_size", [
        (np.arange(17 * 6, dtype=np.float64).reshape(17, 6) + 0.5, 64),
        (np.arange(300 * 128).reshape(300, 128) % 256.0, 4096),  # u1 rows
        (np.arange(3 * 48, dtype=np.float64).reshape(3, 48) + 0.5, 64),
    ], ids=["paged", "narrow", "spanning"])
    def test_scan_reads_each_page_once_in_one_run(self, rows, page_size):
        heap = heap_file_from_array(rows, page_size=page_size)
        pages = heap.size_bytes() // page_size
        for scans in (1, 2):
            np.testing.assert_array_equal(
                heap.scan(), heap_file_from_array(
                    rows, page_size=page_size).gather(np.arange(len(rows))))
            assert (heap.stats.page_reads, heap.stats.random_reads,
                    heap.stats.sequential_reads) == (
                scans * pages, scans, scans * (pages - 1))

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
        # Fractions: stored as float32, 160 B records over three pages.
        vectors = np.arange(120, dtype=np.float32).reshape(3, 40) + 0.5
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

    @pytest.mark.parametrize("page_size", [0, -64])
    def test_invalid_page_size_rejected(self, page_size):
        with pytest.raises(ValueError, match="page_size must be positive"):
            VectorHeapFile(dim=4, page_size=page_size)

    def test_page_size_sets_the_page_matrix(self):
        """The heap owns its page size: the page matrix is that wide, and
        a gather counts the page of each record it reads, in order."""
        data = np.arange(40, dtype=np.float32).reshape(10, 4) + 0.5
        heap = heap_file_from_array(data, page_size=48)  # 3 records a page
        assert heap.stored_dtype == np.float32
        assert heap.page_size == 48
        assert heap.page_matrix().shape == (4, 48)
        heap.stats.reset()
        np.testing.assert_array_equal(heap.gather([0, 2, 3, 9]),
                                      data[[0, 2, 3, 9]])
        # Pages 0, 0, 1, 3: the repeat counts, and only 0 -> 1 is sequential.
        assert (heap.stats.page_reads, heap.stats.random_reads,
                heap.stats.sequential_reads) == (4, 3, 1)

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

    def test_every_fetch_is_counted(self):
        """No page is cached: a fetch of a page read just before counts
        again, as the paper's caching-off runs count it."""
        heap = VectorHeapFile(dim=4, dtype=np.float32, page_size=64)
        heap.append_batch(np.zeros((8, 4), dtype=np.float32))
        heap.stats.reset()
        for object_id in (0, 1, 7, 2, 0):  # pages 0, 0, 1, 0, 0
            heap.fetch(object_id)
        assert (heap.stats.page_reads, heap.stats.sequential_reads) == (5, 1)


class TestEmptyGather:
    """Regression: an empty id set (the Algo.-2 refinement stage when no
    candidate survives) must return an empty result WITHOUT touching the
    store or the IOStats accountant."""

    def _poison(self, heap):
        """Make any access to the pages or the accountant blow up so the
        contract is structural, not just observed-by-counter."""
        def boom(*_args, **_kwargs):
            raise AssertionError("heap touched for an empty gather")
        heap._live = heap._records = heap.stats.record_read_many = boom

    def test_memory_store_untouched(self):
        heap = VectorHeapFile(dim=6, dtype=np.float32)
        heap.append_batch(np.zeros((9, 6), dtype=np.float32))
        snapshot = heap.stats.snapshot()
        self._poison(heap)
        for empty in ([], np.empty(0, dtype=np.int64),
                      np.empty((0,), dtype=np.float64)):
            out = heap.gather(empty)
            assert out.shape == (0, 6) and out.dtype == np.float32
        assert heap.fetch_many([]).shape == (0, 6)
        assert heap.stats.snapshot() == snapshot

    def test_mmap_store_untouched(self, tmp_path):
        heap = VectorHeapFile(dim=6, dtype=np.float32,
                              path=tmp_path / "d.pages")
        heap.append_batch(np.ones((9, 6), dtype=np.float32))
        snapshot = heap.stats.snapshot()
        self._poison(heap)
        out = heap.gather(np.empty(0, dtype=np.int64))
        assert out.shape == (0, 6)
        assert heap.stats.snapshot() == snapshot
        heap.close()

    def test_spanning_store_untouched(self):
        """Records wider than a page span pages: still nothing is read."""
        heap = heap_file_from_array(np.ones((5, 100), dtype=np.float32),
                                    page_size=256)
        snapshot = heap.stats.snapshot()
        self._poison(heap)
        out = heap.gather(np.empty(0, dtype=np.int64))
        assert out.shape == (0, 100) and out.dtype == np.float32
        assert heap.stats.snapshot() == snapshot

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


#: Values each side of the narrow widths' edges: -0.0 and fractions and
#: negatives keep records wide, 255 / 256 / 65,535 / 65,536 pick u1 /
#: u2 / u2 / u4.
EDGES = [0.0, -0.0, 1.0, 7.0, 255.0, 255.5, 256.0, 65535.0, 65536.0,
         2.0 ** 32, -1.0, -3.5, 0.25, 1e20]


def round_trips(values, width, dtype):
    """``values`` (of ``dtype``) come back bit for bit through ``width``
    (an out-of-range cast gives garbage, never the value)."""
    bits = np.dtype(f"u{dtype.itemsize}")
    with np.errstate(invalid="ignore", over="ignore"):
        back = values.astype(width).astype(dtype)
    return np.array_equal(back.view(bits), values.view(bits))


def lossless_width(values, dtype):
    """Oracle: the narrowest unsigned dtype, narrower than ``dtype``,
    that ``values`` round-trip through; else ``dtype``."""
    for width in map(np.dtype, (np.uint8, np.uint16, np.uint32)):
        if width.itemsize < dtype.itemsize and round_trips(values, width,
                                                           dtype):
            return width
    return dtype


class TestNarrowRecords:
    """Integer-valued records are stored at the narrowest lossless width;
    the page model, and every value read back, are the storage dtype's."""

    @settings(max_examples=150, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]),
           dim=st.integers(1, 5),
           first=st.lists(st.one_of(st.sampled_from(EDGES),
                                    st.integers(0, 300).map(float)),
                          min_size=1, max_size=40),
           later=st.lists(st.one_of(st.sampled_from(EDGES),
                                    st.integers(0, 300).map(float)),
                          max_size=40),
           on_disk=st.booleans())
    def test_narrow_exactly_when_the_round_trip_is_lossless(
            self, dtype, dim, first, later, on_disk):
        dtype = np.dtype(dtype)
        chunks = [np.resize(np.asarray(values, dtype=dtype),
                            (-(-len(values) // dim), dim))
                  for values in (first, later)]
        with tempfile.TemporaryDirectory() as tmp:
            heap = VectorHeapFile(dim, dtype, page_size=64, path=(
                os.path.join(tmp, "d.pages") if on_disk else None))
            heap.append_batch(chunks[0])
            chosen = lossless_width(chunks[0], dtype)
            assert heap.stored_dtype == chosen
            heap.append_batch(chunks[1])
            if not round_trips(chunks[1], chosen, dtype):
                chosen = dtype  # widened once, never narrowed again
            assert heap.stored_dtype == chosen
            values = np.vstack(chunks)
            got = heap.scan()
            assert got.dtype == chosen
            bits = np.dtype(f"u{dtype.itemsize}")
            assert got.astype(dtype).view(bits).tobytes() \
                == values.view(bits).tobytes()
            # The model's pages: storage-dtype records, written once.
            assert heap.size_bytes() == -(-len(values)
                                          // heap.records_per_page) \
                * heap._pages_per_record * 64
            record = dim * chosen.itemsize
            assert len(heap.page_matrix()) == -(-len(values) // max(
                1, 64 // record)) * -(-record // 64)
            heap.close()

    def test_page_model_reads_like_a_wide_heap(self):
        """Same ids, same counted page ids: u1 records 32 to a 4 KiB page,
        the model's float32 records 8."""
        rng = np.random.default_rng(3)
        values = rng.integers(0, 256, size=(300, 128)).astype(np.float64)
        narrow = heap_file_from_array(values)
        wide = heap_file_from_array(values + 0.5)
        assert narrow.stored_dtype == np.uint8
        assert wide.stored_dtype == np.float32
        assert len(narrow.page_matrix()) == 10
        assert len(wide.page_matrix()) == narrow.size_bytes() // 4096 == 38
        assert narrow.stats.snapshot() == wide.stats.snapshot()
        for ids in ([5, 6, 290, 17], rng.integers(0, 300, 50), [299]):
            np.testing.assert_array_equal(narrow.gather(ids),
                                          values[ids].astype(np.uint8))
            wide.gather(ids)
        assert narrow.stats.snapshot() == wide.stats.snapshot()

    def test_restore_refuses_a_count_the_pages_cannot_hold(self):
        heap = heap_file_from_array(np.ones((4, 4)), page_size=64)
        heap.restore_count(16, "uint8")  # sixteen 4 B records a page
        with pytest.raises(StorageError, match="at most 16"):
            heap.restore_count(17, "uint8")
        with pytest.raises(StorageError, match="at most 4"):
            heap.restore_count(5, "float32")

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_widening_keeps_a_mapped_reader_whole(self, tmp_path, on_disk):
        path = tmp_path / "d.pages" if on_disk else None
        heap = VectorHeapFile(4, np.float32, 64, path=path)
        heap.append_batch(np.arange(24.0).reshape(6, 4))
        before = heap.page_matrix()
        narrow = before.tobytes()
        heap.append_batch(np.full((2, 4), 0.5))
        assert heap.stored_dtype == np.float32
        assert before.tobytes() == narrow  # the old pages, untouched
        np.testing.assert_array_equal(
            heap.scan(), np.vstack([np.arange(24.0).reshape(6, 4),
                                    np.full((2, 4), 0.5)]))
        assert heap.stats.page_writes == 2 + 1  # the model's, no rewrite
        heap.close()


def drive_counted(index, queries):
    """Answers and every counter of QueryStats for each query, then for
    the batch of all of them."""
    out = []
    for rows in [query[None, :] for query in queries] + [queries]:
        ids, dists = index.query_batch(rows, 10)
        stats = index.last_query_stats()
        out.append((ids.tolist(), dists.tolist(), stats.page_reads,
                    stats.random_reads, stats.sequential_reads,
                    stats.candidates, stats.distance_computations))
    return out


class TestWidening:
    """A narrow heap that meets fractional rows is rewritten wide once:
    answers, counters and the heap's bytes are then a one-shot build's
    (exhaustive budgets, fixed domain)."""

    TOTAL = 340

    @pytest.fixture(scope="class")
    def rows(self):
        rng = np.random.default_rng(7)
        base = rng.integers(0, 101, size=(300, 8)).astype(float)
        extra = rng.uniform(0.0, 100.0, size=(self.TOTAL - 300, 8))
        return base, extra, rng.uniform(0.0, 100.0, size=(6, 8))

    def params(self, **overrides):
        return HDIndexParams(**{**dict(
            num_trees=2, hilbert_order=6, num_references=4,
            alpha=2 * self.TOTAL, gamma=2 * self.TOTAL,
            use_ptolemaic=False, domain=(0.0, 100.0), seed=13), **overrides})

    @pytest.fixture(scope="class")
    def oracle(self, rows):
        base, extra, queries = rows
        with build(self.params(), np.vstack([base, extra])) as index:
            assert index.heap.stored_dtype == np.float32
            yield (drive_counted(index, queries),
                   index.heap.page_matrix().tobytes())

    def check(self, index, rows, oracle):
        assert index.heap.stored_dtype == np.float32
        assert drive_counted(index, rows[2]) == oracle[0]
        assert index.heap.page_matrix().tobytes() == oracle[1]

    @pytest.mark.parametrize("logged", [True, False])
    def test_fold(self, rows, oracle, tmp_path, logged):
        """Logged: a new generation, its heap rewritten through
        ``replace_file``; un-logged: in place, on the mapped file."""
        base, extra, _ = rows
        with build(IndexSpec(params=self.params(), wal=logged),
                   base, storage_dir=str(tmp_path)) as index:
            assert index.heap.stored_dtype == np.uint8
            for row in extra:
                index.insert(row)
            index.compact()
            self.check(index, rows, oracle)
        with load_index(tmp_path) as reopened:
            self.check(reopened, rows, oracle)

    def test_fold_in_memory(self, rows, oracle):
        """Before the fold a query reranks uint8 base rows beside float32
        delta rows, and already answers like the one-shot build."""
        base, extra, queries = rows
        with build(self.params(), base) as index:
            assert index.heap.stored_dtype == np.uint8
            for row in extra:
                index.insert(row)
            assert [answer[:2] for answer in drive_counted(index, queries)] \
                == [answer[:2] for answer in oracle[0]]
            index.compact()
            self.check(index, rows, oracle)

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_streamed_build(self, rows, tmp_path, on_disk):
        base, extra, queries = rows
        data = np.vstack([base, extra])
        params = self.params(reference_method="random", storage_dir=(
            str(tmp_path / "stream") if on_disk else None))
        one_shot = HDIndex(self.params(reference_method="random"))
        one_shot.build_from_chunks([data])
        streamed = HDIndex(params)
        streamed.build_from_chunks(data[start:start + 100]
                                   for start in range(0, len(data), 100))
        self.check(streamed, rows, (drive_counted(one_shot, queries),
                                    one_shot.heap.page_matrix().tobytes()))
        streamed.close()
        one_shot.close()
