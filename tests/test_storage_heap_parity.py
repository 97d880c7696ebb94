"""The descriptor heap is one page matrix on every backend.

Same bytes, same answers and the same counted I/O whether the matrix is
an array in memory or a mapping of ``descriptors.pages``, with the
modelled pool on or off, for records that share a page, fill the last
page partly, or span pages — and no second fetch path to fall into.
"""

import hashlib
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import HDIndexParams
from repro.cli import main as cli_main
from repro.core import PersistenceError, load_index, save_index
from repro.storage import StorageError, VectorHeapFile
from repro.storage.pages import replace_file

BACKENDS = ("memory", "mmap")
CACHES = (0, 64)
PAGE = 128

#: name -> (dim, n): 32 B float32 records, four to a 128 B page, the last
#: page full / holding two; 192 B records over two pages each.
GEOMETRIES = {"fits": (8, 240), "partial": (8, 242), "spanning": (48, 90)}

#: Heap counters after :func:`drive` on a fresh reopen, as the release
#: before the page matrix counted them through ``backend="mmap"`` (its
#: ``"file"`` backend agreed): (page_reads, random_reads,
#: sequential_reads, cache_hits) by (geometry, cache_pages).
PARENT_HEAP_READS = {
    ("fits", 0): (326, 204, 122, 0), ("fits", 64): (59, 38, 21, 267),
    ("partial", 0): (297, 182, 115, 0), ("partial", 64): (58, 38, 20, 239),
    ("spanning", 0): (396, 98, 298, 0),
    ("spanning", 64): (358, 93, 265, 38),
}


def workload(geometry):
    dim, n = GEOMETRIES[geometry]
    rng = np.random.default_rng(11)
    return (rng.uniform(0, 100, size=(n, dim)),
            rng.uniform(0, 100, size=(6, dim)))


def params(**overrides):
    return HDIndexParams(**{**dict(
        num_trees=4, hilbert_order=4, num_references=3, alpha=32, beta=24,
        gamma=12, use_ptolemaic=True, domain=(0.0, 100.0), page_size=PAGE,
        seed=5), **overrides})


def drive(index, queries):
    """A fixed mix of ``query`` and ``query_batch``; the answers."""
    answers = [index.query(query, 5) for query in queries[:3]]
    answers.append(index.query_batch(queries, 5))
    answers.append(index.query(queries[0], 5))
    return answers


@pytest.fixture(scope="module", params=sorted(GEOMETRIES))
def snapshot(request, tmp_path_factory):
    """(geometry, data, queries, directory) of a memory-built snapshot."""
    data, queries = workload(request.param)
    directory = tmp_path_factory.mktemp(f"heap-{request.param}")
    with repro.build(params(), data) as index:
        save_index(index, directory)
    return request.param, data, queries, directory


@pytest.mark.parametrize("cache_pages", CACHES)
class TestHeapBackendParity:
    def opened(self, directory, cache_pages):
        return [load_index(directory, backend=backend,
                           cache_pages=cache_pages) for backend in BACKENDS]

    def test_gather_bytes(self, snapshot, cache_pages):
        _, data, _, directory = snapshot
        ids = np.random.default_rng(2).integers(0, len(data), size=40)
        for index in self.opened(directory, cache_pages):
            got = index.heap.gather(ids)
            assert got.dtype == np.float32 and got.flags.writeable
            assert got.tobytes() == data[ids].astype(np.float32).tobytes()
            np.testing.assert_array_equal(
                index.heap.scan(), data.astype(np.float32))
            index.close()

    def test_answers_and_counted_reads(self, snapshot, cache_pages):
        geometry, _, queries, directory = snapshot
        memory, mapped = self.opened(directory, cache_pages)
        assert memory.heap.path is None and mapped.heap.path is not None
        for got, want in zip(drive(memory, queries), drive(mapped, queries)):
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
        assert memory.io_snapshot() == mapped.io_snapshot()
        for index in (memory, mapped):
            heap = index.heap.stats
            assert (heap.page_reads, heap.random_reads,
                    heap.sequential_reads, heap.cache_hits) \
                == PARENT_HEAP_READS[geometry, cache_pages]
            assert heap.page_writes == 0
            assert index.heap.memory_bytes() \
                == min(cache_pages, heap.page_reads) * PAGE
            index.close()

    def test_no_per_record_path_to_fall_into(self, snapshot, cache_pages,
                                             monkeypatch):
        """``fetch`` is ``gather`` of one id and nothing under a query
        calls it: with it broken, every query still answers."""
        _, _, queries, directory = snapshot
        expected = None
        for index in self.opened(directory, cache_pages):
            if expected is None:
                expected = drive(index, queries)

            def broken(self, object_id):
                raise AssertionError("per-record fetch on the query path")
            monkeypatch.setattr(VectorHeapFile, "fetch", broken)
            for got, want in zip(drive(index, queries), expected):
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])
            monkeypatch.undo()
            index.close()

    def test_empty_and_out_of_range_ids(self, snapshot, cache_pages):
        _, data, _, directory = snapshot
        for index in self.opened(directory, cache_pages):
            heap = index.heap
            before = heap.stats.snapshot()
            assert heap.gather([]).shape == (0, data.shape[1])
            for bad in ([len(data)], [0, -1], [3, 10 ** 9]):
                with pytest.raises(StorageError, match="out of range"):
                    heap.gather(bad)
            with pytest.raises(StorageError):
                heap.fetch(len(data))
            assert heap.stats.snapshot() == before
            assert heap.memory_bytes() == 0
            index.close()


class TestBuildAndSaveAccounting:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_every_page_written_once_none_read(self, geometry, backend,
                                               tmp_path):
        data, _ = workload(geometry)
        index = repro.build(params(backend=backend, storage_dir=(
            str(tmp_path) if backend == "mmap" else None)), data)
        save_index(index, tmp_path)
        heap = index.heap
        pages = len(heap.page_matrix())
        assert pages * PAGE == (tmp_path / "descriptors.pages").stat().st_size
        assert heap.stats.page_reads == 0
        assert heap.stats.page_writes == heap.stats.sequential_writes + 1 \
            == pages
        assert index.io_snapshot()["page_reads"] == 0
        assert index.build_stats().page_writes == pages + sum(
            tree.packed.num_pages for tree in index.trees)
        index.close()

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_one_file_format(self, geometry, tmp_path):
        """``descriptors.pages`` is the same bytes whether an in-memory
        build was saved or the build went straight to the mapped file —
        in one piece, or appended block by block."""
        data, _ = workload(geometry)
        digests = set()
        for name, backend in (("saved", "memory"), ("mapped", "mmap")):
            directory = tmp_path / name
            with repro.build(params(backend=backend, storage_dir=(
                    str(directory) if backend == "mmap" else None)),
                    data) as index:
                save_index(index, directory)
            digests.add(hashlib.sha256(
                (directory / "descriptors.pages").read_bytes()).hexdigest())
        streamed = VectorHeapFile(data.shape[1], page_size=PAGE,
                                  path=tmp_path / "streamed.pages")
        for start in range(0, len(data), 7):
            streamed.append_batch(data[start:start + 7])
        streamed.close()
        digests.add(hashlib.sha256(
            (tmp_path / "streamed.pages").read_bytes()).hexdigest())
        assert len(digests) == 1


class TestFileBackendRemoved:
    def test_explicit_file_is_rejected(self, tmp_path):
        for make in (
                lambda: HDIndexParams(backend="file",
                                      storage_dir=str(tmp_path)),
                lambda: repro.IndexSpec.from_dict({"backend": "file"})):
            with pytest.raises(ValueError, match="docs/MIGRATION.md"):
                make()

    def test_cli_rejects_backend_file(self, snapshot, capsys):
        directory = str(snapshot[3])
        for argv in (["query", "--index", directory, "--backend", "file"],
                     ["serve", "--index", directory, "--backend", "file"],
                     ["build", "--out", directory, "--backend", "file"]):
            with pytest.raises(SystemExit):
                cli_main(argv)
            assert "invalid choice: 'file'" in capsys.readouterr().err

    def test_storage_dir_alone_means_mmap(self, snapshot, tmp_path):
        assert HDIndexParams(
            storage_dir=str(tmp_path)).resolved_backend == "mmap"
        with repro.open(snapshot[3]) as index:
            assert index.params.resolved_backend == "mmap"
            assert index.params.cache_pages == 0
            assert index.heap.path is not None

    def test_snapshot_that_recorded_file_backend_opens(self, snapshot,
                                                       tmp_path):
        """A recorded ``"file"`` params backend is harmless, because a
        reopen always sets the backend it serves with (a recorded worker
        backend is ignored: ``tests/test_spec_roundtrip.py``); asking to
        open with ``"file"`` is refused, typed."""
        _, data, queries, directory = snapshot
        for name in ("meta.json", "references.npz", "descriptors.pages",
                     *(f"tree_{i}.packed" for i in range(4))):
            (tmp_path / name).write_bytes((directory / name).read_bytes())
        meta = json.loads((tmp_path / "meta.json").read_text())
        meta["params"]["backend"] = "file"
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with load_index(directory) as reference, \
                load_index(tmp_path) as index:
            assert index.params.resolved_backend == "mmap"
            for got, want in zip(drive(index, queries),
                                 drive(reference, queries)):
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])
        with pytest.raises(PersistenceError, match="MIGRATION"):
            load_index(directory, backend="file")


def write_parent_heap(path, values, page_size):
    """``descriptors.pages`` as releases before narrow records wrote it:
    float32 records whatever the values, ``page_size // record`` to a
    page, zeros after the last (records of at most a page)."""
    values = np.asarray(values, dtype=np.float32)
    record = values.shape[1] * 4
    per_page = page_size // record
    padded = np.zeros((-(-len(values) // per_page) * per_page,
                       values.shape[1]), dtype=np.float32)
    padded[:len(values)] = values
    pages = np.zeros((len(padded) // per_page, page_size), dtype=np.uint8)
    pages[:, :per_page * record] = padded.view(np.uint8).reshape(
        len(pages), -1)
    path.write_bytes(pages.tobytes())


class TestParentFormatHeap:
    """A snapshot written before narrow records — integer values in
    float32 records, no heap ``stored`` entry in ``meta.json`` — opens as
    written on both backends and answers like the narrow snapshot of the
    same build; nothing rewrites it just to narrow it."""

    @pytest.fixture(scope="class")
    def snapshots(self, tmp_path_factory):
        rng = np.random.default_rng(11)
        data = rng.integers(0, 101, size=(242, 8)).astype(float)
        queries = rng.uniform(0, 100, size=(6, 8))
        narrow = tmp_path_factory.mktemp("narrow")
        with repro.build(params(), data) as index:
            save_index(index, narrow)
        parent = tmp_path_factory.mktemp("parent")
        shutil.copytree(narrow, parent, dirs_exist_ok=True)
        write_parent_heap(parent / "descriptors.pages", data, PAGE)
        meta = json.loads((parent / "meta.json").read_text())
        assert meta["heap"].pop("stored") == "uint8"
        (parent / "meta.json").write_text(json.dumps(meta, indent=2))
        return data, queries, narrow, parent

    @pytest.mark.parametrize("cache_pages", CACHES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_opens_as_written_and_answers_alike(self, snapshots, backend,
                                                cache_pages):
        data, queries, narrow, parent = snapshots
        with load_index(narrow, backend=backend,
                        cache_pages=cache_pages) as new, \
                load_index(parent, backend=backend,
                           cache_pages=cache_pages) as old:
            assert new.heap.stored_dtype == np.uint8
            assert old.heap.stored_dtype == np.float32
            assert len(old.heap.page_matrix()) == 61 \
                == 4 * len(new.heap.page_matrix()) - 3
            for got, want in zip(drive(old, queries), drive(new, queries)):
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])
            assert old.io_snapshot() == new.io_snapshot()
            np.testing.assert_array_equal(old.heap.scan(),
                                          data.astype(np.float32))

    def test_a_fold_keeps_it_wide(self, snapshots, tmp_path):
        data, queries, _, parent = snapshots
        directory = shutil.copytree(parent, tmp_path / "copy")
        with load_index(directory) as index:
            index.insert(data[0])
            index.compact()
            assert index.heap.stored_dtype == np.float32
        meta = json.loads((directory / "meta.json").read_text())
        assert meta["heap"]["stored"] == "float32"
        with load_index(directory, backend="memory") as index:
            np.testing.assert_array_equal(
                index.heap.scan(), np.vstack([data, data[:1]]))


class HeapModel:
    """A heap on one backend beside the plain array it must equal."""

    def __init__(self, backend, dim, directory):
        self.path = directory / "model.pages"
        self.backend, self.dim = backend, dim
        self.rows = np.empty((0, dim), dtype=np.float32)
        self.heap = self.fresh()

    def fresh(self):
        return VectorHeapFile(
            self.dim, np.float32, PAGE, cache_pages=3,
            path=self.path if self.backend == "mmap" else None)

    def append(self, rows):
        ids = self.heap.append_batch(rows)
        np.testing.assert_array_equal(
            ids, np.arange(len(self.rows), len(self.rows) + len(rows)))
        self.rows = np.vstack([self.rows, rows.astype(np.float32)])

    def gather(self, picks):
        if not len(self.rows):
            return
        ids = np.asarray(picks, dtype=np.int64) % len(self.rows)
        reads = self.heap.stats.page_reads + self.heap.stats.cache_hits
        assert self.heap.gather(ids).tobytes() == self.rows[ids].tobytes()
        assert self.heap.stats.page_reads + self.heap.stats.cache_hits \
            == reads + len(ids) * self.heap._pages_per_record

    def reopen(self):
        """Close and come back from the page file — written out first
        when the pages were in memory."""
        if self.backend == "memory":
            replace_file(self.path, self.heap.page_matrix())
        self.heap.close()
        self.heap = self.fresh()
        if self.backend == "memory":
            self.heap.read(self.path)
        self.heap.restore_count(len(self.rows))

    def check(self):
        heap = self.heap
        assert len(heap) == len(self.rows)
        pages = -(-len(self.rows) // heap.records_per_page) \
            * heap._pages_per_record
        assert heap.page_matrix().shape == (pages, PAGE)
        assert not heap.page_matrix().flags.writeable
        assert heap.memory_bytes() <= 3 * PAGE
        np.testing.assert_array_equal(heap.scan(), self.rows)
        if self.backend == "mmap":
            assert self.path.stat().st_size == pages * PAGE


OPS = st.lists(st.one_of(
    st.tuples(st.just("append"), st.integers(0, 13)),
    st.tuples(st.just("gather"), st.lists(st.integers(0, 10 ** 6),
                                          max_size=9)),
    st.tuples(st.just("reopen"), st.none())), max_size=14)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dim", [8, 48])
@given(ops=OPS, seed=st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_heap_matches_a_plain_array(tmp_path_factory, backend, dim, ops,
                                    seed):
    rng = np.random.default_rng(seed)
    model = HeapModel(backend, dim, tmp_path_factory.mktemp("model"))
    for op, argument in ops:
        if op == "append":
            model.append(rng.normal(size=(argument, dim)))
        elif op == "gather":
            model.gather(argument)
        else:
            model.reopen()
        model.check()
    model.heap.close()
