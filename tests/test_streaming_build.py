"""Chunked / streaming ingestion: ``repro.build(spec, data=<iterator>)``.

The streaming path must index the same points the in-memory path would
(reference sets differ — reservoir sampling vs one-shot choice — but
with exhaustive budgets both reproduce the exact-scan oracle), honour
both metrics, persist/reopen like any other snapshot, and refuse the
configurations that cannot stream (SSS references, metadata).
"""

import dataclasses

import numpy as np
import pytest

from repro.core import HDIndex, HDIndexParams, IndexSpec, open_index
from repro.core.factory import build
from repro.distance import euclidean_to_many, normalize_rows, top_k_smallest
from test_backend_parity import _is_mapped

DIM = 10
N = 300


def stream_params(**overrides):
    defaults = dict(num_trees=2, num_references=5, hilbert_order=6,
                    alpha=N, beta=N, gamma=N, seed=9,
                    reference_method="random")
    defaults.update(overrides)
    return HDIndexParams(**defaults)


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(21)
    return rng.uniform(-5.0, 5.0, size=(N, DIM))


def chunks_of(data, rows=47):
    for start in range(0, len(data), rows):
        yield data[start:start + rows]


class TestStreamingBuild:
    def test_exact_scan_parity(self, corpus):
        """With α ≥ n the streamed index reproduces the brute-force
        oracle over the descriptors as stored."""
        index = build(IndexSpec(params=stream_params()),
                      chunks_of(corpus))
        assert index.count == N
        assert index.build_stats().extra["streamed"] is True
        query = corpus[17] + 0.05
        ids, dists = index.query(query, k=8)
        stored = index.heap.gather(np.arange(N))
        exact = euclidean_to_many(query, stored)
        best = top_k_smallest(exact, 8)
        np.testing.assert_array_equal(ids, best)
        np.testing.assert_array_equal(dists, exact[best])

    def test_stored_rows_match_source(self, corpus):
        index = HDIndex(stream_params())
        index.build_from_chunks(chunks_of(corpus, rows=31))
        stored = index.heap.gather(np.arange(N))
        np.testing.assert_allclose(stored, corpus, atol=1e-5)

    def test_deterministic_across_chunkings(self, corpus):
        """Same stream + seed → same reference set and same answers,
        regardless of how the stream was blocked."""
        a = HDIndex(stream_params())
        a.build_from_chunks(chunks_of(corpus, rows=31))
        b = HDIndex(stream_params())
        b.build_from_chunks(chunks_of(corpus, rows=144))
        np.testing.assert_array_equal(a.references.indices,
                                      b.references.indices)
        query = corpus[3] - 0.1
        np.testing.assert_array_equal(a.query(query, k=5)[0],
                                      b.query(query, k=5)[0])

    def test_empty_blocks_are_skipped(self, corpus):
        def with_gaps():
            yield corpus[:0]
            yield corpus[:100]
            yield corpus[100:100]
            yield corpus[100:]
        index = HDIndex(stream_params())
        index.build_from_chunks(with_gaps())
        assert index.count == N

    def test_persist_and_reopen(self, corpus, tmp_path):
        spec = IndexSpec(params=stream_params())
        index = build(spec, chunks_of(corpus), storage_dir=str(tmp_path))
        query = corpus[42]
        want = index.query(query, k=6)
        index.close()
        with open_index(str(tmp_path)) as reopened:
            got = reopened.query(query, k=6)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("backend", ["mmap"])
    def test_disk_build_holds_one_trees_columns_at_a_time(
            self, corpus, tmp_path, backend):
        """The streaming build's memory bound: on a disk backend each
        tree's columns go to ``tree_<i>.packed`` as soon as the tree is
        built and are served from that file's mapping, so what stays
        resident is O(n·m) reference distances, not τ trees."""
        spec = IndexSpec(params=stream_params(backend=backend,
                                              storage_dir=str(tmp_path)))
        index = build(spec, chunks_of(corpus), storage_dir=str(tmp_path))
        try:
            for position, tree in enumerate(index.trees):
                assert (tmp_path / f"tree_{position}.packed").exists()
                for column in (tree.packed.keys_raw,
                               tree.packed.values_raw):
                    assert _is_mapped(column)
                    assert not column.flags.writeable
            assert not list(tmp_path.glob("tree_*.pages"))
            # One block of grid coordinates in the lane dtype (uint8).
            assert index.quantizer.dtype == np.uint8
            coords = index.STREAM_CHUNK_ROWS * DIM
            assert coords < index.build_memory_bytes() < 2 * (
                N * 5 * 8 + N * index.trees[0].curve.key_bytes + coords)
        finally:
            index.close()

    def test_angular_streaming(self, corpus):
        ndata = normalize_rows(corpus)
        index = HDIndex(stream_params(metric="angular"))
        index.build_from_chunks(chunks_of(ndata))
        query = ndata[7] * 3.0  # engine normalises the query
        ids, _ = index.query(query, k=3)
        assert ids[0] == 7
        unnormalised = HDIndex(stream_params(metric="angular"))
        with pytest.raises(ValueError, match="unit-normalised"):
            unnormalised.build_from_chunks(chunks_of(corpus))

    def test_inserts_after_streaming_build(self, corpus):
        index = HDIndex(stream_params())
        index.build_from_chunks(chunks_of(corpus))
        fresh = np.full(DIM, 4.9)
        new_id = index.insert(fresh)
        ids, _ = index.query(fresh, k=1)
        assert ids[0] == new_id


class TestStreamingRestrictions:
    def test_sss_references_rejected(self, corpus):
        index = HDIndex(stream_params(reference_method="sss"))
        with pytest.raises(ValueError, match="random"):
            index.build_from_chunks(chunks_of(corpus))

    def test_metadata_rejected(self, corpus):
        with pytest.raises(ValueError, match="not supported with a "
                                             "streaming build"):
            build(IndexSpec(params=stream_params()), chunks_of(corpus),
                  metadata=[{"a": 1}] * N)

    def test_sharded_spec_rejected_before_a_block_is_read(self, corpus,
                                                          tmp_path):
        """A spec dict holding an older shard count names the migration
        guide before the stream is touched: no block read, no file."""
        blocks = chunks_of(corpus)
        spec = {"params": dataclasses.asdict(stream_params()), "shards": 2}
        with pytest.raises(ValueError, match="MIGRATION"):
            build(spec, blocks, storage_dir=tmp_path / "idx")
        np.testing.assert_array_equal(next(blocks), corpus[:47])
        assert not (tmp_path / "idx").exists()

    def test_empty_stream_rejected(self):
        index = HDIndex(stream_params())
        with pytest.raises(ValueError, match="empty dataset"):
            index.build_from_chunks(iter([]))

    def test_ragged_stream_rejected(self, corpus):
        def ragged():
            yield corpus[:50]
            yield corpus[50:100, :DIM - 1]
        index = HDIndex(stream_params())
        with pytest.raises(ValueError, match="dimensionality"):
            index.build_from_chunks(ragged())

    def test_non_finite_block_rejected(self, corpus):
        poisoned = corpus.copy()
        poisoned[N // 2, 3] = np.nan
        index = HDIndex(stream_params())
        with pytest.raises(ValueError, match="NaN or infinite"):
            index.build_from_chunks(chunks_of(poisoned))

    def test_more_references_than_rows_rejected(self, corpus):
        index = HDIndex(stream_params(num_references=N + 1,
                                      alpha=N + 1, beta=N + 1,
                                      gamma=N + 1))
        with pytest.raises(ValueError, match="exceeds the stream"):
            index.build_from_chunks(chunks_of(corpus))

