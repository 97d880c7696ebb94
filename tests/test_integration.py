"""End-to-end integration tests across modules.

These exercise the exact pipelines the benchmarks run, at miniature scale:
every catalog dataset must build and answer queries, the headline quality
ordering must hold, and the disk-resident story (file-backed stores)
must work outside the in-memory fast path.
"""

import numpy as np
import pytest

from repro import (
    HDIndex,
    HDIndexParams,
    LinearScan,
    SRS,
    make_dataset,
    run_comparison,
)
from repro.datasets import DATASET_CATALOG
from repro.eval import exact_knn, mean_average_precision
from repro.storage.vectors import VectorHeapFile


def small_hd_params(spec, **overrides):
    defaults = dict(num_trees=min(spec.num_trees, 8), hilbert_order=8,
                    num_references=5, alpha=96, gamma=32,
                    domain=spec.domain, seed=0)
    defaults.update(overrides)
    return HDIndexParams(**defaults)


class TestEveryDataset:
    @pytest.mark.parametrize("name", sorted(DATASET_CATALOG))
    def test_build_and_query_each_catalog_entry(self, name):
        spec = DATASET_CATALOG[name]
        ds = make_dataset(name, n=300, num_queries=4, seed=0)
        index = HDIndex(small_hd_params(spec))
        index.build(ds.data)
        ids, dists = index.query(ds.queries[0], 5)
        assert len(ids) == 5
        assert np.all(np.diff(dists) >= 0)
        assert np.all((ids >= 0) & (ids < len(ds)))


class TestQualityOrdering:
    def test_hdindex_beats_srs_on_map(self):
        """The headline Fig. 8/Table 5 shape at miniature scale."""
        ds = make_dataset("sift10k", n=1500, num_queries=10, seed=1)
        k = 10
        true_ids, _ = exact_knn(ds.data, ds.queries, k)
        hd = HDIndex(small_hd_params(ds.spec, alpha=192, gamma=48))
        hd.build(ds.data)
        srs = SRS(seed=1)
        srs.build(ds.data)
        hd_map = mean_average_precision(
            list(true_ids), [hd.query(q, k)[0] for q in ds.queries], k)
        srs_map = mean_average_precision(
            list(true_ids), [srs.query(q, k)[0] for q in ds.queries], k)
        assert hd_map > srs_map

    def test_run_comparison_full_pipeline(self):
        ds = make_dataset("glove", n=400, num_queries=5, seed=2)
        results = run_comparison({
            "Linear": LinearScan,
            "HD-Index": lambda: HDIndex(small_hd_params(ds.spec)),
        }, ds.data, ds.queries, k=5, dataset_name="glove")
        linear, hd = results
        assert linear.map_at_k == pytest.approx(1.0)
        assert hd.map_at_k > 0.5
        # The scan reads each of the 40 pages of 400 float32 rows of
        # ν = 100 once; HD-Index examines fewer candidates than every row.
        # (At this n its random reads outnumber the scan's pages.)
        assert linear.avg_page_reads == 40
        assert hd.avg_candidates < linear.avg_candidates


class TestDiskResidence:
    def test_file_backed_heap_round_trips(self, tmp_path):
        ds = make_dataset("sift10k", n=200, num_queries=2, seed=3)
        heap = VectorHeapFile(dim=ds.dim, dtype=np.float32,
                              path=tmp_path / "vectors.pages")
        heap.append_batch(ds.data)
        got = heap.fetch(137)
        np.testing.assert_allclose(got, ds.data[137], atol=1e-3)
        size = heap.size_bytes()
        heap.close()
        # The model charges float32 records; the file stores one byte a
        # value (SIFT-like integers in [0, 255]).
        assert size == -(-200 // heap.records_per_page) * heap.page_size
        assert heap.stored_dtype == np.uint8
        assert (tmp_path / "vectors.pages").stat().st_size \
            == -(-200 // (heap.page_size // ds.dim)) * heap.page_size


class TestScalingBehaviour:
    def test_index_size_linear_in_n(self):
        """Sec. 3.5: total space is O(n·ν + n·m·τ)."""
        spec = DATASET_CATALOG["sift10k"]
        sizes = []
        for n in (400, 1600):
            ds = make_dataset("sift10k", n=n, num_queries=1, seed=5)
            index = HDIndex(small_hd_params(spec))
            index.build(ds.data)
            sizes.append(index.index_size_bytes())
        # 4x the data -> ~4x the pages (page-granularity slack at this scale).
        growth = sizes[1] / sizes[0]
        assert 2.5 < growth < 4.5

    def test_query_io_sublinear_in_n(self):
        """Sec. 4.4: disk accesses ~ τ(log n + α/Ω + γ) — far below O(n)."""
        spec = DATASET_CATALOG["sift10k"]
        reads = []
        for n in (400, 1600):
            ds = make_dataset("sift10k", n=n, num_queries=3, seed=6)
            index = HDIndex(small_hd_params(spec))
            index.build(ds.data)
            total = 0
            for query in ds.queries:
                index.query(query, 5)
                total += index.last_query_stats().page_reads
            reads.append(total / len(ds.queries))
        # 4x the data must cost far less than 4x the reads.
        assert reads[1] < reads[0] * 2.5
