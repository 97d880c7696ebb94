"""Tests for the KNNIndex interface contract and miscellaneous edges."""

import numpy as np
import pytest

from repro.core import HDIndex, HDIndexParams
from repro.core.interface import BuildStats, KNNIndex, QueryStats
from repro.datasets import generate_uniform
from repro.eval import exact_knn, mean_average_precision
from repro.hilbert import GridQuantizer
from repro.storage import StorageError
from repro.storage.vectors import VectorHeapFile


class TestQueryStats:
    def test_as_dict_merges_extra(self):
        stats = QueryStats(time_sec=0.5, page_reads=7, candidates=3,
                           extra={"alpha": 128})
        as_dict = stats.as_dict()
        assert as_dict["time_sec"] == 0.5
        assert as_dict["page_reads"] == 7
        assert as_dict["alpha"] == 128

    def test_defaults_zeroed(self):
        stats = QueryStats()
        assert stats.page_reads == 0
        assert stats.extra == {}


class TestKNNIndexBase:
    def test_abstract_methods_raise(self):
        base = KNNIndex()
        with pytest.raises(NotImplementedError):
            base.build(np.zeros((1, 1)))
        with pytest.raises(NotImplementedError):
            base.query(np.zeros(1), 1)
        with pytest.raises(NotImplementedError):
            base.index_size_bytes()
        with pytest.raises(NotImplementedError):
            base.memory_bytes()

    def test_default_stats_objects(self):
        base = KNNIndex()
        assert isinstance(base.last_query_stats(), QueryStats)
        assert isinstance(base.build_stats(), BuildStats)

    def test_query_batch_pads_short_answers(self):
        class TwoAnswers(KNNIndex):
            def query(self, point, k):
                return (np.asarray([1, 2], dtype=np.int64),
                        np.asarray([0.1, 0.2]))

        ids, dists = TwoAnswers().query_batch(np.zeros((1, 4)), k=5)
        assert ids.shape == (1, 5)
        assert ids[0, :2].tolist() == [1, 2]
        assert ids[0, 2:].tolist() == [-1, -1, -1]
        assert np.isinf(dists[0, 2:]).all()


class TestCurseOfDimensionality:
    def test_uniform_high_dim_is_hard_for_everyone(self):
        """On i.i.d. uniform data distances concentrate (Sec. 1's
        dmax/dmin -> 1), so Hilbert-locality candidates lose their edge —
        the index should degrade towards small MAP while staying correct."""
        ds = generate_uniform(dim=64, n=600, num_queries=10, seed=0)
        index = HDIndex(HDIndexParams(
            num_trees=8, num_references=5, alpha=48, gamma=16,
            domain=(0.0, 1.0), seed=0))
        index.build(ds.data)
        k = 10
        true_ids, _ = exact_knn(ds.data, ds.queries, k)
        results = [index.query(q, k)[0] for q in ds.queries]
        score = mean_average_precision(list(true_ids), results, k)
        # Structured (clustered) workloads in other tests reach > 0.8;
        # uniform 64-dim data with a small candidate budget cannot.
        assert score < 0.8
        for ids in results:
            assert len(ids) == k   # still k valid, distinct answers
            assert len(set(ids.tolist())) == k


class TestMiscEdges:
    def test_quantizer_margin_expands_domain(self):
        data = np.asarray([[0.0], [10.0]])
        tight = GridQuantizer.from_data(data, order=4)
        loose = GridQuantizer.from_data(data, order=4, margin=0.1)
        assert loose.low < tight.low
        assert loose.high > tight.high

    def test_heap_restore_count_validation(self):
        heap = VectorHeapFile(dim=4, dtype=np.float32)
        heap.append_batch(np.zeros((3, 4), dtype=np.float32))
        heap.restore_count(2)
        assert len(heap) == 2
        with pytest.raises(ValueError):
            heap.restore_count(-1)
        with pytest.raises(StorageError):
            heap.restore_count(10**6)

    def test_hdindex_name_attributes(self):
        from repro.core import ShardRouter, ThreadedExecutor
        assert HDIndex().name == "HD-Index"
        assert HDIndex(executor=ThreadedExecutor(2)).name == \
            "HD-Index(parallel)"
        assert ShardRouter().name == "HD-Index(sharded)"

    def test_build_stats_extra_fields(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(0, 10, size=(100, 8))
        index = HDIndex(HDIndexParams(num_trees=2, num_references=3,
                                      alpha=16, gamma=8, domain=(0, 10)))
        index.build(data)
        extra = index.build_stats().extra
        assert len(extra["leaf_orders"]) == 2
        assert len(extra["tree_heights"]) == 2
        assert all(height >= 1 for height in extra["tree_heights"])
