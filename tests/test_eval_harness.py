"""Unit tests for the experiment harness and memory helpers."""

import numpy as np
import pytest

from repro.baselines import LinearScan
from repro.core import HDIndex, HDIndexParams
from repro.core.interface import KNNIndex
from repro.eval import (
    GroundTruth,
    evaluate_index,
    format_bytes,
    format_table,
    run_comparison,
)
from repro.eval.memory import array_bytes
from test_method_contract import METHODS, clustered_rows

#: The counters a batch reports as the sum of its rows'.
COUNTED = ("page_reads", "random_reads", "sequential_reads", "candidates",
           "distance_computations")


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0)
    centers = rng.uniform(0.0, 10.0, size=(4, 8))
    data = np.vstack([c + rng.normal(0.0, 0.3, size=(50, 8))
                      for c in centers])
    queries = data[:5] + rng.normal(0.0, 0.05, size=(5, 8))
    return data, queries


class TestEvaluateIndex:
    def test_exact_method_scores_perfectly(self, workload):
        data, queries = workload
        result = evaluate_index(LinearScan(), data, queries, k=5,
                                dataset_name="toy")
        assert result.map_at_k == pytest.approx(1.0)
        assert result.ratio_at_k == pytest.approx(1.0)
        assert result.recall_at_k == pytest.approx(1.0)
        assert result.method == "LinearScan"
        assert result.dataset == "toy"
        assert result.avg_query_time_sec > 0
        assert result.avg_page_reads > 0

    def test_hdindex_measured(self, workload):
        data, queries = workload
        index = HDIndex(HDIndexParams(num_trees=4, alpha=64, gamma=16,
                                      num_references=4, domain=(0, 10)))
        result = evaluate_index(index, data, queries, k=5)
        assert 0.0 <= result.map_at_k <= 1.0
        assert result.index_size_bytes > 0
        assert result.build_time_sec > 0

    def test_reuses_shared_ground_truth(self, workload):
        data, queries = workload
        cache = GroundTruth(data, queries, max_k=5)
        result = evaluate_index(LinearScan(), data, queries, k=5,
                                ground_truth=cache)
        assert result.map_at_k == pytest.approx(1.0)

    def test_row_rendering(self, workload):
        data, queries = workload
        result = evaluate_index(LinearScan(), data, queries, k=3)
        row = result.row()
        assert row["MAP@k"] == 1.0
        assert "index_size" in row

    @pytest.mark.parametrize("name", METHODS)
    def test_default_batches_count_every_row(self, name):
        """Row r of ``query_batch`` is ``query(points[r])`` for every
        method, and under the base's loop over ``_search`` a batch counts
        the sum of its rows' counters, so a chunked run reports what the
        one-at-a-time loop does (5 queries in chunks of 4 and 1).  Two
        builds start both runs' page accounting afresh.  HD-Index's batch
        fetches each distinct candidate once: at most the rows' reads."""
        data = clustered_rows()
        queries = data[::40] + 0.5
        singles, batched = METHODS[name](), METHODS[name]()
        singles.build(data)
        batched.build(data)
        rows = [(*singles.query(point, 5), singles.last_query_stats())
                for point in queries]
        ids, dists = batched.query_batch(queries, 5)
        total = batched.last_query_stats()
        for row, (want_ids, want_dists, stats) in enumerate(rows):
            found = ids[row] >= 0
            np.testing.assert_array_equal(ids[row][found], want_ids)
            np.testing.assert_array_equal(dists[row][found], want_dists)
            assert "batch_size" not in stats.extra
        summed = {field: sum(getattr(stats, field) for *_, stats in rows)
                  for field in COUNTED}
        got = {field: getattr(total, field) for field in COUNTED}
        assert total.candidates > 0
        assert (total.page_reads > 0) == bool(batched._accountants())
        default = type(batched)._search_batch is KNNIndex._search_batch
        if not default:
            assert got.pop("page_reads") <= summed.pop("page_reads")
            for field in ("random_reads", "sequential_reads"):
                del got[field], summed[field]
        assert got == summed
        loop = evaluate_index(singles, data, queries, k=5, build=False)
        chunked = evaluate_index(singles, data, queries, k=5, build=False,
                                 batch_size=4)
        assert chunked.extra["answers"] == loop.extra["answers"]
        if default:
            assert chunked.avg_page_reads == loop.avg_page_reads
            assert chunked.avg_candidates == loop.avg_candidates


class TestRunComparison:
    def test_multiple_methods_share_truth(self, workload):
        data, queries = workload
        results = run_comparison({
            "Linear": LinearScan,
            "HD-Index": lambda: HDIndex(HDIndexParams(
                num_trees=4, alpha=64, gamma=16, num_references=4,
                domain=(0, 10))),
        }, data, queries, k=5)
        assert [r.method for r in results] == ["Linear", "HD-Index"]
        assert results[0].map_at_k == pytest.approx(1.0)

    def test_failing_method_marked_np(self, workload):
        data, queries = workload

        class Broken(LinearScan):
            def build(self, data):
                raise ValueError("cannot build")

        results = run_comparison({"Broken": Broken}, data, queries, k=3)
        assert np.isnan(results[0].map_at_k)
        assert results[0].extra["error"].startswith("NP")

    def test_format_table_alignment(self, workload):
        data, queries = workload
        results = run_comparison({"Linear": LinearScan}, data, queries, k=3)
        table = format_table(results)
        lines = table.splitlines()
        assert len(lines) >= 3
        assert "method" in lines[0]
        assert len(set(len(line) for line in lines)) == 1

    def test_format_table_empty(self):
        assert format_table([]) == "(no results)"

    def test_format_table_column_subset(self, workload):
        data, queries = workload
        results = run_comparison({"Linear": LinearScan}, data, queries, k=3)
        table = format_table(results, columns=["method", "MAP@k"])
        assert "query_ms" not in table


class TestMemoryHelpers:
    def test_format_bytes_units(self):
        assert format_bytes(0) == "0 B"
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.0 KB"
        assert format_bytes(3 * 1024**2) == "3.0 MB"
        assert format_bytes(5 * 1024**3) == "5.0 GB"
        assert format_bytes(2 * 1024**4) == "2.0 TB"

    def test_format_bytes_negative_rejected(self):
        with pytest.raises(ValueError):
            format_bytes(-1)

    def test_array_bytes_skips_none(self):
        a = np.zeros(10, dtype=np.float64)
        assert array_bytes(a, None, a) == 160
        assert array_bytes() == 0
