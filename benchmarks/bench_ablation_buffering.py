"""Ablation — what the paper's caching-off methodology controls for.

The paper disables OS buffering/caching in all experiments (Sec. 5) so
methods compete on true disk accesses.  This ablation quantifies exactly
what that hides: with an LRU buffer pool enabled, repeated queries absorb
most physical reads (upper tree levels and hot leaves stay resident),
flattening the differences the paper wants to measure.
"""

from __future__ import annotations

import pytest

from benchmarks.common import Workload, emit, hd_params, start_report
from repro import HDIndex

BENCH = "ablation_buffering"
K = 10
CACHE_SIZES = (0, 64, 256, 1024)


@pytest.fixture(scope="module")
def workload():
    return Workload("sift10k", n=2500, num_queries=10, max_k=K)


def test_buffering_ablation(workload, benchmark):
    rows = benchmark.pedantic(lambda: _sweep(workload), rounds=1,
                              iterations=1)
    reads = [row[1] for row in rows]
    # Physical reads fall monotonically (within noise) as the pool grows,
    # and a big-enough pool absorbs the vast majority of them.
    assert reads[-1] < 0.5 * reads[0]
    # Results are identical regardless of caching.
    assert all(row[3] for row in rows)


def _sweep(workload):
    start_report(BENCH, "Ablation: buffer-pool capacity vs physical reads")
    emit(BENCH, f"{'pool pages':>10} {'reads/q':>9} {'hits/q':>8} "
                f"{'same results':>13}")
    baseline_ids = None
    rows = []
    for capacity in CACHE_SIZES:
        index = HDIndex(hd_params(workload.spec, len(workload.data),
                                  cache_pages=capacity))
        index.build(workload.data)  # leaves the modelled pools cold
        total_reads = total_hits = 0
        results = []
        for query in workload.queries:
            ids, _ = index.query(query, K)
            results.append(ids.tolist())
            total_reads += index.last_query_stats().page_reads
        snapshot = index.io_snapshot()
        total_hits = snapshot["cache_hits"]
        identical = baseline_ids is None or results == baseline_ids
        if baseline_ids is None:
            baseline_ids = results
        count = len(workload.queries)
        emit(BENCH, f"{capacity:>10} {total_reads / count:>9.1f} "
                    f"{total_hits / count:>8.1f} {str(identical):>13}")
        rows.append((capacity, total_reads / count, total_hits / count,
                     identical))
    emit(BENCH, "-> caching absorbs most physical reads without changing "
                "answers; the paper disables it to compare true I/O")
    return rows
