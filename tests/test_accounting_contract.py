"""The accounting contract every method shares through :class:`KNNIndex`.

The base class owns the stats records (``last_query_stats``,
``build_stats``, ``build_memory_bytes``) and the read totals
(``_read_totals`` over the ``_accountants`` a class declares), and its
``build`` / ``query`` fill the records for every baseline; HD-Index
fills its own from the same totals.  The pinned figures are each
method's build RAM and one query's page reads with their
random/sequential split, as the accountants classify them, on a seeded
tiny dataset.
"""

import numpy as np
import pytest

from repro.baselines import (
    C2LSH,
    HNSW,
    QALSH,
    SRS,
    IDistance,
    LinearScan,
    Multicurves,
    OPQIndex,
    PQIndex,
)
from repro.core import HDIndex, HDIndexParams
from repro.core.interface import BuildStats, KNNIndex, QueryStats

#: name -> (factory, (build_memory_bytes, page_reads, random_reads,
#: sequential_reads) after one build and one query).
METHODS = {
    "HDIndex": (lambda: HDIndex(HDIndexParams(
        num_trees=4, num_references=4, alpha=32, gamma=8,
        domain=(0.0, 100.0), seed=0)), (20016, 35, 32, 3)),
    # 56 random and 2 sequential heap reads, and 4 modelled bucket pages
    # read sequentially.
    "C2LSH": (lambda: C2LSH(max_functions=32, seed=0), (358400, 62, 56, 6)),
    "HNSW": (lambda: HNSW(M=6, ef_construction=20, ef_search=20, seed=0),
             (74600, 0, 0, 0)),
    "IDistance": (lambda: IDistance(num_partitions=8, seed=0),
                  (52224, 282, 268, 14)),
    # One page of vectors at a time: index RAM stays 4.0 KB.  The scan
    # reads the 7 pages of 400 float32 rows once each, in one run.
    "LinearScan": (LinearScan, (4096, 7, 1, 6)),
    "Multicurves": (lambda: Multicurves(num_curves=4, alpha=64,
                                        domain=(0.0, 100.0)),
                    (51200, 17, 17, 0)),
    "PQIndex": (lambda: PQIndex(num_subspaces=4, num_centroids=16,
                                rerank_factor=4, seed=0), (54848, 20, 16, 4)),
    "OPQIndex": (lambda: OPQIndex(num_subspaces=4, num_centroids=16,
                                  rerank_factor=4, opq_iterations=2, seed=0),
                 (108096, 20, 17, 3)),
    "QALSH": (lambda: QALSH(max_functions=16, seed=0), (102400, 372, 304, 68)),
    "SRS": (lambda: SRS(max_fraction=0.1, seed=0), (19968, 5, 4, 1)),
}


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(11)
    centers = rng.uniform(0.0, 100.0, size=(5, 16))
    data = np.clip(np.vstack([
        center + rng.normal(0.0, 3.0, size=(80, 16)) for center in centers]),
        0.0, 100.0)
    return data, data[17] + rng.normal(0.0, 0.5, size=16)


@pytest.mark.parametrize("name", METHODS)
@pytest.mark.parametrize("accessor", ["last_query_stats", "build_stats",
                                      "build_memory_bytes"])
def test_only_the_base_defines_the_accessors(name, accessor):
    assert accessor in KNNIndex.__dict__
    for klass in type(METHODS[name][0]()).__mro__:
        if klass is not KNNIndex:
            assert accessor not in klass.__dict__, klass.__name__


@pytest.mark.parametrize("name", METHODS)
def test_unbuilt_records_are_fresh_and_zeroed(name):
    factory, _ = METHODS[name]
    first, second = factory(), factory()
    assert first.last_query_stats() == QueryStats()
    assert first.build_stats() == BuildStats()
    assert first.build_memory_bytes() == 0
    assert first.last_query_stats() is not second.last_query_stats()
    assert first.build_stats() is not second.build_stats()
    assert first._read_totals() == (0, 0, 0)


@pytest.mark.parametrize("name", METHODS)
def test_build_and_query_counters_are_pinned(workload, name):
    data, query = workload
    factory, pinned = METHODS[name]
    index = factory()
    index.build(data)
    before = index._read_totals()
    index.query(query, 5)
    stats = index.last_query_stats()
    assert (index.build_memory_bytes(), stats.page_reads, stats.random_reads,
            stats.sequential_reads) == pinned
    assert index.build_memory_bytes() == index.build_stats().peak_memory_bytes
    assert stats.random_reads + stats.sequential_reads == stats.page_reads
    # The accountants saw every page the query was charged for and every
    # page the build wrote.
    reads = [after - was for after, was in zip(index._read_totals(), before)]
    assert reads == [stats.page_reads, stats.random_reads,
                     stats.sequential_reads]
    assert index.build_stats().page_writes == sum(
        accountant.page_writes for accountant in index._accountants())
