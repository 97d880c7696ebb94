"""Unit tests for the modelled LRU buffer pool.

No structure holds pages in a pool: the descriptor heap and every
RDB-tree are arrays, and :class:`~repro.storage.stats.ModelledPool` is
an LRU over page *ids* that decides whether a read of their trace is a
cache hit or a counted page read.
"""

import numpy as np
import pytest

from repro.storage import IOStats, ModelledPool, heap_file_from_array


def make_pool(capacity, page_size=32):
    return ModelledPool(cache_pages=capacity, page_size=page_size)


def read(pool, *page_ids):
    pool.record_read_many(np.asarray(page_ids, dtype=np.int64))


class TestDisabledCache:
    """cache_pages=0 reproduces the paper's caching-off methodology."""

    def test_every_read_hits_the_store(self):
        pool = make_pool(capacity=0)
        for _ in range(3):
            read(pool, 0)
        assert pool.stats.page_reads == 3
        assert pool.stats.cache_hits == 0

    def test_no_memory_held(self):
        pool = make_pool(capacity=0)
        read(pool, 0, 1, 2)
        assert pool.memory_bytes() == 0


class TestLRU:
    def test_repeated_read_served_from_cache(self):
        pool = make_pool(capacity=4)
        read(pool, 0)
        read(pool, 0)
        read(pool, 0)
        assert pool.stats.page_reads == 1
        assert pool.stats.cache_hits == 2

    def test_eviction_order_is_least_recently_used(self):
        pool = make_pool(capacity=2)
        read(pool, 0, 1)
        read(pool, 0)       # refresh page 0
        read(pool, 2)       # evicts page 1
        pool.stats.reset()
        read(pool, 0)       # hit
        assert pool.stats.cache_hits == 1
        read(pool, 1)       # miss: was evicted
        assert pool.stats.page_reads == 1

    def test_capacity_never_exceeded(self):
        pool = make_pool(capacity=3)
        read(pool, *range(6))
        assert pool.memory_bytes() == 3 * 32

    def test_clear_drops_cache(self):
        pool = make_pool(capacity=4)
        read(pool, 0)
        pool.clear_cache()
        pool.stats.reset()
        read(pool, 0)
        assert pool.stats.page_reads == 1
        assert pool.memory_bytes() == 32

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="cache_pages"):
            make_pool(capacity=-1)

    def test_invalid_page_size_rejected(self):
        for page_size in (0, -4096):
            with pytest.raises(ValueError, match="page_size"):
                make_pool(capacity=4, page_size=page_size)

    def test_page_size_passthrough(self):
        pool = make_pool(capacity=2, page_size=128)
        assert pool.page_size == 128
        read(pool, 7)
        assert pool.memory_bytes() == 128


class TestHitRateAccounting:
    """The cache_hits / page_reads split the serving benchmarks lean on."""

    def test_hits_and_misses_sum_to_logical_reads(self):
        pool = make_pool(capacity=3)
        pattern = [0, 1, 2, 0, 1, 2, 3, 3, 0, 5]
        read(pool, *pattern)
        stats = pool.stats
        assert stats.page_reads + stats.cache_hits == len(pattern)
        # 0,1,2 miss; 0,1,2 hit; 3 misses; 3 hits; 0 was evicted by 3 so
        # misses; 5 misses.
        assert stats.cache_hits == 4
        assert stats.page_reads == 6

    def test_eviction_is_visible_in_hit_rate(self):
        pool = make_pool(capacity=2)
        for _ in range(3):
            read(pool, *range(4))  # working set (4) > capacity (2)
        assert pool.stats.cache_hits == 0  # LRU thrashes: no reuse wins
        assert pool.stats.page_reads == 12
        assert pool.memory_bytes() == 2 * 32

    def test_misses_are_classified_in_their_own_order(self):
        """Hits drop out of the trace; the counted reads keep the
        random/sequential split of the misses as they came."""
        pool, plain = make_pool(capacity=2), IOStats()
        read(pool, 4, 5, 4, 6, 7)
        for page_id in (4, 5, 6, 7):
            plain.record_read(page_id)
        assert pool.stats.cache_hits == 1
        assert (pool.stats.page_reads, pool.stats.random_reads,
                pool.stats.sequential_reads) == (
            plain.page_reads, plain.random_reads, plain.sequential_reads)

    def test_writes_do_not_warm_the_pool(self):
        """A freshly built heap starts as cold as clear_cache leaves it:
        its first gather reads every page it touches."""
        heap = heap_file_from_array(np.zeros((8, 4)), page_size=64,
                                    cache_pages=4)
        assert heap.stats.page_writes == 2 and heap.memory_bytes() == 0
        heap.gather([0, 4])
        assert (heap.stats.page_reads, heap.stats.cache_hits) == (2, 0)

    def test_snapshot_reports_hits(self):
        pool = make_pool(capacity=2)
        read(pool, 0, 0)
        snap = pool.stats.snapshot()
        assert snap["cache_hits"] == 1
        assert snap["page_reads"] == 1
