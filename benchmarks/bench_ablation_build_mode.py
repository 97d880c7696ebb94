"""Ablation — bulk-load vs incremental-insert RDB-tree construction.

Algo. 1 builds each RDB-tree from key-sorted entries (bulk load: every page
written exactly once, sequentially).  Sec. 3.6's update path inserts one
entry at a time through standard B+-tree splits.  This ablation measures
what bulk loading buys at construction time — and verifies both builds
answer queries identically, which is what makes the Sec. 3.6 update story
safe.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.common import emit, start_report
from repro.btree import BPlusTree
from repro.core.rdbtree import RDBTree
from repro.hilbert import HilbertCurve

BENCH = "ablation_build_mode"
N = 3000
M = 10


@pytest.fixture(scope="module")
def entries():
    rng = np.random.default_rng(0)
    curve = HilbertCurve(8, 8)
    coords = rng.integers(0, 256, size=(N, 8))
    keys = curve.encode_batch(coords)
    ids = np.arange(N, dtype=np.int64)
    ref = rng.uniform(0, 100, size=(N, M)).astype(np.float32)
    return curve, keys, ids, ref


def test_build_mode_ablation(entries, benchmark):
    rows = benchmark.pedantic(lambda: _compare(entries), rounds=1,
                              iterations=1)
    bulk, incremental = rows
    # Bulk loading is faster and writes each page about once; incremental
    # rewrites pages on every split.
    assert bulk["seconds"] < incremental["seconds"]
    assert bulk["writes"] < incremental["writes"]
    assert bulk["identical"]


def _compare(entries):
    curve, keys, ids, ref = entries
    start_report(BENCH, "Ablation: bulk-load vs incremental RDB-tree build")
    emit(BENCH, f"{'mode':<13} {'seconds':>8} {'page writes':>12} "
                f"{'size KB':>8}")

    started = time.perf_counter()
    bulk_tree = RDBTree(curve, M)
    bulk_tree.bulk_build(keys, ids, ref)
    bulk_seconds = time.perf_counter() - started
    bulk_writes = bulk_tree.stats.page_writes

    # The incremental arm is the thing ablated: a node-based B+-tree of
    # the same page geometry taking one insert — descent, leaf rewrite,
    # splits — per entry, in arrival (id) order.
    record_ids = bulk_tree.packed.values_raw.view(
        bulk_tree._record_dtype)["id"].ravel()
    arrivals = bulk_tree.packed.entries(np.argsort(record_ids))
    started = time.perf_counter()
    incremental_tree = BPlusTree.from_columns(
        RDBTree(curve, M).packed, bulk_tree.leaf_capacity)
    for key, value in arrivals:
        incremental_tree.insert(key, value)
    incremental_seconds = time.perf_counter() - started
    incremental_writes = incremental_tree.stats.page_writes

    # Same query results from both trees.
    identical = True
    for probe_index in range(0, N, N // 7):
        probe = int(keys[probe_index])
        bulk_ids, _ = bulk_tree.candidates(probe, 25)
        nearest = incremental_tree.nearest(
            probe.to_bytes(curve.key_bytes, "big"), 25)
        bulk_key_dists = sorted(abs(int(keys[i]) - probe) for i in bulk_ids)
        incr_key_dists = sorted(abs(int.from_bytes(key, "big") - probe)
                                for key, _ in nearest)
        if bulk_key_dists != incr_key_dists:
            identical = False

    emit(BENCH, f"{'bulk':<13} {bulk_seconds:>8.2f} {bulk_writes:>12} "
                f"{bulk_tree.size_bytes() // 1024:>8}")
    emit(BENCH, f"{'incremental':<13} {incremental_seconds:>8.2f} "
                f"{incremental_writes:>12} "
                f"{incremental_tree.size_bytes() // 1024:>8}")
    emit(BENCH, f"identical candidates: {identical}")
    emit(BENCH, "-> bulk loading writes each page ~once; inserts pay "
                "per-split rewrites — why Algo. 1 sorts then loads")
    return (
        dict(seconds=bulk_seconds, writes=bulk_writes, identical=identical),
        dict(seconds=incremental_seconds, writes=incremental_writes,
             identical=identical),
    )
