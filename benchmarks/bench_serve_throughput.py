"""Concurrent serving throughput — the PR-2 serve-subsystem extension.

Measures queries/second of the micro-batched :class:`QueryService` against
the naive thread-safe alternative — a per-query lock-step loop where every
client thread takes a global lock around ``index.query`` (the page stores
are not thread-safe, so a lock is the minimum a direct-access deployment
needs).  The service funnels the same concurrent traffic through one
worker that hands whatever is queued to the vectorised ``query_batch``
path, so the per-query fixed costs (reference matmul, Hilbert encoding,
duplicate descriptor fetches) amortise across whatever happens to be
in flight.

Two client models are reported:

* ``sync``  — each client blocks on every call (in-flight = client count);
* ``async`` — each client submits its whole workload as futures and then
  gathers (the natural future-based use; batches reach ``max_batch``).

Run with::

    PYTHONPATH=src:. python -m pytest benchmarks/bench_serve_throughput.py \
        --benchmark-only -q
"""

from __future__ import annotations

import threading
import time

import pytest

from benchmarks.common import Workload, emit, hd_params, start_report
from repro.core import HDIndex
from repro.serve import QueryService

BENCH = "serve_throughput"
CLIENTS = (1, 4, 8)
NUM_QUERIES = 256
K = 10
MAX_BATCH = 64


@pytest.fixture(scope="module")
def workload():
    return Workload("sift10k", n=4000, num_queries=NUM_QUERIES, max_k=K)


@pytest.fixture(scope="module")
def index(workload):
    built = HDIndex(hd_params(workload.spec, len(workload.data)))
    built.build(workload.data)
    return built


def test_serve_throughput(workload, index, benchmark):
    table = benchmark.pedantic(lambda: _measure(workload, index),
                               rounds=1, iterations=1)
    # Acceptance: micro-batching still beats lock-step access at 8
    # concurrent clients.  The original 2x bar dates from when the
    # lock-step loop ran the python per-query kernels (~53 q/s); the
    # array-native hot path gave the loop the same kernels the batch
    # path uses, so the service's remaining edge is duplicate-work
    # amortisation and in-flight overlap, not kernel quality — >= 1.3x
    # keeps that claim honest without re-litigating the hot-path win
    # (bench_hotpath.py guards that).
    speedup = table[("async", 8)] / table[("lockstep", 8)]
    assert speedup >= 1.3, f"service only {speedup:.2f}x lock-step loop"


def _run_threads(worker, num_clients):
    threads = [threading.Thread(target=worker, args=(client,))
               for client in range(num_clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return NUM_QUERIES / (time.perf_counter() - started)


def _lockstep_qps(index, queries, num_clients):
    lock = threading.Lock()

    def worker(client):
        for i in range(client, len(queries), num_clients):
            with lock:
                index.query(queries[i], K)

    return _run_threads(worker, num_clients)


def _service_qps(service, queries, num_clients, pipelined):
    def worker(client):
        own = range(client, len(queries), num_clients)
        if pipelined:
            futures = [service.submit(queries[i], K) for i in own]
            for future in futures:
                future.result()
        else:
            for i in own:
                service.query(queries[i], K)

    return _run_threads(worker, num_clients)


def _measure(workload, index):
    start_report(BENCH, "Concurrent serving throughput (queries/sec, "
                        f"Q={NUM_QUERIES}, k={K}, max_batch={MAX_BATCH})")
    queries = workload.queries
    index.query(queries[0], K)  # warm caches and pools
    table = {}
    emit(BENCH, f"\n{'mode':<22} {'clients':>8} {'q/s':>9} {'vs lock':>8} "
                f"{'mean batch':>11}")
    for num_clients in CLIENTS:
        table[("lockstep", num_clients)] = _lockstep_qps(
            index, queries, num_clients)
        emit(BENCH, f"{'lock-step loop':<22} {num_clients:>8} "
                    f"{table[('lockstep', num_clients)]:>9.1f} "
                    f"{'1.00x':>8} {'-':>11}")
    for pipelined in (False, True):
        mode = "async" if pipelined else "sync"
        for num_clients in CLIENTS:
            with QueryService(index, max_batch=MAX_BATCH) as service:
                qps = _service_qps(service, queries, num_clients, pipelined)
                stats = service.stats()
            table[(mode, num_clients)] = qps
            baseline = table[("lockstep", num_clients)]
            emit(BENCH,
                 f"{f'service {mode}':<22} "
                 f"{num_clients:>8} {qps:>9.1f} "
                 f"{f'{qps / baseline:.2f}x':>8} "
                 f"{stats.mean_batch_size():>11.1f}")
    emit(BENCH, "\n-> sync clients cap the batch at the client count; "
                "async (futures) clients let micro-batches reach "
                "max_batch, where the vectorised engine path pays off.")
    return table
