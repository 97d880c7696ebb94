"""Process-mode serving: parity, fault injection and lifecycle hygiene.

The contracts under test, in order of how expensive they are to get wrong
in production:

* a worker process dying mid-batch fails every pending future **fast**
  with a typed :class:`WorkerCrashed` — never a hang — and the pool
  recovers for the next batch without operator action;
* a wedged worker (task past ``worker_timeout``) surfaces as
  :class:`WorkerTimeout`, the stuck pool is killed, and serving resumes;
* ``close()`` is idempotent and safe to race against concurrent
  submitters;
* and, throughout, answers stay byte-identical to the sequential path.

Crash/timeout injection uses :data:`repro.core.procpool._FAULT_HOOK`: the
parent sets it *before* the pool forks, so every worker inherits the hook
and runs it at task entry — a deterministic SIGKILL/wedge in the middle of
a dispatched batch.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

import repro.core.procpool as procpool
from repro.core import (
    Execution,
    HDIndex,
    HDIndexParams,
    IndexSpec,
    ProcessPoolError,
    ShardRouter,
    SnapshotWorkerPool,
    WorkerCrashed,
    WorkerTimeout,
    create_index,
    open_index,
    save_index,
)
from repro.serve import QueryService, ServiceClosed

K = 5
#: Upper bound on any single future wait; a hang fails the test instead of
#: freezing the suite (CI adds pytest-timeout on top).
WAIT = 60.0

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fault hook relies on fork-inherited worker state")


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(55)
    centers = rng.uniform(0.0, 100.0, size=(5, 16))
    data = np.vstack([center + rng.normal(0.0, 3.0, size=(64, 16))
                      for center in centers])
    queries = data[rng.choice(len(data), 16, replace=False)] \
        + rng.normal(0.0, 0.5, size=(16, 16))
    return np.clip(data, 0, 100), np.clip(queries, 0, 100)


def _params(directory=None):
    return HDIndexParams(num_trees=4, hilbert_order=6, num_references=5,
                         alpha=48, gamma=12, domain=(0.0, 100.0), seed=1,
                         storage_dir=directory)


@pytest.fixture(scope="module")
def snapshot(workload, tmp_path_factory):
    data, queries = workload
    directory = tmp_path_factory.mktemp("proc-snap")
    index = HDIndex(_params(str(directory)))
    index.build(data)
    save_index(index, directory)
    expected = [index.query(q, K) for q in queries]
    index.close()
    return directory, expected


@pytest.fixture
def clear_fault_hook():
    yield
    procpool._FAULT_HOOK = None


class TestProcessModeParity:
    def test_served_answers_match_sequential(self, workload, snapshot):
        _, queries = workload
        directory, expected = snapshot
        with QueryService.from_snapshot(directory, execution=Execution(
                                            kind="process", workers=2),
                                        max_batch=8) as service:
            futures = [service.submit(q, K) for q in queries]
            for future, (ids, dists) in zip(futures, expected):
                got_ids, got_dists = future.result(timeout=WAIT)
                np.testing.assert_array_equal(got_ids, ids)
                np.testing.assert_array_equal(got_dists, dists)

    def test_sharded_snapshot_served_in_process_mode(self, workload,
                                                     tmp_path):
        """Workers bootstrap whole sharded snapshots too (each worker
        reopens every shard via mmap and answers full queries)."""
        data, queries = workload
        sharded = ShardRouter(_params(), 2)
        sharded.build(data)
        save_index(sharded, tmp_path)
        expected = [sharded.query(q, K) for q in queries[:6]]
        sharded.close()
        with QueryService.from_snapshot(tmp_path, execution=Execution(
                                            kind="process", workers=2),
                                        max_batch=4) as service:
            for q, (ids, dists) in zip(queries, expected):
                got_ids, got_dists = service.query(q, K, timeout=WAIT)
                np.testing.assert_array_equal(got_ids, ids)
                np.testing.assert_array_equal(got_dists, dists)

    def test_process_service_over_process_sharded_snapshot(self, workload,
                                                           tmp_path):
        """Regression: a snapshot whose recorded spec is sharded x process
        must not recursively fork grandchildren inside service workers —
        the worker-side bootstrap demotes every shard's executor to
        sequential before answering."""
        from repro.core import IndexSpec, Topology
        from repro.core import build as build_spec
        data, queries = workload
        spec = IndexSpec(params=_params(),
                         topology=Topology(shards=2),
                         execution=Execution(kind="process", workers=2),
                         backend="mmap")
        index = build_spec(spec, data, storage_dir=tmp_path)
        expected = [index.query(q, K) for q in queries[:4]]
        index.close()
        with QueryService.from_snapshot(
                tmp_path, execution=Execution(kind="process", workers=2,
                                              worker_timeout=60.0),
                max_batch=4) as service:
            for q, (ids, dists) in zip(queries, expected):
                got_ids, got_dists = service.query(q, K, timeout=WAIT)
                np.testing.assert_array_equal(got_ids, ids)
                np.testing.assert_array_equal(got_dists, dists)

    def test_process_mode_requires_snapshot(self, workload):
        data, _ = workload
        index = HDIndex(_params())
        index.build(data)
        try:
            with pytest.raises(ValueError, match="snapshot"):
                QueryService(index, execution="process")
        finally:
            index.close()

    def test_stale_snapshot_rejected(self, workload, tmp_path):
        """A live index mutated after its last save must not be silently
        served from the old snapshot: workers would answer from stale
        data, so construction fails loudly instead."""
        data, _ = workload
        index = HDIndex(_params(str(tmp_path)))
        index.build(data)
        save_index(index, tmp_path)
        try:
            QueryService(index, execution="process", workers=1)  # fresh: fine
            index.insert(np.full(16, 1.0))
            with pytest.raises(ValueError, match="save_index"):
                QueryService(index, execution="process", workers=1)
            with pytest.raises(ValueError, match="save_index"):
                QueryService(index, execution="process", workers=1,
                             snapshot_dir=tmp_path)
            save_index(index, tmp_path)  # re-snapshot clears the drift
            QueryService(index, execution="process", workers=1)
        finally:
            index.close()

    def test_unknown_execution_rejected(self, workload):
        index = HDIndex(_params())
        with pytest.raises(ValueError, match="execution kind"):
            QueryService(index, execution="fiber")


@needs_fork
class TestWorkerCrash:
    def test_crash_mid_batch_fails_futures_fast_and_pool_recovers(
            self, workload, snapshot, clear_fault_hook):
        _, queries = workload
        directory, expected = snapshot
        procpool._FAULT_HOOK = lambda: os.kill(os.getpid(), signal.SIGKILL)
        service = QueryService.from_snapshot(
            directory, execution=Execution(kind="process", workers=2),
            max_batch=16).start()
        try:
            futures = [service.submit(q, K) for q in queries]
            started = time.perf_counter()
            for future in futures:
                with pytest.raises(WorkerCrashed):
                    future.result(timeout=WAIT)
            elapsed = time.perf_counter() - started
            # Fail fast: the broken-pool signal, not a timeout, fails the
            # batch (WAIT would be 60s; the whole batch settles in well
            # under a tenth of that).
            assert elapsed < WAIT / 10
            # The typed error is catchable as the tier's base class.
            assert issubclass(WorkerCrashed, ProcessPoolError)

            # Next batch: the pool restarts with fresh (un-hooked) workers
            # and serves byte-identical answers again.
            procpool._FAULT_HOOK = None
            ids, dists = service.query(queries[0], K, timeout=WAIT)
            np.testing.assert_array_equal(ids, expected[0][0])
            np.testing.assert_array_equal(dists, expected[0][1])
        finally:
            procpool._FAULT_HOOK = None
            service.close()

    def test_crash_on_direct_process_index_raises_typed(
            self, workload, snapshot, clear_fault_hook):
        """The engine-level tree-scan path fails typed too, not just the
        service."""
        _, queries = workload
        directory, expected = snapshot
        index = open_index(directory,
                           execution=Execution(kind="process", workers=2))
        try:
            procpool._FAULT_HOOK = lambda: os.kill(os.getpid(),
                                                   signal.SIGKILL)
            with pytest.raises(WorkerCrashed):
                index.query(queries[0], K)
            procpool._FAULT_HOOK = None
            ids, _ = index.query(queries[0], K)
            np.testing.assert_array_equal(ids, expected[0][0])
        finally:
            procpool._FAULT_HOOK = None
            index.close()


@needs_fork
class TestWorkerTimeout:
    def test_wedged_worker_surfaces_timeout_and_recovers(
            self, workload, snapshot, clear_fault_hook):
        _, queries = workload
        directory, expected = snapshot
        procpool._FAULT_HOOK = lambda: time.sleep(30)
        service = QueryService.from_snapshot(
            directory, execution=Execution(kind="process", workers=1,
                                           worker_timeout=0.75),
            max_batch=4).start()
        try:
            started = time.perf_counter()
            with pytest.raises(WorkerTimeout):
                service.query(queries[0], K, timeout=WAIT)
            # The guard fired at ~worker_timeout, not after the 30s wedge.
            assert time.perf_counter() - started < 10.0
            procpool._FAULT_HOOK = None
            ids, _ = service.query(queries[1], K, timeout=WAIT)
            np.testing.assert_array_equal(ids, expected[1][0])
        finally:
            procpool._FAULT_HOOK = None
            service.close()


class TestCloseIdempotence:
    def test_close_under_concurrent_submitters(self, workload, snapshot):
        """Racing close() against a swarm of submitters: every future
        either completes or fails with ServiceClosed; close() stays
        idempotent; nothing hangs."""
        _, queries = workload
        directory, _ = snapshot
        service = QueryService.from_snapshot(
            directory, execution=Execution(kind="process", workers=2),
            max_batch=8).start()
        outcomes: list[str] = []
        lock = threading.Lock()

        def submitter(offset):
            for i in range(20):
                q = queries[(offset + i) % len(queries)]
                try:
                    service.submit(q, K).result(timeout=WAIT)
                    outcome = "answered"
                except ServiceClosed:
                    outcome = "closed"
                except ProcessPoolError:
                    outcome = "pool"
                with lock:
                    outcomes.append(outcome)

        threads = [threading.Thread(target=submitter, args=(t,))
                   for t in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.15)
        closers = [threading.Thread(target=service.close)
                   for _ in range(3)]
        for closer in closers:
            closer.start()
        for thread in threads + closers:
            thread.join(timeout=WAIT)
            assert not thread.is_alive(), "a thread hung across close()"
        service.close()  # still idempotent after the race
        assert outcomes.count("answered") >= 1
        assert outcomes.count("pool") == 0
        assert all(o in ("answered", "closed") for o in outcomes)

    def test_close_is_idempotent_when_never_started(self, workload,
                                                    snapshot):
        directory, _ = snapshot
        service = QueryService.from_snapshot(directory,
                                             execution="process", workers=1)
        service.close()
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(np.zeros(16), K)


class TestPoolValidation:
    def test_rejects_bad_arguments(self, tmp_path):
        with pytest.raises(ValueError):
            SnapshotWorkerPool(tmp_path, num_workers=0)
        with pytest.raises(ValueError):
            SnapshotWorkerPool(tmp_path, backend="tape")
        with pytest.raises(ValueError):
            SnapshotWorkerPool(tmp_path, timeout=0)

    def test_unbound_pool_raises_typed(self):
        pool = SnapshotWorkerPool(None, num_workers=1)
        with pytest.raises(ProcessPoolError, match="snapshot"):
            pool.run_query_batch(np.zeros((1, 4)), 1)
        pool.close()

    def test_closed_pool_raises(self, snapshot):
        directory, _ = snapshot
        pool = SnapshotWorkerPool(directory, num_workers=1)
        pool.close()
        with pytest.raises(ProcessPoolError):
            pool.run_query_batch(np.zeros((1, 16)), 1)

    def test_process_index_requires_storage_dir(self):
        with pytest.raises(ValueError, match="storage_dir"):
            create_index(IndexSpec(params=HDIndexParams(num_trees=2),
                                   execution=Execution(kind="process")))

    def test_sharded_snapshot_reopens_with_process_execution(
            self, workload, tmp_path):
        """The spec redesign made sharded x process expressible: a sharded
        snapshot reopens with per-shard worker pools."""
        data, queries = workload
        sharded = ShardRouter(_params(), 2)
        sharded.build(data)
        save_index(sharded, tmp_path)
        expected = [sharded.query(q, K) for q in queries[:3]]
        sharded.close()
        reopened = open_index(tmp_path,
                              execution=Execution(kind="process", workers=2))
        try:
            assert reopened.execution.kind == "process"
            for q, (ids, dists) in zip(queries, expected):
                got_ids, got_dists = reopened.query(q, K)
                np.testing.assert_array_equal(got_ids, ids)
                np.testing.assert_array_equal(got_dists, dists)
        finally:
            reopened.close()


class TestProcessKindPersistence:
    def test_process_snapshot_reopens_as_process_kind(self, workload,
                                                      tmp_path):
        from repro.core import load_index
        data, queries = workload
        index = create_index(IndexSpec(
            params=_params(str(tmp_path)),
            execution=Execution(kind="process", workers=2)))
        index.build(data)
        expected = index.query_batch(queries[:4], K)
        index.close()
        reopened = load_index(tmp_path)
        try:
            # The spec reconstructs process execution without the
            # deprecated class: workers bootstrap from this directory.
            assert isinstance(reopened, HDIndex)
            assert reopened.spec.execution.kind == "process"
            assert reopened.spec.execution.workers == 2
            assert reopened.snapshot_dir == str(tmp_path)
            got = reopened.query_batch(queries[:4], K)
            np.testing.assert_array_equal(got[0], expected[0])
            np.testing.assert_array_equal(got[1], expected[1])
        finally:
            reopened.close()

    @pytest.mark.parametrize("wal", [None, False])
    def test_insert_visible_through_workers_without_restart(
            self, workload, tmp_path, wal):
        """An inserted point is answered through process workers at once
        — it lives in the parent-side delta, logged or not — and neither
        the write nor the queries after it restart the pool."""
        data, queries = workload
        index = create_index(IndexSpec(
            params=_params(str(tmp_path)),
            execution=Execution(kind="process", workers=2, wal=wal)))
        index.build(data)
        try:
            pool = index.executor.pool
            pids = pool.prestart()
            workers = pool._pool
            # A save that folds nothing leaves the workers alone too.
            save_index(index, str(tmp_path))
            assert pool._pool is workers
            probe = np.full(16, 50.0)
            new_id = index.insert(probe)
            ids, dists = index.query(probe, 1)
            assert ids[0] == new_id and dists[0] < 1e-5
            # Deletes are parent-side too (the survivor merge filters).
            index.delete(int(new_id))
            ids, _ = index.query(probe, 1)
            assert new_id not in ids
            assert index.executor.pool is pool and pool._pool is workers
            assert set(pool.prestart()) <= set(pids)
        finally:
            index.close()
