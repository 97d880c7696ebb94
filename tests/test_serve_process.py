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
    HDIndex,
    HDIndexParams,
    IndexSpec,
    ProcessPoolError,
    SnapshotWorkerPool,
    WorkerCrashed,
    WorkerTimeout,
    build,
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
        with QueryService.from_snapshot(directory, workers=2,
                                        max_batch=8) as service:
            futures = [service.submit(q, K) for q in queries]
            for future, (ids, dists) in zip(futures, expected):
                got_ids, got_dists = future.result(timeout=WAIT)
                np.testing.assert_array_equal(got_ids, ids)
                np.testing.assert_array_equal(got_dists, dists)

    def test_process_service_over_process_recorded_snapshot(self, workload,
                                                             tmp_path):
        """Regression: a snapshot whose recorded spec is process (an
        older release's per-tree pools) must not fork grandchildren
        inside service workers — it opens in-process there."""
        import json
        data, queries = workload
        index = build(IndexSpec(params=_params()), data, storage_dir=tmp_path)
        expected = [index.query(q, K) for q in queries[:4]]
        index.close()
        path = tmp_path / "meta.json"
        meta = json.loads(path.read_text())
        meta["spec"]["execution"].update(kind="process", workers=2)
        path.write_text(json.dumps(meta))
        with QueryService.from_snapshot(
                tmp_path, workers=2, worker_timeout=60.0,
                max_batch=4) as service:
            for q, (ids, dists) in zip(queries, expected):
                got_ids, got_dists = service.query(q, K, timeout=WAIT)
                np.testing.assert_array_equal(got_ids, ids)
                np.testing.assert_array_equal(got_dists, dists)

    def test_a_lone_request_still_goes_to_the_pool(self, workload,
                                                   snapshot):
        """``submit(alone=True)`` answers in the caller's thread only
        in-process: with workers every batch is the pool's."""
        _, queries = workload
        directory, expected = snapshot
        with QueryService.from_snapshot(directory, workers=1) as service:
            for q, (ids, dists) in zip(queries[:3], expected):
                got_ids, got_dists = service.submit(
                    q, K, alone=True).result(timeout=WAIT)
                np.testing.assert_array_equal(got_ids, ids)
                np.testing.assert_array_equal(got_dists, dists)
            stats = service.stats()
        assert (stats.alone, stats.batches) == (0, 3)

    def test_process_mode_requires_snapshot(self, workload):
        data, _ = workload
        index = HDIndex(_params())
        index.build(data)
        try:
            with pytest.raises(ValueError, match="snapshot"):
                QueryService(index, workers=2)
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
            QueryService(index, workers=1)  # fresh: fine
            index.insert(np.full(16, 1.0))
            with pytest.raises(ValueError, match="save_index"):
                QueryService(index, workers=1)
            with pytest.raises(ValueError, match="save_index"):
                QueryService(index, workers=1, snapshot_dir=tmp_path)
            save_index(index, tmp_path)  # re-snapshot clears the drift
            QueryService(index, workers=1)
        finally:
            index.close()

    def test_updates_after_the_pool_binds_are_never_served_stale(
            self, workload, tmp_path):
        """Workers answer from the snapshot alone: an insert or delete on
        the served index fails batches with the typed error until it is
        saved and swapped in, instead of answering from the old data."""
        data, _ = workload
        index = HDIndex(_params(str(tmp_path)))
        index.build(data)
        save_index(index, tmp_path)
        index.close()
        probe = np.full(16, 50.0)
        with QueryService.from_snapshot(tmp_path, workers=2) as service:
            assert service.query(data[7], 1, timeout=WAIT)[0][0] == 7
            new_id = service.index.insert(probe)
            with pytest.raises(ProcessPoolError, match="swap_snapshot"):
                service.query(probe, 1, timeout=WAIT)
            save_index(service.index, tmp_path)
            service.swap_snapshot(timeout=WAIT)
            ids, dists = service.query(probe, 1, timeout=WAIT)
            assert ids[0] == new_id and dists[0] == 0.0
            service.index.delete(7)
            with pytest.raises(ProcessPoolError, match="swap_snapshot"):
                service.query(data[7], 1, timeout=WAIT)
            save_index(service.index, tmp_path)
            service.swap_snapshot(timeout=WAIT)
            assert 7 not in service.query(data[7], 1, timeout=WAIT)[0]


class TestPoolServesWhatTheIndexHolds:
    """Workers open the published generation with no log, so the pool
    binds only to a generation holding what the served index holds; it
    then answers as the same service does in-process."""

    def test_a_delete_since_the_save_is_refused(self, workload, tmp_path):
        data, _ = workload
        index = HDIndex(_params(str(tmp_path)))
        index.build(data)
        save_index(index, tmp_path)
        index.delete(7)
        want = index.query(data[7], 1)
        assert want[0][0] != 7
        try:
            with pytest.raises(ValueError, match="320 points, 1 deleted"):
                QueryService(index, workers=2, snapshot_dir=tmp_path)
            save_index(index, tmp_path)
            with QueryService(index, workers=2,
                              snapshot_dir=tmp_path) as service:
                got = service.query(data[7], 1, timeout=WAIT)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
        finally:
            index.close()

    def test_a_rebuild_since_the_save_is_never_served(self, workload,
                                                      tmp_path):
        """An in-memory index built over other rows after its save is a
        new index: the pool bound to the old snapshot refuses its
        batches, and the snapshot still opens with the old answers."""
        data, _ = workload
        index = HDIndex(_params())
        index.build(data)
        save_index(index, tmp_path)
        want = index.query(data[7], 1)
        other = np.clip(data[:100] + 7.0, 0.0, 100.0)
        with QueryService(index, snapshot_dir=tmp_path,
                          workers=1) as service:
            assert service.query(data[7], 1, timeout=WAIT)[0][0] == 7
            index.build(other)
            assert index.query(other[0], 1)[0][0] == 0
            with pytest.raises(ProcessPoolError, match="swap_snapshot"):
                service.query(other[0], 1, timeout=WAIT)
        index.close()
        with open_index(tmp_path) as reopened:
            got = reopened.query(data[7], 1)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    def test_workers_open_no_log(self, workload, tmp_path):
        """A reader opened without the log is served what it holds: the
        writer's un-compacted insert is neither answered nor replayed
        (nor repaired) by a worker, and the writer itself, whose delta
        no generation holds, is refused."""
        data, _ = workload
        writer = build(IndexSpec(params=_params(), wal=True),
                       data, storage_dir=tmp_path)
        probe = np.full(16, 50.0)
        new_id = writer.insert(probe)
        log = (tmp_path / "wal.log").read_bytes()
        reader = open_index(tmp_path, wal=False)
        try:
            want = reader.query(probe, 1)
            assert want[0][0] != new_id
            with QueryService(reader, workers=2) as service:
                got = service.query(probe, 1, timeout=WAIT)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
            assert (tmp_path / "wal.log").read_bytes() == log
            with pytest.raises(ValueError, match="compact"):
                QueryService(writer, workers=2)
        finally:
            reader.close()
            writer.close()

    def test_a_swap_onto_an_uncompacted_log_is_refused(self, workload,
                                                       tmp_path):
        """The swapped-in index replays the log; the generation its
        workers would open does not hold those records, so the swap is
        refused and the service keeps serving what it served."""
        data, _ = workload
        writer = build(IndexSpec(params=_params(), wal=True),
                       data, storage_dir=tmp_path)
        probe = np.full(16, 50.0)
        try:
            with QueryService.from_snapshot(tmp_path, workers=2) as service:
                want = service.query(probe, 1, timeout=WAIT)
                writer.insert(probe)
                with pytest.raises(ValueError, match="compact"):
                    service.swap_snapshot(timeout=WAIT)
                got = service.query(probe, 1, timeout=WAIT)
                np.testing.assert_array_equal(got[0], want[0])
                writer.compact()
                service.swap_snapshot(timeout=WAIT)
                assert service.query(probe, 1, timeout=WAIT)[0][0] == \
                    len(data)
        finally:
            writer.close()


@needs_fork
class TestWorkerCrash:
    def test_crash_mid_batch_fails_futures_fast_and_pool_recovers(
            self, workload, snapshot, clear_fault_hook):
        _, queries = workload
        directory, expected = snapshot
        procpool._FAULT_HOOK = lambda: os.kill(os.getpid(), signal.SIGKILL)
        service = QueryService.from_snapshot(
            directory, workers=2, max_batch=16).start()
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


@needs_fork
class TestWorkerTimeout:
    def test_wedged_worker_surfaces_timeout_and_recovers(
            self, workload, snapshot, clear_fault_hook):
        _, queries = workload
        directory, expected = snapshot
        procpool._FAULT_HOOK = lambda: time.sleep(30)
        service = QueryService.from_snapshot(
            directory, workers=1, worker_timeout=0.75, max_batch=4).start()
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
            directory, workers=2, max_batch=8).start()
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
        service = QueryService.from_snapshot(directory, workers=1)
        service.close()
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(np.zeros(16), K)


class TestPoolValidation:
    def test_rejects_bad_arguments(self, tmp_path):
        with pytest.raises(ValueError):
            SnapshotWorkerPool(tmp_path, num_workers=0)
        with pytest.raises(TypeError):  # workers always reopen via mmap
            SnapshotWorkerPool(tmp_path, 1, backend="mmap")
        with pytest.raises(TypeError):  # ... with the snapshot's own pages
            SnapshotWorkerPool(tmp_path, 1, cache_pages=8)
        with pytest.raises(TypeError):  # the width is always chosen
            SnapshotWorkerPool(tmp_path)
        with pytest.raises(ValueError):
            SnapshotWorkerPool(tmp_path, 1, timeout=0)

    def test_closed_pool_raises(self, snapshot):
        directory, _ = snapshot
        pool = SnapshotWorkerPool(directory, num_workers=1)
        pool.close()
        with pytest.raises(ProcessPoolError):
            pool.run_query_batch(np.zeros((1, 16)), 1)
