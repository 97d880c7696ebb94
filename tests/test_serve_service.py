"""Tests for the micro-batched concurrent query service.

The contract under test: batching changes the *work layout*, never the
answers — N client threads through the service get byte-identical
results to a sequential loop over ``query`` — plus the service mechanics
(backpressure, draining, error isolation, statistics) and the batching
policy: work-conserving, checked without timing through a gated stub index.
"""

import dataclasses
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core import (
    HDIndex,
    HDIndexParams,
    IndexSpec,
    create_index,
    save_index,
)
from repro.serve import QueryService, ServiceClosed, ServiceOverloaded

K = 10


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(77)
    centers = rng.uniform(0.0, 100.0, size=(6, 16))
    data = np.vstack([
        center + rng.normal(0.0, 3.0, size=(60, 16)) for center in centers])
    queries = data[rng.choice(len(data), 24, replace=False)] \
        + rng.normal(0.0, 0.5, size=(24, 16))
    return np.clip(data, 0, 100), np.clip(queries, 0, 100)


def params(**overrides):
    defaults = dict(num_trees=4, num_references=5, alpha=96, gamma=32,
                    domain=(0.0, 100.0), seed=0)
    defaults.update(overrides)
    return HDIndexParams(**defaults)


@pytest.fixture(scope="module")
def built_index(workload):
    data, _ = workload
    index = HDIndex(params())
    index.build(data)
    yield index
    index.close()


@pytest.fixture(scope="module")
def expected(workload, built_index):
    _, queries = workload
    return [built_index.query(query, K) for query in queries]


def run_clients(service, queries, num_threads, rounds=1, k=K):
    """Drive the service from ``num_threads`` threads; returns results
    indexed like ``queries`` (repeated ``rounds`` times)."""
    total = len(queries) * rounds
    results = [None] * total
    failures = []

    def client(thread_index):
        try:
            for i in range(thread_index, total, num_threads):
                results[i] = service.query(queries[i % len(queries)], k)
        except Exception as error:  # pragma: no cover - failure reporting
            failures.append(error)

    threads = [threading.Thread(target=client, args=(t,))
               for t in range(num_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, failures
    return results


class TestConcurrentParity:
    @pytest.mark.parametrize("num_threads", [1, 4, 8])
    def test_threads_match_sequential_loop(self, workload, built_index,
                                           expected, num_threads):
        _, queries = workload
        with QueryService(built_index, max_batch=8) as service:
            results = run_clients(service, queries, num_threads)
        for row, (ids, dists) in enumerate(expected):
            np.testing.assert_array_equal(results[row][0], ids)
            np.testing.assert_array_equal(results[row][1], dists)

    def test_repeated_queries_are_answered_by_the_index(self, workload,
                                                       built_index,
                                                       expected):
        """The service keeps no earlier answer: a second round of the
        same queries reaches ``query_batch`` again, row for row."""
        _, queries = workload
        rows = []

        class Counting:
            def query_batch(self, points, k, **overrides):
                rows.append(len(points))
                return built_index.query_batch(points, k, **overrides)

        with QueryService(Counting(), max_batch=8) as service:
            first = run_clients(service, queries, 4)
            second = run_clients(service, queries, 4)
            stats = service.stats()
        assert sum(rows) == stats.queries == 2 * len(queries)
        for row, (ids, dists) in enumerate(expected):
            for results in (first, second):
                np.testing.assert_array_equal(results[row][0], ids)
                np.testing.assert_array_equal(results[row][1], dists)

    @pytest.mark.parametrize("make_index, workers", [
        (lambda p, directory: create_index(IndexSpec(params=p),
                                           storage_dir=directory),
         2),
        (lambda p, directory: create_index(
            IndexSpec(params=dataclasses.replace(p, backend="memory")),
            storage_dir=directory),
         2),
        (lambda p, directory: create_index(IndexSpec(params=p, wal=True),
                                           storage_dir=directory),
         None),
    ], ids=["process", "memory-index-process", "logged"])
    def test_family_members_served_identically(self, workload, make_index,
                                               workers, tmp_path):
        data, queries = workload
        index = make_index(params(), str(tmp_path))
        index.build(data)
        save_index(index, str(tmp_path))
        expected = [index.query(query, K) for query in queries]
        with QueryService(index, max_batch=8, workers=workers) as service:
            results = run_clients(service, queries, 4)
        for row, (ids, dists) in enumerate(expected):
            np.testing.assert_array_equal(results[row][0], ids)
            np.testing.assert_array_equal(results[row][1], dists)
        index.close()

    def test_mixed_k_and_overrides_batched_separately(self, workload,
                                                      built_index):
        _, queries = workload
        combos = [dict(k=3), dict(k=7), dict(k=5, alpha=48, gamma=16)]
        expected = []
        for row, query in enumerate(queries):
            combo = dict(combos[row % len(combos)])
            k = combo.pop("k")
            expected.append(built_index.query(query, k, **combo))
        with QueryService(built_index, max_batch=16) as service:
            futures = []
            for row, query in enumerate(queries):
                combo = dict(combos[row % len(combos)])
                k = combo.pop("k")
                futures.append(service.submit(query, k, **combo))
            results = [future.result() for future in futures]
        for (ids, dists), (got_ids, got_dists) in zip(expected, results):
            np.testing.assert_array_equal(got_ids, ids)
            np.testing.assert_array_equal(got_dists, dists)


class TestServiceMechanics:
    def test_micro_batches_actually_form(self, workload, built_index):
        _, queries = workload
        service = QueryService(built_index, max_batch=64)
        futures = [service.submit(query, K) for query in queries]
        service.start()
        for future in futures:
            future.result()
        stats = service.stats()
        service.stop()
        assert stats.batches < len(queries)
        assert stats.max_batch_size > 1
        assert stats.queries == len(queries)

    def test_backpressure_bounds_queue_depth(self, workload, built_index):
        _, queries = workload
        service = QueryService(built_index, max_pending=4)
        for row in range(4):
            service.submit(queries[row], K)
        assert service.pending() == 4
        with pytest.raises(ServiceOverloaded):
            service.submit(queries[4], K, timeout=0.05)
        assert service.stats().overloads == 1
        # Once the worker drains the queue, submission unblocks.
        service.start()
        future = service.submit(queries[4], K, timeout=5.0)
        ids, _ = future.result(timeout=5.0)
        np.testing.assert_array_equal(
            ids, built_index.query(queries[4], K)[0])
        service.stop()

    def test_stop_drains_pending_requests(self, workload, built_index):
        _, queries = workload
        service = QueryService(built_index)
        futures = [service.submit(query, K) for query in queries[:6]]
        service.start()
        service.stop()  # drain=True: all queued work is answered
        for future, query in zip(futures, queries):
            ids, _ = future.result(timeout=0)
            np.testing.assert_array_equal(
                ids, built_index.query(query, K)[0])

    def test_stop_without_drain_fails_queued_futures(self, workload,
                                                     built_index):
        _, queries = workload
        service = QueryService(built_index)
        futures = [service.submit(query, K) for query in queries[:3]]
        service.stop(drain=False)
        for future in futures:
            with pytest.raises(ServiceClosed):
                future.result(timeout=0)

    def test_submit_after_stop_rejected(self, workload, built_index):
        _, queries = workload
        service = QueryService(built_index)
        service.stop()
        with pytest.raises(ServiceClosed):
            service.submit(queries[0], K)
        with pytest.raises(ServiceClosed):
            service.start()

    def test_stop_idempotent_and_context_manager(self, workload,
                                                 built_index):
        _, queries = workload
        with QueryService(built_index) as service:
            service.query(queries[0], K)
        service.stop()
        service.stop(drain=False)

    def test_bad_query_does_not_poison_batch(self, workload, built_index):
        _, queries = workload
        service = QueryService(built_index)
        good = [service.submit(query, K) for query in queries[:3]]
        bad = service.submit(np.zeros(7), K)  # wrong dimensionality
        more = [service.submit(query, K) for query in queries[3:6]]
        service.start()
        with pytest.raises(ValueError):
            bad.result(timeout=5.0)
        for future, query in zip(good + more,
                                 list(queries[:3]) + list(queries[3:6])):
            ids, _ = future.result(timeout=5.0)
            np.testing.assert_array_equal(
                ids, built_index.query(query, K)[0])
        service.stop()

    def test_unhashable_override_rejected_at_submit(self, workload,
                                                    built_index):
        """Regression: an unhashable override value must fail the caller,
        not reach the dispatcher's group map and kill the worker (which
        would hang every other client forever)."""
        _, queries = workload
        with QueryService(built_index) as service:
            with pytest.raises(TypeError):
                service.submit(queries[0], K, alpha=[32])
            # The service is still alive and serving.
            ids, _ = service.query(queries[1], K, timeout=5.0)
            np.testing.assert_array_equal(
                ids, built_index.query(queries[1], K)[0])

    def test_query_timeout_covers_backpressure(self, workload, built_index):
        """Regression: query()'s timeout must bound the admission wait
        too, not only the result wait — a full queue used to block a
        timeout-bearing caller forever."""
        _, queries = workload
        service = QueryService(built_index, max_pending=1)
        service.submit(queries[0], K)  # fills the queue; worker not started
        with pytest.raises(ServiceOverloaded):
            service.query(queries[1], K, timeout=0.05)
        service.stop(drain=False)

    def test_invalid_arguments_rejected(self, workload, built_index):
        _, queries = workload
        service = QueryService(built_index)
        with pytest.raises(ValueError):
            service.submit(queries[0], 0)
        with pytest.raises(ValueError, match="max_batch"):
            QueryService(built_index, max_batch=0)
        with pytest.raises(ValueError, match="max_pending"):
            QueryService(built_index, max_pending=0)
        service.stop()

    def test_caller_mutation_cannot_corrupt_queued_query(self, workload,
                                                         built_index):
        """submit() must snapshot the query vector: callers reuse buffers."""
        _, queries = workload
        buffer = np.array(queries[0])
        service = QueryService(built_index)
        future = service.submit(buffer, K)
        buffer[:] = 0.0  # mutate after submit, before dispatch
        service.start()
        ids, _ = future.result(timeout=5.0)
        np.testing.assert_array_equal(
            ids, built_index.query(queries[0], K)[0])
        service.stop()

    def test_from_snapshot_serves_a_snapshot_directory(self, workload,
                                                       tmp_path):
        data, queries = workload
        index = HDIndex(params())
        index.build(data)
        expected = [index.query(query, K) for query in queries[:6]]
        save_index(index, tmp_path / "snap")
        index.close()
        service = QueryService.from_snapshot(tmp_path / "snap",
                                             max_batch=8)
        assert isinstance(service.index, HDIndex)
        with service:
            results = run_clients(service, queries[:6], 3)
        for (ids, dists), (got_ids, got_dists) in zip(expected, results):
            np.testing.assert_array_equal(got_ids, ids)
            np.testing.assert_array_equal(got_dists, dists)
        # from_snapshot hands ownership to the service: stop() (via the
        # context manager) must have closed the loaded page stores.
        from repro.storage.pages import StorageError
        with pytest.raises(StorageError):
            service.index.query(queries[0], K)

    @pytest.mark.parametrize("refused", [
        {"max_batch": 0}, {"worker_timeout": 1.0}, {"workers": 1}])
    def test_from_snapshot_closes_what_it_opened_when_refused(
            self, tmp_path, monkeypatch, refused):
        """A refused argument (``workers=1`` over a directory holding no
        snapshot the workers could open) leaves no index open."""
        opened = stub_loads(monkeypatch, GatedIndex())[0]
        with pytest.raises(ValueError):
            QueryService.from_snapshot(tmp_path, **refused)
        assert opened.closed.is_set()

    @pytest.mark.parametrize("backend", ["mmap", "memory"])
    def test_from_snapshot_replays_a_logged_root(self, workload, tmp_path,
                                                 backend):
        """A root whose log still holds an insert and a delete: the
        service's index replays them, so it answers as the index that
        wrote them did."""
        data, queries = workload
        index = create_index(IndexSpec(params=params(), wal=True),
                             storage_dir=tmp_path)
        index.build(data)
        save_index(index, tmp_path)
        new_id = index.insert(np.clip(queries[0], 0, 100))
        gone = int(index.query(queries[1], 1)[0][0])
        index.delete(gone)
        expected = [index.query(query, K) for query in queries[:6]]
        index.close()
        with QueryService.from_snapshot(tmp_path, backend=backend,
                                        max_batch=8) as service:
            assert service.index.params.backend == backend
            results = run_clients(service, queries[:6], 3)
        assert int(results[0][0][0]) == new_id
        assert gone not in results[1][0]
        for (ids, dists), (got_ids, got_dists) in zip(expected, results):
            np.testing.assert_array_equal(got_ids, ids)
            np.testing.assert_array_equal(got_dists, dists)


class TestLiveMutations:
    """An ``insert`` or ``delete`` on the served index shows in the next
    answer: every request is answered by the index itself."""

    def test_a_delete_is_served_at_once(self, workload):
        data, queries = workload
        index = HDIndex(params())
        index.build(data)
        with QueryService(index) as service:
            before, _ = service.query(queries[0], K)
            victim = int(before[0])
            index.delete(victim)
            after, _ = service.query(queries[0], K)
            assert victim not in after
        index.close()

    def test_an_insert_is_served_at_once(self, workload):
        data, queries = workload
        index = HDIndex(params())
        index.build(data)
        probe = np.clip(queries[0] + 0.25, 0, 100)
        with QueryService(index) as service:
            service.query(probe, K)
            new_id = index.insert(probe)  # exact duplicate of the probe
            ids, dists = service.query(probe, K)
            assert new_id in ids
            assert dists[list(ids).index(new_id)] < 1e-3
        index.close()


class TestDeadlines:
    """End-to-end deadlines at the service layer: expiry while queued is
    a typed failure that never wastes batch capacity, and the admission
    wait distinguishes deadline expiry from overload."""

    def test_expired_in_queue_fails_typed(self, workload, built_index):
        from repro.serve import DeadlineExceeded
        _, queries = workload
        import time as _time
        service = QueryService(built_index)
        doomed = service.submit(queries[0], K, deadline=0.02)
        live = service.submit(queries[1], K)
        _time.sleep(0.08)  # deadline lapses while the worker is off
        service.start()
        with pytest.raises(DeadlineExceeded):
            doomed.result(timeout=5.0)
        ids, _ = live.result(timeout=5.0)  # batch-mate is unaffected
        np.testing.assert_array_equal(
            ids, built_index.query(queries[1], K)[0])
        assert service.stats().deadline_expired == 1
        service.stop()

    def test_deadline_bounds_admission_wait(self, workload, built_index):
        from repro.serve import DeadlineExceeded
        _, queries = workload
        service = QueryService(built_index, max_pending=1)
        service.submit(queries[0], K)  # fills the queue; worker off
        with pytest.raises(DeadlineExceeded):
            service.submit(queries[1], K, deadline=0.05)
        assert service.stats().deadline_expired == 1
        service.stop(drain=False)

    def test_timeout_zero_probes_without_blocking(self, workload,
                                                  built_index):
        """timeout=0 is the event-loop-safe admission probe: immediate
        ServiceOverloaded on a full queue, immediate admission otherwise
        (the gateway relies on both halves)."""
        import time as _time
        _, queries = workload
        service = QueryService(built_index, max_pending=1)
        started = _time.monotonic()
        service.submit(queries[0], K, timeout=0)  # space available
        with pytest.raises(ServiceOverloaded):
            service.submit(queries[1], K, timeout=0)  # full: no wait
        assert _time.monotonic() - started < 1.0
        service.stop(drain=False)

    def test_slot_freed_at_expiry_still_admits(self, workload,
                                               built_index):
        """Regression: a submitter whose admission timeout races the
        worker freeing a slot must be admitted, not failed — capacity is
        re-checked after every wake before any overload raise."""
        import threading as _threading
        _, queries = workload
        service = QueryService(built_index, max_pending=1)
        service.submit(queries[0], K)  # fills the queue; worker off
        outcome = {}

        def late_submitter():
            try:
                outcome["future"] = service.submit(queries[1], K,
                                                   timeout=5.0)
            except Exception as error:  # pragma: no cover - reporting
                outcome["error"] = error

        thread = _threading.Thread(target=late_submitter)
        thread.start()
        service.start()  # frees the slot while the submitter waits
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert "error" not in outcome, outcome.get("error")
        ids, _ = outcome["future"].result(timeout=5.0)
        np.testing.assert_array_equal(
            ids, built_index.query(queries[1], K)[0])
        service.stop()

    def test_invalid_deadline_rejected(self, workload, built_index):
        _, queries = workload
        service = QueryService(built_index)
        with pytest.raises(ValueError):
            service.submit(queries[0], K, deadline=0)
        with pytest.raises(ValueError):
            service.submit(queries[0], K, deadline=-1.0)
        service.stop()


WAIT = 30.0  # hang tripwire only; no assertion depends on how long


class GatedIndex:
    """Stub index: ``query_batch`` records each batch's request tags (the
    points' first coordinate) and its thread, and blocks until
    ``proceed`` is set; ``closed`` is set by ``close``."""

    def __init__(self):
        self.batches = []
        self.threads = []
        self.entered = threading.Event()
        self.proceed = threading.Event()
        self.closed = threading.Event()

    def query_batch(self, points, k):
        self.batches.append(points[:, 0].tolist())
        self.threads.append(threading.get_ident())
        self.entered.set()
        assert self.proceed.wait(WAIT)
        return (np.repeat(points[:, :1].astype(np.int64), k, axis=1),
                np.zeros((len(points), k)))

    def close(self):
        self.closed.set()


class SlowToClose(GatedIndex):
    """A ``GatedIndex`` whose ``close`` sets ``closing`` and returns only
    once ``release`` is set."""

    def __init__(self):
        super().__init__()
        self.closing = threading.Event()
        self.release = threading.Event()

    def close(self):
        self.closing.set()
        assert self.release.wait(WAIT)
        super().close()


def tagged(tag):
    return np.array([float(tag), 0.0])


def answered_by(future):
    return int(future.result(WAIT)[0][0])


def stub_loads(monkeypatch, *indexes):
    """Make each ``load_index`` call return the next of ``indexes``."""
    queue = list(indexes)
    monkeypatch.setattr("repro.core.persistence.load_index",
                        lambda *args, **kwargs: queue.pop(0))
    return indexes


def start_swap(service, timeout=None):
    """``swap_snapshot`` in a thread of its own; returns the thread and
    the list its error lands in."""
    errors = []

    def swap():
        try:
            service.swap_snapshot("unused-by-the-stub", timeout=timeout)
        except Exception as error:
            errors.append(error)

    swapper = threading.Thread(target=swap, name="swapper")
    swapper.start()
    return swapper, errors


def hold_swappers(service):
    """Keep each waiting swap asleep, off the lock, until the returned
    event is set, even once the index is free."""
    go = threading.Event()
    wait = service._not_empty.wait

    def swapper_sleeps_until_go(timeout=None):
        if threading.current_thread().name != "swapper":
            return wait(timeout)
        service._lock.release()
        try:
            assert go.wait(WAIT)
        finally:
            service._lock.acquire()
        return True

    service._not_empty.wait = swapper_sleeps_until_go
    return go


def wait_for_swaps(service, count):
    """Until ``count`` swaps wait for the index."""
    while service._swaps < count:
        time.sleep(0.001)


class CancelledInTheCheck(Future):
    """A future its caller cancels at the moment the dispatcher looks at
    it: the cancel lands just after the state is read."""

    def cancelled(self):
        state = super().cancelled()
        self.cancel()
        return state

    def set_running_or_notify_cancel(self):
        self.cancel()
        return super().set_running_or_notify_cancel()


class TestWorkConservingPolicy:
    """The dispatcher takes whatever is queued the moment it is free:
    it never holds a request back for companions, and batches form from
    what arrives while the previous batch runs."""

    @pytest.fixture
    def blocked(self):
        """A started service whose dispatcher is inside ``query_batch``
        with request 0, the queue empty."""
        index = GatedIndex()
        service = QueryService(index, max_batch=4).start()
        first = service.submit(tagged(0), K)
        assert index.entered.wait(WAIT)
        yield service, index, first
        index.proceed.set()
        service.stop()

    def test_dispatcher_never_waits_with_a_timeout(self):
        index = GatedIndex()
        index.proceed.set()
        service = QueryService(index, max_batch=4)
        timeouts = []
        wait = service._not_empty.wait

        def recording_wait(timeout=None):
            timeouts.append(timeout)
            return wait(timeout)

        service._not_empty.wait = recording_wait
        with service:
            for tag in range(6):
                assert answered_by(service.submit(tagged(tag), K)) == tag
            futures = [service.submit(tagged(tag), K) for tag in range(6)]
            assert [answered_by(f) for f in futures] == list(range(6))
        assert all(timeout is None for timeout in timeouts), timeouts

    def test_lone_request_on_idle_service_is_a_batch_of_one(self, blocked):
        service, index, first = blocked
        assert index.batches == [[0.0]]
        assert service.pending() == 0
        index.proceed.set()
        assert answered_by(first) == 0

    def test_batches_form_behind_a_running_batch(self, blocked):
        service, index, first = blocked
        futures = [service.submit(tagged(tag), K) for tag in range(1, 11)]
        assert service.pending() == 10
        index.proceed.set()
        assert [answered_by(f) for f in [first] + futures] == list(range(11))
        assert index.batches == [
            [0.0], [1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0], [9.0, 10.0]]
        stats = service.stats()
        assert (stats.batches, stats.max_batch_size) == (4, 4)
        assert stats.as_dict()["mean_queue_wait_ms"] >= 0.0

    def test_stop_drains_a_non_empty_queue(self, blocked):
        service, index, first = blocked
        futures = [service.submit(tagged(tag), K) for tag in range(1, 6)]
        stopper = threading.Thread(target=service.stop)
        stopper.start()
        while not service._closed:  # stop() closes before it joins
            time.sleep(0.001)
        with pytest.raises(ServiceClosed):
            service.submit(tagged(99), K)
        index.proceed.set()
        stopper.join(WAIT)
        assert not stopper.is_alive()
        assert [answered_by(f) for f in [first] + futures] == list(range(6))
        assert index.batches == [[0.0], [1.0, 2.0, 3.0, 4.0], [5.0]]

    def test_swap_applies_between_batches(self, blocked, monkeypatch):
        service, index, first = blocked
        fresh = stub_loads(monkeypatch, GatedIndex())[0]
        fresh.proceed.set()
        queued = [service.submit(tagged(tag), K) for tag in (1, 2)]
        swapper, errors = start_swap(service)
        wait_for_swaps(service, 1)
        index.proceed.set()
        swapper.join(WAIT)
        assert not swapper.is_alive() and errors == []
        assert [answered_by(f) for f in [first] + queued] == [0, 1, 2]
        assert service.index is fresh
        assert index.batches == [[0.0]]
        assert fresh.batches == [[1.0, 2.0]]

    def test_a_swap_that_times_out_is_abandoned(self, blocked, monkeypatch):
        """The loaded index is closed, and the old one still serves once
        the batch the swap waited behind ends."""
        service, index, first = blocked
        fresh = stub_loads(monkeypatch, GatedIndex())[0]
        with pytest.raises(TimeoutError):
            service.swap_snapshot("unused-by-the-stub", timeout=0.05)
        assert fresh.closed.is_set()
        index.proceed.set()
        assert answered_by(first) == 0
        assert answered_by(service.submit(tagged(1), K)) == 1
        assert service.index is index
        assert (index.batches, fresh.batches) == ([[0.0], [1.0]], [])

    def test_requests_queued_behind_a_timed_out_swap_are_answered(
            self, blocked, monkeypatch):
        service, index, first = blocked
        stub_loads(monkeypatch, GatedIndex())
        swapper, errors = start_swap(service, timeout=0.2)
        wait_for_swaps(service, 1)
        queued = [service.submit(tagged(tag), K) for tag in (1, 2)]
        swapper.join(WAIT)
        assert not swapper.is_alive() and service._swaps == 0
        assert [type(error) for error in errors] == [TimeoutError]
        index.proceed.set()
        assert [answered_by(f) for f in [first] + queued] == [0, 1, 2]
        assert index.batches == [[0.0], [1.0, 2.0]]

    def test_stop_waits_for_a_swap_on_a_service_never_started(
            self, monkeypatch):
        """With no dispatcher to join, stop() still waits for the swap
        to finish before it closes the index the swap put in."""
        index = SlowToClose()
        fresh = stub_loads(monkeypatch, GatedIndex())[0]
        service = QueryService(index)
        service._owns_index = True  # as from_snapshot() leaves it
        swapper, errors = start_swap(service)
        assert index.closing.wait(WAIT)
        stopper = threading.Thread(target=service.stop)
        stopper.start()
        stopper.join(0.1)
        assert stopper.is_alive() and not fresh.closed.is_set()
        index.release.set()
        swapper.join(WAIT)
        stopper.join(WAIT)
        assert not swapper.is_alive() and errors == []
        assert not stopper.is_alive() and fresh.closed.is_set()

    def test_concurrent_swaps_apply_in_turn(self, blocked, monkeypatch):
        service, index, first = blocked
        loaded = stub_loads(monkeypatch, GatedIndex(), GatedIndex())
        swaps = [start_swap(service) for _ in loaded]
        wait_for_swaps(service, 2)
        queued = service.submit(tagged(1), K)
        index.proceed.set()
        for swapper, errors in swaps:
            swapper.join(WAIT)
            assert not swapper.is_alive() and errors == []
        serving = service.index
        assert serving in loaded
        serving.proceed.set()
        assert answered_by(queued) == 1 and serving.batches == [[1.0]]
        # The first swap left the service owning its index, so the
        # second closed it.
        assert [fresh.closed.is_set() for fresh in loaded].count(True) == 1
        assert not serving.closed.is_set()

    def test_stop_while_a_swap_waits(self, blocked, monkeypatch):
        """The swapper raises ServiceClosed and closes what it loaded;
        the dispatcher, which the waiting swap held back from the queue,
        is woken and still drains it through the old index."""
        service, index, first = blocked
        fresh = stub_loads(monkeypatch, GatedIndex())[0]
        go = hold_swappers(service)
        queued = [service.submit(tagged(tag), K) for tag in (1, 2)]
        swapper, errors = start_swap(service)
        wait_for_swaps(service, 1)
        index.proceed.set()
        assert answered_by(first) == 0
        stopper = threading.Thread(target=service.stop)
        stopper.start()
        while not service._closed:  # stop() closes before it joins
            time.sleep(0.001)
        go.set()
        swapper.join(WAIT)
        assert not swapper.is_alive()
        assert [type(error) for error in errors] == [ServiceClosed]
        assert fresh.closed.is_set()
        stopper.join(WAIT)
        assert not stopper.is_alive()
        assert [answered_by(f) for f in queued] == [1, 2]
        assert (index.batches, fresh.batches) == ([[0.0], [1.0, 2.0]], [])

    def test_deadline_lapsing_in_the_queue_takes_no_batch_row(self, blocked):
        from repro.serve import DeadlineExceeded
        service, index, first = blocked
        doomed = service.submit(tagged(1), K, deadline=0.01)
        live = service.submit(tagged(2), K)
        while not service._queue[0].expired(time.monotonic()):
            time.sleep(0.005)
        index.proceed.set()
        with pytest.raises(DeadlineExceeded):
            doomed.result(WAIT)
        assert answered_by(live) == 2
        assert index.batches == [[0.0], [2.0]]
        stats = service.stats()
        assert stats.deadline_expired == 1
        # Request 2 sat in the queue for at least the 10 ms deadline.
        assert stats.queue_wait_ms_total >= 10.0

    def test_a_caller_cancelling_an_expired_request_fails_no_neighbour(
            self, blocked):
        """The gateway cancels a future whose await it abandons.  When
        that cancel lands while the dispatcher is failing the expired
        request, the request ends cancelled and its batch neighbour is
        still answered."""
        service, index, first = blocked
        service.submit(tagged(1), K, deadline=0.01)
        live = service.submit(tagged(2), K)
        racing = CancelledInTheCheck()
        service._queue[0].future = racing
        while not service._queue[0].expired(time.monotonic()):
            time.sleep(0.005)
        index.proceed.set()
        assert answered_by(live) == 2
        assert racing.cancelled()
        assert index.batches == [[0.0], [2.0]]
        assert service.stats().deadline_expired == 1


class TestLoneRequest:
    """``submit(alone=True)`` answers in the caller's thread only on a
    started, idle, in-process service with no swap pending, and never
    while another thread is inside the index."""

    def test_an_idle_service_answers_in_the_callers_thread(self):
        index = GatedIndex()
        index.proceed.set()
        with QueryService(index) as service:
            future = service.submit(tagged(1), K, alone=True)
            assert future.done()
            assert answered_by(future) == 1
            stats = service.stats()
        assert index.threads == [threading.get_ident()]
        assert (stats.alone, stats.queries, stats.batches) == (1, 1, 1)
        assert stats.queue_wait_ms_total < 1.0

    def test_no_lone_path_before_start(self):
        index = GatedIndex()
        index.proceed.set()
        service = QueryService(index)
        future = service.submit(tagged(1), K, alone=True)
        assert not future.done() and service.pending() == 1
        service.start()
        assert answered_by(future) == 1
        assert index.threads == [service._worker.ident]
        service.stop()
        assert service.stats().alone == 0

    def test_no_lone_path_with_a_swap_pending(self, monkeypatch):
        """A swap waits for the batch inside the index: the lone request
        is queued, and the swap applies before it is answered."""
        index = GatedIndex()
        fresh = stub_loads(monkeypatch, GatedIndex())[0]
        fresh.proceed.set()
        with QueryService(index) as service:
            first = service.submit(tagged(0), K)
            assert index.entered.wait(WAIT)
            swapper, errors = start_swap(service)
            wait_for_swaps(service, 1)
            future = service.submit(tagged(1), K, alone=True)
            assert not future.done() and service.pending() == 1
            index.proceed.set()
            swapper.join(WAIT)
            assert not swapper.is_alive() and errors == []
            assert [answered_by(f) for f in (first, future)] == [0, 1]
            assert service.stats().alone == 0
        assert (index.batches, fresh.batches) == ([[0.0]], [[1.0]])
        assert fresh.threads == [service._worker.ident]

    def test_no_lone_path_while_a_swap_applies(self, monkeypatch):
        """The swap is closing the old index: the lone request is queued
        and the new index answers it."""
        index = SlowToClose()
        fresh = stub_loads(monkeypatch, GatedIndex())[0]
        fresh.proceed.set()
        service = QueryService(index).start()
        service._owns_index = True  # as from_snapshot() leaves it
        swapper, errors = start_swap(service)
        assert index.closing.wait(WAIT)
        future = service.submit(tagged(1), K, alone=True)
        assert not future.done() and service.pending() == 1
        index.release.set()
        assert answered_by(future) == 1
        swapper.join(WAIT)
        assert not swapper.is_alive() and errors == []
        assert service.index is fresh
        service.stop()
        assert service.stats().alone == 0
        assert (index.batches, fresh.batches) == ([], [[1.0]])
        assert fresh.threads == [service._worker.ident]

    def test_no_lone_path_while_a_swap_waits_on_a_free_index(
            self, monkeypatch):
        """The index is free but the waiting swap has not taken it yet:
        the lone request is queued behind the swap, so lone callers
        cannot starve it."""
        index = GatedIndex()
        fresh = stub_loads(monkeypatch, GatedIndex())[0]
        fresh.proceed.set()
        service = QueryService(index).start()
        go = hold_swappers(service)
        first = service.submit(tagged(0), K)
        assert index.entered.wait(WAIT)
        swapper, errors = start_swap(service)
        wait_for_swaps(service, 1)
        index.proceed.set()
        assert answered_by(first) == 0
        while service._busy:
            time.sleep(0.001)
        future = service.submit(tagged(1), K, alone=True)
        assert not future.done() and service.pending() == 1
        go.set()
        swapper.join(WAIT)
        assert not swapper.is_alive() and errors == []
        assert answered_by(future) == 1
        service.stop()
        assert service.stats().alone == 0
        assert (index.batches, fresh.batches) == ([[0.0]], [[1.0]])

    def test_a_request_behind_a_lone_answer_waits_for_it(self):
        """While a caller answers a lone request, a second one (lone or
        not) is queued, and the dispatcher takes it only afterwards."""
        index = GatedIndex()
        with QueryService(index, max_batch=4) as service:
            caller = threading.Thread(
                target=service.submit, args=(tagged(0), K), kwargs={
                    "alone": True})
            caller.start()
            assert index.entered.wait(WAIT)
            queued = [service.submit(tagged(1), K, alone=True),
                      service.submit(tagged(2), K)]
            assert service.pending() == 2
            time.sleep(0.05)  # a dispatcher that did not wait would enter
            assert index.batches == [[0.0]]
            index.proceed.set()
            caller.join(WAIT)
            assert [answered_by(f) for f in queued] == [1, 2]
            stats = service.stats()
        assert index.batches == [[0.0], [1.0, 2.0]]
        assert index.threads[1] == service._worker.ident
        assert (stats.alone, stats.batches) == (1, 2)

    def test_stop_closes_the_index_only_after_a_lone_answer(self):
        index = GatedIndex()
        service = QueryService(index).start()
        service._owns_index = True  # as from_snapshot() leaves it
        answers = []
        caller = threading.Thread(target=lambda: answers.append(
            service.submit(tagged(3), K, alone=True)))
        caller.start()
        assert index.entered.wait(WAIT)
        stopper = threading.Thread(target=service.stop)
        stopper.start()
        while not service._closed:  # stop() closes before it joins
            time.sleep(0.001)
        stopper.join(0.1)
        assert stopper.is_alive() and not index.closed.is_set()
        index.proceed.set()
        caller.join(WAIT)
        stopper.join(WAIT)
        assert not stopper.is_alive() and index.closed.is_set()
        assert answered_by(answers[0]) == 3


def test_core_imports_need_numpy_only():
    """``import repro`` and the serve / CLI entry points must not pull
    in scipy: only the LSH and SRS baselines use it, when they run."""
    code = ("import sys; sys.modules['scipy'] = None; "
            "import repro, repro.serve.server, repro.cli")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
