"""Tests for the micro-batched concurrent query service.

The contract under test: batching and caching change the *work layout*,
never the answers — N client threads through the service get byte-identical
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

import numpy as np
import pytest

from repro.core import (
    HDIndex,
    HDIndexParams,
    IndexSpec,
    create_index,
    save_index,
)
from repro.serve import (
    QueryService,
    ResultCache,
    ServiceClosed,
    ServiceConfig,
    ServiceOverloaded,
    make_key,
)

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

    def test_cold_and_warm_cache_both_match(self, workload, built_index,
                                            expected):
        _, queries = workload
        with QueryService(built_index, max_batch=8,
                          cache_size=256) as service:
            cold = run_clients(service, queries, 4)
            warm = run_clients(service, queries, 4)
            stats = service.stats()
        assert stats.cache_hits >= len(queries)
        for row, (ids, dists) in enumerate(expected):
            for results in (cold, warm):
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
        with pytest.raises(ValueError):
            ServiceConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServiceConfig(max_pending=0)
        with pytest.raises(ValueError):
            ServiceConfig(cache_size=-1)
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


class TestResultCache:
    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        keys = [make_key(np.full(4, float(v)), 5, {}) for v in range(3)]
        for v, key in enumerate(keys):
            cache.put(key, np.array([v]), np.array([float(v)]))
        assert cache.get(keys[0]) is None  # evicted
        assert cache.get(keys[2])[0][0] == 2
        assert len(cache) == 2

    def test_zero_capacity_disables(self):
        cache = ResultCache(capacity=0)
        key = make_key(np.zeros(4), 5, {})
        cache.put(key, np.array([1]), np.array([1.0]))
        assert cache.get(key) is None
        assert cache.hits == 0 and cache.misses == 0

    def test_entries_are_immutable(self):
        cache = ResultCache(capacity=4)
        key = make_key(np.zeros(4), 5, {})
        cache.put(key, np.array([1, 2]), np.array([1.0, 2.0]))
        ids, dists = cache.get(key)
        with pytest.raises(ValueError):
            ids[0] = 99
        with pytest.raises(ValueError):
            dists[0] = 99.0

    def test_key_distinguishes_k_and_overrides(self):
        point = np.zeros(4)
        base = make_key(point, 5, {})
        assert make_key(point, 10, {}) != base
        assert make_key(point, 5, {"alpha": 32}) != base
        # None-valued overrides mean "default" and share the base entry.
        assert make_key(point, 5, {"alpha": None}) == base

    def test_invalidate_after_index_update(self, workload):
        data, queries = workload
        index = HDIndex(params())
        index.build(data)
        with QueryService(index, cache_size=64) as service:
            stale_ids, _ = service.query(queries[0], K)
            victim = int(stale_ids[0])
            index.delete(victim)
            service.invalidate_cache()
            fresh_ids, _ = service.query(queries[0], K)
            assert victim not in fresh_ids
        index.close()


class TestEpochInvalidation:
    """Live mutations must invalidate cached results automatically — the
    engine's ``update_epoch`` drives the service cache, no manual
    ``invalidate_cache`` call required."""

    def test_delete_invalidates_cache_without_manual_call(self, workload):
        data, queries = workload
        index = HDIndex(params())
        index.build(data)
        with QueryService(index, cache_size=64) as service:
            stale_ids, _ = service.query(queries[0], K)
            victim = int(stale_ids[0])
            index.delete(victim)  # note: no service.invalidate_cache()
            fresh_ids, _ = service.query(queries[0], K)
            assert victim not in fresh_ids
        index.close()

    def test_insert_invalidates_cache_without_manual_call(self, workload):
        data, queries = workload
        index = HDIndex(params())
        index.build(data)
        probe = np.clip(queries[0] + 0.25, 0, 100)
        with QueryService(index, cache_size=64) as service:
            service.query(probe, K)
            service.query(probe, K)
            assert service.stats().cache_hits >= 1  # cache is live
            new_id = index.insert(probe)  # exact duplicate of the probe
            fresh_ids, fresh_dists = service.query(probe, K)
            assert new_id in fresh_ids  # stale entry did not survive
            assert fresh_dists[list(fresh_ids).index(new_id)] < 1e-3
        index.close()

    def test_unmutated_index_keeps_cache_hot(self, workload):
        data, queries = workload
        index = HDIndex(params())
        index.build(data)
        with QueryService(index, cache_size=64) as service:
            for _ in range(3):
                service.query(queries[0], K)
            assert service.stats().cache_hits == 2
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
    points' first coordinate) and blocks until ``proceed`` is set."""

    def __init__(self):
        self.batches = []
        self.entered = threading.Event()
        self.proceed = threading.Event()

    def query_batch(self, points, k):
        self.batches.append(points[:, 0].tolist())
        self.entered.set()
        assert self.proceed.wait(WAIT)
        return (np.repeat(points[:, :1].astype(np.int64), k, axis=1),
                np.zeros((len(points), k)))

    def close(self):
        pass


def tagged(tag):
    return np.array([float(tag), 0.0])


def answered_by(future):
    return int(future.result(WAIT)[0][0])


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
        fresh = GatedIndex()
        fresh.proceed.set()
        monkeypatch.setattr("repro.core.persistence.load_index",
                            lambda *args, **kwargs: fresh)
        queued = [service.submit(tagged(tag), K) for tag in (1, 2)]
        swapper = threading.Thread(
            target=service.swap_snapshot, args=("unused-by-the-stub",))
        swapper.start()
        while service._pending_swap is None:
            time.sleep(0.001)
        index.proceed.set()
        swapper.join(WAIT)
        assert not swapper.is_alive()
        assert [answered_by(f) for f in [first] + queued] == [0, 1, 2]
        assert service.index is fresh
        assert index.batches == [[0.0]]
        assert fresh.batches == [[1.0, 2.0]]

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
