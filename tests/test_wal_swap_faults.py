"""Fault injection around compaction and generation hot-swap.

Two deterministic crash seams drive these tests:

* :data:`repro.wal.manager._FAULT_HOOK` — runs after the new generation
  is fully written but *before* ``CURRENT`` is published (the widest
  compaction crash window);
* :data:`repro.core.procpool._FAULT_HOOK` — fork-inherited, runs at
  worker task entry (deterministic SIGKILL of a worker process);
* :data:`repro.wal.manager._OPEN_HOOK` — runs while an opener holds a
  loaded generation and has not yet read its log (a compaction run
  there republishes the root between the two reads).

The contracts under test: a failed compaction leaves ``CURRENT`` (and
the log) untouched and the index serving correct answers; a worker
SIGKILLed around a hot swap surfaces a typed error and the pool
recovers; and a :class:`~repro.serve.QueryService` swap never fails a
single submitted future.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading

import numpy as np
import pytest

import repro.core.procpool as procpool
import repro.wal.manager as wal_manager
from repro.core import (
    HDIndex,
    HDIndexParams,
    IndexSpec,
    WorkerCrashed,
    build,
    open_index,
)
from repro.core.persistence import OPEN_TRIES
from repro.wal.log import WalError
from repro.serve import QueryService, ServiceClosed, ServiceConfig
from repro.wal import WAL_FILE, read_current

DIM = 6
BASE_N = 120
WAIT = 60.0

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fault hook relies on fork-inherited worker state")


def _params(directory=None):
    return HDIndexParams(num_trees=2, hilbert_order=6, num_references=4,
                         alpha=512, gamma=512, use_ptolemaic=False,
                         domain=(0.0, 100.0), seed=9,
                         storage_dir=directory)


def _data(seed=61, count=BASE_N):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 100.0, size=(count, DIM))


@pytest.fixture
def clear_fault_hooks():
    yield
    procpool._FAULT_HOOK = None
    wal_manager._FAULT_HOOK = None
    wal_manager._OPEN_HOOK = None


def _oracle(vectors, deleted=()):
    index = HDIndex(_params())
    index.build(np.asarray(vectors, dtype=np.float64))
    for object_id in deleted:
        index.delete(object_id)
    return index


class TestCompactionFailure:
    def test_failed_compaction_keeps_old_generation(self, tmp_path,
                                                    clear_fault_hooks):
        directory = tmp_path / "snap"
        data = _data()
        index = build(IndexSpec(params=_params(), wal=True),
                      data, storage_dir=str(directory))
        try:
            extra = _data(62, 6)
            for vector in extra:
                index.insert(vector)
            log_size = (directory / WAL_FILE).stat().st_size
            assert log_size > 0

            wal_manager._FAULT_HOOK = _boom
            with pytest.raises(RuntimeError, match="injected"):
                index.compact()

            # CURRENT was never published (first compaction: still
            # absent) and the log was not truncated — nothing durable
            # moved.
            assert read_current(str(directory)) is None
            assert (directory / WAL_FILE).stat().st_size == log_size
            # The live index still answers from base + delta, correctly.
            oracle = _oracle(np.vstack([data, extra]))
            ids, dists = index.query(data[3], 5)
            oracle_ids, oracle_dists = oracle.query(data[3], 5)
            np.testing.assert_array_equal(ids, oracle_ids)
            np.testing.assert_array_equal(dists, oracle_dists)

            # Clearing the fault lets the *same* index compact cleanly.
            wal_manager._FAULT_HOOK = None
            generation = index.compact()
            assert generation == 1
            assert read_current(str(directory)) == "gen-000001"
            assert (directory / WAL_FILE).stat().st_size == 0
            ids, _ = index.query(data[3], 5)
            np.testing.assert_array_equal(ids, oracle_ids)
            oracle.close()
        finally:
            index.close()

    def test_failed_second_compaction_keeps_previous(self, tmp_path,
                                                     clear_fault_hooks):
        directory = tmp_path / "snap"
        index = build(IndexSpec(params=_params(), wal=True),
                      _data(), storage_dir=str(directory))
        try:
            index.insert(_data(63, 1)[0])
            index.compact()
            assert read_current(str(directory)) == "gen-000001"
            index.insert(_data(64, 1)[0])
            wal_manager._FAULT_HOOK = _boom
            with pytest.raises(RuntimeError, match="injected"):
                index.compact()
            assert read_current(str(directory)) == "gen-000001"
        finally:
            index.close()


def _boom():
    raise RuntimeError("injected compaction fault")


@needs_fork
class TestWorkerDeathAroundSwap:
    def test_sigkilled_worker_after_swap_recovers(self, tmp_path,
                                                  clear_fault_hooks):
        """SIGKILL the worker answering the first batch after a
        process-mode service's hot swap onto a WAL root's new
        generation: the batch fails typed, the pool restarts onto the
        *new* generation, and answers regain byte-identical parity."""
        directory = tmp_path / "snap"
        data = _data()
        flag = tmp_path / "kill-flag"
        writer = build(IndexSpec(params=_params(), wal=True),
                       data, storage_dir=str(directory))
        procpool._FAULT_HOOK = _make_flag_killer(str(flag))
        service = QueryService(open_index(directory, wal=False),
                               workers=2).start()
        service._owns_index = True
        try:
            service.query(data[0], 3, timeout=WAIT)  # hook armed, dormant
            extra = _data(65, 5)
            for vector in extra:
                writer.insert(vector)
            assert writer.compact() == 1
            flag.touch()
            service.swap_snapshot(timeout=WAIT)  # the pool re-binds
            with pytest.raises(WorkerCrashed):
                service.query(data[1], 5, timeout=WAIT)
            flag.unlink()  # next pool generation comes up healthy
            oracle = _oracle(np.vstack([data, extra]))
            ids, dists = service.query(data[1], 5, timeout=WAIT)
            oracle_ids, oracle_dists = oracle.query(data[1], 5)
            np.testing.assert_array_equal(ids, oracle_ids)
            np.testing.assert_array_equal(dists, oracle_dists)
            oracle.close()
        finally:
            procpool._FAULT_HOOK = None
            service.stop()
            writer.close()


def _compacting_hook(writer, before=(), after=(), times=1):
    """An open hook that, on its first ``times`` outermost calls,
    inserts ``before``, compacts ``writer`` and inserts ``after`` — a
    compaction landing between an opener's generation and log reads.
    The compaction's own reopen runs the hook nested and skips it."""
    state = {"depth": 0, "runs": 0}

    def hook():
        if state["depth"] or state["runs"] >= times:
            return
        state["depth"] += 1
        try:
            for vector in before:
                writer.insert(vector)
            writer.compact()
            for vector in after:
                writer.insert(vector)
        finally:
            state["depth"] -= 1
            state["runs"] += 1
    return hook, state


class TestOpenAcrossCompaction:
    """A reader's generation and log are one pair: a compaction that
    publishes and truncates between the two reads is retried, never
    replayed as an id gap."""

    def test_open_retries_a_pair_split_by_compaction(self, tmp_path,
                                                     clear_fault_hooks):
        directory = tmp_path / "snap"
        data = _data()
        spec = IndexSpec(params=_params(), wal=True)
        writer = build(spec, data, storage_dir=str(directory))
        reader = None
        try:
            extra = _data(68, 10)
            for vector in extra[:5]:
                writer.insert(vector)
            hook, state = _compacting_hook(writer, extra[5:8], extra[8:])
            wal_manager._OPEN_HOOK = hook
            reader = open_index(directory)
            assert state["runs"] == 1
            assert reader.generation == writer.generation == 1
            assert reader.count == writer.count == BASE_N + 10
            oracle = _oracle(np.vstack([data, extra]))
            for row in (2, 7):
                got = reader.query(data[row], 5)
                want = oracle.query(data[row], 5)
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])
            oracle.close()
        finally:
            if reader is not None:
                reader.close()
            writer.close()

    def test_open_gives_up_on_a_root_republished_every_time(
            self, tmp_path, clear_fault_hooks):
        directory = tmp_path / "snap"
        writer = build(IndexSpec(params=_params(), wal=True),
                       _data(), storage_dir=str(directory))
        try:
            hook, state = _compacting_hook(writer, times=OPEN_TRIES)
            wal_manager._OPEN_HOOK = hook
            with pytest.raises(WalError, match="republished"):
                open_index(directory)
            assert state["runs"] == OPEN_TRIES
            wal_manager._OPEN_HOOK = None
            reader = open_index(directory)
            assert reader.generation == writer.generation == OPEN_TRIES
            reader.close()
        finally:
            writer.close()


class TestWorkerBootstrap:
    """Serve-tier workers answer whole queries from the published
    generation and open no log: the parent owns the delta and the log,
    and a worker never replays (or repairs) it."""

    @pytest.fixture
    def logged_root(self, tmp_path):
        directory = tmp_path / "snap"
        writer = build(IndexSpec(params=_params(), wal=True),
                       _data(), storage_dir=str(directory))
        for vector in _data(69, 4):
            writer.insert(vector)
        writer.close()
        log = (directory / WAL_FILE).read_bytes()
        yield directory
        assert (directory / WAL_FILE).read_bytes() == log
        worker = procpool._WORKER["index"]
        if worker is not None:
            worker.close()
        procpool._worker_init(None)

    def test_serve_worker_opens_no_log(self, logged_root):
        procpool._worker_init(str(logged_root))
        extra = _data(69, 4)
        ids, _ = procpool._query_batch_task(extra[:1], 1, {})
        worker = procpool._WORKER["index"]
        assert worker._wal is None and len(worker._delta) == 0
        assert worker.count == BASE_N
        assert int(ids[0][0]) < BASE_N


def _make_flag_killer(flag_path):
    def hook():
        if os.path.exists(flag_path):
            os.kill(os.getpid(), signal.SIGKILL)
    return hook


class TestServiceSwap:
    def _serving_snapshot(self, tmp_path):
        directory = tmp_path / "snap"
        data = _data()
        index = build(IndexSpec(params=_params(), wal=True),
                      data, storage_dir=str(directory))
        return directory, data, index

    def test_zero_failed_futures_during_swap(self, tmp_path):
        directory, data, writer = self._serving_snapshot(tmp_path)
        service = QueryService(
            open_index(directory, wal=False),
            ServiceConfig(max_batch=8)).start()
        service._owns_index = True
        errors: list[Exception] = []
        results = 0
        stop = threading.Event()

        def client(offset):
            nonlocal results
            rng = np.random.default_rng(offset)
            while not stop.is_set():
                future = service.submit(data[rng.integers(0, BASE_N)], 3)
                try:
                    future.result(timeout=WAIT)
                    results += 1
                except Exception as error:  # pragma: no cover - fails test
                    errors.append(error)

        threads = [threading.Thread(target=client, args=(c,))
                   for c in range(4)]
        try:
            for thread in threads:
                thread.start()
            for vector in _data(66, 8):
                writer.insert(vector)
            writer.delete(2)
            writer.compact()
            service.swap_snapshot(timeout=WAIT)
            # Keep hammering briefly on the new generation too.
            threading.Event().wait(0.1)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert errors == []
        assert results > 0
        assert service.index.count == BASE_N + 8
        oracle = _oracle(np.vstack([_data(), _data(66, 8)]), {2})
        ids, dists = service.submit(data[4], 5).result(timeout=WAIT)
        oracle_ids, oracle_dists = oracle.query(data[4], 5)
        np.testing.assert_array_equal(ids, oracle_ids)
        np.testing.assert_array_equal(dists, oracle_dists)
        oracle.close()
        service.stop()
        writer.close()

    def test_swap_before_start_applies_immediately(self, tmp_path):
        directory, data, writer = self._serving_snapshot(tmp_path)
        writer.insert(_data(67, 1)[0])
        writer.compact()
        service = QueryService(open_index(directory, wal=False),
                               ServiceConfig())
        service._owns_index = True
        service.swap_snapshot(timeout=WAIT)
        assert service.index.count == BASE_N + 1
        service.stop()
        writer.close()

    def test_swap_after_stop_raises_service_closed(self, tmp_path):
        directory, data, writer = self._serving_snapshot(tmp_path)
        service = QueryService(open_index(directory, wal=False),
                               ServiceConfig())
        service._owns_index = True
        service.stop()
        with pytest.raises(ServiceClosed):
            service.swap_snapshot(timeout=WAIT)
        writer.close()

    def test_swap_without_target_raises(self):
        index = HDIndex(_params())
        index.build(_data())
        service = QueryService(index, ServiceConfig())
        try:
            with pytest.raises(ValueError, match="directory"):
                service.swap_snapshot()
        finally:
            service.stop()
            index.close()
