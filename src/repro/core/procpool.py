"""Process-parallel execution over shared snapshot directories.

The GIL caps in-process execution near single-core throughput once the
numpy kernels stop dominating.  This module is the escape hatch: a pool
of **worker processes** that each reopen the same persisted snapshot —
through the zero-copy ``mmap`` backend, so the OS shares one
set of physical pages across the whole pool and each worker's bootstrap
is O(metadata), not O(index size).  Its one user is
``QueryService(..., workers=N)``, which shards each micro-batch's rows
across the workers (:meth:`SnapshotWorkerPool.run_query_batch`).

Design rules (the ones the fault-injection suite enforces):

* **Workers bootstrap from the snapshot manifest, never from pickles.**
  Only the directory path crosses the process boundary at start-up;
  the index itself is reopened lazily inside the worker on its first
  task.
* **A dead or wedged worker fails fast, typed.**  A worker that crashes
  mid-task surfaces as :class:`WorkerCrashed` on every in-flight call; a
  task that exceeds the pool's ``timeout`` surfaces as
  :class:`WorkerTimeout`.  Neither leaves a caller hanging, and either way
  the broken pool is discarded so the *next* call starts a fresh one.
* **Results are byte-identical to the sequential path.**  Workers answer
  their rows through the very same ``query_batch`` over the very same
  pages; only the work layout changes.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool

import numpy as np


class ProcessPoolError(RuntimeError):
    """Base class for process-tier failures (crash, timeout)."""


class WorkerCrashed(ProcessPoolError):
    """A worker process died mid-task; the pool has been discarded."""


class WorkerTimeout(ProcessPoolError):
    """A task exceeded the pool's timeout; the pool has been discarded."""


def preferred_context() -> multiprocessing.context.BaseContext:
    """``fork`` where available (cheap bootstrap; the parent's pages stay
    shared copy-on-write), ``spawn`` elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


# -- worker-process side ----------------------------------------------------

#: Per-worker bootstrap recipe and (lazily opened) index.  Plain module
#: globals: each worker process has its own copy.
_WORKER: dict = {"directory": None, "index": None}

#: Test seam for fault injection.  When set (before the pool forks, so
#: workers inherit it), every worker task calls it first — the concurrency
#: suite uses it to SIGKILL or wedge a worker deterministically mid-batch.
_FAULT_HOOK = None


def _worker_init(directory: str) -> None:
    """Pool initializer: record the bootstrap recipe only.

    The index is *not* opened here — pool start-up stays O(1) and a
    snapshot that fails to open surfaces on the first task's future (where
    the caller can see it) instead of silently breaking the pool.
    """
    _WORKER.update(directory=directory, index=None)


def _worker_index():
    """The worker's own view of the snapshot, reopened on first use with
    no log, through ``mmap``: the parent owns the delta and the log, and
    the snapshot's published generation is what the worker answers
    from."""
    index = _WORKER["index"]
    if index is None:
        from repro.core.persistence import load_index
        index = load_index(_WORKER["directory"], backend="mmap", wal=False)
        _WORKER["index"] = index
    return index


def _run_fault_hook() -> None:
    if _FAULT_HOOK is not None:
        _FAULT_HOOK()


def _ping_task(hold_seconds: float = 0.0) -> int:
    """Near-no-op task used by :meth:`SnapshotWorkerPool.prestart`;
    returns the worker's pid (handy for fault-injection tests).
    Deliberately does NOT open the index — prestart stays O(fork).  A
    small ``hold_seconds`` keeps each worker briefly busy so the executor
    spawns its full width instead of reusing the first idle process."""
    if hold_seconds:
        time.sleep(hold_seconds)
    return os.getpid()


def _query_batch_task(points: np.ndarray, k: int, overrides: dict
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Full Algo. 2 over a slice of a micro-batch (serve-tier task).

    Rows of ``query_batch`` are independent, so answering a contiguous
    slice in this worker and concatenating with its siblings' slices is
    byte-identical to one in-process call over the whole batch.
    """
    _run_fault_hook()
    index = _worker_index()
    return index.query_batch(points, k, **overrides)


# -- parent-process side ----------------------------------------------------


class SnapshotWorkerPool:
    """A lazily created process pool whose workers share one snapshot.

    Parameters
    ----------
    directory:
        Snapshot (root) directory written by
        :func:`repro.core.save_index`; workers open its published
        generation.
    num_workers:
        Pool width: exactly this many worker processes.
    timeout:
        Seconds a single dispatched call may take before the pool is
        declared wedged and :class:`WorkerTimeout` is raised; ``None``
        waits forever (crashes still fail fast via the broken-pool
        signal).
    """

    def __init__(self, directory: str | os.PathLike[str], num_workers: int,
                 timeout: float | None = None) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.directory = os.fspath(directory)
        self.num_workers = num_workers
        self.timeout = timeout
        self._pool: ProcessPoolExecutor | None = None
        # Pool lifecycle is mutated from many threads (service clients
        # lazily re-forking after a generation swap, the dispatcher
        # resetting after a crash): without serialization, two racing
        # _ensure() calls each fork an executor and the loser leaks its
        # workers — which then hang interpreter shutdown.
        self._lifecycle_lock = threading.Lock()
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    def _ensure(self) -> ProcessPoolExecutor:
        if self._closed:
            raise ProcessPoolError("worker pool has been closed")
        with self._lifecycle_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.num_workers,
                    mp_context=preferred_context(),
                    initializer=_worker_init,
                    initargs=(self.directory,))
            return self._pool

    def prestart(self) -> list[int]:
        """Fork the worker processes now; returns their pids.

        Under the preferred ``fork`` start method, forking from a process
        that is already running many threads (a serving tier mid-traffic)
        risks inheriting a lock held mid-operation by some other thread.
        Calling this from the owning thread *before* client traffic starts
        — :meth:`QueryService.start` does — moves the fork to the quietest
        possible moment.  (A pool rebuilt after a crash re-forks lazily;
        that window is unavoidable without ``forkserver``, which would
        break fork-inherited test seams and slow every recovery.)
        """
        pool = self._ensure()
        futures = [pool.submit(_ping_task, 0.05)
                   for _ in range(self.num_workers)]
        return sorted(set(self.gather(futures)))

    def reset(self, kill: bool = False) -> None:
        """Discard the current pool (next call starts a fresh one).

        With ``kill=True`` any still-running workers are terminated first
        — the timeout path, where a wedged worker would otherwise keep the
        shutdown waiting forever.
        """
        with self._lifecycle_lock:
            pool, self._pool = self._pool, None
        if pool is None:
            return
        if kill:
            for process in list(getattr(pool, "_processes", {}).values()):
                try:
                    process.terminate()
                except Exception:
                    pass
        pool.shutdown(wait=not kill, cancel_futures=True)

    def swap(self, directory: str | os.PathLike[str]) -> None:
        """Re-bind the pool to a new snapshot directory — the
        zero-downtime half of a generation swap (:mod:`repro.wal`).

        Unlike :meth:`reset`, futures already dispatched are *not*
        cancelled: the old worker processes finish their in-flight tasks
        against the old generation and exit on their own; the next
        submit lazily forks a fresh pool that bootstraps from
        ``directory``.
        """
        with self._lifecycle_lock:
            pool, self._pool = self._pool, None
            self.directory = os.fspath(directory)
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=False)

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        self._closed = True
        self.reset()

    # -- dispatch --------------------------------------------------------

    def submit(self, task, /, *args) -> Future:
        """Submit one task; crashes surface through :meth:`gather`."""
        while True:
            pool = self._ensure()
            try:
                return pool.submit(task, *args)
            except BrokenProcessPool as error:
                self.reset()
                raise WorkerCrashed(
                    f"worker pool broken before dispatch: {error}") \
                    from error
            except RuntimeError as error:
                # A generation swap() shut this executor down between
                # _ensure() returning it and the submit landing: loop and
                # dispatch to the current pool instead.  Anything else —
                # including a genuinely closed pool — is a real error.
                if ("shutdown" not in str(error) or self._closed
                        or self._pool is pool):
                    raise

    def gather(self, futures: list[Future]) -> list:
        """Collect results in order, converting pool failures to typed
        errors and discarding the broken pool so the next batch recovers."""
        deadline = (None if self.timeout is None
                    else time.monotonic() + self.timeout)
        results = []
        try:
            for future in futures:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                results.append(future.result(remaining))
        except BrokenProcessPool as error:
            self.reset()
            raise WorkerCrashed(
                f"worker process died mid-task ({len(results)} of "
                f"{len(futures)} task results collected)") from error
        except (TimeoutError, _FutureTimeoutError) as error:
            # Both spellings: concurrent.futures.TimeoutError only became
            # an alias of the builtin in Python 3.11, and 3.10 is in the
            # CI matrix — catching just the builtin would let a wedged
            # pool escape untyped (and never be killed) there.
            for future in futures:
                future.cancel()
            self.reset(kill=True)
            raise WorkerTimeout(
                f"worker task exceeded timeout={self.timeout}s; pool "
                f"killed and discarded") from error
        return results

    def run_query_batch(self, points: np.ndarray, k: int,
                        overrides: dict | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Answer a batch by sharding its rows across the workers.

        Each worker answers a contiguous row slice through its own index
        view's vectorised ``query_batch``; the slices concatenate back in
        submission order, so the result is byte-identical to one
        in-process call.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points[None, :]
        overrides = dict(overrides or {})
        chunks = np.array_split(points, min(self.num_workers,
                                            max(1, points.shape[0])))
        futures = [self.submit(_query_batch_task, chunk, k, overrides)
                   for chunk in chunks if chunk.shape[0]]
        parts = self.gather(futures)
        ids = np.concatenate([p[0] for p in parts], axis=0)
        dists = np.concatenate([p[1] for p in parts], axis=0)
        return ids, dists
