"""Process-parallel execution over shared snapshot directories.

The GIL caps in-process execution (the inline scans, the
micro-batching :class:`~repro.serve.QueryService`) near single-core
throughput once the numpy kernels stop dominating.  This module is the
escape hatch: a pool of **worker processes** that each reopen the same
persisted snapshot — by default through the zero-copy ``mmap`` backend, so
the OS shares one set of physical pages across the whole pool and each
worker's bootstrap is O(metadata), not O(index size).

Design rules (the ones the fault-injection suite enforces):

* **Workers bootstrap from the snapshot manifest, never from pickles.**
  Only the directory path, backend name and buffer-pool setting cross the
  process boundary at start-up; the index itself is reopened lazily inside
  the worker on its first task.
* **A dead or wedged worker fails fast, typed.**  A worker that crashes
  mid-task surfaces as :class:`WorkerCrashed` on every in-flight call; a
  task that exceeds the pool's ``timeout`` surfaces as
  :class:`WorkerTimeout`.  Neither leaves a caller hanging, and either way
  the broken pool is discarded so the *next* call starts a fresh one.
* **Results are byte-identical to the sequential path.**  Workers run the
  very same :class:`~repro.core.engine.QueryEngine` stages over the very
  same pages; only the work layout changes.
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

from repro.core.params import check_backend


class ProcessPoolError(RuntimeError):
    """Base class for process-tier failures (crash, timeout)."""


class WorkerCrashed(ProcessPoolError):
    """A worker process died mid-task; the pool has been discarded."""


class WorkerTimeout(ProcessPoolError):
    """A task exceeded the pool's timeout; the pool has been discarded."""


def default_workers() -> int:
    """Pool width when the caller does not choose one: the machine."""
    return max(1, os.cpu_count() or 1)


def preferred_context() -> multiprocessing.context.BaseContext:
    """``fork`` where available (cheap bootstrap; the parent's pages stay
    shared copy-on-write), ``spawn`` elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


# -- worker-process side ----------------------------------------------------

#: Per-worker bootstrap recipe and (lazily opened) index.  Plain module
#: globals: each worker process has its own copy.
_WORKER: dict = {"directory": None, "backend": None, "cache_pages": None,
                 "index": None}

#: Test seam for fault injection.  When set (before the pool forks, so
#: workers inherit it), every worker task calls it first — the concurrency
#: suite uses it to SIGKILL or wedge a worker deterministically mid-batch.
_FAULT_HOOK = None


def _worker_init(directory: str, backend: str | None,
                 cache_pages: int | None) -> None:
    """Pool initializer: record the bootstrap recipe only.

    The index is *not* opened here — pool start-up stays O(1) and a
    snapshot that fails to open surfaces on the first task's future (where
    the caller can see it) instead of silently breaking the pool.
    """
    _WORKER.update(directory=directory, backend=backend,
                   cache_pages=cache_pages, index=None)


def _worker_index(wal: bool | None = None):
    """The worker's own view of the snapshot, reopened on first use (a
    tree scan reads base trees only, so its workers pass ``wal=False``:
    the parent owns the delta and the log)."""
    index = _WORKER["index"]
    if index is None:
        from repro.core.persistence import load_index
        index = load_index(_WORKER["directory"],
                           cache_pages=_WORKER["cache_pages"],
                           backend=_WORKER["backend"], wal=wal)
        _drop_worker_pools(index)
        _WORKER["index"] = index
    return index


def _drop_worker_pools(index) -> None:
    """Run scans inline inside a worker.

    Inside a worker the pool *is* the parallelism: drop any worker pool
    the snapshot's spec re-created — a sharded snapshot's per-shard
    pools included — so a process-execution snapshot cannot recursively
    fork grandchildren.
    """
    from repro.core.spec import Execution
    index.set_execution(Execution())


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


def _scan_trees_task(tree_indices: list[int], points: np.ndarray,
                     alpha: int, beta: int, gamma: int, ptolemaic: bool,
                     predicate: dict | None = None
                     ) -> tuple[list[list[np.ndarray]], dict]:
    """Stages (i)+(ii) of Algo. 2 for a subset of trees, all query rows.

    Returns one survivor-id array per (tree, row) plus the worker-side
    I/O / distance-count deltas, so the parent can merge survivors
    (stage iii stays in the parent, which owns the caller-visible stats).

    ``predicate`` arrives in dict wire form; the eligible ids come from
    this worker's own snapshot view of the metadata store, through the
    worker index's memo as in the parent (an equal predicate recurring
    on the worker pays no mask), and :meth:`QueryEngine.scan_many` takes
    each tree's α candidates among its eligible entries as it does
    there.
    """
    _run_fault_hook()
    index = _worker_index(wal=False)
    engine = index._engine
    eligible = index._eligibility(index._coerce_query_predicate(predicate))
    reads_before = index._total_page_reads()
    random_before, sequential_before = index._read_breakdown()
    index._distance_counter.reset()

    # The query-to-reference matmul is NOT charged here: every worker
    # group recomputes it for its own trees, but the sequential path
    # computes it once per query, and the parent charges exactly that
    # (engine run_batch remote branch) so process-mode QueryStats
    # stay identical to sequential ones.
    query_ref = index.references.distances_from(points)

    survivors = engine.scan_many(tree_indices, points, query_ref, alpha,
                                 beta, gamma, ptolemaic, eligible)

    random_after, sequential_after = index._read_breakdown()
    delta = {
        "page_reads": index._total_page_reads() - reads_before,
        "random_reads": random_after - random_before,
        "sequential_reads": sequential_after - sequential_before,
        "distance_computations": index._distance_counter.count,
    }
    return survivors, delta


# -- parent-process side ----------------------------------------------------


class SnapshotWorkerPool:
    """A lazily created process pool whose workers share one snapshot.

    Parameters
    ----------
    directory:
        Snapshot directory written by :func:`repro.core.save_index`.  May
        be ``None`` at construction (a process-mode index binds it after
        ``build()`` has persisted itself) but must be set before use.
    num_workers:
        Pool width; defaults to the CPU count.
    backend:
        Storage backend each worker reopens the snapshot with
        (``"mmap"`` by default — the whole point: the OS shares the
        physical pages across the pool).
    cache_pages:
        Buffer-pool override forwarded to each worker's ``load_index``.
    timeout:
        Seconds a single dispatched call may take before the pool is
        declared wedged and :class:`WorkerTimeout` is raised; ``None``
        waits forever (crashes still fail fast via the broken-pool
        signal).
    """

    def __init__(self, directory: str | os.PathLike[str] | None = None,
                 num_workers: int | None = None, backend: str = "mmap",
                 cache_pages: int | None = None,
                 timeout: float | None = None) -> None:
        if num_workers is not None and num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        check_backend(backend, "worker")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.directory = None if directory is None else os.fspath(directory)
        self.num_workers = num_workers or default_workers()
        self.backend = backend
        self.cache_pages = cache_pages
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
        if self.directory is None:
            raise ProcessPoolError(
                "no snapshot directory bound; build()/save_index() the "
                "index first (process workers bootstrap from the snapshot, "
                "never from pickled live state)")
        with self._lifecycle_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.num_workers,
                    mp_context=preferred_context(),
                    initializer=_worker_init,
                    initargs=(self.directory, self.backend,
                              self.cache_pages))
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
            self.directory = (None if directory is None
                              else os.fspath(directory))
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

    def scan_trees(self, num_trees: int, points: np.ndarray, alpha: int,
                   beta: int, gamma: int, ptolemaic: bool,
                   predicate: dict | None = None
                   ) -> tuple[list[list[np.ndarray]], dict]:
        """Stages (i)+(ii) for all trees, fanned out tree-wise.

        Returns ``per_tree[tree][row]`` survivor-id arrays (tree order
        preserved) plus the summed worker-side stats deltas.
        """
        groups = [list(chunk) for chunk in np.array_split(
            np.arange(num_trees), min(self.num_workers, num_trees))
            if chunk.size]
        futures = [self.submit(_scan_trees_task, [int(t) for t in group],
                               points, alpha, beta, gamma, ptolemaic,
                               predicate)
                   for group in groups]
        results = self.gather(futures)
        per_tree: list[list[np.ndarray]] = []
        delta = {"page_reads": 0, "random_reads": 0, "sequential_reads": 0,
                 "distance_computations": 0}
        for survivors, worker_delta in results:
            per_tree.extend(survivors)
            for key in delta:
                delta[key] += worker_delta[key]
        return per_tree, delta
