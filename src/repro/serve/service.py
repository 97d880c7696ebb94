"""Micro-batched concurrent query service over any :class:`KNNIndex`.

The paper's scalability story (and the PR-1 ``query_batch`` engine path)
amortises per-query fixed costs — the query-to-reference matmul, one
Hilbert-encoding pass per tree, one descriptor fetch per *distinct*
candidate — across a batch.  Live traffic, however, arrives one query at a
time from many client threads.  :class:`QueryService` bridges the two: it
queues single-query submissions, hands the dispatcher whatever is queued
(FIFO, at most ``max_batch``) the moment it is free, answers through the
index's vectorised ``query_batch``, and completes one future per caller.
The policy is work-conserving: a lone request on an idle service starts at
once, and batches form from what arrives while the previous batch runs —
the dispatcher never sleeps on a request it could be answering.

Because a single worker thread owns the index, the page stores and buffer
pools (which are not thread-safe) are never touched concurrently; client
threads only ever touch the queue and their own future.  Row results of
``query_batch`` are independent of batch composition, so every answer is
byte-identical to a sequential ``query`` call — batching changes the work
layout, never the answers.

Backpressure is a hard bound on queue depth: past ``max_pending`` waiting
requests, ``submit`` blocks (optionally up to a timeout, then raises
:class:`ServiceOverloaded`) instead of letting an unbounded queue hide an
overloaded index.

``workers`` decides *where* a flushed micro-batch runs:

* ``None`` (the default) — the dispatcher thread answers through the
  index's ``query_batch``;
* ``workers=N`` — the one multi-core path: the dispatcher shards the
  batch's rows across a
  :class:`~repro.core.procpool.SnapshotWorkerPool` of ``N`` worker
  processes, each holding a lazily reopened ``backend="mmap"`` view of
  the same snapshot directory's published generation (no log), and
  re-concatenates the slices.  Rows are independent, so answers stay
  byte-identical to the in-process service's; a worker crash or timeout
  fails the affected callers fast with a typed
  :class:`~repro.core.procpool.ProcessPoolError` and the pool is rebuilt
  for the next batch.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future

import numpy as np

from repro.core.procpool import ProcessPoolError, SnapshotWorkerPool
from repro.meta import coerce_predicate
from repro.serve.cache import ResultCache, canonical_overrides, make_key
from repro.wal.manager import resolve_snapshot_dir, snapshot_root


class ServiceClosed(RuntimeError):
    """Raised when submitting to (or draining) a stopped service."""


class ServiceOverloaded(RuntimeError):
    """Raised when the pending queue stays full past a submit timeout."""


class DeadlineExceeded(TimeoutError):
    """A request's end-to-end deadline expired before its answer.

    The deadline covers the *whole* request — queue admission, queue
    wait and execution: a request that expires while still queued is
    failed by the dispatcher without wasting batch capacity on an
    answer nobody is waiting for.  The network gateway
    (:mod:`repro.serve.gateway`) maps this onto the wire as a typed
    error response.
    """


@dataclasses.dataclass
class ServiceConfig:
    """Tunables of the micro-batching loop.

    Attributes
    ----------
    max_batch:
        Most requests one batch takes from the queue.  The marginal
        gain of the batch path flattens past a few hundred (the suite's
        ``batch_100k`` workload runs Q = 16), so bigger mostly adds
        latency.
    max_pending:
        Backpressure bound: maximum requests waiting in the queue before
        ``submit`` blocks.
    cache_size:
        LRU result-cache capacity in entries; ``0`` disables caching.
    """

    max_batch: int = 64
    max_pending: int = 1024
    cache_size: int = 0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1, got {self.max_pending}")
        if self.cache_size < 0:
            raise ValueError(
                f"cache_size must be >= 0, got {self.cache_size}")


@dataclasses.dataclass
class ServiceStats:
    """Cumulative counters since the service was created;
    ``queue_wait_ms_total`` sums batch start minus enqueue over every
    dispatched request."""

    queries: int = 0
    batches: int = 0
    max_batch_size: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    overloads: int = 0
    deadline_expired: int = 0
    queue_wait_ms_total: float = 0.0

    def mean_batch_size(self) -> float:
        dispatched = self.queries - self.cache_hits
        return dispatched / self.batches if self.batches else 0.0

    def mean_queue_wait_ms(self) -> float:
        dispatched = self.queries - self.cache_hits
        return self.queue_wait_ms_total / dispatched if dispatched else 0.0

    def as_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["mean_batch_size"] = self.mean_batch_size()
        data["mean_queue_wait_ms"] = self.mean_queue_wait_ms()
        return data


class _SwapRequest:
    """One pending zero-downtime snapshot swap (:meth:`QueryService.
    swap_snapshot`): the preloaded index, where its workers bootstrap
    from, and the caller's completion event."""

    __slots__ = ("index", "root", "done", "applied", "error")

    def __init__(self, index, root: str) -> None:
        self.index = index
        self.root = root
        self.done = threading.Event()
        self.applied = False
        self.error: BaseException | None = None


class _Request:
    """One queued query: the decoupled point, its cache key, its future."""

    __slots__ = ("point", "k", "overrides", "key", "future", "expires_at",
                 "enqueued_at")

    def __init__(self, point: np.ndarray, k: int, overrides: tuple,
                 key, expires_at: float | None = None) -> None:
        self.point = point
        self.k = k
        self.overrides = overrides
        self.key = key
        self.future: Future = Future()
        # Monotonic instant past which the caller no longer wants an
        # answer; ``None`` means no deadline.
        self.expires_at = expires_at
        # Monotonic instant ``submit`` put the request on the queue.
        self.enqueued_at = 0.0

    def expired(self, now: float) -> bool:
        return self.expires_at is not None and now >= self.expires_at

    @classmethod
    def from_call(cls, point: np.ndarray, k, overrides: dict,
                  deadline: float | None = None) -> "_Request":
        """The one canonical normaliser for every client entry point.

        ``submit`` (and therefore ``query``, which routes through it)
        builds requests exclusively here, so the private point copy, the
        canonical overrides tuple used for batch grouping, and the cache
        key can never diverge between paths.

        Raises:
            ValueError: If ``k < 1``.
            TypeError: If an override value is unhashable (rejected in
                the caller's thread — an unhashable value reaching the
                dispatcher's group map would kill the worker and hang
                every other client).
        """
        k = int(k)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {deadline}")
        # Private float64 copy: the caller may mutate or reuse its array
        # long before the batch is dispatched.
        point = np.array(point, dtype=np.float64, copy=True).ravel()
        if overrides.get("predicate") is not None:
            # The wire protocol delivers predicates as plain dicts;
            # coerce to the frozen (hashable) Predicate form so they
            # group/cache exactly like in-process submissions.
            overrides = dict(overrides)
            overrides["predicate"] = coerce_predicate(
                overrides["predicate"])
        canonical = canonical_overrides(overrides)
        key = make_key(point, k, canonical)
        try:
            hash(key)
        except TypeError:
            raise TypeError(
                f"override values must be hashable, got {overrides!r}"
            ) from None
        expires_at = (None if deadline is None
                      else time.monotonic() + deadline)
        return cls(point, k, canonical, key, expires_at)


class QueryService:
    """Thread-safe micro-batching front end over one index.

    Typical use::

        with QueryService(index, max_batch=64) as service:
            futures = [service.submit(q, k=10) for q in queries]
            results = [f.result() for f in futures]

    or, blocking per call from each client thread::

        ids, dists = service.query(q, k=10)

    The service owns all index access from :meth:`start` until
    :meth:`stop`; do not call the index's query methods directly while it
    is running.  ``insert()``/``delete()`` on the underlying index
    (including WAL-routed updates) bump its ``update_epoch``, which the
    service watches: the LRU result cache invalidates itself before the
    next lookup, so served answers are never stale.

    ``workers=N`` (see :meth:`from_snapshot`) row-shards each flushed
    micro-batch across ``N`` worker processes that each hold a lazily
    reopened ``mmap`` view of the same snapshot — the multi-core serving
    tier; each slice is bounded by ``worker_timeout`` seconds
    (:class:`~repro.core.procpool.WorkerTimeout`), which needs
    ``workers``.  The pool serves an *immutable* snapshot, the published
    generation opened with no log, which must hold what the index holds
    when the pool binds (``ValueError`` otherwise); once the index is
    updated, batches fail with
    :class:`~repro.core.procpool.ProcessPoolError` until it is
    re-snapshotted (``save_index()`` or ``compact()``) and swapped in
    (:meth:`swap_snapshot`).

    >>> import numpy as np
    >>> from repro import HDIndex, HDIndexParams, QueryService
    >>> data = np.repeat(np.arange(32.0)[:, None], 4, axis=1)
    >>> index = HDIndex(HDIndexParams(num_trees=2, hilbert_order=4,
    ...                               num_references=4, alpha=8, seed=0))
    >>> index.build(data)
    >>> with QueryService(index, max_batch=8) as service:
    ...     ids, dists = service.query(data[3], k=2)
    >>> int(ids[0]), float(dists[0])
    (3, 0.0)
    """

    def __init__(self, index, config: ServiceConfig | None = None,
                 snapshot_dir: str | os.PathLike[str] | None = None,
                 workers: int | None = None,
                 worker_timeout: float | None = None,
                 **overrides) -> None:
        if isinstance(index, (str, os.PathLike)):
            raise TypeError("QueryService serves an index; open a snapshot "
                            "directory with QueryService.from_snapshot()")
        base = config if config is not None else ServiceConfig()
        self.config = dataclasses.replace(base, **overrides)
        self.index = index
        self._pool: SnapshotWorkerPool | None = None
        if workers is not None:
            directory = self._resolve_snapshot_dir(index, snapshot_dir)
            self._pool = SnapshotWorkerPool(directory, num_workers=workers,
                                            timeout=worker_timeout)
        elif worker_timeout is not None:
            raise ValueError("worker_timeout bounds a worker process's "
                             "slice: it needs workers=N")
        # The index update epoch the pool's snapshot holds; workers
        # never see later updates (_answer_rows).
        self._pool_epoch = getattr(index, "update_epoch", 0)
        self.cache = ResultCache(self.config.cache_size)
        # The index mutation epoch the cache's entries were computed
        # against; a mismatch (insert/delete happened, including
        # WAL-routed ones) invalidates before the next lookup, so served
        # answers can never be stale regardless of caller discipline.
        self._cache_epoch = getattr(index, "update_epoch", 0)
        self._queue: deque[_Request] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False
        self._worker: threading.Thread | None = None
        self._pending_swap: _SwapRequest | None = None
        self._stats = ServiceStats()
        # True for from_snapshot(): the service then owns the index and
        # closes its page stores on stop().
        self._owns_index = False

    @staticmethod
    def _resolve_snapshot_dir(index, snapshot_dir):
        """Worker processes need a snapshot to bootstrap from: the
        explicit argument, or the index's own WAL root or storage
        directory.  Workers open its published generation with no log,
        so that generation must hold what the live index holds — the
        same count and deleted ids (:meth:`_check_snapshot`).  A stale
        snapshot would make workers silently answer from other data, so
        it is an error, not a fallback.
        """
        if snapshot_dir is None:
            snapshot_dir = snapshot_root(index)
        if snapshot_dir is None:
            raise ValueError(
                "workers=N needs a persisted snapshot: pass "
                "snapshot_dir=... (or use QueryService.from_snapshot); "
                "worker processes bootstrap from the snapshot "
                "manifest, never from the live index")
        directory = os.fspath(snapshot_dir)
        QueryService._check_snapshot(index, directory)
        return directory

    @staticmethod
    def _check_snapshot(index, directory: str) -> None:
        """Raise ``ValueError`` unless the generation published under
        ``directory`` records the live index's count and deleted ids."""
        import json
        path = resolve_snapshot_dir(directory)
        try:
            with open(os.path.join(path, "meta.json")) as handle:
                recorded = json.load(handle)
        except (OSError, ValueError):
            raise ValueError(
                f"{path} holds no readable snapshot for worker "
                f"processes to open; save_index() the index first"
            ) from None
        held = (int(recorded.get("count", -1)),
                sorted(recorded.get("deleted", ())))
        live_held = (index.count, sorted(getattr(index, "_deleted", ())))
        if held != live_held:
            raise ValueError(
                f"snapshot at {path} holds {held[0]} points, "
                f"{len(held[1])} deleted, but the live index holds "
                f"{live_held[0]} points, {len(live_held[1])} deleted: "
                f"save_index() or compact() it, so worker processes "
                f"(which open no log) serve current data")

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "QueryService":
        """Start the dispatcher thread (idempotent).

        With ``workers`` the worker pool is forked here too — from the
        caller's thread, before any client traffic exists, rather than
        lazily from the dispatcher mid-batch (forking a heavily threaded
        process risks inheriting a lock held by another thread).
        """
        prestart = False
        with self._lock:
            if self._closed:
                raise ServiceClosed("service has been stopped")
            if self._worker is None:
                prestart = self._pool is not None
                self._worker = threading.Thread(
                    target=self._run, name="repro-query-service", daemon=True)
                self._worker.start()
        if prestart:
            self._pool.prestart()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the service (idempotent).

        With ``drain=True`` (default) every queued request is answered
        before the worker exits; with ``drain=False`` queued requests fail
        with :class:`ServiceClosed`.
        """
        with self._lock:
            self._closed = True
            abandoned: list[_Request] = []
            if not drain or self._worker is None:
                abandoned = list(self._queue)
                self._queue.clear()
            self._not_empty.notify_all()
            self._not_full.notify_all()
            worker = self._worker
        if worker is not None:
            worker.join()
        with self._lock:
            orphaned, self._pending_swap = self._pending_swap, None
        if orphaned is not None:
            orphaned.error = ServiceClosed(
                "service stopped before the swap applied")
            try:
                orphaned.index.close()
            except Exception:
                pass
            orphaned.done.set()
        for request in abandoned:
            if request.future.set_running_or_notify_cancel():
                request.future.set_exception(
                    ServiceClosed("service stopped before dispatch"))
        if self._pool is not None:
            self._pool.close()
        if self._owns_index:
            self.index.close()

    def close(self, drain: bool = True) -> None:
        """Alias of :meth:`stop` — idempotent and safe to race against
        concurrent submitters (they observe :class:`ServiceClosed`)."""
        self.stop(drain=drain)

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @classmethod
    def from_snapshot(cls, directory,
                      config: ServiceConfig | None = None,
                      backend: str | None = None,
                      workers: int | None = None,
                      worker_timeout: float | None = None,
                      **overrides) -> "QueryService":
        """Open a persisted index and wrap it in a service.

        The "build offline, serve online" split in one call: the
        snapshot is reopened and fronted by a micro-batching service.
        The service owns the loaded index and closes its page stores on
        :meth:`stop`.

        Args:
            directory: Snapshot directory written by
                :func:`repro.core.save_index`.
            config: Full :class:`ServiceConfig`; mutually composable with
                keyword ``overrides`` (``max_batch=...`` etc.).
            backend: Storage backend for the reopen — ``"mmap"``
                (mapped, O(metadata) cold start: the larger-than-RAM
                serving mode; what ``None`` means) or ``"memory"``.
            workers: Shard each micro-batch's rows across this many
                worker processes that bootstrap from this same snapshot
                directory and reopen it through ``mmap``; ``None``
                (default) answers batches in the dispatcher thread.
            worker_timeout: Seconds a worker's slice may take
                (:class:`~repro.core.procpool.WorkerTimeout`); needs
                ``workers``.
            **overrides: Individual :class:`ServiceConfig` fields.

        Returns:
            An unstarted :class:`QueryService`; enter it (``with``) or
            call :meth:`start`.
        """
        from repro.core.persistence import load_index
        service = cls(load_index(directory, backend=backend),
                      config=config, snapshot_dir=directory,
                      workers=workers, worker_timeout=worker_timeout,
                      **overrides)
        service._owns_index = True
        return service

    # -- client API --------------------------------------------------------

    def submit(self, point: np.ndarray, k: int = 10,
               timeout: float | None = None,
               deadline: float | None = None, **overrides) -> Future:
        """Enqueue one query without blocking on its answer.

        Args:
            point: ``(ν,)`` query vector (copied; the caller may reuse
                its array immediately).
            k: Neighbours requested (``>= 1``).
            timeout: Seconds to wait for queue admission while the queue
                sits at ``max_pending``; ``None`` blocks indefinitely.
            deadline: End-to-end budget in seconds for the *whole*
                request (admission + queue wait + execution).  A request
                still queued when its deadline passes fails with
                :class:`DeadlineExceeded` instead of occupying batch
                capacity; ``None`` means no deadline.
            **overrides: Forwarded to the index's ``query_batch`` (the
                HD-Index family accepts ``alpha``/``beta``/``gamma``/
                ``use_ptolemaic``); requests sharing ``(k, overrides)``
                are batched together.

        Returns:
            A :class:`~concurrent.futures.Future` resolving to
            ``(ids, dists)``.

        Raises:
            ValueError: If ``k < 1`` or ``deadline <= 0``.
            TypeError: If an override value is unhashable.
            ServiceClosed: If the service has been stopped.
            ServiceOverloaded: If admission stayed blocked past
                ``timeout``.
            DeadlineExceeded: If admission stayed blocked past
                ``deadline``.
        """
        request = _Request.from_call(point, k, overrides, deadline)
        if self._cache_current():
            cached = self.cache.get(request.key)
            if cached is not None:
                with self._lock:
                    self._check_open()
                    self._stats.queries += 1
                request.future.set_result(cached)
                return request.future
        admit_by = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            self._check_open()
            while len(self._queue) >= self.config.max_pending:
                # The binding bound: the admission timeout sheds with
                # ServiceOverloaded, the request deadline with
                # DeadlineExceeded — whichever expires first.
                bounds = [b for b in (admit_by, request.expires_at)
                          if b is not None]
                if not bounds:
                    self._not_full.wait()
                else:
                    remaining = min(bounds) - time.monotonic()
                    if remaining > 0:
                        self._not_full.wait(remaining)
                    elif request.expired(time.monotonic()):
                        self._stats.deadline_expired += 1
                        raise DeadlineExceeded(
                            f"deadline of {deadline}s expired during "
                            f"queue admission (max_pending="
                            f"{self.config.max_pending})")
                    else:
                        # The bound expired, and the loop condition
                        # re-checked capacity after the final wake-up
                        # (a slot freed concurrently with the deadline
                        # would have exited the loop above) — the queue
                        # is full *right now*, so shed.
                        self._stats.overloads += 1
                        raise ServiceOverloaded(
                            f"queue held {len(self._queue)} requests "
                            f"for {timeout}s (max_pending="
                            f"{self.config.max_pending})")
                self._check_open()
            self._stats.queries += 1
            request.enqueued_at = time.monotonic()
            self._queue.append(request)
            self._not_empty.notify()
        return request.future

    def query(self, point: np.ndarray, k: int = 10,
              timeout: float | None = None,
              deadline: float | None = None,
              **overrides) -> tuple[np.ndarray, np.ndarray]:
        """Blocking convenience wrapper: ``submit(...).result()``.

        Args:
            point: ``(ν,)`` query vector.
            k: Neighbours requested (``>= 1``).
            timeout: Bounds each phase separately (backpressure
                admission, then the result wait), so an overloaded
                service cannot block the caller forever.
            deadline: End-to-end budget in seconds (see :meth:`submit`);
                also bounds the result wait.
            **overrides: As for :meth:`submit`.

        Returns:
            ``(ids, dists)`` arrays, identical to a direct sequential
            ``index.query`` call.

        Raises:
            Same as :meth:`submit`, plus
            :class:`concurrent.futures.TimeoutError` if the result is
            not ready within ``timeout``.
        """
        wait = timeout
        if deadline is not None and (wait is None or deadline < wait):
            wait = deadline
        return self.submit(point, k, timeout=timeout, deadline=deadline,
                           **overrides).result(wait)

    def stats(self) -> ServiceStats:
        """A point-in-time copy of the cumulative counters."""
        with self._lock:
            snapshot = dataclasses.replace(self._stats)
        snapshot.cache_hits = self.cache.hits
        snapshot.cache_misses = self.cache.misses
        return snapshot

    def pending(self) -> int:
        """Requests currently waiting in the queue."""
        with self._lock:
            return len(self._queue)

    def invalidate_cache(self) -> None:
        """Drop cached results immediately.

        Rarely needed: the service watches the index's ``update_epoch``
        (bumped by every ``insert``/``delete``, including WAL-routed
        ones) and invalidates automatically before the next lookup, so
        served results can never be stale.  This remains for indexes
        outside the family that mutate without bumping an epoch.
        """
        self.cache.invalidate()

    def _cache_current(self) -> bool:
        """True when the cache's entries match the index's mutation
        epoch; on a mismatch the cache is dropped and re-stamped.

        Benign race by design: epoch reads are unlocked (an int load is
        atomic under the GIL), so two threads may both observe a bump
        and both invalidate — an extra clear, never a stale hit, because
        :meth:`_complete` re-checks the epoch before caching a result.
        """
        epoch = getattr(self.index, "update_epoch", 0)
        if epoch != self._cache_epoch:
            self.cache.invalidate()
            self._cache_epoch = epoch
            return False
        return True

    # -- zero-downtime snapshot swap ---------------------------------------

    def swap_snapshot(self, directory: str | os.PathLike[str] | None = None,
                      backend: str | None = None,
                      timeout: float | None = None) -> None:
        """Hot-swap the service onto a (new generation of a) snapshot
        without stopping.

        The replacement index is loaded in the *caller's* thread (the
        expensive part), then handed to the dispatcher, which applies the
        pointer swap between micro-batches: queries already dispatched
        complete against the old index/pool, queries batched afterwards
        see the new one, and no future ever fails because of the swap.
        With ``workers`` the worker pool re-binds to the new directory
        without cancelling in-flight work
        (:meth:`~repro.core.procpool.SnapshotWorkerPool.swap`).

        Args:
            directory: Snapshot (root) to load; ``None`` reloads the
                current index's own WAL root / storage directory — the
                usual move after an out-of-process compaction published a
                new generation.
            backend: Storage backend for the reload (``None`` is
                ``"mmap"``).
            timeout: Seconds to wait for the dispatcher to apply the
                swap; ``None`` waits indefinitely.

        Raises:
            ServiceClosed: If the service was stopped before the swap
                applied.
            TimeoutError: If the swap did not apply within ``timeout``.
            ValueError: With ``workers``, if the loaded index holds what
                the published generation does not (an un-compacted log).
        """
        from repro.core.persistence import load_index
        target = snapshot_root(self.index) if directory is None else directory
        if target is None:
            raise ValueError(
                "no snapshot directory to swap to: the index is not "
                "disk-backed; pass directory=...")
        target = os.fspath(target)
        fresh = load_index(target, backend=backend)
        if self._pool is not None:
            try:
                self._check_snapshot(fresh, target)
            except ValueError:
                fresh.close()
                raise
        swap = _SwapRequest(fresh, target)
        with self._lock:
            if self._closed:
                fresh.close()
                raise ServiceClosed("service has been stopped")
            started = self._worker is not None
            superseded, self._pending_swap = self._pending_swap, swap
            if started:
                self._not_empty.notify_all()
        if superseded is not None:
            superseded.error = RuntimeError(
                "superseded by a newer swap_snapshot call")
            try:
                superseded.index.close()
            except Exception:
                pass
            superseded.done.set()
        if not started:
            # No dispatcher yet: nothing is in flight, apply directly.
            self._maybe_swap()
        if not swap.done.wait(timeout):
            raise TimeoutError(
                f"snapshot swap not applied within {timeout}s")
        if swap.error is not None:
            raise swap.error
        if not swap.applied:
            raise ServiceClosed("service stopped before the swap applied")

    def _maybe_swap(self) -> None:
        """Apply a pending swap (dispatcher thread, between batches)."""
        with self._lock:
            swap, self._pending_swap = self._pending_swap, None
        if swap is None:
            return
        old = self.index
        try:
            self.index = swap.index
            if self._pool is not None:
                self._pool.swap(swap.root)
                self._pool_epoch = getattr(swap.index, "update_epoch", 0)
            self.cache.invalidate()
            self._cache_epoch = getattr(swap.index, "update_epoch", 0)
            if self._owns_index and old is not swap.index:
                try:
                    old.close()
                except Exception:
                    pass
            # The swapped-in index was loaded by the service, which now
            # owns (and closes) it regardless of who owned the old one.
            self._owns_index = True
            swap.applied = True
        except Exception as error:  # keep serving the old index
            self.index = old
            swap.error = error
        finally:
            swap.done.set()

    # -- dispatcher --------------------------------------------------------

    def _run(self) -> None:
        while True:
            batch = self._collect()
            self._maybe_swap()
            if batch is None:
                return
            if not batch:
                continue
            try:
                self._dispatch(batch)
            except Exception as error:
                # Last-resort guard: the dispatcher thread must survive
                # anything, or every pending future hangs forever.  Fail
                # the batch's callers instead.
                for request in batch:
                    future = request.future
                    if future.done() or future.cancelled():
                        continue
                    try:
                        future.set_exception(error)
                    except Exception:
                        pass

    def _collect(self) -> list[_Request] | None:
        """The next micro-batch: whatever is queued, FIFO, at most
        ``max_batch``.  Blocks only while the queue is empty; ``None``
        when stopped and drained."""
        with self._lock:
            while not self._queue:
                if self._closed:
                    return None
                if self._pending_swap is not None:
                    return []
                self._not_empty.wait()
            batch = [self._queue.popleft() for _ in range(
                min(self.config.max_batch, len(self._queue)))]
            self._not_full.notify_all()
            started = time.monotonic()
            self._stats.queue_wait_ms_total += 1000.0 * sum(
                started - request.enqueued_at for request in batch)
            self._stats.batches += 1
            self._stats.max_batch_size = max(self._stats.max_batch_size,
                                             len(batch))
        return batch

    def _dispatch(self, batch: list[_Request]) -> None:
        """Answer one micro-batch, grouped by (k, overrides)."""
        batch = self._expire_requests(batch)
        if not batch:
            return
        # The epoch the batch's answers are computed against; a
        # concurrent mutation between here and completion makes the
        # results correct-but-uncacheable (see _complete).
        epoch = getattr(self.index, "update_epoch", 0)
        groups: OrderedDict[tuple, list[_Request]] = OrderedDict()
        for request in batch:
            groups.setdefault((request.k, request.overrides),
                              []).append(request)
        for (k, overrides), requests in groups.items():
            live = [r for r in requests
                    if r.future.set_running_or_notify_cancel()]
            if not live:
                continue
            try:
                points = np.stack([r.point for r in live])
                ids, dists = self._answer_rows(points, k, dict(overrides))
                for row, request in enumerate(live):
                    self._complete(request, ids[row], dists[row], epoch)
            except ProcessPoolError as error:
                # A worker died or wedged mid-batch.  The pool has already
                # been discarded (the next batch gets a fresh one); fail
                # this batch's callers fast with the typed error instead
                # of retrying into a pool that just lost state.
                for request in live:
                    if not request.future.done():
                        request.future.set_exception(error)
            except Exception:
                # One malformed request (wrong dimensionality, bad
                # override) must not fail its batch neighbours: isolate by
                # retrying each request on its own.
                self._dispatch_singly(live, k, dict(overrides), epoch)

    def _expire_requests(self, batch: list[_Request]) -> list[_Request]:
        """Fail requests whose deadline passed while queued; returns the
        still-live remainder.  An expired request must never occupy
        batch capacity — its caller stopped waiting."""
        now = time.monotonic()
        live: list[_Request] = []
        expired = 0
        for request in batch:
            if not request.expired(now):
                live.append(request)
                continue
            expired += 1
            if not request.future.cancelled():
                request.future.set_exception(DeadlineExceeded(
                    "deadline expired while the request was queued"))
        if expired:
            with self._lock:
                self._stats.deadline_expired += expired
        return live

    def _answer_rows(self, points: np.ndarray, k: int, overrides: dict
                     ) -> tuple[np.ndarray, np.ndarray]:
        """One flushed group: in-process ``query_batch``, or row-sharded
        across the worker pool (byte-identical either way — rows are
        independent).  Workers answer from the snapshot
        alone, so an update since the pool bound fails the batch rather
        than serving stale answers."""
        if self._pool is not None:
            if getattr(self.index, "update_epoch", 0) != self._pool_epoch:
                raise ProcessPoolError(
                    "the index was updated after the worker pool bound its "
                    "snapshot: call save_index() or compact(), then "
                    "swap_snapshot(), to serve the update")
            return self._pool.run_query_batch(points, k, overrides)
        return self.index.query_batch(points, k, **overrides)

    def _dispatch_singly(self, requests: list[_Request], k: int,
                         overrides: dict, epoch: int) -> None:
        for request in requests:
            try:
                ids, dists = self._answer_rows(
                    request.point[None, :], k, overrides)
                self._complete(request, ids[0], dists[0], epoch)
            except Exception as error:
                request.future.set_exception(error)

    def _complete(self, request: _Request, ids: np.ndarray,
                  dists: np.ndarray, epoch: int) -> None:
        # Private per-caller copies: rows of the batch output share one
        # base array, which would otherwise be pinned (and mutable) across
        # every client of the batch.
        ids = ids.copy()
        dists = dists.copy()
        # Cache only results computed against the current mutation
        # epoch: an insert/delete racing the batch must not seed the
        # fresh cache with a pre-mutation answer.
        if (epoch == self._cache_epoch
                and epoch == getattr(self.index, "update_epoch", 0)):
            self.cache.put(request.key, ids, dists)
        request.future.set_result((ids, dists))

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosed("service has been stopped")
