"""Declarative index specification: one spec instead of a class matrix.

The HD-Index structure of the paper (Algo. 1 construction, Algo. 2
querying) is identical across every deployment shape this reproduction
serves; only two orthogonal axes ever change:

* **topology** — is the dataset one index or ``shards`` horizontal
  partitions behind a router (the paper's Sec. 5.2.8 "distributed"
  extension);
* **execution** — do the independent per-tree scans run inline, on a
  thread pool, or across worker processes sharing an mmap snapshot.

Historically each point of that grid was its own class (``HDIndex``,
``ParallelHDIndex``, ``ProcessPoolHDIndex``, ``ShardedHDIndex``), which
made the *other* combinations — sharded x process, heterogeneous
per-shard backends — impossible to express.  :class:`IndexSpec` replaces
the matrix with one declarative value::

    IndexSpec(params=HDIndexParams(...),
              topology=Topology(shards=4),
              execution=Execution(kind="process", workers=4),
              backend="mmap")

consumed by :func:`repro.build` / :func:`repro.open` (see
:mod:`repro.core.factory`).  Specs serialise to plain JSON dicts, travel
inside every snapshot's ``meta.json``/``manifest.json``, and reconstruct
the exact deployment on reopen — no kind-dispatch special cases.

>>> spec = IndexSpec(topology=Topology(shards=2),
...                  execution=Execution(kind="thread", workers=4))
>>> IndexSpec.from_dict(spec.to_dict()) == spec
True
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

from repro.core.params import HDIndexParams, check_backend

#: Execution kinds an :class:`Execution` accepts (aliases normalised).
EXECUTION_KINDS = ("sequential", "thread", "process")

#: Accepted spellings -> canonical kind.
_KIND_ALIASES = {"sequential": "sequential", "serial": "sequential",
                 "thread": "thread", "threaded": "thread",
                 "process": "process"}


@dataclass(frozen=True)
class Topology:
    """*Where* the data lives: one index, or ``shards`` horizontal
    partitions behind a :class:`~repro.core.router.ShardRouter`.

    Attributes
    ----------
    shards:
        Number of horizontal partitions; ``1`` means a single plain index
        (no router).
    shard_backends:
        Optional per-shard storage-backend override — ``"memory"`` or
        ``"mmap"`` per shard — for heterogeneous deployments
        (e.g. the hot shard in RAM, the cold tail mmap'd).  ``None`` gives
        every shard the spec-level backend.
    replicas:
        Number of identical serving replicas the deployment fronts
        (each replica is one gateway process over its own reopen of the
        same snapshot; see :mod:`repro.serve.router`).  Purely a serving
        axis — it does not change how the index is built or persisted —
        but recording it in the spec lets one JSON file describe the
        whole deployment, and ``repro route`` derive its replica count.

    >>> Topology(shards=2).shards
    2
    >>> Topology(shards=2, shard_backends=("memory", "mmap")).shard_backends
    ('memory', 'mmap')
    >>> Topology(replicas=3).replicas
    3
    """

    shards: int = 1
    shard_backends: tuple[str, ...] | None = None
    replicas: int = 1

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.replicas < 1:
            raise ValueError(
                f"replicas must be >= 1, got {self.replicas}")
        if self.shard_backends is not None:
            backends = tuple(self.shard_backends)
            object.__setattr__(self, "shard_backends", backends)
            if len(backends) != self.shards:
                raise ValueError(
                    f"shard_backends has {len(backends)} entries for "
                    f"{self.shards} shards")
            for backend in backends:
                check_backend(backend, "shard")

    def to_dict(self) -> dict[str, Any]:
        return {"shards": self.shards,
                "shard_backends": (None if self.shard_backends is None
                                   else list(self.shard_backends)),
                "replicas": self.replicas}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Topology":
        backends = data.get("shard_backends")
        return cls(shards=int(data.get("shards", 1)),
                   shard_backends=(None if backends is None
                                   else tuple(backends)),
                   replicas=int(data.get("replicas", 1)))


@dataclass(frozen=True)
class Execution:
    """*How* the independent per-tree scans of Algo. 2 run.

    Attributes
    ----------
    kind:
        ``"sequential"`` (inline, in order), ``"thread"`` (a reusable
        thread pool — the numpy filter kernels release the GIL) or
        ``"process"`` (worker processes bootstrapping from the persisted
        snapshot via ``load_index``, sharing physical pages through mmap).
        ``"threaded"`` is accepted as an alias of ``"thread"``.
    workers:
        Pool width for ``"thread"``/``"process"``; ``None`` picks the
        historical defaults (min(8, τ) threads; the CPU count for
        processes).
    worker_backend:
        Backend worker *processes* reopen the snapshot with (default
        ``"mmap"``, so the OS shares one set of physical pages pool-wide).
    worker_timeout:
        Seconds a dispatched process-pool task may take before the pool
        is declared wedged (:class:`~repro.core.procpool.WorkerTimeout`);
        ``None`` disables the guard.
    wal:
        Durability of online updates (:mod:`repro.wal`).  Every
        ``insert``/``delete`` lands in the in-memory delta segment /
        deleted set whatever this says; ``True`` additionally frames it
        in a write-ahead log first (requires ``storage_dir``), so it
        survives a crash and ``compact()`` publishes a new generation;
        ``False`` attaches no log — updates are volatile until
        ``compact()``/``save_index`` fold them into the base; ``None``
        (default) lets the runtime decide — a log on disk, or process
        execution, attaches one.

    >>> Execution(kind="threaded").kind
    'thread'
    >>> Execution(kind="process", workers=4).workers
    4
    """

    kind: str = "sequential"
    workers: int | None = None
    worker_backend: str = "mmap"
    worker_timeout: float | None = None
    wal: bool | None = None

    def __post_init__(self) -> None:
        canonical = _KIND_ALIASES.get(self.kind)
        if canonical is None:
            raise ValueError(
                f"unknown execution kind {self.kind!r}; choose from "
                f"{EXECUTION_KINDS}")
        object.__setattr__(self, "kind", canonical)
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        check_backend(self.worker_backend, "worker")
        if self.worker_timeout is not None and self.worker_timeout <= 0:
            raise ValueError(
                f"worker_timeout must be > 0, got {self.worker_timeout}")
        if self.wal not in (None, True, False):
            raise ValueError(
                f"wal must be True, False or None, got {self.wal!r}")

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Execution":
        return cls(kind=data.get("kind", "sequential"),
                   workers=data.get("workers"),
                   worker_backend=data.get("worker_backend", "mmap"),
                   worker_timeout=data.get("worker_timeout"),
                   wal=data.get("wal"))


@dataclass(frozen=True)
class IndexSpec:
    """The full declarative recipe for one HD-Index deployment.

    Every family/backend/executor combination is one orthogonal spec;
    :func:`repro.build` turns it into a built (optionally persisted)
    index and :func:`repro.open` reconstructs it from a snapshot.

    Attributes
    ----------
    params:
        The paper's structural and query tunables
        (:class:`~repro.core.params.HDIndexParams`).
    topology:
        Plain (``shards=1``) or sharded (:class:`Topology`).
    execution:
        Sequential / thread-pool / process-pool scan execution
        (:class:`Execution`).
    backend:
        Convenience override of ``params.backend`` (``"memory"``,
        ``"mmap"`` or ``None`` to keep ``params``' own setting) so
        callers need not rebuild the params dataclass just to pick a
        storage tier.

    >>> spec = IndexSpec(backend="memory")
    >>> spec.resolved_params().resolved_backend
    'memory'
    """

    params: HDIndexParams = field(default_factory=HDIndexParams)
    topology: Topology = field(default_factory=Topology)
    execution: Execution = field(default_factory=Execution)
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.backend is not None:
            check_backend(self.backend)
        if isinstance(self.topology, int):
            object.__setattr__(self, "topology", Topology(self.topology))
        if isinstance(self.topology, dict):
            object.__setattr__(self, "topology",
                               Topology.from_dict(self.topology))
        if isinstance(self.execution, str):
            object.__setattr__(self, "execution", Execution(self.execution))
        if isinstance(self.execution, dict):
            object.__setattr__(self, "execution",
                               Execution.from_dict(self.execution))
        if isinstance(self.params, dict):
            object.__setattr__(self, "params", params_from_dict(self.params))

    def resolved_params(self, storage_dir: str | None = None
                        ) -> HDIndexParams:
        """``params`` with the spec-level ``backend`` and an optional
        ``storage_dir`` applied (the factory's working copy)."""
        updates: dict[str, Any] = {}
        if self.backend is not None:
            updates["backend"] = self.backend
        if storage_dir is not None:
            updates["storage_dir"] = storage_dir
        return (dataclasses.replace(self.params, **updates) if updates
                else self.params)

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form: ``{"params": ..., "topology": ...,
        "execution": ..., "backend": ...}``."""
        return {"params": dataclasses.asdict(self.params),
                "topology": self.topology.to_dict(),
                "execution": self.execution.to_dict(),
                "backend": self.backend}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "IndexSpec":
        """Inverse of :meth:`to_dict` (tolerates missing sections)."""
        params = data.get("params")
        return cls(
            params=(HDIndexParams() if params is None
                    else params_from_dict(params)),
            topology=Topology.from_dict(data.get("topology") or {}),
            execution=Execution.from_dict(data.get("execution") or {}),
            backend=data.get("backend"))


def params_from_dict(data: dict[str, Any]) -> HDIndexParams:
    """Rebuild :class:`HDIndexParams` from its ``asdict`` form (JSON
    deserialisation turns the ``domain`` tuple into a list)."""
    data = dict(data)
    if data.get("domain") is not None:
        data["domain"] = tuple(data["domain"])
    return HDIndexParams(**data)


def coerce_spec(
        spec: "IndexSpec | HDIndexParams | dict[str, Any] | None",
) -> IndexSpec:
    """Accept an :class:`IndexSpec`, a bare :class:`HDIndexParams`, a
    spec dict, or ``None`` (all defaults) and return an
    :class:`IndexSpec`.

    >>> coerce_spec(None).topology.shards
    1
    >>> coerce_spec(HDIndexParams(num_trees=4)).params.num_trees
    4
    """
    if spec is None:
        return IndexSpec()
    if isinstance(spec, IndexSpec):
        return spec
    if isinstance(spec, HDIndexParams):
        return IndexSpec(params=spec)
    if isinstance(spec, dict):
        return IndexSpec.from_dict(spec)
    raise TypeError(
        f"cannot build an IndexSpec from {type(spec).__name__}; pass an "
        f"IndexSpec, HDIndexParams, dict or None")


def make_executor(execution: Execution, index: Any = None) -> Any:
    """Instantiate the :class:`~repro.core.engine.Executor` an
    :class:`Execution` describes.

    ``index`` (when already constructed) supplies the historical defaults
    the class matrix used: a thread pool sized to ``min(8, τ)`` once the
    tree count is known, and the buffer-pool setting forwarded to process
    workers.
    """
    from repro.core.engine import (
        ProcessExecutor,
        SequentialExecutor,
        ThreadedExecutor,
    )
    if execution.kind == "sequential":
        return SequentialExecutor()
    if execution.kind == "thread":
        default = None
        if index is not None:
            default = lambda: min(8, max(1, len(index.trees)))  # noqa: E731
        return ThreadedExecutor(execution.workers, default_workers=default)
    cache_pages = None
    if index is not None:
        cache_pages = getattr(index.params, "cache_pages", 0) or None
    return ProcessExecutor(num_workers=execution.workers,
                           backend=execution.worker_backend,
                           cache_pages=cache_pages,
                           timeout=execution.worker_timeout)


def executor_to_execution(executor: Any) -> Execution:
    """The :class:`Execution` value describing a live executor — the
    inverse of :func:`make_executor`, used when persisting an index's
    spec into its snapshot."""
    from repro.core.engine import ProcessExecutor, ThreadedExecutor
    if isinstance(executor, ProcessExecutor):
        pool = executor.pool
        # requested_workers, not pool.num_workers: the pool resolves
        # None to this machine's CPU count, but a persisted spec must
        # keep "size to the serving machine" unresolved.
        return Execution(kind="process", workers=executor.requested_workers,
                         worker_backend=pool.backend,
                         worker_timeout=pool.timeout)
    if isinstance(executor, ThreadedExecutor):
        return Execution(kind="thread", workers=executor.num_workers)
    return Execution(kind="sequential")


#: Legacy snapshot ``kind`` tag -> execution kind (pre-spec snapshots).
KIND_TO_EXECUTION = {"hdindex": "sequential", "parallel": "thread",
                     "process": "process"}

#: Execution kind -> legacy ``kind`` tag written for backward compat.
EXECUTION_TO_KIND = {"sequential": "hdindex", "thread": "parallel",
                     "process": "process"}
