"""Declarative index specification: one spec instead of a class matrix.

The HD-Index structure of the paper (Algo. 1 construction, Algo. 2
querying) is identical across every deployment shape this reproduction
serves; only two orthogonal axes ever change:

* **topology** — is the dataset one index or ``shards`` horizontal
  partitions behind a router (the paper's Sec. 5.2.8 "distributed"
  extension);
* **execution** — are its updates logged (``Execution.wal``), and is a
  served snapshot answered in-process or by a
  :class:`~repro.serve.QueryService` pool of worker processes
  (``kind="process"``, the service's concern: an index always answers
  in-process).

:class:`IndexSpec` names a point of that grid as one declarative
value::

    IndexSpec(params=HDIndexParams(...),
              topology=Topology(shards=4),
              execution=Execution(wal=False),
              backend="mmap")

consumed by :func:`repro.build` / :func:`repro.open` (see
:mod:`repro.core.factory`).  Specs serialise to plain JSON dicts, travel
inside every snapshot's ``meta.json``/``manifest.json``, and reconstruct
the exact deployment on reopen — no kind-dispatch special cases.

>>> spec = IndexSpec(topology=Topology(shards=2),
...                  execution=Execution(wal=False))
>>> IndexSpec.from_dict(spec.to_dict()) == spec
True
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

from repro.core.params import HDIndexParams, check_backend

#: Execution kinds an :class:`Execution` accepts (aliases normalised).
EXECUTION_KINDS = ("sequential", "process")

#: Accepted spellings -> canonical kind.  ``"thread"`` / ``"threaded"``
#: name the thread pool that once ran the scans at sequential speed:
#: specs recording them open sequential.
_KIND_ALIASES = {"sequential": "sequential", "serial": "sequential",
                 "thread": "sequential", "threaded": "sequential",
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

    >>> Topology(shards=2).shards
    2
    """

    shards: int = 1

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")

    def to_dict(self) -> dict[str, Any]:
        # Not fields; written so snapshot JSON stays byte-identical.
        return {"shards": self.shards, "shard_backends": None,
                "replicas": 1}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Topology":
        return cls(shards=int(data.get("shards", 1)))


@dataclass(frozen=True)
class Execution:
    """*How* a deployment answers and keeps its updates.

    Attributes
    ----------
    kind:
        ``"sequential"`` (in-process) or ``"process"``: a
        :class:`~repro.serve.QueryService` given it shards each
        micro-batch's rows over worker processes that reopen the
        persisted snapshot (sharing physical pages through mmap).  An
        index answers in-process: ``create_index``, ``repro.build`` and
        ``ShardRouter`` refuse ``"process"`` (:func:`refuse_process`),
        and a snapshot recording it opens in-process.  ``"serial"``,
        ``"thread"`` and ``"threaded"`` are spellings of
        ``"sequential"``.
    workers:
        Pool width for ``"process"``; ``None`` picks the CPU count.
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
        (default) lets the runtime decide — a log already on disk
        attaches to a plain index.  A sharded deployment keeps no log:
        ``True`` is refused there.

    >>> Execution(kind="threaded").kind
    'sequential'
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


def refuse_process(execution: Execution) -> None:
    """Raise for ``kind="process"`` where an index is made: an index
    answers in-process, and one pool serves snapshots."""
    if execution.kind == "process":
        raise ValueError(
            "an index answers in-process; serve its snapshot over worker "
            "processes with QueryService(..., execution=\"process\") "
            "(docs/MIGRATION.md)")


@dataclass(frozen=True)
class IndexSpec:
    """The full declarative recipe for one HD-Index deployment.

    Every topology/backend/execution combination is one orthogonal spec;
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
        Update durability (:class:`Execution`; an index refuses
        ``kind="process"``, which only a service takes).
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
