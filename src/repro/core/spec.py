"""Declarative index specification: the paper's parameters plus the two
values a deployment adds.

The HD-Index structure of the paper (Algo. 1 construction, Algo. 2
querying) is fixed by :class:`~repro.core.params.HDIndexParams`.  A
deployment adds only two things:

* ``shards`` — one index, or that many horizontal partitions behind a
  :class:`~repro.core.router.ShardRouter` (the paper's Sec. 5.2.8
  "distributed" remark);
* ``wal`` — whether the Sec. 3.6 updates are framed in a write-ahead
  log (:mod:`repro.wal`).

:class:`IndexSpec` names one deployment as one value::

    IndexSpec(params=HDIndexParams(...), shards=4, wal=False)

consumed by :func:`repro.build` / :func:`repro.open` (see
:mod:`repro.core.factory`).  Specs serialise to plain JSON dicts, and
every snapshot's ``meta.json``/``manifest.json`` records its shard count
and log policy, so a reopen reconstructs the same deployment.

:class:`Execution` is a :class:`~repro.serve.QueryService`'s setting,
not an index's: where a served micro-batch runs.

>>> spec = IndexSpec(shards=2, wal=False)
>>> IndexSpec.from_dict(spec.to_dict()) == spec
True
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

from repro.core.params import HDIndexParams

#: Execution kinds an :class:`Execution` accepts.
EXECUTION_KINDS = ("sequential", "process")

#: The keys of a spec dict (:meth:`IndexSpec.to_dict`).
SPEC_KEYS = ("params", "shards", "wal")


@dataclass(frozen=True)
class Execution:
    """*Where* a :class:`~repro.serve.QueryService` answers a flushed
    micro-batch.

    Attributes
    ----------
    kind:
        ``"sequential"`` (the service's dispatcher thread) or
        ``"process"``: the service shards each micro-batch's rows over
        worker processes that reopen the persisted snapshot through
        ``mmap`` (the OS shares one set of physical pages pool-wide).
    workers:
        Pool width for ``"process"``; ``None`` picks the CPU count.
    worker_timeout:
        Seconds a dispatched process-pool task may take before the pool
        is declared wedged (:class:`~repro.core.procpool.WorkerTimeout`);
        ``None`` disables the guard.

    >>> Execution(kind="process", workers=4).workers
    4
    """

    kind: str = "sequential"
    workers: int | None = None
    worker_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in EXECUTION_KINDS:
            raise ValueError(
                f"unknown execution kind {self.kind!r}; choose from "
                f"{EXECUTION_KINDS}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.worker_timeout is not None and self.worker_timeout <= 0:
            raise ValueError(
                f"worker_timeout must be > 0, got {self.worker_timeout}")


@dataclass(frozen=True)
class IndexSpec:
    """The full declarative recipe for one HD-Index deployment;
    :func:`repro.build` turns it into a built (optionally persisted)
    index and :func:`repro.open` reconstructs it from a snapshot.

    Attributes
    ----------
    params:
        The paper's structural and query tunables
        (:class:`~repro.core.params.HDIndexParams`), the storage backend
        (``params.backend``) included.
    shards:
        Number of horizontal partitions; ``1`` means a single plain
        index (no router).
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

    >>> IndexSpec(shards=2).shards
    2
    """

    params: HDIndexParams = field(default_factory=HDIndexParams)
    shards: int = 1
    wal: bool | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.wal not in (None, True, False):
            raise ValueError(
                f"wal must be True, False or None, got {self.wal!r}")

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form: ``{"params": ..., "shards": ..., "wal": ...}``."""
        return {"params": dataclasses.asdict(self.params),
                "shards": self.shards, "wal": self.wal}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "IndexSpec":
        """Inverse of :meth:`to_dict` (tolerates missing keys, refuses
        unknown ones: the older ``topology`` / ``execution`` / ``backend``
        keys carried values this form spells differently)."""
        unknown = sorted(set(data) - set(SPEC_KEYS))
        if unknown:
            raise ValueError(
                f"spec keys {unknown} are not IndexSpec fields {SPEC_KEYS}: "
                f"topology.shards is shards, execution.wal is wal and "
                f"backend is params.backend (see docs/MIGRATION.md)")
        params = data.get("params")
        return cls(params=(HDIndexParams() if params is None
                           else params_from_dict(params)),
                   shards=data.get("shards", 1), wal=data.get("wal"))


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

    >>> coerce_spec(None).shards
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
