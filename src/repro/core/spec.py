"""Declarative index specification: the paper's parameters plus the one
value a deployment adds.

The HD-Index structure of the paper (Algo. 1 construction, Algo. 2
querying) is fixed by :class:`~repro.core.params.HDIndexParams`.  A
deployment adds only ``wal``: whether the Sec. 3.6 updates are framed
in a write-ahead log (:mod:`repro.wal`).

:class:`IndexSpec` names one deployment as one value::

    IndexSpec(params=HDIndexParams(...), wal=False)

consumed by :func:`repro.build` / :func:`repro.open` (see
:mod:`repro.core.factory`).  Specs serialise to plain JSON dicts, and
every snapshot's ``meta.json`` records its log policy, so a reopen
reconstructs the same deployment.

>>> spec = IndexSpec(wal=False)
>>> IndexSpec.from_dict(spec.to_dict()) == spec
True
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

from repro.core.params import HDIndexParams

#: The keys of a spec dict (:meth:`IndexSpec.to_dict`).
SPEC_KEYS = ("params", "wal")


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
    wal:
        Durability of online updates (:mod:`repro.wal`).  Every
        ``insert``/``delete`` lands in the in-memory delta segment /
        deleted set whatever this says; ``True`` additionally frames it
        in a write-ahead log first (requires ``storage_dir``), so it
        survives a crash and ``compact()`` publishes a new generation;
        ``False`` attaches no log — updates are volatile until
        ``compact()``/``save_index`` fold them into the base; ``None``
        (default) lets the runtime decide — a log already on disk
        attaches.

    >>> IndexSpec(wal=True).wal
    True
    """

    params: HDIndexParams = field(default_factory=HDIndexParams)
    wal: bool | None = None

    def __post_init__(self) -> None:
        if self.wal not in (None, True, False):
            raise ValueError(
                f"wal must be True, False or None, got {self.wal!r}")

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form: ``{"params": ..., "wal": ...}``."""
        return {"params": dataclasses.asdict(self.params), "wal": self.wal}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "IndexSpec":
        """Inverse of :meth:`to_dict` (tolerates missing keys, refuses
        unknown ones: the older ``topology`` / ``execution`` / ``backend``
        keys carried values this form spells differently).  The
        ``"shards": 1`` older plain spec files carry is accepted; any
        other shard count is refused."""
        data = dict(data)
        if data.pop("shards", 1) != 1:
            raise ValueError(
                "sharded specs are no longer supported: build one index "
                "(see docs/MIGRATION.md)")
        unknown = sorted(set(data) - set(SPEC_KEYS))
        if unknown:
            raise ValueError(
                f"spec keys {unknown} are not IndexSpec fields {SPEC_KEYS}: "
                f"execution.wal is wal and backend is params.backend "
                f"(see docs/MIGRATION.md)")
        params = data.get("params")
        return cls(params=(HDIndexParams() if params is None
                           else params_from_dict(params)),
                   wal=data.get("wal"))


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

    >>> coerce_spec(None).wal is None
    True
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
