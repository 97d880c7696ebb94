"""Typed predicate algebra for filtered kNN.

A predicate is a small immutable tree over per-point metadata columns:
leaves (:class:`Eq`, :class:`In`, :class:`Range`) compare one column
against constants, combinators (:class:`And`, :class:`Or`, :class:`Not`)
compose them.  Every node is a frozen dataclass, so predicates are

* **hashable** — they ride the serve tier's override-canonicalisation
  (its batch grouping) unchanged;
* **picklable** — they cross the process-pool boundary inside task
  payloads;
* **JSON round-trippable** (:meth:`Predicate.to_dict` /
  :func:`predicate_from_dict`) — they cross the wire protocol as plain
  dicts.

Evaluation is two-faced, matching where rows live:

* :meth:`Predicate.mask` is the *bulk kernel*: one vectorised pass over
  a :class:`~repro.meta.store.MetadataStore` producing a boolean
  eligibility bitmap for the whole base corpus.  This is what the query
  engine pushes down in front of the filter kernels (declared hot in
  ``hotpaths.toml`` — no per-row Python).
* :meth:`Predicate.matches` is the *scalar path* for the handful of
  WAL-delta rows that have not been compacted into the base store yet.

Combinator masks loop over *clauses* (a fixed-small tree), never over
rows.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.meta.store import plain_scalar

__all__ = [
    "And",
    "Eq",
    "In",
    "Not",
    "Or",
    "Predicate",
    "Range",
    "coerce_predicate",
    "predicate_from_dict",
]


class Predicate:
    """Base class; use the concrete leaf/combinator classes."""

    __slots__ = ()

    def mask(self, store) -> np.ndarray:
        """Boolean eligibility bitmap over every row of ``store``."""
        raise NotImplementedError

    def matches(self, row: Mapping[str, Any]) -> bool:
        """Scalar evaluation against one metadata row (delta path)."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        """JSON-safe wire form; inverse of :func:`predicate_from_dict`."""
        raise NotImplementedError

    def columns(self) -> frozenset:
        """Every column name the predicate reads (for validation)."""
        raise NotImplementedError

    def constants(self) -> list[tuple[str, Any]]:
        """(column, constant) for every constant of the leaves, a
        :class:`Range`'s open bounds left out (for validation)."""
        found = []
        for field in dataclasses.fields(self):  # type: ignore[arg-type]
            value = getattr(self, field.name)
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, Predicate):
                    found += item.constants()
                elif field.name != "column" and item is not None:
                    found.append((getattr(self, "column"), item))
        return found

    # Composition sugar: (Eq("color", "red") & Range("year", low=2000)).
    def __and__(self, other: "Predicate") -> "And":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)


@dataclass(frozen=True)
class Eq(Predicate):
    """``column == value``."""

    column: str
    value: Any

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", plain_scalar(self.value))

    def mask(self, store) -> np.ndarray:
        return store.column(self.column) == store.coerce(self.column,
                                                         self.value)

    def matches(self, row: Mapping[str, Any]) -> bool:
        return row[self.column] == self.value

    def to_dict(self) -> dict:
        return {"op": "eq", "column": self.column, "value": self.value}

    def columns(self) -> frozenset:
        return frozenset((self.column,))


@dataclass(frozen=True, init=False)
class In(Predicate):
    """``column ∈ values`` (values normalised to a tuple)."""

    column: str
    values: tuple

    def __init__(self, column: str, values) -> None:
        object.__setattr__(self, "column", column)
        object.__setattr__(self, "values", tuple(map(plain_scalar, values)))

    def mask(self, store) -> np.ndarray:
        coerced = [store.coerce(self.column, value) for value in self.values]
        return np.isin(store.column(self.column), np.asarray(coerced))

    def matches(self, row: Mapping[str, Any]) -> bool:
        return row[self.column] in self.values

    def to_dict(self) -> dict:
        return {"op": "in", "column": self.column,
                "values": list(self.values)}

    def columns(self) -> frozenset:
        return frozenset((self.column,))


@dataclass(frozen=True)
class Range(Predicate):
    """``low <= column <= high`` (both bounds inclusive and optional)."""

    column: str
    low: Any = None
    high: Any = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "low", plain_scalar(self.low))
        object.__setattr__(self, "high", plain_scalar(self.high))

    def mask(self, store) -> np.ndarray:
        values = store.column(self.column)
        result = np.ones(values.shape[0], dtype=bool)
        if self.low is not None:
            result &= values >= store.coerce(self.column, self.low)
        if self.high is not None:
            result &= values <= store.coerce(self.column, self.high)
        return result

    def matches(self, row: Mapping[str, Any]) -> bool:
        value = row[self.column]
        if self.low is not None and value < self.low:
            return False
        if self.high is not None and value > self.high:
            return False
        return True

    def to_dict(self) -> dict:
        return {"op": "range", "column": self.column,
                "low": self.low, "high": self.high}

    def columns(self) -> frozenset:
        return frozenset((self.column,))


@dataclass(frozen=True, init=False)
class And(Predicate):
    """Every clause must hold."""

    clauses: tuple

    def __init__(self, *clauses: Predicate) -> None:
        object.__setattr__(self, "clauses", _clause_tuple(clauses))

    def mask(self, store) -> np.ndarray:
        result = self.clauses[0].mask(store)
        for clause in self.clauses[1:]:
            result = result & clause.mask(store)
        return result

    def matches(self, row: Mapping[str, Any]) -> bool:
        return all(clause.matches(row) for clause in self.clauses)

    def to_dict(self) -> dict:
        return {"op": "and",
                "clauses": [clause.to_dict() for clause in self.clauses]}

    def columns(self) -> frozenset:
        return frozenset().union(*(c.columns() for c in self.clauses))


@dataclass(frozen=True, init=False)
class Or(Predicate):
    """At least one clause must hold."""

    clauses: tuple

    def __init__(self, *clauses: Predicate) -> None:
        object.__setattr__(self, "clauses", _clause_tuple(clauses))

    def mask(self, store) -> np.ndarray:
        result = self.clauses[0].mask(store)
        for clause in self.clauses[1:]:
            result = result | clause.mask(store)
        return result

    def matches(self, row: Mapping[str, Any]) -> bool:
        return any(clause.matches(row) for clause in self.clauses)

    def to_dict(self) -> dict:
        return {"op": "or",
                "clauses": [clause.to_dict() for clause in self.clauses]}

    def columns(self) -> frozenset:
        return frozenset().union(*(c.columns() for c in self.clauses))


@dataclass(frozen=True)
class Not(Predicate):
    """Clause must not hold."""

    clause: Predicate

    def mask(self, store) -> np.ndarray:
        return ~self.clause.mask(store)

    def matches(self, row: Mapping[str, Any]) -> bool:
        return not self.clause.matches(row)

    def to_dict(self) -> dict:
        return {"op": "not", "clause": self.clause.to_dict()}

    def columns(self) -> frozenset:
        return self.clause.columns()


def _clause_tuple(clauses) -> tuple:
    clauses = tuple(clauses)
    if not clauses:
        raise ValueError("a combinator needs at least one clause")
    for clause in clauses:
        if not isinstance(clause, Predicate):
            raise TypeError(
                f"clauses must be Predicate instances, got {clause!r}")
    return clauses


def predicate_from_dict(data: Mapping[str, Any]) -> Predicate:
    """Rebuild a predicate from its :meth:`Predicate.to_dict` form."""
    try:
        op = data["op"]
    except (TypeError, KeyError):
        raise ValueError(f"not a predicate dict: {data!r}") from None
    if op == "eq":
        return Eq(data["column"], data["value"])
    if op == "in":
        return In(data["column"], data["values"])
    if op == "range":
        return Range(data["column"], data.get("low"), data.get("high"))
    if op == "and":
        return And(*(predicate_from_dict(c) for c in data["clauses"]))
    if op == "or":
        return Or(*(predicate_from_dict(c) for c in data["clauses"]))
    if op == "not":
        return Not(predicate_from_dict(data["clause"]))
    raise ValueError(f"unknown predicate op {op!r}")


def coerce_predicate(value) -> Predicate | None:
    """Accept a :class:`Predicate`, its dict wire form, or ``None``.

    Every query entry point (HD-Index's query engine, the serve tier,
    the process pool) funnels through this, so callers on any side of a
    serialisation boundary can pass whichever form they have.
    """
    if value is None or isinstance(value, Predicate):
        return value
    if isinstance(value, Mapping):
        return predicate_from_dict(value)
    raise TypeError(
        f"predicate must be a Predicate or its dict form, got "
        f"{type(value).__name__}")


def validate_json_safe(predicate: Predicate) -> None:
    """Reject predicates whose constants cannot cross a JSON boundary."""
    for _, value in predicate.constants():
        if not isinstance(value, (str, int, float)):
            raise TypeError(
                f"predicate constant {value!r} is not JSON-safe")
