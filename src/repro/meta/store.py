"""Columnar per-point metadata: the attribute side of filtered kNN.

One :class:`MetadataStore` holds one typed column per attribute, aligned
with the descriptor heap: row ``i`` describes object ``i``.  Three
column kinds cover the predicate algebra:

* ``int``  — ``int64``
* ``float``— ``float64``
* ``str``  — fixed-width UTF-8 bytes (``S<w>``), widened on append

Columns are plain numpy arrays, so predicate masks are single
vectorised comparisons, and persistence is the same RPAK container the
packed-tree sidecars use (:func:`~repro.storage.codecs.pack_arrays`):
one ``metadata.packed`` file next to the snapshot, loaded as bytes on
the file backend and as a zero-copy ``np.memmap`` view on the mmap
backend — process-pool workers mapping the same snapshot share the
physical pages.

The store is append-only (inserts and compaction folds call
:meth:`append_rows`); it never tracks deletions — the engine subtracts
the index's deleted set when merging survivors, exactly as it does for
vectors.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.storage.codecs import pack_arrays, unpack_arrays

__all__ = ["MetadataStore"]

#: Supported column kinds and their numpy storage.
_KINDS = ("int", "float", "str")


class MetadataStore:
    """Typed, aligned metadata columns over the indexed points."""

    def __init__(self, columns: dict[str, np.ndarray]) -> None:
        if not columns:
            raise ValueError("a MetadataStore needs at least one column")
        self._columns: dict[str, np.ndarray] = {}
        count = None
        for name, values in columns.items():
            values = np.asarray(values)
            if values.ndim != 1:
                raise ValueError(
                    f"column {name!r} must be 1-D, got shape {values.shape}")
            if count is None:
                count = values.shape[0]
            elif values.shape[0] != count:
                raise ValueError(
                    f"column {name!r} has {values.shape[0]} rows, "
                    f"expected {count}")
            self._columns[str(name)] = _canonical(name, values)
        self._count = int(count if count is not None else 0)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Mapping[str, Any]]) -> "MetadataStore":
        """Build from one dict per point (all dicts must share keys)."""
        rows = list(rows)
        if not rows:
            raise ValueError("metadata rows must be non-empty")
        names = sorted(rows[0].keys())
        if not names:
            raise ValueError("metadata rows must have at least one key")
        for position, row in enumerate(rows):
            if sorted(row.keys()) != names:
                raise ValueError(
                    f"metadata row {position} keys {sorted(row.keys())} "
                    f"differ from row 0 keys {names}")
        columns = {
            name: _column_from_values(name, [row[name] for row in rows])
            for name in names
        }
        return cls(columns)

    @classmethod
    def from_packed(cls, buffer) -> "MetadataStore":
        """Rebuild from a :meth:`to_packed` buffer (bytes or uint8 view)."""
        return cls(unpack_arrays(buffer))

    def to_packed(self) -> bytes:
        """RPAK container bytes for the ``metadata.packed`` sidecar."""
        return pack_arrays(self._columns)

    # -- introspection ------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._columns.keys())

    def kind(self, name: str) -> str:
        """Column kind: ``"int"``, ``"float"`` or ``"str"``."""
        return _kind_of(self.column(name).dtype)

    def memory_bytes(self) -> int:
        return sum(column.nbytes for column in self._columns.values())

    # -- reading ------------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise ValueError(
                f"unknown metadata column {name!r}; available: "
                f"{', '.join(sorted(self._columns))}") from None

    def coerce(self, name: str, value: Any):
        """A predicate constant in the column's comparison domain."""
        kind = self.kind(name)
        if kind == "str":
            if not isinstance(value, str):
                raise TypeError(
                    f"column {name!r} is str-typed; got {value!r}")
            return np.bytes_(value.encode("utf-8"))
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(
                f"column {name!r} is {kind}-typed; got {value!r}")
        return value

    def row(self, position: int) -> dict[str, Any]:
        """One point's metadata as plain Python values."""
        return {name: _to_python(column[position])
                for name, column in self._columns.items()}

    def rows(self, positions: Iterable[int]) -> list[dict[str, Any]]:
        return [self.row(int(position)) for position in positions]

    def check_columns(self, required: Iterable[str]) -> None:
        """Fail fast when a predicate references unknown columns."""
        missing = sorted(set(required) - set(self._columns))
        if missing:
            raise ValueError(
                f"predicate references unknown metadata column(s) "
                f"{', '.join(repr(m) for m in missing)}; available: "
                f"{', '.join(sorted(self._columns))}")

    def validate_row(self, row: Mapping[str, Any]) -> dict[str, Any]:
        """One insert-time row checked against this store: exactly its
        columns, each value of the column's kind.  Returns the row with
        ints widened to float for float columns, so :meth:`append_rows`
        accepts it — now or after a trip through the write-ahead log.

        Raises:
            ValueError: The keys are not exactly the store's columns.
            TypeError: A value is not of its column's kind.
        """
        if set(row.keys()) != set(self._columns):
            raise ValueError(
                f"metadata keys {sorted(row.keys())} differ from store "
                f"columns {sorted(self._columns)}")
        checked = dict(row)
        for name, column in self._columns.items():
            kind = _kind_of(_column_from_values(name, [row[name]]).dtype)
            if kind == "int" and column.dtype.kind == "f":
                checked[name] = float(row[name])
            elif kind != _kind_of(column.dtype):
                raise TypeError(
                    f"column {name!r} is {_kind_of(column.dtype)}-typed; "
                    f"got {row[name]!r}")
        return checked

    # -- growth / reshaping -------------------------------------------------

    def append_rows(self,
                    rows: Sequence[Mapping[str, Any]]) -> "MetadataStore":
        """Rows appended (returns ``self``; arrays are replaced, so any
        zero-copy views the store was loaded from stay untouched)."""
        if not rows:
            return self
        rows = [self.validate_row(row) for row in rows]
        for name in self._columns:
            tail = _column_from_values(name, [row[name] for row in rows])
            self._columns[name] = _concat_columns(self._columns[name], tail)
        self._count += len(rows)
        return self

    def slice(self, start: int, stop: int) -> "MetadataStore":
        """A detached copy of rows ``[start, stop)`` (shard builds)."""
        return MetadataStore({
            name: np.ascontiguousarray(column[start:stop])
            for name, column in self._columns.items()
        })


def _canonical(name, values: np.ndarray) -> np.ndarray:
    kind = values.dtype.kind
    if kind in ("i", "u", "b"):
        return values.astype(np.int64, copy=False)
    if kind == "f":
        return values.astype(np.float64, copy=False)
    if kind == "S":
        return values
    if kind == "U":
        return np.char.encode(values, "utf-8")
    raise ValueError(
        f"column {name!r} has unsupported dtype {values.dtype}; "
        f"supported kinds: {', '.join(_KINDS)}")


def _kind_of(dtype: np.dtype) -> str:
    if dtype.kind == "i":
        return "int"
    if dtype.kind == "f":
        return "float"
    return "str"


def _column_from_values(name: str, values: list) -> np.ndarray:
    kinds = set()
    for value in values:
        if isinstance(value, bool):
            raise TypeError(
                f"column {name!r}: bool values are not supported; "
                f"store 0/1 ints instead")
        if isinstance(value, str):
            kinds.add("str")
        elif isinstance(value, int):
            kinds.add("int")
        elif isinstance(value, float):
            kinds.add("float")
        else:
            raise TypeError(
                f"column {name!r}: unsupported value {value!r} "
                f"({type(value).__name__}); use int, float or str")
    if kinds == {"str"}:
        encoded = [value.encode("utf-8") for value in values]
        width = max(1, max(len(raw) for raw in encoded))
        return np.asarray(encoded, dtype=f"S{width}")
    if "str" in kinds:
        raise TypeError(
            f"column {name!r} mixes strings with numbers")
    if kinds == {"int"}:
        return np.asarray(values, dtype=np.int64)
    return np.asarray(values, dtype=np.float64)


def _concat_columns(head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Two same-kind columns joined (strings at the wider width)."""
    if head.dtype.kind == "S":
        width = max(head.dtype.itemsize, tail.dtype.itemsize)
        head = head.astype(f"S{width}", copy=False)
        tail = tail.astype(f"S{width}", copy=False)
    return np.concatenate([head, tail])


def _to_python(value) -> Any:
    if isinstance(value, bytes):
        return value.decode("utf-8")
    if isinstance(value, np.bytes_):
        return bytes(value).decode("utf-8")
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value
