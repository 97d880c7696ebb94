"""RDB-tree: the Reference Distance B+-tree of paper Sec. 3.2.

An RDB-tree is a B+-tree keyed by Hilbert keys whose *leaves* are modified to
store, per object: the Hilbert key, a pointer to the complete descriptor,
and the distances to the m reference objects as float32.  This is the
paper's core structural novelty — candidates can be filtered with the
Eq. (5)/(6) lower bounds using only the leaf bytes already in memory, and
only the final κ survivors cost a random descriptor fetch.

The leaf order Ω follows Eq. (4) exactly (see
:func:`repro.core.params.rdb_leaf_order`): the page model charges Eq. (4)'s
8-byte pointer, so the geometry, every page read and :meth:`size_bytes`
are the paper's.  The file stores the pointer at the narrowest width that
holds the largest id (1, 2, 4 or 8 bytes, big-endian like the rest of the
record), and no geometry: :meth:`RDBTree.read` lays the columns out again.

The tree is held as its two sorted columns (:mod:`repro.btree.packed`):
Algo. 1 sorts the Hilbert keys once and bulk-loads the leaves in key
order, so the entries in key order plus the page geometry that load gives
them *are* the tree.  It changes the way a static external-memory index
does, by merge into new columns; page reads are an accounting model
replayed per lookup, which is what keeps the paper's I/O figures.
"""

from __future__ import annotations

import os

import numpy as np

from repro.btree.packed import (
    NO_PAGE,
    PackedTree,
    internal_capacity,
    leaf_capacity,
)
from repro.core.filters import CandidateWindowError
from repro.core.params import rdb_leaf_order
from repro.distance.metrics import require_finite
from repro.hilbert.butz import HilbertCurve
from repro.storage.codecs import UIntCodec, pack_arrays, unpack_arrays
from repro.storage.pages import DEFAULT_PAGE_SIZE, read_file, replace_file
from repro.storage.stats import IOStats


class RDBTree:
    """One RDB-tree covering one dimension partition.

    Parameters
    ----------
    curve:
        The partition's Hilbert curve (fixes key width η·ω bits).
    num_references:
        m — reference distances stored per leaf entry.
    page_size:
        B — fixes, with the entry width, the modelled page geometry.
    """

    def __init__(self, curve: HilbertCurve, num_references: int,
                 page_size: int = DEFAULT_PAGE_SIZE) -> None:
        self.page_size = page_size
        #: Every page of the replayed traces and of the bulk load, counted.
        self.stats = IOStats()
        self.curve = curve
        self.num_references = num_references
        self.leaf_order = rdb_leaf_order(
            curve.dim, curve.order, num_references, page_size)
        self._key_codec = UIntCodec(curve.key_bytes)
        # The modelled record: Eq. (4)'s 8-byte pointer + m distances.
        width, record = curve.key_bytes, 8 + 4 * num_references
        #: Entries per leaf: Eq. (4)'s Ω, capped by the page layout.
        self.leaf_capacity = min(leaf_capacity(page_size, width, record),
                                 self.leaf_order)
        self._internal_capacity = internal_capacity(page_size, width)
        if self.leaf_capacity < 1 or self._internal_capacity < 2:
            raise ValueError(
                f"page size {page_size} is too small for {width}-byte keys")
        self.adopt(self._layout(np.empty((0, width), dtype=np.uint8),
                                np.empty((0, 1 + 4 * num_references),
                                         dtype=np.uint8)))

    # -- construction ------------------------------------------------------

    def bulk_build(self, keys: np.ndarray, object_ids: np.ndarray,
                   reference_distances: np.ndarray) -> None:
        """Bulk-load from parallel arrays (Algo. 1 lines 8–10).

        ``keys`` are Hilbert keys — either Python ints or, from
        :meth:`HilbertCurve.encode_batch_bytes`, an already-encoded
        ``(n, key_bytes)`` uint8 matrix (no per-key ``int.to_bytes``).
        ``object_ids`` are the pointers into the descriptor heap,
        ``reference_distances`` the (n, m) matrix restricted to these
        objects.  Entries are sorted by key here (stably: equal keys keep
        their input order); every page of the resulting geometry counts
        as written once, sequentially.
        """
        if len(self):
            raise RuntimeError("bulk_build requires an empty tree")
        self.merge(keys, object_ids, reference_distances)

    def merge(self, keys: np.ndarray, object_ids: np.ndarray,
              reference_distances: np.ndarray) -> None:
        """Merge rows into the tree (Sec. 3.6 updates, a fold at a time).

        Arguments as for :meth:`bulk_build`.  A new entry lands after
        every entry with an equal key — new ones in input order, where
        one-by-one B+-tree inserts would put them — and the geometry is
        laid out afresh with full leaves, so merging into a built tree
        gives exactly the tree built from all the rows at once.  The
        result is a new layout over new arrays: the old one is never
        written to, so a reader holding it stays consistent.  Records
        store ids at the narrowest width holding the largest one; when
        that width changes (ids cross 2^8, 2^16 or 2^32, or a legacy
        8-byte layout is folded), the existing records are re-encoded.
        """
        width = self._key_codec.width
        if not (isinstance(keys, np.ndarray) and keys.dtype == np.uint8
                and keys.ndim == 2):
            # Integer keys go through the codec, so there is one sort.
            encode = self._key_codec.encode
            keys = np.frombuffer(b"".join([encode(int(key)) for key in keys]),
                                 dtype=np.uint8).reshape(-1, width)
        elif keys.shape[1] != width:
            raise ValueError(
                f"raw keys must be {width} bytes wide, got {keys.shape[1]}")
        object_ids = np.asarray(object_ids, dtype=np.int64)
        reference_distances = np.asarray(reference_distances,
                                         dtype=np.float32)
        n, m = keys.shape[0], self.num_references
        if object_ids.shape != (n,) or reference_distances.shape != (n, m):
            raise ValueError(
                f"{n} keys need ids of shape ({n},) and reference distances "
                f"of shape ({n}, {m}); got {object_ids.shape} and "
                f"{reference_distances.shape}")
        # Eq. 6 as a product turns inf or NaN times a zero weight into NaN.
        require_finite(reference_distances, "reference distances")
        if n and object_ids.min() < 0:
            raise ValueError("object ids must be non-negative")
        old_ids, old_refs = self._records()
        largest = max(object_ids.max(initial=0), old_ids.max(initial=0))
        dtype = self._record_type(np.min_scalar_type(largest).itemsize)
        order = self._key_order(keys)
        keys = keys[order]
        values = self._encode(dtype, object_ids[order],
                              reference_distances[order])
        packed = self.packed
        if len(self):
            at = packed.key_S.searchsorted(keys.view(f"S{width}").ravel(),
                                           side="right")
            old = packed.values_raw
            if dtype != self._record_dtype:
                old = self._encode(dtype, old_ids, old_refs)
            keys = np.insert(packed.keys_raw, at, keys, axis=0)
            values = np.insert(old, at, values, axis=0)
        # Into an empty tree the sorted copies above are the columns.
        self.adopt(self._layout(keys, values))
        self.stats.record_write_run(0, self.packed.num_pages)

    @staticmethod
    def _key_order(keys: np.ndarray) -> np.ndarray:
        """The stable argsort of big-endian ``(n, width)`` key rows as
        byte strings (bytewise order == numeric order): an argsort of
        each key's leading big-endian 64-bit word, then one stable
        byte-string sort of just the rows whose word ties, taken in
        input order — by (full key, input position), as a stable sort
        of every row places them."""
        n, width = keys.shape
        lead = np.zeros((n, 8), dtype=np.uint8)
        lead[:, :min(width, 8)] = keys[:, :8]
        words = lead.view(">u8").ravel().astype(np.uint64)
        order = np.argsort(words)
        same = np.diff(words[order]) == 0
        tied = np.append(same, False) | np.append(False, same)
        if tied.any():
            rows = np.sort(order[tied])
            order[tied] = rows[np.argsort(
                np.ascontiguousarray(keys[rows]).view(f"S{width}").ravel(),
                kind="stable")]
        return order

    def _record_type(self, id_width: int) -> np.dtype:
        """One leaf record: descriptor pointer + m reference distances."""
        return np.dtype([("id", f">u{id_width}"),
                         ("ref", ">f4", (self.num_references,))])

    @staticmethod
    def _encode(dtype: np.dtype, object_ids: np.ndarray,
                reference_distances: np.ndarray) -> np.ndarray:
        """Records of ``dtype`` as the ``(n, itemsize)`` value column."""
        records = np.empty(object_ids.size, dtype=dtype)
        records["id"] = object_ids
        records["ref"] = reference_distances
        return records.view(np.uint8).reshape(-1, dtype.itemsize)

    def _layout(self, keys_raw: np.ndarray,
                values_raw: np.ndarray) -> PackedTree:
        return PackedTree.from_sorted(
            self._key_codec, keys_raw, values_raw, self.leaf_capacity,
            self._internal_capacity)

    def adopt(self, packed: PackedTree) -> None:
        """Make ``packed`` the tree."""
        self.packed = packed
        #: The layout's leaf record: its id width is the value width's
        #: remainder after the m distances.
        self._record_dtype = self._record_type(
            packed.value_width - 4 * self.num_references)
        # (layout, ids int64, ref-distance view), decoded on first use;
        # (layout, id -> position column), on the first subset lookup.
        self._records_cache: tuple | None = None
        self._positions_cache: tuple | None = None

    # -- persistence -------------------------------------------------------

    def state(self) -> dict:
        """Serializable state: curve geometry + tree structure (the
        ``tree_<i>.packed`` file holds everything else)."""
        packed = self.packed
        top = (packed.level_pages or [packed.leaf_pages])[0]
        return {
            "dim": self.curve.dim,
            "order": self.curve.order,
            "num_references": self.num_references,
            "tree": {"root": int(top[0]) if top.size else NO_PAGE,
                     "height": packed.height, "count": packed.count,
                     "leaf_capacity": self.leaf_capacity},
        }

    @classmethod
    def from_state(cls, state: dict,
                   page_size: int = DEFAULT_PAGE_SIZE) -> "RDBTree":
        """An empty tree of the saved shape; :meth:`read` fills it."""
        curve = HilbertCurve(int(state["dim"]), int(state["order"]))
        return cls(curve, int(state["num_references"]), page_size=page_size)

    def write(self, path: str | os.PathLike[str]) -> None:
        """Write the key and record columns as one ``.packed`` file
        (atomically: readers that mapped an older one keep it); the
        geometry follows from them and is not stored."""
        packed = self.packed
        replace_file(path, pack_arrays({"keys": packed.keys_raw,
                                        "values": packed.values_raw}))

    def read(self, path: str | os.PathLike[str], mapped: bool) -> None:
        """Become the tree a :meth:`write` stored (over zero-copy views of
        the file when ``mapped``, :func:`read_file`), its geometry laid
        out again.  A file that also stores geometry and 8-byte ids (the
        format before narrow ids) opens the same way.  Raises
        :class:`ValueError` on columns that make no tree of this shape."""
        arrays = unpack_arrays(read_file(path, mapped))
        keys, values = arrays["keys"], arrays["values"]
        m = self.num_references
        if keys.dtype != np.uint8 or values.dtype != np.uint8 \
                or values.ndim != 2 \
                or keys.shape != (len(values), self._key_codec.width) \
                or values.shape[1] - 4 * m not in (1, 2, 4, 8):
            raise ValueError(
                f"keys {keys.shape} and records {values.shape} are no "
                f"tree of {self._key_codec.width}-byte keys and {m} "
                f"reference distances")
        self.adopt(self._layout(keys, values))

    # -- querying -----------------------------------------------------------

    def candidates(self, query_key, alpha: int,
                   subset: np.ndarray | None = None,
                   out: tuple[np.ndarray, np.ndarray] | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
        """α nearest entries by Hilbert key (Algo. 2 line 4) — among the
        entries at the positions ``subset`` (:meth:`positions_of`), if given.

        ``query_key`` is a Hilbert key as a Python int or as its
        ``key_bytes``-wide big-endian encoding (the batched encoder's
        native output).  Returns (object_ids, reference_distances) with
        shapes (α',) and (α', m), α' ≤ α on a small tree or ``subset``:
        float64 from the stored ``>f4`` in one pass, reference-major (the
        transpose is C-contiguous, what Eq. 5/6 reduce over); in key
        order, one slice of the value column or, under a ``subset``, one
        take of the window's whole records.
        ``out``, the engine's slices of a row block, is filled instead; a
        window of another length raises :class:`CandidateWindowError`.
        """
        if isinstance(query_key, (bytes, bytearray, np.bytes_)):
            raw_key = bytes(query_key)
        else:
            raw_key = self._key_codec.encode(int(query_key))
        window = self.packed.nearest_positions(raw_key, alpha, self.stats,
                                               subset)
        ids, ref = out or (np.empty(window.size, dtype=np.int64),
                           np.empty((self.num_references, window.size)).T)
        if ids.shape[0] != window.size:
            raise CandidateWindowError(
                f"{window.size} candidates for a block of {ids.shape[0]}")
        if subset is not None:
            # The window's whole leaf records, one row each, in one take.
            records = np.take(self.packed.values_raw, window, axis=0
                              ).reshape(-1).view(self._record_dtype)
            ids[...] = records["id"]
            ref[...] = records["ref"]
            return ids, ref
        if window.size:
            start = int(window[0])
            window = slice(start, start + window.size)
        object_ids, reference_view = self._records()
        ids[...] = object_ids[window]
        ref[...] = reference_view[window]
        return ids, ref

    def positions_of(self, object_ids: np.ndarray) -> np.ndarray:
        """Key-ordered entry positions of the given objects, ascending (a
        ``subset``), through an id -> position column derived on first
        use and dropped with the layout: one gather and one sort.  Needs
        the ids an index gives its trees: each of ``0..len(self)-1``
        once.  The index keeps the result per predicate and layout
        (:class:`~repro.core.hdindex.EligibleSet`), so a predicate pays
        this once per tree, not once per call."""
        packed = self.packed
        cached = self._positions_cache
        if cached is None or cached[0] is not packed:
            ids = self._records()[0]
            # The narrowest unsigned type: half the bytes, twice the sort.
            column = np.empty(ids.size, dtype=np.min_scalar_type(ids.size))
            column[ids] = np.arange(ids.size)
            cached = self._positions_cache = (packed, column)
        return np.sort(cached[1][object_ids]).astype(np.int64)

    def _records(self) -> tuple[np.ndarray, np.ndarray]:
        """(int64 ids, ``>f4`` reference-distance view), cached per layout."""
        packed = self.packed
        cached = self._records_cache
        if cached is None or cached[0] is not packed:
            records = packed.values_raw.reshape(-1).view(self._record_dtype)
            cached = self._records_cache = (
                packed, records["id"].astype(np.int64), records["ref"])
        return cached[1], cached[2]

    # -- accounting -------------------------------------------------------

    def __len__(self) -> int:
        return self.packed.count

    def memory_bytes(self) -> int:
        """The decoded id column and the id -> position column, each
        while cached."""
        held = (self._records_cache, self._positions_cache)
        return sum(cached[1].nbytes for cached in held if cached is not None)

    @property
    def height(self) -> int:
        return self.packed.height

    def size_bytes(self) -> int:
        """Footprint of the modelled tree, pages × page size — the
        accounting of the paper's Table 5."""
        return self.packed.num_pages * self.page_size
