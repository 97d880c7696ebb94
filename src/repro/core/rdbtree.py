"""RDB-tree: the Reference Distance B+-tree of paper Sec. 3.2.

An RDB-tree is a B+-tree keyed by Hilbert keys whose *leaves* are modified to
store, per object: the Hilbert key, an 8-byte pointer to the complete
descriptor, and the distances to the m reference objects as float32.  This
is the paper's core structural novelty — candidates can be filtered with the
Eq. (5)/(6) lower bounds using only the leaf bytes already in memory, and
only the final κ survivors cost a random descriptor fetch.

The leaf order Ω follows Eq. (4) exactly (see
:func:`repro.core.params.rdb_leaf_order`).

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
from repro.storage.pages import DEFAULT_PAGE_SIZE, replace_file
from repro.storage.stats import ModelledPool


class RDBTree(ModelledPool):
    """One RDB-tree covering one dimension partition.

    Parameters
    ----------
    curve:
        The partition's Hilbert curve (fixes key width η·ω bits).
    num_references:
        m — reference distances stored per leaf entry.
    cache_pages:
        Capacity of the modelled buffer pool
        (:class:`~repro.storage.stats.ModelledPool`), fed the replayed
        trace (0 = caching off, the paper's methodology).
    page_size:
        B — fixes, with the entry width, the modelled page geometry.
    """

    def __init__(self, curve: HilbertCurve, num_references: int,
                 cache_pages: int = 0,
                 page_size: int = DEFAULT_PAGE_SIZE) -> None:
        super().__init__(cache_pages, page_size)
        self.curve = curve
        self.num_references = num_references
        self.leaf_order = rdb_leaf_order(
            curve.dim, curve.order, num_references, page_size)
        self._key_codec = UIntCodec(curve.key_bytes)
        #: One leaf record: descriptor pointer + m reference distances.
        self._record_dtype = np.dtype(
            [("id", ">u8"), ("ref", ">f4", (num_references,))])
        width, record = curve.key_bytes, self._record_dtype.itemsize
        #: Entries per leaf: Eq. (4)'s Ω, capped by the page layout.
        self.leaf_capacity = min(leaf_capacity(page_size, width, record),
                                 self.leaf_order)
        self._internal_capacity = internal_capacity(page_size, width)
        if self.leaf_capacity < 1 or self._internal_capacity < 2:
            raise ValueError(
                f"page size {page_size} is too small for {width}-byte keys")
        self.adopt(self._layout(np.empty((0, width), dtype=np.uint8),
                                np.empty((0, record), dtype=np.uint8)))

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
        written to, so a reader holding it stays consistent.
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
        # Big-endian fixed-width keys: bytewise order == numeric order.
        order = np.argsort(
            np.ascontiguousarray(keys).view(f"S{width}").ravel(),
            kind="stable")
        keys = keys[order]
        records = np.empty(n, dtype=self._record_dtype)
        records["id"] = object_ids[order]
        records["ref"] = reference_distances[order]
        packed = self.packed
        at = packed.key_S.searchsorted(keys.view(f"S{width}").ravel(),
                                       side="right")
        self.adopt(self._layout(
            np.insert(packed.keys_raw, at, keys, axis=0),
            np.insert(packed.values_raw, at, records.view(np.uint8).reshape(
                n, records.itemsize), axis=0)))
        self.stats.record_write_run(0, self.packed.num_pages)

    def _layout(self, keys_raw: np.ndarray,
                values_raw: np.ndarray) -> PackedTree:
        return PackedTree.from_sorted(
            self._key_codec, keys_raw, values_raw, self.leaf_capacity,
            self._internal_capacity)

    def adopt(self, packed: PackedTree) -> None:
        """Make ``packed`` the tree.  Page ids now name other contents,
        so the modelled buffer pool starts cold."""
        self.packed = packed
        # (layout, ids int64, ref-distance view), decoded on first use;
        # (layout, id -> position column), on the first subset lookup.
        self._records_cache: tuple | None = None
        self._positions_cache: tuple | None = None
        self.clear_cache()

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
    def from_state(cls, state: dict, cache_pages: int = 0,
                   page_size: int = DEFAULT_PAGE_SIZE) -> "RDBTree":
        """An empty tree of the saved shape; :meth:`read` fills it."""
        curve = HilbertCurve(int(state["dim"]), int(state["order"]))
        return cls(curve, int(state["num_references"]),
                   cache_pages=cache_pages, page_size=page_size)

    def write(self, path: str | os.PathLike[str]) -> None:
        """Write the columns and geometry as one ``.packed`` file
        (atomically: readers that mapped an older one keep it)."""
        replace_file(path, pack_arrays(self.packed.to_arrays()))

    def read(self, path: str | os.PathLike[str], mapped: bool) -> None:
        """Become the tree a :meth:`write` stored — over zero-copy views
        of a read-only mapping when ``mapped`` (worker processes opening
        one snapshot then share its physical pages), else read into RAM."""
        if mapped:
            buffer = np.memmap(path, dtype=np.uint8, mode="r")
        else:
            buffer = np.fromfile(path, dtype=np.uint8)
        self.adopt(PackedTree.from_arrays(self._key_codec,
                                          unpack_arrays(buffer)))

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
        transpose is C-contiguous, what Eq. 5/6 reduce over); one run of
        the value column in key order, or under a ``subset`` nearest first.
        ``out``, the engine's slices of a row block, is filled instead; a
        window of another length raises :class:`CandidateWindowError`.
        """
        if isinstance(query_key, (bytes, bytearray, np.bytes_)):
            raw_key = bytes(query_key)
        else:
            raw_key = self._key_codec.encode(int(query_key))
        window = self.packed.nearest_positions(raw_key, alpha, self, subset)
        ids, ref = out or (np.empty(window.size, dtype=np.int64),
                           np.empty((self.num_references, window.size)).T)
        if ids.shape[0] != window.size:
            raise CandidateWindowError(
                f"{window.size} candidates for a block of {ids.shape[0]}")
        if subset is None and window.size:
            start = int(window.min())
            window = slice(start, start + window.size)
        object_ids, reference_view = self._records()
        ids[...] = object_ids[window]
        ref[...] = reference_view[window]
        return ids, ref

    def positions_of(self, object_ids: np.ndarray) -> np.ndarray:
        """Key-ordered entry positions of the given objects, ascending (a
        ``subset``), through an id -> position column derived on first
        use and dropped with the layout.  Needs the ids an index gives
        its trees: each of ``0..len(self)-1`` once."""
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

    @property
    def height(self) -> int:
        return self.packed.height

    def size_bytes(self) -> int:
        """Footprint of the modelled tree, pages × page size — the
        accounting of the paper's Table 5."""
        return self.packed.num_pages * self.page_size
