"""Hilbert space-filling curve for arbitrary dimension and order.

The paper maps each η-dimensional sub-vector to a one-dimensional *Hilbert
key* using the Butz algorithm [19] (Sec. 3.1).  We implement the standard
Butz/Lawder iteration in John Skilling's compact formulation ("Programming
the Hilbert curve", AIP Conf. Proc. 707, 2004), which computes the same curve
with O(η·ω) bit operations per point.

Keys occupy η·ω bits (e.g. 128 bits for SIFT's η=16, ω=8 configuration), so
they are Python integers.  The batch encoder runs the same (ω−1)·η sequential
steps once for all points: each axis of the batch is packed, one fixed-width
lane per point, into one container, so a step is a few bit operations over
all points — O(η·ω) bit operations per point.  A query's few lanes sit in a
single Python integer (no per-step array dispatch); a build's row block sits
in an array of uint64 words (:data:`WORD_LANE_BYTES`).
"""

from __future__ import annotations

import numpy as np

from repro.hilbert.quantize import lane_dtype

#: Maximum curve order: coordinates must fit in uint64 during the transform.
MAX_ORDER = 62
#: The place of each of a byte's eight bits, most significant first.
_BIT_WEIGHTS = np.arange(7, -1, -1, dtype=np.uint8)[:, None]
#: Lane bytes per axis from which the batch transform holds its lanes in
#: uint64 words, not one Python integer: at η = 16 on a 2-core x86 host
#: the two cost the same near 8 KiB (1.8 ms), the integer 0.08 against
#: 1.3 ms at 8 lanes and 15 against 5 ms at 64 KiB.  A query's τ·Q lanes
#: stay far below it, a build block's τ·STREAM_CHUNK_ROWS far above.
WORD_LANE_BYTES = 8192


class HilbertCurve:
    """Hilbert curve over a ``dim``-dimensional grid of side ``2**order``.

    Parameters
    ----------
    dim:
        Dimensionality η of the sub-space the curve fills.
    order:
        Curve order ω: each dimension is split into ``2**order`` grid cells.
    """

    def __init__(self, dim: int, order: int) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
        self.dim = dim
        self.order = order
        self.key_bits = dim * order
        #: Number of bytes needed to store one key (RDB-tree layout input).
        self.key_bytes = -(-self.key_bits // 8)
        self._coord_max = (1 << order) - 1
        #: Narrowest unsigned dtype holding one coordinate: the lane of
        #: the packed batch transform (and of ``GridQuantizer.quantize``).
        self._lane = lane_dtype(order)
        self._plane_shifts = np.arange(order - 1, -1, -1, dtype=self._lane)

    # -- scalar interface ------------------------------------------------

    def encode(self, coords) -> int:
        """Map integer grid coordinates to the Hilbert key."""
        transposed = self._axes_to_transpose(list(map(int, coords)))
        return self._transpose_to_key(transposed)

    def decode(self, key: int) -> list[int]:
        """Map a Hilbert key back to integer grid coordinates."""
        if not 0 <= key < (1 << self.key_bits):
            raise ValueError(
                f"key {key} out of range for {self.key_bits}-bit curve"
            )
        transposed = self._key_to_transpose(int(key))
        return self._transpose_to_axes(transposed)

    # -- batch interface ---------------------------------------------------

    def encode_batch(self, coords: np.ndarray) -> np.ndarray:
        """Encode an (n, dim) integer array to an object array of keys:
        the rows of :meth:`encode_batch_bytes` as Python integers."""
        return np.array([int.from_bytes(row.tobytes(), "big")
                         for row in self.encode_batch_bytes(coords)],
                        dtype=object)

    def encode_batch_bytes(self, coords: np.ndarray) -> np.ndarray:
        """Encode an (n, dim) integer array straight to big-endian key bytes.

        Returns an ``(n, key_bytes)`` uint8 array whose rows equal
        ``curve.encode(row).to_bytes(key_bytes, "big")``.  This is the
        hot-path form: no object-dtype Python integers are materialised,
        the bit interleave is a few passes over uint8 bit planes, and the
        rows feed the packed-tree searches (:mod:`repro.btree.packed`)
        without a codec round-trip.
        """
        return self._pack_key_bytes(self._transposed(coords))

    def _transposed(self, coords: np.ndarray) -> np.ndarray:
        """Validate ``(n, dim)`` coordinates and run the Skilling
        transform: the ``(dim, n)`` lane block :meth:`_pack_key_bytes`
        interleaves."""
        coords = np.asarray(coords)
        if coords.ndim != 2 or coords.shape[1] != self.dim:
            raise ValueError(
                f"expected shape (n, {self.dim}), got {coords.shape}"
            )
        if coords.size and (coords.min() < 0
                            or coords.max() > self._coord_max):
            raise ValueError(
                f"coordinates must lie in [0, {self._coord_max}]"
            )
        x = np.array(coords.T, dtype=self._lane, order="C")
        self._axes_to_transpose_batch(x)
        return x

    def decode_batch(self, keys: np.ndarray) -> np.ndarray:
        """Decode an object array of keys to an (n, dim) uint64 array, key
        by key through :meth:`decode` (no build or query path decodes)."""
        keys = np.asarray(keys, dtype=object).ravel()
        return np.array([self.decode(int(key)) for key in keys],
                        dtype=np.uint64).reshape(keys.shape[0], self.dim)

    # -- scalar Skilling transform ---------------------------------------

    def _axes_to_transpose(self, x: list[int]) -> list[int]:
        n, order = self.dim, self.order
        for value in x:
            if not 0 <= value <= self._coord_max:
                raise ValueError(
                    f"coordinate {value} out of range [0, {self._coord_max}]"
                )
        if n == 1:
            return list(x)
        m = 1 << (order - 1)
        # Inverse undo of the excess work (coarsest bit first).
        q = m
        while q > 1:
            p = q - 1
            for i in range(n):
                if x[i] & q:
                    x[0] ^= p
                else:
                    t = (x[0] ^ x[i]) & p
                    x[0] ^= t
                    x[i] ^= t
            q >>= 1
        # Gray encode.
        for i in range(1, n):
            x[i] ^= x[i - 1]
        t = 0
        q = m
        while q > 1:
            if x[n - 1] & q:
                t ^= q - 1
            q >>= 1
        for i in range(n):
            x[i] ^= t
        return x

    def _transpose_to_axes(self, x: list[int]) -> list[int]:
        n, order = self.dim, self.order
        if n == 1:
            return list(x)
        top = 2 << (order - 1)
        # Gray decode.
        t = x[n - 1] >> 1
        for i in range(n - 1, 0, -1):
            x[i] ^= x[i - 1]
        x[0] ^= t
        # Undo excess work (finest bit first).
        q = 2
        while q != top:
            p = q - 1
            for i in range(n - 1, -1, -1):
                if x[i] & q:
                    x[0] ^= p
                else:
                    t = (x[0] ^ x[i]) & p
                    x[0] ^= t
                    x[i] ^= t
            q <<= 1
        return x

    # -- batch Skilling transform -------------------------------------------

    def _axes_to_transpose_batch(self, x: np.ndarray) -> None:
        """In-place Skilling transform of an ``(dim, count)`` unsigned block.

        Lane-packed: each axis row becomes one container of ``count``
        lanes of ``self._lane`` bytes — one Python integer, or from
        :data:`WORD_LANE_BYTES` per axis on a row of uint64 words — so
        each of the ``(order - 1) * dim`` sequential steps (a build-time
        constant) is a handful of bit operations over all points at once.
        ``ones`` has bit 0 of every lane set; ``((x_i >> level) & ones) *
        p`` is ``p`` in the lanes whose ``level`` bit is set and 0
        elsewhere, and ``p`` never exceeds the lane, so no product or shift
        leaks into a neighbour (lanes never straddle a word).  The steps
        are those of :meth:`_axes_to_transpose`, the oracle.
        """
        n, order = self.dim, self.order
        if n == 1:
            return
        count = x.shape[1]
        lane = self._lane
        if count * lane.itemsize < WORD_LANE_BYTES:
            ones = int.from_bytes(np.ones(count, dtype=lane).tobytes(),
                                  "little")
            rows = x.astype(lane, copy=False)
            axes = [int.from_bytes(rows[i].tobytes(), "little")
                    for i in range(n)]
        else:
            per_word = 8 // lane.itemsize
            lanes = np.zeros((n, -(-count // per_word) * per_word),
                             dtype=lane)
            lanes[:, :count] = x
            words = lanes.view("<u8")
            ones = np.uint64(int.from_bytes(
                np.ones(per_word, dtype=lane).tobytes(), "little"))
            axes = list(words)
        word = type(ones)
        for level in range(order - 1, 0, -1):
            p = word((1 << level) - 1)
            low = p * ones
            for i in range(n):
                hi = ((axes[i] >> level) & ones) * p
                axes[0] ^= hi
                t = (axes[0] ^ axes[i]) & (low ^ hi)
                axes[0] ^= t
                axes[i] ^= t
        for i in range(1, n):
            axes[i] ^= axes[i - 1]
        t = 0
        for level in range(order - 1, 0, -1):
            t ^= ((axes[n - 1] >> level) & ones) * word((1 << level) - 1)
        if word is int:
            width = count * lane.itemsize
            x[:] = np.frombuffer(
                b"".join((axis ^ t).to_bytes(width, "little")
                         for axis in axes),
                dtype=lane).reshape(n, count)
        else:
            words ^= t
            x[:] = lanes[:, :count]

    # -- key packing -------------------------------------------------------

    def _transpose_to_key(self, x: list[int]) -> int:
        key = 0
        for q in range(self.order - 1, -1, -1):
            for i in range(self.dim):
                key = (key << 1) | ((x[i] >> q) & 1)
        return key

    def _key_to_transpose(self, key: int) -> list[int]:
        x = [0] * self.dim
        bit = self.key_bits - 1
        for q in range(self.order - 1, -1, -1):
            for i in range(self.dim):
                x[i] |= ((key >> bit) & 1) << q
                bit -= 1
        return x

    def _pack_key_bytes(self, x: np.ndarray) -> np.ndarray:
        """Interleave transposed bit-planes into ``(n, key_bytes)`` rows.

        Bit b of the key (from the MSB) is bit ``order - 1 - b // dim`` of
        dimension ``b % dim`` — the same interleave as
        :meth:`_transpose_to_key`.  Each key bit is one contiguous uint8
        plane over all points, behind ``pad`` zero planes so keys narrower
        than a whole number of bytes gain *leading* zero bits (matching
        ``int.to_bytes(..., "big")``); a key byte is the OR of eight
        weighted planes, and one transpose makes the byte rows key rows.
        """
        count = x.shape[1]
        pad = 8 * self.key_bytes - self.key_bits
        bits = np.empty((8 * self.key_bytes, count), dtype=np.uint8)
        bits[:pad] = 0
        planes = bits[pad:].reshape(self.order, self.dim, count)
        np.right_shift(x[None], self._plane_shifts[:, None, None], out=planes)
        planes &= 1
        octets = bits.reshape(self.key_bytes, 8, count)
        octets <<= _BIT_WEIGHTS
        return np.ascontiguousarray(np.bitwise_or.reduce(octets, axis=1).T)


def encode_for_curves(curves, coords_list) -> list[np.ndarray]:
    """Encode per-curve coordinate batches with one transform per geometry.

    ``curves[i]`` and ``coords_list[i]`` describe one RDB-tree's sub-space:
    an (n_i, dim_i) integer array to encode under that tree's curve.  Curves
    sharing a ``(dim, order)`` geometry — in HD-Index, *all* trees except
    possibly a remainder partition — are concatenated and run through a
    single batched Skilling transform, so one query against tau trees runs
    the transform's (order - 1) * dim sequential steps once instead of tau
    times.

    Returns one ``(n_i, key_bytes)`` uint8 array per curve (the
    :meth:`HilbertCurve.encode_batch_bytes` form).
    """
    if len(curves) != len(coords_list):
        raise ValueError("curves and coords_list must align")
    groups: dict[tuple[int, int], list[int]] = {}
    for index, curve in enumerate(curves):
        groups.setdefault((curve.dim, curve.order), []).append(index)
    out: list[np.ndarray | None] = [None] * len(curves)
    for members in groups.values():
        curve = curves[members[0]]
        # Grouping distinct curve geometries is the point of this
        # function; the loop runs once per (dim, order) group — at most
        # tau iterations — and this concatenate is what buys the single
        # batched kernel invocation below.
        stacked = np.concatenate(  # lint: disable=HK105
            [np.asarray(coords_list[i]) for i in members], axis=0)
        x = curve._transposed(stacked)
        # A call's few lanes pack at once; a build's block (past the word
        # switch) one curve's rows at a time, keeping the bit planes small.
        whole = (curve._pack_key_bytes(x)
                 if x.shape[1] * x.itemsize < WORD_LANE_BYTES else None)
        offset = 0
        for i in members:
            rows = np.asarray(coords_list[i]).shape[0]
            out[i] = (curve._pack_key_bytes(x[:, offset:offset + rows])
                      if whole is None else whole[offset:offset + rows])
            offset += rows
    return out
