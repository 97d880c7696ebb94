"""Hilbert space-filling curve for arbitrary dimension and order.

The paper maps each η-dimensional sub-vector to a one-dimensional *Hilbert
key* using the Butz algorithm [19] (Sec. 3.1).  We implement the standard
Butz/Lawder iteration in John Skilling's compact formulation ("Programming
the Hilbert curve", AIP Conf. Proc. 707, 2004), which computes the same curve
with O(η·ω) bit operations per point.

Keys occupy η·ω bits (e.g. 128 bits for SIFT's η=16, ω=8 configuration), so
they are Python integers.  The batch encoder runs the same (ω−1)·η sequential
steps once for all points: each axis of the batch is packed, one fixed-width
lane per point, into a single Python integer, so a step is a few big-integer
bit operations — O(η·ω) bit operations per point and no per-step array
dispatch, at one query key as at the 800k keys of a build.
"""

from __future__ import annotations

import numpy as np

#: Maximum curve order: coordinates must fit in uint64 during the transform.
MAX_ORDER = 62


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
        self._side = 1 << order
        self._coord_max = self._side - 1
        #: Narrowest unsigned dtype holding one coordinate: the lane of
        #: the packed batch transform.
        lane_bytes = next(b for b in (1, 2, 4, 8) if order <= 8 * b)
        self._lane = np.dtype(f"<u{lane_bytes}")

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
        the bit interleave is one shift/mask per order level plus a single
        ``np.packbits``, and the rows feed the packed-tree searches
        (:mod:`repro.btree.packed`) without a codec round-trip.
        """
        coords = np.asarray(coords)
        if coords.ndim != 2 or coords.shape[1] != self.dim:
            raise ValueError(
                f"expected shape (n, {self.dim}), got {coords.shape}"
            )
        if coords.size == 0:
            return np.empty((0, self.key_bytes), dtype=np.uint8)
        if coords.min() < 0 or coords.max() > self._coord_max:
            raise ValueError(
                f"coordinates must lie in [0, {self._coord_max}]"
            )
        x = np.array(coords.T, dtype=np.uint64, order="C")
        self._axes_to_transpose_batch(x)
        return self._pack_key_bytes(x)

    def decode_batch(self, keys: np.ndarray) -> np.ndarray:
        """Decode an object array of keys to an (n, dim) uint64 array."""
        keys = np.asarray(keys, dtype=object)
        if keys.size == 0:
            return np.empty((0, self.dim), dtype=np.uint64)
        x = self._unpack_keys(keys)
        self._transpose_to_axes_batch(x)
        return np.ascontiguousarray(x.T)

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
        """In-place Skilling transform of an ``(dim, count)`` uint64 block.

        Lane-packed: each axis row becomes one Python integer holding
        ``count`` lanes of ``self._lane`` bytes, so each of the
        ``(order - 1) * dim`` sequential steps (a build-time constant) is
        a handful of big-integer bit operations over all points at once.
        ``ones`` has bit 0 of every lane set; ``((x_i >> level) & ones) *
        p`` is ``p`` in the lanes whose ``level`` bit is set and 0
        elsewhere, and ``p`` never exceeds the lane, so no product or shift
        leaks into a neighbour.  The steps are those of
        :meth:`_axes_to_transpose`, the oracle.
        """
        n, order = self.dim, self.order
        if n == 1:
            return
        count = x.shape[1]
        ones = int.from_bytes(
            np.ones(count, dtype=self._lane).tobytes(), "little")
        rows = x.astype(self._lane)
        axes = [int.from_bytes(rows[i].tobytes(), "little")
                for i in range(n)]
        for level in range(order - 1, 0, -1):
            p = (1 << level) - 1
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
            t ^= ((axes[n - 1] >> level) & ones) * ((1 << level) - 1)
        width = count * self._lane.itemsize
        x[:] = np.frombuffer(
            b"".join((axis ^ t).to_bytes(width, "little") for axis in axes),
            dtype=self._lane).reshape(n, count)

    def _transpose_to_axes_batch(self, x: np.ndarray) -> None:
        n, order = self.dim, self.order
        if n == 1:
            return
        one = np.uint64(1)
        top = np.uint64(2 << (order - 1))
        t = x[n - 1] >> one
        for i in range(n - 1, 0, -1):
            x[i] ^= x[i - 1]
        x[0] ^= t
        q = np.uint64(2)
        while q != top:
            p = np.uint64(q - one)
            for i in range(n - 1, -1, -1):
                hi = (x[i] & q) != 0
                x[0] ^= np.where(hi, p, np.uint64(0))
                t = np.where(hi, np.uint64(0), (x[0] ^ x[i]) & p)
                x[0] ^= t
                x[i] ^= t
            q <<= one

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
        :meth:`_transpose_to_key`, built as one boolean matrix and packed
        with ``np.packbits``.  Keys narrower than a whole number of bytes
        gain *leading* zero bits, matching ``int.to_bytes(..., "big")``.
        """
        n, order = self.dim, self.order
        count = x.shape[1]
        planes = np.empty((order, n, count), dtype=np.uint8)
        for level, q in enumerate(range(order - 1, -1, -1)):
            planes[level] = (x >> np.uint64(q)) & np.uint64(1)
        bits = planes.reshape(self.key_bits, count).T
        pad = 8 * self.key_bytes - self.key_bits
        if pad:
            bits = np.concatenate(
                [np.zeros((count, pad), dtype=np.uint8), bits], axis=1)
        return np.packbits(bits, axis=1)

    def _unpack_keys(self, keys: np.ndarray) -> np.ndarray:
        n, order = self.dim, self.order
        count = keys.shape[0]
        x = np.zeros((n, count), dtype=np.uint64)
        group_mask = (1 << n) - 1
        remaining = keys.copy()
        for q in range(order):
            # Per-level groups carry n bits: Python ints, masked per dim.
            groups = [int(remaining[j]) & group_mask for j in range(count)]
            for j in range(count):
                remaining[j] = int(remaining[j]) >> n
            for i in range(n - 1, -1, -1):
                for j in range(count):
                    if groups[j] & 1:
                        x[i, j] |= np.uint64(1 << q)
                    groups[j] >>= 1
        return x


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
        if len(members) == 1:
            out[members[0]] = curve.encode_batch_bytes(coords_list[members[0]])
            continue
        # Grouping distinct curve geometries is the point of this
        # function; the loop runs once per (dim, order) group — at most
        # tau iterations — and this concatenate is what buys the single
        # batched kernel invocation below.
        stacked = np.concatenate(  # lint: disable=HK105
            [np.asarray(coords_list[i]) for i in members], axis=0)
        raw = curve.encode_batch_bytes(stacked)
        offset = 0
        for i in members:
            rows = np.asarray(coords_list[i]).shape[0]
            out[i] = raw[offset:offset + rows]
            offset += rows
    return out
