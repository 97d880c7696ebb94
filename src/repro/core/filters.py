"""Lower-bounding distance filters (paper Sec. 4.2).

Both filters approximate ``d(q, o)`` from below using only the reference
distances stored in RDB-tree leaves — no disk access, no full ν-dimensional
computation:

* **Triangular** (Eq. 5): ``max_i |d(q, R_i) - d(o, R_i)|``.
* **Ptolemaic** (Eq. 6):
  ``max_{i<j} |d(q,R_i)·d(o,R_j) - d(q,R_j)·d(o,R_i)| / d(R_i, R_j)`` —
  costlier (O(m²) per candidate) but tighter; valid for Euclidean spaces
  [30].

There is one implementation per bound, for one query row against the
candidates of every tree it asks — τ·α (Eq. 5) or τ·β (Eq. 6) columns
of one row block.  Both reduce over the block's (m, n) reference-major
view: free for what ``RDBTree.candidates`` fills, a strided read (never
a copy) for any other layout.  Eq. 5 is exact in every layout; Eq. 6 is
a matrix product, within a few ulp of its larger term of the formula as
written, not bit-equal to it, taken :data:`EQ6_SCRATCH_BYTES` at a time.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

#: Eq. (6)'s product slab: a tree's (45, 512) at m = 10, inside L2.
EQ6_SCRATCH_BYTES = 192 * 1024


class CandidateWindowError(ValueError):
    """Trees asked for one query row offer windows of different lengths."""


class PairTable(NamedTuple):
    """The reference pairs ``i < j`` Eq. (6) ranges over: those with
    ``d(R_i, R_j) > 0``, in upper-triangle order.  Empty when there are
    fewer than two references or all of them coincide — the cases in
    which the Ptolemaic bound falls back to the triangular one."""

    first: np.ndarray
    second: np.ndarray
    #: (pairs,) ``1 / d(R_i, R_j)``: Eq. (6)'s division, hoisted.
    reciprocals: np.ndarray
    #: m, the number of references the table was built for.
    size: int

    @property
    def nbytes(self) -> int:
        return (self.first.nbytes + self.second.nbytes
                + self.reciprocals.nbytes)


def pair_table(ref_ref: np.ndarray) -> PairTable:
    """Build the :class:`PairTable` of an (m, m) reference-to-reference
    distance matrix.  It depends on the references alone, so a
    :class:`~repro.core.reference.ReferenceSet` builds it once."""
    ref_ref = np.asarray(ref_ref, dtype=np.float64)
    if ref_ref.ndim != 2 or ref_ref.shape[0] != ref_ref.shape[1]:
        raise ValueError(f"ref_ref must be square, got {ref_ref.shape}")
    first, second = np.triu_indices(ref_ref.shape[0], k=1)
    denominators = ref_ref[first, second]
    valid = denominators > 0.0
    return PairTable(first[valid], second[valid], 1.0 / denominators[valid],
                     ref_ref.shape[0])


def _reference_major(query_ref: np.ndarray, cand_ref: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Both kernels' float64 inputs: the query's (m,) reference distances
    and the (m, n) transposed *view* of the candidates'."""
    query_ref = np.asarray(query_ref, dtype=np.float64)
    cand_ref = np.asarray(cand_ref, dtype=np.float64)
    if query_ref.ndim == 2 and query_ref.shape[0] == 1:
        query_ref = query_ref[0]
    if cand_ref.ndim != 2 or query_ref.shape != cand_ref.shape[1:]:
        raise ValueError(
            f"cand_ref shape {cand_ref.shape} incompatible with query "
            f"reference distances of shape {query_ref.shape}")
    return query_ref, cand_ref.T


def triangular_lower_bounds_many(query_ref: np.ndarray,
                                 cand_ref: np.ndarray) -> np.ndarray:
    """Best triangular lower bound per candidate (Eq. 5).

    ``query_ref`` is the query's (m,) or (1, m) distances to the reference
    objects, ``cand_ref`` the candidates' (n, m) stored ones, in any
    memory layout; it is not written to."""
    query_ref, cand_t = _reference_major(query_ref, cand_ref)
    bounds = cand_t - query_ref[:, None]
    np.abs(bounds, out=bounds)
    return bounds.max(axis=0)


def ptolemaic_lower_bounds_many(query_ref: np.ndarray, cand_ref: np.ndarray,
                                ref_ref: np.ndarray | PairTable
                                ) -> np.ndarray:
    """Best Ptolemaic lower bound per candidate (Eq. 6).

    ``query_ref`` and ``cand_ref`` are as for
    :func:`triangular_lower_bounds_many`, the stored distances finite (a
    zero weight times inf is NaN); ``ref_ref`` is the (m, m)
    reference-to-reference distances — the Eq. (6) denominator — or the
    :class:`PairTable` already built from them (``ReferenceSet.pairs``;
    what the query pipeline passes).

    Falls back to Eq. (5) when the table is empty: a single reference
    admits no pair, and coincident references no positive denominator.
    """
    query_ref, cand_t = _reference_major(query_ref, cand_ref)
    pairs = ref_ref if isinstance(ref_ref, PairTable) else pair_table(ref_ref)
    if pairs.size != cand_t.shape[0]:
        raise ValueError(
            f"ref_ref is for {pairs.size} references, cand_ref has "
            f"{cand_t.shape[0]}")
    if not pairs.first.shape[0]:
        return triangular_lower_bounds_many(query_ref, cand_ref)
    # For a fixed query, pair (i, j)'s bound is linear in the candidate:
    # |w · Do|, w_j = dq_i / d(R_i, R_j), w_i = -dq_j / d(R_i, R_j).
    rows = np.arange(pairs.first.shape[0])
    weights = np.zeros((rows.shape[0], pairs.size))
    weights[rows, pairs.second] = query_ref[pairs.first] * pairs.reciprocals
    weights[rows, pairs.first] = -query_ref[pairs.second] * pairs.reciprocals
    count = cand_t.shape[1]
    chunks = max(1, -(-8 * rows.shape[0] * count // EQ6_SCRATCH_BYTES))
    step = max(1, -(-count // chunks))
    scratch, bounds = np.empty((rows.shape[0], step)), np.empty(count)
    # A handful of L2-sized chunks (τ at the default budgets), not elements.
    for start in range(0, count, step):  # lint: disable=HK101
        part = scratch[:, :min(step, count - start)]
        np.matmul(weights, cand_t[:, start:start + step], out=part)
        np.abs(part, out=part)
        part.max(axis=0, out=bounds[start:start + step])
    return bounds


#: The historical one-query names: the same implementations.
triangular_lower_bounds = triangular_lower_bounds_many
ptolemaic_lower_bounds = ptolemaic_lower_bounds_many


def filter_candidates(bounds: np.ndarray, keep: int) -> np.ndarray:
    """Indices of the ``keep`` candidates with the smallest lower bounds
    (the selection of Algo. 2 lines 7 and 10), as a set: in no particular
    order, since the survivor merge discards it.  2-D: one per row."""
    if keep >= bounds.shape[-1]:
        return np.broadcast_to(np.arange(bounds.shape[-1]), bounds.shape)
    return np.argpartition(bounds, keep, axis=-1)[..., :keep]
