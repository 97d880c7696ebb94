"""Lower-bounding distance filters (paper Sec. 4.2).

Both filters approximate ``d(q, o)`` from below using only the reference
distances stored in RDB-tree leaves — no disk access, no full ν-dimensional
computation:

* **Triangular** (Eq. 5): ``max_i |d(q, R_i) - d(o, R_i)|``.
* **Ptolemaic** (Eq. 6):
  ``max_{i<j} |d(q,R_i)·d(o,R_j) - d(q,R_j)·d(o,R_i)| / d(R_i, R_j)`` —
  costlier (O(m²) per candidate) but tighter; valid for Euclidean spaces
  [30].

There is one implementation per bound, vectorised over the candidate
axis.  The query pipeline calls it once per (tree, query row) segment —
at most α (Eq. 5) or β (Eq. 6) rows, the block that RDB-tree descent
just brought into cache — with the query's (m,) reference distances;
(1, m) and per-candidate (n, m) query rows broadcast the same way and
give the same floats.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.distance.metrics import top_k_smallest


class PairTable(NamedTuple):
    """The reference pairs ``i < j`` Eq. (6) ranges over: those with
    ``d(R_i, R_j) > 0``, in upper-triangle order.  Empty when there are
    fewer than two references or all of them coincide — the cases in
    which the Ptolemaic bound falls back to the triangular one."""

    first: np.ndarray
    second: np.ndarray
    #: (pairs, 1) column of ``d(R_i, R_j)``, broadcast over candidates.
    denominators: np.ndarray
    #: m, the number of references the table was built for.
    size: int

    @property
    def nbytes(self) -> int:
        return (self.first.nbytes + self.second.nbytes
                + self.denominators.nbytes)


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
    return PairTable(first[valid], second[valid],
                     denominators[valid][:, None], ref_ref.shape[0])


def _reference_major(query_ref: np.ndarray, cand_ref: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Both bound kernels' inputs, one row per reference: the query
    distances as an (m, 1) or (m, n) view and the candidates' as a fresh
    contiguous (m, n) float64 array the caller may overwrite.  Reducing
    over m contiguous (n,) rows is several times faster than over n rows
    of m, and changes no float: the ops are elementwise and max is exact.
    """
    query_ref = np.asarray(query_ref, dtype=np.float64)
    cand_ref = np.asarray(cand_ref)
    if query_ref.ndim == 1:
        query_ref = query_ref[None, :]
    if (cand_ref.ndim != 2 or query_ref.ndim != 2
            or query_ref.shape[1] != cand_ref.shape[1]
            or query_ref.shape[0] not in (1, cand_ref.shape[0])):
        raise ValueError(
            f"cand_ref shape {cand_ref.shape} incompatible with query "
            f"reference distances of shape {query_ref.shape}")
    return query_ref.T, np.array(cand_ref.T, dtype=np.float64, order="C")


def triangular_lower_bounds_many(query_ref: np.ndarray,
                                 cand_ref: np.ndarray) -> np.ndarray:
    """Best triangular lower bound per candidate (Eq. 5).

    Parameters
    ----------
    query_ref:
        Distances from the query to each reference object: (m,) or
        (1, m) for one query against every candidate, or (n, m) with row
        ``i`` holding the query that candidate ``i`` belongs to.  All
        three forms give identical floats.
    cand_ref:
        (n, m) stored distances from each candidate to each reference.
    """
    query_t, bounds = _reference_major(query_ref, cand_ref)
    bounds -= query_t
    np.abs(bounds, out=bounds)
    return bounds.max(axis=0)


def ptolemaic_lower_bounds_many(query_ref: np.ndarray, cand_ref: np.ndarray,
                                ref_ref: np.ndarray | PairTable
                                ) -> np.ndarray:
    """Best Ptolemaic lower bound per candidate (Eq. 6).

    Parameters
    ----------
    query_ref, cand_ref:
        As for :func:`triangular_lower_bounds_many`.
    ref_ref:
        (m, m) reference-to-reference distances — the Eq. (6)
        denominator — or the :class:`PairTable` already built from them
        (``ReferenceSet.pairs``; what the query pipeline passes).

    Falls back to Eq. (5) when the table is empty: a single reference
    admits no pair, and coincident references no positive denominator.
    """
    query_t, cand_t = _reference_major(query_ref, cand_ref)
    pairs = ref_ref if isinstance(ref_ref, PairTable) else pair_table(ref_ref)
    if pairs.size != cand_t.shape[0]:
        raise ValueError(
            f"ref_ref is for {pairs.size} references, cand_ref has "
            f"{cand_t.shape[0]}")
    if not pairs.first.shape[0]:
        return triangular_lower_bounds_many(query_ref, cand_ref)
    # |dq_i * Do_j - dq_j * Do_i| / d(R_i, R_j) per (pair, candidate),
    # every step after the first product reusing its (pairs, n) buffer.
    bounds = query_t[pairs.first] * cand_t[pairs.second]
    bounds -= query_t[pairs.second] * cand_t[pairs.first]
    np.abs(bounds, out=bounds)
    bounds /= pairs.denominators
    return bounds.max(axis=0)


#: The historical one-query names: the same implementations.
triangular_lower_bounds = triangular_lower_bounds_many
ptolemaic_lower_bounds = ptolemaic_lower_bounds_many


def filter_candidates(bounds: np.ndarray, keep: int) -> np.ndarray:
    """Indices of the ``keep`` candidates with the smallest lower bounds.

    This is the heap selection step of Algo. 2 lines 7 and 10.
    """
    return top_k_smallest(bounds, keep)
