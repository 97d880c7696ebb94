"""Unit and property tests for the lower-bound filters (Sec. 4.2).

The load-bearing invariant: *neither filter ever exceeds the true distance*
(they are lower bounds), and Ptolemaic is at least as tight as triangular
on average — the reason the paper applies it second.

``python_triangular`` / ``python_ptolemaic`` are Eq. 5 / Eq. 6 written out
as loops over Python floats: the oracle for the kernels that shares no
code with them (``tests/test_core_engine.py`` uses it for stage (ii)).
Eq. 5 must equal it bit for bit; Eq. 6 is computed as a matrix product
and must agree to 4 ulp of the pair's larger term (``ptolemaic_ulps``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    ReferenceSet,
    filter_candidates,
    ptolemaic_lower_bounds,
    triangular_lower_bounds,
)
from repro.core.filters import (
    ptolemaic_lower_bounds_many,
    triangular_lower_bounds_many,
)
from repro.distance import (
    euclidean_to_many,
    pairwise_euclidean,
    top_k_smallest,
)

finite = st.floats(min_value=-100.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)


def make_instance(seed, n=30, m=6, dim=10):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, dim)) * 10
    refs = rng.normal(size=(m, dim)) * 10
    query = rng.normal(size=dim) * 10
    query_ref = euclidean_to_many(query, refs)
    cand_ref = pairwise_euclidean(points, refs)
    ref_ref = pairwise_euclidean(refs, refs)
    true = euclidean_to_many(query, points)
    return query_ref, cand_ref, ref_ref, true


def _floats(query_ref, cand_ref):
    """The query's m reference distances ((m,) or (1, m)) and one list of
    m per candidate, as Python floats."""
    return (np.asarray(query_ref, dtype=np.float64).ravel().tolist(),
            np.asarray(cand_ref, dtype=np.float64).tolist())


def _positive_pairs(d):
    return [(i, j) for i in range(len(d)) for j in range(i + 1, len(d))
            if d[i][j] > 0.0]


def python_triangular(query_ref, cand_ref):
    """Eq. 5 as written: max_i |d(o, R_i) - d(q, R_i)| per candidate."""
    q, cand = _floats(query_ref, cand_ref)
    return np.asarray(
        [max(abs(o[i] - q[i]) for i in range(len(o))) for o in cand],
        dtype=np.float64)


def python_ptolemaic(query_ref, cand_ref, ref_ref):
    """Eq. 6 as written: max over i < j with d(R_i, R_j) > 0 of
    |d(q,R_i)·d(o,R_j) - d(q,R_j)·d(o,R_i)| / d(R_i, R_j); Eq. 5 when no
    such pair exists."""
    d = np.asarray(ref_ref, dtype=np.float64).tolist()
    pairs = _positive_pairs(d)
    if not pairs:
        return python_triangular(query_ref, cand_ref)
    q, cand = _floats(query_ref, cand_ref)
    return np.asarray(
        [max(abs(q[i] * o[j] - q[j] * o[i]) / d[i][j] for i, j in pairs)
         for o in cand],
        dtype=np.float64)


def ptolemaic_ulps(got, query_ref, cand_ref, ref_ref):
    """Per candidate, how far ``got`` lies from :func:`python_ptolemaic`
    in ulps of the largest term d(q,R_i)·d(o,R_j) / d(R_i,R_j) of Eq. 6
    — the scale its rounding lives on: the difference of two nearly
    equal terms is exact in neither form.  Zero where Eq. 6 falls back
    to Eq. 5, which is exact."""
    want = python_ptolemaic(query_ref, cand_ref, ref_ref)
    d = np.asarray(ref_ref, dtype=np.float64).tolist()
    pairs = _positive_pairs(d)
    if not pairs:
        return (np.asarray(got) != want).astype(np.float64)
    q, cand = _floats(query_ref, cand_ref)
    scale = np.asarray(
        [max(max(abs(q[i] * o[j]), abs(q[j] * o[i])) / d[i][j]
             for i, j in pairs) for o in cand], dtype=np.float64)
    return np.abs(np.asarray(got) - want) / np.spacing(scale)


def _leaf_block(seed, n, refs):
    """(query rows (n, m), cand_ref (n, m) float32 as the RDB-tree leaves
    store it, ref_ref) for the given reference vectors."""
    rng = np.random.default_rng(seed)
    refs = np.asarray(refs, dtype=np.float64)
    points = rng.normal(size=(n, refs.shape[1])) * 10
    queries = rng.normal(size=(n, refs.shape[1])) * 10
    return (pairwise_euclidean(queries, refs),
            pairwise_euclidean(points, refs).astype(np.float32),
            pairwise_euclidean(refs, refs))


def _reference_cases():
    rng = np.random.default_rng(99)
    distinct = rng.normal(size=(6, 8)) * 10
    duplicated = distinct.copy()
    duplicated[3] = duplicated[0]
    duplicated[5] = duplicated[1]
    return {
        "distinct": (distinct, 40),
        "duplicate-references": (duplicated, 40),
        "identical-references": (np.tile(distinct[:1], (4, 1)), 40),
        "m=1": (distinct[:1], 40),
        "m=2": (distinct[:2], 40),
        "empty-block": (distinct, 0),
    }


class TestKernelsEqualPythonReference:
    """Both kernels against the loop reference — Eq. 5 bit for bit
    (``array_equal``, not ``approx``), Eq. 6 to 4 ulp: the pipeline's
    stage (ii) is these two functions, so nothing else checks them
    against an independent computation."""

    CASES = _reference_cases()
    LAYOUTS = {
        "float32": lambda block: block,
        # Not float32-representable: the general float64 input.
        "float64-C": lambda block: block.astype(np.float64) + 1e-9,
        # Reference-major in memory: what ``RDBTree.candidates`` returns.
        "float64-F": lambda block: np.asfortranarray(
            block.astype(np.float64)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_equal_for_every_input_layout(self, case, layout):
        refs, n = self.CASES[case]
        rows, cand_ref, ref_ref = _leaf_block(7, n, refs)
        cand_ref = self.LAYOUTS[layout](cand_ref)
        pairs = ReferenceSet(refs).pairs
        shared = rows[0] if n else np.ones(refs.shape[0])
        want_tri = python_triangular(shared, cand_ref)
        assert want_tri.shape == (n,)
        for query_ref in (shared, shared[None, :]):
            assert np.array_equal(
                triangular_lower_bounds_many(query_ref, cand_ref), want_tri)
            for third in (ref_ref, pairs):
                got = ptolemaic_lower_bounds_many(query_ref, cand_ref, third)
                assert got.shape == (n,)
                assert np.all(ptolemaic_ulps(got, shared, cand_ref,
                                             ref_ref) <= 4.0)

    def test_layouts_agree_bit_for_bit(self):
        """The scalar oracles hand ``filter_survivors`` node-path blocks
        (candidate-major) and the pipeline reference-major ones: the
        same floats either way, so the same survivors."""
        refs, n = self.CASES["distinct"]
        rows, cand_ref, ref_ref = _leaf_block(13, n, refs)
        block = cand_ref.astype(np.float64)
        first, *others = [ptolemaic_lower_bounds(rows[0], layout, ref_ref)
                          for layout in (cand_ref, block,
                                         np.asfortranarray(block))]
        for other in others:
            assert np.array_equal(first, other)

    def test_zero_denominator_pairs_are_skipped_not_divided(self):
        refs, n = self.CASES["duplicate-references"]
        rows, cand_ref, ref_ref = _leaf_block(3, n, refs)
        assert ref_ref[0, 3] == 0.0 and ref_ref[1, 5] == 0.0
        pairs = ReferenceSet(refs).pairs
        assert pairs.first.shape[0] == 15 - 2
        assert np.all(np.isfinite(pairs.reciprocals))
        assert np.all(pairs.reciprocals > 0.0)
        with np.errstate(all="raise"):
            bounds = ptolemaic_lower_bounds(rows[0], cand_ref, pairs)
        assert np.all(np.isfinite(bounds))

    def test_fallbacks_are_the_triangular_bound(self):
        for case in ("identical-references", "m=1"):
            refs, n = self.CASES[case]
            rows, cand_ref, ref_ref = _leaf_block(5, n, refs)
            assert ReferenceSet(refs).pairs.first.shape[0] == 0
            assert np.array_equal(
                ptolemaic_lower_bounds(rows[0], cand_ref, ref_ref),
                triangular_lower_bounds(rows[0], cand_ref))

    def test_inputs_are_not_modified(self):
        """The kernels reduce over a view of the caller's block — also
        when it is already reference-major in memory."""
        refs, n = self.CASES["distinct"]
        rows, cand_ref, ref_ref = _leaf_block(11, n, refs)
        fortran = np.asfortranarray(cand_ref.astype(np.float64))
        before = fortran.copy()
        triangular_lower_bounds(rows[0], fortran)
        ptolemaic_lower_bounds(rows[0], fortran, ref_ref)
        assert np.array_equal(fortran, before)

    def test_one_implementation_per_bound(self):
        assert triangular_lower_bounds is triangular_lower_bounds_many
        assert ptolemaic_lower_bounds is ptolemaic_lower_bounds_many

    @pytest.mark.parametrize("rows", [3, 5])
    def test_one_query_row_per_call(self, rows):
        """A query row per candidate is not a form the kernels take."""
        with pytest.raises(ValueError):
            triangular_lower_bounds_many(np.zeros((rows, 4)),
                                         np.zeros((5, 4)))
        with pytest.raises(ValueError):
            ptolemaic_lower_bounds_many(np.zeros((rows, 4)),
                                        np.zeros((5, 4)), np.ones((4, 4)))


class TestTriangular:
    def test_is_a_lower_bound(self):
        for seed in range(5):
            query_ref, cand_ref, _, true = make_instance(seed)
            bounds = triangular_lower_bounds(query_ref, cand_ref)
            assert np.all(bounds <= true + 1e-9)

    def test_exact_when_point_is_a_reference(self):
        rng = np.random.default_rng(0)
        refs = rng.normal(size=(4, 6))
        query = rng.normal(size=6)
        query_ref = euclidean_to_many(query, refs)
        # Candidate 0 IS reference 0: |d(q,R0) - 0| = d(q,R0), tight.
        cand_ref = pairwise_euclidean(refs[:1], refs)
        bounds = triangular_lower_bounds(query_ref, cand_ref)
        assert bounds[0] == pytest.approx(query_ref[0])

    def test_takes_max_over_references(self):
        query_ref = np.asarray([10.0, 2.0])
        cand_ref = np.asarray([[1.0, 1.0]])
        assert triangular_lower_bounds(query_ref, cand_ref)[0] == 9.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            triangular_lower_bounds(np.zeros(3), np.zeros((5, 4)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_lower_bound_property(self, seed):
        query_ref, cand_ref, _, true = make_instance(seed, n=12, m=4, dim=6)
        bounds = triangular_lower_bounds(query_ref, cand_ref)
        assert np.all(bounds <= true + 1e-8)


class TestPtolemaic:
    def test_is_a_lower_bound(self):
        for seed in range(5):
            query_ref, cand_ref, ref_ref, true = make_instance(seed)
            bounds = ptolemaic_lower_bounds(query_ref, cand_ref, ref_ref)
            assert np.all(bounds <= true + 1e-9)

    def test_at_least_as_tight_on_average(self):
        """The Sec. 4.2 claim: Ptolemaic yields tighter bounds (on average;
        pointwise it can lose to triangular for specific pairs)."""
        totals_tri, totals_ptol = 0.0, 0.0
        for seed in range(10):
            query_ref, cand_ref, ref_ref, _ = make_instance(seed, m=8)
            totals_tri += triangular_lower_bounds(query_ref, cand_ref).sum()
            totals_ptol += ptolemaic_lower_bounds(
                query_ref, cand_ref, ref_ref).sum()
        assert totals_ptol >= 0.8 * totals_tri

    def test_single_reference_falls_back_to_triangular(self):
        query_ref, cand_ref, ref_ref, _ = make_instance(0, m=1)
        np.testing.assert_allclose(
            ptolemaic_lower_bounds(query_ref, cand_ref, ref_ref),
            triangular_lower_bounds(query_ref, cand_ref))

    def test_coincident_references_fall_back(self):
        query_ref = np.asarray([3.0, 3.0])
        cand_ref = np.asarray([[1.0, 1.0], [5.0, 5.0]])
        ref_ref = np.zeros((2, 2))  # degenerate: all pairs distance zero
        np.testing.assert_allclose(
            ptolemaic_lower_bounds(query_ref, cand_ref, ref_ref),
            triangular_lower_bounds(query_ref, cand_ref))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ptolemaic_lower_bounds(np.zeros(3), np.zeros((5, 3)),
                                   np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ptolemaic_lower_bounds(np.zeros(3), np.zeros((5, 4)),
                                   np.zeros((3, 3)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_lower_bound_property(self, seed):
        query_ref, cand_ref, ref_ref, true = make_instance(
            seed, n=12, m=5, dim=6)
        bounds = ptolemaic_lower_bounds(query_ref, cand_ref, ref_ref)
        assert np.all(bounds <= true + 1e-8)


class TestBoundsNeverExceedTheDistance:
    """Eq. 5 and Eq. 6 are lower bounds of d(q, o) for *any* points and
    references — coincident, collinear, far apart — up to rounding.
    Integer coordinates, as SIFT's: distinct references are then at
    least 1 apart, so Eq. 6's division does not amplify the rounding."""

    @given(hnp.arrays(np.int64, st.tuples(st.integers(3, 12),
                                          st.integers(1, 6)),
                      elements=st.integers(-100, 100)),
           st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_both_bounds(self, points, m):
        points = points.astype(np.float64)
        m = min(m, points.shape[0] - 2)
        refs, query, objects = points[:m], points[m], points[m + 1:]
        query_ref = euclidean_to_many(query, refs)
        cand_ref = pairwise_euclidean(objects, refs)
        ref_ref = pairwise_euclidean(refs, refs)
        true = euclidean_to_many(query, objects)
        assert np.all(triangular_lower_bounds(query_ref, cand_ref)
                      <= true + 1e-9)
        assert np.all(ptolemaic_lower_bounds(query_ref, cand_ref, ref_ref)
                      <= true + 1e-9)


class TestFilterCandidates:
    def test_keeps_smallest_bounds(self):
        bounds = np.asarray([4.0, 1.0, 3.0, 2.0])
        kept = filter_candidates(bounds, 2)
        assert sorted(kept.tolist()) == [1, 3]

    def test_keep_all(self):
        bounds = np.asarray([2.0, 1.0])
        assert sorted(filter_candidates(bounds, 5).tolist()) == [0, 1]
        assert filter_candidates(bounds, 0).size == 0

    @given(st.integers(0, 10_000), st.integers(0, 70))
    @settings(max_examples=60, deadline=None)
    def test_same_set_as_top_k_smallest_without_ties(self, seed, keep):
        bounds = np.random.default_rng(seed).permutation(64) / 7.0
        assert sorted(filter_candidates(bounds, keep).tolist()) == \
            sorted(top_k_smallest(bounds, keep).tolist())

    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 8),
                                            st.integers(0, 40)),
                      elements=st.integers(0, 9).map(float)),
           st.integers(0, 45))
    @settings(max_examples=200, deadline=None)
    def test_block_rows_cut_as_one_row_each(self, bounds, keep):
        """The β and γ cuts of a query row's (τ, α') block: every tree's
        row keeps the set a 1-D call on that row keeps — ties included,
        which these integer bounds make common."""
        got = filter_candidates(bounds, keep)
        assert got.shape == (bounds.shape[0], min(keep, bounds.shape[1]))
        for row, kept in zip(bounds, got):
            assert set(kept.tolist()) == \
                set(filter_candidates(row, keep).tolist())

    def test_never_drops_a_true_nearest_with_valid_bounds(self):
        """If the filter keeps j candidates and the true NN's lower bound is
        among the j smallest, it survives — sanity for the pipeline."""
        query_ref, cand_ref, ref_ref, true = make_instance(3)
        bounds = triangular_lower_bounds(query_ref, cand_ref)
        nearest = int(np.argmin(true))
        kept = filter_candidates(bounds, 15)
        # The true nearest has a small lower bound, so a 50% cut keeps it
        # in this well-separated instance.
        assert nearest in kept.tolist()
