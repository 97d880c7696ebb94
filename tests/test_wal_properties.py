"""Property-based online-update invariants (hypothesis).

Random interleavings of insert / delete / query / compact must stay
**byte-identical** to an oracle freshly built from the same operation
stream in one shot — at every query point, whatever the execution
strategy, and whether or not a write-ahead log is attached (``MODES``:
the log only decides durability, never the answer).  Deleted ids must
never surface, no matter whether the delete landed in the base snapshot
or the in-memory delta segment.

The exhaustive regime (α ≥ n, γ = α, triangular filter only) turns the
index into exact brute force, so "byte-identical" is a meaningful
contract rather than a flaky approximation.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    HDIndex,
    HDIndexParams,
    IndexSpec,
    build,
)
from repro.serve import QueryService
from repro.wal.manager import open_log

DIM = 4
BASE_N = 40
MAX_TOTAL = BASE_N + 48


def _params(num_trees=2, backend=None):
    return HDIndexParams(num_trees=num_trees, hilbert_order=6, num_references=4,
                         alpha=max(256, MAX_TOTAL), gamma=max(256, MAX_TOTAL),
                         use_ptolemaic=False, domain=(0.0, 100.0), seed=5,
                         storage_dir=None, backend=backend)


def _vectors(seed, count):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 100.0, size=(count, DIM))


#: Op stream: each element picks an action; inserts carry their own
#: fresh vector (derived from the example seed + position).
_OPS = st.lists(st.integers(0, 99), min_size=6, max_size=32)


#: Durability x storage: logged (mapped from ``storage_dir``); logged
#: with its files read into RAM; un-logged memory-backed; un-logged on
#: disk ("file": mapped from ``storage_dir``).
MODES = ["logged", "logged-memory", "memory", "file"]


def _build(mode, vectors, tmp, num_trees=2):
    """The index under test: ``mode`` picks durability and storage."""
    logged = mode.startswith("logged")
    backend = "memory" if mode == "logged-memory" else None
    index = build(
        IndexSpec(params=_params(num_trees, backend), wal=logged),
        vectors, storage_dir=None if mode == "memory" else tmp)
    index._wal_fsync = "batch"
    assert (open_log(index) is not None) == logged
    assert index.params.resolved_backend == (
        "mmap" if mode in ("logged", "file") else "memory")
    return index


def _run_interleaving(seed, ops, mode="logged", num_trees=2, served=False):
    """Drive an index through the op stream, checking byte-identical
    parity with a one-shot oracle at every query (and at the end).  The
    oracle always has two trees: in the exhaustive regime the answer
    does not depend on how many trees offered the candidates.

    With ``served``, every query is answered by a process-mode service
    over the index's snapshot instead: its workers serve a snapshot,
    never the index's delta, so the index compacts and the service
    swaps the result in before each check."""
    vectors = [v for v in _vectors(seed, BASE_N)]
    deleted: set[int] = set()
    fresh = iter(_vectors(seed + 1_000_003, len(ops)))
    with tempfile.TemporaryDirectory() as tmp:
        index = _build(mode, np.asarray(vectors), tmp, num_trees=num_trees)
        service = None
        if served:
            service = QueryService.from_snapshot(tmp, workers=2).start()

        def check(query_seed):
            if service is None:
                _check_parity(index.query, vectors, deleted, query_seed)
                return
            index.compact()
            service.swap_snapshot(tmp, timeout=60)
            _check_parity(lambda query, k: service.query(query, k,
                                                         timeout=60),
                          vectors, deleted, query_seed)

        try:
            checked = False
            for position, code in enumerate(ops):
                if code < 50:                          # insert
                    vector = next(fresh)
                    assigned = index.insert(vector)
                    assert assigned == len(vectors)
                    vectors.append(vector)
                elif code < 70:                        # delete
                    victim = (seed + position) % len(vectors)
                    if victim not in deleted:
                        index.delete(victim)
                        deleted.add(victim)
                elif code < 90 or position == len(ops) - 1:   # query
                    check(seed + position)
                    checked = True
                else:                                  # compact
                    index.compact()
            if not checked:
                check(seed)
        finally:
            if service is not None:
                service.close()
            index.close()


def _check_parity(query_fn, vectors, deleted, query_seed):
    live = len(vectors) - len(deleted)
    k = max(1, min(5, live))
    queries = _vectors(query_seed + 7, 2)
    oracle = HDIndex(_params())
    oracle.build(np.asarray(vectors))
    for object_id in deleted:
        oracle.delete(object_id)
    try:
        for query in queries:
            ids, dists = query_fn(query, k)
            oracle_ids, oracle_dists = oracle.query(query, k)
            np.testing.assert_array_equal(ids, oracle_ids)
            np.testing.assert_array_equal(dists, oracle_dists)
            assert not (set(int(i) for i in ids) & deleted)
    finally:
        oracle.close()


class TestInterleavingParity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("num_trees", [2, 1],
                             ids=["two-trees", "one-tree"])
    @given(seed=st.integers(0, 10**6), ops=_OPS)
    @settings(max_examples=8, deadline=None)
    def test_matches_one_shot_oracle(self, num_trees, mode, seed, ops):
        """One tree runs stage (ii) over a block that repeats no id."""
        _run_interleaving(seed, ops, mode, num_trees)

    @pytest.mark.parametrize("mode", ["logged", "file"])
    @given(seed=st.integers(0, 10**6), ops=_OPS)
    @settings(max_examples=2, deadline=None)
    def test_process_service_matches_oracle(self, mode, seed, ops):
        """The row-sharded worker pool, swapped onto each compacted
        snapshot, answers as the oracle does."""
        _run_interleaving(seed, ops, mode, served=True)


class TestDeletedNeverSurface:
    @pytest.mark.parametrize("mode", MODES)
    @given(seed=st.integers(0, 10**6),
           delta_inserts=st.integers(1, 12),
           delete_count=st.integers(1, 6))
    @settings(max_examples=10, deadline=None)
    def test_deleted_in_delta_absent_from_answers(self, mode, seed,
                                                  delta_inserts,
                                                  delete_count):
        """Deleting ids that live in the un-compacted delta — and ids in
        the base snapshot — must hide them from every answer, even at
        k = full count where brute force would otherwise return them."""
        vectors = _vectors(seed, BASE_N)
        with tempfile.TemporaryDirectory() as tmp:
            index = _build(mode, vectors, tmp)
            try:
                extra = _vectors(seed + 99, delta_inserts)
                for vector in extra:
                    index.insert(vector)
                total = BASE_N + delta_inserts
                rng = np.random.default_rng(seed + 5)
                victims = set(
                    int(i) for i in rng.choice(total,
                                               size=min(delete_count,
                                                        total - 1),
                                               replace=False))
                for victim in victims:
                    index.delete(victim)
                # Query *for the deleted vectors themselves*: the worst
                # case, where each victim would be its own 0-distance
                # nearest neighbour.
                every = np.vstack([vectors, extra])
                k = total - len(victims)
                for victim in victims:
                    ids, _ = index.query(every[victim], k)
                    assert victim not in set(int(i) for i in ids)
            finally:
                index.close()
