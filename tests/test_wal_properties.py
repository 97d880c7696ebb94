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
    Execution,
    HDIndex,
    HDIndexParams,
    IndexSpec,
    Topology,
    build,
)
from repro.wal.manager import open_log

DIM = 4
BASE_N = 40
MAX_TOTAL = BASE_N + 48


def _params():
    return HDIndexParams(num_trees=2, hilbert_order=6, num_references=4,
                         alpha=max(256, MAX_TOTAL), gamma=max(256, MAX_TOTAL),
                         use_ptolemaic=False, domain=(0.0, 100.0), seed=5,
                         storage_dir=None)


def _vectors(seed, count):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 100.0, size=(count, DIM))


#: Op stream: each element picks an action; inserts carry their own
#: fresh vector (derived from the example seed + position).
_OPS = st.lists(st.integers(0, 99), min_size=6, max_size=32)


#: Durability x deployment: logged; un-logged memory-backed; un-logged
#: on disk ("file": mapped from ``storage_dir``); un-logged two-shard
#: router (memory-backed).
MODES = ["logged", "memory", "file", "router"]


def _build(mode, kind, vectors, tmp, workers=2):
    """The index under test: ``mode`` picks durability and deployment
    (process execution always lives in ``tmp`` — its workers need the
    snapshot — so its un-logged mode is ``"file"``)."""
    execution = Execution(kind=kind, wal=(mode == "logged"),
                          workers=None if kind == "sequential" else workers)
    index = build(
        IndexSpec(params=_params(), execution=execution,
                  topology=Topology(shards=2 if mode == "router" else 1)),
        vectors, storage_dir=tmp if mode in ("logged", "file") else None)
    index._wal_fsync = "batch"
    assert (open_log(index) is not None) == (mode == "logged")
    return index


def _run_interleaving(kind, seed, ops, mode="logged"):
    """Drive an index through the op stream, checking byte-identical
    parity with a one-shot oracle at every query (and at the end)."""
    vectors = [v for v in _vectors(seed, BASE_N)]
    deleted: set[int] = set()
    fresh = iter(_vectors(seed + 1_000_003, len(ops)))
    with tempfile.TemporaryDirectory() as tmp:
        index = _build(mode, kind, np.asarray(vectors), tmp)
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
                    _check_parity(index, vectors, deleted,
                                  seed + position)
                    checked = True
                else:                                  # compact
                    index.compact()
            if not checked:
                _check_parity(index, vectors, deleted, seed)
        finally:
            index.close()


def _check_parity(index, vectors, deleted, query_seed):
    live = len(vectors) - len(deleted)
    k = max(1, min(5, live))
    queries = _vectors(query_seed + 7, 2)
    oracle = HDIndex(_params())
    oracle.build(np.asarray(vectors))
    for object_id in deleted:
        oracle.delete(object_id)
    try:
        for query in queries:
            ids, dists = index.query(query, k)
            oracle_ids, oracle_dists = oracle.query(query, k)
            np.testing.assert_array_equal(ids, oracle_ids)
            np.testing.assert_array_equal(dists, oracle_dists)
            assert not (set(int(i) for i in ids) & deleted)
    finally:
        oracle.close()


class TestInterleavingParity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kind", ["sequential", "thread"])
    @given(seed=st.integers(0, 10**6), ops=_OPS)
    @settings(max_examples=8, deadline=None)
    def test_matches_one_shot_oracle(self, kind, mode, seed, ops):
        _run_interleaving(kind, seed, ops, mode)

    @pytest.mark.parametrize("mode", ["logged", "file"])
    @given(seed=st.integers(0, 10**6), ops=_OPS)
    @settings(max_examples=2, deadline=None)
    def test_process_execution_matches_oracle(self, mode, seed, ops):
        _run_interleaving("process", seed, ops, mode)


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
            index = _build(mode, "sequential", vectors, tmp)
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
