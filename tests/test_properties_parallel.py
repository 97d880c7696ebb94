"""Property-based parity across serving tiers and storage backends.

The load-bearing invariant of the whole execution stack: for the *same
build*, answers are a pure function of (data, params, query, k) — never of
the serving tier (in-process, or a process-mode ``QueryService`` whose
workers answer row slices of each micro-batch), the storage backend
(memory / mmap), a snapshot round-trip, or batch composition.
Seeded randomized trials drive that invariant harder than the hand-picked
cases in ``test_backend_parity.py``: hypothesis chooses the query points,
``k`` and the per-call filter overrides; the sequential index is the
oracle; every other tier must match it byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    HDIndex,
    HDIndexParams,
    IndexSpec,
    build,
    load_index,
    save_index,
)
from repro.serve import QueryService

DIM = 16
N = 360
MAX_K = 12
WAIT = 60.0


def _params(**overrides):
    defaults = dict(num_trees=4, hilbert_order=6, num_references=5,
                    alpha=48, gamma=12, domain=(-4.0, 4.0), seed=9)
    defaults.update(overrides)
    return HDIndexParams(**defaults)


def _data():
    rng = np.random.default_rng(42)
    centers = rng.uniform(-3.0, 3.0, size=(5, DIM))
    data = np.vstack([center + rng.normal(0.0, 0.4, size=(72, DIM))
                      for center in centers])
    return np.clip(data, -4.0, 4.0)


def _queries(seed: int, count: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.clip(rng.normal(0.0, 2.0, size=(count, DIM)), -4.0, 4.0)


def _process(index):
    """A process-mode service over ``index``'s own snapshot, unstarted."""
    return QueryService(index, max_batch=8, workers=2)


@pytest.fixture(scope="module")
def tiers(tmp_path_factory):
    """One build, two serving tiers over it (the process tier's workers
    read the persisted snapshot of the very same build)."""
    data = _data()
    snapshot = tmp_path_factory.mktemp("prop-snap")
    sequential = HDIndex(_params(storage_dir=str(snapshot)))
    sequential.build(data)
    save_index(sequential, snapshot)
    process = _process(sequential).start()

    yield {"data": data, "snapshot": snapshot, "sequential": sequential,
           "process": process}
    process.stop()
    sequential.close()


def _served(service, point, k, **overrides):
    """One answer through the service, the -1 / +inf padding stripped
    (what ``index.query`` returns)."""
    ids, dists = service.query(point, k, timeout=WAIT, **overrides)
    found = ids >= 0
    return ids[found], dists[found]


def _assert_rows_equal(got, oracle, label):
    np.testing.assert_array_equal(got[0], oracle[0],
                                  err_msg=f"{label}: ids differ")
    np.testing.assert_array_equal(got[1], oracle[1],
                                  err_msg=f"{label}: distances differ")


class TestExecutionParity:
    """sequential == process-mode service, single and batched, under
    randomized queries, k and filter overrides."""

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**20), k=st.integers(1, MAX_K))
    def test_single_query_parity(self, tiers, seed, k):
        queries = _queries(seed)
        for q in queries:
            oracle = tiers["sequential"].query(q, k)
            _assert_rows_equal(_served(tiers["process"], q, k), oracle,
                               f"process seed={seed} k={k}")

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**20), k=st.integers(1, MAX_K),
           batch=st.integers(1, 6))
    def test_batch_rows_equal_single_queries(self, tiers, seed, k, batch):
        """A micro-batch's row r == query(points[r]) on every tier —
        batch composition (and the row slice a worker took) must never
        leak into an answer."""
        points = _queries(seed, count=batch)
        index = tiers["sequential"]
        ids, dists = index.query_batch(points, k)
        futures = [tiers["process"].submit(point, k) for point in points]
        served = [future.result(timeout=WAIT) for future in futures]
        assert ids.shape == (batch, k) and dists.shape == (batch, k)
        for row in range(batch):
            si, sd = index.query(points[row], k)
            for name, (got_ids, got_dists) in (
                    ("sequential", (ids[row], dists[row])),
                    ("process", served[row])):
                np.testing.assert_array_equal(
                    got_ids[:si.shape[0]], si,
                    err_msg=f"{name} row {row} seed={seed}")
                np.testing.assert_array_equal(
                    got_dists[:sd.shape[0]], sd,
                    err_msg=f"{name} row {row} seed={seed}")
                assert np.all(got_ids[si.shape[0]:] == -1)

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**20),
           alpha=st.integers(16, 96),
           use_ptolemaic=st.booleans())
    def test_override_forwarding_parity(self, tiers, seed, alpha,
                                        use_ptolemaic):
        """Per-call α/γ/Ptolemaic overrides reach worker processes
        intact."""
        q = _queries(seed, count=1)[0]
        gamma = max(1, alpha // 4)
        oracle = tiers["sequential"].query(
            q, 5, alpha=alpha, gamma=gamma, use_ptolemaic=use_ptolemaic)
        got = _served(tiers["process"], q, 5, alpha=alpha, gamma=gamma,
                      use_ptolemaic=use_ptolemaic)
        _assert_rows_equal(got, oracle,
                           f"process alpha={alpha} ptol={use_ptolemaic}")


class TestStatsParity:
    """A process-mode service counts exactly what the same service
    counts in-process: queries, micro-batches and their largest size —
    over a workload whose batching is fixed (a batch queued before
    start, then one blocking call at a time)."""

    COUNTERS = ("queries", "batches", "max_batch_size", "overloads",
                "deadline_expired")

    @pytest.mark.parametrize("trial_seed", [17, 29])
    def test_counters_match_in_process(self, tiers, trial_seed):
        queries = _queries(trial_seed, count=4)
        runs = []
        for workers in (None, 2):
            service = QueryService(tiers["sequential"], max_batch=8,
                                   workers=workers)
            futures = [service.submit(q, 6) for q in queries]
            with service:
                answers = [future.result(timeout=WAIT)
                           for future in futures]
                answers += [service.query(q, 6, timeout=WAIT)
                            for q in (*queries[:2], *queries)]
                stats = service.stats()
            runs.append(([(ids.tobytes(), dists.tobytes())
                          for ids, dists in answers],
                         {name: getattr(stats, name)
                          for name in self.COUNTERS}))
        assert runs[0] == runs[1]
        # One batch of the queued four, then a batch of one per call.
        assert runs[1][1] == {
            "queries": 2 * len(queries) + 2,
            "batches": 1 + len(queries) + 2,
            "max_batch_size": len(queries),
            "overloads": 0, "deadline_expired": 0}


class TestBackendParityRandomized:
    """memory and mmap loads of one snapshot answer identically under
    randomized queries (seeded trials, extending the fixed-case suite)."""

    @pytest.mark.parametrize("trial_seed", [101, 202, 303])
    def test_load_backend_parity(self, tiers, trial_seed):
        queries = _queries(trial_seed, count=4)
        oracle = [tiers["sequential"].query(q, 6) for q in queries]
        batch_oracle = tiers["sequential"].query_batch(queries, 6)
        for backend in ("memory", "mmap"):
            reopened = load_index(tiers["snapshot"], backend=backend)
            try:
                for q, expected in zip(queries, oracle):
                    _assert_rows_equal(reopened.query(q, 6), expected,
                                       f"load[{backend}] seed={trial_seed}")
                got = reopened.query_batch(queries, 6)
                _assert_rows_equal(got, batch_oracle,
                                   f"load[{backend}] batch")
            finally:
                reopened.close()


class TestLoggedReplayParity:
    """A logged snapshot reopened with un-compacted inserts and deletes
    in its log is its own oracle: the replayed delta answers as the
    index that wrote it, through either backend, and its batch rows
    equal single queries."""

    @pytest.fixture(scope="class")
    def logged(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("prop-logged")
        index = build(IndexSpec(params=_params(), wal=True), _data(),
                      storage_dir=directory)
        rng = np.random.default_rng(7)
        for point in np.clip(rng.normal(0.0, 2.0, size=(12, DIM)),
                             -4.0, 4.0):
            index.insert(point)
        for object_id in (0, 5, N + 3):
            index.delete(object_id)
        assert len(index._delta) == 12
        yield index, directory
        index.close()

    @pytest.mark.parametrize("trial_seed", [11, 23])
    def test_replay_backend_parity(self, logged, trial_seed):
        index, directory = logged
        queries = _queries(trial_seed, count=4)
        oracle = [index.query(q, 6) for q in queries]
        batch_oracle = index.query_batch(queries, 6)
        for backend in ("memory", "mmap"):
            reopened = load_index(directory, backend=backend)
            try:
                assert len(reopened._delta) == 12
                assert reopened._deleted == index._deleted
                for q, expected in zip(queries, oracle):
                    _assert_rows_equal(
                        reopened.query(q, 6), expected,
                        f"replayed[{backend}] seed={trial_seed}")
                _assert_rows_equal(reopened.query_batch(queries, 6),
                                   batch_oracle, f"replayed[{backend}] batch")
            finally:
                reopened.close()

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**20), k=st.integers(1, MAX_K))
    def test_batch_rows_equal_single_queries(self, logged, seed, k):
        index, _ = logged
        points = _queries(seed, count=3)
        ids, dists = index.query_batch(points, k)
        for row in range(points.shape[0]):
            si, sd = index.query(points[row], k)
            np.testing.assert_array_equal(ids[row, :si.shape[0]], si)
            np.testing.assert_array_equal(dists[row, :sd.shape[0]], sd)
