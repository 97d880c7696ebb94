"""Property-based parity across execution tiers and storage backends.

The load-bearing invariant of the whole execution stack: for the *same
build*, answers are a pure function of (data, params, query, k) — never of
the executor (sequential / threaded / process), the storage backend
(memory / file / mmap), a snapshot round-trip, or batch composition.
Seeded randomized trials drive that invariant harder than the hand-picked
cases in ``test_backend_parity.py``: hypothesis chooses the query points,
``k`` and the per-call filter overrides; the sequential index is the
oracle; every other tier must match it byte for byte.

The sharded index is a *different build* (per-shard reference sets), so it
is not compared against the sequential oracle; its property is parity with
itself across backends and snapshot reloads.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    Execution,
    HDIndex,
    HDIndexParams,
    ShardRouter,
    ThreadedExecutor,
    load_index,
    open_index,
    save_index,
)

DIM = 16
N = 360
MAX_K = 12


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


@pytest.fixture(scope="module")
def tiers(tmp_path_factory):
    """One build, four execution tiers over it (the process tier reads the
    persisted snapshot of the very same build)."""
    data = _data()
    snapshot = tmp_path_factory.mktemp("prop-snap")
    sequential = HDIndex(_params(storage_dir=str(snapshot)))
    sequential.build(data)
    save_index(sequential, snapshot)

    threaded = HDIndex(_params(), executor=ThreadedExecutor(3))
    threaded.build(data)

    process = open_index(snapshot,
                         execution=Execution(kind="process", workers=2))

    yield {"data": data, "snapshot": snapshot, "sequential": sequential,
           "threaded": threaded, "process": process}
    sequential.close()
    threaded.close()
    process.close()


def _assert_rows_equal(got, oracle, label):
    np.testing.assert_array_equal(got[0], oracle[0],
                                  err_msg=f"{label}: ids differ")
    np.testing.assert_array_equal(got[1], oracle[1],
                                  err_msg=f"{label}: distances differ")


class TestExecutorParity:
    """sequential == threaded == process, single and batched, under
    randomized queries, k and filter overrides."""

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**20), k=st.integers(1, MAX_K))
    def test_single_query_parity(self, tiers, seed, k):
        queries = _queries(seed)
        for q in queries:
            oracle = tiers["sequential"].query(q, k)
            _assert_rows_equal(tiers["threaded"].query(q, k), oracle,
                              f"threaded seed={seed} k={k}")
            _assert_rows_equal(tiers["process"].query(q, k), oracle,
                              f"process seed={seed} k={k}")

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**20), k=st.integers(1, MAX_K),
           batch=st.integers(1, 6))
    def test_batch_rows_equal_single_queries(self, tiers, seed, k, batch):
        """query_batch row r == query(points[r]) on every tier — batch
        composition must never leak into an answer."""
        points = _queries(seed, count=batch)
        for name in ("sequential", "threaded", "process"):
            index = tiers[name]
            ids, dists = index.query_batch(points, k)
            assert ids.shape == (batch, k) and dists.shape == (batch, k)
            for row in range(batch):
                si, sd = index.query(points[row], k)
                np.testing.assert_array_equal(
                    ids[row, :si.shape[0]], si,
                    err_msg=f"{name} row {row} seed={seed}")
                np.testing.assert_array_equal(
                    dists[row, :sd.shape[0]], sd,
                    err_msg=f"{name} row {row} seed={seed}")
                assert np.all(ids[row, si.shape[0]:] == -1)

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**20),
           alpha=st.integers(16, 96),
           use_ptolemaic=st.booleans())
    def test_override_forwarding_parity(self, tiers, seed, alpha,
                                        use_ptolemaic):
        """Per-call α/γ/Ptolemaic overrides reach worker processes and
        thread pools identically."""
        q = _queries(seed, count=1)[0]
        gamma = max(1, alpha // 4)
        oracle = tiers["sequential"].query(
            q, 5, alpha=alpha, gamma=gamma, use_ptolemaic=use_ptolemaic)
        for name in ("threaded", "process"):
            got = tiers[name].query(q, 5, alpha=alpha, gamma=gamma,
                                    use_ptolemaic=use_ptolemaic)
            _assert_rows_equal(got, oracle,
                               f"{name} alpha={alpha} ptol={use_ptolemaic}")


class TestStatsParity:
    """Process-mode QueryStats must charge exactly what the sequential
    path charges: total page reads (parent + folded worker deltas),
    candidates, and distance computations — the reference matmul counted
    once, never per worker group."""

    @pytest.mark.parametrize("trial_seed", [17, 29])
    def test_totals_match_sequential(self, tiers, trial_seed):
        queries = _queries(trial_seed, count=4)

        def totals(stats):
            return (stats.page_reads, stats.candidates,
                    stats.distance_computations)

        for q in queries:
            tiers["sequential"].query(q, 6)
            tiers["process"].query(q, 6)
            assert totals(tiers["process"].last_query_stats()) == \
                totals(tiers["sequential"].last_query_stats())
        tiers["sequential"].query_batch(queries, 6)
        tiers["process"].query_batch(queries, 6)
        assert totals(tiers["process"].last_query_stats()) == \
            totals(tiers["sequential"].last_query_stats())
        assert tiers["process"].last_query_stats().extra["workers"] == 2


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

    @pytest.mark.parametrize("worker_backend", ["memory", "mmap"])
    def test_process_worker_backend_parity(self, tiers, worker_backend):
        """The workers' own reopen backend must not show in the answers."""
        queries = _queries(77, count=3)
        oracle = tiers["sequential"].query_batch(queries, 5)
        process = open_index(
            tiers["snapshot"],
            execution=Execution(kind="process", workers=2,
                                worker_backend=worker_backend))
        try:
            _assert_rows_equal(process.query_batch(queries, 5), oracle,
                               f"worker_backend={worker_backend}")
        finally:
            process.close()


class TestShardedSelfParity:
    """The sharded build is its own oracle: identical across backends,
    snapshot reloads and batch composition."""

    @pytest.fixture(scope="class")
    def sharded_snapshot(self, tmp_path_factory):
        data = _data()
        directory = tmp_path_factory.mktemp("prop-sharded")
        index = ShardRouter(_params(), 3)
        index.build(data)
        save_index(index, directory)
        yield index, directory
        index.close()

    @pytest.mark.parametrize("trial_seed", [11, 23])
    def test_reload_backend_parity(self, sharded_snapshot, trial_seed):
        index, directory = sharded_snapshot
        queries = _queries(trial_seed, count=4)
        oracle = [index.query(q, 6) for q in queries]
        batch_oracle = index.query_batch(queries, 6)
        for backend in ("memory", "mmap"):
            reopened = load_index(directory, backend=backend)
            try:
                for q, expected in zip(queries, oracle):
                    _assert_rows_equal(
                        reopened.query(q, 6), expected,
                        f"sharded[{backend}] seed={trial_seed}")
                _assert_rows_equal(reopened.query_batch(queries, 6),
                                   batch_oracle, f"sharded[{backend}] batch")
            finally:
                reopened.close()

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**20), k=st.integers(1, MAX_K))
    def test_batch_rows_equal_single_queries(self, sharded_snapshot, seed,
                                             k):
        index, _ = sharded_snapshot
        points = _queries(seed, count=3)
        ids, dists = index.query_batch(points, k)
        for row in range(points.shape[0]):
            si, sd = index.query(points[row], k)
            np.testing.assert_array_equal(ids[row, :si.shape[0]], si)
            np.testing.assert_array_equal(dists[row, :sd.shape[0]], sd)
