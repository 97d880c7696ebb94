"""The declarative `IndexSpec` API: validation, factories, and the
combinations the old class matrix could not express.

The headline contract (the PR's acceptance criterion): a sharded x
process spec builds, persists, reopens via ``repro.open()``, and returns
results byte-identical to the sequential spec on the same workload.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro import (
    Execution,
    HDIndexParams,
    IndexSpec,
    QueryService,
    Topology,
)
from repro.core import ShardRouter, create_index, set_execution
from repro.eval import evaluate_spec

DIM = 16
K = 6


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(99)
    centers = rng.uniform(0.0, 100.0, size=(5, DIM))
    data = np.vstack([center + rng.normal(0.0, 3.0, size=(60, DIM))
                      for center in centers])
    data = data[rng.permutation(len(data))]
    queries = data[rng.choice(len(data), 8, replace=False)] \
        + rng.normal(0.0, 0.5, size=(8, DIM))
    return np.clip(data, 0, 100), np.clip(queries, 0, 100)


def params(**overrides):
    defaults = dict(num_trees=4, hilbert_order=6, num_references=5,
                    alpha=96, gamma=24, domain=(0.0, 100.0), seed=3)
    defaults.update(overrides)
    return HDIndexParams(**defaults)


class TestSpecValidation:
    def test_defaults(self):
        spec = IndexSpec()
        assert spec.topology.shards == 1
        assert spec.execution.kind == "sequential"
        assert spec.backend is None

    def test_execution_kind_aliases_and_rejection(self):
        assert Execution(kind="threaded").kind == "thread"
        with pytest.raises(ValueError, match="execution kind"):
            Execution(kind="fiber")
        with pytest.raises(ValueError, match="workers"):
            Execution(kind="thread", workers=0)
        with pytest.raises(ValueError, match="worker backend"):
            Execution(worker_backend="tape")
        with pytest.raises(ValueError, match="worker_timeout"):
            Execution(worker_timeout=0)

    def test_topology_rejection(self):
        with pytest.raises(ValueError, match="shards"):
            Topology(shards=0)
        with pytest.raises(ValueError, match="shard_backends"):
            Topology(shards=3, shard_backends=("memory",))
        with pytest.raises(ValueError, match="shard backend"):
            Topology(shards=1, shard_backends=("tape",))

    def test_spec_backend_rejection(self):
        with pytest.raises(ValueError, match="storage backend"):
            IndexSpec(backend="tape")

    def test_dict_round_trip_survives_json(self):
        spec = IndexSpec(params=params(), topology=Topology(shards=3),
                         execution=Execution(kind="process", workers=2,
                                             worker_timeout=1.5),
                         backend="mmap")
        rebuilt = IndexSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec

    def test_coercion_from_params_dict_and_ints(self):
        from repro.core import coerce_spec
        assert coerce_spec(params()).params == params()
        spec = coerce_spec({"topology": {"shards": 2},
                            "execution": {"kind": "thread"}})
        assert spec.topology.shards == 2
        assert spec.execution.kind == "thread"
        with pytest.raises(TypeError):
            coerce_spec(42)

    def test_sharded_process_requires_storage_dir(self):
        with pytest.raises(ValueError, match="storage_dir"):
            create_index(IndexSpec(params=params(),
                                   topology=Topology(shards=2),
                                   execution=Execution(kind="process")))


class TestFactoryCombos:
    def test_plain_spec_equals_classic_hdindex(self, workload):
        data, queries = workload
        classic = repro.HDIndex(params())
        classic.build(data)
        spec_built = repro.build(IndexSpec(params=params()), data)
        for q in queries:
            np.testing.assert_array_equal(classic.query(q, K)[0],
                                          spec_built.query(q, K)[0])
        classic.close()
        spec_built.close()

    @pytest.mark.parametrize("execution", [
        Execution(kind="sequential"),
        Execution(kind="thread", workers=3),
    ], ids=["sequential", "thread"])
    @pytest.mark.parametrize("shards", [1, 2])
    def test_topology_execution_grid_parity(self, workload, shards,
                                            execution):
        """Every in-process grid point answers identically to the plain
        sequential spec over the same data and seeds."""
        data, queries = workload
        oracle = repro.build(
            IndexSpec(params=params(), topology=Topology(shards=shards)),
            data)
        expected = oracle.query_batch(queries, K)
        combo = repro.build(
            IndexSpec(params=params(), topology=Topology(shards=shards),
                      execution=execution), data)
        got = combo.query_batch(queries, K)
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_array_equal(got[1], expected[1])
        oracle.close()
        combo.close()

    def test_sharded_process_combo_byte_identical_and_reopens(
            self, workload, tmp_path):
        """The acceptance criterion: sharded x process — impossible in the
        old class matrix — builds, persists, reopens via repro.open(), and
        matches the sequential spec byte-for-byte."""
        data, queries = workload
        oracle = repro.build(
            IndexSpec(params=params(), topology=Topology(shards=2)), data)
        expected_batch = oracle.query_batch(queries, K)
        expected_single = [oracle.query(q, K) for q in queries[:4]]
        oracle.close()

        spec = IndexSpec(params=params(), topology=Topology(shards=2),
                         execution=Execution(kind="process", workers=2),
                         backend="mmap")
        index = repro.build(spec, data, storage_dir=tmp_path)
        try:
            assert isinstance(index, ShardRouter)
            got = index.query_batch(queries, K)
            np.testing.assert_array_equal(got[0], expected_batch[0])
            np.testing.assert_array_equal(got[1], expected_batch[1])
        finally:
            index.close()

        reopened = repro.open(tmp_path)
        try:
            assert reopened.spec.execution.kind == "process"
            assert reopened.spec.topology.shards == 2
            got = reopened.query_batch(queries, K)
            np.testing.assert_array_equal(got[0], expected_batch[0])
            np.testing.assert_array_equal(got[1], expected_batch[1])
            for q, (ids, dists) in zip(queries, expected_single):
                got_ids, got_dists = reopened.query(q, K)
                np.testing.assert_array_equal(got_ids, ids)
                np.testing.assert_array_equal(got_dists, dists)
        finally:
            reopened.close()

    def test_heterogeneous_shard_backends(self, workload, tmp_path):
        """Per-shard storage backends (hot shard in RAM, cold shard
        mmap'd) — the other previously-impossible combination."""
        data, queries = workload
        oracle = repro.build(
            IndexSpec(params=params(), topology=Topology(shards=2)), data)
        expected = oracle.query_batch(queries, K)
        oracle.close()
        spec = IndexSpec(
            params=params(),
            topology=Topology(shards=2, shard_backends=("memory", "mmap")))
        index = repro.build(spec, data, storage_dir=tmp_path)
        try:
            assert index.shards[0].heap.path is None
            assert index.shards[1].heap.path is not None
            got = index.query_batch(queries, K)
            np.testing.assert_array_equal(got[0], expected[0])
            np.testing.assert_array_equal(got[1], expected[1])
        finally:
            index.close()
        reopened = repro.open(tmp_path)
        try:
            assert reopened.topology.shard_backends == ("memory", "mmap")
            got = reopened.query_batch(queries, K)
            np.testing.assert_array_equal(got[0], expected[0])
        finally:
            reopened.close()

    def test_open_execution_override(self, workload, tmp_path):
        """A snapshot built sequentially serves thread- or
        process-parallel without rebuilding."""
        data, queries = workload
        index = repro.build(IndexSpec(params=params()), data,
                            storage_dir=tmp_path)
        expected = index.query_batch(queries, K)
        index.close()
        for execution in ("thread",
                          Execution(kind="process", workers=2)):
            reopened = repro.open(tmp_path, execution=execution)
            try:
                got = reopened.query_batch(queries, K)
                np.testing.assert_array_equal(got[0], expected[0])
                np.testing.assert_array_equal(got[1], expected[1])
            finally:
                reopened.close()

    def test_unsized_process_spec_persists_workers_none(self, workload,
                                                        tmp_path):
        """A spec that leaves workers unset must persist workers=None —
        "size to the serving machine" — not the build box's resolved CPU
        count."""
        data, _ = workload
        index = repro.build(
            IndexSpec(params=params(), execution=Execution(kind="process")),
            data, storage_dir=tmp_path)
        assert index.spec.execution.workers is None
        index.close()
        import json as _json
        with open(tmp_path / "meta.json") as handle:
            meta = _json.load(handle)
        assert meta["spec"]["execution"]["workers"] is None
        reopened = repro.open(tmp_path)
        try:
            assert reopened.spec.execution.workers is None
        finally:
            reopened.close()

    def test_set_execution_failure_leaves_router_consistent(self, workload):
        data, _ = workload
        index = repro.build(
            IndexSpec(params=params(), topology=Topology(shards=2)), data)
        with pytest.raises(ValueError, match="storage_dir"):
            set_execution(index, Execution(kind="process"))
        # The failed swap must not have mutated the recorded execution
        # (a later save_index would persist a lie) nor any shard.
        assert index.spec.execution.kind == "sequential"
        from repro.core import SequentialExecutor
        assert all(isinstance(s.executor, SequentialExecutor)
                   for s in index.shards)
        index.close()

    def test_process_router_insert_keeps_snapshot_reopenable(self,
                                                             workload,
                                                             tmp_path):
        """Regression: insert() on a process-execution router must also
        refresh the auto-persisted manifest (count, insert_tails) — a
        stale manifest made reopening crash on the grown id maps."""
        data, queries = workload
        index = repro.build(
            IndexSpec(params=params(), topology=Topology(shards=2),
                      execution=Execution(kind="process", workers=2)),
            data, storage_dir=tmp_path)
        probe = np.full(DIM, 51.0)
        new_id = index.insert(probe)
        ids, _ = index.query(probe, 1)  # triggers the lazy resync
        assert ids[0] == new_id
        index.close()
        reopened = repro.open(tmp_path)
        try:
            assert reopened.count == len(data) + 1
            ids, dists = reopened.query(probe, 1)
            assert ids[0] == new_id and dists[0] < 1e-3
        finally:
            reopened.close()

    def test_single_shard_with_backend_override_builds_router(self):
        """shards=1 plus shard_backends still routes through ShardRouter
        (the CLI's build report must branch on the built type, not the
        shard count)."""
        spec = IndexSpec(params=params(),
                         topology=Topology(shards=1,
                                           shard_backends=("memory",)))
        index = create_index(spec)
        assert isinstance(index, ShardRouter)
        assert index.num_shards == 1
        index.close()

    def test_sharded_delete_after_build_survives_resave(self, workload,
                                                        tmp_path):
        """Remote shards skip redundant re-saves, but a delete() since
        the last self-persist must still reach the snapshot."""
        data, queries = workload
        from repro.core import save_index
        index = repro.build(
            IndexSpec(params=params(), topology=Topology(shards=2),
                      execution=Execution(kind="process", workers=2)),
            data, storage_dir=tmp_path)
        victim = int(index.query(queries[0], 1)[0][0])
        index.delete(victim)
        save_index(index, tmp_path)
        index.close()
        reopened = repro.open(tmp_path)
        try:
            ids, _ = reopened.query(queries[0], 1)
            assert ids[0] != victim
        finally:
            reopened.close()

    def test_set_execution_on_live_router(self, workload, tmp_path):
        data, queries = workload
        index = repro.build(
            IndexSpec(params=params(), topology=Topology(shards=2)),
            data, storage_dir=tmp_path)
        expected = index.query_batch(queries, K)
        set_execution(index, Execution(kind="thread", workers=2))
        got = index.query_batch(queries, K)
        np.testing.assert_array_equal(got[0], expected[0])
        assert index.spec.execution.kind == "thread"
        index.close()


class TestSpecThroughHarnessAndService:
    def test_evaluate_spec_records_spec(self, workload):
        data, queries = workload
        result = evaluate_spec(
            IndexSpec(params=params(), topology=Topology(shards=2)),
            data, queries, K)
        assert result.extra["spec"]["topology"]["shards"] == 2
        assert 0.0 <= result.map_at_k <= 1.0

    def test_service_accepts_snapshot_path(self, workload, tmp_path):
        data, queries = workload
        index = repro.build(IndexSpec(params=params()), data,
                            storage_dir=tmp_path)
        expected = [index.query(q, K) for q in queries[:4]]
        index.close()
        with QueryService(tmp_path, max_batch=4) as service:
            for q, (ids, dists) in zip(queries, expected):
                got_ids, got_dists = service.query(q, K, timeout=30.0)
                np.testing.assert_array_equal(got_ids, ids)
                np.testing.assert_array_equal(got_dists, dists)

    def test_service_execution_object(self, workload, tmp_path):
        data, queries = workload
        index = repro.build(IndexSpec(params=params()), data,
                            storage_dir=tmp_path)
        expected = [index.query(q, K) for q in queries[:4]]
        index.close()
        with QueryService.from_snapshot(
                tmp_path, execution=Execution(kind="process", workers=2),
                max_batch=4) as service:
            assert service.mode == "process"
            for q, (ids, dists) in zip(queries, expected):
                got_ids, got_dists = service.query(q, K, timeout=30.0)
                np.testing.assert_array_equal(got_ids, ids)
                np.testing.assert_array_equal(got_dists, dists)

    def test_execution_object_merges_unset_keywords(self, workload,
                                                    tmp_path):
        """workers= alongside an Execution object fills its unset field
        instead of being silently dropped."""
        data, _ = workload
        index = repro.build(IndexSpec(params=params()), data,
                            storage_dir=tmp_path)
        index.close()
        service = QueryService.from_snapshot(
            tmp_path, execution=Execution(kind="process"), workers=1)
        try:
            assert service.execution.workers == 1
            assert service.execution.kind == "process"
        finally:
            service.close()

    def test_query_and_submit_share_one_normaliser(self, workload):
        """Satellite: query() routes through submit(), so cache keys and
        override canonicalisation cannot diverge between the two paths."""
        data, queries = workload
        index = repro.HDIndex(params())
        index.build(data)
        with QueryService(index, max_batch=4,
                          cache_size=32) as service:
            service.query(queries[0], K, alpha=64, gamma=None)
            # Same call through submit(), overrides spelled differently
            # (None-valued override dropped by canonicalisation): must be
            # a cache hit, proving one shared key path.
            service.submit(queries[0], K, gamma=None, alpha=64).result(30.0)
            stats = service.stats()
        assert stats.cache_hits == 1
        assert stats.cache_misses == 1
        index.close()
