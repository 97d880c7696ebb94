"""The declarative `IndexSpec` API: validation, factories, and the
combinations the old class matrix could not express.

The headline contract: a sharded spec builds, persists, reopens via
``repro.open()``, and — in-process or served by the process pool of a
``QueryService`` — returns results byte-identical to the sequential spec
on the same workload.  A spec is ``(params, shards, wal)``; the older
``topology`` / ``execution`` / ``backend`` keys are refused.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import repro
from repro import (
    Execution,
    HDIndexParams,
    IndexSpec,
    QueryService,
)
from repro.core import ShardRouter
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
        assert (spec.shards, spec.wal) == (1, None)
        assert spec.params == HDIndexParams()

    def test_fields_are_params_shards_wal(self):
        assert [f.name for f in dataclasses.fields(IndexSpec)] \
            == ["params", "shards", "wal"]
        assert [f.name for f in dataclasses.fields(Execution)] \
            == ["kind", "workers", "worker_timeout"]

    def test_execution_rejection(self):
        for kind in ("fiber", "thread", "threaded", "serial"):
            with pytest.raises(ValueError, match="execution kind"):
                Execution(kind=kind)
        with pytest.raises(ValueError, match="workers"):
            Execution(kind="process", workers=0)
        with pytest.raises(ValueError, match="worker_timeout"):
            Execution(worker_timeout=0)
        with pytest.raises(TypeError, match="worker_backend"):
            Execution(worker_backend="mmap")

    def test_spec_rejection(self):
        with pytest.raises(ValueError, match="shards"):
            IndexSpec(shards=0)
        with pytest.raises(ValueError, match="wal"):
            IndexSpec(wal="yes")
        for field in ("topology", "execution", "backend"):
            with pytest.raises(TypeError, match=field):
                IndexSpec(**{field: None})

    def test_dict_round_trip_survives_json(self):
        spec = IndexSpec(params=params(), shards=3, wal=False)
        assert spec.to_dict()["shards"] == 3
        rebuilt = IndexSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec

    @pytest.mark.parametrize("stale", [
        {"topology": {"shards": 2}},
        {"execution": {"wal": True}},
        {"execution": {"kind": "thread"}},
        {"backend": "mmap"},
    ], ids=["topology", "execution-wal", "execution-kind", "backend"])
    def test_older_spec_keys_are_refused(self, workload, tmp_path, stale):
        """A dict in the older form names the migration instead of
        building with a default shard count or dropping a log policy."""
        data, _ = workload
        spec = {"params": dataclasses.asdict(params()), **stale}
        with pytest.raises(ValueError, match="MIGRATION"):
            IndexSpec.from_dict(spec)
        with pytest.raises(ValueError, match="MIGRATION"):
            repro.build(spec, data, storage_dir=tmp_path)
        assert not any(tmp_path.iterdir())

    def test_coercion_from_params_and_dict(self):
        from repro.core import coerce_spec
        assert coerce_spec(params()).params == params()
        spec = coerce_spec({"shards": 2, "wal": False})
        assert (spec.shards, spec.wal) == (2, False)
        with pytest.raises(TypeError):
            coerce_spec(42)

    def test_backend_is_a_params_field(self, workload, tmp_path):
        data, queries = workload
        spec = IndexSpec(params=params(backend="mmap",
                                       storage_dir=str(tmp_path)))
        index = repro.build(spec, data, storage_dir=tmp_path)
        try:
            assert index.params.resolved_backend == "mmap"
            assert index.heap.path is not None
        finally:
            index.close()


class TestProcessServing:
    def test_router_takes_shards_and_wal_only(self):
        for keyword in ("topology", "execution"):
            with pytest.raises(TypeError, match=keyword):
                ShardRouter(params(), **{keyword: None})
        assert ShardRouter(params(), 3, wal=False).spec \
            == IndexSpec(params=params(), shards=3, wal=False)

    def test_open_takes_no_execution(self, workload, tmp_path):
        """``repro.open(..., execution=)`` is gone: a snapshot is served
        process-parallel by a service over it, not reopened as one."""
        data, _ = workload
        repro.build(IndexSpec(params=params()), data,
                    storage_dir=tmp_path).close()
        for execution in ("sequential", Execution(kind="process")):
            with pytest.raises(TypeError, match="execution"):
                repro.open(tmp_path, execution=execution)

    @pytest.mark.parametrize("shards", [1, 2], ids=["plain", "sharded"])
    def test_process_service_needs_a_snapshot(self, workload, shards):
        """The service's workers bootstrap from a snapshot, never from
        the live index: an index with no storage directory is refused
        with the fix named, for a router as for a plain index."""
        data, _ = workload
        index = repro.build(IndexSpec(params=params(), shards=shards), data)
        try:
            with pytest.raises(ValueError, match="snapshot_dir"):
                QueryService(index, execution=Execution(kind="process",
                                                        workers=2))
        finally:
            index.close()


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
        Execution(kind="process", workers=2),
    ], ids=["sequential", "process"])
    @pytest.mark.parametrize("shards", [1, 2])
    def test_topology_execution_grid_parity(self, workload, tmp_path,
                                            shards, execution):
        """Every grid point — a persisted topology served in-process or
        by the process pool — answers identically to the in-memory
        sequential spec over the same data and seeds."""
        data, queries = workload
        oracle = repro.build(IndexSpec(params=params(), shards=shards), data)
        expected = oracle.query_batch(queries, K)
        combo = repro.build(IndexSpec(params=params(), shards=shards), data,
                            storage_dir=tmp_path)
        with QueryService(combo, execution=execution) as service:
            futures = [service.submit(q, K) for q in queries]
            rows = [future.result(timeout=60.0) for future in futures]
        np.testing.assert_array_equal(np.stack([r[0] for r in rows]),
                                      expected[0])
        np.testing.assert_array_equal(np.stack([r[1] for r in rows]),
                                      expected[1])
        oracle.close()
        combo.close()

    def test_sharded_process_combo_byte_identical_and_reopens(
            self, workload, tmp_path):
        """A sharded snapshot builds, persists, reopens via repro.open()
        in-process, and a process-mode service over it matches the
        sequential spec byte-for-byte."""
        data, queries = workload
        oracle = repro.build(IndexSpec(params=params(), shards=2), data)
        expected_batch = oracle.query_batch(queries, K)
        oracle.close()

        spec = IndexSpec(params=params(), shards=2)
        repro.build(spec, data, storage_dir=tmp_path).close()
        reopened = repro.open(tmp_path)
        try:
            assert reopened.spec == IndexSpec(params=reopened.params,
                                              shards=2)
            got = reopened.query_batch(queries, K)
            np.testing.assert_array_equal(got[0], expected_batch[0])
            np.testing.assert_array_equal(got[1], expected_batch[1])
            with QueryService(reopened, execution=Execution(
                    kind="process", workers=2)) as service:
                for row, q in enumerate(queries):
                    got_ids, got_dists = service.query(q, K, timeout=60.0)
                    np.testing.assert_array_equal(got_ids,
                                                  expected_batch[0][row])
                    np.testing.assert_array_equal(got_dists,
                                                  expected_batch[1][row])
        finally:
            reopened.close()

    def test_router_insert_keeps_snapshot_reopenable(self, workload,
                                                     tmp_path):
        """Regression: compact() on a persisted router must also refresh
        the manifest (count, insert_tails) — a stale manifest made
        reopening crash on the grown id maps."""
        data, queries = workload
        index = repro.build(
            IndexSpec(params=params(), shards=2),
            data, storage_dir=tmp_path)
        probe = np.full(DIM, 51.0)
        new_id = index.insert(probe)
        ids, _ = index.query(probe, 1)
        assert ids[0] == new_id
        index.compact()  # sharded updates are volatile until compacted
        index.close()
        reopened = repro.open(tmp_path)
        try:
            assert reopened.count == len(data) + 1
            ids, dists = reopened.query(probe, 1)
            assert ids[0] == new_id and dists[0] < 1e-3
        finally:
            reopened.close()

    def test_sharded_delete_after_build_survives_resave(self, workload,
                                                        tmp_path):
        """A delete() since the build reaches the re-saved snapshot."""
        data, queries = workload
        from repro.core import save_index
        index = repro.build(
            IndexSpec(params=params(), shards=2),
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


class TestSpecThroughHarnessAndService:
    def test_evaluate_spec_records_spec(self, workload):
        data, queries = workload
        result = evaluate_spec(
            IndexSpec(params=params(), shards=2),
            data, queries, K)
        assert result.extra["spec"]["shards"] == 2
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
            assert service.execution.kind == "process"
            for q, (ids, dists) in zip(queries, expected):
                got_ids, got_dists = service.query(q, K, timeout=30.0)
                np.testing.assert_array_equal(got_ids, ids)
                np.testing.assert_array_equal(got_dists, dists)

    def test_execution_accepts_object_kind_string_or_none(self, workload,
                                                          tmp_path):
        """execution= takes an Execution, a bare kind string, or None
        for in-process dispatch."""
        data, _ = workload
        index = repro.build(IndexSpec(params=params()), data,
                            storage_dir=tmp_path)
        index.close()
        for execution, expected in (
                (Execution(kind="process", workers=1),
                 Execution(kind="process", workers=1)),
                ("process", Execution(kind="process")),
                (None, Execution())):
            service = QueryService.from_snapshot(tmp_path,
                                                 execution=execution)
            try:
                assert service.execution == expected
            finally:
                service.close()

    @pytest.mark.parametrize("keyword", ["mode", "workers", "worker_backend",
                                         "worker_timeout"])
    def test_flat_execution_keywords_are_gone(self, workload, keyword):
        """Execution's fields are set on the Execution, not as loose
        service keywords (they would reach ServiceConfig and fail)."""
        data, _ = workload
        index = repro.HDIndex(params())
        index.build(data)
        with pytest.raises(TypeError, match=keyword):
            QueryService(index, **{keyword: 1})
        index.close()

    def test_service_rejects_unknown_execution_kind(self, workload):
        index = repro.HDIndex(params())
        with pytest.raises(ValueError, match="execution kind"):
            QueryService(index, execution="fiber")

    @pytest.mark.parametrize("command", ["query", "serve"])
    def test_cli_has_no_mode_flag(self, command, tmp_path, capsys):
        from repro.cli import main as cli_main
        with pytest.raises(SystemExit):
            cli_main([command, "--index", str(tmp_path), "--mode",
                      "process"])
        assert "--mode" in capsys.readouterr().err

    def test_spec_api_is_warning_free(self, workload, tmp_path):
        import warnings
        data, queries = workload
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            index = repro.build(
                IndexSpec(params=params(), shards=2),
                data, storage_dir=tmp_path)
            index.query(queries[0], K)
            index.close()
            repro.open(tmp_path).close()
            with repro.load_index(tmp_path) as loaded:
                loaded.query_batch(queries[:3], K)
            with QueryService(tmp_path, max_batch=4) as service:
                service.query(queries[0], K, timeout=30.0)

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
