"""The declarative `IndexSpec` API: validation, factories, and the
combinations the old class matrix could not express.

The headline contract: a spec builds, persists, reopens via
``repro.open()``, and — in-process or served by the process pool of a
``QueryService`` — returns results byte-identical to the in-memory spec
on the same workload.  A spec is ``(params, wal)``; the older
``topology`` / ``execution`` / ``backend`` keys and a shard count other
than 1 are refused.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time

import numpy as np
import pytest

import repro
from repro import (
    HDIndexParams,
    IndexSpec,
    QueryService,
)
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
        assert spec.wal is None
        assert spec.params == HDIndexParams()

    def test_fields_are_params_and_wal(self):
        assert [f.name for f in dataclasses.fields(IndexSpec)] \
            == ["params", "wal"]

    def test_placement_rejection(self, workload, tmp_path):
        """A service's placement is ``workers`` and ``worker_timeout``,
        each checked; the older spellings are unknown keywords."""
        repro.build(IndexSpec(params=params()), workload[0],
                    storage_dir=tmp_path).close()
        for bad, error, match in (
                ({"workers": 0}, ValueError, "workers"),
                ({"workers": 1, "worker_timeout": 0}, ValueError, "timeout"),
                ({"worker_timeout": 5.0}, ValueError, "workers=N"),
                ({"execution": "process"}, TypeError, "execution"),
                ({"worker_backend": "mmap"}, TypeError, "worker_backend")):
            with pytest.raises(error, match=match):
                QueryService.from_snapshot(tmp_path, **bad)

    def test_spec_rejection(self):
        with pytest.raises(ValueError, match="wal"):
            IndexSpec(wal="yes")
        for field in ("topology", "execution", "backend", "shards"):
            with pytest.raises(TypeError, match=field):
                IndexSpec(**{field: None})

    def test_dict_round_trip_survives_json(self):
        spec = IndexSpec(params=params(), wal=False)
        assert list(spec.to_dict()) == ["params", "wal"]
        rebuilt = IndexSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec

    @pytest.mark.parametrize("stale", [
        {"topology": {"shards": 2}},
        {"execution": {"wal": True}},
        {"execution": {"kind": "thread"}},
        {"backend": "mmap"},
        {"shards": 2},
        {"shards": 0},
    ], ids=["topology", "execution-wal", "execution-kind", "backend",
            "shards", "zero-shards"])
    def test_older_spec_keys_are_refused(self, workload, tmp_path, stale):
        """A dict in the older form names the migration instead of
        building one index for a sharded spec or dropping a log
        policy."""
        data, _ = workload
        spec = {"params": dataclasses.asdict(params()), **stale}
        with pytest.raises(ValueError, match="MIGRATION"):
            IndexSpec.from_dict(spec)
        with pytest.raises(ValueError, match="MIGRATION"):
            repro.build(spec, data, storage_dir=tmp_path)
        assert not any(tmp_path.iterdir())

    def test_plain_shard_count_is_accepted(self):
        """Every plain spec file an older release wrote holds
        ``"shards": 1``; it still loads, and no other count does."""
        assert IndexSpec.from_dict({"shards": 1}) == IndexSpec()
        spec = {"params": dataclasses.asdict(params()), "shards": 1,
                "wal": True}
        assert IndexSpec.from_dict(spec) == IndexSpec(params=params(),
                                                      wal=True)
        for shards in (0, 2):
            with pytest.raises(ValueError, match="MIGRATION"):
                IndexSpec.from_dict({"shards": shards})

    def test_coercion_from_params_and_dict(self):
        from repro.core import coerce_spec
        assert coerce_spec(params()).params == params()
        spec = coerce_spec({"wal": False})
        assert spec == IndexSpec(wal=False)
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
    def test_open_takes_no_execution(self, workload, tmp_path):
        """``repro.open(..., execution=)`` is gone: a snapshot is served
        process-parallel by a service over it, not reopened as one."""
        data, _ = workload
        repro.build(IndexSpec(params=params()), data,
                    storage_dir=tmp_path).close()
        for execution in ("sequential", "process"):
            with pytest.raises(TypeError, match="execution"):
                repro.open(tmp_path, execution=execution)

    def test_process_service_needs_a_snapshot(self, workload):
        """The service's workers bootstrap from a snapshot, never from
        the live index: an index with no storage directory is refused
        with the fix named."""
        data, _ = workload
        index = repro.build(IndexSpec(params=params()), data)
        try:
            with pytest.raises(ValueError, match="snapshot_dir"):
                QueryService(index, workers=2)
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

    @pytest.mark.parametrize("workers", [None, 2],
                             ids=["sequential", "process"])
    def test_topology_execution_grid_parity(self, workload, tmp_path,
                                            workers):
        """A persisted index served in-process or by the process pool
        answers identically to the in-memory spec over the same data and
        seeds."""
        data, queries = workload
        oracle = repro.build(IndexSpec(params=params()), data)
        expected = oracle.query_batch(queries, K)
        combo = repro.build(IndexSpec(params=params()), data,
                            storage_dir=tmp_path)
        with QueryService(combo, workers=workers) as service:
            futures = [service.submit(q, K) for q in queries]
            rows = [future.result(timeout=60.0) for future in futures]
        np.testing.assert_array_equal(np.stack([r[0] for r in rows]),
                                      expected[0])
        np.testing.assert_array_equal(np.stack([r[1] for r in rows]),
                                      expected[1])
        oracle.close()
        combo.close()


class TestSpecThroughHarnessAndService:
    def test_evaluate_spec_records_spec(self, workload):
        data, queries = workload
        result = evaluate_spec(
            IndexSpec(params=params(), wal=False),
            data, queries, K)
        assert result.extra["spec"]["wal"] is False
        assert 0.0 <= result.map_at_k <= 1.0

    def test_service_opens_snapshot_path(self, workload, tmp_path):
        """A snapshot directory is opened by ``from_snapshot``; handed
        to the constructor, which takes an index, it is refused."""
        data, queries = workload
        index = repro.build(IndexSpec(params=params()), data,
                            storage_dir=tmp_path)
        expected = [index.query(q, K) for q in queries[:4]]
        index.close()
        with pytest.raises(TypeError, match="from_snapshot"):
            QueryService(tmp_path, max_batch=4)
        with QueryService.from_snapshot(tmp_path, max_batch=4) as service:
            for q, (ids, dists) in zip(queries, expected):
                got_ids, got_dists = service.query(q, K, timeout=30.0)
                np.testing.assert_array_equal(got_ids, ids)
                np.testing.assert_array_equal(got_dists, dists)

    def test_service_workers(self, workload, tmp_path):
        data, queries = workload
        index = repro.build(IndexSpec(params=params()), data,
                            storage_dir=tmp_path)
        expected = [index.query(q, K) for q in queries[:4]]
        index.close()
        with QueryService.from_snapshot(
                tmp_path, workers=2, max_batch=4) as service:
            assert service._pool.num_workers == 2
            for q, (ids, dists) in zip(queries, expected):
                got_ids, got_dists = service.query(q, K, timeout=30.0)
                np.testing.assert_array_equal(got_ids, ids)
                np.testing.assert_array_equal(got_dists, dists)

    def test_workers_is_the_pool_width(self, workload, tmp_path):
        """``workers=N`` forks exactly N worker processes (no CPU-count
        default); ``None`` answers in the dispatcher thread."""
        data, _ = workload
        index = repro.build(IndexSpec(params=params()), data,
                            storage_dir=tmp_path)
        index.close()
        for workers in (1, 2, None):
            service = QueryService.from_snapshot(tmp_path, workers=workers)
            try:
                if workers is None:
                    assert service._pool is None
                else:
                    assert service._pool.num_workers == workers
            finally:
                service.close()

    @pytest.mark.parametrize("keyword", ["mode", "kind", "worker_backend",
                                         "execution"])
    def test_removed_placement_keywords_are_gone(self, workload, keyword):
        """Placement is ``workers`` / ``worker_timeout``; the older
        spellings are unknown keywords."""
        data, _ = workload
        index = repro.HDIndex(params())
        index.build(data)
        with pytest.raises(TypeError, match=keyword):
            QueryService(index, **{keyword: 1})
        index.close()

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
            index = repro.build(IndexSpec(params=params()), data,
                                storage_dir=tmp_path)
            index.query(queries[0], K)
            index.close()
            repro.open(tmp_path).close()
            with repro.load_index(tmp_path) as loaded:
                loaded.query_batch(queries[:3], K)
            with QueryService.from_snapshot(tmp_path,
                                            max_batch=4) as service:
                service.query(queries[0], K, timeout=30.0)

    def test_query_and_submit_share_one_normaliser(self, workload):
        """query() routes through submit(), so override canonicalisation
        cannot diverge between the two paths: two spellings of the same
        overrides (a None-valued one dropped) reach one ``query_batch``
        call."""
        data, queries = workload
        index = repro.HDIndex(params())
        index.build(data)
        calls = []

        class Recording:
            def query_batch(self, points, k, **overrides):
                calls.append((len(points), k, overrides))
                return index.query_batch(points, k, **overrides)

        service = QueryService(Recording(), max_batch=4)
        blocking = threading.Thread(target=service.query, args=(
            queries[0], K), kwargs=dict(alpha=64, gamma=None))
        blocking.start()
        while service.pending() < 1:
            time.sleep(0.001)
        future = service.submit(queries[0], K, gamma=None, alpha=64)
        with service:
            future.result(30.0)
            blocking.join(30.0)
        assert not blocking.is_alive()
        assert calls == [(2, K, {"alpha": 64})]
        index.close()
