"""A snapshot records one thing about its deployment: its ``spec``.

* every {default, sized} x {plain, sharded} snapshot reopens
  byte-identically through both ``repro.open()`` and ``load_index()``,
  and its ``meta.json`` / ``manifest.json`` carry no ``kind`` tag;
* a snapshot or spec recording the thread pool that ran the per-tree
  scans before it was removed (``"thread"`` / ``"threaded"``) opens
  sequential, with the sequential answers and exact counters;
* a snapshot recording the per-tree process pool (``"process"``) opens
  in-process — no pool, no worker forked — with the sequential answers
  and exact counters, its recorded ``wal`` still honoured;
* a snapshot whose recorded ``spec.execution`` or ``spec.topology`` is
  missing or invalid is refused with a typed ``PersistenceError`` naming
  ``docs/MIGRATION.md``.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import shutil

import numpy as np
import pytest

import repro
from repro import (
    Execution,
    HDIndexParams,
    IndexSpec,
    Topology,
    load_index,
)
from repro.core import PersistenceError, SnapshotWorkerPool

DIM = 16
K = 6

EXECUTIONS = {
    "sequential": Execution(),
    "sized": Execution(workers=2, worker_timeout=5.0),
}


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(17)
    centers = rng.uniform(0.0, 100.0, size=(4, DIM))
    data = np.vstack([center + rng.normal(0.0, 3.0, size=(50, DIM))
                      for center in centers])
    data = data[rng.permutation(len(data))]
    queries = data[rng.choice(len(data), 6, replace=False)] \
        + rng.normal(0.0, 0.5, size=(6, DIM))
    return np.clip(data, 0, 100), np.clip(queries, 0, 100)


def params(**overrides):
    defaults = dict(num_trees=3, hilbert_order=6, num_references=4,
                    alpha=64, gamma=16, domain=(0.0, 100.0), seed=5)
    defaults.update(overrides)
    return HDIndexParams(**defaults)


class TestSpecSnapshotsReopen:
    @pytest.mark.parametrize("shards", [1, 2], ids=["plain", "sharded"])
    @pytest.mark.parametrize("kind", sorted(EXECUTIONS))
    def test_reopens_byte_identically_and_records_no_kind(
            self, workload, tmp_path, kind, shards):
        data, queries = workload
        execution = EXECUTIONS[kind]
        spec = IndexSpec(params=params(), topology=Topology(shards=shards),
                         execution=execution)
        index = repro.build(spec, data, storage_dir=tmp_path)
        expected = index.query_batch(queries, K)
        index.close()

        top = tmp_path / ("manifest.json" if shards > 1 else "meta.json")
        assert json.loads(top.read_text())["spec"]["execution"]["kind"] \
            == "sequential"
        for path in tmp_path.rglob("*.json"):
            meta = json.loads(path.read_text())
            assert "kind" not in meta and "num_workers" not in meta, path

        for opener in (repro.open, load_index):
            with opener(tmp_path) as reopened:
                recorded = reopened.spec
                assert recorded.execution == execution
                assert recorded.topology.shards == shards
                got = reopened.query_batch(queries, K)
                np.testing.assert_array_equal(got[0], expected[0])
                np.testing.assert_array_equal(got[1], expected[1])


def _set_execution(**fields):
    return lambda meta: meta["spec"]["execution"].update(fields)


def _set_topology(**fields):
    return lambda meta: meta["spec"]["topology"].update(fields)


#: Recorded specs a snapshot may not open with.
BAD_SPECS = {
    "no-spec": lambda meta: meta.pop("spec"),
    "no-execution": lambda meta: meta["spec"].pop("execution"),
    "bogus-worker-backend": _set_execution(worker_backend="bogus"),
    "zero-workers": _set_execution(workers=0),
    "zero-shards": _set_topology(shards=0),
}


class TestBadRecordedSpecRefused:
    @pytest.mark.parametrize("case", sorted(BAD_SPECS))
    @pytest.mark.parametrize("shards", [1, 2], ids=["plain", "sharded"])
    def test_raises_persistence_error_naming_migration(
            self, workload, tmp_path, shards, case):
        data, _ = workload
        repro.build(IndexSpec(params=params(),
                              topology=Topology(shards=shards)),
                    data, storage_dir=tmp_path).close()
        path = tmp_path / ("manifest.json" if shards > 1 else "meta.json")
        meta = json.loads(path.read_text())
        BAD_SPECS[case](meta)
        path.write_text(json.dumps(meta))
        for opener in (repro.open, load_index):
            with pytest.raises(PersistenceError, match="MIGRATION"):
                opener(tmp_path)


def _answers_and_counters(index, queries):
    """(ids, dists) of a batch and of each query alone, each call's exact
    counters beside its answer."""
    calls = [index.query_batch(queries, K)]
    calls += [index.query(query, K) for query in queries]
    return [(ids.tobytes(), dists.tobytes(), *_counters(index))
            for ids, dists in calls]


def _counters(index):
    stats = index.last_query_stats()
    return (stats.page_reads, stats.distance_computations,
            stats.candidates)


def _holds_no_pool(index):
    """No worker pool on the index, its shards or their engines, and no
    worker process forked."""
    parts = getattr(index, "shards", []) + [index]
    held = [value for part in parts
            for owner in (part, getattr(part, "_engine", part))
            for value in vars(owner).values()]
    return (not any(isinstance(value, SnapshotWorkerPool) for value in held)
            and not multiprocessing.active_children())


def _record(directory, **fields):
    """Rewrite every ``meta.json`` / ``manifest.json`` under
    ``directory`` (each shard's too) to record ``fields``."""
    for path in directory.rglob("*.json"):
        meta = json.loads(path.read_text())
        meta["spec"]["execution"].update(fields)
        path.write_text(json.dumps(meta))


class TestLegacyThreadSpecsOpenSequential:
    """``"thread"`` and ``"threaded"`` are spellings of ``"sequential"``:
    what a thread pool persisted still opens, and answers as sequential
    execution does, counter for counter."""

    @pytest.mark.parametrize("shards", [1, 2], ids=["plain", "sharded"])
    def test_thread_snapshot_opens_sequential(self, workload, tmp_path,
                                              shards):
        data, queries = workload
        sequential, legacy = tmp_path / "sequential", tmp_path / "legacy"
        repro.build(IndexSpec(params=params(),
                              topology=Topology(shards=shards)),
                    data, storage_dir=sequential).close()
        shutil.copytree(sequential, legacy)
        _record(legacy, kind="thread", workers=3)
        with repro.open(sequential) as oracle, \
                repro.open(legacy) as reopened:
            assert reopened.spec.execution.kind == "sequential"
            parts = getattr(reopened, "shards", [reopened])
            assert len(parts) == shards
            assert _answers_and_counters(reopened, queries) \
                == _answers_and_counters(oracle, queries)
            assert _holds_no_pool(reopened)

    def test_threaded_spec_dict_builds_sequential(self, workload, tmp_path):
        data, queries = workload
        spec = {"params": dataclasses.asdict(params()),
                "execution": {"kind": "threaded", "workers": 2}}
        repro.build(spec, data, storage_dir=tmp_path / "legacy").close()
        repro.build(IndexSpec(params=params()), data,
                    storage_dir=tmp_path / "sequential").close()
        with repro.open(tmp_path / "sequential") as oracle, \
                repro.open(tmp_path / "legacy") as reopened:
            assert reopened.spec.execution.kind == "sequential"
            assert _answers_and_counters(reopened, queries) \
                == _answers_and_counters(oracle, queries)


class TestRecordedProcessSpecsOpenInProcess:
    """An index answers in-process: a snapshot whose spec records the
    per-tree process pool an older release ran opens through either
    opener with no pool, answering as the sequential index does,
    counter for counter."""

    @pytest.mark.parametrize("shards", [1, 2], ids=["plain", "sharded"])
    def test_process_snapshot_opens_in_process(self, workload, tmp_path,
                                               shards):
        data, queries = workload
        sequential, legacy = tmp_path / "sequential", tmp_path / "legacy"
        repro.build(IndexSpec(params=params(),
                              topology=Topology(shards=shards)),
                    data, storage_dir=sequential).close()
        shutil.copytree(sequential, legacy)
        _record(legacy, kind="process", workers=2)
        with repro.open(sequential) as oracle:
            want = _answers_and_counters(oracle, queries)
        for opener in (repro.open, load_index):
            with opener(legacy) as reopened:
                assert reopened.spec.execution.kind == "sequential"
                assert reopened.spec.execution.workers == 2
                assert _answers_and_counters(reopened, queries) == want
                assert _holds_no_pool(reopened)

    @pytest.mark.parametrize("wal", [True, False])
    def test_recorded_wal_is_honoured(self, workload, tmp_path, wal):
        data, queries = workload
        repro.build(IndexSpec(params=params()), data,
                    storage_dir=tmp_path).close()
        _record(tmp_path, kind="process", wal=wal)
        with repro.open(tmp_path) as reopened:
            assert reopened.spec.execution.wal is wal
            new_id = reopened.insert(queries[0])
            assert (reopened._wal is not None) is wal
            assert int(reopened.query(queries[0], 1)[0][0]) == new_id
            assert _holds_no_pool(reopened)
        assert (tmp_path / "wal.log").exists() is wal
