"""A snapshot records one thing about its deployment: its ``spec``.

* every {sequential, thread, process} x {plain, sharded} snapshot reopens
  byte-identically through both ``repro.open()`` and ``load_index()``,
  and its ``meta.json`` / ``manifest.json`` carry no ``kind`` tag;
* a snapshot whose recorded ``spec.execution`` or ``spec.topology`` is
  missing or invalid is refused with a typed ``PersistenceError`` naming
  ``docs/MIGRATION.md``.
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
    Topology,
    load_index,
)
from repro.core import PersistenceError

DIM = 16
K = 6

EXECUTIONS = {
    "sequential": Execution(),
    "thread": Execution(kind="thread", workers=2),
    "process": Execution(kind="process", workers=2),
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
            == kind
        for path in tmp_path.rglob("*.json"):
            meta = json.loads(path.read_text())
            assert "kind" not in meta and "num_workers" not in meta, path

        for opener in (repro.open, load_index):
            with opener(tmp_path) as reopened:
                recorded = reopened.spec
                assert recorded.execution.kind == kind
                assert recorded.execution.workers == execution.workers
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
