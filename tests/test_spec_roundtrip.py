"""A snapshot records one thing about its deployment: its ``spec``.

* the ``spec`` section of ``meta.json`` / ``manifest.json`` is written
  byte for byte as releases with a ``Topology`` and an ``Execution``
  wrote it (literals taken from such a release), and only its
  ``shards`` and ``wal`` are read back;
* every {plain, sharded} x {auto, un-logged} snapshot reopens
  byte-identically through both ``repro.open()`` and ``load_index()``,
  and its ``meta.json`` / ``manifest.json`` carry no ``kind`` tag;
* a snapshot whose recorded dispatch names a pool (``"process"``), a
  kind this release never had (``"fiber"``), the removed ``"thread"``
  spelling, a ``"file"`` worker backend or zero workers opens in-process
  — no pool, no worker forked — with the sequential answers and exact
  counters, its recorded ``wal`` still honoured;
* a snapshot whose recorded spec, shard count or log policy is missing
  or invalid is refused with a typed ``PersistenceError`` naming
  ``docs/MIGRATION.md``.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil

import numpy as np
import pytest

import repro
from repro import HDIndexParams, IndexSpec, ShardRouter, load_index
from repro.core import PersistenceError, SnapshotWorkerPool, save_index

DIM = 16
K = 6


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


def spec_text(shards, wal):
    """The ``spec`` section as ``json.dumps(meta, indent=2)`` lays it out
    (the text between ``"spec"`` and the next key), as written by the
    release whose ``IndexSpec`` held a topology and an execution."""
    return ('"spec": {\n'
            '    "topology": {\n'
            f'      "shards": {shards},\n'
            '      "shard_backends": null,\n'
            '      "replicas": 1\n'
            '    },\n'
            '    "execution": {\n'
            '      "kind": "sequential",\n'
            '      "workers": null,\n'
            '      "worker_backend": "mmap",\n'
            '      "worker_timeout": null,\n'
            f'      "wal": {json.dumps(wal)}\n'
            '    }\n'
            '  },\n')


def written_spec(path):
    text = path.read_text()
    start = text.index('"spec"')
    return text[start:text.index('\n  "', start) + 1]


class TestSpecSectionPinned:
    """Built through calls every release takes (bare params, a router
    with a shard count, a reopen with a ``wal`` override, a re-save), so
    the pins hold before and after the spec lost its topology and
    execution."""

    @pytest.mark.parametrize("wal", [None, True, False],
                             ids=["auto", "logged", "volatile"])
    def test_plain_meta_json(self, workload, tmp_path, wal):
        data, _ = workload
        repro.build(params(), data, storage_dir=tmp_path).close()
        if wal is not None:
            with repro.open(tmp_path, wal=wal) as index:
                save_index(index, tmp_path)
        assert written_spec(tmp_path / "meta.json") == spec_text(1, wal)

    @pytest.mark.parametrize("wal", [None, False],
                             ids=["auto", "volatile"])
    def test_sharded_manifest_json(self, workload, tmp_path, wal):
        data, _ = workload
        router = ShardRouter(params(), 2)
        router.build(data)
        save_index(router, tmp_path)
        router.close()
        manifest = tmp_path / "manifest.json"
        if wal is not None:
            recorded = json.loads(manifest.read_text())
            recorded["spec"]["execution"]["wal"] = wal
            manifest.write_text(json.dumps(recorded))
            with repro.open(tmp_path) as index:
                save_index(index, tmp_path)
        assert written_spec(manifest) == spec_text(2, wal)
        for shard in ("shard_0", "shard_1"):
            assert written_spec(tmp_path / shard / "meta.json") \
                == spec_text(1, False)


class TestSpecSnapshotsReopen:
    @pytest.mark.parametrize("shards", [1, 2], ids=["plain", "sharded"])
    @pytest.mark.parametrize("wal", [None, False], ids=["auto", "volatile"])
    def test_reopens_byte_identically_and_records_no_kind(
            self, workload, tmp_path, wal, shards):
        data, queries = workload
        spec = IndexSpec(params=params(), shards=shards, wal=wal)
        index = repro.build(spec, data, storage_dir=tmp_path)
        expected = index.query_batch(queries, K)
        index.close()

        for path in tmp_path.rglob("*.json"):
            meta = json.loads(path.read_text())
            assert "kind" not in meta and "num_workers" not in meta, path

        for opener in (repro.open, load_index):
            with opener(tmp_path) as reopened:
                assert reopened.spec == IndexSpec(
                    params=reopened.params, shards=shards, wal=wal)
                got = reopened.query_batch(queries, K)
                np.testing.assert_array_equal(got[0], expected[0])
                np.testing.assert_array_equal(got[1], expected[1])


def _set(section, **fields):
    return lambda meta: meta["spec"][section].update(fields)


#: Recorded specs a snapshot may not open with.
BAD_SPECS = {
    "no-spec": lambda meta: meta.pop("spec"),
    "no-execution": lambda meta: meta["spec"].pop("execution"),
    "zero-shards": _set("topology", shards=0),
    "bad-wal": _set("execution", wal="yes"),
}


class TestBadRecordedSpecRefused:
    @pytest.mark.parametrize("case", sorted(BAD_SPECS))
    @pytest.mark.parametrize("shards", [1, 2], ids=["plain", "sharded"])
    def test_raises_persistence_error_naming_migration(
            self, workload, tmp_path, shards, case):
        data, _ = workload
        repro.build(IndexSpec(params=params(), shards=shards),
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


#: Recorded dispatch fields a snapshot opens in-process with.
IGNORED_DISPATCH = {
    "process": {"kind": "process", "workers": 2},
    "fiber": {"kind": "fiber"},
    "thread": {"kind": "thread", "workers": 3},
    "file-worker-backend": {"worker_backend": "file"},
    "zero-workers": {"workers": 0},
}


class TestRecordedDispatchIsIgnored:
    """An index answers in-process: whatever dispatch a snapshot's spec
    records, it opens through either opener with no pool, answering as
    the sequential index does, counter for counter."""

    @pytest.mark.parametrize("case", sorted(IGNORED_DISPATCH))
    @pytest.mark.parametrize("shards", [1, 2], ids=["plain", "sharded"])
    def test_opens_in_process_with_the_sequential_answers(
            self, workload, tmp_path, shards, case):
        data, queries = workload
        sequential, legacy = tmp_path / "sequential", tmp_path / "legacy"
        repro.build(IndexSpec(params=params(), shards=shards),
                    data, storage_dir=sequential).close()
        shutil.copytree(sequential, legacy)
        _record(legacy, **IGNORED_DISPATCH[case])
        with repro.open(sequential) as oracle:
            want = _answers_and_counters(oracle, queries)
        for opener in (repro.open, load_index):
            with opener(legacy) as reopened:
                assert len(getattr(reopened, "shards", [reopened])) \
                    == shards
                assert _answers_and_counters(reopened, queries) == want
                assert _holds_no_pool(reopened)

    @pytest.mark.parametrize("wal", [True, False])
    def test_recorded_wal_is_honoured(self, workload, tmp_path, wal):
        data, queries = workload
        repro.build(IndexSpec(params=params()), data,
                    storage_dir=tmp_path).close()
        _record(tmp_path, kind="process", wal=wal)
        with repro.open(tmp_path) as reopened:
            assert reopened.spec.wal is wal
            new_id = reopened.insert(queries[0])
            assert (reopened._wal is not None) is wal
            assert int(reopened.query(queries[0], 1)[0][0]) == new_id
            assert _holds_no_pool(reopened)
        assert (tmp_path / "wal.log").exists() is wal

    def test_recorded_replicas_are_written_as_one(self, workload, tmp_path):
        data, _ = workload
        repro.build(IndexSpec(params=params(), shards=2), data,
                    storage_dir=tmp_path).close()
        manifest = tmp_path / "manifest.json"
        recorded = json.loads(manifest.read_text())
        recorded["spec"]["topology"]["replicas"] = 3
        manifest.write_text(json.dumps(recorded))
        with repro.open(tmp_path) as index:
            save_index(index, tmp_path)
        assert written_spec(manifest) == spec_text(2, None)
