"""A snapshot records one thing about its deployment: its ``spec``.

* the ``spec`` section of ``meta.json`` is written byte for byte as
  releases with a ``Topology`` and an ``Execution`` wrote it (literals
  taken from such a release), and only its ``wal`` is read back;
* every {auto, un-logged} snapshot reopens byte-identically through
  both ``repro.open()`` and ``load_index()``, mapped or read into RAM,
  and its ``meta.json`` carries no ``kind`` tag;
* a snapshot whose recorded dispatch names a pool (``"process"``), a
  kind this release never had (``"fiber"``), the removed ``"thread"``
  spelling, a ``"file"`` worker backend or zero workers opens in-process
  — no pool, no worker forked — with the sequential answers and exact
  counters, its recorded ``wal`` still honoured;
* a snapshot whose recorded spec or log policy is missing or invalid,
  or whose shard count is not 1, is refused with a typed
  ``PersistenceError`` naming ``docs/MIGRATION.md`` by every opener and
  ``QueryService.from_snapshot``, whichever backend is asked for.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil

import numpy as np
import pytest

import repro
from repro import HDIndexParams, IndexSpec, load_index
from repro.core import PersistenceError, SnapshotWorkerPool, save_index
from repro.serve import QueryService

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
    """Built through calls every release takes (bare params, a reopen
    with a ``wal`` override, a re-save), so
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


#: The two ways a snapshot's files are opened.
BACKENDS = ["mmap", "memory"]


class TestSpecSnapshotsReopen:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("wal", [None, False], ids=["auto", "volatile"])
    def test_reopens_byte_identically_and_records_no_kind(
            self, workload, tmp_path, wal, backend):
        data, queries = workload
        spec = IndexSpec(params=params(), wal=wal)
        index = repro.build(spec, data, storage_dir=tmp_path)
        expected = index.query_batch(queries, K)
        index.close()

        meta = json.loads((tmp_path / "meta.json").read_text())
        assert "kind" not in meta and "num_workers" not in meta

        for opener in (repro.open, load_index):
            with opener(tmp_path, backend=backend) as reopened:
                assert reopened.params.backend == backend
                assert reopened.spec == IndexSpec(
                    params=reopened.params, wal=wal)
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
    "two-shards": _set("topology", shards=2),
    "bad-wal": _set("execution", wal="yes"),
}


class TestBadRecordedSpecRefused:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("case", sorted(BAD_SPECS))
    def test_raises_persistence_error_naming_migration(
            self, workload, tmp_path, case, backend):
        data, _ = workload
        repro.build(IndexSpec(params=params()), data,
                    storage_dir=tmp_path).close()
        path = tmp_path / "meta.json"
        meta = json.loads(path.read_text())
        BAD_SPECS[case](meta)
        path.write_text(json.dumps(meta))
        for opener in (repro.open, load_index, QueryService.from_snapshot):
            with pytest.raises(PersistenceError, match="MIGRATION"):
                opener(tmp_path, backend=backend)


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
    """No worker pool on the index or its engine, and no worker process
    forked."""
    held = [value for owner in (index, index._engine)
            for value in vars(owner).values()]
    return (not any(isinstance(value, SnapshotWorkerPool) for value in held)
            and not multiprocessing.active_children())


def _record(directory, **fields):
    """Rewrite ``directory``'s ``meta.json`` to record ``fields``."""
    path = directory / "meta.json"
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
    records, it opens through either opener and either backend with no
    pool, answering as the sequential index does, counter for counter."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("case", sorted(IGNORED_DISPATCH))
    def test_opens_in_process_with_the_sequential_answers(
            self, workload, tmp_path, case, backend):
        data, queries = workload
        sequential, legacy = tmp_path / "sequential", tmp_path / "legacy"
        repro.build(IndexSpec(params=params()), data,
                    storage_dir=sequential).close()
        shutil.copytree(sequential, legacy)
        _record(legacy, **IGNORED_DISPATCH[case])
        with repro.open(sequential, backend=backend) as oracle:
            want = _answers_and_counters(oracle, queries)
        for opener in (repro.open, load_index):
            with opener(legacy, backend=backend) as reopened:
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
        repro.build(IndexSpec(params=params()), data,
                    storage_dir=tmp_path).close()
        meta_path = tmp_path / "meta.json"
        recorded = json.loads(meta_path.read_text())
        recorded["spec"]["topology"]["replicas"] = 3
        meta_path.write_text(json.dumps(recorded))
        with repro.open(tmp_path) as index:
            save_index(index, tmp_path)
        assert written_spec(meta_path) == spec_text(1, None)
