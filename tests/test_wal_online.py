"""End-to-end online-update acceptance sweep.

The PR's headline contract, in one test: a sustained interleaved
workload — over a thousand inserts plus deletes through the WAL, with
concurrent readers hammering the index the whole time — across two
compactions (each a generation hot swap when logged), must

* return **byte-identical** neighbours to an index freshly built from
  the same stream in one shot (exhaustive regime: α ≥ n, γ = α),
* fail **zero** queries,
* and never rewrite the snapshot on the write path (the O(n) resync
  this subsystem replaces).

It runs twice: with the write-ahead log attached, and without one
(``IndexSpec(wal=False)``) — same write path, same answers; only the
compactions differ (in place, readers held off, no new generation).
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np
import pytest

from repro.core import (
    HDIndex,
    HDIndexParams,
    IndexSpec,
    build,
)
from repro.wal.manager import open_log

DIM = 4
BASE_N = 400
INSERTS = 1000
DELETE_EVERY = 9          # one delete per nine inserts -> 111 deletes
COMPACT_AT = (400, 800)   # two compactions mid-stream
WAIT = 120.0


def _params(directory=None):
    total = BASE_N + INSERTS
    return HDIndexParams(num_trees=2, hilbert_order=6, num_references=4,
                         alpha=2 * total, gamma=2 * total,
                         use_ptolemaic=False, domain=(0.0, 100.0), seed=13,
                         storage_dir=directory)


@pytest.mark.parametrize("logged", [True, False])
def test_sustained_online_updates_acceptance(tmp_path, monkeypatch, logged):
    rng = np.random.default_rng(99)
    base = rng.uniform(0.0, 100.0, size=(BASE_N, DIM))
    stream = rng.uniform(0.0, 100.0, size=(INSERTS, DIM))
    probe = base[rng.choice(BASE_N, 8, replace=False)]

    index = build(
        IndexSpec(params=_params(str(tmp_path / "snap")), wal=logged),
        base, storage_dir=str(tmp_path / "snap"))
    index._wal_fsync = "batch"
    assert (open_log(index) is not None) == logged
    # A logged compaction swaps generations under live readers; an
    # un-logged one rewrites the base in place, so readers wait it out.
    gate = contextlib.nullcontext() if logged else threading.Lock()

    import repro.core.persistence as persistence
    saves: list[object] = []
    real_save = persistence.save_index
    monkeypatch.setattr(
        persistence, "save_index",
        lambda *a, **kw: saves.append(a) or real_save(*a, **kw))

    errors: list[Exception] = []
    answered = [0]
    stop = threading.Event()

    def reader(offset):
        reader_rng = np.random.default_rng(1000 + offset)
        while not stop.is_set():
            query = probe[reader_rng.integers(0, len(probe))]
            try:
                with gate:
                    ids, dists = index.query(query, 5)
                assert len(ids) == 5
                answered[0] += 1
            except Exception as error:  # pragma: no cover - fails test
                errors.append(error)
                return

    readers = [threading.Thread(target=reader, args=(r,)) for r in range(2)]
    for thread in readers:
        thread.start()

    deleted: set[int] = set()
    generations = []
    try:
        for position, vector in enumerate(stream):
            assigned = index.insert(vector)
            assert assigned == BASE_N + position
            if position % DELETE_EVERY == 0:
                victim = int(rng.integers(0, BASE_N + position + 1))
                if victim not in deleted:
                    index.delete(victim)
                    deleted.add(victim)
            if position + 1 in COMPACT_AT:
                with gate:
                    generations.append(index.compact())
    finally:
        stop.set()
        for thread in readers:
            thread.join(WAIT)

    assert errors == []
    assert answered[0] > 0, "readers never got a query through"
    assert generations == ([1, 2] if logged else [0, 0])
    assert index.generation == generations[-1]
    # The write path never re-persisted the serving snapshot; the only
    # saves are the two compactions — into *new* generation directories
    # when logged, over the snapshot itself otherwise.
    compaction_saves = [args for args in saves
                        if ("gen-" in str(args[1])) == logged]
    assert len(saves) == len(compaction_saves) == 2

    # Byte-identical parity with a one-shot oracle over the full stream.
    oracle = HDIndex(_params())
    oracle.build(np.vstack([base, stream]))
    for victim in deleted:
        oracle.delete(victim)
    try:
        for query in probe:
            ids, dists = index.query(query, 10)
            oracle_ids, oracle_dists = oracle.query(query, 10)
            np.testing.assert_array_equal(ids, oracle_ids)
            np.testing.assert_array_equal(dists, oracle_dists)
            assert not (set(int(i) for i in ids) & deleted)
    finally:
        oracle.close()
        monkeypatch.undo()
        index.close()
