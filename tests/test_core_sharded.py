"""Tests for the sharded (distributed) HD-Index extension."""

import json

import numpy as np
import pytest

from repro.core import (
    HDIndexParams,
    IndexSpec,
    ShardRouter,
    build,
    create_index,
    open_index,
)
from repro.eval import exact_knn, recall_at_k
from repro.wal import WalError, WriteAheadLog, replay_wal


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(123)
    centers = rng.uniform(0.0, 100.0, size=(6, 16))
    data = np.vstack([
        center + rng.normal(0.0, 3.0, size=(60, 16)) for center in centers])
    # Shuffle so clusters are spread over shards, as in a real deployment.
    data = data[rng.permutation(len(data))]
    queries = data[rng.choice(len(data), 8, replace=False)] \
        + rng.normal(0.0, 0.5, size=(8, 16))
    return np.clip(data, 0, 100), np.clip(queries, 0, 100)


def params(**overrides):
    defaults = dict(num_trees=4, num_references=5, alpha=96, gamma=32,
                    domain=(0.0, 100.0), seed=0)
    defaults.update(overrides)
    return HDIndexParams(**defaults)


class TestShardRouter:
    def test_global_ids_are_consistent(self, workload):
        data, queries = workload
        index = ShardRouter(params(), 3)
        index.build(data)
        # Querying with a database point must return its global id.
        for probe in (0, len(data) // 2, len(data) - 1):
            ids, dists = index.query(data[probe], 1)
            assert ids[0] == probe
            assert dists[0] < 1e-3

    def test_quality_close_to_unsharded(self, workload):
        data, queries = workload
        sharded = ShardRouter(params(), 3)
        sharded.build(data)
        k = 10
        true_ids, _ = exact_knn(data, queries, k)
        recalls = [recall_at_k(true_ids[row], sharded.query(q, k)[0], k)
                   for row, q in enumerate(queries)]
        assert np.mean(recalls) > 0.8

    def test_merge_is_sorted_by_distance(self, workload):
        data, queries = workload
        index = ShardRouter(params(), 4)
        index.build(data)
        _, dists = index.query(queries[0], 12)
        assert np.all(np.diff(dists) >= 0)

    def test_single_shard_equals_plain_index(self, workload):
        from repro.core import HDIndex
        data, queries = workload
        plain = HDIndex(params())
        one_shard = ShardRouter(params(), 1)
        plain.build(data)
        one_shard.build(data)
        ids_a, _ = plain.query(queries[0], 10)
        ids_b, _ = one_shard.query(queries[0], 10)
        np.testing.assert_array_equal(ids_a, ids_b)

    def test_insert_gets_fresh_global_id(self, workload):
        data, _ = workload
        index = ShardRouter(params(), 3)
        index.build(data)
        point = np.full(16, 50.0)
        new_id = index.insert(point)
        assert new_id == len(data)
        ids, _ = index.query(point, 1)
        assert ids[0] == new_id

    def test_per_shard_stats_aggregate(self, workload):
        data, queries = workload
        index = ShardRouter(params(), 2)
        index.build(data)
        index.query(queries[0], 5)
        stats = index.last_query_stats()
        assert stats.extra["shards"] == 2
        assert stats.page_reads > 0

    def test_build_memory_is_per_machine(self, workload):
        """Distributed build RAM is the max over shards, not the sum."""
        data, _ = workload
        index = ShardRouter(params(), 3)
        index.build(data)
        per_shard = [s.build_memory_bytes() for s in index.shards]
        assert index.build_memory_bytes() == max(per_shard)

    def test_invalid_configuration(self, workload):
        data, _ = workload
        with pytest.raises(ValueError):
            ShardRouter(params(), 0)
        tiny = ShardRouter(params(), 10)
        with pytest.raises(ValueError):
            tiny.build(data[:5])

    def test_query_before_build_rejected(self):
        with pytest.raises(RuntimeError):
            ShardRouter(params()).query(np.zeros(16), 1)


def _sharded_snapshot(workload, directory):
    data, _ = workload
    build(IndexSpec(params=params(), shards=2), data,
          storage_dir=directory).close()
    return directory


def _assert_same_answers(got, want):
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


class TestShardedKeepsNoLog:
    """A sharded deployment's updates are volatile until compact(): every
    way to give it a write-ahead log is refused, and a root an older
    release logged opens only when no logged update would be lost."""

    def test_every_route_to_a_log_is_refused(self, workload, tmp_path):
        with pytest.raises(ValueError, match="no write-ahead log"):
            ShardRouter(params(), 2, wal=True)
        with pytest.raises(ValueError, match="no write-ahead log"):
            create_index(IndexSpec(params=params(), shards=2, wal=True),
                         storage_dir=tmp_path / "new")
        directory = _sharded_snapshot(workload, tmp_path / "snap")
        with pytest.raises(ValueError, match="no write-ahead log"):
            open_index(directory, wal=True)
        assert not (directory / "wal.log").exists()

    def test_a_logged_root_opens_only_with_an_empty_log(self, workload,
                                                       tmp_path):
        data, queries = workload
        directory = _sharded_snapshot(workload, tmp_path / "snap")
        with open_index(directory) as router:
            want = router.query_batch(queries, 5)
        (directory / "wal.log").write_bytes(b"")  # truncated by a compaction
        with open_index(directory) as router:
            _assert_same_answers(router.query_batch(queries, 5), want)
        log = WriteAheadLog(directory / "wal.log")
        log.append_insert(len(data), queries[0], shard=0)
        log.close()
        with pytest.raises(WalError, match="wal=False"):
            open_index(directory)
        with open_index(directory, wal=False) as router:
            assert router.count == len(data)
            _assert_same_answers(router.query_batch(queries, 5), want)
        assert len(replay_wal(directory / "wal.log")[0]) == 1

    def test_recorded_backends_and_log_policy_are_ignored(self, workload,
                                                          tmp_path):
        _, queries = workload
        directory = _sharded_snapshot(workload, tmp_path / "snap")
        with open_index(directory) as router:
            want = router.query_batch(queries, 5)
        path = directory / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["spec"]["topology"]["shard_backends"] = ["memory", "mmap"]
        manifest["spec"]["execution"]["wal"] = True
        path.write_text(json.dumps(manifest, indent=2))
        with open_index(directory) as router:
            assert router.spec.wal is None
            assert all(shard.heap.path is not None
                       for shard in router.shards)
            _assert_same_answers(router.query_batch(queries, 5), want)

    def test_an_older_shard_generation_chain_resolves(self, workload,
                                                      tmp_path):
        """Older releases compacted a logged root into ``shard_<s>/gen-*``:
        the shard opens from the generation its ``CURRENT`` names, and
        compact() folds into that generation."""
        data, queries = workload
        directory = _sharded_snapshot(workload, tmp_path / "snap")
        with open_index(directory) as router:
            want = router.query_batch(queries, 5)
        shard_root = directory / "shard_0"
        generation = shard_root / "gen-000001"
        generation.mkdir()
        for path in list(shard_root.iterdir()):
            if path.is_file():
                path.rename(generation / path.name)
        (shard_root / "CURRENT").write_text("gen-000001\n")
        probe = np.full(data.shape[1], 50.0)
        with open_index(directory) as router:
            _assert_same_answers(router.query_batch(queries, 5), want)
            new_id = router.insert(probe)
            assert router._locate(new_id)[0] == 0
            router.compact()
        assert sorted(path.name for path in shard_root.iterdir()) \
            == ["CURRENT", "gen-000001"]
        with open_index(directory) as router:
            ids, dists = router.query(probe, 1)
            assert ids[0] == new_id and dists[0] < 1e-3
