"""Deprecation policy for the pre-IndexSpec API.

The old per-combination classes and the string-typed service ``mode=``
keyword must (a) keep working — existing user code and snapshots cannot
break — and (b) emit ``DeprecationWarning`` pointing at the spec
equivalent.  The CI deprecation job runs tier-1 with
``-W error::DeprecationWarning``; only the tests here (and the legacy
round-trip suite) opt back in via explicit expectations, so any *internal*
code path that still touches a shim fails the build.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import (
    HDIndexParams,
    ParallelHDIndex,
    ProcessPoolHDIndex,
    QueryService,
    ShardedHDIndex,
)
from repro.core import ShardRouter, ThreadedExecutor
from repro.core.engine import ProcessExecutor

DIM = 8
K = 3


def _params(**overrides):
    defaults = dict(num_trees=2, hilbert_order=5, num_references=3,
                    alpha=16, gamma=8, domain=(0.0, 10.0), seed=0)
    defaults.update(overrides)
    return HDIndexParams(**defaults)


def _data(n=64):
    rng = np.random.default_rng(7)
    return np.clip(rng.uniform(0.0, 10.0, size=(n, DIM)), 0.0, 10.0)


class TestShimsWarnButWork:
    def test_parallel_shim(self):
        data = _data()
        with pytest.warns(DeprecationWarning, match="ParallelHDIndex"):
            index = ParallelHDIndex(_params(), num_workers=2)
        assert isinstance(index.executor, ThreadedExecutor)
        index.build(data)
        ids, dists = index.query(data[3], K)
        assert ids[0] == 3 and dists[0] < 1e-3
        index.close()

    def test_sharded_shim(self):
        data = _data()
        with pytest.warns(DeprecationWarning, match="ShardedHDIndex"):
            index = ShardedHDIndex(_params(), num_shards=2)
        assert isinstance(index, ShardRouter)
        assert index.num_shards == 2
        index.build(data)
        ids, _ = index.query(data[5], K)
        assert ids[0] == 5
        index.close()

    def test_process_shim(self, tmp_path):
        data = _data()
        with pytest.warns(DeprecationWarning, match="ProcessPoolHDIndex"):
            index = ProcessPoolHDIndex(_params(storage_dir=str(tmp_path)),
                                       num_workers=1)
        assert isinstance(index.executor, ProcessExecutor)
        index.build(data)
        ids, _ = index.query(data[4], K)
        assert ids[0] == 4
        index.close()

    def test_process_shim_from_snapshot_warns_and_rejects_sharded(
            self, tmp_path):
        data = _data()
        plain_dir = tmp_path / "plain"
        index = repro.build(repro.IndexSpec(params=_params()), data,
                            storage_dir=plain_dir)
        expected = index.query(data[2], K)
        index.close()
        with pytest.warns(DeprecationWarning, match="from_snapshot"):
            reopened = ProcessPoolHDIndex.from_snapshot(plain_dir,
                                                        num_workers=1)
        try:
            np.testing.assert_array_equal(reopened.query(data[2], K)[0],
                                          expected[0])
        finally:
            reopened.close()

        sharded_dir = tmp_path / "sharded"
        repro.build(repro.IndexSpec(params=_params(),
                                    topology=repro.Topology(shards=2)),
                    data, storage_dir=sharded_dir).close()
        from repro.core import PersistenceError
        with pytest.warns(DeprecationWarning):
            with pytest.raises(PersistenceError, match="sharded"):
                ProcessPoolHDIndex.from_snapshot(sharded_dir)

    def test_shim_validation_still_first_class(self):
        with pytest.warns(DeprecationWarning):
            with pytest.raises(ValueError, match="num_workers"):
                ParallelHDIndex(_params(), num_workers=0)
        with pytest.warns(DeprecationWarning):
            with pytest.raises(ValueError, match="storage_dir"):
                ProcessPoolHDIndex(_params())


class TestServiceModeDeprecation:
    def test_mode_thread_warns_and_serves(self):
        data = _data()
        index = repro.HDIndex(_params())
        index.build(data)
        with pytest.warns(DeprecationWarning, match="mode"):
            service = QueryService(index, mode="thread", max_batch=4)
        with service:
            ids, _ = service.query(data[1], K, timeout=30.0)
        assert ids[0] == 1
        index.close()

    def test_mode_process_warns_and_serves(self, tmp_path):
        data = _data()
        index = repro.build(repro.IndexSpec(params=_params()), data,
                            storage_dir=tmp_path)
        expected = index.query(data[2], K)
        index.close()
        with pytest.warns(DeprecationWarning, match="mode"):
            service = QueryService.from_snapshot(tmp_path, mode="process",
                                                 workers=1, max_batch=4)
        with service:
            assert service.mode == "process"
            ids, _ = service.query(data[2], K, timeout=30.0)
        np.testing.assert_array_equal(ids, expected[0])

    def test_mode_and_execution_together_rejected(self):
        data = _data()
        index = repro.HDIndex(_params())
        index.build(data)
        with pytest.warns(DeprecationWarning):
            with pytest.raises(ValueError, match="not both"):
                QueryService(index, mode="thread", execution="thread")
        index.close()

    def test_unknown_mode_still_rejected(self):
        index = repro.HDIndex(_params())
        with pytest.warns(DeprecationWarning):
            with pytest.raises(ValueError, match="mode"):
                QueryService(index, mode="fiber")


class TestNoWarningsOnTheNewPath:
    def test_spec_api_is_warning_free(self, tmp_path, recwarn):
        import warnings
        data = _data()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            index = repro.build(
                repro.IndexSpec(params=_params(),
                                topology=repro.Topology(shards=2)),
                data, storage_dir=tmp_path)
            index.query(data[0], K)
            index.close()
            repro.open(tmp_path).close()
            loaded = repro.load_index(tmp_path)
            loaded.query_batch(data[:3], K)
            loaded.close()
