"""Edge-case contracts across the whole HD-Index family.

Every variant — τ trees or one, in memory or mapped from its files,
with or without a write-ahead log or the Ptolemaic filter — must agree
on the boundary behaviours a serving tier leans on: ``k`` validation,
non-finite input, querying before ``build()``, ``k > n``, a single-point
index, and querying after every point has been deleted (the empty
surviving-candidate set, which must not touch the descriptor heap at
all).
"""

from __future__ import annotations

import dataclasses
import signal

import numpy as np
import pytest

from repro.core import (
    HDIndex,
    HDIndexParams,
    IndexSpec,
    create_index,
)

DIM = 8
K = 3


def _params(**overrides):
    defaults = dict(num_trees=2, hilbert_order=5, num_references=3,
                    alpha=16, gamma=8, domain=(-3.0, 3.0), seed=2)
    defaults.update(overrides)
    return HDIndexParams(**defaults)


def _data(n: int) -> np.ndarray:
    rng = np.random.default_rng(31)
    return np.clip(rng.normal(0.0, 1.0, size=(n, DIM)), -3.0, 3.0)


def _make_hdindex(tmp_path):
    return HDIndex(_params())


def _make_one_tree(tmp_path):
    """One tree: stage (ii) filters a block that repeats no id."""
    return HDIndex(_params(num_trees=1))


def _make_disk(tmp_path):
    return create_index(IndexSpec(
        params=_params(storage_dir=str(tmp_path), backend="mmap")))


def _make_ptolemaic(tmp_path):
    """Stage (ii) runs the Ptolemaic filter after the triangular one."""
    return HDIndex(_params(use_ptolemaic=True))


def _make_logged(tmp_path):
    """Every insert and delete is framed in the write-ahead log first,
    so a refused call must be refused before its frame is written."""
    return create_index(IndexSpec(
        params=_params(storage_dir=str(tmp_path)), wal=True))


FAMILY = [
    pytest.param(_make_hdindex, id="hdindex"),
    pytest.param(_make_one_tree, id="one-tree"),
    pytest.param(_make_disk, id="disk"),
    pytest.param(_make_ptolemaic, id="ptolemaic"),
    pytest.param(_make_logged, id="logged"),
]


@pytest.fixture
def deadline():
    """Turn a hang into a failure: ``build()`` over a NaN used to spin
    forever inside SSS reference selection, which would otherwise come
    back as a stuck CI job rather than a red test."""
    def expired(signum, frame):
        raise TimeoutError("test exceeded its 60 s deadline")
    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("make_index", FAMILY)
class TestValidation:
    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, make_index, tmp_path, poison,
                                       deadline):
        """NaN/inf is refused at every entry — build, insert, query,
        query_batch — and a refused call leaves the index serving."""
        data = _data(20)
        bad = data[7].copy()
        bad[3] = poison
        broken = make_index(tmp_path / "broken")
        try:
            with pytest.raises(ValueError, match="NaN or infinite"):
                broken.build(np.vstack([data[:7], bad, data[8:]]))
        finally:
            broken.close()
        index = make_index(tmp_path / "index")
        index.build(data)
        try:
            for call in (lambda: index.insert(bad),
                         lambda: index.query(bad, K),
                         lambda: index.query_batch(
                             np.vstack([data[0], bad]), K)):
                with pytest.raises(ValueError, match="NaN or infinite"):
                    call()
            assert index.count == 20
            ids, dists = index.query(data[7], K)
            assert ids[0] == 7 and np.all(np.isfinite(dists))
        finally:
            index.close()

    def test_k_zero_and_negative_rejected(self, make_index, tmp_path):
        index = make_index(tmp_path)
        index.build(_data(20))
        try:
            point = np.zeros(DIM)
            for bad_k in (0, -1):
                with pytest.raises(ValueError, match="k"):
                    index.query(point, bad_k)
                with pytest.raises(ValueError, match="k"):
                    index.query_batch(point[None, :], bad_k)
        finally:
            index.close()

    def test_query_before_build_rejected(self, make_index, tmp_path):
        index = make_index(tmp_path)
        with pytest.raises(RuntimeError, match="build"):
            index.query(np.zeros(DIM), K)
        with pytest.raises(RuntimeError, match="build"):
            index.query_batch(np.zeros((1, DIM)), K)


@pytest.mark.parametrize("make_index", FAMILY)
class TestKLargerThanN:
    def test_single_query_returns_all_points(self, make_index, tmp_path):
        n = 6
        index = make_index(tmp_path)
        # α covering the dataset makes every member exact, so k > n must
        # surface every point exactly once, sorted by distance.
        index.build(_data(n))
        try:
            ids, dists = index.query(np.zeros(DIM), k=n + 10)
            assert ids.shape == dists.shape
            assert ids.shape[0] == n
            assert sorted(ids.tolist()) == list(range(n))
            assert np.all(np.diff(dists) >= 0)
        finally:
            index.close()

    def test_batch_pads_missing_rows(self, make_index, tmp_path):
        n = 6
        k = n + 4
        index = make_index(tmp_path)
        index.build(_data(n))
        try:
            ids, dists = index.query_batch(np.zeros((2, DIM)), k=k)
            assert ids.shape == (2, k) and dists.shape == (2, k)
            for row in range(2):
                assert np.all(ids[row, :n] >= 0)
                assert np.all(ids[row, n:] == -1)
                assert np.all(np.isinf(dists[row, n:]))
        finally:
            index.close()


def _make_singleton(factory, tmp_path):
    """A single point can host at most one reference object (m <= n)."""
    index = factory(tmp_path)
    index.params = dataclasses.replace(index.params, num_references=1)
    return index


@pytest.mark.parametrize("make_index", FAMILY)
class TestSinglePointIndex:
    def test_only_point_always_answers(self, make_index, tmp_path):
        data = _data(1)
        index = _make_singleton(make_index, tmp_path)
        index.build(data)
        try:
            ids, dists = index.query(data[0], K)
            assert ids.tolist() == [0]
            assert dists[0] < 1e-6
            ids, dists = index.query_batch(np.zeros((3, DIM)), K)
            assert np.all(ids[:, 0] == 0)
            assert np.all(ids[:, 1:] == -1)
        finally:
            index.close()


@pytest.mark.parametrize("make_index", FAMILY)
class TestDeleteAll:
    def test_query_after_deleting_everything(self, make_index, tmp_path):
        """The empty surviving-candidate set end to end: empty results,
        padded batch rows, and — the regression this guards — zero
        descriptor-heap reads (the store must not be touched when no
        candidate survives)."""
        n = 12
        index = make_index(tmp_path)
        index.build(_data(n))
        try:
            for object_id in range(n):
                index.delete(object_id)
            reads_before = index.heap.stats.page_reads
            ids, dists = index.query(np.zeros(DIM), K)
            assert ids.shape == (0,) and dists.shape == (0,)
            batch_ids, batch_dists = index.query_batch(
                np.zeros((2, DIM)), K)
            assert np.all(batch_ids == -1)
            assert np.all(np.isinf(batch_dists))
            assert index.heap.stats.page_reads == reads_before, \
                "empty candidate set must not touch the descriptor heap"
        finally:
            index.close()

    def test_insert_after_delete_all_revives(self, make_index, tmp_path):
        n = 8
        index = make_index(tmp_path)
        data = _data(n)
        index.build(data)
        try:
            for object_id in range(n):
                index.delete(object_id)
            new_id = index.insert(np.full(DIM, 0.5))
            ids, dists = index.query(np.full(DIM, 0.5), K)
            assert ids.tolist() == [new_id]
            assert dists[0] < 1e-5
        finally:
            index.close()
