"""Cross-implementation parity suite for the shared Algo.-2 query engine.

The engine extraction makes drift between the sequential, parallel and
sharded indexes structurally impossible; these tests pin the contract:

* identical (ids, dists) across sequential and thread-parallel `HDIndex`
  executors and the vectorised batch path on the same data/seed;
* ``query_batch`` equals a loop of ``query`` for every topology/execution
  combination;
* the thread-parallel executor reports the same ``QueryStats`` fields —
  including the random/sequential read breakdown the Sec. 5 evaluation
  metrics depend on — as sequential execution (regression: it used to
  drop them);
* the shard router forwards per-call α/β/γ/Ptolemaic overrides and
  supports global-id ``delete``;
* ``query`` is ``query_batch`` at Q = 1, so both are checked against a
  scalar oracle that shares none of the batched kernels (plain, filtered
  and over a WAL delta with deletes; every executor), and the adapter's
  own contract — unpadded short answers, no ``batch_size`` in the stats,
  ``ValueError`` on a wrong dimension — is pinned directly;
* the answers to a seeded workload are frozen as digests, so a kernel
  change that claims "answers unchanged" is checked against the commit
  before it, not against itself.
"""

import collections
import hashlib
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.btree import BPlusTree
from repro.core import (
    Execution,
    HDIndex,
    HDIndexParams,
    IndexSpec,
    QueryEngine,
    SequentialExecutor,
    ShardRouter,
    ThreadedExecutor,
    build,
)
from repro.core import engine as engine_module
from repro.datasets import make_dataset
from repro.devtools.sanitize import node_candidates
from repro.hilbert import HilbertCurve, encode_for_curves
from repro.meta import Eq
from repro.storage import UInt64Codec, UIntCodec
from repro.storage.stats import IOStats
from test_core_filters import python_ptolemaic, python_triangular


def thread_index(p, workers=None):
    return HDIndex(p, executor=ThreadedExecutor(workers))


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(4242)
    centers = rng.uniform(0.0, 100.0, size=(6, 16))
    data = np.vstack([
        center + rng.normal(0.0, 3.0, size=(60, 16)) for center in centers])
    data = data[rng.permutation(len(data))]
    queries = data[rng.choice(len(data), 10, replace=False)] \
        + rng.normal(0.0, 0.5, size=(10, 16))
    return np.clip(data, 0, 100), np.clip(queries, 0, 100)


def params(**overrides):
    defaults = dict(num_trees=4, num_references=5, alpha=96, gamma=32,
                    domain=(0.0, 100.0), seed=0)
    defaults.update(overrides)
    return HDIndexParams(**defaults)


@pytest.fixture(scope="module")
def built_trio(workload):
    data, _ = workload
    sequential = HDIndex(params())
    parallel = thread_index(params(), workers=3)
    sharded = ShardRouter(params(), 3)
    for index in (sequential, parallel, sharded):
        index.build(data)
    yield sequential, parallel, sharded
    parallel.close()


class TestCrossImplementationParity:
    def test_sequential_parallel_and_batch_agree(self, workload, built_trio):
        _, queries = workload
        sequential, parallel, _ = built_trio
        batch_ids, batch_dists = sequential.query_batch(queries, 10)
        for row, query in enumerate(queries):
            ids_seq, dists_seq = sequential.query(query, 10)
            ids_par, dists_par = parallel.query(query, 10)
            np.testing.assert_array_equal(ids_seq, ids_par)
            np.testing.assert_allclose(dists_seq, dists_par)
            np.testing.assert_array_equal(
                batch_ids[row][: len(ids_seq)], ids_seq)
            np.testing.assert_allclose(
                batch_dists[row][: len(dists_seq)], dists_seq)

    @pytest.mark.parametrize("which", ["sequential", "parallel", "sharded"])
    def test_query_batch_equals_query_loop(self, workload, built_trio,
                                           which):
        _, queries = workload
        index = dict(zip(("sequential", "parallel", "sharded"),
                         built_trio))[which]
        k = 10
        batch_ids, batch_dists = index.query_batch(queries, k)
        assert batch_ids.shape == (len(queries), k)
        assert batch_dists.shape == (len(queries), k)
        for row, query in enumerate(queries):
            ids, dists = index.query(query, k)
            np.testing.assert_array_equal(batch_ids[row][: len(ids)], ids)
            np.testing.assert_allclose(batch_dists[row][: len(dists)],
                                       dists)
            assert np.all(batch_ids[row][len(ids):] == -1)
            assert np.all(np.isinf(batch_dists[row][len(dists):]))

    def test_batch_with_overrides_equals_loop_with_overrides(self, workload,
                                                             built_trio):
        _, queries = workload
        sequential, _, _ = built_trio
        overrides = dict(alpha=48, gamma=16, use_ptolemaic=True)
        batch_ids, _ = sequential.query_batch(queries, 5, **overrides)
        for row, query in enumerate(queries):
            ids, _ = sequential.query(query, 5, **overrides)
            np.testing.assert_array_equal(batch_ids[row][: len(ids)], ids)

    def test_ptolemaic_path_parity(self, workload):
        data, queries = workload
        sequential = HDIndex(params(use_ptolemaic=True))
        parallel = thread_index(params(use_ptolemaic=True))
        sequential.build(data)
        parallel.build(data)
        batch_ids, _ = parallel.query_batch(queries, 10)
        for row, query in enumerate(queries):
            ids_seq, _ = sequential.query(query, 10)
            ids_par, _ = parallel.query(query, 10)
            np.testing.assert_array_equal(ids_seq, ids_par)
            np.testing.assert_array_equal(
                batch_ids[row][: len(ids_seq)], ids_seq)
        parallel.close()

    def test_disk_backed_parallel_batch_parity(self, workload, tmp_path):
        """The batch fan-out must keep each tree's (thread-unsafe) page
        store on a single thread; disk mode would corrupt reads
        otherwise."""
        data, queries = workload
        disk = thread_index(params(storage_dir=str(tmp_path / "hd")),
                            workers=4)
        memory = HDIndex(params())
        disk.build(data)
        memory.build(data)
        ids_disk, dists_disk = disk.query_batch(queries, 10)
        ids_mem, dists_mem = memory.query_batch(queries, 10)
        np.testing.assert_array_equal(ids_disk, ids_mem)
        np.testing.assert_allclose(dists_disk, dists_mem)
        disk.close()

    def test_batch_accepts_single_vector(self, workload, built_trio):
        _, queries = workload
        sequential, _, _ = built_trio
        ids, dists = sequential.query_batch(queries[0], 5)
        assert ids.shape == (1, 5)
        ref_ids, _ = sequential.query(queries[0], 5)
        np.testing.assert_array_equal(ids[0], ref_ids)

    def test_default_loop_batch_aggregates_stats(self, workload):
        """Indexes without a vectorised override (the baselines) must
        still report batch-total stats after query_batch, so harness
        batch-mode comparisons stay apples-to-apples."""
        from repro.baselines import LinearScan
        data, queries = workload
        index = LinearScan()
        index.build(data)
        index.query(queries[0], 5)
        per_query = index.last_query_stats()
        index.query_batch(queries, 5)
        total = index.last_query_stats()
        assert total.extra["batch_size"] == len(queries)
        assert total.page_reads == per_query.page_reads * len(queries)
        assert total.candidates == per_query.candidates * len(queries)


class TestStatsParity:
    def test_parallel_reports_read_breakdown(self, workload, built_trio):
        """Regression: the parallel index used to drop the random/
        sequential read split from its QueryStats."""
        _, queries = workload
        sequential, parallel, _ = built_trio
        # Twice: whether a store's first read counts as sequential depends
        # on the last page it touched, i.e. on what the shared fixture
        # answered before; the first call levels that history.
        for _ in range(2):
            sequential.query(queries[0], 10)
            parallel.query(queries[0], 10)
        stats_seq = sequential.last_query_stats()
        stats_par = parallel.last_query_stats()
        assert stats_par.page_reads == stats_seq.page_reads
        assert stats_par.random_reads == stats_seq.random_reads
        assert stats_par.sequential_reads == stats_seq.sequential_reads
        assert stats_par.random_reads > 0
        assert (stats_par.random_reads + stats_par.sequential_reads
                == stats_par.page_reads)
        # Same schema either way; the parallel index adds the pool width.
        assert stats_par.extra["workers"] == 3
        seq_keys = set(stats_seq.as_dict()) | {"workers"}
        assert set(stats_par.as_dict()) == seq_keys

    def test_sharded_reports_read_breakdown(self, workload, built_trio):
        _, queries = workload
        _, _, sharded = built_trio
        sharded.query(queries[0], 10)
        stats = sharded.last_query_stats()
        assert stats.random_reads > 0
        assert (stats.random_reads + stats.sequential_reads
                == stats.page_reads)

    def test_batch_stats_aggregate(self, workload, built_trio):
        _, queries = workload
        sequential, _, _ = built_trio
        sequential.query_batch(queries, 10)
        stats = sequential.last_query_stats()
        assert stats.extra["batch_size"] == len(queries)
        assert stats.candidates > 0
        assert stats.page_reads > 0

    def test_batch_dedupes_descriptor_fetches(self, workload, built_trio):
        """The batch path fetches each distinct survivor once, so a batch
        of overlapping queries reads far fewer pages than the loop."""
        _, queries = workload
        sequential, _, _ = built_trio
        loop_reads = 0
        for query in queries:
            sequential.query(query, 10)
            loop_reads += sequential.last_query_stats().page_reads
        sequential.query_batch(queries, 10)
        assert sequential.last_query_stats().page_reads < loop_reads


class TestShardedOverridesAndUpdates:
    def test_overrides_forwarded_to_shards(self, workload):
        """Regression: per-call α/β/γ overrides used to be dropped, so
        sweeps over a sharded index silently ran with defaults."""
        data, queries = workload
        sharded = ShardRouter(params(), 2)
        unsharded_like = ShardRouter(params(), 2)
        sharded.build(data)
        unsharded_like.build(data)
        overrides = dict(alpha=16, gamma=8)
        swept, _ = sharded.query(queries[0], 10, **overrides)
        default, _ = sharded.query(queries[0], 10)
        assert not np.array_equal(swept, default)
        # The override must reach every shard's stats, not just shard 0.
        sharded.query(queries[0], 10, alpha=16, gamma=8)
        for shard in sharded.shards:
            assert shard.last_query_stats().extra["alpha"] == 16

    def test_ptolemaic_override_forwarded(self, workload):
        data, queries = workload
        sharded = ShardRouter(params(), 2)
        sharded.build(data)
        sharded.query(queries[0], 5, use_ptolemaic=True)
        for shard in sharded.shards:
            assert shard.last_query_stats().extra["ptolemaic"] is True

    def test_delete_routes_to_owning_shard(self, workload):
        data, _ = workload
        sharded = ShardRouter(params(), 3)
        sharded.build(data)
        for probe in (0, len(data) // 2, len(data) - 1):
            ids, _ = sharded.query(data[probe], 1)
            assert ids[0] == probe
            sharded.delete(probe)
            ids, _ = sharded.query(data[probe], 1)
            assert ids[0] != probe

    def test_delete_inserted_object(self, workload):
        data, _ = workload
        sharded = ShardRouter(params(), 3)
        sharded.build(data)
        point = np.full(16, 50.0)
        new_id = sharded.insert(point)
        ids, _ = sharded.query(point, 1)
        assert ids[0] == new_id
        sharded.delete(new_id)
        ids, _ = sharded.query(point, 1)
        assert ids[0] != new_id

    def test_delete_unknown_id_rejected(self, workload):
        data, _ = workload
        sharded = ShardRouter(params(), 2)
        sharded.build(data)
        with pytest.raises(ValueError):
            sharded.delete(len(data) + 7)
        with pytest.raises(ValueError):
            sharded.delete(-1)

    def test_delete_before_build_rejected(self):
        with pytest.raises(RuntimeError):
            ShardRouter(params()).delete(0)

    def test_total_size_bytes_sums_shards(self, workload):
        data, _ = workload
        sharded = ShardRouter(params(), 2)
        sharded.build(data)
        assert sharded.total_size_bytes() == sum(
            shard.total_size_bytes() for shard in sharded.shards)
        assert sharded.total_size_bytes() > sharded.index_size_bytes()


class TestEngineComponents:
    def test_indexes_share_one_engine_implementation(self, built_trio):
        sequential, parallel, sharded = built_trio
        assert type(sequential._engine) is type(parallel._engine) is \
            QueryEngine
        assert isinstance(sequential._engine.executor, SequentialExecutor)
        assert isinstance(parallel._engine.executor, ThreadedExecutor)
        for shard in sharded.shards:
            assert type(shard._engine) is QueryEngine

    def test_shims_define_no_query_override(self):
        """The structural guarantee: neither deprecated shim carries a
        second copy of the Algo.-2 stage logic."""
        from repro.core import ParallelHDIndex, ShardedHDIndex
        assert "query" not in ParallelHDIndex.__dict__
        assert "query_batch" not in ParallelHDIndex.__dict__
        assert "query" not in ShardedHDIndex.__dict__
        assert "query_batch" not in ShardedHDIndex.__dict__

    def test_threaded_executor_rejects_bad_width(self):
        with pytest.raises(ValueError):
            ThreadedExecutor(num_workers=0)

    def test_threaded_executor_close_idempotent(self):
        executor = ThreadedExecutor(num_workers=2)
        assert executor.map(lambda v: v * 2, [1, 2, 3]) == [2, 4, 6]
        assert executor.workers == 2
        executor.close()
        executor.close()

    def test_deleted_ids_excluded_from_batch(self, workload):
        data, _ = workload
        index = HDIndex(params())
        index.build(data)
        probe = 17
        ids, _ = index.query_batch(data[probe][None, :], 1)
        assert ids[0, 0] == probe
        index.delete(probe)
        ids, _ = index.query_batch(data[probe][None, :], 1)
        assert ids[0, 0] != probe


class TestDeleteBatchParity:
    """Regression (PR 2): the vectorised unique-candidate batch path must
    exclude ``_deleted`` exactly as the single-query path does, for every
    family member — a leak here would resurface deleted objects only under
    batch serving load."""

    @pytest.mark.parametrize("make_index", [
        lambda: HDIndex(params()),
        lambda: thread_index(params(), workers=2),
        lambda: ShardRouter(params(), 3),
    ], ids=["sequential", "parallel", "sharded"])
    def test_batch_equals_loop_after_deletes(self, workload, make_index):
        data, queries = workload
        index = make_index()
        index.build(data)
        # Delete the current top answers of several queries, plus an
        # inserted point, so the deleted set intersects the candidate
        # pools of the whole batch.
        inserted = index.insert(np.clip(queries[0] + 0.25, 0, 100))
        deleted = {inserted}
        for query in queries[:4]:
            ids, _ = index.query(query, 3)
            deleted.update(int(v) for v in ids)
        for object_id in deleted:
            index.delete(object_id)
        batch_ids, batch_dists = index.query_batch(queries, 10)
        assert not deleted & set(batch_ids.ravel().tolist())
        for row, query in enumerate(queries):
            ids, dists = index.query(query, 10)
            np.testing.assert_array_equal(batch_ids[row][: len(ids)], ids)
            np.testing.assert_array_equal(batch_dists[row][: len(dists)],
                                          dists)
        if hasattr(index, "close"):
            index.close()

    def test_all_candidates_deleted_pads_batch_row(self, workload):
        """A query whose entire candidate pool is deleted must come back
        fully padded (-1 / +inf) from the batch path, like the loop."""
        data, _ = workload
        index = HDIndex(params())
        index.build(data)
        for object_id in range(len(data)):
            index.delete(object_id)
        ids, dists = index.query_batch(data[:3], 5)
        assert np.all(ids == -1)
        assert np.all(np.isinf(dists))


def python_survivors(query_ref, cand_ids, cand_ref, ref_ref, beta, gamma,
                     ptolemaic):
    """Algo. 2 lines 5-10 without the engine's stage (ii): the loop
    references for Eq. 5 / Eq. 6 and a plain stable sort as the top-β /
    top-γ selection."""
    def smallest(bounds, keep):
        return sorted(range(len(bounds)), key=bounds.tolist().__getitem__
                      )[:keep]

    keep = smallest(python_triangular(query_ref, cand_ref), beta)
    cand_ids, cand_ref = cand_ids[keep], cand_ref[keep]
    if ptolemaic:
        keep = smallest(python_ptolemaic(query_ref, cand_ref, ref_ref),
                        gamma)
        cand_ids = cand_ids[keep]
    return cand_ids


def python_merge(index, survivors, predicate):
    """Algo. 2 line 11 without the engine's merge: Python sets for the
    union, the WAL-delta predicate screen and the deleted ids."""
    delta = index._delta
    merged = set().union(*(ids.tolist() for ids in survivors))
    merged.update(
        object_id for object_id, row in zip(delta.id_range().tolist(),
                                            delta.metadata_rows())
        if predicate is None or (row is not None and predicate.matches(row)))
    return np.array(sorted(merged - index._deleted), dtype=np.int64)


def scalar_oracle(index, point, k, predicate=None):
    """Algo. 2 for one point through the scalar pieces only: per-point
    ``curve.encode``, :func:`node_candidates` (a node-by-node walk of a
    B+-tree bulk-loaded from each tree's columns, passing over the
    entries a predicate leaves ineligible), per-tree
    :func:`python_survivors` (the pipeline calls
    ``filter_survivors`` itself, so that is no oracle for stage (ii)),
    :func:`python_merge` and the one-row ``rerank``."""
    engine = index._engine
    point = np.asarray(point, dtype=np.float64)
    predicate = index._coerce_query_predicate(predicate)
    ptolemaic = index.params.use_ptolemaic
    alpha, beta, gamma = index._effective_sizes(k, None, None, None,
                                                ptolemaic)
    eligible = None if predicate is None else predicate.mask(index.metadata)
    query_ref = index.references.distances_from(point)[0]
    survivors = []
    trees = zip(index.trees, index.partitions)
    if eligible is not None and eligible.sum() <= alpha:
        survivors, trees = [np.flatnonzero(eligible)], ()
    for tree, part in trees:
        key = int(tree.curve.encode(index.quantizer.quantize(point[part])))
        cand_ids, cand_ref = node_candidates(tree, key, alpha, eligible)
        survivors.append(python_survivors(
            query_ref, cand_ids, cand_ref, index.references.ref_ref,
            beta, gamma, ptolemaic))
    return engine.rerank(point, python_merge(index, survivors, predicate), k)


DELTA_LABELS = (1, 1, 0)


class TestScalarOracleParity:
    """``run`` is ``run_batch`` at Q = 1, so batch-equals-loop only shows
    that rows are independent; this is the check that the one pipeline
    computes Algo. 2."""

    K = 10
    PREDICATES = {"plain": None, "filtered": Eq("label", 1)}

    @staticmethod
    def _updated(workload, directory, kind, logged):
        """A labelled index with a delta holding three inserts (the
        second deleted again, the third failing the filter) and two base
        deletes; returns (index, every vector by id, deleted ids)."""
        data, queries = workload
        index = build(
            IndexSpec(params=params(storage_dir=directory,
                                    use_ptolemaic=True),
                      execution=Execution(kind=kind, workers=2,
                                          wal=logged)),
            data, storage_dir=directory,
            metadata=[{"label": i % 3} for i in range(len(data))])
        deleted = {int(v) for v in index.query(queries[0], 2)[0]}
        inserted = np.clip(queries[:3] + 0.25, 0, 100)
        new_ids = [index.insert(vector, metadata={"label": label})
                   for vector, label in zip(inserted, DELTA_LABELS)]
        deleted.add(new_ids[1])
        for object_id in deleted:
            index.delete(object_id)
        return index, np.vstack([data, inserted]), deleted

    @pytest.fixture(scope="class")
    def reference(self, workload, tmp_path_factory):
        """Batch answers per predicate of the sequential, logged, on-disk
        configuration: every other one (other executors, no log, no
        disk) must reproduce them, whichever cases are selected."""
        index, _, _ = self._updated(
            workload, str(tmp_path_factory.mktemp("reference") / "snap"),
            "sequential", True)
        with index:
            return {name: index.query_batch(workload[1], self.K,
                                            predicate=predicate)
                    for name, predicate in self.PREDICATES.items()}

    @pytest.fixture(params=[("sequential", True, True),
                            ("threaded", True, True),
                            ("process", True, True),
                            ("sequential", False, False),
                            ("threaded", False, True),
                            ("process", False, True)],
                    ids=lambda p: f"{p[0]}-{'wal' if p[1] else 'nolog'}"
                                  f"-{'disk' if p[2] else 'memory'}")
    def updated(self, request, workload, tmp_path):
        """One index per (executor, logged?, on disk?)."""
        kind, logged, on_disk = request.param
        made = self._updated(
            workload, str(tmp_path / "snap") if on_disk else None,
            kind, logged)
        yield made
        made[0].close()

    @pytest.mark.parametrize("name", list(PREDICATES))
    def test_query_and_batch_equal_oracle(self, workload, updated,
                                          reference, name):
        _, queries = workload
        predicate = self.PREDICATES[name]
        index, vectors, deleted = updated
        want = [scalar_oracle(index, query, self.K, predicate)
                for query in queries]
        batch_ids, batch_dists = index.query_batch(queries, self.K,
                                                   predicate=predicate)
        for row, (query, (want_ids, want_dists)) in enumerate(
                zip(queries, want)):
            assert len(want_ids) == self.K
            assert not deleted & set(want_ids.tolist())
            # Stage (iii) against the raw vectors, not the engine's own
            # gather: the reported distances are the true ones, up to the
            # float32 the heap stores descriptors in.
            np.testing.assert_allclose(
                want_dists,
                np.linalg.norm(vectors[want_ids] - query, axis=1),
                rtol=1e-5)
            got = [index.query(query, self.K, predicate=predicate),
                   index.query_batch(query[None, :], self.K,
                                     predicate=predicate),
                   (batch_ids[row], batch_dists[row])]
            for ids, dists in got:
                np.testing.assert_array_equal(np.ravel(ids), want_ids)
                np.testing.assert_array_equal(np.ravel(dists), want_dists)
        if predicate is not None:
            labels = np.arange(len(vectors)) % 3
            labels[len(vectors) - 3:] = DELTA_LABELS
            assert np.all(labels[batch_ids] == 1)
        assert (batch_ids >= len(vectors) - 3).any()  # the delta ranks
        assert (index._wal is not None) == index.spec.execution.wal
        np.testing.assert_array_equal(batch_ids, reference[name][0])
        np.testing.assert_array_equal(batch_dists, reference[name][1])


#: Small ids repeat within and across trees; the top ones sit at 2**63 - 1.
MERGE_IDS = st.one_of(st.integers(0, 40),
                      st.integers(2 ** 63 - 4, 2 ** 63 - 1))


class TestSortedMerge:
    """The survivor merge (Algo. 2 line 11) and the stage-(iii) dedupe
    run on sorted arrays: the merge returns what ``np.unique`` minus
    ``np.isin`` returned, and no query calls either (numpy's hash-based
    ``unique`` costs ten times a sort on the few thousand ids involved)."""

    @settings(max_examples=300, deadline=None)
    @given(survivors=st.lists(st.lists(MERGE_IDS, max_size=12), max_size=5),
           delta=st.lists(MERGE_IDS, max_size=6, unique=True),
           deleted=st.lists(MERGE_IDS, max_size=8, unique=True))
    def test_merge_is_unique_minus_deleted(self, survivors, delta, deleted):
        arrays = [np.array(ids, dtype=np.int64) for ids in survivors]
        delta_ids = np.array(sorted(delta), dtype=np.int64)
        deleted_ids = np.array(deleted, dtype=np.int64)
        # ``_merge_tail`` hands the merge its deleted ids sorted.
        got = QueryEngine(None)._merge_survivors(
            arrays, (delta_ids, np.sort(deleted_ids)))
        want = np.setdiff1d(np.unique(np.concatenate([*arrays, delta_ids])),
                            deleted_ids)
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    @pytest.fixture(scope="class", params=["sequential", "thread"])
    def updated(self, request, workload):
        """Un-compacted delta rows and deleted base and delta ids.  The
        keys are 4 bytes wide, so ``PackedTree._settle_ties`` (which
        calls ``np.isin`` on the rare wide-key tie) cannot run."""
        index, _, _ = TestScalarOracleParity._updated(
            workload, None, request.param, False)
        assert all(tree.packed.key_width <= 8 for tree in index.trees)
        yield index
        index.close()

    @pytest.mark.parametrize("predicate", [None, Eq("label", 1)],
                             ids=["plain", "filtered"])
    def test_queries_call_no_hash_set_operation(self, workload, updated,
                                                predicate, monkeypatch):
        """Also: each row of ``query_batch(8)`` is byte for byte what
        ``query`` answers alone, where the row's merged set is the whole
        union (Q = 1) and where it is not."""
        queries = workload[1][:8]

        def refuse(*args, **kwargs):
            raise AssertionError("hash-based set operation on a query path")

        for name in ("unique", "isin"):
            monkeypatch.setattr(np, name, refuse)
        alone, kappa = [], 0
        for query in queries:
            alone.append(updated.query(query, 10, predicate=predicate))
            kappa += updated.last_query_stats().candidates
        ids, dists = updated.query_batch(queries, 10, predicate=predicate)
        assert updated.last_query_stats().candidates == kappa
        for row, (want_ids, want_dists) in enumerate(alone):
            assert ids[row].tobytes() == want_ids.tobytes()
            assert dists[row].tobytes() == want_dists.tobytes()

    def test_eligible_ids_taken_once_per_call(self, workload, updated,
                                              monkeypatch):
        """Under a pool each tree is its own task; the predicate's
        eligible ids are still derived once for the call."""
        predicate = Eq("label", 1)
        eligible = np.count_nonzero(predicate.mask(updated.metadata))
        calls = []
        flatnonzero = np.flatnonzero

        def counted(*args, **kwargs):
            calls.append(args)
            return flatnonzero(*args, **kwargs)

        monkeypatch.setattr(np, "flatnonzero", counted)
        updated.query(workload[1][0], 10, predicate=predicate)
        assert eligible > updated.last_query_stats().extra["alpha"]
        assert len(calls) == 1


class TestStageTwoWorkingSet:
    """Stage (ii) runs per (tree, row) segment, on at most α (Eq. 5) or β
    (Eq. 6) rows at a time, whatever Q is: fusing the segments of a call
    into one matrix made ``query_batch(16)`` slower than 16 ``query``
    calls, and must not come back unnoticed."""

    Q = 8
    #: What a batch does not amortise (its shared descriptor gather
    #: reads fewer pages than Q separate ones).
    COUNTERS = ("candidates", "distance_computations")

    @pytest.fixture(scope="class", params=["sequential", "threaded"])
    def labelled(self, request, workload):
        data, _ = workload
        index = build(
            IndexSpec(params=params(use_ptolemaic=True),
                      execution=Execution(kind=request.param, workers=2)),
            data, metadata=[{"label": i % 3} for i in range(len(data))])
        yield index
        index.close()

    @pytest.mark.parametrize("predicate", [None, Eq("label", 1)],
                             ids=["plain", "filtered"])
    def test_kernels_see_one_segment_at_a_time(self, workload, labelled,
                                               predicate, monkeypatch):
        queries = workload[1][:self.Q]
        index = labelled
        want, counters = [], dict.fromkeys(self.COUNTERS, 0)
        for query in queries:
            want.append(index.query(query, 10, predicate=predicate))
            stats = index.last_query_stats()
            for field in self.COUNTERS:
                counters[field] += getattr(stats, field)

        def spy(kernel, calls):
            def spied(query_ref, cand_ref, *rest):
                calls.append((np.shape(query_ref), cand_ref.shape[0]))
                return kernel(query_ref, cand_ref, *rest)
            return spied

        seen = {"triangular_lower_bounds_many": [],
                "ptolemaic_lower_bounds_many": []}
        for name, calls in seen.items():
            monkeypatch.setattr(engine_module, name,
                                spy(getattr(engine_module, name), calls))
        ids, dists = index.query_batch(queries, 10, predicate=predicate)
        stats = index.last_query_stats()

        segments = self.Q * len(index.trees)
        m = index.params.num_references
        for name, limit in (("triangular_lower_bounds_many", "alpha"),
                            ("ptolemaic_lower_bounds_many", "beta")):
            assert len(seen[name]) == segments
            assert all(shape == (m,) and 0 < rows <= stats.extra[limit]
                       for shape, rows in seen[name])
        # The limits bind: a fused call would have to exceed them.
        assert sum(rows for _, rows in seen["triangular_lower_bounds_many"]) \
            > 2 * stats.extra["alpha"]
        for row, (want_ids, want_dists) in enumerate(want):
            np.testing.assert_array_equal(ids[row], want_ids)
            np.testing.assert_array_equal(dists[row], want_dists)
        for field in self.COUNTERS:
            assert getattr(stats, field) == counters[field], field

    def test_batch_peak_allocation_does_not_scale_with_q(self):
        """``tracemalloc`` sees numpy's buffers: the largest thing alive
        during a call is one segment's (pairs, β) bound matrix plus the
        stage-(iii) block, so 16 rows may not need 4x what one needs."""
        rng = np.random.default_rng(5)
        data = rng.uniform(0.0, 100.0, size=(3000, 16))
        index = HDIndex(params(num_references=10, alpha=1024, beta=512,
                               gamma=64, use_ptolemaic=True))
        index.build(data)
        queries = data[:16] + 0.5

        def peak(call):
            call()  # warm: lazy caches are not the call's working set
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        single = peak(lambda: index.query(queries[0], 10))
        batch = peak(lambda: index.query_batch(queries, 10))
        assert batch < 4 * single, (batch, single)


def profiled_calls(call):
    """(C-level calls made, Python calls by function name) of ``call()``:
    a count, so unlike a timing it is the same on every host."""
    c_calls = 0
    python_calls = collections.Counter()

    def hook(frame, event, arg):
        nonlocal c_calls
        if event == "c_call":
            c_calls += 1
        elif event == "call":
            python_calls[frame.f_code.co_name] += 1

    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(None)
    return c_calls, python_calls


class CountedBlock(np.ndarray):
    """An array that counts the ufunc dispatches made on it and its
    views (operators included, which no profiler hook sees)."""

    dispatches = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        CountedBlock.dispatches += 1
        if out is not None:
            kwargs["out"] = tuple(np.asarray(array) for array in out)
        return getattr(ufunc, method)(
            *(np.asarray(array) if isinstance(array, CountedBlock)
              else array for array in inputs), **kwargs)


class TestFrontHalfFixedCost:
    """The Hilbert encode and the tree descent are per-call and
    per-(tree, row) fixed costs; before the lane-packed transform and the
    leading-word merge they were 3.2 of a 6 ms query at n = 100k, all of
    it interpreter dispatch.  Counts pin them where timings would flake."""

    #: C-level calls ``nearest_positions(key, 1024, stats)`` made on the
    #: tree below at the commit before the leading-word merge.
    PARENT_NEAREST_C_CALLS = 100

    def test_encode_cost_does_not_depend_on_q(self):
        curves = [HilbertCurve(16, 8)] * 8
        rng = np.random.default_rng(3)
        counts = []
        for rows in (1, 16):
            coords = [rng.integers(0, 256, size=(rows, 16))
                      for _ in curves]
            counts.append(profiled_calls(
                lambda: encode_for_curves(curves, coords))[0])
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("rows", [1, 128])
    def test_transform_makes_no_numpy_dispatch_per_step(self, rows):
        """(order - 1) * dim = 112 sequential steps: at ~9 array
        operations each they were ~1000 dispatches for eight keys."""
        curve = HilbertCurve(16, 8)
        points = np.random.default_rng(rows).integers(
            0, 256, size=(rows, 16))
        counted = np.array(points.T, dtype=np.uint64,
                           order="C").view(CountedBlock)
        CountedBlock.dispatches = 0
        curve._axes_to_transpose_batch(counted)
        assert CountedBlock.dispatches <= curve.dim
        np.testing.assert_array_equal(
            curve._pack_key_bytes(np.asarray(counted)),
            curve.encode_batch_bytes(points))

    def test_descent_is_one_rank_and_one_ancestor_chain(self):
        rng = np.random.default_rng(11)
        codec = UIntCodec(16)
        keys = sorted(int.from_bytes(rng.bytes(16), "big")
                      for _ in range(5000))
        tree = BPlusTree(codec, UInt64Codec(), cache_pages=0)
        tree.bulk_load([(codec.encode(key), UInt64Codec().encode(row))
                        for row, key in enumerate(keys)])
        packed = tree.packed_layout
        key = codec.encode(keys[2500] + 1)
        stats = IOStats()
        c_calls, python_calls = profiled_calls(
            lambda: packed.nearest_positions(key, 1024, stats))
        assert stats.page_reads > 2 * len(packed.level_pages) + 2
        assert python_calls["broadcast_arrays"] == 0
        assert python_calls["_descent_pages"] <= 1
        assert 2 * c_calls <= self.PARENT_NEAREST_C_CALLS, c_calls


class TestOnePointAdapter:
    """What ``query`` adds to ``query_batch`` — and nothing else."""

    @pytest.fixture(scope="class")
    def few(self):
        rng = np.random.default_rng(7)
        data = rng.uniform(0.0, 100.0, size=(6, 16))
        made = []
        small = params(alpha=8, gamma=8, num_references=2)
        for index in (HDIndex(small), ShardRouter(small, 2)):
            index.build(data)
            index.delete(0)
            made.append(index)
        return data, made

    def test_short_answers_come_back_unpadded(self, few):
        data, made = few
        for index in made:
            ids, dists = index.query(data[1], 10)
            assert ids.shape == dists.shape == (5,)
            assert ids[0] == 1 and np.all(ids >= 0)
            assert np.all(np.isfinite(dists))
            batch_ids, batch_dists = index.query_batch(data[1], 10)
            np.testing.assert_array_equal(batch_ids[0, :5], ids)
            assert np.all(batch_ids[0, 5:] == -1)
            assert np.all(np.isinf(batch_dists[0, 5:]))

    def test_batch_size_only_after_query_batch(self, few):
        data, made = few
        for index in made:
            index.query(data[1], 3)
            single = index.last_query_stats()
            assert "batch_size" not in single.extra
            index.query_batch(data[1:2], 3)
            batch = index.last_query_stats()
            assert batch.extra.pop("batch_size") == 1
            assert batch.extra == single.extra
            for field in ("page_reads", "random_reads", "sequential_reads",
                          "candidates", "distance_computations"):
                assert getattr(batch, field) == getattr(single, field)

    def test_row_shaped_point_accepted(self, few):
        data, made = few
        for index in made:
            ids, dists = index.query(data[2][None, :], 3)
            want_ids, want_dists = index.query(data[2], 3)
            np.testing.assert_array_equal(ids, want_ids)
            np.testing.assert_array_equal(dists, want_dists)

    def test_wrong_dimension_rejected_by_both_entries(self, few):
        _, made = few
        for index in made:
            with pytest.raises(ValueError):
                index.query(np.zeros(15), 3)
            with pytest.raises(ValueError):
                index.query_batch(np.zeros((2, 15)), 3)

    def test_filtered_time_covers_the_predicate_mask(self, workload,
                                                     monkeypatch):
        """Regression: the clock used to start after the eligibility
        mask, so a filtered query under-reported its own time."""
        data, queries = workload
        index = HDIndex(params())
        index.build(data, metadata=[{"label": i % 3}
                                    for i in range(len(data))])
        real_mask = Eq.mask

        def slow_mask(self, store):
            time.sleep(0.05)
            return real_mask(self, store)

        monkeypatch.setattr(Eq, "mask", slow_mask)
        for run in (lambda: index.query(queries[0], 5,
                                        predicate=Eq("label", 1)),
                    lambda: index.query_batch(queries[:2], 5,
                                              predicate=Eq("label", 1))):
            run()
            assert index.last_query_stats().time_sec >= 0.05


class TestFrozenAnswers:
    """Digests of what a seeded 3k index answers to 64 queries, taken at
    the commit before Eq. 6 became a matrix product (PR 24's parent):
    ids and ``stats.candidates`` (κ) in one, the float64 distances in
    the other.  The oracle parity above moves with the pipeline's
    inputs; this does not.  A change that is *meant* to move answers
    re-takes them and says why; one that is not and fails here flipped a
    cut — find the query and the two bound values before touching the
    digest.  Under the predicate a quarter of the rows are eligible, so
    the trees are asked (750 > α)."""

    DIGESTS = {
        "plain": ("7c403a7741899e76", "314365ce1d233292"),
        "filtered": ("74947fb930b92019", "618a4db77c04ae43"),
    }

    @pytest.fixture(scope="class")
    def seeded(self):
        dataset = make_dataset("sift10k", 3000, 64, seed=24)
        index = HDIndex(HDIndexParams(
            num_trees=4, num_references=6, alpha=128, beta=64, gamma=32,
            use_ptolemaic=True, seed=24))
        index.build(dataset.data,
                    metadata=[{"label": row % 4} for row in range(3000)])
        return index, dataset.queries

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_answers_are_the_parents(self, seeded, name):
        index, queries = seeded
        predicate = Eq("label", 1) if name == "filtered" else None
        answers, distances = hashlib.sha256(), hashlib.sha256()
        kappa = 0
        for query in queries:
            ids, dists = index.query(query, 10, predicate=predicate)
            candidates = index.last_query_stats().candidates
            kappa += candidates
            answers.update(ids.astype("<i8").tobytes())
            answers.update(candidates.to_bytes(8, "little"))
            distances.update(dists.astype("<f8").tobytes())
        # The cuts bind: a digest of "everything survived" pins nothing.
        assert 64 * 32 < kappa < 64 * 4 * 32
        assert (answers.hexdigest()[:16],
                distances.hexdigest()[:16]) == self.DIGESTS[name]
