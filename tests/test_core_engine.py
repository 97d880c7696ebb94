"""Cross-implementation parity suite for the shared Algo.-2 query engine.

The engine extraction makes drift between the in-memory and
disk-backed indexes structurally impossible; these tests pin the
contract:

* identical (ids, dists) across an in-memory `HDIndex`, a process-mode
  `QueryService` over its snapshot and the vectorised batch path on the
  same data/seed;
* ``query_batch`` equals a loop of ``query`` for every backend;
* an index reports the random/sequential read breakdown the Sec. 5
  evaluation metrics depend on;
* ``query`` is ``query_batch`` at Q = 1, so both are checked against a
  scalar oracle that shares none of the batched kernels (plain, filtered
  and over a WAL delta with deletes), and the adapter's
  own contract — unpadded short answers, no ``batch_size`` in the stats,
  ``ValueError`` on a wrong dimension — is pinned directly;
* the answers to a seeded workload are frozen as digests, so a kernel
  change that claims "answers unchanged" is checked against the commit
  before it, not against itself.
"""

import collections
import gc
import hashlib
import inspect
import sys
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.btree.packed import PackedTree, bulk_load
from repro.core import (
    HDIndex,
    HDIndexParams,
    IndexSpec,
    QueryEngine,
    build,
    create_index,
    load_index,
    save_index,
)
from repro.core import engine as engine_module
from repro.core.filters import (
    EQ6_SCRATCH_BYTES,
    CandidateWindowError,
    filter_candidates,
    pair_table,
    ptolemaic_lower_bounds_many,
    triangular_lower_bounds_many,
)
from repro.datasets import make_dataset
from repro.devtools.sanitize import node_candidates
from repro.distance import pairwise_euclidean
from repro.hilbert import HilbertCurve, encode_for_curves
from repro.meta import Eq, In
from repro.serve import QueryService
from repro.storage import IOStats, UIntCodec
from test_core_filters import python_ptolemaic, python_triangular


def served(index, workers=2):
    """A started process-mode service over ``index``'s own snapshot."""
    return QueryService(index, workers=workers).start()


def snapshot_index(data, directory, **overrides):
    """An mmap-backed index (what a storage directory gives) built and
    saved at ``directory``."""
    return build(IndexSpec(params=params(**overrides)), data,
                 storage_dir=directory)


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
def built_pair(workload, tmp_path_factory):
    data, _ = workload
    sequential = HDIndex(params())
    sequential.build(data)
    disk = snapshot_index(data, str(tmp_path_factory.mktemp("pair")))
    yield sequential, disk
    disk.close()


class TestCrossImplementationParity:
    def test_sequential_process_and_batch_agree(self, workload, built_pair):
        _, queries = workload
        sequential, disk = built_pair
        batch_ids, batch_dists = sequential.query_batch(queries, 10)
        with served(disk) as process:
            for row, query in enumerate(queries):
                ids_seq, dists_seq = sequential.query(query, 10)
                ids_par, dists_par = process.query(query, 10, timeout=60)
                np.testing.assert_array_equal(ids_seq, ids_par)
                np.testing.assert_allclose(dists_seq, dists_par)
                np.testing.assert_array_equal(
                    batch_ids[row][: len(ids_seq)], ids_seq)
                np.testing.assert_allclose(
                    batch_dists[row][: len(dists_seq)], dists_seq)

    @pytest.mark.parametrize("which", ["sequential", "disk", "memory-reopen"])
    def test_query_batch_equals_query_loop(self, workload, built_pair,
                                           which):
        _, queries = workload
        if which == "memory-reopen":
            index = load_index(built_pair[1].params.storage_dir,
                               backend="memory")
        else:
            index = dict(zip(("sequential", "disk"), built_pair))[which]
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
        if which == "memory-reopen":
            index.close()

    def test_batch_with_overrides_equals_loop_with_overrides(self, workload,
                                                             built_pair):
        _, queries = workload
        sequential, _ = built_pair
        overrides = dict(alpha=48, gamma=16, use_ptolemaic=True)
        batch_ids, _ = sequential.query_batch(queries, 5, **overrides)
        for row, query in enumerate(queries):
            ids, _ = sequential.query(query, 5, **overrides)
            np.testing.assert_array_equal(batch_ids[row][: len(ids)], ids)

    def test_ptolemaic_path_parity(self, workload, tmp_path):
        data, queries = workload
        sequential = HDIndex(params(use_ptolemaic=True))
        sequential.build(data)
        disk = snapshot_index(data, str(tmp_path), use_ptolemaic=True)
        batch_ids, _ = disk.query_batch(queries, 10)
        with served(disk) as process:
            for row, query in enumerate(queries):
                ids_seq, _ = sequential.query(query, 10)
                ids_par, _ = process.query(query, 10, timeout=60)
                np.testing.assert_array_equal(ids_seq, ids_par)
                np.testing.assert_array_equal(
                    batch_ids[row][: len(ids_seq)], ids_seq)
        disk.close()

    def test_disk_backed_process_batch_parity(self, workload, tmp_path):
        """Worker processes answering rows from their own mapped view of
        the snapshot answer a batch as the in-memory index does."""
        data, queries = workload
        disk = snapshot_index(data, str(tmp_path / "hd"))
        memory = HDIndex(params())
        memory.build(data)
        with served(disk, workers=4) as process:
            futures = [process.submit(query, 10) for query in queries]
            rows = [future.result(timeout=60) for future in futures]
        ids_mem, dists_mem = memory.query_batch(queries, 10)
        np.testing.assert_array_equal(np.stack([r[0] for r in rows]),
                                      ids_mem)
        np.testing.assert_allclose(np.stack([r[1] for r in rows]),
                                   dists_mem)
        disk.close()

    def test_batch_accepts_single_vector(self, workload, built_pair):
        _, queries = workload
        sequential, _ = built_pair
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
    @pytest.mark.parametrize("which", ["sequential", "disk"])
    def test_reports_read_breakdown(self, workload, built_pair, which):
        _, queries = workload
        index = dict(zip(("sequential", "disk"), built_pair))[which]
        index.query(queries[0], 10)
        stats = index.last_query_stats()
        assert stats.random_reads > 0
        assert (stats.random_reads + stats.sequential_reads
                == stats.page_reads)

    def test_batch_stats_aggregate(self, workload, built_pair):
        _, queries = workload
        sequential, _ = built_pair
        sequential.query_batch(queries, 10)
        stats = sequential.last_query_stats()
        assert stats.extra["batch_size"] == len(queries)
        assert stats.candidates > 0
        assert stats.page_reads > 0

    def test_batch_dedupes_descriptor_fetches(self, workload, built_pair):
        """The batch path fetches each distinct survivor once, so a batch
        of overlapping queries reads far fewer pages than the loop."""
        _, queries = workload
        sequential, _ = built_pair
        loop_reads = 0
        for query in queries:
            sequential.query(query, 10)
            loop_reads += sequential.last_query_stats().page_reads
        sequential.query_batch(queries, 10)
        assert sequential.last_query_stats().page_reads < loop_reads


class TestEngineComponents:
    def test_indexes_share_one_engine_implementation(self, built_pair):
        sequential, disk = built_pair
        assert type(sequential._engine) is type(disk._engine) is \
            QueryEngine

    def test_one_index_class_per_topology(self):
        """The structural guarantee: the family is HDIndex alone, never a
        subclass carrying a second copy of the Algo.-2 stage logic."""
        import repro.core
        from repro.core import KNNIndex
        family = {obj for obj in vars(repro.core).values()
                  if isinstance(obj, type) and issubclass(obj, KNNIndex)
                  and obj is not KNNIndex}
        assert family == {HDIndex}

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
        lambda directory: HDIndex(params()),
        lambda directory: HDIndex(params(storage_dir=directory)),
        lambda directory: create_index(IndexSpec(
            params=params(storage_dir=directory), wal=True)),
        lambda directory: HDIndex(params(use_ptolemaic=True)),
    ], ids=["sequential", "disk", "logged", "ptolemaic"])
    def test_batch_equals_loop_after_deletes(self, workload, make_index,
                                             tmp_path):
        data, queries = workload
        index = make_index(str(tmp_path))
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
    alpha, beta, gamma = index.params.resolve_filter_sizes(k)
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
    """``query`` is ``query_batch`` at Q = 1, so batch-equals-loop only
    shows that rows are independent; this is the check that the one
    pipeline computes Algo. 2."""

    K = 10
    PREDICATES = {"plain": None, "filtered": Eq("label", 1)}

    @staticmethod
    def _updated(workload, directory, logged, **overrides):
        """A labelled index with a delta holding three inserts (the
        second deleted again, the third failing the filter) and two base
        deletes; returns (index, every vector by id, deleted ids)."""
        data, queries = workload
        index = build(
            IndexSpec(params=params(storage_dir=directory,
                                    use_ptolemaic=True, **overrides),
                      wal=logged),
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
        configuration: every other one (no log, no disk) must reproduce
        them, whichever cases are selected."""
        index, _, _ = self._updated(
            workload, str(tmp_path_factory.mktemp("reference") / "snap"),
            True)
        with index:
            return {name: index.query_batch(workload[1], self.K,
                                            predicate=predicate)
                    for name, predicate in self.PREDICATES.items()}

    @pytest.fixture(params=[(True, True), (False, False), (False, True)],
                    ids=lambda p: f"sequential-{'wal' if p[0] else 'nolog'}"
                                  f"-{'disk' if p[1] else 'memory'}")
    def updated(self, request, workload, tmp_path):
        """One index per (logged?, on disk?)."""
        logged, on_disk = request.param
        made = self._updated(
            workload, str(tmp_path / "snap") if on_disk else None,
            logged)
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
        assert (index._wal is not None) == index.spec.wal
        np.testing.assert_array_equal(batch_ids, reference[name][0])
        np.testing.assert_array_equal(batch_dists, reference[name][1])

    @pytest.mark.parametrize("name", list(PREDICATES))
    @pytest.mark.parametrize("logged", [True, False], ids=["wal", "nolog"])
    def test_process_service_equals_oracle(self, workload, tmp_path, logged,
                                           name):
        """The updated index, compacted so that its snapshot holds the
        inserts and deletes, served by a process-mode service: the
        workers answer every row, predicate given to ``submit``, as the
        oracle does over the index the service wraps."""
        _, queries = workload
        predicate = self.PREDICATES[name]
        index, vectors, deleted = self._updated(
            workload, str(tmp_path / "snap"), logged)
        with index:
            index.compact()
            want = [scalar_oracle(index, query, self.K, predicate)
                    for query in queries]
            with served(index) as service:
                futures = [service.submit(query, self.K, predicate=predicate)
                           for query in queries]
                got = [future.result(timeout=60) for future in futures]
        for query, (ids, dists), (want_ids, want_dists) in zip(
                queries, got, want):
            assert not deleted & set(ids.tolist())
            np.testing.assert_array_equal(ids, want_ids)
            np.testing.assert_array_equal(dists, want_dists)
            np.testing.assert_allclose(
                dists, np.linalg.norm(vectors[ids] - query, axis=1),
                rtol=1e-5)
        assert any((ids >= len(vectors) - 3).any() for ids, _ in got)

    @pytest.mark.parametrize("backend", ["memory", "mmap"])
    def test_reopened_16_byte_keys_equal_oracle(self, workload, tmp_path,
                                               backend):
        """One tree over all 16 dimensions at ω = 8, so 16-byte keys (the
        width the suite's workloads run at), answered after ``save_index``
        folded the delta and a reopen under each backend."""
        _, queries = workload
        index, _, deleted = self._updated(workload, None, False,
                                          num_trees=1)
        with index:
            save_index(index, str(tmp_path))
        with load_index(str(tmp_path), backend=backend) as reopened:
            assert reopened.trees[0].packed.key_width == 16
            for predicate in self.PREDICATES.values():
                batch_ids, batch_dists = reopened.query_batch(
                    queries, self.K, predicate=predicate)
                for row, query in enumerate(queries):
                    want_ids, want_dists = scalar_oracle(
                        reopened, query, self.K, predicate)
                    assert not deleted & set(want_ids.tolist())
                    for ids, dists in (
                            reopened.query(query, self.K, predicate=predicate),
                            (batch_ids[row], batch_dists[row])):
                        np.testing.assert_array_equal(ids, want_ids)
                        np.testing.assert_array_equal(dists, want_dists)


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

    @pytest.fixture(scope="class", params=[2, 1],
                    ids=["two-trees", "one-tree"])
    def updated(self, request, workload):
        """Un-compacted delta rows and deleted base and delta ids, under
        16-byte keys (32 with one tree) whose leading words all tie: the
        data fills the lowest 256th of each axis of a 16-bit grid, so
        every key starts with the same 64 bits, so no leading word
        tells two distances apart."""
        index, _, _ = TestScalarOracleParity._updated(
            workload, None, False, num_trees=request.param,
            hilbert_order=16, domain=(0.0, 30000.0))
        heads = {bytes(key[:8]) for tree in index.trees
                 for key in tree.packed.keys_raw}
        assert all(tree.packed.key_width == 32 // request.param
                   for tree in index.trees)
        assert len(heads) == 1
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
        """Once per (predicate, base generation): one ``flatnonzero`` on
        the predicate's first use — over one tree, too — none when it (or
        an equal object) recurs, and one again after ``compact()`` folds
        the delta into the base.  A fresh index of the fixture's tree
        count, so the fixture stays un-compacted."""
        index, _, _ = TestScalarOracleParity._updated(
            workload, None, False, num_trees=len(updated.trees))
        predicate = Eq("label", 1)
        eligible = np.count_nonzero(predicate.mask(index.metadata))
        calls = []
        flatnonzero = np.flatnonzero

        def counted(*args, **kwargs):
            calls.append(args)
            return flatnonzero(*args, **kwargs)

        monkeypatch.setattr(np, "flatnonzero", counted)
        for form in (predicate, predicate, Eq("label", np.int64(1))):
            index.query(workload[1][0], 10, predicate=form)
            assert len(calls) == 1
        assert eligible > index.last_query_stats().extra["alpha"]
        index.compact()
        got = index.query(workload[1][0], 10, predicate=predicate)
        assert len(calls) == 2
        # The same rows under a predicate new to the index: a fresh mask.
        want = index.query(workload[1][0], 10, predicate=In("label", [1]))
        assert len(calls) == 3
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        index.close()


def per_column_survivors(query_ref, cand_ids, cand_ref, beta, gamma,
                         pairs):
    """Stage (ii) with Eq. 6 over every β-survivor column, copies of an
    object included: what ``filter_survivors`` computed before it shared
    one bound per distinct id."""
    trees, width = cand_ids.shape
    block = cand_ref.reshape(cand_ref.shape[0], trees * width)
    rows = np.arange(trees)[:, None]
    keep = filter_candidates(triangular_lower_bounds_many(
        query_ref, block.T).reshape(trees, width), beta)
    columns = (keep + width * rows).ravel()
    ptol = ptolemaic_lower_bounds_many(query_ref, block[:, columns].T, pairs)
    cut = filter_candidates(ptol.reshape(keep.shape), gamma)
    return np.take(cand_ids, np.take(
        columns, (cut + keep.shape[1] * rows).ravel())).reshape(trees, -1)


class FilterOnly:
    """The one thing ``filter_survivors`` reads of an index."""

    def __init__(self, pairs):
        self.references = type("References", (), {"pairs": pairs})()


@st.composite
def survivor_blocks(draw):
    """(ids, (m, τ, α) stored distances, query distances, β, γ, pairs) of
    one query row, an object's stored distances the same in every tree
    and no id twice in a tree, shaped as the table can see it."""
    trees, width = draw(st.integers(1, 6)), draw(st.integers(2, 40))
    m = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = draw(st.sampled_from(["copies", "one-slot", "distinct",
                                  "overlap"]))
    pool = width * (trees if shape == "distinct" else 2)
    objects = rng.uniform(0.0, 100.0, size=(pool, m))
    if shape == "copies":  # τ copies of one window
        picks = np.tile(rng.permutation(pool)[:width], (trees, 1))
    else:
        picks = np.stack([rng.permutation(pool)[:width]
                          for _ in range(trees)])
        if shape == "distinct":
            picks = np.arange(trees * width).reshape(trees, width)
    # One slot for every id: multiples of a power of two past the table.
    ids = (picks << 40) if shape == "one-slot" else picks + 7
    cand_ref = objects[picks].transpose(2, 0, 1).copy()
    refs = rng.uniform(0.0, 100.0, size=(m, 8))
    beta = draw(st.integers(1, width))
    return (ids.astype(np.int64), cand_ref, rng.uniform(0.0, 150.0, m),
            beta, draw(st.integers(1, beta)),
            pair_table(pairwise_euclidean(refs, refs)))


class TestEq6Sharing:
    """Eq. 6 runs once per distinct β-survivor of a row and each copy
    takes its bound; the survivors are those of Eq. 6 per column."""

    @settings(max_examples=300, deadline=None)
    @given(survivor_blocks())
    def test_survivors_equal_a_per_column_eq6(self, block):
        ids, cand_ref, query_ref, beta, gamma, pairs = block
        index = FilterOnly(pairs)  # the engine holds a weak proxy
        got = QueryEngine(index).filter_survivors(
            query_ref, ids, cand_ref, beta, gamma, True)
        want = per_column_survivors(query_ref, ids, cand_ref, beta, gamma,
                                    pairs)
        np.testing.assert_array_equal(np.sort(got, axis=1),
                                      np.sort(want, axis=1))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 62), min_size=1, max_size=300))
    def test_representatives_hold_the_same_id(self, ids):
        ids = np.asarray(ids, dtype=np.int64)
        rep, own = engine_module.representatives(ids)
        np.testing.assert_array_equal(ids[rep], ids)
        np.testing.assert_array_equal(rep[own], own)  # each its own
        np.testing.assert_array_equal(np.unique(rep), own)
        if ids.max() < 4 * ids.size:  # below the table: no collision
            assert own.size == np.unique(ids).size

    def test_one_tree_blocks_build_no_table(self, workload, monkeypatch):
        """A one-tree index's block holds one tree, which holds an id
        once: its Eq. 6 runs over every β-survivor, no table involved."""
        data, queries = workload
        index = HDIndex(params(use_ptolemaic=True, num_trees=1))
        index.build(data)
        filter_survivors = QueryEngine.filter_survivors
        blocks = []

        def checked(self, query_ref, cand_ids, cand_ref, beta, gamma,
                    ptolemaic):
            got = filter_survivors(self, query_ref, cand_ids, cand_ref,
                                   beta, gamma, ptolemaic)
            want = per_column_survivors(query_ref, cand_ids, cand_ref, beta,
                                        gamma, self.index.references.pairs)
            np.testing.assert_array_equal(np.sort(got, axis=1),
                                          np.sort(want, axis=1))
            blocks.append(cand_ids.shape[0])
            return got

        def no_table(ids):
            raise AssertionError("a one-tree block built the Eq. 6 table")

        monkeypatch.setattr(QueryEngine, "filter_survivors", checked)
        monkeypatch.setattr(engine_module, "representatives", no_table)
        try:
            index.query_batch(queries, 10)
        finally:
            index.close()
        assert blocks and set(blocks) == {1}


class TestStageTwoWorkingSet:
    """Stage (ii) runs once per query row, over the (τ, α') block of the
    row's trees: one Eq. 5 call over τ·α' candidates and one Eq. 6 call
    over the row's distinct β-survivors (over one tree, β' of them).
    Never one call across rows: fusing the rows of a call into one
    matrix made ``query_batch(16)`` slower than 16 ``query`` calls."""

    Q = 8
    #: What a batch does not amortise (its shared descriptor gather
    #: reads fewer pages than Q separate ones).
    COUNTERS = ("candidates", "distance_computations")

    @pytest.fixture(scope="class", params=[4, 1],
                    ids=["four-trees", "one-tree"])
    def labelled(self, request, workload):
        data, _ = workload
        index = build(
            IndexSpec(params=params(use_ptolemaic=True,
                                    num_trees=request.param)),
            data, metadata=[{"label": i % 3} for i in range(len(data))])
        yield index
        index.close()

    @pytest.mark.parametrize("predicate", [None, Eq("label", 1)],
                             ids=["plain", "filtered"])
    def test_kernels_see_one_row_block_at_a_time(self, workload, labelled,
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
                calls.append((np.array(query_ref), np.array(cand_ref)))
                return kernel(query_ref, cand_ref, *rest)
            return spied

        seen = {"triangular_lower_bounds_many": [],
                "ptolemaic_lower_bounds_many": []}
        for name, calls in seen.items():
            monkeypatch.setattr(engine_module, name,
                                spy(getattr(engine_module, name), calls))
        ids, dists = index.query_batch(queries, 10, predicate=predicate)
        stats = index.last_query_stats()

        block = len(index.trees)
        m = index.params.num_references
        alpha, beta = stats.extra["alpha"], stats.extra["beta"]
        shared = 0
        assert all(len(calls) == self.Q for calls in seen.values())
        for (query_ref, window), (again, survivors) in zip(*seen.values()):
            # Every tree offers the full budget here (n and the eligible
            # count both exceed α), so a block is exactly τ·α'.
            assert query_ref.shape == again.shape == (m,)
            assert window.shape == (block * alpha, m)
            # Eq. 6 sees each distinct β-survivor of the row exactly once
            # (an object is its row of stored distances).
            bounds = triangular_lower_bounds_many(
                query_ref, window).reshape(block, -1)
            keep = filter_candidates(bounds, beta) \
                + alpha * np.arange(block)[:, None]
            distinct = np.unique(window[keep.ravel()], axis=0)
            assert survivors.shape == distinct.shape
            np.testing.assert_array_equal(np.unique(survivors, axis=0),
                                          distinct)
            shared += block * beta - distinct.shape[0]
        # The trees of a row share most survivors; one tree holds an id
        # once.
        assert (shared > 0) == (block > 1)
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

    def test_query_peak_allocation_does_not_grow_with_n(self):
        """Nothing a query allocates is sized by the tree: ten times the
        rows may not add half a byte a row to one query's peak (a
        per-call stamp array of n entries, one way to find each
        β-survivor's copies, would add 1–8).  Four references keep
        Eq. 6's own share, which follows the distinct survivors, small."""
        rng = np.random.default_rng(5)
        peaks = []
        for n in (3000, 30000):
            data = rng.uniform(0.0, 100.0, size=(n, 16))
            index = HDIndex(params(num_references=4, alpha=256, gamma=32,
                                   use_ptolemaic=True))
            index.build(data)
            index.query(data[0], 10)  # warm: lazy caches are not a query's
            peak = 0
            for query in data[:6] + 0.5:
                tracemalloc.start()
                try:
                    index.query(query, 10)
                    peak = max(peak, tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] - peaks[0] < (30000 - 3000) // 2, peaks

    def test_eq6_never_holds_a_row_block_product(self):
        """A query row's whole (pairs, τ·β) Eq. 6 product — 1.5 MB at
        m = 10, τ = 8, β = 512 — measured slower than chunks of it (it
        page-faults again whenever the allocator trims it); the kernel
        runs it through one reused scratch slab of a tree's β columns."""
        rng = np.random.default_rng(6)
        refs = rng.uniform(0.0, 100.0, size=(10, 16))
        pairs = pair_table(pairwise_euclidean(refs, refs))
        block = rng.uniform(0.0, 100.0, size=(10, 8 * 512)).T
        query_ref = rng.uniform(0.0, 100.0, size=10)
        whole = pairs.first.shape[0] * block.shape[0] * 8
        assert whole > 4 * EQ6_SCRATCH_BYTES
        ptolemaic_lower_bounds_many(query_ref, block, pairs)
        tracemalloc.start()
        try:
            bounds = ptolemaic_lower_bounds_many(query_ref, block, pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bounds.shape == (8 * 512,)
        assert peak <= EQ6_SCRATCH_BYTES + 2 * bounds.nbytes, (peak, whole)

    def test_short_window_raises_instead_of_filtering_garbage(
            self, workload, monkeypatch):
        """The row block's invariant: every tree of an index holds the
        same entries, so each offers a row the same α' candidates.  The
        block is not initialised, so a tree that offers fewer — a count
        that differs from the first tree's, a stale layout — must raise
        rather than leave unwritten columns for Eq. 5 to rank."""
        data, queries = workload
        index = HDIndex(params())
        index.build(data)
        candidates = index.trees[2].candidates

        def short(query_key, alpha, subset=None, out=None):
            ids, ref = candidates(query_key, alpha, subset)
            return ids[:-1], ref[:-1]

        monkeypatch.setattr(index.trees[2], "candidates", short)
        with pytest.raises(CandidateWindowError):
            index.query(queries[0], 10)


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

    #: C-level calls ``nearest_positions(key, 1024, stats)`` makes on the
    #: tree below, its page reads counted into an ``IOStats``.  20 of them
    #: are the bisection's key reads, one ``bytes.ljust`` a key, two keys
    #: a probe, ten probes (29 in all when one vectorised comparison of
    #: leading distance words counted the forward picks, 31 when the reads
    #: were a replayed list of page ids, 38 before the one-run word kernel
    #: and the ancestor table).
    NEAREST_C_CALLS = 48

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
        packed, _ = bulk_load(codec, keys, np.arange(5000), 4096)
        key = codec.encode(keys[2500] + 1)

        stats = IOStats()
        # The search itself, under the sanitizer too (not its wrapper,
        # which re-runs the lookup down the node walk).
        search = inspect.unwrap(PackedTree.nearest_positions)
        c_calls, python_calls = profiled_calls(
            lambda: search(packed, key, 1024, stats))
        assert stats.page_reads > 2 * len(packed.level_pages) + 2
        assert python_calls["broadcast_arrays"] == 0
        assert python_calls["_count_descent"] == 2
        assert c_calls <= self.NEAREST_C_CALLS, c_calls


def test_a_dropped_index_is_freed_without_the_cycle_collector():
    """The engine holds its index through a weak proxy, so no reference
    cycle keeps a closed index's columns alive until the cyclic
    collector next runs (whose timing then decided a process's RSS)."""
    data = np.random.default_rng(1).uniform(0.0, 100.0, size=(300, 16))
    gc.disable()
    try:
        index = HDIndex(params())
        index.build(data)
        index.query(data[0], 3)
        index.close()
        columns = weakref.ref(index.trees[0].packed)
        del index
        assert columns() is None
    finally:
        gc.enable()


class TestOnePointAdapter:
    """What ``query`` adds to ``query_batch`` — and nothing else."""

    @pytest.fixture(scope="class")
    def few(self):
        rng = np.random.default_rng(7)
        data = rng.uniform(0.0, 100.0, size=(6, 16))
        made = []
        small = params(alpha=8, gamma=8, num_references=2)
        index = HDIndex(small)
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
        mask, so a filtered query under-reported its own time.  Each run
        brings a predicate new to the index, so the mask is not held."""
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
                                              predicate=Eq("label", 2))):
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
