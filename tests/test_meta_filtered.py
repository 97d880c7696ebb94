"""Filtered (predicate-pushdown) kNN: end-to-end correctness.

The load-bearing guarantee: with exhaustive budgets (α ≥ n), a filtered
query is *byte-identical* to the brute-force filter-then-kNN oracle —
mask the corpus with the predicate, scan the eligible descriptors as
stored, take the k nearest.  That must hold across every executor,
every storage backend, through WAL inserts and compaction, and over the
serve tier; and ineligible points must never reach the heap's
``gather`` (proven by instrumenting it and by poisoning ineligible
rows).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import HDIndex, HDIndexParams, IndexSpec, open_index
from repro.core.factory import build
from repro.core.spec import Execution, Topology
from repro.distance import euclidean_to_many, normalize_rows, top_k_smallest
from repro.meta import And, Eq, In, MetadataStore, Not, Range

DIM = 12
N = 240


def make_workload(seed=0, n=N):
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.0, 40.0, size=(n, DIM))
    queries = rng.uniform(0.0, 40.0, size=(6, DIM))
    metadata = [{"label": int(i % 7), "score": float(i) / n,
                 "tag": "even" if i % 2 == 0 else "odd"}
                for i in range(n)]
    return data, queries, metadata


def exhaustive_params(n=N, **overrides):
    """Budgets that keep every eligible point in play end-to-end, so the
    pipeline must reproduce the oracle exactly."""
    defaults = dict(num_trees=2, num_references=4, hilbert_order=6,
                    alpha=n, beta=n, gamma=n, seed=5)
    defaults.update(overrides)
    return HDIndexParams(**defaults)


def oracle(index, query, k, predicate):
    """Brute-force filter-then-kNN over the descriptors as stored."""
    eligible = np.nonzero(predicate.mask(index.metadata))[0]
    if eligible.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    stored = index.heap.gather(eligible)
    if index.params.metric == "angular":
        query = normalize_rows(np.asarray(query, dtype=np.float64)
                               [None, :])[0]
    exact = euclidean_to_many(query, stored)
    best = top_k_smallest(exact, min(k, eligible.size))
    return eligible[best], exact[best]


PREDICATES = [
    Eq("label", 3),
    In("label", (0, 5)),
    Range("score", low=0.25, high=0.75),
    And(Eq("tag", "even"), Range("score", high=0.5)),
    Or_pred := (Eq("label", 1) | Eq("label", 6)),
    Not(Eq("tag", "odd")),
]


class TestFilteredParity:
    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_byte_identical_to_oracle(self, predicate):
        data, queries, metadata = make_workload()
        index = HDIndex(exhaustive_params())
        index.build(data, metadata=metadata)
        for query in queries:
            ids, dists = index.query(query, k=10, predicate=predicate)
            want_ids, want_dists = oracle(index, query, 10, predicate)
            np.testing.assert_array_equal(ids, want_ids)
            np.testing.assert_array_equal(dists, want_dists)

    def test_dict_form_equals_object_form(self):
        data, queries, metadata = make_workload()
        index = HDIndex(exhaustive_params())
        index.build(data, metadata=metadata)
        predicate = And(Eq("tag", "even"), Range("score", low=0.2))
        a = index.query(queries[0], k=8, predicate=predicate)
        b = index.query(queries[0], k=8, predicate=predicate.to_dict())
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_batch_matches_single(self):
        data, queries, metadata = make_workload()
        index = HDIndex(exhaustive_params())
        index.build(data, metadata=metadata)
        predicate = In("label", (2, 4, 6))
        batch_ids, batch_dists = index.query_batch(queries, k=5,
                                                   predicate=predicate)
        for row, query in enumerate(queries):
            ids, dists = index.query(query, k=5, predicate=predicate)
            np.testing.assert_array_equal(batch_ids[row], ids)
            np.testing.assert_array_equal(batch_dists[row], dists)

    @pytest.mark.parametrize("execution", ["sequential", "thread",
                                           "process"])
    @pytest.mark.parametrize("backend", ["mmap"])
    def test_executor_backend_matrix(self, tmp_path, execution, backend):
        data, queries, metadata = make_workload()
        spec = IndexSpec(params=exhaustive_params(),
                         execution=Execution(kind=execution, workers=2),
                         backend=backend)
        index = build(spec, data, storage_dir=str(tmp_path),
                      metadata=metadata)
        try:
            predicate = And(Range("score", low=0.1, high=0.9),
                            Not(Eq("label", 0)))
            for query in queries[:3]:
                ids, dists = index.query(query, k=7,
                                         predicate=predicate)
                want_ids, want_dists = oracle(index, query, 7, predicate)
                np.testing.assert_array_equal(ids, want_ids)
                np.testing.assert_array_equal(dists, want_dists)
        finally:
            index.close()

    def test_memory_backend_in_spec_build(self):
        data, queries, metadata = make_workload()
        index = build(IndexSpec(params=exhaustive_params()), data,
                      metadata=metadata)
        predicate = Eq("label", 5)
        ids, _ = index.query(queries[0], k=4, predicate=predicate)
        want_ids, _ = oracle(index, queries[0], 4, predicate)
        np.testing.assert_array_equal(ids, want_ids)

    @given(seed=st.integers(0, 10**6), label=st.integers(0, 6),
           k=st.integers(1, 12))
    @settings(max_examples=20, deadline=None)
    def test_parity_property(self, seed, label, k):
        data, queries, metadata = make_workload(seed=seed, n=120)
        index = HDIndex(exhaustive_params(n=120, seed=seed % 50))
        index.build(data, metadata=metadata)
        predicate = Eq("label", label)
        ids, dists = index.query(queries[0], k=k, predicate=predicate)
        want_ids, want_dists = oracle(index, queries[0], k, predicate)
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(dists, want_dists)

    def test_empty_selectivity_returns_empty(self):
        data, queries, metadata = make_workload()
        index = HDIndex(exhaustive_params())
        index.build(data, metadata=metadata)
        ids, dists = index.query(queries[0], k=5,
                                 predicate=Eq("label", 99))
        assert ids.size == 0 and dists.size == 0
        stats = index.last_query_stats()
        assert stats.extra["selectivity"] == 0.0


class TestPushdownProof:
    def test_ineligible_never_gathered(self):
        """Instrument the heap: every id fetched during a filtered query
        must be predicate-eligible — pushdown, not post-filtering."""
        data, queries, metadata = make_workload()
        index = HDIndex(exhaustive_params())
        index.build(data, metadata=metadata)
        predicate = Eq("label", 3)
        eligible = set(
            np.nonzero(predicate.mask(index.metadata))[0].tolist())

        gathered = []
        original = index.heap.gather

        def recording_gather(ids):
            gathered.extend(np.asarray(ids).tolist())
            return original(ids)

        index.heap.gather = recording_gather
        try:
            for query in queries:
                index.query(query, k=10, predicate=predicate)
        finally:
            index.heap.gather = original
        assert gathered, "rerank never touched the heap"
        assert set(gathered) <= eligible

    def test_poisoned_ineligible_rows_do_not_leak(self):
        """Overwrite every ineligible descriptor with a point sitting on
        the query: if any ineligible row reached the distance kernels,
        it would win the top-1 slot instantly."""
        data, queries, metadata = make_workload()
        predicate = Eq("tag", "even")
        poisoned = data.copy()
        for i in range(N):
            if metadata[i]["tag"] != "even":
                poisoned[i] = queries[0]  # exact hit: distance 0
        index = HDIndex(exhaustive_params())
        index.build(poisoned, metadata=metadata)
        ids, dists = index.query(queries[0], k=10, predicate=predicate)
        labels = [metadata[int(i)]["tag"] for i in ids]
        assert labels == ["even"] * len(ids)
        want_ids, want_dists = oracle(index, queries[0], 10, predicate)
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(dists, want_dists)


class TestEligibleWindow:
    """At budgets that do not exhaust the eligible set the semantics
    show: every tree offers stage (ii) its α nearest-by-key *eligible*
    entries, and α, β, γ are the configured ones."""

    N, Q, K = 20_000, 16, 10
    ALPHA, BETA, GAMMA = 64, 48, 32
    #: What the ×20-inflated budgets (1280 / 960 / 640: no cut in stage
    #: (ii) at all) answered on this seed before eligible lookups.
    INFLATED_RECALL = 159 / 160

    @pytest.fixture(scope="class")
    def workload(self):
        rng = np.random.default_rng(18)
        centers = rng.uniform(0.0, 100.0, size=(40, 16))
        data = np.clip(centers[rng.integers(0, 40, self.N)]
                       + rng.normal(0.0, 6.0, (self.N, 16)), 0, 100)
        queries = np.clip(
            data[rng.choice(self.N, self.Q, replace=False)]
            + rng.normal(0.0, 1.0, (self.Q, 16)), 0, 100)
        labels = rng.integers(0, 20, self.N)  # Eq(label, 3): 5 %
        index = HDIndex(HDIndexParams(
            num_trees=4, num_references=5, alpha=self.ALPHA,
            beta=self.BETA, gamma=self.GAMMA, use_ptolemaic=True,
            domain=(0.0, 100.0), seed=3))
        index.build(data, metadata=[
            {"label": int(label), "rare": int(row % 377 == 0)}
            for row, label in enumerate(labels)])
        return index, queries, np.flatnonzero(labels == 3)

    def test_each_tree_offers_alpha_eligible(self, workload, monkeypatch):
        index, queries, eligible = workload
        offered = []
        filter_survivors = index._engine.filter_survivors

        def recording(query_ref, ids, *rest):
            offered.append(ids)
            return filter_survivors(query_ref, ids, *rest)

        monkeypatch.setattr(index._engine, "filter_survivors", recording)
        index.query_batch(queries, self.K, predicate=Eq("label", 3))
        assert len(offered) == self.Q * len(index.trees)
        for ids in offered:
            assert ids.shape == (self.ALPHA,)
            assert np.isin(ids, eligible).all()
        extra = index.last_query_stats().extra
        assert (extra["alpha"], extra["beta"], extra["gamma"]) == \
            (self.ALPHA, self.BETA, self.GAMMA)
        assert extra["selectivity"] == pytest.approx(eligible.size / self.N)

    def test_recall_and_batch_parity(self, workload):
        index, queries, eligible = workload
        predicate = Eq("label", 3)
        batch_ids, batch_dists = index.query_batch(queries, self.K,
                                                   predicate=predicate)
        hits = 0
        for row, query in enumerate(queries):
            ids, dists = index.query(query, self.K, predicate=predicate)
            np.testing.assert_array_equal(batch_ids[row], ids)
            np.testing.assert_array_equal(batch_dists[row], dists)
            truth, _ = oracle(index, query, self.K, predicate)
            hits += np.isin(ids, truth).sum()
        assert hits / (self.Q * self.K) >= self.INFLATED_RECALL

    def test_no_more_eligible_than_alpha_skip_the_trees(self, workload):
        """54 matching rows among 20k: the ×64-capped window (4096
        entries a tree) could miss some.  Now every tree would offer all
        54, so none is asked: the answer is the exact filtered one and
        only the heap is read."""
        index, queries, _ = workload
        predicate = Eq("rare", 1)
        assert predicate.mask(index.metadata).sum() == 54 <= self.ALPHA
        tree_reads = sum(tree.stats.page_reads for tree in index.trees)
        for query in queries[:4]:
            ids, dists = index.query(query, self.K, predicate=predicate)
            want_ids, want_dists = oracle(index, query, self.K, predicate)
            np.testing.assert_array_equal(ids, want_ids)
            np.testing.assert_array_equal(dists, want_dists)
            assert index.last_query_stats().candidates == 54
        assert sum(tree.stats.page_reads
                   for tree in index.trees) == tree_reads
        # One over: the trees answer, α candidates each.
        ids, _ = index.query(queries[0], self.K, predicate=predicate,
                             alpha=53)
        assert index.last_query_stats().candidates <= 53 * len(index.trees)
        assert sum(tree.stats.page_reads
                   for tree in index.trees) > tree_reads


class TestEmptyPredicate:
    """A predicate no base row matches (the far end of "no more eligible
    rows than α"): no tree descent, no gather."""

    def build(self, tmp_path=None, **spec):
        data, queries, metadata = make_workload()
        index = build(IndexSpec(params=exhaustive_params(), **spec), data,
                      storage_dir=tmp_path and str(tmp_path),
                      metadata=metadata)
        return index, queries

    def test_no_page_is_read(self):
        index, queries = self.build()
        index.heap.gather = None  # poisoned: any fetch raises TypeError
        for tree in index.trees:
            tree.candidates = None
        before = index.io_snapshot()
        ids, dists = index.query(queries[0], k=5, predicate=Eq("label", 99))
        assert ids.size == 0 and dists.size == 0
        batch_ids, batch_dists = index.query_batch(
            queries, k=5, predicate=Eq("label", 99))
        assert (batch_ids == -1).all() and np.isinf(batch_dists).all()
        assert index.io_snapshot() == before
        stats = index.last_query_stats()
        assert stats.page_reads == 0 and stats.candidates == 0
        assert stats.extra["selectivity"] == 0.0

    @pytest.mark.parametrize("execution", ["thread", "process"])
    def test_no_page_is_read_through_a_pool(self, tmp_path, execution):
        index, queries = self.build(
            tmp_path, backend="mmap",
            execution=Execution(kind=execution, workers=2))
        with index:
            ids, _ = index.query(queries[0], k=5, predicate=Eq("label", 99))
            assert ids.size == 0
            assert index.last_query_stats().page_reads == 0

    def test_eligible_delta_rows_still_answer(self):
        index, queries = self.build()
        new_id = index.insert(queries[0], metadata={
            "label": 99, "score": 0.5, "tag": "even"})
        index.insert(queries[1], metadata={
            "label": 3, "score": 0.5, "tag": "odd"})
        before = index.io_snapshot()
        ids, dists = index.query(queries[0], k=5, predicate=Eq("label", 99))
        assert ids.tolist() == [new_id] and dists[0] < 1e-5
        assert index.io_snapshot() == before


class TestSelectivityInflation:
    def test_stats_report_selectivity(self):
        data, queries, metadata = make_workload()
        index = HDIndex(exhaustive_params())
        index.build(data, metadata=metadata)
        index.query(queries[0], k=3, predicate=Eq("tag", "even"))
        stats = index.last_query_stats()
        assert stats.extra["selectivity"] == pytest.approx(0.5)


class TestFilteredValidation:
    def test_predicate_without_metadata(self):
        data, queries, _ = make_workload()
        index = HDIndex(exhaustive_params())
        index.build(data)
        with pytest.raises(ValueError, match="without metadata"):
            index.query(queries[0], k=3, predicate=Eq("label", 1))

    def test_unknown_column_fails_before_scan(self):
        data, queries, metadata = make_workload()
        index = HDIndex(exhaustive_params())
        index.build(data, metadata=metadata)
        with pytest.raises(ValueError, match="unknown metadata column"):
            index.query(queries[0], k=3, predicate=Eq("missing", 1))

    def test_metadata_count_mismatch(self):
        data, _, metadata = make_workload()
        index = HDIndex(exhaustive_params())
        with pytest.raises(ValueError):
            index.build(data, metadata=metadata[:-1])

    def test_insert_metadata_contract(self):
        data, _, metadata = make_workload()
        with_meta = HDIndex(exhaustive_params())
        with_meta.build(data, metadata=metadata)
        with pytest.raises(ValueError, match="requires a metadata dict"):
            with_meta.insert(data[0])
        without = HDIndex(exhaustive_params())
        without.build(data)
        with pytest.raises(ValueError, match="built without it"):
            without.insert(data[0], metadata={"label": 1})


class TestFilteredPersistence:
    @pytest.mark.parametrize("backend", ["mmap"])
    def test_metadata_survives_save_load(self, tmp_path, backend):
        data, queries, metadata = make_workload()
        spec = IndexSpec(params=exhaustive_params(), backend=backend)
        index = build(spec, data, storage_dir=str(tmp_path),
                      metadata=metadata)
        predicate = Range("score", low=0.4)
        want = index.query(queries[0], k=6, predicate=predicate)
        index.close()
        with open_index(str(tmp_path)) as reopened:
            assert isinstance(reopened.metadata, MetadataStore)
            got = reopened.query(queries[0], k=6, predicate=predicate)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    def test_metadata_free_snapshot_has_no_sidecar(self, tmp_path):
        data, _, _ = make_workload()
        spec = IndexSpec(params=exhaustive_params(), backend="mmap")
        index = build(spec, data, storage_dir=str(tmp_path))
        index.close()
        assert not (tmp_path / "metadata.packed").exists()
        with open_index(str(tmp_path)) as reopened:
            assert reopened.metadata is None


@pytest.mark.parametrize("wal", [True, False])
class TestFilteredWal:
    """Filtered queries over online updates, with the write-ahead log
    attached and without (same write path; the log is durability)."""

    def wal_spec(self, wal, n=N, shards=1):
        return IndexSpec(params=exhaustive_params(n=n), backend="mmap",
                         topology=Topology(shards=shards),
                         execution=Execution(kind="sequential", wal=wal))

    def test_wal_inserts_filterable_and_recovered(self, tmp_path, wal):
        data, queries, metadata = make_workload()
        index = build(self.wal_spec(wal), data, storage_dir=str(tmp_path),
                      metadata=metadata)
        fresh = np.asarray(queries[1])
        new_id = index.insert(fresh, metadata={"label": 3,
                                               "score": 0.33,
                                               "tag": "even"})
        predicate = Eq("label", 3)
        ids, _ = index.query(fresh, k=1, predicate=predicate)
        assert ids[0] == new_id
        # The delta row is invisible to a non-matching predicate.
        miss, _ = index.query(fresh, k=1, predicate=Eq("label", 4))
        assert new_id not in miss
        index.close()
        # Crash-recovery replay rebuilds the delta row's metadata; with
        # no log the un-saved insert was volatile and the base intact.
        with open_index(str(tmp_path)) as recovered:
            ids, _ = recovered.query(fresh, k=1, predicate=predicate)
            assert (ids[0] == new_id) == wal
            assert recovered.count == N + wal

    @pytest.mark.parametrize("shards", [1, 2])
    def test_mismatched_metadata_rejected_before_the_log(self, tmp_path,
                                                         wal, shards):
        """A row the store cannot fold (wrong column, wrong kind) must be
        refused before its frame is written: once logged it would break
        every filtered query and every compaction, across reopens."""
        data, queries, metadata = make_workload()
        index = build(self.wal_spec(wal, shards=shards), data,
                      storage_dir=str(tmp_path), metadata=metadata)
        good = {"label": 3, "score": 1, "tag": "even"}  # int -> float col
        index.insert(queries[0], metadata=good)
        log_bytes = index._wal.size_bytes() if wal else 0
        for bad, error in [({"colour": 3}, ValueError),
                           ({**good, "extra": 1}, ValueError),
                           ({**good, "label": 2.5}, TypeError),
                           ({**good, "label": "3"}, TypeError),
                           ({**good, "tag": 7}, TypeError),
                           ({**good, "score": True}, TypeError)]:
            with pytest.raises(error):
                index.insert(queries[1], metadata=bad)
        assert index.count == N + 1
        assert (index._wal.size_bytes() if wal else 0) == log_bytes
        ids, _ = index.query(queries[0], k=1, predicate=Eq("label", 3))
        assert ids[0] == N
        index.compact()
        ids, _ = index.query(queries[0], k=1,
                             predicate=Eq("score", 1.0) & Eq("tag", "even"))
        assert ids[0] == N
        index.close()

    def test_compaction_folds_metadata(self, tmp_path, wal):
        data, queries, metadata = make_workload()
        index = build(self.wal_spec(wal), data, storage_dir=str(tmp_path),
                      metadata=metadata)
        fresh = np.asarray(queries[2])
        new_id = index.insert(fresh, metadata={"label": 5, "score": 0.5,
                                               "tag": "odd"})
        index.compact()
        assert index.metadata.count == N + 1
        assert index.metadata.row(new_id)["label"] == 5
        ids, _ = index.query(fresh, k=1, predicate=Eq("label", 5))
        assert ids[0] == new_id
        index.close()
        with open_index(str(tmp_path)) as reopened:
            ids, _ = reopened.query(fresh, k=1, predicate=Eq("label", 5))
            assert ids[0] == new_id

    def test_parity_through_wal_interleavings(self, tmp_path, wal):
        """Insert → query → compact → insert → query: parity with the
        oracle (base store + delta rows) at every step."""
        data, queries, metadata = make_workload(n=150)
        index = build(self.wal_spec(wal, n=150), data,
                      storage_dir=str(tmp_path),
                      metadata=metadata)
        rng = np.random.default_rng(11)
        predicate = Eq("tag", "even")

        def check():
            query = queries[0]
            ids, dists = index.query(query, k=9, predicate=predicate)
            # Oracle over base + delta: compact-free reference.
            rows = [index.metadata.row(i)
                    for i in range(index.metadata.count)]
            delta = index._delta
            rows += delta.metadata_rows()
            eligible = np.asarray([predicate.matches(r) for r in rows])
            vectors = index.heap.gather(
                np.arange(index.metadata.count))
            delta_records = delta.records()
            if delta_records:
                vectors = np.vstack(
                    [vectors,
                     np.asarray([r[1] for r in delta_records],
                                dtype=vectors.dtype)])
            keep = np.nonzero(eligible)[0]
            exact = euclidean_to_many(query, vectors[keep])
            best = top_k_smallest(exact, min(9, keep.size))
            np.testing.assert_array_equal(ids, keep[best])
            np.testing.assert_array_equal(dists, exact[best])

        check()
        for step in range(4):
            vector = rng.uniform(0.0, 40.0, size=DIM)
            index.insert(vector, metadata={
                "label": int(step % 7), "score": 0.9,
                "tag": "even" if step % 2 == 0 else "odd"})
            check()
            if step == 1:
                index.compact()
                check()
        index.close()


class TestAngularMetric:
    def test_angular_matches_normalized_euclidean_oracle(self):
        data, queries, _ = make_workload()
        ndata = normalize_rows(data)
        angular = HDIndex(exhaustive_params(metric="angular"))
        angular.build(ndata)
        euclid = HDIndex(exhaustive_params())
        euclid.build(ndata)
        for query in queries:
            nquery = normalize_rows(query[None, :])[0]
            a_ids, a_dists = angular.query(query, k=10)
            e_ids, e_dists = euclid.query(nquery, k=10)
            np.testing.assert_array_equal(a_ids, e_ids)
            np.testing.assert_array_equal(a_dists, e_dists)

    def test_angular_requires_normalized_build(self):
        data, _, _ = make_workload()
        index = HDIndex(exhaustive_params(metric="angular"))
        with pytest.raises(ValueError, match="unit-normalised"):
            index.build(data)

    def test_angular_filtered_parity(self):
        data, queries, metadata = make_workload()
        ndata = normalize_rows(data)
        index = HDIndex(exhaustive_params(metric="angular"))
        index.build(ndata, metadata=metadata)
        predicate = In("label", (1, 3, 5))
        for query in queries[:3]:
            ids, dists = index.query(query, k=8, predicate=predicate)
            want_ids, want_dists = oracle(index, query, 8, predicate)
            np.testing.assert_array_equal(ids, want_ids)
            np.testing.assert_array_equal(dists, want_dists)

    def test_angular_survives_persistence(self, tmp_path):
        data, queries, _ = make_workload()
        ndata = normalize_rows(data)
        spec = IndexSpec(params=exhaustive_params(metric="angular"),
                         backend="mmap")
        index = build(spec, ndata, storage_dir=str(tmp_path))
        want = index.query(queries[0], k=5)
        index.close()
        with open_index(str(tmp_path)) as reopened:
            assert reopened.params.metric == "angular"
            got = reopened.query(queries[0], k=5)
            np.testing.assert_array_equal(got[0], want[0])

    def test_angular_insert_requires_normalized(self):
        data, _, _ = make_workload()
        index = HDIndex(exhaustive_params(metric="angular"))
        index.build(normalize_rows(data))
        with pytest.raises(ValueError, match="unit-normalised"):
            index.insert(np.full(DIM, 3.0))


class TestShardedFiltered:
    def test_sharded_filtered_parity(self):
        from repro.core.spec import Topology
        data, queries, metadata = make_workload()
        spec = IndexSpec(params=exhaustive_params(),
                         topology=Topology(shards=3))
        router = build(spec, data, metadata=metadata)
        plain = HDIndex(exhaustive_params())
        plain.build(data, metadata=metadata)
        predicate = And(Eq("tag", "odd"), Range("score", low=0.2))
        for query in queries[:3]:
            r_ids, r_dists = router.query(query, k=6,
                                          predicate=predicate)
            want_ids, want_dists = oracle(plain, query, 6, predicate)
            np.testing.assert_array_equal(np.sort(r_dists),
                                          np.sort(want_dists))
            np.testing.assert_array_equal(r_ids, want_ids)


class TestServeFiltered:
    def test_service_accepts_predicate_objects_and_dicts(self):
        from repro.serve import QueryService, ServiceConfig
        data, queries, metadata = make_workload()
        index = HDIndex(exhaustive_params())
        index.build(data, metadata=metadata)
        predicate = Eq("label", 2)
        want_ids, want_dists = oracle(index, queries[0], 5, predicate)
        with QueryService(index, ServiceConfig(max_batch=4)) as service:
            ids, dists = service.submit(queries[0], 5,
                                        predicate=predicate).result(10)
            np.testing.assert_array_equal(ids, want_ids)
            np.testing.assert_array_equal(dists, want_dists)
            ids2, _ = service.submit(
                queries[0], 5, predicate=predicate.to_dict()).result(10)
            np.testing.assert_array_equal(ids2, want_ids)

    def test_cached_filtered_results_keyed_by_predicate(self):
        from repro.serve import QueryService, ServiceConfig
        data, queries, metadata = make_workload()
        index = HDIndex(exhaustive_params())
        index.build(data, metadata=metadata)
        config = ServiceConfig(max_batch=2, cache_size=16)
        with QueryService(index, config) as service:
            a1 = service.submit(queries[0], 5,
                                predicate=Eq("label", 1)).result(10)
            b1 = service.submit(queries[0], 5,
                                predicate=Eq("label", 2)).result(10)
            a2 = service.submit(queries[0], 5,
                                predicate=Eq("label", 1)
                                .to_dict()).result(10)
            assert not np.array_equal(a1[0], b1[0])
            np.testing.assert_array_equal(a1[0], a2[0])
            assert service.stats().cache_hits >= 1

    def test_predicate_crosses_wire_protocol(self):
        from repro.serve.protocol import decode_body, encode_frame, \
            query_request
        predicate = And(Eq("label", 1), Not(Eq("tag", "odd")))
        frame = encode_frame(query_request(
            7, np.zeros(DIM), 5, overrides={"predicate": predicate}))
        message = decode_body(frame[4:])
        assert message["overrides"]["predicate"] == predicate.to_dict()
