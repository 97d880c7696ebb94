"""Filtered (predicate-pushdown) kNN: end-to-end correctness.

The load-bearing guarantee: with exhaustive budgets (α ≥ n), a filtered
query is *byte-identical* to the brute-force filter-then-kNN oracle —
mask the corpus with the predicate, scan the eligible descriptors as
stored, take the k nearest.  That must hold under either execution,
every storage backend, through WAL inserts and compaction, and over the
serve tier; and ineligible points must never reach the heap's
``gather`` (proven by instrumenting it and by poisoning ineligible
rows).
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import HDIndex, HDIndexParams, IndexSpec, open_index
from repro.core.factory import build
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

    @pytest.mark.parametrize("workers", [None, 2],
                             ids=["sequential", "process"])
    @pytest.mark.parametrize("backend", ["memory", "mmap"])
    def test_executor_backend_matrix(self, tmp_path, workers, backend):
        """Answered by the index in-process, or by a process-mode
        service over its snapshot with the predicate in ``submit``."""
        from repro.serve import QueryService
        data, queries, metadata = make_workload()
        spec = IndexSpec(params=exhaustive_params(
            backend=backend, storage_dir=str(tmp_path)))
        index = build(spec, data, storage_dir=str(tmp_path),
                      metadata=metadata)
        service = QueryService(index, workers=workers).start()
        try:
            predicate = And(Range("score", low=0.1, high=0.9),
                            Not(Eq("label", 0)))
            for query in queries[:3]:
                ids, dists = service.query(query, k=7, timeout=60,
                                           predicate=predicate)
                want_ids, want_dists = oracle(index, query, 7, predicate)
                np.testing.assert_array_equal(ids, want_ids)
                np.testing.assert_array_equal(dists, want_dists)
        finally:
            service.stop()
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
            offered.append(ids.copy())  # the block is refilled per row
            return filter_survivors(query_ref, ids, *rest)

        monkeypatch.setattr(index._engine, "filter_survivors", recording)
        index.query_batch(queries, self.K, predicate=Eq("label", 3))
        assert len(offered) == self.Q
        for ids in offered:
            assert ids.shape == (len(index.trees), self.ALPHA)
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

    def build(self, tmp_path=None):
        data, queries, metadata = make_workload()
        index = build(IndexSpec(params=exhaustive_params()), data,
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

    def test_nothing_is_answered_through_a_pool(self, tmp_path):
        """Served by a process-mode service, the predicate given to
        ``submit``: every worker row is all padding, as the index's own
        batch answer is."""
        from repro.serve import QueryService
        index, queries = self.build(tmp_path)
        want_ids, want_dists = index.query_batch(queries, k=5,
                                                 predicate=Eq("label", 99))
        assert (want_ids == -1).all() and np.isinf(want_dists).all()
        with index, QueryService(index, workers=2) as service:
            futures = [service.submit(query, 5, predicate=Eq("label", 99))
                       for query in queries]
            for row, future in enumerate(futures):
                ids, dists = future.result(timeout=60)
                assert ids.tobytes() == want_ids[row].tobytes()
                assert dists.tobytes() == want_dists[row].tobytes()

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

    def test_selectivity_is_the_mask_mean_to_the_bit(self):
        """A count over the mask's size, not ``mask.mean()``: the same
        float, bit for bit, for a mask with no rows, none, a tenth and
        all of them set."""
        data, queries, _ = make_workload()
        index = HDIndex(exhaustive_params())
        index.build(data, metadata=[{"label": i % 10} for i in range(N)])

        class GivenMask:
            def __init__(self, mask):
                self._mask = mask

            def mask(self, store):
                return self._mask

        tenth = Eq("label", 3).mask(index.metadata)
        for mask in (np.zeros(0, dtype=bool), np.zeros(N, dtype=bool),
                     tenth, np.ones(N, dtype=bool)):
            want = float(mask.mean()) if mask.size else 0.0
            got = index._eligibility(GivenMask(mask)).selectivity
            assert type(got) is float and got.hex() == want.hex()
        index.query(queries[0], k=3, predicate=Eq("label", 3))
        reported = index.last_query_stats().extra["selectivity"]
        assert reported.hex() == float(tenth.mean()).hex() == (0.1).hex()


class TestEligibleMemo:
    """A predicate's eligible ids and each tree's positions of them are
    held per (predicate, base generation): the same predicate object or
    an equal one answers what a memo-free index holding the same base
    answers, through every change of the base.  Budgets below the
    eligible count, so the trees are asked and the positions held."""

    N = 1400
    LABEL = Eq("label", 3)  # 200 eligible rows: more than α

    def params(self):
        return HDIndexParams(num_trees=2, num_references=4, hilbert_order=6,
                             alpha=48, beta=32, gamma=16, seed=5)

    def spec(self, wal=False):
        return IndexSpec(params=self.params(), wal=wal)

    @staticmethod
    def answers(index, queries, predicate):
        ids, dists = index.query_batch(queries, 10, predicate=predicate)
        return ids.tobytes() + dists.tobytes()

    def memo_free(self, directory, queries, predicate):
        """The answers of a fresh process-local index over the snapshot,
        whose memo is empty when the predicate arrives."""
        with open_index(directory) as fresh:
            assert fresh._eligible.held == 0
            return self.answers(fresh, queries, predicate)

    @pytest.mark.parametrize("wal", [True, False], ids=["compact", "save"])
    def test_a_fold_drops_the_held_sets(self, tmp_path, wal):
        from repro.core import save_index
        data, queries, metadata = make_workload(n=self.N)
        index = build(self.spec(wal=wal), data, storage_dir=str(tmp_path),
                      metadata=metadata)
        before = self.answers(index, queries, self.LABEL)
        held = index._eligibility(self.LABEL)
        assert held is index._eligibility(Eq("label", 3))
        assert held.ids.size > 48 and all(
            subset is not None for subset in held.subsets)
        assert not held.ids.flags.writeable
        new_id = index.insert(queries[0], metadata={
            "label": 3, "score": 0.5, "tag": "odd"})
        # An insert leaves the set alone: the merge screens the delta.
        assert index._eligibility(self.LABEL) is held
        assert index.query(queries[0], 1, predicate=self.LABEL)[0][0] \
            == new_id
        if wal:
            index.compact()
        else:
            save_index(index, str(tmp_path))
        assert index._eligibility(self.LABEL) is not held
        want = self.memo_free(str(tmp_path), queries, self.LABEL)
        for form in (self.LABEL, Eq("label", 3), self.LABEL):
            got = self.answers(index, queries, form)
            assert got == want != before
            assert index.query(queries[0], 1, predicate=form)[0][0] == new_id
        index.close()

    def test_rebuild_and_reopen(self, tmp_path):
        data, queries, metadata = make_workload(n=self.N)
        index = HDIndex(self.params())
        index.build(data, metadata=metadata)
        first = self.answers(index, queries, self.LABEL)
        shifted = [{**row, "label": (row["label"] + 1) % 7}
                   for row in metadata]
        index.build(data, metadata=shifted)
        oracle = HDIndex(self.params())
        oracle.build(data, metadata=shifted)
        for form in (self.LABEL, Eq("label", 3)):
            assert self.answers(index, queries, form) == self.answers(
                oracle, queries, In("label", [3])) != first
        persisted = build(self.spec(), data, storage_dir=str(tmp_path),
                          metadata=metadata)
        assert self.answers(persisted, queries, self.LABEL) == first
        persisted.close()
        for _ in range(2):
            with open_index(str(tmp_path)) as reopened:
                for form in (self.LABEL, Eq("label", 3)):
                    assert self.answers(reopened, queries, form) == first

    def test_swap_snapshot(self, tmp_path):
        from repro.serve import QueryService
        data, queries, metadata = make_workload(n=self.N)
        writer = build(self.spec(wal=True), data, storage_dir=str(tmp_path),
                       metadata=metadata)
        service = QueryService(open_index(str(tmp_path), wal=False),
                               max_batch=4).start()
        service._owns_index = True
        try:
            ids, _ = service.submit(queries[1], 5,
                                    predicate=self.LABEL).result(10)
            new_id = writer.insert(queries[1], metadata={
                "label": 3, "score": 0.1, "tag": "even"})
            writer.compact()
            service.swap_snapshot(timeout=10)
            want = self.memo_free(str(tmp_path), queries, self.LABEL)
            for form in (self.LABEL, Eq("label", 3)):
                got_ids, _ = service.submit(
                    queries[1], 5, predicate=form).result(10)
                assert got_ids[0] == new_id != ids[0]
                assert self.answers(service.index, queries, form) == want
        finally:
            service.stop()
            writer.close()

    @pytest.mark.parametrize("wal", [False, True], ids=["plain", "logged"])
    def test_process_pool_answers_as_sequential(self, tmp_path, wal):
        """A process-mode service answers a predicate given to
        ``submit`` as the sequential index does, the workers' memos
        missing, then hitting."""
        from repro.serve import QueryService
        data, queries, metadata = make_workload(n=self.N)
        sequential = HDIndex(self.params())
        sequential.build(data, metadata=metadata)
        want_ids, want_dists = sequential.query_batch(queries, 10,
                                                      predicate=self.LABEL)
        index = build(self.spec(wal=wal), data, storage_dir=str(tmp_path),
                      metadata=metadata)
        with index, QueryService(index, workers=2) as service:
            # Miss, hit, then the wire form (equal, not the same object).
            for form in (self.LABEL, self.LABEL, self.LABEL.to_dict()):
                futures = [service.submit(query, 10, predicate=form)
                           for query in queries]
                for row, future in enumerate(futures):
                    ids, dists = future.result(timeout=60)
                    assert ids.tobytes() == want_ids[row].tobytes()
                    assert dists.tobytes() == want_dists[row].tobytes()

    def test_held_ids_stay_within_the_derived_bound(self):
        data, queries, metadata = make_workload(n=self.N)
        index = HDIndex(self.params())
        index.build(data, metadata=metadata)
        memo = index._eligible
        bound = (len(index.trees) + 1) * self.N
        ranges = [Range("score", low=step / 60, high=step / 60 + 0.2)
                  for step in range(30)]
        first = [self.answers(index, queries[:1], predicate)
                 for predicate in ranges]
        assert memo._bound == bound
        for again in range(2):
            for predicate, want in zip(ranges, first):
                assert self.answers(index, queries[:1], predicate) == want
                assert 0 < memo.held <= bound
                assert memo.held == sum(
                    found.weight for found in memo._sets.values())
                assert memo.held >= sum(
                    found.ids.size + sum(subset.size for subset in
                                         found.subsets if subset is not None)
                    for found in memo._sets.values())
        assert 1 < len(memo._sets) < len(ranges)  # some held, some evicted

    def test_predicates_partitioning_the_rows_fit_the_bound(self):
        data, queries, metadata = make_workload(n=self.N)
        index = HDIndex(self.params())
        index.build(data, metadata=metadata)
        labels = [Eq("label", label) for label in range(7)]
        for _ in range(2):
            for predicate in labels:
                self.answers(index, queries[:1], predicate)
        memo = index._eligible
        assert list(memo._sets) == labels
        assert memo.held == memo._bound == (len(index.trees) + 1) * self.N

    def test_a_set_looked_up_before_a_transplant_scans_the_new_trees(
            self, tmp_path):
        """A call holds the set it looked up while ``compact()`` adopts
        the next generation.  Its scan takes the new trees' positions:
        the ones held for the old layouts point at shifted entries
        there, arbitrary and possibly ineligible rows."""
        data, queries, metadata = make_workload(n=self.N)
        index = build(self.spec(wal=True), data, storage_dir=str(tmp_path),
                      metadata=metadata)
        engine, points, trees = index._engine, queries[:2], range(2)
        query_ref = index.references.distances_from(points)
        held = index._eligibility(self.LABEL)
        engine.scan_many(trees, points, query_ref, 48, 32, 16, True, held)
        old = list(held.subsets)
        assert all(subset is not None for subset in old)
        for row in range(40):
            index.insert(data[row] + 0.01, metadata={
                "label": 5, "score": 0.5, "tag": "odd"})
        index.compact()
        fresh = [tree.positions_of(held.ids) for tree in index.trees]
        assert any(not np.array_equal(a, b) for a, b in zip(old, fresh))
        for t, tree in enumerate(index.trees):
            assert np.array_equal(held.positions(t, tree), fresh[t])
        assert all(a is b for a, b in zip(held.subsets, old))
        eligible = set(held.ids.tolist())
        for per_row in engine.scan_many(trees, points, query_ref, 48, 32,
                                        16, True, held):
            for survivors in per_row:
                assert survivors.size and set(survivors.tolist()) <= eligible
        index.close()

    def test_concurrent_callers_share_one_consistent_memo(self):
        """More threads than cores, switching every microsecond, over
        more predicates than the bound holds: every set a caller gets —
        ids and each tree's positions — is the memo-free one and the
        memo's weight is the sum of its sets' (a lost update would break
        either).  The callers share the memo, not queries: one index's
        I/O counters are not kept for concurrent queries."""
        data, queries, metadata = make_workload(n=self.N)
        index = HDIndex(self.params())
        index.build(data, metadata=metadata)
        ranges = [Range("score", low=step / 40) for step in range(20)]

        def taken(ids, positions):
            return [ids.tobytes()] + [positions(t, tree).tobytes()
                                      for t, tree in enumerate(index.trees)]

        want = []
        for predicate in ranges:
            ids = np.flatnonzero(predicate.mask(index.metadata))
            want.append(taken(ids, lambda t, tree: tree.positions_of(ids)))
        memo, errors = index._eligible, []

        def client(offset):
            try:
                for turn in range(40):
                    pick = (offset * 7 + turn) % len(ranges)
                    found = index._eligibility(Range("score", low=pick / 40))
                    if taken(found.ids, found.positions) != want[pick]:
                        errors.append(pick)
            except Exception as error:  # pragma: no cover - fails test
                errors.append(error)

        threads = [threading.Thread(target=client, args=(offset,))
                   for offset in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert 0 < memo.held <= memo._bound
        assert memo.held == sum(found.weight
                                for found in memo._sets.values())

    def test_unhashable_constant_is_still_a_typed_error(self):
        data, queries, metadata = make_workload(n=self.N)
        index = HDIndex(self.params())
        index.build(data, metadata=metadata)
        index.query(queries[0], 5, predicate=Eq("label", 1))
        for bad in (Eq("label", [1]), Eq("label", True),
                    In("label", [1, [2]]), Range("score", low={})):
            with pytest.raises(TypeError, match="-typed"):
                index.query(queries[0], 5, predicate=bad)

    def test_numpy_constants_answer_as_python_ones(self):
        data, queries, metadata = make_workload(n=self.N)
        index = HDIndex(self.params())
        index.build(data, metadata=metadata)
        for plain, numpy_form in [
                (Eq("label", 3), Eq("label", np.int64(3))),
                (In("label", (1, 2)), In("label", np.array([1, 2]))),
                (Range("score", 0.25, 0.5),
                 Range("score", np.float32(0.25), np.float64(0.5)))]:
            assert numpy_form == plain and hash(numpy_form) == hash(plain)
            want = HDIndex(self.params())
            want.build(data, metadata=metadata)
            assert self.answers(index, queries, numpy_form) \
                == self.answers(want, queries, plain)
        new_id = index.insert(queries[0], metadata={
            "label": np.int64(3), "score": np.float32(0.5),
            "tag": np.str_("odd")})
        assert index.query(queries[0], 1,
                           predicate=Eq("label", np.int8(3)))[0][0] == new_id
        index.compact()
        assert index.metadata.row(new_id) == {
            "label": 3, "score": 0.5, "tag": "odd"}

    def test_memory_bytes_counts_the_held_arrays(self):
        data, queries, metadata = make_workload(n=self.N)
        index = HDIndex(self.params())
        index.build(data, metadata=metadata)
        index.query(queries[0], 10)
        before = index.memory_bytes()
        index.query(queries[0], 10, predicate=self.LABEL)
        held = index._eligibility(self.LABEL)
        arrays = [held.ids, *held.subsets,
                  *(tree._positions_cache[1] for tree in index.trees)]
        assert index.memory_bytes() - before == sum(
            array.nbytes for array in arrays)
        index.insert(queries[0], metadata={"label": 3, "score": 0.5,
                                           "tag": "odd"})
        index.compact()
        # The new layouts hold no held set, position or decoded id column.
        assert index.memory_bytes() == before - 8 * self.N * len(index.trees)


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
        spec = IndexSpec(params=exhaustive_params(
            backend=backend, storage_dir=str(tmp_path)))
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
        spec = IndexSpec(params=exhaustive_params())
        index = build(spec, data, storage_dir=str(tmp_path))
        index.close()
        assert not (tmp_path / "metadata.packed").exists()
        with open_index(str(tmp_path)) as reopened:
            assert reopened.metadata is None


class TestFilteredWal:
    """Filtered queries over online updates, with the write-ahead log
    attached and without (same write path; the log is durability)."""

    def wal_spec(self, wal, n=N):
        return IndexSpec(params=exhaustive_params(n=n), wal=wal)

    @pytest.mark.parametrize("wal", [True, False])
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

    @pytest.mark.parametrize("wal, on_disk",
                             [(True, True), (False, True), (False, False)],
                             ids=["True", "False", "memory"])
    def test_mismatched_metadata_rejected_before_the_log(self, tmp_path,
                                                         wal, on_disk):
        """A row the store cannot fold (wrong column, wrong kind) must be
        refused before its frame is written: once logged it would break
        every filtered query and every compaction, across reopens.  An
        index with no files refuses it too: its fold is in place."""
        data, queries, metadata = make_workload()
        index = build(self.wal_spec(wal), data,
                      storage_dir=str(tmp_path) if on_disk else None,
                      metadata=metadata)
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

    @pytest.mark.parametrize("wal", [True, False])
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

    @pytest.mark.parametrize("wal", [True, False])
    def test_parity_through_wal_interleavings(self, tmp_path, wal):
        """Insert → query → compact → insert → query: parity with the
        oracle (base store + delta rows) at every step, one predicate
        object reused across the compaction."""
        data, queries, metadata = make_workload(n=150)
        index = build(self.wal_spec(wal, n=150), data,
                      storage_dir=str(tmp_path),
                      metadata=metadata)
        rng = np.random.default_rng(11)
        predicate = Eq("tag", "even")

        def check():
            query = queries[0]
            ids, dists = index.query(query, k=9, predicate=predicate)
            # An equal predicate shares the held set; same answer.
            again = index.query(query, k=9, predicate=Eq("tag", "even"))
            assert again[0].tobytes() == ids.tobytes()
            assert again[1].tobytes() == dists.tobytes()
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
        spec = IndexSpec(params=exhaustive_params(metric="angular"))
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


class TestServeFiltered:
    def test_service_accepts_predicate_objects_and_dicts(self):
        from repro.serve import QueryService
        data, queries, metadata = make_workload()
        index = HDIndex(exhaustive_params())
        index.build(data, metadata=metadata)
        predicate = Eq("label", 2)
        want_ids, want_dists = oracle(index, queries[0], 5, predicate)
        with QueryService(index, max_batch=4) as service:
            ids, dists = service.submit(queries[0], 5,
                                        predicate=predicate).result(10)
            np.testing.assert_array_equal(ids, want_ids)
            np.testing.assert_array_equal(dists, want_dists)
            ids2, _ = service.submit(
                queries[0], 5, predicate=predicate.to_dict()).result(10)
            np.testing.assert_array_equal(ids2, want_ids)

    def test_filtered_requests_group_by_predicate(self):
        """A predicate and its dict form share one ``query_batch`` call;
        another predicate gets its own."""
        from repro.serve import QueryService
        data, queries, metadata = make_workload()
        index = HDIndex(exhaustive_params())
        index.build(data, metadata=metadata)
        calls = []

        class Recording:
            def query_batch(self, points, k, **overrides):
                calls.append((len(points), overrides["predicate"]))
                return index.query_batch(points, k, **overrides)

        service = QueryService(Recording(), max_batch=4)
        a1, b1, a2 = [service.submit(queries[0], 5, predicate=form)
                      for form in (Eq("label", 1), Eq("label", 2),
                                   Eq("label", 1).to_dict())]
        with service:
            a1, b1, a2 = [f.result(10) for f in (a1, b1, a2)]
        assert calls == [(2, Eq("label", 1)), (1, Eq("label", 2))]
        assert not np.array_equal(a1[0], b1[0])
        np.testing.assert_array_equal(a1[0], a2[0])

    def test_predicate_crosses_wire_protocol(self):
        from repro.serve.protocol import decode_body, encode_frame, \
            query_request
        predicate = And(Eq("label", 1), Not(Eq("tag", "odd")))
        frame = encode_frame(query_request(
            7, np.zeros(DIM), 5, overrides={"predicate": predicate}))
        message = decode_body(frame[4:])
        assert message["overrides"]["predicate"] == predicate.to_dict()
