"""Tests for the Multicurves baseline."""

import numpy as np
import pytest

from repro.baselines import Multicurves, MulticurvesUnsupportedError
from repro.eval import exact_knn, recall_at_k


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(61)
    centers = rng.uniform(0.0, 100.0, size=(6, 16))
    data = np.vstack([
        center + rng.normal(0.0, 2.0, size=(50, 16)) for center in centers])
    queries = data[rng.choice(len(data), 6, replace=False)] \
        + rng.normal(0.0, 0.3, size=(6, 16))
    return np.clip(data, 0, 100), np.clip(queries, 0, 100)


@pytest.fixture(scope="module")
def built(workload):
    data, queries = workload
    index = Multicurves(num_curves=4, alpha=128, domain=(0.0, 100.0))
    index.build(data)
    return index, data, queries


class TestMulticurves:
    def test_high_recall_on_clustered_data(self, built):
        index, data, queries = built
        true_ids, _ = exact_knn(data, queries, k=10)
        recalls = [recall_at_k(true_ids[row], index.query(q, 10)[0], 10)
                   for row, q in enumerate(queries)]
        assert np.mean(recalls) > 0.8

    def test_results_sorted_unique(self, built):
        index, _, queries = built
        ids, dists = index.query(queries[0], 10)
        assert np.all(np.diff(dists) >= 0)
        assert len(set(ids.tolist())) == len(ids)

    def test_index_embeds_full_descriptors(self, built):
        """The design flaw the paper targets: each of the τ trees stores a
        full copy of every descriptor, so the index dwarfs the data."""
        index, data, _ = built
        assert index.index_size_bytes() > data.astype(np.float32).nbytes

    def test_no_descriptor_fetch_needed(self, built):
        """Candidates are ranked from leaf-embedded descriptors: all page
        reads come from the trees themselves."""
        index, _, queries = built
        reads_before = sum(s.page_reads for s in index.tree_stats)
        index.query(queries[0], 5)
        stats = index.last_query_stats()
        reads_after = sum(s.page_reads for s in index.tree_stats)
        assert stats.page_reads == reads_after - reads_before

    def test_build_writes_each_page_once(self, workload):
        """No heap: every tree's pages, each written once; the build
        reads nothing back."""
        index = Multicurves(num_curves=4, alpha=128, domain=(0.0, 100.0))
        index.build(workload[0])
        assert index.build_stats().page_writes == sum(
            t.num_pages for t in index.trees)
        assert all(s.page_reads == 0 for s in index.tree_stats)

    def test_alpha_split_across_curves(self, built):
        index, _, queries = built
        index.query(queries[0], 5)
        stats = index.last_query_stats()
        assert stats.candidates <= index.alpha

    def test_refuses_high_dimensionality(self):
        """One leaf entry must fit in a page — the paper's "NP" entries for
        SUN (ν=512) with 4 KB pages."""
        data = np.zeros((10, 1200))
        index = Multicurves(num_curves=8, alpha=64, page_size=4096)
        with pytest.raises(MulticurvesUnsupportedError):
            index.build(data)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Multicurves(num_curves=0)
        with pytest.raises(ValueError):
            Multicurves(alpha=0)
        index = Multicurves(num_curves=32)
        with pytest.raises(ValueError):
            index.build(np.zeros((5, 16)))

    def test_query_before_build_rejected(self):
        with pytest.raises(RuntimeError):
            Multicurves().query(np.zeros(4), 1)
