"""The modelled buffer pool is gone: every page read is counted.

What stays is compatibility.  ``HDIndexParams.cache_pages`` accepts only
0, so ``meta.json`` records it as before; a snapshot that recorded another
value opens and answers, and counts its reads, as at 0; and every removed
keyword or flag is refused as unknown (docs/MIGRATION.md, "Removed
names", "Storage, trees and the page model").
"""

import json
import shutil

import numpy as np
import pytest

import repro
import repro.storage
from repro import HDIndexParams, IndexSpec, QueryService
from repro.cli import main as cli_main
from repro.core import load_index, save_index
from repro.core.rdbtree import RDBTree
from repro.hilbert import HilbertCurve
from repro.storage import IOStats, VectorHeapFile, heap_file_from_array

K = 5


def params(**overrides):
    return HDIndexParams(**{**dict(
        num_trees=3, hilbert_order=4, num_references=3, alpha=40, gamma=12,
        domain=(0.0, 100.0), page_size=256, seed=3), **overrides})


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    """(queries, plain snapshot, copy whose meta.json records 64)."""
    rng = np.random.default_rng(8)
    data = rng.uniform(0, 100, size=(300, 12))
    queries = rng.uniform(0, 100, size=(6, 12))
    plain = tmp_path_factory.mktemp("plain")
    with repro.build(params(), data) as index:
        save_index(index, plain)
    recorded = tmp_path_factory.mktemp("recorded")
    shutil.copytree(plain, recorded, dirs_exist_ok=True)
    meta = json.loads((recorded / "meta.json").read_text())
    assert meta["params"]["cache_pages"] == 0
    meta["params"]["cache_pages"] = 64
    (recorded / "meta.json").write_text(json.dumps(meta, indent=2))
    return queries, plain, recorded


def drive(index, queries):
    answers = [index.query(query, K) for query in queries]
    answers.append(index.query_batch(queries, K))
    return answers


class TestRecordedCachePagesOpens:
    def assert_alike(self, got, want):
        for (got_ids, got_dists), (want_ids, want_dists) in zip(got, want):
            np.testing.assert_array_equal(got_ids, want_ids)
            assert got_dists.tobytes() == want_dists.tobytes()

    @pytest.mark.parametrize("opener", [load_index, repro.open],
                             ids=["load_index", "repro.open"])
    def test_opens_and_answers_as_at_zero(self, snapshots, opener):
        queries, plain, recorded = snapshots
        with opener(plain) as want, opener(recorded) as got:
            assert got.params.cache_pages == 0
            self.assert_alike(drive(got, queries), drive(want, queries))
            assert got.io_snapshot() == want.io_snapshot()
            assert got.io_snapshot()["page_reads"] > 0

    def test_a_service_opens_it_too(self, snapshots):
        queries, plain, recorded = snapshots
        services = [QueryService.from_snapshot(directory)
                    for directory in (plain, recorded)]
        try:
            answers = []
            for service in services:
                service.start()
                answers.append([service.query(query, K)
                                for query in queries])
            self.assert_alike(answers[1], answers[0])
            assert services[1].index.io_snapshot() \
                == services[0].index.io_snapshot()
        finally:
            for service in services:
                service.stop()

    def test_a_service_swaps_onto_it(self, snapshots):
        """A hot swap reopens through the same path: the recorded value
        is ignored and the answers do not move."""
        queries, plain, recorded = snapshots
        with QueryService.from_snapshot(plain) as service:
            before = [service.query(query, K) for query in queries]
            service.swap_snapshot(recorded)
            assert service.index.params.cache_pages == 0
            self.assert_alike([service.query(query, K)
                               for query in queries], before)

    def test_a_save_records_zero_again(self, snapshots, tmp_path):
        _, _, recorded = snapshots
        with load_index(recorded, backend="memory") as index:
            save_index(index, tmp_path)
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["params"]["cache_pages"] == 0


class TestOnlyZeroIsAccepted:
    def test_params_refuse_a_pool(self):
        for value in (64, 1, -1):
            with pytest.raises(ValueError, match="MIGRATION.md"):
                HDIndexParams(cache_pages=value)

    def test_a_spec_dict_refuses_a_pool(self):
        with pytest.raises(ValueError, match="MIGRATION.md"):
            IndexSpec.from_dict({"params": {"cache_pages": 64}})

    def test_a_build_spec_file_refuses_a_pool(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"params": {"cache_pages": 64}}))
        code = cli_main(["build", "--dataset", "glove", "--n", "200",
                         "--out", str(tmp_path / "idx"),
                         "--spec", str(spec)])
        assert code == 2
        assert "docs/MIGRATION.md" in capsys.readouterr().err
        assert not (tmp_path / "idx").exists()

    def test_zero_constructs(self):
        """The spelling the benchmark workloads use."""
        assert HDIndexParams(cache_pages=0, page_size=4096).cache_pages == 0
        spec = IndexSpec.from_dict({"params": {"cache_pages": 0}})
        assert spec.params.cache_pages == 0


class TestRemovedSpellings:
    @pytest.mark.parametrize("call", [
        lambda d: VectorHeapFile(4, cache_pages=0),
        lambda d: heap_file_from_array(np.zeros((2, 4)), cache_pages=0),
        lambda d: RDBTree(HilbertCurve(2, 4), 2, cache_pages=0),
        lambda d: RDBTree.from_state(
            {"dim": 2, "order": 4, "num_references": 2}, cache_pages=0),
        lambda d: load_index(d, cache_pages=0),
        lambda d: repro.open(d, cache_pages=0),
        lambda d: repro.open_index(d, cache_pages=0),
        lambda d: QueryService.from_snapshot(d, cache_pages=0),
    ], ids=["VectorHeapFile", "heap_file_from_array", "RDBTree",
            "RDBTree.from_state", "load_index", "repro.open", "open_index",
            "QueryService.from_snapshot"])
    def test_keyword_is_unknown(self, call, snapshots):
        with pytest.raises(TypeError, match="cache_pages"):
            call(snapshots[1])

    def test_swap_snapshot_keyword_is_unknown(self, snapshots):
        with QueryService.from_snapshot(snapshots[1]) as service:
            with pytest.raises(TypeError, match="cache_pages"):
                service.swap_snapshot(snapshots[1], cache_pages=0)

    def test_serve_flag_is_a_usage_error(self, snapshots, capsys):
        with pytest.raises(SystemExit) as raised:
            cli_main(["serve", "--index", str(snapshots[1]),
                      "--cache-pages", "8"])
        assert raised.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and "--cache-pages" in errors[0]

    def test_pool_and_hit_counter_are_gone(self):
        assert not hasattr(repro.storage, "ModelledPool")
        assert "ModelledPool" not in repro.storage.__all__
        stats = IOStats()
        assert not hasattr(stats, "cache_hits")
        assert not hasattr(stats, "record_cache_hit")
        assert "cache_hits" not in stats.snapshot()
        heap, tree = VectorHeapFile(4), RDBTree(HilbertCurve(2, 4), 2)
        for structure in (heap, tree):
            assert isinstance(structure.stats, IOStats)
            assert not hasattr(structure, "clear_cache")
        assert not hasattr(heap, "memory_bytes")
