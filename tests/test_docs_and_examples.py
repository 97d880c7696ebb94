"""Documentation guards: doctest the public API, keep the docs present.

The runnable examples embedded in the public-API docstrings are executed
here (and again by the CI ``--doctest-modules`` step), so they cannot rot;
the architecture document and the README's backend matrix are asserted to
exist and to keep naming the things the code ships.
"""

import doctest
import importlib
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Public-API modules whose docstring examples must stay runnable.
DOCTEST_MODULES = (
    "repro.core.interface",
    "repro.core.params",
    "repro.core.persistence",
    "repro.core.hdindex",
    "repro.serve.service",
)


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_public_api_doctests(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module_name} lost its doctest examples"
    assert result.failed == 0, f"{module_name} doctests failed"


class TestArchitectureDoc:
    @pytest.fixture(scope="class")
    def text(self):
        path = REPO_ROOT / "docs" / "ARCHITECTURE.md"
        assert path.exists(), "docs/ARCHITECTURE.md is missing"
        return path.read_text()

    def test_covers_the_three_query_stages(self, text):
        for phrase in ("Hilbert", "triangular", "Ptolemaic", "refinement"):
            assert phrase.lower() in text.lower(), f"missing {phrase!r}"

    def test_covers_the_index_family(self, text):
        for name in ("HDIndex", "QueryService"):
            assert name in text, f"missing {name!r}"
        assert "ShardRouter" not in text

    def test_covers_the_spec_axes(self, text):
        for name in ("IndexSpec", "wal=", "workers=",
                     "repro.build", "repro.open"):
            assert name in text, f"missing {name!r}"
        assert "Topology" not in text and "shards=" not in text
        assert "Execution" not in text

    def test_covers_the_storage_backend_matrix(self, text):
        for name in ('"memory"', '"mmap"', "page matrix", "IOStats",
                     "repro.devtools.nodewalk"):
            assert name in text, f"missing {name!r}"
        assert '"file"' not in text
        assert "ModelledPool" not in text

    def test_points_into_the_source_tree(self, text):
        for path in ("src/repro/core/engine.py", "src/repro/storage",
                     "src/repro/serve"):
            assert path in text, f"missing pointer to {path}"

    def test_states_the_current_design_only(self, text):
        """The measurements that led to the design live in CHANGES.md."""
        for phrase in ("Measured and not taken", "Closed perf item",
                       "parent ->", "parent →"):
            assert phrase not in text, f"per-change history: {phrase!r}"
        assert not re.search(r"\bPR \d+", text)

    def test_sections_other_files_point_at_exist(self, text):
        """README, CONTRIBUTING and ``repro.meta`` name these sections."""
        headings = [line.lstrip("#").strip() for line in text.splitlines()
                    if line.startswith("#")]
        for name in ("Correctness tooling", "Network serving", "Workloads",
                     "Building"):
            assert any(h.startswith(name) for h in headings), name


class TestReadme:
    @pytest.fixture(scope="class")
    def text(self):
        return (REPO_ROOT / "README.md").read_text()

    def test_backend_section_present(self, text):
        assert "Choosing a storage backend" in text
        for token in ('backend="mmap"', "larger-than-ram"):
            assert token in text or token in text.lower(), \
                f"missing {token!r}"

    def test_family_persistence_description_is_current(self, text):
        assert "load_index" in text and "meta.json" in text
        assert "--shards" not in text

    def test_quickstart_uses_the_spec_api(self, text):
        # PR 5 redesigned the public API around IndexSpec; the README's
        # front door must lead with it.
        for token in ("IndexSpec", "repro.build", "repro.open",
                      "wal=", "workers="):
            assert token in text, f"missing {token!r}"
        assert "Topology" not in text and "shards=" not in text
        assert "Execution" not in text and "--execution" not in text


class TestMigrationDoc:
    @pytest.fixture(scope="class")
    def text(self):
        path = REPO_ROOT / "docs" / "MIGRATION.md"
        assert path.exists(), "docs/MIGRATION.md is missing"
        return path.read_text()

    @pytest.fixture(scope="class")
    def removed(self, text):
        return text.split("## Removed names\n", 1)[1].split("\n## ", 1)[0]

    def test_is_two_tables_and_the_rebuild_recipe(self, text):
        """One table of removed names, one of behaviour changes: no
        per-release sections to edit around."""
        headings = [line for line in text.splitlines()
                    if line.startswith("## ")]
        assert headings == ["## Removed names", "## Behaviour changes",
                            "## Sharded roots"]
        for heading in headings[:2]:
            section = text.split(heading + "\n", 1)[1].split("\n## ", 1)[0]
            assert section.lstrip().startswith("| ")

    def test_removed_section_names_every_removed_symbol(self, text,
                                                         removed):
        for name in ("ParallelHDIndex", "ProcessPoolHDIndex",
                     "ShardedHDIndex", "mode=", "workers=",
                     "worker_backend=", "worker_timeout=", "--mode",
                     '"kind"', '"num_workers"', "tree_<i>.pages",
                     "save_index"):
            assert name in removed, f"missing removal entry for {name!r}"
        assert "deprecat" not in text.lower()

    def test_spec_field_removal_is_documented(self, removed):
        for name in ("Topology(shards=N)", "IndexSpec(backend=B)",
                     "HDIndex.execution", "refuse_process",
                     "Execution.worker_backend", '"threaded"',
                     "_KIND_ALIASES", '"topology"', "UInt64Codec",
                     "BytesCodec", "StructCodec"):
            assert name in removed, f"missing removal entry for {name!r}"

    def test_sharding_removal_is_documented(self, text, removed):
        for name in ("ShardRouter", "IndexSpec.shards", "--shards",
                     "refuse_sharded_log", "WalRecord.shard",
                     "manifest.json", "repro.open", "repro.build"):
            assert name in removed, f"missing removal entry for {name!r}"
        recipe = text.split("## Sharded roots", 1)[1]
        for name in ("manifest.json", "offsets", "insert_tails",
                     "repro.open", "repro.build"):
            assert name in recipe, f"recipe does not use {name!r}"

    def test_file_backend_removal_is_documented(self, text):
        for name in ('backend="file"', "FilePageStore", "MmapPageStore",
                     "store=", '"mmap"'):
            assert name in text, f"missing removal entry for {name!r}"

    def test_node_tree_removal_names_the_replacements(self, text):
        for name in ("PackedTree.from_sorted", "range_entries",
                     "nearest_positions", "repro.devtools.nodewalk",
                     "ModelledPool"):
            assert name in text, f"missing replacement {name!r}"

    @pytest.mark.parametrize("trigger, row", [
        ("backend", 'HDIndexParams(backend="file")'),
        ("cache_pages", "HDIndexParams(cache_pages=C)"),
        ("shards", '`"shards": N`'),
        ("spec_keys", 'the spec-dict keys `"topology"`'),
        ("manifest", "`manifest.json` and `shard_<s>/` roots"),
        ("no_spec", "A `meta.json` is read only through its `spec`"),
    ])
    def test_every_pointer_finds_its_row(self, text, tmp_path, trigger,
                                         row):
        """Each error that sends a caller to this guide names something
        one of its rows covers."""
        import json

        from repro import HDIndexParams, IndexSpec
        from repro.core import PersistenceError, load_index
        triggers = {
            "backend": lambda: HDIndexParams(backend="file"),
            "cache_pages": lambda: HDIndexParams(cache_pages=1),
            "shards": lambda: IndexSpec.from_dict({"shards": 2}),
            "spec_keys": lambda: IndexSpec.from_dict({"topology": {}}),
            "manifest": lambda: load_index(tmp_path),
            "no_spec": lambda: load_index(tmp_path),
        }
        name = "manifest.json" if trigger == "manifest" else "meta.json"
        (tmp_path / name).write_text(json.dumps({"format_version": 1}))
        with pytest.raises((ValueError, PersistenceError),
                           match="docs/MIGRATION.md"):
            triggers[trigger]()
        assert row in text

    def test_names_the_replacements(self, text):
        for name in ("IndexSpec", "Topology", "Execution", "repro.build",
                     "repro.open", "--execution", "--spec"):
            assert name in text, f"missing replacement {name!r}"


def _recipe(heading):
    """The first ``python`` block after ``heading`` in MIGRATION.md,
    executed: the names it defines."""
    text = (REPO_ROOT / "docs" / "MIGRATION.md").read_text()
    after = text.split(heading, 1)[1]
    code = after.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "MIGRATION.md", "exec"), namespace)
    return namespace


def _write_sharded_root(root, data, offsets, inserts, deletes, params):
    """A two-shard root laid out as an older release saved one: each
    ``shard_<s>/`` a plain snapshot of its rows (build rows, then the
    rows inserted into it), and a ``manifest.json`` mapping them to
    global ids.  ``inserts`` is ``(shard, global id, row)``; ``deletes``
    holds global ids."""
    import json

    from repro.core import HDIndex, save_index
    tails = [[], []]
    for s in range(2):
        shard = HDIndex(params)
        shard.build(data[offsets[s]:offsets[s + 1]])
        local = list(range(offsets[s], offsets[s + 1]))
        for owner, global_id, row in inserts:
            if owner == s:
                assert shard.insert(row) == len(local)
                local.append(global_id)
                tails[s].append(global_id)
        for global_id in deletes:
            if global_id in local:
                shard.delete(local.index(global_id))
        save_index(shard, root / f"shard_{s}")
        shard.close()
    (root / "manifest.json").write_text(json.dumps({
        "format_version": 1,
        "spec": {"topology": {"shards": 2, "shard_backends": None,
                              "replicas": 1},
                 "execution": {"kind": "sequential", "workers": None,
                               "worker_backend": "mmap",
                               "worker_timeout": None, "wal": None}},
        "num_shards": 2, "count": offsets[2] + len(inserts),
        "generation": 0, "offsets": offsets, "insert_tails": tails,
        "params": None}, indent=2))


class TestShardedRootRecipe:
    """MIGRATION's rebuild recipe, run as written over a sharded root: it
    yields the one index built directly over the root's live rows in
    global-id order."""

    @pytest.mark.parametrize("updated", [False, True],
                             ids=["as-built", "updated"])
    def test_rebuild_equals_one_direct_build(self, tmp_path, updated):
        import numpy as np

        from repro import HDIndexParams, IndexSpec, build
        from repro.core import PersistenceError, load_index
        rng = np.random.default_rng(3)
        data = rng.integers(0, 100, size=(80, 8)).astype(np.float64)
        extra = rng.integers(0, 100, size=(2, 8)).astype(np.float64)
        params = HDIndexParams(num_trees=2, hilbert_order=5,
                               num_references=3, alpha=128, gamma=128,
                               domain=(0.0, 100.0), seed=4)
        offsets = [0, 45, 80]
        # Global ids 80 and 81 were inserted into shards 1 and 0.
        inserts = [(1, 80, extra[0]), (0, 81, extra[1])] if updated else []
        deletes = [3, 50, 81] if updated else []
        root = tmp_path / "sharded"
        _write_sharded_root(root, data, offsets, inserts, deletes, params)
        with pytest.raises(PersistenceError, match="MIGRATION"):
            load_index(root)

        rebuild = _recipe("**Rebuilding one index from a sharded root.**")[
            "rebuild"]
        spec = IndexSpec(params=params)
        rebuilt = rebuild(str(root), str(tmp_path / "one"), spec)
        everything = np.vstack([data, extra[:len(inserts)]])
        live = [i for i in range(len(everything)) if i not in deletes]
        direct = build(spec, everything[live])
        try:
            assert rebuilt.count == direct.count == len(live)
            np.testing.assert_array_equal(
                rebuilt.heap.gather(np.arange(rebuilt.count)),
                direct.heap.gather(np.arange(direct.count)))
            queries = rng.integers(0, 100, size=(5, 8)).astype(np.float64)
            for got, want in zip(rebuilt.query_batch(queries, 5),
                                 direct.query_batch(queries, 5)):
                np.testing.assert_array_equal(got, want)
        finally:
            rebuilt.close()
            direct.close()
        with load_index(tmp_path / "one") as reopened:
            assert reopened.count == len(live)
