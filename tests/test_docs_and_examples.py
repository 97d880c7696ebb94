"""Documentation guards: doctest the public API, keep the docs present.

The runnable examples embedded in the public-API docstrings are executed
here (and again by the CI ``--doctest-modules`` step), so they cannot rot;
the architecture document and the README's backend matrix are asserted to
exist and to keep naming the things the code ships.
"""

import doctest
import importlib
import pathlib

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
        for name in ("HDIndex", "ShardRouter", "QueryService"):
            assert name in text, f"missing {name!r}"

    def test_covers_the_spec_axes(self, text):
        for name in ("IndexSpec", "shards=", "wal=", "Execution",
                     "repro.build", "repro.open"):
            assert name in text, f"missing {name!r}"
        assert "Topology" not in text

    def test_covers_the_storage_backend_matrix(self, text):
        for name in ('"memory"', '"mmap"', "page matrix", "ModelledPool",
                     "cache_pages", "repro.devtools.nodewalk"):
            assert name in text, f"missing {name!r}"
        assert '"file"' not in text

    def test_points_into_the_source_tree(self, text):
        for path in ("src/repro/core/engine.py", "src/repro/storage",
                     "src/repro/serve"):
            assert path in text, f"missing pointer to {path}"


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
        # PR 2 extended persistence to the whole family; the README must
        # not regress to the old HDIndex-only story.
        assert "load_index" in text and "manifest.json" in text

    def test_quickstart_uses_the_spec_api(self, text):
        # PR 5 redesigned the public API around IndexSpec; the README's
        # front door must lead with it.
        for token in ("IndexSpec", "repro.build", "repro.open",
                      "shards=", "Execution"):
            assert token in text, f"missing {token!r}"
        assert "Topology" not in text


class TestMigrationDoc:
    @pytest.fixture(scope="class")
    def text(self):
        path = REPO_ROOT / "docs" / "MIGRATION.md"
        assert path.exists(), "docs/MIGRATION.md is missing"
        return path.read_text()

    def test_removed_section_names_every_removed_symbol(self, text):
        removed = text.split("## Removed", 1)[1].split("\n## ", 1)[0]
        for name in ("ParallelHDIndex", "ProcessPoolHDIndex",
                     "ShardedHDIndex", "mode=", "workers=",
                     "worker_backend=", "worker_timeout=", "--mode",
                     '"kind"', '"num_workers"', "tree_<i>.pages",
                     "save_index"):
            assert name in removed, f"missing removal entry for {name!r}"
        assert "deprecat" not in text.lower()

    def test_spec_field_removal_is_documented(self, text):
        removed = text.split("## Removed: `Topology`", 1)[1]
        for name in ("Topology(shards=N)", "IndexSpec(backend=B)",
                     "HDIndex.execution", "refuse_process",
                     "Execution.worker_backend", '"threaded"',
                     "_KIND_ALIASES", '"topology"', "UInt64Codec",
                     "BytesCodec", "StructCodec"):
            assert name in removed, f"missing removal entry for {name!r}"

    def test_file_backend_removal_is_documented(self, text):
        for name in ('backend="file"', "FilePageStore", "MmapPageStore",
                     "store=", '"mmap"'):
            assert name in text, f"missing removal entry for {name!r}"

    def test_node_tree_removal_names_the_replacements(self, text):
        for name in ("PackedTree.from_sorted", "range_entries",
                     "nearest_positions", "repro.devtools.nodewalk",
                     "ModelledPool"):
            assert name in text, f"missing replacement {name!r}"

    def test_names_the_replacements(self, text):
        for name in ("IndexSpec", "Topology", "Execution", "repro.build",
                     "repro.open", "--execution", "--spec"):
            assert name in text, f"missing replacement {name!r}"
