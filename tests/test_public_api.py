"""Public-API surface snapshot: export hygiene for the top-level package.

``repro.__all__`` is the contract a release makes; adding or removing a
symbol must be a *decision*, not a side effect of an import shuffle.
This test pins the exact surface — update ``EXPECTED_ALL`` deliberately
(and the docs with it) when the API genuinely changes.
"""

from __future__ import annotations

import importlib
import pathlib

import pytest

import repro

MIGRATION = (pathlib.Path(__file__).resolve().parent.parent / "docs"
             / "MIGRATION.md")

#: The published top-level surface, alphabetical.  A failure here means a
#: symbol was added or removed without updating this snapshot.
EXPECTED_ALL = [
    "And",
    "C2LSH",
    "DATASET_CATALOG",
    "Dataset",
    "DatasetSpec",
    "Eq",
    "GroundTruth",
    "HDIndex",
    "HDIndexParams",
    "HNSW",
    "IDistance",
    "In",
    "IndexSpec",
    "KNNIndex",
    "LinearScan",
    "MetadataStore",
    "Multicurves",
    "Not",
    "OPQIndex",
    "Or",
    "PQIndex",
    "Predicate",
    "QALSH",
    "QueryService",
    "QueryStats",
    "Range",
    "SRS",
    "ServiceStats",
    "WorkerCrashed",
    "WorkerTimeout",
    "approximation_ratio",
    "average_precision",
    "build",
    "create_index",
    "evaluate_index",
    "evaluate_spec",
    "exact_knn",
    "format_table",
    "load_index",
    "make_dataset",
    "mean_average_precision",
    "normalize_rows",
    "open",
    "open_index",
    "predicate_from_dict",
    "rdb_leaf_order",
    "recall_at_k",
    "recommended_params",
    "run_comparison",
    "save_index",
    "__version__",
]


def test_all_matches_snapshot():
    added = set(repro.__all__) - set(EXPECTED_ALL)
    removed = set(EXPECTED_ALL) - set(repro.__all__)
    assert not added and not removed, (
        f"public API drifted without a snapshot update: "
        f"added={sorted(added)}, removed={sorted(removed)}")


def test_all_is_sorted_and_unique():
    names = [n for n in repro.__all__ if n != "__version__"]
    assert names == sorted(names), "__all__ must stay alphabetical"
    assert len(set(repro.__all__)) == len(repro.__all__)


def test_every_export_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), f"__all__ exports missing {name!r}"


def test_star_import_matches_all():
    namespace: dict = {}
    exec("from repro import *", namespace)  # noqa: S102 - the test's point
    exported = {n for n in namespace if not n.startswith("_")
                or n == "__version__"}
    assert set(repro.__all__) - exported == set()


def test_spec_entry_points_are_the_documented_objects():
    """`repro.open` is the factory, not the builtin; `repro.build` builds."""
    from repro.core.factory import build, open_index
    assert repro.open is open_index
    assert repro.open_index is open_index
    assert repro.build is build


#: Names on-host sharding took with it (docs/MIGRATION.md, "Removed:
#: on-host sharding"): the module that held each, and the name.
REMOVED_SHARDING = [
    ("repro", "ShardRouter"),
    ("repro.core", "ShardRouter"),
    ("repro.core.spec", "IndexSpec.shards"),
    ("repro.wal.manager", "refuse_sharded_log"),
    ("repro.wal.log", "WalRecord.shard"),
]


@pytest.mark.parametrize("module_name, name", REMOVED_SHARDING,
                         ids=[f"{m}.{n}" for m, n in REMOVED_SHARDING])
def test_removed_sharding_names_stay_gone(module_name, name):
    """Each is gone rather than kept as an alias, and the migration
    guide names it."""
    _assert_gone(module_name, name)


#: Names that went when a service's placement became ``workers=N``
#: (docs/MIGRATION.md, "Removed: `Execution`").
REMOVED_PLACEMENT = [
    ("repro", "Execution"),
    ("repro.core", "Execution"),
    ("repro.core.spec", "Execution"),
    ("repro.core.spec", "EXECUTION_KINDS"),
    ("repro.core.procpool", "default_workers"),
    ("repro.core.hdindex", "HDIndex._effective_sizes"),
    ("repro.serve.gateway", "GatewayConfig.latency_window"),
]


@pytest.mark.parametrize("module_name, name", REMOVED_PLACEMENT,
                         ids=[f"{m}.{n}" for m, n in REMOVED_PLACEMENT])
def test_removed_placement_names_stay_gone(module_name, name):
    _assert_gone(module_name, name)


#: Names the result cache took with it (docs/MIGRATION.md, "Removed: the
#: result cache and `ServiceConfig`").
REMOVED_RESULT_CACHE = [
    ("repro", "ServiceConfig"),
    ("repro.serve", "ServiceConfig"),
    ("repro.serve", "ResultCache"),
    ("repro.serve", "make_key"),
    ("repro.serve", "canonical_overrides"),
    ("repro.serve.service", "ServiceConfig"),
    ("repro.serve.service", "QueryService.invalidate_cache"),
    ("repro.serve.service", "ServiceStats.cache_hits"),
    ("repro.serve.service", "ServiceStats.cache_misses"),
]


@pytest.mark.parametrize("module_name, name", REMOVED_RESULT_CACHE,
                         ids=[f"{m}.{n}" for m, n in REMOVED_RESULT_CACHE])
def test_removed_result_cache_names_stay_gone(module_name, name):
    _assert_gone(module_name, name)


def _assert_gone(module_name, name):
    owner = importlib.import_module(module_name)
    *path, last = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert not hasattr(owner, last)
    assert last not in getattr(owner, "__all__", ())
    assert last not in getattr(owner, "__slots__", ())
    assert name in MIGRATION.read_text()


def test_router_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.core.router")
