"""Public-API surface snapshot: export hygiene for the top-level package.

``repro.__all__`` is the contract a release makes; adding or removing a
symbol must be a *decision*, not a side effect of an import shuffle.
This test pins the exact surface — update ``EXPECTED_ALL`` deliberately
(and the docs with it) when the API genuinely changes.
"""

from __future__ import annotations

import repro

#: The published top-level surface, alphabetical.  A failure here means a
#: symbol was added or removed without updating this snapshot.
EXPECTED_ALL = [
    "And",
    "C2LSH",
    "DATASET_CATALOG",
    "Dataset",
    "DatasetSpec",
    "Eq",
    "Execution",
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
    "ServiceConfig",
    "ServiceStats",
    "ShardRouter",
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
