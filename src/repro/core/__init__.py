"""HD-Index core: the paper's primary contribution."""

from repro.core.filters import (
    filter_candidates,
    ptolemaic_lower_bounds_many,
    triangular_lower_bounds_many,
)
from repro.core.engine import QueryEngine
from repro.core.factory import build, create_index, open_index
from repro.core.hdindex import HDIndex
from repro.core.interface import BuildStats, KNNIndex, QueryStats
from repro.core.persistence import PersistenceError, load_index, save_index
from repro.core.procpool import (
    ProcessPoolError,
    SnapshotWorkerPool,
    WorkerCrashed,
    WorkerTimeout,
)
from repro.core.spec import IndexSpec, coerce_spec
from repro.core.params import (
    HDIndexParams,
    TABLE3_CONFIGS,
    TABLE3_CONSISTENT,
    TABLE3_LEAF_ORDERS,
    rdb_leaf_order,
    recommended_params,
)
from repro.core.partition import (
    contiguous_partition,
    make_partition,
    random_partition,
)
from repro.core.rdbtree import RDBTree
from repro.core.reference import (
    ReferenceSet,
    estimate_dmax,
    select_random,
    select_references,
    select_sss,
    select_sss_dyn,
)

__all__ = [
    "BuildStats",
    "HDIndex",
    "HDIndexParams",
    "IndexSpec",
    "KNNIndex",
    "PersistenceError",
    "ProcessPoolError",
    "QueryEngine",
    "QueryStats",
    "SnapshotWorkerPool",
    "WorkerCrashed",
    "WorkerTimeout",
    "RDBTree",
    "ReferenceSet",
    "TABLE3_CONFIGS",
    "TABLE3_CONSISTENT",
    "TABLE3_LEAF_ORDERS",
    "build",
    "coerce_spec",
    "contiguous_partition",
    "create_index",
    "estimate_dmax",
    "filter_candidates",
    "load_index",
    "make_partition",
    "open_index",
    "ptolemaic_lower_bounds_many",
    "random_partition",
    "rdb_leaf_order",
    "recommended_params",
    "save_index",
    "select_random",
    "select_references",
    "select_sss",
    "select_sss_dyn",
    "triangular_lower_bounds_many",
]
