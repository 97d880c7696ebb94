"""The paper's seven comparison methods, implemented from scratch."""

from repro.baselines.c2lsh import C2LSH
from repro.baselines.hnsw import HNSW
from repro.baselines.idistance import IDistance
from repro.baselines.linear_scan import LinearScan
from repro.baselines.lsh_common import (
    CollisionParameters,
    derive_collision_parameters,
    e2lsh_collision_probability,
    qalsh_collision_probability,
)
from repro.baselines.multicurves import Multicurves, MulticurvesUnsupportedError
from repro.baselines.qalsh import QALSH, qalsh_optimal_width
from repro.baselines.quantization import OPQIndex, PQIndex
from repro.baselines.srs import SRS

__all__ = [
    "C2LSH",
    "CollisionParameters",
    "HNSW",
    "IDistance",
    "LinearScan",
    "Multicurves",
    "MulticurvesUnsupportedError",
    "OPQIndex",
    "PQIndex",
    "QALSH",
    "SRS",
    "derive_collision_parameters",
    "e2lsh_collision_probability",
    "qalsh_collision_probability",
    "qalsh_optimal_width",
]
