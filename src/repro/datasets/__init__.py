"""Datasets: Table 4 synthetic stand-ins and texmex file loaders."""

from repro.datasets.catalog import DATASET_CATALOG, make_dataset
from repro.datasets.loaders import read_vecs, write_vecs
from repro.datasets.synthetic import (
    Dataset,
    DatasetSpec,
    generate_clustered,
    generate_uniform,
)

__all__ = [
    "DATASET_CATALOG",
    "Dataset",
    "DatasetSpec",
    "generate_clustered",
    "generate_uniform",
    "make_dataset",
    "read_vecs",
    "write_vecs",
]
