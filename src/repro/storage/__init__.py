"""Disk substrate: fixed-size pages, I/O accounting, the descriptor heap.

This package is the "commodity hardware" the paper runs on: everything the
index structures persist is laid out in fixed-size pages so that disk
accesses can be counted and classified (random vs sequential), and caching
can be switched off exactly as in the paper's methodology.
"""

from repro.storage.codecs import (
    ARRAY_PACK_MAGIC,
    Codec,
    Float64Codec,
    UIntCodec,
    pack_arrays,
    unpack_arrays,
)
from repro.storage.pages import DEFAULT_PAGE_SIZE, StorageError
from repro.storage.stats import IOStats, ModelledPool
from repro.storage.vectors import VectorHeapFile, heap_file_from_array

__all__ = [
    "ARRAY_PACK_MAGIC",
    "Codec",
    "DEFAULT_PAGE_SIZE",
    "Float64Codec",
    "IOStats",
    "ModelledPool",
    "StorageError",
    "UIntCodec",
    "VectorHeapFile",
    "heap_file_from_array",
    "pack_arrays",
    "unpack_arrays",
]
