"""Disk substrate: fixed-size pages, I/O accounting, the descriptor heap.

This package is the "commodity hardware" the paper runs on: everything the
index structures persist is laid out in fixed-size pages so that disk
accesses can be counted and classified (random vs sequential).  Every read
is counted, as with the paper's caching switched off.
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
from repro.storage.stats import IOStats
from repro.storage.vectors import VectorHeapFile, heap_file_from_array

__all__ = [
    "ARRAY_PACK_MAGIC",
    "Codec",
    "DEFAULT_PAGE_SIZE",
    "Float64Codec",
    "IOStats",
    "StorageError",
    "UIntCodec",
    "VectorHeapFile",
    "heap_file_from_array",
    "pack_arrays",
    "unpack_arrays",
]
