"""The paged B+-tree, held as sorted columns (:mod:`repro.btree.packed`)."""

from repro.btree.packed import (
    NO_PAGE,
    PackedTree,
    bulk_load,
    internal_capacity,
    leaf_capacity,
)

__all__ = [
    "NO_PAGE",
    "PackedTree",
    "bulk_load",
    "internal_capacity",
    "leaf_capacity",
]
