"""Per-point metadata and filtered (predicate-pushdown) kNN.

``repro.meta`` is the workload subsystem PR 10 adds on top of the plain
HD-Index pipeline: a columnar :class:`MetadataStore` aligned with the
descriptor heap, and a typed predicate algebra (:class:`Eq`,
:class:`In`, :class:`Range`, :class:`And`, :class:`Or`, :class:`Not`)
that every query entry point — ``index.query(point, k,
predicate=...)``, the serve tier, the CLI — accepts either as objects
or as their JSON wire form.

The engine *pushes the predicate down*: one vectorised mask over the
store marks eligible points, and every RDB-tree hands the
triangular/Ptolemaic filter kernels its α nearest-by-key *eligible*
entries, so ineligible points never reach ``VectorHeapFile.gather`` or
the rerank and α, β and γ mean what they mean without a predicate — a
filtered query recalls about what an index of the eligible rows alone
would at those budgets, no more (see docs/ARCHITECTURE.md, "Workloads").
"""

from repro.meta.predicates import (
    And,
    Eq,
    In,
    Not,
    Or,
    Predicate,
    Range,
    coerce_predicate,
    predicate_from_dict,
)
from repro.meta.store import MetadataStore

__all__ = [
    "And",
    "Eq",
    "In",
    "MetadataStore",
    "Not",
    "Or",
    "Predicate",
    "Range",
    "coerce_predicate",
    "predicate_from_dict",
]
