"""HD-Index parameters and the RDB-tree leaf-order arithmetic of Eq. (4).

Defaults follow the paper's recommendations (Sec. 5.2): ``m = 10`` reference
objects, ``τ = 8`` trees (16 for dimensionality 500+), ``α = 4096`` (8192 for
very large datasets), ``α/γ = 4``, triangular-only filtering for wall-clock
runs and triangular + Ptolemaic when disk I/O is the budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distance.metrics import METRICS
from repro.storage.pages import DEFAULT_PAGE_SIZE

#: Bytes used by one stored reference distance (float32, paper Sec. 3.2).
REFERENCE_DISTANCE_BYTES = 4
#: Bytes used by the pointer to the complete object descriptor.
OBJECT_POINTER_BYTES = 8
#: Leaf overhead: left + right sibling pointers plus the indicator byte.
LEAF_OVERHEAD_BYTES = 8 + 8 + 1

#: Where an index's structures live: arrays in process memory, or
#: read-only mappings of the snapshot files.
BACKENDS = ("memory", "mmap")


def check_backend(backend: str, role: str = "storage") -> None:
    """Reject anything but a member of :data:`BACKENDS` (every place a
    backend name enters — params, specs, ``load_index``, worker pools)."""
    if backend == "file":
        raise ValueError(
            f"the {role} backend 'file' was removed: a disk-resident "
            f"index is served from mappings of its files — use 'mmap' "
            f"(see docs/MIGRATION.md)")
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown {role} backend {backend!r}; choose from "
            f"'memory', 'mmap'")


def rdb_leaf_order(eta: int, omega: int, m: int,
                   page_size: int = DEFAULT_PAGE_SIZE) -> int:
    """Leaf order Ω — the largest integer satisfying Eq. (4).

    ``(η·(ω/8) + 4·m + 8)·Ω + 16 + 1 <= B`` where the Hilbert key consumes
    ``η·ω/8`` bytes, each of ``m`` reference distances 4 bytes, and the
    descriptor pointer 8 bytes.  Reproduces Table 3 for the paper's configs.
    """
    if eta < 1 or omega < 1 or m < 0:
        raise ValueError("eta, omega must be >= 1 and m >= 0")
    entry_bytes = (eta * omega / 8.0
                   + REFERENCE_DISTANCE_BYTES * m
                   + OBJECT_POINTER_BYTES)
    order = int((page_size - LEAF_OVERHEAD_BYTES) // entry_bytes)
    if order < 1:
        raise ValueError(
            f"page size {page_size} cannot hold one RDB leaf entry "
            f"({entry_bytes:.1f} bytes)"
        )
    return order


@dataclass
class HDIndexParams:
    """All tunables of HD-Index construction (Algo. 1) and querying (Algo. 2).

    Attributes
    ----------
    num_trees:
        τ — number of dimension partitions / RDB-trees.
    hilbert_order:
        ω — bits per dimension of each Hilbert curve (Table 3 per dataset).
    num_references:
        m — number of reference objects stored per leaf entry.
    alpha, beta, gamma:
        Candidate counts after the RDB-tree scan, the triangular filter and
        the Ptolemaic filter.  ``beta``/``gamma`` default to ``alpha // 2``
        and ``alpha // 4`` (the paper's 2,2 split) when left ``None``.
    use_ptolemaic:
        Apply Eq. (6) after Eq. (5).  When ``False`` the triangular filter
        reduces α directly to γ (Sec. 5.2.5's recommended configuration).
    reference_method:
        ``"sss"`` (recommended), ``"sss-dyn"`` or ``"random"`` (Sec. 3.3).
    sss_fraction:
        The f·dmax separation fraction of SSS; the paper fixes f = 0.3.
    domain:
        (low, high) value domain used for grid quantisation (Table 4);
        fitted from the data when ``None``.
    partition_scheme:
        ``"contiguous"`` (paper default) or ``"random"`` (Sec. 5.2.1).
    page_size:
        B — disk page size (4096 in all paper experiments).
    cache_pages:
        Buffer-pool capacity per tree; 0 reproduces the paper's uncached runs.
    storage_dtype:
        dtype of the descriptor heap's values: what they are rounded to,
        what the page model charges a record and what a delta row holds.
        The file may store them narrower: integer values that round-trip
        through a narrower unsigned dtype (SIFT's [0, 255] as uint8) are
        stored at it.
    storage_dir:
        When set, the descriptor heap and every RDB-tree are backed by real
        files in this directory (``descriptors.pages``, ``tree_<i>.packed``)
        instead of process memory — the fully disk-resident mode.
        The process-parallel tier (``QueryService(..., workers=N)``)
        serves a snapshot persisted here: its worker processes reopen it
        via ``mmap`` (the OS shares the physical pages pool-wide), never
        from pickled live state.
    backend:
        Where the heap's page matrix and the trees' columns live:
        ``"memory"`` (arrays in process memory) or ``"mmap"`` (read-only
        mappings of the files in ``storage_dir``, which it requires —
        resident memory is the pages queries touch, so an index larger
        than RAM can be served).  ``None`` (default) resolves from
        ``storage_dir``: ``"memory"`` when it is unset, ``"mmap"``
        otherwise.

        >>> HDIndexParams(backend="mmap", storage_dir="/tmp/i").resolved_backend
        'mmap'
        >>> HDIndexParams().resolved_backend
        'memory'
        >>> HDIndexParams(storage_dir="/tmp/i").resolved_backend
        'mmap'

    metric:
        Distance workload: ``"euclidean"`` (paper default) or
        ``"angular"``.  Angular indexes require every stored vector to
        be unit-normalised (validated at build/insert); queries are
        normalised on entry and served through the unchanged Euclidean
        pipeline, whose chord distance ``sqrt(2 - 2 cos θ)`` is monotone
        in the angle.  Reported distances are chord distances.
    seed:
        Seed for reference selection and random partitioning.
    """

    num_trees: int = 8
    hilbert_order: int = 8
    num_references: int = 10
    alpha: int = 4096
    beta: int | None = None
    gamma: int | None = None
    use_ptolemaic: bool = False
    reference_method: str = "sss"
    sss_fraction: float = 0.3
    domain: tuple[float, float] | None = None
    partition_scheme: str = "contiguous"
    page_size: int = DEFAULT_PAGE_SIZE
    cache_pages: int = 0
    storage_dtype: str = "float32"
    storage_dir: str | None = None
    backend: str | None = None
    metric: str = "euclidean"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_trees < 1:
            raise ValueError(f"num_trees must be >= 1, got {self.num_trees}")
        if self.num_references < 1:
            raise ValueError(
                f"num_references must be >= 1, got {self.num_references}")
        if self.alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if self.reference_method not in ("sss", "sss-dyn", "random"):
            raise ValueError(
                f"unknown reference method {self.reference_method!r}")
        if self.partition_scheme not in ("contiguous", "random"):
            raise ValueError(
                f"unknown partition scheme {self.partition_scheme!r}")
        if not 0.0 < self.sss_fraction < 1.0:
            raise ValueError(
                f"sss_fraction must be in (0, 1), got {self.sss_fraction}")
        if self.backend is not None:
            check_backend(self.backend)
        if self.backend == "mmap" and self.storage_dir is None:
            raise ValueError("backend='mmap' requires storage_dir")
        if self.metric not in METRICS:
            raise ValueError(
                f"unknown metric {self.metric!r}; choose from "
                f"{', '.join(repr(m) for m in METRICS)}")

    @property
    def resolved_backend(self) -> str:
        """Effective storage backend (``"memory"``/``"mmap"``).

        Resolves the ``None`` default: disk-resident (``"mmap"``) when
        ``storage_dir`` is set, in-memory otherwise.
        """
        if self.backend is not None:
            return self.backend
        return "memory" if self.storage_dir is None else "mmap"

    def resolve_filter_sizes(self, k: int, alpha: int | None = None,
                             beta: int | None = None,
                             gamma: int | None = None,
                             ptolemaic: bool | None = None
                             ) -> tuple[int, int, int]:
        """Effective (α, β, γ) for a query returning k results: the
        per-call budgets where given, clamped by these params' own.

        Every stage must keep at least ``k`` candidates, and when the
        call runs no Ptolemaic filter (``ptolemaic``, else
        ``use_ptolemaic``) β collapses onto γ (Sec. 5.2.5) — only after
        the call's γ is taken, so what caps a per-call γ is the β the
        params give, whether or not the build ran the filter.  A
        defaulted β never clamps an *explicit* γ: it floors at γ so
        ``gamma=alpha`` means "no reduction", as a caller would expect.

        >>> HDIndexParams(alpha=512).resolve_filter_sizes(10)
        (512, 128, 128)
        >>> HDIndexParams(alpha=512).resolve_filter_sizes(10, ptolemaic=True)
        (512, 256, 128)
        >>> HDIndexParams(alpha=512, gamma=128).resolve_filter_sizes(
        ...     10, gamma=256)
        (512, 256, 256)
        """
        if ptolemaic is None:
            ptolemaic = self.use_ptolemaic
        base_alpha = max(self.alpha, k)
        if self.beta is not None:
            base_beta = self.beta
        else:
            base_beta = max(base_alpha // 2, 1)
            if self.gamma is not None:
                base_beta = max(base_beta, self.gamma)
        base_gamma = (self.gamma if self.gamma is not None
                      else max(base_alpha // 4, 1))
        base_beta = min(max(base_beta, k), base_alpha)
        base_gamma = min(max(base_gamma, k), base_beta)
        alpha = max(base_alpha if alpha is None else alpha, k)
        beta = min(max(base_beta if beta is None else beta, k), alpha)
        gamma = min(max(base_gamma if gamma is None else gamma, k), beta)
        if not ptolemaic:
            beta = gamma
        return alpha, beta, gamma

    def leaf_order(self, eta: int) -> int:
        """Ω for a tree covering η dimensions (Eq. (4))."""
        return rdb_leaf_order(eta, self.hilbert_order, self.num_references,
                              self.page_size)


#: Paper Table 3 configurations: dataset -> (ν, ω, η, m) with B = 4096.
TABLE3_CONFIGS: dict[str, tuple[int, int, int, int]] = {
    "SIFTn": (128, 8, 16, 10),
    "Yorck": (128, 32, 16, 10),
    "SUN": (512, 32, 64, 10),
    "Audio": (192, 32, 24, 10),
    "Enron": (1369, 16, 37, 10),
    "Glove": (100, 32, 10, 10),
}

#: Paper Table 3 printed leaf orders.  The SIFTn/Yorck/SUN/Audio rows follow
#: from Eq. (4) exactly; the Enron (18) and Glove (40) rows do *not* — no
#: integer entry layout consistent with Eq. (4) and the stated (ν, ω, η, m)
#: yields them (Eq. (4) gives 33 and 46).  We reproduce Eq. (4) and flag the
#: two rows (``table3_leaf_order`` in ``benchmarks/sweep.py``).
TABLE3_LEAF_ORDERS: dict[str, int] = {
    "SIFTn": 63,
    "Yorck": 36,
    "SUN": 13,
    "Audio": 28,
    "Enron": 18,
    "Glove": 40,
}

#: Datasets whose Table 3 row is arithmetically consistent with Eq. (4).
TABLE3_CONSISTENT: tuple[str, ...] = ("SIFTn", "Yorck", "SUN", "Audio")


def recommended_params(dim: int, n: int, *,
                       hilbert_order: int = 8,
                       seed: int = 0) -> HDIndexParams:
    """Paper-recommended parameters scaled to dataset size.

    τ = 8 (16 beyond 500 dimensions, Sec. 5.2.4); m = 10 (Sec. 5.2.3);
    α = 4096 (8192 for very large datasets, Sec. 5.2.6) scaled down
    proportionally for the small corpora this reproduction runs on; α/γ = 4.
    """
    num_trees = 16 if dim >= 500 else 8
    while num_trees > 1 and dim // num_trees < 2:
        num_trees //= 2
    paper_alpha = 8192 if n > 1_000_000 else 4096
    alpha = max(64, min(paper_alpha, n // 2 if n >= 128 else n))
    return HDIndexParams(
        num_trees=num_trees,
        hilbert_order=hilbert_order,
        num_references=10,
        alpha=alpha,
        gamma=max(16, alpha // 4),
        seed=seed,
    )
