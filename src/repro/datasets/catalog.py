"""Named dataset configurations mirroring the paper's Table 4.

Sizes are scaled to laptop scale (the repro-band substitution documented in
DESIGN.md): ``default_size`` is what benches use; ``paper_size`` records
the original for the scaling note in ``benchmarks/sweep.py``.  Hilbert
orders and tree counts come from Table 3 / Sec. 5.2.4.
"""

from __future__ import annotations

from repro.datasets.synthetic import Dataset, DatasetSpec, generate_clustered

#: Table 4 rows (type column collapsed into default sizes).
DATASET_CATALOG: dict[str, DatasetSpec] = {
    "sift10k": DatasetSpec(
        name="sift10k", dim=128, low=0.0, high=255.0, integer_valued=True,
        paper_size=10_000, paper_queries=100,
        default_size=10_000, default_queries=100,
        hilbert_order=8, num_trees=8, clusters=64, cluster_std=0.055,
        description="SIFT image keypoint descriptors (tiny split)",
    ),
    "audio": DatasetSpec(
        name="audio", dim=192, low=-1.0, high=1.0, integer_valued=False,
        paper_size=54_287, paper_queries=10_000,
        default_size=8_000, default_queries=100,
        hilbert_order=8, num_trees=8, clusters=48, cluster_std=0.06,
        description="Marsyas audio features from DARPA TIMIT",
    ),
    "sun": DatasetSpec(
        name="sun", dim=512, low=0.0, high=1.0, integer_valued=False,
        paper_size=80_006, paper_queries=100,
        default_size=4_000, default_queries=50,
        hilbert_order=8, num_trees=16, clusters=40, cluster_std=0.06,
        description="GIST scene descriptors (SUN database)",
    ),
    "sift1m": DatasetSpec(
        name="sift1m", dim=128, low=0.0, high=255.0, integer_valued=True,
        paper_size=1_000_000, paper_queries=10_000,
        default_size=20_000, default_queries=100,
        hilbert_order=8, num_trees=8, clusters=128, cluster_std=0.055,
        description="SIFT descriptors (medium split, scaled down)",
    ),
    "yorck": DatasetSpec(
        name="yorck", dim=128, low=-1.0, high=1.0, integer_valued=False,
        paper_size=15_120_935, paper_queries=1_254,
        default_size=12_000, default_queries=60,
        hilbert_order=8, num_trees=8, clusters=96, cluster_std=0.05,
        description="SURF descriptors from the Yorck art project",
    ),
    "enron": DatasetSpec(
        name="enron", dim=256, low=0.0, high=252_429.0, integer_valued=True,
        paper_size=93_986, paper_queries=1_000,
        default_size=3_000, default_queries=50,
        hilbert_order=8, num_trees=8, clusters=32, cluster_std=0.04,
        description=("Enron e-mail bi-gram counts; the paper's ν=1369 is "
                     "scaled to 256 dims to keep pure-Python builds "
                     "tractable (benchmarks/sweep.py scaling note)"),
    ),
    "glove": DatasetSpec(
        name="glove", dim=100, low=-10.0, high=10.0, integer_valued=False,
        paper_size=1_183_514, paper_queries=10_000,
        default_size=10_000, default_queries=100,
        hilbert_order=8, num_trees=10, clusters=80, cluster_std=0.05,
        description="GloVe word embeddings trained on tweets",
    ),
}


def make_dataset(name: str, n: int | None = None,
                 num_queries: int | None = None, seed: int = 0) -> Dataset:
    """Generate a named dataset at the requested (or default) size."""
    try:
        spec = DATASET_CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(DATASET_CATALOG))
        raise KeyError(f"unknown dataset {name!r}; known: {known}") from None
    size = n if n is not None else spec.default_size
    queries = num_queries if num_queries is not None else spec.default_queries
    return generate_clustered(spec, size, queries, seed=seed)
