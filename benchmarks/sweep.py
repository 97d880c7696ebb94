"""The paper's evaluation (Sec. 5) as one table of figures.

Every figure and table sets MAP@k against time, size and page reads,
either while one parameter moves or across methods.  ``FIGURES`` holds
one entry per figure: its workloads (dataset, n, query count, k), its
points (a label per index factory or ``IndexSpec`` maker), how the rows are
measured — :func:`repro.eval.run_comparison`, ``evaluate_index`` or
``evaluate_spec``, one ``GroundTruth`` per workload — and ``check(rows)``,
the figure's paper-shape asserts.  Each run prints its table with
``format_table`` and writes it to ``benchmarks/results/<figure>.txt``,
or, when it runs as a check, to a temporary directory, so that a check
leaves the committed tables as they are::

    PYTHONPATH=src python -m benchmarks.sweep [figure ...] [--check]
    PYTHONPATH=src python -m pytest benchmarks/sweep.py   # a test per figure

Scaling note: the paper's corpora hold 10⁴-10⁹ points with α = 4096-8192;
these run 10³-10⁴ points and scale the candidate sizes by the same factor
(``scaled_alpha``), keeping the paper's α:β:γ ratios, and the datasets
are synthetic stand-ins at ``repro.datasets`` default sizes.  The
baselines' constants scale the same way: the LSH family caps its hash
functions (``max_functions``) and SRS examines a larger share of the
corpus than the paper's t = 0.00242, so a small corpus still yields a
candidate pool.  The target is the qualitative shape — who wins, by
roughly what factor, where the curves saturate — not the absolute values
of the authors' 2014-era testbed.  Checks hold quality floors, in-run
parity and ratios within one run; timings are never compared across runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro import (
    C2LSH,
    HNSW,
    QALSH,
    SRS,
    HDIndex,
    HDIndexParams,
    IDistance,
    IndexSpec,
    LinearScan,
    Multicurves,
    OPQIndex,
    make_dataset,
)
from repro.apps import image_overlap, make_image_corpus, search_images
from repro.btree import bulk_load
from repro.core import (
    TABLE3_CONFIGS,
    TABLE3_CONSISTENT,
    TABLE3_LEAF_ORDERS,
    rdb_leaf_order,
    select_references,
)
from repro.core.partition import contiguous_partition
from repro.core.rdbtree import RDBTree
from repro.eval import (
    GroundTruth,
    evaluate_index,
    evaluate_spec,
    format_table,
    run_comparison,
)
from repro.eval.memory import format_bytes
from repro.hilbert import GridQuantizer, HilbertCurve
from repro.storage import UIntCodec
from repro.storage.vectors import heap_file_from_array

RESULTS_DIR = Path(__file__).parent / "results"


@dataclass(frozen=True)
class Workload:
    """A seeded synthetic dataset, its query count and the largest k
    (the one ground truth's depth) a figure measures on it."""

    dataset: str
    n: int
    queries: int
    k: int


@functools.cache
def load(workload: Workload):
    """The workload's dataset, generated once per process."""
    return make_dataset(workload.dataset, n=workload.n,
                        num_queries=workload.queries, seed=0)


def scaled_alpha(n: int, paper_alpha: int = 4096,
                 paper_n: int = 1_000_000) -> int:
    """The paper's candidate-set size scaled to ``n`` (α/n of the same
    order as the paper's settings, never below a useful floor)."""
    return max(64, min(paper_alpha, int(paper_alpha * n / paper_n * 8)))


def hd_params(spec, n: int, **overrides) -> HDIndexParams:
    """The paper's recommended HD-Index parameters at sweep scale."""
    alpha = scaled_alpha(n)
    defaults = dict(num_trees=min(spec.num_trees, 8), hilbert_order=8,
                    num_references=10, alpha=alpha,
                    gamma=max(16, alpha // 4), domain=spec.domain, seed=0)
    return HDIndexParams(**{**defaults, **overrides})


def hd_index(dataset, **overrides) -> HDIndex:
    return HDIndex(hd_params(dataset.spec, len(dataset.data), **overrides))


class Pinned:
    """One built index answering every query with fixed ``query``
    overrides (α, β, γ, ``use_ptolemaic``).  ``build`` is a no-op, so a
    comparison sweeps query-time parameters over a single build."""

    def __init__(self, index, **overrides) -> None:
        self.index, self.overrides = index, overrides

    def build(self, data) -> None:
        pass

    def query(self, point, k):
        return self.index.query(point, k, **self.overrides)

    def __getattr__(self, name):
        return getattr(self.index, name)


def built(index, dataset):
    index.build(dataset.data)
    return index


# -- points: label -> zero-argument index factory, given the dataset ----

def methods(dataset) -> dict[str, Callable]:
    """The paper's competitors at sweep scale (Fig. 8's line-up)."""
    spec, n = dataset.spec, len(dataset.data)
    return {
        "iDistance": lambda: IDistance(num_partitions=24, seed=0),
        "Multicurves": lambda: Multicurves(
            num_curves=8, alpha=max(64, n // 8), domain=spec.domain),
        "C2LSH": lambda: C2LSH(max_functions=64, seed=0),
        "QALSH": lambda: QALSH(max_functions=32, seed=0),
        "SRS": lambda: SRS(seed=0),
        "OPQ": lambda: OPQIndex(num_subspaces=8,
                                num_centroids=min(64, n // 8),
                                opq_iterations=3, rerank_factor=6, seed=0),
        "HNSW": lambda: HNSW(M=10, ef_construction=60, ef_search=60, seed=0),
        "HD-Index": lambda: hd_index(dataset),
    }


def among(*names):
    def points(dataset):
        every = methods(dataset)
        return {name: every[name] for name in names}
    return points


def hd_sweep(label: str, param: str, values, **fixed):
    """One HD-Index per value of the build parameter ``param``."""
    def points(dataset):
        return {f"{label}={value}": functools.partial(
            hd_index, dataset, **fixed, **{param: value}) for value in values}
    return points


# -- measuring and checking ----------------------------------------------

@functools.cache
def _compare(workload: Workload, points) -> tuple:
    dataset = load(workload)
    rows = run_comparison(points(dataset), dataset.data, dataset.queries,
                          workload.k, dataset_name=workload.dataset)
    for row in rows:
        row.extra["n"] = workload.n
    return tuple(rows)


def compare(figure) -> list:
    """``run_comparison`` per workload.  Rows are memoised per (workload,
    points), so fig. 9 and table 5 reuse fig. 8's; each call gets copies."""
    return [dataclasses.replace(row, extra=dict(row.extra))
            for workload in figure.workloads
            for row in _compare(workload, figure.points)]


def per_dataset(rows) -> dict[str, dict]:
    grouped: dict[str, dict] = {}
    for row in rows:
        grouped.setdefault(row.dataset, {})[row.method] = row
    return grouped


def by_method(rows) -> dict:
    return {row.method: row for row in rows}


def increasing(values) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


def approx_one(value: float) -> bool:
    return math.isclose(value, 1.0, rel_tol=1e-6, abs_tol=1e-12)


# -- fig. 1/7, 4, 5, 6 ----------------------------------------------------

def fig1_check(rows) -> None:
    for got in per_dataset(rows).values():
        maps = [row.map_at_k for row in got.values()]
        ratios = [row.ratio_at_k for row in got.values()]
        # Ratios compress near 1 while MAP spreads.
        assert max(maps) - min(maps) > max(ratios) - min(ratios)
        assert approx_one(got["iDistance"].map_at_k)   # exact
        assert got["HD-Index"].map_at_k > got["SRS"].map_at_k


def fig4_reference_check(rows) -> None:
    # Index size strictly grows with m (Fig. 4b).
    assert increasing([row.index_size_bytes for row in rows])
    quality = {row.method: row.map_at_k for row in rows}
    # Quality saturation: m = 20 buys almost nothing over m = 10 (Fig. 4c).
    assert quality["m=20"] - quality["m=10"] < 0.05
    assert quality["m=10"] >= quality["m=2"] - 0.02


def fig4_tree_check(rows) -> None:
    grouped = per_dataset(rows)
    sift = grouped["sift10k"]
    assert increasing([row.index_size_bytes for row in sift.values()])
    assert sift["τ=16"].map_at_k - sift["τ=8"].map_at_k < 0.05  # saturates
    # SUN (512-dim): τ = 16 helps more than it does for SIFT (Sec. 5.2.4).
    sun = grouped["sun"]
    assert sun["τ=16"].map_at_k >= sun["τ=2"].map_at_k - 0.02


FIG5_SPLITS = [(alpha, ab, bg) for alpha in (64, 128, 256)
               for ab, bg in ((1, 4), (2, 2), (1, 2))]  # (α, α:β, β:γ)


def fig5_points(dataset):
    """Triangular alone (β = γ) against triangular + Ptolemaic at each
    reduction split, over one build; α = 64/128/256 stand for the paper's
    2048/4096/8192 (Fig. 11, 5, 12).  The ``I/O`` pair shares (α, γ)."""
    index = built(hd_index(dataset), dataset)
    points = {}
    for alpha, ab, bg in FIG5_SPLITS:
        beta = max(10, alpha // ab)
        gamma = max(10, beta // bg)
        points[f"α={alpha} {ab}x:{bg}x tri"] = functools.partial(
            Pinned, index, alpha=alpha, beta=gamma, gamma=gamma,
            use_ptolemaic=False)
        points[f"α={alpha} {ab}x:{bg}x t+p"] = functools.partial(
            Pinned, index, alpha=alpha, beta=beta, gamma=gamma,
            use_ptolemaic=True)
    alpha = scaled_alpha(len(dataset.data))
    points["I/O tri"] = functools.partial(
        Pinned, index, alpha=alpha, gamma=alpha // 4, use_ptolemaic=False)
    points["I/O t+p"] = functools.partial(
        Pinned, index, alpha=alpha, beta=alpha // 2, gamma=alpha // 4,
        use_ptolemaic=True)
    return points


def fig5_check(rows) -> None:
    got = by_method(rows)
    pairs = [(got[f"α={alpha} {ab}x:{bg}x tri"],
              got[f"α={alpha} {ab}x:{bg}x t+p"])
             for alpha, ab, bg in FIG5_SPLITS]
    # Combined filtering does strictly more CPU work per query; allow one
    # noise inversion per α level.
    slower = sum(ptol.avg_query_time_sec > tri.avg_query_time_sec
                 for tri, ptol in pairs)
    assert slower >= len(pairs) - 3
    # And its quality never collapses below triangular-alone.
    for tri, ptol in pairs:
        assert ptol.map_at_k >= tri.map_at_k - 0.05
    # Sec. 5.2.5: Ptolemaic costs CPU only.  The tree scans read the same
    # pages; only the κ final fetches differ with the survivors.
    tri, ptol = got["I/O tri"].avg_page_reads, got["I/O t+p"].avg_page_reads
    assert abs(tri - ptol) <= max(8, tri // 3)


FIG6_ALPHAS, FIG6_RATIOS, FIG6_GAMMAS = ((64, 128, 256, 512), (2, 4, 8),
                                         (16, 32, 64, 128, 256))


def fig6_points(dataset):
    index = built(hd_index(dataset, alpha=512, gamma=128), dataset)
    points = {f"α/γ={ratio} α={alpha}": functools.partial(
        Pinned, index, alpha=alpha, gamma=max(10, alpha // ratio))
        for ratio in FIG6_RATIOS for alpha in FIG6_ALPHAS}
    points.update({f"α=512 γ={gamma}": functools.partial(
        Pinned, index, alpha=512, gamma=gamma) for gamma in FIG6_GAMMAS})
    return points


def fig6_check(rows) -> None:
    quality = {row.method: row.map_at_k for row in rows}
    for ratio in FIG6_RATIOS:
        series = [quality[f"α/γ={ratio} α={alpha}"] for alpha in FIG6_ALPHAS]
        # Quality is non-degrading as α grows, and saturates.
        assert series[-1] >= series[0] - 0.02
        assert series[-1] - series[-2] < 0.08
    series = [quality[f"α=512 γ={gamma}"] for gamma in FIG6_GAMMAS]
    assert series[-1] >= series[0] - 0.02   # more γ never hurts quality


# -- fig. 8, 9 and table 5 ------------------------------------------------

def fig8_check(rows) -> None:
    grouped = per_dataset(rows)
    for row in rows:   # iDistance is exact everywhere it runs
        if row.method == "iDistance" and not math.isnan(row.map_at_k):
            assert approx_one(row.map_at_k)
    # Multicurves owns the largest index wherever it can build (Fig. 8c/h).
    for dataset in ("sift10k", "sift1m"):
        got = grouped[dataset]
        assert (got["Multicurves"].index_size_bytes
                > got["HD-Index"].index_size_bytes
                > got["SRS"].index_size_bytes)
    # HD-Index has a small query-RAM footprint vs the in-memory methods.
    for dataset in ("sift1m", "glove"):
        got = grouped[dataset]
        assert (got["HD-Index"].query_memory_bytes
                < got["HNSW"].query_memory_bytes)
    # HD-Index quality beats SRS everywhere (Table 5's MAP gains).
    for dataset in ("sift10k", "sift1m", "glove"):
        assert grouped[dataset]["HD-Index"].map_at_k > \
            grouped[dataset]["SRS"].map_at_k


def classified(figure) -> list:
    """Fig. 9's classes from fig. 8's rows (the exact iDistance aside):
    **Q** MAP within 25 % of the best; **E** query time within 2x of the
    median method's (excluded: an order of magnitude above the pack, as
    QALSH and iDistance are); **M** indexing and querying RAM both below
    the dataset's float32 size."""
    rows = [row for row in compare(figure) if row.method != "iDistance"]
    data_bytes = load(figure.workloads[0]).data.astype(np.float32).nbytes
    best_map = max(row.map_at_k for row in rows)
    median_time = statistics.median(row.avg_query_time_sec for row in rows)
    for row in rows:
        flags = (("Q", row.map_at_k >= 0.75 * best_map),
                 ("M", row.build_memory_bytes < data_bytes
                  and row.query_memory_bytes < data_bytes),
                 ("E", row.avg_query_time_sec <= 2.0 * median_time))
        row.extra["classes"] = "".join(c for c, flag in flags if flag)
    return rows


def fig9_check(rows) -> None:
    classes = {row.method: row.extra["classes"] for row in rows}
    assert classes["HD-Index"] == "QME"   # the paper's headline
    # SRS trades quality for memory (paper: ME).
    assert "Q" not in classes["SRS"]
    assert "M" in classes["SRS"]
    # The in-memory methods earn Q and E but not M (paper: QE).
    assert "Q" in classes["HNSW"] and "E" in classes["HNSW"]
    assert "M" not in classes["HNSW"]
    assert "M" not in classes["OPQ"]
    # QALSH reaches Q but not E (paper groups it QM).
    assert "Q" in classes["QALSH"]
    assert "E" not in classes["QALSH"]
    # And nobody else lands in the full QME intersection.
    others = [method for method, c in classes.items()
              if method != "HD-Index" and set(c) == {"Q", "M", "E"}]
    assert not others, others


COMPETITORS = ("C2LSH", "SRS", "Multicurves", "QALSH", "OPQ", "HNSW")


def gains(rows) -> dict:
    """Table 5's cells per (dataset, competitor): its query time over
    HD-Index's (> 1: HD-Index faster) and HD-Index's MAP over its."""
    cells = {}
    for dataset, got in per_dataset(rows).items():
        hd = got["HD-Index"]
        for method in COMPETITORS:
            other = got[method]
            cells[dataset, method] = (
                other.avg_query_time_sec / hd.avg_query_time_sec,
                hd.map_at_k / other.map_at_k if other.map_at_k else math.inf)
    return cells


#: Timed passes per method behind an ordering of two query times.
TIMED_PASSES = 5


def median_query_ms(workload: Workload, labels) -> dict:
    """Each method's per-query ms, the median of :data:`TIMED_PASSES`
    passes over the workload's queries, the methods' passes interleaved
    over one build each: fig. 8's one pass is a single sample, too few to
    order two methods within a few percent of each other."""
    dataset = load(workload)
    every = methods(dataset)
    indexes = {label: built(every[label](), dataset) for label in labels}
    passes: dict = {label: [] for label in labels}
    for _ in range(TIMED_PASSES):
        for label, index in indexes.items():
            seconds = 0.0
            for query in dataset.queries:
                index.query(query, workload.k)
                seconds += index.last_query_stats().time_sec
            passes[label].append(seconds * 1e3 / len(dataset.queries))
    return {label: statistics.median(ms) for label, ms in passes.items()}


def with_gains(figure) -> list:
    rows = [row for row in compare(figure) if row.method != "iDistance"]
    grouped = per_dataset(rows)
    for (dataset, method), (time_gain, map_gain) in gains(rows).items():
        extra = grouped[dataset][method].extra
        extra["time_gain"] = f"{time_gain:.2f}x"
        extra["map_gain"] = f"{map_gain:.2f}x"
    for workload in figure.workloads:
        medians = median_query_ms(workload, ("HNSW", "HD-Index"))
        for label, ms in medians.items():
            grouped[workload.dataset][label].extra["median_ms"] = round(ms, 3)
    return rows


def table5_check(rows) -> None:
    cells = gains(rows)
    for dataset, got in per_dataset(rows).items():
        # HD-Index is consistently more accurate than SRS.
        assert cells[dataset, "SRS"][1] > 1.0, dataset
        # In-memory methods stay faster in wall-clock (the paper's 0.0x),
        # ordered on the median of interleaved passes.
        assert (got["HNSW"].extra["median_ms"]
                < got["HD-Index"].extra["median_ms"]), dataset


# -- fig. 10, 13, scalability, Sec. 5.2.1, spec grid ---------------------

def with_select_times(figure) -> list:
    """Adds the reference selection's own time (Algo. 1 line 1)."""
    dataset = load(figure.workloads[0])
    rows = compare(figure)
    for row in rows:
        started = time.perf_counter()
        select_references(dataset.data, 10, row.method.split("=")[1],
                          np.random.default_rng(1))
        row.extra["select_ms"] = round(
            (time.perf_counter() - started) * 1e3, 3)
    return rows


def fig10_check(rows) -> None:
    got = {row.method.split("=")[1]: row for row in rows}
    # Random is within 90 % of SSS (the paper's observation).
    assert got["random"].map_at_k >= 0.85 * got["sss"].map_at_k
    # SSS selection is cheaper than SSS-Dyn (which keeps scanning).
    assert got["sss"].extra["select_ms"] <= \
        got["sss-dyn"].extra["select_ms"] * 1.5


def k_sweep(figure) -> list:
    """Fig. 13: each method built once, then measured at every k."""
    (workload,) = figure.workloads
    dataset = load(workload)
    truth = GroundTruth(dataset.data, dataset.queries, max_k=workload.k)
    rows = []
    for label, factory in figure.points(dataset).items():
        index = built(factory(), dataset)
        for k in (1, 5, 10, 25, 50):
            row = evaluate_index(index, dataset.data, dataset.queries, k,
                                 ground_truth=truth, build=False,
                                 dataset_name=workload.dataset)
            row.method = label
            rows.append(row)
    return rows


def fig13_check(rows) -> None:
    hd = [row for row in rows if row.method == "HD-Index"]
    times = [row.avg_query_time_sec for row in hd]
    assert max(times) < 3.0 * min(times)   # near-constant in k
    srs = [row.map_at_k for row in rows if row.method == "SRS"]
    assert min(row.map_at_k for row in hd) > max(srs) - 0.05


SCALABILITY = tuple(Workload("sift10k", n, 6, 10)
                    for n in (500, 1000, 2000, 4000))


def scalability_check(rows) -> None:
    first, last = rows[0], rows[-1]
    data_growth = last.extra["n"] / first.extra["n"]   # 8x
    size_growth = last.index_size_bytes / first.index_size_bytes
    # Index size tracks n (within page-granularity slack).
    assert 0.5 * data_growth < size_growth < 1.8 * data_growth
    # Query I/O is sublinear: log-factor + fixed candidate budget.
    assert last.avg_page_reads / first.avg_page_reads < data_growth / 2
    # Build memory stays bounded by the (n x m) distance matrix, far below
    # the descriptor heap itself for high-dimensional data.
    heap_bytes = load(SCALABILITY[-1]).data.astype(np.float32).nbytes
    assert last.build_memory_bytes < heap_bytes


def partitions(dataset):
    return {"contiguous": functools.partial(
        hd_index, dataset, partition_scheme="contiguous", seed=0),
        **{f"random seed={seed}": functools.partial(
            hd_index, dataset, partition_scheme="random", seed=seed)
            for seed in range(8)}}


def partition_check(rows) -> None:
    contiguous = by_method(rows)["contiguous"].map_at_k
    scores = [row.map_at_k for row in rows if row.method != "contiguous"]
    # Random partitions match contiguous within a few points of MAP, with
    # small variance across partitions (paper: 0.974 ± 0.002 on SIFT10K).
    assert abs(contiguous - float(np.mean(scores))) < 0.1
    assert float(np.std(scores)) < 0.1


def spec_grid(dataset):
    """One point per storage backend, each the spec for a scratch
    directory, where an mmap point's files live (an index answers
    in-process; a service's process pool is ``tests/test_spec_api.py``'s
    grid)."""
    params = hd_params(dataset.spec, len(dataset.data))

    def point(backend):
        return lambda directory: IndexSpec(params=dataclasses.replace(
            params, backend=backend,
            storage_dir=None if backend == "memory" else directory))
    return {f"plain {backend}": point(backend)
            for backend in ("memory", "mmap")}


def spec_parity(figure) -> list:
    """Every grid point's batch answers against the memory point's, the
    oracle, plus that oracle's loop."""
    (workload,) = figure.workloads
    dataset = load(workload)
    truth = GroundTruth(dataset.data, dataset.queries, max_k=workload.k)
    rows, oracle = [], None
    with tempfile.TemporaryDirectory() as directory:
        for label, point in figure.points(dataset).items():
            for batch in (workload.queries, None) if oracle is None \
                    else (workload.queries,):
                row = evaluate_spec(
                    point(f"{directory}/{len(rows)}"), dataset.data,
                    dataset.queries, workload.k, ground_truth=truth,
                    dataset_name=workload.dataset, batch_size=batch)
                row.method = f"{label} {'batch' if batch else 'loop'}"
                if oracle is None:
                    oracle = row.extra["answers"]
                row.extra["parity"] = ("ok" if row.extra["answers"] == oracle
                                       else "DIFFERS")
                rows.append(row)
    return rows


def spec_check(rows) -> None:
    assert all(row.extra["parity"] == "ok" for row in rows), \
        [row.method for row in rows if row.extra["parity"] != "ok"]


# -- table 3, leaf layouts and image search: rows of their own ------------

def table3(figure) -> list[dict]:
    """Every Table 3 row (B = 4096) from Eq. (4), and the leaf order of a
    bulk-built SIFTn tree (16 dims per tree, ω = 8, m = 10).  The Enron
    and Glove rows as printed do not follow from Eq. (4) with the stated
    parameters under any integer entry layout found (it gives 33 and 46),
    so those two are reported, not asserted."""
    rows = []
    for name, (nu, omega, eta, m) in TABLE3_CONFIGS.items():
        computed = rdb_leaf_order(eta, omega, m)
        paper = TABLE3_LEAF_ORDERS[name]
        rows.append({"dataset": name, "ν": nu, "ω": omega, "η": eta, "m": m,
                     "Ω": computed, "Ω paper": paper,
                     "note": "match" if computed == paper else
                     "paper value inconsistent with Eq. (4) as printed"})
    rng = np.random.default_rng(0)
    curve = HilbertCurve(16, 8)
    tree = RDBTree(curve, 10)
    tree.bulk_build(curve.encode_batch(rng.integers(0, 256, size=(2000, 16))),
                    np.arange(2000, dtype=np.int64),
                    rng.uniform(0, 100, size=(2000, 10)).astype(np.float32))
    rows.append({"dataset": "bulk-built", "ν": 16, "ω": 8, "η": 16, "m": 10,
                 "Ω": tree.leaf_order, "Ω paper": TABLE3_LEAF_ORDERS["SIFTn"],
                 "note": f"RDBTree.bulk_build, {len(tree)} entries"})
    return rows


def table3_check(rows) -> None:
    for row in rows:
        if row["dataset"] in (*TABLE3_CONSISTENT, "bulk-built"):
            assert row["Ω"] == row["Ω paper"], row["dataset"]


class PointerOnlyIndex:
    """Sec. 3.2's strawman: Hilbert B+-trees whose leaves hold only (key,
    object pointer), so ranking a candidate fetches its descriptor — α
    random reads per tree scan."""

    def __init__(self, dataset, num_trees: int = 8, order: int = 8,
                 page_size: int = 4096) -> None:
        data = dataset.data
        self.page_size = page_size
        self.heap = heap_file_from_array(data, page_size=page_size)
        self.quantizer = GridQuantizer(*dataset.spec.domain, order)
        self.trees = []
        for part in contiguous_partition(data.shape[1], num_trees):
            curve = HilbertCurve(len(part), order)
            keys = curve.encode_batch(self.quantizer.quantize(data[:, part]))
            ranked = sorted(range(len(data)), key=lambda i: keys[i])
            tree, stats = bulk_load(UIntCodec(curve.key_bytes), keys[ranked],
                                    np.asarray(ranked), page_size)
            self.trees.append((tree, stats, curve, part))

    def query(self, point, k: int, alpha: int) -> list[int]:
        best = {}
        for tree, stats, curve, part in self.trees:
            key = int(curve.encode_batch(
                self.quantizer.quantize(point[part])[None, :])[0])
            window = tree.nearest_positions(tree.key_codec.encode(key),
                                            alpha, stats)
            for _, value in tree.entries(window):
                object_id = int.from_bytes(value, "big")
                if object_id not in best:
                    vector = self.heap.fetch(object_id).astype(np.float64)
                    best[object_id] = float(np.linalg.norm(vector - point))
        return sorted(best, key=best.__getitem__)[:k]

    def page_reads(self) -> int:
        return (sum(stats.page_reads for _, stats, _, _ in self.trees)
                + self.heap.stats.page_reads)

    def index_size_bytes(self) -> int:
        return sum(tree.num_pages for tree, *_ in self.trees) * self.page_size


LEAF_ALPHA = 256


def leaf_layouts(figure) -> list[dict]:
    """Pointer-only, full-descriptor (Multicurves, its α split across 8
    curves so each scans α entries) and RDB leaves on the same data."""
    (workload,) = figure.workloads
    dataset = load(workload)
    pointer = PointerOnlyIndex(dataset)
    before = pointer.page_reads()
    for query in dataset.queries:
        pointer.query(query, workload.k, LEAF_ALPHA)
    layouts = [("pointer-only", (pointer.page_reads() - before)
                / len(dataset.queries), pointer.index_size_bytes())]
    for name, index in (
            ("full-descriptor", Multicurves(num_curves=8,
                                            alpha=LEAF_ALPHA * 8,
                                            domain=dataset.spec.domain)),
            ("RDB (HD-Index)", hd_index(dataset, alpha=LEAF_ALPHA,
                                        gamma=LEAF_ALPHA // 4))):
        row = evaluate_index(index, dataset.data, dataset.queries, workload.k)
        layouts.append((name, row.avg_page_reads, row.index_size_bytes))
    return [{"layout": name, "page_reads": reads, "bytes": size,
             "index_size": format_bytes(size)}
            for name, reads, size in layouts]


def leaf_layout_check(rows) -> None:
    got = {row["layout"]: row for row in rows}
    # RDB leaves beat pointer-only leaves on I/O (Sec. 3.2's argument).
    assert got["RDB (HD-Index)"]["page_reads"] < \
        got["pointer-only"]["page_reads"]
    # Full-descriptor leaves pay with index size (τ copies of the data).
    assert got["full-descriptor"]["bytes"] > 3 * got["RDB (HD-Index)"]["bytes"]


def image_search(figure) -> list[dict]:
    """Top-5 images per method by per-descriptor kANN (k = 20) and Borda
    count (Eq. 7), against the linear scan's ranking, over 5 query
    images of a 30-image corpus (the Yorck stand-in)."""
    corpus = make_image_corpus(num_images=30, descriptors_per_image=25,
                               dim=32, low=-1.0, high=1.0, seed=17)
    exact = LinearScan()
    exact.build(corpus.descriptors)
    rng = np.random.default_rng(3)
    images = rng.choice(corpus.num_images, 5, replace=False)
    cases = []
    for image in images:
        queries = corpus.descriptors[corpus.image_ids == image][:10] \
            + rng.normal(0.0, 0.01, size=(10, corpus.descriptors.shape[1]))
        cases.append((image, queries,
                      search_images(exact, corpus, queries, 20, 5)[0]))
    rows = []
    for name, index in (
            ("HD-Index", HDIndex(HDIndexParams(
                num_trees=8, num_references=8, alpha=128, gamma=48,
                domain=(-1.0, 1.0)))),
            ("SRS", SRS(max_fraction=0.05, seed=0)),
            ("C2LSH", C2LSH(max_functions=48, seed=0)),
            ("QALSH", QALSH(max_functions=24, seed=0))):
        index.build(corpus.descriptors)
        overlaps, first = [], 0
        for image, queries, truth in cases:
            result = search_images(index, corpus, queries, 20, 5)[0]
            overlaps.append(image_overlap(truth, result))
            first += int(result[0] == image)
        rows.append({"method": name, "overlap": round(np.mean(overlaps), 4),
                     "self@1": f"{first}/{len(cases)}"})
    return rows


def image_check(rows) -> None:
    got = {row["method"]: row["overlap"] for row in rows}
    # HD-Index among the best aggregated rankings (paper Table 6).
    assert got["HD-Index"] >= 0.6
    assert got["HD-Index"] >= got["C2LSH"] - 0.2


# -- the table ------------------------------------------------------------

@dataclass(frozen=True)
class Figure:
    """One figure or table: ``measure(figure)`` turns the points over the
    workloads into rows (``ExperimentResult`` or plain dicts), printed
    under ``title`` by ``columns``; ``check(rows)`` asserts its shape."""

    title: str
    workloads: tuple[Workload, ...]
    points: Callable | None
    check: Callable[[list], None]
    columns: tuple[str, ...]
    measure: Callable[[Figure], list] = compare


QUALITY = ("method", "dataset", "MAP@k", "ratio@k", "query_ms")
FIG8 = tuple(Workload(name, n, 8, 20) for name, n in (
    ("sift10k", 2000), ("audio", 1500), ("sun", 800), ("sift1m", 4000),
    ("yorck", 3000), ("enron", 1000), ("glove", 2000)))

FIGURES: dict[str, Figure] = {
    "fig1_fig7": Figure(
        "Fig. 1 / 7: MAP@10 vs approximation ratio.  Every ratio sits near "
        "1 while MAP spreads: the ratio saturates, MAP discriminates.",
        (Workload("sift10k", 3000, 12, 10), Workload("audio", 2500, 12, 10)),
        among("SRS", "C2LSH", "iDistance", "Multicurves", "QALSH",
              "HD-Index"),
        fig1_check, QUALITY),
    "fig4_reference_count": Figure(
        "Fig. 4(a-d): reference objects m.  Size grows linearly in m, time "
        "mildly; quality saturates by m = 10 (the paper's choice).",
        (Workload("sift10k", 3000, 12, 10),),
        hd_sweep("m", "num_references", (2, 5, 10, 15, 20)),
        fig4_reference_check, (*QUALITY, "index_size")),
    "fig4_tree_count": Figure(
        "Fig. 4(e-h): RDB-trees τ.  Time and size grow with τ; quality "
        "saturates at τ = 8 (16 for 500+ dims, the SUN rows).",
        (Workload("sift10k", 3000, 10, 10), Workload("sun", 1200, 8, 10)),
        hd_sweep("τ", "num_trees", (2, 4, 8, 16)),
        fig4_tree_check, (*QUALITY, "index_size")),
    "fig5_filters": Figure(
        "Fig. 5 (+11, 12): triangular alone vs + Ptolemaic.  Ptolemaic "
        "keeps or improves MAP at extra CPU, never extra tree I/O.",
        (Workload("sift10k", 3000, 12, 10),), fig5_points,
        fig5_check, ("method", "MAP@k", "query_ms", "page_reads")),
    "fig6_alpha_gamma": Figure(
        "Fig. 6: α at fixed α/γ (a-f), then γ at α = 512 (g-h).  Time "
        "grows with α and γ; MAP saturates (the paper picks α/γ = 4).",
        (Workload("sift10k", 3000, 12, 10),), fig6_points,
        fig6_check, ("method", "MAP@k", "query_ms")),
    "fig8_comparative": Figure(
        "Fig. 8: every method on every dataset group (k = 20).  NaN rows "
        "are the paper's NP entries.",
        FIG8, methods, fig8_check,
        ("method", "dataset", "MAP@k", "query_ms", "page_reads",
         "index_size", "index_RAM", "query_RAM")),
    "fig9_classification": Figure(
        "Fig. 9: Q/M/E classes derived from fig. 8's sift10k rows; "
        "HD-Index alone is QME.",
        FIG8[:1], methods, fig9_check,
        ("method", "MAP@k", "query_ms", "index_RAM", "query_RAM",
         "classes"), classified),
    "table5_summary": Figure(
        "Table 5: competitor query time / HD-Index's (> 1x: HD-Index "
        "faster) and HD-Index MAP / competitor's, from fig. 8's rows; "
        "HNSW's and HD-Index's median over interleaved passes.",
        tuple(w for w in FIG8 if w.dataset in ("sift10k", "audio", "sift1m",
                                                 "glove")),
        methods, table5_check,
        ("method", "dataset", "MAP@k", "query_ms", "time_gain",
         "map_gain", "median_ms"), with_gains),
    "fig10_reference_selection": Figure(
        "Fig. 10: reference selection.  Random reaches ~90 % of SSS's "
        "MAP; SSS selects much faster than SSS-Dyn.",
        (Workload("sift10k", 2500, 12, 20),),
        hd_sweep("method", "reference_method", ("random", "sss", "sss-dyn"),
              seed=1),
        fig10_check, ("method", "select_ms", "MAP@k"), with_select_times),
    "fig13_vary_k": Figure(
        "Fig. 13: k.  HD-Index and Multicurves times are flat in k (α >> k "
        "by design); the LSH family's move with k.",
        (Workload("sift10k", 2500, 10, 50),),
        among("SRS", "C2LSH", "Multicurves", "QALSH", "HD-Index"),
        fig13_check, ("method", "k", "MAP@k", "query_ms"), k_sweep),
    "scalability": Figure(
        "Sec. 3.5 / 5.4.4 slopes: size ~linear in n, query I/O ~flat, "
        "build RAM bounded by the (n x m) distance matrix.",
        SCALABILITY, among("HD-Index"), scalability_check,
        ("n", "build_s", "index_size", "index_RAM", "page_reads",
         "query_ms")),
    "sec521_partitioning": Figure(
        "Sec. 5.2.1: contiguous vs 8 random dimension partitions; quality "
        "does not depend on the scheme.",
        (Workload("sift10k", 2500, 12, 10),), partitions,
        partition_check, ("method", "MAP@k")),
    "spec_combos": Figure(
        "IndexSpec grid: every backend's answers byte-identical to the "
        "memory oracle.",
        (Workload("sift10k", 4000, 256, 10),), spec_grid, spec_check,
        ("method", "MAP@k", "recall@k", "page_reads", "candidates",
         "query_ms", "parity"), spec_parity),
    "table3_leaf_order": Figure(
        "Table 3: RDB-tree leaf order Ω from Eq. (4), B = 4096.",
        (), None, table3_check,
        ("dataset", "ν", "ω", "η", "m", "Ω", "Ω paper", "note"), table3),
    "ablation_leaf_layout": Figure(
        f"Ablation (Sec. 3.2): leaf layout vs I/O and size, α = "
        f"{LEAF_ALPHA}.  RDB leaves avoid both the pointer layout's fetch "
        f"per candidate and the full layout's index blow-up.",
        (Workload("sift10k", 2000, 8, 10),), None, leaf_layout_check,
        ("layout", "page_reads", "index_size"), leaf_layouts),
    "sec55_image_search": Figure(
        "Sec. 5.5 / Table 6: image search by Borda count; HD-Index and "
        "QALSH track the exact image ranking.",
        (), None, image_check, ("method", "overlap", "self@1"),
        image_search),
}


def run(name: str, results: Path = RESULTS_DIR) -> list:
    """Measure one figure, print its table and write it to ``results``."""
    figure = FIGURES[name]
    rows = figure.measure(figure)
    text = f"{figure.title}\n\n{format_table(rows, list(figure.columns))}\n"
    results.mkdir(exist_ok=True)
    (results / f"{name}.txt").write_text(text)
    print(f"== {name}\n{text}", flush=True)
    return rows


def pytest_generate_tests(metafunc) -> None:
    metafunc.parametrize("name", list(FIGURES))


def test_figure(name: str, tmp_path: Path) -> None:
    FIGURES[name].check(run(name, tmp_path))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's figures into benchmarks/results.")
    parser.add_argument("figures", nargs="*", metavar="figure",
                        help=f"any of {', '.join(FIGURES)} (default: all)")
    parser.add_argument("--check", action="store_true",
                        help="run each figure's paper-shape asserts, writing "
                             "the tables to a temporary directory")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.figures) - set(FIGURES))
    if unknown:
        parser.error(f"unknown figure(s): {', '.join(unknown)}")
    results = Path(tempfile.mkdtemp(prefix="sweep-")) if args.check \
        else RESULTS_DIR
    failed = []
    for name in args.figures or FIGURES:
        rows = run(name, results)
        if args.check:
            try:
                FIGURES[name].check(rows)
            except AssertionError:
                traceback.print_exc()
                failed.append(name)
    if args.check:
        print(f"tables written to {results}", flush=True)
    if failed:
        print(f"check failed: {' '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
