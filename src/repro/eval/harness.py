"""Experiment harness: build any method, run a query workload, emit a row.

``benchmarks/sweep.py``'s ``FIGURES`` table is a thin driver over
:func:`evaluate_index` / :func:`run_comparison` / :func:`evaluate_spec`,
which measure the paper's five axes — quality (MAP@k and ratio), query
time, index size, indexing RAM and querying RAM — plus the I/O counters
the disk-access analysis needs.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.interface import KNNIndex
from repro.eval.ground_truth import GroundTruth
from repro.eval.memory import format_bytes
from repro.eval.metrics import (
    average_precision,
    approximation_ratio,
    recall_at_k,
)


@dataclass
class ExperimentResult:
    """One (method, dataset, k) measurement row."""

    method: str
    dataset: str
    k: int
    map_at_k: float
    ratio_at_k: float
    recall_at_k: float
    build_time_sec: float
    avg_query_time_sec: float
    avg_page_reads: float
    avg_candidates: float
    index_size_bytes: int
    build_memory_bytes: int
    query_memory_bytes: int
    extra: dict = field(default_factory=dict)

    def row(self) -> dict:
        return {
            "method": self.method,
            "dataset": self.dataset,
            "k": self.k,
            "MAP@k": round(self.map_at_k, 4),
            "ratio@k": round(self.ratio_at_k, 4),
            "recall@k": round(self.recall_at_k, 4),
            "build_s": round(self.build_time_sec, 3),
            "query_ms": round(self.avg_query_time_sec * 1e3, 3),
            "page_reads": round(self.avg_page_reads, 1),
            "candidates": round(self.avg_candidates, 1),
            "index_size": format_bytes(self.index_size_bytes),
            "index_RAM": format_bytes(self.build_memory_bytes),
            "query_RAM": format_bytes(self.query_memory_bytes),
        }


def evaluate_index(index: KNNIndex, data: np.ndarray, queries: np.ndarray,
                   k: int, ground_truth: GroundTruth | None = None,
                   dataset_name: str = "dataset",
                   build: bool = True,
                   batch_size: int | None = None) -> ExperimentResult:
    """Build (optionally) and measure one method on one workload.

    ``batch_size`` switches the workload from the one-at-a-time loop to
    chunked :meth:`KNNIndex.query_batch` calls — the serving-throughput
    mode.  Quality metrics are identical either way; timing and I/O are
    then measured per chunk and averaged per query (a chunk's counters
    total its rows, under the default loop implementation too).
    ``extra["answers"]`` digests every answer row (padding stripped):
    equal digests are in-run parity.
    """
    data = np.asarray(data, dtype=np.float64)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if batch_size is not None and batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if ground_truth is None:
        ground_truth = GroundTruth(data, queries, max_k=k)
    true_ids = ground_truth.top_ids(k)
    true_dists = ground_truth.top_distances(k)

    if build:
        started = time.perf_counter()
        index.build(data)
        build_time = time.perf_counter() - started
    else:
        build_time = index.build_stats().time_sec

    ap_values: list[float] = []
    ratio_values: list[float] = []
    recall_values: list[float] = []
    total_time = 0.0
    total_reads = 0.0
    total_candidates = 0.0
    answers = hashlib.blake2b(digest_size=8)

    def score_row(row: int, ids: np.ndarray, dists: np.ndarray) -> None:
        ap_values.append(average_precision(true_ids[row], ids, k))
        recall_values.append(recall_at_k(true_ids[row], ids, k))
        ratio_values.append(_padded_ratio(true_dists[row], dists, k))
        answers.update(np.asarray(ids, dtype=np.int64).tobytes())
        answers.update(np.asarray(dists, dtype=np.float64).tobytes())

    if batch_size is None:
        for row in range(queries.shape[0]):
            ids, dists = index.query(queries[row], k)
            stats = index.last_query_stats()
            total_time += stats.time_sec
            total_reads += stats.page_reads
            total_candidates += stats.candidates
            score_row(row, ids, dists)
    else:
        for start in range(0, queries.shape[0], batch_size):
            chunk = queries[start:start + batch_size]
            chunk_started = time.perf_counter()
            ids, dists = index.query_batch(chunk, k)
            total_time += time.perf_counter() - chunk_started
            stats = index.last_query_stats()
            total_reads += stats.page_reads
            total_candidates += stats.candidates
            for offset in range(chunk.shape[0]):
                row_ids = ids[offset]
                valid = row_ids >= 0
                score_row(start + offset, row_ids[valid],
                          dists[offset][valid])
    count = queries.shape[0]
    return ExperimentResult(
        method=index.name,
        dataset=dataset_name,
        k=k,
        map_at_k=float(np.mean(ap_values)),
        ratio_at_k=float(np.mean(ratio_values)),
        recall_at_k=float(np.mean(recall_values)),
        build_time_sec=build_time,
        avg_query_time_sec=total_time / count,
        avg_page_reads=total_reads / count,
        avg_candidates=total_candidates / count,
        index_size_bytes=index.index_size_bytes(),
        build_memory_bytes=index.build_memory_bytes(),
        query_memory_bytes=index.memory_bytes(),
        extra={"answers": answers.hexdigest(),
               **({} if batch_size is None else {"batch_size": batch_size})},
    )


def evaluate_spec(spec, data: np.ndarray, queries: np.ndarray, k: int,
                  storage_dir: str | None = None,
                  ground_truth: GroundTruth | None = None,
                  dataset_name: str = "dataset",
                  batch_size: int | None = None) -> ExperimentResult:
    """Measure one declarative :class:`~repro.core.spec.IndexSpec`.

    The spec-level analogue of :func:`evaluate_index`: the index is
    instantiated through :func:`repro.core.factory.create_index`, built,
    measured, and closed — so sweeps (the ``spec_combos`` figure)
    iterate over *specs* instead of a class matrix.  ``storage_dir`` is
    required by disk backends; the result's
    ``extra["spec"]`` records the evaluated spec dict.
    """
    from repro.core.factory import create_index
    index = create_index(spec, storage_dir=storage_dir)
    try:
        result = evaluate_index(index, data, queries, k,
                                ground_truth=ground_truth,
                                dataset_name=dataset_name,
                                batch_size=batch_size)
    finally:
        index.close()
    result.extra["spec"] = index.spec.to_dict()
    return result


def _padded_ratio(true_dists: np.ndarray, result_dists: np.ndarray,
                  k: int) -> float:
    """Definition-1 ratio, padding missing ranks with the worst returned
    distance so methods returning < k answers are penalised, not rewarded."""
    result = np.asarray(result_dists, dtype=np.float64)
    if result.shape[0] < k:
        pad_value = result.max() if result.size else float(
            np.max(true_dists) * 10.0)
        result = np.concatenate([
            result, np.full(k - result.shape[0], pad_value)])
    return approximation_ratio(true_dists[:k], result[:k])


def run_comparison(factories: dict[str, callable], data: np.ndarray,
                   queries: np.ndarray, k: int,
                   dataset_name: str = "dataset",
                   batch_size: int | None = None) -> list[ExperimentResult]:
    """Run several methods on one workload with a shared ground truth.

    ``factories`` maps display name -> zero-argument callable producing a
    fresh (unbuilt) index.  Methods whose construction raises
    ``ValueError``/``RuntimeError`` are skipped with an "NP" marker row —
    mirroring the paper's NP (not possible) table entries.  ``batch_size``
    is forwarded to :func:`evaluate_index`.
    """
    ground_truth = GroundTruth(data, queries, max_k=k)
    results: list[ExperimentResult] = []
    for name, factory in factories.items():
        index = factory()
        try:
            result = evaluate_index(index, data, queries, k,
                                    ground_truth=ground_truth,
                                    dataset_name=dataset_name,
                                    batch_size=batch_size)
        except (ValueError, RuntimeError) as error:
            nan = float("nan")
            results.append(ExperimentResult(
                method=name, dataset=dataset_name, k=k, map_at_k=nan,
                ratio_at_k=nan, recall_at_k=nan, build_time_sec=nan,
                avg_query_time_sec=nan, avg_page_reads=nan,
                avg_candidates=nan, index_size_bytes=0, build_memory_bytes=0,
                query_memory_bytes=0, extra={"error": f"NP: {error}"}))
            continue
        result.method = name
        results.append(result)
    return results


def format_table(results: list[ExperimentResult | dict],
                 columns: list[str] | None = None) -> str:
    """Render results as an aligned text table (bench harness output).
    A column may name an ``extra`` entry; a plain dict is a row as is."""
    if not results:
        return "(no results)"
    rows = [r if isinstance(r, dict) else {**r.extra, **r.row()}
            for r in results]
    if columns is None:
        columns = list(rows[0] if isinstance(results[0], dict)
                       else results[0].row())
    widths = {c: max(len(c), *(len(str(row.get(c, ""))) for row in rows))
              for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    divider = "  ".join("-" * widths[c] for c in columns)
    lines = [header, divider]
    for row in rows:
        lines.append("  ".join(
            str(row.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines)
