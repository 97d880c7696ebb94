"""Quickstart: build an HD-Index and run approximate kNN queries.

Run with::

    python examples/quickstart.py

Builds the index over a SIFT-like synthetic dataset (Table 4's SIFT10K row,
scaled), answers kANN queries, and compares quality and I/O against the
exact ground truth — the 60-second version of the paper.
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro import (
    HDIndexParams,
    IndexSpec,
    exact_knn,
    make_dataset,
    mean_average_precision,
)


def main() -> None:
    # 1. A SIFT-like workload: 128-dim integer descriptors in [0, 255].
    dataset = make_dataset("sift10k", n=5_000, num_queries=25, seed=42)
    print(f"dataset: {dataset.name}, n={len(dataset)}, ν={dataset.dim}")

    # 2. Paper-recommended structure: τ=8 trees, m=10 references, ω=8.
    #    Candidate sizes are scaled to the dataset (paper: α=4096 at n=10⁶).
    params = HDIndexParams(
        num_trees=8,
        hilbert_order=8,
        num_references=10,
        alpha=512,
        gamma=128,
        domain=dataset.spec.domain,
    )

    #    repro.build consumes a declarative IndexSpec; a shard count and
    #    the update log policy are its only fields beside params — see
    #    examples/scale_out.py and docs/MIGRATION.md.
    started = time.perf_counter()
    index = repro.build(IndexSpec(params=params), dataset.data)
    print(f"built τ={params.num_trees} RDB-trees in "
          f"{time.perf_counter() - started:.2f}s "
          f"(leaf order Ω={index.trees[0].leaf_order}, "
          f"index {index.index_size_bytes() / 1024:.0f} KB)")

    # 3. Query and compare against the exact answer.
    k = 10
    true_ids, true_dists = exact_knn(dataset.data, dataset.queries, k)
    results = []
    started = time.perf_counter()
    for query in dataset.queries:
        ids, dists = index.query(query, k)
        results.append(ids)
    elapsed = (time.perf_counter() - started) / len(dataset.queries)

    quality = mean_average_precision(list(true_ids), results, k)
    stats = index.last_query_stats()
    print(f"\nMAP@{k} = {quality:.3f}")
    print(f"avg query time   = {elapsed * 1e3:.1f} ms")
    print(f"page reads/query = {stats.page_reads} "
          f"(κ = {stats.candidates} candidates refined exactly)")

    # 3b. The same workload as one vectorized batch: query_batch returns
    #     (Q, k) arrays with identical per-row answers, but shares the
    #     query-to-reference matmul, the per-tree Hilbert encoding and
    #     the descriptor fetches across the whole batch — the serving
    #     path (the benchmark suite's batch_100k workload).
    started = time.perf_counter()
    batch_ids, batch_dists = index.query_batch(dataset.queries, k)
    batch_elapsed = (time.perf_counter() - started) / len(dataset.queries)
    batch_stats = index.last_query_stats()
    assert all(np.array_equal(batch_ids[row], results[row])
               for row in range(len(results)))
    print(f"\nbatched ({batch_stats.extra['batch_size']} queries/batch): "
          f"{batch_elapsed * 1e3:.1f} ms/query "
          f"({elapsed / batch_elapsed:.1f}x the loop)")

    # 4. The index is updatable (paper Sec. 3.6).
    new_vector = dataset.queries[0]
    new_id = index.insert(new_vector)
    ids, dists = index.query(new_vector, 1)
    print(f"\ninserted object {new_id}; nearest neighbour of itself -> "
          f"id={ids[0]}, distance={dists[0]:.4f}")


if __name__ == "__main__":
    main()
