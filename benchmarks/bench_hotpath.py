"""Array-native hot-path benchmark: single-query throughput + parity.

The packed-tree / batched-kernel refactor targets the single sequential
query floor (~53 q/s pre-refactor on this workload): per-query time was
dominated by pure-python Hilbert encoding, object-per-node B+-tree
traversal and per-candidate filter math, not by HD-Index itself.  This
bench measures

* one-at-a-time ``query`` throughput and latency percentiles (the number
  the ≥5x acceptance bar applies to),
* ``query_batch`` throughput at Q=256 (the already-amortised path, which
  should not regress),
* the scalar oracle's own throughput over the parity queries, timed in
  the same process — the one reference ``check_regression.py`` may
  compare the packed loop against on a host whose speed drifts — and
* **parity**: neighbour ids must be byte-identical to a scalar oracle —
  per-point ``HilbertCurve.encode``, node-path ``BPlusTree.nearest``,
  per-tree filter calls — across the memory, file and mmap backends.

Results go to ``results/hotpath.txt`` (human) and
``results/BENCH_hotpath.json`` (machine-readable; the committed copy is
an informational record: ``benchmarks/check_regression.py`` gates on
conditions inside one fresh run, not against its numbers).

Run with::

    PYTHONPATH=src:. python -m pytest benchmarks/bench_hotpath.py \
        --benchmark-only -q

or standalone (what the CI perf gate does)::

    PYTHONPATH=src:. python benchmarks/bench_hotpath.py
"""

from __future__ import annotations

import tempfile
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
from repro.core import HDIndex, load_index, save_index
from repro.core.filters import (
    filter_candidates,
    ptolemaic_lower_bounds_many,
    triangular_lower_bounds_many,
)
from repro.devtools.sanitize import node_candidates

BENCH = "hotpath"
N = 4000
NUM_QUERIES = 256
PARITY_QUERIES = 64
K = 10
#: Committed pre-refactor single-query throughput on this exact workload
#: (benchmarks/results/batch_throughput.txt, "HD-Index loop" row).
BASELINE_PRE_REFACTOR_QPS = 53.1
TARGET_SPEEDUP = 5.0


def scalar_oracle_ids(index: HDIndex, queries: np.ndarray,
                      k: int) -> list[np.ndarray]:
    """Algo. 2 through the scalar kernels: per-point ``encode``, node-path
    ``nearest`` (``node_candidates``: a B+-tree bulk-loaded from each
    tree's columns, walked node by node), so the batched encode and the
    packed tree scan are bypassed; stage (ii) filters each tree's own
    (α, m) segment with the bound kernels and ``filter_candidates`` — not
    the engine's (τ, α) row block — and the merge is ``np.union1d`` /
    ``np.setdiff1d`` rather than the engine's."""
    engine = index._engine
    pairs = index.references.pairs
    ptolemaic = index.params.use_ptolemaic
    alpha, beta, gamma = index._effective_sizes(k, None, None, None,
                                                ptolemaic)
    rows = []
    for point in queries:
        query_ref = index.references.distances_from(point)[0]
        survivors = []
        for tree, part in zip(index.trees, index.partitions):
            coords = index.quantizer.quantize(point[part])
            key = int(tree.curve.encode(coords))
            cand_ids, cand_ref = node_candidates(tree, key, alpha)
            keep = filter_candidates(
                triangular_lower_bounds_many(query_ref, cand_ref), beta)
            cand_ids, cand_ref = cand_ids[keep], cand_ref[keep]
            if ptolemaic:
                cand_ids = cand_ids[filter_candidates(
                    ptolemaic_lower_bounds_many(query_ref, cand_ref, pairs),
                    gamma)]
            survivors.append(cand_ids)
        merged = np.setdiff1d(
            np.union1d(np.concatenate(survivors), index._delta.id_range()),
            index._deleted_ids())
        ids, _ = engine.rerank(point, merged, k)
        rows.append(np.asarray(ids, dtype=np.int64))
    return rows


def _query_ids(index: HDIndex, queries: np.ndarray, k: int
               ) -> list[np.ndarray]:
    return [np.asarray(index.query(point, k)[0], dtype=np.int64)
            for point in queries]


def _ids_equal(got: list[np.ndarray], want: list[np.ndarray]) -> bool:
    return all(np.array_equal(g, w) for g, w in zip(got, want))


def run_hotpath_measurement() -> dict:
    """Build the bench workload, measure, and verify parity.

    Returns the ``BENCH_hotpath.json`` payload (without host fingerprint).
    """
    workload = Workload("sift10k", n=N, num_queries=NUM_QUERIES, max_k=K)
    params = hd_params(workload.spec, N)
    index = HDIndex(params)
    build_started = time.perf_counter()
    index.build(workload.data)
    build_seconds = time.perf_counter() - build_started
    queries = workload.queries

    # Warm up (imports, first-touch page reads), then measure the
    # one-at-a-time loop with per-query latencies.
    for point in queries[:8]:
        index.query(point, K)
    per_query: list[float] = []
    for point in queries:
        started = time.perf_counter()
        index.query(point, K)
        per_query.append(time.perf_counter() - started)
    single_qps = len(queries) / sum(per_query)

    started = time.perf_counter()
    index.query_batch(queries, K)
    batch_qps = len(queries) / (time.perf_counter() - started)

    # Parity: packed/batched results vs the scalar oracle, on the built
    # index and on snapshot reloads under every backend.
    parity_queries = queries[:PARITY_QUERIES]
    started = time.perf_counter()
    oracle = scalar_oracle_ids(index, parity_queries, K)
    oracle_qps = len(parity_queries) / (time.perf_counter() - started)
    parity = _ids_equal(_query_ids(index, parity_queries, K), oracle)
    backends_checked = []
    with tempfile.TemporaryDirectory() as tmp:
        save_index(index, tmp)
        for backend in ("memory", "mmap"):
            with load_index(tmp, backend=backend) as reopened:
                same = _ids_equal(_query_ids(reopened, parity_queries, K),
                                  oracle)
                parity = parity and same
                backends_checked.append(backend)

    return {
        "config": {
            "dataset": "sift10k",
            "n": N,
            "dim": int(workload.data.shape[1]),
            "num_queries": NUM_QUERIES,
            "k": K,
            "num_trees": params.num_trees,
            "hilbert_order": params.hilbert_order,
            "num_references": params.num_references,
            "alpha": params.alpha,
            "gamma": params.gamma,
        },
        "metrics": {
            "build_seconds": round(build_seconds, 3),
            "single_query_qps": round(single_qps, 1),
            "batch256_qps": round(batch_qps, 1),
            "scalar_oracle_qps": round(oracle_qps, 1),
            "baseline_pre_refactor_qps": BASELINE_PRE_REFACTOR_QPS,
            "speedup_vs_pre_refactor": round(
                single_qps / BASELINE_PRE_REFACTOR_QPS, 2),
            **latency_percentiles(per_query),
        },
        "parity": bool(parity),
        "parity_backends": backends_checked,
    }


def report(payload: dict) -> None:
    start_report(BENCH, "Array-native hot path: single-query throughput")
    metrics = payload["metrics"]
    emit(BENCH, f"""
single-query loop : {metrics['single_query_qps']:>8.1f} q/s \
({metrics['speedup_vs_pre_refactor']:.2f}x pre-refactor \
{metrics['baseline_pre_refactor_qps']} q/s)
latency           : p50 {metrics['p50_ms']:.2f} ms   p90 \
{metrics['p90_ms']:.2f} ms   p99 {metrics['p99_ms']:.2f} ms
batch 256         : {metrics['batch256_qps']:>8.1f} q/s
scalar oracle     : {metrics['scalar_oracle_qps']:>8.1f} q/s (node path, \
per-point encode; same process)
parity vs scalar oracle ({', '.join(payload['parity_backends'])}): \
{payload['parity']}

-> packed-array tree scans + batched Hilbert/filter kernels lift the
   sequential floor; parity means neighbour ids are byte-identical to the
   scalar per-point pipeline on every backend""")
    emit_json(BENCH, payload)


def test_hotpath(benchmark):
    payload = benchmark.pedantic(run_hotpath_measurement, rounds=1,
                                 iterations=1)
    report(payload)
    assert payload["parity"], "packed path diverged from the scalar oracle"
    speedup = payload["metrics"]["speedup_vs_pre_refactor"]
    assert speedup >= TARGET_SPEEDUP, (
        f"single-query speedup {speedup:.2f}x below the {TARGET_SPEEDUP}x "
        f"acceptance bar")


if __name__ == "__main__":
    result = run_hotpath_measurement()
    report(result)
    if not result["parity"]:
        raise SystemExit("parity FAILED against the scalar oracle")
