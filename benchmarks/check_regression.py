"""CI perf gate: a fresh hot-path bench run, checked against itself.

Runs :func:`benchmarks.bench_hotpath.run_hotpath_measurement` and fails
(exit 1) when

* the fresh run's parity flag is false **or absent** (the packed/batched
  kernels no longer match the scalar oracle — a correctness bug, not a
  perf one; a result that never ran the parity check proves nothing and
  must not pass the gate),
* the committed ``results/BENCH_hotpath.json``'s parity flag is false or
  absent (a record refreshed from a run that skipped or failed parity
  must not be committed),
* the fresh run's ``query_batch`` (Q = 256) answered fewer queries per
  second than its own one-at-a-time loop — a batch exists to amortise
  per-call costs and must never lose to the loop — or
* the fresh run's one-at-a-time loop (packed trees, batched encode)
  answered fewer than ``MIN_SPEEDUP_OVER_ORACLE`` times the queries per
  second of the node-path scalar oracle timed in the same run.

Every throughput condition compares two numbers from one process on one
host, so none needs a baseline: the hosts this runs on drift by up to 2x
for minutes at a time, and the former floor against the committed
single-query figure failed three runs out of three on unchanged code
(215-235 q/s against a 255-263 q/s floor).  The committed
``BENCH_hotpath.json`` stays as an informational record.

The run also refreshes ``results/LINT_report.json`` (the
machine-readable static-analysis report, see
:mod:`repro.devtools.report`) so the perf and correctness artifacts
travel together; the lint has its own CI gate, so report emission here
is informational and never flips this gate's exit code.

Usage::

    PYTHONPATH=src:. python benchmarks/check_regression.py

Refreshing the record after an intentional perf change::

    PYTHONPATH=src:. python benchmarks/bench_hotpath.py
    git add benchmarks/results/BENCH_hotpath.json
"""

from __future__ import annotations

import json
import sys

from benchmarks.bench_filtered_search import run_filtered_search_measurement
from benchmarks.bench_hotpath import run_hotpath_measurement
from benchmarks.bench_online_updates import run_online_updates_measurement
from benchmarks.bench_serve_gateway import run_serve_gateway_measurement
from benchmarks.common import host_fingerprint, load_baseline

BENCH = "hotpath"
ONLINE_BENCH = "online_updates"
SERVE_BENCH = "serve_gateway"
FILTERED_BENCH = "filtered_search"
#: The packed one-at-a-time loop over the node-path scalar oracle, both
#: timed by one ``run_hotpath_measurement`` call.  Ten runs on the 2-vCPU
#: authoring guest gave 2.68, 1.81, 2.57, 2.18, 1.93, 2.73, 2.19, 1.86,
#: 1.78, 2.65 (n = 4000 and alpha = 131 leave the node path little to
#: walk); the floor sits a factor two under the lowest of them.
MIN_SPEEDUP_OVER_ORACLE = 0.85
#: Maximum tolerated drop in WAL ingest throughput vs the baseline.  The
#: online bench runs reader threads, compactions and an fsync'ing log
#: concurrently, so its numbers are far noisier than the single-query
#: loop; a real loss of the WAL write path (back to O(n) resyncs) is a
#: >10x cliff, which a 50% floor still catches cleanly.
MAX_ONLINE_REGRESSION = 0.50
#: Maximum tolerated drop in gateway round-trip throughput.  Loopback
#: TCP on a shared runner is the noisiest number we gate: event-loop
#: scheduling, socket buffers and the micro-batcher's timing all move
#: it.  The failure mode this floor exists for — the gateway falling
#: out of concurrent batching into lockstep round-trips — costs well
#: over 2x, which a 50% floor still catches.
MAX_SERVE_REGRESSION = 0.50
#: Maximum tolerated drop in filtered-query throughput.  The filtered
#: loop pays a per-query mask + eligible positions on top of the normal
#: pipeline, and its cost moves with the predicate's selectivity; the
#: failure mode this floor exists for — pushdown silently degrading to
#: post-filtering the full candidate set — multiplies the work by
#: 1/selectivity, far beyond a 50% floor.
MAX_FILTERED_REGRESSION = 0.50


def main() -> int:
    baseline = load_baseline(BENCH)
    if baseline is None:
        print(f"no committed BENCH_{BENCH}.json baseline; run "
              f"benchmarks/bench_hotpath.py and commit the result",
              file=sys.stderr)
        return 1

    fresh = run_hotpath_measurement()
    fresh_qps = fresh["metrics"]["single_query_qps"]
    fresh_batch_qps = fresh["metrics"]["batch256_qps"]
    oracle_qps = fresh["metrics"]["scalar_oracle_qps"]

    print(f"recorded single-query: "
          f"{baseline['metrics']['single_query_qps']:.1f} q/s "
          f"(informational)")
    print(f"fresh    single-query: {fresh_qps:.1f} q/s "
          f"(batch 256: {fresh_batch_qps:.1f} q/s, scalar oracle: "
          f"{oracle_qps:.1f} q/s)")
    print(f"fresh parity: {fresh.get('parity', 'ABSENT')} "
          f"(backends: {', '.join(fresh.get('parity_backends', ()))})")

    failed = False
    # .get with an explicit absent-fails check: a measurement dict that
    # dropped the parity key (refactor, partial run) must read as a
    # failure, never as a silent pass.
    if "parity" not in fresh:
        print("FAIL: fresh measurement carries no parity flag; the "
              "scalar-oracle check did not run", file=sys.stderr)
        failed = True
    elif not fresh["parity"]:
        print("FAIL: packed/batched kernels diverged from the scalar "
              "oracle", file=sys.stderr)
        failed = True
    if "parity" not in baseline:
        print("FAIL: committed BENCH_hotpath.json carries no parity "
              "flag; regenerate it with benchmarks/bench_hotpath.py",
              file=sys.stderr)
        failed = True
    elif not baseline["parity"]:
        print("FAIL: committed BENCH_hotpath.json was recorded with "
              "parity=false and is not a valid reference", file=sys.stderr)
        failed = True
    if fresh_qps < MIN_SPEEDUP_OVER_ORACLE * oracle_qps:
        print(f"FAIL: the packed single-query loop at {fresh_qps:.1f} q/s "
              f"is under {MIN_SPEEDUP_OVER_ORACLE}x the node-path scalar "
              f"oracle at {oracle_qps:.1f} q/s in the same run",
              file=sys.stderr)
        failed = True
    if fresh_batch_qps < fresh_qps:
        print(f"FAIL: query_batch(256) at {fresh_batch_qps:.1f} q/s lost "
              f"to the one-at-a-time loop at {fresh_qps:.1f} q/s in the "
              f"same run", file=sys.stderr)
        failed = True
    failed = _check_online_updates() or failed
    failed = _check_serve_gateway() or failed
    failed = _check_filtered_search() or failed
    if not failed:
        print("OK: within-run conditions and floors hold, parity holds")
    _emit_lint_report()
    return 1 if failed else 0


def _check_online_updates() -> bool:
    """Gate the WAL ingest bench: parity + zero_errors must be present
    and true on both sides, and ingest throughput must hold the floor.

    Returns True when the gate fails.
    """
    baseline = load_baseline(ONLINE_BENCH)
    if baseline is None:
        print(f"no committed BENCH_{ONLINE_BENCH}.json baseline; run "
              f"benchmarks/bench_online_updates.py and commit the result",
              file=sys.stderr)
        return True

    fresh = run_online_updates_measurement()
    fresh_ops = fresh["metrics"]["ingest_ops_per_s"]
    base_ops = baseline["metrics"]["ingest_ops_per_s"]
    floor = base_ops * (1.0 - MAX_ONLINE_REGRESSION)

    print(f"baseline WAL ingest: {base_ops:.1f} ops/s "
          f"(floor at -{MAX_ONLINE_REGRESSION:.0%}: {floor:.1f} ops/s)")
    print(f"fresh    WAL ingest: {fresh_ops:.1f} ops/s "
          f"(reads {fresh['metrics']['concurrent_query_qps']:.1f} q/s, "
          f"p99 {fresh['metrics']['p99_ms']:.2f} ms)")

    failed = False
    # Present-and-true on BOTH sides, like the hotpath parity flag: a
    # payload that dropped the key (refactor, partial run) must fail,
    # and a baseline recorded from a run with errors is no reference.
    for side, payload in (("fresh", fresh), ("baseline", baseline)):
        for flag in ("parity", "zero_errors"):
            if flag not in payload:
                print(f"FAIL: {side} BENCH_{ONLINE_BENCH} carries no "
                      f"{flag} flag", file=sys.stderr)
                failed = True
            elif not payload[flag]:
                print(f"FAIL: {side} BENCH_{ONLINE_BENCH} recorded "
                      f"{flag}=false", file=sys.stderr)
                failed = True
    if fresh_ops < floor:
        print(f"FAIL: WAL ingest throughput regressed "
              f"{1 - fresh_ops / base_ops:.0%} "
              f"(> {MAX_ONLINE_REGRESSION:.0%} allowed)", file=sys.stderr)
        print(f"baseline host: {json.dumps(baseline.get('host', {}))}",
              file=sys.stderr)
        print(f"this host:     {json.dumps(host_fingerprint())}",
              file=sys.stderr)
        failed = True
    return failed


def _check_serve_gateway() -> bool:
    """Gate the network serving bench: parity (byte-identical answers
    over the wire) must be present and true on both sides, and gateway
    round-trip throughput must hold the floor.

    Returns True when the gate fails.
    """
    baseline = load_baseline(SERVE_BENCH)
    if baseline is None:
        print(f"no committed BENCH_{SERVE_BENCH}.json baseline; run "
              f"benchmarks/bench_serve_gateway.py and commit the result",
              file=sys.stderr)
        return True

    fresh = run_serve_gateway_measurement()
    fresh_qps = fresh["metrics"]["gateway_qps"]
    base_qps = baseline["metrics"]["gateway_qps"]
    floor = base_qps * (1.0 - MAX_SERVE_REGRESSION)

    print(f"baseline gateway: {base_qps:.1f} q/s "
          f"(floor at -{MAX_SERVE_REGRESSION:.0%}: {floor:.1f} q/s)")
    print(f"fresh    gateway: {fresh_qps:.1f} q/s "
          f"(p99 {fresh['metrics']['p99_ms']:.2f} ms, mean batch "
          f"{fresh['metrics']['mean_batch']:.1f})")

    failed = False
    # Present-and-true on BOTH sides: a served answer that was never
    # compared byte-for-byte against the direct service proves nothing,
    # and a baseline recorded from a diverging run is no reference.
    for side, payload in (("fresh", fresh), ("baseline", baseline)):
        if "parity" not in payload:
            print(f"FAIL: {side} BENCH_{SERVE_BENCH} carries no parity "
                  f"flag", file=sys.stderr)
            failed = True
        elif not payload["parity"]:
            print(f"FAIL: {side} BENCH_{SERVE_BENCH} recorded "
                  f"parity=false — answers diverged over the wire",
                  file=sys.stderr)
            failed = True
    if fresh_qps < floor:
        print(f"FAIL: gateway round-trip throughput regressed "
              f"{1 - fresh_qps / base_qps:.0%} "
              f"(> {MAX_SERVE_REGRESSION:.0%} allowed)", file=sys.stderr)
        print(f"baseline host: {json.dumps(baseline.get('host', {}))}",
              file=sys.stderr)
        print(f"this host:     {json.dumps(host_fingerprint())}",
              file=sys.stderr)
        failed = True
    return failed


def _check_filtered_search() -> bool:
    """Gate the filtered-search bench: byte-parity with the
    filter-then-kNN oracle must be present and true on both sides, and
    the most selective tier's throughput must hold the floor.

    Returns True when the gate fails.
    """
    baseline = load_baseline(FILTERED_BENCH)
    if baseline is None:
        print(f"no committed BENCH_{FILTERED_BENCH}.json baseline; run "
              f"benchmarks/bench_filtered_search.py and commit the "
              f"result", file=sys.stderr)
        return True

    fresh = run_filtered_search_measurement()
    fresh_qps = fresh["metrics"]["qps_1pct"]
    base_qps = baseline["metrics"]["qps_1pct"]
    floor = base_qps * (1.0 - MAX_FILTERED_REGRESSION)

    print(f"baseline filtered(1%): {base_qps:.1f} q/s "
          f"(floor at -{MAX_FILTERED_REGRESSION:.0%}: {floor:.1f} q/s)")
    print(f"fresh    filtered(1%): {fresh_qps:.1f} q/s "
          f"(recall {fresh['metrics']['recall_1pct']:.3f}, unfiltered "
          f"{fresh['metrics']['unfiltered_qps']:.1f} q/s)")

    failed = False
    # Present-and-true on BOTH sides: a filtered answer that was never
    # compared byte-for-byte against the filter-then-kNN oracle proves
    # nothing, and a baseline recorded from a diverging run is no
    # reference.
    for side, payload in (("fresh", fresh), ("baseline", baseline)):
        if "parity" not in payload:
            print(f"FAIL: {side} BENCH_{FILTERED_BENCH} carries no "
                  f"parity flag", file=sys.stderr)
            failed = True
        elif not payload["parity"]:
            print(f"FAIL: {side} BENCH_{FILTERED_BENCH} recorded "
                  f"parity=false — filtered answers diverged from the "
                  f"filter-then-kNN oracle", file=sys.stderr)
            failed = True
    if fresh_qps < floor:
        print(f"FAIL: filtered-query throughput regressed "
              f"{1 - fresh_qps / base_qps:.0%} "
              f"(> {MAX_FILTERED_REGRESSION:.0%} allowed)",
              file=sys.stderr)
        print(f"baseline host: {json.dumps(baseline.get('host', {}))}",
              file=sys.stderr)
        print(f"this host:     {json.dumps(host_fingerprint())}",
              file=sys.stderr)
        failed = True
    return failed


def _emit_lint_report() -> None:
    """Refresh results/LINT_report.json next to the BENCH files.

    Informational here (the static-analysis CI job owns the gate), so
    any failure to produce it is printed and swallowed.
    """
    try:
        from pathlib import Path

        from repro.devtools.report import write_report

        destination = write_report(Path(__file__).resolve().parents[1])
        print(f"static-analysis report refreshed: {destination}")
    except Exception as error:
        print(f"note: LINT_report.json not refreshed ({error})",
              file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
