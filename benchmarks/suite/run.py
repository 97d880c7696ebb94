"""The benchmark's one command.

``python3 benchmarks/suite/run.py --workload NAME --seed S --seconds T
--trace 0|1`` runs one workload and prints, as the last line of its
standard output, ``{"correct", "attempted", "failed", "metrics"}`` with
every end-to-end metric of BENCHMARK.json (``--trace 0``) or every
per-layer metric (``--trace 1``).  Without ``--workload`` it runs all
five, both ways, and prints one summary that ends with ``"claim": null``.
``--smoke`` shrinks every workload to n = 2000; ``--repeat N --check``
is the noise and determinism gate.  Every time is reported at nominal
host speed (hostspeed.py).  See README.md beside this file.
"""

from __future__ import annotations

import os

# One BLAS thread, here and in every child process: the load comes from
# one caller, and a spinning second thread only adds the scheduler's noise.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"run.py: no program to measure under {ROOT / 'src'}")
if __package__ in (None, ""):
    # Run as a script: the directory of this file leads sys.path, where
    # trace.py would shadow the standard library's module of that name.
    sys.path[0] = str(ROOT)
sys.path.insert(0, str(ROOT / "src"))

import numpy as np
import repro
from repro.distance import euclidean_to_many, top_k_smallest

from benchmarks.suite import trace, workloads
from benchmarks.suite.hostspeed import (
    CHECKPOINT_REPS,
    HostSpeed,
    SetupClock,
)
from benchmarks.suite.workloads import (
    BATCH,
    K,
    PARITY_ROWS,
    SPECS,
    check_answers,
    drive_served,
    make_plan,
    open_index,
    percentile,
    quality,
    run_ops,
    same_answers,
)

with open(ROOT / "BENCHMARK.json") as _handle:
    CONTRACT = json.load(_handle)
RUN_SECONDS = CONTRACT["run_seconds"]
UNITS = {metric["name"]: metric["unit"]
         for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]}
QUERY_KINDS = ("query", "batch", "filtered")
WRITE_KINDS = ("insert", "delete")
#: Self times that add up to one in-process query call, and the parts of
#: one served round trip; ``trace.coverage`` is their sum over the
#: untraced median call.
QUERY_PATH = ["hilbert.quantize", "hilbert.encode", "distance.query_ref",
              "distance.rerank", "rdbtree.candidates", "btree.nearest",
              "filters.triangular", "filters.ptolemaic", "filters.select",
              "engine.scan_many", "engine.rerank", "engine.run",
              "storage.gather", "meta.mask", "wal.delta_gather"]
SERVED_PATH = ["protocol.encode_ms", "protocol.decode_ms",
               "service.queue_wait_ms", "service.dispatch_ms",
               "gateway.self_ms", "client.self_ms"]
#: Counts that must repeat exactly for a seed on the one-caller workloads.
DETERMINISTIC = ["btree.page_reads", "storage.page_reads",
                 "distance.computations", "engine.kappa",
                 "persistence.snapshot_bytes", "map10", "recall10"]


def metric_of(span: str) -> str:
    return span + ("_self_ms" if span.startswith("engine.") else "_ms")


def calls_for(name: str, seconds: float, traced: bool, smoke: bool) -> int:
    """Calls issued: the seed commit's rate times the measured seconds;
    the traced run issues the first quarter."""
    if smoke:
        calls = SPECS[name].smoke_calls
    else:
        calls = max(8, round(SPECS[name].calls_per_second * seconds))
    return max(4, calls // 4) if traced else calls


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 smoke: bool) -> dict:
    """One run: ``{"correct", "attempted", "failed", "metrics",
    "samples"}`` with the end-to-end or the per-layer metrics.  Set-up
    time is the process's user time, so it counts from its start."""
    tier = workloads.SMOKE_TIER if smoke else workloads.TIERS[SPECS[name].tier]
    workdir = workloads.OUT / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    clock = SetupClock(HostSpeed())
    try:
        if name == "served_20k":
            result = _run_served(
                name, seed, calls_for(name, seconds, traced, smoke), tier,
                workdir, traced, clock)
        else:
            result = _run_inprocess(
                name, seed, calls_for(name, seconds, traced, smoke), tier,
                workdir, traced, clock, seconds * workloads.OVERRUN)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wanted = CONTRACT["per_layer" if traced else "end_to_end"]
    return {
        "correct": bool(result["failed"] == 0
                        and result["map10"] >= SPECS[name].map10_floor),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric["name"]: {
                "value": float(result["metrics"][metric["name"]]),
                "unit": metric["unit"]}
            for metric in wanted},
        "samples": result["samples"],
    }


def _result(attempted, failures, map10, metrics, samples) -> dict:
    return {"attempted": attempted, "failed": sum(failures.values()),
            "map10": map10, "metrics": metrics, "samples": samples}


def _end_to_end(plan, setup_s, latency_ms, queries_per_s, map10, recall10,
                rss_peak_mb) -> dict:
    """The end-to-end metrics; the times are at nominal host speed."""
    vector_bytes = plan.base_n * plan.vectors.shape[1] * 4
    return {
        "setup_s": setup_s,
        "call_p50_ms": percentile(latency_ms, 50),
        "queries_per_s": queries_per_s,
        "map10": map10,
        "recall10": recall10,
        "rss_peak_mb": rss_peak_mb,
        "disk_bytes_per_vector_byte": plan.snapshot_bytes / vector_bytes,
    }


# -- the one-caller workloads ----------------------------------------------


def _timed(plan, done, kinds) -> list[int]:
    return [position for position, op in enumerate(plan.ops)
            if position >= done.warm and op[0] in kinds]


def _queries_per_s(plan, done) -> float:
    """Queries answered per second when every timed call of the plan
    costs what the median call of its kind cost (the lower median: of
    two compactions, the faster), at nominal host speed.  A sum over the
    calls as they happened would follow the few that stall on page
    faults (see README); counting the planned calls, not the executed
    ones, keeps the mix the same when a slow host cuts the run short."""
    by_kind: dict = {}
    for position in range(done.warm, len(plan.ops)):
        by_kind.setdefault(plan.ops[position][0], []).append(position)
    busy_ns = sum(
        done.planned[kind] * np.percentile(done.nominal_ns[positions], 50,
                                           method="lower")
        for kind, positions in by_kind.items())
    rows = sum(done.planned[kind] * (BATCH if kind == "batch" else 1)
               for kind in by_kind if kind in QUERY_KINDS)
    return rows / (busy_ns / 1e9)


def _run_inprocess(name, seed, calls, tier, workdir, traced, clock,
                   budget_s) -> dict:
    tracer = trace.Tracer()
    if traced:
        tracer.install()  # set-up spans: build, reference selection, save
    try:
        plan = make_plan(name, seed, calls, tier, workdir, clock)
    finally:
        tracer.uninstall()
    index, root = open_index(plan, "plain")
    setup_s = clock.checkpoint()
    try:
        plain = run_ops(index, root, plan, clock.host, budget_s)
    finally:
        index.close()
    checked, malformed, rows = check_answers(plan, plain.results)
    map10, recall10 = quality(plan, rows)
    attempted = len(plan.ops) + checked
    failures = {"errors": plain.errors, "malformed": malformed}
    queries = _timed(plan, plain, QUERY_KINDS)
    samples = {"calls": len(queries), "quality_rows": len(plan.truth),
               "host_speed": float(np.median(plain.speed[queries])),
               "failures": failures}
    reopened = None
    if plan.writes:
        reopened = workloads.reopen_check(plan, root)
        attempted += reopened["checked"]
        failures["lost_or_resurrected"] = reopened["failed"]
    if not traced:
        metrics = _end_to_end(
            plan, setup_s, plain.nominal_ns[queries] / 1e6,
            _queries_per_s(plan, plain), map10, recall10, plain.rss_peak_mb)
        return _result(attempted, failures, map10, metrics, samples)

    tracer.install()
    try:
        index, root = open_index(plan, "traced")
        try:
            spans = run_ops(index, root, plan, clock.host, None, tracer)
            log_bytes = (os.path.getsize(root / workloads.WAL_FILE)
                         if plan.writes else 0)
        finally:
            index.close()
    finally:
        tracer.uninstall()
    tracer.dump(workloads.OUT / f"trace_{name}.jsonl")
    _, traced_malformed, traced_rows = check_answers(plan, spans.results)
    attempted += len(plan.ops) + len(rows)
    failures["errors"] += spans.errors
    failures["malformed"] += traced_malformed
    failures["traced_differs"] = same_answers(rows, traced_rows)
    metrics = _inprocess_layers(plan, plain, spans, tracer.flat(),
                                log_bytes, reopened, clock)
    return _result(attempted, failures, map10, metrics, samples)


def _inprocess_layers(plan, plain, spans, flat, log_bytes, reopened,
                      clock) -> dict:
    """Per-layer metrics of a one-caller workload: self time per call
    from the spans, counts per call from the same boundaries.  Span
    times are divided by the traced pass's median host-speed factor,
    set-up spans by set-up's."""
    metrics = dict.fromkeys(UNITS, 0.0)
    speed = float(np.median(spans.speed[spans.warm:]))
    setup_speed = clock.user_s / clock.nominal_s
    queries = _timed(plan, spans, QUERY_KINDS)
    writes = _timed(plan, spans, WRITE_KINDS)
    compacts = _timed(plan, spans, ("compact",))
    setup = trace.summarize(flat, lambda span: span[4] < 0)
    per_query = trace.summarize(flat, _call_filter(queries))
    per_write = trace.summarize(flat, _call_filter(writes))
    per_compact = trace.summarize(flat, _call_filter(compacts))

    def per_call(span):
        return per_query[span].value_sum / len(queries)

    for span in QUERY_PATH:
        metrics[metric_of(span)] = \
            per_query[span].self_ns / 1e6 / len(queries) / speed
    stats = [spans.stats[position] for position in queries]
    kappa = sum(s.candidates for s, _ in stats)
    metrics.update({
        "hilbert.keys_encoded": per_call("hilbert.encode"),
        "rdbtree.candidates_returned": per_call("rdbtree.candidates"),
        "filters.candidates_in": per_call("filters.triangular"),
        "filters.survivor_ratio":
            kappa / max(1, per_query["filters.triangular"].value_sum),
        "storage.bytes_gathered": per_call("storage.gather"),
        "engine.kappa": kappa / len(stats),
        "distance.computations":
            sum(s.distance_computations for s, _ in stats) / len(stats),
        "storage.page_reads": sum(heap for _, heap in stats) / len(stats),
        "btree.page_reads":
            sum(s.page_reads - heap for s, heap in stats) / len(stats),
        "storage.random_reads":
            sum(s.random_reads for s, _ in stats) / len(stats),
        "storage.sequential_reads":
            sum(s.sequential_reads for s, _ in stats) / len(stats),
        "meta.selectivity":
            sum(s.extra.get("selectivity", 1.0) for s, _ in stats)
            / len(stats),
        "meta.inflation":
            sum(s.extra["alpha"] for s, _ in stats) / len(stats)
            / plan.tier.alpha,
    })
    for span in ("hdindex.build", "reference.select", "rdbtree.bulk_build",
                 "persistence.save", "persistence.open"):
        metrics[span + "_s"] = setup[span].total_ns / 1e9 / setup_speed
    metrics["persistence.snapshot_bytes"] = plan.snapshot_bytes

    if reopened is not None:
        inserts = sum(op[0] == "insert" for op in plan.ops)
        compacted = [result for op, result in zip(plan.ops, spans.results)
                     if op[0] == "compact" and result is not None]
        plain_writes = plain.nominal_ns[_timed(plan, plain, WRITE_KINDS)]
        plain_compacts = plain.nominal_ns[_timed(plan, plain, ("compact",))]
        metrics.update({
            "wal.append_ms":
                per_write["wal.append"].total_ns / 1e6 / len(writes) / speed,
            "wal.fsyncs": per_write["wal.fsync"].count
                + per_compact["wal.fsync"].count,
            "wal.bytes_per_user_byte":
                (sum(log for log, _ in compacted) + log_bytes)
                / (inserts * plan.vectors.shape[1] * 4),
            "wal.delta_append_ms":
                per_write["wal.delta_append"].self_ns / 1e6 / len(writes)
                / speed,
            "wal.delta_rows_max": per_write["wal.delta_append"].value_max,
            "wal.fold_s": per_compact["wal.fold"].total_ns / 1e9 / speed,
            "wal.publish_s": per_compact["wal.publish"].total_ns / 1e9 / speed,
            "wal.bytes_rewritten": sum(size for _, size in compacted),
            "wal.reopen_replay_s": reopened["open_s"],
            "wal.write_p50_ms": percentile(plain_writes / 1e6, 50),
            "wal.write_p90_ms": percentile(plain_writes / 1e6, 90),
            "wal.compact_s": float(plain_compacts.sum()) / 1e9,
        })

    timed = _timed(plan, plain, QUERY_KINDS)
    plain_ms = plain.nominal_ns[timed] / 1e6
    plain_p50 = percentile(plain_ms, 50)
    metrics["harness.call_p90_ms"] = percentile(plain_ms, 90)
    metrics["harness.raw_call_p50_ms"] = \
        percentile(plain.latency_ns[timed] / 1e6, 50)
    metrics["harness.host_speed"] = float(np.median(plain.speed[timed]))
    metrics["baselines.linear_scan_ms"] = _linear_scan_ms(plan, clock.host)
    metrics["trace.coverage"] = sum(
        metrics[metric_of(span)] for span in QUERY_PATH) / plain_p50
    metrics["trace.overhead_ratio"] = percentile(
        spans.nominal_ns[queries] / 1e6, 50) / plain_p50
    return metrics


def _call_filter(positions):
    wanted = set(positions)
    return lambda span: span[4] in wanted


def _linear_scan_ms(plan, host) -> float:
    """Median exact scan of the base rows with the program's own
    kernels, at nominal host speed: what the index has to beat at this
    n."""
    base = plan.vectors[:plan.base_n]
    times = []
    before = host.mark()
    host.sample(CHECKPOINT_REPS)
    for query in plan.queries[:9]:
        started = time.perf_counter()
        top_k_smallest(euclidean_to_many(query, base), K)
        times.append((time.perf_counter() - started) * 1e3)
    host.sample(CHECKPOINT_REPS)
    return percentile(times, 50) / host.factor(before, host.mark())


# -- the served workload ---------------------------------------------------


def _run_served(name, seed, calls, tier, workdir, traced, clock) -> dict:
    plan = make_plan(name, seed, calls, tier, workdir, clock)
    plain = drive_served(plan, clock)
    checked, malformed, rows = check_answers(plan, plain.answers)
    map10, recall10 = quality(plan, rows)
    # Served answers must equal direct index.query byte for byte.
    direct = repro.open(plan.snapshot, backend="mmap")
    try:
        parity = [direct.query(plan.queries[row], K)
                  for row in range(min(PARITY_ROWS, len(plan.ops)))]
    finally:
        direct.close()
    attempted = len(plan.ops) + checked + len(parity)
    failures = {"errors": plain.errors, "malformed": malformed,
                "served_differs": same_answers(parity, rows[:len(parity)])}
    open_ms = plain.open_latency_ms()
    samples = {"calls": len(open_ms),
               "closed_loop_calls": len(plan.ops) - plan.open_n,
               "quality_rows": len(plan.truth),
               "host_speed": float(np.median(plain.speed)),
               "failures": failures}
    if not traced:
        metrics = _end_to_end(plan, plain.setup_s, open_ms, plain.capacity(),
                              map10, recall10, plain.rss_peak_mb)
        return _result(attempted, failures, map10, metrics, samples)

    server_trace = workloads.OUT / f"trace_{name}.jsonl"
    tracer = trace.Tracer().install()
    try:
        spans = drive_served(plan, clock, trace_out=server_trace)
    finally:
        tracer.uninstall()
    tracer.dump(workloads.OUT / f"trace_{name}_client.jsonl")
    _, traced_malformed, traced_rows = check_answers(plan, spans.answers)
    attempted += len(plan.ops) + len(rows)
    failures["errors"] += spans.errors
    failures["malformed"] += traced_malformed
    failures["traced_differs"] = same_answers(rows, traced_rows)
    metrics = _served_layers(plan, plain, spans, tracer.flat(),
                             trace.load(server_trace), clock.host)
    return _result(attempted, failures, map10, metrics, samples)


def _served_layers(plan, plain, spans, client, server, host) -> dict:
    """Per-layer metrics of phase A of the traced served run, the times
    divided by that phase's median host-speed factor.

    Only sums over the phase's requests are needed, so nothing has to
    match a request to its spans: the time requests spend in the server
    is (sum of response-encode ends) - (sum of request-decode starts),
    and a batch of Q rows starting at t adds Q*t to the start times of
    the requests it answers.
    """
    metrics = dict.fromkeys(UNITS, 0.0)
    count = plan.open_n
    per_ms = 1e6 * count * float(np.median(spans.speed[:count]))
    first = int(spans.sent_ns[:count].min())
    last = int(spans.done_ns[:count].max())

    def in_phase(span):
        return first <= span[1] <= last

    on_server = trace.summarize(server, in_phase)
    on_client = trace.summarize(client, in_phase)
    for span in QUERY_PATH:
        metrics[metric_of(span)] = on_server[span].self_ns / per_ms
    for key, span in (("hilbert.keys_encoded", "hilbert.encode"),
                      ("rdbtree.candidates_returned", "rdbtree.candidates"),
                      ("filters.candidates_in", "filters.triangular"),
                      ("storage.bytes_gathered", "storage.gather")):
        metrics[key] = on_server[span].value_sum / count
    metrics["persistence.snapshot_bytes"] = plan.snapshot_bytes

    framed = [span for span in server if in_phase(span)
              and span[0] in ("protocol.decode", "protocol.encode")
              and span[5] is not None]
    decode_starts = sum(s[1] for s in framed if s[0] == "protocol.decode")
    encode_ends = sum(s[2] for s in framed if s[0] == "protocol.encode")
    requests = [s for s in server if in_phase(s) and s[0] == "service.request"]
    batches = [s for s in server if in_phase(s) and s[0] == "service.batch"]
    batch_starts = sum(s[5] * s[1] for s in batches)
    residence = encode_ends - decode_starts
    in_service = sum(s[2] - s[1] for s in requests)
    protocol_server = (on_server["protocol.decode"].self_ns
                       + on_server["protocol.encode"].self_ns)
    protocol_client = (on_client["protocol.decode"].self_ns
                       + on_client["protocol.encode"].self_ns)
    round_trips = int((spans.done_ns[:count] - spans.sent_ns[:count]).sum())
    for key, span in (("protocol.encode_ms", "protocol.encode"),
                      ("protocol.decode_ms", "protocol.decode")):
        metrics[key] = (on_server[span].self_ns
                        + on_client[span].self_ns) / per_ms
    service, gateway = spans.stats["service"], spans.stats["gateway"]
    lookups = service["cache_hits"] + service["cache_misses"]
    metrics.update({
        "protocol.bytes_per_request":
            on_client["protocol.encode"].value_sum / count,
        "protocol.bytes_per_response":
            on_server["protocol.encode"].value_sum / count,
        "service.queue_wait_ms":
            (batch_starts - sum(s[1] for s in requests)) / per_ms,
        "service.dispatch_ms":
            (sum(s[2] for s in requests) - batch_starts) / per_ms,
        "service.batch_size_mean": service["mean_batch_size"],
        "service.cache_hit_ratio":
            service["cache_hits"] / lookups if lookups else 0.0,
        "service.overloads": service["overloads"],
        "gateway.self_ms":
            (residence - in_service - protocol_server) / per_ms,
        "gateway.shed": gateway["shed"],
        "gateway.deadline_exceeded": gateway["deadline_exceeded"],
        "client.self_ms":
            (round_trips - residence - protocol_client) / per_ms,
        "loadgen.lag_p90_ms": percentile(
            (spans.sent_ns[:count] - spans.due_ns[:count]) / 1e6, 90),
    })
    plain_p50 = percentile(plain.open_latency_ms(), 50)
    metrics["harness.call_p90_ms"] = percentile(plain.open_latency_ms(), 90)
    metrics["harness.raw_call_p50_ms"] = \
        percentile(plain.open_latency_ms(nominal=False), 50)
    metrics["harness.host_speed"] = float(np.median(plain.speed[:count]))
    metrics["baselines.linear_scan_ms"] = _linear_scan_ms(plan, host)
    metrics["trace.coverage"] = \
        sum(metrics[key] for key in SERVED_PATH) / plain_p50
    metrics["trace.overhead_ratio"] = \
        percentile(spans.open_latency_ms(), 50) / plain_p50
    return metrics


# -- command line ----------------------------------------------------------


def _suite(args, names) -> int:
    """All workloads, both ways, ``--repeat`` times; one summary.  Every
    run is a child process started the way the driver starts it, so the
    set-up time and peak memory are each run's own."""
    results: dict = {name: [] for name in names}
    for _ in range(args.repeat):
        for name in names:
            entry = {"correct": True, "attempted": 0, "failed": 0,
                     "samples": {}}
            for traced, key in (("0", "end_to_end"), ("1", "per_layer")):
                done = subprocess.run(
                    [sys.executable, __file__, "--workload", name,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", traced] + (["--smoke"] if args.smoke else []),
                    stdout=subprocess.PIPE, text=True)
                lines = done.stdout.strip().splitlines()
                if done.returncode not in (0, 1) or len(lines) < 2:
                    sys.exit(f"run.py: {name} --trace {traced} exited with "
                             f"{done.returncode} and no result")
                run = json.loads(lines[-1])
                entry[key] = {metric: value["value"]
                              for metric, value in run["metrics"].items()}
                entry["correct"] &= run["correct"]
                entry["attempted"] += run["attempted"]
                entry["failed"] += run["failed"]
                entry["samples"].update(json.loads(lines[-2])["samples"])
            results[name].append(entry)
    problems = [f"{name}: incorrect run" for name in names
                if not all(entry["correct"] for entry in results[name])]
    if args.check:
        problems += _check_repeats(results)
    print(json.dumps({
        "host": {"nproc": os.cpu_count()},
        "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
        "units": UNITS,
        "results": results,
        "problems": problems,
        "claim": None,
    }))
    return 1 if problems else 0


def _check_repeats(results: dict) -> list[str]:
    """Same code, same seed: every end-to-end metric within its own
    bound of the first run, and the deterministic counts equal."""
    problems = []
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in CONTRACT["end_to_end"]}
    for name, entries in results.items():
        first = entries[0]
        for entry in entries[1:]:
            for metric, (bound, better) in bounds.items():
                a, b = first["end_to_end"][metric], entry["end_to_end"][metric]
                worse = (b - a) / a if better == "lower" else (a - b) / a
                if abs(worse) > bound:
                    problems.append(
                        f"{name}: {metric} {a:.6g} vs {b:.6g} differs by "
                        f"more than {bound}")
            if name == "served_20k":
                continue  # batching there depends on arrival timing
            for metric in DETERMINISTIC:
                table = "end_to_end" if metric in bounds else "per_layer"
                if first[table][metric] != entry[table][metric]:
                    problems.append(
                        f"{name}: {metric} not repeatable: "
                        f"{first[table][metric]!r} vs {entry[table][metric]!r}")
    return problems


def main(argv=None) -> int:
    names = [workload["name"] for workload in CONTRACT["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="n = 2000 and a few calls per workload")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--check", action="store_true",
                        help="fail when repeats disagree beyond the bounds")
    args = parser.parse_args(argv)
    if args.workload is None or args.repeat > 1 or args.check:
        return _suite(args, [args.workload] if args.workload else names)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace or args.traced), args.smoke)
    print(json.dumps({"samples": result.pop("samples")}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
