"""The five workloads: inputs from a seed, set-up, execution, checking.

Every workload is a list of *calls* fixed by ``(seed, calls)``: op counts
never depend on how fast the program runs, so the program's own counters
(page reads, distance computations, kappa) repeat exactly for a seed.
The program receives only the generated inputs; exact answers, labels
and the write schedule stay on the harness side and are used to check
every answer afterwards.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import json
import math
import os
import select
import shutil
import signal
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import repro
from repro import Eq, HDIndexParams, IndexSpec, MetadataStore, make_dataset
from repro.distance import euclidean_to_many, pairwise_euclidean
from repro.eval import average_precision, recall_at_k
from repro.serve.client import AsyncServeClient
from repro.wal import WAL_FILE, resolve_snapshot_dir

from benchmarks.suite.hostspeed import NEIGHBOURS

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
OUT = SUITE / "out"

K = 10
BATCH = 16
LABELS = 10
QUALITY_ROWS = 500
PARITY_ROWS = 100
WARMUP_SHARE = 0.05
#: Open-loop arrival rate of ``served_20k`` phase A and its latency limit.
SERVED_RATE = 60.0
SERVED_DEADLINE_MS = 10_000.0
#: Closed-loop (phase B) requests answered per second on the seed commit;
#: sizes phase B to as long as phase A.
SERVED_CLOSED_RATE = 170.0
SERVED_CONNECTIONS = 2
SERVED_PIPELINE = 8
#: Both served phases run in segments this long, each with its own
#: host-speed factor and with nothing in flight between two of them; the
#: load generator runs the host-speed kernel this often meanwhile.
SERVED_SEGMENT_S = 0.5
SERVED_KERNEL_EVERY_S = 0.02
#: A one-caller run stops issuing calls once its timed phase has lasted
#: this many times ``--seconds``: a slow host measures fewer calls, not a
#: longer run.
OVERRUN = 1.25


@dataclasses.dataclass(frozen=True)
class Tier:
    n: int
    alpha: int
    beta: int
    gamma: int


TIERS = {
    "100k": Tier(100_000, 1024, 512, 256),
    "20k": Tier(20_000, 512, 256, 128),
    "10k": Tier(10_000, 512, 256, 128),
}
SMOKE_TIER = Tier(2000, 256, 128, 64)


@dataclasses.dataclass(frozen=True)
class Spec:
    """One workload: its tier, its calls per measured second on the seed
    commit (so ``--seconds`` of work is issued), its smoke-mode call
    count, and the MAP@10 floor frozen from the seed commit."""

    tier: str
    calls_per_second: float
    smoke_calls: int
    map10_floor: float


SPECS = {
    "single_100k": Spec("100k", 130.0, 40, 0.68),
    "batch_100k": Spec("100k", 6.5, 4, 0.68),
    "filtered_100k": Spec("100k", 35.0, 20, 0.98),
    # Half the measured time at SERVED_RATE, half in the closed loop.
    "served_20k": Spec("20k", (SERVED_RATE + SERVED_CLOSED_RATE) / 2, 78,
                       0.88),
    "ingest_mixed_10k": Spec("10k", 150.0, 80, 0.98),
}
#: ``ingest_mixed_10k`` call mix (queries : inserts : deletes).
INGEST_MIX = (16, 3, 1)


@dataclasses.dataclass
class Plan:
    """Everything set-up produces for one run."""

    name: str
    tier: Tier
    workdir: Path
    snapshot: Path
    snapshot_bytes: int
    vectors: np.ndarray            # float32 rows in id order: base, then inserts
    queries: np.ndarray            # float64, consumed in call order
    ops: list[tuple]
    truth: list[np.ndarray]        # exact top-K ids of the first quality rows
    query_labels: np.ndarray | None = None
    point_labels: np.ndarray | None = None
    inserts: np.ndarray | None = None
    #: ``served_20k``: rows ``[0, open_n)`` are phase A, the rest of the
    #: calls phase B; queries past the calls are warm-up requests.
    open_n: int = 0

    @property
    def base_n(self) -> int:
        return self.tier.n

    @property
    def writes(self) -> bool:
        """Whether the calls mutate the index (the write workload)."""
        return self.inserts is not None


@dataclasses.dataclass
class Pass:
    """One execution of a plan's calls.  ``speed`` is the host's speed
    factor around each call; ``latency_ns / speed`` is the call's time at
    nominal host speed.  ``planned`` counts the timed calls of each kind
    in the plan before a slow host cut it short."""

    results: list
    latency_ns: np.ndarray
    speed: np.ndarray
    errors: int
    warm: int
    planned: dict
    rss_peak_mb: float
    stats: list

    @property
    def nominal_ns(self) -> np.ndarray:
        return self.latency_ns / self.speed


# -- small helpers ---------------------------------------------------------


def dir_bytes(path) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def peak_rss_mb(pid: int | str = "self") -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS watermark so the reported peak is
    the measured phase's, not set-up's.  Where the kernel refuses, the
    peak covers the whole process on every run alike."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def warmup_count(calls: int) -> int:
    return max(1, math.ceil(calls * WARMUP_SHARE))


def index_params(tier: Tier, domain, seed: int) -> HDIndexParams:
    return HDIndexParams(
        num_trees=8, num_references=10, hilbert_order=8,
        alpha=tier.alpha, beta=tier.beta, gamma=tier.gamma,
        use_ptolemaic=True, domain=domain, storage_dtype="float32",
        page_size=4096, cache_pages=0, seed=seed)


def build_snapshot(workdir: Path, tier: Tier, domain, seed: int,
                   data: np.ndarray, metadata=None) -> tuple[Path, int]:
    """Build, persist and close; returns the snapshot and its size."""
    snapshot = workdir / "snapshot"
    index = repro.build(IndexSpec(params=index_params(tier, domain, seed)),
                        data, metadata=metadata)
    try:
        repro.save_index(index, snapshot)
    finally:
        index.close()
    return snapshot, dir_bytes(snapshot)


def exact_rows(data: np.ndarray, queries: np.ndarray) -> list[np.ndarray]:
    if not len(queries):
        return []
    ids, _ = repro.exact_knn(data, queries, K, block=32)
    return list(ids)


# -- plans -----------------------------------------------------------------


def make_plan(name: str, seed: int, calls: int, tier: Tier,
              workdir: Path, clock) -> Plan:
    """Generate the inputs of one workload and build its snapshot, with
    a host-speed checkpoint of the set-up ``clock`` after each stage."""
    if name == "ingest_mixed_10k":
        return _plan_ingest(seed, calls, tier, workdir, clock)
    rows = calls * BATCH if name == "batch_100k" else calls
    quality = min(QUALITY_ROWS, rows)
    spare = warmup_count(calls) if name == "served_20k" else 0
    dataset = make_dataset("sift10k", n=tier.n, num_queries=rows + spare,
                           seed=seed)
    clock.checkpoint()
    data, queries = dataset.data, dataset.queries
    plan = Plan(name=name, tier=tier, workdir=workdir, snapshot=workdir,
                snapshot_bytes=0, vectors=data.astype(np.float32),
                queries=queries, ops=[], truth=[])
    metadata = None
    if name == "filtered_100k":
        rng = np.random.default_rng([seed, 1])
        plan.point_labels = rng.integers(0, LABELS, size=tier.n)
        plan.query_labels = rng.integers(0, LABELS, size=rows)
        metadata = MetadataStore({"label": plan.point_labels})
    plan.snapshot, plan.snapshot_bytes = build_snapshot(
        workdir, tier, dataset.spec.domain, seed, data, metadata)
    clock.checkpoint()
    if name == "served_20k":
        plan.open_n = max(2, round(
            calls * SERVED_RATE / (SERVED_RATE + SERVED_CLOSED_RATE)))
    if name == "batch_100k":
        plan.ops = [("batch", start) for start in range(0, rows, BATCH)]
    elif name == "filtered_100k":
        predicates = [Eq("label", label) for label in range(LABELS)]
        plan.ops = [("filtered", row, predicates[plan.query_labels[row]])
                    for row in range(rows)]
        plan.truth = _filtered_truth(data, queries[:quality],
                                     plan.point_labels, plan.query_labels)
        return plan
    else:
        plan.ops = [("query", row) for row in range(rows)]
    plan.truth = exact_rows(data, queries[:quality])
    return plan


def _filtered_truth(data, queries, point_labels, query_labels):
    """Exact top-K over the eligible points of each query's label."""
    truth: list = [None] * len(queries)
    for label in range(LABELS):
        rows = np.flatnonzero(query_labels[:len(queries)] == label)
        eligible = np.flatnonzero(point_labels == label)
        for row, local in zip(rows, exact_rows(data[eligible],
                                               queries[rows])):
            truth[row] = eligible[local]
    return truth


def _plan_ingest(seed: int, calls: int, tier: Tier, workdir: Path,
                 clock) -> Plan:
    """A seeded interleave of queries, inserts and deletes with a
    synchronous ``compact()`` after one third and two thirds of the
    inserts, so the last third is still in the log at reopen."""
    unit = sum(INGEST_MIX)
    num_queries, num_inserts, num_deletes = (
        max(1, calls * share // unit) for share in INGEST_MIX)
    num_inserts = max(3, num_inserts)
    dataset = make_dataset("sift10k", n=tier.n + num_inserts,
                           num_queries=num_queries, seed=seed)
    clock.checkpoint()
    base, inserts = dataset.data[:tier.n], dataset.data[tier.n:]
    snapshot, snapshot_bytes = build_snapshot(
        workdir, tier, dataset.spec.domain, seed, base)
    clock.checkpoint()
    rng = np.random.default_rng([seed, 2])
    kinds = np.repeat(np.arange(3),
                      [num_queries, num_inserts, num_deletes])
    rng.shuffle(kinds)
    compact_after = {num_inserts // 3, 2 * num_inserts // 3}
    total = tier.n + num_inserts
    born = np.full(total, -1)
    died = np.full(total, np.iinfo(np.int64).max)
    ops: list[tuple] = []
    query_position = []
    next_query = next_insert = 0
    for kind in kinds:
        position = len(ops)
        if kind == 0:
            ops.append(("query", next_query))
            query_position.append(position)
            next_query += 1
        elif kind == 1:
            born[tier.n + next_insert] = position
            ops.append(("insert", next_insert))
            next_insert += 1
            if next_insert in compact_after:
                ops.append(("compact", None))
        else:
            victim = int(rng.integers(0, tier.n + next_insert))
            while died[victim] < position:
                victim = int(rng.integers(0, tier.n + next_insert))
            died[victim] = position
            ops.append(("delete", victim))
    # Exact top-K over the set live at each query's position.
    quality = min(QUALITY_ROWS, num_queries)
    distances = pairwise_euclidean(dataset.queries[:quality], dataset.data)
    truth = []
    for row in range(quality):
        position = query_position[row]
        live = (born < position) & (died > position)
        row_distances = np.where(live, distances[row], np.inf)
        nearest = np.argpartition(row_distances, K)[:K]
        truth.append(nearest[np.lexsort((nearest, row_distances[nearest]))])
    return Plan(name="ingest_mixed_10k", tier=tier, workdir=workdir,
                snapshot=snapshot, snapshot_bytes=snapshot_bytes,
                vectors=dataset.data.astype(np.float32),
                queries=dataset.queries, ops=ops, truth=truth,
                inserts=inserts)


# -- in-process execution --------------------------------------------------


def open_index(plan: Plan, tag: str):
    """``(index, root)`` over the deployed read path: the snapshot
    reopened over mmap.  The write workload gets a private copy of the
    snapshot, opened with the write-ahead log on (default fsync policy:
    every append)."""
    if not plan.writes:
        return repro.open(plan.snapshot, backend="mmap"), plan.snapshot
    root = plan.workdir / f"live-{tag}"
    shutil.copytree(plan.snapshot, root)
    return repro.open(root, backend="mmap", wal=True), root


def execute(index, root: Path, plan: Plan, op: tuple):
    kind = op[0]
    if kind == "query":
        return index.query(plan.queries[op[1]], K)
    if kind == "batch":
        return index.query_batch(plan.queries[op[1]:op[1] + BATCH], K)
    if kind == "filtered":
        return index.query(plan.queries[op[1]], K, predicate=op[2])
    if kind == "insert":
        return index.insert(plan.inserts[op[1]])
    if kind == "delete":
        return index.delete(op[1])
    log_bytes = os.path.getsize(root / WAL_FILE)
    index.compact()
    return log_bytes, dir_bytes(resolve_snapshot_dir(root))


def run_ops(index, root: Path, plan: Plan, host, budget_s: float | None,
            tracer=None) -> Pass:
    """Issue the calls once, one caller, closed loop, with the host-speed
    kernel run for a tenth of each call's time after it.  The first 5 %
    of the calls warm up and are left out of the timings.  Calls the
    timed phase does not reach within ``budget_s`` are dropped from the
    plan."""
    ops = plan.ops
    warm = warmup_count(len(ops))
    planned = collections.Counter(op[0] for op in ops[warm:])
    latency = np.zeros(len(ops), dtype=np.int64)
    marks = np.zeros(len(ops), dtype=np.int64)
    results: list = [None] * len(ops)
    stats: list = [None] * len(ops)
    errors = 0
    deadline = None
    host.sample(NEIGHBOURS)
    for position, op in enumerate(ops):
        if position == warm:
            reset_peak_rss()
            if budget_s is not None:
                deadline = perf_counter_ns() + int(budget_s * 1e9)
        elif deadline is not None and perf_counter_ns() > deadline:
            truncate(plan, position)
            break
        if tracer is not None:
            tracer.call_id = position
            heap_reads = index.heap.stats.page_reads
        marks[position] = host.mark()
        started = perf_counter_ns()
        try:
            results[position] = execute(index, root, plan, op)
        except Exception:
            # A failed call is counted and reported, not fatal: the
            # remaining calls still say how the program behaves.
            errors += 1
            traceback.print_exc()
        latency[position] = perf_counter_ns() - started
        if tracer is not None and op[0] in ("query", "batch", "filtered"):
            stats[position] = (index.last_query_stats(),
                               index.heap.stats.page_reads - heap_reads)
        host.sample_for(latency[position] // 10)
    if tracer is not None:
        tracer.call_id = -1
    done = len(ops)
    return Pass(results=results[:done], latency_ns=latency[:done],
                speed=host.factors_at(marks[:done]), errors=errors,
                warm=warm, planned=planned, rss_peak_mb=peak_rss_mb(),
                stats=stats[:done])


def truncate(plan: Plan, done: int) -> None:
    """Forget the calls a run did not reach, and their exact answers."""
    del plan.ops[done:]
    rows = sum(BATCH if op[0] == "batch" else 1 for op in plan.ops
               if op[0] in ("query", "batch", "filtered"))
    del plan.truth[rows:]


# -- checking --------------------------------------------------------------


def answer_rows(plan: Plan, results: list) -> list:
    """``(ids, dists)`` per query row in call order (None where the call
    failed); a batch call contributes one row per batch member."""
    rows: list = [None] * len(plan.queries)
    for op, result in zip(plan.ops, results):
        if result is None:
            continue
        if op[0] == "batch":
            for offset in range(result[0].shape[0]):
                rows[op[1] + offset] = (result[0][offset], result[1][offset])
        elif op[0] in ("query", "filtered"):
            rows[op[1]] = result
    return rows


def check_row(plan: Plan, row: int, answer, count: int, deleted) -> bool:
    """One answer set: K distinct live ids, ascending exact distances,
    and (filtered) every id eligible."""
    if answer is None:
        return False
    ids, dists = answer
    if ids.shape != (K,) or dists.shape != (K,):
        return False
    if ids.min() < 0 or ids.max() >= count or len(set(ids.tolist())) != K:
        return False
    if deleted and not deleted.isdisjoint(ids.tolist()):
        return False
    if np.any(np.diff(dists) < 0):
        return False
    if not np.array_equal(
            euclidean_to_many(plan.queries[row], plan.vectors[ids]), dists):
        return False
    if plan.point_labels is not None and np.any(
            plan.point_labels[ids] != plan.query_labels[row]):
        return False
    return True


def check_answers(plan: Plan, results: list) -> tuple[int, int, list]:
    """``(checked, failed, rows)`` over every call of a pass."""
    rows = answer_rows(plan, results)
    checked = failed = 0
    count = plan.base_n
    deleted: set[int] = set()
    for op, result in zip(plan.ops, results):
        kind = op[0]
        if kind == "insert":
            checked += 1
            failed += result != count
            count += 1
        elif kind == "delete":
            deleted.add(op[1])
        elif kind == "batch":
            for row in range(op[1], op[1] + BATCH):
                checked += 1
                failed += not check_row(plan, row, rows[row], count, deleted)
        elif kind in ("query", "filtered"):
            checked += 1
            failed += not check_row(plan, op[1], rows[op[1]], count, deleted)
    return checked, int(failed), rows


def quality(plan: Plan, rows: list) -> tuple[float, float]:
    """MAP@10 and recall@10 against exact kNN over the quality rows."""
    precision, recall = [], []
    for truth, answer in zip(plan.truth, rows):
        ids = [] if answer is None else answer[0]
        precision.append(average_precision(truth, ids, K))
        recall.append(recall_at_k(truth, ids, K))
    return float(np.mean(precision)), float(np.mean(recall))


def same_answers(first: list, second: list) -> int:
    """Rows whose ids or distances differ byte for byte."""
    differing = 0
    for a, b in zip(first, second):
        if (a is None) != (b is None):
            differing += 1
        elif a is not None and (a[0].tobytes() != b[0].tobytes()
                                or a[1].tobytes() != b[1].tobytes()):
            differing += 1
    return differing


def reopen_check(plan: Plan, root: Path) -> dict:
    """Reopen the written directory in a fresh process: every
    acknowledged insert must be found and every delete absent."""
    inserted = [plan.base_n + op[1] for op in plan.ops if op[0] == "insert"]
    deleted = [op[1] for op in plan.ops if op[0] == "delete"]
    ids = np.asarray(inserted + [d for d in deleted if d < plan.base_n],
                     dtype=np.int64)
    expect = plan.workdir / "expect.npz"
    np.savez(expect, ids=ids, vectors=plan.vectors[ids].astype(np.float64),
             deleted=np.asarray(deleted, dtype=np.int64))
    done = subprocess.run(
        [sys.executable, str(SUITE / "reopen_check.py"), str(root),
         str(expect)],
        env=child_env(), capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return {"checked": len(ids), "failed": len(ids), "open_s": 0.0}
    return json.loads(done.stdout.strip().splitlines()[-1])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + (
            [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


# -- the served workload ---------------------------------------------------


class Server:
    """``python -m repro.serve.server`` over a snapshot, as a subprocess.
    With ``trace_out`` the same server starts through
    ``traced_server.py``, which installs the wrappers first and writes
    its spans there when it drains."""

    def __init__(self, snapshot: Path, trace_out: Path | None = None) -> None:
        module = "repro.serve.server"
        extra: list[str] = []
        if trace_out is not None:
            module = "benchmarks.suite.traced_server"
            extra = ["--trace-out", str(trace_out)]
        self.process = subprocess.Popen(
            [sys.executable, "-m", module, "--snapshot", str(snapshot),
             "--port", "0", "--backend", "mmap"] + extra,
            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
        ready, _, _ = select.select([self.process.stdout], [], [], 60.0)
        line = self.process.stdout.readline() if ready else ""
        if "READY" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("port=")[1].split()[0])

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def user_s(self) -> float:
        """User-mode CPU seconds the server process has used."""
        with open(f"/proc/{self.process.pid}/stat") as handle:
            fields = handle.read().rpartition(")")[2].split()
        return int(fields[11]) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


@dataclasses.dataclass
class ServedPass:
    """One drive of the served workload: phase A is rows ``[0, open_n)``
    (open loop), phase B the rest (closed loop), both in segments;
    ``speed`` is the host-speed factor of each row's segment."""

    open_n: int
    closed_segments: list[range]
    answers: list
    due_ns: np.ndarray
    sent_ns: np.ndarray
    done_ns: np.ndarray
    speed: np.ndarray
    errors: int
    rss_peak_mb: float
    stats: dict
    setup_s: float

    def open_latency_ms(self, nominal: bool = True) -> np.ndarray:
        """Phase-A round trips timed from each request's due time, at
        nominal host speed or as the clock read them."""
        raw = (self.done_ns[:self.open_n] - self.due_ns[:self.open_n]) / 1e6
        return raw / self.speed[:self.open_n] if nominal else raw

    def capacity(self) -> float:
        """Phase-B requests answered per second at nominal host speed:
        the median over the segments, each from its first send to its
        last answer."""
        return float(np.median([
            len(rows) * 1e9 * self.speed[rows.start]
            / (self.done_ns[rows.start:rows.stop].max()
               - self.sent_ns[rows.start:rows.stop].min())
            for rows in self.closed_segments]))


def _segments(rows: range, rate: float) -> list[range]:
    size = max(1, round(rate * SERVED_SEGMENT_S))
    return [rows[start:start + size] for start in range(0, len(rows), size)]


async def _drive(server: Server, plan: Plan, clock) -> tuple:
    calls, open_n, total = len(plan.ops), plan.open_n, len(plan.queries)
    host = clock.host
    answers: list = [None] * total
    due = np.zeros(total, dtype=np.int64)
    sent = np.zeros(total, dtype=np.int64)
    done = np.zeros(total, dtype=np.int64)
    speed = np.ones(total)
    errors = 0
    clients = [await AsyncServeClient.connect("127.0.0.1", server.port)
               for _ in range(SERVED_CONNECTIONS)]

    async def request(row: int, client) -> None:
        nonlocal errors
        sent[row] = perf_counter_ns()
        try:
            answers[row] = await client.query(
                plan.queries[row], K, deadline_ms=SERVED_DEADLINE_MS)
        except Exception:
            # Shed, past its deadline, or a broken connection: the
            # request failed; the load generator keeps going.
            errors += 1
        done[row] = perf_counter_ns()

    async def open_loop(rows) -> None:
        """One request every 1/rate seconds whether or not earlier ones
        have been answered."""
        interval = 1e9 / SERVED_RATE
        first_due = perf_counter_ns() + 20_000_000
        tasks = []
        for offset, row in enumerate(rows):
            due[row] = first_due + int(offset * interval)
            delay = (due[row] - perf_counter_ns()) / 1e9
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(
                request(row, clients[row % SERVED_CONNECTIONS])))
        await asyncio.gather(*tasks)

    async def closed_loop(rows) -> None:
        """Each pipelined slot sends its next request when its previous
        one is answered."""
        pending = iter(rows)

        async def slot(client) -> None:
            for row in pending:
                await request(row, client)

        await asyncio.gather(*(
            slot(clients[s % SERVED_CONNECTIONS])
            for s in range(SERVED_CONNECTIONS * SERVED_PIPELINE)))

    async def watch_host() -> None:
        """The host-speed kernel, about 5 % of this thread's time."""
        while True:
            host.kernel_after_sleep()
            await asyncio.sleep(SERVED_KERNEL_EVERY_S)

    async def segment(rows, loop) -> None:
        """A stretch of load and the host's speed factor during it."""
        before = host.mark()
        await loop(rows)
        speed[rows.start:rows.stop] = host.factor(before, host.mark())

    closed = _segments(range(open_n, calls), SERVED_CLOSED_RATE)
    watcher = None
    try:
        # Warm-up: the spare queries, through the same slots, so both the
        # one-row and the full-batch paths of the service have run.
        await closed_loop(range(calls, total))
        await asyncio.sleep(0.1)
        setup_s = clock.checkpoint(server.user_s())
        watcher = asyncio.create_task(watch_host())
        for rows in _segments(range(open_n), SERVED_RATE):
            await segment(rows, open_loop)       # phase A
        for rows in closed:
            await segment(rows, closed_loop)     # phase B, for capacity
        stats = await clients[0].stats()
    finally:
        if watcher is not None:
            watcher.cancel()
        for client in clients:
            await client.close()
    return (closed, answers[:calls], due[:calls], sent[:calls], done[:calls],
            speed[:calls], errors, stats, setup_s)


def drive_served(plan: Plan, clock,
                 trace_out: Path | None = None) -> ServedPass:
    """Start a server over the plan's snapshot, drive both phases from
    one asyncio thread with two connections, stop the server.  Set-up
    ends when the first phase-A segment is about to start."""
    server = Server(plan.snapshot, trace_out)
    try:
        (closed, answers, due, sent, done, speed, errors, stats,
         setup_s) = asyncio.run(_drive(server, plan, clock))
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    return ServedPass(open_n=plan.open_n, closed_segments=closed,
                      answers=answers, due_ns=due, sent_ns=sent,
                      done_ns=done, speed=speed, errors=errors,
                      rss_peak_mb=rss, stats=stats, setup_s=setup_s)
