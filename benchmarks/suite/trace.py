"""Run-time span tracing of the layers' public callables.

The traced run of the suite wraps each name in :data:`TARGETS` where it
is defined (and every ``repro.*`` module global that aliases it, since
``from x import f`` binds a second name), records one span per call and
restores the originals afterwards.  Nothing under ``src/`` is edited;
spans inside the program are a later change (ROADMAP item 1).

A span is ``[name, start_ns, end_ns, parent, call_id, value]``.  The
parent is whatever span was open in the same thread or asyncio task
(a :class:`contextvars.ContextVar`), ``call_id`` is the benchmark call
the harness announced in :attr:`Tracer.call_id`, and ``value`` is the
count taken at the same boundary (rows returned, bytes gathered, ...).
Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import collections
import contextvars
import importlib
import json
import sys
from time import perf_counter_ns


def _keys_encoded(args, kwargs, result):
    curves, coords = args[0], args[1]
    return len(curves) * coords[0].shape[0]


def _request_bytes(args, kwargs, result):
    """Body length of a decoded query frame; other frames (ping, stats)
    are not benchmark calls and their spans are dropped."""
    if result.get("op") == "query" or "ids" in result:
        return len(args[0])
    return None


def _frame_bytes(args, kwargs, result):
    message = args[0]
    if message.get("op") == "query" or "ids" in message:
        return len(result)
    return None


#: (span name, dotted path of the public callable, value extractor).
#: Two paths may share a span name when they are one layer step reached
#: two ways (``run``/``run_batch``, ``append_insert``/``append_delete``).
TARGETS = [
    ("hilbert.quantize", "repro.hilbert.quantize.GridQuantizer.quantize", None),
    ("hilbert.encode", "repro.hilbert.butz.encode_for_curves", _keys_encoded),
    ("distance.query_ref", "repro.core.reference.ReferenceSet.distances_from",
     None),
    ("distance.rerank", "repro.distance.metrics.euclidean_to_many", None),
    ("rdbtree.candidates", "repro.core.rdbtree.RDBTree.candidates",
     lambda args, kwargs, result: result[0].shape[0]),
    ("btree.nearest", "repro.btree.packed.PackedTree.nearest_positions", None),
    ("filters.triangular", "repro.core.filters.triangular_lower_bounds_many",
     lambda args, kwargs, result: result.shape[0]),
    ("filters.ptolemaic", "repro.core.filters.ptolemaic_lower_bounds_many",
     None),
    ("filters.select", "repro.core.filters.filter_candidates", None),
    ("engine.scan_many", "repro.core.engine.QueryEngine.scan_many", None),
    ("engine.rerank", "repro.core.engine.QueryEngine.rerank", None),
    ("engine.run", "repro.core.engine.QueryEngine.run", None),
    ("engine.run", "repro.core.engine.QueryEngine.run_batch", None),
    ("storage.gather", "repro.storage.vectors.VectorHeapFile.gather",
     lambda args, kwargs, result: result.nbytes),
    ("meta.mask", "repro.meta.predicates.Eq.mask", None),
    ("hdindex.build", "repro.core.hdindex.HDIndex.build", None),
    ("reference.select", "repro.core.reference.ReferenceSet.select", None),
    ("rdbtree.bulk_build", "repro.core.rdbtree.RDBTree.bulk_build", None),
    ("persistence.save", "repro.core.persistence.save_index", None),
    ("persistence.open", "repro.core.factory.open_index", None),
    ("wal.append", "repro.wal.log.WriteAheadLog.append_insert", None),
    ("wal.append", "repro.wal.log.WriteAheadLog.append_delete", None),
    ("wal.fsync", "os.fsync", None),
    ("wal.delta_append", "repro.wal.delta.DeltaSegment.append",
     lambda args, kwargs, result: len(args[0])),
    ("wal.delta_gather", "repro.wal.delta.DeltaSegment.gather", None),
    ("wal.fold", "repro.wal.manager.fold_generation", None),
    ("wal.publish", "repro.wal.manager.publish_current", None),
    ("protocol.decode", "repro.serve.protocol.decode_body", _request_bytes),
    ("protocol.decode", "repro.serve.protocol.decode_array", None),
    ("protocol.encode", "repro.serve.protocol.encode_frame", _frame_bytes),
    ("protocol.encode", "repro.serve.protocol.encode_array", None),
    ("service.batch", "repro.core.hdindex.HDIndex.query_batch",
     lambda args, kwargs, result: result[0].shape[0]),
]

#: Callables returning a Future: the span ends when the future resolves,
#: so it covers queue wait and dispatch, not just the enqueue.
FUTURE_TARGETS = [
    ("service.request", "repro.serve.service.QueryService.submit"),
]


def resolve(dotted: str):
    """``(owner, attribute)`` for a dotted path: the longest importable
    module prefix, then attribute lookups."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1]
    raise ImportError(f"cannot resolve {dotted!r}")


class Tracer:
    """Installs the wrappers, holds the spans, restores the originals."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: Set by the harness around each benchmark call; -1 outside one.
        self.call_id = -1
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "benchmark_span", default=None)
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> "Tracer":
        for name, dotted, value_fn in TARGETS:
            self._patch(name, dotted, value_fn, False)
        for name, dotted in FUTURE_TARGETS:
            self._patch(name, dotted, None, True)
        return self

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def patched_attributes(self) -> list[tuple[object, str, object]]:
        """``(owner, attribute, original)`` for every binding replaced."""
        return list(self._patched)

    def _patch(self, name, dotted, value_fn, until_done) -> None:
        owner, attribute = resolve(dotted)
        original = vars(owner)[attribute]
        if isinstance(original, (classmethod, staticmethod)):
            wrapper = type(original)(self._wrap(
                name, original.__func__, value_fn, until_done))
        else:
            wrapper = self._wrap(name, original, value_fn, until_done)
        bindings = [(owner, attribute)]
        if not isinstance(owner, type):
            # A module-level function: rebind every repro module global
            # that imported it by name.
            for module_name, module in list(sys.modules.items()):
                if module is None or module is owner or not (
                        module_name == "repro"
                        or module_name.startswith("repro.")):
                    continue
                bindings += [(module, alias)
                             for alias, value in list(vars(module).items())
                             if value is original]
        for target, alias in bindings:
            self._patched.append((target, alias, original))
            setattr(target, alias, wrapper)

    def _wrap(self, name, function, value_fn, until_done):
        spans, current = self.spans, self._current

        def traced(*args, **kwargs):
            record = [name, 0, 0, current.get(), self.call_id, None]
            spans.append(record)
            token = current.set(record)
            record[1] = perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                current.reset(token)
            if value_fn is not None:
                value = value_fn(args, kwargs, result)
                if value is None:
                    record[0] = None
                else:
                    record[5] = value
            if until_done:
                result.add_done_callback(
                    lambda _future: record.__setitem__(2, perf_counter_ns()))
            return result

        traced.__wrapped__ = function
        return traced

    def flat(self) -> list[tuple]:
        """Spans as tuples with the parent as an index (-1 for none);
        spans a value extractor rejected are left out."""
        kept = [span for span in self.spans if span[0] is not None]
        position = {id(span): index for index, span in enumerate(kept)}
        return [(name, start, end,
                 position.get(id(parent), -1) if parent is not None else -1,
                 call_id, value)
                for name, start, end, parent, call_id, value in kept]

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, call_id, value in self.flat():
                handle.write(json.dumps(
                    {"name": name, "start_ns": start, "end_ns": end,
                     "parent": parent, "call_id": call_id,
                     "value": value}) + "\n")


def load(path) -> list[tuple]:
    """Inverse of :meth:`Tracer.dump`."""
    with open(path) as handle:
        return [(row["name"], row["start_ns"], row["end_ns"], row["parent"],
                 row["call_id"], row["value"])
                for row in map(json.loads, handle)]


class Summary:
    """Totals over the spans of one name."""

    __slots__ = ("self_ns", "total_ns", "count", "value_sum", "value_max")

    def __init__(self) -> None:
        self.self_ns = 0
        self.total_ns = 0
        self.count = 0
        self.value_sum = 0
        self.value_max = 0


def summarize(flat: list[tuple], keep=lambda span: True
              ) -> collections.defaultdict[str, Summary]:
    """Per-name self time and counts over the spans ``keep`` accepts
    (an all-zero :class:`Summary` for a name with no span).

    A span's self time is its duration minus the part its direct
    children cover (children run inside their parent, one at a time).
    """
    child_ns = [0] * len(flat)
    for name, start, end, parent, call_id, value in flat:
        if parent >= 0:
            child_ns[parent] += end - start
    out: collections.defaultdict[str, Summary] = \
        collections.defaultdict(Summary)
    for index, span in enumerate(flat):
        if not keep(span):
            continue
        name, start, end, parent, call_id, value = span
        summary = out[name]
        summary.self_ns += end - start - child_ns[index]
        summary.total_ns += end - start
        summary.count += 1
        if value is not None:
            summary.value_sum += value
            summary.value_max = max(summary.value_max, value)
    return out
