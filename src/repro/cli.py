"""Command-line interface: ``python -m repro <command>``.

Five commands cover the library's main workflows without writing code:

* ``info``      — list dataset configurations and paper-recommended params;
* ``build``     — build the index an :class:`~repro.core.IndexSpec`
  describes (``--spec spec.json``, or synthesised from ``--backend`` /
  ``--wal`` flags) over a dataset (synthetic or .fvecs)
  and persist it to a directory;
* ``compact``   — fold an index's in-memory delta into its base: a new
  snapshot generation when a write-ahead log is attached (see
  :mod:`repro.wal`), the snapshot itself otherwise;
* ``query``     — reopen a persisted index via :func:`repro.open` and run
  a query workload against it, reporting MAP/ratio/time/I/O;
* ``serve``     — load a persisted index into a micro-batching
  :class:`~repro.serve.QueryService` and drive it with concurrent client
  threads, reporting throughput and batching statistics
  (``--workers N`` row-shards its micro-batches over N worker
  processes; over TCP, run ``python -m repro.serve.server``).

Every flag combination is one declarative spec under the hood.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from repro.core import (
    HDIndexParams,
    IndexSpec,
    PersistenceError,
    build as build_index,
    open_index,
    recommended_params,
)
from repro.core.params import BACKENDS
from repro.datasets import DATASET_CATALOG, make_dataset, read_vecs
from repro.eval import GroundTruth, evaluate_index, format_table
from repro.serve.server import positive_int


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HD-Index (VLDB 2018) reproduction toolkit")
    commands = parser.add_subparsers(dest="command", required=True)

    info = commands.add_parser("info", help="list datasets and defaults")

    build = commands.add_parser("build", help="build and persist an index")
    _add_data_arguments(build)
    build.add_argument("--out", required=True,
                       help="directory to persist the index into")
    _add_param_arguments(build)
    build.add_argument("--spec", default=None,
                       help="JSON file holding a full IndexSpec (params, "
                            "wal); other flags override its fields")
    build.add_argument("--backend", choices=BACKENDS, default=None,
                       help="storage backend; mmap writes the snapshot "
                            "files straight into --out and builds over "
                            "their mappings")
    build.add_argument("--wal", action="store_true",
                       help="make inserts/deletes durable: frame each in "
                            "a write-ahead log next to the snapshot "
                            "(without it they are volatile until "
                            "save_index / `repro compact`)")
    build.add_argument("--with-labels", type=positive_int, default=None,
                       metavar="N",
                       help="attach a synthetic metadata column "
                            "'label' = row %% N, enabling "
                            "`repro query --filter` demos against this "
                            "index")

    compact = commands.add_parser(
        "compact", help="fold an index's delta into its base (a new "
                        "snapshot generation when it is WAL-backed)")
    compact.add_argument("--index", required=True,
                         help="directory holding a persisted index; "
                              "a plain index's logged updates (built with "
                              "--wal) are replayed and published as the "
                              "next generation")

    query = commands.add_parser("query", help="query a persisted index")
    query.add_argument("--index", required=True,
                       help="directory holding a persisted index")
    _add_data_arguments(query)
    query.add_argument("-k", type=positive_int, default=10)
    query.add_argument("--batch-size", type=positive_int, default=None,
                       help="answer queries through the vectorized "
                            "query_batch path in chunks of this size")
    query.add_argument("--backend", choices=BACKENDS, default=None,
                       help="how to reopen the snapshot (default mmap: "
                            "mapped, the larger-than-RAM mode; memory = "
                            "read into RAM up front)")
    query.add_argument("--filter", default=None, metavar="JSON",
                       help="filtered kNN: a predicate in JSON form, e.g. "
                            "'{\"op\": \"eq\", \"column\": \"label\", "
                            "\"value\": 3}'; the index must carry metadata "
                            "(see `repro build --with-labels`)")

    serve = commands.add_parser(
        "serve", help="serve a persisted index to concurrent clients")
    serve.add_argument("--index", required=True,
                       help="directory holding a persisted index")
    _add_data_arguments(serve)
    serve.add_argument("-k", type=positive_int, default=10)
    serve.add_argument("--clients", type=positive_int, default=4,
                       help="concurrent client threads")
    serve.add_argument("--repeat", type=positive_int, default=1,
                       help="send the query workload this many times")
    serve.add_argument("--max-batch", type=positive_int, default=64,
                       help="most requests one micro-batch takes")
    serve.add_argument("--max-pending", type=positive_int, default=1024,
                       help="backpressure bound on queued requests")
    serve.add_argument("--backend", choices=BACKENDS, default=None,
                       help="how to reopen the snapshot (default mmap: "
                            "mapped, the larger-than-RAM mode; memory = "
                            "read into RAM up front)")
    serve.add_argument("--workers", type=positive_int, default=None,
                       help="shard each micro-batch's rows over this many "
                            "worker processes that reopen the snapshot "
                            "via mmap (multi-core serving; default: "
                            "answer in-process)")
    return parser


def _add_data_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="sift10k",
                        help="catalog name (see `repro info`)")
    parser.add_argument("--n", type=positive_int, default=None,
                        help="dataset size (default: catalog default)")
    parser.add_argument("--queries", type=positive_int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fvecs", default=None,
                        help="load vectors from a .fvecs/.ivecs/.bvecs file "
                             "instead of generating synthetic data")


def _add_param_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trees", type=int, default=None, help="τ")
    parser.add_argument("--references", type=int, default=None, help="m")
    parser.add_argument("--order", type=int, default=None, help="ω")
    parser.add_argument("--alpha", type=int, default=None)
    parser.add_argument("--gamma", type=int, default=None)
    parser.add_argument("--ptolemaic", action="store_true")
    parser.add_argument("--metric", choices=("euclidean", "angular"),
                        default=None,
                        help="distance metric; angular unit-normalises the "
                             "dataset and searches by chord distance")


def _load_workload(args) -> tuple[np.ndarray, np.ndarray, object]:
    if args.fvecs:
        vectors = read_vecs(args.fvecs,
                            max_vectors=(args.n + args.queries
                                         if args.n else None))
        vectors = np.asarray(vectors, dtype=np.float64)
        n = args.n if args.n else max(1, len(vectors) - args.queries)
        data = vectors[:n]
        queries = vectors[n:n + args.queries]
        if queries.shape[0] == 0:
            queries = data[: args.queries]
        spec = None
        return data, queries, spec
    dataset = make_dataset(args.dataset, n=args.n,
                           num_queries=args.queries, seed=args.seed)
    return dataset.data, dataset.queries, dataset.spec


def _param_flag_updates(args) -> dict:
    """The HDIndexParams fields explicitly set by command-line flags —
    the single mapping shared by the recommended-params and --spec-file
    paths, so a new flag cannot apply in one and not the other."""
    updates = {}
    if getattr(args, "trees", None) is not None:
        updates["num_trees"] = args.trees
    if getattr(args, "references", None) is not None:
        updates["num_references"] = args.references
    if getattr(args, "order", None) is not None:
        updates["hilbert_order"] = args.order
    if getattr(args, "alpha", None) is not None:
        updates["alpha"] = args.alpha
    if getattr(args, "gamma", None) is not None:
        updates["gamma"] = args.gamma
    if getattr(args, "ptolemaic", False):
        updates["use_ptolemaic"] = True
    if getattr(args, "metric", None) is not None:
        updates["metric"] = args.metric
    return updates


def _params_from_args(args, data, spec) -> HDIndexParams:
    params = recommended_params(dim=data.shape[1], n=len(data),
                                seed=args.seed)
    updates = {}
    if spec is not None:
        updates["domain"] = spec.domain
    updates.update(_param_flag_updates(args))
    if updates.get("metric") == "angular":
        # Normalised vectors live in [-1, 1], not the catalog domain;
        # let the quantiser derive its grid from the data.
        updates["domain"] = None
    return dataclasses.replace(params, **updates)


def cmd_info(_args, out=sys.stdout) -> int:
    print(f"{'name':<10} {'ν':>5} {'domain':>20} {'paper n':>13} "
          f"{'default n':>10} {'τ':>3} {'ω':>3}", file=out)
    for name, spec in DATASET_CATALOG.items():
        domain = f"[{spec.low:g}, {spec.high:g}]"
        print(f"{name:<10} {spec.dim:>5} {domain:>20} "
              f"{spec.paper_size:>13,} {spec.default_size:>10,} "
              f"{spec.num_trees:>3} {spec.hilbert_order:>3}", file=out)
    print("\npaper-recommended: m=10 references, α/γ=4, page size 4096, "
          "triangular filter only", file=out)
    return 0


def _spec_from_args(args, data, dataset_spec) -> IndexSpec:
    """Synthesise the declarative :class:`IndexSpec` a ``build``
    invocation describes: the ``--spec`` file (when given) as the base,
    individual flags overriding its fields."""
    if args.spec is not None:
        with open(args.spec) as handle:
            base = IndexSpec.from_dict(json.load(handle))
        # Explicit parameter flags still win over the spec file.
        params = dataclasses.replace(base.params,
                                     **_param_flag_updates(args))
    else:
        base = IndexSpec()
        params = _params_from_args(args, data, dataset_spec)
    if args.backend is not None:
        params = dataclasses.replace(params, backend=args.backend,
                                     storage_dir=args.out)
    return IndexSpec(params=params, wal=True if args.wal else base.wal)


def cmd_build(args, out=sys.stdout) -> int:
    data, _, dataset_spec = _load_workload(args)
    metadata = None
    if args.with_labels is not None:
        metadata = [{"label": row % args.with_labels}
                    for row in range(len(data))]
    try:
        spec = _spec_from_args(args, data, dataset_spec)
        if spec.params.metric == "angular":
            from repro.distance.metrics import normalize_rows
            data = normalize_rows(data)
        index = build_index(spec, data, storage_dir=args.out,
                            metadata=metadata)
    except ValueError as error:  # e.g. an old spec file
        print(f"error: {error}", file=sys.stderr)
        return 2
    params = index.params
    print(f"built {index.name} over n={len(data)}, ν={data.shape[1]} in "
          f"{index.build_stats().time_sec:.2f}s", file=out)
    print(f"τ={params.num_trees} trees, m={params.num_references} references, "
          f"leaf orders {[tree.leaf_order for tree in index.trees]}", file=out)
    descriptors = index.total_size_bytes() - index.index_size_bytes()
    print(f"index {index.index_size_bytes():,} B + descriptors "
          f"{descriptors:,} B -> {args.out}", file=out)
    if metadata is not None:
        print(f"metadata: column 'label' in [0, {args.with_labels}) "
              f"over {len(data)} rows", file=out)
    index.close()
    return 0


def cmd_compact(args, out=sys.stdout) -> int:
    with open_index(args.index) as index:
        generation = index.compact()
        print(f"compacted {index.name} (n={index.count}) -> "
              f"generation {generation}", file=out)
    return 0


def cmd_query(args, out=sys.stdout) -> int:
    with open_index(args.index, backend=args.backend) as index:
        workload = _matching_workload(args, index)
        if workload is None:
            return 2
        data, queries = workload
        if index.params.metric == "angular":
            # The index holds unit vectors; evaluate against the same.
            from repro.distance.metrics import normalize_rows
            data = normalize_rows(data)
            queries = normalize_rows(queries)
        if args.filter is not None:
            return _query_filtered(args, index, queries, out)
        truth = GroundTruth(data, queries, max_k=args.k)
        result = evaluate_index(index, data, queries, args.k,
                                ground_truth=truth, build=False,
                                dataset_name=args.dataset,
                                batch_size=args.batch_size)
    print(format_table([result]), file=out)
    return 0


def _matching_workload(args, index):
    """``(data, queries)`` of the workload the flags describe, or None
    (reported on stderr) when its dimension is not the index's."""
    data, queries, _ = _load_workload(args)
    if data.shape[1] != index.dim:
        print(f"error: index expects ν={index.dim}, dataset has "
              f"ν={data.shape[1]}", file=sys.stderr)
        return None
    return data, queries


def _query_filtered(args, index, queries, out) -> int:
    """``repro query --filter``: filtered kNN with a parity check
    against the brute-force filter-then-scan oracle."""
    import time

    from repro.meta import predicate_from_dict

    try:
        payload = json.loads(args.filter)
    except json.JSONDecodeError as error:
        print(f"error: --filter is not valid JSON: {error}",
              file=sys.stderr)
        return 2
    try:
        predicate = predicate_from_dict(payload)
    except (TypeError, ValueError, KeyError) as error:
        print(f"error: bad predicate: {error}", file=sys.stderr)
        return 2
    if index.metadata is None:
        print("error: this index carries no metadata; rebuild with "
              "metadata (e.g. `repro build --with-labels N`)",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    if args.batch_size:
        answers = []
        for start in range(0, len(queries), args.batch_size):
            block = queries[start:start + args.batch_size]
            ids, dists = index.query_batch(block, args.k,
                                           predicate=predicate)
            answers.extend(zip(ids, dists))
    else:
        answers = [index.query(q, args.k, predicate=predicate)
                   for q in queries]
    elapsed = time.perf_counter() - started

    # Oracle: brute-force scan of the live eligible rows, as stored —
    # the base rows and the un-compacted delta rows, less deleted ids.
    from repro.distance.metrics import euclidean_to_many
    delta = index._delta
    base = np.flatnonzero(predicate.mask(index.metadata))
    tail = delta.id_range()[np.array(
        [predicate.matches(row) for row in delta.metadata_rows()],
        dtype=bool)]
    ids = np.concatenate([base, tail])
    live = ~np.isin(ids, np.fromiter(index._deleted, dtype=np.int64))
    eligible = ids[live]
    stored = np.concatenate([index.heap.gather(base), delta.gather(tail)]
                            )[live].astype(np.float64)
    selectivity = eligible.size / max(1, index.count - len(index._deleted))
    recall = float("nan")
    if eligible.size:
        hits = total = 0
        for query, (ids, _) in zip(queries, answers):
            exact = euclidean_to_many(query, stored)
            budget = min(args.k, eligible.size)
            oracle = set(
                eligible[np.argsort(exact, kind="stable")[:budget]]
                .tolist())
            hits += len(oracle.intersection(ids.tolist()))
            total += budget
        recall = hits / total if total else float("nan")
    print(f"filtered {len(queries)} queries (k={args.k}, predicate "
          f"selectivity {selectivity:.1%}, {eligible.size} eligible "
          f"rows) in {elapsed:.2f}s -> "
          f"{len(queries) / elapsed:.1f} q/s", file=out)
    print(f"recall vs brute-force filter-then-scan oracle: "
          f"{recall:.3f}", file=out)
    return 0


def cmd_serve(args, out=sys.stdout) -> int:
    import threading
    import time

    from repro.serve import QueryService

    errors: list[Exception] = []

    def client(service, workload, client_index):
        futures = []
        for i in range(client_index, len(workload), args.clients):
            try:
                futures.append(service.submit(workload[i], args.k))
            except Exception as error:  # surfaced after the run
                errors.append(error)
        for future in futures:
            try:
                future.result()
            except Exception as error:
                errors.append(error)

    with open_index(args.index, backend=args.backend) as index:
        matching = _matching_workload(args, index)
        if matching is None:
            return 2
        workload = np.tile(matching[1], (args.repeat, 1))
        with QueryService(index, max_batch=args.max_batch,
                          max_pending=args.max_pending,
                          snapshot_dir=args.index,
                          workers=args.workers) as service:
            started = time.perf_counter()
            threads = [threading.Thread(target=client,
                                        args=(service, workload, c))
                       for c in range(args.clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - started
            stats = service.stats()
    if errors:
        print(f"error: {len(errors)} queries failed "
              f"({errors[0]!r})", file=sys.stderr)
        return 1
    print(f"served {stats.queries} queries from {args.clients} clients "
          f"(workers={args.workers}) in {elapsed:.2f}s -> "
          f"{stats.queries / elapsed:.1f} q/s", file=out)
    print(f"{stats.batches} micro-batches, mean size "
          f"{stats.mean_batch_size():.1f}, max {stats.max_batch_size} "
          f"(max_batch={args.max_batch}), mean queue wait "
          f"{stats.mean_queue_wait_ms():.2f} ms", file=out)
    return 0


COMMANDS = {
    "info": cmd_info,
    "build": cmd_build,
    "compact": cmd_compact,
    "query": cmd_query,
    "serve": cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except PersistenceError as error:  # not a snapshot this release opens
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
