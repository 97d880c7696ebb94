"""Command-line interface: ``python -m repro <command>``.

Seven commands cover the library's main workflows without writing code:

* ``info``      — list dataset configurations and paper-recommended params;
* ``build``     — build the index an :class:`~repro.core.IndexSpec`
  describes (``--spec spec.json``, or synthesised from ``--shards`` /
  ``--execution`` / ``--workers`` / ``--backend`` / ``--wal`` flags) over
  a dataset (synthetic or .fvecs) and persist it to a directory;
* ``compact``   — fold an index's in-memory delta into its base: a new
  snapshot generation when a write-ahead log is attached (see
  :mod:`repro.wal`), the snapshot itself otherwise;
* ``query``     — reopen a persisted index via :func:`repro.open` and run
  a query workload against it, reporting MAP/ratio/time/I/O;
* ``serve``     — load a persisted index into a micro-batching
  :class:`~repro.serve.QueryService` and either drive it with concurrent
  client threads (default: reports throughput and batching statistics)
  or, with ``--listen HOST:PORT``, expose it over TCP through a
  :class:`~repro.serve.ServeGateway` until SIGTERM/SIGINT triggers a
  graceful drain;
* ``route``     — send a query workload through a
  :class:`~repro.serve.ReplicaRouter` over a set of running gateways,
  reporting per-replica placement, failover and latency;
* ``compare``   — run several methods on one dataset and print the
  comparison table (a Fig. 8 row group on demand).

Every flag combination is one declarative spec under the hood — the CLI
never touches the deprecated per-combination classes.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.core import (
    Execution,
    HDIndex,
    HDIndexParams,
    IndexSpec,
    Topology,
    build as build_index,
    open_index,
    recommended_params,
)
from repro.core.params import BACKENDS
from repro.datasets import DATASET_CATALOG, make_dataset, read_vecs
from repro.eval import (
    GroundTruth,
    evaluate_index,
    format_table,
    run_comparison,
)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text}")
    return value


def _host_port(text: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` listen/connect address."""
    host, separator, port_text = text.rpartition(":")
    if not separator or not host:
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"port must be an integer, got {port_text!r}") from None
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"port out of range: {port}")
    return host, port


def _endpoint_list(text: str) -> list[tuple[str, int]]:
    """Parse a comma-separated ``HOST:PORT,HOST:PORT`` replica list."""
    endpoints = [_host_port(part.strip())
                 for part in text.split(",") if part.strip()]
    if not endpoints:
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT[,HOST:PORT...], got {text!r}")
    return endpoints


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
                       help="JSON file holding a full IndexSpec (params + "
                            "topology + execution + backend); other flags "
                            "override its fields")
    build.add_argument("--shards", type=_positive_int, default=None,
                       help="shard the index over this many horizontal "
                            "partitions (IndexSpec topology)")
    build.add_argument("--execution",
                       choices=("sequential", "thread", "process"),
                       default=None,
                       help="per-tree scan execution strategy (IndexSpec "
                            "execution; default: thread when --workers is "
                            "given, else sequential)")
    build.add_argument("--workers", type=_positive_int, default=None,
                       help="pool width for --execution thread/process")
    build.add_argument("--backend", choices=BACKENDS, default=None,
                       help="storage backend; mmap writes the snapshot "
                            "files straight into --out and builds over "
                            "their mappings")
    build.add_argument("--wal", action="store_true",
                       help="make inserts/deletes durable: frame each in "
                            "a write-ahead log next to the snapshot "
                            "(without it they are volatile until "
                            "save_index / `repro compact`)")
    build.add_argument("--from-hdf5", default=None, metavar="PATH:DATASET",
                       help="stream the dataset block-wise from an HDF5 "
                            "file (e.g. ann-benchmarks corpora: "
                            "sift.hdf5:train) instead of materialising it "
                            "in RAM; needs the optional h5py dependency "
                            "and forces random reference selection")
    build.add_argument("--with-labels", type=_positive_int, default=None,
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
                              "logged updates (built with --wal, or "
                              "process execution) are replayed and "
                              "published as the next generation")

    query = commands.add_parser("query", help="query a persisted index")
    query.add_argument("--index", required=True,
                       help="directory holding a persisted index")
    _add_data_arguments(query)
    query.add_argument("-k", type=int, default=10)
    query.add_argument("--batch-size", type=_positive_int, default=None,
                       help="answer queries through the vectorized "
                            "query_batch path in chunks of this size")
    query.add_argument("--backend", choices=BACKENDS, default=None,
                       help="how to reopen the snapshot (default mmap: "
                            "mapped, the larger-than-RAM mode; memory = "
                            "read into RAM up front)")
    query.add_argument("--execution",
                       choices=("sequential", "thread", "process"),
                       default=None,
                       help="override the snapshot's execution strategy "
                            "(process = fan per-tree scans over worker "
                            "processes sharing the snapshot via mmap)")
    query.add_argument("--mode", choices=("thread", "process"), default=None,
                       help="legacy alias of --execution")
    query.add_argument("--workers", type=_positive_int, default=None,
                       help="worker count for --execution process")
    query.add_argument("--filter", default=None, metavar="JSON",
                       help="filtered kNN: a predicate in JSON form, e.g. "
                            "'{\"op\": \"eq\", \"column\": \"label\", "
                            "\"value\": 3}'; the index must carry metadata "
                            "(see `repro build --with-labels`)")

    serve = commands.add_parser(
        "serve", help="serve a persisted index to concurrent clients")
    serve.add_argument("--index", required=True,
                       help="directory holding a persisted index "
                            "(plain, parallel or sharded snapshot)")
    _add_data_arguments(serve)
    serve.add_argument("-k", type=int, default=10)
    serve.add_argument("--clients", type=_positive_int, default=4,
                       help="concurrent client threads")
    serve.add_argument("--repeat", type=_positive_int, default=1,
                       help="send the query workload this many times")
    serve.add_argument("--max-batch", type=_positive_int, default=64,
                       help="most requests one micro-batch takes")
    serve.add_argument("--max-pending", type=_positive_int, default=1024,
                       help="backpressure bound on queued requests")
    serve.add_argument("--cache", type=int, default=0,
                       help="LRU result-cache capacity (0 disables)")
    serve.add_argument("--cache-pages", type=int, default=None,
                       help="buffer-pool pages per store when loading")
    serve.add_argument("--backend", choices=BACKENDS, default=None,
                       help="how to reopen the snapshot (default mmap: "
                            "mapped, the larger-than-RAM mode; memory = "
                            "read into RAM up front)")
    serve.add_argument("--execution", choices=("thread", "process"),
                       default=None,
                       help="process = shard each micro-batch's rows over "
                            "worker processes that reopen the snapshot "
                            "via mmap (multi-core serving)")
    serve.add_argument("--mode", choices=("thread", "process"),
                       default=None,
                       help="legacy alias of --execution")
    serve.add_argument("--workers", type=_positive_int, default=None,
                       help="worker-process count for --execution process "
                            "(default: CPU count)")
    serve.add_argument("--listen", type=_host_port, default=None,
                       metavar="HOST:PORT",
                       help="serve over TCP instead of running the "
                            "built-in client workload; port 0 binds an "
                            "ephemeral port (reported on the READY "
                            "line); SIGTERM/SIGINT drain gracefully")
    serve.add_argument("--max-inflight", type=_positive_int, default=256,
                       help="gateway admission bound (--listen only)")
    serve.add_argument("--default-deadline-ms", type=float, default=None,
                       help="deadline for requests that carry none "
                            "(--listen only)")

    route = commands.add_parser(
        "route", help="query a replica set of running serve gateways")
    route.add_argument("--replicas", type=_endpoint_list, required=True,
                       metavar="HOST:PORT,HOST:PORT",
                       help="gateway endpoints (each started with "
                            "`repro serve --listen` or "
                            "`python -m repro.serve.server`)")
    _add_data_arguments(route)
    route.add_argument("-k", type=int, default=10)
    route.add_argument("--repeat", type=_positive_int, default=1,
                       help="send the query workload this many times")
    route.add_argument("--deadline-ms", type=float, default=None,
                       help="end-to-end per-query deadline; late answers "
                            "come back as DeadlineExceeded, not hangs")

    compare = commands.add_parser(
        "compare", help="compare methods on one dataset")
    _add_data_arguments(compare)
    _add_param_arguments(compare)
    compare.add_argument("-k", type=int, default=10)
    compare.add_argument("--batch-size", type=_positive_int, default=None,
                         help="run each method's workload through "
                              "query_batch in chunks of this size")
    compare.add_argument(
        "--methods", default="hdindex,linear,srs",
        help="comma list from: hdindex,linear,idistance,multicurves,"
             "c2lsh,qalsh,srs,pq,opq,hnsw,vafile,e2lsh")
    return parser


def _add_data_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="sift10k",
                        help="catalog name (see `repro info`)")
    parser.add_argument("--n", type=int, default=None,
                        help="dataset size (default: catalog default)")
    parser.add_argument("--queries", type=int, default=20)
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
    import dataclasses
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
    import dataclasses as _dc
    if args.spec is not None:
        with open(args.spec) as handle:
            base = IndexSpec.from_dict(json.load(handle))
        # Explicit parameter flags still win over the spec file.
        updates = _param_flag_updates(args)
        params = (_dc.replace(base.params, **updates) if updates
                  else base.params)
    else:
        base = IndexSpec()
        params = _params_from_args(args, data, dataset_spec)
    topology = base.topology
    if args.shards is not None:
        # replace(), not a fresh Topology: a spec file's shard_backends
        # (and future fields) survive a flag override.
        topology = _dc.replace(topology, shards=args.shards)
    execution = base.execution
    kind = args.execution
    if kind is None and args.workers is not None \
            and execution.kind == "sequential":
        kind = "thread"
    updates = {}
    if kind is not None:
        updates["kind"] = kind
    if args.workers is not None:
        updates["workers"] = args.workers
    if updates:
        # replace() keeps the spec file's worker_backend/worker_timeout.
        execution = _dc.replace(execution, **updates)
    if getattr(args, "wal", False):
        execution = _dc.replace(execution, wal=True)
    backend = args.backend if args.backend is not None else base.backend
    return IndexSpec(params=params, topology=topology,
                     execution=execution, backend=backend)


def cmd_build(args, out=sys.stdout) -> int:
    if args.from_hdf5 is not None:
        return _build_streaming(args, out)
    data, _, dataset_spec = _load_workload(args)
    spec = _spec_from_args(args, data, dataset_spec)
    if spec.params.metric == "angular":
        from repro.distance.metrics import normalize_rows
        data = normalize_rows(data)
    metadata = None
    if args.with_labels is not None:
        metadata = [{"label": row % args.with_labels}
                    for row in range(len(data))]
    index = build_index(spec, data, storage_dir=args.out,
                        metadata=metadata)
    params = index.params
    stats = index.build_stats()
    print(f"built {index.name} over n={len(data)}, ν={data.shape[1]} in "
          f"{stats.time_sec:.2f}s", file=out)
    # Branch on what the factory actually built: shard_backends forces a
    # router even at shards=1, and only routers have num_shards (the
    # plain branch reads per-tree leaf orders a router does not report).
    from repro.core import ShardRouter
    if isinstance(index, ShardRouter):
        print(f"{index.num_shards} shards x τ={params.num_trees} trees, "
              f"m={params.num_references} references "
              f"(execution={spec.execution.kind})", file=out)
    else:
        print(f"τ={params.num_trees} trees, m={params.num_references} "
              f"references, leaf orders {stats.extra['leaf_orders']} "
              f"(execution={spec.execution.kind})", file=out)
    descriptors = index.total_size_bytes() - index.index_size_bytes()
    print(f"index {index.index_size_bytes():,} B + descriptors "
          f"{descriptors:,} B -> {args.out}", file=out)
    if metadata is not None:
        print(f"metadata: column 'label' in [0, {args.with_labels}) "
              f"over {len(data)} rows", file=out)
    index.close()
    return 0


def _build_streaming(args, out) -> int:
    """``repro build --from-hdf5 PATH:DATASET``: out-of-core build."""
    from repro.datasets.loaders import hdf5_shape, iter_hdf5_chunks

    path, separator, dataset = args.from_hdf5.partition(":")
    if not separator or not path or not dataset:
        print("error: --from-hdf5 expects PATH:DATASET "
              "(e.g. sift.hdf5:train)", file=sys.stderr)
        return 2
    if args.with_labels is not None:
        print("error: --with-labels is not supported with --from-hdf5 "
              "(streaming builds carry no metadata)", file=sys.stderr)
        return 2
    try:
        total, dim = hdf5_shape(path, dataset)
    except (ImportError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    n = total if args.n is None else min(total, args.n)
    shaped = np.broadcast_to(np.empty(dim), (n, dim))  # shape, no storage
    spec = _spec_from_args(args, shaped, None)
    if spec.topology.shards > 1:
        print("error: --from-hdf5 cannot be combined with --shards "
              "(shard assignment needs the full dataset up front)",
              file=sys.stderr)
        return 2
    import dataclasses as _dc
    if spec.params.reference_method != "random":
        # Reservoir sampling is the only selection that streams.
        spec = _dc.replace(spec, params=_dc.replace(
            spec.params, reference_method="random"))
    index = build_index(
        spec, iter_hdf5_chunks(path, dataset, max_vectors=args.n),
        storage_dir=args.out)
    stats = index.build_stats()
    print(f"streamed {index.count} x ν={index.dim} vectors from "
          f"{path}:{dataset} in {stats.time_sec:.2f}s", file=out)
    print(f"τ={index.params.num_trees} trees, "
          f"m={index.params.num_references} references "
          f"(reference_method=random, metric={index.params.metric})",
          file=out)
    descriptors = index.total_size_bytes() - index.index_size_bytes()
    print(f"index {index.index_size_bytes():,} B + descriptors "
          f"{descriptors:,} B -> {args.out}", file=out)
    index.close()
    return 0


def cmd_compact(args, out=sys.stdout) -> int:
    with open_index(args.index) as index:
        generation = index.compact()
        print(f"compacted {index.name} (n={index.count}) -> "
              f"generation {generation}", file=out)
    return 0


def cmd_query(args, out=sys.stdout) -> int:
    execution = None
    if args.execution is not None:
        execution = Execution(kind=args.execution, workers=args.workers)
    elif args.mode == "process":
        # Legacy flag: --mode thread meant "as saved", only process
        # changed anything.
        execution = Execution(kind="process", workers=args.workers)
    index = open_index(args.index, backend=args.backend,
                       execution=execution)
    data, queries, _ = _load_workload(args)
    if data.shape[1] != index.dim:
        print(f"error: index expects ν={index.dim}, dataset has "
              f"ν={data.shape[1]}", file=sys.stderr)
        return 2
    if index.params.metric == "angular":
        # The index holds unit vectors; evaluate against the same.
        from repro.distance.metrics import normalize_rows
        data = normalize_rows(data)
        queries = normalize_rows(queries)
    if args.filter is not None:
        try:
            return _query_filtered(args, index, queries, out)
        finally:
            index.close()
    truth = GroundTruth(data, queries, max_k=args.k)
    result = evaluate_index(index, data, queries, args.k,
                            ground_truth=truth, build=False,
                            dataset_name=args.dataset,
                            batch_size=args.batch_size)
    print(format_table([result]), file=out)
    index.close()
    return 0


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
    stats = index.last_query_stats()
    selectivity = stats.extra.get("selectivity", float("nan"))

    # Oracle: brute-force scan of the eligible rows, as stored.
    from repro.distance.metrics import euclidean_to_many
    eligible = np.nonzero(predicate.mask(index.metadata))[0]
    recall = float("nan")
    if eligible.size:
        stored = index.heap.gather(eligible).astype(np.float64)
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

    from repro.serve import QueryService, ServiceConfig

    index = open_index(args.index, cache_pages=args.cache_pages,
                       backend=args.backend)
    config = ServiceConfig(max_batch=args.max_batch,
                           max_pending=args.max_pending,
                           cache_size=max(0, args.cache))
    dispatch = args.execution if args.execution is not None else args.mode
    service_kwargs = {}
    if dispatch == "process":
        service_kwargs = dict(
            execution=Execution(kind="process", workers=args.workers),
            snapshot_dir=args.index)
    if args.listen is not None:
        return _serve_listen(args, index, config, service_kwargs, out)
    data, queries, _ = _load_workload(args)
    if data.shape[1] != index.dim:
        print(f"error: index expects ν={index.dim}, dataset has "
              f"ν={data.shape[1]}", file=sys.stderr)
        index.close()
        return 2
    workload = np.tile(queries, (args.repeat, 1))
    errors: list[Exception] = []

    def client(service, client_index):
        futures = [service.submit(workload[i], args.k)
                   for i in range(client_index, len(workload), args.clients)]
        for future in futures:
            try:
                future.result()
            except Exception as error:  # surfaced after the run
                errors.append(error)

    with QueryService(index, config, **service_kwargs) as service:
        started = time.perf_counter()
        threads = [threading.Thread(target=client, args=(service, c))
                   for c in range(args.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        stats = service.stats()
    index.close()
    if errors:
        print(f"error: {len(errors)} queries failed "
              f"({errors[0]!r})", file=sys.stderr)
        return 1
    print(f"served {stats.queries} queries from {args.clients} clients "
          f"(execution={dispatch or 'thread'}) in {elapsed:.2f}s -> "
          f"{stats.queries / elapsed:.1f} q/s", file=out)
    print(f"{stats.batches} micro-batches, mean size "
          f"{stats.mean_batch_size():.1f}, max {stats.max_batch_size} "
          f"(max_batch={args.max_batch}), mean queue wait "
          f"{stats.mean_queue_wait_ms():.2f} ms", file=out)
    if config.cache_size:
        print(f"result cache: {stats.cache_hits} hits / "
              f"{stats.cache_misses} misses", file=out)
    return 0


def _serve_listen(args, index, config, service_kwargs, out) -> int:
    """``repro serve --listen``: run a TCP gateway until a signal.

    SIGTERM/SIGINT trigger the graceful path: admission stops, in-flight
    and queued requests are answered, then the service closes its worker
    pool (``QueryService.stop(drain=True)``) before the process exits.
    """
    import asyncio

    from repro.serve import GatewayConfig, QueryService
    from repro.serve.server import run_server

    host, port = args.listen
    gateway_config = GatewayConfig(
        host=host, port=port, max_inflight=args.max_inflight,
        default_deadline_ms=args.default_deadline_ms)
    service = QueryService(index, config, **service_kwargs)
    try:
        asyncio.run(run_server(service, gateway_config, ready_stream=out))
    except KeyboardInterrupt:
        # Signal handler unavailable (non-main thread): the drain still
        # ran in run_server's finally before the interrupt propagated.
        pass
    finally:
        index.close()
    print("drained and stopped", file=out)
    return 0


def cmd_route(args, out=sys.stdout) -> int:
    import asyncio
    import time

    from repro.serve import ReplicaRouter

    _, queries, _ = _load_workload(args)
    workload = np.tile(queries, (args.repeat, 1))

    async def run():
        router = ReplicaRouter(args.replicas)
        try:
            started = time.perf_counter()
            results = await router.query_many(
                workload, args.k, deadline_ms=args.deadline_ms)
            elapsed = time.perf_counter() - started
            return results, elapsed, router.counters
        finally:
            await router.close()

    results, elapsed, counters = asyncio.run(run())
    failures = [r for r in results if isinstance(r, BaseException)]
    answered = len(results) - len(failures)
    print(f"routed {len(results)} queries over {len(args.replicas)} "
          f"replicas in {elapsed:.2f}s -> "
          f"{len(results) / elapsed:.1f} q/s", file=out)
    print(f"answered {answered}, failed {len(failures)}, "
          f"failovers {counters['failovers']}", file=out)
    if failures:
        print(f"error: first failure: {failures[0]!r}", file=sys.stderr)
        return 1
    return 0


def cmd_compare(args, out=sys.stdout) -> int:
    from repro.baselines import (
        C2LSH,
        E2LSH,
        HNSW,
        IDistance,
        LinearScan,
        Multicurves,
        OPQIndex,
        PQIndex,
        QALSH,
        SRS,
        VAFile,
    )
    data, queries, spec = _load_workload(args)
    if args.metric == "angular":
        # Normalised corpus: every method then ranks by angle (euclidean
        # order on unit vectors == chord order), keeping the table
        # apples-to-apples.
        from repro.distance.metrics import normalize_rows
        data = normalize_rows(data)
        queries = normalize_rows(queries)
    domain = spec.domain if spec is not None else None
    if args.metric == "angular":
        domain = None  # unit vectors live in [-1, 1], not the catalog's
    n = len(data)
    available = {
        "hdindex": lambda: HDIndex(_params_from_args(args, data, spec)),
        "linear": LinearScan,
        "idistance": lambda: IDistance(num_partitions=min(24, n)),
        "multicurves": lambda: Multicurves(
            num_curves=8, alpha=max(64, n // 8), domain=domain),
        "c2lsh": lambda: C2LSH(max_functions=64),
        "qalsh": lambda: QALSH(max_functions=32),
        "srs": SRS,
        "pq": lambda: PQIndex(num_subspaces=8,
                              num_centroids=min(64, max(2, n // 8))),
        "opq": lambda: OPQIndex(num_subspaces=8,
                                num_centroids=min(64, max(2, n // 8)),
                                opq_iterations=3),
        "hnsw": lambda: HNSW(M=10, ef_construction=60, ef_search=60),
        "vafile": VAFile,
        "e2lsh": E2LSH,
    }
    chosen = {}
    for name in args.methods.split(","):
        name = name.strip().lower()
        if name not in available:
            print(f"error: unknown method {name!r}; choose from "
                  f"{', '.join(sorted(available))}", file=sys.stderr)
            return 2
        chosen[name] = available[name]
    results = run_comparison(chosen, data, queries, args.k,
                             dataset_name=args.dataset,
                             batch_size=args.batch_size)
    print(format_table(results), file=out)
    return 0


COMMANDS = {
    "info": cmd_info,
    "build": cmd_build,
    "compact": cmd_compact,
    "query": cmd_query,
    "serve": cmd_serve,
    "route": cmd_route,
    "compare": cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
