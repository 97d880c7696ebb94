"""Serving walkthrough: snapshot a sharded index, reopen it, serve traffic.

Run with::

    python examples/serve_snapshot.py

The ROADMAP's deployment story in three steps:

1. **Build offline** — ``repro.build`` an
   ``IndexSpec(topology=Topology(shards=2))`` and persist the whole
   snapshot (``manifest.json`` + one ``shard_<s>/`` directory per shard);
2. **Reopen online** — ``repro.open(..., backend="mmap")`` maps the page
   files zero-copy: the reopen is O(metadata) and the OS page cache keeps
   only the hot fraction resident, so the snapshot may exceed RAM;
3. **Serve** — a :class:`QueryService` coalesces single-query submissions
   from concurrent client threads into micro-batches for the vectorised
   ``query_batch`` engine path, with an LRU result cache in front.
"""

from __future__ import annotations

import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import repro
from repro import (
    HDIndexParams,
    IndexSpec,
    QueryService,
    Topology,
    make_dataset,
)

NUM_CLIENTS = 4
K = 10


def main() -> None:
    dataset = make_dataset("sift10k", n=4_000, num_queries=64, seed=7)
    params = HDIndexParams(num_trees=8, alpha=256, gamma=64,
                           domain=dataset.spec.domain)

    with tempfile.TemporaryDirectory() as tmp:
        snapshot = Path(tmp) / "snapshot"

        # --- 1. build offline, snapshot ---------------------------------
        index = repro.build(IndexSpec(params=params,
                                      topology=Topology(shards=2)),
                            dataset.data, storage_dir=snapshot)
        expected = [index.query(q, K)[0] for q in dataset.queries]
        index.close()
        layout = sorted(p.name for p in snapshot.iterdir())
        print(f"snapshot layout: {layout}")

        # --- 2. reopen online (zero-copy mmap backend) -------------------
        started = time.perf_counter()
        reopened = repro.open(snapshot, backend="mmap")
        reopen_ms = (time.perf_counter() - started) * 1e3
        print(f"reopened a {type(reopened).__name__} with "
              f"{reopened.num_shards} shards, {reopened.count} objects "
              f"via backend='mmap' in {reopen_ms:.1f} ms (O(metadata): "
              f"no page is read until queried)")

        # --- 3. serve concurrent clients --------------------------------
        results: list = [None] * len(dataset.queries)
        with QueryService(reopened, max_batch=32, cache_size=256) as service:
            def client(client_index: int) -> None:
                for i in range(client_index, len(dataset.queries),
                               NUM_CLIENTS):
                    results[i] = service.query(dataset.queries[i], K)

            started = time.perf_counter()
            threads = [threading.Thread(target=client, args=(c,))
                       for c in range(NUM_CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            # A second, warm pass: the LRU cache absorbs repeats.
            for query in dataset.queries:
                service.query(query, K)
            elapsed = time.perf_counter() - started
            stats = service.stats()
        reopened.close()

        agree = all(np.array_equal(results[i][0], expected[i])
                    for i in range(len(dataset.queries)))
        print(f"\nserved {stats.queries} queries from {NUM_CLIENTS} client "
              f"threads in {elapsed:.2f}s "
              f"({stats.queries / elapsed:.0f} q/s)")
        print(f"micro-batches: {stats.batches}, mean size "
              f"{stats.mean_batch_size():.1f}, max {stats.max_batch_size}, "
              f"mean queue wait {stats.mean_queue_wait_ms():.2f} ms")
        print(f"result cache: {stats.cache_hits} hits / "
              f"{stats.cache_misses} misses")
        print(f"answers identical to the pre-snapshot index: {agree}")


if __name__ == "__main__":
    main()
