"""Scale-out walkthrough: persistence, parallel queries, sharding.

Run with::

    python examples/scale_out.py

Demonstrates the three deployment extensions the paper sketches in
Sec. 5.2.8 and Sec. 6 ("our method can be easily parallelized and/or
distributed with little synchronization"), each declared as one
:class:`repro.IndexSpec` instead of a dedicated class:

1. **Persistence** — ``repro.build(spec, data, storage_dir=...)`` once,
   then ``repro.open`` elsewhere and query without ever holding the
   dataset in RAM;
2. **Parallel querying** — ``QueryService.from_snapshot(...,
   execution=Execution(kind="process", workers=2))`` serves step 1's
   snapshot with each micro-batch's rows sharded over worker processes
   that map it, bit-identical results;
3. **Sharding** — ``IndexSpec(shards=4)`` puts horizontal partitions
   behind independent HD-Index instances, merged by exact distance (the
   only synchronisation point).
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

import repro
import repro.core
from repro import (
    Execution,
    HDIndexParams,
    IndexSpec,
    QueryService,
    make_dataset,
)


def main() -> None:
    dataset = make_dataset("sift10k", n=4_000, num_queries=10, seed=21)
    params = HDIndexParams(num_trees=8, alpha=256, gamma=64,
                           domain=dataset.spec.domain)

    # --- 1. persistence -------------------------------------------------
    index = repro.build(IndexSpec(params=params), dataset.data)
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "hd-index"
        repro.core.save_index(index, target)
        files = sorted(p.name for p in target.iterdir())
        print(f"persisted index: {files}")
        reopened = repro.open(target)
        ids_a, _ = index.query(dataset.queries[0], 10)
        ids_b, _ = reopened.query(dataset.queries[0], 10)
        print(f"reopened index answers identically: "
              f"{np.array_equal(ids_a, ids_b)}")
        reopened.close()

        # --- 2. parallel queries ----------------------------------------
        # The workers reopen the snapshot themselves (mapped, so they
        # share its pages); nothing is pickled across to them.
        with QueryService.from_snapshot(target, execution=Execution(
                kind="process", workers=2)) as parallel:
            futures = [parallel.submit(q, 10) for q in dataset.queries]
            agree = all(
                np.array_equal(index.query(q, 10)[0], future.result()[0])
                for q, future in zip(dataset.queries, futures))
            print(f"\nprocess-parallel (2 workers) matches sequential on "
                  f"all {len(dataset.queries)} queries: {agree}")

    # --- 3. sharding ------------------------------------------------------
    started = time.perf_counter()
    sharded = repro.build(IndexSpec(params=params, shards=4), dataset.data)
    print(f"\nsharded build (4 shards): {time.perf_counter() - started:.2f}s,"
          f" per-machine build RAM "
          f"{sharded.build_memory_bytes() / 1024:.0f} KB")
    ids, dists = sharded.query(dataset.queries[0], 10)
    print(f"sharded top-10 global ids: {ids.tolist()}")
    stats = sharded.last_query_stats()
    print(f"fan-out over {stats.extra['shards']} shards, "
          f"{stats.page_reads} total page reads")
    new_id = sharded.insert(dataset.queries[0])
    found, _ = sharded.query(dataset.queries[0], 1)
    print(f"insert routed to least-loaded shard -> global id {new_id}, "
          f"retrieved: {found[0] == new_id}")


if __name__ == "__main__":
    main()
