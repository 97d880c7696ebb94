"""Disk residence and I/O accounting walkthrough.

Run with::

    python examples/disk_resident.py

Demonstrates the substrate the whole reproduction stands on:

* vectors living in a real page file (``VectorHeapFile(path=...)``: whole
  4 KB pages, mapped read-only, grown by appending);
* per-query disk-access counting, split into random vs sequential reads
  (the quantity Sec. 4.4.1 analyses: O(τ·(log n + α/Ω + γ))), every read
  counted as with the paper's caching off;
* the ``backend="mmap"`` tier (what a ``storage_dir`` gives by default):
  byte-identical answers and identical counted I/O, with snapshot reopen
  in O(metadata) — the larger-than-RAM serving mode.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import HDIndex, HDIndexParams, make_dataset
from repro.core import load_index, save_index
from repro.storage import VectorHeapFile


def main() -> None:
    dataset = make_dataset("sift10k", n=2_000, num_queries=10, seed=9)

    # --- 1. descriptors in a real file ------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "descriptors.pages"
        heap = VectorHeapFile(dim=dataset.dim, dtype=np.float32, path=path)
        heap.append_batch(dataset.data)
        print(f"descriptor file: {path.name}, "
              f"{len(heap.page_matrix())} pages × {heap.page_size} B "
              f"= {heap.size_bytes() / 1024:.0f} KB on disk")
        vector = heap.fetch(1234)
        print(f"fetch(1234): 1 random page read, "
              f"first values {np.round(vector[:4], 1).tolist()}")
        heap.close()

    # --- 2. I/O accounting per query --------------------------------------
    index = HDIndex(HDIndexParams(num_trees=8, alpha=256, gamma=64,
                                  domain=dataset.spec.domain))
    index.build(dataset.data)
    print("\nper-query disk accesses (every read counted, the paper's "
          "caching-off setting):")
    print(f"{'query':>6} {'total':>6} {'random':>7} {'sequential':>11} "
          f"{'κ candidates':>13}")
    for row, query in enumerate(dataset.queries[:5]):
        index.query(query, 10)
        stats = index.last_query_stats()
        print(f"{row:>6} {stats.page_reads:>6} {stats.random_reads:>7} "
              f"{stats.sequential_reads:>11} {stats.candidates:>13}")

    # --- 3. the mmap backend ------------------------------------------------
    # The heap's page matrix and the trees' columns are read-only mappings
    # of their files (the OS page cache does the buffering; resident
    # memory is what queries touch) — the backend for serving snapshots
    # larger than RAM.  The refinement stage's κ descriptor fetches are
    # one vectorised gather here exactly as in memory.
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = Path(tmp) / "snapshot"
        disk = HDIndex(HDIndexParams(num_trees=8, alpha=256, gamma=64,
                                     domain=dataset.spec.domain,
                                     storage_dir=str(snapshot),
                                     backend="mmap"))
        disk.build(dataset.data)
        save_index(disk, snapshot)     # pages already in place: metadata only
        expected = [disk.query(q, 10)[0] for q in dataset.queries[:5]]
        disk.close()

        started = time.perf_counter()
        mapped = load_index(snapshot, backend="mmap")
        reopen_mmap = time.perf_counter() - started
        started = time.perf_counter()
        materialised = load_index(snapshot, backend="memory")
        reopen_memory = time.perf_counter() - started

        agree = all(
            np.array_equal(mapped.query(q, 10)[0], expected[row])
            and np.array_equal(materialised.query(q, 10)[0], expected[row])
            for row, q in enumerate(dataset.queries[:5]))
        print(f"\nmmap backend: cold reopen {reopen_mmap * 1e3:.1f} ms "
              f"(O(metadata)) vs full materialisation "
              f"{reopen_memory * 1e3:.1f} ms (O(index size))")
        print(f"answers byte-identical across backends: {agree}")
        mapped.close()
        materialised.close()


if __name__ == "__main__":
    main()
