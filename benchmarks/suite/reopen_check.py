"""Fresh-process half of ``ingest_mixed_10k``'s durability check.

``python3 reopen_check.py ROOT EXPECT.npz`` (``PYTHONPATH`` naming the
program) reopens the directory the workload wrote — replaying whatever
is still in the log — and queries each recorded vector: an acknowledged
insert must come back first at distance 0, a deleted id must not come
back at all.  Prints ``{"checked", "failed", "open_s"}``.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np


def main(root: str, expect_path: str) -> int:
    import repro
    expect = np.load(expect_path)
    deleted = set(expect["deleted"].tolist())
    started = time.perf_counter()
    index = repro.open(root, backend="mmap")
    open_s = time.perf_counter() - started
    failed = 0
    try:
        for object_id, vector in zip(expect["ids"].tolist(),
                                     expect["vectors"]):
            ids, dists = index.query(vector, 10)
            if object_id in deleted:
                failed += object_id in ids.tolist()
            else:
                failed += not (ids[0] == object_id and dists[0] == 0.0)
    finally:
        index.close()
    print(json.dumps({"checked": len(expect["ids"]), "failed": int(failed),
                      "open_s": open_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
