"""Page size, the storage error, and snapshot-file replacement and reads.

Everything this reproduction persists is counted in fixed-size pages of
``DEFAULT_PAGE_SIZE`` bytes, the 4 KB page the paper's C++
implementation reads.  No structure here holds pages: the descriptor
heap is one page matrix (:mod:`repro.storage.vectors`) and every B+-tree
is two sorted columns (:mod:`repro.btree.packed`), whose page reads are
counted by :class:`~repro.storage.stats.IOStats`, so the paper's
disk-access analysis is reproduced without physical disk latency.
"""

from __future__ import annotations

import os

import numpy as np

#: Disk page size used throughout the paper's evaluation (Sec. 5).
DEFAULT_PAGE_SIZE = 4096


class StorageError(RuntimeError):
    """Raised for invalid page-file operations (bad id, closed heap...)."""


def replace_file(path: str | os.PathLike[str], data) -> None:
    """Atomically put ``data`` (text, or anything bytes-like) at ``path``
    (write ``<path>.tmp``, fsync, ``os.replace``).  For every snapshot file this process or a worker
    pool may have mapped: a mapping of the old file keeps its complete
    bytes (truncating in place would pull them from under it), and a
    crash leaves the old file or the new one, never a torn one."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "w" if isinstance(data, str) else "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def read_file(path: str | os.PathLike[str], mapped: bool) -> np.ndarray:
    """A snapshot file's bytes: a read-only mapping when ``mapped`` (worker
    processes opening one snapshot then share its physical pages), else
    read into RAM."""
    if mapped:
        return np.memmap(path, dtype=np.uint8, mode="r")
    return np.fromfile(path, dtype=np.uint8)
