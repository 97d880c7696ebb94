"""Readers/writers for the texmex vector formats (fvecs / ivecs / bvecs).

The paper's SIFT corpora [1] ship in these formats.  If a user has the real
files, these loaders let the whole harness run on them unchanged; the
writers exist so tests can round-trip and so synthetic datasets can be
exported for use with other tools.

Format: each vector is ``<int32 dim><dim × element>`` with element type
float32 (fvecs), int32 (ivecs) or uint8 (bvecs).
"""

from __future__ import annotations

import os

import numpy as np

_ELEMENT_DTYPES = {
    ".fvecs": np.dtype("<f4"),
    ".ivecs": np.dtype("<i4"),
    ".bvecs": np.dtype("<u1"),
}


def read_vecs(path: str | os.PathLike[str],
              max_vectors: int | None = None) -> np.ndarray:
    """Read a .fvecs/.ivecs/.bvecs file into an (n, dim) array."""
    path = os.fspath(path)
    extension = os.path.splitext(path)[1]
    if extension not in _ELEMENT_DTYPES:
        raise ValueError(f"unsupported vector file extension {extension!r}")
    element = _ELEMENT_DTYPES[extension]
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size == 0:
        return np.empty((0, 0), dtype=element)
    dim = int(np.frombuffer(raw[:4].tobytes(), dtype="<i4")[0])
    if dim <= 0:
        raise ValueError(f"corrupt vector file {path}: dim={dim}")
    record = 4 + dim * element.itemsize
    if raw.size % record != 0:
        raise ValueError(
            f"corrupt vector file {path}: {raw.size} bytes is not a whole "
            f"number of {record}-byte records")
    count = raw.size // record
    if max_vectors is not None:
        count = min(count, max_vectors)
    rows = raw[: count * record].reshape(count, record)
    dims = rows[:, :4].copy().view("<i4").ravel()
    if not np.all(dims == dim):
        raise ValueError(f"corrupt vector file {path}: varying dimensions")
    body = rows[:, 4:].copy().view(element)
    return np.ascontiguousarray(body.reshape(count, dim))


def write_vecs(path: str | os.PathLike[str], vectors: np.ndarray) -> None:
    """Write an (n, dim) array in the format implied by the extension."""
    path = os.fspath(path)
    extension = os.path.splitext(path)[1]
    if extension not in _ELEMENT_DTYPES:
        raise ValueError(f"unsupported vector file extension {extension!r}")
    element = _ELEMENT_DTYPES[extension]
    vectors = np.asarray(vectors)
    if vectors.ndim != 2:
        raise ValueError(f"expected 2-D array, got shape {vectors.shape}")
    n, dim = vectors.shape
    body = np.ascontiguousarray(vectors, dtype=element)
    header = np.full(n, dim, dtype="<i4")
    with open(path, "wb") as handle:
        for row in range(n):
            handle.write(header[row:row + 1].tobytes())
            handle.write(body[row].tobytes())


read_fvecs = read_vecs
read_ivecs = read_vecs
read_bvecs = read_vecs
