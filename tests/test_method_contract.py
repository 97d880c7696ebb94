"""The method contract: ``KNNIndex.build``, ``query`` and
``query_batch`` check every call the same way for HD-Index and every
baseline.

A baseline implements only ``_build`` and ``_search`` (HD-Index
``_build`` and ``_search_batch``); the base refuses a query on an
unbuilt index, a ``k`` below 1, a point of the wrong length or with a
non-finite value, and build data that is not a non-empty 2-D array of
finite values — each promptly and through both entries, so no method
can broadcast a short point, answer with NaN distances or loop on one.
A build starts from nothing: a rebuild answers and counts as a fresh
build does, whatever updates the earlier build took.
"""

import threading

import numpy as np
import pytest

from repro.baselines import (
    C2LSH,
    HNSW,
    QALSH,
    SRS,
    IDistance,
    LinearScan,
    Multicurves,
    MulticurvesUnsupportedError,
    OPQIndex,
    PQIndex,
)
from repro.core import HDIndex, HDIndexParams
from repro.core.interface import KNNIndex

DIM = 16

METHODS = {
    "HDIndex": lambda: HDIndex(HDIndexParams(
        num_trees=4, num_references=4, alpha=32, gamma=8,
        domain=(0.0, 100.0), seed=0)),
    "C2LSH": lambda: C2LSH(max_functions=32, seed=0),
    "HNSW": lambda: HNSW(M=6, ef_construction=20, ef_search=20, seed=0),
    "IDistance": lambda: IDistance(num_partitions=8, seed=0),
    "LinearScan": LinearScan,
    "Multicurves": lambda: Multicurves(num_curves=4, alpha=64,
                                       domain=(0.0, 100.0)),
    "PQIndex": lambda: PQIndex(num_subspaces=4, num_centroids=16,
                               rerank_factor=4, seed=0),
    "OPQIndex": lambda: OPQIndex(num_subspaces=4, num_centroids=16,
                                 rerank_factor=4, opq_iterations=2, seed=0),
    "QALSH": lambda: QALSH(max_functions=16, seed=0),
    "SRS": lambda: SRS(max_fraction=0.1, seed=0),
}

BAD_POINTS = {
    "one_element": np.zeros(1),
    "one_too_many": np.full(DIM + 1, 50.0),
    "nan": np.where(np.arange(DIM) == 3, np.nan, 50.0),
    "inf": np.where(np.arange(DIM) == 3, np.inf, 50.0),
    "minus_inf": np.where(np.arange(DIM) == 3, -np.inf, 50.0),
}


def clustered_rows():
    """200 points in four clusters of ``DIM`` dimensions in [0, 100]."""
    rng = np.random.default_rng(5)
    centers = rng.uniform(0.0, 100.0, size=(4, DIM))
    return np.clip(np.vstack([
        center + rng.normal(0.0, 3.0, size=(50, DIM)) for center in centers]),
        0.0, 100.0)


@pytest.fixture(scope="module")
def data():
    return clustered_rows()


#: One call through each entry: ``query`` of a point, ``query_batch`` of
#: it as a one-row batch, and ``query_batch`` of no rows.
ENTRIES = {
    "query": lambda index, point, k: index.query(point, k),
    "query_batch": lambda index, point, k: index.query_batch(
        point[None, :], k),
    "query_batch_empty": lambda index, point, k: index.query_batch(
        np.empty((0, point.size)), k),
}


@pytest.fixture(scope="module")
def built(data):
    indexes = {}
    for name, factory in METHODS.items():
        indexes[name] = factory()
        indexes[name].build(data)
    return indexes


def raised_within_a_second(call):
    """What ``call`` raised (``None`` if nothing), failing the test if it
    runs for over a second; a call that loops is left to its daemon
    thread."""
    outcome = []

    def target():
        try:
            call()
        except Exception as error:  # reported to the caller
            outcome.append(error)
        else:
            outcome.append(None)

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(1.0)
    assert not worker.is_alive(), "the call ran for over a second"
    return outcome[0]


@pytest.mark.parametrize("name", METHODS)
@pytest.mark.parametrize("method", ["build", "_timed_build", "query",
                                    "query_batch", "_require_built"])
def test_only_the_base_defines_the_contract(name, method):
    """HD-Index's ``build`` and ``query_batch`` are the base's functions,
    named in its class dict for the benchmark tracer."""
    base = vars(KNNIndex)[method]
    for klass in type(METHODS[name]()).__mro__:
        if klass is not KNNIndex:
            assert vars(klass).get(method, base) is base, klass.__name__


def own_updates(index, rows):
    """The updates a method takes between builds: HD-Index inserts and
    deletes, HNSW adds; the other methods take none."""
    if isinstance(index, HDIndex):
        index.insert(rows[0])
        index.delete(5)
    elif isinstance(index, HNSW):
        index.add(rows[0])


@pytest.mark.parametrize("name", METHODS)
def test_a_rebuild_is_a_fresh_build(name):
    """``build(a)``, the method's own updates, then ``build(b)`` answers
    and counts page writes as a fresh ``build(b)`` does: no tombstone,
    delta or random state of the first build survives."""
    rng = np.random.default_rng(8)
    first = rng.uniform(0.0, 100.0, size=(300, DIM))
    second = rng.uniform(0.0, 100.0, size=(200, DIM))
    rebuilt, fresh = METHODS[name](), METHODS[name]()
    rebuilt.build(first)
    own_updates(rebuilt, second)
    rebuilt.build(second)
    fresh.build(second)
    got, want = (index.query_batch(second[:50], 10)
                 for index in (rebuilt, fresh))
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert rebuilt.build_stats().page_writes == \
        fresh.build_stats().page_writes


@pytest.mark.parametrize("name", METHODS)
@pytest.mark.parametrize("entry", ENTRIES)
def test_query_before_build_rejected(name, entry):
    with pytest.raises(RuntimeError, match="not been built"):
        ENTRIES[entry](METHODS[name](), np.full(DIM, 50.0), 1)


@pytest.mark.parametrize("name", METHODS)
@pytest.mark.parametrize("entry", ENTRIES)
def test_k_zero_rejected(built, data, name, entry):
    with pytest.raises(ValueError, match="k must be >= 1"):
        ENTRIES[entry](built[name], data[0], 0)


@pytest.mark.parametrize("name", METHODS)
@pytest.mark.parametrize("entry", ["query", "query_batch"])
@pytest.mark.parametrize("point", BAD_POINTS)
def test_malformed_point_rejected_promptly(built, name, entry, point):
    error = raised_within_a_second(
        lambda: ENTRIES[entry](built[name], BAD_POINTS[point], 5))
    assert isinstance(error, ValueError), error


@pytest.mark.parametrize("name", METHODS)
def test_batch_with_a_nan_row_rejected_promptly(built, data, name):
    rows = data[:3].copy()
    rows[1, 3] = np.nan
    error = raised_within_a_second(lambda: built[name].query_batch(rows, 5))
    assert isinstance(error, ValueError), error


@pytest.mark.parametrize("name", METHODS)
@pytest.mark.parametrize("bad", ["one_dimensional", "empty", "nan"])
def test_malformed_data_rejected(data, name, bad):
    rows = {"one_dimensional": data[0],
            "empty": data[:0],
            "nan": np.where(np.arange(DIM) == 3, np.nan, data)}[bad]
    index = METHODS[name]()
    with pytest.raises(ValueError):
        index.build(rows)
    with pytest.raises(RuntimeError, match="not been built"):
        index.query(data[0], 1)


FAILED_REBUILDS = {
    # No leaf holds one descriptor.
    "Multicurves": (lambda: Multicurves(num_curves=4, alpha=64),
                    np.zeros((10, 1200)), MulticurvesUnsupportedError),
    # Three rows cannot hold num_references=4 reference objects.
    "HDIndex": (METHODS["HDIndex"], np.arange(48.0).reshape(3, DIM),
                ValueError),
}


@pytest.mark.parametrize("name", FAILED_REBUILDS)
def test_failed_rebuild_leaves_the_index_unbuilt(data, name):
    factory, rows, error = FAILED_REBUILDS[name]
    index = factory()
    index.build(data)
    with pytest.raises(error):
        index.build(rows)
    with pytest.raises(RuntimeError, match="not been built"):
        index.query(data[0], 1)
