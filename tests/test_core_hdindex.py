"""Integration tests for the full HD-Index (Algo. 1 + Algo. 2)."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from repro.core import HDIndex, HDIndexParams, load_index, save_index
from repro.datasets import make_dataset
from repro.eval import exact_knn, mean_average_precision
from repro.storage import unpack_arrays
from test_core_rdbtree import write_legacy_tree
from test_storage_heap_parity import write_parent_heap


def small_params(**overrides):
    defaults = dict(num_trees=4, hilbert_order=8, num_references=5,
                    alpha=128, gamma=32, domain=(0.0, 100.0), seed=0)
    defaults.update(overrides)
    return HDIndexParams(**defaults)


@pytest.fixture(scope="module")
def built_index(tiny_clustered_module):
    data, queries = tiny_clustered_module
    index = HDIndex(small_params())
    index.build(data)
    return index, data, queries


@pytest.fixture(scope="module")
def tiny_clustered_module():
    rng = np.random.default_rng(77)
    centers = rng.uniform(0.0, 100.0, size=(6, 16))
    data = np.vstack([
        center + rng.normal(0.0, 3.0, size=(60, 16)) for center in centers])
    queries = data[rng.choice(len(data), 8, replace=False)] \
        + rng.normal(0.0, 0.5, size=(8, 16))
    return np.clip(data, 0.0, 100.0), np.clip(queries, 0.0, 100.0)


class TestBuild:
    def test_structure_counts(self, built_index):
        index, data, _ = built_index
        assert len(index.trees) == 4
        assert all(len(tree) == len(data) for tree in index.trees)
        assert index.count == len(data)

    def test_build_stats_populated(self, built_index):
        index, _, _ = built_index
        stats = index.build_stats()
        assert stats.time_sec > 0
        assert stats.page_writes > 0
        assert stats.peak_memory_bytes > 0
        assert len(index.trees) == 4
        assert all(tree.leaf_order >= 1 for tree in index.trees)

    def test_index_size_is_sum_of_trees(self, built_index):
        index, _, _ = built_index
        assert index.index_size_bytes() == sum(
            t.size_bytes() for t in index.trees)
        assert index.total_size_bytes() > index.index_size_bytes()

    def test_too_many_trees_rejected(self):
        index = HDIndex(small_params(num_trees=64))
        with pytest.raises(ValueError):
            index.build(np.zeros((10, 8)))

    def test_empty_data_rejected(self):
        index = HDIndex(small_params())
        with pytest.raises(ValueError):
            index.build(np.zeros((0, 16)))

    def test_non_2d_rejected(self):
        index = HDIndex(small_params())
        with pytest.raises(ValueError):
            index.build(np.zeros(16))

    def test_random_partition_scheme_builds(self, tiny_clustered_module):
        data, queries = tiny_clustered_module
        index = HDIndex(small_params(partition_scheme="random"))
        index.build(data)
        ids, _ = index.query(queries[0], 5)
        assert len(ids) == 5


class TestQuery:
    def test_returns_k_sorted_results(self, built_index):
        index, data, queries = built_index
        ids, dists = index.query(queries[0], 10)
        assert len(ids) == 10
        assert np.all(np.diff(dists) >= 0)
        assert len(set(ids.tolist())) == 10

    def test_high_recall_on_clustered_data(self, built_index):
        index, data, queries = built_index
        k = 10
        true_ids, _ = exact_knn(data, queries, k)
        results = [index.query(q, k)[0] for q in queries]
        score = mean_average_precision(list(true_ids), results, k)
        assert score > 0.8, f"MAP@10 too low: {score}"

    def test_query_on_database_point_finds_itself(self, built_index):
        index, data, _ = built_index
        ids, dists = index.query(data[17], 1)
        assert ids[0] == 17
        assert dists[0] < 1e-3   # float32 storage round-off only

    def test_ptolemaic_path(self, built_index):
        index, data, queries = built_index
        ids_tri, _ = index.query(queries[0], 5, use_ptolemaic=False)
        ids_ptol, _ = index.query(queries[0], 5, use_ptolemaic=True)
        assert len(ids_ptol) == 5
        stats = index.last_query_stats()
        assert stats.extra["ptolemaic"] is True

    def test_per_call_ptolemaic_keeps_the_default_beta(self):
        """On an index built without the Ptolemaic filter, a call that
        asks for it gets the default β = α/2, not β collapsed onto γ:
        the same answers as passing that β explicitly, and a re-rank
        set other than the triangular-only call's."""
        ds = make_dataset("sift10k", n=5000, num_queries=20, seed=0)
        index = HDIndex(HDIndexParams(alpha=512, domain=ds.spec.domain))
        index.build(ds.data)
        kappas = set()
        for query in ds.queries:
            want = index.query(query, 10, beta=256, use_ptolemaic=True)
            got = index.query(query, 10, use_ptolemaic=True)
            stats = index.last_query_stats()
            assert (stats.extra["alpha"], stats.extra["beta"],
                    stats.extra["gamma"]) == (512, 256, 128)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
            index.query(query, 10)
            triangular = index.last_query_stats()
            assert triangular.extra["beta"] == 128
            kappas.add((stats.candidates, triangular.candidates))
        assert any(ptolemaic != alone for ptolemaic, alone in kappas)
        index.close()

    def test_explicit_gamma_above_the_built_gamma_runs(self):
        """On an ``alpha=512, gamma=128`` build without the Ptolemaic
        filter a triangular-only ``gamma=256`` runs γ = 256 (it ran the
        built 128 while β collapsed onto γ before the call's γ was
        taken)."""
        ds = make_dataset("sift10k", n=2000, num_queries=3, seed=0)
        index = HDIndex(HDIndexParams(alpha=512, gamma=128,
                                      domain=ds.spec.domain))
        index.build(ds.data)
        for query in ds.queries:
            index.query(query, 10, gamma=256)
            extra = index.last_query_stats().extra
            assert (extra["alpha"], extra["beta"], extra["gamma"]) \
                == (512, 256, 256)
        index.close()

    def test_overrides_change_candidate_counts(self, built_index):
        index, _, queries = built_index
        index.query(queries[0], 5, alpha=16, gamma=8)
        small = index.last_query_stats()
        index.query(queries[0], 5, alpha=256, gamma=128)
        large = index.last_query_stats()
        assert small.extra["alpha"] == 16
        assert large.candidates >= small.candidates

    def test_query_stats_io_accounting(self, built_index):
        index, _, queries = built_index
        index.query(queries[1], 5)
        stats = index.last_query_stats()
        assert stats.page_reads > 0
        assert stats.candidates > 0
        assert stats.distance_computations >= stats.candidates
        assert stats.time_sec > 0

    def test_dimension_mismatch_rejected(self, built_index):
        index, _, _ = built_index
        with pytest.raises(ValueError):
            index.query(np.zeros(7), 5)

    def test_invalid_k_rejected(self, built_index):
        index, _, queries = built_index
        with pytest.raises(ValueError):
            index.query(queries[0], 0)

    def test_query_before_build_rejected(self):
        index = HDIndex(small_params())
        with pytest.raises(RuntimeError):
            index.query(np.zeros(16), 5)

    def test_query_batch_shape(self, built_index):
        index, _, queries = built_index
        ids, dists = index.query_batch(queries, 7)
        assert ids.shape == (len(queries), 7)
        assert dists.shape == (len(queries), 7)
        assert np.all(ids >= 0)

    def test_k_larger_than_gamma_still_returns_k(self, built_index):
        index, data, queries = built_index
        ids, _ = index.query(queries[0], 40)
        assert len(ids) == 40


class TestUpdates:
    def test_insert_is_immediately_searchable(self, tiny_clustered_module):
        data, _ = tiny_clustered_module
        index = HDIndex(small_params())
        index.build(data)
        new_point = np.full(16, 50.0)
        new_id = index.insert(new_point)
        assert new_id == len(data)
        ids, dists = index.query(new_point, 1)
        assert ids[0] == new_id
        assert index.count == len(data) + 1

    def test_base_is_immutable_between_folds(self, tiny_clustered_module):
        """Writes never touch the built trees or heap — no page written,
        no column replaced — until compact() merges the delta in; and
        the merge builds new columns, so a reader still holding the old
        layout keeps seeing exactly the old entries."""
        data, queries = tiny_clustered_module
        n = len(data)
        index = HDIndex(small_params())
        index.build(data)
        structures = [tree for tree in index.trees] + [index.heap]
        writes = [s.stats.page_writes for s in structures]
        layouts = [tree.packed for tree in index.trees]
        columns = [(layout.keys_raw.copy(), layout.values_raw.copy())
                   for layout in layouts]
        rng = np.random.default_rng(3)
        fresh = rng.uniform(0.0, 100.0, size=(12, 16))
        for step, vector in enumerate(fresh):
            assert index.insert(vector) == n + step
            index.delete(step)
            index.query(queries[step % len(queries)], 5)
        assert [s.stats.page_writes for s in structures] == writes
        assert all(tree.packed is layout
                   for tree, layout in zip(index.trees, layouts))
        assert [len(s) for s in structures] == [n] * len(structures)
        assert index.count == n + len(fresh)

        index.compact()
        assert [len(s) for s in structures] \
            == [n + len(fresh)] * len(structures)
        for tree, layout, (keys, values) in zip(index.trees, layouts,
                                                columns):
            assert tree.packed is not layout
            assert tree.packed.count == n + len(fresh)
            np.testing.assert_array_equal(layout.keys_raw, keys)
            np.testing.assert_array_equal(layout.values_raw, values)
        assert len(index._delta) == 0
        ids, _ = index.query(fresh[-1], 1)
        assert ids[0] == n + len(fresh) - 1

    def test_delete_hides_object(self, tiny_clustered_module):
        data, _ = tiny_clustered_module
        index = HDIndex(small_params())
        index.build(data)
        target = data[5]
        ids, _ = index.query(target, 1)
        assert ids[0] == 5
        index.delete(5)
        ids, _ = index.query(target, 1)
        assert ids[0] != 5

    def test_delete_unknown_id_rejected(self, tiny_clustered_module):
        data, _ = tiny_clustered_module
        index = HDIndex(small_params())
        index.build(data)
        with pytest.raises(ValueError):
            index.delete(10**9)

    def test_insert_wrong_dim_rejected(self, tiny_clustered_module):
        data, _ = tiny_clustered_module
        index = HDIndex(small_params())
        index.build(data)
        with pytest.raises(ValueError):
            index.insert(np.zeros(3))


class TestAccounting:
    def test_memory_bytes_components(self, built_index):
        index, _, _ = built_index
        total = index.memory_bytes()
        assert total >= index.references.memory_bytes()

    def test_io_snapshot_keys(self, built_index):
        index, _, queries = built_index
        index.query(queries[0], 5)
        snap = index.io_snapshot()
        assert snap["page_reads"] > 0

    def test_deterministic_given_seed(self, tiny_clustered_module):
        data, queries = tiny_clustered_module
        first = HDIndex(small_params(seed=5))
        second = HDIndex(small_params(seed=5))
        first.build(data)
        second.build(data)
        ids_a, _ = first.query(queries[0], 10)
        ids_b, _ = second.query(queries[0], 10)
        np.testing.assert_array_equal(ids_a, ids_b)


def snapshot_digests(directory):
    """sha256 prefix of every snapshot file; ``references.npz`` by its
    arrays, since the zip container stamps each member with a time."""
    digests = {}
    for path in sorted(directory.iterdir()):
        if path.suffix == ".npz":
            with np.load(path) as arrays:
                blob = b"".join(name.encode() + arrays[name].tobytes()
                                for name in sorted(arrays.files))
        else:
            blob = path.read_bytes()
        digests[path.name] = hashlib.sha256(blob).hexdigest()[:16]
    return digests


def column_digests(directory, num_references):
    """sha256 prefix of every tree file's decoded entries in key order:
    the key bytes, the ids as ``<i8`` and the distances as ``<f4``, at
    whatever id width the file stores."""
    digests = {}
    for path in sorted(directory.glob("tree_*.packed")):
        arrays = unpack_arrays(np.fromfile(path, dtype=np.uint8))
        values = arrays["values"]
        records = values.reshape(-1).view(
            [("id", f">u{values.shape[1] - 4 * num_references}"),
             ("ref", ">f4", (num_references,))])
        blob = (arrays["keys"].tobytes()
                + records["id"].astype("<i8").tobytes()
                + records["ref"].astype("<f4").tobytes())
        digests[path.name] = hashlib.sha256(blob).hexdigest()[:16]
    return digests


def heap_digest(directory):
    """sha256 prefix of a snapshot's decoded heap values as ``<f4``, in
    id order, at whatever width ``descriptors.pages`` stores them."""
    with load_index(directory, backend="memory") as index:
        values = index.heap.scan().astype("<f4")
    return hashlib.sha256(values.tobytes()).hexdigest()[:16]


class TestFrozenBuild:
    """Every file of three seeded n = 3000 snapshots, hashed at the
    commit before the build ran in row blocks (quantised once into the
    lane dtype, keys packed from uint8 planes, SSS distances through one
    scratch): a faster build may not move a byte.  The labelled build
    quantises at ω = 7, so its keys (21 or 22 dims x 7 bits) are not a
    whole number of bytes.  The ``meta.json`` digests were re-taken when
    the snapshot stopped recording a ``kind`` tag beside its spec; the
    parsed files differ by that key alone.  The relaxed build's digests
    were taken at the commit before SSS kept its distances per row block:
    at ``sss_fraction`` 0.9 its first scan over the three blocks admits
    fewer than m, so a relaxed round scans them again.  The
    ``tree_*.packed`` digests were re-taken when tree files began storing
    ids at the narrowest width and no page geometry; ``COLUMNS``, digests
    of each tree's decoded keys, ids and distances taken at the commit
    before, shows the entries themselves did not move.  The
    ``descriptors.pages`` digests were re-taken when the heap began
    storing integer-valued records at the narrowest width (uint8 here):
    ``HEAP``, the digest of the decoded values as float32 taken at the
    commit before, shows the values did not move, and ``meta.json`` is
    checked as that commit wrote it, without the heap's new ``stored``
    entry."""

    DIGESTS = {
        "memory": {
            "descriptors.pages": "338704459076e1de",
            "meta.json": "b446b85cd7a8b43b",
            "references.npz": "f44136192ad46105",
            "tree_0.packed": "b8787d0cfd17f6d7",
            "tree_1.packed": "25ad068f82e8c423",
            "tree_2.packed": "ec0c283162a23917",
            "tree_3.packed": "63b2e5b5a4858289",
            "tree_4.packed": "36be154d22890cf1",
            "tree_5.packed": "cccd0897c726d8ae",
        },
        "streaming": {
            "descriptors.pages": "338704459076e1de",
            "meta.json": "8dd5b2bd46ddde8c",
            "references.npz": "17ce5fcbb1dc712e",
            "tree_0.packed": "1394fa5b42bca386",
            "tree_1.packed": "012f1ada2a6a6cd6",
            "tree_2.packed": "0169cf18d4452be3",
            "tree_3.packed": "03a372a4bfb13007",
            "tree_4.packed": "ee9c96976f397d53",
            "tree_5.packed": "10bede5345f7b476",
        },
        "labelled": {
            "descriptors.pages": "338704459076e1de",
            "meta.json": "069e47be8645530d",
            "metadata.packed": "9a3ae8688ae8ea4e",
            "references.npz": "f44136192ad46105",
            "tree_0.packed": "c34e26447843274c",
            "tree_1.packed": "fd85e45482318fb0",
            "tree_2.packed": "0e4669621fd19f9e",
            "tree_3.packed": "b7cb20c7ac5bb3c9",
            "tree_4.packed": "e9cdce9f13b71b9c",
            "tree_5.packed": "07b8519d5a2ffc8b",
        },
        "relaxed": {
            "descriptors.pages": "338704459076e1de",
            "meta.json": "d34986cbd90a51ee",
            "references.npz": "3bf0b4a0f9d58e78",
            "tree_0.packed": "389a26029c2e9ade",
            "tree_1.packed": "a0675c645d8bea44",
            "tree_2.packed": "b046b860b8675e76",
            "tree_3.packed": "f6520ab545deff20",
            "tree_4.packed": "5e176af18d21641b",
            "tree_5.packed": "d409daf504b9ba0f",
        },
    }

    COLUMNS = {
        "memory": {
            "tree_0.packed": "3198c5cd79bc40e2",
            "tree_1.packed": "34ff9317220f9d60",
            "tree_2.packed": "01c095d58fd82d9e",
            "tree_3.packed": "cee30f47a78e965d",
            "tree_4.packed": "97cff9d08636e588",
            "tree_5.packed": "1024eeaa0935a025",
        },
        "streaming": {
            "tree_0.packed": "cd65e5f0ce74b9f8",
            "tree_1.packed": "e77dcc7684f1c690",
            "tree_2.packed": "b133cfdf1bbe2298",
            "tree_3.packed": "c746bb038ebce4b3",
            "tree_4.packed": "d51c75127bdc11ae",
            "tree_5.packed": "9ebf2398f681f57d",
        },
        "labelled": {
            "tree_0.packed": "c26a981d6290c0d9",
            "tree_1.packed": "807522722027b873",
            "tree_2.packed": "5e60f9a39ed04c65",
            "tree_3.packed": "4e2723aa6e3e5fe2",
            "tree_4.packed": "abd536b11d707275",
            "tree_5.packed": "fd3e3466efd0e84b",
        },
        "relaxed": {
            "tree_0.packed": "0e1f4c81072c8d35",
            "tree_1.packed": "8fad1e777feebabd",
            "tree_2.packed": "db2d8230dc01b1c4",
            "tree_3.packed": "9a4570fd1f73d828",
            "tree_4.packed": "b93718aabeccf508",
            "tree_5.packed": "0980b3591dbae5ca",
        },
    }

    #: Every build's heap values, decoded as float32, before narrow
    #: records.
    HEAP = "16d6c31fdf8291e5"

    #: The memory build's tree files before narrow ids, which
    #: ``write_legacy_tree`` must write again byte for byte.
    LEGACY = {
        "tree_0.packed": "4b8cc1a3dbdba752",
        "tree_1.packed": "26fb024234e815e2",
        "tree_2.packed": "45b53e0150ae49fb",
        "tree_3.packed": "cfdd37ece301828f",
        "tree_4.packed": "66c811075a9addc1",
        "tree_5.packed": "bc7d667d1fb9cc55",
    }

    @staticmethod
    def build(kind, directory):
        dataset = make_dataset("sift10k", 3000, 1, seed=29)
        params = dict(num_trees=6, num_references=6, alpha=64, gamma=16,
                      seed=29)
        if kind == "streaming":
            index = HDIndex(HDIndexParams(reference_method="random",
                                          **params))
            index.build_from_chunks(dataset.data[start:start + 700]
                                    for start in range(0, 3000, 700))
        elif kind == "labelled":
            index = HDIndex(HDIndexParams(hilbert_order=7,
                                          domain=(0.0, 255.0), **params))
            index.build(dataset.data, metadata=[
                {"label": row % 5} for row in range(3000)])
        elif kind == "relaxed":
            index = HDIndex(HDIndexParams(sss_fraction=0.9, **params))
            index.build(dataset.data)
        else:
            index = HDIndex(HDIndexParams(**params))
            index.build(dataset.data)
        save_index(index, str(directory))
        index.close()

    @pytest.mark.parametrize("kind", ["memory", "streaming", "labelled",
                                      "relaxed"])
    def test_snapshot_files_are_the_parents(self, kind, tmp_path):
        self.build(kind, tmp_path)
        digests = snapshot_digests(tmp_path)
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["heap"].pop("stored") == "uint8"
        digests["meta.json"] = hashlib.sha256(
            json.dumps(meta, indent=2).encode()).hexdigest()[:16]
        assert digests == self.DIGESTS[kind]
        assert column_digests(tmp_path, 6) == self.COLUMNS[kind]
        assert heap_digest(tmp_path) == self.HEAP

    def test_parent_heap_writer_writes_the_parents_file(self, tmp_path):
        """The parent-format heap tests stand on a writer of the old
        heap: it writes the memory build's values as they were written."""
        self.build("memory", tmp_path)
        with load_index(tmp_path, backend="memory") as index:
            write_parent_heap(tmp_path / "parent.pages", index.heap.scan(),
                              index.params.page_size)
        assert snapshot_digests(tmp_path)["parent.pages"] == self.HEAP

    def test_legacy_writer_writes_the_parents_files(self, tmp_path):
        """The legacy-format tests stand on a writer of the old format:
        it rewrites the memory build's trees as they were written."""
        self.build("memory", tmp_path)
        with load_index(tmp_path, backend="memory") as index:
            for position, tree in enumerate(index.trees):
                write_legacy_tree(tree, tmp_path / f"tree_{position}.packed")
        digests = snapshot_digests(tmp_path)
        assert {name: digests[name] for name in self.LEGACY} == self.LEGACY


class TestBuildMemory:
    def test_no_stage_allocates_an_n_by_nu_float64_array(self):
        """What a build holds besides its heap stays under one n x ν
        float64 array: before the row-block kernels each SSS pass
        allocated exactly that (peak - heap 13.8 MB here, against 7.4 MB
        since and a bound of 10.24 MB)."""
        data = np.random.default_rng(5).uniform(0.0, 255.0,
                                                size=(20000, 64))
        index = HDIndex(HDIndexParams(num_trees=4, num_references=4,
                                      seed=0))
        tracemalloc.start()
        try:
            index.build(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < index.heap.page_matrix().nbytes + data.nbytes
