"""Unit tests for the metadata subsystem: predicate algebra semantics,
JSON/pickle round-trips, hashability, and the columnar MetadataStore."""

import json
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.meta import (
    And,
    Eq,
    In,
    MetadataStore,
    Not,
    Or,
    Predicate,
    Range,
    coerce_predicate,
    predicate_from_dict,
)
from repro.meta.predicates import validate_json_safe
from repro.storage.pages import replace_file

ROWS = [
    {"label": 0, "score": 0.5, "color": "red"},
    {"label": 1, "score": 1.5, "color": "green"},
    {"label": 2, "score": 2.5, "color": "blue"},
    {"label": 0, "score": 3.5, "color": "red"},
    {"label": 1, "score": 4.5, "color": "chartreuse"},
]


@pytest.fixture()
def store():
    return MetadataStore.from_rows(ROWS)


def oracle_mask(predicate):
    return np.asarray([predicate.matches(row) for row in ROWS])


class TestPredicateSemantics:
    @pytest.mark.parametrize("predicate", [
        Eq("label", 1),
        Eq("color", "red"),
        In("label", [0, 2]),
        In("color", ("red", "blue")),
        Range("score", low=1.0, high=3.0),
        Range("score", low=2.0),
        Range("score", high=2.0),
        Range("label", low=1),
        And(Eq("label", 0), Eq("color", "red")),
        Or(Eq("color", "blue"), Range("score", high=1.0)),
        Not(Eq("label", 1)),
        And(Or(Eq("label", 0), Eq("label", 2)),
            Not(Eq("color", "blue"))),
    ])
    def test_mask_matches_scalar_oracle(self, store, predicate):
        """The vectorised bulk mask and the scalar delta path agree."""
        np.testing.assert_array_equal(predicate.mask(store),
                                      oracle_mask(predicate))

    def test_operator_sugar(self, store):
        sugar = (Eq("label", 0) | Eq("label", 2)) & ~Eq("color", "blue")
        explicit = And(Or(Eq("label", 0), Eq("label", 2)),
                       Not(Eq("color", "blue")))
        np.testing.assert_array_equal(sugar.mask(store),
                                      explicit.mask(store))

    def test_range_bounds_inclusive(self, store):
        mask = Range("score", low=1.5, high=3.5).mask(store)
        np.testing.assert_array_equal(mask,
                                      [False, True, True, True, False])

    def test_combinator_requires_clauses(self):
        with pytest.raises(ValueError):
            And()
        with pytest.raises(TypeError):
            Or(Eq("label", 1), "not a predicate")

    def test_columns(self):
        predicate = And(Eq("label", 1), Or(Range("score", low=1.0),
                                           Not(Eq("color", "red"))))
        assert predicate.columns() == frozenset(
            ("label", "score", "color"))

    def test_unknown_column_fails_fast(self, store):
        with pytest.raises(ValueError, match="unknown metadata column"):
            Eq("nope", 1).mask(store)

    def test_type_mismatch_rejected(self, store):
        with pytest.raises(TypeError):
            Eq("label", "red").mask(store)
        with pytest.raises(TypeError):
            Eq("color", 3).mask(store)
        with pytest.raises(TypeError):
            Eq("label", True).mask(store)


def predicates():
    """Hypothesis strategy for arbitrary predicate trees over two
    columns (int 'label', str 'color')."""
    leaves = st.one_of(
        st.builds(Eq, st.just("label"), st.integers(-3, 3)),
        st.builds(Eq, st.just("color"),
                  st.sampled_from(["red", "green", "blue"])),
        st.builds(In, st.just("label"),
                  st.lists(st.integers(-3, 3), min_size=1, max_size=3)),
        st.builds(Range, st.just("label"), st.integers(-3, 3),
                  st.integers(-3, 3)),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(lambda a, b: And(a, b), children, children),
            st.builds(lambda a, b: Or(a, b), children, children),
            st.builds(Not, children),
        ),
        max_leaves=6,
    )


class TestPredicateRoundTrips:
    @given(predicate=predicates())
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip_is_identity(self, predicate):
        wire = json.loads(json.dumps(predicate.to_dict()))
        assert predicate_from_dict(wire) == predicate

    @given(predicate=predicates())
    @settings(max_examples=30, deadline=None)
    def test_pickle_and_hash(self, predicate):
        clone = pickle.loads(pickle.dumps(predicate))
        assert clone == predicate
        assert hash(clone) == hash(predicate)
        assert len({clone, predicate}) == 1

    def test_coerce_predicate_forms(self):
        predicate = And(Eq("label", 1), Not(Eq("color", "red")))
        assert coerce_predicate(None) is None
        assert coerce_predicate(predicate) is predicate
        assert coerce_predicate(predicate.to_dict()) == predicate
        with pytest.raises(TypeError):
            coerce_predicate(42)
        with pytest.raises(ValueError):
            predicate_from_dict({"op": "xor"})
        with pytest.raises(ValueError):
            predicate_from_dict({"nope": 1})

    def test_validate_json_safe(self):
        validate_json_safe(And(Eq("a", 1), In("b", ["x"])))
        # Numpy numbers are normalised at construction, so they cross.
        for numpy_form in (Eq("a", np.int64(3)), In("a", [np.float32(0.5)]),
                           Range("a", low=np.int32(1), high=np.float64(2))):
            validate_json_safe(numpy_form)
            wire = json.loads(json.dumps(numpy_form.to_dict()))
            assert predicate_from_dict(wire) == numpy_form
        assert {type(value) for _, value in
                Range("a", np.int16(1), np.float32(2)).constants()} \
            == {int, float}
        with pytest.raises(TypeError):
            validate_json_safe(In("a", [object()]))


class TestMetadataStore:
    def test_from_rows_types(self, store):
        assert store.count == 5
        assert store.names == ("color", "label", "score")
        assert store.kind("label") == "int"
        assert store.kind("score") == "float"
        assert store.kind("color") == "str"
        assert store.row(4) == ROWS[4]
        assert store.rows([0, 2]) == [ROWS[0], ROWS[2]]

    def test_packed_round_trip(self, store):
        packed = b"".join(store.to_packed())
        clone = MetadataStore.from_packed(packed)
        assert clone.names == store.names
        for name in store.names:
            np.testing.assert_array_equal(clone.column(name),
                                          store.column(name))
        # A uint8 view (the mmap load path) decodes identically.
        view = np.frombuffer(packed, dtype=np.uint8)
        viewed = MetadataStore.from_packed(view)
        assert viewed.rows(range(5)) == store.rows(range(5))

    def test_sidecar_write_copies_no_column(self, tmp_path):
        big = MetadataStore.from_rows(
            [{"label": i, "score": i / 2} for i in range(100_000)])
        column_bytes = 16 * big.count
        tracemalloc.start()
        try:
            replace_file(tmp_path / "metadata.packed", big.to_packed())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * column_bytes
        clone = MetadataStore.from_packed(
            np.fromfile(tmp_path / "metadata.packed", dtype=np.uint8))
        assert clone.rows([0, 99_999]) == big.rows([0, 99_999])

    def test_append_rows_widens_strings(self, store):
        store.append_rows([{"label": 9, "score": 9.0,
                            "color": "ultraviolet-extra-wide"}])
        assert store.count == 6
        assert store.row(5)["color"] == "ultraviolet-extra-wide"
        assert store.row(0)["color"] == "red"

    def test_append_rows_validation(self, store):
        with pytest.raises(ValueError, match="differ from store columns"):
            store.append_rows([{"label": 1}])
        with pytest.raises(TypeError):
            store.append_rows([{"label": "oops", "score": 0.0,
                                "color": "red"}])

    def test_from_rows_validation(self):
        with pytest.raises(ValueError):
            MetadataStore.from_rows([])
        with pytest.raises(ValueError, match="differ from row 0"):
            MetadataStore.from_rows([{"a": 1}, {"b": 2}])
        with pytest.raises(TypeError, match="bool"):
            MetadataStore.from_rows([{"a": True}])
        with pytest.raises(TypeError, match="mixes strings"):
            MetadataStore.from_rows([{"a": 1}, {"a": "x"}])

    def test_check_columns(self, store):
        store.check_columns(("label", "color"))
        with pytest.raises(ValueError, match="unknown metadata column"):
            store.check_columns(("label", "missing"))

    def test_mixed_int_float_promotes(self):
        mixed = MetadataStore.from_rows([{"v": 1}, {"v": 2.5}])
        assert mixed.kind("v") == "float"
        np.testing.assert_array_equal(mixed.column("v"), [1.0, 2.5])

    def test_numpy_numbers_are_their_python_values(self, store):
        assert store.coerce("label", np.int64(2)) == 2
        assert type(store.coerce("score", np.float32(0.5))) is float
        for bad in (np.bool_(True), True, "2"):
            with pytest.raises(TypeError):
                store.coerce("label", bad)
        row = store.validate_row({"label": np.int32(7),
                                  "score": np.int64(3), "color": "x"})
        assert row == {"label": 7, "score": 3.0, "color": "x"}
        assert [type(row[name]) for name in ("label", "score")] \
            == [int, float]
        json.dumps(row)  # what a log frame carries
        store.append_rows([{"label": np.int64(9), "score": np.float32(0.25),
                            "color": "y"}])
        assert store.row(5) == {"label": 9, "score": 0.25, "color": "y"}
        built = MetadataStore.from_rows([{"v": np.uint8(1)}, {"v": 2}])
        assert built.kind("v") == "int"
        with pytest.raises(TypeError, match="unsupported value"):
            MetadataStore.from_rows([{"v": np.bool_(False)}])


def test_predicate_base_is_abstract(store):
    base = Predicate()
    for call in (lambda: base.mask(store), lambda: base.matches({}),
                 base.to_dict, base.columns):
        with pytest.raises(NotImplementedError):
            call()
