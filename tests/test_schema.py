"""Table loading, encoding, bound decoding, and discrete snapping."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from maire import AttributeSchema, BoxBounds, cov_exact, decode_bounds, encode, load_schema, load_table, snap_discrete
from maire.errors import InconsistentExplanationError, LoadError, SchemaError
from maire.indicator import inside_mask, pre_exact_or_none
from maire.schema import RawTable, nontrivial_attributes


@pytest.fixture
def people_schema():
    return [
        AttributeSchema(name="Age", kind="continuous"),
        AttributeSchema(name="Sex", kind="categorical", categories=("M", "F")),
    ]


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestLoadTable:
    def test_three_row_csv(self, tmp_path, people_schema):
        path = write(tmp_path, "t.csv", "Age,Sex\n17,M\n30,F\n43,M\n")
        table = load_table(path, people_schema)
        assert table.n_rows == 3
        assert table.columns[0].tolist() == [17.0, 30.0, 43.0]
        assert table.columns[1].tolist() == ["M", "F", "M"]

    def test_unknown_category_names_cell(self, tmp_path, people_schema):
        path = write(tmp_path, "t.csv", "Age,Sex\n17,M\n30,X\n")
        with pytest.raises(LoadError, match=r"row 1.*Sex.*'X'"):
            load_table(path, people_schema)

    def test_empty_file(self, tmp_path, people_schema):
        path = write(tmp_path, "t.csv", "")
        with pytest.raises(LoadError, match="no rows"):
            load_table(path, people_schema)

    def test_header_only(self, tmp_path, people_schema):
        path = write(tmp_path, "t.csv", "Age,Sex\n")
        with pytest.raises(LoadError, match="no rows"):
            load_table(path, people_schema)

    def test_missing_column(self, tmp_path, people_schema):
        path = write(tmp_path, "t.csv", "Age\n17\n")
        with pytest.raises(LoadError, match="Sex"):
            load_table(path, people_schema)

    def test_unparseable_cell(self, tmp_path, people_schema):
        path = write(tmp_path, "t.csv", "Age,Sex\nseventeen,M\n")
        with pytest.raises(LoadError, match=r"row 0.*Age"):
            load_table(path, people_schema)

    def test_label_column(self, tmp_path, people_schema):
        path = write(tmp_path, "t.csv", "Age,Sex,y\n17,M,0\n43,F,1\n")
        table = load_table(path, people_schema, label_column="y")
        assert table.labels.tolist() == [0, 1]

    def test_negative_labels(self, tmp_path, people_schema):
        path = write(tmp_path, "t.csv", "Age,Sex,y\n17,M,-1\n43,F,1.0\n")
        assert load_table(path, people_schema, label_column="y").labels.tolist() == [-1, 1]

    @pytest.mark.parametrize("cell", ["1.5", "-0.5", "1e300", "nan", "one"])
    def test_non_integer_label_names_row_and_column(self, tmp_path, people_schema, cell):
        path = write(tmp_path, "t.csv", f"Age,Sex,y\n17,M,0\n43,F,{cell}\n")
        with pytest.raises(LoadError, match=rf"row 1 column 'y'.*{cell!r} is not an integer"):
            load_table(path, people_schema, label_column="y")

    def test_repeated_header_column(self, tmp_path, people_schema):
        path = write(tmp_path, "t.csv", "Age,Sex,Age\n17,M,90\n43,F,91\n")
        with pytest.raises(LoadError, match=r"header row names column\(s\) \['Age'\] more than once"):
            load_table(path, people_schema)

    def test_ordered_level_membership_enforced(self, tmp_path):
        schema = [AttributeSchema(name="Rooms", kind="ordered_discrete", levels=(1, 2, 3))]
        path = write(tmp_path, "t.csv", "Rooms\n2\n5\n")
        with pytest.raises(LoadError, match=r"row 1.*Rooms"):
            load_table(path, schema)


class TestLoadSchema:
    def test_round_trip(self, tmp_path):
        path = write(tmp_path, "s.json", """
        {"attributes": [
            {"name": "Age", "kind": "continuous"},
            {"name": "Rooms", "kind": "ordered_discrete", "levels": [1, 2, 3]},
            {"name": "Sex", "kind": "categorical", "categories": ["M", "F"]}
        ]}""")
        attrs = load_schema(path)
        assert [a.kind for a in attrs] == ["continuous", "ordered_discrete", "categorical"]

    def test_missing_file(self):
        with pytest.raises(LoadError, match="nope.json"):
            load_schema("nope.json")

    @pytest.mark.parametrize("text, message", [
        ('{"attributes": 5}', "must be an object with an 'attributes' list"),
        ('{"attributes": ["a"]}', "attribute 0 must be an object with a 'name' string"),
        ('{"attributes": [{"kind": "continuous"}]}', "attribute 0 must be an object with a 'name'"),
        ('{"attributes": [{"name": "a", "kind": "continuous"}, {"name": 3, "kind": "continuous"}]}',
         "attribute 1 must be an object with a 'name' string"),
        ('{"attributes": [{"name": "a", "kind": "continuous"}, {"name": "a", "kind": "continuous"}]}',
         "attribute 1: name 'a' is declared twice"),
        ('{"attributes": [{"name": "a", "kind": "categorical", "categories": 5}]}', "attribute 0: "),
        ('{"attributes": [{"name": "a", "kind": "continuous", "range": [1]}]}', "attribute 0: "),
        ('{"attributes": [{"name": "a", "kind": "ordered_discrete", "levels": ["x"]}]}',
         "attribute 0: "),
        ('{"attributes": [{"name": "a", "kind": "interval"}]}', "attribute 0: .*unknown kind"),
    ], ids=["not-a-list", "entry-not-object", "no-name", "name-not-string", "name-twice",
            "categories-not-list", "range-one-value", "level-not-number", "unknown-kind"])
    def test_malformed_file_names_entry(self, tmp_path, text, message):
        with pytest.raises(LoadError, match=message):
            load_schema(write(tmp_path, "s.json", text))

    def test_invalid_declarations(self):
        with pytest.raises(SchemaError):
            AttributeSchema(name="x", kind="ordered_discrete", levels=(3, 1, 2))
        with pytest.raises(SchemaError):
            AttributeSchema(name="x", kind="categorical", categories=("A", "A"))
        with pytest.raises(SchemaError):
            AttributeSchema(name="x", kind="categorical", categories=("A", ""))
        with pytest.raises(SchemaError):
            AttributeSchema(name="x", kind="interval")


class TestEncode:
    def test_min_max_midpoint(self, people_schema):
        table = RawTable(people_schema, [np.array([17.0, 30.0, 43.0]),
                                         np.asarray(["M", "F", "M"], dtype=object)])
        space = encode(table)
        assert space.matrix[1, 0] == pytest.approx(0.5)
        assert space.normalizers[0] == (17.0, 43.0)

    def test_five_levels_interior_positions(self):
        schema = [AttributeSchema(name="g", kind="ordered_discrete", levels=(10, 20, 30, 40, 50))]
        table = RawTable(schema, [np.array([10.0, 20.0, 30.0, 40.0, 50.0])])
        space = encode(table)
        np.testing.assert_allclose(space.matrix[:, 0], [1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6])

    def test_one_hot_expansion(self, people_schema):
        table = RawTable(people_schema, [np.array([17.0, 43.0]),
                                         np.asarray(["M", "F"], dtype=object)])
        space = encode(table)
        assert space.matrix.shape == (2, 3)
        np.testing.assert_array_equal(space.matrix[:, 1:], [[1, 0], [0, 1]])

    def test_matrix_in_unit_interval_and_onehot_exclusive(self):
        rng = np.random.default_rng(0)
        schema = [
            AttributeSchema(name="a", kind="continuous"),
            AttributeSchema(name="c", kind="categorical", categories=("x", "y", "z")),
            AttributeSchema(name="o", kind="ordered_discrete", levels=(1, 2, 3, 4)),
        ]
        table = RawTable(schema, [
            rng.normal(size=100) * 50,
            np.asarray(rng.choice(["x", "y", "z"], 100), dtype=object),
            rng.choice([1.0, 2.0, 3.0, 4.0], 100),
        ])
        space = encode(table)
        assert space.matrix.min() >= 0.0 and space.matrix.max() <= 1.0
        onehot = space.matrix[:, 1:4]
        np.testing.assert_array_equal(onehot.sum(axis=1), np.ones(100))
        assert space.attr_of.tolist() == [0, 1, 1, 1, 2]

    def test_constant_column_rejected(self):
        schema = [AttributeSchema(name="a", kind="continuous")]
        table = RawTable(schema, [np.full(5, 3.3)])
        with pytest.raises(SchemaError, match="constant"):
            encode(table)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_continuous_value_rejected(self, bad):
        schema = [AttributeSchema(name="a", kind="continuous")]
        table = RawTable(schema, [np.array([0.1, 0.5, bad, 0.9, bad])])
        with pytest.raises(SchemaError, match=r"row 2 column 'a'"):
            encode(table)

    def test_non_finite_query_value_rejected(self, people_schema):
        table = RawTable(people_schema, [np.array([17.0, 30.0]),
                                         np.asarray(["M", "F"], dtype=object)])
        space = encode(table)
        with pytest.raises(SchemaError, match="Age"):
            space.encode_instance([float("inf"), "F"])

    def test_out_of_range_clamps_and_counts(self, people_schema):
        preset = [
            AttributeSchema(name="Age", kind="continuous", value_range=(20.0, 40.0)),
            people_schema[1],
        ]
        table = RawTable(preset, [np.array([10.0, 30.0, 50.0]),
                                  np.asarray(["M", "M", "F"], dtype=object)])
        space = encode(table)
        assert space.clamp_warnings == 2
        assert space.matrix[0, 0] == 0.0 and space.matrix[2, 0] == 1.0

    def test_encode_instance_matches_encode(self, people_schema):
        table = RawTable(people_schema, [np.array([17.0, 30.0, 43.0]),
                                         np.asarray(["M", "F", "M"], dtype=object)])
        space = encode(table)
        np.testing.assert_allclose(space.encode_instance([30.0, "F"]), space.matrix[1])

    def test_unknown_category_names_row_and_column(self, people_schema):
        table = RawTable(people_schema, [np.array([17.0, 30.0, 43.0]),
                                         np.asarray(["M", "F", "X"], dtype=object)])
        with pytest.raises(SchemaError, match=r"row 2 column 'Sex': unknown category 'X'"):
            encode(table)

    def test_undeclared_level_names_row_and_column(self):
        schema = [AttributeSchema(name="g", kind="ordered_discrete", levels=(1, 2, 3))]
        table = RawTable(schema, [np.array([1.0, 3.0, 2.5])])
        with pytest.raises(SchemaError, match=r"row 2 column 'g': value 2.5 is not a declared level"):
            encode(table)

    def test_query_errors_name_the_query_and_column(self, people_schema):
        table = RawTable(people_schema, [np.array([17.0, 30.0]),
                                         np.asarray(["M", "F"], dtype=object)])
        space = encode(table)
        with pytest.raises(SchemaError, match=r"query column 'Sex': unknown category 'X'"):
            space.encode_instance([20.0, "X"])

    def test_level_within_tolerance_encodes_as_query_does(self):
        schema = [AttributeSchema(name="g", kind="ordered_discrete", levels=(1, 2, 3))]
        near = 2.0 + 5e-10
        space = encode(RawTable(schema, [np.array([1.0, near, 3.0])]))
        assert space.matrix[1, 0] == space.encode_instance([near])[0] == 2 / 4

    def test_clamp_warning_is_single_line_record(self, caplog):
        import logging

        preset = [AttributeSchema(name="Age", kind="continuous", value_range=(20.0, 40.0))]
        table = RawTable(preset, [np.array([10.0, 30.0])])
        with caplog.at_level(logging.WARNING, logger="maire.schema"):
            encode(table)
        assert len(caplog.records) == 1
        assert "\n" not in caplog.records[0].getMessage()
        assert "Age" in caplog.records[0].getMessage()


@st.composite
def mixed_tables(draw):
    """A table of every attribute kind whose declared range clamps some
    values and whose ordered values sit within 1e-9 of their levels."""
    n = draw(st.integers(2, 12))
    schema = [
        AttributeSchema(name="fit", kind="continuous"),
        AttributeSchema(name="clamp", kind="continuous", value_range=(-1.0, 1.0)),
        AttributeSchema(name="g", kind="ordered_discrete", levels=(0.5, 1.5, 2.5, 10.0)),
        AttributeSchema(name="c", kind="categorical", categories=("p", "q", "r")),
    ]
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    fitted = draw(st.lists(finite, min_size=n, max_size=n))
    assume(min(fitted) < max(fitted))
    levels = draw(st.lists(st.sampled_from(schema[2].levels), min_size=n, max_size=n))
    jitter = draw(st.lists(st.floats(-9e-10, 9e-10), min_size=n, max_size=n))
    cats = draw(st.lists(st.sampled_from(schema[3].categories), min_size=n, max_size=n))
    return RawTable(schema, [
        np.asarray(fitted),
        np.asarray(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))),
        np.asarray(levels) + np.asarray(jitter),
        np.asarray(cats, dtype=object),
    ])


def reference_row(space, row):
    """One row encoded value by value, the scalar way."""
    out = []
    for a, (attr, v) in enumerate(zip(space.attributes, row)):
        if attr.kind == "continuous":
            lo, hi = space.normalizers[a]
            out.append(min(max((float(v) - lo) / (hi - lo), 0.0), 1.0))
        elif attr.kind == "ordered_discrete":
            t = next(t for t, lvl in enumerate(attr.levels) if abs(lvl - v) <= 1e-9)
            out.append((t + 1) / (len(attr.levels) + 1))
        else:
            out += [float(v == c) for c in attr.categories]
    return np.asarray(out)


@settings(max_examples=100, deadline=None)
@given(mixed_tables())
def test_encode_instance_equals_encoded_row(table):
    space = encode(table)
    assert space.normalizers[0] == (table.columns[0].min(), table.columns[0].max())
    for i in range(table.n_rows):
        row = table.row(i)
        assert np.array_equal(space.encode_instance(row), space.matrix[i])
        assert np.array_equal(reference_row(space, row), space.matrix[i])


class TestDecodeBounds:
    def make_space(self):
        schema = [
            AttributeSchema(name="Age", kind="continuous"),
            AttributeSchema(name="Grade", kind="ordered_discrete", levels=(1, 2, 3, 4, 5)),
            AttributeSchema(name="Sex", kind="categorical", categories=("M", "F")),
        ]
        table = RawTable(schema, [
            np.array([17.0, 30.0, 43.0]),
            np.array([1.0, 3.0, 5.0]),
            np.asarray(["M", "F", "M"], dtype=object),
        ])
        return encode(table)

    def test_full_bounds_decode_to_nothing(self):
        space = self.make_space()
        assert decode_bounds(np.zeros(4), np.ones(4), space) == []

    def test_ordered_interval_enumerates_levels(self):
        space = self.make_space()
        l = np.array([0.0, 0.21, 0.0, 0.0])
        u = np.array([1.0, 0.69, 1.0, 1.0])
        clauses = decode_bounds(l, u, space)
        assert len(clauses) == 1
        c = clauses[0]
        assert c.form == "ordered_interval" and (c.lo, c.hi) == (2, 4)

    def test_one_hot_pinned_category(self):
        space = self.make_space()
        l = np.array([0.0, 0.0, 0.0, 0.6])
        u = np.array([1.0, 1.0, 1.0, 1.0])
        clauses = decode_bounds(l, u, space)
        assert len(clauses) == 1
        assert clauses[0].form == "equality" and clauses[0].category == "F"
        assert clauses[0].text() == "Sex = F"

    def test_pair_complement_pins_other_category(self):
        space = self.make_space()
        # F column excludes the value 1: for a pair that means Sex = M
        l = np.array([0.0, 0.0, 0.0, 0.0])
        u = np.array([1.0, 1.0, 1.0, 0.4])
        clauses = decode_bounds(l, u, space)
        assert [c.category for c in clauses] == ["M"]

    def test_no_admissible_category_raises(self):
        space = self.make_space()
        l = np.array([0.0, 0.0, 0.0, 0.0])
        u = np.array([1.0, 1.0, 0.4, 0.4])  # both one-hot columns exclude 1
        with pytest.raises(InconsistentExplanationError, match="Sex"):
            decode_bounds(l, u, space)

    def test_interval_in_raw_units(self):
        space = self.make_space()
        clauses = decode_bounds(np.array([0.25, 0, 0, 0]), np.array([0.75, 1, 1, 1]), space)
        c = clauses[0]
        assert c.form == "interval"
        assert (c.lo, c.hi) == pytest.approx((17 + 0.25 * 26, 17 + 0.75 * 26))
        assert c.text() == "23.50 < Age ≤ 36.50"

    def test_requires_ordered_pair(self):
        space = self.make_space()
        with pytest.raises(ValueError):
            decode_bounds(np.full(4, 0.9), np.full(4, 0.1), space)


class TestSnapDiscrete:
    def make_space(self, rng, n=300):
        schema = [
            AttributeSchema(name="a", kind="continuous"),
            AttributeSchema(name="g", kind="ordered_discrete", levels=(1, 2, 3, 4, 5)),
            AttributeSchema(name="c", kind="categorical", categories=("x", "y", "z")),
        ]
        table = RawTable(schema, [
            rng.random(n),
            rng.choice([1.0, 2.0, 3.0, 4.0, 5.0], n),
            np.asarray(rng.choice(["x", "y", "z"], n), dtype=object),
        ])
        return encode(table)

    def test_snap_directions(self):
        rng = np.random.default_rng(0)
        space = self.make_space(rng)
        l = np.array([0.3, 0.21, 0.0, 0.0, 0.2])
        u = np.array([0.9, 0.69, 1.0, 0.7, 1.0])
        snapped = snap_discrete(BoxBounds(l, u), space)
        assert snapped.l[0] == 0.3 and snapped.u[0] == 0.9       # continuous untouched
        assert snapped.l[1] == pytest.approx(2 / 6)              # up to the next position
        assert snapped.u[1] == pytest.approx(4 / 6)              # down to the previous one
        assert snapped.l[4] == 1.0                               # one-hot pinned upward
        assert snapped.u[3] == 0.0                               # one-hot excluded downward

    def test_membership_identical_before_and_after(self):
        rng = np.random.default_rng(1)
        for trial in range(50):
            space = self.make_space(rng, n=200)
            d = space.matrix.shape[1]
            a, b = rng.random(d), rng.random(d)
            bounds = BoxBounds(np.minimum(a, b), np.maximum(a, b))
            snapped = snap_discrete(bounds, space)
            np.testing.assert_array_equal(
                inside_mask(bounds, space.matrix), inside_mask(snapped, space.matrix))

    def test_coverage_and_precision_bit_exact(self):
        rng = np.random.default_rng(2)
        space = self.make_space(rng, n=250)
        labels = rng.integers(0, 2, 250)
        d = space.matrix.shape[1]
        for _ in range(20):
            a, b = rng.random(d), rng.random(d)
            bounds = BoxBounds(np.minimum(a, b), np.maximum(a, b))
            snapped = snap_discrete(bounds, space)
            assert cov_exact(bounds, space.matrix) == cov_exact(snapped, space.matrix)
            assert pre_exact_or_none(bounds, space.matrix, labels, 1) == \
                pre_exact_or_none(snapped, space.matrix, labels, 1)


class TestRoundTrip:
    def test_rows_inside_bounds_satisfy_all_clauses(self):
        rng = np.random.default_rng(3)
        schema = [
            AttributeSchema(name="a", kind="continuous"),
            AttributeSchema(name="g", kind="ordered_discrete", levels=(10, 20, 30)),
            AttributeSchema(name="c", kind="categorical", categories=("x", "y", "z")),
        ]
        for trial in range(20):
            n = 150
            table = RawTable(schema, [
                rng.random(n) * 9 + 1,
                rng.choice([10.0, 20.0, 30.0], n),
                np.asarray(rng.choice(["x", "y", "z"], n), dtype=object),
            ])
            space = encode(table)
            d = space.matrix.shape[1]
            a, b = rng.random(d), rng.random(d)
            l, u = np.minimum(a, b), np.maximum(a, b)
            # anchor to a random row so one-hot groups stay consistent
            anchor = space.matrix[rng.integers(n)]
            l, u = np.minimum(l, anchor), np.maximum(u, anchor)
            clauses = decode_bounds(l, u, space)
            mask = inside_mask(BoxBounds(l, u), space.matrix)
            for i in np.nonzero(mask)[0]:
                row = table.row(int(i))
                by_name = dict(zip([s.name for s in schema], row))
                for clause in clauses:
                    assert clause.satisfied(by_name[clause.attribute]), (
                        trial, i, clause.text(), by_name)

    def test_full_range_always_empty_clause_list(self):
        rng = np.random.default_rng(4)
        schemas = [
            [AttributeSchema(name="a", kind="continuous")],
            [AttributeSchema(name="g", kind="ordered_discrete", levels=(1, 2))],
            [AttributeSchema(name="c", kind="categorical", categories=("p", "q", "r"))],
        ]
        for schema in schemas:
            if schema[0].kind == "continuous":
                cols = [rng.random(40)]
            elif schema[0].kind == "ordered_discrete":
                cols = [rng.choice([1.0, 2.0], 40)]
            else:
                cols = [np.asarray(rng.choice(["p", "q", "r"], 40), dtype=object)]
            space = encode(RawTable(schema, cols))
            d = space.matrix.shape[1]
            assert decode_bounds(np.zeros(d), np.ones(d), space) == []


class TestNontrivialAttributes:
    def test_counts_constraining_attributes_only(self):
        schema = [
            AttributeSchema(name="a", kind="continuous"),
            AttributeSchema(name="c", kind="categorical", categories=("x", "y")),
        ]
        rng = np.random.default_rng(5)
        table = RawTable(schema, [rng.random(30),
                                  np.asarray(rng.choice(["x", "y"], 30), dtype=object)])
        space = encode(table)
        l = np.array([0.0, 0.0, 0.0])
        u = np.array([1.0, 1.0, 1.0])
        assert nontrivial_attributes(l, u, space) == []
        u[0] = 0.7
        assert nontrivial_attributes(l, u, space) == [0]
        l[2] = 0.5
        assert nontrivial_attributes(l, u, space) == [0, 1]
