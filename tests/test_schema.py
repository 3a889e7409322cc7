"""Table loading, encoding, bound decoding, and discrete snapping."""

import functools
import importlib.util
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from maire import AttributeSchema, BoxBounds, cov_exact, decode_bounds, encode, load_schema, load_table, snap_discrete
from maire import OptimizerConfig, SyntheticOracle, explain
from maire.errors import InconsistentExplanationError, LoadError, SchemaError
from maire.explain import explain_many
from maire.indicator import inside_mask, pre_exact_or_none
from maire.schema import RawTable, nontrivial_attributes
from maire.synthetic import SHAPES


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

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, people_schema):
        # spreadsheet "CSV UTF-8" exports start with a BOM
        path = write(tmp_path, "t.csv", "\ufeffAge,Sex\n17,M\n30,F\n")
        assert load_table(path, people_schema).columns[0].tolist() == [17.0, 30.0]

    def test_unknown_category_names_cell(self, tmp_path, people_schema):
        path = write(tmp_path, "t.csv", "Age,Sex\n17,M\n30,X\n")
        with pytest.raises(LoadError, match=r"row 1.*Sex.*'X'"):
            load_table(path, people_schema)

    def test_empty_file(self, tmp_path, people_schema):
        path = write(tmp_path, "t.csv", "")
        with pytest.raises(LoadError, match="no rows"):
            load_table(path, people_schema)

    def test_header_only(self, tmp_path, people_schema):
        # "no rows" comes before any check of the header
        for text in ("Age,Sex\n", "Age\n"):
            path = write(tmp_path, "t.csv", text)
            with pytest.raises(LoadError, match="no rows"):
                load_table(path, people_schema)

    def test_missing_column(self, tmp_path, people_schema):
        path = write(tmp_path, "t.csv", "Age\n17\n")
        with pytest.raises(LoadError, match="Sex"):
            load_table(path, people_schema)

    def test_unparseable_cell(self, tmp_path, people_schema):
        # a number that does not parse is reported before any unknown category
        for text, row in (("Age,Sex\nseventeen,M\n", 0), ("Age,Sex\n17,X\nseventeen,M\n", 1)):
            path = write(tmp_path, "t.csv", text)
            with pytest.raises(LoadError, match=rf"row {row}.*Age.*unparseable"):
                load_table(path, people_schema)

    def test_label_column(self, tmp_path, people_schema):
        path = write(tmp_path, "t.csv", "Age,Sex,y\n17,M,0\n43,F,1\n")
        table = load_table(path, people_schema, label_column="y")
        assert table.labels.tolist() == [0, 1]

    def test_label_column_must_not_be_an_attribute(self, tmp_path, people_schema):
        path = write(tmp_path, "t.csv", "Age,Sex\n17,M\n43,F\n")
        with pytest.raises(LoadError, match="label column 'Age' is also a declared attribute"):
            load_table(path, people_schema, label_column="Age")

    def test_negative_labels(self, tmp_path, people_schema):
        path = write(tmp_path, "t.csv", "Age,Sex,y\n17,M,-1\n43,F,1.0\n")
        assert load_table(path, people_schema, label_column="y").labels.tolist() == [-1, 1]

    @pytest.mark.parametrize("cell, label", [("9007199254740993", 2 ** 53 + 1), ("2.0", 2),
                                             ("1e3", 1000), ("-9007199254740992.0", -2 ** 53)])
    def test_labels_read_exactly(self, tmp_path, people_schema, cell, label):
        path = write(tmp_path, "t.csv", f"Age,Sex,y\n17,M,0\n43,F,{cell}\n")
        assert load_table(path, people_schema, label_column="y").labels.tolist() == [0, label]

    @pytest.mark.parametrize("cell", ["1.5", "-0.5", "1e300", "nan", "one", "9007199254740993.0",
                                      "4503599627370496.5", "9223372036854775808"])
    def test_non_integer_label_names_row_and_column(self, tmp_path, people_schema, cell):
        path = write(tmp_path, "t.csv", f"Age,Sex,y\n17,M,0\n43,F,{cell}\n")
        with pytest.raises(LoadError, match=rf"row 1 column 'y'.*{cell!r} is not an integer"):
            load_table(path, people_schema, label_column="y")

    def test_repeated_header_column(self, tmp_path, people_schema):
        path = write(tmp_path, "t.csv", "Age,Sex,Age\n17,M,90\n43,F,91\n")
        with pytest.raises(LoadError, match=r"header row names column\(s\) \['Age'\] more than once"):
            load_table(path, people_schema)

    def test_unreadable_path_names_the_table(self, tmp_path, people_schema):
        # a directory opens for no reading
        with pytest.raises(LoadError, match=rf"cannot read table {re.escape(str(tmp_path))}"):
            load_table(str(tmp_path), people_schema)

    def test_undeclared_header_column_is_named(self, tmp_path, people_schema):
        path = write(tmp_path, "t.csv", "Age,Sex,Zip\n17,M,1000\n")
        with pytest.raises(LoadError, match=r"t\.csv: unexpected column\(s\) \['Zip'\]"):
            load_table(path, people_schema)

    def test_row_with_wrong_cell_count_is_named(self, tmp_path, people_schema):
        path = write(tmp_path, "t.csv", "Age,Sex\n17,M\n30\n")
        with pytest.raises(LoadError, match=r"t\.csv: row 1 has 1 cells, expected 2"):
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

    def test_byte_order_mark(self, tmp_path):
        path = write(tmp_path, "s.json", '\ufeff{"attributes": [{"name": "Age", "kind": "continuous"}]}')
        assert [a.name for a in load_schema(path)] == ["Age"]

    def test_file_that_is_not_json_is_named(self, tmp_path):
        with pytest.raises(LoadError, match=r"schema file .*s\.json is not valid JSON"):
            load_schema(write(tmp_path, "s.json", "attributes: []"))

    def test_file_declaring_no_attributes_is_named(self, tmp_path):
        with pytest.raises(LoadError, match=r"schema file .*s\.json declares no attributes"):
            load_schema(write(tmp_path, "s.json", '{"attributes": []}'))

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

    @pytest.mark.parametrize("ends, message", [
        ('["10", "9"]', "min < max"),
        ('[0, Infinity]', "finite"),
        ('[-Infinity, 1]', "finite"),
        ('[NaN, 1]', "finite"),
        ('[true, 2]', "must be numbers"),
        ('[0, false]', "must be numbers"),
    ], ids=["strings-reversed", "infinite-max", "infinite-min", "nan", "bool-min", "bool-max"])
    def test_bad_range_is_named(self, tmp_path, ends, message):
        """Each end of a range is converted before the ends are compared, so
        a range that only looks ordered, or holds a bool or a non-finite
        number, fails at load naming the file and the attribute."""
        text = '{"attributes": [{"name": "a", "kind": "continuous", "range": %s}]}' % ends
        path = write(tmp_path, "s.json", text)
        with pytest.raises(LoadError, match=rf"{re.escape(path)}: attribute 0: .*'a'.*{message}"):
            load_schema(path)

    @pytest.mark.parametrize("levels, message", [
        ('[1, NaN]', "finite"),
        ('[NaN, 1]', "finite"),
        ('[1, 2, Infinity]', "finite"),
        ('[-Infinity, 1]', "finite"),
        ('[true, 2]', "must be numbers"),
        ('[1, false]', "must be numbers"),
        ('["2", "1"]', "strictly increasing"),
    ], ids=["nan-last", "nan-first", "infinite-max", "infinite-min", "bool-first", "bool-last",
            "strings-reversed"])
    def test_bad_levels_are_named(self, tmp_path, levels, message):
        """Ordered levels are checked as a range is: a bool or a non-finite
        level fails at load, naming the file and the attribute, before the
        levels are compared (NaN compares false, so it passed the order test)."""
        text = '{"attributes": [{"name": "o", "kind": "ordered_discrete", "levels": %s}]}' % levels
        path = write(tmp_path, "s.json", text)
        with pytest.raises(LoadError, match=rf"{re.escape(path)}: attribute 0: .*'o'.*{message}"):
            load_schema(path)

    def test_numeric_string_levels_are_converted(self, tmp_path):
        path = write(tmp_path, "s.json",
                     '{"attributes": [{"name": "o", "kind": "ordered_discrete", "levels": ["1", "2"]}]}')
        assert load_schema(path)[0].levels == (1.0, 2.0)

    @pytest.mark.parametrize("entry, message", [
        ('{"name": "a", "kind": "continuous", "rnage": [0, 1]}', "'rnage'"),
        ('{"name": "a", "kind": "continuous", "levels": [1, 2]}', "'levels'"),
        ('{"name": "a", "kind": "ordered_discrete", "levels": [1, 2], "range": [0, 5]}', "'range'"),
        ('{"name": "a", "kind": "categorical", "categories": ["M"], "levels": [1]}', "'levels'"),
        ('{"name": "a", "kind": "continuous", "range": [0, 1], "note": "x", "bins": 3}',
         "'bins', 'note'"),
        ('{"name": "a", "kind": "continuous", "range": []}', "range must be \\[min, max\\]"),
        ('{"name": "a", "kind": "continuous", "range": [0, 1, 2]}', "range must be \\[min, max\\]"),
        ('{"name": "a", "kind": "continuous", "range": "01"}', "'range' must be a list"),
        ('{"name": "a", "kind": "continuous", "range": null}', "'range' must be a list"),
        ('{"name": "a", "kind": "ordered_discrete", "levels": []}', "needs levels"),
    ], ids=["misspelled", "levels-on-continuous", "range-on-ordered", "levels-on-categorical",
            "two-unknown", "empty-range", "three-ends", "range-string", "range-null",
            "empty-levels"])
    def test_key_not_read_is_named(self, tmp_path, entry, message):
        """An entry holds name, kind and its kind's own key; any other key, and
        an own key that is present but empty or not a list, fails at load."""
        path = write(tmp_path, "s.json", '{"attributes": [{"name": "b", "kind": "continuous"}, %s]}'
                     % entry)
        with pytest.raises(LoadError, match=rf"{re.escape(path)}: attribute 1: .*{message}"):
            load_schema(path)

    def test_numeric_string_range_is_converted(self, tmp_path):
        path = write(tmp_path, "s.json",
                     '{"attributes": [{"name": "a", "kind": "continuous", "range": ["9", "10"]}]}')
        assert load_schema(path)[0].value_range == (9.0, 10.0)

    def test_invalid_declarations(self):
        with pytest.raises(SchemaError):
            AttributeSchema(name="x", kind="ordered_discrete", levels=(3, 1, 2))
        with pytest.raises(SchemaError):
            AttributeSchema(name="x", kind="categorical", categories=("A", "A"))
        with pytest.raises(SchemaError):
            AttributeSchema(name="x", kind="categorical", categories=("A", ""))
        with pytest.raises(SchemaError):
            AttributeSchema(name="x", kind="interval")

    @pytest.mark.parametrize("name, kind, fields, extra", [
        ("a", "continuous", {"levels": (1, math.nan), "categories": ("x",)}, "levels"),
        ("a", "continuous", {"categories": ("x",)}, "categories"),
        ("b", "ordered_discrete", {"levels": (1, 2), "value_range": (0, 5)}, "value_range"),
        ("c", "categorical", {"categories": ("x", "y"), "value_range": (5, 0)}, "value_range"),
        ("c", "categorical", {"categories": ("x", "y"), "levels": (1, 2)}, "levels"),
    ])
    def test_kind_holds_only_its_own_field(self, name, kind, fields, extra):
        with pytest.raises(SchemaError, match=rf"attribute '{name}': a {kind} attribute "
                                              rf"holds no {extra}$"):
            AttributeSchema(name=name, kind=kind, **fields)


@pytest.mark.parametrize("load, text, what", [
    (load_table, b"Age,Sex\n17,M\n30,\xe9\n", "table"),
    (load_schema, b'{"attributes": [{"name": "\xc2ge", "kind": "continuous"}]}', "schema file"),
], ids=["table", "schema"])
def test_file_that_is_not_utf8_is_named(tmp_path, people_schema, load, text, what):
    path = tmp_path / "latin1"
    path.write_bytes(text)  # Latin-1 "é" and "Â"
    args = (str(path), people_schema) if load is load_table else (str(path),)
    with pytest.raises(LoadError, match=rf"{what} {re.escape(str(path))} is not UTF-8"):
        load(*args)


def test_load_and_encode_hold_little_beyond_the_matrix(tmp_path):
    """Rows are typed as they are read and each attribute is encoded in
    place, so loading never holds the file's text or a second matrix."""
    tables = bench_tables()
    csv_path, schema_path = tables.write_table(tables.population(5000, 7), tmp_path)
    schema = load_schema(str(schema_path))
    tracemalloc.start()
    try:
        space = encode(load_table(str(csv_path), schema), schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * space.matrix.nbytes


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

    def test_unhashable_category_names_row_and_column(self, people_schema):
        sex = np.empty(3, dtype=object)
        sex[:] = ["M", ["F"], "M"]
        table = RawTable(people_schema, [np.array([17.0, 30.0, 43.0]), sex])
        with pytest.raises(SchemaError, match=r"row 1 column 'Sex': unknown category \['F'\]"):
            encode(table)
        table.columns[1][1] = "F"
        with pytest.raises(SchemaError, match=r"query column 'Sex': unknown category \['M'\]"):
            encode(table).encode_instance([20.0, ["M"]])

    def test_query_errors_name_the_query_and_column(self, people_schema):
        table = RawTable(people_schema, [np.array([17.0, 30.0]),
                                         np.asarray(["M", "F"], dtype=object)])
        space = encode(table)
        with pytest.raises(SchemaError, match=r"query column 'Sex': unknown category 'X'"):
            space.encode_instance([20.0, "X"])

    NUMERIC = [AttributeSchema(name="a", kind="continuous"),
               AttributeSchema(name="g", kind="ordered_discrete", levels=(1, 2, 3))]

    def numeric_table(self, column=None, bad=None):
        """A continuous column 'a' and an ordered column 'g', object arrays
        as built in Python, with ``bad`` in row 1 of ``column``."""
        cells = {"a": [0.1, 0.5, 0.9], "g": [1.0, 2.0, 3.0]}
        if column:
            cells[column][1] = bad
        return RawTable(self.NUMERIC, [np.asarray(cells[c], dtype=object) for c in ("a", "g")])

    @pytest.mark.parametrize("column", ["a", "g"])
    @pytest.mark.parametrize("bad", [True, None, "abc"])
    def test_non_number_in_a_table_names_row_and_column(self, column, bad):
        message = rf"row 1 column '{column}': value {re.escape(repr(bad))} is not a number"
        with pytest.raises(SchemaError, match=message):
            encode(self.numeric_table(column, bad))

    @pytest.mark.parametrize("column", ["a", "g"])
    @pytest.mark.parametrize("bad", [True, None, "abc"])
    def test_non_number_in_a_query_names_the_column(self, column, bad):
        space = encode(self.numeric_table())
        query = {"a": 0.5, "g": 2.0, column: bad}
        message = rf"query column '{column}': value {re.escape(repr(bad))} is not a number"
        with pytest.raises(SchemaError, match=message):
            space.encode_instance([query["a"], query["g"]])

    def test_numeric_strings_encode_as_their_numbers(self):
        space = encode(self.numeric_table("a", "0.5"))
        assert space.matrix[1, 0] == 0.5
        assert space.encode_instance(["0.9", "3"]).tolist() == [1.0, 0.75]

    def test_level_within_tolerance_encodes_as_query_does(self):
        schema = [AttributeSchema(name="g", kind="ordered_discrete", levels=(1, 2, 3))]
        near = 2.0 + 5e-10
        space = encode(RawTable(schema, [np.array([1.0, near, 3.0])]))
        assert space.matrix[1, 0] == space.encode_instance([near])[0] == 2 / 4

    @staticmethod
    def age_income():
        age = AttributeSchema(name="age", kind="continuous")
        income = AttributeSchema(name="income", kind="continuous")
        return age, income, RawTable([age, income], [np.array([20.0, 30.0, 40.0]),
                                                     np.array([1.0, 2.0, 3.0])])

    def test_schema_must_name_the_tables_attributes_in_order(self):
        age, income, table = self.age_income()
        assert encode(table, [age, income]).normalizers == {0: (20.0, 40.0), 1: (1.0, 3.0)}
        # reordered, age's range would be fitted under income; shortened,
        # income would be dropped
        for schema in ([income, age], [age]):
            with pytest.raises(SchemaError, match="'income'"):
                encode(table, schema)

    def test_explain_checks_the_schema(self):
        age, income, table = self.age_income()
        with pytest.raises(SchemaError, match="'income'"):
            explain([30.0], table, SyntheticOracle(SHAPES["rect"]), [age])

    def test_attribute_without_a_column_is_named(self):
        age, income, _ = self.age_income()
        with pytest.raises(SchemaError, match="1 column.*'income'"):
            encode(RawTable([age, income], [np.array([20.0, 30.0, 40.0])]))

    def test_table_without_attributes_is_rejected(self):
        with pytest.raises(SchemaError, match=r"0 column\(s\) for attributes \[\]"):
            encode(RawTable([], []))

    def test_column_of_another_length_is_named(self):
        age, income, _ = self.age_income()
        table = RawTable([age, income], [np.array([20.0, 30.0, 40.0]), np.array([1.0, 2.0])])
        with pytest.raises(SchemaError, match="column 'income' has 2 values, but column 'age' has 3"):
            encode(table)

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

    def test_one_hot_strict_subset_lists_categories_in_declared_order(self):
        schema = [AttributeSchema(name="region", kind="categorical",
                                  categories=("north", "south", "east"))]
        space = encode(RawTable(schema, [np.asarray(["north", "south", "east"], dtype=object)]))
        # south's column excludes the value 1, so north and east remain
        clauses = decode_bounds(np.zeros(3), np.array([1.0, 0.4, 1.0]), space)
        assert [(c.form, c.categories) for c in clauses] == [("category_set", ("north", "east"))]
        assert clauses[0].text() == "region ∈ {north, east}"

    def test_no_admissible_category_raises(self):
        space = self.make_space()
        l = np.array([0.0, 0.0, 0.0, 0.0])
        u = np.array([1.0, 1.0, 0.4, 0.4])  # both one-hot columns exclude 1
        with pytest.raises(InconsistentExplanationError, match="Sex"):
            decode_bounds(l, u, space)

    def test_ordered_bounds_between_two_levels_raise(self):
        space = self.make_space()
        # Grade's levels sit at 1/6, 2/6, ..., 5/6: none lies in [0.35, 0.45]
        l = np.array([0.0, 0.35, 0.0, 0.0])
        u = np.array([1.0, 0.45, 1.0, 1.0])
        with pytest.raises(InconsistentExplanationError, match="'Grade'.*no declared level"):
            decode_bounds(l, u, space)

    def test_interval_in_raw_units(self):
        space = self.make_space()
        clauses = decode_bounds(np.array([0.25, 0, 0, 0]), np.array([0.75, 1, 1, 1]), space)
        c = clauses[0]
        assert c.form == "interval"
        assert (c.lo, c.hi) == pytest.approx((17 + 0.25 * 26, 17 + 0.75 * 26))
        assert c.text() == "23.50 ≤ Age ≤ 36.50"
        # a side at the edge of the range is left out
        clauses = decode_bounds(np.array([0.25, 0, 0, 0]), np.array([1.0, 1, 1, 1]), space)
        assert clauses[0].text() == "Age ≥ 23.50"

    def test_requires_ordered_pair(self):
        space = self.make_space()
        with pytest.raises(ValueError):
            decode_bounds(np.full(4, 0.9), np.full(4, 0.1), space)


class TestSnapDiscrete:
    def make_space(self, rng, n=300, categories=("x", "y", "z")):
        schema = [
            AttributeSchema(name="a", kind="continuous"),
            AttributeSchema(name="g", kind="ordered_discrete", levels=(1, 2, 3, 4, 5)),
            AttributeSchema(name="c", kind="categorical", categories=categories),
        ]
        table = RawTable(schema, [
            rng.random(n),
            rng.choice([1.0, 2.0, 3.0, 4.0, 5.0], n),
            np.asarray(rng.choice(categories, n), dtype=object),
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

    @pytest.mark.parametrize("lo, hi, categories, one_hot_l", [
        (0.1, 0.9, ("x", "y", "z"), 0.0),
        (1 / 6, 5 / 6, ("x", "y", "z"), 0.0),
        # a lone category's column holds only 1, so admitting 1 admits every row
        (1 / 6, 5 / 6, ("x",), 1.0),
    ], ids=["between", "on", "lone-category"])
    def test_ordered_axis_admitting_every_level_is_widened(self, lo, hi, categories, one_hot_l):
        space = self.make_space(np.random.default_rng(0), categories=categories)
        l = np.array([0.3, lo] + [one_hot_l] * len(categories))
        u = np.array([0.9, hi] + [1.0] * len(categories))
        snapped = snap_discrete(BoxBounds(l, u), space)
        assert (snapped.l[1:] == 0.0).all() and (snapped.u[1:] == 1.0).all()
        assert nontrivial_attributes(snapped.l, snapped.u, space) == [0]
        assert [c.attribute for c in decode_bounds(snapped.l, snapped.u, space)] == ["a"]

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
            AttributeSchema(name="c", kind="categorical", categories=("w", "x", "y", "z")),
        ]
        for trial in range(20):
            n = 150
            table = RawTable(schema, [
                rng.random(n) * 9 + 1,
                rng.choice([10.0, 20.0, 30.0], n),
                np.asarray(rng.choice(["w", "x", "y", "z"], n), dtype=object),
            ])
            space = encode(table)
            d = space.matrix.shape[1]
            a, b = rng.random(d), rng.random(d)
            l, u = np.minimum(a, b), np.maximum(a, b)
            # anchor to a random row so one-hot groups stay consistent
            anchor = space.matrix[rng.integers(n)]
            l, u = np.minimum(l, anchor), np.maximum(u, anchor)
            if trial % 2:
                # admit a strict subset of two or more of the categories
                cols = space.columns_of(2)
                keep = rng.permutation(cols.size)[:rng.integers(2, cols.size)]
                l[cols] = 0.0
                u[cols] = 0.99 * rng.random(cols.size)
                u[cols[keep]] = 1.0
            clauses = decode_bounds(l, u, space)
            mask = inside_mask(BoxBounds(l, u), space.matrix)
            for i in range(n):
                by_name = dict(zip([s.name for s in schema], table.row(i)))
                # inside the box exactly when every clause holds
                satisfied = all(c.satisfied(by_name[c.attribute]) for c in clauses)
                assert satisfied == mask[i], (trial, i, [c.text() for c in clauses], by_name)

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


def written_rows(text, schema, columns):
    """The rows of raw ``columns`` that a written rule admits, read from its
    text alone."""
    kind = {a.name: a.kind for a in schema}
    column = {a.name: c for a, c in zip(schema, columns)}
    rows = np.ones(len(columns[0]), dtype=bool)
    for clause in ([] if text == "TRUE" else text.split(" ∧ ")):
        between = re.fullmatch(r"(\S+) ≤ (\w+) ≤ (\S+)", clause)
        if between:
            lo, name, hi = between.groups()
            v = column[name].astype(np.float64)
            rows &= (float(lo) <= v) & (v <= float(hi))
            continue
        name, op, rhs = re.fullmatch(r"(\w+) ([≤≥=∈]) (.+)", clause).groups()
        v = column[name]
        if op == "∈":
            rows &= np.asarray([x in rhs[1:-1].split(", ") for x in v])
        elif kind[name] == "categorical":
            rows &= v == rhs
        else:
            v = v.astype(np.float64)
            rows &= {"≤": v <= float(rhs), "≥": v >= float(rhs), "=": v == float(rhs)}[op]
    return rows


@functools.cache
def bench_tables():
    """The bench's table generator, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tables.py"
    spec = importlib.util.spec_from_file_location("bench_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_schema(tables):
    """The bench table's schema, read from its record."""
    return [AttributeSchema(a["name"], a["kind"], levels=a.get("levels"),
                            categories=a.get("categories"), value_range=a.get("range"))
            for a in tables.schema_record()["attributes"]]


class TestWrittenRules:
    """A written rule, parsed and applied to the raw table, admits exactly
    the rows of its box."""

    @pytest.fixture(scope="class")
    def population(self, tmp_path_factory):
        """A 300-row bench-population table as the CLI reads it, its encoding
        and its labels."""
        tables = bench_tables()
        csv_path, schema_path = tables.write_table(tables.population(300, 7),
                                                   tmp_path_factory.mktemp("population"))
        schema = load_schema(str(schema_path))
        table = load_table(str(csv_path), schema)
        space = encode(table, schema)
        return schema, table, space, tables.label_encoded(space.matrix)

    @pytest.fixture(scope="class")
    def explanations(self, population):
        """Explanations of 24 rows of the population at K = 2 and K = 4."""
        _, _, space, labels = population
        rows = np.random.default_rng(0).choice(len(labels), 24, replace=False)
        return [expl for max_attrs in (2, 4)
                for expl in explain_many(space.matrix[rows], space, labels, labels[rows].tolist(),
                                         OptimizerConfig(max_iters=300), max_attrs=max_attrs)]

    def test_explanations_of_the_bench_population(self, population, explanations):
        schema, table, space, _ = population
        for expl in explanations:
            np.testing.assert_array_equal(
                written_rows(expl.rule_text(), schema, table.columns),
                inside_mask(expl.bounds, space.matrix), err_msg=expl.rule_text())

    def test_attributes_counted_against_the_cap_are_the_clauses_written(self, population,
                                                                         explanations):
        space = population[2]
        for expl in explanations:
            assert len(nontrivial_attributes(expl.bounds.l, expl.bounds.u, space)) == \
                len(expl.clauses), expl.rule_text()

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300), fitted=st.booleans())
    def test_drawn_boxes(self, seed, n, fitted):
        """Boxes with bounds drawn at random, on data values and on the range's
        edges, on bench-population tables and on tables of full-precision
        continuous values with fitted ranges."""
        rng = np.random.default_rng(seed)
        tables = bench_tables()
        schema = bench_schema(tables)
        columns = tables.population(n, int(rng.integers(1000)))
        if fitted:
            schema[:6] = [AttributeSchema(name=a.name, kind="continuous") for a in schema[:6]]
            columns[:6] = [rng.normal(size=n) * 10.0 ** rng.integers(-3, 4) for _ in range(6)]
        table = RawTable(schema, columns)
        space = encode(table)
        X = space.matrix
        d = X.shape[1]
        # per bound: random, on a data value, on the range's edge, or the anchor's
        picks = rng.integers(0, 4, (2, d))
        on_data = X[rng.integers(n, size=(2, d)), np.arange(d)]
        drawn = [np.select([p == 0, p == 1, p == 2], [rng.random(d), data, edge], np.nan)
                 for p, data, edge in zip(picks, on_data, (0.0, 1.0))]
        anchor = X[rng.integers(n)]  # keeps every one-hot group satisfiable
        l = np.fmin(np.fmin(*drawn), anchor)
        u = np.fmax(np.fmax(*drawn), anchor)
        bounds = snap_discrete(BoxBounds(l, u), space)
        clauses = decode_bounds(bounds.l, bounds.u, space)
        text = " ∧ ".join(c.text() for c in clauses) or "TRUE"
        inside = inside_mask(bounds, X)
        np.testing.assert_array_equal(written_rows(text, schema, table.columns), inside,
                                      err_msg=text)
        by_name = dict(zip([a.name for a in schema], columns))
        np.testing.assert_array_equal(
            [all(c.satisfied(by_name[c.attribute][r]) for c in clauses) for r in range(n)],
            inside, err_msg=text)
