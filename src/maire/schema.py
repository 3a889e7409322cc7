"""Tabular schema handling: load, normalize, encode, and decode box bounds.

Continuous attributes are min-max normalized into [0, 1]; ordered discrete
levels are placed at the interior positions (i+1)/(m+1), so no level sits on
a box boundary at initialization; categorical attributes expand to one-hot
0/1 columns.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import logging
import math
from array import array
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation

import numpy as np

from .errors import InconsistentExplanationError, LoadError, SchemaError
from .indicator import BoxBounds

log = logging.getLogger(__name__)

KINDS = ("continuous", "ordered_discrete", "categorical")
# per kind: the one key a schema file entry holds besides name and kind, the
# AttributeSchema field it fills, and the entry's allowed keys
_OWN_KEY = {kind: (key, fld, frozenset(("name", "kind", key))) for kind, key, fld in (
    ("continuous", "range", "value_range"), ("ordered_discrete", "levels", "levels"),
    ("categorical", "categories", "categories"))}
_BOOLS = frozenset((bool, np.bool_))


@dataclass(frozen=True)
class AttributeSchema:
    """Declaration of one raw attribute.

    ``levels`` (strictly increasing) applies to ordered_discrete,
    ``categories`` (unique, non-empty) to categorical, and ``value_range``
    to continuous, and no other kind holds it; a missing range is fitted
    from the training table.
    """

    name: str
    kind: str
    levels: tuple[float, ...] | None = None
    categories: tuple[str, ...] | None = None
    value_range: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SchemaError(f"attribute {self.name!r}: unknown kind {self.kind!r}")
        for fld in ("levels", "categories", "value_range"):
            if fld != _OWN_KEY[self.kind][1] and getattr(self, fld) is not None:
                raise SchemaError(f"attribute {self.name!r}: a {self.kind} attribute holds no {fld}")
        if self.kind == "ordered_discrete":
            if not self.levels:
                raise SchemaError(f"attribute {self.name!r}: ordered_discrete needs levels")
            levels = self._numbers(self.levels, "levels")
            if any(a >= b for a, b in zip(levels, levels[1:])):
                raise SchemaError(f"attribute {self.name!r}: levels must be strictly increasing")
            object.__setattr__(self, "levels", levels)
        if self.kind == "categorical":
            if not self.categories:
                raise SchemaError(f"attribute {self.name!r}: categorical needs categories")
            object.__setattr__(self, "categories", tuple(str(c) for c in self.categories))
            if any(not c for c in self.categories) or len(set(self.categories)) != len(self.categories):
                raise SchemaError(f"attribute {self.name!r}: categories must be unique and non-empty")
        if self.value_range is not None:
            if len(self.value_range) != 2:
                raise SchemaError(f"attribute {self.name!r}: range must be [min, max]")
            lo, hi = self._numbers(self.value_range, "range ends")
            if not lo < hi:
                raise SchemaError(f"attribute {self.name!r}: range must satisfy min < max")
            object.__setattr__(self, "value_range", (lo, hi))

    def _numbers(self, values, what: str) -> tuple[float, ...]:
        """``values`` converted to float; a bool or a non-finite value is a SchemaError."""
        if not _BOOLS.isdisjoint(map(type, values)):
            raise SchemaError(f"attribute {self.name!r}: {what} must be numbers")
        out = tuple(map(float, values))
        if not all(map(math.isfinite, out)):
            raise SchemaError(f"attribute {self.name!r}: {what} must be finite")
        return out


def load_schema(path: str) -> list[AttributeSchema]:
    """Read an attribute declaration file: {"attributes": [{name, kind, ...}]}."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise LoadError(f"cannot read schema file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise LoadError(f"schema file {path} is not UTF-8: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise LoadError(f"schema file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("attributes"), list):
        raise LoadError(f"schema file {path} must be an object with an 'attributes' list")
    attrs = []
    for i, entry in enumerate(raw["attributes"]):
        where = f"schema file {path}: attribute {i}"
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str) and "kind" in entry):
            raise LoadError(f"{where} must be an object with a 'name' string and a 'kind'")
        if any(a.name == entry["name"] for a in attrs):
            raise LoadError(f"{where}: name {entry['name']!r} is declared twice")
        if entry["kind"] not in KINDS:
            raise LoadError(f"{where}: unknown kind {entry['kind']!r}")
        key, field_name, allowed = _OWN_KEY[entry["kind"]]
        if not allowed.issuperset(entry):
            extra = ", ".join(map(repr, sorted(entry.keys() - allowed)))
            raise LoadError(f"{where}: unexpected key(s) {extra}; "
                            f"a {entry['kind']} attribute holds name, kind and {key}")
        if key in entry and not isinstance(entry[key], list):
            raise LoadError(f"{where}: {key!r} must be a list")
        try:
            own = {field_name: tuple(entry[key])} if key in entry else {}
            attrs.append(AttributeSchema(name=entry["name"], kind=entry["kind"], **own))
        except (SchemaError, TypeError, ValueError) as exc:
            raise LoadError(f"{where}: {exc}") from exc
    if not attrs:
        raise LoadError(f"schema file {path} declares no attributes")
    return attrs


@dataclass
class RawTable:
    """Typed columns aligned with a schema; one list entry per attribute."""

    attributes: list[AttributeSchema]
    columns: list[np.ndarray]
    labels: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        return len(self.columns[0])

    def row(self, i: int) -> list:
        return [col[i] for col in self.columns]


def load_table(path: str, schema: list[AttributeSchema], label_column: str | None = None) -> RawTable:
    """Parse a CSV (UTF-8, optionally with a byte-order mark; header row;
    comma separator) against a schema.

    Column names must match the schema exactly, plus ``label_column`` when
    given, which must not name an attribute. Errors name the offending row
    and column. Rows are typed as they are read, so the file's text is
    never held whole.
    """
    if label_column in {a.name for a in schema}:
        raise LoadError(f"table {path}: label column {label_column!r} is also a declared attribute")
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            return _read_table(path, csv.reader(fh), schema, label_column)
    except OSError as exc:
        raise LoadError(f"cannot read table {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise LoadError(f"table {path} is not UTF-8: {exc.reason}") from exc


def _read_table(path: str, reader, schema: list[AttributeSchema],
                label_column: str | None) -> RawTable:
    """The typed columns of a CSV reader's rows, checked as ``load_table`` says."""
    header, first = next(reader, None), next(reader, None)
    if first is None:
        raise LoadError(f"table {path}: no rows")

    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise LoadError(f"table {path}: header row names column(s) {repeated} more than once")
    expected = [a.name for a in schema] + ([label_column] if label_column else [])
    missing = [name for name in expected if name not in header]
    if missing:
        raise LoadError(f"table {path}: missing column(s) {missing}")
    extra = [name for name in header if name not in expected]
    if extra:
        raise LoadError(f"table {path}: unexpected column(s) {extra}")

    # numeric cells are read as floats, and a categorical cell as its
    # schema's own category object when it names one; a category or level
    # that is not declared is reported once every row is read
    columns = [[] if a.kind == "categorical" else array("d") for a in schema]
    numeric = [(header.index(a.name), column, a.name)
               for a, column in zip(schema, columns) if a.kind != "categorical"]
    named = [(header.index(a.name), column, {c: c for c in a.categories})
             for a, column in zip(schema, columns) if a.kind == "categorical"]
    labels = array("q")
    at_label = header.index(label_column) if label_column else None
    for r, row in enumerate(itertools.chain([first], reader)):
        if len(row) != len(header):
            raise LoadError(f"table {path}: row {r} has {len(row)} cells, expected {len(header)}")
        for at, column, name in numeric:
            try:
                column.append(float(row[at]))
            except ValueError as exc:
                raise LoadError(
                    f"table {path}: row {r} column {name!r}: unparseable cell {row[at]!r}") from exc
        for at, column, category in named:
            cell = row[at]
            column.append(category.get(cell, cell))
        if at_label is not None:
            cell = row[at_label]
            value = _label(cell)
            if value is None:
                raise LoadError(
                    f"table {path}: row {r} column {label_column!r}: label {cell!r} is not an integer")
            labels.append(value)

    typed = []
    for attr, column in zip(schema, columns):
        col = (np.asarray(column, dtype=object) if attr.kind == "categorical"
               else np.frombuffer(column))
        if attr.kind != "continuous":
            try:
                codes = _codes(attr, col)
            except SchemaError as exc:
                raise LoadError(f"table {path}: {exc}") from exc
            if attr.kind == "ordered_discrete":
                col = np.asarray(attr.levels)[codes]  # each value snapped onto its level
        typed.append(col)
    return RawTable(list(schema), typed,
                    np.frombuffer(labels, dtype=np.int64) if label_column else None)


def _label(cell: str) -> int | None:
    """A label cell's integer, read exactly. A float-form cell (``2.0``,
    ``1e3``) counts only when its decimal value is an integer of magnitude at
    most 2**53, so no cell is read as a float it merely rounds to. None for
    any other cell, or one outside the 64-bit range."""
    try:
        value = int(cell)
    except ValueError:
        try:
            number = Decimal(cell)
        except InvalidOperation:
            return None
        if not (number.is_finite() and abs(number) <= 2 ** 53
                and number == number.to_integral_value()):
            return None
        value = int(number)
    return value if -2 ** 63 <= value < 2 ** 63 else None


def _value_error(attr: AttributeSchema, row: int, query: bool, problem: str) -> SchemaError:
    """The error for a bad value at a row (or in the query) of a column."""
    return SchemaError(f"{'query' if query else f'row {row}'} column {attr.name!r}: {problem}")


def _codes(attr: AttributeSchema, values: np.ndarray, query: bool = False) -> np.ndarray:
    """Index of each value's category, or of the declared level within 1e-9
    of it; a value with none raises a SchemaError naming its row (or the
    query) and column."""
    if attr.kind == "categorical":
        index = {c: t for t, c in enumerate(attr.categories)}
        # categories are strings, so a value of any other type (an unhashable
        # one too) is unknown
        codes = np.asarray([index.get(v, -1) if isinstance(v, str) else -1 for v in values],
                           dtype=np.intp)
        bad = codes < 0
        what = "unknown category {!r}"
    else:
        gap = np.abs(values[:, None] - np.asarray(attr.levels))
        codes = gap.argmin(axis=1)
        bad = ~(gap.min(axis=1) <= 1e-9)
        what = "value {!r} is not a declared level"
    if bad.any():
        r = int(np.argmax(bad))
        value = values[r].item() if isinstance(values[r], np.generic) else values[r]
        raise _value_error(attr, r, query, what.format(value))
    return codes


def _numbers(attr: AttributeSchema, raw, query: bool) -> np.ndarray:
    """A continuous or ordered attribute's values as floats. A float or
    integer array, as ``load_table`` gives, is taken as it is. Otherwise a
    value that is a bool, a None or a string that does not parse as a number
    raises a SchemaError naming its row (or the query) and column."""
    if isinstance(raw, np.ndarray) and raw.dtype.kind in "iuf":
        return np.asarray(raw, dtype=np.float64)
    values = np.asarray(raw, dtype=object).tolist()
    out = np.empty(len(values))
    for r, v in enumerate(values):
        if not isinstance(v, (bool, np.bool_)):
            try:
                out[r] = float(v)
                continue
            except (TypeError, ValueError):
                pass
        raise _value_error(attr, r, query, f"value {v!r} is not a number")
    return out


def _positions(attr: AttributeSchema) -> tuple[float, ...]:
    """Encoded positions of an ordered attribute's levels: (t+1)/(m+1)."""
    m = len(attr.levels)
    return tuple((t + 1) / (m + 1) for t in range(m))


def _width(attr: AttributeSchema) -> int:
    """Number of encoded columns of an attribute."""
    return len(attr.categories) if attr.kind == "categorical" else 1


def _encode_attribute(
    attr: AttributeSchema,
    raw,
    out: np.ndarray,
    value_range: tuple[float, float] | None = None,
    query: bool = False,
) -> tuple[tuple[float, float] | None, int]:
    """Write the encoded columns of one attribute's raw values into ``out``,
    their (n, width) block of the matrix.

    Returns the (min, max) a continuous attribute was scaled by and the
    number of values clamped into [0, 1]. The range is ``value_range``, else
    the declared one, else fitted to the values. Ordered values go to the
    position of their level and categories expand to one-hot columns. Errors
    name the row (the query with ``query``) and the column.
    """
    if attr.kind == "categorical":
        out[:] = _codes(attr, raw, query)[:, None] == np.arange(len(attr.categories))
        return None, 0
    values = _numbers(attr, raw, query)
    if attr.kind == "ordered_discrete":
        out[:, 0] = np.asarray(_positions(attr))[_codes(attr, values, query)]
        return None, 0
    finite = np.isfinite(values)
    if not finite.all():
        r = int(np.argmin(finite))
        raise _value_error(attr, r, query, f"non-finite value {values[r]}")
    lo, hi = value_range or attr.value_range or (float(values.min()), float(values.max()))
    if lo >= hi:
        raise SchemaError(f"attribute {attr.name!r}: constant column cannot be normalized")
    z = out[:, 0]
    z[:] = (values - lo) / (hi - lo)
    clamped = int(((z < 0.0) | (z > 1.0)).sum())
    if clamped:
        log.warning("clamp: attribute %r: %d value(s) outside fitted range [%s, %s]",
                    attr.name, clamped, lo, hi)
        np.clip(z, 0.0, 1.0, out=z)
    return (lo, hi), clamped


@dataclass
class EncodedSpace:
    """Normalized, one-hot-expanded feature matrix plus the way back.

    Every matrix entry lies in [0, 1]; ``attr_of`` gives the index of the
    attribute each encoded column belongs to, and an attribute's columns
    are contiguous and in declaration order (one-hot columns in category
    order); ``normalizers`` holds the fitted (min, max) per continuous
    attribute in raw units, and ``raw_values`` its raw value per row (the
    table's own array where it held floats), which ``decode_bounds`` writes
    bounds to separate.

    ``encode`` stores ``matrix`` column-major (Fortran order), because the
    exact measures, the elimination and the oracles scan the table one
    column at a time. The layout affects speed only, never results.
    """

    matrix: np.ndarray
    attr_of: np.ndarray
    attributes: list[AttributeSchema]
    normalizers: dict[int, tuple[float, float]]
    clamp_warnings: int = 0
    raw_values: dict[int, np.ndarray] = field(default_factory=dict)

    @functools.cached_property
    def _discrete_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """The discrete (ordered and one-hot) columns and their declared
        positions, one NaN-padded row per column."""
        cols, levels = [], []
        for j, i in enumerate(self.attr_of):
            attr = self.attributes[i]
            if attr.kind != "continuous":
                cols.append(j)
                if attr.kind == "ordered_discrete":
                    levels.append(_positions(attr))
                else:  # a lone category's column holds only 1
                    levels.append((0.0, 1.0) if len(attr.categories) > 1 else (1.0,))
        P = np.full((len(cols), max(map(len, levels), default=0)), np.nan)
        for row, v in zip(P, levels):
            row[:len(v)] = v
        return np.asarray(cols, dtype=np.intp), P

    def columns_of(self, attr_index: int) -> np.ndarray:
        """Encoded column indices belonging to one raw attribute."""
        return np.flatnonzero(self.attr_of == attr_index)

    def encode_instance(self, values) -> np.ndarray:
        """Encode one raw instance (sequence aligned with the attributes)."""
        if len(values) != len(self.attributes):
            raise SchemaError(f"instance has {len(values)} values, expected {len(self.attributes)}")
        row = np.empty((1, len(self.attr_of)))
        stop = 0
        for i, (attr, v) in enumerate(zip(self.attributes, values)):
            start, stop = stop, stop + _width(attr)
            raw = np.empty(1, dtype=object)
            raw[0] = v
            _, clamped = _encode_attribute(attr, raw, row[:, start:stop], self.normalizers.get(i),
                                           query=True)
            self.clamp_warnings += clamped
        return row[0]


def encode(table: RawTable, schema: list[AttributeSchema] | None = None) -> EncodedSpace:
    """Build the encoded space from a raw table, fitting continuous ranges.

    ``schema``, when given, must name the table's attributes in the table's
    order, and the table must hold one 1-D column of equal length for each;
    else a SchemaError names the attribute.
    """
    attrs = list(schema) if schema is not None else list(table.attributes)
    names, own = [a.name for a in attrs], [a.name for a in table.attributes]
    if names != own:
        raise SchemaError(f"schema attributes {names} are not the table's {own}")
    if not attrs or len(table.columns) != len(attrs):
        raise SchemaError(f"table has {len(table.columns)} column(s) for attributes {names}")
    for name, column in zip(names, table.columns):
        shape = np.shape(column)
        if len(shape) != 1:
            raise SchemaError(f"column {name!r} has shape {shape}; a column holds one value per row")
        if shape != (table.n_rows,):
            raise SchemaError(f"column {name!r} has {shape[0]} values, "
                              f"but column {names[0]!r} has {table.n_rows}")
    widths = [_width(attr) for attr in attrs]
    attr_of = np.repeat(np.arange(len(attrs), dtype=np.intp), widths)
    # each attribute's block is written in place, into its columns
    matrix = np.empty((table.n_rows, len(attr_of)), order="F")
    normalizers: dict[int, tuple[float, float]] = {}
    raw_values: dict[int, np.ndarray] = {}
    clamps = stop = 0
    for i, attr in enumerate(attrs):
        start, stop = stop, stop + widths[i]
        raw = table.columns[i]
        if attr.kind == "continuous":
            raw = raw_values[i] = _numbers(attr, raw, False)
        scale, clamped = _encode_attribute(attr, raw, matrix[:, start:stop])
        clamps += clamped
        if scale is not None:
            normalizers[i] = scale
    return EncodedSpace(matrix, attr_of, attrs, normalizers,
                        clamp_warnings=clamps, raw_values=raw_values)


# ---------------------------------------------------------------------------
# bounds -> rule clauses


@dataclass(frozen=True)
class RuleClause:
    """One human-readable condition on a raw attribute.

    Forms: ``interval`` (raw-unit range, rendered "lo ≤ x ≤ hi"),
    ``equality`` (one category), ``category_set`` (several categories, in
    declared order) and ``ordered_interval`` (inclusive span of consecutive
    declared levels). Both endpoints count as inside, as in the box, and
    ``satisfied`` reads the bounds as written. ``decimals`` gives the
    decimals each side of a range is written with, the lower bound rounded
    down and the upper one up; None leaves an interval's side out (it sits
    at the edge of the range, so it admits every value there).
    """

    attribute: str
    form: str
    lo: float | None = None
    hi: float | None = None
    category: str | None = None
    categories: tuple[str, ...] | None = None
    decimals: tuple[int | None, int | None] = (2, 2)

    def text(self) -> str:
        if self.form == "equality":
            return f"{self.attribute} = {self.category}"
        if self.form == "category_set":
            return f"{self.attribute} ∈ {{{', '.join(self.categories)}}}"
        lo, hi = self._written_bounds()
        if lo is None:
            return f"{self.attribute} ≤ {hi}"
        if hi is None:
            return f"{self.attribute} ≥ {lo}"
        if self.form == "ordered_interval" and self.lo == self.hi:
            return f"{self.attribute} = {lo}"
        return f"{lo} ≤ {self.attribute} ≤ {hi}"

    def satisfied(self, value) -> bool:
        if self.form == "equality":
            return value == self.category
        if self.form == "category_set":
            return value in self.categories
        # the bounds as written, which admit exactly the box's rows of the table
        v = float(value)
        lo, hi = self._written_bounds()
        return (lo is None or float(lo) <= v) and (hi is None or v <= float(hi))

    def _written_bounds(self) -> tuple[str | None, str | None]:
        """The range's bounds as written, None for a side left out."""
        lo_d, hi_d = self.decimals
        return (None if lo_d is None else _written(self.lo, lo_d, down=True),
                None if hi_d is None else _written(self.hi, hi_d, down=False))

    def to_dict(self) -> dict:
        out = {"attribute": self.attribute, "form": self.form, "text": self.text()}
        if self.form == "equality":
            out["category"] = self.category
        elif self.form == "category_set":
            out["categories"] = list(self.categories)
        else:
            out["lo"] = self.lo
            out["hi"] = self.hi
        return out


def decode_bounds(l: np.ndarray, u: np.ndarray, space: EncodedSpace) -> list[RuleClause]:
    """Turn encoded bounds into raw-unit clauses, attribute by attribute.

    Full-range columns emit nothing. Ordered columns emit the inclusive
    span of admitted levels. A one-hot group emits an equality clause when
    exactly one category remains admissible, a category-set clause when
    several but not all do, nothing when all do, and raises when no
    category is admissible at all. Category c is admitted when its column
    admits the value 1 and every sibling column admits the value 0.
    """
    l = np.asarray(l, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if np.any(l > u + 1e-12):
        raise ValueError("decode_bounds requires l <= u componentwise")

    clauses: list[RuleClause] = []
    for i in nontrivial_attributes(l, u, space):
        attr = space.attributes[i]
        cols = space.columns_of(i)
        if attr.kind == "continuous":
            clauses.append(_interval(space, i, l[cols[0]], u[cols[0]]))
        elif attr.kind == "ordered_discrete":
            enc = np.asarray(_positions(attr))
            admitted = np.nonzero((enc >= l[cols[0]]) & (enc <= u[cols[0]]))[0]
            if admitted.size == 0:
                raise InconsistentExplanationError(
                    f"attribute {attr.name!r}: bounds admit no declared level")
            if admitted.size == enc.size:
                continue
            lo, hi = attr.levels[admitted[0]], attr.levels[admitted[-1]]
            # levels are written to read back as themselves
            clauses.append(RuleClause(attr.name, "ordered_interval", lo=lo, hi=hi,
                                      decimals=(_decimals(lo, lo, lo, True),
                                                _decimals(hi, hi, hi, False))))
        else:
            excludes0 = l[cols] > 0.0
            allowed = (u[cols] >= 1.0) & (excludes0.sum() - excludes0 == 0)
            if not allowed.any():
                raise InconsistentExplanationError(
                    f"attribute {attr.name!r}: bounds admit no category "
                    "(a selection of only 0s is not satisfiable)")
            admitted = tuple(c for c, ok in zip(attr.categories, allowed) if ok)
            if len(admitted) == 1:
                clauses.append(RuleClause(attr.name, "equality", category=admitted[0]))
            elif len(admitted) < len(allowed):
                clauses.append(RuleClause(attr.name, "category_set", categories=admitted))
    return clauses


def _written(value: float, decimals: int, down: bool) -> str:
    """``value`` written with ``decimals`` (at least one) decimals, rounded
    exactly down or up; a zero is written without a sign."""
    p, q = float(value).as_integer_ratio()
    k = p * 10 ** decimals // q if down else -(-p * 10 ** decimals // q)
    digits = f"{abs(k):0{decimals + 1}d}"
    return f"{'-' if k < 0 else ''}{digits[:-decimals]}.{digits[-decimals:]}"


def _decimals(bound: float, low: float, high: float, down: bool) -> int:
    """Fewest decimals, two at least, at which ``bound``, written out and
    rounded down or up, reads back as a number in [low, high]; 17 where none
    does."""
    return next((d for d in range(2, 17) if low <= float(_written(bound, d, down)) <= high), 17)


def _interval(space: EncodedSpace, attr_index: int, l: float, u: float) -> RuleClause:
    """The clause of encoded bounds ``l`` and ``u`` on a continuous attribute,
    in raw units. Each side is written with the fewest decimals at which it
    admits the same raw values of the table as the box does, so it lies
    between the nearest values inside and outside; a side at the edge of the
    range is left out."""
    a, b = space.normalizers[attr_index]
    span = b - a
    lo, hi = a + l * span, a + u * span
    values = space.raw_values[attr_index]
    z = space.matrix[:, space.columns_of(attr_index)[0]]
    decimals = (None if l <= 0.0 else _decimals(
                    lo, np.nextafter(values[z < l].max(initial=-np.inf), np.inf),
                    values[z >= l].min(initial=np.inf), True),
                None if u >= 1.0 else _decimals(
                    hi, values[z <= u].max(initial=-np.inf),
                    np.nextafter(values[z > u].min(initial=np.inf), -np.inf), False))
    return RuleClause(space.attributes[attr_index].name, "interval", lo=lo, hi=hi,
                      decimals=decimals)


def snap_discrete(bounds: BoxBounds, space: EncodedSpace) -> BoxBounds:
    """Snap discrete-axis bounds onto declared positions.

    Lower bounds move up to the smallest admitted position >= l and upper
    bounds move down to the largest position <= u. With inclusive exact
    membership the set of admitted positions, and therefore coverage and
    precision on any dataset, is unchanged. Axes admitting every position
    widen to [0, 1] and axes admitting none are left as-is, so
    ``nontrivial_attributes`` counts only attributes that decode to a
    clause. Continuous axes are untouched.
    """
    cols, P = space._discrete_positions
    l = bounds.l.copy()
    u = bounds.u.copy()
    above, below = P >= l[cols, None], P <= u[cols, None]
    at_or_above = np.where(above, P, np.inf).min(axis=1, initial=np.inf)
    at_or_below = np.where(below, P, -np.inf).max(axis=1, initial=-np.inf)
    snaps = at_or_above <= at_or_below  # else admits nothing; snapping cannot help
    l[cols[snaps]] = at_or_above[snaps]
    u[cols[snaps]] = at_or_below[snaps]
    every = (above & below | np.isnan(P)).all(axis=1)
    l[cols[every]] = 0.0
    u[cols[every]] = 1.0
    return BoxBounds(l, u)


def nontrivial_attributes(l: np.ndarray, u: np.ndarray, space: EncodedSpace) -> list[int]:
    """Raw attributes whose encoded bounds constrain anything."""
    return np.unique(space.attr_of[(l > 0.0) | (u < 1.0)]).tolist()
