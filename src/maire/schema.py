"""Tabular schema handling: load, normalize, encode, and decode box bounds.

Continuous attributes are min-max normalized into [0, 1]; ordered discrete
levels are placed at the interior positions (i+1)/(m+1), so no level sits on
a box boundary at initialization; categorical attributes expand to one-hot
0/1 columns.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import InconsistentExplanationError, LoadError, SchemaError
from .indicator import BoxBounds

log = logging.getLogger(__name__)

KINDS = ("continuous", "ordered_discrete", "categorical")


@dataclass(frozen=True)
class AttributeSchema:
    """Declaration of one raw attribute.

    ``levels`` (strictly increasing) applies to ordered_discrete,
    ``categories`` (unique, non-empty) to categorical, and ``value_range``
    to continuous; a missing range is fitted from the training table.
    """

    name: str
    kind: str
    levels: tuple[float, ...] | None = None
    categories: tuple[str, ...] | None = None
    value_range: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SchemaError(f"attribute {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "ordered_discrete":
            if not self.levels:
                raise SchemaError(f"attribute {self.name!r}: ordered_discrete needs levels")
            object.__setattr__(self, "levels", tuple(float(v) for v in self.levels))
            if any(a >= b for a, b in zip(self.levels, self.levels[1:])):
                raise SchemaError(f"attribute {self.name!r}: levels must be strictly increasing")
        if self.kind == "categorical":
            if not self.categories:
                raise SchemaError(f"attribute {self.name!r}: categorical needs categories")
            object.__setattr__(self, "categories", tuple(str(c) for c in self.categories))
            if any(not c for c in self.categories) or len(set(self.categories)) != len(self.categories):
                raise SchemaError(f"attribute {self.name!r}: categories must be unique and non-empty")
        if self.value_range is not None:
            lo, hi = self.value_range
            if not lo < hi:
                raise SchemaError(f"attribute {self.name!r}: range must satisfy min < max")
            object.__setattr__(self, "value_range", (float(lo), float(hi)))


def load_schema(path: str) -> list[AttributeSchema]:
    """Read an attribute declaration file: {"attributes": [{name, kind, ...}]}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise LoadError(f"cannot read schema file {path}: {exc}") from exc
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
        try:
            attrs.append(
                AttributeSchema(
                    name=entry["name"],
                    kind=entry["kind"],
                    levels=tuple(entry["levels"]) if entry.get("levels") else None,
                    categories=tuple(entry["categories"]) if entry.get("categories") else None,
                    value_range=tuple(entry["range"]) if entry.get("range") else None,
                )
            )
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
    """Parse a CSV (UTF-8, header row, comma separator) against a schema.

    Column names must match the schema exactly, plus ``label_column`` when
    given. Errors name the offending row and column.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise LoadError(f"cannot read table {path}: {exc}") from exc
    if not rows:
        raise LoadError(f"table {path}: no rows")
    header, data = rows[0], rows[1:]
    if not data:
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

    col_of = {name: header.index(name) for name in expected}
    columns: list[list] = [[] for _ in schema]
    labels: list[int] = []
    for r, row in enumerate(data):
        if len(row) != len(header):
            raise LoadError(f"table {path}: row {r} has {len(row)} cells, expected {len(header)}")
        for j, attr in enumerate(schema):
            cell = row[col_of[attr.name]]
            columns[j].append(_parse_cell(cell, attr, path, r))
        if label_column:
            cell = row[col_of[label_column]]
            try:
                value = float(cell)
            except ValueError:
                value = float("nan")
            if not (value.is_integer() and abs(value) < 2.0 ** 63):
                raise LoadError(
                    f"table {path}: row {r} column {label_column!r}: label {cell!r} is not an integer")
            labels.append(int(value))

    typed = []
    for attr, col in zip(schema, columns):
        if attr.kind == "categorical":
            typed.append(np.asarray(col, dtype=object))
        else:
            typed.append(np.asarray(col, dtype=np.float64))
    return RawTable(list(schema), typed, np.asarray(labels, dtype=np.int64) if label_column else None)


def _parse_cell(cell: str, attr: AttributeSchema, path: str, row: int):
    where = f"table {path}: row {row} column {attr.name!r}"
    if attr.kind == "categorical":
        if cell not in attr.categories:
            raise LoadError(f"{where}: unknown category {cell!r}")
        return cell
    try:
        value = float(cell)
    except ValueError as exc:
        raise LoadError(f"{where}: unparseable cell {cell!r}") from exc
    if attr.kind == "ordered_discrete":
        matches = [v for v in attr.levels if abs(v - value) <= 1e-9]
        if not matches:
            raise LoadError(f"{where}: value {cell!r} is not a declared level")
        return matches[0]
    return value


@dataclass(frozen=True)
class ColumnInfo:
    """Where an encoded column came from."""

    attr_index: int
    attr_name: str
    kind: str
    category: str | None = None          # one-hot columns
    encoded_levels: tuple[float, ...] | None = None  # ordered columns


@dataclass
class EncodedSpace:
    """Normalized, one-hot-expanded feature matrix plus the way back.

    Every matrix entry lies in [0, 1]; ``column_map`` covers all encoded
    columns exactly once; ``normalizers`` holds the fitted (min, max) per
    continuous attribute in raw units.
    """

    matrix: np.ndarray
    column_map: list[ColumnInfo]
    attributes: list[AttributeSchema]
    normalizers: dict[int, tuple[float, float]]
    clamp_warnings: int = 0
    _groups: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    @property
    def n_columns(self) -> int:
        return len(self.column_map)

    def columns_of(self, attr_index: int) -> np.ndarray:
        """Encoded column indices belonging to one raw attribute."""
        if attr_index not in self._groups:
            cols = [j for j, info in enumerate(self.column_map) if info.attr_index == attr_index]
            self._groups[attr_index] = np.asarray(cols, dtype=np.intp)
        return self._groups[attr_index]

    def encode_instance(self, values) -> np.ndarray:
        """Encode one raw instance (sequence aligned with the attributes)."""
        if len(values) != len(self.attributes):
            raise SchemaError(f"instance has {len(values)} values, expected {len(self.attributes)}")
        out = np.zeros(self.n_columns, dtype=np.float64)
        pos = 0
        for i, attr in enumerate(self.attributes):
            v = values[i]
            if attr.kind == "continuous":
                if not np.isfinite(float(v)):
                    raise SchemaError(f"attribute {attr.name!r}: non-finite query value {v!r}")
                lo, hi = self.normalizers[i]
                z = (float(v) - lo) / (hi - lo)
                if z < 0.0 or z > 1.0:
                    self.clamp_warnings += 1
                    log.warning("clamp: attribute %r value %s outside fitted range [%s, %s]",
                                attr.name, v, lo, hi)
                    z = min(max(z, 0.0), 1.0)
                out[pos] = z
                pos += 1
            elif attr.kind == "ordered_discrete":
                idx = [t for t, lvl in enumerate(attr.levels) if abs(lvl - float(v)) <= 1e-9]
                if not idx:
                    raise SchemaError(f"attribute {attr.name!r}: value {v!r} is not a declared level")
                out[pos] = (idx[0] + 1) / (len(attr.levels) + 1)
                pos += 1
            else:
                if v not in attr.categories:
                    raise SchemaError(f"attribute {attr.name!r}: unknown category {v!r}")
                out[pos + attr.categories.index(v)] = 1.0
                pos += len(attr.categories)
        return out


def encode(table: RawTable, schema: list[AttributeSchema] | None = None) -> EncodedSpace:
    """Build the encoded space from a raw table, fitting continuous ranges."""
    attrs = list(schema) if schema is not None else list(table.attributes)
    n = table.n_rows
    cols: list[np.ndarray] = []
    column_map: list[ColumnInfo] = []
    normalizers: dict[int, tuple[float, float]] = {}
    clamps = 0

    for i, attr in enumerate(attrs):
        raw = table.columns[i]
        if attr.kind == "continuous":
            values = np.asarray(raw, dtype=np.float64)
            finite = np.isfinite(values)
            if not finite.all():
                r = int(np.argmin(finite))
                raise SchemaError(f"row {r} column {attr.name!r}: non-finite value {values[r]}")
            if attr.value_range is not None:
                lo, hi = attr.value_range
            else:
                lo, hi = float(values.min()), float(values.max())
                if lo >= hi:
                    raise SchemaError(f"attribute {attr.name!r}: constant column cannot be normalized")
            normalizers[i] = (lo, hi)
            z = (values - lo) / (hi - lo)
            out_of_range = int(((z < 0.0) | (z > 1.0)).sum())
            if out_of_range:
                clamps += out_of_range
                log.warning("clamp: attribute %r: %d value(s) outside fitted range [%s, %s]",
                            attr.name, out_of_range, lo, hi)
                z = np.clip(z, 0.0, 1.0)
            cols.append(z)
            column_map.append(ColumnInfo(i, attr.name, attr.kind))
        elif attr.kind == "ordered_discrete":
            m = len(attr.levels)
            encoded_levels = tuple((t + 1) / (m + 1) for t in range(m))
            lookup = {lvl: encoded_levels[t] for t, lvl in enumerate(attr.levels)}
            z = np.asarray([lookup[v] for v in raw], dtype=np.float64)
            cols.append(z)
            column_map.append(ColumnInfo(i, attr.name, attr.kind, encoded_levels=encoded_levels))
        else:
            for c, cat in enumerate(attr.categories):
                cols.append((raw == cat).astype(np.float64))
                column_map.append(ColumnInfo(i, attr.name, attr.kind, category=cat))

    matrix = np.column_stack(cols) if cols else np.zeros((n, 0))
    return EncodedSpace(matrix, column_map, attrs, normalizers, clamp_warnings=clamps)


# ---------------------------------------------------------------------------
# bounds -> rule clauses


@dataclass(frozen=True)
class RuleClause:
    """One human-readable condition on a raw attribute.

    Forms: ``interval`` (raw-unit range, rendered "lo < x <= hi"),
    ``equality`` (categorical), and ``ordered_interval`` (inclusive span of
    consecutive declared levels). Satisfaction mirrors box membership, so
    both endpoints count as inside; the strict "<" in the rendered text is
    a display convention.
    """

    attribute: str
    form: str
    lo: float | None = None
    hi: float | None = None
    category: str | None = None

    def text(self) -> str:
        if self.form == "equality":
            return f"{self.attribute} = {self.category}"
        if self.form == "interval":
            return f"{self.lo:.2f} < {self.attribute} ≤ {self.hi:.2f}"
        if self.lo == self.hi:
            return f"{self.attribute} = {self.lo:.2f}"
        return f"{self.lo:.2f} ≤ {self.attribute} ≤ {self.hi:.2f}"

    def satisfied(self, value) -> bool:
        if self.form == "equality":
            return value == self.category
        v = float(value)
        tol = 1e-9 * max(1.0, abs(self.lo), abs(self.hi))  # decode multiplies back, allow 1-ulp drift
        return self.lo - tol <= v <= self.hi + tol

    def to_dict(self) -> dict:
        out = {"attribute": self.attribute, "form": self.form, "text": self.text()}
        if self.form == "equality":
            out["category"] = self.category
        else:
            out["lo"] = self.lo
            out["hi"] = self.hi
        return out


def _onehot_allowed(space: EncodedSpace, attr_index: int, l: np.ndarray, u: np.ndarray) -> list[str]:
    """Categories admitted by the bounds of one one-hot group.

    Category c is admitted when its column admits the value 1 and every
    sibling column admits the value 0.
    """
    cols = space.columns_of(attr_index)
    admits1 = {int(j): u[j] >= 1.0 for j in cols}
    admits0 = {int(j): l[j] <= 0.0 for j in cols}
    allowed = []
    for j in cols:
        j = int(j)
        if admits1[j] and all(admits0[o] for o in map(int, cols) if o != j):
            allowed.append(space.column_map[j].category)
    return allowed


def decode_bounds(l: np.ndarray, u: np.ndarray, space: EncodedSpace) -> list[RuleClause]:
    """Turn encoded bounds into raw-unit clauses, attribute by attribute.

    Full-range columns emit nothing. Ordered columns emit the inclusive
    span of admitted levels. A one-hot group emits an equality clause when
    exactly one category remains admissible, nothing when all (or an
    unrepresentable subset of) categories remain, and raises when no
    category is admissible at all.
    """
    l = np.asarray(l, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if np.any(l > u + 1e-12):
        raise ValueError("decode_bounds requires l <= u componentwise")

    clauses: list[RuleClause] = []
    for i, attr in enumerate(space.attributes):
        cols = space.columns_of(i)
        if all(l[j] <= 0.0 and u[j] >= 1.0 for j in cols):
            continue
        if attr.kind == "continuous":
            j = int(cols[0])
            lo_raw, hi_raw = _interval_raw(space, i, l[j], u[j])
            clauses.append(RuleClause(attr.name, "interval", lo=lo_raw, hi=hi_raw))
        elif attr.kind == "ordered_discrete":
            j = int(cols[0])
            enc = np.asarray(space.column_map[j].encoded_levels)
            admitted = np.nonzero((enc >= l[j]) & (enc <= u[j]))[0]
            if admitted.size == 0:
                raise InconsistentExplanationError(
                    f"attribute {attr.name!r}: bounds admit no declared level")
            if admitted.size == enc.size:
                continue
            clauses.append(RuleClause(attr.name, "ordered_interval",
                                      lo=attr.levels[admitted[0]], hi=attr.levels[admitted[-1]]))
        else:
            allowed = _onehot_allowed(space, i, l, u)
            if not allowed:
                raise InconsistentExplanationError(
                    f"attribute {attr.name!r}: bounds admit no category "
                    "(a selection of only 0s is not satisfiable)")
            if len(allowed) == 1:
                clauses.append(RuleClause(attr.name, "equality", category=allowed[0]))
            # a 2..k-1 subset has no clause form; bounds keep the constraint
    return clauses


def _interval_raw(space: EncodedSpace, attr_index: int, lo: float, hi: float) -> tuple[float, float]:
    a, b = space.normalizers[attr_index]
    span = b - a
    return a + lo * span, a + hi * span


def snap_discrete(bounds: BoxBounds, space: EncodedSpace) -> BoxBounds:
    """Snap discrete-axis bounds onto declared positions.

    Lower bounds move up to the smallest admitted position >= l and upper
    bounds move down to the largest position <= u. With inclusive exact
    membership the set of admitted positions, and therefore coverage and
    precision on any dataset, is unchanged. Axes admitting no position are
    left as-is. Continuous axes are untouched.
    """
    l = bounds.l.copy()
    u = bounds.u.copy()
    for j, info in enumerate(space.column_map):
        if info.kind == "continuous":
            continue
        levels = np.asarray(info.encoded_levels) if info.kind == "ordered_discrete" \
            else np.asarray([0.0, 1.0])
        at_or_above = levels[levels >= l[j]]
        at_or_below = levels[levels <= u[j]]
        if at_or_above.size == 0 or at_or_below.size == 0 or at_or_above[0] > at_or_below[-1]:
            continue  # admits nothing; snapping cannot help
        l[j] = float(at_or_above[0])
        u[j] = float(at_or_below[-1])
    return BoxBounds(l, u)


def nontrivial_attributes(l: np.ndarray, u: np.ndarray, space: EncodedSpace) -> list[int]:
    """Raw attributes whose encoded bounds constrain anything."""
    out = []
    for i in range(len(space.attributes)):
        cols = space.columns_of(i)
        if any(l[j] > 0.0 or u[j] < 1.0 for j in cols):
            out.append(i)
    return out
