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
from dataclasses import dataclass

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
            if attr.kind != "categorical":
                try:
                    cell = float(cell)
                except ValueError as exc:
                    raise LoadError(
                        f"table {path}: row {r} column {attr.name!r}: unparseable cell {cell!r}") from exc
            columns[j].append(cell)
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
        col = np.asarray(col, dtype=object if attr.kind == "categorical" else np.float64)
        if attr.kind != "continuous":
            try:
                codes = _codes(attr, col)
            except SchemaError as exc:
                raise LoadError(f"table {path}: {exc}") from exc
            if attr.kind == "ordered_discrete":
                col = np.asarray(attr.levels)[codes]  # each value snapped onto its level
        typed.append(col)
    return RawTable(list(schema), typed, np.asarray(labels, dtype=np.int64) if label_column else None)


def _value_error(attr: AttributeSchema, row: int, query: bool, problem: str) -> SchemaError:
    """The error for a bad value at a row (or in the query) of a column."""
    return SchemaError(f"{'query' if query else f'row {row}'} column {attr.name!r}: {problem}")


def _codes(attr: AttributeSchema, values: np.ndarray, query: bool = False) -> np.ndarray:
    """Index of each value's category, or of the declared level within 1e-9
    of it; a value with none raises a SchemaError naming its row (or the
    query) and column."""
    if attr.kind == "categorical":
        index = {c: t for t, c in enumerate(attr.categories)}
        codes = np.asarray([index.get(v, -1) for v in values], dtype=np.intp)
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


def _positions(attr: AttributeSchema) -> tuple[float, ...]:
    """Encoded positions of an ordered attribute's levels: (t+1)/(m+1)."""
    m = len(attr.levels)
    return tuple((t + 1) / (m + 1) for t in range(m))


def _encode_attribute(
    attr: AttributeSchema,
    raw,
    value_range: tuple[float, float] | None = None,
    query: bool = False,
) -> tuple[np.ndarray, tuple[float, float] | None, int]:
    """Encoded columns of one attribute's raw values.

    Returns the (n, width) block, the (min, max) a continuous attribute was
    scaled by and the number of values clamped into [0, 1]. The range is
    ``value_range``, else the declared one, else fitted to the values.
    Ordered values go to the position of their level and categories expand
    to one-hot columns. Errors name the row (the query with ``query``) and
    the column.
    """
    if attr.kind == "categorical":
        codes = _codes(attr, raw, query)
        return (codes[:, None] == np.arange(len(attr.categories))).astype(np.float64), None, 0
    values = np.asarray(raw, dtype=np.float64)
    if attr.kind == "ordered_discrete":
        return np.asarray(_positions(attr))[_codes(attr, values, query)][:, None], None, 0
    finite = np.isfinite(values)
    if not finite.all():
        r = int(np.argmin(finite))
        raise _value_error(attr, r, query, f"non-finite value {values[r]}")
    lo, hi = value_range or attr.value_range or (float(values.min()), float(values.max()))
    if lo >= hi:
        raise SchemaError(f"attribute {attr.name!r}: constant column cannot be normalized")
    z = (values - lo) / (hi - lo)
    clamped = int(((z < 0.0) | (z > 1.0)).sum())
    if clamped:
        log.warning("clamp: attribute %r: %d value(s) outside fitted range [%s, %s]",
                    attr.name, clamped, lo, hi)
        z = np.clip(z, 0.0, 1.0)
    return z[:, None], (lo, hi), clamped


@dataclass
class EncodedSpace:
    """Normalized, one-hot-expanded feature matrix plus the way back.

    Every matrix entry lies in [0, 1]; ``attr_of`` gives the index of the
    attribute each encoded column belongs to, and an attribute's columns
    are contiguous and in declaration order (one-hot columns in category
    order); ``normalizers`` holds the fitted (min, max) per continuous
    attribute in raw units.
    """

    matrix: np.ndarray
    attr_of: np.ndarray
    attributes: list[AttributeSchema]
    normalizers: dict[int, tuple[float, float]]
    clamp_warnings: int = 0

    @property
    def n_columns(self) -> int:
        return len(self.attr_of)

    def columns_of(self, attr_index: int) -> np.ndarray:
        """Encoded column indices belonging to one raw attribute."""
        return np.flatnonzero(self.attr_of == attr_index)

    def encode_instance(self, values) -> np.ndarray:
        """Encode one raw instance (sequence aligned with the attributes)."""
        if len(values) != len(self.attributes):
            raise SchemaError(f"instance has {len(values)} values, expected {len(self.attributes)}")
        blocks = []
        for i, (attr, v) in enumerate(zip(self.attributes, values)):
            raw = np.empty(1, dtype=object)
            raw[0] = v
            block, _, clamped = _encode_attribute(attr, raw, self.normalizers.get(i), query=True)
            self.clamp_warnings += clamped
            blocks.append(block[0])
        return np.concatenate(blocks)


def encode(table: RawTable, schema: list[AttributeSchema] | None = None) -> EncodedSpace:
    """Build the encoded space from a raw table, fitting continuous ranges."""
    attrs = list(schema) if schema is not None else list(table.attributes)
    blocks: list[np.ndarray] = []
    attr_of: list[int] = []
    normalizers: dict[int, tuple[float, float]] = {}
    clamps = 0
    for i, attr in enumerate(attrs):
        block, scale, clamped = _encode_attribute(attr, table.columns[i])
        blocks.append(block)
        clamps += clamped
        if scale is not None:
            normalizers[i] = scale
        attr_of += [i] * block.shape[1]
    matrix = np.hstack(blocks) if blocks else np.zeros((table.n_rows, 0))
    return EncodedSpace(matrix, np.asarray(attr_of, dtype=np.intp), attrs, normalizers,
                        clamp_warnings=clamps)


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


def decode_bounds(l: np.ndarray, u: np.ndarray, space: EncodedSpace) -> list[RuleClause]:
    """Turn encoded bounds into raw-unit clauses, attribute by attribute.

    Full-range columns emit nothing. Ordered columns emit the inclusive
    span of admitted levels. A one-hot group emits an equality clause when
    exactly one category remains admissible, nothing when all (or an
    unrepresentable subset of) categories remain, and raises when no
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
            lo_raw, hi_raw = _interval_raw(space, i, l[cols[0]], u[cols[0]])
            clauses.append(RuleClause(attr.name, "interval", lo=lo_raw, hi=hi_raw))
        elif attr.kind == "ordered_discrete":
            enc = np.asarray(_positions(attr))
            admitted = np.nonzero((enc >= l[cols[0]]) & (enc <= u[cols[0]]))[0]
            if admitted.size == 0:
                raise InconsistentExplanationError(
                    f"attribute {attr.name!r}: bounds admit no declared level")
            if admitted.size == enc.size:
                continue
            clauses.append(RuleClause(attr.name, "ordered_interval",
                                      lo=attr.levels[admitted[0]], hi=attr.levels[admitted[-1]]))
        else:
            excludes0 = l[cols] > 0.0
            allowed = (u[cols] >= 1.0) & (excludes0.sum() - excludes0 == 0)
            if not allowed.any():
                raise InconsistentExplanationError(
                    f"attribute {attr.name!r}: bounds admit no category "
                    "(a selection of only 0s is not satisfiable)")
            if allowed.sum() == 1:
                clauses.append(RuleClause(attr.name, "equality",
                                          category=attr.categories[int(np.argmax(allowed))]))
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
    for j, i in enumerate(space.attr_of):
        attr = space.attributes[i]
        if attr.kind == "continuous":
            continue
        levels = np.asarray(_positions(attr) if attr.kind == "ordered_discrete" else (0.0, 1.0))
        at_or_above = levels[levels >= l[j]]
        at_or_below = levels[levels <= u[j]]
        if at_or_above.size == 0 or at_or_below.size == 0 or at_or_above[0] > at_or_below[-1]:
            continue  # admits nothing; snapping cannot help
        l[j] = float(at_or_above[0])
        u[j] = float(at_or_below[-1])
    return BoxBounds(l, u)


def nontrivial_attributes(l: np.ndarray, u: np.ndarray, space: EncodedSpace) -> list[int]:
    """Raw attributes whose encoded bounds constrain anything."""
    return np.unique(space.attr_of[(l > 0.0) | (u < 1.0)]).tolist()
