"""Seeded mixed-type table and the fixed model that labels it.

The table has the shape of a typical tabular explanation task: six
continuous attributes, three ordered attributes with five levels and three
categorical attributes with 5, 6 and 7 categories, which encode to 27
columns. Continuous ranges are declared in the schema, so the encoding, and
with it the model below, does not depend on which rows were sampled.

Only numpy is imported here: the predictor child imports this module too.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

CONTINUOUS = (
    ("age", (18.0, 90.0)),
    ("income", (0.0, 200.0)),
    ("hours", (0.0, 80.0)),
    ("score", (0.0, 1.0)),
    ("debt", (0.0, 100.0)),
    ("tenure", (0.0, 40.0)),
)
LEVELS = (1, 2, 3, 4, 5)
ORDERED = ("education", "rating", "risk")
CATEGORICAL = (
    ("region", ("north", "south", "east", "west", "central")),
    ("job", ("clerk", "sales", "tech", "admin", "trade", "other")),
    ("channel", ("web", "phone", "branch", "mail", "partner", "agent", "kiosk")),
)
NAMES = tuple(n for n, _ in CONTINUOUS) + ORDERED + tuple(n for n, _ in CATEGORICAL)
N_COLUMNS = len(CONTINUOUS) + len(ORDERED) + sum(len(c) for _, c in CATEGORICAL)

# encoded column positions the model reads
_AGE, _INCOME, _SCORE, _DEBT = 0, 1, 3, 4
_EDUCATION, _RISK = 6, 8
_NORTH, _EAST = 9, 11
_CLERK = 9 + len(CATEGORICAL[0][1])

# query prototypes in raw units: one per positive branch of the model and a
# negative one
PANEL = (
    (60.0, 150.0, 40.0, 0.5, 30.0, 10.0, 3, 3, 2, "west", "tech", "web"),
    (30.0, 40.0, 35.0, 0.3, 20.0, 5.0, 5, 2, 3, "north", "sales", "phone"),
    (25.0, 30.0, 20.0, 0.2, 20.0, 2.0, 2, 3, 3, "south", "clerk", "branch"),
)


def schema_record() -> dict:
    attrs = [{"name": n, "kind": "continuous", "range": list(r)} for n, r in CONTINUOUS]
    attrs += [{"name": n, "kind": "ordered_discrete", "levels": list(LEVELS)} for n in ORDERED]
    attrs += [{"name": n, "kind": "categorical", "categories": list(c)} for n, c in CATEGORICAL]
    return {"attributes": attrs}


def encode_columns(columns: list[np.ndarray]) -> np.ndarray:
    """Encode raw columns as the schema declares: ranges, level positions, one-hot."""
    out = []
    for (_, (lo, hi)), col in zip(CONTINUOUS, columns):
        out.append((np.asarray(col, dtype=np.float64) - lo) / (hi - lo))
    for col in columns[len(CONTINUOUS):len(CONTINUOUS) + len(ORDERED)]:
        out.append((np.searchsorted(LEVELS, col) + 1.0) / (len(LEVELS) + 1))
    for (_, cats), col in zip(CATEGORICAL, columns[len(CONTINUOUS) + len(ORDERED):]):
        col = np.asarray(col)
        out.extend((col == c).astype(np.float64) for c in cats)
    return np.column_stack(out)


def label_encoded(X: np.ndarray) -> np.ndarray:
    """The model being explained: three rule-like branches over encoded columns."""
    X = np.asarray(X, dtype=np.float64)
    wealthy = (X[:, _AGE] > 0.4) & (X[:, _INCOME] > 0.5)
    schooled = (X[:, _EDUCATION] > 0.6) & (X[:, _NORTH] + X[:, _EAST] > 0.5)
    indebted = (X[:, _SCORE] + X[:, _DEBT] > 1.3) & (X[:, _CLERK] < 0.5) & (X[:, _RISK] < 0.5)
    return (wealthy | schooled | indebted).astype(np.int64)


def population(n_rows: int, seed: int) -> list[np.ndarray]:
    """Seeded raw columns; rows 0..len(PANEL)-1 are the query panel, lightly jittered."""
    rng = np.random.default_rng(seed)
    cols: list[np.ndarray] = []
    for _, (lo, hi) in CONTINUOUS:
        cols.append(np.round(lo + (hi - lo) * rng.beta(2.0, 2.0, n_rows), 3))
    for _ in ORDERED:
        cols.append(rng.choice(np.asarray(LEVELS), size=n_rows, p=(0.15, 0.25, 0.3, 0.2, 0.1)))
    for _, cats in CATEGORICAL:
        cols.append(rng.choice(np.asarray(cats, dtype=object), size=n_rows))
    for i, proto in enumerate(PANEL[:n_rows]):
        for j, (_, (lo, hi)) in enumerate(CONTINUOUS):
            v = proto[j] + (hi - lo) * 0.01 * rng.uniform(-1.0, 1.0)
            cols[j][i] = round(min(max(v, lo), hi), 3)
        for j in range(len(CONTINUOUS), len(NAMES)):
            cols[j][i] = proto[j]
    return cols


def write_table(columns: list[np.ndarray], directory: Path,
                labels: np.ndarray | None = None) -> tuple[Path, Path]:
    """Write ``table.csv`` (plus a ``label`` column when given) and ``schema.json``."""
    directory.mkdir(parents=True, exist_ok=True)
    csv_path, schema_path = directory / "table.csv", directory / "schema.json"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(NAMES) + (["label"] if labels is not None else []))
        extra = [labels] if labels is not None else []
        writer.writerows(zip(*(c.tolist() for c in columns + extra)))
    schema_path.write_text(json.dumps(schema_record(), indent=1) + "\n", encoding="utf-8")
    return csv_path, schema_path
