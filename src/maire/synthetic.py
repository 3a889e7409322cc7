"""Frozen 2-D synthetic datasets with simple positive-class shapes.

Each builder returns the shape, an encoded space over uniformly sampled
points, and a labeling oracle. Shapes are chosen so the optimizer's
qualitative behaviors are easy to see: a rectangle it should recover, a
circle it should circumscribe more or less tightly depending on the
precision threshold, two positive regions split by a thin negative strip,
and strip-shaped classes over an ordered-discrete axis.
"""

from __future__ import annotations

import numpy as np

from .blackbox import SyntheticOracle, SyntheticShape
from .schema import AttributeSchema, EncodedSpace, RawTable, encode

STRIP_LEVELS = tuple((i + 1) / 6 for i in range(5))

SHAPES: dict[str, SyntheticShape] = {
    "rect": SyntheticShape(kind="union_of_rectangles", rectangles=(((0.3, 0.3), (0.7, 0.7)),)),
    "circle": SyntheticShape(kind="circle", center=(0.5, 0.5), radius=0.25),
    # a small positive bar around the query and a large positive rectangle,
    # separated by a negative strip too wide for a feasible box to absorb
    "two-region": SyntheticShape(
        kind="union_of_rectangles",
        rectangles=(((0.21, 0.30), (0.24, 0.70)), ((0.30, 0.05), (0.95, 0.95))),
    ),
    "discrete-strip": SyntheticShape(
        kind="discrete_strip", axis=0, positive_levels=(STRIP_LEVELS[1], STRIP_LEVELS[2])
    ),
}

DEFAULT_QUERIES: dict[str, tuple[float, float]] = {
    "rect": (0.5, 0.5),
    "circle": (0.5, 0.5),
    "two-region": (0.225, 0.5),      # inside the smaller positive region
    "discrete-strip": (STRIP_LEVELS[0], 0.5),  # an isolated negative strip
}


def _continuous_attr(name: str) -> AttributeSchema:
    return AttributeSchema(name=name, kind="continuous", value_range=(0.0, 1.0))


def synthetic_dataset(shape_name: str, n: int, seed: int) -> tuple[SyntheticShape, EncodedSpace, np.ndarray]:
    """Sampled dataset for one named shape: (shape, encoded space, labels)."""
    if shape_name not in SHAPES:
        raise ValueError(f"unknown shape {shape_name!r}; choose from {sorted(SHAPES)}")
    shape = SHAPES[shape_name]
    rng = np.random.default_rng(seed)
    if shape_name == "discrete-strip":
        x0 = rng.choice(np.asarray(STRIP_LEVELS), size=n)
        x1 = rng.random(n)
        attrs = [
            AttributeSchema(name="x0", kind="ordered_discrete", levels=STRIP_LEVELS),
            _continuous_attr("x1"),
        ]
        table = RawTable(attrs, [x0, x1])
    else:
        points = rng.random((n, 2))
        attrs = [_continuous_attr("x0"), _continuous_attr("x1")]
        table = RawTable(attrs, [points[:, 0], points[:, 1]])
    space = encode(table)
    labels = SyntheticOracle(shape).predict(space.matrix)
    return shape, space, labels
