"""Deterministic SVG plots of 2-D synthetic runs.

Fixed 512x512 canvas and palette: positive region in blue, the explanation
as a red outlined rectangle, the query as a black dot. Layers are emitted
in that order so the z-order is stable for golden-file comparison.
"""

from __future__ import annotations

import numpy as np

from .blackbox import SyntheticShape
from .indicator import BoxBounds

SIZE = 512
REGION_FILL = "#4a90d9"
REGION_OPACITY = "0.45"
EXPLANATION_STROKE = "#d0021b"
QUERY_FILL = "#000000"


def _px(x: float) -> str:
    return f"{x * SIZE:.2f}"


def _py(y: float) -> str:
    # classifier space has y up; SVG has y down
    return f"{(1.0 - y) * SIZE:.2f}"


def _rect(l0: float, l1: float, u0: float, u1: float, style: str) -> str:
    w = f"{max(u0 - l0, 0.0) * SIZE:.2f}"
    h = f"{max(u1 - l1, 0.0) * SIZE:.2f}"
    return f'<rect x="{_px(l0)}" y="{_py(u1)}" width="{w}" height="{h}" {style}/>'


def _region_rects(shape: SyntheticShape) -> list[tuple[float, float, float, float]]:
    if shape.kind == "union_of_rectangles":
        return [(lo[0], lo[1], hi[0], hi[1]) for lo, hi in shape.rectangles]
    if shape.kind == "discrete_strip":
        # draw each positive level as a band of half the level spacing
        out = []
        for lvl in sorted(shape.positive_levels):
            width = 1.0 / 12
            if shape.axis == 0:
                out.append((max(lvl - width, 0.0), 0.0, min(lvl + width, 1.0), 1.0))
            else:
                out.append((0.0, max(lvl - width, 0.0), 1.0, min(lvl + width, 1.0)))
        return out
    return []


def render_figure(shape: SyntheticShape, bounds: BoxBounds, query: np.ndarray) -> str:
    """SVG for one synthetic run: region, explanation rectangle, query dot."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect x="0" y="0" width="{SIZE}" height="{SIZE}" fill="#ffffff"/>',
    ]
    region_style = f'fill="{REGION_FILL}" fill-opacity="{REGION_OPACITY}" class="region"'
    if shape.kind == "circle":
        r = f"{shape.radius * SIZE:.2f}"
        parts.append(
            f'<circle cx="{_px(shape.center[0])}" cy="{_py(shape.center[1])}" r="{r}" '
            f'{region_style}/>')
    else:
        for l0, l1, u0, u1 in _region_rects(shape):
            parts.append(_rect(l0, l1, u0, u1, region_style))
    parts.append(_rect(
        float(bounds.l[0]), float(bounds.l[1]), float(bounds.u[0]), float(bounds.u[1]),
        f'fill="none" stroke="{EXPLANATION_STROKE}" stroke-width="3" class="explanation"'))
    parts.append(
        f'<circle cx="{_px(float(query[0]))}" cy="{_py(float(query[1]))}" r="5" '
        f'fill="{QUERY_FILL}" class="query"/>')
    parts.append("</svg>")
    return "\n".join(parts)
