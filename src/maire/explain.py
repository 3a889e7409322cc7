"""End-to-end local explanation: optimize, snap, simplify, render.

An explanation is a box in encoded space plus the clauses it decodes to.
Greedy elimination shortens the rule by widening one raw attribute at a
time to the full range, preferring removals that gain the most coverage
while keeping exact precision above the threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .blackbox import PredictionProvider, predict_batch
from .indicator import ApproxConstants, BoxBounds, BoxStats, cov_exact, pre_exact_or_none
from .optimize import OptimizerConfig, OptimizationTrace, initial_bounds, optimize, optimize_many
from .schema import (
    AttributeSchema,
    EncodedSpace,
    RawTable,
    RuleClause,
    decode_bounds,
    encode,
    nontrivial_attributes,
    snap_discrete,
)


@dataclass
class Explanation:
    """A box rule with its exact quality measures on the evaluation data."""

    bounds: BoxBounds
    clauses: list[RuleClause]
    coverage: float
    precision: float | None
    query_label: int
    feasible: bool
    query_encoded: np.ndarray
    query_raw: list | None = None
    elimination_order: list[str] = field(default_factory=list)
    trace: OptimizationTrace | None = None

    def rule_text(self) -> str:
        if not self.clauses:
            return "TRUE"
        return " ∧ ".join(c.text() for c in self.clauses)

    def to_record(self) -> dict:
        return {
            "query": self.query_raw,
            "label": int(self.query_label),
            "rule": self.rule_text(),
            "clauses": [c.to_dict() for c in self.clauses],
            "l": [float(v) for v in self.bounds.l],
            "u": [float(v) for v in self.bounds.u],
            "coverage": self.coverage,
            "precision": self.precision,
            "feasible": self.feasible,
            "iterations": len(self.trace) if self.trace is not None else 0,
            "elimination_order": list(self.elimination_order),
        }


def render(expl: Explanation) -> tuple[str, str]:
    """Deterministic rule text and its JSON record."""
    return expl.rule_text(), json.dumps(expl.to_record(), sort_keys=True, allow_nan=False)


def _axis_masks(l: np.ndarray, u: np.ndarray, X: np.ndarray, space: EncodedSpace) -> np.ndarray:
    """Per-attribute membership masks, shape (n_attrs, N)."""
    per_col = (X >= l) & (X <= u)
    masks = np.empty((len(space.attributes), X.shape[0]), dtype=bool)
    for i in range(len(space.attributes)):
        masks[i] = per_col[:, space.columns_of(i)].all(axis=1)
    return masks


def _eliminate(
    l: np.ndarray,
    u: np.ndarray,
    space: EncodedSpace,
    X: np.ndarray,
    match: np.ndarray,
    threshold: float,
    max_attrs: int,
) -> tuple[np.ndarray, np.ndarray, list[str], list[float]]:
    """Greedy widening of raw attributes to the full range.

    While more than ``max_attrs`` attributes constrain the box, one is
    removed per step: the coverage-maximizing removal among those keeping
    precision >= threshold, else the one losing the least precision. Once
    at or under the cap, removals continue only while some removal strictly
    increases coverage at precision >= threshold. Each candidate costs O(N)
    thanks to per-attribute violation counts.
    """
    l = l.copy()
    u = u.copy()
    n = X.shape[0]
    masks = _axis_masks(l, u, X, space)
    violations = (~masks).sum(axis=0)  # per point: number of violated attributes
    active = set(nontrivial_attributes(l, u, space))
    order: list[str] = []
    coverage_path: list[float] = []

    def stats_without(attr: int) -> tuple[float, float | None]:
        inside = (violations - (~masks[attr])) == 0
        n_in = int(inside.sum())
        cov = n_in / n
        pre = float((inside & match).sum() / n_in) if n_in else None
        return cov, pre

    while active:
        forced = len(active) > max_attrs
        inside_now = violations == 0
        n_in_now = int(inside_now.sum())
        cov_now = n_in_now / n
        pre_now = float((inside_now & match).sum() / n_in_now) if n_in_now else None

        candidates = []
        for attr in sorted(active):
            cov, pre = stats_without(attr)
            pre_loss = (pre_now or 0.0) - (pre or 0.0)
            keeps = pre is not None and pre >= threshold
            candidates.append((attr, cov, pre, pre_loss, keeps))

        keepers = [c for c in candidates if c[4]]
        chosen = None
        if forced:
            pool = keepers if keepers else candidates
            if keepers:
                # max coverage gain; ties by smaller precision loss, then index
                chosen = min(pool, key=lambda c: (-c[1], c[3], c[0]))
            else:
                # no removal preserves precision: lose the least of it
                chosen = min(pool, key=lambda c: (c[3], -c[1], c[0]))
        else:
            improving = [c for c in keepers if c[1] > cov_now]
            if improving:
                chosen = min(improving, key=lambda c: (-c[1], c[3], c[0]))
        if chosen is None:
            break

        attr = chosen[0]
        cols = space.columns_of(attr)
        l[cols] = 0.0
        u[cols] = 1.0
        violations = violations - (~masks[attr])
        masks[attr] = True
        active.remove(attr)
        order.append(space.attributes[attr].name)
        coverage_path.append(chosen[1])

    return l, u, order, coverage_path


def _explanation(
    l: np.ndarray,
    u: np.ndarray,
    space: EncodedSpace,
    X: np.ndarray,
    labels: np.ndarray,
    query_label: int,
    threshold: float,
    query_encoded: np.ndarray,
    query_raw: list | None,
    elimination_order: list[str],
    trace: OptimizationTrace | None,
) -> Explanation:
    """Decode final bounds into clauses and measure them exactly."""
    bounds = BoxBounds(l, u)
    clauses = decode_bounds(bounds.l, bounds.u, space)
    pre = pre_exact_or_none(bounds, X, labels, query_label)
    return Explanation(
        bounds=bounds,
        clauses=clauses,
        coverage=cov_exact(bounds, X),
        precision=pre,
        query_label=int(query_label),
        feasible=pre is not None and pre >= threshold,
        query_encoded=query_encoded,
        query_raw=query_raw,
        elimination_order=elimination_order,
        trace=trace,
    )


def greedy_eliminate(
    expl: Explanation,
    space: EncodedSpace,
    data: np.ndarray,
    labels: np.ndarray,
    threshold: float,
    max_attrs: int,
) -> Explanation:
    """Shorten an explanation to at most ``max_attrs`` clauses."""
    X = np.asarray(data, dtype=np.float64)
    match = np.asarray(labels) == expl.query_label
    l, u, order, _ = _eliminate(expl.bounds.l, expl.bounds.u, space, X, match,
                                threshold, max_attrs)
    return _explanation(l, u, space, X, labels, expl.query_label, threshold,
                        expl.query_encoded, expl.query_raw, expl.elimination_order + order,
                        expl.trace)


def _attr_cap(max_attrs: int | None, space: EncodedSpace) -> int:
    cap = max_attrs if max_attrs is not None else len(space.attributes)
    if cap < 1:
        raise ValueError("max_attrs must be >= 1")
    return cap


def _finish(
    box: BoxBounds,
    trace: OptimizationTrace,
    q: np.ndarray,
    space: EncodedSpace,
    labels: np.ndarray,
    query_label: int,
    threshold: float,
    cap: int,
    query_raw: list | None,
) -> Explanation:
    """Snap, eliminate and decode an optimized box."""
    X = space.matrix
    box = snap_discrete(box, space)
    match = np.asarray(labels) == query_label
    l, u, order, _ = _eliminate(box.l, box.u, space, X, match, threshold, cap)
    return _explanation(l, u, space, X, labels, query_label, threshold, q, query_raw, order,
                        trace)


def explain_encoded(
    query_encoded: np.ndarray,
    space: EncodedSpace,
    labels: np.ndarray,
    query_label: int,
    cfg: OptimizerConfig,
    k: ApproxConstants = ApproxConstants(),
    max_attrs: int | None = None,
    query_raw: list | None = None,
) -> Explanation:
    """Explanation pipeline over an already-encoded dataset."""
    cap = _attr_cap(max_attrs, space)
    q = np.asarray(query_encoded, dtype=np.float64)
    box, trace = optimize(initial_bounds(q), q, space.matrix, labels, query_label, cfg, k)
    return _finish(box, trace, q, space, labels, query_label, cfg.precision_threshold, cap,
                   query_raw)


def explain_many(
    queries_encoded: np.ndarray,
    space: EncodedSpace,
    labels: np.ndarray,
    query_labels: list[int],
    cfg: OptimizerConfig,
    k: ApproxConstants = ApproxConstants(),
    max_attrs: int | None = None,
) -> list[Explanation]:
    """``explain_encoded`` for each row of ``queries_encoded``, with the
    optimizations stepped in lockstep over one kernel; each explanation
    equals the one ``explain_encoded`` gives for its query alone."""
    cap = _attr_cap(max_attrs, space)
    Q = np.asarray(queries_encoded, dtype=np.float64)
    query_labels = [int(v) for v in query_labels]
    runs = optimize_many([initial_bounds(q) for q in Q], Q, BoxStats(space.matrix, k), labels,
                         query_labels, cfg)
    return [_finish(box, trace, q, space, labels, label, cfg.precision_threshold, cap, None)
            for (box, trace), q, label in zip(runs, Q, query_labels)]


def explain(
    query: list,
    table: RawTable,
    provider: PredictionProvider,
    schema: list[AttributeSchema] | None = None,
    cfg: OptimizerConfig = OptimizerConfig(),
    k: ApproxConstants = ApproxConstants(),
    max_attrs: int | None = None,
) -> Explanation:
    """Explain the provider's decision at ``query`` against a raw table."""
    space = encode(table, schema)
    labels = predict_batch(provider, space.matrix)
    q = space.encode_instance(query)
    query_label = int(predict_batch(provider, q[None, :])[0])
    return explain_encoded(q, space, labels, query_label, cfg, k, max_attrs,
                           query_raw=list(query))

