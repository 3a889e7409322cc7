"""End-to-end local explanation: optimize, snap, simplify, decode.

An explanation is a box in encoded space plus the clauses it decodes to.
Greedy elimination shortens the rule by widening one raw attribute at a
time to the full range, preferring removals that gain the most coverage
while keeping exact precision above the threshold.
"""

from __future__ import annotations

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
    increases coverage at precision >= threshold. Each step counts every
    candidate at once: after widening attribute a, a row lies inside exactly
    when a is the only attribute it violates.
    """
    l = l.copy()
    u = u.copy()
    n = len(X)
    member = np.eye(len(space.attributes))[space.attr_of]  # (columns, attrs) one-hot
    out = (((X < l) | (X > u)) @ member).T > 0  # (attrs, N): row outside on attribute
    violations = out.sum(axis=0)  # per row: number of violated attributes
    active = np.asarray(nontrivial_attributes(l, u, space), dtype=np.intp)
    order: list[str] = []
    coverage_path: list[float] = []

    def measure(inside):
        """Coverage, precision (0 where empty) and non-emptiness of (..., N)
        row masks."""
        n_in = inside.sum(axis=-1)
        pre = np.where(n_in > 0, (inside & match).sum(axis=-1) / np.maximum(n_in, 1), 0.0)
        return n_in / n, pre, n_in > 0

    while active.size:
        forced = active.size > max_attrs
        cov_now, pre_now, _ = measure(violations == 0)
        cov, pre, nonempty = measure(violations == out[active])
        loss = pre_now - pre
        keeps = nonempty & (pre >= threshold)
        if forced and not keeps.any():
            # no removal preserves precision: lose the least of it
            pick = np.lexsort((active, -cov, loss))[0]
        else:
            # max coverage gain; ties by smaller precision loss, then index
            pool = keeps if forced else keeps & (cov > cov_now)
            if not pool.any():
                break
            pick = np.lexsort((active, loss, -cov, ~pool))[0]

        attr = active[pick]
        cols = space.attr_of == attr
        l[cols] = 0.0
        u[cols] = 1.0
        violations -= out[attr]
        active = np.delete(active, pick)
        order.append(space.attributes[attr].name)
        coverage_path.append(float(cov[pick]))

    return l, u, order, coverage_path


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
    """Snap, eliminate and decode an optimized box, and measure the rule
    exactly."""
    X = space.matrix
    box = snap_discrete(box, space)
    match = np.asarray(labels) == query_label
    l, u, order, _ = _eliminate(box.l, box.u, space, X, match, threshold, cap)
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
        query_encoded=q,
        query_raw=query_raw,
        elimination_order=order,
        trace=trace,
    )


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
    q = space.encode_instance(query)  # a bad query fails before any row is labelled
    labels = predict_batch(provider, space.matrix)
    query_label = int(predict_batch(provider, q[None, :])[0])
    return explain_encoded(q, space, labels, query_label, cfg, k, max_attrs,
                           query_raw=list(query))

