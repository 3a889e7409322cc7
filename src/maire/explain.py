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
from .indicator import (ApproxConstants, BoxBounds, BoxStats, cov_exact, in_box_counts, outside,
                        pre_exact_or_none, precision)
from .optimize import (
    BLOCK_BYTES,
    OptimizationTrace,
    OptimizerConfig,
    initial_bounds,
    optimize,
    optimize_many,
)
from .schema import (
    AttributeSchema,
    EncodedSpace,
    RawTable,
    RuleClause,
    decode_bounds,
    encode,
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
    increases coverage at precision >= threshold. Returns the widened
    bounds, the names of the removed attributes in order and the coverage
    after each removal. This is the one-box case of ``_eliminate_many``.
    """
    L, U, orders, paths = _eliminate_many(l[None], u[None], space, np.ascontiguousarray(X.T),
                                          np.asarray(match, dtype=bool)[None], threshold,
                                          max_attrs)
    return L[0], U[0], orders[0], paths[0]


def _eliminate_many(
    L: np.ndarray,
    U: np.ndarray,
    space: EncodedSpace,
    columns: np.ndarray,
    match: np.ndarray,
    threshold: float,
    max_attrs: int,
) -> tuple[np.ndarray, np.ndarray, list[list[str]], list[list[float]]]:
    """``_eliminate`` for A boxes at once: (A, D) bounds, the data as
    (D, N) columns and (A, N) bool match rows in, the widened bounds and
    per-box orders and coverage paths out.

    Every box and attribute keeps its row and column for the whole loop. A
    box stops when its pool of removals is empty, and the loop ends when no
    box has a pick. Each step counts every candidate of every box at once:
    after widening attribute a, a row lies inside exactly when a is the only
    attribute it violates. Each box then picks as ``lexsort`` would rank its
    candidates: removals in the pool first, then by larger coverage, smaller
    precision loss and lower attribute index (or, where no forced removal
    keeps precision, by smaller loss, then larger coverage and lower index).
    """
    a, n = match.shape
    names = [attr.name for attr in space.attributes]
    starts = np.searchsorted(space.attr_of, np.arange(len(names) + 1))  # each attribute's columns
    # out[i, j, r]: row r lies outside box i on attribute j, one attribute at
    # a time (a reduceat along the middle axis takes ten times as long)
    out = np.stack([outside(L[:, s:e], U[:, s:e], columns[s:e]).any(axis=1)
                    for s, e in zip(starts, starts[1:])], axis=1)
    # the attributes that constrain each box, and of those the ones not yet removed
    constrained = np.logical_or.reduceat((L > 0.0) | (U < 1.0), starts[:-1], axis=1)
    active = constrained.copy()
    # (A, N): attributes each row violates, in the smallest integer that holds them
    violations = out.sum(axis=1, dtype=np.min_scalar_type(len(names)))
    orders: list[list[str]] = [[] for _ in range(a)]
    paths: list[list[float]] = [[] for _ in range(a)]

    def measure(inside, match):
        """Coverage and precision (0 where empty) of (..., N) row masks."""
        n_in, n_match = in_box_counts(inside, match)
        return n_in / n, precision(n_in, n_match, empty=0.0)

    while True:
        forced = active.sum(axis=1) > max_attrs
        cov_now, pre_now = measure(violations == 0, match)
        cov, pre = measure(violations[:, None] == out, match[:, None])
        loss = pre_now[:, None] - pre
        keeps = active & (pre >= threshold)  # P > 0, so an empty box never keeps
        # no forced removal preserves precision: lose the least of it
        least = (forced & ~keeps.any(axis=1))[:, None]
        # otherwise the largest coverage gain, kept to gains once under the cap
        pool = np.where(least, active, keeps & (forced[:, None] | (cov > cov_now[:, None])))
        going = np.flatnonzero(pool.any(axis=1))
        if not going.size:
            break
        ranked = pool
        for key in (np.where(least, loss, -cov), np.where(least, -cov, loss)):
            ranked = ranked & (key == np.where(ranked, key, np.inf).min(axis=1, keepdims=True))
        pick = ranked[going].argmax(axis=1)  # the lowest index among the ties

        violations[going] -= out[going, pick]
        active[going, pick] = False
        for i, attr, c in zip(going.tolist(), pick.tolist(), cov[going, pick].tolist()):
            orders[i].append(names[attr])
            paths[i].append(c)

    wide = (constrained & ~active)[:, space.attr_of]
    return np.where(wide, 0.0, L), np.where(wide, 1.0, U), orders, paths


def _attr_cap(max_attrs: int | None, space: EncodedSpace) -> int:
    cap = max_attrs if max_attrs is not None else len(space.attributes)
    if cap < 1:
        raise ValueError("max_attrs must be >= 1")
    return cap


def _finish(
    runs: list[tuple[BoxBounds, OptimizationTrace]],
    space: EncodedSpace,
    labels: np.ndarray,
    query_labels: list[int],
    threshold: float,
    cap: int,
    query_raws: list,
) -> list[Explanation]:
    """Snap, eliminate and decode optimized boxes, and measure each rule
    exactly. The eliminations run in lockstep, in blocks of at most
    ``BLOCK_BYTES`` of work arrays."""
    X = space.matrix
    labels = np.asarray(labels)
    boxes = [snap_discrete(box, space) for box, _ in runs]
    # a box's work arrays in the elimination: its (attrs, N) outside mask, a
    # step's candidate mask and its matching rows, all bool, and a few
    # per-row arrays
    size = max(1, BLOCK_BYTES // (len(X) * (3 * len(space.attributes) + 16)))
    # an encoded matrix is column-major, so this is a view; it copies only a
    # row-major matrix built by hand, whose strided X.T would make the in-box
    # test 3-10x slower
    columns = np.ascontiguousarray(X.T)
    eliminated = []
    for s in range(0, len(boxes), size):
        block = boxes[s:s + size]
        match = labels == np.asarray(query_labels[s:s + size])[:, None]
        L, U, orders, _ = _eliminate_many(np.stack([b.l for b in block]),
                                          np.stack([b.u for b in block]), space, columns,
                                          match, threshold, cap)
        eliminated += zip(L, U, orders)
    expls = []
    for (l, u, order), (_, trace), label, raw in zip(eliminated, runs, query_labels, query_raws):
        bounds = BoxBounds(l, u)
        pre = pre_exact_or_none(bounds, X, labels, label)
        expls.append(Explanation(
            bounds=bounds,
            clauses=decode_bounds(bounds.l, bounds.u, space),
            coverage=cov_exact(bounds, X),
            precision=pre,
            query_label=int(label),
            feasible=pre is not None and pre >= threshold,
            query_raw=raw,
            elimination_order=order,
            trace=trace,
        ))
    return expls


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
    run = optimize(initial_bounds(q), q, space.matrix, labels, query_label, cfg, k)
    return _finish([run], space, labels, [int(query_label)], cfg.precision_threshold, cap,
                   [query_raw])[0]


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
    optimizations and the eliminations stepped in lockstep; each explanation
    equals the one ``explain_encoded`` gives for its query alone."""
    cap = _attr_cap(max_attrs, space)
    Q = np.asarray(queries_encoded, dtype=np.float64)
    query_labels = [int(v) for v in query_labels]
    runs = optimize_many([initial_bounds(q) for q in Q], Q, BoxStats(space.matrix, k), labels,
                         query_labels, cfg)
    return _finish(runs, space, labels, query_labels, cfg.precision_threshold, cap,
                   [None] * len(Q))


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

