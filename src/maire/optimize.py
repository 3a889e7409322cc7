"""Penalized gradient ascent over box bounds.

The objective rewards soft coverage, adds a soft-precision term gated by the
exact precision falling below the user threshold, and subtracts hinge
penalties for pushing a bound past the query point. Ascent uses an in-repo
Adam update with per-iteration clipping of both bound vectors to [0, 1].
"""

from __future__ import annotations

import functools
import json
import logging
from dataclasses import dataclass

import numpy as np

from .indicator import ApproxConstants, BoxBounds, BoxPass, BoxStats

log = logging.getLogger(__name__)

# Adam's published defaults (Kingma & Ba, arXiv 1412.6980)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    precision_threshold: float = 0.95
    learning_rate: float = 0.01
    max_iters: int = 2500
    lambda1: float = 5.0   # weight of the gated soft-precision term
    lambda2: float = 5.0   # weight of the query-containment hinge penalty
    containment_snap: bool = True

    def __post_init__(self):
        for name in ("learning_rate", "lambda1", "lambda2"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 < self.precision_threshold <= 1.0:
            raise ValueError("precision_threshold must lie in (0, 1]")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.lambda1 < 0.0 or self.lambda2 < 0.0:
            raise ValueError("lambda1 and lambda2 must be >= 0")


# the columns of OptimizationTrace.values
TRACE_COLUMNS = ("objective", "cov_hat", "pre_hat", "cov", "pre", "violation")


@dataclass
class OptimizationTrace:
    """One ascent's values per iteration: row t - 1 holds iteration t's
    ``TRACE_COLUMNS``, with ``pre`` NaN where the box was empty."""

    values: np.ndarray
    best_iteration: int
    feasible: bool
    # every ascent runs max_iters iterations, so none stops early. Kept only
    # because bench/tracing.py::_optimized reads it; delete it once the bench
    # stops reading it (ROADMAP item 1, bench half)
    converged = False

    def __len__(self) -> int:
        return self.values.shape[0]

    def jsonl_lines(self):
        last = len(self) - 1
        for i, row in enumerate(self.values.tolist()):
            d = {"iteration": i + 1, **dict(zip(TRACE_COLUMNS, row))}
            if d["pre"] != d["pre"]:
                d["pre"] = None
            if i == last:
                d["status"] = "iteration_capped"
            yield json.dumps(d, allow_nan=False)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.jsonl_lines():
                fh.write(line + "\n")


# Boxes step together in blocks whose work arrays (above all the kernel's
# dense (A, 4w, N) buffer) fit in this many bytes. Past a few MB a block
# gains no speed, since a numpy call's fixed cost is already small against
# its work, but it keeps adding resident memory.
BLOCK_BYTES = 2 << 20
# Iterations stepped between the passes that work out objectives and trace
# values and rank iterates.
STRETCH = 32


def _precision(n_match: np.ndarray, n_in: np.ndarray) -> np.ndarray:
    """Exact precision, NaN where the box is empty."""
    return n_match / np.where(n_in > 0, n_in, np.nan)


def _gate(n_match: np.ndarray, n_in: np.ndarray, cfg: OptimizerConfig) -> np.ndarray:
    """The precision gate: 0, 1 or 2 as exact precision is above, at or below
    P. An empty box has no matches, so counting it as one row gives it
    precision 0 and forces the precision term on."""
    return 1.0 + np.sign(cfg.precision_threshold - n_match / np.maximum(n_in, 1))


@functools.cache
def _side(d: int) -> np.ndarray:
    """+1 on the D lower bounds, -1 on the D upper ones."""
    return np.repeat([1.0, -1.0], d)


def _past(lu: np.ndarray, qq: np.ndarray) -> np.ndarray:
    """How far each bound of (..., 2D) bounds ``lu`` = (l, u) lies past the
    query, ``qq`` = (q, q): l - q on the lower bounds, q - u on the upper."""
    return (lu - qq) * _side(lu.shape[-1] // 2)


def _containment(lu: np.ndarray, qq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which bounds lie past the query, and the containment violation: the
    summed distance past it, per box."""
    past = _past(lu, qq)
    viol = np.add.reduce(np.maximum(past, 0.0).reshape(*past.shape[:-1], 2, -1), axis=-1)
    return past > 0.0, viol[..., 0] + viol[..., 1]


def _gradient(p: BoxPass, past: np.ndarray, cfg: OptimizerConfig, n: int) -> np.ndarray:
    """Analytic gradient of the objective with respect to (l, u), (A, 2D).

    Step terms (the sgn inside gamma and the precision gate) are treated as
    locally constant, so the gradient is exact everywhere off their jumps.
    """
    gate = _gate(p.n_match, p.n_in, cfg)
    # pre_hat = match_sum / h_sum, differentiated by the quotient rule
    h_sum, match_sum = p.h_sum[:, None], p.match_sum[:, None]
    dpre = (h_sum * p.grad[:, 1] - match_sum * p.grad[:, 0]) * (1.0 / (h_sum * h_sum))
    return (p.grad[:, 0] / n + (cfg.lambda1 * gate)[:, None] * dpre
            - cfg.lambda2 * _side(past.shape[-1] // 2) * (past > 0.0))


def _terms(h_sum, match_sum, n_in, n_match, violation, cfg: OptimizerConfig, n: int):
    """Objective, soft and exact coverage and precision from a pass's sums,
    and the violation passed in, for any leading shape of boxes."""
    cov_hat = h_sum / n
    pre_hat = match_sum / h_sum
    cov = n_in / n
    pre = _precision(n_match, n_in)
    objective = cov_hat + cfg.lambda1 * pre_hat * _gate(n_match, n_in, cfg) - cfg.lambda2 * violation
    return objective, cov_hat, pre_hat, cov, pre, violation


def _prep(query, data, labels, query_label):
    X = np.asarray(data, dtype=np.float64)
    q = np.asarray(query, dtype=np.float64)
    match = (np.asarray(labels) == query_label).astype(np.float64)
    return q, X, match


def _pass_one(b, query, data, labels, query_label, k):
    """Row count, kernel pass and (1, 2D) bounds and queries of one box."""
    q, X, match = _prep(query, data, labels, query_label)
    p = BoxStats(X, k).evaluate(b.l[None], b.u[None], match[None])
    return X.shape[0], p, np.concatenate([b.l, b.u])[None], np.concatenate([q, q])[None]


def objective(
    b: BoxBounds,
    query: np.ndarray,
    data: np.ndarray,
    labels: np.ndarray,
    query_label: int,
    cfg: OptimizerConfig,
    k: ApproxConstants = ApproxConstants(),
) -> float:
    """Penalized ascent objective at one set of bounds."""
    n, p, lu, qq = _pass_one(b, query, data, labels, query_label, k)
    violation = _containment(lu, qq)[1]
    return float(_terms(p.h_sum, p.match_sum, p.n_in, p.n_match, violation, cfg, n)[0][0])


def gradient(
    b: BoxBounds,
    query: np.ndarray,
    data: np.ndarray,
    labels: np.ndarray,
    query_label: int,
    cfg: OptimizerConfig,
    k: ApproxConstants = ApproxConstants(),
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of the objective w.r.t. (l, u)."""
    n, p, lu, qq = _pass_one(b, query, data, labels, query_label, k)
    grad = _gradient(p, _past(lu, qq), cfg, n)[0]
    return grad[:b.dim], grad[b.dim:]


def initial_bounds(query: np.ndarray, margin: float = 0.05) -> BoxBounds:
    """Small box around the query: guaranteed containment, likely feasible."""
    q = np.asarray(query, dtype=np.float64)
    return BoxBounds(np.clip(q - margin, 0.0, 1.0), np.clip(q + margin, 0.0, 1.0))


def optimize(
    initial: BoxBounds,
    query: np.ndarray,
    data: np.ndarray,
    labels: np.ndarray,
    query_label: int,
    cfg: OptimizerConfig,
    k: ApproxConstants = ApproxConstants(),
) -> tuple[BoxBounds, OptimizationTrace]:
    """Adam ascent on the objective with per-iteration clipping to [0, 1].

    Returns the best iterate rather than the last: iterates are ranked
    feasible-first (exact precision >= threshold after the containment
    snap, if enabled), then by exact coverage. Infeasibility of the winner
    is flagged on the trace, not raised.
    """
    q = np.asarray(query, dtype=np.float64)
    return optimize_many([initial], q[None], BoxStats(data, k), labels, [query_label], cfg)[0]


def _box_bytes(stats: BoxStats) -> int:
    """Work-array bytes of one box in a block: the kernel's dense buffer and
    about ten other per-row arrays of a pass, plus a stretch of its bounds
    and two arrays of their distances past the query."""
    return 8 * stats.n * (4 * stats.dense.size + 10) + 8 * STRETCH * 6 * stats.d


def optimize_many(
    initial: list[BoxBounds],
    queries: np.ndarray,
    stats: BoxStats,
    labels: np.ndarray,
    query_labels: list[int],
    cfg: OptimizerConfig,
) -> list[tuple[BoxBounds, OptimizationTrace]]:
    """``optimize`` for many queries over one dataset: the ascents step in
    lockstep, in blocks of at most ``BLOCK_BYTES`` of work arrays. Each
    query's result equals that of ``optimize`` run on it alone."""
    labels = np.asarray(labels)
    size = max(1, BLOCK_BYTES // _box_bytes(stats))
    out = []
    for s in range(0, len(initial), size):
        block = slice(s, s + size)
        match = (labels == np.asarray(query_labels[block])[:, None]).astype(np.float64)
        out += _ascend(stats, initial[block], np.asarray(queries[block], dtype=np.float64),
                       match, cfg)
    return out


def _ascend(
    stats: BoxStats,
    initial: list[BoxBounds],
    queries: np.ndarray,
    match: np.ndarray,
    cfg: OptimizerConfig,
) -> list[tuple[BoxBounds, OptimizationTrace]]:
    """Adam ascent of A boxes in lockstep for ``cfg.max_iters`` iterations,
    each with its own best iterate.

    Per-box state is held in (A, .) arrays. Each iteration takes one kernel
    pass and the gradient; everything else (objective, trace values, snapped
    recounts and the ranking of iterates) is worked out once per stretch of
    ``STRETCH`` iterations, over all of them at once.
    """
    a, d, n = len(initial), stats.d, stats.n
    lu = np.stack([np.concatenate([b.l, b.u]) for b in initial])
    qq = np.concatenate([queries, queries], axis=1)
    m = np.zeros((a, 2 * d))
    v = np.zeros((a, 2 * d))
    # best iterate so far of each box. Iterates rank feasible first, then by
    # exact coverage: as one number, coverage plus 2 if feasible (coverages
    # are multiples of 1/N, so adding 2 never merges two of them)
    best_lu = lu.copy()
    best_key = np.full(a, -1.0)  # below every key: iteration 0 always wins
    best_iteration = np.zeros(a, dtype=np.intp)
    logged = []  # (C, A, 6) trace values per stretch

    def rank(LU, outside, cov, pre, violation, first):
        """Fold iterations first, first + 1, ... into the best iterates. Rows
        are iterations: (C, A, 2D) bounds and which of them lie past the
        query, (C, A) per-box values."""
        if cfg.containment_snap:
            # the snap moves onto the query the bounds that lie past it
            snap = violation > 0.0
            if snap.any():
                cov, pre = cov.copy(), pre.copy()
                for j in np.flatnonzero(snap.any(axis=1)):
                    s = snap[j]
                    snapped = np.where(outside[j, s], qq[s], LU[j, s])
                    n_in, n_match = stats.exact(snapped[:, :d], snapped[:, d:], match[s])
                    cov[j, s] = n_in / n
                    pre[j, s] = _precision(n_match, n_in)
        key = cov + 2.0 * (pre >= cfg.precision_threshold)
        row = np.argmax(key, axis=0)  # the first row holding each box's top key
        boxes = np.arange(a)
        top = key[row, boxes]
        better = top > best_key
        won = row[better], boxes[better]
        best_lu[better] = (np.where(outside[won], qq[better], LU[won]) if cfg.containment_snap
                           else LU[won])
        best_key[better] = top[better]
        best_iteration[better] = first + row[better]

    p = stats.evaluate(lu[:, :d], lu[:, d:], match)
    grad = _gradient(p, _past(lu, qq), cfg, n)
    outside, violation = _containment(lu, qq)
    _, _, _, cov, pre, _ = _terms(p.h_sum, p.match_sum, p.n_in, p.n_match, violation, cfg, n)
    if np.isnan(pre).any():
        log.debug("initial box empty: precision gate forced active")
    rank(lu[None], outside[None], cov[None], pre[None], violation[None], 0)

    b1, b2 = ADAM_BETA1, ADAM_BETA2
    LU = np.empty((min(STRETCH, cfg.max_iters), a, 2 * d))  # the stretch's iterates
    for first in range(1, cfg.max_iters + 1, STRETCH):
        sums = []
        for j, it in enumerate(range(first, min(first + STRETCH, cfg.max_iters + 1))):
            m = b1 * m + (1.0 - b1) * grad
            v = b2 * v + (1.0 - b2) * (grad * grad)
            m_hat = m / (1.0 - b1 ** it)
            v_hat = v / (1.0 - b2 ** it)
            lu = np.clip(lu + cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS),
                         0.0, 1.0, out=LU[j])
            l, u = lu[:, :d], lu[:, d:]
            crossed = l > u
            if crossed.any():
                # an inverted axis admits nothing and is an absorbing state
                # under ascent; project both bounds onto their midpoint so the
                # (empty) box can keep moving
                mid = 0.5 * (l[crossed] + u[crossed])
                l[crossed] = mid
                u[crossed] = mid
            p = stats.evaluate(l, u, match)
            grad = _gradient(p, _past(lu, qq), cfg, n)
            sums.append((p.h_sum, p.match_sum, p.n_in, p.n_match))
        rows = len(sums)
        outside, violation = _containment(LU[:rows], qq)
        terms = _terms(*(np.array(x) for x in zip(*sums)), violation, cfg, n)
        rank(LU[:rows], outside, terms[3], terms[4], violation, first)
        logged.append(np.stack(terms, axis=2))

    values = np.concatenate(logged)  # (T, A, 6): box i's trace is values[:, i]
    return [(BoxBounds(best_lu[i, :d], best_lu[i, d:]),
             OptimizationTrace(values[:, i], int(best_iteration[i]), bool(best_key[i] >= 2.0)))
            for i in range(a)]
