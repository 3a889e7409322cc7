"""Penalized gradient ascent over box bounds.

The objective rewards soft coverage, adds a soft-precision term gated by the
exact precision falling below the user threshold, and subtracts hinge
penalties for pushing a bound past the query point. Ascent uses an in-repo
Adam update with per-iteration clipping of both bound vectors to [0, 1].
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .indicator import ApproxConstants, BoxBounds, BoxStats

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class OptimizerConfig:
    precision_threshold: float = 0.95
    learning_rate: float = 0.01
    max_iters: int = 2500
    lambda1: float = 5.0   # weight of the gated soft-precision term
    lambda2: float = 5.0   # weight of the query-containment hinge penalty
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    convergence_tol: float = 1e-6
    convergence_window: int = 50
    containment_snap: bool = True

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 < self.precision_threshold <= 1.0:
            raise ValueError("precision_threshold must lie in (0, 1]")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.lambda1 < 0.0 or self.lambda2 < 0.0:
            raise ValueError("lambda1 and lambda2 must be >= 0")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if self.adam_eps <= 0.0:
            raise ValueError("adam_eps must be positive")
        if self.convergence_tol < 0.0:
            raise ValueError("convergence_tol must be >= 0")
        if self.convergence_window < 1:
            raise ValueError("convergence_window must be >= 1")


@dataclass
class TraceRecord:
    iteration: int
    objective: float
    cov_hat: float
    pre_hat: float
    cov: float
    pre: float | None
    violation: float

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "objective": self.objective,
            "cov_hat": self.cov_hat,
            "pre_hat": self.pre_hat,
            "cov": self.cov,
            "pre": self.pre,
            "violation": self.violation,
        }


@dataclass
class OptimizationTrace:
    records: list[TraceRecord] = field(default_factory=list)
    converged: bool = False
    best_iteration: int = 0
    feasible: bool = False

    def __len__(self) -> int:
        return len(self.records)

    def jsonl_lines(self):
        last = len(self.records) - 1
        for i, rec in enumerate(self.records):
            d = rec.to_dict()
            if i == last:
                d["status"] = "converged" if self.converged else "iteration_capped"
            yield json.dumps(d, allow_nan=False)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.jsonl_lines():
                fh.write(line + "\n")


class _Adam:
    """Plain Adam with bias correction; step() returns the ascent update."""

    def __init__(self, size: int, cfg: OptimizerConfig):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self.cfg = cfg

    def step(self, grad: np.ndarray) -> np.ndarray:
        cfg = self.cfg
        self.t += 1
        self.m = cfg.adam_beta1 * self.m + (1.0 - cfg.adam_beta1) * grad
        self.v = cfg.adam_beta2 * self.v + (1.0 - cfg.adam_beta2) * (grad * grad)
        m_hat = self.m / (1.0 - cfg.adam_beta1 ** self.t)
        v_hat = self.v / (1.0 - cfg.adam_beta2 ** self.t)
        return cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


@dataclass
class _Evaluation:
    objective: float
    grad_l: np.ndarray
    grad_u: np.ndarray
    cov_hat: float
    pre_hat: float
    cov: float
    pre: float | None
    violation: float


def _evaluate(
    stats: BoxStats,
    l: np.ndarray,
    u: np.ndarray,
    query: np.ndarray,
    cfg: OptimizerConfig,
) -> _Evaluation:
    """Objective value and its analytic gradient from one kernel pass.

    Step terms (the sgn inside gamma and the precision gate) are treated as
    locally constant, so the gradient is exact everywhere off their jumps.
    """
    p = stats.evaluate(l, u)
    n = stats.n
    cov_hat = p.h_sum / n
    pre_hat = p.match_sum / p.h_sum
    cov = p.n_in / n
    pre = p.n_match / p.n_in if p.n_in else None

    if pre is None:
        gate = 2.0  # empty box: force the precision term on, same as pre < P
    else:
        gate = 1.0 + float(np.sign(cfg.precision_threshold - pre))

    viol_l = np.maximum(l - query, 0.0)
    viol_u = np.maximum(query - u, 0.0)
    violation = float(viol_l.sum() + viol_u.sum())

    objective = cov_hat + cfg.lambda1 * pre_hat * gate - cfg.lambda2 * violation

    # pre_hat = match_sum / h_sum, differentiated by the quotient rule
    inv = 1.0 / (p.h_sum * p.h_sum)
    dpre_dl = (p.h_sum * p.grad_l[1] - p.match_sum * p.grad_l[0]) * inv
    dpre_du = (p.h_sum * p.grad_u[1] - p.match_sum * p.grad_u[0]) * inv
    weight = cfg.lambda1 * gate
    grad_l = p.grad_l[0] / n + weight * dpre_dl - cfg.lambda2 * (l > query)
    grad_u = p.grad_u[0] / n + weight * dpre_du + cfg.lambda2 * (query > u)

    return _Evaluation(objective, grad_l, grad_u, cov_hat, pre_hat, cov, pre, violation)


def _prep(query, data, labels, query_label):
    X = np.asarray(data, dtype=np.float64)
    q = np.asarray(query, dtype=np.float64)
    match = (np.asarray(labels) == query_label).astype(np.float64)
    return q, X, match


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
    q, X, match = _prep(query, data, labels, query_label)
    return _evaluate(BoxStats(X, match, k), b.l, b.u, q, cfg).objective


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
    q, X, match = _prep(query, data, labels, query_label)
    ev = _evaluate(BoxStats(X, match, k), b.l, b.u, q, cfg)
    return ev.grad_l, ev.grad_u


def initial_bounds(query: np.ndarray, margin: float = 0.05) -> BoxBounds:
    """Small box around the query: guaranteed containment, likely feasible."""
    q = np.asarray(query, dtype=np.float64)
    return BoxBounds(np.clip(q - margin, 0.0, 1.0), np.clip(q + margin, 0.0, 1.0))


def _snap_to_query(l: np.ndarray, u: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.minimum(l, query), np.maximum(u, query)


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
    q, X, match = _prep(query, data, labels, query_label)
    stats = BoxStats(X, match, k)
    l = initial.l.copy()
    u = initial.u.copy()
    d = l.shape[0]
    adam = _Adam(2 * d, cfg)
    trace = OptimizationTrace()

    best_key = None
    best_lu = None

    def consider(l_now, u_now, ev, iteration):
        nonlocal best_key, best_lu
        cov, pre = ev.cov, ev.pre
        if cfg.containment_snap and ev.violation > 0.0:
            # the snap moves a bound only where the query lies outside
            l_now, u_now = _snap_to_query(l_now, u_now, q)
            n_in, n_match = stats.exact(l_now, u_now)
            cov = n_in / stats.n
            pre = n_match / n_in if n_in else None
        feasible = pre is not None and pre >= cfg.precision_threshold
        key = (1 if feasible else 0, cov)
        if best_key is None or key > best_key:
            best_key = key
            best_lu = (l_now.copy(), u_now.copy())
            trace.best_iteration = iteration
            trace.feasible = feasible

    ev = _evaluate(stats, l, u, q, cfg)
    if ev.pre is None:
        log.debug("initial box empty: precision gate forced active")
    consider(l, u, ev, 0)

    objectives = []
    for it in range(1, cfg.max_iters + 1):
        step = adam.step(np.concatenate([ev.grad_l, ev.grad_u]))
        l = np.clip(l + step[:d], 0.0, 1.0)
        u = np.clip(u + step[d:], 0.0, 1.0)
        crossed = l > u
        if crossed.any():
            # an inverted axis admits nothing and is an absorbing state under
            # ascent; project both bounds onto their midpoint so the (empty)
            # box can keep moving
            mid = 0.5 * (l[crossed] + u[crossed])
            l[crossed] = mid
            u[crossed] = mid
        ev = _evaluate(stats, l, u, q, cfg)
        trace.records.append(TraceRecord(it, ev.objective, ev.cov_hat, ev.pre_hat,
                                         ev.cov, ev.pre, ev.violation))
        consider(l, u, ev, it)
        objectives.append(ev.objective)
        w = cfg.convergence_window
        if len(objectives) >= w:
            window = objectives[-w:]
            if max(window) - min(window) < cfg.convergence_tol:
                trace.converged = True
                break

    return BoxBounds(*best_lu), trace
