"""Penalized gradient ascent over box bounds.

The objective rewards soft coverage, adds a soft-precision term gated by the
exact precision falling below the user threshold, and subtracts hinge
penalties for pushing a bound past the query point. Ascent uses an in-repo
Adam update on signed bounds s = (l, -u) (see ``BoxStats``), clipped each
iteration to [0, 1]^D x [-1, 0]^D. A bound lies past the query where
s > (q, -q), and the gradient with respect to s has one sign for every bound.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .indicator import (ApproxConstants, BoxBounds, BoxPass, BoxStats, in_box_counts, outside,
                        precision)

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
        # a bool is an int to Python, and a float would fail later in np.empty
        if (not isinstance(self.max_iters, (int, np.integer)) or isinstance(self.max_iters, bool)
                or self.max_iters < 1):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
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
    # stops reading it (ROADMAP item 10)
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
# dense (4w, A, N) buffer, and in the elimination the (A, attrs, N) outside
# masks) fit in this many bytes. A larger block pays a block's fixed numpy
# calls fewer times, but 120 anchors at 120 rows gain only down to about 3
# blocks, which 2 MiB already gives; past that only resident memory grows.
BLOCK_BYTES = 2 << 20
# Iterations stepped between the passes that work out objectives and trace
# values and rank iterates, at most (see ``_stretch``). The ranking keeps the
# earliest iterate with the top key, so the length changes no result.
STRETCH = 32


def _gate(pre: np.ndarray, cfg: OptimizerConfig) -> np.ndarray:
    """The precision gate: 0, 1 or 2 as exact precision ``pre`` is above, at
    or below P. An empty box's NaN counts as 0, forcing the precision term on."""
    return 1.0 + np.sign(cfg.precision_threshold - np.fmax(pre, 0.0))


def _containment(s: np.ndarray, qs: np.ndarray,
                 out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Which of the (..., 2D) signed bounds ``s`` lie past the query, ``qs``
    = (q, -q), and the containment violation: the summed distance past it,
    s - qs (l - q on the lower bounds, q - u on the upper), per box. The
    distances, clipped at 0, are written into ``out`` if given."""
    dist = np.subtract(s, qs, out=out)
    viol = np.add.reduce(np.maximum(dist, 0.0, out=dist).reshape(*dist.shape[:-1], 2, -1), axis=-1)
    return dist > 0.0, viol[..., 0] + viol[..., 1]


def _step(stats: BoxStats, s: np.ndarray, qs: np.ndarray, match: np.ndarray,
          cfg: OptimizerConfig) -> tuple[BoxPass, np.ndarray]:
    """One forward and one backward pass at (A, 2D) signed bounds ``s``: the
    pass, and the objective's analytic gradient with respect to s.

    The objective h_sum/N + lambda1 gate match_sum/h_sum is linear in the
    rows' dh, so its gradient is one backward pass with the weights
    slope (alpha + beta match): by the quotient rule, beta = lambda1
    gate/h_sum and alpha = 1/N - beta match_sum/h_sum. Step terms (the sgn
    inside gamma and the precision gate) are treated as locally constant,
    so the gradient is exact everywhere off their jumps.
    """
    p = stats.forward(s, match)
    beta = cfg.lambda1 * _gate(precision(p.n_in, p.n_match), cfg) / p.h_sum
    alpha = 1.0 / stats.n - beta * (p.match_sum / p.h_sum)
    w = (match * beta[:, None] + alpha[:, None]) * p.slope
    return p, stats.backward(w) - cfg.lambda2 * (s > qs)


def _terms(h_sum, match_sum, n_in, n_match, violation, cfg: OptimizerConfig, n: int):
    """Objective, soft and exact coverage and precision from a pass's sums,
    and the violation passed in, for any leading shape of boxes."""
    cov_hat = h_sum / n
    pre_hat = match_sum / h_sum
    cov = n_in / n
    pre = precision(n_in, n_match)
    objective = cov_hat + cfg.lambda1 * pre_hat * _gate(pre, cfg) - cfg.lambda2 * violation
    return objective, cov_hat, pre_hat, cov, pre, violation


def _queries(queries, stats: BoxStats, ndim: int) -> np.ndarray:
    """``queries`` as floats, ``ndim``-D and each of the table's width; else a
    ValueError naming both shapes."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != ndim or q.shape[-1] != stats.d:
        raise ValueError(f"queries of shape {q.shape} do not fit a table of shape "
                         f"({stats.n}, {stats.d})")
    return q


def _one(b, query, data, labels, query_label, k):
    """Kernel, (1, 2D) signed bounds and query and (1, N) match row of one box."""
    match = (np.asarray(labels) == query_label).astype(np.float64)
    stats = BoxStats(data, k)
    q = _queries(query, stats, 1)
    return stats, b.signed()[None], np.concatenate([q, -q])[None], match[None]


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
    stats, s, qs, match = _one(b, query, data, labels, query_label, k)
    p = stats.forward(s, match)
    violation = _containment(s, qs)[1]
    return float(_terms(p.h_sum, p.match_sum, p.n_in, p.n_match, violation, cfg, stats.n)[0][0])


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
    grad = _step(*_one(b, query, data, labels, query_label, k), cfg)[1][0]
    return grad[:b.dim], -grad[b.dim:]


def initial_bounds(query: np.ndarray) -> BoxBounds:
    """Box reaching 0.05 past the query on each side, clipped to [0, 1]:
    guaranteed containment, likely feasible."""
    q = np.asarray(query, dtype=np.float64)
    return BoxBounds(np.clip(q - 0.05, 0.0, 1.0), np.clip(q + 0.05, 0.0, 1.0))


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
    return optimize_many([initial], np.asarray(query)[None], BoxStats(data, k), labels,
                         [query_label], cfg)[0]


def _stretch(stats: BoxStats) -> int:
    """Iterations per stretch: ``STRETCH``, or fewer where a box's stretch of
    iterates and their scratch would take over an eighth of its other bytes."""
    return max(1, min(STRETCH, _box_bytes(stats, 0) // (8 * 32 * stats.d)))


def _box_bytes(stats: BoxStats, stretch: int | None = None) -> int:
    """Bytes one box holds in a block at the peak of a pass: per row, the
    dense buffer and about 13 other arrays; about 7 per level comparison; per
    signed bound, about 7 arrays and a stretch of iterates and their scratch,
    ``stretch`` (by default ``_stretch``) long. The trace is left out: it
    outlives the block and does not depend on the blocking."""
    return 8 * (stats.n * (4 * stats.dense.size + 13) + 14 * stats.level_val.size
                + 2 * stats.d * (2 * (_stretch(stats) if stretch is None else stretch) + 7))


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
    query's result equals that of ``optimize`` run on it alone. ``queries``
    is (A, D) for a table of D columns, else a ValueError names both shapes."""
    labels = np.asarray(labels)
    queries = _queries(queries, stats, 2)
    size = max(1, BLOCK_BYTES // _box_bytes(stats))
    out = []
    for s in range(0, len(initial), size):
        block = slice(s, s + size)
        match = (labels == np.asarray(query_labels[block])[:, None]).astype(np.float64)
        out += _ascend(stats, initial[block], queries[block], match, cfg)
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
    ``_stretch`` iterations, over all of them at once.
    """
    a, d, n, stretch = len(initial), stats.d, stats.n, _stretch(stats)
    s = np.stack([b.signed() for b in initial])
    qs = np.concatenate([queries, -queries], axis=1)
    lo, hi = np.repeat([[0.0, -1.0], [1.0, 0.0]], d, axis=1)  # l in [0, 1], -u in [-1, 0]
    m = np.zeros((a, 2 * d))
    v = np.zeros((a, 2 * d))
    # best iterate so far of each box. Iterates rank feasible first, then by
    # exact coverage: as one number, coverage plus 2 if feasible (coverages
    # are multiples of 1/N, so adding 2 never merges two of them)
    best_s = s.copy()
    best_key = np.full(a, -1.0)  # below every key: iteration 0 always wins
    best_iteration = np.zeros(a, dtype=np.intp)
    values = np.empty((cfg.max_iters, a, 6))  # box i's trace is values[:, i]
    S = np.empty((min(stretch, cfg.max_iters), a, 2 * d))  # the stretch's iterates
    P = np.empty_like(S)  # scratch: their distances past the query, then their snaps

    def rank(S, past, cov, pre, violation, first):
        """Fold iterations first, first + 1, ... into the best iterates. Rows
        are iterations: (C, A, 2D) signed bounds and which of them lie past
        the query, (C, A) per-box values."""
        if cfg.containment_snap:
            # the snap moves the bounds past the query onto it, in the scratch;
            # the iterates it moved are recounted over the table one at a time
            np.copyto(P[:len(S)], S)
            S = P[:len(S)]
            np.copyto(S, qs, where=past)
            moved = violation > 0.0
            if moved.any():
                n_in, n_match = np.array([in_box_counts(
                    ~outside(t[None, :d], -t[None, d:], stats.columns)[0].any(axis=0), match[box])
                    for t, box in zip(S[moved], np.nonzero(moved)[1])]).T
                cov, pre = cov.copy(), pre.copy()
                cov[moved] = n_in / n
                pre[moved] = precision(n_in, n_match)
        key = cov + 2.0 * (pre >= cfg.precision_threshold)
        row = np.argmax(key, axis=0)  # the first row holding each box's top key
        boxes = np.arange(a)
        top = key[row, boxes]
        better = top > best_key
        best_s[better] = S[row[better], boxes[better]]
        best_key[better] = top[better]
        best_iteration[better] = first + row[better]

    p, grad = _step(stats, s, qs, match, cfg)
    past, violation = _containment(s, qs)
    _, _, _, cov, pre, _ = _terms(p.h_sum, p.match_sum, p.n_in, p.n_match, violation, cfg, n)
    if np.isnan(pre).any():
        log.debug("initial box empty: precision gate forced active")
    rank(s[None], past[None], cov[None], pre[None], violation[None], 0)

    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for first in range(1, cfg.max_iters + 1, stretch):
        sums = []
        for j, it in enumerate(range(first, min(first + stretch, cfg.max_iters + 1))):
            # Adam: s + lr m_hat / (sqrt(v_hat) + eps), clipped. m and the move
            # are odd in the gradient and v even, so -u steps exactly as u, negated.
            # s is a view of S[j], so the projection below writes through to rank
            m = b1 * m + (1.0 - b1) * grad
            v = b2 * v + grad * grad * (1.0 - b2)
            move = m / (1.0 - b1 ** it) * cfg.learning_rate / (np.sqrt(v / (1.0 - b2 ** it)) + ADAM_EPS)
            s = np.minimum(np.maximum(s + move, lo), hi, out=S[j])
            l, su = s[:, :d], s[:, d:]
            crossed = l > -su
            if crossed.any():
                # an inverted axis admits nothing and is an absorbing state
                # under ascent; project both bounds onto their midpoint so the
                # (empty) box can keep moving
                mid = 0.5 * (l[crossed] - su[crossed])
                l[crossed] = mid
                su[crossed] = -mid
            p, grad = _step(stats, s, qs, match, cfg)
            sums.append((p.h_sum, p.match_sum, p.n_in, p.n_match))
        rows = len(sums)
        past, violation = _containment(S[:rows], qs, out=P[:rows])
        terms = _terms(*(np.array(x) for x in zip(*sums)), violation, cfg, n)
        rank(S[:rows], past, terms[3], terms[4], violation, first)
        np.stack(terms, axis=2, out=values[first - 1:first - 1 + rows])

    return [(BoxBounds.from_signed(best_s[i]),
             OptimizationTrace(values[:, i], int(best_iteration[i]), bool(best_key[i] >= 2.0)))
            for i in range(a)]
