"""Soft box-membership surrogates and the exact coverage/precision measures.

The exact measures count dataset points inside an axis-aligned box. Their
differentiable surrogates replace each 0/1 comparison with ``gamma``, a
scaled sigmoid plus a step, so the objective keeps non-zero gradients
everywhere while staying within provable distance of the exact values.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np


@dataclass(frozen=True)
class ApproxConstants:
    """The free constants shaping the soft indicator.

    gamma(z) = c1*sigmoid(c2 z) + c3*(0.5 sgn z + 0.5) with c3 = 1 - c1, so
    the step term contributes exactly c3 for positive arguments, 0 for
    negative ones and c3/2 at zero. ``c2`` controls sigmoid steepness,
    ``cl`` turns the upper-bound comparison into a soft >=, and ``ch`` is
    the threshold of the soft AND.
    """

    c1: float = 0.4
    c2: float = 15.0
    cl: float = 0.02
    ch: float = 0.8

    def __post_init__(self):
        if not 0.0 < self.c1 < 1.0:
            raise ValueError(f"c1 must lie in (0, 1), got {self.c1}")
        if not (np.isfinite(self.c2) and self.c2 > 0.0):
            raise ValueError(f"c2 must be finite and positive, got {self.c2}")
        if not 0.0 < self.cl < 0.5:
            raise ValueError(f"cl must be a small positive offset, got {self.cl}")
        if not 0.0 < self.ch < 1.0:
            raise ValueError(f"ch must lie in (0, 1), got {self.ch}")

    @property
    def c3(self) -> float:
        """Weight of the step term, 1 - c1."""
        return 1.0 - self.c1

    @classmethod
    def for_dimension(cls, dim: int) -> "ApproxConstants":
        """Constants scaled so the membership surrogate provably tracks the
        indicator in ``dim`` dimensions.

        Picks c1 = 1/(4 dim) and ch = 1 - 3/(16 dim), which satisfy
        c1 < 1/(2 dim) and (4 dim - 1)/(4 dim) < ch < 1 - c1/2. ``cl``
        shrinks with dimension: points less than cl above an upper bound
        sit in a soft band where the surrogate still reads them as inside,
        so the band must stay negligible relative to the 1/(4 dim) envelope.
        """
        if dim < 1:
            raise ValueError("dim must be >= 1")
        c1 = 1.0 / (4.0 * dim)
        return cls(
            c1=c1,
            ch=1.0 - 3.0 / (16.0 * dim),
            cl=min(0.02, 1.0 / (1000.0 * dim)),
        )


@dataclass(frozen=True)
class BoxBounds:
    """Lower/upper bound vectors of an axis-aligned box in [0, 1]^D.

    ``l <= u`` is not required: an inverted pair is a legal optimizer state
    that simply admits nothing and has near-zero soft membership.
    """

    l: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        l = np.asarray(self.l, dtype=np.float64)
        u = np.asarray(self.u, dtype=np.float64)
        if l.ndim != 1 or u.ndim != 1 or l.shape != u.shape:
            raise ValueError("l and u must be 1-D vectors of equal length")
        if l.min(initial=0.0) < -1e-12 or u.max(initial=1.0) > 1.0 + 1e-12:
            raise ValueError("bounds must lie in [0, 1]")
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "u", u)

    @property
    def dim(self) -> int:
        return self.l.shape[0]

    def area(self) -> float:
        """Volume of the box (zero when any axis is inverted)."""
        return float(np.prod(np.maximum(self.u - self.l, 0.0)))

    def contains(self, x: np.ndarray) -> bool:
        return bool(inside_mask(self, np.asarray(x)[None])[0])

    def signed(self) -> np.ndarray:
        """The signed bounds (l, -u) that ``BoxStats`` and the ascent work in."""
        return np.concatenate([self.l, -self.u])

    @classmethod
    def from_signed(cls, s: np.ndarray) -> "BoxBounds":
        """The box of signed bounds (l, -u); u = 0 - s, so a signed +0.0 is u = +0.0."""
        return cls(s[:s.size // 2], 0.0 - s[s.size // 2:])


def outside(L: np.ndarray, U: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """The one exact in-box test besides ``BoxStats.forward``'s fused count:
    out[a, c, r] is false when L[a, c] <= columns[c, r] <= U[a, c], for
    (A, D) bounds and the data as (D, N) columns (a NaN is outside). Bounds
    are inclusive, so snapped discrete bounds admit the levels they admitted
    before snapping, and the full-range box covers every point."""
    out = columns >= L[:, :, None]
    out &= columns <= U[:, :, None]
    return np.logical_not(out, out=out)


def in_box_counts(inside: np.ndarray, match: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n_in, n_match) of (..., N) in-box masks and 0/1 or bool ``match`` rows."""
    return np.add.reduce(inside, axis=-1), np.add.reduce(inside & (match > 0.5), axis=-1)


def precision(n_in: np.ndarray, n_match: np.ndarray, empty: float = np.nan) -> np.ndarray:
    """Exact precision: matching in-box rows over in-box rows, ``empty``
    where the box holds no row (undefined by default)."""
    return np.where(n_in > 0, n_match / np.maximum(n_in, 1), empty)


def inside_mask(b: BoxBounds, points: np.ndarray) -> np.ndarray:
    """Exact membership mask of (N, D) points: l_j <= x_j <= u_j on every axis."""
    X = np.asarray(points, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != b.dim:
        raise ValueError(f"points of shape {X.shape} do not fit a box of dim {b.dim}; "
                         f"expected (N, {b.dim})")
    return ~outside(b.l[None], b.u[None], X.T)[0].any(axis=0)


def _gamma_slope(z: np.ndarray, k: ApproxConstants) -> tuple[np.ndarray, np.ndarray]:
    """gamma(z) and d gamma / dz (step held constant), in the two-sided
    exponential form: with e = exp(-c2 |z|) the sigmoid is 1/(1+e) for
    z >= 0 and e/(1+e) below, and gamma's slope c1 c2 e/(1+e)^2 never overflows.
    Unlike the tanh form, tail values keep their relative precision, which
    matters where they are summed directly (the soft AND over rows).
    """
    e = np.exp(np.abs(z) * -k.c2)
    r = 1.0 / (e + 1.0)
    er = e * r  # e/(1+e), the sigmoid below zero
    value = np.where(z >= 0.0, r, er) * k.c1 + (np.sign(z) * 0.5 + 0.5) * k.c3
    return value, er * r * (k.c1 * k.c2)


def gamma(z: float, k: ApproxConstants = ApproxConstants()) -> float:
    """Soft 0/1 indicator of ``z > 0``: c1*sigmoid(c2 z) + c3*(0.5 sgn(z) + 0.5).

    Evaluates to c1*sigmoid(c2 z) + c3 for z > 0, c1*sigmoid(c2 z) for
    z < 0, and exactly 0.5 at z = 0.
    """
    return float(_gamma_slope(np.asarray([z], dtype=np.float64), k)[0][0])


# A column with at most LEVEL_LIMIT distinct values joins the level block,
# where a pass costs two matrix products per level instead of about a dozen
# elementwise operations per row.
LEVEL_LIMIT = 16


@dataclass
class BoxPass:
    """The forward pass of ``BoxStats`` over A boxes, one entry per box."""

    h: np.ndarray          # (A, N) each row's soft membership
    h_sum: np.ndarray      # (A,) sums of soft memberships, floored at 1e-300
    match_sum: np.ndarray  # (A,) soft memberships summed over label-matching rows, <= h_sum
    slope: np.ndarray      # (A, N) each row's dh/dt / 2D
    n_in: np.ndarray       # (A,) rows inside the box, exactly
    n_match: np.ndarray    # (A,) of those, rows whose label matches


class BoxStats:
    """Soft membership, its gradient and the exact in-box counts of one
    dataset, for A boxes at once. Build it once per dataset; each pass costs
    one sweep over the data per box.

    Boxes are passed as signed bounds s = (l, -u), (A, 2D), and data values
    held as x_s = (x, -x), so both comparisons of an axis read x_s - s: x - l,
    and -x - (-u) = u - x bit for bit.

    Columns are split by their number of distinct values. Columns with more
    than ``LEVEL_LIMIT`` form the dense block and are evaluated elementwise.
    The others (one-hot, ordered and other few-valued columns) form the
    level block: a 0/1 levels-by-rows matrix ``L``, so each level is
    evaluated once and reaches the rows through ``G @ L`` (row sums and
    violation counts) and ``w @ L.T`` (gradient sums).

    Per comparison gamma(z) = 1/2 + (c1 tanh(c2 z/2) + c3 sgn z)/2, so the
    row sum of the 2D comparisons is D + (1/2) sum(c1 tanh + c3 sgn), and
    the slope is (c1 c2/4)(1 - tanh^2). ``forward`` gives each row's soft
    membership h and slope dh/dt / 2D, the soft sums and the exact counts,
    and keeps the pass's tanh^2. ``backward`` then takes one row of weights
    w per box and gives sum_rows w * d(row's comparison sum)/ds, with
    dz/ds = -1 everywhere: for the dense block one product of w with
    tanh^2. Any gradient that is linear in the rows' dh is one backward
    pass.

    A pass takes (A, 2D) signed bounds and, where labels matter, one 0/1
    match row per box, (A, N). Its products are stacked per box, so each
    box's results are bit for bit those of a pass over that box alone. A
    pass writes into buffers of the instance: one instance serves one thread.
    """

    def __init__(self, points: np.ndarray, k: ApproxConstants = ApproxConstants()):
        X = np.atleast_2d(np.asarray(points, dtype=np.float64))
        n, d = X.shape
        if n == 0:
            raise ValueError("points must be nonempty")
        self.k, self.n, self.d = k, n, d
        # the table as (D, N) columns, which recounts read: a view of a
        # column-major table, such as an encoded one
        self.columns = columns = np.ascontiguousarray(X.T)
        found = [np.unique(col) for col in columns]
        self.dense = np.asarray([j for j, v in enumerate(found) if v.size > LEVEL_LIMIT],
                                dtype=np.intp)
        self.level_cols = np.asarray([j for j, v in enumerate(found) if v.size <= LEVEL_LIMIT],
                                     dtype=np.intp)
        levels = [found[j] for j in self.level_cols]
        counts = [v.size for v in levels]
        self.level_val = np.concatenate(levels) if levels else np.zeros(0)
        level_col = np.repeat(self.level_cols, counts)
        level_start = np.cumsum([0] + counts[:-1], dtype=np.intp)
        # both blocks are stored column-major (one contiguous row per column
        # or level), so per-row reductions and the products stream memory
        self._Xs = np.concatenate([columns[self.dense], -columns[self.dense]])
        self._Vs = np.concatenate([self.level_val, -self.level_val])
        self.L = (columns[level_col] == self.level_val[:, None]).astype(np.float64)

        w = self.dense.size
        # the dense block's pass buffer, (4w, A, N): tanh of the 2w
        # comparisons of each box, then their sgn
        self._buf = np.empty(0)
        self._T = self._buf.reshape(4 * w, 0, n)
        self._coef = np.repeat([0.5 * k.c1, 0.5 * k.c3], 2 * w)
        # columns of the signed bounds that each dense comparison, each level
        # comparison and each level column's gradient read
        self._dense_s = np.concatenate([self.dense, d + self.dense])
        self._level_s = np.concatenate([level_col, d + level_col])
        self._level_cols_s = np.concatenate([self.level_cols, d + self.level_cols])
        self._level_starts = np.concatenate([level_start, self.level_val.size + level_start])

    def forward(self, s: np.ndarray, match: np.ndarray) -> BoxPass:
        """Soft membership h, its sums, each row's slope and the exact counts.

        Per axis j the row contributes gamma(x_j - l_j) (soft x > l) and
        gamma(u_j - x_j + cl) (soft u >= x); the 2D values are combined by a
        soft AND, gamma(mean - ch). The comparisons' tanh^2 (dense) and
        1 - tanh^2 (levels) stay in the instance for ``backward``."""
        k = self.k
        a = s.shape[0]
        w = self.dense.size
        rows = 0.0
        inside = True
        if w:
            if self._T.shape[1] != a:
                size = 4 * w * a * self.n
                if self._buf.size < size:
                    self._buf = np.empty(size)
                # comparison-major, so each elementwise step runs over one
                # contiguous array whatever A is
                self._T = self._buf[:size].reshape(4 * w, a, self.n)
            T = self._T
            Z = T[:2 * w]
            np.subtract(self._Xs[:, None], s.T[self._dense_s, :, None], out=Z)
            inside = Z.min(axis=0) >= 0.0
            Z[w:] += k.cl
            np.sign(Z, out=T[2 * w:])
            Z *= 0.5 * k.c2
            np.tanh(Z, out=Z)
            # one product per box, as for a single box: a single product over
            # all A*N rows would round some rows differently
            rows = self._coef @ T.transpose(1, 0, 2)
            np.square(Z, out=Z)
        if self.level_val.size:
            z = np.subtract(self._Vs, s[:, self._level_s]).reshape(a, 2, -1)
            G = np.empty_like(z)
            G[:, 1] = (z < 0.0).any(axis=1)
            z[:, 1] += k.cl
            tz = np.tanh((0.5 * k.c2) * z)
            self._level_slope = 1.0 - tz * tz
            G[:, 0] = (0.5 * k.c1) * tz.sum(axis=1) + (0.5 * k.c3) * np.sign(z).sum(axis=1)
            R = G @ self.L
            rows = rows + R[:, 0]
            inside = inside & (R[:, 1] == 0.0)
        h, slope = _gamma_slope((self.d + rows) / (2.0 * self.d) - k.ch, k)
        slope *= 1.0 / (2.0 * self.d)
        n_in, n_match = in_box_counts(inside, match)
        h_sum = np.maximum(h.sum(axis=1), 1e-300)  # h > 0 except at underflow-extreme c2
        return BoxPass(
            h=h,
            h_sum=h_sum,
            # one BLAS dot per row, as for a single box, capped at h_sum: where
            # every row matches, its rounding could lift soft precision past 1
            match_sum=np.minimum((h[:, None, :] @ match[:, :, None])[:, 0, 0], h_sum),
            slope=slope,
            n_in=n_in,
            n_match=n_match,
        )

    def backward(self, weights: np.ndarray) -> np.ndarray:
        """sum_rows weights * d(row's comparison sum)/ds at the signed bounds
        of the last ``forward`` pass, for (A, N) weights: an (A, 2D) array."""
        a = weights.shape[0]
        grad = np.empty((a, 2 * self.d))
        c = -0.25 * self.k.c1 * self.k.c2  # d gamma/dz = c1 c2/4 (1 - tanh^2), dz/ds = -1
        w = self.dense.size
        W = weights[:, None, :]
        if w:
            # sum w (1 - tanh^2), one product per box
            grad[:, self._dense_s] = c * (
                weights.sum(axis=1)[:, None] - (W @ self._T[:2 * w].transpose(1, 2, 0))[:, 0])
        if self.level_val.size:
            # per level and side: the weights of its rows times the slope there
            per_level = (W @ self.L.T) * self._level_slope
            grad[:, self._level_cols_s] = c * np.add.reduceat(
                per_level.reshape(a, -1), self._level_starts, axis=1)
        return grad


def cov_exact(b: BoxBounds, points: np.ndarray) -> float:
    """Fraction of points inside the box."""
    X = np.asarray(points, dtype=np.float64)
    if X.size == 0:
        raise ValueError("points must be nonempty")
    return float(inside_mask(b, X).mean())


def pre_exact_or_none(b: BoxBounds, points: np.ndarray, labels: np.ndarray,
                      query_label: int) -> float | None:
    """Fraction of in-box points whose label equals ``query_label``; None
    for an empty box, where precision is undefined."""
    pre = precision(*in_box_counts(inside_mask(b, points), np.asarray(labels) == query_label))
    return None if np.isnan(pre) else float(pre)


def soft_measures(boxes: list[BoxBounds], points: np.ndarray, labels: np.ndarray,
                  query_labels: list[int], k: ApproxConstants = ApproxConstants()) -> np.ndarray:
    """Soft coverage (row 0) and soft precision (row 1) of each box, (2, A).

    Soft precision weighs each point's agreement with the box's query label
    (for binary labels, 1 - (f(x) - f(q))^2) by its soft membership. Both
    are the ascent's own: h_sum / N and match_sum / h_sum of the pass. One
    kernel serves every box, one box at a time, so memory stays at one
    box's worth of comparisons.
    """
    stats = BoxStats(points, k)
    labels = np.asarray(labels)
    out = np.empty((2, len(boxes)))
    for i, (b, query_label) in enumerate(zip(boxes, query_labels)):
        p = stats.forward(b.signed()[None], (labels == query_label).astype(np.float64)[None])
        out[:, i] = p.h_sum[0] / stats.n, p.match_sum[0] / p.h_sum[0]
    return out


def cov_hat(b: BoxBounds, points: np.ndarray, k: ApproxConstants = ApproxConstants()) -> float:
    """Approximate coverage: mean soft membership (``soft_measures`` of one box)."""
    X = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return float(soft_measures([b], X, np.zeros(len(X)), [0], k)[0, 0])


def pre_hat(b: BoxBounds, points: np.ndarray, labels: np.ndarray, query_label: int,
            k: ApproxConstants = ApproxConstants()) -> float:
    """Approximate precision of one box (``soft_measures`` of one box)."""
    return float(soft_measures([b], points, labels, [query_label], k)[1, 0])


# ---------------------------------------------------------------------------
# bound audits


def _check(hypothesis_met: bool, violation: np.ndarray) -> dict:
    """Count the positive entries of ``violation``, one per checked box."""
    over = violation[violation > 0.0]
    return {"hypothesis_met": hypothesis_met, "checked": int(violation.size),
            "violations": int(over.size), "max_violation": float(over.max(initial=0.0))}


def coverage_hypothesis_met(dim: int, k: ApproxConstants) -> bool:
    return k.c1 < 1.0 / (2.0 * dim) and k.ch > (4.0 * dim - 1.0) / (4.0 * dim)


def audit_bounds(cov: np.ndarray, pre: np.ndarray, cov_hat: np.ndarray, pre_hat: np.ndarray,
                 dim: int, k: ApproxConstants = ApproxConstants()) -> dict:
    """Audit the provable envelopes tying soft measures to exact ones on A
    boxes in ``dim`` dimensions, given each box's exact coverage and
    precision (``pre`` NaN where the box is empty) and their soft
    counterparts, all (A,) arrays.

    coverage_envelope: ((4D-1)/4D) * Cov <= CovHat <= 1/4D + ((4D-1)/4D) * Cov,
    guaranteed when c1 < 1/(2D) and ch > (4D-1)/(4D).
    precision_cap: PreHat <= Pre * (1 + (1/Cov) * (4D/(4D-1))), reported
    informationally (skipped when Cov = 0 or Pre is undefined).
    When a hypothesis is unmet the inequality is still evaluated but only
    reported, never asserted. Returns the report ``bounds_audit.json`` holds
    under "audit": ``dim``, ``constants`` and, for each inequality,
    ``hypothesis_met``, ``checked``, ``violations`` and ``max_violation``.
    """
    scale = (4.0 * dim - 1.0) / (4.0 * dim)
    lower = scale * cov
    upper = 1.0 / (4.0 * dim) + scale * cov
    hyp = coverage_hypothesis_met(dim, k)
    capped = cov > 0.0  # an empty box has no precision to cap
    cap = pre[capped] * (1.0 + (1.0 / cov[capped]) * (4.0 * dim / (4.0 * dim - 1.0)))
    return {"dim": dim, "constants": asdict(k),
            "coverage_envelope": _check(hyp, np.maximum(lower - cov_hat, cov_hat - upper)),
            "precision_cap": _check(hyp, pre_hat[capped] - cap)}
