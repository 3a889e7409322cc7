"""The box-statistics kernel against a slow, direct reference.

The reference is the elementwise evaluation the kernel replaced: a
two-sided sigmoid, a nested-where step, and sums over the full N x D
arrays. Tables mix continuous, ordered and one-hot columns so that both of
the kernel's blocks (dense and level) are exercised, alone and together.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maire import ApproxConstants, BoxBounds, OptimizerConfig, cov_hat, gradient, objective, pre_hat
from maire.indicator import LEVEL_LIMIT, BoxStats, in_box_counts, outside, precision, soft_measures

# the package exports a function of the same name
optimize_module = importlib.import_module("maire.optimize")


def ref_sigmoid(x):
    ax = np.abs(x)
    e = np.exp(-ax)
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def ref_step(z, c3):
    return np.where(z > 0.0, c3, np.where(z < 0.0, 0.0, 0.5 * c3))


def ref_gamma(z, k):
    return k.c1 * ref_sigmoid(k.c2 * z) + ref_step(z, k.c3)


def ref_membership(l, u, X, k):
    d = X.shape[1]
    t = (ref_gamma(X - l, k).sum(axis=1) + ref_gamma((u - X) + k.cl, k).sum(axis=1)) / (2.0 * d) - k.ch
    return ref_gamma(t, k)


def ref_evaluate(l, u, query, X, match, cfg, k):
    """Objective, gradient and exact stats, evaluated directly."""
    n, d = X.shape
    zl = X - l
    zu = (u - X) + k.cl
    sl = ref_sigmoid(k.c2 * zl)
    su = ref_sigmoid(k.c2 * zu)
    al = k.c1 * sl + ref_step(zl, k.c3)
    au = k.c1 * su + ref_step(zu, k.c3)
    t = (al.sum(axis=1) + au.sum(axis=1)) / (2.0 * d) - k.ch
    st_ = ref_sigmoid(k.c2 * t)
    h = k.c1 * st_ + ref_step(t, k.c3)

    s_h = max(float(h.sum()), 1e-300)
    s_m = float((h * match).sum())
    inside = ((X >= l) & (X <= u)).all(axis=1)
    n_in = int(inside.sum())
    n_match = int((inside & (match > 0.5)).sum())
    pre = n_match / n_in if n_in else None
    gate = 2.0 if pre is None else 1.0 + float(np.sign(cfg.precision_threshold - pre))
    violation = float(np.maximum(l - query, 0.0).sum() + np.maximum(query - u, 0.0).sum())
    obj = s_h / n + cfg.lambda1 * (s_m / s_h) * gate - cfg.lambda2 * violation

    scale = (k.c1 * k.c2 * st_ * (1.0 - st_))[:, None] / (2.0 * d)
    dh_dl = scale * (-(k.c1 * k.c2) * sl * (1.0 - sl))
    dh_du = scale * ((k.c1 * k.c2) * su * (1.0 - su))
    grads = []
    for dh, pen in ((dh_dl, -cfg.lambda2 * (l > query)), (dh_du, cfg.lambda2 * (query > u))):
        dsh = dh.sum(axis=0)
        dsm = (dh * match[:, None]).sum(axis=0)
        dpre = (s_h * dsm - s_m * dsh) / (s_h * s_h)
        grads.append(dsh / n + cfg.lambda1 * gate * dpre + pen)
    return obj, grads[0], grads[1], n_in, n_match


@st.composite
def tables(draw):
    """A mixed encoded table: continuous, ordered and one-hot columns."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["continuous", "ordered", "onehot"]),
                          min_size=1, max_size=6))
    cols = []
    for kind in kinds:
        if len(cols) >= 12:
            break
        if kind == "continuous":
            cols.append(rng.random(n))
        elif kind == "ordered":
            m = int(rng.integers(2, 7))
            cols.append((rng.integers(0, m, n) + 1.0) / (m + 1))
        elif len(cols) <= 10:
            m = int(rng.integers(2, min(5, 12 - len(cols)) + 1))
            cols.extend(np.eye(m)[rng.integers(0, m, n)].T)
    X = np.column_stack(cols)
    labels = rng.integers(0, 3, n)
    return X, labels, rng


def draw_box(mode, X, rng):
    d = X.shape[1]
    if mode == "random":
        a, b = rng.random(d), rng.random(d)
        return np.minimum(a, b), np.maximum(a, b)
    if mode == "inverted":
        a, b = rng.random(d), rng.random(d)
        return np.maximum(a, b), np.minimum(a, b)
    if mode == "empty":
        v = rng.random(d)
        return v, v.copy()
    if mode == "full":
        return np.zeros(d), np.ones(d)
    # bounds exactly on data values: z = 0 on some comparisons
    rows = rng.integers(0, len(X), 2)
    a, b = X[rows[0]], X[rows[1]]
    return np.minimum(a, b).copy(), np.maximum(a, b).copy()


BOX_MODES = ["random", "inverted", "empty", "full", "on-data"]


def exact_counts(L, U, X, match):
    """In-box and matching rows of (A, D) boxes from the one exact in-box test."""
    return in_box_counts(~outside(L, U, X.T).any(axis=1), match)


def close(got, want, rel=1e-9):
    want = np.asarray(want, dtype=np.float64)
    scale = float(np.abs(want).max(initial=0.0))
    np.testing.assert_allclose(got, want, rtol=rel, atol=rel * scale + 1e-300)


@settings(max_examples=300, deadline=None)
@given(tables(), st.sampled_from(BOX_MODES), st.sampled_from([0.05, 0.5, 0.9, 1.0]),
       st.booleans(), st.booleans())
def test_objective_gradient_and_counts_match_reference(table, mode, threshold, scaled, query_row):
    X, labels, rng = table
    d = X.shape[1]
    k = ApproxConstants.for_dimension(d) if scaled else ApproxConstants()
    l, u = draw_box(mode, X, rng)
    q = X[int(rng.integers(len(X)))] if query_row else rng.random(d)
    cfg = OptimizerConfig(precision_threshold=threshold)
    match = (labels == 1).astype(np.float64)
    obj, gl, gu, n_in, n_match = ref_evaluate(l, u, q, X, match, cfg, k)

    b = BoxBounds(l, u)
    close(objective(b, q, X, labels, 1, cfg, k), obj)
    got_l, got_u = gradient(b, q, X, labels, 1, cfg, k)
    close(np.concatenate([got_l, got_u]), np.concatenate([gl, gu]))

    stats = BoxStats(X, k)
    p = stats.forward(b.signed()[None], match[None])
    assert (p.n_in[0], p.n_match[0]) == (n_in, n_match)
    assert [c[0] for c in exact_counts(l[None], u[None], X, match[None])] == [n_in, n_match]


@settings(max_examples=200, deadline=None)
@given(tables(), st.sampled_from(BOX_MODES), st.booleans())
def test_soft_measures_match_reference(table, mode, scaled):
    X, labels, rng = table
    k = ApproxConstants.for_dimension(X.shape[1]) if scaled else ApproxConstants()
    l, u = draw_box(mode, X, rng)
    b = BoxBounds(l, u)
    h = ref_membership(l, u, X, k)
    close(BoxStats(X, k).forward(b.signed()[None], np.zeros((1, len(X)))).h[0], h)
    close(cov_hat(b, X, k), h.mean())
    match = labels == 1
    close(pre_hat(b, X, labels, 1, k), (h * match).sum() / max(h.sum(), 1e-300))


@settings(max_examples=100, deadline=None)
@given(tables(), st.lists(st.sampled_from(BOX_MODES), min_size=1, max_size=6), st.booleans())
def test_soft_measures_of_many_boxes_equal_one_box_measures(table, modes, scaled):
    """One kernel over A boxes gives, bit for bit, what a kernel built for
    each box gives: cov_hat, pre_hat and the ascent's h_sum / N and
    match_sum / h_sum."""
    X, labels, rng = table
    k = ApproxConstants.for_dimension(X.shape[1]) if scaled else ApproxConstants()
    boxes = [BoxBounds(*draw_box(mode, X, rng)) for mode in modes]
    query_labels = [int(v) for v in rng.integers(0, 3, len(boxes))]
    got = soft_measures(boxes, X, labels, query_labels, k)
    assert got.shape == (2, len(boxes))
    for i, (b, label) in enumerate(zip(boxes, query_labels)):
        match = (labels == label).astype(np.float64)
        p = BoxStats(X, k).forward(b.signed()[None], match[None])
        assert got[0, i] == cov_hat(b, X, k)
        assert got[1, i] == pre_hat(b, X, labels, label, k)
        assert got[:, i].tolist() == [p.h_sum[0] / len(X), p.match_sum[0] / p.h_sum[0]]


@st.composite
def block_tables(draw):
    """A table whose columns fill both kernel blocks, only the dense one or
    only the level one."""
    layout = draw(st.sampled_from(["mixed", "dense", "level"]))
    n = draw(st.integers(LEVEL_LIMIT + 1, 200))  # continuous columns stay dense
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    if layout != "level":
        cols += [rng.random(n) for _ in range(int(rng.integers(1, 4)))]
    if layout != "dense":
        m = int(rng.integers(2, 7))
        cols.append((rng.integers(0, m, n) + 1.0) / (m + 1))
        cols.extend(np.eye(3)[rng.integers(0, 3, n)].T)
    X = np.column_stack(cols)
    return X, rng.integers(0, 3, n), rng, layout


@settings(max_examples=150, deadline=None)
@given(block_tables(), st.lists(st.sampled_from(BOX_MODES), min_size=1, max_size=6),
       st.sampled_from([0.05, 0.5, 0.9, 1.0]), st.booleans())
def test_many_boxes_in_one_pass_match_single_passes(table, modes, threshold, scaled):
    """A forward and backward pass over A boxes gives, bit for bit, what a
    pass over each box alone gives; so do the objective and its gradient."""
    X, labels, rng, layout = table
    n, d = X.shape
    k = ApproxConstants.for_dimension(d) if scaled else ApproxConstants()
    stats = BoxStats(X, k)
    assert (stats.dense.size > 0, stats.level_cols.size > 0) == {
        "mixed": (True, True), "dense": (True, False), "level": (False, True)}[layout]
    boxes = [draw_box(mode, X, rng) for mode in modes]
    L = np.stack([l for l, _ in boxes])
    U = np.stack([u for _, u in boxes])
    query_labels = rng.integers(0, 3, len(boxes))  # each box matches its own label row
    match = (labels == query_labels[:, None]).astype(np.float64)
    weights = rng.standard_normal(match.shape)
    Q = X[rng.integers(n, size=len(boxes))]
    cfg = OptimizerConfig(precision_threshold=threshold)

    S, qs = np.concatenate([L, -U], axis=1), np.concatenate([Q, -Q], axis=1)
    p = stats.forward(S, match)
    back = stats.backward(weights)
    n_in, n_match = exact_counts(L, U, X, match)
    violation = optimize_module._containment(S, qs)[1]
    obj = optimize_module._terms(p.h_sum, p.match_sum, p.n_in, p.n_match, violation, cfg, n)[0]
    grad = optimize_module._step(stats, S, qs, match, cfg)[1]
    for i, (l, u) in enumerate(boxes):
        solo = BoxStats(X, k)
        one = solo.forward(S[i:i + 1], match[i:i + 1])
        for field in ("h", "h_sum", "match_sum", "slope", "n_in", "n_match"):
            np.testing.assert_array_equal(getattr(p, field)[i], getattr(one, field)[0])
        np.testing.assert_array_equal(back[i], solo.backward(weights[i:i + 1])[0])
        assert (n_in[i], n_match[i]) == (one.n_in[0], one.n_match[0])
        b = BoxBounds(l, u)
        assert obj[i] == objective(b, Q[i], X, labels, query_labels[i], cfg, k)
        g_l, g_u = gradient(b, Q[i], X, labels, query_labels[i], cfg, k)
        np.testing.assert_array_equal(grad[i], np.concatenate([g_l, -g_u]))


def two_row_gradient(stats, lu, qq, match, cfg):
    """The objective's gradient with respect to (l, u) from two backward
    passes, one for h_sum and one for match_sum, combined by the quotient
    rule. ``lu`` = (l, u) and ``qq`` = (q, q); the kernel's signed bounds
    (l, -u) and its gradients are converted with this function's own sides."""
    side = np.repeat([1.0, -1.0], stats.d)
    p = stats.forward(lu * side, match)
    g_h = stats.backward(p.slope) * side
    g_m = stats.backward(p.slope * match) * side
    gate = optimize_module._gate(precision(p.n_in, p.n_match), cfg)[:, None]
    h_sum, match_sum = p.h_sum[:, None], p.match_sum[:, None]
    dpre = (h_sum * g_m - match_sum * g_h) / (h_sum * h_sum)
    past = (lu - qq) * side
    return g_h / stats.n + cfg.lambda1 * gate * dpre - cfg.lambda2 * side * (past > 0.0), gate


@settings(max_examples=300, deadline=None)
@given(block_tables(), st.lists(st.sampled_from(BOX_MODES), min_size=1, max_size=4),
       st.sampled_from(["below", "at", "above"]), st.booleans())
def test_folded_gradient_equals_two_row_quotient_rule(table, modes, gate_at, scaled):
    """One backward pass with the folded weights gives the quotient-rule
    gradient of the two soft sums, with the precision gate at 0, 1 or 2."""
    X, labels, rng, _ = table
    n, d = X.shape
    k = ApproxConstants.for_dimension(d) if scaled else ApproxConstants()
    stats = BoxStats(X, k)
    boxes = [draw_box(mode, X, rng) for mode in modes]
    lu = np.stack([np.concatenate(box) for box in boxes])
    Q = X[rng.integers(n, size=len(boxes))]
    qq = np.concatenate([Q, Q], axis=1)
    S, qs = np.concatenate([lu[:, :d], -lu[:, d:]], axis=1), np.concatenate([Q, -Q], axis=1)
    match = (labels == rng.integers(0, 3, len(boxes))[:, None]).astype(np.float64)
    # put the first box's exact precision below, at or above the threshold
    n_in, n_match = (int(c[0]) for c in exact_counts(lu[:1, :d], lu[:1, d:], X, match[:1]))
    pre = n_match / n_in if n_in else 0.0
    threshold = {"below": pre + 0.01, "at": pre, "above": pre - 0.01}[gate_at]
    cfg = OptimizerConfig(precision_threshold=float(np.clip(threshold, 1e-3, 1.0)))

    got = optimize_module._step(stats, S, qs, match, cfg)[1]
    got[:, d:] *= -1.0  # with respect to u
    want, gate = two_row_gradient(stats, lu, qq, match, cfg)
    if n_in and 0.01 < pre < 0.99:
        assert gate[0, 0] == {"below": 2.0, "at": 1.0, "above": 0.0}[gate_at]
    for i in range(len(boxes)):
        np.testing.assert_allclose(got[i], want[i], rtol=0.0,
                                   atol=1e-12 * np.linalg.norm(want[i]) + 1e-300)


class TestBlocks:
    def test_split_follows_distinct_value_counts(self):
        rng = np.random.default_rng(0)
        n = 200
        X = np.column_stack([
            rng.random(n),                                   # continuous
            (rng.integers(0, 5, n) + 1.0) / 6,               # ordered, 5 levels
            rng.integers(0, 2, n).astype(float),             # one-hot column
            rng.integers(0, LEVEL_LIMIT, n) / LEVEL_LIMIT,   # exactly LEVEL_LIMIT values
            rng.integers(0, LEVEL_LIMIT + 1, n) / 20.0,      # one value too many
        ])
        stats = BoxStats(X)
        assert stats.dense.tolist() == [0, 4]
        assert stats.level_cols.tolist() == [1, 2, 3]
        assert stats.L.shape == (5 + 2 + LEVEL_LIMIT, n)
        # every row sits on exactly one level of each level column
        np.testing.assert_array_equal(stats.L.sum(axis=0), 3.0)

    def test_values_missing_from_the_head_rows_are_found(self):
        col = np.zeros(500)
        col[-1] = 1.0  # the second level appears only in the last row
        stats = BoxStats(col[:, None])
        assert stats.level_val.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("make", [
        lambda rng: rng.random((100, 4)),                                   # dense only
        lambda rng: rng.integers(0, 3, (100, 4)) / 2.0,                     # levels only
    ])
    def test_single_block_tables(self, make):
        rng = np.random.default_rng(1)
        X = make(rng)
        labels = rng.integers(0, 2, len(X))
        q = X[0]
        l, u = np.clip(q - 0.3, 0, 1), np.clip(q + 0.3, 0, 1)
        cfg = OptimizerConfig(precision_threshold=0.9)
        obj, gl, gu, _, _ = ref_evaluate(l, u, q, X, (labels == 1).astype(float), cfg,
                                         ApproxConstants())
        b = BoxBounds(l, u)
        close(objective(b, q, X, labels, 1, cfg), obj)
        close(np.concatenate(gradient(b, q, X, labels, 1, cfg)), np.concatenate([gl, gu]))

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            BoxStats(np.zeros((0, 3)))
