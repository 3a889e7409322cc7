"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np

from maire import (
    ApproxConstants,
    AttributeSchema,
    BoxBounds,
    OptimizerConfig,
    cov_exact,
    cov_hat,
    gradient,
    initial_bounds,
    msd_select,
    objective,
    optimize,
    rp_select,
    snap_discrete,
)
from maire.explain import Explanation, _eliminate
from maire.indicator import pre_exact_or_none
from maire.schema import RawTable, encode, nontrivial_attributes
from maire.synthetic import DEFAULT_QUERIES, synthetic_dataset


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_01_rectangle_recovery():
    start = time.monotonic()
    shape, space, labels = synthetic_dataset("rect", 5000, seed=0)
    q = np.array([0.5, 0.5])
    cfg = OptimizerConfig(precision_threshold=0.95)
    box, trace = optimize(initial_bounds(q), q, space.matrix, labels, 1, cfg)
    elapsed = time.monotonic() - start
    err_l = float(np.abs(box.l - 0.3).max())
    err_u = float(np.abs(box.u - 0.7).max())
    pre = pre_exact_or_none(box, space.matrix, labels, 1)
    ok = err_l <= 0.05 and err_u <= 0.05 and pre is not None and pre >= 0.95 and elapsed < 60.0
    report("criterion 1 (rectangle recovery)", ok,
           f"bound errors ({err_l:.4f}, {err_u:.4f}) <= 0.05, precision {pre:.3f} >= 0.95, "
           f"runtime {elapsed:.1f}s < 60s")


def test_02_precision_threshold_monotonicity():
    wins = 0
    areas = []
    for seed in range(10):
        shape, space, labels = synthetic_dataset("circle", 2000, seed=seed)
        q = np.array([0.5, 0.5])
        pair = {}
        for p in (0.80, 0.95):
            cfg = OptimizerConfig(precision_threshold=p, max_iters=1500)
            box, _ = optimize(initial_bounds(q), q, space.matrix, labels, 1, cfg)
            pair[p] = box.area()
        wins += pair[0.95] < pair[0.80]
        areas.append((round(pair[0.80], 3), round(pair[0.95], 3)))
    report("criterion 2 (precision threshold monotonicity)", wins == 10,
           f"area(P=0.95) < area(P=0.80) in {wins}/10 seeded runs; areas {areas[:3]}...")


def test_03_containment_constraint():
    q = np.array(DEFAULT_QUERIES["two-region"])
    contained = 0
    for seed in range(10):
        shape, space, labels = synthetic_dataset("two-region", 2500, seed=seed)
        cfg = OptimizerConfig(precision_threshold=0.95, lambda2=5.0, max_iters=1000,
                              containment_snap=False)
        box, _ = optimize(initial_bounds(q), q, space.matrix, labels, 1, cfg)
        contained += box.contains(q)
    excluded = 0
    for seed in range(10):
        shape, space, labels = synthetic_dataset("two-region", 2500, seed=seed)
        cfg = OptimizerConfig(precision_threshold=0.95, lambda2=0.0, max_iters=2500,
                              containment_snap=False)
        box, _ = optimize(initial_bounds(q), q, space.matrix, labels, 1, cfg)
        excluded += not box.contains(q)
    ok = contained == 10 and excluded >= 1
    report("criterion 3 (containment constraint)", ok,
           f"lambda2=5 contains query {contained}/10; lambda2=0 with snap disabled "
           f"excludes it in {excluded}/10 runs")


def test_04_coverage_envelope_audit():
    rng = np.random.default_rng(2024)
    total_violations = 0
    for d in (1, 2):
        k = ApproxConstants.for_dimension(d)
        assert k.c1 < 1.0 / (2 * d) and k.ch > (4 * d - 1) / (4 * d)
        scale = (4 * d - 1) / (4 * d)
        for _ in range(1000):
            n = int(rng.integers(50, 401))
            X = rng.random((n, d))
            a, b = rng.random(d), rng.random(d)
            box = BoxBounds(np.minimum(a, b), np.maximum(a, b))
            cov = cov_exact(box, X)
            ch = cov_hat(box, X, k)
            if not (scale * cov <= ch <= 1.0 / (4 * d) + scale * cov):
                total_violations += 1
    report("criterion 4 (coverage envelope audit)", total_violations == 0,
           f"{total_violations} violations over 2x1000 random (box, dataset) pairs "
           f"at D in {{1, 2}}, exact inequality")


def test_05_approximation_gap_trend():
    rng = np.random.default_rng(7)
    mses = {}
    for d in (2, 8, 20):
        k = ApproxConstants.for_dimension(d)
        X = rng.random((400, d))
        gaps = []
        for _ in range(100):
            a, b = rng.random(d), rng.random(d)
            box = BoxBounds(np.minimum(a, b), np.maximum(a, b))
            gaps.append((cov_exact(box, X) - cov_hat(box, X, k)) ** 2)
        mses[d] = float(np.mean(gaps))
    ok = mses[20] < mses[8] < mses[2]
    report("criterion 5 (approximation gap trend)", ok,
           f"coverage MSE {mses[2]:.2e} (D=2) > {mses[8]:.2e} (D=8) > {mses[20]:.2e} (D=20)")


def _fd_gradient(box, q, X, labels, qlabel, cfg, k, eps=1e-6):
    l, u = box.l.copy(), box.u.copy()
    d = len(l)
    out = np.zeros(2 * d)
    for j in range(d):
        for half, arr in ((0, l), (1, u)):
            orig = arr[j]
            arr[j] = orig + eps
            fp = objective(BoxBounds(l, u), q, X, labels, qlabel, cfg, k)
            arr[j] = orig - eps
            fm = objective(BoxBounds(l, u), q, X, labels, qlabel, cfg, k)
            arr[j] = orig
            out[half * d + j] = (fp - fm) / (2 * eps)
    return out


def test_06_gradient_correctness():
    k = ApproxConstants()
    rng = np.random.default_rng(99)
    checked = 0
    worst = 0.0
    while checked < 100:
        d = int(rng.integers(1, 5))
        n = int(rng.integers(15, 60))
        X = rng.random((n, d))
        labels = rng.integers(0, 2, n)
        q = rng.random(d)
        a, b = rng.random(d), rng.random(d)
        l, u = np.minimum(a, b), np.maximum(a, b)
        cfg = OptimizerConfig(precision_threshold=float(rng.uniform(0.3, 0.9)))
        # every sgn/kink argument must sit at least 1e-3 from its jump
        margins = np.concatenate([
            np.abs(X - l).ravel(), np.abs((u - X) + k.cl).ravel(),
            np.abs(X - u).ravel(), np.abs(l - q), np.abs(q - u)])
        box = BoxBounds(l, u)
        pre = pre_exact_or_none(box, X, labels, 1)
        gate_margin = np.inf if pre is None else abs(cfg.precision_threshold - pre)
        if margins.min() < 1e-3 or gate_margin < 1e-3:
            continue
        fd = _fd_gradient(box, q, X, labels, 1, cfg, k)
        if np.linalg.norm(fd) < 1e-3:
            continue
        gl, gu = gradient(box, q, X, labels, 1, cfg, k)
        rel = np.linalg.norm(np.concatenate([gl, gu]) - fd) / np.linalg.norm(fd)
        worst = max(worst, rel)
        checked += 1
    report("criterion 6 (gradient correctness)", worst < 1e-4,
           f"worst relative error {worst:.2e} < 1e-4 over {checked} configurations")


def _brute_force(l, u, X, labels, query_label):
    n_in = 0
    n_match = 0
    for i in range(len(X)):
        inside = True
        for j in range(len(l)):
            if not (l[j] <= X[i][j] <= u[j]):
                inside = False
                break
        if inside:
            n_in += 1
            if labels[i] == query_label:
                n_match += 1
    return n_in, n_match


def test_07_exact_measure_oracle():
    rng = np.random.default_rng(17)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(1, 1001))
        d = int(rng.integers(1, 21))
        X = rng.random((n, d))
        labels = rng.integers(0, 3, n)
        a, b = rng.random(d), rng.random(d)
        box = BoxBounds(np.minimum(a, b), np.maximum(a, b))
        n_in, n_match = _brute_force(box.l, box.u, X, labels, 1)
        if cov_exact(box, X) != n_in / n:
            mismatches += 1
        pre = pre_exact_or_none(box, X, labels, 1)
        expected = (n_match / n_in) if n_in else None
        if pre != expected:
            mismatches += 1
    report("criterion 7 (exact measure oracle)", mismatches == 0,
           f"{mismatches} mismatches against brute-force counting over 200 triples, bit-exact")


def _elimination_problem(rng):
    """A tabular-style elimination input: labels follow an axis-interval rule
    and the starting box hugs that rule with jitter, the shape the optimizer
    hands to elimination (tight on signal axes, wide elsewhere)."""
    d = int(rng.integers(3, 7))
    n = int(rng.integers(150, 350))
    attrs = [AttributeSchema(name=f"x{j}", kind="continuous", value_range=(0.0, 1.0))
             for j in range(d)]
    cols = [rng.random(n) for _ in range(d)]
    space = encode(RawTable(attrs, cols))
    X = space.matrix
    n_rule = int(rng.integers(1, d + 1))
    rule_axes = rng.choice(d, size=n_rule, replace=False)
    lo = rng.uniform(0.0, 0.4, size=n_rule)
    hi = rng.uniform(0.6, 1.0, size=n_rule)
    labels = np.ones(n, dtype=int)
    l = np.zeros(d)
    u = np.ones(d)
    for j in range(d):
        l[j] = rng.uniform(0.0, 0.12)
        u[j] = 1.0 - rng.uniform(0.0, 0.12)
    for axis, a, b in zip(rule_axes, lo, hi):
        labels &= (X[:, axis] >= a) & (X[:, axis] <= b)
        l[axis] = max(a - rng.uniform(0.0, 0.05), 0.0)
        u[axis] = min(b + rng.uniform(0.0, 0.05), 1.0)
    labels = labels ^ (rng.random(n) < 0.05)
    threshold = float(rng.choice([0.8, 0.9]))
    cap = int(rng.integers(1, 3))
    return space, X, labels.astype(int), BoxBounds(l, u), threshold, cap


def _exists_preserving_sequence(l, u, space, X, match, threshold, cap):
    """Exhaustive search over stepwise precision-preserving removal chains."""
    attrs = nontrivial_attributes(l, u, space)
    masks = {}
    for a in attrs:
        cols = space.columns_of(a)
        masks[a] = ((X[:, cols] >= l[cols]) & (X[:, cols] <= u[cols])).all(axis=1)
    base = np.ones(len(X), dtype=bool)
    for a in attrs:
        base &= masks[a]

    def pre_of(removed: frozenset):
        inside = np.ones(len(X), dtype=bool)
        for a in attrs:
            if a not in removed:
                inside &= masks[a]
        n_in = int(inside.sum())
        return (float((inside & match).sum() / n_in) if n_in else None)

    seen = set()

    def dfs(removed: frozenset) -> bool:
        if len(attrs) - len(removed) <= cap:
            pre = pre_of(removed)
            return pre is not None and pre >= threshold
        if removed in seen:
            return False
        seen.add(removed)
        for a in attrs:
            if a in removed:
                continue
            nxt = removed | {a}
            pre = pre_of(nxt)
            if pre is not None and pre >= threshold and dfs(nxt):
                return True
        return False

    start_pre = pre_of(frozenset())
    if len(attrs) <= cap:
        return start_pre is not None and start_pre >= threshold
    return dfs(frozenset())


def test_08_elimination_contract():
    rng = np.random.default_rng(5)
    cap_failures = monotone_failures = feasibility_failures = 0
    for _ in range(50):
        space, X, labels, box, threshold, cap = _elimination_problem(rng)
        match = labels == 1
        cov_before = cov_exact(box, X)
        new_l, new_u, order, path = _eliminate(box.l, box.u, space, X, match,
                                               threshold, cap)
        if len(nontrivial_attributes(new_l, new_u, space)) > cap:
            cap_failures += 1
        last = cov_before
        for cov in path:
            if cov < last - 1e-15:
                monotone_failures += 1
            last = cov
        pre = pre_exact_or_none(BoxBounds(new_l, new_u), X, labels, 1)
        achieved = pre is not None and pre >= threshold
        achievable = _exists_preserving_sequence(box.l, box.u, space, X, match,
                                                 threshold, cap)
        if achievable and not achieved:
            feasibility_failures += 1
    ok = cap_failures == 0 and monotone_failures == 0 and feasibility_failures == 0
    report("criterion 8 (elimination contract)", ok,
           f"cap violations {cap_failures}, coverage regressions {monotone_failures}, "
           f"missed precision-preserving sequences {feasibility_failures} over 50 problems")


def test_09_msd_dominance():
    rng = np.random.default_rng(13)
    X = rng.random((2000, 3))
    eval_labels = rng.integers(0, 2, 2000)
    candidates = []
    for _ in range(50):
        a, b = rng.random(3), rng.random(3)
        l, u = np.minimum(a, b), np.maximum(a, b)
        candidates.append(Explanation(
            bounds=BoxBounds(l, u), clauses=[], coverage=0.0, precision=1.0,
            query_label=int(rng.integers(0, 2)), feasible=True))
    budget = 10
    msd = msd_select(candidates, X, eval_labels, budget)
    msd_curve = [cov for cov, _ in msd.curves]
    gains = np.diff([0.0] + msd_curve)
    gains_ok = bool(np.all(gains[:-1] >= gains[1:] - 1e-12))
    dominated = 0
    for seed in range(20):
        rp = rp_select(candidates, X, eval_labels, budget, seed)
        rp_curve = [cov for cov, _ in rp.curves]
        length = min(len(rp_curve), budget)
        padded = msd_curve + [msd_curve[-1]] * (length - len(msd_curve))
        dominated += all(padded[i] >= rp_curve[i] - 1e-12 for i in range(length))
    ok = gains_ok and dominated >= 18
    report("criterion 9 (greedy dominance over random pick)", ok,
           f"greedy prefix coverage dominates random pick in {dominated}/20 draws "
           f"(need >= 18); marginal gains non-increasing: {gains_ok}")


def test_10_discrete_snapping():
    rng = np.random.default_rng(23)
    mismatches = 0
    for _ in range(50):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(100, 400))
        attrs = []
        cols = []
        for j in range(d):
            m = int(rng.integers(2, 8))
            levels = tuple(float(v) for v in sorted(rng.choice(100, size=m, replace=False)))
            attrs.append(AttributeSchema(name=f"g{j}", kind="ordered_discrete", levels=levels))
            cols.append(rng.choice(np.asarray(levels), n))
        space = encode(RawTable(attrs, cols))
        X = space.matrix
        labels = rng.integers(0, 2, n)
        a, b = rng.random(d), rng.random(d)
        box = BoxBounds(np.minimum(a, b), np.maximum(a, b))
        snapped = snap_discrete(box, space)
        if cov_exact(box, X) != cov_exact(snapped, X):
            mismatches += 1
        if pre_exact_or_none(box, X, labels, 1) != pre_exact_or_none(snapped, X, labels, 1):
            mismatches += 1
    report("criterion 10 (discrete snapping invariance)", mismatches == 0,
           f"{mismatches} coverage/precision changes across 50 snapped problems, bit-exact")
