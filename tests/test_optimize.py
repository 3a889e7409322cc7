"""Objective, analytic gradient, and the ascent loop."""

import json

import numpy as np
import pytest

from maire import (
    ApproxConstants,
    BoxBounds,
    OptimizerConfig,
    cov_hat,
    gradient,
    initial_bounds,
    objective,
    optimize,
    pre_hat,
)
from maire.indicator import pre_exact_or_none
from maire.optimize import TRACE_COLUMNS, _gate
from maire.synthetic import synthetic_dataset

OBJECTIVE = TRACE_COLUMNS.index("objective")

K = ApproxConstants()


def random_problem(rng, d=None, n=None):
    d = d or int(rng.integers(1, 5))
    n = n or int(rng.integers(15, 60))
    X = rng.random((n, d))
    labels = rng.integers(0, 2, n)
    q = rng.random(d)
    a, b = rng.random(d), rng.random(d)
    return BoxBounds(np.minimum(a, b), np.maximum(a, b)), q, X, labels


def fd_gradient(b, q, X, labels, qlabel, cfg, k, eps=1e-6):
    l, u = b.l.copy(), b.u.copy()
    d = len(l)
    out_l, out_u = np.zeros(d), np.zeros(d)
    for j in range(d):
        for arr, out in ((l, out_l), (u, out_u)):
            orig = arr[j]
            arr[j] = orig + eps
            fp = objective(BoxBounds(l, u), q, X, labels, qlabel, cfg, k)
            arr[j] = orig - eps
            fm = objective(BoxBounds(l, u), q, X, labels, qlabel, cfg, k)
            arr[j] = orig
            out[j] = (fp - fm) / (2 * eps)
    return out_l, out_u


def kink_margin(b, q, X, cfg, k):
    """Distance of every step/kink argument from its jump."""
    args = [
        (X - b.l).ravel(),
        ((b.u - X) + k.cl).ravel(),
        (X - b.u).ravel(),           # exact-membership boundary
        b.l - q,
        q - b.u,
    ]
    pre = pre_exact_or_none(b, X, np.zeros(len(X), dtype=int), 0)
    gate_margin = np.inf if pre is None else abs(cfg.precision_threshold - pre)
    return min(float(np.abs(np.concatenate(args)).min()), gate_margin)


class TestObjective:
    def test_reduces_to_coverage_when_precise_and_contained(self):
        rng = np.random.default_rng(0)
        X = rng.random((100, 2))
        labels = np.ones(100, dtype=int)
        b = BoxBounds(np.array([0.2, 0.2]), np.array([0.8, 0.8]))
        q = np.array([0.5, 0.5])
        cfg = OptimizerConfig(precision_threshold=0.9)
        assert objective(b, q, X, labels, 1, cfg, K) == pytest.approx(
            cov_hat(b, X, K), abs=1e-15)

    def test_gate_doubles_precision_term_when_below_threshold(self):
        rng = np.random.default_rng(1)
        X = rng.random((100, 2))
        labels = rng.integers(0, 2, 100)
        b = BoxBounds(np.array([0.1, 0.1]), np.array([0.9, 0.9]))
        q = np.array([0.5, 0.5])
        cfg = OptimizerConfig(precision_threshold=0.999, lambda1=5.0)
        expected = cov_hat(b, X, K) + 2 * 5.0 * pre_hat(b, X, labels, 1, K)
        assert objective(b, q, X, labels, 1, cfg, K) == pytest.approx(expected, abs=1e-12)

    def test_violation_charged_linearly(self):
        rng = np.random.default_rng(2)
        X = rng.random((50, 1))
        labels = np.ones(50, dtype=int)
        delta = 0.07
        b = BoxBounds(np.array([0.3]), np.array([0.8]))
        q = np.array([0.3 - delta])
        cfg = OptimizerConfig(precision_threshold=0.5, lambda2=4.0)
        with_pen = objective(b, q, X, labels, 1, cfg, K)
        q_inside = np.array([0.5])
        without = objective(b, q_inside, X, labels, 1, cfg, K)
        assert without - with_pen == pytest.approx(4.0 * delta, abs=1e-12)

    def test_empty_box_forces_gate(self):
        X = np.array([[0.1], [0.9]])
        labels = np.array([1, 1])
        b = BoxBounds(np.array([0.5]), np.array([0.5]))
        q = np.array([0.5])
        cfg = OptimizerConfig(precision_threshold=0.5, lambda1=3.0)
        expected = cov_hat(b, X, K) + 2 * 3.0 * pre_hat(b, X, labels, 1, K)
        assert objective(b, q, X, labels, 1, cfg, K) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("threshold", [0.5, 0.95, 1.0])
    def test_gate_is_0_1_2_above_at_below_threshold(self, threshold):
        n_in = np.array([0, 1, 2, 4, 20, 20, 20, 100])
        n_match = np.array([0, 1, 1, 2, 19, 10, 20, 95])
        cfg = OptimizerConfig(precision_threshold=threshold)
        expected = [2.0 if n == 0 else 1.0 + np.sign(threshold - m / n)
                    for m, n in zip(n_match, n_in)]
        assert _gate(n_match, n_in, cfg).tolist() == expected


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 25:
            b, q, X, labels = random_problem(rng)
            cfg = OptimizerConfig(precision_threshold=float(rng.uniform(0.3, 0.9)))
            if kink_margin(b, q, X, cfg, K) < 1e-3:
                continue
            gl, gu = gradient(b, q, X, labels, 1, cfg, K)
            fl, fu = fd_gradient(b, q, X, labels, 1, cfg, K)
            got = np.concatenate([gl, gu])
            ref = np.concatenate([fl, fu])
            if np.linalg.norm(ref) < 1e-3:
                continue
            rel = np.linalg.norm(got - ref) / np.linalg.norm(ref)
            assert rel < 1e-4
            checked += 1

    def test_containment_penalty_gradient_is_exact(self):
        rng = np.random.default_rng(3)
        X = rng.random((40, 2))
        labels = np.ones(40, dtype=int)
        b = BoxBounds(np.array([0.4, 0.2]), np.array([0.9, 0.8]))
        q = np.array([0.3, 0.5])  # lower bound violated on axis 0 only
        cfg_on = OptimizerConfig(precision_threshold=0.5, lambda2=5.0)
        cfg_off = OptimizerConfig(precision_threshold=0.5, lambda2=0.0)
        gl_on, gu_on = gradient(b, q, X, labels, 1, cfg_on, K)
        gl_off, gu_off = gradient(b, q, X, labels, 1, cfg_off, K)
        np.testing.assert_allclose(gl_on - gl_off, [-5.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(gu_on - gu_off, [0.0, 0.0], atol=1e-12)

    def test_symmetric_data_gives_mirrored_coverage_gradient(self):
        k = ApproxConstants(cl=1e-9)
        half = np.linspace(0.05, 0.45, 20)
        X = np.concatenate([0.5 - half, 0.5 + half])[:, None]
        labels = np.ones(len(X), dtype=int)
        q = np.array([0.5])
        b = BoxBounds(np.array([0.2]), np.array([0.8]))
        cfg = OptimizerConfig(precision_threshold=0.5, lambda1=0.0, lambda2=0.0)
        gl, gu = gradient(b, q, X, labels, 1, cfg, k)
        assert gl[0] == pytest.approx(-gu[0], abs=1e-7)


class TestOptimize:
    def test_bounds_stay_in_unit_cube(self):
        rng = np.random.default_rng(4)
        X = rng.random((150, 2))
        labels = rng.integers(0, 2, 150)
        q = np.array([0.02, 0.98])  # clipping active early
        cfg = OptimizerConfig(precision_threshold=0.6, max_iters=120)
        box, trace = optimize(initial_bounds(q), q, X, labels, 1, cfg)
        assert box.l.min() >= 0.0 and box.u.max() <= 1.0
        assert np.isfinite(trace.values[:, OBJECTIVE]).all()

    def test_deterministic_traces(self):
        rng = np.random.default_rng(5)
        X = rng.random((100, 2))
        labels = rng.integers(0, 2, 100)
        q = np.array([0.5, 0.5])
        cfg = OptimizerConfig(max_iters=150)
        box1, t1 = optimize(initial_bounds(q), q, X, labels, 1, cfg)
        box2, t2 = optimize(initial_bounds(q), q, X, labels, 1, cfg)
        np.testing.assert_array_equal(box1.l, box2.l)
        np.testing.assert_array_equal(t1.values[:, OBJECTIVE], t2.values[:, OBJECTIVE])

    def test_best_so_far_objective_nondecreasing(self):
        rng = np.random.default_rng(6)
        X = rng.random((200, 2))
        labels = (X[:, 0] > 0.4).astype(int)
        q = np.array([0.6, 0.5])
        cfg = OptimizerConfig(precision_threshold=0.9, max_iters=300)
        _, trace = optimize(initial_bounds(q), q, X, labels, 1, cfg)
        best = -np.inf
        for objective_t in trace.values[:, OBJECTIVE]:
            best = max(best, objective_t)
            assert objective_t <= best

    def test_returned_box_contains_query(self):
        rng = np.random.default_rng(7)
        X = rng.random((150, 3))
        labels = rng.integers(0, 2, 150)
        q = rng.random(3)
        cfg = OptimizerConfig(precision_threshold=0.7, max_iters=200)
        box, _ = optimize(initial_bounds(q), q, X, labels, 1, cfg)
        assert box.contains(q)

    def test_rectangle_recovery_quick(self):
        shape, space, labels = synthetic_dataset("rect", 2500, seed=3)
        q = np.array([0.5, 0.5])
        cfg = OptimizerConfig(precision_threshold=0.95, max_iters=1200)
        box, trace = optimize(initial_bounds(q), q, space.matrix, labels, 1, cfg)
        assert trace.feasible
        assert np.abs(box.l - 0.3).max() < 0.05
        assert np.abs(box.u - 0.7).max() < 0.05

    def test_containment_from_penalty_alone(self):
        shape, space, labels = synthetic_dataset("two-region", 2000, seed=0)
        q = np.array([0.225, 0.5])
        cfg = OptimizerConfig(precision_threshold=0.95, lambda2=5.0, max_iters=800,
                              containment_snap=False)
        box, _ = optimize(initial_bounds(q), q, space.matrix, labels, 1, cfg)
        assert box.contains(q)

    def test_convergence_flag_on_flat_objective(self):
        # far-away data saturates every sigmoid: gradients vanish, objective
        # flattens, and the ascent still runs max_iters (100 = 3 stretches + 4)
        X = np.full((30, 1), 0.95)
        labels = np.ones(30, dtype=int)
        q = np.array([0.1])
        cfg = OptimizerConfig(precision_threshold=0.5, max_iters=100, learning_rate=1e-6)
        box, trace = optimize(initial_bounds(q), q, X, labels, 1, cfg)
        assert trace.converged is False
        assert len(trace) == cfg.max_iters
        assert np.ptp(trace.values[:, OBJECTIVE]) < 1e-9
        records = [json.loads(line) for line in trace.jsonl_lines()]
        assert [r["iteration"] for r in records] == list(range(1, cfg.max_iters + 1))
        assert records[-1]["status"] == "iteration_capped"
        assert trace.best_iteration <= cfg.max_iters

    def test_trace_jsonl_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        X = rng.random((60, 1))
        labels = rng.integers(0, 2, 60)
        q = np.array([0.5])
        cfg = OptimizerConfig(max_iters=40)
        _, trace = optimize(initial_bounds(q), q, X, labels, 1, cfg)
        path = tmp_path / "trace.jsonl"
        trace.write_jsonl(str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(trace) == cfg.max_iters
        records = [json.loads(line) for line in lines]
        assert records[-1]["status"] == "iteration_capped"
        assert {"iteration", "objective", "cov_hat", "pre_hat", "cov", "pre", "violation"} \
            <= set(records[0])

    def test_empty_box_precision_is_nan_and_null(self):
        # no data near the query: the first iterates admit no point
        rng = np.random.default_rng(9)
        X = rng.random((400, 2))
        X = X[~((X > 0.35) & (X < 0.65)).all(axis=1)]
        labels = (X[:, 0] < 0.5).astype(int)
        q = np.array([0.5, 0.5])
        _, trace = optimize(initial_bounds(q), q, X, labels, 1, OptimizerConfig(max_iters=60))
        cov, pre = (trace.values[:, TRACE_COLUMNS.index(c)] for c in ("cov", "pre"))
        assert cov[0] == 0.0 and np.isnan(pre[0])
        np.testing.assert_array_equal(np.isnan(pre), cov == 0.0)
        records = [json.loads(line) for line in trace.jsonl_lines()]
        assert records[0]["pre"] is None
        assert [r["pre"] is None for r in records] == (cov == 0.0).tolist()


class TestConfig:
    @pytest.mark.parametrize("bad", [
        dict(learning_rate=0.0), dict(precision_threshold=0.0),
        dict(precision_threshold=1.2), dict(max_iters=0),
    ])
    def test_invalid_config_rejected(self, bad):
        with pytest.raises(ValueError):
            OptimizerConfig(**bad)

    @pytest.mark.parametrize("bad", [
        dict(lambda1=-3.0),
        dict(lambda2=-0.1),
        dict(learning_rate=float("nan")),
        dict(learning_rate=float("inf")),
        dict(lambda1=float("nan")),
        dict(lambda1=float("inf")),
        dict(lambda2=float("nan")),
        dict(lambda2=float("inf")),
        dict(lambda2=float("-inf")),
    ], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
    def test_invalid_ascent_settings_rejected(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            OptimizerConfig(**bad)

    def test_boundary_settings_accepted(self):
        OptimizerConfig(lambda1=0.0, lambda2=0.0)
