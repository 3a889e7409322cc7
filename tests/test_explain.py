"""Local explanation pipeline: optimize, snap, eliminate, render."""

import dataclasses
import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maire import (
    AttributeSchema,
    BoxBounds,
    OptimizerConfig,
    PredictionProvider,
    SchemaError,
    StoredColumnProvider,
    cov_exact,
    explain,
)
from maire.explain import Explanation, _eliminate, _eliminate_many, explain_encoded, explain_many
from maire.indicator import BoxStats, inside_mask, pre_exact_or_none
from maire.schema import RawTable, encode, nontrivial_attributes
from maire.synthetic import synthetic_dataset

# the package exports a function of the same name
optimize_module = importlib.import_module("maire.optimize")


def continuous_space(rng, n, d, names=None):
    names = names or [f"x{j}" for j in range(d)]
    attrs = [AttributeSchema(name=nm, kind="continuous", value_range=(0.0, 1.0)) for nm in names]
    cols = [rng.random(n) for _ in range(d)]
    return encode(RawTable(attrs, cols))


class TestGreedyElimination:
    def test_vacuous_axis_removed_first_precision_unchanged(self):
        rng = np.random.default_rng(0)
        space = continuous_space(rng, 400, 2)
        X = space.matrix
        labels = (X[:, 0] <= 0.5).astype(int)  # axis 1 carries no signal
        # axis-1 bounds exclude only same-label points: pre stays 1 after removal
        l = np.array([0.0, 0.3])
        u = np.array([0.5, 0.7])
        new_l, new_u, order, path = _eliminate(l, u, space, X, labels == 1, 0.95, 1)
        assert order[0] == "x1"
        pre = pre_exact_or_none(BoxBounds(new_l, new_u), X, labels, 1)
        assert pre == 1.0
        assert new_l[1] == 0.0 and new_u[1] == 1.0

    def test_equal_coverage_ties_go_to_smaller_loss_then_lower_index(self):
        # box [0.3, 0.7]^3 holds four rows of label 1; each pair of rows lies
        # outside on one attribute only, so every removal admits two rows
        attrs = [AttributeSchema(name=f"x{j}", kind="continuous", value_range=(0.0, 1.0))
                 for j in range(3)]
        cols = np.full((3, 10), 0.5)
        for j in range(3):
            cols[j, 4 + 2 * j:6 + 2 * j] = 0.9
        space = encode(RawTable(attrs, list(cols)))
        labels = np.array([1, 1, 1, 1, 1, 0, 1, 1, 1, 1])  # x0's pair costs precision
        l, u = np.full(3, 0.3), np.full(3, 0.7)
        _, _, order, path = _eliminate(l, u, space, space.matrix, labels == 1, 0.8, 2)
        # forced: x0, x1 and x2 tie on coverage; x0 loses precision, x1 has the
        # lower index. Then x0 and x2 tie; x2 keeps precision 1
        assert order == ["x1", "x2", "x0"]
        assert path == [0.6, 0.8, 1.0]

    def test_full_range_attribute_never_selected(self):
        rng = np.random.default_rng(1)
        space = continuous_space(rng, 200, 3)
        X = space.matrix
        labels = (X[:, 0] <= 0.5).astype(int)
        l = np.array([0.0, 0.0, 0.2])
        u = np.array([0.5, 1.0, 0.8])  # axis 1 already trivial
        _, _, order, _ = _eliminate(l, u, space, X, labels == 1, 0.5, 1)
        assert "x1" not in order

    def test_no_removals_when_cap_already_met_and_nothing_improves(self):
        rng = np.random.default_rng(2)
        space = continuous_space(rng, 300, 2)
        X = space.matrix
        labels = ((X[:, 0] <= 0.5) & (X[:, 1] <= 0.5)).astype(int)
        l = np.array([0.0, 0.0])
        u = np.array([0.5, 0.5])
        new_l, new_u, order, _ = _eliminate(l, u, space, X, labels == 1, 0.95, 2)
        assert order == []
        np.testing.assert_array_equal(new_l, l)
        np.testing.assert_array_equal(new_u, u)

    def test_coverage_nondecreasing_along_removals(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            space = continuous_space(rng, 250, d)
            X = space.matrix
            labels = rng.integers(0, 2, 250)
            a, b = rng.random(d), rng.random(d)
            l, u = np.minimum(a, b), np.maximum(a, b)
            before = cov_exact(BoxBounds(l, u), X)
            _, _, order, path = _eliminate(l.copy(), u.copy(), space, X, labels == 1,
                                           0.8, 1)
            for cov in path:
                assert cov >= before - 1e-15
                before = cov

    def test_onehot_group_widens_together(self):
        rng = np.random.default_rng(4)
        attrs = [
            AttributeSchema(name="a", kind="continuous", value_range=(0.0, 1.0)),
            AttributeSchema(name="c", kind="categorical", categories=("p", "q", "r")),
        ]
        table = RawTable(attrs, [rng.random(200),
                                 np.asarray(rng.choice(["p", "q", "r"], 200), dtype=object)])
        space = encode(table)
        labels = rng.integers(0, 2, 200)
        l = np.array([0.2, 0.0, 0.0, 0.0])
        u = np.array([0.9, 1.0, 0.0, 0.0])  # categories q, r excluded
        new_l, new_u, order, _ = _eliminate(l, u, space, space.matrix, labels == 1, 0.01, 1)
        if "c" in order:
            np.testing.assert_array_equal(new_l[1:], [0, 0, 0])
            np.testing.assert_array_equal(new_u[1:], [1, 1, 1])


def reference_eliminate(l, u, space, X, match, threshold, max_attrs):
    """Greedy elimination of one box, one step at a time: the one-box
    algorithm that ``_eliminate_many`` batches, kept as its reference."""
    l = l.copy()
    u = u.copy()
    n = len(X)
    member = np.eye(len(space.attributes))[space.attr_of]  # (columns, attrs) one-hot
    out = (((X < l) | (X > u)) @ member).T > 0  # (attrs, N): row outside on attribute
    violations = out.sum(axis=0)
    active = np.asarray(nontrivial_attributes(l, u, space), dtype=np.intp)
    order, coverage_path = [], []

    def measure(inside):
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
            pick = np.lexsort((active, -cov, loss))[0]
        else:
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


@st.composite
def elimination_problems(draw):
    """A small mixed table, boxes on it and an elimination setting.

    Values and bounds come from coarse grids, so candidates often tie on
    coverage and on precision loss. Boxes may be empty (an inverted axis or
    no row inside) and may leave attributes at the full range."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["continuous", "ordered_discrete", "categorical"]),
                          min_size=1, max_size=7))
    attrs, cols = [], []
    grid = np.linspace(0.0, 1.0, 5)
    for j, kind in enumerate(kinds):
        name = f"a{j}"
        if kind == "continuous":
            attrs.append(AttributeSchema(name=name, kind=kind, value_range=(0.0, 1.0)))
            cols.append(rng.choice(grid, n))
        elif kind == "ordered_discrete":
            levels = tuple(range(1, int(rng.integers(2, 5)) + 1))
            attrs.append(AttributeSchema(name=name, kind=kind, levels=levels))
            cols.append(rng.choice(np.asarray(levels, dtype=float), n))
        else:
            cats = tuple("pqrs"[:int(rng.integers(1, 5))])
            attrs.append(AttributeSchema(name=name, kind=kind, categories=cats))
            cols.append(np.asarray(rng.choice(cats, n), dtype=object))
    space = encode(RawTable(attrs, cols))
    d = space.matrix.shape[1]
    boxes = []
    for _ in range(draw(st.integers(1, 6))):
        mode = draw(st.sampled_from(["grid", "full-range axes", "inverted", "around a row"]))
        a, b = rng.choice(grid, d), rng.choice(grid, d)
        l, u = np.minimum(a, b), np.maximum(a, b)
        if mode == "full-range axes":
            wide = rng.random(d) < 0.5
            l[wide], u[wide] = 0.0, 1.0
        elif mode == "inverted":
            j = int(rng.integers(d))
            l[j], u[j] = u[j] + 0.1, l[j]
            l = np.minimum(l, 1.0)
        elif mode == "around a row":
            x = space.matrix[int(rng.integers(n))]
            l, u = np.minimum(l, x), np.maximum(u, x)
        boxes.append((l, u))
    labels = rng.integers(0, 2, (len(boxes), n)).astype(bool)
    threshold = draw(st.sampled_from([0.5, 0.75, 0.9, 1.0]))
    return space, boxes, labels, threshold, draw(st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(elimination_problems())
def test_batched_elimination_equals_one_box_reference(problem):
    space, boxes, match, threshold, cap = problem
    X = space.matrix
    L, U, orders, paths = _eliminate_many(np.stack([l for l, _ in boxes]),
                                          np.stack([u for _, u in boxes]), space, X.T, match,
                                          threshold, cap)
    for i, (l, u) in enumerate(boxes):
        want_l, want_u, want_order, want_path = reference_eliminate(l, u, space, X, match[i],
                                                                    threshold, cap)
        np.testing.assert_array_equal(L[i], want_l)
        np.testing.assert_array_equal(U[i], want_u)
        assert orders[i] == want_order
        assert paths[i] == want_path


class TestExplainPipeline:
    def test_rectangle_single_region_rule(self):
        shape, space, labels = synthetic_dataset("rect", 2500, seed=2)
        q = np.array([0.5, 0.5])
        cfg = OptimizerConfig(precision_threshold=0.95, max_iters=1200)
        expl = explain_encoded(q, space, labels, 1, cfg)
        assert expl.feasible and expl.precision >= 0.95
        assert expl.bounds.contains(q)
        assert 1 <= len(expl.clauses) <= 2
        text = expl.rule_text()
        assert "x0" in text or "x1" in text

    def test_cap_of_one_leaves_one_clause(self):
        shape, space, labels = synthetic_dataset("rect", 2000, seed=4)
        q = np.array([0.5, 0.5])
        cfg = OptimizerConfig(precision_threshold=0.95, max_iters=800)
        expl = explain_encoded(q, space, labels, 1, cfg, max_attrs=1)
        assert len(expl.clauses) == 1
        assert len(nontrivial_attributes(expl.bounds.l, expl.bounds.u, space)) == 1

    def test_containment_survives_elimination(self):
        rng = np.random.default_rng(6)
        for seed in range(3):
            shape, space, labels = synthetic_dataset("circle", 1500, seed=seed)
            q = rng.random(2) * 0.2 + 0.4
            qlabel = 1
            cfg = OptimizerConfig(precision_threshold=0.9, max_iters=600)
            expl = explain_encoded(q, space, labels, qlabel, cfg, max_attrs=1)
            assert expl.bounds.contains(q)

    def test_metrics_recomputed_after_postprocessing(self):
        shape, space, labels = synthetic_dataset("rect", 1500, seed=5)
        q = np.array([0.5, 0.5])
        cfg = OptimizerConfig(precision_threshold=0.9, max_iters=600)
        expl = explain_encoded(q, space, labels, 1, cfg)
        mask = inside_mask(expl.bounds, space.matrix)
        assert expl.coverage == mask.mean()
        assert expl.precision == (mask & (labels == 1)).sum() / mask.sum()

    def test_raw_table_entry_point(self):
        rng = np.random.default_rng(7)
        attrs = [
            AttributeSchema(name="Age", kind="continuous"),
            AttributeSchema(name="Sex", kind="categorical", categories=("M", "F")),
        ]
        age = rng.uniform(17, 80, 300)
        sex = np.asarray(rng.choice(["M", "F"], 300), dtype=object)
        table = RawTable(attrs, [age, sex])
        space = encode(table)
        labels = ((age < 45) & (sex == "F")).astype(int)
        provider = StoredColumnProvider(space.matrix, labels)
        row = int(np.nonzero(labels == 1)[0][0])
        cfg = OptimizerConfig(precision_threshold=0.9, max_iters=500)
        expl = explain([age[row], sex[row]], table, provider, attrs, cfg, max_attrs=2)
        assert expl.query_label == 1
        assert len(expl.clauses) <= 2
        for clause in expl.clauses:
            assert clause.attribute in ("Age", "Sex")


    @pytest.mark.parametrize("query", [[30.0, "X"], [30.0]])
    def test_bad_query_fails_before_any_row_is_labelled(self, query):
        attrs = [
            AttributeSchema(name="Age", kind="continuous"),
            AttributeSchema(name="Sex", kind="categorical", categories=("M", "F")),
        ]
        table = RawTable(attrs, [np.array([20.0, 40.0, 60.0]),
                                 np.array(["M", "F", "M"], dtype=object)])

        class Counting(PredictionProvider):
            calls = 0

            def predict(self, points):
                Counting.calls += 1
                return np.zeros(len(points), dtype=int)

        with pytest.raises(SchemaError):
            explain(query, table, Counting(), attrs, OptimizerConfig(max_iters=5))
        assert Counting.calls == 0

def mixed_space(rng, n):
    """Two continuous, one ordered and one categorical attribute."""
    attrs = [
        AttributeSchema(name="a", kind="continuous", value_range=(0.0, 1.0)),
        AttributeSchema(name="b", kind="continuous", value_range=(0.0, 1.0)),
        AttributeSchema(name="g", kind="ordered_discrete", levels=(1, 2, 3, 4, 5)),
        AttributeSchema(name="c", kind="categorical", categories=("x", "y", "z")),
    ]
    a, b = rng.random(n), rng.random(n)
    g = rng.integers(1, 6, n).astype(float)
    c = np.asarray(rng.choice(["x", "y", "z"], n), dtype=object)
    labels = (((a < 0.6) & (g >= 2)) | (c == "z")).astype(int)
    return encode(RawTable(attrs, [a, b, g, c])), labels


class TestExplainMany:
    @pytest.mark.parametrize("snap", [True, False])
    def test_equals_one_query_at_a_time(self, monkeypatch, snap):
        space, labels = mixed_space(np.random.default_rng(11), 150)
        rows = list(range(0, 150, 6))
        # 200 = 11 * 17 + 13 iterations: the last stretch is partial
        cfg = OptimizerConfig(precision_threshold=0.9, max_iters=200, containment_snap=snap)
        assert cfg.max_iters % optimize_module.STRETCH
        alone = [explain_encoded(space.matrix[r], space, labels, labels[r], cfg, max_attrs=2)
                 for r in rows]

        # blocks of four anchors: the 25 anchors take seven blocks
        box_bytes = optimize_module._box_bytes(BoxStats(space.matrix))
        monkeypatch.setattr(optimize_module, "BLOCK_BYTES", 4 * box_bytes)
        blocks = []
        ascend = optimize_module._ascend
        monkeypatch.setattr(optimize_module, "_ascend",
                            lambda stats, initial, *rest: blocks.append(len(initial))
                            or ascend(stats, initial, *rest))
        many = explain_many(space.matrix[rows], space, labels, labels[rows], cfg, max_attrs=2)
        assert blocks == [4] * 6 + [1]

        for one, lockstep in zip(alone, many):
            assert lockstep.rule_text() == one.rule_text()
            np.testing.assert_allclose(lockstep.bounds.l, one.bounds.l, rtol=0, atol=1e-12)
            np.testing.assert_allclose(lockstep.bounds.u, one.bounds.u, rtol=0, atol=1e-12)
            assert (lockstep.coverage, lockstep.precision) == (one.coverage, one.precision)
            assert lockstep.elimination_order == one.elimination_order
            assert len(lockstep.trace) == len(one.trace) == cfg.max_iters
            assert lockstep.trace.best_iteration == one.trace.best_iteration
            assert lockstep.trace.feasible == one.trace.feasible
            np.testing.assert_allclose(lockstep.trace.values[:, 0], one.trace.values[:, 0],
                                       rtol=1e-12)  # objectives

    def test_no_queries(self):
        space, labels = mixed_space(np.random.default_rng(12), 40)
        empty = np.zeros((0, space.matrix.shape[1]))
        assert explain_many(empty, space, labels, [], OptimizerConfig(max_iters=10)) == []


class TestStretch:
    @pytest.mark.parametrize("snap", [True, False])
    def test_stretch_length_changes_nothing(self, monkeypatch, snap):
        """The ranking keeps the earliest iterate with the top key, so how
        many iterations a stretch holds changes no bound, best iteration,
        feasibility or trace value."""
        space, labels = mixed_space(np.random.default_rng(11), 150)
        rows = [0, 37, 74, 111]
        cfg = OptimizerConfig(precision_threshold=0.9, max_iters=150, containment_snap=snap)
        blocks, runs = [], []
        ascend = optimize_module._ascend
        monkeypatch.setattr(optimize_module, "_ascend",
                            lambda stats, initial, *rest: blocks.append(len(initial))
                            or ascend(stats, initial, *rest))
        for stretch in (1, 7, 16, 32):
            monkeypatch.setattr(optimize_module, "_stretch", lambda stats: stretch)
            runs.append(optimize_module.optimize_many(
                [optimize_module.initial_bounds(space.matrix[r]) for r in rows],
                space.matrix[rows], BoxStats(space.matrix), labels, labels[rows].tolist(), cfg))
        assert blocks == [4] * 4  # the four anchors step in lockstep
        # some iterates lie past their query, so the snap has bounds to move
        violation = optimize_module.TRACE_COLUMNS.index("violation")
        assert any((trace.values[:, violation] > 0.0).any() for _, trace in runs[0])
        for run in runs[1:]:
            for (bounds, trace), (first_bounds, first_trace) in zip(run, runs[0]):
                np.testing.assert_array_equal(bounds.l, first_bounds.l)
                np.testing.assert_array_equal(bounds.u, first_bounds.u)
                assert trace.best_iteration == first_trace.best_iteration
                assert trace.feasible == first_trace.feasible
                np.testing.assert_array_equal(trace.values, first_trace.values)


def assert_identical(a: Explanation, b: Explanation):
    """Two explanations agree bit for bit."""
    assert a.bounds.l.tobytes() == b.bounds.l.tobytes()
    assert a.bounds.u.tobytes() == b.bounds.u.tobytes()
    assert (a.coverage, a.precision, a.feasible) == (b.coverage, b.precision, b.feasible)
    assert a.clauses == b.clauses
    assert a.elimination_order == b.elimination_order
    assert a.trace.best_iteration == b.trace.best_iteration
    assert a.trace.values.tobytes() == b.trace.values.tobytes()


class TestColumnMajorTable:
    """``encode`` stores the table column-major; the layout changes no result."""

    def test_encoded_matrices_are_column_major(self):
        space, _ = mixed_space(np.random.default_rng(13), 50)
        assert space.matrix.shape == (50, 6) and space.matrix.flags.f_contiguous
        for name in ("rect", "discrete-strip"):
            assert synthetic_dataset(name, 40, 0)[1].matrix.flags.f_contiguous

    def test_kernel_reads_the_encoded_table_in_place(self):
        space, _ = mixed_space(np.random.default_rng(14), 50)
        assert np.shares_memory(BoxStats(space.matrix).columns, space.matrix)

    @pytest.mark.parametrize("snap", [True, False])
    def test_row_major_copy_explains_identically(self, snap):
        space, labels = mixed_space(np.random.default_rng(15), 150)
        row_major = dataclasses.replace(space, matrix=np.ascontiguousarray(space.matrix))
        assert row_major.matrix.flags.c_contiguous and not row_major.matrix.flags.f_contiguous
        rows = list(range(0, 150, 10))
        cfg = OptimizerConfig(precision_threshold=0.9, max_iters=100, containment_snap=snap)
        runs = [[explain_encoded(s.matrix[r], s, labels, labels[r], cfg, max_attrs=2)
                 for r in rows] + explain_many(s.matrix[rows], s, labels, labels[rows], cfg,
                                               max_attrs=2)
                for s in (space, row_major)]
        for a, b in zip(*runs):
            assert_identical(a, b)


class TestRender:
    def test_vacuous_rule_is_true_with_full_coverage(self):
        rng = np.random.default_rng(8)
        space = continuous_space(rng, 100, 2)
        bounds = BoxBounds(np.zeros(2), np.ones(2))
        expl = Explanation(
            bounds=bounds, clauses=[], coverage=1.0, precision=0.5,
            query_label=1, feasible=False)
        assert expl.rule_text() == "TRUE"
        assert expl.to_record()["coverage"] == 1.0

    def test_record_schema_fields(self):
        shape, space, labels = synthetic_dataset("rect", 1200, seed=6)
        cfg = OptimizerConfig(precision_threshold=0.9, max_iters=400)
        expl = explain_encoded(np.array([0.5, 0.5]), space, labels, 1, cfg,
                               query_raw=[0.5, 0.5])
        record = expl.to_record()
        assert {"query", "label", "clauses", "l", "u", "coverage", "precision",
                "feasible", "iterations"} <= set(record)
        assert record["iterations"] == len(expl.trace)

    def test_interval_formatting_two_decimals(self):
        from maire.schema import RuleClause
        assert RuleClause("Age", "interval", lo=17.0, hi=43.0).text() == "17.00 ≤ Age ≤ 43.00"
        assert RuleClause("Age", "interval", lo=47.75, hi=90.0,
                          decimals=(2, None)).text() == "Age ≥ 47.75"
        assert RuleClause("Age", "interval", lo=18.0, hi=36.125,
                          decimals=(None, 3)).text() == "Age ≤ 36.125"
        assert RuleClause("Sex", "equality", category="F").text() == "Sex = F"
        assert RuleClause("g", "ordered_interval", lo=2.0, hi=4.0).text() == "2.00 ≤ g ≤ 4.00"
        assert RuleClause("g", "ordered_interval", lo=2.0, hi=2.0).text() == "g = 2.00"

    def test_equality_record(self):
        from maire.schema import RuleClause
        assert RuleClause("Sex", "equality", category="F").to_dict() == {
            "attribute": "Sex", "form": "equality", "text": "Sex = F", "category": "F"}

    def test_category_set_text_record_and_satisfaction(self):
        from maire.schema import RuleClause
        clause = RuleClause("region", "category_set", categories=("north", "east"))
        assert clause.text() == "region ∈ {north, east}"
        assert clause.to_dict() == {"attribute": "region", "form": "category_set",
                                    "text": "region ∈ {north, east}",
                                    "categories": ["north", "east"]}
        assert clause.satisfied("east") and not clause.satisfied("south")
