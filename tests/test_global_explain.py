"""Greedy global selection, the random-pick baseline, and majority voting."""

import numpy as np
import pytest

from maire import BoxBounds, GlobalExplanation, global_predict, msd_select, rp_select
from maire.explain import Explanation


def box_explanation(l, u, label=1):
    l = np.asarray(l, dtype=float)
    u = np.asarray(u, dtype=float)
    return Explanation(
        bounds=BoxBounds(l, u), clauses=[], coverage=0.0, precision=1.0,
        query_label=label, feasible=True)


def union_coverage(members, X):
    covered = np.zeros(len(X), dtype=bool)
    for m in members:
        covered |= ((X >= m.bounds.l) & (X <= m.bounds.u)).all(axis=1)
    return covered.mean()


def brute_force_vote(boxes, x):
    """The vote of ``boxes`` = [(l, u, label)] at one point: majority label
    among the boxes containing it, ties to the lowest; None when none does."""
    votes = [y for l, u, y in boxes if all(a <= v <= b for a, v, b in zip(l, x, u))]
    return min(set(votes), key=lambda y: (-votes.count(y), y)) if votes else None


def brute_force_curves(boxes, X, labels):
    """(coverage, precision) per prefix of ``boxes``, one point and one vote
    at a time, with precision over the points some box covers."""
    curves = []
    for end in range(1, len(boxes) + 1):
        preds = [brute_force_vote(boxes[:end], x) for x in X]
        hits = [p == y for p, y in zip(preds, labels) if p is not None]
        curves.append((len(hits) / len(X), sum(hits) / len(hits) if hits else None))
    return curves


def predict_one(g, x):
    """``global_predict`` at ``x``, checked against the batched ``predict``."""
    label = global_predict(g, x)
    assert g.predict(np.asarray(x)[None]) == [label]
    return label


@pytest.fixture
def line_points():
    # 100 evenly spread 1-D points; box [a, b] covers a predictable slice
    return np.linspace(0.005, 0.995, 100)[:, None]


class TestMsdSelect:
    def test_two_disjoint_boxes_selected_large_first(self, line_points):
        a = box_explanation([0.0], [0.30])  # covers 30 points
        b = box_explanation([0.50], [0.70])  # covers 20 points
        labels = np.ones(100, dtype=int)
        g = msd_select([b, a], line_points, labels, budget=5)
        assert g.member_indices == [1, 0]
        assert [cov for cov, _ in g.curves] == pytest.approx([0.30, 0.50])
        # brute-force union agrees
        assert union_coverage(g.members, line_points) == pytest.approx(0.50)

    def test_duplicate_candidate_never_selected_twice(self, line_points):
        a = box_explanation([0.0], [0.30])
        dup = box_explanation([0.0], [0.30])
        rest = box_explanation([0.6], [0.8])
        labels = np.ones(100, dtype=int)
        g = msd_select([a, dup, rest], line_points, labels, budget=3)
        assert set(g.member_indices) == {0, 2}

    def test_budget_one_takes_highest_coverage(self, line_points):
        cands = [box_explanation([0.1], [0.2]),
                 box_explanation([0.3], [0.9]),
                 box_explanation([0.0], [0.4])]
        labels = np.ones(100, dtype=int)
        g = msd_select(cands, line_points, labels, budget=1)
        assert g.member_indices == [1]

    def test_marginal_gains_nonincreasing(self):
        rng = np.random.default_rng(0)
        X = rng.random((500, 3))
        labels = rng.integers(0, 2, 500)
        cands = []
        for _ in range(40):
            a, b = rng.random(3), rng.random(3)
            cands.append(box_explanation(np.minimum(a, b), np.maximum(a, b),
                                         label=int(rng.integers(0, 2))))
        g = msd_select(cands, X, labels, budget=40)
        covs = [cov for cov, _ in g.curves]
        gains = np.diff([0.0] + covs)
        assert all(gains[i] >= gains[i + 1] - 1e-12 for i in range(len(gains) - 1))

    def test_empty_pool_rejected(self, line_points):
        with pytest.raises(ValueError):
            msd_select([], line_points, np.ones(100, dtype=int), 1)


class TestRpSelect:
    def test_seed_reproducibility(self, line_points):
        cands = [box_explanation([i / 10], [i / 10 + 0.05]) for i in range(8)]
        labels = np.ones(100, dtype=int)
        g1 = rp_select(cands, line_points, labels, budget=4, seed=11)
        g2 = rp_select(cands, line_points, labels, budget=4, seed=11)
        assert g1.member_indices == g2.member_indices

    def test_budget_exhaustion_takes_all_shuffled(self, line_points):
        cands = [box_explanation([i / 10], [i / 10 + 0.05]) for i in range(8)]
        labels = np.ones(100, dtype=int)
        g = rp_select(cands, line_points, labels, budget=20, seed=5)
        assert sorted(g.member_indices) == list(range(8))
        assert g.member_indices != list(range(8))  # seeded permutation, not identity

    def test_msd_beats_rp_on_average(self):
        rng = np.random.default_rng(1)
        X = rng.random((400, 2))
        labels = rng.integers(0, 2, 400)
        cands = []
        for _ in range(30):
            a, b = rng.random(2), rng.random(2)
            cands.append(box_explanation(np.minimum(a, b), np.maximum(a, b)))
        budget = 8
        msd = msd_select(cands, X, labels, budget)
        msd_curve = np.array([cov for cov, _ in msd.curves])
        wins = 0
        for seed in range(20):
            rp = rp_select(cands, X, labels, budget, seed)
            rp_curve = np.array([cov for cov, _ in rp.curves[:len(msd_curve)]])
            wins += np.all(msd_curve >= rp_curve - 1e-12)
        assert wins >= 15


class TestGlobalPredict:
    def setup_method(self):
        self.g = GlobalExplanation(
            members=[
                box_explanation([0.0, 0.0], [0.5, 0.5], label=1),
                box_explanation([0.2, 0.2], [0.8, 0.8], label=1),
                box_explanation([0.3, 0.3], [0.9, 0.9], label=0),
            ],
            member_indices=[0, 1, 2],
            curves=[],
        )

    def test_single_applicable_member(self):
        assert predict_one(self.g, np.array([0.05, 0.05])) == 1

    def test_majority_vote(self):
        assert predict_one(self.g, np.array([0.4, 0.4])) == 1  # votes 1, 1, 0

    def test_abstains_when_nothing_applies(self):
        assert predict_one(self.g, np.array([0.99, 0.01])) is None

    def test_batched_prediction(self):
        X = np.array([[0.05, 0.05], [0.4, 0.4], [0.99, 0.01], [0.85, 0.85]])
        assert self.g.predict(X) == [1, 1, None, 0]

    def test_tie_breaks_toward_smallest_label(self):
        g = GlobalExplanation(
            members=[
                box_explanation([0.0, 0.0], [1.0, 1.0], label=3),
                box_explanation([0.0, 0.0], [1.0, 1.0], label=1),
            ],
            member_indices=[0, 1],
            curves=[],
        )
        assert predict_one(g, np.array([0.5, 0.5])) == 1

    def test_negative_labels_vote(self):
        g = GlobalExplanation(
            members=[
                box_explanation([0.0, 0.0], [0.5, 0.5], label=1),
                box_explanation([0.0, 0.0], [1.0, 1.0], label=-1),
            ],
            member_indices=[0, 1],
            curves=[],
        )
        assert predict_one(g, np.array([0.9, 0.9])) == -1
        assert predict_one(g, np.array([0.2, 0.2])) == -1  # a 1-1 tie


class TestCurves:
    def test_precision_excludes_abstained_points(self):
        X = np.array([[0.1], [0.3], [0.9]])
        eval_labels = np.array([1, 0, 1])
        cands = [box_explanation([0.0], [0.4], label=1)]
        g = msd_select(cands, X, eval_labels, budget=1)
        cov, pre = g.curves[0]
        assert cov == pytest.approx(2 / 3)
        assert pre == pytest.approx(1 / 2)  # the uncovered third point is left out

    def test_negative_label_member_scores_its_points(self):
        X = np.array([[0.1], [0.2], [0.6], [0.9]])
        cands = [box_explanation([0.0], [0.3], label=-1)]
        g = msd_select(cands, X, np.array([-1, -1, 1, 1]), budget=1)
        assert g.curves == [(0.5, 1.0)]

    @pytest.mark.parametrize("select", ["msd", "rp"])
    @pytest.mark.parametrize("seed", range(6))
    def test_curves_match_brute_force_vote(self, select, seed):
        rng = np.random.default_rng(seed)
        X = rng.random((60, 2))
        labels = rng.choice([-1, 1], 60)
        cands = []
        for _ in range(12):
            a, b = rng.random(2), rng.random(2)
            cands.append(box_explanation(np.minimum(a, b), np.maximum(a, b),
                                         label=int(rng.choice([-1, 1]))))
        if select == "msd":
            g = msd_select(cands, X, labels, budget=12)
        else:
            g = rp_select(cands, X, labels, budget=12, seed=seed)
        boxes = [(m.bounds.l, m.bounds.u, m.query_label) for m in g.members]
        expected = brute_force_curves(boxes, X, labels)
        assert [cov for cov, _ in g.curves] == pytest.approx([cov for cov, _ in expected])
        assert [pre for _, pre in g.curves] == [pytest.approx(pre) if pre is not None else None
                                                for _, pre in expected]
        predicted = g.predict(X)
        assert predicted == [brute_force_vote(boxes, x) for x in X]
        assert [global_predict(g, x) for x in X] == predicted

    def test_no_coverage_gives_none_precision(self):
        X = np.array([[0.9]])
        cands = [box_explanation([0.0], [0.1], label=1)]
        g = msd_select(cands, X, np.array([1]), budget=1)
        assert g.member_indices == []  # zero marginal gain: nothing selected
        assert g.curves == []
        assert g.predict(np.array([[0.9], [0.05]])) == [None, None]

    def test_points_of_the_wrong_width_rejected(self):
        """A 2-axis box on 1-column points once broadcast the column over both
        axes and wrote the curves [(0.75, 0.667)]."""
        X = np.array([[0.1], [0.3], [0.5], [0.9]])
        cands = [box_explanation([0.0, 0.0], [0.6, 0.6], label=1)]
        with pytest.raises(ValueError, match=r"\(4, 1\).*\(N, 2\)"):
            msd_select(cands, X, np.array([1, 1, 0, 0]), budget=1)

    @pytest.mark.parametrize("labels", [np.array([[1], [1], [0], [0]]), np.array([1, 1, 0])])
    def test_labels_of_the_wrong_shape_rejected(self, labels):
        """An (N, 1) label column once broadcast inside the vote and halved the
        precision of two disjoint correct members; a short one ended in an
        IndexError."""
        X = np.array([[0.1], [0.2], [0.6], [0.9]])
        cands = [box_explanation([0.0], [0.3], label=1), box_explanation([0.5], [1.0], label=0)]
        assert msd_select(cands, X, np.array([1, 1, 0, 0]), budget=2).curves == [(0.5, 1.0),
                                                                                   (1.0, 1.0)]
        for select in (lambda: msd_select(cands, X, labels, budget=2),
                       lambda: rp_select(cands, X, labels, budget=2, seed=0)):
            with pytest.raises(ValueError, match=r"eval_labels of shape .*expected \(4,\)"):
                select()

    def test_serialization_round_trip(self, line_points=None):
        X = np.linspace(0, 1, 50)[:, None]
        cands = [box_explanation([0.0], [0.5], label=1),
                 box_explanation([0.4], [0.9], label=0)]
        g = msd_select(cands, X, np.ones(50, dtype=int), budget=2)
        d = g.to_dict()
        assert len(d["members"]) == len(d["member_indices"]) == len(d["curves"])
