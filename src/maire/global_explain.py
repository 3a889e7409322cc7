"""Composing local explanations into a global, rule-based classifier.

Selection is greedy maximum marginal coverage gain over an evaluation set
(each added explanation maximizes the symmetric difference with the current
union, which for supersets is exactly the marginal gain), with a seeded
random-pick baseline. The resulting member set predicts by majority label
among the applicable boxes and abstains when none applies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .explain import Explanation
from .indicator import inside_mask


@dataclass
class GlobalExplanation:
    members: list[Explanation]
    member_indices: list[int]
    curves: list[tuple[float, float | None]]  # per prefix: (coverage, precision)
    anchor_set: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "anchor_set": list(self.anchor_set),
            "member_indices": list(self.member_indices),
            "members": [m.to_record() for m in self.members],
            "curves": [[cov, pre] for cov, pre in self.curves],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)


def _member_masks(candidates: list[Explanation], eval_points: np.ndarray) -> np.ndarray:
    X = np.asarray(eval_points, dtype=np.float64)
    return np.stack([inside_mask(c.bounds, X) for c in candidates])


def _majority_votes(masks, labels_of, selected, n_points) -> np.ndarray:
    """Predicted label per point for the selected members; -1 = abstain."""
    distinct = sorted({labels_of[i] for i in selected})
    votes = np.zeros((len(distinct), n_points), dtype=np.int64)
    for i in selected:
        votes[distinct.index(labels_of[i])] += masks[i]
    total = votes.sum(axis=0)
    pred = np.asarray(distinct, dtype=np.int64)[votes.argmax(axis=0)]  # argmax ties -> lowest label
    pred[total == 0] = -1
    return pred


def _curves(
    masks: np.ndarray,
    labels_of: list[int],
    order: list[int],
    eval_labels: np.ndarray,
) -> list[tuple[float, float | None]]:
    n = masks.shape[1]
    eval_labels = np.asarray(eval_labels)
    out = []
    for end in range(1, len(order) + 1):
        selected = order[:end]
        covered = np.zeros(n, dtype=bool)
        for i in selected:
            covered |= masks[i]
        coverage = float(covered.mean())
        pred = _majority_votes(masks, labels_of, selected, n)
        scored = pred >= 0
        precision = float((pred[scored] == eval_labels[scored]).mean()) if scored.any() else None
        out.append((coverage, precision))
    return out


def msd_select(
    candidates: list[Explanation],
    eval_points: np.ndarray,
    eval_labels: np.ndarray,
    budget: int,
) -> GlobalExplanation:
    """Greedy selection by maximum marginal coverage gain.

    Stops at the budget or when no candidate adds a covered point. Ties go
    to the lowest candidate index.
    """
    if not candidates:
        raise ValueError("candidates must be nonempty")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    masks = _member_masks(candidates, eval_points)
    covered = np.zeros(masks.shape[1], dtype=bool)
    remaining = list(range(len(candidates)))
    order: list[int] = []
    while remaining and len(order) < budget:
        gains = [(int((masks[i] & ~covered).sum()), i) for i in remaining]
        best_gain, best = max(gains, key=lambda g: (g[0], -g[1]))
        if best_gain == 0:
            break
        order.append(best)
        remaining.remove(best)
        covered |= masks[best]
    labels_of = [c.query_label for c in candidates]
    curves = _curves(masks, labels_of, order, eval_labels)
    return GlobalExplanation([candidates[i] for i in order], order, curves)


def rp_select(
    candidates: list[Explanation],
    eval_points: np.ndarray,
    eval_labels: np.ndarray,
    budget: int,
    seed: int,
) -> GlobalExplanation:
    """Random-pick baseline: a seeded uniform subset without replacement."""
    if not candidates:
        raise ValueError("candidates must be nonempty")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    take = min(budget, len(candidates))
    order = [int(i) for i in rng.choice(len(candidates), size=take, replace=False)]
    masks = _member_masks(candidates, eval_points)
    labels_of = [c.query_label for c in candidates]
    curves = _curves(masks, labels_of, order, eval_labels)
    return GlobalExplanation([candidates[i] for i in order], order, curves)


def global_predict(g: GlobalExplanation, x: np.ndarray) -> int | None:
    """Majority label among member boxes containing ``x``; None = abstain.

    Ties break toward the smallest label value.
    """
    if not g.members:
        return None
    masks = _member_masks(g.members, np.asarray(x, dtype=np.float64)[None, :])
    if not masks.any():
        return None
    labels_of = [m.query_label for m in g.members]
    return int(_majority_votes(masks, labels_of, range(len(g.members)), 1)[0])
