"""Composing local explanations into a global, rule-based classifier.

Selection is greedy maximum marginal coverage gain over an evaluation set
(each added explanation maximizes the symmetric difference with the current
union, which for supersets is exactly the marginal gain), with a seeded
random-pick baseline. The resulting member set predicts by majority label
among the applicable boxes, ties to the lowest label, and abstains when none
applies. Labels may be any integers.
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

    def predict(self, points: np.ndarray) -> list[int | None]:
        """The vote at each of the (N, D) points; None = abstain (no member applies)."""
        X = np.asarray(points, dtype=np.float64)
        masks = np.array([inside_mask(m.bounds, X) for m in self.members], dtype=bool)
        covered, pred = np.zeros(len(X), dtype=bool), None  # no members: abstain everywhere
        for covered, pred in _votes(masks.reshape(len(self.members), len(X)),
                                    [m.query_label for m in self.members]):
            pass
        return [int(pred[i]) if c else None for i, c in enumerate(covered)]


def _votes(member_masks: np.ndarray, member_labels: list[int]):
    """The running vote of (B, N) member masks: after each member joins,
    yields which points some member covers and the label voted at each
    point, the majority label with ties to the lowest."""
    distinct, row_of = np.unique(member_labels, return_inverse=True)
    votes = np.zeros((len(distinct), member_masks.shape[1]), dtype=np.int64)
    for mask, row in zip(member_masks, row_of):
        votes[row] += mask
        yield votes.any(axis=0), distinct[votes.argmax(axis=0)]  # argmax ties -> lowest label


def _curves(member_masks, member_labels, eval_labels) -> list[tuple[float, float | None]]:
    """(coverage, precision) after each member joins the vote, in order;
    precision is over the covered points only (None while there are none)."""
    return [(float(covered.mean()),
             float((pred[covered] == eval_labels[covered]).mean()) if covered.any() else None)
            for covered, pred in _votes(member_masks, member_labels)]


def _select(candidates, eval_points, eval_labels, budget, seed=None) -> GlobalExplanation:
    """Greedy selection, or with a ``seed`` the random pick, of at most
    ``budget`` members."""
    if not candidates:
        raise ValueError("candidates must be nonempty")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    X = np.asarray(eval_points, dtype=np.float64)
    masks = np.stack([inside_mask(c.bounds, X) for c in candidates])  # (C, N)
    y = np.asarray(eval_labels)
    if y.shape != masks.shape[1:]:
        raise ValueError(f"eval_labels of shape {y.shape} do not fit {len(X)} eval points; "
                         f"expected ({len(X)},)")
    if seed is None:
        covered = np.zeros(masks.shape[1], dtype=bool)
        order: list[int] = []
        while len(order) < budget:
            # a chosen box gains nothing more, so it is never chosen again
            gains = (masks & ~covered).sum(axis=1)
            best = int(gains.argmax())  # ties -> lowest index
            if gains[best] == 0:
                break
            order.append(best)
            covered |= masks[best]
    else:
        rng = np.random.default_rng(seed)
        order = [int(i) for i in rng.choice(len(candidates), size=min(budget, len(candidates)),
                                            replace=False)]
    members = [candidates[i] for i in order]
    curves = _curves(masks[order], [m.query_label for m in members], y)
    return GlobalExplanation(members, order, curves)


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
    return _select(candidates, eval_points, eval_labels, budget)


def rp_select(
    candidates: list[Explanation],
    eval_points: np.ndarray,
    eval_labels: np.ndarray,
    budget: int,
    seed: int,
) -> GlobalExplanation:
    """Random-pick baseline: a seeded uniform subset without replacement."""
    return _select(candidates, eval_points, eval_labels, budget, seed)


def global_predict(g: GlobalExplanation, x: np.ndarray) -> int | None:
    """The vote of ``g`` at one point ``x``; None = abstain."""
    return g.predict(np.asarray(x)[None])[0]
