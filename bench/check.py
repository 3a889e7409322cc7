"""Output checks: every figure a command wrote is recomputed with numpy.

Each check returns a list of problems; an empty list means the output is
right. Box membership is inclusive on both bounds, as in the program.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9


def box_stats(l, u, X: np.ndarray, labels: np.ndarray, label: int) -> tuple[float, float | None]:
    """(coverage, precision or None for an empty box) of one box."""
    inside = np.all((X >= np.asarray(l)) & (X <= np.asarray(u)), axis=1)
    n_in = int(inside.sum())
    pre = float((labels[inside] == label).sum() / n_in) if n_in else None
    return n_in / len(X), pre


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(float(a) - float(b)) <= TOL


def check_rule(record: dict, X: np.ndarray, labels: np.ndarray, threshold: float,
               query: np.ndarray | None = None, exit_code: int | None = None) -> list[str]:
    """One rule record: coverage, precision and feasibility against the table.

    ``query`` (encoded) is checked to lie in the box when given; ``exit_code``
    must be 0 for a feasible rule and 2 for an infeasible one when given.
    """
    l, u = np.asarray(record["l"], dtype=np.float64), np.asarray(record["u"], dtype=np.float64)
    if l.shape != (X.shape[1],) or u.shape != (X.shape[1],):
        return [f"box has {l.shape}/{u.shape} bounds for {X.shape[1]} columns"]
    problems = []
    cov, pre = box_stats(l, u, X, labels, record["label"])
    if not _close(cov, record["coverage"]):
        problems.append(f"coverage {record['coverage']} but the box covers {cov}")
    if not _close(pre, record["precision"]):
        problems.append(f"precision {record['precision']} but the box has {pre}")
    feasible = pre is not None and pre >= threshold
    if record["feasible"] is not feasible:
        problems.append(f"feasible {record['feasible']} but precision {pre} vs P={threshold}")
    if exit_code is not None and exit_code != (0 if feasible else 2):
        problems.append(f"exit code {exit_code} for a rule with feasible={feasible}")
    if query is not None and not np.all((l <= query) & (query <= u)):
        problems.append("query lies outside its box")
    return problems


def majority_vote(boxes, box_labels, X: np.ndarray) -> np.ndarray:
    """Label per row by majority over the boxes containing it; ties to the
    lowest label; -1 where no box applies."""
    distinct = sorted(set(box_labels))
    votes = np.zeros((len(distinct), len(X)), dtype=np.int64)
    for (l, u), label in zip(boxes, box_labels):
        votes[distinct.index(label)] += np.all((X >= l) & (X <= u), axis=1)
    pred = np.asarray(distinct)[votes.argmax(axis=0)]
    pred[votes.sum(axis=0) == 0] = -1
    return pred


def rule_set_quality(records: list[dict], X: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """(coverage, precision) of rule records taken as one majority-vote rule set."""
    boxes = [(np.asarray(r["l"]), np.asarray(r["u"])) for r in records]
    pred = majority_vote(boxes, [int(r["label"]) for r in records], X)
    scored = pred >= 0
    return float(scored.mean()), float((pred[scored] == labels[scored]).mean())


def check_global(result: dict, X: np.ndarray, labels: np.ndarray, threshold: float,
                 anchors: int, budget: int) -> list[str]:
    """A ``global.json``: members, their anchors, and the last point of ``curves``."""
    problems = []
    anchor_set, members = result["anchor_set"], result["members"]
    if len(anchor_set) != anchors or len(set(anchor_set)) != anchors:
        problems.append(f"anchor_set has {len(anchor_set)} entries, expected {anchors} distinct")
    if not 1 <= len(members) <= budget or len(result["curves"]) != len(members):
        problems.append(f"{len(members)} members and {len(result['curves'])} curve points"
                        f" for budget {budget}")
        return problems
    for idx, record in zip(result["member_indices"], members):
        row = anchor_set[idx]
        if record["label"] != labels[row]:
            problems.append(f"member for row {row} has label {record['label']}, model says {labels[row]}")
        problems += [f"member for row {row}: {p}" for p in check_rule(record, X, labels, threshold, X[row])]
    cov, pre = rule_set_quality(members, X, labels)
    last_cov, last_pre = result["curves"][-1]
    if not (_close(cov, last_cov) and _close(pre, last_pre)):
        problems.append(f"last curve point ({last_cov}, {last_pre}); members give ({cov}, {pre})")
    return problems


def check_synth_behaviours(records: dict[str, dict]) -> list[str]:
    """The paper's figure behaviours, keyed by figure name (see SYNTH_FIGURES)."""
    problems = []
    l80, u80 = np.asarray(records["circle-p80"]["l"]), np.asarray(records["circle-p80"]["u"])
    l95, u95 = np.asarray(records["circle-p95"]["l"]), np.asarray(records["circle-p95"]["u"])
    if not (np.all(l95 >= l80) and np.all(u95 <= u80) and np.prod(u95 - l95) < np.prod(u80 - l80)):
        problems.append("circle box at P=0.95 is not strictly inside the box at P=0.80")
    for name, want_inside in (("two-region-l5", True), ("two-region-l0", False)):
        rec = records[name]
        q = np.asarray(rec["query"])
        inside = bool(np.all((np.asarray(rec["l"]) <= q) & (q <= np.asarray(rec["u"]))))
        if inside is not want_inside:
            problems.append(f"{name}: query {'outside' if want_inside else 'inside'} the box")
    strips = [c for c in records["discrete-strip"]["clauses"] if c["attribute"] == "x0"]
    if len(strips) != 1 or strips[0]["lo"] != strips[0]["hi"]:
        problems.append(f"discrete-strip does not pin one strip: {strips}")
    return problems
