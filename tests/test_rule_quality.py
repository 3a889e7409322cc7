"""Rule quality on a fixed panel of the bench population.

32 rules of a 1,000-row table and their budget-10 global rule set, held to
floors at today's in-sample values. A change that raises a value raises its
floor. Precision on fresh rows of the same population is printed, not held:
a rule's stated precision is counted on the rows it was fitted to.
"""

import numpy as np
import pytest

from maire import OptimizerConfig, encode, global_predict, load_schema, load_table, msd_select
from maire.explain import explain_many
from maire.indicator import pre_exact_or_none

from test_schema import bench_tables

P = 0.95
MIN_FEASIBLE = 25              # measured: 25 of 32 rules meet P
MIN_COVERAGE_MEAN = 0.2107     # measured: 0.21075
MIN_CURVE_END = (0.896, 0.9587)  # measured: coverage 0.896, precision 0.95871
MAX_MEMBERS_FAILING = 3        # measured: 3 of 10 members fail P


@pytest.fixture(scope="module")
def panel(tmp_path_factory):
    """The bench tables module, the encoded table, its labels, the 32 rules
    (1,000 iterations, K = 4) and their ``msd_select`` set at budget 10."""
    tables = bench_tables()
    csv_path, schema_path = tables.write_table(tables.population(1000, 7),
                                               tmp_path_factory.mktemp("panel"))
    schema = load_schema(str(schema_path))
    space = encode(load_table(str(csv_path), schema), schema)
    X = space.matrix
    labels = tables.label_encoded(X)
    rows = np.random.default_rng(0).choice(1000, 32, replace=False)
    rules = explain_many(X[rows], space, labels, labels[rows].tolist(),
                         OptimizerConfig(precision_threshold=P, max_iters=1000), max_attrs=4)
    return tables, X, labels, rules, msd_select(rules, X, labels, budget=10)


def test_local_rules(panel):
    *_, rules, _ = panel
    assert sum(r.feasible for r in rules) >= MIN_FEASIBLE
    assert np.mean([r.coverage for r in rules]) >= MIN_COVERAGE_MEAN


def test_global_rule_set(panel):
    g = panel[-1]
    coverage, precision = g.curves[-1]
    assert coverage >= MIN_CURVE_END[0]
    assert precision >= MIN_CURVE_END[1]
    assert sum(not m.feasible for m in g.members) <= MAX_MEMBERS_FAILING


def test_curve_end_is_the_rule_set_vote_on_the_table(panel):
    _, X, labels, _, g = panel
    predicted = g.predict(X)
    assert [global_predict(g, x) for x in X] == predicted
    voted = [(p, y) for p, y in zip(predicted, labels) if p is not None]
    assert g.curves[-1] == (len(voted) / len(X), sum(p == y for p, y in voted) / len(voted))


def test_precision_on_fresh_rows(panel):
    """Printed only (run with -s): measured 11 of the 25 rules that meet P
    keep it on fresh rows, with a median of 0.941."""
    tables, _, _, rules, _ = panel
    X = tables.encode_columns(tables.population(30000, 8))
    labels = tables.label_encoded(X)
    fresh = [p for p in (pre_exact_or_none(r.bounds, X, labels, r.query_label)
                         for r in rules if r.feasible) if p is not None]
    print(f"\nfresh rows: {sum(p >= P for p in fresh)} of {len(fresh)} rules meeting P keep it; "
          f"median precision {np.median(fresh):.3f}")
