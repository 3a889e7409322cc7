"""Tests of the benchmark itself (not part of the program's suite).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import tables  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def table():
    X = tables.encode_columns(tables.population(400, 3))
    return X, tables.label_encoded(X)


def honest_record(X, labels, row, l, u):
    cov, pre = check.box_stats(l, u, X, labels, int(labels[row]))
    return {"l": list(l), "u": list(u), "label": int(labels[row]), "coverage": cov,
            "precision": pre, "feasible": pre is not None and pre >= 0.95}


class TestChecker:
    def test_honest_record_passes(self, table):
        X, labels = table
        q = X[0]
        rec = honest_record(X, labels, 0, np.clip(q - 0.2, 0, 1), np.clip(q + 0.2, 0, 1))
        code = 0 if rec["feasible"] else 2
        assert check.check_rule(rec, X, labels, 0.95, q, code) == []

    def test_tampered_coverage_flagged(self, table):
        X, labels = table
        q = X[0]
        rec = honest_record(X, labels, 0, np.clip(q - 0.2, 0, 1), np.clip(q + 0.2, 0, 1))
        rec["coverage"] += 1e-3
        assert any("coverage" in p for p in check.check_rule(rec, X, labels, 0.95, q))

    def test_tampered_feasible_flagged(self, table):
        X, labels = table
        q = X[0]
        rec = honest_record(X, labels, 0, np.clip(q - 0.2, 0, 1), np.clip(q + 0.2, 0, 1))
        rec["feasible"] = not rec["feasible"]
        problems = check.check_rule(rec, X, labels, 0.95, q)
        assert any("feasible" in p for p in problems)

    def test_exit_code_must_match_feasibility(self, table):
        X, labels = table
        q = X[0]
        rec = honest_record(X, labels, 0, np.clip(q - 0.2, 0, 1), np.clip(q + 0.2, 0, 1))
        wrong = 2 if rec["feasible"] else 0
        assert any("exit code" in p for p in check.check_rule(rec, X, labels, 0.95, q, wrong))

    def test_query_outside_box_flagged(self, table):
        X, labels = table
        q = X[0].copy()
        l, u = np.clip(q - 0.2, 0, 1), np.clip(q + 0.2, 0, 1)
        l[0] = u[0] = min(q[0] + 0.1, 1.0) if q[0] < 0.9 else q[0] - 0.1
        rec = honest_record(X, labels, 0, l, u)
        assert "query lies outside its box" in check.check_rule(rec, X, labels, 0.95, q)

    def test_majority_vote_ties_to_lowest_label_and_abstains(self):
        X = np.array([[0.1], [0.5], [0.9]])
        boxes = [(np.array([0.0]), np.array([0.6])), (np.array([0.4]), np.array([0.6]))]
        assert check.majority_vote(boxes, [1, 0], X).tolist() == [1, 0, -1]


class TestInputs:
    def test_seed_changes_table_not_shape(self, tmp_path):
        a = run.LocalMixed(1, tmp_path / "a")
        b = run.LocalMixed(2, tmp_path / "b")
        assert a.X.shape == b.X.shape == (run.TABLE_ROWS, tables.N_COLUMNS)
        assert not np.array_equal(a.X, b.X)
        csv_a = (tmp_path / "a" / "data" / "table.csv").read_text()
        assert csv_a != (tmp_path / "b" / "data" / "table.csv").read_text()
        run.LocalMixed(1, tmp_path / "c")
        assert (tmp_path / "c" / "data" / "table.csv").read_text() == csv_a

    def test_panel_rows_are_the_prototypes(self, tmp_path):
        w = run.LocalMixed(5, tmp_path)
        protos = tables.encode_columns([np.asarray(c, dtype=object) for c in zip(*tables.PANEL)])
        got = w.X[w.panel_rows]
        assert np.abs(got[:, :6] - protos[:, :6]).max() <= 0.01 + 1e-9  # jittered continuous
        assert np.array_equal(got[:, 6:], protos[:, 6:])

    def test_predictor_child_agrees_with_model(self, table):
        X, labels = table
        request = json.dumps(X[:50].tolist()) + "\n" + json.dumps(X[50:60].tolist()) + "\n"
        proc = subprocess.run([sys.executable, str(BENCH / "predictor.py")], input=request,
                              capture_output=True, text=True, timeout=60, check=True)
        replies = [json.loads(line) for line in proc.stdout.splitlines()]
        assert replies == [labels[:50].tolist(), labels[50:60].tolist()]


class TestTracing:
    def test_every_hook_resolves_and_has_dependent_metrics(self):
        run.import_maire()
        tracer = tracing.Tracer()
        tracer.install()
        tracer.uninstall()
        assert tracer.missing == []
        assert {name for _, _, name, _ in tracing.HOOKS} == set(run.DEPENDS)

    def test_missing_hook_is_reported(self, monkeypatch):
        run.import_maire()
        bogus = ("maire.cli", "no_such_function", "bogus.span", None)
        monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (bogus,))
        tracer = tracing.Tracer()
        tracer.install()
        tracer.uninstall()
        assert tracer.missing == ["bogus.span"]

    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer()
        with tracer.span("outer", command=0):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.spans
        assert inner.parent == outer.id and inner.command == 0
        assert tracer.self_seconds(outer) == pytest.approx(outer.seconds - inner.seconds)


QUALITY = ("coverage_mean", "feasible_frac", "global_coverage", "global_precision")


def run_quick(capsys, workload, seed, trace=0):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(run, "TABLE_ROWS", 300)
    monkeypatch.setattr(run, "LOCAL_ITERS", 150)
    monkeypatch.setattr(run, "GLOBAL_ROWS", 40)
    monkeypatch.setattr(run, "GLOBAL_BUDGET", 3)
    monkeypatch.setattr(run, "GLOBAL_ITERS", 30)
    monkeypatch.setattr(run, "KERNEL_GRID", ((500, 2), (500, 27)))


@pytest.mark.parametrize("workload", ["local-mixed", "global-mixed"])
def test_same_seed_same_quality(small, capsys, workload):
    first = run_quick(capsys, workload, 7)
    second = run_quick(capsys, workload, 7)
    assert first["correct"] and second["correct"] and first["failed"] == 0
    for name in QUALITY:
        assert first["metrics"][name] == second["metrics"][name]
    assert set(first["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_traced_run_reports_every_per_layer_metric(small, capsys):
    result = run_quick(capsys, "global-mixed", 3, trace=1)
    assert result["correct"]
    expected = {m["name"] for m in BENCHMARK["per_layer"]}
    expected -= {f"optimize.kernel_ms.{n}x{d}" for n, d in ((5000, 2), (5000, 27), (5000, 100),
                                                          (30000, 2), (30000, 27), (30000, 100))}
    assert expected <= set(result["metrics"])
    assert result["metrics"]["global_explain.selected"]["value"] >= 1
    # `maire global` reaches neither layer; the traced run probes them directly
    assert result["metrics"]["synthetic.dataset_ms"]["value"] > 0
    assert result["metrics"]["svg.render_ms"]["value"] > 0


def test_missing_hook_drops_its_metrics(small, capsys, monkeypatch):
    hooks = tuple(h if h[2] != "global_explain.msd_select" else ("maire.cli", "renamed", *h[2:])
                  for h in tracing.HOOKS)
    monkeypatch.setattr(tracing, "HOOKS", hooks)
    assert run.main(["--workload", "global-mixed", "--seed", "3", "--seconds", "0",
                     "--trace", "1"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert "unmeasured: hook global_explain.msd_select is missing" in out
    assert result["correct"]
    assert not set(run.DEPENDS["global_explain.msd_select"]) & set(result["metrics"])
    assert "optimize.kernel_ms" in result["metrics"]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "local-mixed",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
