"""Command-line surface: subcommands, exit codes, and SVG output."""

import json
import os
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from maire.cli import build_parser, main
from maire.synthetic import SHAPES

pytestmark = pytest.mark.usefixtures("tmp_path")


@pytest.fixture
def tabular(tmp_path):
    """CSV + schema with a stored label column: label = inside [0.3, 0.7]^2."""
    rng = np.random.default_rng(0)
    X = rng.random((1200, 2))
    labels = ((X >= 0.3) & (X <= 0.7)).all(axis=1).astype(int)
    rows = ["x0,x1,y"] + [f"{a:.6f},{b:.6f},{y}" for (a, b), y in zip(X, labels)]
    data = tmp_path / "data.csv"
    data.write_text("\n".join(rows) + "\n")
    plain = tmp_path / "data_nolabel.csv"
    plain.write_text("\n".join(["x0,x1"] + [r.rsplit(",", 1)[0] for r in rows[1:]]) + "\n")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"attributes": [
        {"name": "x0", "kind": "continuous", "range": [0.0, 1.0]},
        {"name": "x1", "kind": "continuous", "range": [0.0, 1.0]},
    ]}))
    inside_row = int(np.nonzero(labels == 1)[0][0])
    return str(data), str(schema), inside_row, str(plain)


@pytest.fixture
def marker_predictor(tmp_path):
    """(--predictor-cmd, marker path): a predictor that creates the marker
    file as soon as it starts, then labels every point 0."""
    marker = tmp_path / "started"
    script = tmp_path / "pred.py"
    script.write_text(
        "import json, sys\n"
        "open(sys.argv[1], 'w').close()\n"
        "for line in sys.stdin:\n"
        "    print(json.dumps([0 for _ in json.loads(line)]), flush=True)\n"
    )
    return f"{sys.executable} {script} {marker}", marker


def run(*argv):
    return main(list(argv))


class TestExplainCommand:
    def test_feasible_run_writes_artifacts(self, tmp_path, tabular):
        data, schema, row, plain = tabular
        out = tmp_path / "out"
        code = run("explain", "--data", data, "--schema", schema, "--label-column", "y",
                   "--query-row", str(row), "--iters", "500", "--precision", "0.9",
                   "--trace", "--out-dir", str(out))
        assert code == 0
        record = json.loads((out / "explanation.json").read_text())
        assert record["feasible"] is True
        assert record["precision"] >= 0.9
        assert (out / "explanation.rule.txt").read_text().strip() == record["rule"]
        assert (out / "explanation_trace.jsonl").exists()
        # the ranges are [0, 1], so raw values are encoded values
        query = np.loadtxt(data, delimiter=",", skiprows=1)[row, :2]
        assert np.all(np.array(record["l"]) <= query) and np.all(query <= np.array(record["u"]))

    def test_infeasible_exit_code(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.random((400, 1))
        labels = rng.integers(0, 2, 400)  # pure noise: precision 0.999 unreachable
        data = tmp_path / "noise.csv"
        # nine decimals keep the 400 values distinct: equal points with
        # different labels are rejected
        data.write_text("x0,y\n" + "\n".join(f"{v:.9f},{y}" for v, y in zip(X[:, 0], labels)) + "\n")
        schema = tmp_path / "s.json"
        schema.write_text(json.dumps({"attributes": [
            {"name": "x0", "kind": "continuous", "range": [0.0, 1.0]}]}))
        code = run("explain", "--data", str(data), "--schema", str(schema),
                   "--label-column", "y", "--query-row", "0", "--precision", "0.999",
                   "--iters", "300", "--out-dir", str(tmp_path / "o"))
        assert code == 2
        record = json.loads((tmp_path / "o" / "explanation.json").read_text())
        assert record["feasible"] is False

    def test_missing_schema_names_path(self, tmp_path, tabular, capsys):
        data, _, row, _ = tabular
        code = run("explain", "--data", data, "--schema", str(tmp_path / "missing.json"),
                   "--label-column", "y", "--query-row", str(row),
                   "--out-dir", str(tmp_path))
        assert code == 1
        assert "missing.json" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"attributes": [{"kind": "continuous"}]}',
                                      '{"attributes": 5}', '{"attributes": ["a"]}'],
                             ids=["no-name", "not-a-list", "entry-not-object"])
    def test_malformed_schema_exits_1(self, tmp_path, tabular, capsys, text):
        data, _, row, _ = tabular
        schema = tmp_path / "bad.json"
        schema.write_text(text)
        code = run("explain", "--data", data, "--schema", str(schema), "--label-column", "y",
                   "--query-row", str(row), "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert "bad.json" in capsys.readouterr().err

    def test_query_json_with_oracle(self, tmp_path, tabular):
        data, schema, _, plain = tabular
        code = run("explain", "--data", plain, "--schema", schema, "--oracle", "rect",
                   "--query-json", "[0.5, 0.5]", "--iters", "400", "--precision", "0.9",
                   "--out-dir", str(tmp_path / "o2"))
        assert code == 0

    def test_predictor_cmd_round_trip(self, tmp_path, tabular):
        data, schema, row, plain = tabular
        # predictor labels a point positive inside [0.3, 0.7]^2, like the column
        script = tmp_path / "pred.py"
        script.write_text(
            "import json, sys\n"
            "for line in sys.stdin:\n"
            "    pts = json.loads(line)\n"
            "    print(json.dumps([int(all(0.3 <= v <= 0.7 for v in p)) for p in pts]), flush=True)\n"
        )
        code = run("explain", "--data", plain, "--schema", schema,
                   "--predictor-cmd", f"{sys.executable} {script}",
                   "--query-row", str(row), "--iters", "400", "--precision", "0.9",
                   "--out-dir", str(tmp_path / "o3"))
        assert code == 0

    def test_query_row_takes_its_label_from_the_table(self, tmp_path, tabular):
        """--query-row reads the row's label from the labelled table instead
        of asking the predictor again: a predictor that answers its k-th
        request with label k gets one request, and the query is labelled 0
        like every row of the table."""
        _, schema, _, plain = tabular
        small = tmp_path / "small.csv"
        with open(plain) as fh:
            small.write_text("\n".join(fh.read().splitlines()[:41]) + "\n")
        log = tmp_path / "requests.log"
        script = tmp_path / "pred.py"
        script.write_text(
            "import json, sys\n"
            "for k, line in enumerate(sys.stdin):\n"
            "    with open(sys.argv[1], 'a') as fh:\n"
            "        fh.write(line)\n"
            "    print(json.dumps([k for _ in json.loads(line)]), flush=True)\n"
        )
        out = tmp_path / "o"
        code = run("explain", "--data", str(small), "--schema", schema,
                   "--predictor-cmd", f"{sys.executable} {script} {log}",
                   "--query-row", "3", "--iters", "20", "--out-dir", str(out))
        assert code == 0
        record = json.loads((out / "explanation.json").read_text())
        assert record["label"] == 0
        assert record["precision"] == 1.0
        assert len(log.read_text().splitlines()) == 1

    @pytest.mark.parametrize("command, extra", [
        ("explain", ["--query-row", "0"]),
        ("global", ["--anchors", "2", "--max-attrs", "1"]),
        ("bounds-audit", ["--queries", "2"]),
    ])
    def test_each_command_stops_its_predictor(self, tmp_path, tabular, command, extra):
        data, schema, row, plain = tabular
        pids = tmp_path / "pids"
        script = tmp_path / "pred.py"
        script.write_text(
            "import json, os, sys\n"
            f"open({str(pids)!r}, 'a').write(f'{{os.getpid()}}\\n')\n"
            "for line in sys.stdin:\n"
            "    print(json.dumps([int(p[0] < 0.5) for p in json.loads(line)]), flush=True)\n"
        )
        code = run(command, "--data", plain, "--schema", schema,
                   "--predictor-cmd", f"{sys.executable} {script}", "--iters", "5",
                   *extra, "--out-dir", str(tmp_path / "o"))
        assert code in (0, 2)
        for pid in pids.read_text().split():
            with pytest.raises(ProcessLookupError):  # exited and reaped
                os.kill(int(pid), 0)

    @pytest.mark.parametrize("query", ["5", "{\"x0\": 0.5}", "[0.5]", "[0.5, [0.5]]",
                                       "[0.5, \"a\"]", "[0.5"])
    def test_malformed_query_json_exits_1(self, tmp_path, tabular, capsys, query):
        data, schema, _, plain = tabular
        out = tmp_path / "o"
        code = run("explain", "--data", plain, "--schema", schema, "--oracle", "rect",
                   "--query-json", query, "--iters", "5", "--out-dir", str(out))
        assert code == 1
        assert "--query-json" in capsys.readouterr().err
        assert not out.exists()

    def test_boolean_in_query_json_exits_1_naming_the_column(self, tmp_path, tabular, capsys):
        _, schema, _, plain = tabular
        code = run("explain", "--data", plain, "--schema", schema, "--oracle", "rect",
                   "--query-json", "[true, 0.5]", "--iters", "5", "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert "column 'x0': value True is not a number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("query", [["--query-row", "7"], ["--query-row", "-1"],
                                       ["--query-json", "[0.5, \"a\"]"]])
    def test_bad_query_fails_before_the_predictor_starts(self, tmp_path, capsys,
                                                         marker_predictor, query):
        data = tmp_path / "t.csv"
        data.write_text("x0,x1\n0.1,0.2\n0.5,0.6\n0.9,0.8\n")
        schema = tmp_path / "s.json"
        schema.write_text(json.dumps({"attributes": [
            {"name": "x0", "kind": "continuous"}, {"name": "x1", "kind": "continuous"}]}))
        predictor, marker = marker_predictor
        code = run("explain", "--data", str(data), "--schema", str(schema),
                   "--predictor-cmd", predictor, *query,
                   "--iters", "5", "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert query[0] in capsys.readouterr().err
        assert not marker.exists()

    @pytest.mark.parametrize("command, extra", [
        ("explain", ["--query-row", "0"]),
        ("global", ["--anchors", "2"]),
        ("bounds-audit", ["--queries", "2"]),
    ])
    @pytest.mark.parametrize("flag, setting", [
        (["--lr", "0"], "argument --lr: must be a finite number above 0, got 0"),
        (["--precision", "1.5"], "argument --precision: must be a finite number in (0, 1], got 1.5"),
        (["--lambda1", "-1"], "argument --lambda1: must be a finite number at least 0, got -1"),
        (["--lambda2", "-1"], "argument --lambda2: must be a finite number at least 0, got -1"),
    ], ids=["lr", "precision", "lambda1", "lambda2"])
    def test_bad_setting_fails_before_the_predictor_starts(self, tmp_path, tabular, capsys,
                                                           marker_predictor, command, extra,
                                                           flag, setting):
        _, schema, _, plain = tabular
        predictor, marker = marker_predictor
        out = tmp_path / "o"
        code = run(command, "--data", plain, "--schema", schema,
                   "--predictor-cmd", predictor, *extra, *flag,
                   "--iters", "5", "--out-dir", str(out))
        assert code == 1
        assert setting in capsys.readouterr().err
        assert not marker.exists()
        assert not out.exists()

    @pytest.mark.parametrize("oracle", sorted(SHAPES))
    @pytest.mark.parametrize("width", [1, 3])
    def test_oracle_needs_a_table_of_its_width(self, tmp_path, capsys, oracle, width):
        names = [f"x{j}" for j in range(width)]
        rows = np.random.default_rng(width).random((40, width))
        data = tmp_path / "t.csv"
        data.write_text("\n".join([",".join(names)] + [",".join(f"{v:.6f}" for v in r)
                                                       for r in rows]) + "\n")
        schema = tmp_path / "s.json"
        schema.write_text(json.dumps({"attributes": [
            {"name": n, "kind": "continuous", "range": [0.0, 1.0]} for n in names]}))
        code = run("explain", "--data", str(data), "--schema", str(schema), "--oracle", oracle,
                   "--query-row", "0", "--iters", "5", "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert (f"--oracle {oracle} reads 2 encoded columns, but the table encodes to {width}"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, problem", [(" ", "names no program"),
                                                  ("python3 'x", "No closing quotation")])
    def test_predictor_cmd_must_name_a_program(self, tmp_path, tabular, capsys, command,
                                               problem):
        _, schema, _, plain = tabular
        code = run("explain", "--data", plain, "--schema", schema, "--predictor-cmd", command,
                   "--query-row", "0", "--iters", "5", "--out-dir", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert "argument --predictor-cmd: " in err and problem in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_exactly_one_label_source_required(self, tmp_path, tabular, capsys):
        data, schema, row, plain = tabular
        code = run("explain", "--data", data, "--schema", schema,
                   "--label-column", "y", "--oracle", "rect",
                   "--query-row", str(row), "--out-dir", str(tmp_path))
        assert code == 1
        assert "exactly one" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags", [("explain", ["--query-row", "0"]), ("global", [])])
    def test_label_column_naming_an_attribute_exits_1(self, tmp_path, tabular, capsys,
                                                      command, flags):
        data, schema, row, plain = tabular
        out = tmp_path / "o"
        code = run(command, "--data", plain, "--schema", schema, "--label-column", "x0",
                   *flags, "--iters", "5", "--out-dir", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert "label column 'x0' is also a declared attribute" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestNonFiniteInput:
    """A non-finite cell fails the run at its row and column; no output is written."""

    @staticmethod
    def table(tmp_path, bad_row, bad_cell, label="1"):
        rows = ["a,b,y"] + [f"{i / 10:.1f},{1 - i / 10:.1f},{i % 2}" for i in range(8)]
        a, b, _ = rows[1 + bad_row].split(",")
        rows[1 + bad_row] = f"{a},{bad_cell},{label}"
        data = tmp_path / "t.csv"
        data.write_text("\n".join(rows) + "\n")
        schema = tmp_path / "s.json"
        schema.write_text(json.dumps({"attributes": [
            {"name": "a", "kind": "continuous"}, {"name": "b", "kind": "continuous"}]}))
        return str(data), str(schema)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_exits_1_naming_row_and_column(self, tmp_path, capsys, cell):
        data, schema = self.table(tmp_path, 5, cell)
        out = tmp_path / "o"
        code = run("explain", "--data", data, "--schema", schema, "--label-column", "y",
                   "--query-row", "0", "--iters", "20", "--out-dir", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert "row 5" in err and "'b'" in err
        assert not (out / "explanation.json").exists()

    def test_infinite_label_exits_1(self, tmp_path, capsys):
        data, schema = self.table(tmp_path, 2, "0.5", label="inf")
        code = run("explain", "--data", data, "--schema", schema, "--label-column", "y",
                   "--query-row", "0", "--iters", "20", "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert "row 2" in capsys.readouterr().err

    def test_non_finite_query_exits_1(self, tmp_path, capsys):
        data, schema = self.table(tmp_path, 2, "0.5")
        code = run("explain", "--data", data, "--schema", schema, "--label-column", "y",
                   "--query-json", "[0.5, NaN]", "--iters", "20",
                   "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert "'b'" in capsys.readouterr().err


def svg_elements(path):
    root = ET.fromstring(path.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    return [(el.tag.replace(ns, ""), el.attrib) for el in root]


def explanation_rect(path):
    for tag, attrib in svg_elements(path):
        if attrib.get("class") == "explanation":
            x, y = float(attrib["x"]), float(attrib["y"])
            w, h = float(attrib["width"]), float(attrib["height"])
            return x, y, w, h
    raise AssertionError("no explanation rectangle in SVG")


class TestSynthCommand:
    def test_circle_precision_shrinks_box(self, tmp_path):
        out80 = tmp_path / "p80"
        out95 = tmp_path / "p95"
        for precision, out in (("0.80", out80), ("0.95", out95)):
            code = run("synth", "circle", "--precision", precision, "--seed", "0",
                       "--n-samples", "1500", "--iters", "800", "--out-dir", str(out))
            assert code == 0
        r80 = json.loads((out80 / "circle.json").read_text())
        r95 = json.loads((out95 / "circle.json").read_text())
        area80 = (r80["u"][0] - r80["l"][0]) * (r80["u"][1] - r80["l"][1])
        area95 = (r95["u"][0] - r95["l"][0]) * (r95["u"][1] - r95["l"][1])
        assert area95 < area80
        # the stricter-threshold rectangle nests inside the looser one
        x0, y0, w0, h0 = explanation_rect(out80 / "circle.svg")
        x1, y1, w1, h1 = explanation_rect(out95 / "circle.svg")
        assert x1 >= x0 - 1.0 and y1 >= y0 - 1.0
        assert x1 + w1 <= x0 + w0 + 1.0 and y1 + h1 <= y0 + h0 + 1.0

    def test_two_region_containment_contrast(self, tmp_path):
        outs = {}
        for lam2 in ("0", "5"):
            out = tmp_path / f"lam{lam2}"
            code = run("synth", "two-region", "--lambda2", lam2, "--seed", "2",
                       "--n-samples", "1200", "--iters", "1200", "--precision", "0.95",
                       "--out-dir", str(out))
            assert code in (0, 2)
            outs[lam2] = json.loads((out / "two-region.json").read_text())
        q = outs["5"]["query"]
        r5, r0 = outs["5"], outs["0"]
        assert all(r5["l"][j] <= q[j] <= r5["u"][j] for j in range(2))
        assert not all(r0["l"][j] <= q[j] <= r0["u"][j] for j in range(2))

    def test_discrete_strip_isolated_level(self, tmp_path):
        out = tmp_path / "strip"
        code = run("synth", "discrete-strip", "--seed", "0", "--n-samples", "1500",
                   "--iters", "800", "--out-dir", str(out))
        assert code == 0
        record = json.loads((out / "discrete-strip.json").read_text())
        strips = [c for c in record["clauses"] if c["attribute"] == "x0"]
        assert len(strips) == 1
        assert strips[0]["lo"] == strips[0]["hi"] == pytest.approx(1 / 6)

    def test_unknown_shape_rejected(self, capsys):
        assert run("synth", "pentagon") == 1

    @pytest.mark.parametrize("query", ["[0.5]", "[0.5, 0.5, 0.5]", "5", "{\"x\": 1}",
                                       "[0.5, \"a\"]", "[0.5, true]", "[0.5, NaN]",
                                       "[0.5, 1.5]", "[0.5, -0.1]", "[0.5,"])
    def test_malformed_query_json_exits_1(self, tmp_path, capsys, query):
        out = tmp_path / "o"
        code = run("synth", "rect", "--query-json", query, "--iters", "5",
                   "--out-dir", str(out))
        assert code == 1
        assert "--query-json" in capsys.readouterr().err
        assert not out.exists()


class TestSvgOutput:
    def render(self, tmp_path, shape="rect", extra=()):
        out = tmp_path / "svg"
        code = run("synth", shape, "--seed", "1", "--n-samples", "800",
                   "--iters", "300", "--out-dir", str(out), *extra)
        assert code in (0, 2)
        return out / f"{shape}.svg"

    def test_valid_xml_with_layer_order(self, tmp_path):
        path = self.render(tmp_path)
        tags = svg_elements(path)
        classes = [attrib.get("class") for _, attrib in tags]
        region = classes.index("region")
        explanation = classes.index("explanation")
        query = classes.index("query")
        assert region < explanation < query

    def test_byte_identical_across_runs(self, tmp_path):
        a = self.render(tmp_path / "a")
        b = self.render(tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()
        assert (a.parent / "rect.json").read_bytes() == (b.parent / "rect.json").read_bytes()

    def test_circle_region_element(self, tmp_path):
        path = self.render(tmp_path, shape="circle")
        tags = svg_elements(path)
        assert any(tag == "circle" and attrib.get("class") == "region"
                   for tag, attrib in tags)


class TestLogging:
    def test_env_var_sets_level(self, monkeypatch):
        import logging

        from maire.cli import _configure_logging

        monkeypatch.setenv("MAIRE_LOG", "DEBUG")
        root = logging.getLogger()
        old_level, old_handlers = root.level, root.handlers[:]
        root.handlers = []
        try:
            _configure_logging()
            assert root.level == logging.DEBUG
        finally:
            root.level = old_level
            root.handlers = old_handlers


class TestBoundsAuditCommand:
    def test_report_written(self, tmp_path, tabular):
        data, schema, _, plain = tabular
        out = tmp_path / "audit"
        code = run("bounds-audit", "--data", data, "--schema", schema,
                   "--label-column", "y", "--queries", "5", "--iters", "150",
                   "--out-dir", str(out))
        assert code == 0
        report = json.loads((out / "bounds_audit.json").read_text())
        assert report["queries"] == 5
        assert 0.0 <= report["mse_coverage"] <= 1.0
        assert report["audit"]["coverage_envelope"]["checked"] == 5

    @pytest.mark.parametrize("queries", ["0", "-2"])
    def test_queries_below_one_exit_1(self, tmp_path, tabular, capsys, queries):
        data, schema, _, _ = tabular
        code = run("bounds-audit", "--data", data, "--schema", schema, "--label-column", "y",
                   "--queries", queries, "--out-dir", str(tmp_path / "audit"))
        assert code == 1
        assert "--queries" in capsys.readouterr().err
        assert not (tmp_path / "audit").exists()

    @pytest.mark.parametrize("c2", ["nan", "inf"])
    def test_non_finite_c2_exit_1(self, tmp_path, tabular, capsys, c2):
        data, schema, _, _ = tabular
        out = tmp_path / "audit"
        code = run("bounds-audit", "--data", data, "--schema", schema, "--label-column", "y",
                   "--queries", "2", "--iters", "5", "--c2", c2, "--out-dir", str(out))
        assert code == 1
        assert f"c2 must be finite and positive, got {c2}" in capsys.readouterr().err
        assert not (out / "bounds_audit.json").exists()

    def test_empty_dataset_fails(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("x0,y\n")
        schema = tmp_path / "s.json"
        schema.write_text(json.dumps({"attributes": [
            {"name": "x0", "kind": "continuous", "range": [0.0, 1.0]}]}))
        code = run("bounds-audit", "--data", str(data), "--schema", str(schema),
                   "--label-column", "y", "--out-dir", str(tmp_path))
        assert code == 1
        assert "no rows" in capsys.readouterr().err


class TestGlobalCommand:
    def test_global_artifacts(self, tmp_path, tabular):
        data, schema, _, plain = tabular
        out = tmp_path / "global"
        code = run("global", "--data", data, "--schema", schema, "--label-column", "y",
                   "--anchors", "6", "--budget", "4", "--iters", "200",
                   "--precision", "0.9", "--out-dir", str(out))
        assert code == 0
        record = json.loads((out / "global.json").read_text())
        assert len(record["anchor_set"]) == 6
        assert len(record["members"]) <= 4
        assert len(record["curves"]) == len(record["members"])
        lines = (out / "curves.csv").read_text().strip().splitlines()
        assert lines[0] == "count,coverage,precision"
        assert len(lines) == 1 + len(record["members"])
        coverages = [float(line.split(",")[1]) for line in lines[1:]]
        assert coverages == sorted(coverages)
        # each member contains its anchor row; the ranges are [0, 1], so raw
        # values are encoded values
        X = np.loadtxt(data, delimiter=",", skiprows=1)[:, :2]
        for k, member in zip(record["member_indices"], record["members"]):
            anchor = X[record["anchor_set"][k]]
            assert np.all(np.array(member["l"]) <= anchor)
            assert np.all(anchor <= np.array(member["u"]))

    def test_plus_minus_one_labels(self, tmp_path):
        rng = np.random.default_rng(3)
        X = rng.random((300, 2))
        labels = np.where(((X >= 0.3) & (X <= 0.7)).all(axis=1), 1, -1)
        data = tmp_path / "pm.csv"
        data.write_text("x0,x1,y\n" + "\n".join(f"{a:.9f},{b:.9f},{y}"
                                                for (a, b), y in zip(X, labels)) + "\n")
        schema = tmp_path / "s.json"
        schema.write_text(json.dumps({"attributes": [
            {"name": "x0", "kind": "continuous", "range": [0.0, 1.0]},
            {"name": "x1", "kind": "continuous", "range": [0.0, 1.0]}]}))
        out = tmp_path / "global"
        code = run("global", "--data", str(data), "--schema", str(schema), "--label-column", "y",
                   "--anchors", "8", "--budget", "5", "--iters", "150",
                   "--precision", "0.9", "--out-dir", str(out))
        assert code == 0
        record = json.loads((out / "global.json").read_text())
        assert {m["label"] for m in record["members"]} <= {-1, 1}
        votes = np.zeros((2, len(X)), dtype=int)  # rows: label -1, label 1
        for m, (cov, pre) in zip(record["members"], record["curves"]):
            votes[(m["label"] + 1) // 2] += ((X >= m["l"]) & (X <= m["u"])).all(axis=1)
            covered = votes.sum(axis=0) > 0
            pred = np.where(votes[1] > votes[0], 1, -1)  # a tie goes to -1
            assert cov == pytest.approx(covered.mean())
            assert pre == pytest.approx((pred[covered] == labels[covered]).mean())
        lines = (out / "curves.csv").read_text().strip().splitlines()[1:]
        assert all(line.split(",")[2] != "" for line in lines)

    @pytest.mark.parametrize("anchors", ["0", "-3"])
    def test_anchors_below_one_exit_1(self, tmp_path, tabular, capsys, anchors):
        data, schema, _, _ = tabular
        code = run("global", "--data", data, "--schema", schema, "--label-column", "y",
                   "--anchors", anchors, "--out-dir", str(tmp_path / "global"))
        assert code == 1
        assert "--anchors" in capsys.readouterr().err
        assert not (tmp_path / "global").exists()

    def test_threads_flag_is_ignored(self, tmp_path, tabular, caplog):
        data, schema, _, _ = tabular
        outputs = []
        for threads in ("1", "4"):
            out = tmp_path / f"global-{threads}"
            caplog.clear()
            code = run("global", "--data", data, "--schema", schema, "--label-column", "y",
                       "--anchors", "5", "--budget", "3", "--iters", "120",
                       "--precision", "0.9", "--threads", threads, "--out-dir", str(out))
            assert code == 0
            warnings = [r for r in caplog.records if "--threads" in r.getMessage()]
            assert len(warnings) == (0 if threads == "1" else 1)
            outputs.append((out / "global.json").read_text())
        assert outputs[0] == outputs[1]


# the arguments each subcommand needs to parse at all
REQUIRED = {"explain": ["--query-row", "0"], "synth": ["rect"], "bounds-audit": [], "global": []}
RUN_FLAGS = [("--precision", "0.9"), ("--lambda1", "1"), ("--lambda2", "1"), ("--lr", "0.1"),
             ("--iters", "5"), ("--out-dir", "o")]


class TestFlags:
    """Each subcommand registers exactly the flags it reads."""

    @pytest.mark.parametrize("command, flags", [
        ("explain", [("--max-attrs", "2"), ("--trace",)]),
        ("synth", [("--max-attrs", "2"), ("--seed", "3"), ("--trace",)]),
        ("bounds-audit", [("--seed", "3"), ("--queries", "4")]),
        ("global", [("--max-attrs", "2"), ("--seed", "3"), ("--threads", "2"),
                    ("--anchors", "4")]),
    ])
    def test_flags_read_are_accepted(self, command, flags):
        argv = [command, *REQUIRED[command]]
        for flag in [*RUN_FLAGS, *flags]:
            argv += flag
        args = build_parser().parse_args(argv)
        assert args.command == command and args.iters == 5

    @pytest.mark.parametrize("command, flag", [
        ("explain", ["--seed", "3"]),
        ("explain", ["--threads", "2"]),
        ("synth", ["--threads", "2"]),
        ("synth", ["--no-containment-snap"]),
        ("bounds-audit", ["--max-attrs", "2"]),
        ("bounds-audit", ["--trace"]),
        ("global", ["--trace"]),
        ("explain", ["--no-containment-snap"]),
        ("global", ["--no-containment-snap"]),
        ("bounds-audit", ["--no-containment-snap"]),
        ("bounds-audit", ["--threads", "2"]),
    ])
    def test_flags_not_read_exit_1(self, tmp_path, capsys, command, flag):
        code = run(command, *REQUIRED[command], *flag, "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, flag", [
        ("synth", "--n-samples"), ("synth", "--iters"), ("synth", "--max-attrs"),
        ("global", "--budget"),
    ])
    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_counts_below_one_exit_1(self, tmp_path, capsys, command, flag, value):
        code = run(command, *REQUIRED[command], flag, value, "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert f"argument {flag}: must be at least 1, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["synth", "global", "bounds-audit"])
    def test_negative_seed_exit_1_naming_flag(self, tmp_path, capsys, command):
        code = run(command, *REQUIRED[command], "--seed", "-1", "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", [["--lr", "nan"], ["--lr", "inf"], ["--lambda1", "nan"],
                                      ["--lambda2", "inf"]])
    def test_non_finite_settings_exit_1(self, tmp_path, capsys, flag):
        code = run("synth", "rect", "--n-samples", "200", *flag,
                   "--out-dir", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert f"argument {flag[0]}: must be a finite number " in err
        assert f", got {flag[1]}" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
    def test_predictor_timeout_must_be_finite_and_positive(self, tmp_path, capsys, value):
        marker = tmp_path / "started"
        script = tmp_path / "touch.py"
        script.write_text("import sys\nopen(sys.argv[1], 'w').close()\n")
        code = run("explain", *REQUIRED["explain"], "--data", "d.csv", "--schema", "s.json",
                   "--predictor-cmd", f"{sys.executable} {script} {marker}",
                   "--predictor-timeout-s", value, "--out-dir", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert f"argument --predictor-timeout-s: must be a finite number above 0, got {value}" in err
        assert not marker.exists()  # the predictor was never started
        assert not (tmp_path / "o").exists()

    def test_help_exits_0(self, capsys):
        assert run("--help") == 0
        assert run("explain", "--help") == 0
        assert "--query-json" in capsys.readouterr().out

    def test_usage_error_exits_1(self, capsys):
        assert run("explain", "--bogus") == 1
        assert "error:" in capsys.readouterr().err
