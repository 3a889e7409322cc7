"""Seeded benchmark of the maire command line.

One client drives ``maire.cli.main`` in-process in a closed loop: commands
run one after another, with no think time, until ``--seconds`` have passed
and every command of the workload's panel has run at least once. The bench
generates its own inputs from ``--seed``, checks every output it reads, and
prints one JSON result as the last line of standard output: end-to-end
metrics with ``--trace 0``, per-layer metrics from spans with ``--trace 1``.

    python3 bench/run.py --workload local-mixed --seed 1 --seconds 35 --trace 0

See bench/README.md for the workloads, the metrics and the hook points.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # Run on one CPU, the last this process may use, and pin before numpy
    # loads so that BLAS sizes its thread pool to it. The CPUs of a shared
    # machine can differ in speed (by up to 30% on the 2-vCPU machine the
    # baseline was measured on), and where the scheduler happened to place
    # the process otherwise decided a run's timings.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import tables  # noqa: E402
from tracing import Tracer  # noqa: E402

PRECISION = 0.95
MAX_ATTRS = 4
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
# The rows are a fixed seeded population; --seed permutes their order (and
# with it the query rows and the order of `maire global`'s anchors). The rules
# found depend strongly on which rows were sampled, so a fresh sample per
# seed would make rule quality too noisy to guard; row order must not change
# a rule, which the spread of the quality metrics across seeds checks.
POPULATION_SEED = 0
TABLE_ROWS = 1000
LOCAL_ITERS = 2500  # the CLI default
GLOBAL_ROWS = 120   # every row is an anchor, so row order cannot change the anchor set
GLOBAL_BUDGET = 10
GLOBAL_ITERS = 100
SYNTH_SAMPLES = 3000
# the README's figure commands: (figure name, argv after `maire`)
SYNTH_FIGURES = (
    ("rect", ["synth", "rect"]),
    ("circle-p80", ["synth", "circle", "--precision", "0.80"]),
    ("circle-p95", ["synth", "circle", "--precision", "0.95"]),
    ("two-region-l0", ["synth", "two-region", "--lambda2", "0", "--seed", "2"]),
    ("two-region-l5", ["synth", "two-region", "--lambda2", "5", "--seed", "2"]),
    ("discrete-strip", ["synth", "discrete-strip"]),
)
KERNEL_GRID = ((5000, 2), (5000, 27), (5000, 100), (30000, 2), (30000, 27), (30000, 100))


def import_maire():
    """Import the program from ``src/`` of this checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "maire" / "__init__.py").is_file():
        raise SystemExit(f"bench: no maire sources under {src}")
    sys.path.insert(0, str(src))
    import maire
    if not Path(maire.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"bench: maire imported from {maire.__file__}, not from {src}")
    import maire.cli  # noqa: F401  (the hooks patch its module attributes)
    return maire


@dataclass
class Command:
    name: str
    argv: list[str]
    out_dir: Path
    output: str                     # file in out_dir holding the result record
    row: int | None = None          # query or table row the command explains
    samples: list[float] = field(default_factory=list)
    first: dict | None = None       # output of the first run, for quality and repeats


class Workload:
    """Inputs, set-up, commands and output checks of one named workload."""

    commands: list[Command]

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> list[str]:
        """The timed set-up: the public calls that prepare the data. Returns problems."""
        raise NotImplementedError

    def check(self, cmd: Command, code: int, output: dict) -> list[str]:
        raise NotImplementedError

    def rules(self, cmd: Command, output: dict) -> list[dict]:
        """Rule records one command wrote."""
        return [output]

    def rule_set(self, cmd: Command, output: dict) -> tuple[float, float]:
        """(coverage, precision) of the command's rules as one majority-vote rule set."""
        X, labels = self.data(cmd)
        return check.rule_set_quality(self.rules(cmd, output), X, labels)

    def panel_checks(self) -> list[str]:
        return []

    def data(self, cmd: Command) -> tuple[np.ndarray, np.ndarray]:
        return self.X, self.labels

    def kernel_case(self):
        """(l, u, query, X, labels, query label) of a returned box, for the kernel timing."""
        cmd = self.commands[0]
        return (cmd.first["l"], cmd.first["u"], self.X[cmd.row], self.X, self.labels,
                cmd.first["label"])


class _TableWorkload(Workload):
    """The mixed table of tables.py, with rows permuted by the seed."""

    def __init__(self, seed: int, work: Path, rows: int, label_column: bool):
        super().__init__(seed)
        perm = np.random.default_rng(seed).permutation(rows)
        columns = [c[perm] for c in tables.population(rows, POPULATION_SEED)]
        self.X = tables.encode_columns(columns)
        self.labels = tables.label_encoded(self.X)
        self.panel_rows = [int(np.flatnonzero(perm == i)[0]) for i in range(len(tables.PANEL))]
        csv_path, schema_path = tables.write_table(
            columns, work / "data", self.labels if label_column else None)
        self.data_flags = ["--data", str(csv_path), "--schema", str(schema_path)]

    def _load(self, label_column=None):
        from maire.schema import encode, load_schema, load_table
        schema = load_schema(self.data_flags[3])
        table = load_table(self.data_flags[1], schema, label_column=label_column)
        return table, encode(table, schema)

    def _cross_check(self, matrix: np.ndarray, labels: np.ndarray) -> list[str]:
        problems = []
        if matrix.shape != self.X.shape or np.abs(matrix - self.X).max() > 1e-12:
            problems.append("encoded table differs from the bench's encoding")
        if not np.array_equal(labels, self.labels):
            problems.append(f"provider labels differ from the model on {(labels != self.labels).sum()} rows")
        return problems


class LocalMixed(_TableWorkload):
    """`maire explain` on the panel rows, labelled by the predictor child."""

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work, TABLE_ROWS, label_column=False)
        self.predictor = f"{shlex.quote(sys.executable)} {shlex.quote(str(BENCH / 'predictor.py'))}"
        self.commands = [
            Command(f"explain-q{i}",
                    ["explain", *self.data_flags, "--predictor-cmd", self.predictor,
                     "--query-row", str(row), "--iters", str(LOCAL_ITERS),
                     "--precision", str(PRECISION),
                     "--max-attrs", str(MAX_ATTRS), "--out-dir", str(work / f"q{i}")],
                    work / f"q{i}", "explanation.json", row)
            for i, row in enumerate(self.panel_rows)
        ]

    def setup(self) -> list[str]:
        from maire.blackbox import ExternalCommandProvider, predict_batch
        _, space = self._load()
        with ExternalCommandProvider(self.predictor) as provider:
            labels = predict_batch(provider, space.matrix)
        return self._cross_check(space.matrix, labels)

    def check(self, cmd: Command, code: int, output: dict) -> list[str]:
        problems = check.check_rule(output, self.X, self.labels, PRECISION, self.X[cmd.row], code)
        if output["label"] != self.labels[cmd.row]:
            problems.append(f"query label {output['label']}, model says {self.labels[cmd.row]}")
        return problems


class GlobalMixed(_TableWorkload):
    """`maire global` over the stored label column with every row as an anchor."""

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work, GLOBAL_ROWS, label_column=True)
        self.commands = [Command(
            "global",
            ["global", *self.data_flags, "--label-column", "label",
             "--anchors", str(GLOBAL_ROWS), "--budget", str(GLOBAL_BUDGET),
             "--iters", str(GLOBAL_ITERS), "--precision", str(PRECISION),
             "--max-attrs", str(MAX_ATTRS), "--threads", "1", "--out-dir", str(work / "global")],
            work / "global", "global.json")]

    def setup(self) -> list[str]:
        from maire.blackbox import StoredColumnProvider, predict_batch
        table, space = self._load(label_column="label")
        labels = predict_batch(StoredColumnProvider(space.matrix, table.labels), space.matrix)
        return self._cross_check(space.matrix, labels)

    def check(self, cmd: Command, code: int, output: dict) -> list[str]:
        problems = [] if code == 0 else [f"exit code {code}"]
        return problems + check.check_global(output, self.X, self.labels, PRECISION,
                                             GLOBAL_ROWS, GLOBAL_BUDGET)

    def rules(self, cmd: Command, output: dict) -> list[dict]:
        return output["members"]

    def rule_set(self, cmd: Command, output: dict) -> tuple[float, float]:
        return tuple(output["curves"][-1])

    def kernel_case(self):
        out = self.commands[0].first
        row = out["anchor_set"][out["member_indices"][0]]
        member = out["members"][0]
        return member["l"], member["u"], self.X[row], self.X, self.labels, member["label"]


class SynthFigures(Workload):
    """The README's six `maire synth` figure commands, in a seeded order."""

    def __init__(self, seed: int, work: Path):
        super().__init__(seed)
        order = np.random.default_rng(seed).permutation(len(SYNTH_FIGURES))
        self.commands = []
        for i in order:
            name, argv = SYNTH_FIGURES[i]
            self.commands.append(Command(name, [*argv, "--out-dir", str(work / name)],
                                         work / name, f"{argv[1]}.json"))
        self.datasets: dict[tuple[str, int], tuple] = {}

    @staticmethod
    def _dataset_key(cmd: Command) -> tuple[str, int]:
        argv = cmd.argv
        seed = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else 0
        return argv[1], seed

    def setup(self) -> list[str]:
        from maire.synthetic import synthetic_dataset
        for cmd in self.commands:
            key = self._dataset_key(cmd)
            shape, space, labels = synthetic_dataset(key[0], SYNTH_SAMPLES, key[1])
            self.datasets[key] = (space.matrix, labels)
        return []

    def data(self, cmd: Command) -> tuple[np.ndarray, np.ndarray]:
        return self.datasets[self._dataset_key(cmd)]

    def check(self, cmd: Command, code: int, output: dict) -> list[str]:
        argv = cmd.argv
        threshold = float(argv[argv.index("--precision") + 1]) if "--precision" in argv else PRECISION
        X, labels = self.data(cmd)
        return check.check_rule(output, X, labels, threshold, None, code)

    def panel_checks(self) -> list[str]:
        return check.check_synth_behaviours({c.name: c.first for c in self.commands})

    def kernel_case(self):
        cmd = next(c for c in self.commands if c.name == "rect")
        X, labels = self.data(cmd)
        return (cmd.first["l"], cmd.first["u"], np.asarray(cmd.first["query"]), X, labels,
                cmd.first["label"])


WORKLOADS = {"local-mixed": LocalMixed, "global-mixed": GlobalMixed, "synth-figures": SynthFigures}


def _same_output(a: dict, b: dict) -> bool:
    keys = ("l", "u", "coverage", "precision", "feasible", "anchor_set", "member_indices", "curves")
    return all(a.get(k) == b.get(k) for k in keys)


class Runner:
    """Runs commands in a closed loop and counts failures."""

    def __init__(self, workload: Workload, tracer: Tracer | None = None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.output_bytes: list[int] = []

    def fail(self, where: str, problems: list[str]) -> None:
        """Record the problems of one operation; any problem fails it."""
        self.failed += bool(problems)
        for p in problems:
            self.problems.append(f"{where}: {p}")
            print(f"FAIL {where}: {p}", file=sys.stderr)

    def timed_setup(self, min_repeats: int, min_seconds: float) -> list[float] | None:
        """Times of repeated set-ups, or None if one failed; all count as one operation."""
        self.attempted += 1
        times = []
        while len(times) < min_repeats or sum(times) < min_seconds:
            start = time.perf_counter()
            try:
                problems = self.workload.setup()
            except Exception:  # the program failed during set-up
                problems = [traceback.format_exc()]
            times.append(time.perf_counter() - start)
            if problems:
                self.fail("setup", problems)
                return None
        return times

    def execute(self, index: int, cmd: Command) -> float:
        """Run one command, check its output; returns its wall time."""
        from maire import cli
        shutil.rmtree(cmd.out_dir, ignore_errors=True)
        self.attempted += 1
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                if self.tracer is None:
                    code = cli.main(cmd.argv)
                else:
                    with self.tracer.span("cli.main", command=index):
                        code = cli.main(cmd.argv)
        except Exception:  # a crash is a failed command; the loop goes on
            self.fail(cmd.name, [traceback.format_exc()])
            return time.perf_counter() - start
        wall = time.perf_counter() - start
        if code not in (0, 2):
            self.fail(cmd.name, [f"exit code {code}"])
            return wall
        try:
            output = json.loads((cmd.out_dir / cmd.output).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            self.fail(cmd.name, [f"unreadable output: {exc}"])
            return wall
        self.output_bytes.append(sum(p.stat().st_size for p in cmd.out_dir.iterdir()))
        problems = self.workload.check(cmd, code, output)
        if cmd.first is None:
            cmd.first = None if problems else output
        elif not _same_output(cmd.first, output):
            problems.append("output differs from the first run of the same command")
        self.fail(cmd.name, problems)
        return wall

    def loop(self, seconds: float) -> None:
        """Each panel command once, then round-robin until the deadline."""
        commands = self.workload.commands
        start = time.perf_counter()
        i = 0
        while i < len(commands) or time.perf_counter() - start < seconds:
            cmd = commands[i % len(commands)]
            cmd.samples.append(self.execute(i, cmd))
            i += 1
            if i == len(commands):
                if any(c.first is None for c in commands):
                    return  # a panel command failed: quality cannot be measured
                self.fail("panel", self.workload.panel_checks())


def end_to_end(workload: Workload, runner: Runner, setup_times: list[float]) -> dict:
    rules, sets = [], []
    for cmd in workload.commands:
        rules += workload.rules(cmd, cmd.first)
        sets.append(workload.rule_set(cmd, cmd.first))
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "command_s": (statistics.fmean(statistics.median(c.samples) for c in workload.commands), "s"),
        "coverage_mean": (statistics.fmean(r["coverage"] for r in rules), "fraction"),
        "feasible_frac": (statistics.fmean(float(r["feasible"]) for r in rules), "fraction"),
        "global_coverage": (statistics.fmean(c for c, _ in sets), "fraction"),
        "global_precision": (statistics.fmean(p for _, p in sets), "fraction"),
        "ok_frac": ((runner.attempted - runner.failed) / runner.attempted, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def time_gradient(l, u, query, X, labels, label, repeats: int) -> float:
    """Median ms of one public ``gradient`` pass (input preparation included)."""
    from maire.indicator import BoxBounds
    from maire.optimize import OptimizerConfig, gradient
    box = BoxBounds(np.asarray(l, dtype=np.float64), np.asarray(u, dtype=np.float64))
    cfg = OptimizerConfig(precision_threshold=PRECISION)
    times = []
    for _ in range(repeats + 1):  # the first pass warms caches and is dropped
        start = time.perf_counter()
        gradient(box, query, X, labels, label, cfg)
        times.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(times[1:])


def grid_matrix(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Kernel-grid data: d=27 is the bench table; other widths are continuous
    for d=2 and mostly binary (four continuous columns) for d=100."""
    if d == tables.N_COLUMNS:
        return tables.encode_columns(tables.population(n, int(rng.integers(1 << 30))))
    n_cont = min(d, 4)
    X = (rng.random((n, d)) < 0.3).astype(np.float64)
    X[:, :n_cont] = rng.random((n, n_cont))
    return X


def kernel_grid(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    out = {}
    for n, d in KERNEL_GRID:
        X = grid_matrix(n, d, rng)
        labels = (rng.random(n) < 0.4).astype(np.int64)
        q = X[0]
        ms = time_gradient(np.clip(q - 0.25, 0, 1), np.clip(q + 0.25, 0, 1), q, X, labels,
                           int(labels[0]), 5 if n <= 5000 else 3)
        out[f"optimize.kernel_ms.{n}x{d}"] = (ms, "ms")
    return out


# per-layer metrics that need a given hook; dropped (unmeasured) if it is missing
DEPENDS = {
    "schema.load_table": ("schema.load_table_s", "cli.self_s"),
    "schema.encode": ("schema.encode_s", "cli.self_s"),
    "blackbox.predict_batch": ("blackbox.predict_s", "blackbox.calls", "blackbox.rows",
                               "blackbox.rows_per_s", "cli.self_s"),
    "explain.explain_encoded": ("explain.explain_s", "explain.self_ms", "indicator.exact_ms",
                                "explain.eliminated_attrs", "explain.clauses_mean", "cli.self_s"),
    "global_explain.msd_select": ("global_explain.select_s", "global_explain.candidates",
                                  "global_explain.selected", "global_explain.predict_us_per_point",
                                  "cli.self_s"),
    "svg.render_figure": ("svg.render_ms", "cli.self_s"),
    "synthetic.synthetic_dataset": ("synthetic.dataset_ms", "cli.self_s"),
    "optimize.optimize": ("optimize.optimize_s", "optimize.iterations", "optimize.best_iteration",
                          "optimize.converged_frac", "optimize.useful_iter_frac",
                          "optimize.iter_ms", "optimize.loop_ms", "explain.self_ms"),
    "schema.snap_discrete": ("schema.snap_discrete_ms", "explain.self_ms"),
    "schema.decode_bounds": ("schema.decode_bounds_ms", "explain.self_ms"),
    "indicator.cov_exact": ("indicator.exact_ms", "explain.self_ms"),
    "indicator.pre_exact_or_none": ("indicator.exact_ms", "explain.self_ms"),
}


def probe_unreached(workload: Workload, tracer: Tracer, work: Path) -> list[str]:
    """Call each hooked layer the commands never reached once, outside any
    command, so that every per-layer time is measured on every workload.

    The inputs are the workload's own where the layer can take them (the
    first command's table and the explanations written on it), otherwise the
    README's `rect` figure.
    """
    from maire import cli, synthetic
    from maire.blackbox import SyntheticOracle
    from maire.indicator import BoxBounds
    from maire.schema import load_schema
    commands = workload.commands
    X, labels = workload.data(commands[0])
    rect = synthetic.SHAPES["rect"]
    q = np.asarray(synthetic.DEFAULT_QUERIES["rect"], dtype=np.float64)

    def load_and_encode():
        names = [f"c{j}" for j in range(X.shape[1])]
        csv_path, schema_path = work / "probe.csv", work / "probe.json"
        np.savetxt(csv_path, X, delimiter=",", header=",".join(names), comments="", fmt="%.17g")
        schema_path.write_text(json.dumps({"attributes": [
            {"name": n, "kind": "continuous", "range": [0, 1]} for n in names]}), encoding="utf-8")
        schema = load_schema(str(schema_path))
        cli.encode(cli.load_table(str(csv_path), schema), schema)

    def select():
        same_table = [e for cid, e in tracer.results["explain.explain_encoded"]
                      if cid is not None and workload.data(commands[cid % len(commands)])[0] is X]
        cli.msd_select(same_table, X, labels, len(commands))

    probes = {
        "schema.load_table": load_and_encode,
        "blackbox.predict_batch": lambda: cli.predict_batch(SyntheticOracle(rect), X),
        "global_explain.msd_select": select,
        "synthetic.synthetic_dataset": lambda: cli.synthetic_dataset("rect", SYNTH_SAMPLES, 0),
        "svg.render_figure": lambda: cli.render_figure(
            rect, BoxBounds(np.clip(q - 0.1, 0, 1), np.clip(q + 0.1, 0, 1)), q),
    }
    skip = {s.name for s in tracer.spans} | set(tracer.missing)
    tracer.end_commands()
    probed = [name for name in probes if name not in skip]
    for name in probed:
        probes[name]()
    return probed


def per_layer(workload: Workload, runner: Runner, tracer: Tracer) -> dict:
    def med(values) -> float:
        values = list(values)
        return statistics.median(values) if values else 0.0

    def mean(values) -> float:
        values = list(values)
        return statistics.fmean(values) if values else 0.0

    def secs(name):
        return [s.seconds for s in tracer.named(name)]

    def attr(name, key):
        return [s.attrs[key] for s in tracer.named(name)]

    commands = tracer.named("cli.main")

    def per_command(name, value):
        totals = {c.command: 0.0 for c in commands}
        for s in tracer.named(name):
            if s.command is not None:
                totals[s.command] += value(s)
        return list(totals.values())

    case = workload.kernel_case()
    kernel_ms = time_gradient(*case, repeats=20)
    X = case[3]
    iterations = attr("optimize.optimize", "iterations")
    iter_ms = 1000.0 * sum(secs("optimize.optimize")) / sum(iterations) if iterations else 0.0
    rows, predict_s = sum(attr("blackbox.predict_batch", "rows")), sum(secs("blackbox.predict_batch"))
    exact = ("indicator.cov_exact", "indicator.pre_exact_or_none")
    predict_us = 0.0
    selections = tracer.results.get("global_explain.msd_select")
    if selections:
        selection = selections[-1][1]
        from maire.global_explain import global_predict
        start = time.perf_counter()
        for x in X:
            global_predict(selection, x)
        predict_us = 1e6 * (time.perf_counter() - start) / len(X)

    metrics = {
        "schema.load_table_s": (med(secs("schema.load_table")), "s"),
        "schema.encode_s": (med(secs("schema.encode")), "s"),
        "blackbox.predict_s": (med(s.seconds for s in tracer.named("blackbox.predict_batch")
                                   if s.attrs["rows"] > 1), "s"),
        "blackbox.calls": (mean(per_command("blackbox.predict_batch", lambda s: 1)), "count"),
        "blackbox.rows": (mean(per_command("blackbox.predict_batch", lambda s: s.attrs["rows"])), "count"),
        "blackbox.rows_per_s": (rows / predict_s if predict_s else 0.0, "1/s"),
        "optimize.kernel_ms": (kernel_ms, "ms"),
        "optimize.kernel_ns_per_cell": (1e6 * kernel_ms / X.size, "ns"),
        **kernel_grid(workload.seed),
        "optimize.optimize_s": (med(secs("optimize.optimize")), "s"),
        "optimize.iterations": (mean(iterations), "count"),
        "optimize.best_iteration": (mean(attr("optimize.optimize", "best_iteration")), "count"),
        "optimize.converged_frac": (mean(map(float, attr("optimize.optimize", "converged"))), "fraction"),
        "optimize.useful_iter_frac": (
            sum(attr("optimize.optimize", "best_iteration")) / sum(iterations) if iterations else 0.0,
            "fraction"),
        "optimize.iter_ms": (iter_ms, "ms"),
        "optimize.loop_ms": (iter_ms - kernel_ms if iterations else 0.0, "ms"),
        "explain.explain_s": (med(secs("explain.explain_encoded")), "s"),
        "explain.self_ms": (1000.0 * med(tracer.self_seconds(s)
                                         for s in tracer.named("explain.explain_encoded")), "ms"),
        "indicator.exact_ms": (1000.0 * med(
            sum(c.seconds for c in tracer.children(s) if c.name in exact)
            for s in tracer.named("explain.explain_encoded")), "ms"),
        "schema.snap_discrete_ms": (1000.0 * med(secs("schema.snap_discrete")), "ms"),
        "schema.decode_bounds_ms": (1000.0 * med(secs("schema.decode_bounds")), "ms"),
        "explain.eliminated_attrs": (mean(attr("explain.explain_encoded", "eliminated")), "count"),
        "explain.clauses_mean": (mean(attr("explain.explain_encoded", "clauses")), "count"),
        "global_explain.select_s": (med(secs("global_explain.msd_select")), "s"),
        "global_explain.candidates": (mean(attr("global_explain.msd_select", "candidates")), "count"),
        "global_explain.selected": (mean(attr("global_explain.msd_select", "selected")), "count"),
        "global_explain.predict_us_per_point": (predict_us, "us"),
        "cli.self_s": (med(tracer.self_seconds(s) for s in commands), "s"),
        "cli.output_bytes": (mean(runner.output_bytes), "bytes"),
        "synthetic.dataset_ms": (1000.0 * med(secs("synthetic.synthetic_dataset")), "ms"),
        "svg.render_ms": (1000.0 * med(secs("svg.render_figure")), "ms"),
        "trace.overhead_frac": (tracer.overhead_frac(), "fraction"),
    }
    for hook in tracer.missing:
        print(f"unmeasured: hook {hook} is missing; dropped {', '.join(DEPENDS[hook])}")
        for name in DEPENDS[hook]:
            metrics.pop(name, None)
    return metrics


def blas_threads() -> int | str:
    """Threads of numpy's bundled OpenBLAS, where the wheel ships one."""
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                      "libscipy_openblas*.so")):
        get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            return int(get())
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_maire()
    work = ROOT / ".bench_out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = {"numpy": np.__version__, "blas_threads": blas_threads(), "nproc": os.cpu_count(),
           "cpus": sorted(os.sched_getaffinity(0)), "python": sys.version.split()[0]}
    print("env:", json.dumps(env, sort_keys=True))

    workload = WORKLOADS[args.workload](args.seed, work)
    tracer = Tracer() if args.trace else None
    runner = Runner(workload)
    setup_times = (runner.timed_setup(1, 0.0) if args.trace
                   else runner.timed_setup(SETUP_MIN_REPEATS, SETUP_MIN_SECONDS))
    if setup_times is not None and tracer is None:
        runner.loop(args.seconds)
    elif setup_times is not None:
        runner.tracer = tracer
        tracer.install()
        try:
            runner.loop(args.seconds)
            if all(c.first is not None for c in workload.commands):
                print("probed:", ", ".join(probe_unreached(workload, tracer, work)) or "none")
        finally:
            tracer.uninstall()
        tracer.write_jsonl(work / "spans.jsonl")
    for cmd in workload.commands:
        print(f"{cmd.name}: n={len(cmd.samples)} wall_s={[round(s, 3) for s in cmd.samples]}")

    # metrics need a checked first output of every panel command
    measured = all(c.first is not None for c in workload.commands)
    metrics = {}
    if measured:
        metrics = (per_layer(workload, runner, tracer) if tracer
                   else end_to_end(workload, runner, setup_times))
    result = {
        "correct": measured and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    (work / f"BENCH_{args.workload}.json").write_text(
        json.dumps({"env": env, "seed": args.seed, "trace": args.trace, **result,
                    "setup_s": setup_times, "command_s": {c.name: c.samples for c in workload.commands},
                    "problems": runner.problems}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
