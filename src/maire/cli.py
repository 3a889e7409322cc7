"""Command-line surface: local/global explanation runs, synthetic figures,
and approximation-bound audits.

Exit codes: 0 success (explanation feasible) or ``--help``, 2 explanation
infeasible, 1 any error, usage errors included. Set MAIRE_LOG to a logging
level name for diagnostics.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .blackbox import (
    ExternalCommandProvider,
    PredictionProvider,
    StoredColumnProvider,
    SyntheticOracle,
    predict_batch,
)
from .errors import MaireError, SchemaError
from .explain import Explanation, explain_encoded, explain_many
from .global_explain import msd_select
from .indicator import ApproxConstants, audit_bounds, soft_measures
from .optimize import OptimizerConfig
from .schema import encode, load_schema, load_table
from .svg import render_figure
from .synthetic import DEFAULT_QUERIES, SHAPES, synthetic_dataset

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="CSV table (UTF-8, header row)")
    p.add_argument("--schema", help="attribute declaration JSON")
    p.add_argument("--label-column", help="CSV column holding stored black-box labels")
    p.add_argument("--oracle", choices=sorted(SHAPES), help="built-in synthetic oracle")
    p.add_argument("--predictor-cmd", help="external predictor command (JSON line protocol)")
    p.add_argument("--predictor-timeout-s", type=_positive_float, default=30.0,
                   help="seconds allowed for each predictor reply")


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (np.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text}")
    return value


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1)


# the run flags; each subcommand registers the ones it reads
_RUN_FLAGS = {
    "--precision": dict(type=float, default=0.95, help="precision threshold P"),
    "--max-attrs": dict(type=_positive_int, default=None, help="max clauses K"),
    "--lambda1": dict(type=float, default=5.0),
    "--lambda2": dict(type=float, default=5.0),
    "--lr": dict(type=float, default=0.01),
    "--iters": dict(type=_positive_int, default=2500),
    "--seed": dict(type=_int_at_least(0), default=0,
                   help="seed of the synthetic data and of the query and anchor draws"),
    "--threads": dict(type=int, default=1,
                      help="ignored: the anchors are stepped in lockstep in one thread"),
    "--trace": dict(action="store_true", help="write a per-iteration trace JSONL"),
    "--out-dir": dict(default=".", help="output directory"),
    "--no-containment-snap": dict(action="store_true",
                                  help="skip the final snap of bounds onto the query"),
}


def _add_run_flags(p: argparse.ArgumentParser, *extra: str) -> None:
    for name in ("--precision", "--lambda1", "--lambda2", "--lr", "--iters", *extra,
                 "--out-dir"):
        p.add_argument(name, **_RUN_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="maire",
                                     description="Box-rule explanations for black-box classifiers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_explain = sub.add_parser("explain", help="explain one query instance")
    _add_data_flags(p_explain)
    _add_run_flags(p_explain, "--max-attrs", "--trace", "--no-containment-snap")
    group = p_explain.add_mutually_exclusive_group(required=True)
    group.add_argument("--query-row", type=int, help="row index of the query in --data")
    group.add_argument("--query-json", help="query instance as a JSON array of raw values")

    p_synth = sub.add_parser("synth", help="run a synthetic shape and plot it")
    p_synth.add_argument("shape", choices=sorted(SHAPES))
    p_synth.add_argument("--n-samples", type=_positive_int, default=3000)
    p_synth.add_argument("--query-json", help="query point as a JSON array (encoded units)")
    _add_run_flags(p_synth, "--max-attrs", "--seed", "--trace")

    p_audit = sub.add_parser("bounds-audit",
                             help="measure exact-vs-approximate gaps over random queries")
    _add_data_flags(p_audit)
    _add_run_flags(p_audit, "--seed", "--threads", "--no-containment-snap")
    p_audit.add_argument("--c1", type=float, default=0.4)
    p_audit.add_argument("--c2", type=float, default=15.0)
    p_audit.add_argument("--cl", type=float, default=0.02)
    p_audit.add_argument("--ch", type=float, default=0.8)
    p_audit.add_argument("--queries", type=_positive_int, default=100)

    p_global = sub.add_parser("global", help="compose local explanations into a global one")
    _add_data_flags(p_global)
    _add_run_flags(p_global, "--max-attrs", "--seed", "--threads", "--no-containment-snap")
    p_global.add_argument("--anchors", type=_positive_int, default=200,
                          help="number of randomly chosen anchor rows")
    p_global.add_argument("--budget", type=_positive_int, default=None,
                          help="max explanations in the global set")
    return parser


def _configure_logging() -> None:
    level = os.environ.get("MAIRE_LOG", "WARNING").upper()
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _optimizer_config(args, containment_snap: bool) -> OptimizerConfig:
    return OptimizerConfig(
        precision_threshold=args.precision,
        learning_rate=args.lr,
        max_iters=args.iters,
        lambda1=args.lambda1,
        lambda2=args.lambda2,
        containment_snap=containment_snap,
    )


def _anchors_config(args) -> OptimizerConfig:
    """Config of the subcommands that explain many anchors at once."""
    if args.threads != 1:
        log.warning("--threads %d ignored: anchors are stepped in lockstep in one thread",
                    args.threads)
    return _optimizer_config(args, not args.no_containment_snap)


def _query_json(text: str) -> list:
    """The JSON array passed as --query-json."""
    try:
        values = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MaireError(f"--query-json is not valid JSON: {exc}") from exc
    if not isinstance(values, list):
        raise MaireError(f"--query-json must be a JSON array, got {text!r}")
    return values


def _load_tabular(args) -> tuple:
    """(space, provider, table) from the data flags; the caller closes the provider."""
    sources = [s for s in (args.label_column, args.oracle, args.predictor_cmd) if s]
    if len(sources) != 1:
        raise MaireError("exactly one of --label-column, --oracle, --predictor-cmd is required")
    if not args.data or not args.schema:
        raise MaireError("--data and --schema are required")
    schema = load_schema(args.schema)
    table = load_table(args.data, schema, label_column=args.label_column)
    space = encode(table, schema)
    if args.label_column:
        provider: PredictionProvider = StoredColumnProvider(space.matrix, table.labels)
    elif args.oracle:
        provider = SyntheticOracle(SHAPES[args.oracle])
    else:
        provider = ExternalCommandProvider(args.predictor_cmd, timeout_s=args.predictor_timeout_s)
    return space, provider, table


def _labels(args) -> tuple:
    """(space, labels) from the data flags, the provider closed."""
    space, provider, _ = _load_tabular(args)
    with provider:
        return space, predict_batch(provider, space.matrix)


def _write_explanation(expl: Explanation, out_dir: Path, stem: str, trace: bool) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    record = expl.to_record()
    if trace and expl.trace is not None:
        trace_path = out_dir / f"{stem}_trace.jsonl"
        expl.trace.write_jsonl(str(trace_path))
        record["trace"] = trace_path.name
    (out_dir / f"{stem}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8")
    (out_dir / f"{stem}.rule.txt").write_text(expl.rule_text() + "\n", encoding="utf-8")
    print(expl.rule_text())


def cmd_explain(args) -> int:
    space, provider, table = _load_tabular(args)
    with provider:
        if args.query_row is not None:
            if not 0 <= args.query_row < table.n_rows:
                raise MaireError(f"--query-row {args.query_row} outside table of {table.n_rows} rows")
            q = space.matrix[args.query_row].copy()
            query_raw = [_jsonable(v) for v in table.row(args.query_row)]
        else:
            values = _query_json(args.query_json)
            try:
                q = space.encode_instance(values)
            except (SchemaError, TypeError, ValueError) as exc:
                raise MaireError(f"--query-json: {exc}") from exc
            query_raw = values
        labels = predict_batch(provider, space.matrix)
        query_label = int(predict_batch(provider, q[None, :])[0])
    cfg = _optimizer_config(args, not args.no_containment_snap)
    expl = explain_encoded(q, space, labels, query_label, cfg,
                           max_attrs=args.max_attrs, query_raw=query_raw)
    _write_explanation(expl, Path(args.out_dir), "explanation", args.trace)
    return EXIT_OK if expl.feasible else EXIT_INFEASIBLE


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return float(v)
    return v


def cmd_synth(args) -> int:
    shape, space, labels = synthetic_dataset(args.shape, args.n_samples, args.seed)
    if args.query_json:
        values = _query_json(args.query_json)
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)
        q = np.asarray(values if numbers else [], dtype=np.float64)
        d = space.matrix.shape[1]
        if q.shape != (d,) or not (np.isfinite(q) & (q >= 0.0) & (q <= 1.0)).all():
            raise MaireError(f"--query-json must hold {d} finite numbers in [0, 1], "
                             f"got {args.query_json!r}")
    else:
        q = np.asarray(DEFAULT_QUERIES[args.shape], dtype=np.float64)
    query_label = int(SyntheticOracle(shape).predict(q[None, :])[0])
    # figure mode shows the raw optimizer outcome: containment comes from the
    # lambda2 penalty alone, never from the final snap
    cfg = _optimizer_config(args, containment_snap=False)
    expl = explain_encoded(q, space, labels, query_label, cfg,
                           max_attrs=args.max_attrs, query_raw=[float(v) for v in q])
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.shape}.svg").write_text(render_figure(shape, expl.bounds, q),
                                               encoding="utf-8")
    _write_explanation(expl, out_dir, args.shape, args.trace)
    return EXIT_OK if expl.feasible else EXIT_INFEASIBLE


def cmd_bounds_audit(args) -> int:
    constants = ApproxConstants(c1=args.c1, c2=args.c2, cl=args.cl, ch=args.ch)
    space, labels = _labels(args)
    cfg = _anchors_config(args)
    rng = np.random.default_rng(args.seed)
    n, d = space.matrix.shape
    picks = rng.choice(n, size=min(args.queries, n), replace=False)

    expls = explain_many(space.matrix[picks], space, labels, labels[picks], cfg, k=constants)
    cov = np.array([e.coverage for e in expls])
    pre = np.array([np.nan if e.precision is None else e.precision for e in expls])
    cov_hat, pre_hat = soft_measures([e.bounds for e in expls], space.matrix, labels,
                                     [e.query_label for e in expls], constants)
    pre_gaps = ((pre - pre_hat) ** 2)[~np.isnan(pre)]
    report = {
        "queries": int(len(picks)),
        "mse_coverage": float(np.mean((cov - cov_hat) ** 2)),
        "mse_precision": float(np.mean(pre_gaps)) if pre_gaps.size else None,
        "audit": audit_bounds(cov, pre, cov_hat, pre_hat, d, constants).to_dict(),
    }
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "bounds_audit.json").write_text(
        json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8")
    print(json.dumps({k: report[k] for k in ("queries", "mse_coverage", "mse_precision")},
                     allow_nan=False))
    return EXIT_OK


def cmd_global(args) -> int:
    space, labels = _labels(args)
    cfg = _anchors_config(args)
    rng = np.random.default_rng(args.seed)
    n = space.matrix.shape[0]
    anchors = [int(i) for i in rng.choice(n, size=min(args.anchors, n), replace=False)]
    candidates = explain_many(space.matrix[anchors], space, labels, labels[anchors], cfg,
                              max_attrs=args.max_attrs)

    budget = args.budget if args.budget is not None else len(candidates)
    selection = msd_select(candidates, space.matrix, labels, budget)
    selection.anchor_set = anchors

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "global.json").write_text(selection.to_json() + "\n", encoding="utf-8")
    lines = ["count,coverage,precision"]
    for i, (cov, pre) in enumerate(selection.curves, start=1):
        lines.append(f"{i},{cov:.6f},{'' if pre is None else f'{pre:.6f}'}")
    (out_dir / "curves.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"selected {len(selection.members)} of {len(candidates)} candidate explanations")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help or the usage error
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        if args.command == "explain":
            return cmd_explain(args)
        if args.command == "synth":
            return cmd_synth(args)
        if args.command == "bounds-audit":
            return cmd_bounds_audit(args)
        return cmd_global(args)
    except (MaireError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
