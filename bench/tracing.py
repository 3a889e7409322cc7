"""Spans around the calls into each layer, recorded from outside the program.

``HOOKS`` is the one list of hook points: each wraps a public function at
the module attribute its caller looks it up by, so a call made by the CLI
or by ``explain_encoded`` is recorded without editing the program. If a
refactor moves or renames one of these, re-point it here; a hook that no
longer resolves is reported as unmeasured, and the metrics built on it are
left out of the result.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


def _rows(args, kwargs, result) -> dict:
    return {"rows": len(args[1])}


def _optimized(args, kwargs, result) -> dict:
    trace = result[1]
    return {"iterations": len(trace), "best_iteration": trace.best_iteration,
            "converged": bool(trace.converged)}


def _explained(args, kwargs, result) -> dict:
    return {"eliminated": len(result.elimination_order), "clauses": len(result.clauses)}


def _selected(args, kwargs, result) -> dict:
    return {"candidates": len(args[0]), "selected": len(result.members)}


# (module, attribute, span name, span attributes from (args, kwargs, result))
HOOKS = (
    ("maire.cli", "load_table", "schema.load_table", None),
    ("maire.cli", "encode", "schema.encode", None),
    ("maire.cli", "predict_batch", "blackbox.predict_batch", _rows),
    ("maire.cli", "explain_encoded", "explain.explain_encoded", _explained),
    ("maire.cli", "msd_select", "global_explain.msd_select", _selected),
    ("maire.cli", "render_figure", "svg.render_figure", None),
    ("maire.cli", "synthetic_dataset", "synthetic.synthetic_dataset", None),
    ("maire.explain", "optimize", "optimize.optimize", _optimized),
    ("maire.explain", "snap_discrete", "schema.snap_discrete", None),
    ("maire.explain", "decode_bounds", "schema.decode_bounds", None),
    ("maire.explain", "cov_exact", "indicator.cov_exact", None),
    ("maire.explain", "pre_exact_or_none", "indicator.pre_exact_or_none", None),
)



@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    command: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans; ``install`` patches HOOKS and ``uninstall`` restores them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.results: dict[str, list] = {}  # (command id, result) per span name
        self._stack: list[int] = []
        self._command: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, command: int | None = None):
        """Record a span; ``command`` starts a new command id for it and what follows."""
        if command is not None:
            self._command = command
        span = Span(len(self.spans), name, 0.0, 0.0,
                    self._stack[-1] if self._stack else None, self._command)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def end_commands(self) -> None:
        """Spans opened from now on belong to no command."""
        self._command = None

    def _wrap(self, fn, name: str, describe):
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if describe is not None:
                span.attrs.update(describe(args, kwargs, result))
            self.results.setdefault(name, []).append((span.command, result))
            return result
        return traced

    def install(self) -> None:
        for module_name, attr, name, describe in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, describe))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_seconds(self, span: Span) -> float:
        """Span duration minus the time its (sequential) child spans cover."""
        return span.seconds - sum(c.seconds for c in self.children(span))

    def overhead_frac(self, repeats: int = 20000) -> float:
        """Share of the traced commands' wall time that the hook wrappers add.

        The cost one wrapper adds per call is timed on a no-op (traced minus
        plain calls), then multiplied by the hooked calls the commands made.
        """
        def noop():
            return None

        traced = Tracer()._wrap(noop, "noop", None)
        costs = []
        for fn in (noop, traced):
            start = time.perf_counter()
            for _ in range(repeats):
                fn()
            costs.append((time.perf_counter() - start) / repeats)
        commands = self.named("cli.main")
        calls = sum(1 for s in self.spans if s.command is not None) - len(commands)
        return (costs[1] - costs[0]) * calls / sum(s.seconds for s in commands)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s), sort_keys=True) + "\n")
