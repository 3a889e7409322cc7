"""Label sources for encoded instances.

A provider maps batches of points in [0, 1]^D to integer labels. Variants:
a stored label column keyed by row identity, built-in geometric oracles,
and an external command speaking a line-delimited JSON protocol.
"""

from __future__ import annotations

import json
import select
import shlex
import subprocess
from dataclasses import dataclass

import numpy as np

from .errors import ProviderError

EXTERNAL_CHUNK_SIZE = 1024


class PredictionProvider:
    """Interface: ``predict(points) -> labels`` for an (N, D) batch, and
    ``close()`` to release what the provider holds (a no-op by default).
    Providers are context managers that close on exit."""

    def predict(self, points: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def predict_batch(provider: PredictionProvider, points: np.ndarray) -> np.ndarray:
    """Label a batch, validating shape in and labels out."""
    X = np.asarray(points, dtype=np.float64)
    if X.ndim != 2:
        raise ProviderError(f"points must be a 2-D batch, got shape {X.shape}")
    labels = np.asarray(provider.predict(X))
    if labels.shape != (X.shape[0],):
        raise ProviderError(
            f"provider returned {labels.shape} labels for {X.shape[0]} points")
    if not np.issubdtype(labels.dtype, np.integer):
        as_int = labels.astype(np.int64)
        if not np.array_equal(as_int, labels):
            raise ProviderError("provider returned non-integer labels")
        labels = as_int
    return labels.astype(np.int64)


class StoredColumnProvider(PredictionProvider):
    """Labels for the rows of a known dataset, matched by row identity."""

    def __init__(self, points: np.ndarray, labels: np.ndarray):
        X = np.ascontiguousarray(points, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if len(labels) != len(X):
            raise ProviderError(
                f"label column has {len(labels)} entries for {len(X)} rows")
        self._labels = labels
        self._index = {}
        for i, row in enumerate(X):
            self._index.setdefault(row.tobytes(), i)
        if len(self._index) < len(X):
            # repeated rows must agree with the label of their first occurrence
            for i, row in enumerate(X):
                first = self._index[row.tobytes()]
                if labels[first] != labels[i]:
                    raise ProviderError(
                        f"rows {first} and {i} encode to the same point but carry labels "
                        f"{labels[first]} and {labels[i]}", point_index=i)

    def predict(self, points: np.ndarray) -> np.ndarray:
        X = np.ascontiguousarray(points, dtype=np.float64)
        out = np.empty(len(X), dtype=np.int64)
        for i, row in enumerate(X):
            idx = self._index.get(row.tobytes())
            if idx is None:
                raise ProviderError(
                    "stored-column provider only labels rows of its dataset",
                    point_index=i)
            out[i] = self._labels[idx]
        return out


@dataclass(frozen=True)
class SyntheticShape:
    """Geometry of a synthetic positive-class region in [0, 1]^D.

    kinds: ``rectangle`` (l, u per axis), ``circle`` (center, radius),
    ``union_of_rectangles`` (list of (l, u) pairs), ``discrete_strip``
    (one axis takes declared positions; a subset of them is positive).
    """

    kind: str
    l: tuple[float, ...] | None = None
    u: tuple[float, ...] | None = None
    center: tuple[float, ...] | None = None
    radius: float | None = None
    rectangles: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...] | None = None
    axis: int | None = None
    positive_levels: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind == "circle" and (self.radius is None or self.radius <= 0):
            raise ValueError("circle needs a positive radius")

    def label(self, points: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if self.kind == "rectangle":
            inside = ((X >= np.asarray(self.l)) & (X <= np.asarray(self.u))).all(axis=1)
        elif self.kind == "circle":
            inside = np.linalg.norm(X - np.asarray(self.center), axis=1) <= self.radius
        elif self.kind == "union_of_rectangles":
            inside = np.zeros(len(X), dtype=bool)
            for lo, hi in self.rectangles:
                inside |= ((X >= np.asarray(lo)) & (X <= np.asarray(hi))).all(axis=1)
        elif self.kind == "discrete_strip":
            col = X[:, self.axis]
            inside = np.zeros(len(X), dtype=bool)
            for lvl in self.positive_levels:
                inside |= np.abs(col - lvl) <= 1e-9
        else:
            raise ValueError(f"unknown shape kind {self.kind!r}")
        return inside.astype(np.int64)


class SyntheticOracle(PredictionProvider):
    """Deterministic labels from a geometric shape."""

    def __init__(self, shape: SyntheticShape):
        self.shape = shape

    def predict(self, points: np.ndarray) -> np.ndarray:
        return self.shape.label(points)


class ExternalCommandProvider(PredictionProvider):
    """Labels from a child process.

    Protocol: each request is one line on the child's stdin holding a JSON
    array of points (each point a JSON array of numbers); the child answers
    with one line holding a JSON array of integer labels of equal length.
    Requests are serialized to a single long-lived child; this provider is
    not safe for concurrent use. A failed request stops the child; the next
    request starts a new one.
    """

    def __init__(self, command: str, timeout_s: float = 30.0, chunk_size: int = EXTERNAL_CHUNK_SIZE):
        if not (np.isfinite(timeout_s) and timeout_s > 0.0):
            raise ValueError(f"timeout_s must be a finite number above 0, got {timeout_s}")
        self.command = command
        self.timeout_s = timeout_s
        self.chunk_size = chunk_size
        self._proc: subprocess.Popen | None = None
        self._buffer = b""

    def _ensure_child(self):
        if self._proc is not None and self._proc.poll() is not None:
            self._stop(grace_s=0.0)  # the child exited after its last reply
        if self._proc is None:
            self._proc = subprocess.Popen(
                shlex.split(self.command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
            )
            self._buffer = b""

    def _stop(self, grace_s: float) -> None:
        """End the child: close its stdin and give it ``grace_s`` seconds to
        exit, then kill it; either way reap it and close its pipes."""
        proc, self._proc = self._proc, None
        if proc is not None:
            with proc:
                try:
                    proc.communicate(timeout=grace_s)
                except subprocess.TimeoutExpired:
                    proc.kill()

    def close(self):
        self._stop(grace_s=5.0)

    def _read_line(self, offset: int) -> bytes:
        import time

        deadline = time.monotonic() + self.timeout_s
        fd = self._proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ProviderError(
                    f"predictor command timed out after {self.timeout_s}s", point_index=offset)
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = self._proc.stdout.read1(65536)
            if not chunk:
                code = self._proc.wait()
                raise ProviderError(
                    f"predictor command exited with status {code} before replying",
                    point_index=offset)
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line

    def predict(self, points: np.ndarray) -> np.ndarray:
        X = np.asarray(points, dtype=np.float64)
        self._ensure_child()
        try:
            return self._request(X)
        except BaseException:
            # a request that failed part-way leaves the protocol out of step
            # (or the child stopped or hung): the child is not reused
            self._stop(grace_s=0.0)
            raise

    def _request(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(len(X), dtype=np.int64)
        for start in range(0, len(X), self.chunk_size):
            batch = X[start:start + self.chunk_size]
            request = json.dumps(batch.tolist()) + "\n"
            try:
                self._proc.stdin.write(request.encode("utf-8"))
                self._proc.stdin.flush()
            except (BrokenPipeError, OSError) as exc:
                code = self._proc.poll()
                raise ProviderError(
                    f"predictor command rejected input (exit status {code}): {exc}",
                    point_index=start) from exc
            line = self._read_line(start)
            try:
                reply = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ProviderError(
                    f"predictor command sent malformed JSON: {line[:200]!r}",
                    point_index=start) from exc
            if not isinstance(reply, list) or len(reply) != len(batch):
                raise ProviderError(
                    f"predictor command replied with {len(reply) if isinstance(reply, list) else 'non-list'}"
                    f" labels for {len(batch)} points", point_index=start)
            for i, label in enumerate(reply):
                if not isinstance(label, int) or isinstance(label, bool):
                    raise ProviderError(
                        f"predictor command sent a non-integer label {label!r}",
                        point_index=start + i)
                if not -2 ** 63 <= label < 2 ** 63:
                    raise ProviderError(
                        f"predictor command sent label {label}, outside the 64-bit integer range",
                        point_index=start + i)
                out[start + i] = label
        return out
