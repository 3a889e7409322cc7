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
    X = _batch(points)
    return _int_labels(np.asarray(provider.predict(X)), len(X), "provider returned")


def _batch(points) -> np.ndarray:
    """``points`` as a float (N, D) batch; any other shape is a ProviderError."""
    X = np.asarray(points, dtype=np.float64)
    if X.ndim != 2:
        raise ProviderError(f"points must be a 2-D batch, got shape {X.shape}")
    return X


def _int_labels(labels: np.ndarray, n: int, source: str) -> np.ndarray:
    """``labels`` as int64: one per point of an ``n``-point batch, each an
    integer or a float that holds one, within the int64 range; anything else
    is a ProviderError whose message begins with ``source``."""
    if labels.shape != (n,):
        raise ProviderError(f"{source} {labels.shape} labels for {n} points")
    if labels.dtype.kind in "iu":
        # a uint64 above the int64 range would wrap in the cast
        if labels.dtype.kind == "i" or labels.max(initial=0) < 2**63:
            return labels.astype(np.int64)
        raise ProviderError(f"{source} out-of-range labels")
    if labels.dtype.kind == "f":
        # a float an int64 cannot hold (NaN, infinite or too large) is
        # rejected before the cast, which would only warn
        if not np.all((labels >= -2.0**63) & (labels < 2.0**63)):
            raise ProviderError(f"{source} non-integer or out-of-range labels")
        as_int = labels.astype(np.int64)
        if np.array_equal(as_int, labels):
            return as_int
    raise ProviderError(f"{source} non-integer labels")


def _row_keys(points: np.ndarray):
    """The bytes of each row of (N, D) points, in order, read
    ``EXTERNAL_CHUNK_SIZE`` rows at a time, so a column-major table is never
    copied whole; adding 0.0 makes -0.0 the point 0.0 and keeps every other value."""
    for start in range(0, len(points), EXTERNAL_CHUNK_SIZE):
        chunk = points[start:start + EXTERNAL_CHUNK_SIZE] + 0.0
        data, step = chunk.tobytes(), chunk[0].nbytes  # tobytes is row-major
        # each row's slice of the chunk's bytes; a zero-width row's is b""
        for k in range(0, len(data), step) if step else range(len(chunk)):
            yield data[k:k + step]


class StoredColumnProvider(PredictionProvider):
    """Labels for the rows of a known dataset, matched by row identity."""

    def __init__(self, points: np.ndarray, labels: np.ndarray):
        X = _batch(points)
        self._labels = labels = _int_labels(np.asarray(labels), len(X), "label column holds")
        self._index = {}
        for i, key in enumerate(_row_keys(X)):
            first = self._index.setdefault(key, i)
            # a repeated row must agree with the label of its first occurrence
            if first != i and labels[first] != labels[i]:
                raise ProviderError(
                    f"rows {first} and {i} encode to the same point but carry labels "
                    f"{labels[first]} and {labels[i]}", point_index=i)

    def predict(self, points: np.ndarray) -> np.ndarray:
        X = _batch(points)
        out = np.empty(len(X), dtype=np.int64)
        for i, key in enumerate(_row_keys(X)):
            idx = self._index.get(key)
            if idx is None:
                raise ProviderError(
                    "stored-column provider only labels rows of its dataset",
                    point_index=i)
            out[i] = self._labels[idx]
        return out


@dataclass(frozen=True)
class SyntheticShape:
    """Geometry of a synthetic positive-class region in [0, 1]^D.

    kinds: ``circle`` (center, radius), ``union_of_rectangles`` (list of
    (l, u) pairs; a rectangle is a union of one), ``discrete_strip`` (one
    axis takes declared positions; a subset of them is positive).
    """

    kind: str
    center: tuple[float, ...] | None = None
    radius: float | None = None
    rectangles: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...] | None = None
    axis: int | None = None
    positive_levels: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind == "circle" and (self.radius is None or self.radius <= 0):
            raise ValueError("circle needs a positive radius")

    def label(self, points: np.ndarray) -> np.ndarray:
        """0/1 labels of (N, D) points; ValueError when D is not the width
        the shape reads (for a strip, when column ``axis`` does not exist)."""
        X = np.atleast_2d(np.asarray(points, dtype=np.float64))
        width = X.shape[1]
        if self.kind == "discrete_strip":
            if not -width <= self.axis < width:
                raise ValueError(f"discrete_strip shape reads column {self.axis}, "
                                 f"got points of width {width}")
        elif self.kind in ("circle", "union_of_rectangles"):
            dim = len(self.center if self.kind == "circle" else self.rectangles[0][0])
            if width != dim:
                raise ValueError(f"{self.kind} shape reads width {dim}, got points of width {width}")
        if self.kind == "circle":
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


def split_command(command: str) -> list[str]:
    """The argument list of a shell-style command line; ValueError when the
    line does not parse or names no program."""
    argv = shlex.split(command)
    if not argv:
        raise ValueError(f"command {command!r} names no program")
    return argv


class ExternalCommandProvider(PredictionProvider):
    """Labels from a child process.

    Protocol: each request is one line on the child's stdin holding a JSON
    array of points (each point a JSON array of numbers); the child answers
    with one line holding a JSON array of integer labels of equal length.
    A batch goes out in requests of at most ``EXTERNAL_CHUNK_SIZE`` points.
    Requests are serialized to a single long-lived child; this provider is
    not safe for concurrent use. A failed request stops the child; the next
    request starts a new one.
    """

    def __init__(self, command: str, timeout_s: float = 30.0):
        if not (np.isfinite(timeout_s) and timeout_s > 0.0):
            raise ValueError(f"timeout_s must be a finite number above 0, got {timeout_s}")
        self.argv = split_command(command)
        self.timeout_s = timeout_s
        self._proc: subprocess.Popen | None = None
        self._buffer = b""

    def _ensure_child(self):
        if self._proc is not None and self._proc.poll() is not None:
            self._stop(grace_s=0.0)  # the child exited after its last reply
        if self._proc is None:
            self._proc = subprocess.Popen(
                self.argv,
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
        X = _batch(points)
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
        for start in range(0, len(X), EXTERNAL_CHUNK_SIZE):
            batch = X[start:start + EXTERNAL_CHUNK_SIZE]
            try:
                # the bytes of json.dumps(batch.tolist()) + "\n", written into
                # the buffered stdin a point at a time
                write = self._proc.stdin.write
                for i, point in enumerate(batch):
                    write(b", " if i else b"[")
                    write(json.dumps(point.tolist()).encode())
                write(b"]\n")
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
