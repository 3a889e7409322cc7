"""Prediction providers: oracles, stored labels, subprocess."""

import json
import math
import os
import sys

import numpy as np
import pytest

from maire import (
    ExternalCommandProvider,
    StoredColumnProvider,
    SyntheticOracle,
    SyntheticShape,
    predict_batch,
)
from maire.errors import ProviderError

RECT = SyntheticShape(kind="rectangle", l=(0.3, 0.3), u=(0.7, 0.7))
CIRCLE = SyntheticShape(kind="circle", center=(0.5, 0.5), radius=0.2)


class TestSyntheticOracles:
    def test_rectangle_interior(self):
        assert predict_batch(SyntheticOracle(RECT), np.array([[0.5, 0.5]]))[0] == 1

    def test_circle_exterior(self):
        assert predict_batch(SyntheticOracle(CIRCLE), np.array([[0.9, 0.9]]))[0] == 0

    def test_grid_agreement_with_geometry(self):
        xs = np.linspace(0, 1, 101)
        grid = np.array([[x, y] for x in xs for y in xs])
        for shape in (RECT, CIRCLE,
                      SyntheticShape(kind="union_of_rectangles",
                                     rectangles=(((0.0, 0.0), (0.2, 0.2)),
                                                 ((0.6, 0.6), (0.9, 0.8))))):
            got = predict_batch(SyntheticOracle(shape), grid)
            expected = np.zeros(len(grid), dtype=int)
            for i, (x, y) in enumerate(grid):
                if shape.kind == "rectangle":
                    expected[i] = int(shape.l[0] <= x <= shape.u[0] and shape.l[1] <= y <= shape.u[1])
                elif shape.kind == "circle":
                    expected[i] = int(math.hypot(x - 0.5, y - 0.5) <= shape.radius)
                else:
                    expected[i] = int(any(lo[0] <= x <= hi[0] and lo[1] <= y <= hi[1]
                                          for lo, hi in shape.rectangles))
            np.testing.assert_array_equal(got, expected)

    def test_discrete_strip_levels(self):
        shape = SyntheticShape(kind="discrete_strip", axis=0, positive_levels=(2 / 6, 3 / 6))
        pts = np.array([[1 / 6, 0.4], [2 / 6, 0.4], [3 / 6, 0.9], [5 / 6, 0.1]])
        np.testing.assert_array_equal(predict_batch(SyntheticOracle(shape), pts), [0, 1, 1, 0])

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            SyntheticShape(kind="circle", center=(0.5, 0.5), radius=0.0)


class TestStoredColumn:
    def test_row_lookup(self):
        rng = np.random.default_rng(0)
        X = rng.random((20, 3))
        labels = rng.integers(0, 4, 20)
        provider = StoredColumnProvider(X, labels)
        got = predict_batch(provider, X[[3, 11, 0]])
        np.testing.assert_array_equal(got, labels[[3, 11, 0]])

    def test_unknown_row_carries_index(self):
        X = np.zeros((4, 2))
        provider = StoredColumnProvider(X, np.zeros(4, dtype=int))
        with pytest.raises(ProviderError) as info:
            provider.predict(np.array([[0.0, 0.0], [0.3, 0.3]]))
        assert info.value.point_index == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ProviderError):
            StoredColumnProvider(np.zeros((3, 2)), np.zeros(2, dtype=int))

    def test_conflicting_duplicate_rows_rejected(self):
        X = np.array([[0.1, 0.2], [0.5, 0.5], [0.1, 0.2]])
        with pytest.raises(ProviderError, match="rows 0 and 2") as info:
            StoredColumnProvider(X, np.array([0, 1, 1]))
        assert info.value.point_index == 2

    def test_negative_labels_accepted(self):
        X = np.array([[0.1, 0.2], [0.5, 0.5], [0.9, 0.1]])
        provider = StoredColumnProvider(X, np.array([-1, 1, -3]))
        np.testing.assert_array_equal(predict_batch(provider, X), [-1, 1, -3])

    def test_identical_duplicate_rows_accepted(self):
        X = np.array([[0.1, 0.2], [0.5, 0.5], [0.1, 0.2]])
        provider = StoredColumnProvider(X, np.array([1, 0, 1]))
        np.testing.assert_array_equal(predict_batch(provider, X), [1, 0, 1])


ECHO_SCRIPT = """
import json, sys
labels = json.load(open(sys.argv[1]))
cursor = 0
for line in sys.stdin:
    points = json.loads(line)
    reply = labels[cursor:cursor + len(points)]
    cursor += len(points)
    print(json.dumps(reply), flush=True)
"""


class TestExternalCommand:
    def test_round_trips_against_stored_column(self, tmp_path):
        rng = np.random.default_rng(4)
        X = rng.random((700, 3))
        labels = rng.integers(0, 3, 700)
        labels_file = tmp_path / "labels.json"
        labels_file.write_text(json.dumps([int(v) for v in labels]))
        script = tmp_path / "echo.py"
        script.write_text(ECHO_SCRIPT)
        stored = predict_batch(StoredColumnProvider(X, labels), X)
        with ExternalCommandProvider(
                f"{sys.executable} {script} {labels_file}", timeout_s=20.0,
                chunk_size=256) as provider:
            external = predict_batch(provider, X)
        np.testing.assert_array_equal(external, stored)

    def test_nonzero_exit_reported(self):
        with ExternalCommandProvider(f"{sys.executable} -c 'import sys; sys.exit(3)'") as provider:
            with pytest.raises(ProviderError, match="status 3"):
                provider.predict(np.zeros((2, 1)))

    def test_malformed_reply_reported(self):
        cmd = f"{sys.executable} -c \"print('not json', flush=True)\""
        with ExternalCommandProvider(cmd) as provider:
            with pytest.raises(ProviderError, match="malformed"):
                provider.predict(np.zeros((2, 1)))

    def test_wrong_length_reply_reported(self):
        cmd = f"{sys.executable} -c \"[print('[1]', flush=True) for _ in iter(input, None)]\""
        with ExternalCommandProvider(cmd) as provider:
            with pytest.raises(ProviderError, match="labels for 3 points"):
                provider.predict(np.zeros((3, 1)))

    def test_timeout_carries_batch_offset(self):
        cmd = f"{sys.executable} -c 'import time; time.sleep(30)'"
        with ExternalCommandProvider(cmd, timeout_s=0.2) as provider:
            with pytest.raises(ProviderError, match="timed out") as info:
                provider.predict(np.zeros((2, 1)))
            assert info.value.point_index == 0

    @pytest.mark.parametrize("reply", ["not json", "[1]", "[0.5, 1]"])
    def test_failed_request_stops_child(self, tmp_path, reply):
        pid_file = tmp_path / "pid"
        # answers once, then would outlive its stdin by 30 s
        script = tmp_path / "child.py"
        script.write_text("import os, sys, time\n"
                          f"open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
                          "sys.stdin.readline()\n"
                          f"print({reply!r}, flush=True)\n"
                          "time.sleep(30)\n")
        with ExternalCommandProvider(f"{sys.executable} {script}") as provider:
            with pytest.raises(ProviderError):
                provider.predict(np.zeros((2, 1)))
            with pytest.raises(ProcessLookupError):  # killed and reaped before the raise
                os.kill(int(pid_file.read_text()), 0)

    def test_exited_child_is_replaced(self, tmp_path):
        script = tmp_path / "once.py"
        script.write_text("import json, sys\n"
                          "print(json.dumps([7] * len(json.loads(sys.stdin.readline()))), flush=True)\n")
        with ExternalCommandProvider(f"{sys.executable} {script}") as provider:
            for _ in range(3):
                np.testing.assert_array_equal(provider.predict(np.zeros((2, 1))), [7, 7])
                provider._proc.wait(timeout=20)  # the child exits after its one reply

    @pytest.mark.parametrize("timeout_s", [math.inf, math.nan, 0.0, -1.0])
    def test_timeout_must_be_finite_and_positive(self, timeout_s):
        with pytest.raises(ValueError, match="timeout_s must be a finite number above 0"):
            ExternalCommandProvider(f"{sys.executable} -c 'pass'", timeout_s=timeout_s)

    def test_boolean_label_reported(self):
        cmd = f"{sys.executable} -c \"[print('[0, true]', flush=True) for _ in iter(input, None)]\""
        with ExternalCommandProvider(cmd) as provider:
            with pytest.raises(ProviderError, match="non-integer label True") as info:
                provider.predict(np.zeros((2, 1)))
            assert info.value.point_index == 1

    def test_non_integer_label_reported(self):
        cmd = f"{sys.executable} -c \"[print('[0.5, 1]', flush=True) for _ in iter(input, None)]\""
        with ExternalCommandProvider(cmd) as provider:
            with pytest.raises(ProviderError) as info:
                provider.predict(np.zeros((2, 1)))
            assert info.value.point_index == 0

    @pytest.mark.parametrize("reply", ["[0, 2 ** 70]", "[0, -2 ** 63 - 1]"])
    def test_label_outside_int64_reported(self, reply):
        cmd = f"{sys.executable} -c \"[print({reply}, flush=True) for _ in iter(input, None)]\""
        with ExternalCommandProvider(cmd) as provider:
            with pytest.raises(ProviderError, match="outside the 64-bit integer range") as info:
                provider.predict(np.zeros((2, 1)))
            assert info.value.point_index == 1


class TestPredictBatch:
    def test_requires_2d(self):
        with pytest.raises(ProviderError, match="2-D"):
            predict_batch(SyntheticOracle(RECT), np.zeros(3))

    def test_label_count_validated(self):
        class Broken:
            def predict(self, points):
                return np.zeros(len(points) + 1, dtype=int)

        with pytest.raises(ProviderError, match="labels for"):
            predict_batch(Broken(), np.zeros((3, 2)))
