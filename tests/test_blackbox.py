"""Prediction providers: oracles, stored labels, subprocess."""

import json
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest

from maire import (
    ExternalCommandProvider,
    StoredColumnProvider,
    SyntheticOracle,
    SyntheticShape,
    blackbox,
    predict_batch,
)
from maire.errors import ProviderError

RECT = SyntheticShape(kind="union_of_rectangles", rectangles=(((0.3, 0.3), (0.7, 0.7)),))
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
                if shape.kind == "circle":
                    expected[i] = int(math.hypot(x - 0.5, y - 0.5) <= shape.radius)
                else:
                    expected[i] = int(any(lo[0] <= x <= hi[0] and lo[1] <= y <= hi[1]
                                          for lo, hi in shape.rectangles))
            np.testing.assert_array_equal(got, expected)

    def test_discrete_strip_levels(self):
        shape = SyntheticShape(kind="discrete_strip", axis=0, positive_levels=(2 / 6, 3 / 6))
        pts = np.array([[1 / 6, 0.4], [2 / 6, 0.4], [3 / 6, 0.9], [5 / 6, 0.1]])
        np.testing.assert_array_equal(predict_batch(SyntheticOracle(shape), pts), [0, 1, 1, 0])

    @pytest.mark.parametrize("shape, width", [
        (RECT, 2), (CIRCLE, 2),
        (SyntheticShape(kind="union_of_rectangles",
                        rectangles=(((0.0, 0.0), (0.2, 0.2)), ((0.6, 0.6), (0.9, 0.8)))), 2),
    ])
    @pytest.mark.parametrize("got", [1, 3])
    def test_points_of_another_width_rejected(self, shape, width, got):
        with pytest.raises(ValueError, match=rf"{shape.kind} shape reads width {width}, "
                                             rf"got points of width {got}"):
            shape.label(np.full((4, got), 0.5))

    @pytest.mark.parametrize("axis, got, ok", [(0, 1, True), (0, 3, True), (1, 1, False),
                                               (2, 3, True), (3, 3, False)])
    def test_strip_reads_an_existing_column(self, axis, got, ok):
        shape = SyntheticShape(kind="discrete_strip", axis=axis, positive_levels=(2 / 6,))
        points = np.full((4, got), 2 / 6)
        if ok:
            np.testing.assert_array_equal(shape.label(points), [1, 1, 1, 1])
        else:
            with pytest.raises(ValueError, match=rf"discrete_strip shape reads column {axis}, "
                                                 rf"got points of width {got}"):
                shape.label(points)

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

    @pytest.mark.parametrize("points, labels, message", [
        ([[0.1], [0.2]], [[0], [1]], r"label column holds \(2, 1\) labels for 2 points"),
        (np.array([0.1, 0.2]), [0, 1], r"points must be a 2-D batch, got shape \(2,\)")],
        ids=["2-D labels", "1-D points"])
    def test_shapes_are_checked_at_construction(self, points, labels, message):
        with pytest.raises(ProviderError, match=message):
            StoredColumnProvider(points, labels)

    @pytest.mark.parametrize("labels, message", [
        ([0.5, 1.7], "label column holds non-integer labels"),
        ([0.0, math.nan], "label column holds non-integer or out-of-range labels"),
        ([True, False], "label column holds non-integer labels"),
        (np.array([0, 2**63], dtype=np.uint64), "label column holds out-of-range labels")])
    def test_labels_are_checked_not_cast(self, labels, message):
        with pytest.raises(ProviderError, match=message):
            StoredColumnProvider(np.array([[0.1], [0.2]]), labels)

    def test_integral_float_labels_are_stored_as_integers(self):
        provider = StoredColumnProvider(np.array([[0.1], [0.2]]), [1.0, -(2.0**63)])
        assert provider.predict(np.array([[0.2], [0.1]])).tolist() == [-(2**63), 1]

    def test_conflicting_duplicate_rows_rejected(self):
        X = np.array([[0.1, 0.2], [0.5, 0.5], [0.1, 0.2], [0.1, 0.2]])
        wide = np.asfortranarray(np.random.default_rng(0).random((1600, 2)))
        wide[1500] = wide[3]
        wide_labels = np.zeros(1600, dtype=int)
        wide_labels[1500] = 1
        # the second copy disagrees, or a third after two that agree, or the
        # copies fall in different chunks of a column-major table, or one
        # copy writes 0.0 as -0.0
        for points, labels, first, second in ((X[:3], [0, 1, 1], 0, 2), (X, [0, 1, 0, 1], 0, 3),
                                              (wide, wide_labels, 3, 1500),
                                              (np.array([[0.0, 1.0], [-0.0, 1.0]]), [0, 1], 0, 1)):
            with pytest.raises(ProviderError, match=f"rows {first} and {second} encode to the "
                                                    "same point but carry labels") as info:
                StoredColumnProvider(points, np.array(labels))
            assert info.value.point_index == second

    def test_negative_zero_row_is_found_by_zero(self):
        provider = StoredColumnProvider(np.array([[-0.0, 0.1], [0.5, 0.5]]), np.array([3, 4]))
        np.testing.assert_array_equal(predict_batch(provider, np.array([[0.0, 0.1]])), [3])

    def test_negative_labels_accepted(self):
        X = np.array([[0.1, 0.2], [0.5, 0.5], [0.9, 0.1]])
        provider = StoredColumnProvider(X, np.array([-1, 1, -3]))
        np.testing.assert_array_equal(predict_batch(provider, X), [-1, 1, -3])

    def test_identical_duplicate_rows_accepted(self):
        X = np.array([[0.1, 0.2], [0.5, 0.5], [0.1, 0.2]])
        provider = StoredColumnProvider(X, np.array([1, 0, 1]))
        np.testing.assert_array_equal(predict_batch(provider, X), [1, 0, 1])
        # rows of width 0 are all one point
        provider = StoredColumnProvider(np.zeros((3, 0)), np.array([2, 2, 2]))
        np.testing.assert_array_equal(predict_batch(provider, np.zeros((2, 0))), [2, 2])


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


LOG_SCRIPT = """
import json, sys
with open(sys.argv[1], "wb") as log:
    for line in sys.stdin.buffer:
        log.write(line)
        log.flush()
        print(json.dumps([0] * len(json.loads(line))), flush=True)
"""


class TestExternalCommand:
    def test_round_trips_against_stored_column(self, tmp_path, monkeypatch):
        monkeypatch.setattr(blackbox, "EXTERNAL_CHUNK_SIZE", 256)  # 700 rows in three requests
        rng = np.random.default_rng(4)
        X = rng.random((700, 3))
        labels = rng.integers(0, 3, 700)
        labels_file = tmp_path / "labels.json"
        labels_file.write_text(json.dumps([int(v) for v in labels]))
        script = tmp_path / "echo.py"
        script.write_text(ECHO_SCRIPT)
        stored = predict_batch(StoredColumnProvider(X, labels), X)
        with ExternalCommandProvider(
                f"{sys.executable} {script} {labels_file}", timeout_s=20.0) as provider:
            external = predict_batch(provider, X)
        np.testing.assert_array_equal(external, stored)

    def test_requests_are_written_a_point_at_a_time(self, tmp_path):
        """The bytes of each request are those of one ``json.dumps`` of its
        chunk, and no chunk is held as text or Python floats."""
        log = tmp_path / "requests.log"
        script = tmp_path / "logger.py"
        script.write_text(LOG_SCRIPT)
        X = np.asfortranarray(np.random.default_rng(5).random((2100, 27)))
        X[7, :3] = [-0.0, 1e-300, 12345678.9]
        with ExternalCommandProvider(f"{sys.executable} {script} {log}") as provider:
            tracemalloc.start()
            try:
                labels = predict_batch(provider, X)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            predict_batch(provider, X[5:6])
        np.testing.assert_array_equal(labels, np.zeros(2100))
        chunks = (X[:1024], X[1024:2048], X[2048:], X[5:6])
        assert log.read_bytes() == "".join(json.dumps(c.tolist()) + "\n" for c in chunks).encode()
        assert peak < 0.5e6

    def test_points_must_form_a_batch(self):
        cmd = f"{sys.executable} -c \"[print('[0, 0, 0]', flush=True) for _ in iter(input, None)]\""
        with ExternalCommandProvider(cmd) as provider:
            with pytest.raises(ProviderError, match="points must be a 2-D batch"):
                provider.predict(np.zeros(3))
            assert provider._proc is None  # rejected before a child is started

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

    @pytest.mark.parametrize("command, problem", [(" ", "names no program"),
                                                  ("python3 'x", "No closing quotation")])
    def test_command_must_name_a_program(self, command, problem):
        with pytest.raises(ValueError, match=problem):
            ExternalCommandProvider(command)

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

    @pytest.mark.parametrize("label", [math.nan, math.inf, -math.inf, 1e30, 2.0**63])
    def test_float_label_no_int64_holds_is_rejected(self, label):
        """Such a label is rejected before the cast, which would only warn."""
        class Library:
            def predict(self, points):
                return np.full(len(points), label)

        with pytest.raises(ProviderError, match="non-integer or out-of-range"):
            predict_batch(Library(), np.zeros((1, 2)))

    def test_fractional_float_labels_are_rejected(self):
        class Library:
            def predict(self, points):
                return np.array([0.5])

        with pytest.raises(ProviderError, match="provider returned non-integer labels"):
            predict_batch(Library(), np.zeros((1, 2)))

    def test_integral_float_labels_pass(self):
        class Library:
            def predict(self, points):
                return np.array([0.0, 1.0, -(2.0**63)])

        assert predict_batch(Library(), np.zeros((3, 2))).tolist() == [0, 1, -(2**63)]
