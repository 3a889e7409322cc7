"""Soft indicator, exact measures, and bound audits."""

import json
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maire import (
    ApproxConstants,
    BoxBounds,
    audit_bounds,
    cov_exact,
    cov_hat,
    gamma,
    pre_exact_or_none,
    pre_hat,
)
from maire.indicator import BoxStats, _gamma_slope, coverage_hypothesis_met

DEFAULTS = ApproxConstants()


def ref_sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    return math.exp(x) / (1.0 + math.exp(x))


def ref_gamma(z: float, k: ApproxConstants = DEFAULTS) -> float:
    if z > 0:
        return k.c1 * ref_sigmoid(k.c2 * z) + k.c3
    if z < 0:
        return k.c1 * ref_sigmoid(k.c2 * z)
    return 0.5


def ref_gamma_slope(z: float, k: ApproxConstants = DEFAULTS) -> tuple[Decimal, Decimal]:
    """gamma(z) and its slope c1 c2 sigmoid (1 - sigmoid), to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        e = (Decimal(k.c2) * Decimal(z)).exp()
        sig = e / (1 + e)
        step = Decimal(k.c3) * (1 if z > 0 else Decimal("0.5") if z == 0 else 0)
        return Decimal(k.c1) * sig + step, Decimal(k.c1) * Decimal(k.c2) * sig * (1 - sig)


def ref_membership(l, u, x, k: ApproxConstants = DEFAULTS) -> float:
    terms = [ref_gamma(xi - li, k) for xi, li in zip(x, l)]
    terms += [ref_gamma(ui - xi + k.cl, k) for xi, ui in zip(x, u)]
    return ref_gamma(sum(terms) / len(terms) - k.ch, k)


def brute_force_counts(l, u, X, labels=None, query_label=None):
    """Independent membership counter: plain loops, inclusive bounds."""
    n_in = 0
    n_match = 0
    for i in range(len(X)):
        inside = True
        for j in range(len(l)):
            if not (l[j] <= X[i][j] <= u[j]):
                inside = False
                break
        if inside:
            n_in += 1
            if labels is not None and labels[i] == query_label:
                n_match += 1
    return n_in, n_match


class TestGamma:
    def test_exactly_half_at_zero(self):
        assert gamma(0.0) == 0.5

    def test_piecewise_forms(self):
        for z in (-2.0, -0.5, -0.01, 0.01, 0.5, 2.0):
            assert gamma(z) == pytest.approx(ref_gamma(z), abs=1e-15)

    def test_near_one_at_plus_one(self):
        assert abs(gamma(1.0) - 1.0) < 1e-6
        assert gamma(1.0) == pytest.approx(0.4 * ref_sigmoid(15.0) + 0.6, abs=1e-15)

    def test_tiny_at_minus_one(self):
        assert gamma(-1.0) == pytest.approx(0.4 * ref_sigmoid(-15.0), abs=1e-15)
        assert gamma(-1.0) == pytest.approx(1.22e-7, rel=5e-3)

    def test_jump_at_zero_is_step_height(self):
        eps = 1e-12
        left = gamma(-eps)
        right = gamma(eps)
        assert left == pytest.approx(DEFAULTS.c1 / 2, abs=1e-9)
        assert right == pytest.approx(DEFAULTS.c1 / 2 + DEFAULTS.c3, abs=1e-9)

    @given(st.floats(-5, 5), st.floats(-5, 5))
    def test_monotone_within_each_branch(self, a, b):
        if a * b <= 0:
            return
        lo, hi = min(a, b), max(a, b)
        assert gamma(lo) <= gamma(hi) + 1e-15

    @given(st.floats(-50, 50))
    def test_range_never_leaves_unit_interval(self, z):
        # the sigmoid saturates to exactly 0/1 in float64 beyond |c2 z| ~ 37
        assert 0.0 <= gamma(z) <= 1.0

    @given(st.floats(-2, 2))
    def test_range_strictly_interior_where_representable(self, z):
        assert 0.0 < gamma(z) < 1.0


class TestSoftAndTail:
    """The soft AND's gamma is summed over rows directly, so its values far
    below zero must keep their relative precision. The two-sided exponential
    form in ``_gamma_slope`` does; a tanh form rounds them to 0."""

    def test_values_and_slopes_match_a_50_digit_reference(self):
        z = np.append(np.linspace(-40.0, 0.2, 2001), 0.0)  # c2 z down to -600
        value, slope = _gamma_slope(z, DEFAULTS)
        worst = Decimal(0)
        for zi, v, s in zip(z.tolist(), value.tolist(), slope.tolist()):
            ref_v, ref_s = ref_gamma_slope(zi)
            worst = max(worst, abs(Decimal(v) - ref_v) / ref_v, abs(Decimal(s) - ref_s) / ref_s)
        assert worst < Decimal("1e-12")
        assert value[-1] == 0.5


class TestConstants:
    def test_defaults_match_structural_identities(self):
        k = DEFAULTS
        assert k.c3 == pytest.approx(1.0 - k.c1)

    @pytest.mark.parametrize("bad", [
        pytest.param(dict(c1=0.0), id="bad0"),
        pytest.param(dict(c1=1.0), id="bad1"),
        pytest.param(dict(c2=-1.0), id="bad2"),
        pytest.param(dict(cl=0.0), id="bad5"),
        pytest.param(dict(ch=1.5), id="bad6"),
        pytest.param(dict(c2=float("nan")), id="c2=nan"),
        pytest.param(dict(c2=float("inf")), id="c2=inf"),
    ])
    def test_invalid_constants_rejected(self, bad):
        with pytest.raises(ValueError):
            ApproxConstants(**bad)

    @pytest.mark.parametrize("dim", [1, 2, 8, 20])
    def test_dimension_scaled_satisfy_envelope_hypothesis(self, dim):
        k = ApproxConstants.for_dimension(dim)
        assert coverage_hypothesis_met(dim, k)
        # the soft-AND threshold stays below the all-inside plateau
        assert k.ch < 1.0 - k.c1 / 2


class TestMembership:
    def test_interior_point_value(self):
        b = BoxBounds(np.array([0.2]), np.array([0.8]))
        expected = ref_membership([0.2], [0.8], [0.5])
        h = cov_hat(b, np.array([0.5]))
        assert h == pytest.approx(expected, abs=1e-12)
        assert 0.9795 < h < 0.9805

    def test_exterior_point_small(self):
        b = BoxBounds(np.array([0.2]), np.array([0.8]))
        h = cov_hat(b, np.array([0.95]))
        assert h == pytest.approx(ref_membership([0.2], [0.8], [0.95]), abs=1e-12)
        assert h < 0.2

    def test_interior_above_09_with_margin(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            l = rng.random(d) * 0.3
            u = 0.7 + rng.random(d) * 0.3
            x = l + 0.11 + (u - l - 0.22) * rng.random(d)
            assert cov_hat(BoxBounds(l, u), x) > 0.9

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        l = rng.random(6) * 0.4
        u = 0.6 + rng.random(6) * 0.4
        x = rng.random(6)
        perm = rng.permutation(6)
        h1 = cov_hat(BoxBounds(l, u), x)
        h2 = cov_hat(BoxBounds(l[perm], u[perm]), x[perm])
        assert h1 == pytest.approx(h2, abs=1e-14)

    @pytest.mark.parametrize("k,dim", [
        (ApproxConstants(c1=0.4, ch=0.78), 1),
        (ApproxConstants.for_dimension(3), 3),
    ])
    def test_tracking_bounds_in_scaled_regime(self, k, dim):
        # inside: h >= 1 - c1/2; outside beyond the upper-bound offset: h <= c1/2
        c = k.c1 / 2
        rng = np.random.default_rng(11)
        for _ in range(300):
            l = rng.uniform(0.0, 0.4, dim)
            u = rng.uniform(0.6, 0.97, dim)
            b = BoxBounds(l, u)
            x_in = rng.uniform(l + 1e-9, u)
            h = cov_hat(b, x_in, k)
            assert 1.0 - c <= h <= 1.0
            x_out = x_in.copy()
            j = int(rng.integers(dim))
            if rng.random() < 0.5:
                x_out[j] = rng.uniform(u[j] + k.cl + 1e-9, 1.0)
            else:
                x_out[j] = rng.uniform(0.0, l[j])
            h = cov_hat(b, x_out, k)
            assert 0.0 <= h <= c


class TestExactMeasures:
    def test_three_point_coverage(self):
        b = BoxBounds(np.array([0.2]), np.array([0.8]))
        points = np.array([[0.1], [0.5], [0.9]])
        assert cov_exact(b, points) == pytest.approx(1 / 3)

    def test_full_box_covers_everything(self):
        rng = np.random.default_rng(0)
        X = rng.random((200, 3))
        X[0] = 0.0  # boundary rows stay covered
        X[1] = 1.0
        b = BoxBounds(np.zeros(3), np.ones(3))
        labels = rng.integers(0, 2, 200)
        assert cov_exact(b, X) == 1.0
        assert pre_exact_or_none(b, X, labels, 1) == pytest.approx(labels.mean())

    def test_empty_box_coverage_and_precision_error(self):
        b = BoxBounds(np.array([0.4]), np.array([0.4]))
        X = np.array([[0.1], [0.9]])
        assert cov_exact(b, X) == 0.0
        assert pre_exact_or_none(b, X, np.array([0, 1]), 1) is None

    def test_points_of_the_wrong_width_rejected(self):
        """1-column points once broadcast over every axis of the box."""
        b = BoxBounds([0.2] * 3, [0.8] * 3)
        with pytest.raises(ValueError, match=r"\(1, 1\).*\(N, 3\)"):
            b.contains(np.array([0.5]))
        with pytest.raises(ValueError, match=r"\(4, 1\).*\(N, 3\)"):
            cov_exact(b, np.full((4, 1), 0.5))
        with pytest.raises(ValueError, match=r"\(3,\).*\(N, 3\)"):
            cov_exact(b, np.full(3, 0.5))
        assert b.contains(np.array([0.5, 0.5, 0.5]))

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 400))
            d = int(rng.integers(1, 12))
            X = rng.random((n, d))
            labels = rng.integers(0, 3, n)
            a, c = rng.random(d), rng.random(d)
            b = BoxBounds(np.minimum(a, c), np.maximum(a, c))
            n_in, n_match = brute_force_counts(b.l, b.u, X, labels, 1)
            assert cov_exact(b, X) == n_in / n
            if n_in:
                assert pre_exact_or_none(b, X, labels, 1) == n_match / n_in


class TestSoftMeasures:
    def test_pre_hat_is_one_when_all_labels_match(self):
        rng = np.random.default_rng(1)
        X = rng.random((50, 2))
        b = BoxBounds(np.array([0.2, 0.2]), np.array([0.8, 0.8]))
        labels = np.ones(50, dtype=int)
        assert pre_hat(b, X, labels, 1) == 1.0

    def test_full_box_cov_hat_within_envelope(self):
        rng = np.random.default_rng(2)
        X = rng.random((300, 1))
        b = BoxBounds(np.zeros(1), np.ones(1))
        ch = cov_hat(b, X)
        assert 0.75 <= ch <= 0.25 + 0.75  # envelope at coverage 1, dim 1

    def test_soft_tracks_exact_as_box_grows(self):
        # growing 1-D box around a query at 0.5, positive class on [0.3, 0.7]
        rng = np.random.default_rng(4)
        X = rng.random((800, 1))
        labels = ((X[:, 0] >= 0.3) & (X[:, 0] <= 0.7)).astype(int)
        gaps_cov, gaps_pre = [], []
        for w in np.linspace(0.02, 0.5, 25):
            b = BoxBounds(np.array([0.5 - w]), np.array([0.5 + w]))
            gaps_cov.append(abs(cov_exact(b, X) - cov_hat(b, X)))
            gaps_pre.append(abs(pre_exact_or_none(b, X, labels, 1) - pre_hat(b, X, labels, 1)))
        assert np.mean(gaps_cov) < 0.05
        assert np.mean(gaps_pre) < 0.08
        assert max(gaps_cov) < 0.12


class TestMembershipValuesShape:
    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(9)
        X = rng.random((20, 3))
        b = BoxBounds(rng.random(3) * 0.4, 0.6 + rng.random(3) * 0.4)
        batch = BoxStats(X, DEFAULTS).forward(b.signed()[None], np.zeros((1, len(X)))).h[0]
        singles = [cov_hat(b, x) for x in X]
        np.testing.assert_allclose(batch, singles, atol=1e-14)


def measures(b, X, labels, query_label, k=DEFAULTS):
    """(cov, pre, cov_hat, pre_hat) of one box, pre NaN when it is empty."""
    pre = pre_exact_or_none(b, X, labels, query_label)
    return (cov_exact(b, X), np.nan if pre is None else pre,
            cov_hat(b, X, k), pre_hat(b, X, labels, query_label, k))


def audit_one_at_a_time(cov, pre, ch, ph, d):
    """The audit as a loop over boxes: (checked, violations, max_violation)
    of the coverage envelope and of the precision cap."""
    checks = {"coverage_envelope": [0, 0, 0.0], "precision_cap": [0, 0, 0.0]}

    def record(name, violation):
        check = checks[name]
        check[0] += 1
        if violation > 0.0:
            check[1] += 1
            check[2] = max(check[2], violation)

    scale = (4.0 * d - 1.0) / (4.0 * d)
    for c, p, a, b in zip(cov.tolist(), pre.tolist(), ch.tolist(), ph.tolist()):
        record("coverage_envelope", max(scale * c - a, a - (1.0 / (4.0 * d) + scale * c)))
        if c > 0.0:
            record("precision_cap", b - p * (1.0 + (1.0 / c) * (4.0 * d / (4.0 * d - 1.0))))
    return checks


class TestAudit:
    def test_envelope_holds_in_one_dimension_with_defaults(self):
        rng = np.random.default_rng(6)
        rows = []
        for _ in range(100):
            X = rng.random((150, 1))
            labels = rng.integers(0, 2, 150)
            a, c = rng.random(1), rng.random(1)
            b = BoxBounds(np.minimum(a, c), np.maximum(a, c))
            rows.append(measures(b, X, labels, 1))
        report = audit_bounds(*np.array(rows).T, 1, DEFAULTS)
        assert report["coverage_envelope"]["hypothesis_met"]
        assert report["coverage_envelope"]["violations"] == 0
        assert report["coverage_envelope"]["checked"] == 100

    def test_hypothesis_unmet_reported_not_asserted(self):
        rng = np.random.default_rng(8)
        X = rng.random((100, 8))
        labels = rng.integers(0, 2, 100)
        b = BoxBounds(np.full(8, 0.1), np.full(8, 0.9))
        report = audit_bounds(*np.array([measures(b, X, labels, 1)]).T, 8, DEFAULTS)
        assert not report["coverage_envelope"]["hypothesis_met"]  # c1=0.4 >= 1/16
        assert report["coverage_envelope"]["checked"] == 1

    def test_empty_box_skips_precision_cap(self):
        X = np.array([[0.1], [0.9]])
        b = BoxBounds(np.array([0.4]), np.array([0.4]))
        report = audit_bounds(*np.array([measures(b, X, np.array([0, 1]), 1)]).T, 1, DEFAULTS)
        assert report["precision_cap"]["checked"] == 0

    def test_report_serializes(self):
        X = np.random.default_rng(0).random((50, 2))
        b = BoxBounds(np.array([0.2, 0.2]), np.array([0.8, 0.8]))
        report = audit_bounds(*np.array([measures(b, X, np.zeros(50, dtype=int), 0)]).T,
                              2, DEFAULTS)
        d = json.loads(json.dumps(report, allow_nan=False))
        assert d["dim"] == 2
        assert "coverage_envelope" in d and "precision_cap" in d

    @pytest.mark.parametrize("seed", range(8))
    def test_arrays_match_one_box_at_a_time(self, seed):
        rng = np.random.default_rng(seed)
        a = int(rng.integers(1, 60))
        d = int(rng.integers(1, 10))
        # coverages on a grid of rows, a third of the boxes empty
        cov = rng.integers(0, 40, a) / 40 * (rng.random(a) > 1 / 3)
        pre = np.where(cov > 0.0, rng.integers(0, 11, a) / 10, np.nan)
        ch = np.clip(cov + rng.normal(0.0, 0.2, a), 0.0, 1.0)
        ph = rng.random(a)
        report = audit_bounds(cov, pre, ch, ph, d, DEFAULTS)
        loop = audit_one_at_a_time(cov, pre, ch, ph, d)
        for name in ("coverage_envelope", "precision_cap"):
            check = report[name]
            assert [check["checked"], check["violations"], check["max_violation"]] == loop[name]
        assert report["precision_cap"]["checked"] == int((cov > 0.0).sum())

    def test_nothing_violated_reads_zero(self):
        cov, pre = np.array([0.0, 0.5]), np.array([np.nan, 1.0])
        ch, ph = np.array([0.1, 0.5]), np.array([0.3, 0.9])
        report = audit_bounds(cov, pre, ch, ph, 1, DEFAULTS)
        envelope, cap = report["coverage_envelope"], report["precision_cap"]
        assert (envelope["checked"], envelope["violations"], envelope["max_violation"]) == (2, 0, 0.0)
        # the empty box is skipped by the cap
        assert (cap["checked"], cap["violations"], cap["max_violation"]) == (1, 0, 0.0)
        assert isinstance(cap["max_violation"], float)
        assert audit_one_at_a_time(cov, pre, ch, ph, 1)["precision_cap"] == [1, 0, 0.0]


class TestBoxBounds:
    def test_inverted_pair_is_legal_and_empty(self):
        b = BoxBounds(np.array([0.8]), np.array([0.2]))
        assert b.area() == 0.0
        assert cov_exact(b, np.array([[0.5]])) == 0.0
        assert cov_hat(b, np.array([0.5])) < 0.1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            BoxBounds(np.array([-0.2]), np.array([0.5]))
        with pytest.raises(ValueError):
            BoxBounds(np.array([0.2]), np.array([1.5]))

    @given(st.integers(1, 8), st.sampled_from(["random", "full", "empty", "upper-zero"]),
           st.integers(0, 2**32 - 1))
    def test_signed_bounds_round_trip(self, d, mode, seed):
        """(l, -u) and back gives the box bit for bit, and an upper bound of
        zero comes back as +0.0, also from a signed +0.0 (where the ascent's
        clip leaves it)."""
        rng = np.random.default_rng(seed)
        a, c = rng.random(d), rng.random(d)
        l, u = {"random": (np.minimum(a, c), np.maximum(a, c)),
                "full": (np.zeros(d), np.ones(d)),
                "empty": (a, a.copy()),
                "upper-zero": (np.zeros(d), np.zeros(d))}[mode]
        b = BoxBounds(l, u)
        s = b.signed()
        assert s.shape == (2 * d,)
        back = BoxBounds.from_signed(s)
        assert back.l.tobytes() == b.l.tobytes()
        assert back.u.tobytes() == b.u.tobytes()
        assert not np.signbit(back.u).any()
        clipped = BoxBounds.from_signed(np.concatenate([b.l, np.zeros(d)]))
        assert not np.signbit(clipped.u).any()
