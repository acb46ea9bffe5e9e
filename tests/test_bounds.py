"""Asymptotic bound machinery: entropy roots, exponent branches, exact remark."""

from __future__ import annotations

import hashlib
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgc import bounds
from wgc.bounds import (
    BoundPoint,
    BracketError,
    DomainError,
    OutOfModelError,
    costello_delta,
    curves_csv,
    emit_curves,
    mu_gamma_optimizers,
    vg_delta,
    woven_vg_bound,
)
from conftest import (costello_exponent, entropy, fhat, remark_counterexample,
                      remark_probabilities)

mpmath.mp.dps = 50


def mp_entropy(x):
    x = mpmath.mpf(x)
    return -x * mpmath.log(x, 2) - (1 - x) * mpmath.log(1 - x, 2)


def mp_root(f, lo, hi) -> float:
    """Bisection root of f on [lo, hi] to 1e-40, in 50-digit arithmetic."""
    root = mpmath.findroot(f, (mpmath.mpf(lo), mpmath.mpf(hi)), solver="bisect",
                           tol=mpmath.mpf("1e-40"))
    return float(root)


def mp_vg_delta(rate) -> float:
    return mp_root(lambda d: mp_entropy(d) + rate - 1, "1e-30", "0.5")


def mp_costello_delta(rate) -> float:
    r = mpmath.mpf(rate)
    return float(-r / mpmath.log(2 ** (1 - r) - 1, 2))


# ---------------------------------------------------------------------------
# entropy


def test_entropy_reference_points():
    # h, h' and h'' in bits, which every root of this module evaluates
    h, dh, ddh = bounds._entropy_terms(0.5)
    assert (h, dh) == (1.0, 0.0)
    assert abs(ddh + 4.0 / mpmath.log(2)) < 1e-14
    assert abs(bounds._entropy_terms(0.11)[0] - float(mp_entropy(0.11))) < 1e-14
    # log1p keeps the (1 - x) term at small x
    expected = mp_entropy("1e-30")
    assert abs(bounds._entropy_terms(1e-30)[0] - expected) <= 1e-14 * expected


def test_entropy_symmetry_and_domain():
    for x in (0.01, 0.2, 0.37, 0.49):
        (h, dh, ddh), (hm, dhm, ddhm) = bounds._entropy_terms(x), bounds._entropy_terms(1 - x)
        assert abs(h - hm) < 1e-15 and abs(dh + dhm) < 1e-12 and abs(ddh - ddhm) < 1e-9
    # the terms are defined on the open interval only; the roots never leave it
    for x in (-0.1, 0.0, 1.0, 1.1):
        with pytest.raises(ValueError):
            bounds._entropy_terms(x)


# ---------------------------------------------------------------------------
# entropy root


def test_vg_delta_reference_values():
    assert abs(vg_delta(1.0 / 3.0) - 0.1740) < 1e-3
    assert abs(vg_delta(0.5) - 0.1100) < 1e-3
    for rate in (1.0 / 3.0, 0.5, 0.9):
        assert abs(vg_delta(rate) - mp_vg_delta(rate)) < 1e-13


def test_vg_delta_low_rate_limit():
    assert abs(vg_delta(1e-9) - 0.5) < 1e-4
    with pytest.raises(DomainError):
        vg_delta(0.0)
    with pytest.raises(DomainError):
        vg_delta(1.0)


# ---------------------------------------------------------------------------
# exponent function (conftest.fhat), the certificate of the woven roots


def test_fhat_zero_at_entropy_root_in_vg_regime():
    # s = 10 puts every mid rate in the saturated-optimizer regime
    for rate in (0.2, 0.5, 0.8):
        point = woven_vg_bound(rate, 10)
        assert point.regime == "vg"
        assert abs(fhat(point.delta, rate, 10)) < 1e-9


def test_fhat_branches_continuous_at_boundary():
    for s in (2, 3, 4, 10):
        for rate in (0.1, 0.3, 0.5, 0.7, 0.9):
            boundary = 1.0 - 2.0 ** ((rate - 1.0) / s)
            eps = 1e-9
            left = fhat(boundary - eps, rate, s)
            right = fhat(boundary + eps, rate, s)
            assert abs(left - right) < 1e-6


def test_fhat_matches_direct_optimizer_evaluation():
    # evaluating the pre-optimization exponent at the optimizing active
    # fraction gamma_opt = min(1, delta / boundary) reproduces fhat
    def raw_exponent(delta, rate, s, gamma):
        return ((1 - s) * entropy(delta)
                - (1 - rate) * gamma + s * gamma * entropy(delta / gamma))

    for s in (2, 3, 4):
        for rate in (0.25, 0.5, 0.75):
            for delta in (0.02, 0.1, 0.2, 0.3):
                gamma = min(1.0, delta / (1 - 2 ** ((rate - 1) / s)))
                if delta / gamma > 1:
                    continue
                assert abs(fhat(delta, rate, s) - raw_exponent(delta, rate, s, gamma)) < 1e-9


# ---------------------------------------------------------------------------
# regime selection


def test_regime_vg_everywhere_for_large_s():
    rate = 0.05
    while rate < 0.96:
        point = woven_vg_bound(rate, 10)
        assert point.regime == "vg"
        assert abs(point.delta - vg_delta(rate)) < 1e-6
        rate += 0.05


def test_regime_graph_limited_high_rate_small_s():
    point = woven_vg_bound(0.95, 2)
    assert point.regime == "graph-limited"
    assert point.delta < vg_delta(0.95)


def test_bound_never_exceeds_entropy_root():
    for s in (2, 3, 4, 10):
        rate = 0.05
        while rate < 0.99:
            point = woven_vg_bound(rate, s)
            assert point.delta <= vg_delta(rate) + 1e-9
            if point.regime == "vg":
                assert abs(point.delta - vg_delta(rate)) < 1e-9
            rate += 0.05


def mp_branch(rate, s, regime):
    """The function whose root is the delta of ``regime``, in 50-digit arithmetic."""
    r = mpmath.mpf(rate)
    if regime == "vg":
        return lambda d: mp_entropy(d) + r - 1
    slope = s * mpmath.log(2 ** ((1 - r) / s) - 1, 2)
    return lambda d: (1 - s) * mp_entropy(d) - d * slope


def walked_points(monkeypatch, s_list, step):
    """(rate, s, delta, regime) of every point ``emit_curves`` prints, with the
    delta unrounded; the walk predicts most of these roots."""
    real, points = bounds._woven_delta, []

    def woven_delta(rate, s, *args):
        points.append((rate, s, *real(rate, s, *args)))
        return points[-1][2:]

    with monkeypatch.context() as patch:
        patch.setattr(bounds, "_woven_delta", woven_delta)
        rows = parsed(emit_curves(s_list, step, "vg"))
    assert [(f"{d:.10g}", regime) for _, _, d, regime in points] == \
        [(row["delta"], row["regime"]) for row in rows]
    return points


def test_root_certificates_on_grid(monkeypatch):
    for s in (2, 3, 4, 10):
        rate = 0.01
        while rate < 1.0 - 1e-9:
            point = woven_vg_bound(rate, s)
            assert abs(fhat(point.delta, rate, s)) < 1e-9
            rate += 0.01
    # each walked root, down to about 1e-8 on the fine grid, lies within 1e-14
    # of a sign change of its branch, checked in 50-digit arithmetic
    fine = walked_points(monkeypatch, [2, 3, 4, 5], 1e-4)
    points = walked_points(monkeypatch, [2, 3, 4, 5], 0.001) + \
        [p for i in range(1, 5) for p in fine[i * 9999 - 200:i * 9999]]
    assert len(points) == 4 * 999 + 4 * 200
    regimes = set()
    for rate, s, delta, regime in points:
        f = mp_branch(rate, s, regime)
        d = mpmath.mpf(delta)
        assert f(d * (1 - mpmath.mpf("1e-14"))) < 0 < f(d * (1 + mpmath.mpf("1e-14"))), \
            (rate, s, delta, regime)
        regimes.add(regime)
    assert regimes == {"vg", "graph-limited"}


def test_woven_vg_bound_monotone_in_s():
    # more parts never weaken the guarantee
    for rate in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        deltas = [woven_vg_bound(rate, s).delta for s in (2, 3, 4, 10)]
        assert all(a <= b for a, b in zip(deltas, deltas[1:]))


def mp_rate_for_delta(delta, s) -> tuple[float, str]:
    """(rate, regime) from 50-digit arithmetic: the entropy rate where the
    optimizer saturates, else the rate root of the interior exponent."""
    h = mp_entropy(delta)
    r_vg = 1 - h
    if delta >= 1 - mpmath.mpf(2) ** ((r_vg - 1) / s):
        return float(r_vg), "vg"
    root = mp_root(
        lambda r: (1 - s) * h - delta * s * mpmath.log(2 ** ((1 - r) / s) - 1, 2),
        "1e-9", r_vg)
    return root, "graph-limited"


def test_rate_for_delta_matches_high_precision_root():
    # the largest rate whose guarantee reaches delta, a 50-digit root in the
    # rate, maps back through woven_vg_bound to delta in the same regime
    regimes = set()
    for delta in (0.05, 0.1, 0.2):
        for s in (2, 3, 4, 10):
            rate, regime = mp_rate_for_delta(delta, s)
            regimes.add(regime)
            point = woven_vg_bound(rate, s)
            assert point.regime == regime
            assert abs(point.delta - delta) <= 1e-12 * delta
    assert regimes == {"vg", "graph-limited"}


def mp_woven_vg_bound(rate, s) -> tuple[float, str]:
    """(delta, regime) from 50-digit arithmetic: the entropy root at or above
    the boundary 1 - 2^((R-1)/s), else the root of the interior branch."""
    dvg = mp_vg_delta(rate)
    r = mpmath.mpf(rate)
    boundary = 1 - mpmath.mpf(2) ** ((r - 1) / s)
    if dvg >= boundary:
        return dvg, "vg"
    slope = s * mpmath.log(2 ** ((1 - r) / s) - 1, 2)
    return mp_root(lambda d: (1 - s) * mp_entropy(d) - d * slope, "1e-30", boundary), \
        "graph-limited"


def test_roots_near_rate_one_match_high_precision():
    # the roots shrink like (1 - R)^(s/(s-1)) towards R = 1, down to about
    # 3e-17 here, so only a relative stop keeps their digits
    regimes = set()
    for k in range(1, 9):
        rate = 1.0 - 10.0 ** -k
        expected = mp_vg_delta(rate)
        assert abs(vg_delta(rate) - expected) <= 1e-12 * expected
        for s in (2, 3, 4, 10):
            expected, regime = mp_woven_vg_bound(rate, s)
            point = woven_vg_bound(rate, s)
            regimes.add(regime)
            assert point.regime == regime
            assert abs(point.delta - expected) <= 1e-12 * expected
    assert regimes == {"vg", "graph-limited"}


def test_woven_vg_bound_monotone_near_rate_one():
    for s in (2, 3, 4, 10):
        # the rates fall as j grows, so the guarantee must not fall
        deltas = [woven_vg_bound(1.0 - j * 1e-7, s).delta for j in range(1, 1001)]
        assert all(a <= b for a, b in zip(deltas, deltas[1:]))


# ---------------------------------------------------------------------------
# free-distance bound


def test_costello_reference_values():
    assert abs(costello_delta(1.0 / 3.0) - 0.4343) < 1e-3
    assert abs(costello_delta(0.5) - 0.3932) < 1e-3
    for rate in (1.0 / 3.0, 0.5, 0.8):
        assert abs(costello_delta(rate) - mp_costello_delta(rate)) < 1e-12


def test_costello_low_rate_limit():
    # the denominator tends to log2(1) = 0 together with the numerator;
    # the true limit is 1/2 (confirmed against the high-precision oracle)
    assert abs(costello_delta(1e-6) - 0.5) < 1e-4
    assert abs(costello_delta(1e-6) - mp_costello_delta(1e-6)) < 1e-9


def mp_mu_opt(delta, rate) -> float:
    d, r = mpmath.mpf(delta), mpmath.mpf(rate)
    return float(d / (1 - 2 ** (r - 1)) - 1)


@pytest.mark.parametrize("rate", [1e-6, 1e-8, 1e-10, 1 - 1e-8, 1 - 1e-10])
def test_costello_formulas_keep_their_digits_at_both_ends_of_the_rate_range(rate):
    # 2^(1-R) - 1 cancels against 1 as R -> 0 and against 0 as R -> 1
    pairs = [(costello_delta(rate), mp_costello_delta(rate)),
             (mu_gamma_optimizers(0.6, rate, 2)[1], mp_mu_opt(0.6, rate))]
    for got, want in pairs:
        assert abs(got - want) <= 1e-13 * abs(want)


def test_costello_exponent_root_identity():
    for rate in (0.2, 1.0 / 3.0, 0.5, 0.7):
        delta = costello_delta(rate)
        assert abs(costello_exponent(delta, rate)) < 1e-9


def test_costello_above_vg_on_grid():
    rate = 0.05
    while rate < 0.95:
        assert costello_delta(rate) > vg_delta(rate)
        rate += 0.01


def test_mu_gamma_optimizers():
    rate = 0.5
    delta = costello_delta(rate)
    gamma, mu = mu_gamma_optimizers(delta, rate, 2)
    assert mu > 0
    assert 0 < gamma <= 1.0
    # large s saturates the active fraction
    saturated = [mu_gamma_optimizers(delta, rate, s)[0] for s in (2, 4, 8, 16, 64)]
    assert saturated[-1] == 1.0
    assert all(a <= b + 1e-12 for a, b in zip(saturated, saturated[1:]))


def test_mu_opt_negative_is_out_of_model():
    rate = 0.5
    low_delta = 0.5 * (1.0 - 2.0 ** (rate - 1.0))
    with pytest.raises(OutOfModelError):
        mu_gamma_optimizers(low_delta, rate, 2)


# ---------------------------------------------------------------------------
# exhaustive remark


def test_remark_exact_probabilities():
    identical, independent = remark_counterexample()
    assert identical == Fraction(3, 8)
    assert independent == Fraction(1, 4)
    assert identical > independent


def test_remark_weight_two_case():
    identical, independent = remark_probabilities(weight=2)
    # independent hand enumeration: syndrome zero iff both heads agree
    assert identical == Fraction(1, 2)
    assert independent == Fraction(1, 4)


# ---------------------------------------------------------------------------
# curves


def parsed(lines: list[str]) -> list[dict[str, str]]:
    """The rows of ``emit_curves`` lines as dicts of their printed fields."""
    header = lines[0].split(",")
    return [dict(zip(header, line.split(",", len(header) - 1))) for line in lines[1:]]


def printed_within(text: str, expected: float, rel: float) -> bool:
    """True when ``text`` is the 10-digit print of a value within ``rel`` of ``expected``.

    Printing is monotone and the interval is far narrower than a 10-digit
    step, so the prints of its two ends are the only candidates.
    """
    return text in {f"{expected * (1 - rel):.10g}", f"{expected * (1 + rel):.10g}"}


def test_emit_curves_vg_monotone():
    by_s: dict[str, list[float]] = {}
    for row in parsed(emit_curves([2, 3, 4, 10], 0.01, "vg")):
        by_s.setdefault(row["s"], []).append(float(row["delta"]))  # no error rows
    assert set(by_s) == {"2", "3", "4", "10"}
    for deltas in by_s.values():
        assert all(a >= b - 1e-12 for a, b in zip(deltas, deltas[1:]))


def test_emit_curves_points_sit_at_their_printed_rates():
    # a running sum of the step drifts by about 1e-13 here, which near rate 1
    # (delta ~ (1-R)^2 for s = 2) moves a root in its ninth digit
    rows = parsed(emit_curves([2], 1e-4, "vg"))
    assert [float(row["rate"]) for row in rows] == [round(i * 1e-4, 12) for i in range(1, 10000)]
    for row in rows[-100:]:
        expected = woven_vg_bound(float(row["rate"]), 2).delta
        assert printed_within(row["delta"], expected, 1e-12)


def test_emit_curves_costello_value():
    rows = parsed(emit_curves([], 0.01, "costello"))
    near_half = min(rows, key=lambda r: abs(float(r["rate"]) - 0.5))
    assert abs(float(near_half["delta"]) - 0.3932) < 1e-3


def test_emit_curves_empty_s_list():
    assert emit_curves([], 0.01, "vg") == []
    assert curves_csv([]) == "\n"


def test_emit_curves_rejects_bad_step():
    with pytest.raises(DomainError):
        emit_curves([2], 0.5, "vg")


def test_curves_csv_formatting():
    lines = emit_curves([2], 0.1, "vg")
    text = curves_csv(lines)
    assert text.strip().splitlines() == lines
    assert lines[0] == "s,rate,delta,regime"
    assert len(lines) == 10


@pytest.mark.parametrize("s_list, step, kind, digest", [
    ([2, 3, 4, 5], 0.001, "vg",
     "03243618ad1ade8b949fa711ad573ea26ce2d92ecb31b445f516e14ecfcef19e"),
    ([2, 3, 4, 5, 6, 10], 1e-4, "vg",
     "3205b566cd5d80b77b68cfb98e4dda91f19d38b570a10e22feab2cccaca8e327"),
    ([], 0.001, "costello",
     "d6a792df8a918f5ba9faa5f900afc10ebabd0ea09fce65a59faa3485b1e5af53"),
])
def test_curves_csv_is_pinned(s_list, step, kind, digest):
    # digests of the CSV as every point was computed from its cold bracket
    text = curves_csv(emit_curves(s_list, step, kind))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@settings(max_examples=25, deadline=None)
@given(step=st.floats(1e-4, 0.1), s_list=st.lists(st.integers(2, 12), min_size=1, max_size=3))
def test_walked_points_match_single_point_bounds(step, s_list):
    rows = parsed(emit_curves(s_list, step, "vg"))
    rates = [i * step for i in range(1, len(rows) // len(s_list) + 1)]
    assert rates[-1] < 1.0 - 1e-12 <= (len(rates) + 1) * step
    for row, (s, rate) in zip(rows, ((s, r) for s in s_list for r in rates)):
        point = woven_vg_bound(rate, s)
        assert row["s"] == str(s) and row["regime"] == point.regime
        assert printed_within(row["delta"], point.delta, 1e-12)


def counting_walk(monkeypatch, fail_at=None):
    """Wraps bounds._walk_root.  Returns the list of its (lo, hi, x, history
    length) calls; the call numbered ``fail_at`` raises BracketError instead."""
    real, calls = bounds._walk_root, []

    def walk_root(f, lo, hi, x, roots):
        calls.append((lo, hi, x, len(roots)))
        if len(calls) - 1 == fail_at:
            raise BracketError("injected")
        return real(f, lo, hi, x, roots)

    monkeypatch.setattr(bounds, "_walk_root", walk_root)
    return calls


def test_walk_evaluation_count(monkeypatch):
    # every root from its cold bracket took 20,764 entropy evaluations on this
    # grid, and a bracketed Newton walk from the previous root 14,006; the
    # predictor-corrector walk takes 3,140, one for most of its 2,676 roots
    real, evaluations = bounds._entropy_terms, [0]

    def entropy_terms(x):
        evaluations[0] += 1
        return real(x)

    monkeypatch.setattr(bounds, "_entropy_terms", entropy_terms)
    calls = counting_walk(monkeypatch)
    emit_curves([2, 3, 4, 5], 0.001, "vg")
    assert len(calls) == 2676
    assert evaluations[0] <= 3_200


def test_failed_branch_root_is_an_error_row_and_the_next_starts_cold(monkeypatch):
    step = 0.01
    clean_calls = counting_walk(monkeypatch)
    clean = emit_curves([2], step, "vg")
    clean_rows = parsed(clean)
    regimes = [row["regime"] for row in clean_rows]
    # a point mid-way along the graph-limited part; the entropy roots come first
    first = regimes.index("graph-limited")
    k = (first + len(clean_rows)) // 2
    call = len(clean_rows) + k - first
    # warm and predicted: below the previous root, from the last roots of the walk
    assert f"{clean_calls[call][1]:.10g}" == clean_rows[k - 1]["delta"]
    assert clean_calls[call][3] == clean_calls[call + 1][3] - 1 == k

    calls = counting_walk(monkeypatch, fail_at=call)
    rows = emit_curves([2], step, "vg")
    assert parsed(rows)[k] == {"s": "2", "rate": clean_rows[k]["rate"], "delta": "",
                               "regime": "error:injected"}
    assert rows[k + 1] == clean[k + 1].rsplit(",", 2)[0] + ",,error:injected"
    assert rows[:k + 1] + rows[k + 2:] == clean[:k + 1] + clean[k + 2:]
    # the next point starts cold: its upper end is its own boundary, and no
    # root before the failure is extrapolated
    boundary = bounds._boundary((k + 2) * step, 2)
    assert calls[call + 1][1:] == (boundary, boundary, 0) != clean_calls[call + 1][1:]


def test_failed_entropy_root_restarts_the_entropy_walk_cold(monkeypatch):
    step = 0.01
    clean = emit_curves([2, 3], step, "vg")
    calls = counting_walk(monkeypatch, fail_at=40)
    rows = emit_curves([2, 3], step, "vg")
    assert calls[40][1] == calls[40][2] < 0.5 and calls[40][3] == 40  # warm, predicted
    assert calls[41] == (1e-15, 0.5, 1e-15, 0)  # cold, with no history
    assert calls[42][3] == 1
    # the failed rate's root is found again for each s, here without a fault
    assert rows == clean
