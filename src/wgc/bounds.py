"""Numeric evaluation of the asymptotic distance bounds for woven graph codes.

Every root is either closed form or comes from ``newton``, one bracketed
Newton iteration that stops on a relative step, so a root keeps its digits
however small it gets as the rate approaches 1.  Each branch function is
convex or concave on its bracket and starts at an end from which Newton
steps reach the root.  ``emit_curves`` walks each curve in rising rate and
predicts each root from the last ones of its walk (``_walk_root``): a Newton
step from the guess is accepted without a further evaluation once its proven
error bound is at most RTOL of the root, and otherwise ``newton`` runs from
the previous root.  The entropy and the exponents use ``log1p`` and
``expm1``, which do not cancel near rate 1.
"""

from __future__ import annotations

from itertools import count, takewhile
from math import expm1, log, log1p
from typing import NamedTuple, Sequence

LN2 = log(2.0)
RTOL = 1e-15  # a root is final once a step moves it by at most this fraction


class DomainError(ValueError):
    """Argument outside the domain of a bound or exponent function."""


class BracketError(RuntimeError):
    """Root bracket does not straddle a sign change."""


def _entropy_terms(x: float) -> tuple[float, float, float]:
    """(h(x), h'(x), h''(x)) for 0 < x < 1, in bits; log1p keeps small x exact."""
    lx, l1x = log(x), log1p(-x)
    return -(x * lx + (1.0 - x) * l1x) / LN2, (l1x - lx) / LN2, -1.0 / (x * (1.0 - x) * LN2)


def newton(f, lo: float, hi: float, x: float) -> float:
    """Root of f on [lo, hi] by Newton steps from the end x; f(x) starts (f(x), f'(x)).

    Each evaluation shrinks the bracket to the side that keeps the sign
    change, and a step that would leave it (or a flat slope) goes to its
    midpoint instead.  Stops when a Newton step, or half the bracket after a
    midpoint step, is at most RTOL of the iterate.
    """
    ends = {lo: f(lo), hi: f(hi)}
    flo, fhi = ends[lo][0], ends[hi][0]
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0) == (fhi < 0):
        raise BracketError(f"no sign change on [{lo}, {hi}] (f: {flo}, {fhi})")
    fx, dfx = ends[x][:2]
    for _ in range(200):
        if fx == 0.0:
            return x
        if (fx < 0) == (flo < 0):
            lo = x
        else:
            hi = x
        nxt = x - fx / dfx if dfx else lo
        if lo < nxt < hi:
            done = abs(nxt - x) <= RTOL * nxt
        else:
            nxt = 0.5 * (lo + hi)
            done = hi - lo <= 2.0 * RTOL * nxt
        x = nxt
        if done:
            return x
        fx, dfx = f(x)[:2]
    return x


def _walk_root(f, lo: float, hi: float, x: float, roots: Sequence[float]) -> float:
    """Next root of a walk on a uniform rate grid whose roots so far are ``roots``.

    f(d) is (f, f', f''), with f'' of one sign and |f''| ~ 1/(d(1-d)).  The
    predictor, the corrector and its error bound are those of ``emit_curves``;
    ``newton`` on [lo, hi] from x is the fallback.
    """
    if len(roots) >= 3:
        a, b, c = roots[-3:]
        d = 4.0 * (c + a) - 6.0 * b - roots[-4] if len(roots) > 3 else 3.0 * (c - b) + a
        for _ in range(2):
            if not 0.0 < d < hi:
                break
            fd, dfd, ddfd = f(d)
            step = -fd / dfd if dfd else hi
            near = d - 2.0 * abs(step)  # |f''| is largest at the end nearer 0
            if near <= 0.0:
                break
            curv = abs(ddfd) * d * (1.0 - d) / (near * (1.0 - near))
            slope = abs(dfd) - 2.0 * abs(step) * curv
            d += step
            if curv * step * step <= 2.0 * RTOL * d * slope:
                return d
    return newton(f, lo, hi, x)


def vg_delta(rate: float, roots: Sequence[float] = ()) -> float:
    """Root of h(delta) + R - 1 = 0 in (0, 1/2).

    ``roots`` are the roots at the lower rates R' of a walk, the latest last
    and so the upper bracket end (h(delta) + R - 1 = R - R' > 0 there).
    """
    if not 0.0 < rate < 1.0:
        raise DomainError(f"rate {rate} outside (0, 1)")
    gap = 1.0 - rate

    def f(d):
        h, dh, ddh = _entropy_terms(d)
        return h - gap, dh, ddh

    # h is concave and rising: steps from the low end climb to the root, and
    # the first step from a warm upper end lands just below it
    hi = roots[-1] if roots else 0.5
    return _walk_root(f, 1e-15, hi, hi if roots else 1e-15, roots)


def _boundary(rate: float, s: int) -> float:
    """1 - 2^((R-1)/s), where the optimizer saturates, via expm1."""
    return -expm1(-(LN2 * (1.0 - rate) / s))


def _branch_slope(rate: float, s: int) -> float:
    """c = log2(2^((1-R)/s) - 1), via expm1."""
    return log(expm1(LN2 * (1.0 - rate) / s)) / LN2


class BoundPoint(NamedTuple):
    rate: float
    s: int
    delta: float
    regime: str  # "vg" or "graph-limited"


def woven_vg_bound(rate: float, s: int) -> BoundPoint:
    """Relative-distance guarantee for the random woven ensemble.

    When the entropy root sits at or above the optimizer boundary the
    ensemble meets the plain entropy bound (regime "vg"); otherwise the
    guarantee is the root of the interior-optimizer branch, which is
    strictly smaller ("graph-limited").  This is the one-rate case of the
    walk in ``emit_curves``, started from the cold brackets.
    """
    return BoundPoint(rate, s, *_woven_delta(rate, s))


def _woven_delta(rate: float, s: int, dvg: float | None = None,
                 roots: Sequence[float] = ()) -> tuple[float, str]:
    """(delta, regime) of ``woven_vg_bound``; ``dvg`` is vg_delta(rate) when
    the caller has it, and ``roots`` the deltas of this s at the rates below
    on a uniform grid, the latest last, which the graph-limited root lies below."""
    if s < 2:
        raise DomainError("need s >= 2")
    if dvg is None:
        dvg = vg_delta(rate)
    boundary = _boundary(rate, s)
    if dvg >= boundary:
        return dvg, "vg"
    c = _branch_slope(rate, s)

    def f(d):
        h, dh, ddh = _entropy_terms(d)
        return (1.0 - s) * h - d * s * c, (1.0 - s) * dh - s * c, (1.0 - s) * ddh

    # the branch is convex with f(0) = 0 and positive above its root, so
    # steps from the upper end fall to the root; it can sit at exponentially
    # small delta when the rate approaches 1, so the bracket starts far below
    hi = min(roots[-1], boundary) if roots else boundary
    return _walk_root(f, min(2.0 ** -500, boundary / 2), hi, hi, roots), "graph-limited"


# ---------------------------------------------------------------------------
# free-distance bound


def _log2_excess(rate: float) -> float:
    """log2(2^(1-R) - 1) without cancellation at either end of the rate range.

    2^(1-R) - 1 is 1 + 2 expm1(-R ln 2), whose log1p keeps small R exact, and
    expm1((1-R) ln 2), whose log keeps R near 1 exact.
    """
    if rate < 0.5:
        return log1p(2.0 * expm1(-rate * LN2)) / LN2
    return log(expm1((1.0 - rate) * LN2)) / LN2


def costello_delta(rate: float) -> float:
    """Closed-form free-distance guarantee -R / log2(2^(1-R) - 1)."""
    if not 0.0 < rate < 1.0:
        raise DomainError(f"rate {rate} outside (0, 1)")
    return -rate / _log2_excess(rate)


class OutOfModelError(ValueError):
    """Optimizer left its admissible range."""


def mu_gamma_optimizers(delta: float, rate: float, s: int) -> tuple[float, float]:
    """(gamma_opt, mu_opt) for the free-distance derivation.

    mu_opt is the optimizing ratio of information length to memory; it must
    be nonnegative, otherwise the point lies outside the model and an
    OutOfModelError is raised.  gamma_opt saturates at 1 for large s.
    """
    if not 0.0 < rate < 1.0:
        raise DomainError(f"rate {rate} outside (0, 1)")
    if s < 2:
        raise DomainError("need s >= 2")
    mu_opt = delta / (-expm1((rate - 1.0) * LN2)) - 1.0
    if mu_opt < 0.0:
        raise OutOfModelError(f"mu_opt = {mu_opt} < 0 at delta={delta}, rate={rate}")
    x = (1.0 + mu_opt * (1.0 - rate)) / (s * (1.0 + mu_opt))
    gamma = min(1.0, delta / ((1.0 + mu_opt) * (-expm1(-x * LN2))))
    return gamma, mu_opt


# ---------------------------------------------------------------------------
# curve emission


def emit_curves(s_list, grid_step: float, kind: str) -> list[str]:
    """CSV lines of the bound curves, header first; failed points become error rows.

    With no point to print the list is empty; an s below 2 is a DomainError.
    Each line is written as its point is found, and every s shares one printed
    string per rate.  A vg curve is walked in rising rate (``_walk_root``):
    each entropy root, and each delta of one s, is the cubic extrapolation of
    the last four of its walk (quadratic from three), and a Newton step from
    it is accepted once |f''|max / (2 |f'|min) step^2, with |f''| taken at the
    end of [d - 2|step|, d + 2|step|] nearer 0, is at most RTOL * delta.  The
    first three points of a walk, a guess outside (0, min(previous root,
    boundary)) and two steps short of the bound fall back to ``newton`` from
    the previous root; after a failed root, an error row, the walk starts cold.
    """
    if not 0.0 < grid_step <= 0.1:
        raise DomainError("grid step must be in (0, 0.1]")
    # the i-th rate is i * step: a running sum drifts by up to 1e-11 over a
    # fine grid, which moves roots near rate 1 off the printed rate
    rates = list(takewhile(lambda r: r < 1.0 - 1e-12, (i * grid_step for i in count(1))))
    shown = [f"{round(r, 12):.10g}" for r in rates]
    if kind == "vg":
        if any(s < 2 for s in s_list):
            raise DomainError("need s >= 2")
        lines = ["s,rate,delta,regime"]
        # every s walks the same rates, so each entropy root is found once;
        # a failed root is None and _woven_delta raises its error again
        dvgs, walk = [], []
        for r in rates:
            try:
                walk.append(vg_delta(r, walk))
            except BracketError:
                walk = []
            dvgs.append(walk[-1] if walk else None)
        for s in s_list:
            walk = []
            for r, rate_text, dvg in zip(rates, shown, dvgs):
                try:
                    delta, regime = _woven_delta(r, s, dvg, walk)
                except BracketError as exc:
                    walk = []
                    lines.append(f"{s},{rate_text},,error:{exc}")
                else:
                    walk.append(delta)
                    lines.append(f"{s},{rate_text},{delta:.10g},{regime}")
        return lines if s_list else []
    if kind == "costello":
        lines = ["rate,delta"]
        for r, rate_text in zip(rates, shown):
            delta = costello_delta(r)  # closed form, defined on every rate of the grid
            lines.append(f"{rate_text},{delta:.10g}")
        return lines
    raise ValueError(f"unknown curve kind {kind!r}")


def curves_csv(lines: list[str]) -> str:
    """The CSV text of ``emit_curves`` lines; a lone newline when there are none."""
    return "\n".join(lines) + "\n"
