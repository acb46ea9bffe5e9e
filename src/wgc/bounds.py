"""Numeric evaluation of the asymptotic distance bounds for woven graph codes.

Every root is either closed form or comes from ``newton``, one bracketed
Newton iteration that stops on a relative step, so a root keeps its digits
however small it gets as the rate approaches 1.  Each branch function is
convex or concave on its bracket and starts at the end from which Newton
steps move monotonically to the root; its constants and domain checks are
set up once per root.  The entropy and the exponents use ``log1p`` and
``expm1``, which do not cancel near rate 1.  ``rate_for_delta`` returns the entropy rate
1 - h(delta) exactly where the ensemble meets it, and otherwise finds the
root of the exponent ``fhat`` in the rate directly.
"""

from __future__ import annotations

from itertools import count, product, takewhile
from math import expm1, log, log1p
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction

LN2 = log(2.0)
RTOL = 1e-15  # a root is final once a step moves it by at most this fraction


class DomainError(ValueError):
    """Argument outside the domain of a bound or exponent function."""


class BracketError(RuntimeError):
    """Root bracket does not straddle a sign change."""


def _entropy_slope(x: float) -> tuple[float, float]:
    """(h(x), h'(x)) for 0 < x < 1, in bits; log1p keeps small x exact."""
    lx, l1x = log(x), log1p(-x)
    return -(x * lx + (1.0 - x) * l1x) / LN2, (l1x - lx) / LN2


def binary_entropy(x: float) -> float:
    """-x log2 x - (1-x) log2 (1-x), with the limit convention h(0)=h(1)=0."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"entropy argument {x} outside [0, 1]")
    if x in (0.0, 1.0):
        return 0.0
    return _entropy_slope(x)[0]


def newton(f, lo: float, hi: float, x: float) -> float:
    """Root of f on [lo, hi] by Newton steps from the end x; f(x) is (f(x), f'(x)).

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
    fx, dfx = ends[x]
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
        fx, dfx = f(x)
    return x


def vg_delta(rate: float) -> float:
    """Root of h(delta) + R - 1 = 0 in (0, 1/2)."""
    if not 0.0 < rate < 1.0:
        raise DomainError(f"rate {rate} outside (0, 1)")
    gap = 1.0 - rate

    def f(d):
        h, dh = _entropy_slope(d)
        return h - gap, dh

    # h is concave and rising, so steps from the low end climb to the root
    return newton(f, 1e-15, 0.5, 1e-15)


def _branch_constants(rate: float, s: int) -> tuple[float, float]:
    """(boundary, c): 1 - 2^((R-1)/s) and log2(2^((1-R)/s) - 1), via expm1."""
    x = LN2 * (1.0 - rate) / s
    return -expm1(-x), log(expm1(x)) / LN2


def gamma_opt_block(delta: float, rate: float, s: int) -> float:
    """Optimizing fraction of active constituents: min(1, delta / boundary)."""
    return min(1.0, delta / _branch_constants(rate, s)[0])


def fhat(delta: float, rate: float, s: int) -> float:
    """Ensemble exponent after optimizing the active fraction.

    Piecewise: below the boundary 1 - 2^((R-1)/s) the optimizer is interior
    and the exponent is (1-s) h(delta) - delta s log2(2^{-(R-1)/s} - 1);
    from the boundary on the optimizer saturates at 1, giving
    h(delta) + R - 1.  The two branches agree at the boundary.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta {delta} outside (0, 1)")
    if not 0.0 < rate < 1.0:
        raise DomainError(f"rate {rate} outside (0, 1)")
    if s < 2:
        raise DomainError("need s >= 2")
    boundary, c = _branch_constants(rate, s)
    h = _entropy_slope(delta)[0]
    if delta >= boundary:
        return h - (1.0 - rate)
    return (1.0 - s) * h - delta * s * c


class BoundPoint(NamedTuple):
    rate: float
    s: int
    delta: float
    regime: str  # "vg" or "graph-limited"


def woven_vg_bound(rate: float, s: int, dvg: float | None = None) -> BoundPoint:
    """Relative-distance guarantee for the random woven ensemble.

    When the entropy root sits at or above the optimizer boundary the
    ensemble meets the plain entropy bound (regime "vg"); otherwise the
    guarantee is the root of the interior-optimizer branch, which is
    strictly smaller ("graph-limited").  ``dvg`` is vg_delta(rate) when
    the caller has it already.
    """
    if s < 2:
        raise DomainError("need s >= 2")
    if dvg is None:
        dvg = vg_delta(rate)
    boundary, c = _branch_constants(rate, s)
    if dvg >= boundary:
        return BoundPoint(rate, s, dvg, "vg")

    def f(d):
        h, dh = _entropy_slope(d)
        return (1.0 - s) * h - d * s * c, (1.0 - s) * dh - s * c

    # the branch is convex with f(0) = 0 and f(boundary) > 0, so steps from
    # the boundary fall to the root; it can sit at exponentially small delta
    # when the rate approaches 1, so the bracket starts far below that
    root = newton(f, min(2.0 ** -500, boundary / 2), boundary, boundary)
    return BoundPoint(rate, s, root, "graph-limited")


def rate_for_delta(delta: float, s: int) -> float:
    """Largest rate whose woven guarantee still reaches ``delta``.

    With R_vg = 1 - h(delta): if delta >= 1 - 2^((R_vg - 1)/s) the optimizer
    saturates at R_vg (the "vg" regime of ``woven_vg_bound``) and the answer
    is exactly R_vg.  Otherwise it is the root of fhat(delta, R, s) = 0 in R
    on [1e-9, R_vg]; fhat is convex and rising in R and positive at R_vg
    there, so Newton steps from R_vg fall to the root, the result never
    exceeds R_vg and ``rate_gap`` is >= 0.
    """
    if not 0.0 < delta < 0.5 or s < 2:
        raise DomainError(f"need 0 < delta < 0.5 and s >= 2 (delta={delta}, s={s})")
    h = binary_entropy(delta)
    r_vg = 1.0 - h
    if delta >= _branch_constants(r_vg, s)[0]:
        return r_vg

    def f(r):
        c = _branch_constants(r, s)[1]
        return (1.0 - s) * h - delta * s * c, delta * (1.0 + 2.0 ** -c)

    return newton(f, 1e-9, r_vg, r_vg)


def rate_gap(delta: float, s: int) -> float:
    """Rate shortfall against the entropy bound at fixed relative distance."""
    return 1.0 - binary_entropy(delta) - rate_for_delta(delta, s)


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


def costello_exponent(delta: float, rate: float) -> float:
    """Optimized ensemble exponent; zero exactly at costello_delta(rate)."""
    return -delta * _log2_excess(rate) - rate


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
# exhaustive check of the identical-matrices remark


def remark_probabilities(weight: int = 1) -> tuple[Fraction, Fraction]:
    """Zero-syndrome probability for a weight-w vector, identical vs independent.

    Exhausts the product space of one (two for the independent ensemble)
    random 1x2 constituent check rows and a random column permutation, with
    the two-partition stack as the code's parity-check matrix.  Returns
    exact rationals (identical case, independent case).
    """
    from fractions import Fraction

    if weight not in (1, 2):
        raise ValueError("vectors have length 2; weight must be 1 or 2")
    vectors = [v for v in ((1, 0), (0, 1), (1, 1)) if sum(v) == weight]
    perms = ((0, 1), (1, 0))
    matrices = list(product((0, 1), repeat=2))

    def zero_syndrome(h1, h2, perm, x) -> bool:
        s1 = h1[0] * x[0] ^ h1[1] * x[1]
        h2p = (h2[perm[0]], h2[perm[1]])
        s2 = h2p[0] * x[0] ^ h2p[1] * x[1]
        return s1 == 0 and s2 == 0

    identical_hits = identical_total = 0
    for h1 in matrices:
        for perm in perms:
            for x in vectors:
                identical_total += 1
                identical_hits += zero_syndrome(h1, h1, perm, x)
    independent_hits = independent_total = 0
    for h1 in matrices:
        for h2 in matrices:
            for perm in perms:
                for x in vectors:
                    independent_total += 1
                    independent_hits += zero_syndrome(h1, h2, perm, x)
    return (Fraction(identical_hits, identical_total),
            Fraction(independent_hits, independent_total))


def remark_counterexample() -> tuple[Fraction, Fraction]:
    """The weight-1 pair (identical, independent); identical is strictly larger."""
    return remark_probabilities(weight=1)


# ---------------------------------------------------------------------------
# curve emission


def emit_curves(s_list, grid_step: float, kind: str) -> list[dict]:
    """Rows for the bound curves; point-level failures become flagged rows."""
    if not 0.0 < grid_step <= 0.1:
        raise DomainError("grid step must be in (0, 0.1]")
    # the i-th rate is i * step: a running sum drifts by up to 1e-11 over a
    # fine grid, which moves roots near rate 1 off the printed rate
    rates = list(takewhile(lambda r: r < 1.0 - 1e-12, (i * grid_step for i in count(1))))
    rows: list[dict] = []
    if kind == "vg":
        # every s walks the same rates, so each entropy root is found once;
        # a failed root is None and woven_vg_bound raises its error again
        grid = []
        for r in rates:
            try:
                grid.append((r, vg_delta(r)))
            except (DomainError, BracketError):
                grid.append((r, None))
        for s in s_list:
            for r, dvg in grid:
                try:
                    pt = woven_vg_bound(r, s, dvg)
                    rows.append({"s": s, "rate": round(r, 12), "delta": pt.delta,
                                 "regime": pt.regime})
                except (DomainError, BracketError) as exc:
                    rows.append({"s": s, "rate": round(r, 12), "delta": "",
                                 "regime": f"error:{exc}"})
        return rows
    if kind == "costello":
        for r in rates:
            try:
                rows.append({"rate": round(r, 12), "delta": costello_delta(r)})
            except (DomainError, BracketError) as exc:
                rows.append({"rate": round(r, 12), "delta": f"error:{exc}"})
        return rows
    raise ValueError(f"unknown curve kind {kind!r}")


def curves_csv(rows: list[dict]) -> str:
    if not rows:
        return "\n"
    keys = list(rows[0].keys())
    out = [",".join(keys)]
    for row in rows:
        cells = []
        for k in keys:
            v = row.get(k, "")
            cells.append(f"{v:.10g}" if isinstance(v, float) else str(v))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"
