"""Numeric evaluation of the asymptotic distance bounds for woven graph codes.

Every root is either closed form or a single plain bisection with bracket
verification; the branch functions have logarithmic endpoints, so robustness
beats speed here.  ``rate_for_delta`` returns the entropy rate 1 - h(delta)
exactly where the ensemble meets it, and otherwise bisects the exponent
``fhat`` in the rate directly, never a root of another bisection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import log2

FTOL = 1e-12
XTOL = 1e-10


class DomainError(ValueError):
    """Argument outside the domain of a bound or exponent function."""


class BracketError(RuntimeError):
    """Bisection bracket does not straddle a sign change."""


def binary_entropy(x: float) -> float:
    """-x log2 x - (1-x) log2 (1-x), with the limit convention h(0)=h(1)=0."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"entropy argument {x} outside [0, 1]")
    if x in (0.0, 1.0):
        return 0.0
    return -x * log2(x) - (1.0 - x) * log2(1.0 - x)


def bisect(f, lo: float, hi: float, *, ftol: float = FTOL, xtol: float = XTOL) -> float:
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0) == (fhi < 0):
        raise BracketError(f"no sign change on [{lo}, {hi}] (f: {flo}, {fhi})")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) < ftol or hi - lo < xtol:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def vg_delta(rate: float) -> float:
    """Root of h(delta) + R - 1 = 0 in (0, 1/2)."""
    if not 0.0 < rate < 1.0:
        raise DomainError(f"rate {rate} outside (0, 1)")
    return bisect(lambda d: binary_entropy(d) + rate - 1.0, 1e-15, 0.5)


def _delta_boundary(rate: float, s: int) -> float:
    return 1.0 - 2.0 ** ((rate - 1.0) / s)


def gamma_opt_block(delta: float, rate: float, s: int) -> float:
    """Optimizing fraction of active constituents: min(1, delta / boundary)."""
    return min(1.0, delta / _delta_boundary(rate, s))


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
    boundary = _delta_boundary(rate, s)
    if delta >= boundary:
        return binary_entropy(delta) + rate - 1.0
    return ((1.0 - s) * binary_entropy(delta)
            - delta * s * log2(2.0 ** (-(rate - 1.0) / s) - 1.0))


@dataclass(frozen=True)
class BoundPoint:
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
    boundary = _delta_boundary(rate, s)
    if dvg >= boundary - XTOL:
        return BoundPoint(rate, s, dvg, "vg")
    # the interior-branch root can sit at exponentially small delta when the
    # rate approaches 1, so the bracket starts far below double precision
    lo = min(2.0 ** -500, boundary / 2)
    root = bisect(lambda d: fhat(d, rate, s), lo, boundary)
    return BoundPoint(rate, s, root, "graph-limited")


def rate_for_delta(delta: float, s: int) -> float:
    """Largest rate whose woven guarantee still reaches ``delta``.

    With R_vg = 1 - h(delta): if delta >= 1 - 2^((R_vg - 1)/s) the optimizer
    saturates at R_vg (the "vg" regime of ``woven_vg_bound``) and the answer
    is exactly R_vg.  Otherwise it is the root of fhat(delta, R, s) = 0 from a
    single bisection in R on [1e-9, R_vg]; fhat rises in R and is positive at
    R_vg there, so the result never exceeds R_vg and ``rate_gap`` is >= 0.
    """
    if not 0.0 < delta < 0.5 or s < 2:
        raise DomainError(f"need 0 < delta < 0.5 and s >= 2 (delta={delta}, s={s})")
    r_vg = 1.0 - binary_entropy(delta)
    if delta >= _delta_boundary(r_vg, s):
        return r_vg
    return bisect(lambda r: fhat(delta, r, s), 1e-9, r_vg)


def rate_gap(delta: float, s: int) -> float:
    """Rate shortfall against the entropy bound at fixed relative distance."""
    return 1.0 - binary_entropy(delta) - rate_for_delta(delta, s)


# ---------------------------------------------------------------------------
# free-distance bound


def costello_delta(rate: float) -> float:
    """Closed-form free-distance guarantee -R / log2(2^(1-R) - 1)."""
    if not 0.0 < rate < 1.0:
        raise DomainError(f"rate {rate} outside (0, 1)")
    return -rate / log2(2.0 ** (1.0 - rate) - 1.0)


def costello_exponent(delta: float, rate: float) -> float:
    """Optimized ensemble exponent; zero exactly at costello_delta(rate)."""
    return -delta * log2(2.0 ** (1.0 - rate) - 1.0) - rate


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
    mu_opt = delta / (1.0 - 2.0 ** (rate - 1.0)) - 1.0
    if mu_opt < 0.0:
        raise OutOfModelError(f"mu_opt = {mu_opt} < 0 at delta={delta}, rate={rate}")
    x = (1.0 + mu_opt * (1.0 - rate)) / (s * (1.0 + mu_opt))
    gamma = min(1.0, delta / ((1.0 + mu_opt) * (1.0 - 2.0 ** (-x))))
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
    rows: list[dict] = []
    if kind == "vg":
        # every s walks the same rates, so each entropy root is found once;
        # a failed root is None and woven_vg_bound raises its error again
        grid = []
        r = grid_step
        while r < 1.0 - 1e-12:
            try:
                grid.append((r, vg_delta(r)))
            except (DomainError, BracketError):
                grid.append((r, None))
            r += grid_step
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
        r = grid_step
        while r < 1.0 - 1e-12:
            try:
                rows.append({"rate": round(r, 12), "delta": costello_delta(r)})
            except (DomainError, BracketError) as exc:
                rows.append({"rate": round(r, 12), "delta": f"error:{exc}"})
            r += grid_step
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
