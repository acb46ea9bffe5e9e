"""Reference computations the benchmark checks wgc against.

Nothing here imports wgc: the checks must not share code with the program
they check.  Binary matrices are lists of 0/1 strings (column 0 leftmost),
polynomials are coefficient strings (lowest degree first), and frames are
level-major bit arrays, the layout of ``wgc.woven.encode_stream``.
"""

from __future__ import annotations

from functools import lru_cache
from math import log2

import numpy as np


def to_array(rows: list[str]) -> np.ndarray:
    return np.array([[ch == "1" for ch in row] for row in rows], dtype=np.uint8)


def nullspace(rows: list[str]) -> np.ndarray:
    """Basis of {v : H v^T = 0} over GF(2), one basis vector per row."""
    work = to_array(rows)
    n = work.shape[1]
    pivots = []
    r = 0
    for col in range(n):
        hits = np.nonzero(work[r:, col])[0]
        if not len(hits):
            continue
        piv = r + hits[0]
        work[[r, piv]] = work[[piv, r]]
        others = np.nonzero(work[:, col])[0]
        others = others[others != r]
        work[others] ^= work[r]
        pivots.append(col)
        r += 1
        if r == work.shape[0]:
            break
    free = [c for c in range(n) if c not in set(pivots)]
    basis = np.zeros((len(free), n), dtype=np.uint8)
    for b, f in enumerate(free):
        basis[b, f] = 1
        for i, pc in enumerate(pivots):
            basis[b, pc] = work[i, f]
    return basis


def min_distance(rows: list[str], table_bits: int = 16) -> int:
    """Exact minimum distance by enumerating every codeword (n <= 64).

    The codewords spanned by the first ``table_bits`` basis rows form one
    table; each combination of the remaining rows is XORed onto the whole
    table at once.
    """
    basis = nullspace(rows)
    k, n = basis.shape
    if k == 0 or n > 64:
        raise ValueError(f"enumeration oracle needs 0 < k and n <= 64, got k={k}, n={n}")
    weights = np.uint64(1) << np.arange(n, dtype=np.uint64)
    words = [np.bitwise_xor.reduce(weights[row.astype(bool)]) if row.any() else np.uint64(0)
             for row in basis]
    low = min(k, table_bits)
    table = np.zeros(1, dtype=np.uint64)
    for w in words[:low]:
        table = np.concatenate([table, table ^ w])
    best = int(np.bitwise_count(table[1:]).min()) if len(table) > 1 else n + 1
    high = words[low:]
    acc = np.uint64(0)
    for m in range(1, 1 << len(high)):
        acc ^= high[(m & -m).bit_length() - 1]  # Gray-code step
        best = min(best, int(np.bitwise_count(table ^ acc).min()))
    return best


def dependency_weight(rows: list[str]) -> int | None:
    """Smallest t <= 4 such that some t columns of H sum to zero, else None.

    Such t columns are the support of a weight-t codeword, so a result t is
    the exact minimum distance.  Works for any n.
    """
    n = len(rows[0])
    cols = [int("".join(row[j] for row in rows)[::-1], 2) for j in range(n)]
    if 0 in cols:
        return 1
    col_set = set(cols)
    if len(col_set) < n:
        return 2
    pair_sums: set[int] = set()
    found4 = False
    for a in range(n):
        for b in range(a + 1, n):
            x = cols[a] ^ cols[b]
            if x in col_set:  # the third column differs from a and b: no zero/equal columns
                return 3
            # with no equal columns, pairs with equal sums are disjoint
            found4 |= x in pair_sums
            pair_sums.add(x)
    return 4 if found4 else None


# ---------------------------------------------------------------------------
# convolutional frames wrapped at L levels


def _coeff_stack(polys: list[list[str]]) -> np.ndarray:
    """stack[t] is the 0/1 matrix of D^t coefficients."""
    depth = max(len(p) for row in polys for p in row)
    stack = np.zeros((depth, len(polys), len(polys[0])), dtype=np.int32)
    for i, row in enumerate(polys):
        for j, p in enumerate(row):
            for t, ch in enumerate(p):
                stack[t, i, j] = ch == "1"
    return stack


def wrapped_syndrome(h_polys: list[list[str]], frame: np.ndarray, levels: int) -> np.ndarray:
    """Syndrome of a frame against H wrapped at ``levels``, shape (levels, rows).

    Entry (s, i) is the XOR over j and t of h_ij[t] * x[(s + t) mod L][j],
    the polynomial rows reduced mod D^L + 1 in the index convention of
    ``wgc.gf2.tailbite``, without building the (rows*L) x (cols*L) matrix.
    """
    x = frame.reshape(levels, len(h_polys[0])).astype(np.int32)
    out = np.zeros((levels, len(h_polys)), dtype=np.int32)
    for t, coeffs in enumerate(_coeff_stack(h_polys)):
        if coeffs.any():
            out ^= (np.roll(x, -t, axis=0) @ coeffs.T) & 1
    return out


def reference_encode(g_polys: list[list[str]], info: np.ndarray, levels: int) -> np.ndarray:
    """Frame the generator rows give: out[l][j] = XOR_{i,t} g_ij[t] u[(l + t) mod L][i]."""
    u = info.reshape(levels, len(g_polys)).astype(np.int32)
    out = np.zeros((levels, len(g_polys[0])), dtype=np.int32)
    for t, coeffs in enumerate(_coeff_stack(g_polys)):
        if coeffs.any():
            out ^= (np.roll(u, -t, axis=0) @ coeffs) & 1
    return out.astype(np.uint8).reshape(-1)


# ---------------------------------------------------------------------------
# asymptotic curves


def entropy(x: float) -> float:
    return 0.0 if x in (0.0, 1.0) else -x * log2(x) - (1 - x) * log2(1 - x)


def _root(f, lo: float, hi: float) -> float:
    """Bisection to float precision; f(lo) < 0 < f(hi)."""
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return mid
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid


@lru_cache(maxsize=None)
def curve_point(s: int, rate: float) -> tuple[float, str]:
    """The woven VG guarantee at (s, R) as (delta, regime).

    With boundary 1 - 2^((R-1)/s): regime "vg" when the root of
    h(delta) = 1 - R lies at or above the boundary, and that root is delta;
    otherwise "graph-limited", and delta is the root below the boundary of
    (1-s) h(delta) = delta s log2(2^((1-R)/s) - 1).
    """
    boundary = 1 - 2 ** ((rate - 1) / s)
    vg = _root(lambda d: entropy(d) + rate - 1, 0.0, 0.5)
    if vg >= boundary:
        return vg, "vg"
    slope = s * log2(2 ** ((1 - rate) / s) - 1)
    return _root(lambda d: (1 - s) * entropy(d) - d * slope, 0.0, boundary), "graph-limited"
