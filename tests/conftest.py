"""Shared frozen reference data and the acceptance-summary hook."""

from __future__ import annotations

from itertools import combinations

import pytest

from wgc.gf2 import BinaryMatrix, BinaryPoly, PolyMatrix, nullspace_basis
from wgc.woven import _family_rows

# 14x21 incidence matrix of the built-in bipartite graph, fixed row order:
# the seven degree-3 check rows of one side, then the other side.
HEAWOOD_ROWS = [
    "111000000000000000000",
    "000111000000000000000",
    "000000111000000000000",
    "000000000111000000000",
    "000000000000111000000",
    "000000000000000111000",
    "000000000000000000111",
    "100010000001000000000",
    "000100010000001000000",
    "000000100010000001000",
    "000000000100010000001",
    "001000000000100010000",
    "000001000000000100010",
    "010000001000000000100",
]

# 12x16 incidence matrix of the 3-partite, 3-uniform, 4-regular example
THREE_PARTITE_ROWS = [
    "1111000000000000",
    "0000111100000000",
    "0000000011110000",
    "0000000000001111",
    "1000010000100001",
    "0100001000011000",
    "0010000110000100",
    "0001100001000010",
    "1000100010001000",
    "0100010001000100",
    "0010001000010001",
    "0001000100100010",
]

# 6x9 incidence matrix of the complete bipartite 3+3 graph
UTILITY_ROWS = [
    "111000000",
    "000111000",
    "000000111",
    "100010001",
    "001100010",
    "010001100",
]

# 4x12 constituent check matrix with three 4x4 column blocks
WOVEN_BLOCK_CONSTITUENT_ROWS = [
    "100011101100",
    "010001110110",
    "001010110011",
    "000111011001",
]

# polynomial reference data (coefficient strings, lowest degree first)
CONSTITUENT_CHECK_STRINGS = ["11001", "110111", "101111"]      # degrees 4, 5, 5
CONSTITUENT_GEN_STRINGS = [
    ["101", "001", "111"],
    ["0111", "1", "101"],
]
GRAPH_PARENT_CHECK_STRINGS = [["1", "1", "1"], ["1", "01", "0001"]]
GRAPH_PARENT_GEN_STRINGS = ["011", "111", "1"]

# best-permutation reference results: perm -> (nu_minimal, witness weight)
TABLE_RESULTS = {
    (1, 3, 2): (64, 32),
    (2, 1, 3): (65, 32),
    (2, 3, 1): (66, 30),
}


@pytest.fixture(scope="session")
def heawood_incidence() -> BinaryMatrix:
    return BinaryMatrix.from_strings(HEAWOOD_ROWS)


@pytest.fixture(scope="session")
def three_partite_incidence() -> BinaryMatrix:
    return BinaryMatrix.from_strings(THREE_PARTITE_ROWS)


@pytest.fixture(scope="session")
def utility_incidence() -> BinaryMatrix:
    return BinaryMatrix.from_strings(UTILITY_ROWS)


@pytest.fixture(scope="session")
def constituent_check() -> PolyMatrix:
    from wgc.gf2 import BinaryPoly

    return PolyMatrix([[BinaryPoly.parse(s) for s in CONSTITUENT_CHECK_STRINGS]])


@pytest.fixture(scope="session")
def constituent_generator() -> PolyMatrix:
    from wgc.gf2 import BinaryPoly

    return PolyMatrix([[BinaryPoly.parse(s) for s in row] for row in CONSTITUENT_GEN_STRINGS])


@pytest.fixture(scope="session")
def graph_parent_check() -> PolyMatrix:
    from wgc.gf2 import BinaryPoly

    return PolyMatrix([[BinaryPoly.parse(s) for s in row] for row in GRAPH_PARENT_CHECK_STRINGS])


# ---------------------------------------------------------------------------
# independent little oracles shared across test modules


def dense_rank(rows: list[str]) -> int:
    """Plain list-of-lists elimination, independent of the bit-packed path."""
    mat = [[int(ch) for ch in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                mat[i] = [a ^ b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def dense_nullspace(rows: list[str]) -> list[list[int]]:
    """Independent dense nullspace used to cross-check enumerations."""
    mat = [[int(ch) for ch in row] for row in rows]
    ncols = len(mat[0])
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                mat[i] = [a ^ b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for i, pc in enumerate(pivots):
            if mat[i][free]:
                vec[pc] = 1
        basis.append(vec)
    return basis


def dense_min_weight(rows: list[str]) -> int:
    """Exhaustive minimum weight from the independent nullspace."""
    basis = dense_nullspace(rows)
    k = len(basis)
    assert k <= 20, "oracle meant for small dimensions"
    best = None
    for mask in range(1, 1 << k):
        acc = [0] * len(basis[0])
        for i in range(k):
            if (mask >> i) & 1:
                acc = [a ^ b for a, b in zip(acc, basis[i])]
        w = sum(acc)
        if w and (best is None or w < best):
            best = w
    return best


def convolve_mod2(a: list[int], b: list[int]) -> list[int]:
    """Schoolbook polynomial product over GF(2), coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] ^= ai & bj
    while out and out[-1] == 0:
        out.pop()
    return out


def coeffs(poly) -> list[int]:
    return [poly.coeff(i) for i in range(poly.bits.bit_length())]


def list_witness_enumeration(code, budget) -> tuple[int, tuple, int]:
    """The row-combination enumeration of ``witness_search`` on column lists.

    Every word is a list of column polynomials (as ints) and a combination
    XORs it column by column; returns the first word of the lowest positive
    weight in ``itertools.combinations`` order and the number of words scored.
    """
    rows = _family_rows(code)
    ncols = code.n * code.c
    shifted = [(r, b) for r in range(len(rows)) for b in range(budget.max_shift + 1)]
    vecs = {t: [p << t[1] for p in rows[t[0]]] for t in shifted}
    best_vec, best_w, count = None, 1 << 60, 0
    for base_t in (t for t in shifted if t[1] == 0):
        others = [t for t in shifted if t > base_t]
        candidates = [()] + [combo for extra in range(1, budget.max_terms)
                             for combo in combinations(others, extra)]
        for combo in candidates:
            vec = list(vecs[base_t])
            for t in combo:
                for j in range(ncols):
                    vec[j] ^= vecs[t][j]
            count += 1
            w = sum(p.bit_count() for p in vec)
            if 0 < w < best_w:
                best_w, best_vec = w, vec
    return best_w, tuple(BinaryPoly(p) for p in best_vec), count


def nullspace_row_reduce(g: PolyMatrix) -> PolyMatrix:
    """``row_reduce`` finding each dependency by a fresh nullspace of the high-order rows."""
    rows = [list(r) for r in g.bits()]
    while True:
        degs = [max(p.bit_length() for p in row) - 1 for row in rows]
        if min(degs) < 0:
            raise ValueError("rank-deficient input: zero row produced")
        hi = [sum(((p >> d) & 1) << j for j, p in enumerate(row)) for row, d in zip(rows, degs)]
        deps = nullspace_basis(BinaryMatrix(hi, g.cols).transpose())
        if deps.rows == 0:
            return PolyMatrix(rows)
        members = [i for i in range(len(rows)) if (deps.data[0] >> i) & 1]
        dmax = max(degs[i] for i in members)
        target = max(i for i in members if degs[i] == dmax)
        new = [0] * g.cols
        for i in members:
            for j in range(g.cols):
                new[j] ^= rows[i][j] << (dmax - degs[i])
        rows[target] = new


# ---------------------------------------------------------------------------
# acceptance summary: one pass/fail line per criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and rep.when == "call":
                name = nodeid.split("::")[-1]
                verdict = "PASS" if status == "passed" else "FAIL"
                lines.append((name, verdict))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, verdict in sorted(lines):
            terminalreporter.write_line(f"{name}: {verdict}")
