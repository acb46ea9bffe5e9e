"""Shared frozen reference data and the acceptance-summary hook."""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations, permutations, product
from math import log2
from operator import xor

import pytest

from wgc.blockcodes import LinearBlockCode, build_graph_code, min_distance
from wgc.gf2 import (BinaryMatrix, BinaryPoly, PolyMatrix, _divmod, _eliminate, clmul,
                     nullspace_basis, rank_over_rational_field, tailbite)
from wgc.hypergraphs import Hypergraph, sd_girth
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
# helpers that only tests use: products, row-space equality, derived block codes


def relabel_right(g: Hypergraph, order: list[int]) -> Hypergraph:
    """The same graph with right vertex b renamed order[b]; each vertex keeps its slot order."""
    return Hypergraph(2, g.c, g.n, tuple((a, order[b]) for a, b in g.edges))


def rref(m: BinaryMatrix) -> BinaryMatrix:
    """Reduced row echelon form; canonical for the row space under fixed columns."""
    return BinaryMatrix(_eliminate(m)[0], m.cols)


def row_space_equal(a: BinaryMatrix, b: BinaryMatrix) -> bool:
    return a.cols == b.cols and rref(a) == rref(b)


def poly_row_space_equal(a: PolyMatrix, b: PolyMatrix) -> bool:
    """Equality of GF(2)(D) row spaces, certified by stacked-rank checks."""
    if a.cols != b.cols:
        return False
    ra = rank_over_rational_field(a)
    rb = rank_over_rational_field(b)
    if ra != rb:
        return False
    stacked = PolyMatrix(list(a.entries) + list(b.entries))
    return rank_over_rational_field(stacked) == ra


def zt_block_code(gen: PolyMatrix, l: int, tail: int = 0) -> LinearBlockCode:
    """Zero-tail terminated block code with l information levels.

    The length is (l + tail) c, where tail defaults to the largest entry
    degree of the generator; a code given by its parity-check matrix passes
    that matrix's memory when it is larger, to keep its natural frame.
    """
    if l < 0:
        raise ValueError("information length must be nonnegative")
    tail = max(gen.memory, tail)
    n = (l + tail) * gen.cols
    if l == 0:
        return LinearBlockCode(BinaryMatrix([1 << i for i in range(n)], n))
    # every degree is at most tail, so the first l levels never wrap
    rows = tailbite(gen, l + tail).data[:l * gen.rows]
    return LinearBlockCode(nullspace_basis(BinaryMatrix(rows, n)))


def tb_block_code(h: PolyMatrix, length: int) -> LinearBlockCode:
    """Tailbitten block code: parity-check matrix wrapped at ``length`` levels.

    Wrapped checks can become dependent, in which case the code is larger
    than the span of the wrapped encoder; see tb_encoder_code for that span.
    """
    return LinearBlockCode(tailbite(h, length))


def girth_distance_check(g: Hypergraph, constituent: LinearBlockCode, *,
                         full_enum_limit: int = 26) -> tuple[int | None, int]:
    """(predicted, measured) minimum distance for the graph-based code.

    The prediction is the compact-subgraph girth at depth equal to the
    constituent minimum distance; the measurement enumerates the expanded
    code.
    """
    d_c = min_distance(constituent).value
    if d_c < 2:
        raise ValueError("constituent minimum distance must be at least 2")
    predicted = sd_girth(g, d_c)
    code = build_graph_code(g, constituent.H)
    actual = min_distance(code, full_enum_limit=full_enum_limit).value
    return predicted, actual


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
    """Exhaustive minimum weight from the independent nullspace.

    The basis vectors are packed into ints and every nonzero combination is
    visited once by a Gray-code walk (step m flips basis row tz(m)).
    """
    basis = [int("".join(map(str, vec)), 2) for vec in dense_nullspace(rows)]
    assert len(basis) <= 20, "oracle meant for small dimensions"
    best = None
    word = 0
    for m in range(1, 1 << len(basis)):
        word ^= basis[(m & -m).bit_length() - 1]
        w = word.bit_count()
        if w and (best is None or w < best):
            best = w
    return best


def gray_block_distance(rows: list[str], l: int) -> int:
    """Fewest nonzero length-l sub-blocks over the nonzero codewords, exhaustively.

    Every nonzero combination of the independent nullspace is visited once by
    a Gray-code walk, with bit j of a word holding column j.
    """
    basis = [sum(b << j for j, b in enumerate(vec)) for vec in dense_nullspace(rows)]
    assert 0 < len(basis) <= 20, "oracle meant for small dimensions"
    mask = (1 << l) - 1
    best = len(rows[0])
    word = 0
    for m in range(1, 1 << len(basis)):
        word ^= basis[(m & -m).bit_length() - 1]
        best = min(best, sum(1 for s in range(0, len(rows[0]), l) if word >> s & mask))
    return best


def minor_rank(rows: list[list[int]]) -> int:
    """Rank over GF(2)(D) of packed GF(2)[D] rows: the size of the largest nonzero minor.

    Each minor is a Leibniz determinant over ``clmul``; over GF(2) every
    sign is +1, so it is the XOR of the products along each permutation.
    """
    assert len(rows) <= 3, "oracle meant for at most 3 rows"
    cols = len(rows[0]) if rows else 0
    for size in range(min(len(rows), cols), 0, -1):
        for r in combinations(range(len(rows)), size):
            for c in combinations(range(cols), size):
                if reduce(xor, (reduce(clmul, (rows[i][c[p]] for i, p in zip(r, perm)))
                                for perm in permutations(range(size)))):
                    return size
    return 0


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


def coeffs(poly: int) -> list[int]:
    return [(poly >> i) & 1 for i in range(poly.bit_length())]


def poly_gcd(a: int, b: int) -> int:
    """Greatest common divisor of two GF(2)[D] polynomials packed into ints."""
    while b:
        a, b = b, _divmod(a, b)[1]
    return a


def oracle_syndrome(gen_row, h_row) -> list[int]:
    """Coefficients of sum_j gen_j h_j over GF(2)[D], by schoolbook products."""
    acc: list[int] = []
    for g, h in zip(gen_row, h_row):
        product = convolve_mod2(coeffs(g), coeffs(h))
        acc += [0] * (len(product) - len(acc))
        for i, bit in enumerate(product):
            acc[i] ^= bit
    return acc


def list_witness_enumeration(code, max_terms, max_shift) -> tuple[int, tuple, int]:
    """``woven._enumerate`` on column lists.

    Every word is a list of column polynomials (as ints) and a combination
    XORs it column by column; returns the first word of the lowest positive
    weight in ``itertools.combinations`` order and the number of words scored.
    """
    rows = _family_rows(code)
    ncols = code.n * code.c
    shifted = [(r, b) for r in range(len(rows)) for b in range(max_shift + 1)]
    vecs = {t: [p << t[1] for p in rows[t[0]]] for t in shifted}
    best_vec, best_w, count = None, 1 << 60, 0
    for base_t in (t for t in shifted if t[1] == 0):
        others = [t for t in shifted if t > base_t]
        candidates = [()] + [combo for extra in range(1, max_terms)
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
    return best_w, tuple(best_vec), count


def nullspace_row_reduce(g: PolyMatrix) -> PolyMatrix:
    """``row_reduce`` finding each dependency by a fresh nullspace of the high-order rows."""
    rows = [list(r) for r in g.entries]
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


def list_row_reduce(g: PolyMatrix) -> PolyMatrix:
    """``row_reduce`` on rows kept as lists of entry ints, one XOR per entry.

    The same incremental echelon of the high-order rows, keyed by column
    bit, with degrees and high-order rows recomputed entry by entry.
    """
    rows = [list(r) for r in g.entries]
    degs = [0] * len(rows)
    hi = [0] * len(rows)

    def refresh(i: int) -> None:
        d = max((p.bit_length() for p in rows[i]), default=0) - 1
        if d < 0:
            raise ValueError("rank-deficient input: zero row produced")
        degs[i] = d
        hi[i] = sum(((p >> d) & 1) << j for j, p in enumerate(rows[i]))

    for i in range(len(rows)):
        refresh(i)
    echelon: dict[int, tuple[int, int]] = {}
    leads: list[int] = []
    while len(leads) < len(rows):
        i = len(leads)
        vec, combo = hi[i], 1 << i
        while vec:
            lead = vec.bit_length() - 1
            if lead not in echelon:
                echelon[lead] = (vec, combo)
                leads.append(lead)
                break
            ev, ec = echelon[lead]
            vec ^= ev
            combo ^= ec
        if vec:
            continue
        members = [m for m in range(i + 1) if (combo >> m) & 1]
        dmax = max(degs[m] for m in members)
        target = max(m for m in members if degs[m] == dmax)
        new = [0] * g.cols
        for m in members:
            for j in range(g.cols):
                new[j] ^= rows[m][j] << (dmax - degs[m])
        rows[target] = new
        refresh(target)
        for lead in leads[target:]:
            del echelon[lead]
        del leads[target:]
    return PolyMatrix(rows)


def dense_poly_matmul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """A B over GF(2)[D], every entry summed over all k, zero products included."""
    return PolyMatrix([[reduce(xor, map(clmul, row, col), 0) for col in zip(*b.entries)]
                       for row in a.entries])


class TupleTrellis:
    """Shift-register state space of a polynomial generator; a state is a tuple of registers."""

    def __init__(self, G: PolyMatrix):
        self.b = G.rows
        self.c = G.cols
        self.taps = G.entries
        self.row_degs = [max((p.bit_length() - 1 for p in row if p), default=0)
                         for row in self.taps]
        self.inputs = list(product((0, 1), repeat=self.b))
        self.zero = (0,) * self.b

    def step(self, state: tuple[int, ...], u: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        """One time step; returns (next state, output weight)."""
        hists = [(state[i] << 1) | u[i] for i in range(self.b)]
        nxt = tuple(h & ((1 << d) - 1) for h, d in zip(hists, self.row_degs))
        out = 0
        for j in range(self.c):
            bit = 0
            for i in range(self.b):
                bit ^= (self.taps[i][j] & hists[i]).bit_count() & 1
            out |= bit << j
        return nxt, out.bit_count()


def transition_table(tr: TupleTrellis):
    """Reachable states in breadth-first order and their (next index, weight) lists."""
    states = [tr.zero]
    index = {tr.zero: 0}
    rows: list[list[tuple[int, int]]] = []
    for st in states:
        outs = []
        for u in tr.inputs:
            nxt, w = tr.step(st, u)
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
            outs.append((index[nxt], w))
        rows.append(outs)
    return states, rows


class CatastrophicEncoderError(ValueError):
    """The encoder has a zero-weight loop through nonzero states."""


def table_free_distance(G: PolyMatrix) -> int:
    """Free distance of G's encoder by Dijkstra over the whole transition table.

    Reads the encoder, not the code, so it is an oracle for
    ``convcodes.free_distance`` only on a non-catastrophic G.  Raises
    CatastrophicEncoderError on a zero-weight cycle through nonzero
    states; returns 0 when a nonzero input remerges at weight 0.
    """
    tr = TupleTrellis(G)
    _, rows = transition_table(tr)
    indeg = [0] * len(rows)
    zero_edges = {s: [t for t, w in rows[s] if w == 0 and t] for s in range(1, len(rows))}
    for outs in zero_edges.values():
        for t in outs:
            indeg[t] += 1
    ready = [s for s in range(1, len(rows)) if indeg[s] == 0]
    seen = 0
    while ready:
        seen += 1
        for t in zero_edges[ready.pop()]:
            indeg[t] -= 1
            if indeg[t] == 0:
                ready.append(t)
    if seen != len(rows) - 1:
        raise CatastrophicEncoderError("zero-weight cycle through nonzero states")
    heap = [(w, nxt) for (nxt, w), u in zip(rows[0], tr.inputs) if any(u)]
    heapq.heapify(heap)
    settled = set()
    while heap:
        w, s = heapq.heappop(heap)
        if s == 0:
            return w
        if s in settled:
            continue
        settled.add(s)
        for nxt, bw in rows[s]:
            if nxt not in settled:
                heapq.heappush(heap, (w + bw, nxt))
    raise CatastrophicEncoderError("no remerging path found")


def table_lightest_codeword(gen: PolyMatrix, cap: int, search_nodes: int):
    """Forward capped search over the whole transition table.

    Expands states lightest first, and stops once no open state is lighter
    than the lightest remerge into the zero state.  Returns (weight, word,
    nodes expanded), (cap, (), nodes) when no codeword is lighter than cap,
    or None when more than search_nodes states expand.
    """
    tr = TupleTrellis(gen)
    _, rows = transition_table(tr)
    dist, link, heap = {}, {}, []
    best, best_link = cap, None

    def relax(s, w0):
        nonlocal best, best_link
        for u_idx, (nxt, bw) in enumerate(rows[s]):
            w = w0 + bw
            if not (s or any(tr.inputs[u_idx])):
                continue
            if not nxt:
                if w < best:
                    best, best_link = w, (s, u_idx)
            elif w < dist.get(nxt, cap):
                dist[nxt], link[nxt] = w, (s, u_idx)
                heapq.heappush(heap, (w, nxt))

    relax(0, 0)
    nodes = 0
    while heap:
        w, s = heapq.heappop(heap)
        if w > dist[s]:
            continue
        if w >= best:
            break
        nodes += 1
        if nodes > search_nodes:
            return None
        relax(s, w)
    if best >= cap:
        return cap, (), nodes
    s, u_idx = best_link
    path = [u_idx]
    while s:
        s, u_idx = link[s]
        path.append(u_idx)
    path.reverse()
    u = [sum(tr.inputs[u_idx][i] << t for t, u_idx in enumerate(path)) for i in range(tr.b)]
    return best, (PolyMatrix([u]) @ gen).entries[0], nodes


def full_refinement_isomorphisms(adj_a, adj_b, colours):
    """Individualisation-refinement that re-refines the whole union colouring at every node.

    Colours are relabelled each round by the sorted (colour, neighbour colours)
    signatures until their number stops growing; yields every colour- and
    adjacency-preserving map from A onto B once.
    """
    n = len(adj_a)
    union = list(adj_a) + [[n + u for u in nb] for nb in adj_b]
    target = [sorted(nb) for nb in adj_b]

    def refine(col):
        while True:
            sigs = [(c, tuple(sorted([col[u] for u in nb]))) for c, nb in zip(col, union)]
            order = {s: i for i, s in enumerate(sorted(set(sigs)))}
            if len(order) == len(set(col)):
                return col
            col = [order[s] for s in sigs]

    def search(col):
        col = refine(col)
        side_a, side_b = col[:n], col[n:]
        sorted_a = sorted(side_a)
        if sorted_a != sorted(side_b):
            return
        cell = next((c for c, d in zip(sorted_a, sorted_a[1:]) if c == d), None)
        if cell is None:
            where = {c: w for w, c in enumerate(side_b)}
            vmap = [where[c] for c in side_a]
            if all(sorted([vmap[u] for u in nb]) == target[vmap[v]]
                   for v, nb in enumerate(adj_a)):
                yield vmap
            return
        v = side_a.index(cell)
        fresh = max(col) + 1
        for w, c in enumerate(side_b):
            if c == cell:
                child = list(col)
                child[v] = child[n + w] = fresh
                yield from search(child)

    return search(list(colours) * 2)


def oracle_edge_automorphisms(g) -> list[list[int]]:
    """Edge maps of the bipartite graph's automorphisms, from ``full_refinement_isomorphisms``.

    A vertex map sends each group of parallel edges onto a group of the same
    size; every bijection between the two groups gives its own edge map.
    """
    n = g.n
    adj = [[] for _ in range(2 * n)]
    edge_index = {}
    for i, (a, b) in enumerate(g.edges):
        adj[a].append(n + b)
        adj[n + b].append(a)
        edge_index.setdefault((a, b), []).append(i)
    out = []
    for vmap in full_refinement_isomorphisms(adj, adj, [0] * (2 * n)):
        groups = []
        for (a, b), sources in edge_index.items():
            u, w = sorted((vmap[a], vmap[n + b]))
            images = edge_index[(u, w - n)]
            groups.append([list(zip(images, order)) for order in permutations(sources)])
        for choice in product(*groups):
            per = [0] * g.num_edges
            for image, source in chain.from_iterable(choice):
                per[image] = source
            out.append(per)
    return out


def oracle_equivalent_permutation_pairs(g, hc, perms):
    """Permutation pairs whose check rows one automorphism maps onto the other's.

    Tries every automorphism of ``oracle_edge_automorphisms`` on every
    permutation's rows, relabelling each row by a generator expression.
    """
    from wgc.woven import build_woven_conv

    rows = {perm: build_woven_conv(g, hc, perm).H_wg.entries for perm in perms}
    holders = {}
    for perm, r in rows.items():
        holders.setdefault(tuple(sorted(r)), []).append(perm)
    hits = {(pa, pb) for per in oracle_edge_automorphisms(g) for pa, r in rows.items()
            for pb in holders.get(tuple(sorted(tuple(row[j] for j in per) for row in r)), ())}
    return [pair for pair in combinations(perms, 2) if pair in hits]


# ---------------------------------------------------------------------------
# independent check-matrix assemblies, one per constituent kind, to compare
# with ``hypergraphs.route_checks``


def oracle_block_parity(g: Hypergraph, hc: BinaryMatrix, l: int, assignment) -> BinaryMatrix:
    """One constituent check block per vertex, l-bit blocks OR-ed in edge by edge."""
    block_mask = (1 << l) - 1
    blocks = [[(row >> (l * b)) & block_mask for b in range(g.c)] for row in hc.data]
    rows = []
    for p in range(g.s):
        for v in range(g.n):
            incident = [e for e, edge in enumerate(g.edges) if edge[p] == v]
            for i in range(hc.rows):
                bits = 0
                for slot, e in enumerate(incident):
                    bits |= blocks[i][assignment[p][v][slot]] << (l * e)
                rows.append(bits)
    return BinaryMatrix(rows, g.num_edges * l)


def oracle_woven_conv_parity(g: Hypergraph, hc: PolyMatrix, perm) -> PolyMatrix:
    """Bipartite woven H_wg: left rows take the checks in slot order, right rows
    the checks ``perm`` in the order of (left slot, edge label)."""
    seen: dict[int, int] = {}
    left_slot = []
    for e in g.edges:
        left_slot.append(seen.get(e[0], 0))
        seen[e[0]] = left_slot[-1] + 1
    t = [[row[q - 1] for q in perm] for row in hc.entries]
    rows = []
    for side, checks in ((0, hc.entries), (1, t)):
        for v in range(g.n):
            incident = [e for e, edge in enumerate(g.edges) if edge[side] == v]
            if side:
                incident.sort(key=lambda e: (left_slot[e], e))
            for check in checks:
                row = [0] * g.num_edges
                for slot, e in enumerate(incident):
                    row[e] = check[slot]
                rows.append(row)
    return PolyMatrix(rows)


# ---------------------------------------------------------------------------
# the ensemble exponents whose roots the bounds are, in plain float formulas


def entropy(x: float) -> float:
    return -x * log2(x) - (1 - x) * log2(1 - x)


def fhat(delta: float, rate: float, s: int) -> float:
    """Woven block ensemble exponent after optimizing the active fraction.

    Below the boundary 1 - 2^((R-1)/s) the optimizer is interior and the
    exponent is (1-s) h(delta) - delta s log2(2^((1-R)/s) - 1); from the
    boundary on it saturates at 1, giving h(delta) + R - 1.  Its root in
    delta is ``bounds.woven_vg_bound``.
    """
    if delta >= 1 - 2 ** ((rate - 1) / s):
        return entropy(delta) + rate - 1
    return (1 - s) * entropy(delta) - delta * s * log2(2 ** ((1 - rate) / s) - 1)


def costello_exponent(delta: float, rate: float) -> float:
    """Optimized free-distance ensemble exponent; its root is ``bounds.costello_delta``."""
    return -delta * log2(2 ** (1 - rate) - 1) - rate


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
