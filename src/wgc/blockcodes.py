"""Linear block codes, graph codes, and woven graph codes with block constituents.

Check rows are routed by ``hypergraphs.route_checks``, the minimum distance
searches systematic generators that ``gf2._eliminate`` builds, and the
product bound on a woven block code is certified for every graph, block
assignment and number of parts.  The module computes numbers only; their
key=value and CSV reports are written by ``cli``.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import TYPE_CHECKING, NamedTuple

from .gf2 import BinaryMatrix, _eliminate, nullspace_basis, rank
from .hypergraphs import Assignment, Hypergraph, identity_assignment, route_checks, sd_girth

if TYPE_CHECKING:
    from fractions import Fraction


class LinearBlockCode:
    """Block code given by a parity-check matrix; dependent checks allowed."""

    __slots__ = ("H", "n", "k")

    def __init__(self, H: BinaryMatrix):
        self.H = H
        self.n = H.cols
        self.k = H.cols - rank(H)

    @property
    def rate(self) -> Fraction:
        from fractions import Fraction  # only reports need it, so the import waits

        return Fraction(self.k, self.n)

    def __repr__(self) -> str:
        return f"LinearBlockCode(n={self.n}, k={self.k})"


class BlockStructure(NamedTuple):
    """Codeword seen as ``c`` sub-blocks of length ``l``."""

    l: int
    c: int

    def check(self, n: int) -> None:
        if self.l < 1 or self.c < 1:
            raise ValueError(f"block structure {self.l}x{self.c} needs l >= 1 and c >= 1")
        if self.l * self.c != n:
            raise ValueError(f"block structure {self.l}x{self.c} does not tile length {n}")


class DistanceEstimate(NamedTuple):
    """Minimum-distance answer with its proof status.

    ``value`` is the weight of a codeword found (an upper bound), ``floor`` a
    certified lower bound, and ``exact`` means value == floor.
    """

    value: int
    floor: int
    exact: bool


def _information_sets(gen: BinaryMatrix) -> list[tuple[list[int], int]]:
    """Systematic generators on disjoint pivot columns, as (rows, rank) pairs.

    Each generator comes from eliminating ``gen`` on the columns no earlier
    generator pivots on; its first ``rank`` rows are the identity on its pivot
    columns, the other rows are zero on every column it could pivot on.  The
    list stops at the first generator of rank below k, left out if it is 0.
    """
    used, sets = 0, []
    while True:
        rows, pivots = _eliminate(gen, used)
        if pivots:
            sets.append((rows, len(pivots)))
        if len(pivots) < len(rows):
            return sets
        gen = BinaryMatrix(rows, gen.cols)
        used |= sum(1 << col for col in pivots)


def _lightest_combination(rows: list[int], w: int) -> int:
    """Lowest weight among the XORs of ``w`` distinct rows.

    Combinations come in ``itertools.combinations`` order; the XOR of each
    prefix of w - 1 rows is formed once and only the last row varies.
    """
    tails = [rows[i:] for i in range(len(rows))]
    best = 1 << 62
    for prefix in combinations(range(len(rows) - 1), w - 1):
        acc = 0
        for i in prefix:
            acc ^= rows[i]
        tail = tails[prefix[-1] + 1] if prefix else rows
        best = min(best, min(map(int.bit_count, map(acc.__xor__, tail))))
    return best


def min_distance(code: LinearBlockCode, *, full_enum_limit: int = 26) -> DistanceEstimate:
    """Minimum distance by the Brouwer-Zimmermann algorithm.

    (Surveyed in M. Grassl, "Searching for linear codes with large minimum
    distance", 2006.)  The generator is made systematic on disjoint column
    sets (``_information_sets``); round w scores the XOR of every w rows of
    each systematic generator Gamma_j of rank r_j.  A codeword not yet scored
    through Gamma_j has at least w + 1 - (k - r_j) ones on its pivot columns,
    so once every generator has finished round w the sum over j of
    max(0, w + 1 - (k - r_j)) is a certified floor; the search stops when the
    floor meets the lightest word scored.  Before round 1 the floor counts
    the full-rank generators and the value is the lightest row of the first.

    ``full_enum_limit`` is a budget of 2^full_enum_limit scored words: a
    generator's round that would pass it is not started, and the result then
    carries the floor of the rounds finished, with ``exact`` False unless
    the two meet.
    """
    if code.k <= 0:
        raise ValueError("zero-dimension code has no minimum distance")
    if full_enum_limit < 0:
        raise ValueError(f"full_enum_limit must be >= 0, got {full_enum_limit}")
    k, budget, scored = code.k, 1 << full_enum_limit, 0
    sets = _information_sets(nullspace_basis(code.H))
    done = [0] * len(sets)  # rounds each generator has finished
    best = min(row.bit_count() for row in sets[0][0])

    def floor() -> int:
        return min(best, sum(max(0, w + 1 - (k - r)) for (_, r), w in zip(sets, done)))

    for w in range(1, k + 1):
        for j, (rows, _) in enumerate(sets):
            if floor() == best:
                return DistanceEstimate(best, best, True)
            scored += comb(k, w)
            if scored > budget:
                return DistanceEstimate(best, floor(), False)
            best = min(best, _lightest_combination(rows, w))
            done[j] = w
    # round k of the first generator scored every nonzero codeword
    return DistanceEstimate(best, best, True)


def block_distance(code: LinearBlockCode, bs: BlockStructure) -> int:
    """Minimum number of nonzero length-l sub-blocks over nonzero codewords.

    A nonzero codeword lives on a set of sub-blocks exactly when the H
    columns of those sub-blocks are dependent, so the answer is the least
    number of sub-blocks whose columns have rank below their count.
    """
    bs.check(code.n)
    if code.k <= 0:
        raise ValueError("zero-dimension code has no block distance")
    cols = code.H.transpose().data
    for size in range(1, bs.c + 1):
        for subset in combinations(range(bs.c), size):
            sub = [col for b in subset for col in cols[b * bs.l:(b + 1) * bs.l]]
            if rank(BinaryMatrix(sub, code.H.rows)) < size * bs.l:
                return size
    raise AssertionError("unreachable: the full support carries every codeword")


# ---------------------------------------------------------------------------
# graph codes and woven graph codes with block constituents


def _routed_code(g: Hypergraph, hc: BinaryMatrix, l: int,
                 assignment: Assignment | None) -> LinearBlockCode:
    """The code whose checks route hc's l-bit column blocks onto g's edges (length n*c*l)."""
    mask = (1 << l) - 1
    checks = [[row >> (l * b) & mask for b in range(g.c)] for row in hc.data]
    routed = route_checks(g, checks, assignment or identity_assignment(g))
    return LinearBlockCode(BinaryMatrix(
        (sum(block << (l * e) for e, block in enumerate(row)) for row in routed),
        g.num_edges * l))


def build_graph_code(g: Hypergraph, hc: BinaryMatrix,
                     assignment: Assignment | None = None) -> LinearBlockCode:
    """Graph-based code: one constituent check block per vertex, length n*c."""
    if hc.cols != g.c:
        raise ValueError(f"constituent has {hc.cols} columns, graph degree is {g.c}")
    return _routed_code(g, hc, 1, assignment)


def build_woven_block(g: Hypergraph, constituent: LinearBlockCode,
                      structure: BlockStructure,
                      assignment: Assignment | None = None) -> LinearBlockCode:
    """Woven graph code whose constituent blocks are l bits wide (length n*c*l)."""
    structure.check(constituent.n)
    if structure.c != g.c:
        raise ValueError(f"constituent has {structure.c} column blocks, graph degree is {g.c}")
    return _routed_code(g, constituent.H, structure.l, assignment)


# ---------------------------------------------------------------------------
# bounds


def product_distance_bound(g: Hypergraph, constituent: LinearBlockCode,
                           structure: BlockStructure) -> int:
    """Certified lower bound ceil(g_sd / c) * d_c on the woven block code's distance.

    The nonzero sub-blocks of a nonzero codeword mark its active edges, and
    every vertex they touch carries a nonzero constituent word, so it meets
    at least d_block of them (the constituent block distance).  With
    d_block >= 2 each component of the active edges is a compact subgraph of
    depth d_block, with at least g_sd = sd_girth(g, d_block) edges.  Every
    edge has one vertex in each part and a vertex has c edges, so each part
    holds at least ceil(g_sd / c) active vertices, each of weight at least
    d_c, the certified floor of the constituent minimum distance.  Below
    d_block 2 only the one active vertex is certain, and the bound is d_c.
    """
    structure.check(constituent.n)
    if structure.c != g.c:
        raise ValueError(f"constituent has {structure.c} column blocks, graph degree is {g.c}")
    d_c = min_distance(constituent).floor
    d_block = block_distance(constituent, structure)
    if d_block < 2:
        return d_c
    # d_block <= c, so every component of g is compact and sd_girth finds one
    return -(-sd_girth(g, d_block) // g.c) * d_c


def rate_bound(g: Hypergraph, rc: Fraction) -> Fraction:
    """Rate guarantee s*(Rc - 1) + 1 for constituent rate Rc; may be <= 0."""
    if not 0 < rc <= 1:
        raise ValueError("constituent rate must be in (0, 1]")
    return g.s * (rc - 1) + 1

