"""Linear block codes, graph codes, and woven graph codes with block constituents."""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .gf2 import BinaryMatrix, nullspace_basis, rank
from .hypergraphs import Hypergraph, sd_girth

if TYPE_CHECKING:
    from fractions import Fraction


class LinearBlockCode:
    """Block code given by a parity-check matrix; dependent checks allowed."""

    __slots__ = ("H", "n", "k")

    def __init__(self, H: BinaryMatrix):
        self.H = H
        self.n = H.cols
        self.k = H.cols - rank(H)

    def generator_matrix(self) -> BinaryMatrix:
        return nullspace_basis(self.H)

    @property
    def rate(self) -> Fraction:
        from fractions import Fraction  # only reports need it, so the import waits

        return Fraction(self.k, self.n)

    def syndrome(self, word: int) -> int:
        return self.H.mul_vec(word)

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

    def __int__(self) -> int:
        return self.value


def _information_sets(gen: BinaryMatrix) -> list[tuple[list[int], int]]:
    """Systematic generators on disjoint pivot columns, as (rows, rank) pairs.

    Each generator comes from eliminating ``gen`` on the columns no earlier
    generator pivots on; its first ``rank`` rows are the identity on its pivot
    columns, the other rows are zero on every column it could pivot on.  The
    list stops at the first generator of rank below k, left out if it is 0.
    """
    rows, used, sets = list(gen.data), 0, []
    while True:
        r = 0
        for col in range(gen.cols):
            bit = 1 << col
            if used & bit:
                continue
            piv = next((i for i in range(r, len(rows)) if rows[i] & bit), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            for i in range(len(rows)):
                if i != r and rows[i] & bit:
                    rows[i] ^= rows[r]
            used |= bit
            r += 1
        if r:
            sets.append((rows[:], r))
        if r < len(rows):
            return sets


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
    sets = _information_sets(code.generator_matrix())
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

Assignment = tuple[tuple[tuple[int, ...], ...], ...]


def identity_assignment(g: Hypergraph) -> Assignment:
    """Each vertex takes the constituent column blocks in incident-edge order."""
    return tuple(
        tuple(tuple(range(g.c)) for _ in range(g.n)) for _ in range(g.s)
    )


def _expanded_parity(g: Hypergraph, hc: BinaryMatrix, l: int,
                     assignment: Assignment) -> BinaryMatrix:
    """Stack one constituent check block per vertex, columns routed by the graph."""
    r = hc.rows
    block_mask = (1 << l) - 1
    blocks = [[(hc.data[i] >> (l * b)) & block_mask for b in range(g.c)] for i in range(r)]
    rows = []
    for p in range(g.s):
        for v in range(g.n):
            incident = g.incident_edges(p, v)
            order = assignment[p][v]
            if sorted(order) != list(range(g.c)):
                raise ValueError(f"assignment for partition {p} vertex {v} is not a permutation")
            for i in range(r):
                bits = 0
                for slot, e in enumerate(incident):
                    bits |= blocks[i][order[slot]] << (l * e)
                rows.append(bits)
    return BinaryMatrix(rows, g.num_edges * l)


def build_graph_code(g: Hypergraph, hc: BinaryMatrix,
                     assignment: Assignment | None = None) -> LinearBlockCode:
    """Graph-based code: one constituent check block per vertex, length n*c."""
    if hc.cols != g.c:
        raise ValueError(f"constituent has {hc.cols} columns, graph degree is {g.c}")
    assignment = assignment or identity_assignment(g)
    return LinearBlockCode(_expanded_parity(g, hc, 1, assignment))


class WovenBlockCode:
    """Graph code whose constituent blocks are l bits wide (length n*c*l)."""

    __slots__ = ("graph", "constituent", "structure", "assignment", "H_wg", "code")

    def __init__(self, graph: Hypergraph, constituent: LinearBlockCode,
                 structure: BlockStructure, assignment: Assignment):
        self.graph = graph
        self.constituent = constituent
        self.structure = structure
        self.assignment = assignment
        self.H_wg = _expanded_parity(graph, constituent.H, structure.l, assignment)
        self.code = LinearBlockCode(self.H_wg)

    @property
    def rate(self) -> Fraction:
        return self.code.rate

    def __repr__(self) -> str:
        return f"WovenBlockCode(n={self.code.n}, k={self.code.k})"


def build_woven_block(g: Hypergraph, constituent: LinearBlockCode,
                      structure: BlockStructure,
                      assignment: Assignment | None = None) -> WovenBlockCode:
    structure.check(constituent.n)
    if structure.c != g.c:
        raise ValueError(f"constituent has {structure.c} column blocks, graph degree is {g.c}")
    assignment = assignment or identity_assignment(g)
    return WovenBlockCode(g, constituent, structure, assignment)


# ---------------------------------------------------------------------------
# bounds


def product_distance_bound(g: Hypergraph, constituent: LinearBlockCode,
                           structure: BlockStructure,
                           depth: int | None = None) -> int:
    """Product-type estimate max(ceil(g_sd / c), s) * d_min of the constituent.

    ``g_sd`` is the compact-subgraph girth at ``depth``, which defaults to
    the constituent block distance.  The edge-count ratio is taken as a
    ceiling since edge counts are integers.

    When the measured block distance is below 2 the compact-subgraph
    argument has no bite; following the reference usage, the depth then
    falls back to the constituent minimum distance.  In that regime the
    value describes the intended construction but is not certified for
    every block assignment (routings that align two singular blocks on one
    edge can go lower), so compare against a measured distance.
    """
    structure.check(constituent.n)
    if depth is None:
        depth = block_distance(constituent, structure)
        if depth < 2:
            depth = min_distance(constituent).value
    if depth < 2:
        raise ValueError("need compactness depth at least 2")
    g_sd = sd_girth(g, depth)
    if g_sd is None:
        raise ValueError(f"no compact subgraph of depth {depth}")
    d_c = min_distance(constituent).value
    return max(-(-g_sd // g.c), g.s) * d_c


def rate_bound(g: Hypergraph, rc: Fraction) -> Fraction:
    """Rate guarantee s*(Rc - 1) + 1 for constituent rate Rc; may be <= 0."""
    if not 0 < rc <= 1:
        raise ValueError("constituent rate must be in (0, 1]")
    return g.s * (rc - 1) + 1


# ---------------------------------------------------------------------------
# reporting


def code_report(name: str, code: LinearBlockCode, est: DistanceEstimate,
                extras: dict | None = None) -> dict:
    rep = {
        "name": name,
        "n": code.n,
        "k": code.k,
        "d_min": est.value,
        "d_exact": est.exact,
        "d_floor": est.floor,
    }
    if extras:
        rep.update(extras)
    return rep


def report_text(rep: dict) -> str:
    return "\n".join(f"{k}={v}" for k, v in rep.items()) + "\n"


def report_csv(reps: Sequence[dict]) -> str:
    if not reps:
        return "\n"
    keys = list(reps[0].keys())
    lines = [",".join(keys)]
    for rep in reps:
        lines.append(",".join(str(rep.get(k, "")) for k in keys))
    return "\n".join(lines) + "\n"
