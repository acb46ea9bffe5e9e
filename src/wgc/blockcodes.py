"""Linear block codes, graph codes, and woven graph codes with block constituents."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Sequence

from .gf2 import BinaryMatrix, nullspace_basis, rank
from .hypergraphs import Hypergraph, sd_girth


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
        return Fraction(self.k, self.n)

    def syndrome(self, word: int) -> int:
        return self.H.mul_vec(word)

    def __repr__(self) -> str:
        return f"LinearBlockCode(n={self.n}, k={self.k})"


@dataclass(frozen=True)
class BlockStructure:
    """Codeword seen as ``c`` sub-blocks of length ``l``."""

    l: int
    c: int

    def check(self, n: int) -> None:
        if self.l < 1 or self.c < 1:
            raise ValueError(f"block structure {self.l}x{self.c} needs l >= 1 and c >= 1")
        if self.l * self.c != n:
            raise ValueError(f"block structure {self.l}x{self.c} does not tile length {n}")


@dataclass(frozen=True)
class DistanceEstimate:
    """Minimum-distance answer; ``exact`` means value == certified floor."""

    value: int
    floor: int
    exact: bool

    def __int__(self) -> int:
        return self.value


def _codeword_iter(basis: Sequence[int]):
    """All nonzero codewords by Gray-code XOR of basis rows."""
    word = 0
    prev = 0
    for m in range(1, 1 << len(basis)):
        g = m ^ (m >> 1)
        diff = g ^ prev
        prev = g
        word ^= basis[(diff & -diff).bit_length() - 1]
        yield word


def min_distance(code: LinearBlockCode, *, full_enum_limit: int = 26,
                 floor_weight_limit: int = 4, sample_iters: int = 400,
                 seed: int = 0) -> DistanceEstimate:
    """Minimum distance, exact by full enumeration up to 2^full_enum_limit words.

    Beyond the enumeration budget the result is an (upper bound, certified
    floor) pair: the upper bound comes from randomized information sets, the
    floor from exhaustively ruling out low-weight column dependencies; the
    first weight with a dependency (a codeword's support) is exact.
    """
    if code.k <= 0:
        raise ValueError("zero-dimension code has no minimum distance")
    basis = list(code.generator_matrix().data)
    if code.k <= full_enum_limit:
        best = min(w.bit_count() for w in _codeword_iter(basis))
        return DistanceEstimate(best, best, True)

    rng = random.Random(seed)
    best = min(b.bit_count() for b in basis)
    n = code.n
    for _ in range(sample_iters):
        # random full-rank recombination, keep light rows
        rows = basis[:]
        rng.shuffle(rows)
        acc = 0
        for r in rows[: rng.randrange(2, min(6, len(rows)) + 1)]:
            acc ^= r
        if acc:
            best = min(best, acc.bit_count())
    floor = 1
    cols = code.H.transpose().data
    for t in range(1, floor_weight_limit + 1):
        if _has_dependent_columns(cols, t):
            best = min(best, t)
            break
        floor = t + 1
    floor = min(floor, best)
    return DistanceEstimate(best, floor, floor == best)


def _has_dependent_columns(cols: Sequence[int], t: int) -> bool:
    """True when some t columns XOR to zero (weight-t codeword exists)."""
    from itertools import combinations

    for combo in combinations(range(len(cols)), t):
        acc = 0
        for j in combo:
            acc ^= cols[j]
        if acc == 0:
            return True
    return False


def block_distance(code: LinearBlockCode, bs: BlockStructure, *,
                   full_enum_limit: int = 26) -> int:
    """Minimum number of nonzero length-l sub-blocks over nonzero codewords."""
    bs.check(code.n)
    if code.k <= 0:
        raise ValueError("zero-dimension code has no block distance")
    if code.k > full_enum_limit:
        raise ValueError(f"dimension {code.k} exceeds the enumeration budget")
    basis = list(code.generator_matrix().data)
    mask = (1 << bs.l) - 1
    best = bs.c + 1
    for w in _codeword_iter(basis):
        blocks = 0
        v = w
        while v:
            if v & mask:
                blocks += 1
            v >>= bs.l
        if 0 < blocks < best:
            best = blocks
    return best


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


def girth_distance_check(g: Hypergraph, constituent: LinearBlockCode,
                         **dist_kwargs) -> tuple[int | None, int]:
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
    actual = min_distance(code, **dist_kwargs).value
    return predicted, actual


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
    return max(ceil(Fraction(g_sd, g.c)), g.s) * d_c


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
