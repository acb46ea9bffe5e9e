"""Convolutional codes in polynomial form: distances, subcodes, derived block codes."""

from __future__ import annotations

import heapq
from itertools import combinations, product

from .gf2 import (
    BinaryMatrix,
    BinaryPoly,
    PolyMatrix,
    kernel_basis,
    nullspace_basis,
    poly_gcd,
    rank_over_rational_field,
    row_reduce,
    tailbite,
)
from .blockcodes import LinearBlockCode


class CatastrophicEncoderError(ValueError):
    """A zero-weight loop through nonzero states was found."""


class ConvCode:
    """Rate b/c convolutional code with generator and/or parity polynomial form."""

    __slots__ = ("G", "H", "b", "c")

    def __init__(self, G: PolyMatrix | None = None, H: PolyMatrix | None = None):
        if G is None and H is None:
            raise ValueError("need a generator or a parity-check matrix")
        if G is not None and H is not None:
            if G.cols != H.cols:
                raise ValueError("generator and parity-check column counts differ")
            if not (G @ H.transpose()).is_zero():
                raise ValueError("generator and parity-check are not orthogonal")
        self.G = G
        self.H = H
        self.c = G.cols if G is not None else H.cols
        self.b = G.rows if G is not None else self.c - H.rows

    @classmethod
    def from_generator(cls, G: PolyMatrix) -> "ConvCode":
        return cls(G=G)

    @classmethod
    def from_parity(cls, H: PolyMatrix) -> "ConvCode":
        return cls(H=H)

    @property
    def memory(self) -> int:
        """Largest entry degree of the generator (parity form if no generator)."""
        return self.G.memory if self.G is not None else self.H.memory

    @property
    def nu(self) -> int:
        """Overall constraint length: sum of generator row degrees."""
        if self.G is None:
            raise ValueError("overall constraint length needs the generator form")
        return self.G.constraint_length

    def with_generator(self) -> "ConvCode":
        """Same code with a generator derived from the parity-check matrix."""
        if self.G is not None:
            return self
        basis = kernel_basis(self.H)
        if basis.rows == 0:
            raise ValueError("parity-check matrix has a trivial nullspace")
        return ConvCode(G=row_reduce(basis), H=self.H)

    def with_parity(self) -> "ConvCode":
        """Same code with a parity-check matrix derived from the generator.

        The check module {h : G h^T = 0} is exactly the polynomial kernel
        of G, reduced to a minimal-basic form.
        """
        if self.H is not None:
            return self
        checks = kernel_basis(self.G)
        return ConvCode(G=self.G, H=row_reduce(checks) if checks.rows else None)

    def __repr__(self) -> str:
        return f"ConvCode(b={self.b}, c={self.c}, memory={self.memory})"


# ---------------------------------------------------------------------------
# trellis machinery


class _Trellis:
    """Shift-register state space of a polynomial generator matrix."""

    def __init__(self, G: PolyMatrix):
        self.b = G.rows
        self.c = G.cols
        grid = G.bits()
        self.row_degs = [max((p.bit_length() - 1 for p in row if p), default=0)
                         for row in grid]
        self.nu = sum(self.row_degs)
        self.taps = grid
        self.inputs = [u for u in product((0, 1), repeat=self.b)]

    def step(self, state: tuple[int, ...], u: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        """One time step; returns (next state, output weight)."""
        hists = []
        nxt = []
        for i in range(self.b):
            hist = (state[i] << 1) | u[i]
            hists.append(hist)
            nxt.append(hist & ((1 << self.row_degs[i]) - 1))
        out = 0
        for j in range(self.c):
            bit = 0
            for i in range(self.b):
                bit ^= (self.taps[i][j] & hists[i]).bit_count() & 1
            out |= bit << j
        return tuple(nxt), out.bit_count()

    @property
    def zero(self) -> tuple[int, ...]:
        return tuple(0 for _ in range(self.b))


def _generator_of(code: ConvCode) -> PolyMatrix:
    return code.with_generator().G


def _transition_table(tr: _Trellis):
    """Reachable states and their (next-state index, branch weight) lists."""
    zero = tr.zero
    states = [zero]
    index = {zero: 0}
    rows: list[list[tuple[int, int]]] = []
    i = 0
    while i < len(states):
        st = states[i]
        outs = []
        for u in tr.inputs:
            nxt, w = tr.step(st, u)
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
            outs.append((index[nxt], w))
        rows.append(outs)
        i += 1
    return states, rows


def _check_noncatastrophic(rows: list[list[tuple[int, int]]]) -> None:
    zero_edges: dict[int, list[int]] = {}
    for s in range(1, len(rows)):
        for nxt, w in rows[s]:
            if w == 0 and nxt != 0:
                zero_edges.setdefault(s, []).append(nxt)
    _topo_order(len(rows), zero_edges)


def free_distance(code: ConvCode, *, max_constraint: int = 24) -> int:
    """Exact free distance by lowest-weight search over the encoder state graph.

    The zero state is start and goal but never an interior vertex, so the
    result is the weight of the lightest nonzero diverge/remerge loop.
    Zero-weight loops through nonzero states abort with
    CatastrophicEncoderError before the search.
    """
    tr = _Trellis(_generator_of(code))
    if tr.nu > max_constraint:
        raise ValueError(
            f"constraint length {tr.nu} exceeds the exact-search budget {max_constraint}")
    states, rows = _transition_table(tr)
    _check_noncatastrophic(rows)
    heap: list[tuple[int, int]] = []
    for (nxt, w), u in zip(rows[0], tr.inputs):
        if any(u):
            heapq.heappush(heap, (w, nxt))
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


def spectrum(code: ConvCode, depth: int, *, max_constraint: int = 24) -> dict[int, int]:
    """Counts of first-event paths by weight, from the free distance up.

    Paths diverge from the zero state once and remerge once.  Zero-weight
    transitions between nonzero states are required to be acyclic, which is
    the non-catastrophic condition checked up front.
    """
    d_free = free_distance(code, max_constraint=max_constraint)
    w_max = d_free + depth
    tr = _Trellis(_generator_of(code))
    states, rows = _transition_table(tr)

    # counts[s][w] = number of partial paths reaching state s with weight w
    counts = [[0] * (w_max + 1) for _ in states]
    arrived = [0] * (w_max + 1)
    for (nxt, w), u in zip(rows[0], tr.inputs):
        if any(u) and w <= w_max:
            if nxt == 0:
                arrived[w] += 1
            else:
                counts[nxt][w] += 1

    zero_edges: dict[int, list[int]] = {}
    for s in range(1, len(states)):
        for nxt, w in rows[s]:
            if w == 0 and nxt != 0:
                zero_edges.setdefault(s, []).append(nxt)
    order = _topo_order(len(states), zero_edges)

    for w in range(w_max + 1):
        for s in order:
            cnt = counts[s][w]
            if not cnt:
                continue
            for nxt, bw in rows[s]:
                if w + bw > w_max:
                    continue
                if nxt == 0:
                    arrived[w + bw] += cnt
                elif bw == 0:
                    counts[nxt][w] += cnt
                else:
                    counts[nxt][w + bw] += cnt
            counts[s][w] = 0
    return {w: arrived[w] for w in range(d_free, w_max + 1)}


def _topo_order(n: int, edges: dict[int, list[int]]) -> list[int]:
    indeg = [0] * n
    for s, outs in edges.items():
        for t in outs:
            indeg[t] += 1
    ready = [s for s in range(1, n) if indeg[s] == 0]
    order = []
    while ready:
        s = ready.pop()
        order.append(s)
        for t in edges.get(s, ()):
            indeg[t] -= 1
            if indeg[t] == 0:
                ready.append(t)
    if len(order) != n - 1:
        raise CatastrophicEncoderError("zero-weight cycle through nonzero states")
    return order


# ---------------------------------------------------------------------------
# block distance over the rational field


def block_distance_conv(code: ConvCode) -> int:
    """Smallest coordinate support carrying a nonzero codeword.

    A nonzero codeword lives on support S exactly when the parity columns
    indexed by S are rank deficient over GF(2)(D).
    """
    h = code.with_parity().H
    if h is None:
        raise ValueError("code has no redundancy; block distance undefined")
    cols = h.transpose().entries
    for size in range(1, code.c + 1):
        for subset in combinations(range(code.c), size):
            sub = PolyMatrix([cols[j] for j in subset]).transpose()
            if rank_over_rational_field(sub) < size:
                return size
    raise AssertionError("unreachable: full support always carries codewords")


def rate_half_subcodes(code: ConvCode) -> list[ConvCode]:
    """The three rate-1/2 subcodes of a c=3, single-check code.

    For each coordinate pair {i, j} the codewords supported there are the
    multiples of (h_j, h_i) divided by the pair gcd; the returned codes are
    embedded so their codewords satisfy the parent parity-check matrix.
    """
    if code.c != 3:
        raise ValueError("rate-1/2 subcode extraction needs c = 3")
    h = code.with_parity().H
    if h is None or h.rows != 1:
        raise ValueError("need a single-row parity-check matrix")
    hp = h.entries[0]
    out = []
    for i, j in combinations(range(3), 2):
        g = poly_gcd(hp[i], hp[j]) or BinaryPoly(1)
        row = [BinaryPoly(0)] * 3
        row[i] = hp[j] // g
        row[j] = hp[i] // g
        out.append(ConvCode(G=PolyMatrix([row]), H=h))
    return out


# ---------------------------------------------------------------------------
# derived block codes


def zt_block_code(code: ConvCode, l: int) -> LinearBlockCode:
    """Zero-tail terminated block code with l information levels.

    The length is (l + m) c where m is the largest entry degree over the
    stored matrices, so parity-only constructions keep their natural frame.
    """
    if l < 0:
        raise ValueError("information length must be nonnegative")
    gen = _generator_of(code)
    tail = max(gen.memory, code.H.memory if code.H is not None else 0)
    n = (l + tail) * code.c
    if l == 0:
        return LinearBlockCode(BinaryMatrix.identity(n))
    # every degree is at most tail, so the first l levels never wrap
    rows = tailbite(gen, l + tail).data[:l * gen.rows]
    return LinearBlockCode(nullspace_basis(BinaryMatrix(rows, n)))


def tb_block_code(code: ConvCode, length: int) -> LinearBlockCode:
    """Tailbitten block code: parity-check matrix wrapped at ``length`` levels.

    Wrapped checks can become dependent, in which case the code is larger
    than the span of the wrapped encoder; see tb_encoder_code for that span.
    """
    h = code.with_parity().H
    if h is None:
        raise ValueError("tailbiting the parity form needs redundancy")
    return LinearBlockCode(tailbite(h, length))


def tb_encoder_code(code: ConvCode, length: int) -> LinearBlockCode:
    """Block code spanned by the wrapped generator rows (dimension b * length)."""
    gen = _generator_of(code)
    wrapped = tailbite(gen, length, -1)
    return LinearBlockCode(nullspace_basis(wrapped))
