"""Woven graph codes with convolutional constituents.

Each vertex of each of the s parts of the hypergraph holds one row block:
the constituent checks, routed by ``hypergraphs.route_checks`` along its
edges, in column order on part 0 and permuted on the later parts.  On circulant
bipartite graphs the code also has a raw generator built from the pairwise
products of the check polynomials: one row per left vertex, each row the one
before it rotated by a column block.  The minimal generator is
``gf2.minimal_kernel`` of H_wg, and the distance bounds, derived for
bipartite graphs, read only the graph and the constituent check row.
"""

from __future__ import annotations

from itertools import accumulate, combinations, permutations
from typing import NamedTuple

from .gf2 import PolyMatrix, clmul, minimal_kernel, permutation_equivalent
from .convcodes import block_distance_conv, free_distance, lightest_codeword
from .hypergraphs import Assignment, Hypergraph, girth, identity_assignment, route_checks


class StructureError(ValueError):
    """The graph lacks the structure an operation requires."""


# ---------------------------------------------------------------------------
# assembly


class WovenConvCode:
    """Woven graph code: an s-partite hypergraph plus a permuted convolutional check row.

    Every vertex of each of the s parts carries one row block, the
    constituent checks routed along its edges by ``hypergraphs.route_checks``.
    A vertex of part 0 takes the checks in column order.  A vertex of a later
    part ranks its edges by (part-0 slot, edge label), and its edge of rank k
    takes check ``perm[k]``.

    The artefacts derived from the code are computed on first use and kept:
    the raw wrapped pairwise-product generator (``expanded_generator``), the
    minimal generator (``minimal_generator``) and the encoder's plan, row 0 of
    the raw generator by column block (``encode_stream``).
    """

    def __init__(self, graph: Hypergraph, hc: PolyMatrix, perm: tuple[int, ...]):
        if hc.cols != graph.c:
            raise ValueError(f"check row has {hc.cols} columns, graph degree is {graph.c}")
        if sorted(perm) != list(range(1, graph.c + 1)):
            raise ValueError(f"perm must rearrange 1..{graph.c}, got {perm}")
        self.graph = graph
        self.hc = hc
        self.perm = tuple(perm)
        self.n = graph.n
        self.c = graph.c
        self.H_wg = PolyMatrix(route_checks(graph, hc.entries, self._slot_orders()),
                               graph.num_edges)
        self._expanded: PolyMatrix | None = None
        self._minimal: PolyMatrix | None = None
        self._plan: list[tuple[int, list[tuple[int, int]]]] | None = None

    # t-row polynomials: column slot j of the left blocks carries check j on
    # the left and check perm[j] on the right
    def t_polys(self) -> list[list[int]]:
        return [[self.hc.entries[i][p - 1] for p in self.perm] for i in range(self.hc.rows)]

    def _slot_orders(self) -> Assignment:
        g = self.graph
        seen = [0] * g.n
        left_slot = []
        for e in g.edges:
            left_slot.append(seen[e[0]])
            seen[e[0]] += 1
        orders = [identity_assignment(g)[0]]
        for p in range(1, g.s):
            slots: list[list[int]] = [[] for _ in range(g.n)]
            for e, edge in enumerate(g.edges):
                slots[edge[p]].append(left_slot[e])
            part = []
            for vertex_slots in slots:
                order = [0] * g.c
                # a stable sort of the label-ordered edges breaks ties by label
                for rank, k in enumerate(sorted(range(g.c), key=vertex_slots.__getitem__)):
                    order[k] = self.perm[rank] - 1
                part.append(tuple(order))
            orders.append(tuple(part))
        return tuple(orders)

    # -- circulant structure ----------------------------------------------

    def z_offsets(self) -> tuple[int, ...] | None:
        """Per-slot left-block offsets when the graph is circulant and bipartite, else None.

        Requires edge j to belong to left vertex j // c, in slot j mod c, and
        every edge of a slot to join a left vertex u to the right vertex u - o
        mod n for one offset o per slot; each right vertex then sees each slot
        exactly once.
        """
        g = self.graph
        if g.s != 2 or any(e[0] != i // g.c for i, e in enumerate(g.edges)):
            return None
        offsets: list[set[int]] = [set() for _ in range(g.c)]
        for i, (left, right) in enumerate(g.edges):
            offsets[i % g.c].add((left - right) % g.n)
        if any(len(o) != 1 for o in offsets):
            return None
        return tuple(o.pop() for o in offsets)

    def __repr__(self) -> str:
        return f"WovenConvCode(n={self.n}, c={self.c}, perm={self.perm})"


def build_woven_conv(g: Hypergraph, hc: PolyMatrix,
                     perm: tuple[int, ...] | None = None) -> WovenConvCode:
    perm = perm or tuple(range(1, g.c + 1))
    return WovenConvCode(g, hc, tuple(perm))


# ---------------------------------------------------------------------------
# generators


def expanded_generator(code: WovenConvCode) -> PolyMatrix:
    """Raw generator of a circulant code: the pairwise products of its checks, wrapped.

    Defined on circulant bipartite graphs of degree 3, with slot offsets
    0, o2, o3 and one check row h1 h2 h3, permuted to t1 t2 t3.  Row 0 is the
    XOR of six (column j, Z-exponent z, product) terms: (0, o2, h3 t2),
    (0, o3, h2 t3), (1, 0, h3 t1), (1, o3, h1 t3), (2, 0, h2 t1) and
    (2, o2, h1 t2); every product meets its twin in each check row of H_wg.
    Row 0 XORs each product into column ((o3 - z) mod n) * 3 + j, and row r is
    row 0 rotated by r column blocks.  Built and checked against H_wg once per
    code, then kept on it.
    """
    if code._expanded is not None:
        return code._expanded
    offsets = code.z_offsets()
    if offsets is None:
        raise StructureError("graph is not circulant; no raw generator")
    if code.hc.rows != 1 or code.c != 3:
        raise StructureError("raw generator implemented for one check row, degree 3")
    if offsets[0] != 0:
        raise StructureError("expected the first slot to have offset zero")
    h1, h2, h3 = code.hc.entries[0]
    t1, t2, t3 = code.t_polys()[0]
    _, o2, o3 = offsets
    terms = [(0, o2, clmul(h3, t2)), (0, o3, clmul(h2, t3)), (1, 0, clmul(h3, t1)),
             (1, o3, clmul(h1, t3)), (2, 0, clmul(h2, t1)), (2, o2, clmul(h1, t2))]
    n = code.n
    row0 = [0] * (3 * n)
    for j, z, product in terms:
        row0[(o3 - z) % n * 3 + j] ^= product
    gen = PolyMatrix([row0[3 * (n - r):] + row0[:3 * (n - r)] for r in range(n)])
    syndrome = gen @ code.H_wg.transpose()
    if not syndrome.is_zero():
        raise AssertionError("expanded generator failed the parity check")
    code._expanded = gen
    return gen


class GeneratorReport(NamedTuple):
    nu_raw: int | None
    nu_minimal: int
    code_dimension: int


def minimal_generator(code: WovenConvCode) -> PolyMatrix:
    """Minimal-basic generator of the full code: ``minimal_kernel`` of H_wg, kept on the code."""
    if code._minimal is None:
        code._minimal = minimal_kernel(code.H_wg)
    return code._minimal


def generator_report(code: WovenConvCode) -> GeneratorReport:
    """Constraint lengths of the raw and minimal generators and the code's dimension.

    ``nu_raw`` is None where the graph is not circulant and so has no raw generator.
    """
    try:
        nu_raw = expanded_generator(code).constraint_length
    except StructureError:
        nu_raw = None
    minimal = minimal_generator(code)
    return GeneratorReport(nu_raw, minimal.constraint_length, minimal.rows)


# ---------------------------------------------------------------------------
# distance bounds


def subcode_free_distance(hc: PolyMatrix) -> int:
    """Least free distance of the rate-1/2 subcodes, the codes that pairs of hc's entries check."""
    return min(free_distance(PolyMatrix([pair])) for pair in combinations(hc.entries[0], 2))


def distance_bounds(g: Hypergraph, hc: PolyMatrix) -> tuple[int, int | None]:
    """(product, improved) lower bounds on the free distance of the woven codes of g and hc.

    Bipartite product bound: girth/2 times the constituent free distance,
    since the active constituents of a codeword hold a cycle, which has at
    least girth/2 vertices on each side: one where parallel edges give girth 2.
    Below constituent block distance 2 an active constituent need not close a
    cycle, and the product bound is the constituent free distance alone.
    The improved bound splits codewords by constituent support: fully
    block-weight-2 words live in the rate-1/2 subcodes, the codes of the
    check pairs, and activate at least girth/2 constituents; anything else
    activates one more constituent at full free distance.  The improved bound is None unless the
    constituent has block distance 2, c = 3 and one check row.  The check
    permutation plays no part.  A check row whose width is not the graph
    degree is a ValueError first; both bounds are derived for bipartite
    graphs only, so any other s is a ``StructureError``.
    """
    if hc.cols != g.c:
        raise ValueError(f"check row has {hc.cols} columns, graph degree is {g.c}")
    if g.s != 2:
        raise StructureError(f"distance bounds are derived for bipartite graphs, got s={g.s}")
    d_free_c = free_distance(hc)
    d_block = block_distance_conv(hc)
    if d_block < 2:
        return d_free_c, None
    graph_girth = girth(g)
    if graph_girth is None:
        raise StructureError("acyclic graph has no product bound")
    active = graph_girth // 2
    improved: int | None = None
    if d_block == 2 and g.c == 3 and hc.rows == 1:
        improved = min(active * subcode_free_distance(hc), (active + 1) * d_free_c)
    return active * d_free_c, improved


# ---------------------------------------------------------------------------
# witness search


# limits of witness_search: rows per combination and D-shift per row in the
# enumeration; the largest constraint length the exact pass takes on, which
# caps the 2^nu states it could reach, and the states it may expand
_MAX_TERMS = 3
_MAX_SHIFT = 12
_EXACT_NU = 20
_EXACT_NODES = 200_000


class WitnessResult(NamedTuple):
    weight: int
    word: tuple[int, ...]
    exact: bool
    nodes_expanded: int
    words_enumerated: int


def _family_rows(code: WovenConvCode) -> list[tuple[int, ...]]:
    rows = list(minimal_generator(code).entries)
    try:
        raw = expanded_generator(code).entries
    except StructureError:
        raw = []
    for row in raw:
        if row not in rows:
            rows.append(row)
    return rows


def _enumerate(code: WovenConvCode, max_terms: int, max_shift: int
               ) -> tuple[int, tuple[int, ...], int]:
    """Lightest combination of D-shifted generator rows: (weight, word, words enumerated).

    A combination has at most ``max_terms`` terms, each shifted by at most
    ``max_shift``, and some term uses shift zero.  A word is one int holding
    column ``j`` at bit offset ``j * stride``, ``stride`` being the widest
    row entry plus ``max_shift``, so a D-shift is one ``<<``, a combination
    one ``^`` and a weight one ``bit_count``.  Combinations come in
    ``itertools.combinations`` order (by size, then lexicographic), each
    prefix XOR ``acc`` is formed once, and the first word of the lowest
    positive weight wins.

    Since wt(a ^ b) >= |wt(a) - wt(b)|, ``acc`` cannot beat ``best`` with a
    tail whose heaviest word is at least ``best`` below it or whose lightest
    is at least ``best`` above it, nor with a tail row at least ``best`` from
    it (every shift of a row has the row's weight); such words are counted
    but not scored.  ``best`` starts one
    above the lightest nonzero word of at most two terms (one when
    ``max_terms`` is 1), each of which is enumerated, so the first word of
    the lowest weight is still lighter than ``best`` when it is reached: the
    word, weight and count are those of the unbounded enumeration.
    """
    rows = _family_rows(code)
    ncols = code.n * code.c
    stride = max((p.bit_length() for row in rows for p in row), default=0) + max_shift
    packed = [sum(p << (j * stride) for j, p in enumerate(row)) for row in rows]
    step = max_shift + 1
    words = [row << b for row in packed for b in range(step)]
    size = len(words)
    weights = [w.bit_count() for w in words]
    # lightest and heaviest word weight of each tail; the empty tail rules out every acc
    lightest = [*accumulate(weights[::-1], min)][::-1] + [1 << 60]
    heaviest = [*accumulate(weights[::-1], max)][::-1] + [-(1 << 60)]
    firsts = range(0, size, step)
    row_weights = weights[::step]  # every shift of a row has the row's weight
    seconds = words if max_terms > 1 else []
    pairs = (words[first] ^ w for first in firsts for w in [0, *seconds[first + 1:]])
    best_w = 1 + min(filter(None, map(int.bit_count, pairs)), default=(1 << 60) - 1)
    best_word = 0
    count = 0

    for first in firsts:
        base = words[first]
        w = weights[first]
        count += 1
        if 0 < w < best_w:
            best_w, best_word = w, base
        for extra in range(1, max_terms):
            for prefix in combinations(range(first + 1, size), extra - 1):
                acc = base
                for i in prefix:
                    acc ^= words[i]
                start = (prefix[-1] if prefix else first) + 1
                count += size - start
                w = acc.bit_count()
                if w - heaviest[start] >= best_w or lightest[start] - w >= best_w:
                    continue
                for row in range(start // step, len(rows)):
                    if abs(w - row_weights[row]) >= best_w:
                        continue
                    lo, hi = max(start, row * step), (row + 1) * step
                    scores = list(map(int.bit_count, map(acc.__xor__, words[lo:hi])))
                    s = min(scores)
                    if not s:  # acc equals a word of the tail; that XOR is no codeword
                        s = min(filter(None, scores), default=best_w)
                    if s < best_w:
                        best_w, best_word = s, acc ^ words[lo + scores.index(s)]

    if not best_word:
        raise ValueError("no nonzero codeword found; empty generator family")
    mask = (1 << stride) - 1
    word = tuple((best_word >> (j * stride)) & mask for j in range(ncols))
    return best_w, word, count


def witness_search(code: WovenConvCode) -> WitnessResult:
    """Lowest-weight codeword found within the fixed limits of this module.

    The exact pass runs ``lightest_codeword`` on the minimal generator,
    capped at the weight ``_enumerate`` found: it finds a lighter codeword or
    certifies that none exists.  Past ``_EXACT_NU`` it is skipped, and past
    ``_EXACT_NODES`` states it gives up; the result is then not exact.
    """
    weight, word, count = _enumerate(code, _MAX_TERMS, _MAX_SHIFT)
    gen = minimal_generator(code)
    refined = (lightest_codeword(gen, weight, _EXACT_NODES)
               if gen.constraint_length <= _EXACT_NU else None)
    if refined is None:
        return WitnessResult(weight, word, False, 0, count)
    if refined[0] < weight:
        weight, word = refined[0], refined[1]
    return WitnessResult(weight, word, True, refined[2], count)


def orbit_multiplicity(code: WovenConvCode, word: tuple[int, ...]) -> int | None:
    """Distinct codewords among the n cyclic block shifts of a codeword.

    None where the graph is not circulant (``z_offsets`` is None), since the
    block shift need not map the code to itself there.  Where it is, a
    vertex ranks its edges by part-0 slot, one edge per slot, so a shift by
    one column block maps the rows of H_wg onto rows of H_wg and every shift
    of a codeword is a codeword.
    """
    if len(word) != code.n * code.c:
        raise ValueError("word length does not match the code")
    if not (code.H_wg @ PolyMatrix([[p] for p in word])).is_zero():
        raise ValueError("input is not a codeword")
    if code.z_offsets() is None:
        return None
    word, c = tuple(word), code.c
    return len({word[c * i:] + word[:c * i] for i in range(code.n)})


# ---------------------------------------------------------------------------
# streaming encoder

_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_TO_BITS = bytes.maketrans(b"01", b"\0\1")
_SEQUENCES = (list, tuple, bytes, bytearray)  # bytearray() reads array('q') as raw bytes


def encode_stream(code: WovenConvCode, info_bits, *, pad: bool = False) -> bytearray:
    """Encode a frame; info enters n bits per time instant, wrapped at frame end.

    The frame is tail-bitten at its level count L: the output is the info row
    times tailbite(expanded_generator(code), L, -1): a bytearray of n*c*L 0/1
    values with zero syndrome against tailbite(H_wg, L) for n*L info bits.
    The frame is one n*L-bit int, info bit lvl*n + i on top, and D^t a left
    shift by t*n folded at n*L bits.  Generator row r is row 0 rotated by r
    column blocks, so each coefficient D^t of row 0's entry at column
    b*c + j XORs into output slot j the frame with each level rotated by b,
    shifted by t*n: one rotation per b, a shift-XOR per coefficient.
    Each column becomes 0/1 bytes before it is interleaved into the output,
    so a frame holds its input copy, one column's text and the one output
    bytearray, never two output-sized buffers.
    """
    try:
        frame = bytearray(info_bits if isinstance(info_bits, _SEQUENCES) else list(info_bits))
    except (TypeError, ValueError):
        frame = b"?"  # not an int in 0..255, so not a bit either
    if frame.translate(None, b"\0\1"):
        raise ValueError("info bits must be 0 or 1")
    n, c = code.n, code.c
    if len(frame) % n and not pad:
        raise ValueError(f"info length {len(frame)} is not a multiple of {n}; "
                         "pass pad=True to zero-pad")
    frame += bytes(-len(frame) % n)
    if not frame:
        raise ValueError("empty frame")
    if code._plan is None:
        row0 = expanded_generator(code).entries[0]
        code._plan = [(b, [(j, t * n) for j, p in enumerate(row0[b * c:(b + 1) * c])
                           for t in range(p.bit_length()) if p >> t & 1])
                      for b in range(n) if any(row0[b * c:(b + 1) * c])]
    size = len(frame)
    full = (1 << size) - 1
    rep = full // ((1 << n) - 1)  # bit 0 of every level
    u = int(frame.translate(_TO_DIGITS), 2)
    acc = [0] * c
    for b, taps in code._plan:
        low = ((1 << (n - b)) - 1) * rep
        rotated = u >> b & low | u << (n - b) & (full ^ low)
        for j, shift in taps:
            acc[j] ^= rotated << shift
    out = bytearray(size * c)
    spec = f"0{size}b"
    for j, col in enumerate(acc):
        while col >> size:
            col = col & full ^ col >> size
        out[j::c] = format(col, spec).encode().translate(_TO_BITS)
    return out


# ---------------------------------------------------------------------------
# permutation sweep

# equivalence flags are skipped above this many graph vertices, where the
# permutation search would no longer be small
_MAX_AUTOMORPHISM_VERTICES = 40


class SweepRow(NamedTuple):
    perm: tuple[int, ...]
    nu_raw: int | None
    nu_minimal: int
    code_dimension: int
    product_bound: int | None
    improved_bound: int | None
    witness: int
    orbit: int | None
    flags: str


def permutation_sweep(g: Hypergraph, hc: PolyMatrix) -> list[SweepRow]:
    """All c! check permutations with structure, bounds, and witness columns.

    The bounds depend only on the graph and the constituent, so they are
    computed once per sweep; both are None where ``distance_bounds`` raises
    ``StructureError``, as for s != 2.  A row whose witness weighs less than
    either bound is flagged ``bound-contradicted``, since that codeword
    disproves the bound.  Permutation pairs whose H_wg match under a row and
    column permutation are flagged as equivalent; the certification is
    conservative (unflagged pairs may still be equivalent).
    """
    perms = sorted(permutations(range(1, g.c + 1)))
    try:
        product, improved = distance_bounds(g, hc)
    except StructureError:
        product = improved = None
    partner: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for a, b in equivalent_permutation_pairs(g, hc, perms):
        partner.setdefault(a, []).append(b)
        partner.setdefault(b, []).append(a)
    rows = []
    for perm in perms:
        code = build_woven_conv(g, hc, perm)
        rep = generator_report(code)
        res = witness_search(code)
        flags = [] if rep.code_dimension == code.n else ["rank-deficient"]
        if any(res.weight < b for b in (product, improved) if b is not None):
            flags.append("bound-contradicted")
        flags += [f"equivalent-to:{','.join(map(str, other))}" for other in partner.get(perm, [])]
        rows.append(SweepRow(perm, rep.nu_raw, rep.nu_minimal, rep.code_dimension, product,
                             improved, res.weight, orbit_multiplicity(code, res.word),
                             ";".join(flags)))
    return rows


def equivalent_permutation_pairs(g: Hypergraph, hc: PolyMatrix, perms
                                 ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Permutation pairs whose H_wg are equal up to a row and column permutation.

    Such a pair gives the same code up to coordinate relabelling.  Unflagged
    pairs may still be equivalent, since different check matrices can span
    the same code.
    """
    if 2 * g.n > _MAX_AUTOMORPHISM_VERTICES:
        return []
    checks = {perm: build_woven_conv(g, hc, perm).H_wg for perm in perms}
    return [(a, b) for a, b in combinations(perms, 2)
            if permutation_equivalent(checks[a], checks[b])]
