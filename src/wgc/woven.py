"""Woven graph codes with convolutional constituents.

The construction places one parity row per left vertex (the constituent
checks in column order) and one per right vertex (the same checks permuted
and routed along the graph).  On circulant bipartite graphs the code also
has a raw generator built from the pairwise products of the check
polynomials: one row per left vertex, each row the one before it rotated by a
column block.  The minimal generator is ``gf2.minimal_kernel`` of H_wg, and
the distance bounds read only the graph and the constituent check row.
"""

from __future__ import annotations

from itertools import accumulate, combinations, permutations
from typing import NamedTuple

from .gf2 import BinaryPoly, PolyMatrix, minimal_kernel, permutation_equivalent
from .convcodes import block_distance_conv, free_distance, lightest_codeword, rate_half_subcodes
from .hypergraphs import Hypergraph, girth


class StructureError(ValueError):
    """The graph lacks the structure an operation requires."""


# ---------------------------------------------------------------------------
# assembly


def _edge_positions(g: Hypergraph) -> list[tuple[int, int]]:
    """(left vertex, slot) per edge, slot = rank within the left vertex's edges."""
    seen: dict[int, int] = {}
    out = []
    for e in g.edges:
        v = e[0]
        slot = seen.get(v, 0)
        seen[v] = slot + 1
        out.append((v, slot))
    return out


class WovenConvCode:
    """Woven graph code: bipartite graph plus a permuted convolutional check row.

    The artefacts derived from the code are computed on first use and kept:
    the raw wrapped pairwise-product generator (``expanded_generator``), the
    minimal generator (``minimal_generator``) and the encoder's plan, row 0 of
    the raw generator by column block (``encode_stream``).
    """

    def __init__(self, graph: Hypergraph, hc: PolyMatrix, perm: tuple[int, ...]):
        if graph.s != 2:
            raise StructureError("woven convolutional assembly needs a bipartite graph")
        if hc.cols != graph.c:
            raise ValueError(f"check row has {hc.cols} columns, graph degree is {graph.c}")
        if sorted(perm) != list(range(1, graph.c + 1)):
            raise ValueError(f"perm must rearrange 1..{graph.c}, got {perm}")
        self.graph = graph
        self.hc = hc
        self.perm = tuple(perm)
        self.n = graph.n
        self.c = graph.c
        self.H_wg = self._assemble()
        self._expanded: PolyMatrix | None = None
        self._minimal: PolyMatrix | None = None
        self._plan: list[tuple[int, list[tuple[int, int]]]] | None = None

    # t-row polynomials: column slot j of the left blocks carries check j on
    # the left and check perm[j] on the right
    def t_polys(self) -> list[list[BinaryPoly]]:
        return [[self.hc.entries[i][p - 1] for p in self.perm] for i in range(self.hc.rows)]

    def _assemble(self) -> PolyMatrix:
        g, hc = self.graph, self.hc
        r = hc.rows
        zero = BinaryPoly(0)
        pos = _edge_positions(g)
        rows: list[list[BinaryPoly]] = []
        for v in range(g.n):
            incident = g.incident_edges(0, v)
            for i in range(r):
                row = [zero] * g.num_edges
                for slot, e in enumerate(incident):
                    row[e] = hc.entries[i][slot]
                rows.append(row)
        t = self.t_polys()
        for v in range(g.n):
            incident = sorted(g.incident_edges(1, v), key=lambda e: (pos[e][1], e))
            for i in range(r):
                row = [zero] * g.num_edges
                for slot, e in enumerate(incident):
                    row[e] = t[i][slot]
                rows.append(row)
        return PolyMatrix(rows)

    # -- circulant structure ----------------------------------------------

    def z_offsets(self) -> tuple[int, ...] | None:
        """Per-slot left-block offsets when the graph is circulant, else None.

        Requires edge j to belong to left vertex j // c, in slot j mod c, and
        every edge of a slot to join a left vertex u to the right vertex u - o
        mod n for one offset o per slot; each right vertex then sees each slot
        exactly once.
        """
        g = self.graph
        if any(e[0] != i // g.c for i, e in enumerate(g.edges)):
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
    terms = [(0, o2, h3 * t2), (0, o3, h2 * t3), (1, 0, h3 * t1),
             (1, o3, h1 * t3), (2, 0, h2 * t1), (2, o2, h1 * t2)]
    n = code.n
    row0 = [0] * (3 * n)
    for j, z, product in terms:
        row0[(o3 - z) % n * 3 + j] ^= product.bits
    gen = PolyMatrix([row0[3 * (n - r):] + row0[:3 * (n - r)] for r in range(n)])
    syndrome = gen @ code.H_wg.transpose()
    if not syndrome.is_zero():
        raise AssertionError("expanded generator failed the parity check")
    code._expanded = gen
    return gen


class GeneratorReport(NamedTuple):
    raw: PolyMatrix | None
    minimal: PolyMatrix
    nu_raw: int | None
    nu_minimal: int
    code_dimension: int


def minimal_generator(code: WovenConvCode) -> PolyMatrix:
    """Minimal-basic generator of the full code: ``minimal_kernel`` of H_wg, kept on the code."""
    if code._minimal is None:
        code._minimal = minimal_kernel(code.H_wg)
    return code._minimal


def generator_report(code: WovenConvCode) -> GeneratorReport:
    """Raw and minimal generators; the raw one is None where the graph is not circulant."""
    try:
        raw = expanded_generator(code)
    except StructureError:
        raw = None
    minimal = minimal_generator(code)
    return GeneratorReport(
        raw=raw,
        minimal=minimal,
        nu_raw=None if raw is None else raw.constraint_length,
        nu_minimal=minimal.constraint_length,
        code_dimension=minimal.rows,
    )


# ---------------------------------------------------------------------------
# distance bounds


def distance_bounds(g: Hypergraph, hc: PolyMatrix, graph_girth: int | None = None
                    ) -> tuple[int, int | None]:
    """(product, improved) lower bounds on the free distance of the woven codes of g and hc.

    Bipartite product bound: max(girth/2, 2) times the constituent free
    distance.  The improved bound splits codewords by constituent support:
    fully block-weight-2 words live in the rate-1/2 subcodes and activate at
    least girth/2 constituents; anything else activates one more constituent
    at full free distance.  The improved bound is None unless the
    constituent has block distance 2, c = 3 and one check row.  The check
    permutation plays no part, and ``graph_girth`` is girth(g) when the
    caller has it already.
    """
    d_block = block_distance_conv(hc)
    if d_block < 2:
        raise ValueError("constituent block distance must be at least 2")
    d_free_c = free_distance(minimal_kernel(hc))
    if graph_girth is None:
        graph_girth = girth(g)
    if graph_girth is None:
        raise StructureError("acyclic graph has no product bound")
    active = max(graph_girth // 2, 2)
    improved: int | None = None
    if d_block == 2 and g.c == 3 and hc.rows == 1:
        d_sub = min(free_distance(sc) for sc in rate_half_subcodes(hc))
        improved = min(active * d_sub, (active + 1) * d_free_c)
    return active * d_free_c, improved


# ---------------------------------------------------------------------------
# witness search


class _BudgetFields(NamedTuple):
    max_terms: int = 3
    max_shift: int = 12
    search_nodes: int = 200_000
    search_state_limit: int = 20


class WitnessBudget(_BudgetFields):
    """Limits of ``witness_search``.

    ``max_terms`` and ``max_shift`` bound the enumeration: rows per
    combination and D-shift per row.  The exact pass builds no table.  It
    runs only when the minimal generator's constraint length ν is at most
    ``search_state_limit``, which caps the 2^ν states it could reach, and it
    gives up once its two searches expand more than ``search_nodes`` states.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, low in (("max_terms", 1), ("max_shift", 0), ("search_nodes", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        return self


class WitnessResult(NamedTuple):
    weight: int
    word: tuple[BinaryPoly, ...]
    exact: bool
    nodes_expanded: int
    words_enumerated: int


class BudgetExhausted(RuntimeError):
    def __init__(self, message: str, result: WitnessResult):
        super().__init__(message)
        self.result = result


def _family_rows(code: WovenConvCode) -> list[list[int]]:
    rows = [
        [p.bits for p in row]
        for row in minimal_generator(code).entries
    ]
    try:
        raw = expanded_generator(code)
    except StructureError:
        return rows
    for row in raw.entries:
        cand = [p.bits for p in row]
        if cand not in rows:
            rows.append(cand)
    return rows


def witness_search(code: WovenConvCode, target: int | None = None,
                   budget: WitnessBudget | None = None) -> WitnessResult:
    """Lowest-weight codeword found under the budget.

    Enumerates combinations of D-shifted generator rows (at most
    ``max_terms`` terms, shifts up to ``max_shift``; some term uses shift
    zero), then runs the exact pass: ``lightest_codeword`` on the minimal
    generator, capped at the best enumerated weight.  It finds a lighter
    codeword or certifies that none exists, and the result is then exact.
    Past ``search_state_limit`` or ``search_nodes`` it is skipped or gives
    up, and the result is not exact with ``nodes_expanded`` 0.

    Each word of the enumeration is one int holding column ``j`` at bit
    offset ``j * stride``, where ``stride`` is the widest row entry plus
    ``max_shift``: no XOR of shifted rows reaches past it, so a D-shift is
    one ``<<``, a combination one ``^`` and a weight one ``bit_count``.
    Combinations come in ``itertools.combinations`` order (by size, then
    lexicographic); the XOR of each prefix is formed once and only the last
    term varies in the inner loop.  The first word of the lowest positive
    weight wins.

    Since wt(a ^ b) >= |wt(a) - wt(b)|, a prefix XOR ``acc`` whose weight is
    at least ``best`` above the heaviest word it could still take, or at least
    ``best`` below the lightest, cannot give a word lighter than ``best``: its
    inner loop is skipped, which leaves the result unchanged.  The same
    bound holds per row: every shift of a row has the row's weight, so the
    inner loop scores the tail one row's shifts at a time, in list order,
    and skips a row whose weight is at least ``best`` from ``acc``'s.  A row
    replaces the best word only with a strictly lighter one, so the first
    word of the lowest weight still wins.  ``words_enumerated`` counts every
    combination within the budget, scored or ruled out this way.

    ``best`` starts one above the lightest nonzero word of at most two terms
    (one term when ``max_terms`` is 1), so pruning starts at once.  Each such
    word is enumerated: a first term has shift zero and every later word of
    the list may be its second.  The first word of the lowest weight is
    therefore still lighter than ``best`` when it is reached, and the word,
    weight and count stay those of the unbounded enumeration.
    """
    budget = budget or WitnessBudget()
    rows = _family_rows(code)
    ncols = code.n * code.c
    stride = max((p.bit_length() for row in rows for p in row), default=0) + budget.max_shift
    packed = [sum(p << (j * stride) for j, p in enumerate(row)) for row in rows]
    step = budget.max_shift + 1
    words = [row << b for row in packed for b in range(step)]
    size = len(words)
    weights = [w.bit_count() for w in words]
    # lightest and heaviest word weight of each tail; the empty tail rules out every acc
    lightest = [*accumulate(weights[::-1], min)][::-1] + [1 << 60]
    heaviest = [*accumulate(weights[::-1], max)][::-1] + [-(1 << 60)]
    firsts = range(0, size, step)
    row_weights = weights[::step]  # every shift of a row has the row's weight
    seconds = words if budget.max_terms > 1 else []
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
        for extra in range(1, budget.max_terms):
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
    word = tuple(BinaryPoly((best_word >> (j * stride)) & mask) for j in range(ncols))
    weight, exact, nodes = best_w, False, 0
    gen = minimal_generator(code)
    refined = (lightest_codeword(gen, best_w, budget.search_nodes)
               if gen.constraint_length <= budget.search_state_limit else None)
    if refined is not None:
        exact, nodes = True, refined[2]
        if refined[0] < best_w:
            weight, word = refined[0], refined[1]
    result = WitnessResult(weight=weight, word=word, exact=exact, nodes_expanded=nodes,
                           words_enumerated=count)
    if target is not None and result.weight > target:
        raise BudgetExhausted(
            f"no codeword of weight <= {target} found (best {result.weight})", result)
    return result


def orbit_multiplicity(code: WovenConvCode, word: tuple[BinaryPoly, ...]) -> int:
    """Distinct codewords among the n cyclic block shifts of a codeword."""
    vec = [p.bits for p in word]
    if len(vec) != code.n * code.c:
        raise ValueError("word length does not match the code")

    def in_code(v: list[int]) -> bool:
        return (code.H_wg @ PolyMatrix([[p] for p in v])).is_zero()

    if not in_code(vec):
        raise ValueError("input is not a codeword")
    seen = set()
    c = code.c
    cur = vec
    for _ in range(code.n):
        cur = cur[-c:] + cur[:-c]
        if not in_code(cur):
            raise AssertionError("cyclic shift left the code; graph not circulant?")
        seen.add(tuple(cur))
    return len(seen)


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
        row0 = expanded_generator(code).bits()[0]
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
    for j, col in enumerate(acc):
        while col >> size:
            col = col & full ^ col >> size
        out[j::c] = format(col, f"0{size}b").encode()
    return out.translate(_TO_BITS)


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
    product_bound: int
    improved_bound: int | None
    witness: int
    orbit: int
    flags: str


def _sweep_one(args) -> tuple:
    """The columns of one sweep row that depend on the permutation."""
    g, hc, perm, budget = args
    code = build_woven_conv(g, hc, perm)
    rep = generator_report(code)
    res = witness_search(code, budget=budget)
    orbit = orbit_multiplicity(code, res.word)
    flag = "" if rep.code_dimension == code.n else "rank-deficient"
    return perm, rep.nu_raw, rep.nu_minimal, rep.code_dimension, res.weight, orbit, flag


def permutation_sweep(g: Hypergraph, hc: PolyMatrix,
                      budget: WitnessBudget | None = None,
                      threads: int = 1) -> list[SweepRow]:
    """All c! check permutations with structure, bounds, and witness columns.

    The bounds depend only on the graph and the constituent, so they are
    computed once per sweep.  Permutation pairs whose H_wg match under a row
    and column permutation are flagged as equivalent; the certification is
    conservative (unflagged pairs may still be equivalent).
    """
    budget = budget or WitnessBudget()
    perms = sorted(permutations(range(1, g.c + 1)))
    jobs = [(g, hc, perm, budget) for perm in perms]
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_sweep_one, jobs))
    else:
        results = [_sweep_one(job) for job in jobs]
    product, improved = distance_bounds(g, hc)
    partner: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for a, b in equivalent_permutation_pairs(g, hc, perms):
        partner.setdefault(a, []).append(b)
        partner.setdefault(b, []).append(a)
    rows = []
    for perm, nu_raw, nu_minimal, dimension, weight, orbit, flag in results:
        extra = [f"equivalent-to:{','.join(map(str, other))}" for other in partner.get(perm, [])]
        rows.append(SweepRow(perm, nu_raw, nu_minimal, dimension, product, improved, weight,
                             orbit, ";".join(filter(None, [flag, *extra]))))
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
