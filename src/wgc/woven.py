"""Woven graph codes with convolutional constituents.

The construction places one parity row per left vertex (the constituent
checks in column order) and one per right vertex (the same checks permuted
and routed along the graph).  On circulant bipartite graphs the code also
has a raw generator built from the pairwise products of the check
polynomials: one row per left vertex, each row the one before it rotated by a
column block.
"""

from __future__ import annotations

from itertools import accumulate, combinations, permutations
from operator import itemgetter
from typing import Iterator, NamedTuple

from .gf2 import (
    BinaryPoly,
    PolyMatrix,
    _isomorphisms,
    clmul,
    kernel_basis,
    row_reduce,
)
from .convcodes import (ConvCode, block_distance_conv, free_distance, lightest_codeword,
                        rate_half_subcodes)
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
    minimal generator (``minimal_generator``) and the encoder's tap list
    (``encode_stream``).
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
        self._taps: list[tuple[int, int, list[int]]] | None = None

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
    Row r XORs each product into column ((r + o3 - z) mod n) * 3 + j, so it is
    row 0 rotated by r column blocks.  Built and checked against H_wg once per
    code, then kept on it.
    """
    if code._expanded is not None:
        return code._expanded
    offsets = code.z_offsets()
    if offsets is None:
        raise StructureError("graph is not circulant; no two-variable form")
    if code.hc.rows != 1 or code.c != 3:
        raise StructureError("two-variable form implemented for one check row, degree 3")
    if offsets[0] != 0:
        raise StructureError("expected the first slot to have offset zero")
    h1, h2, h3 = code.hc.entries[0]
    t1, t2, t3 = code.t_polys()[0]
    _, o2, o3 = offsets
    terms = [(0, o2, h3 * t2), (0, o3, h2 * t3), (1, 0, h3 * t1),
             (1, o3, h1 * t3), (2, 0, h2 * t1), (2, o2, h1 * t2)]
    n = code.n
    rows = []
    for r in range(n):
        row = [0] * (3 * n)
        for j, z, product in terms:
            row[(r + o3 - z) % n * 3 + j] ^= product.bits
        rows.append(row)
    gen = PolyMatrix(rows)
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
    """Minimal-basic generator of the full code, from the parity kernel."""
    if code._minimal is None:
        code._minimal = row_reduce(kernel_basis(code.H_wg))
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


class DistanceReport(NamedTuple):
    product_bound: int
    improved_bound: int | None
    witness_weight: int | None
    witness: tuple[BinaryPoly, ...] | None
    exhaustive: bool

    def chain_ok(self) -> bool:
        vals = [self.product_bound, self.improved_bound, self.witness_weight]
        present = [v for v in vals if v is not None]
        return all(a <= b for a, b in zip(present, present[1:]))


def distance_bounds(code: WovenConvCode, *, witness: "WitnessResult | None" = None,
                    graph_girth: int | None = None) -> DistanceReport:
    """Product-type and subcode-improved lower bounds on the free distance.

    Bipartite product bound: max(girth/2, 2) times the constituent free
    distance.  The improved bound splits codewords by constituent support:
    fully block-weight-2 words live in the rate-1/2 subcodes and activate at
    least girth/2 constituents; anything else activates one more constituent
    at full free distance.  ``graph_girth`` is girth(code.graph) when the
    caller has it already.
    """
    product, improved = _graph_bounds(code.graph, code.hc, graph_girth)
    return DistanceReport(
        product_bound=product,
        improved_bound=improved,
        witness_weight=witness.weight if witness else None,
        witness=witness.word if witness else None,
        exhaustive=witness.exact if witness else False,
    )


def _graph_bounds(g: Hypergraph, hc: PolyMatrix, girth_g: int | None = None
                  ) -> tuple[int, int | None]:
    """(product, improved) bounds of ``distance_bounds``; the permutation plays no part."""
    constituent = ConvCode.from_parity(hc)
    d_block = block_distance_conv(constituent)
    if d_block < 2:
        raise ValueError("constituent block distance must be at least 2")
    d_free_c = free_distance(constituent)
    if girth_g is None:
        girth_g = girth(g)
    if girth_g is None:
        raise StructureError("acyclic graph has no product bound")
    active = max(girth_g // 2, 2)
    improved: int | None = None
    if d_block == 2 and g.c == 3 and hc.rows == 1:
        d_sub = min(free_distance(sc) for sc in rate_half_subcodes(constituent))
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
    if not _is_codeword(code, vec):
        raise ValueError("input is not a codeword")
    seen = set()
    c = code.c
    cur = vec
    for _ in range(code.n):
        cur = cur[-c:] + cur[:-c]
        if not _is_codeword(code, cur):
            raise AssertionError("cyclic shift left the code; graph not circulant?")
        seen.add(tuple(cur))
    return len(seen)


def _is_codeword(code: WovenConvCode, vec: list[int]) -> bool:
    for row in code.H_wg.entries:
        acc = 0
        for p, v in zip(row, vec):
            acc ^= clmul(p.bits, v)
        if acc:
            return False
    return True


# ---------------------------------------------------------------------------
# streaming encoder


def encode_stream(code: WovenConvCode, info_bits, *, pad: bool = False) -> list[int]:
    """Encode a frame; info enters n bits per time instant, wrapped at frame end.

    The frame is tail-bitten at its level count L: the output is the info row
    times tailbite(expanded_generator(code), L, -1), so a frame of n*L info
    bits gives n*c*L code bits with zero syndrome against tailbite(H_wg, L).
    The product runs on packed columns: input row i is one L-bit int u_i
    (bit lvl holds info bit lvl*n + i), and output column j is the XOR of
    u_i rotated right by t mod L over the taps D^t of generator entry (i, j).
    A frame costs one rotation per distinct (row, degree) pair and one XOR
    per tap, each on L-bit ints; the tap list is built once per code.
    """
    try:
        frame = bytearray(list(info_bits))
    except (TypeError, ValueError):
        frame = b"?"  # not an int in 0..255, so not a bit either
    if frame.translate(None, b"\0\1"):
        raise ValueError("info bits must be 0 or 1")
    n, ncols = code.n, code.n * code.c
    if len(frame) % n and not pad:
        raise ValueError(f"info length {len(frame)} is not a multiple of {n}; "
                         "pass pad=True to zero-pad")
    frame += bytes(-len(frame) % n)
    if not frame:
        raise ValueError("empty frame")
    levels = len(frame) // n
    if code._taps is None:
        code._taps = [(i, t, cols) for i, row in enumerate(expanded_generator(code).bits())
                      for t in range(max(p.bit_length() for p in row))
                      if (cols := [j for j, p in enumerate(row) if p >> t & 1])]
    text = frame.translate(bytes.maketrans(b"\0\1", b"01"))
    rows = [int(text[i::n][::-1], 2) for i in range(n)]
    mask = (1 << levels) - 1
    out_cols = [0] * ncols
    for i, t, cols in code._taps:
        s, u = t % levels, rows[i]
        rotated = (u >> s | u << (levels - s)) & mask
        for j in cols:
            out_cols[j] ^= rotated
    out = bytearray(levels * ncols)
    for j, col in enumerate(out_cols):
        out[j::ncols] = format(col, f"0{levels}b").encode()[::-1]
    return list(out.translate(bytes.maketrans(b"01", b"\0\1")))


# ---------------------------------------------------------------------------
# permutation sweep

# equivalence flags are skipped above this many graph vertices, where the
# automorphism search would no longer be small
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
    computed once per sweep.  Permutation pairs whose expanded parity-check
    matrices match exactly under a graph automorphism are flagged as
    equivalent; the certification is conservative (unflagged pairs may
    still be equivalent).
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
    product, improved = _graph_bounds(g, hc)
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
    """Permutation pairs certified equivalent by a graph automorphism.

    An automorphism permutes the edge columns; when the relabelled check
    rows of one permutation equal the rows of another as a multiset, the
    two codes are identical up to coordinate relabelling.  Unflagged pairs
    may still be equivalent through relabellings outside this family.

    A column relabelling plus a row reordering keeps the multiset, over the
    edge columns of H_wg, of each column's sorted nonzero entries, so only
    pairs with equal multisets can be flagged.  The automorphisms are listed
    lazily, and the listing stops once every such pair is flagged; with no
    such pair none is listed.  The automorphisms form a group, so a pair is
    flagged by one that maps either member onto the other.
    """
    if 2 * g.n > _MAX_AUTOMORPHISM_VERTICES:
        return []
    rows = {perm: [tuple(p.bits for p in row)
                   for row in build_woven_conv(g, hc, perm).H_wg.entries] for perm in perms}
    shape = {perm: sorted(tuple(sorted(filter(None, col))) for col in zip(*r))
             for perm, r in rows.items()}
    open_pairs = [(pa, pb) for pa, pb in combinations(perms, 2) if shape[pa] == shape[pb]]
    if not open_pairs:
        return []
    members = {perm for pair in open_pairs for perm in pair}
    held = {perm: sorted(rows[perm]) for perm in members}
    hits = []
    for per in _edge_automorphisms(g):
        relabel = itemgetter(*per)
        image = {perm: sorted(map(relabel, rows[perm])) for perm in members}
        hits += [(pa, pb) for pa, pb in open_pairs
                 if image[pa] == held[pb] or image[pb] == held[pa]]
        open_pairs = [pair for pair in open_pairs if pair not in hits]
        if not open_pairs:
            break
    return [pair for pair in combinations(perms, 2) if pair in hits]


def _edge_automorphisms(g: Hypergraph) -> Iterator[list[int]]:
    """Edge permutations induced by automorphisms of the bipartite graph, one at a time.

    Automorphisms that swap the two sides are included.  In each list
    per[j] is the edge that the automorphism maps onto edge j.
    """
    n = g.n
    adj: list[list[int]] = [[] for _ in range(2 * n)]
    edge_index: dict[tuple[int, int], list[int]] = {}
    for i, (a, b) in enumerate(g.edges):
        adj[a].append(n + b)
        adj[n + b].append(a)
        edge_index.setdefault((a, b), []).append(i)
    for vmap in _isomorphisms(adj, adj, [0] * (2 * n)):
        image_index = {k: list(v) for k, v in edge_index.items()}
        per = [0] * g.num_edges
        for i, (a, b) in enumerate(g.edges):
            u, w = sorted((vmap[a], vmap[n + b]))
            per[image_index[(u, w - n)].pop()] = i
        yield per
