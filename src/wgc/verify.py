"""End-to-end reproduction of the built-in bipartite pipeline example."""

from __future__ import annotations

from . import blockcodes, convcodes, hypergraphs, woven
from .gf2 import BinaryMatrix, PolyMatrix, permutation_equivalent, tailbite

# reference constituent: rate 2/3, one check row, degrees (4, 5, 5)
CONSTITUENT_CHECK = PolyMatrix([[0b10011, 0b111011, 0b111101]])
# parent of the plain graph code: [[1, 1, 1], [1, D, D^3]]
GRAPH_PARENT_CHECK = PolyMatrix([[1, 1, 1], [1, 0b10, 0b1000]])
BEST_PERM = (1, 3, 2)


def run_heawood_verification(budget: woven.WitnessBudget | None = None) -> list[tuple]:
    """Returns (name, expected, got, ok) rows covering the whole pipeline."""
    budget = budget or woven.WitnessBudget()
    results: list[tuple] = []

    def check(name, expected, got):
        results.append((name, expected, got, expected == got))

    g = hypergraphs.build_heawood()
    graph_girth = hypergraphs.girth(g)
    check("graph girth", 6, graph_girth)

    spc = blockcodes.build_graph_code(g, BinaryMatrix.from_strings(["111"]))
    check("graph code (n,k)", (21, 8), (spc.n, spc.k))
    check("graph code d_min", 6, blockcodes.min_distance(spc).value)

    parent = convcodes.ConvCode.from_parity(GRAPH_PARENT_CHECK)
    wrapped = tailbite(GRAPH_PARENT_CHECK, 7)
    check("wrapped parent = incidence (up to perm)", True,
          permutation_equivalent(wrapped, g.incidence_matrix()))
    tb7 = convcodes.tb_encoder_code(parent, 7)
    check("wrapped-parent code (n,k)", (21, 7), (tb7.n, tb7.k))
    check("wrapped-parent code d_min", 6, blockcodes.min_distance(tb7).value)

    constituent = convcodes.ConvCode.from_parity(CONSTITUENT_CHECK).with_generator()
    check("constituent nu", 5, constituent.nu)
    check("constituent d_free", 6, convcodes.free_distance(constituent))
    check("constituent block distance", 2, convcodes.block_distance_conv(constituent))
    subs = convcodes.rate_half_subcodes(constituent)
    check("rate-1/2 subcode min d_free", 8,
          min(convcodes.free_distance(sc) for sc in subs))

    code = woven.build_woven_conv(g, CONSTITUENT_CHECK, BEST_PERM)
    rep = woven.generator_report(code)
    check("raw constraint length", 70, rep.nu_raw)
    check("minimal constraint length", 64, rep.nu_minimal)
    others = {}
    for perm, expected_nu in (((2, 1, 3), 65), ((2, 3, 1), 66)):
        others[perm] = woven.build_woven_conv(g, CONSTITUENT_CHECK, perm)
        check(f"minimal constraint length perm {perm}", expected_nu,
              woven.minimal_generator(others[perm]).constraint_length)

    dist = woven.distance_bounds(code, graph_girth=graph_girth)
    check("product bound", 18, dist.product_bound)
    check("improved bound", 24, dist.improved_bound)

    res = woven.witness_search(code, budget=budget)
    check("witness weight", 32, res.weight)
    check("witness orbit", 7, woven.orbit_multiplicity(code, res.word))

    res_alt = woven.witness_search(others[(2, 3, 1)], budget=budget)
    check("witness weight perm (2, 3, 1)", 30, res_alt.weight)

    return results
