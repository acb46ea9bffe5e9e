"""Woven graph codes with convolutional constituents: the full pipeline."""

from __future__ import annotations

import random
import tracemalloc
from array import array
from itertools import combinations, permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wgc import cli, woven
from wgc.blockcodes import BlockStructure, DistanceEstimate, build_graph_code
from wgc.convcodes import block_distance_conv, lightest_codeword
from wgc.gf2 import (
    BinaryMatrix,
    BinaryPoly,
    PolyMatrix,
    tailbite,
)
from wgc.hypergraphs import (Hypergraph, build_heawood, build_three_partite, build_utility,
                            girth, random_regular)
from wgc.woven import (
    StructureError,
    SweepRow,
    _enumerate,
    build_woven_conv,
    distance_bounds,
    encode_stream,
    equivalent_permutation_pairs,
    expanded_generator,
    generator_report,
    minimal_generator,
    orbit_multiplicity,
    permutation_sweep,
    witness_search,
)
from conftest import (
    CONSTITUENT_CHECK_STRINGS,
    TABLE_RESULTS,
    coeffs,
    convolve_mod2,
    list_witness_enumeration,
    oracle_equivalent_permutation_pairs,
    oracle_syndrome,
    oracle_woven_conv_parity,
    poly_row_space_equal,
    relabel_right,
    row_space_equal,
    table_lightest_codeword,
)

BEST = (1, 3, 2)
CONSTITUENT = [BinaryPoly.parse(s) for s in CONSTITUENT_CHECK_STRINGS]


@pytest.fixture(scope="module")
def best_code(constituent_check):
    return build_woven_conv(build_heawood(), constituent_check, BEST)


def _circulant(n: int, a: int, b: int) -> Hypergraph:
    edges = [(r, (r - o) % n) for r in range(n) for o in (0, a, b)]
    return Hypergraph(2, 3, n, tuple(edges))


# ---------------------------------------------------------------------------
# assembly


def test_layout_matches_incidence_support(best_code, heawood_incidence):
    got = BinaryMatrix(
        [sum(1 << j for j, p in enumerate(row) if p) for row in best_code.H_wg.entries],
        21,
    )
    assert got == heawood_incidence


def test_top_rows_are_block_diagonal_checks(best_code, constituent_check):
    h = constituent_check.entries[0]
    for v in range(7):
        row = best_code.H_wg.entries[v]
        assert row[3 * v: 3 * v + 3] == h


def test_bottom_rows_follow_slot_rule(best_code, constituent_check):
    # slot j of a left block carries check j on top and check perm(j) below
    h = constituent_check.entries[0]
    t = [h[0], h[2], h[1]]  # perm (1, 3, 2)
    for r in range(7):
        row = best_code.H_wg.entries[7 + r]
        assert row[3 * r] == t[0]
        assert row[3 * ((r + 1) % 7) + 1] == t[1]
        assert row[3 * ((r + 3) % 7) + 2] == t[2]


def test_constant_check_specializes_to_graph_code(heawood_incidence):
    graphs = (build_heawood(), build_utility(), build_three_partite(), random_regular(3, 4, 5, 2))
    for g in graphs:
        code = build_woven_conv(g, PolyMatrix([[1] * g.c]), tuple(range(1, g.c + 1)))
        binary = code.H_wg.constant_matrix()
        graph_code = build_graph_code(g, BinaryMatrix.from_strings(["1" * g.c]))
        assert binary == graph_code.H
        assert row_space_equal(binary, graph_code.H)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(1, 6), st.integers(0, 2**32), st.data())
def test_assembly_matches_bipartite_oracle_for_every_perm(c, n, seed, data):
    g = random_regular(2, c, n, seed)
    rows = data.draw(st.integers(1, 2))
    entries = data.draw(st.lists(st.integers(1, 255), min_size=rows * c, max_size=rows * c,
                                 unique=True))
    hc = PolyMatrix([entries[i * c:(i + 1) * c] for i in range(rows)])
    for perm in permutations(range(1, c + 1)):
        assert build_woven_conv(g, hc, perm).H_wg == oracle_woven_conv_parity(g, hc, perm)


def test_utility_assembly_shape(constituent_check):
    code = build_woven_conv(build_utility(), constituent_check, (1, 2, 3))
    assert code.H_wg.rows == 6 and code.H_wg.cols == 9
    assert code.z_offsets() == (0, 1, 2)


def test_three_partite_builds_and_its_bounds_are_a_structure_error(capsys):
    g = build_three_partite()
    hc = PolyMatrix([[0b1, 0b11, 0b101, 0b111]])
    code = build_woven_conv(g, hc, (1, 2, 3, 4))
    assert (code.H_wg.rows, code.H_wg.cols) == (g.s * g.n * hc.rows, g.num_edges) == (12, 16)
    assert code.z_offsets() is None
    with pytest.raises(StructureError):
        distance_bounds(g, hc)
    argv = ["--graph", "builtin:3partite", "--hc-inline", "1,11,101,111"]
    assert cli.main(["woven", "build", *argv, "--perm", "1,2,3,4"]) == 0
    assert capsys.readouterr().out.startswith("12 16\n")
    assert cli.main(["woven", "bounds", *argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


def test_rejects_bad_perm(constituent_check):
    with pytest.raises(ValueError):
        build_woven_conv(build_heawood(), constituent_check, (1, 1, 2))


# ---------------------------------------------------------------------------
# circulant structure: the slot offsets in Z and the permuted check row in D


def test_two_dim_orthogonality_via_independent_oracle(best_code):
    gen = expanded_generator(best_code)
    for g_row in gen.entries:
        for h_row in best_code.H_wg.entries:
            assert not any(oracle_syndrome(g_row, h_row))


def test_two_dim_check_shape(best_code, constituent_check):
    # the check pair is h1 h2 h3 over t1, t2 Z^1, t3 Z^3 with t = (h1, h3, h2):
    # right row r carries t_j at column block (r + offset_j) mod 7 and nothing else
    h = constituent_check.entries[0]
    offsets = best_code.z_offsets()
    t = best_code.t_polys()[0]
    assert offsets == (0, 1, 3)
    assert t == [h[0], h[2], h[1]]
    for r in range(7):
        want = [0] * 21
        for j, o in enumerate(offsets):
            want[3 * ((r + o) % 7) + j] = t[j]
        assert list(best_code.H_wg.entries[7 + r]) == want


def test_two_dim_constant_check_reduces_to_parent(graph_parent_check):
    # with D-free checks H_wg is the wrapped parent of the graph code: parent
    # entry Z^e in row i, column j puts a 1 at row 7i + r, column 3((r + e) mod 7) + j
    code = build_woven_conv(build_heawood(), PolyMatrix([[1, 1, 1]]), (1, 2, 3))
    parent = graph_parent_check.entries
    assert code.t_polys() == [[1] * 3]
    assert parent == ((1, 1, 1), tuple(1 << o for o in code.z_offsets()))
    for i in range(2):
        for r in range(7):
            want = [0] * 21
            for j, z_poly in enumerate(parent[i]):
                want[3 * ((r + z_poly.bit_length() - 1) % 7) + j] = 1
            assert list(code.H_wg.entries[7 * i + r]) == want


def test_two_dim_z_one_column_sums(best_code):
    # Z = 1 sums each half of H_wg: column j gives the check entries of slot j mod 3
    h = best_code.hc.entries[0]
    t = best_code.t_polys()[0]
    for j in range(21):
        acc0 = acc1 = 0
        for r in range(7):
            acc0 ^= best_code.H_wg.entries[r][j]
        for r in range(7, 14):
            acc1 ^= best_code.H_wg.entries[r][j]
        assert (acc0, acc1) == (h[j % 3], t[j % 3])


def test_two_dim_rejects_non_circulant(constituent_check):
    # scrambling the edge order breaks the circulant slot structure
    g = build_heawood()
    edges = list(g.edges)
    edges[1], edges[4] = edges[4], edges[1]
    scrambled = Hypergraph(2, 3, 7, tuple(edges))
    code = build_woven_conv(scrambled, constituent_check, BEST)
    assert code.z_offsets() is None
    with pytest.raises(StructureError, match="graph is not circulant"):
        expanded_generator(code)


@pytest.mark.parametrize("g, hc, message", [
    (build_heawood(), [[1, 0b11, 0b101], [0b11, 1, 1]], "one check row, degree 3"),
    (Hypergraph(2, 3, 7, tuple((r, (r - o) % 7) for r in range(7) for o in (1, 2, 4))),
     [[1, 0b11, 0b101]], "first slot to have offset zero"),
], ids=["two-check-rows", "first-offset-nonzero"])
def test_expanded_generator_rejects_other_structures(g, hc, message):
    with pytest.raises(StructureError, match=message):
        expanded_generator(build_woven_conv(g, PolyMatrix(hc), (1, 2, 3)))


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 15).flatmap(lambda n: st.tuples(st.just(n), st.permutations(range(1, n)))),
       st.lists(st.integers(0, 31), min_size=3, max_size=3), st.permutations((1, 2, 3)))
def test_expanded_generator_on_circulants(n_and_order, hc, perm):
    # offsets (0, a, b); row r is row 0 rotated by r column blocks; every row is a codeword
    n, order = n_and_order
    a, b = order[:2]
    code = build_woven_conv(_circulant(n, a, b), PolyMatrix([hc]), perm)
    assert code.z_offsets() == (0, a, b)
    gen = expanded_generator(code)
    assert (gen.rows, gen.cols) == (n, 3 * n)
    row0 = list(gen.entries[0])
    for r, row in enumerate(gen.entries):
        assert list(row) == row0[3 * (n - r):] + row0[:3 * (n - r)]
        for h_row in code.H_wg.entries:
            assert not any(oracle_syndrome(row, h_row))


# ---------------------------------------------------------------------------
# expanded generator


def test_expanded_generator_row_content(best_code, constituent_check):
    gen = expanded_generator(best_code)
    assert gen.rows == 7 and gen.cols == 21
    h1, h2, h3 = constituent_check.entries[0]
    t1, t2, t3 = h1, h3, h2
    prods = {
        "a": (h3, t1), "b": (h2, t1), "c": (h2, t3),
        "d": (h1, t3), "e": (h3, t2), "f": (h1, t2),
    }
    vals = {k: convolve_mod2(coeffs(x), coeffs(y)) for k, (x, y) in prods.items()}

    def poly(name):
        bits = 0
        for i, b in enumerate(vals[name]):
            bits |= b << i
        return bits

    row = gen.entries[0]
    placements = {0: "c", 1: "d", 6: "e", 8: "f", 10: "a", 11: "b"}
    for col in range(21):
        assert row[col] == (poly(placements[col]) if col in placements else 0)


def test_expanded_generator_rows_satisfy_checks(best_code):
    gen = expanded_generator(best_code)
    assert (gen @ best_code.H_wg.transpose()).is_zero()


def test_constraint_lengths_match_reference_table(constituent_check):
    g = build_heawood()
    for perm, (nu_min, _) in TABLE_RESULTS.items():
        code = build_woven_conv(g, constituent_check, perm)
        rep = generator_report(code)
        assert rep.nu_raw == 70
        assert rep.nu_minimal == nu_min
        assert rep.code_dimension == 7


def test_identity_perm_checks_are_dependent(constituent_check):
    code = build_woven_conv(build_heawood(), constituent_check, (1, 2, 3))
    rep = generator_report(code)
    assert rep.code_dimension == 8  # one wrapped check is dependent


def test_minimal_generator_contains_reference_short_row(best_code):
    gen = minimal_generator(best_code)
    short = min(gen.entries, key=lambda row: max(p.bit_length() for p in row))
    gp = BinaryPoly.parse("011")     # D + D^2
    gq = BinaryPoly.parse("11001")   # 1 + D + D^4
    assert tuple(short) == (gp, gq, gq) * 7


def test_minimal_generator_row_space_matches_raw(best_code):
    assert poly_row_space_equal(minimal_generator(best_code), expanded_generator(best_code))


def test_generator_rows_stay_codewords_after_wrapping(best_code):
    gen = expanded_generator(best_code)
    for length in (7, 14, 21, 28):
        levels = length // 7
        wrapped_h = tailbite(best_code.H_wg, levels)
        wrapped_g = tailbite(gen, levels, -1)
        for row in wrapped_g.data:
            assert wrapped_h.mul_vec(row) == 0


# ---------------------------------------------------------------------------
# bounds, witness, orbit


def test_distance_bounds_reference(constituent_check):
    assert distance_bounds(build_heawood(), constituent_check) == (18, 24)


def test_distance_bounds_utility_variant(constituent_check):
    product, _ = distance_bounds(build_utility(), constituent_check)
    assert product == (4 // 2) * 6 == 12


def test_block_distance_one_bounds_are_one_active_constituent():
    # check row 1,0,0 leaves two columns unchecked: a weight-1 word activates
    # one constituent on each side without closing a cycle
    g, hc = build_utility(), PolyMatrix([[1, 0, 0]])
    assert block_distance_conv(hc) == 1
    assert distance_bounds(g, hc) == (1, None)
    assert witness_search(build_woven_conv(g, hc)).weight == 1


def test_girth_two_bounds_are_one_active_constituent():
    # two parallel edges are a cycle of one constituent per side, so the
    # product bound is the constituent's d_free, met here by an exact witness
    g, hc = random_regular(2, 4, 5, 1), cli.parse_poly_matrix_inline("1,11,101,111")
    assert girth(g) == 2
    assert distance_bounds(g, hc) == (3, None)
    res = witness_search(build_woven_conv(g, hc))
    assert (res.weight, res.exact) == (3, True)


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 5), st.integers(0, 1000),
       st.sampled_from(["1,11,101", "11,101,111", "1,11,111"]), st.permutations((1, 2, 3)))
@example(3, 0, "1,11,101", (1, 2, 3))  # girth 2: max(girth // 2, 2) gave 6 beside a 3
def test_bounds_never_exceed_a_witness_weight(n, seed, row, perm):
    # both bounds are lower bounds, so no codeword, exact or not, may weigh
    # less; most of these graphs have parallel edges (girth 2)
    g, hc = random_regular(2, 3, n, seed), cli.parse_poly_matrix_inline(row)
    product, improved = distance_bounds(g, hc)
    weight = witness_search(build_woven_conv(g, hc, perm)).weight
    assert product <= weight
    assert improved is None or improved <= weight


def test_witness_search_reference_weights(constituent_check):
    g = build_heawood()
    for perm, (_, weight) in TABLE_RESULTS.items():
        code = build_woven_conv(g, constituent_check, perm)
        res = witness_search(code)
        assert res.weight == weight
        assert not res.exact  # nu = 64-66, far beyond the exact pass's limit
        assert orbit_multiplicity(code, res.word) == 7


def test_witness_enumeration_counts_every_scored_word(constituent_check):
    # 14 single rows and 85,085 combinations of two or three shifted rows;
    # the rank-deficient (1,2,3) has 15 rows and 104,000 combinations
    g = build_heawood()
    for perm in permutations((1, 2, 3)):
        res = witness_search(build_woven_conv(g, constituent_check, perm))
        assert res.words_enumerated == (104_015 if perm == (1, 2, 3) else 85_099)


@st.composite
def small_woven_codes(draw):
    kind = draw(st.sampled_from(["utility", "circulant", "random"]))
    if kind == "utility":
        g = build_utility()
    elif kind == "circulant":
        n = draw(st.integers(3, 4))
        a, b = draw(st.permutations(range(1, n)))[:2]
        g = _circulant(n, a, b)
    else:
        g = random_regular(2, 3, draw(st.integers(3, 4)), draw(st.integers(0, 1000)))
    hc = PolyMatrix([draw(st.lists(st.integers(1, 15), min_size=3, max_size=3))])
    return build_woven_conv(g, hc, tuple(draw(st.permutations((1, 2, 3)))))


@settings(max_examples=60, deadline=None)
@given(small_woven_codes(), st.integers(1, 4).flatmap(
    lambda t: st.tuples(st.just(t), st.integers(0, 12 if t < 4 else 4))))
def test_packed_witness_enumeration_matches_column_lists(code, terms_and_shift):
    # the search's starting bound must leave the weight, the word and the
    # count as the unbounded column-list enumeration has them
    assert _enumerate(code, *terms_and_shift) == list_witness_enumeration(code, *terms_and_shift)


def test_witness_chain_product_improved_witness(best_code):
    res = witness_search(best_code)
    product, improved = distance_bounds(best_code.graph, best_code.hc)
    assert product <= improved <= res.weight
    assert (product, improved, res.weight) == (18, 24, 32)


def test_orbit_rejects_non_codeword(best_code):
    bad = (1,) * 21
    with pytest.raises(ValueError):
        orbit_multiplicity(best_code, bad)


def test_orbit_shift_invariance(best_code):
    res = witness_search(best_code)
    shifted = res.word[-3:] + res.word[:-3]
    assert orbit_multiplicity(best_code, shifted) == orbit_multiplicity(best_code, res.word)


@settings(max_examples=15, deadline=None)
@given(st.integers(3, 7).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(0, n - 1), st.integers(0, n - 1))),
       st.lists(st.integers(1, 7), min_size=3, max_size=3))
def test_block_shifts_of_the_witness_are_codewords(n_a_b, hc):
    # orbit_multiplicity counts the block shifts of a codeword without testing them:
    # on a circulant labelling each shift maps the rows of H_wg onto rows of H_wg
    n, a, b = n_a_b
    for perm in permutations((1, 2, 3)):
        code = build_woven_conv(_circulant(n, a, b), PolyMatrix([hc]), perm)
        assert code.z_offsets() == (0, a, b)
        word = witness_search(code).word
        for i in range(n):
            shifted = word[3 * i:] + word[:3 * i]
            assert not any(any(oracle_syndrome(shifted, h_row)) for h_row in code.H_wg.entries)


def test_orbit_multiplicity_divides_levels(best_code):
    res = witness_search(best_code)
    assert orbit_multiplicity(best_code, res.word) in (1, 7)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.just(None), st.integers(0, 1000)), st.integers(3, 4),
       st.lists(st.integers(1, 7), min_size=3, max_size=3), st.permutations((1, 2, 3)),
       st.integers(1, 24), st.one_of(st.integers(0, 300), st.just(200_000)))
@example(None, 3, [1, 1, 1], (1, 2, 3), 24, 200_000)  # nu = 0: every codeword is one branch
def test_exact_pass_matches_table_search(seed, n, hc, perm, cap, nodes):
    g = build_utility() if seed is None else random_regular(2, 3, n, seed)
    code = build_woven_conv(g, PolyMatrix([hc]), perm)
    gen = minimal_generator(code)
    assume(gen.constraint_length <= 12)
    got = lightest_codeword(gen, cap, nodes)
    expected = table_lightest_codeword(gen, cap, nodes)
    if expected is None:
        assert got is None
        return
    weight, word, expanded = got
    assert (weight, expanded, word == ()) == (expected[0], expected[2], expected[1] == ())
    if word:
        assert not any(any(oracle_syndrome(word, h_row)) for h_row in code.H_wg.entries)
        assert sum(p.bit_count() for p in word) == weight < cap


def test_witness_exact_on_degree_zero_specialization():
    code = build_woven_conv(build_heawood(), PolyMatrix([[1, 1, 1]]), (1, 2, 3))
    res = witness_search(code)
    assert res.exact
    assert res.weight == 6  # binary graph code minimum weight


# ---------------------------------------------------------------------------
# encoder


def test_witness_refine_pass_returns_lighter_codeword(monkeypatch):
    # single unshifted generator rows weigh at least 7; the state search finds 6
    monkeypatch.setattr(woven, "_MAX_TERMS", 1)
    monkeypatch.setattr(woven, "_MAX_SHIFT", 0)
    code = build_woven_conv(build_utility(), PolyMatrix([[1, 0b11, 0b101]]), (1, 2, 3))
    res = witness_search(code)
    assert res.weight == 6
    assert res.exact
    assert not any(any(oracle_syndrome(res.word, h_row)) for h_row in code.H_wg.entries)
    assert sum(p.bit_count() for p in res.word) == res.weight
    assert res.word == (0b101, 0, 1, 0, 0, 0, 0, 0b11, 1)


def test_encoder_impulse_matches_generator_row(best_code):
    gen = expanded_generator(best_code)
    for levels in (3, 7):
        wrapped = tailbite(gen, levels, -1)
        info = [0] * (7 * levels)
        info[0] = 1
        out = encode_stream(best_code, info)
        got = sum(b << i for i, b in enumerate(out))
        assert got == wrapped.data[0]


def test_encoder_zero_syndrome_random_frames(best_code):
    rng = random.Random(2)
    for levels in (1, 2, 3, 7):
        wrapped_h = tailbite(best_code.H_wg, levels)
        for _ in range(25):
            info = [rng.randrange(2) for _ in range(7 * levels)]
            out = encode_stream(best_code, info)
            vec = sum(b << i for i, b in enumerate(out))
            assert wrapped_h.mul_vec(vec) == 0


def test_encoder_linearity(best_code):
    rng = random.Random(4)
    for _ in range(30):
        a = [rng.randrange(2) for _ in range(21)]
        b = [rng.randrange(2) for _ in range(21)]
        xor = [x ^ y for x, y in zip(a, b)]
        ea = encode_stream(best_code, a)
        eb = encode_stream(best_code, b)
        ex = encode_stream(best_code, xor)
        assert list(ex) == [x ^ y for x, y in zip(ea, eb)]


def test_encoder_all_zero(best_code):
    assert set(encode_stream(best_code, [0] * 14)) == {0}


def _wrapped_product(code, info, levels):
    """The info row times tailbite(expanded_generator(code), levels, -1), packed."""
    want = 0
    for row, bit in zip(tailbite(expanded_generator(code), levels, -1).data, info):
        if bit:
            want ^= row
    return want


@st.composite
def raw_generator_codes(draw):
    """Heawood under every permutation, utility, and circulants with parallel edges."""
    kind = draw(st.sampled_from(["heawood", "utility", "circulant"]))
    if kind == "heawood":
        g, hc = build_heawood(), CONSTITUENT
    else:
        hc = draw(st.lists(st.integers(0, 31), min_size=3, max_size=3))
        if kind == "utility":
            g = build_utility()
        else:
            n = draw(st.integers(1, 8))
            g = _circulant(n, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
    perm = draw(st.sampled_from(sorted(permutations((1, 2, 3)))))
    return build_woven_conv(g, PolyMatrix([hc]), perm)


@settings(max_examples=120, deadline=None)
@given(raw_generator_codes(), st.data())
def test_encoder_equals_wrapped_generator_product(code, data):
    # levels up to 40 cover frames more than twice the generator memory (10 on Heawood)
    assert 2 * expanded_generator(code).memory < 40
    levels = data.draw(st.integers(1, 40))
    info = data.draw(st.lists(st.integers(0, 1), min_size=code.n * levels,
                              max_size=code.n * levels))
    out = encode_stream(code, info)
    assert len(out) == code.n * code.c * levels
    assert sum(b << i for i, b in enumerate(out)) == _wrapped_product(code, info, levels)


def test_encoder_keeps_each_codes_plan(constituent_check):
    # every code encodes a frame before any encodes its second, the last in reverse order
    codes = [build_woven_conv(build_heawood(), constituent_check, perm)
             for perm in sorted(permutations((1, 2, 3)))]
    codes.append(build_woven_conv(build_utility(), PolyMatrix([[1, 0b11, 0b101]]), (1, 3, 2)))
    rng = random.Random(5)
    for levels, order in ((3, codes), (21, codes[::-1])):
        for code in order:
            info = [rng.randrange(2) for _ in range(code.n * levels)]
            out = encode_stream(code, info)
            assert sum(b << i for i, b in enumerate(out)) == _wrapped_product(code, info, levels)


@pytest.mark.parametrize("bad", [2, 48, 255, 256, -1, 0.5, "1", None])  # 48 is ASCII "0"
def test_encoder_rejects_values_other_than_bits(best_code, bad):
    info = [0, 1] * 7
    info[5] = bad
    with pytest.raises(ValueError, match="0 or 1"):
        encode_stream(best_code, info)


def test_encoder_reads_every_sequence_of_bits_alike(best_code):
    # array('q') is a buffer of 8-byte items: read as bytes it would be 8 values per bit
    info = [0, 1, 1, 0, 1, 0, 0] * 3
    want = encode_stream(best_code, info)
    for given in (tuple(info), bytes(info), bytearray(info), array("q", info),
                  (bit for bit in info)):
        assert encode_stream(best_code, given) == want
    for bad in (21, "0101"):
        with pytest.raises(ValueError, match="0 or 1"):
            encode_stream(best_code, bad)


def test_encoder_rejects_partial_frames(best_code):
    with pytest.raises(ValueError):
        encode_stream(best_code, [1] * 9)
    out = encode_stream(best_code, [1] * 9, pad=True)
    assert len(out) == 2 * 21


def test_encoder_holds_one_output_sized_buffer(best_code):
    # the output bytearray is the frame's one n*c*L buffer: each column becomes
    # bits before it is interleaved, so no translated copy of the output is made
    encode_stream(best_code, [1] * 7)  # the first call builds the plan
    rng = random.Random(6)
    info = [rng.randrange(2) for _ in range(7 * 10_000)]
    tracemalloc.start()
    try:
        out = encode_stream(best_code, info)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) == 21 * 10_000
    assert peak < 2.5 * len(out)


# ---------------------------------------------------------------------------
# sweep


@pytest.fixture(scope="module")
def sweep_rows(constituent_check):
    return permutation_sweep(build_heawood(), constituent_check)


def test_sweep_covers_all_permutations(sweep_rows):
    assert [r.perm for r in sweep_rows] == sorted(
        __import__("itertools").permutations(range(1, 4)))


def test_sweep_reference_rows(sweep_rows):
    by_perm = {r.perm: r for r in sweep_rows}
    for perm, (nu_min, weight) in TABLE_RESULTS.items():
        assert by_perm[perm].nu_minimal == nu_min
        assert by_perm[perm].witness == weight
        assert by_perm[perm].orbit == 7
    assert {by_perm[p].nu_minimal for p in TABLE_RESULTS} == {64, 65, 66}


def test_sweep_flags_rank_deficient_identity(sweep_rows):
    ident = next(r for r in sweep_rows if r.perm == (1, 2, 3))
    assert "rank-deficient" in ident.flags
    assert ident.code_dimension == 8


def test_sweep_flags_equivalent_reverse_pair(sweep_rows, constituent_check):
    pairs = equivalent_permutation_pairs(
        build_heawood(), constituent_check,
        sorted(__import__("itertools").permutations(range(1, 4))))
    assert ((2, 3, 1), (3, 1, 2)) in pairs
    by_perm = {r.perm: r for r in sweep_rows}
    assert "equivalent-to:3,1,2" in by_perm[(2, 3, 1)].flags
    assert "equivalent-to:2,3,1" in by_perm[(3, 1, 2)].flags


@pytest.mark.parametrize("g, hc", [
    (build_heawood(), CONSTITUENT),
    (build_utility(), [1, 0b11, 0b101]),
    (_circulant(5, 1, 2), [1, 1, 0b11]),
    (_circulant(6, 1, 3), [0b101, 1, 0b101]),
    (_circulant(8, 1, 3), [0b11, 0b11, 0b101]),
    (relabel_right(build_heawood(), [3, 6, 0, 5, 1, 4, 2]), CONSTITUENT),
    (build_heawood(), [0b11, 0, 0b11]),
    (build_utility(), [0, 1, 1]),
    (_circulant(5, 0, 2), [1, 0b11, 1]),
], ids=["heawood", "utility", "circulant-5", "circulant-6", "circulant-8",
        "heawood-relabelled", "heawood-zero-entry", "utility-zero-entry", "multigraph-5"])
def test_automorphisms_and_equivalent_pairs_match_the_full_refinement_oracles(g, hc):
    perms = sorted(permutations((1, 2, 3)))
    hc = PolyMatrix([hc])
    assert equivalent_permutation_pairs(g, hc, perms) == oracle_equivalent_permutation_pairs(
        g, hc, perms)


def test_multigraph_pairs_with_identical_checks_are_flagged():
    # offsets (0, 0, 2) give each left vertex two parallel edges; swapping the
    # first and third checks, or the last two, leaves H_wg unchanged
    g, hc = _circulant(5, 0, 2), PolyMatrix([[1, 0b11, 1]])
    perms = sorted(permutations((1, 2, 3)))
    expected = {((1, 2, 3), (3, 2, 1)), ((1, 3, 2), (3, 1, 2))}
    assert expected <= set(equivalent_permutation_pairs(g, hc, perms))
    flags = {row.perm: row.flags.split(";") for row in permutation_sweep(g, hc)}
    for a, b in expected:
        assert f"equivalent-to:{','.join(map(str, b))}" in flags[a]
        assert f"equivalent-to:{','.join(map(str, a))}" in flags[b]


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 6), st.integers(0, 5), st.integers(0, 5),
       st.lists(st.integers(0, 7), min_size=3, max_size=3))
def test_permutations_with_equal_checks_are_flagged(n, a, b, hc):
    g, hc = _circulant(n, a % n, b % n), PolyMatrix([hc])
    perms = sorted(permutations((1, 2, 3)))
    checks = {perm: build_woven_conv(g, hc, perm).H_wg for perm in perms}
    pairs = equivalent_permutation_pairs(g, hc, perms)
    for pair in combinations(perms, 2):
        if checks[pair[0]] == checks[pair[1]]:
            assert pair in pairs


def test_values_and_records_are_immutable(best_code):
    res = witness_search(best_code)
    values = [
        (best_code.H_wg, "entries"),
        (build_heawood(), "edges"),
        (res, "weight"),
        (generator_report(best_code), "nu_minimal"),
        (SweepRow((1, 2, 3), 70, 65, 8, 18, 24, 30, 7, ""), "flags"),
        (BlockStructure(4, 3), "l"),
        (DistanceEstimate(4, 4, True), "value"),
    ]
    for value, field in values:
        for name in (field, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)


def test_sweep_bounds_consistent(sweep_rows):
    for row in sweep_rows:
        assert row.product_bound == 18
        assert row.improved_bound == 24
        assert row.witness >= row.improved_bound
        assert "bound-contradicted" not in row.flags


@pytest.mark.parametrize("bounds, flagged", [
    ((100, None), True),   # a product bound above every witness
    ((1, 100), True),      # an improved bound above every witness
    ((1, None), False),
    ((6, 6), False),       # the lightest utility witnesses weigh 6: a bound may be met
])
def test_sweep_flags_a_bound_that_a_witness_contradicts(monkeypatch, bounds, flagged):
    monkeypatch.setattr(woven, "distance_bounds", lambda g, hc: bounds)
    rows = permutation_sweep(build_utility(), cli.parse_poly_matrix_inline("1,11,101"))
    assert min(row.witness for row in rows) == 6
    for row in rows:
        assert ("bound-contradicted" in row.flags.split(";")) == flagged
