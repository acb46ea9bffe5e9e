"""Graph codes, woven block codes, distances, and the product-type bounds."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wgc.blockcodes import (
    BlockStructure,
    DistanceEstimate,
    LinearBlockCode,
    block_distance,
    build_graph_code,
    build_woven_block,
    min_distance,
    product_distance_bound,
    rate_bound,
)
from wgc.convcodes import block_distance_conv
from wgc.gf2 import BinaryMatrix, PolyMatrix, rank
from wgc.hypergraphs import (build_heawood, build_three_partite, build_utility,
                             identity_assignment, random_regular)
from conftest import (WOVEN_BLOCK_CONSTITUENT_ROWS, dense_min_weight, girth_distance_check,
                      gray_block_distance, oracle_block_parity)

SPC3 = BinaryMatrix.from_strings(["111"])


def constituent_code() -> LinearBlockCode:
    return LinearBlockCode(BinaryMatrix.from_strings(WOVEN_BLOCK_CONSTITUENT_ROWS))


# ---------------------------------------------------------------------------
# minimum distance


def test_heawood_graph_code_shape_and_distance(heawood_incidence):
    code = LinearBlockCode(heawood_incidence)
    assert (code.n, code.k) == (21, 8)
    est = min_distance(code)
    assert est.exact and est.value == 6
    assert est.value == dense_min_weight(heawood_incidence.to_strings())


def test_three_partite_code_shape_and_distance(three_partite_incidence):
    code = LinearBlockCode(three_partite_incidence)
    assert (code.n, code.k) == (16, 6)
    assert min_distance(code).value == 6
    assert rate_bound(build_three_partite(), Fraction(3, 4)) == Fraction(1, 4)
    assert code.rate == Fraction(3, 8) >= Fraction(1, 4)


def test_min_distance_rejects_zero_dimension():
    with pytest.raises(ValueError):
        min_distance(LinearBlockCode(BinaryMatrix([1, 2, 4, 8], 4)))


def test_min_distance_matches_dense_oracle_small_codes(utility_incidence):
    for rows in ([
        "110011",
        "011010",
    ], utility_incidence.to_strings()):
        code = LinearBlockCode(BinaryMatrix.from_strings(rows))
        assert min_distance(code).value == dense_min_weight(rows)


def test_min_distance_sampled_path_is_honest(heawood_incidence):
    code = LinearBlockCode(heawood_incidence)
    est = min_distance(code, full_enum_limit=4)
    assert not est.exact or est.value == est.floor
    assert est.floor <= 6 <= est.value


@st.composite
def parity_check_rows(draw):
    """Random H as 0/1 strings; repeated and summed rows make it rank deficient."""
    n = draw(st.integers(2, 20))
    rng = draw(st.randoms(use_true_random=False))  # uniform bits, unlike integers()
    rows = [rng.getrandbits(n) for _ in range(draw(st.integers(1, n)))]
    for a, b in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                        st.integers(0, len(rows) - 1)), max_size=3)):
        rows.append(rows[a] ^ rows[b])
    return [format(r, f"0{n}b") for r in rows]


@settings(max_examples=300, deadline=None)
@given(parity_check_rows())
def test_min_distance_matches_brute_force(rows):
    code = LinearBlockCode(BinaryMatrix.from_strings(rows))
    assume(1 <= code.k <= 14)
    d = dense_min_weight(rows)
    est = min_distance(code)
    assert est.exact and est.value == est.floor == d
    # every word budget leaves a certified floor and a reachable weight
    for limit in range(code.k + 1):
        est = min_distance(code, full_enum_limit=limit)
        assert est.floor <= d <= est.value and est.exact == (est.floor == est.value)


def test_min_distance_word_budget_keeps_a_certified_floor():
    # the code has d = 4 (see the next test); the limits are too small for
    # an exact answer at first, and from 2^6 words it is exact
    code = build_woven_block(build_heawood(), constituent_code(), BlockStructure(4, 3))
    assert not min_distance(code, full_enum_limit=0).exact
    for limit in range(8):
        est = min_distance(code, full_enum_limit=limit)
        # the lightest row of the first systematic generator already has weight 4
        assert est.floor <= 4 == est.value
        assert est.exact == (est.value == est.floor)
    with pytest.raises(ValueError, match="full_enum_limit"):
        min_distance(code, full_enum_limit=-1)


def test_min_distance_floor_dependency_is_exact_on_wide_woven_block():
    code = build_woven_block(build_heawood(), constituent_code(), BlockStructure(4, 3))
    assert (code.n, code.k) == (84, 28)
    assert min_distance(code) == DistanceEstimate(4, 4, True)
    # independent check by column pairs of H grouped by their XOR: no zero
    # column, equal pair or pair equal to a third column means no codeword of
    # weight 3 or less; two pairs with one XOR are the support of a weight-4 one
    cols = code.H.transpose().data
    pairs: dict[int, list[tuple[int, int]]] = {}
    for a, b in combinations(range(len(cols)), 2):
        pairs.setdefault(cols[a] ^ cols[b], []).append((a, b))
    assert 0 not in cols and 0 not in pairs and not any(col in pairs for col in cols)
    quad = next(p + q for group in pairs.values() for p, q in combinations(group, 2))
    assert len(set(quad)) == 4
    assert code.H.mul_vec(sum(1 << j for j in quad)) == 0


# ---------------------------------------------------------------------------
# block distance


def test_block_distance_single_parity_check():
    code = LinearBlockCode(SPC3)
    assert block_distance(code, BlockStructure(1, 3)) == 2


@pytest.mark.parametrize("l, c", [(-1, -3), (0, 3), (3, 0)])
def test_block_structure_rejects_non_positive_sizes(l, c):
    # l * c equals the length, so only the sign check can reject it
    with pytest.raises(ValueError, match="l >= 1 and c >= 1"):
        BlockStructure(l, c).check(l * c)


def test_block_distance_repetition():
    code = LinearBlockCode(BinaryMatrix.from_strings(["110", "011"]))
    assert code.k == 1
    assert block_distance(code, BlockStructure(1, 3)) == 3


def test_block_distance_constituent_matches_enumeration_oracle():
    # the reference constituent's third block is singular, so a codeword
    # lives in a single sub-block and the block distance is 1
    code = constituent_code()
    assert (code.n, code.k) == (12, 8)
    from conftest import dense_nullspace

    vectors = dense_nullspace(WOVEN_BLOCK_CONSTITUENT_ROWS)
    best = 4
    for mask in range(1, 1 << len(vectors)):
        acc = [0] * 12
        for i, vec in enumerate(vectors):
            if (mask >> i) & 1:
                acc = [a ^ b for a, b in zip(acc, vec)]
        blocks = sum(1 for b in range(3) if any(acc[4 * b:4 * b + 4]))
        if 0 < blocks < best:
            best = blocks
    assert block_distance(code, BlockStructure(4, 3)) == best == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.data())
def test_block_distance_matches_gray_code_enumeration(l, c, data):
    rows = data.draw(st.lists(st.text("01", min_size=l * c, max_size=l * c),
                              min_size=1, max_size=5))
    code = LinearBlockCode(BinaryMatrix.from_strings(rows))
    assume(code.k > 0)
    assert block_distance(code, BlockStructure(l, c)) == gray_block_distance(rows, l)
    if l == 1:
        # a constant H has the same rank over GF(2)(D) as over GF(2)
        assert block_distance_conv(PolyMatrix([[int(b) for b in row] for row in rows])) \
            == gray_block_distance(rows, 1)


def test_block_distance_beyond_enumeration_range():
    # k = 30; every sub-block holds the columns e0 and e1, so one sub-block
    # carries no codeword and any two carry one
    code = LinearBlockCode(BinaryMatrix.from_strings(["10" * 16, "01" * 16]))
    assert code.k == 30
    assert block_distance(code, BlockStructure(2, 16)) == 2


def test_constituent_reference_distance():
    assert min_distance(constituent_code()).value == 3


# ---------------------------------------------------------------------------
# graph codes


def test_graph_code_heawood_equals_incidence(heawood_incidence):
    code = build_graph_code(build_heawood(), SPC3)
    assert code.H == heawood_incidence
    assert (code.n, code.k) == (21, 8)
    assert min_distance(code).value == 6


def test_graph_code_utility_single_parity(utility_incidence):
    code = build_graph_code(build_utility(), SPC3)
    assert code.H == utility_incidence
    assert (code.n, code.k) == (9, 4)
    assert min_distance(code).value == 4 == dense_min_weight(code.H.to_strings())


def test_graph_code_three_partite_single_parity(three_partite_incidence):
    code = build_graph_code(build_three_partite(), BinaryMatrix.from_strings(["1111"]))
    assert code.H == three_partite_incidence
    assert (code.n, code.k) == (16, 6)
    assert min_distance(code).value == 6


def test_graph_code_rejects_mismatched_degree():
    with pytest.raises(ValueError):
        build_graph_code(build_heawood(), BinaryMatrix.from_strings(["1111"]))


def test_graph_code_distance_equals_girth_on_bipartite_instances():
    from wgc.hypergraphs import girth, random_regular

    for g in (build_heawood(), build_utility()):
        spc = BinaryMatrix.from_strings(["1" * g.c])
        assert min_distance(build_graph_code(g, spc)).value == girth(g)
    for seed in range(3):
        g = random_regular(2, 3, 4, seed)
        spc = BinaryMatrix.from_strings(["111"])
        assert min_distance(build_graph_code(g, spc)).value == girth(g)


# ---------------------------------------------------------------------------
# woven block codes

BEST_UTILITY_ASSIGNMENT = ((0, 1, 2), (1, 2, 0), (0, 1, 2), (2, 0, 1))
# bottom-vertex block orders: v0 edges (0,4,8) get blocks (1,2,0), v1 edges
# (2,3,7) get (0,1,2), v2 edges (1,5,6) get (2,0,1)


def best_assignment():
    g = build_utility()
    ident = identity_assignment(g)
    return (ident[0], ((1, 2, 0), (0, 1, 2), (2, 0, 1)))


def expected_woven_matrix() -> BinaryMatrix:
    """Assemble the reference 24x36 matrix from block strings, independently."""
    blocks = {
        0: ["1000", "0100", "0010", "0001"],
        1: ["1110", "0111", "1011", "1101"],
        2: ["1100", "0110", "0011", "1001"],
    }
    zero = "0000"
    layout = [
        {0: 0, 1: 1, 2: 2},
        {3: 0, 4: 1, 5: 2},
        {6: 0, 7: 1, 8: 2},
        {0: 1, 4: 2, 8: 0},
        {2: 0, 3: 1, 7: 2},
        {1: 2, 5: 0, 6: 1},
    ]
    rows = []
    for place in layout:
        for r in range(4):
            cells = [blocks[place[e]][r] if e in place else zero for e in range(9)]
            rows.append("".join(cells))
    return BinaryMatrix.from_strings(rows)


def test_woven_block_reference_matrix_and_distance():
    g = build_utility()
    code = build_woven_block(g, constituent_code(), BlockStructure(4, 3), best_assignment())
    assert code.H == expected_woven_matrix()
    assert (code.n, code.k) == (36, 12)
    assert min_distance(code).value == 10


def test_woven_block_identity_assignment_rate_bound():
    g = build_utility()
    code = build_woven_block(g, constituent_code(), BlockStructure(4, 3))
    assert code.rate >= rate_bound(g, Fraction(2, 3)) == Fraction(1, 3)
    assert code.H.rows == g.s * g.n * 4 and code.H.cols == g.num_edges * 4


def test_woven_block_assignment_sweep_max_distance_is_ten():
    g = build_utility()
    constituent = constituent_code()
    bs = BlockStructure(4, 3)
    ident = identity_assignment(g)
    perms3 = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    best = 0
    hits = []
    for combo in product(perms3, repeat=3):
        code = build_woven_block(g, constituent, bs, (ident[0], combo))
        d = min_distance(code).value
        if d > best:
            best, hits = d, [combo]
        elif d == best:
            hits.append(combo)
    assert best == 10
    assert ((1, 2, 0), (0, 1, 2), (2, 0, 1)) in hits


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(2, 4), st.integers(1, 5), st.sampled_from([1, 2, 4]),
       st.integers(0, 2**32), st.data())
def test_route_checks_matches_block_oracle(s, c, n, l, seed, data):
    g = random_regular(s, c, n, seed)
    rows = data.draw(st.lists(st.integers(0, (1 << (c * l)) - 1), min_size=1, max_size=3))
    hc = BinaryMatrix(rows, c * l)
    assignment = tuple(tuple(tuple(data.draw(st.permutations(range(c)))) for _ in range(n))
                       for _ in range(s))
    expected = oracle_block_parity(g, hc, l, assignment)
    code = build_woven_block(g, LinearBlockCode(hc), BlockStructure(l, c), assignment)
    assert code.H == expected
    if l == 1:
        assert build_graph_code(g, hc, assignment).H == expected


def test_woven_block_rejects_bad_assignment():
    g = build_utility()
    ident = identity_assignment(g)
    broken = (ident[0], ((0, 0, 1), (0, 1, 2), (0, 1, 2)))
    with pytest.raises(ValueError):
        build_woven_block(g, constituent_code(), BlockStructure(4, 3), broken)


# ---------------------------------------------------------------------------
# bounds


def test_girth_distance_check_reference_cases():
    spc4 = BinaryMatrix.from_strings(["1111"])
    assert girth_distance_check(build_heawood(), LinearBlockCode(SPC3)) == (6, 6)
    assert girth_distance_check(build_three_partite(), LinearBlockCode(spc4)) == (6, 6)
    assert girth_distance_check(build_utility(), LinearBlockCode(SPC3)) == (4, 4)


def test_product_distance_bound_utility_woven():
    # block distance 1: one active vertex is all that is certain, so the
    # bound is the constituent minimum distance 3
    bound = product_distance_bound(build_utility(), constituent_code(), BlockStructure(4, 3))
    assert bound == 3
    code = build_woven_block(build_utility(), constituent_code(), BlockStructure(4, 3),
                             best_assignment())
    assert bound <= min_distance(code).value == 10


FULL_RANK_CONSTITUENT_ROWS = [
    # same shape as the reference constituent but with all three sub-blocks
    # nonsingular: block distance 2, minimum distance 3
    "100010001011",
    "010011010100",
    "001001111001",
    "000100110111",
]


def test_product_distance_bound_depth_two_cases():
    cst = LinearBlockCode(BinaryMatrix.from_strings(FULL_RANK_CONSTITUENT_ROWS))
    bs = BlockStructure(4, 3)
    assert min_distance(cst).value == 3
    assert block_distance(cst, bs) == 2

    bound_heawood = product_distance_bound(build_heawood(), cst, bs)
    assert bound_heawood == 6 // 3 * 3 == 6
    est = min_distance(build_woven_block(build_heawood(), cst, bs))
    assert bound_heawood <= est.value

    bound_utility = product_distance_bound(build_utility(), cst, bs)
    assert bound_utility == 6
    exact = min_distance(build_woven_block(build_utility(), cst, bs))
    assert exact.exact and bound_utility <= exact.value


def test_product_distance_bound_rejects_a_constituent_of_another_degree():
    spc4 = LinearBlockCode(BinaryMatrix([0b1111], 4))
    with pytest.raises(ValueError, match="4 column blocks, graph degree is 3"):
        product_distance_bound(build_utility(), spc4, BlockStructure(1, 4))


@st.composite
def woven_block_cases(draw):
    """A random_regular graph of at most 16 edges and a constituent check matrix.

    Half the cases take the single-parity-check constituent at l = 1, the
    others a random full-rank check matrix of r < 2c rows at l = 2.
    """
    s, c = draw(st.sampled_from([2, 3])), draw(st.sampled_from([3, 4]))
    graph = (s, c, draw(st.integers(1, 16 // c)), draw(st.integers(0, 1000)))
    if draw(st.booleans()):
        return graph, BinaryMatrix([(1 << c) - 1], c), 1
    r = draw(st.integers(1, 2 * c - 1))
    hc = BinaryMatrix(draw(st.lists(st.integers(1, (1 << 2 * c) - 1), min_size=r, max_size=r)),
                      2 * c)
    assume(rank(hc) == r)
    return graph, hc, 2


@settings(max_examples=60, deadline=None)
@given(woven_block_cases())
@example(((2, 4, 5, 1), BinaryMatrix([0b1111], 4), 1))  # girth 2: a weight-2 word, bound 2
def test_product_distance_bound_never_exceeds_the_exact_distance(case):
    (s, c, n, seed), hc, l = case
    g, constituent, bs = random_regular(s, c, n, seed), LinearBlockCode(hc), BlockStructure(l, c)
    code = build_woven_block(g, constituent, bs)
    assume(code.k > 0)
    est = min_distance(code)
    assert est.exact
    assert product_distance_bound(g, constituent, bs) <= est.value


def test_rate_bound_values():
    assert rate_bound(build_utility(), Fraction(2, 3)) == Fraction(1, 3)
    assert rate_bound(build_utility(), Fraction(1, 1)) == 1
    with pytest.raises(ValueError):
        rate_bound(build_utility(), Fraction(3, 2))


def test_rates_meet_bound_for_constructed_codes():
    cases = [
        (build_heawood(), SPC3, Fraction(2, 3)),
        (build_utility(), SPC3, Fraction(2, 3)),
        (build_three_partite(), BinaryMatrix.from_strings(["1111"]), Fraction(3, 4)),
    ]
    for g, hc, rc in cases:
        code = build_graph_code(g, hc)
        assert code.rate >= rate_bound(g, rc)
