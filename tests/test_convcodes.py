"""Convolutional codes: distances, subcodes, and derived block codes."""

from __future__ import annotations

import random
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wgc.blockcodes import min_distance
from wgc.convcodes import (
    block_distance_conv,
    free_distance,
    tb_encoder_code,
)
from wgc.gf2 import (BinaryPoly, PolyMatrix, _divmod, clmul, minimal_kernel,
                     rank_over_rational_field)
from wgc.woven import subcode_free_distance
from conftest import (CatastrophicEncoderError, minor_rank, poly_gcd, poly_row_space_equal,
                      table_free_distance, tb_block_code, zt_block_code)


# ---------------------------------------------------------------------------
# independent oracles


def enumeration_free_distance(G: PolyMatrix, deg_limit: int) -> int:
    """Min codeword weight over all nonzero inputs of bounded degree."""
    grid = G.entries
    b = G.rows
    best = None
    for mask in range(1, 1 << (b * (deg_limit + 1))):
        us = []
        for i in range(b):
            us.append((mask >> (i * (deg_limit + 1))) & ((1 << (deg_limit + 1)) - 1))
        w = 0
        for j in range(G.cols):
            acc = 0
            for i in range(b):
                acc ^= clmul(us[i], grid[i][j])
            w += acc.bit_count()
        if best is None or w < best:
            best = w
    return best


def noncatastrophic_basis(G: PolyMatrix) -> PolyMatrix:
    """A basis of G's code, checked to span the same rows over GF(2)(D).

    One row is divided by the gcd of its entries, which leaves coprime
    entries and so a non-catastrophic encoder; more rows take the basic basis
    minimal_kernel(minimal_kernel(G)).  ``table_free_distance`` raises on the
    result if it is catastrophic after all.
    """
    if G.rows == 1:
        g = reduce(poly_gcd, G.entries[0])
        basis = PolyMatrix([[_divmod(p, g)[0] for p in G.entries[0]]])
    else:
        basis = minimal_kernel(minimal_kernel(G))
    assert poly_row_space_equal(basis, G)
    return basis


# ---------------------------------------------------------------------------
# the reference pair


def test_reference_pair_is_orthogonal(constituent_generator, constituent_check):
    g, h = constituent_generator, constituent_check
    assert (g.rows, g.cols, h.rows) == (2, 3, 1)
    assert g.memory == 3
    assert g.constraint_length == 5
    assert (g @ h.transpose()).is_zero()
    # the minimal generator of the check row has the same constraint length
    assert minimal_kernel(h).constraint_length == 5


def test_reference_pair_free_distance(constituent_generator, constituent_check):
    assert free_distance(constituent_check) == 6
    assert free_distance(minimal_kernel(constituent_generator)) == 6


def test_reference_block_distance(constituent_check):
    assert block_distance_conv(constituent_check) == 2


def test_block_distance_trivial_cases():
    assert block_distance_conv(PolyMatrix([[1, 1]])) == 2
    assert block_distance_conv(PolyMatrix([[1, 0b10, 0]])) == 1
    # an invertible generator leaves no check row
    with pytest.raises(ValueError, match="no redundancy"):
        block_distance_conv(minimal_kernel(PolyMatrix([[1, 0], [0, 1]])))
    # full column rank: no support carries a nonzero codeword, as free_distance says
    for h in (PolyMatrix([[1, 0], [0, 1]]), PolyMatrix([[1, 0b10], [0b11, 1]])):
        with pytest.raises(ValueError, match="no nonzero codeword"):
            block_distance_conv(h)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5).flatmap(lambda c: st.lists(
    st.lists(st.integers(0, 15), min_size=c, max_size=c), min_size=1, max_size=3)))
@example([[1, 0], [0, 1]])
@example([[1, 0b11], [0b11, 0b101]])  # det (1 + D)^2 + 1 + D^2 = 0: distance 2
def test_block_distance_conv_matches_the_minor_rank_oracle(rows):
    # the least column set whose rank over GF(2)(D) falls below its size
    cols = len(rows[0])
    dependent = [size for size in range(1, cols + 1) for subset in combinations(range(cols), size)
                 if minor_rank([[row[j] for j in subset] for row in rows]) < size]
    if dependent:
        assert block_distance_conv(PolyMatrix(rows)) == min(dependent)
    else:
        with pytest.raises(ValueError, match="no nonzero codeword"):
            block_distance_conv(PolyMatrix(rows))


def test_parity_to_generator_roundtrip(graph_parent_check):
    gen = minimal_kernel(graph_parent_check)
    assert gen.rows == 1
    assert [BinaryPoly.to_string(p) for p in gen.entries[0]] == ["011", "111", "1"]
    assert (gen @ graph_parent_check.transpose()).is_zero()


def test_generator_to_parity_roundtrip(constituent_generator):
    h = minimal_kernel(constituent_generator)
    assert h.rows == 1
    assert (constituent_generator @ h.transpose()).is_zero()


def test_random_generator_parity_pairs_orthogonal():
    # minimal_kernel turns each form into the other: G -> H and H -> G both
    # give G H^T = 0, and the round trip keeps the rank
    rng = random.Random(5)
    for _ in range(20):
        gen = PolyMatrix([[rng.randrange(1, 16) for _ in range(3)]])
        h = minimal_kernel(gen)
        assert h.rows == 2
        assert (gen @ h.transpose()).is_zero()
        back = minimal_kernel(h)
        assert back.rows == 1
        assert (back @ h.transpose()).is_zero()


# ---------------------------------------------------------------------------
# free distance


def test_free_distance_memoryless():
    assert free_distance(minimal_kernel(PolyMatrix([[1, 1]]))) == 2


def test_free_distance_parent_matches_enumeration_oracle(graph_parent_check):
    gen = minimal_kernel(graph_parent_check)
    oracle = enumeration_free_distance(gen, deg_limit=8)
    assert free_distance(graph_parent_check) == oracle == 6


def test_free_distance_invariant_under_column_permutation():
    rng = random.Random(1)
    checked = 0
    for _ in range(14):
        row = [rng.randrange(1, 32) for _ in range(3)]
        perm = rng.sample(range(3), 3)
        gen = PolyMatrix([row])
        try:
            expected = table_free_distance(gen)
            checked += 1
        except CatastrophicEncoderError:
            expected = table_free_distance(noncatastrophic_basis(gen))
        assert free_distance(minimal_kernel(gen)) == expected
        assert free_distance(minimal_kernel(PolyMatrix([[row[j] for j in perm]]))) == expected
    assert checked >= 8


def test_free_distance_takes_any_constraint_length():
    # nu = 25: the search runs on the code's basic basis and walks no 2^nu states
    assert free_distance(minimal_kernel(PolyMatrix([[1, 1 | 1 << 25]]))) == 3


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 4).flatmap(lambda c: st.lists(
    st.lists(st.integers(0, 15), min_size=c, max_size=c), min_size=1, max_size=c - 1)))
def test_minimal_kernel_generators_are_never_catastrophic(rows):
    # minimal_kernel spans the whole polynomial kernel, so its basis is
    # basic: the encoder has no zero-weight loop through nonzero states,
    # on which table_free_distance would raise
    gen = minimal_kernel(PolyMatrix(rows))
    assume(gen.constraint_length <= 12)
    assert table_free_distance(gen) > 0


def test_free_distance_of_a_catastrophic_encoder_is_that_of_its_code():
    # (1+D, 1+D) has a zero-weight loop in the nonzero state, but spans the
    # code of (1, 1)
    catastrophic, basic = PolyMatrix([[0b11, 0b11]]), PolyMatrix([[1, 1]])
    assert free_distance(minimal_kernel(catastrophic)) == free_distance(minimal_kernel(basic)) == 2


def test_free_distance_rejects_an_empty_generator():
    # a square invertible check matrix has a trivial kernel: the code's
    # generator has no rows
    with pytest.raises(ValueError, match="no nonzero codeword"):
        free_distance(PolyMatrix([[1, 0b10], [0, 1]]))


def rows_are_dependent(G: PolyMatrix) -> bool:
    """The test ``wgc freedist --gen`` applies: G's kernel leaves fewer than G.rows dimensions."""
    return G.cols - minimal_kernel(G).rows < G.rows


@st.composite
def small_matrices(draw):
    b = draw(st.integers(1, 2))
    c = draw(st.integers(2, 3))
    # every entry degree is at most 8 // b, so nu <= 8
    entry = st.integers(0, (1 << (8 // b + 1)) - 1)
    return PolyMatrix(draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                                    min_size=b, max_size=b)))


@settings(max_examples=60, deadline=None)
@given(small_matrices())
@example(PolyMatrix([[0b11, 0b10011, 1], [0b1001, 0b10, 0b110]]))
def test_free_distance_matches_table_search_and_enumeration(G):
    try:
        expected = table_free_distance(G)
    except CatastrophicEncoderError:
        # for b <= 2 the rows are dependent when every 2x2 minor (or the one
        # row) is zero; otherwise G spans a code with a non-catastrophic basis
        g = G.entries
        dependent = (not any(g[0]) if G.rows == 1 else
                     all(clmul(g[0][i], g[1][j]) == clmul(g[0][j], g[1][i])
                         for i, j in combinations(range(G.cols), 2)))
        assert rows_are_dependent(G) == dependent
        if not dependent:
            assert free_distance(minimal_kernel(G)) == table_free_distance(noncatastrophic_basis(G))
        return
    # a bounded input gives an upper bound: input degree 6 (b = 2) or 12 (b = 1)
    # reached the lightest path in 3,000 checked draws, but the @example
    # (nu = 7) weighs 5 below input degree 8 and 4 at it
    bounded = enumeration_free_distance(G, deg_limit=14 // G.rows - 1)
    assert bounded >= expected
    # a nonzero input encodes to zero exactly when the rows are dependent
    assert rows_are_dependent(G) == (expected == 0)
    if expected:
        assert free_distance(minimal_kernel(G)) == expected


@st.composite
def transformed_generators(draw):
    # T of full rank over GF(2)(D) maps G's rows onto another basis of its code
    G = draw(small_matrices())
    assume(rank_over_rational_field(G) == G.rows)
    return draw(full_rank_transforms(G.rows)), G


@st.composite
def full_rank_transforms(draw, rows: int):
    T = PolyMatrix(draw(st.lists(st.lists(st.integers(0, 7), min_size=rows, max_size=rows),
                                 min_size=rows, max_size=rows)))
    assume(rank_over_rational_field(T) == T.rows)
    return T


@settings(max_examples=60, deadline=None)
@given(transformed_generators())
@example((PolyMatrix([[0b11]]), PolyMatrix([[0b101, 0b111]])))
def test_free_distance_is_the_same_for_every_generator_of_a_code(pair):
    # T G spans G's code, and is catastrophic whenever det T is not a power of D
    T, G = pair
    assert free_distance(minimal_kernel(T @ G)) == free_distance(minimal_kernel(G))


@st.composite
def transformed_checks(draw):
    # T of full rank over GF(2)(D) keeps H's kernel, and so H's code
    H = draw(small_matrices())
    assume(rank_over_rational_field(H) < H.cols)
    assume(minimal_kernel(H).constraint_length <= 10)
    return draw(full_rank_transforms(H.rows)), H


@settings(max_examples=60, deadline=None)
@given(transformed_checks())
@example((PolyMatrix([[0b11]]), PolyMatrix([[0b10011, 0b111011, 0b111101]])))
def test_free_distance_is_the_same_for_every_check_matrix_of_a_code(pair):
    T, H = pair
    assert free_distance(T @ H) == free_distance(H) == table_free_distance(minimal_kernel(H))


# ---------------------------------------------------------------------------
# rate-1/2 subcodes


def test_rate_half_subcodes_reference(constituent_check):
    # the subcode on support {i, j} is the code of the check pair, generated
    # by the swapped pair, whose entries are coprime on the reference constituent
    for a, b in combinations(constituent_check.entries[0], 2):
        assert minimal_kernel(PolyMatrix([[a, b]])).entries == ((b, a),)
        assert free_distance(PolyMatrix([[a, b]])) == 8
    assert subcode_free_distance(constituent_check) == 8


def test_rate_half_subcode_words_satisfy_parent(constituent_check):
    h = constituent_check.entries[0]
    for i, j in combinations(range(3), 2):
        (a, b), = minimal_kernel(PolyMatrix([[h[i], h[j]]])).entries
        row = [0] * 3
        row[i], row[j] = a, b
        assert (PolyMatrix([row]) @ constituent_check.transpose()).is_zero()


# ---------------------------------------------------------------------------
# zero-tail and tailbitten block codes


def test_zt_block_code_reference(constituent_generator, constituent_check):
    zt = zt_block_code(constituent_generator, 1, constituent_check.memory)
    assert min_distance(zt).value >= 6


def test_zt_block_code_parent(graph_parent_check):
    gen = minimal_kernel(graph_parent_check)
    zt = zt_block_code(gen, 7, graph_parent_check.memory)
    assert (zt.n, zt.k) == (30, 7)
    d = min_distance(zt).value
    assert d >= free_distance(graph_parent_check) == 6


def test_zt_block_code_zero_information():
    h = PolyMatrix([[1, 1, 1], [1, 0b10, 0b1000]])
    zt = zt_block_code(minimal_kernel(h), 0, h.memory)
    assert zt.k == 0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 31), min_size=3, max_size=3), st.integers(1, 3))
def test_zt_block_code_holds_every_shifted_generator_row(row, l):
    # a 1 x c feedforward encoder with coprime entries is non-catastrophic
    assume(poly_gcd(poly_gcd(row[0], row[1]), row[2]) == 1)
    zt = zt_block_code(PolyMatrix([row]), l)
    assert zt.k == l
    for s in range(l):
        word = 0
        for j, p in enumerate(row):
            shifted = clmul(p, 1 << s)
            for t in range(shifted.bit_length()):
                word |= ((shifted >> t) & 1) << (3 * t + j)
        assert zt.H.mul_vec(word) == 0


def test_zt_distance_dominates_free_distance_random():
    rng = random.Random(9)
    for _ in range(8):
        row = [rng.randrange(1, 16) for _ in range(3)]
        code = PolyMatrix([row])
        d_free = free_distance(minimal_kernel(code))
        try:
            assert d_free == table_free_distance(code)
        except CatastrophicEncoderError:
            assert d_free == table_free_distance(noncatastrophic_basis(code))
        # every zero-tail codeword is a finite-weight codeword of the code
        for l in (1, 3):
            assert min_distance(zt_block_code(code, l)).value >= d_free


def test_tb_block_code_parent_wrap(graph_parent_check, heawood_incidence):
    tb = tb_block_code(graph_parent_check, 7)
    assert tb.n == 21
    assert sorted(tb.H.data) == sorted(heawood_incidence.data)
    assert tb.k == 8  # wrapped checks are dependent: one spare dimension
    assert min_distance(tb).value == 6
    enc = tb_encoder_code(minimal_kernel(graph_parent_check), 7)
    assert (enc.n, enc.k) == (21, 7)
    assert min_distance(enc).value == 6


def test_tb_block_code_degenerate_wrap(graph_parent_check):
    tb = tb_block_code(graph_parent_check, 1)
    assert (tb.n, tb.k) == (3, 2)


def test_tb_block_code_quasicyclic_shift(constituent_check):
    tb = tb_block_code(constituent_check, 10)
    assert (tb.n, tb.k) == (30, 20)
    from wgc.gf2 import nullspace_basis

    basis = nullspace_basis(tb.H)
    mask = (1 << 30) - 1
    for row in basis.data:
        rotated = ((row << 3) | (row >> 27)) & mask
        assert tb.H.mul_vec(rotated) == 0


def test_block_distance_singleton_style_bound():
    rng = random.Random(13)
    for _ in range(10):
        row = [rng.randrange(1, 32) for _ in range(3)]
        # Singleton: c - b + 1, with b = c - 1 for one check row
        assert block_distance_conv(PolyMatrix([row])) <= 2
