"""Bit-packed GF(2) algebra: ranks, nullspaces, polynomials, wrapping, reduction."""

from __future__ import annotations

import random
from itertools import permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wgc.gf2 import (
    BinaryMatrix,
    BinaryPoly,
    PolyMatrix,
    clmul,
    kernel_basis,
    minimal_kernel,
    nullspace_basis,
    permutation_equivalent,
    rank,
    rank_over_rational_field,
    row_reduce,
    tailbite,
)
from wgc.hypergraphs import build_heawood
from wgc.woven import build_woven_conv
from conftest import (
    HEAWOOD_ROWS,
    THREE_PARTITE_ROWS,
    UTILITY_ROWS,
    dense_poly_matmul,
    dense_rank,
    list_row_reduce,
    nullspace_row_reduce,
    poly_row_space_equal,
)


# ---------------------------------------------------------------------------
# rank and nullspace


def test_rank_identity():
    assert rank(BinaryMatrix([1, 2, 4], 3)) == 3


def test_rank_heawood_incidence(heawood_incidence):
    assert rank(heawood_incidence) == 13


def test_rank_three_partite_incidence(three_partite_incidence):
    assert rank(three_partite_incidence) == 10


def test_rank_matches_dense_oracle_on_references():
    for rows in (HEAWOOD_ROWS, THREE_PARTITE_ROWS, UTILITY_ROWS):
        assert rank(BinaryMatrix.from_strings(rows)) == dense_rank(rows)


def test_rank_equals_transpose_rank_randomized():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randrange(1, 64)
        n = rng.randrange(1, 64)
        mat = BinaryMatrix([rng.getrandbits(n) for _ in range(m)], n)
        assert rank(mat) == rank(mat.transpose())


def test_nullspace_identity_empty():
    basis = nullspace_basis(BinaryMatrix([1, 2, 4], 3))
    assert basis.rows == 0


def test_nullspace_heawood(heawood_incidence):
    basis = nullspace_basis(heawood_incidence)
    assert basis.rows == 8
    for row in basis.data:
        assert heawood_incidence.mul_vec(row) == 0


def test_nullspace_count_utility(utility_incidence):
    assert dense_rank(UTILITY_ROWS) == 5
    assert nullspace_basis(utility_incidence).rows == 9 - 5


def test_nullspace_exact_randomized():
    rng = random.Random(3)
    for _ in range(40):
        m = rng.randrange(1, 20)
        n = rng.randrange(1, 20)
        mat = BinaryMatrix([rng.getrandbits(n) for _ in range(m)], n)
        basis = nullspace_basis(mat)
        assert basis.rows == n - rank(mat)
        for row in basis.data:
            assert mat.mul_vec(row) == 0
        assert rank(basis) == basis.rows


# ---------------------------------------------------------------------------
# polynomials


def test_poly_mul_square_char2():
    p = BinaryPoly.parse("11")  # 1 + D
    assert clmul(p, p) == BinaryPoly.parse("101")


def test_poly_mul_zero():
    assert clmul(BinaryPoly.parse("1101"), 0) == 0


def test_poly_mul_matches_convolution_oracle():
    from conftest import coeffs, convolve_mod2

    h1 = BinaryPoly.parse("11001")
    h3 = BinaryPoly.parse("101111")
    expected = convolve_mod2(coeffs(h1), coeffs(h3))
    got = clmul(h3, h1)
    assert coeffs(got) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(0, (1 << 33) - 1), st.integers(0, (1 << 33) - 1),
       st.integers(0, (1 << 33) - 1))
def test_poly_mul_ring_axioms(a, b, c):
    assert clmul(a, b) == clmul(b, a)
    assert clmul(clmul(a, b), c) == clmul(a, clmul(b, c))
    assert clmul(a, b ^ c) == clmul(a, b) ^ clmul(a, c)


def test_poly_degree_sentinel_and_product_degree():
    # a zero row has no degree; a product's degree is the sum of its factors'
    a, b = BinaryPoly.parse("1101"), BinaryPoly.parse("011")
    assert PolyMatrix([[0, 0], [a, b], [clmul(a, b), 1]]).row_degrees() == [None, 3, 5]


def test_poly_text_round_trip():
    for text in ("0", "1", "11001", "000001"):
        p = BinaryPoly.parse(text)
        assert BinaryPoly.parse(BinaryPoly.to_string(p)) == p
    assert BinaryPoly.to_string(BinaryPoly.parse("11001")) == "11001"


@given(st.integers(min_value=0))
@example(0)
def test_poly_text_codec_round_trips_every_polynomial(p):
    assert BinaryPoly.parse(BinaryPoly.to_string(p)) == p


@given(st.integers(min_value=0, max_value=2**24 - 1))
@example(0)
def test_poly_text_codec_reads_both_spellings(p):
    # the octal shorthand, like a coefficient string, puts the lowest digit first
    octal = format(p, "o")[::-1]
    spellings = [BinaryPoly.to_string(p), *(prefix + octal for prefix in ("o", "O", "0o", "0O"))]
    assert [BinaryPoly.parse(text) for text in spellings] == [p] * 5


@given(st.text("01234567", min_size=1))
def test_octal_digit_k_holds_the_coefficients_of_d_to_the_3k(digits):
    expected = sum(int(ch, 8) << (3 * k) for k, ch in enumerate(digits))
    assert BinaryPoly.parse("o" + digits) == expected


@pytest.mark.parametrize("text, message", [
    ("o", "bad octal polynomial 'o'"),
    ("0o", "bad octal polynomial '0o'"),
    ("o9", "bad octal polynomial 'o9'"),
    ("o1_2", "bad octal polynomial 'o1_2'"),  # int() would read it as 0o21
    ("o1 2", "bad octal polynomial 'o1 2'"),
    ("x", "not a coefficient string: 'x'"),
    ("", "not a coefficient string: ''"),
    ("12", "not a coefficient string: '12'"),
])
def test_poly_text_codec_names_a_bad_token(text, message):
    with pytest.raises(ValueError) as info:
        BinaryPoly.parse(text)
    assert str(info.value) == message


def test_poly_matrix_rejects_entries_that_are_not_polynomials():
    # a negative int would never leave clmul's loop
    for entry in (-1, "11", 1.0, None):
        with pytest.raises(ValueError, match="nonnegative ints"):
            PolyMatrix([[entry]])


# ---------------------------------------------------------------------------
# rational-field rank


def test_rational_rank_single_row(constituent_check):
    assert rank_over_rational_field(constituent_check) == 1


def test_rational_rank_proportional_rows():
    m = PolyMatrix([[1, 0b10], [0b10, 0b100]])  # [[1, D], [D, D^2]]
    assert rank_over_rational_field(m) == 1


def test_rational_rank_generator_matches_minor_oracle(constituent_generator):
    g = constituent_generator
    # oracle: some 2x2 minor is nonzero
    from wgc.gf2 import clmul

    bits = g.entries
    minors = []
    for j1 in range(3):
        for j2 in range(j1 + 1, 3):
            minors.append(clmul(bits[0][j1], bits[1][j2]) ^ clmul(bits[0][j2], bits[1][j1]))
    assert any(minors)
    assert rank_over_rational_field(g) == 2


def test_rational_nullspace_is_orthogonal(constituent_generator):
    ns = kernel_basis(constituent_generator)
    assert ns.rows == 1
    assert (constituent_generator @ ns.transpose()).is_zero()


def test_kernel_basis_orthogonal_and_full(graph_parent_check):
    basis = kernel_basis(graph_parent_check)
    assert basis.rows == 1
    assert (graph_parent_check @ basis.transpose()).is_zero()
    # the single kernel row is the known parent generator
    assert [BinaryPoly.to_string(p) for p in basis.entries[0]] == ["011", "111", "1"]


def test_trivial_kernel_keeps_the_column_count():
    # an invertible matrix has no kernel rows, but its kernel still has 2 columns
    for kernel in (kernel_basis(PolyMatrix([[1, 0], [0, 1]])),
                   minimal_kernel(PolyMatrix([[1, 0b10], [0, 1]]))):
        assert (kernel.rows, kernel.cols) == (0, 2)
        assert kernel != PolyMatrix([]) and kernel == PolyMatrix([], 2)
        assert PolyMatrix.from_text(kernel.to_text()) == kernel
        assert (kernel.transpose().rows, kernel.transpose().cols) == (2, 0)
    with pytest.raises(ValueError, match="ragged"):
        PolyMatrix([[1, 0]], 3)


# ---------------------------------------------------------------------------
# tailbiting


def test_tailbite_constant_matrix_is_identity_wrap():
    h = PolyMatrix([[1, 1, 0], [0, 1, 1]])
    assert tailbite(h, 1) == h.constant_matrix()


def test_tailbite_rejects_zero_length(graph_parent_check):
    with pytest.raises(ValueError):
        tailbite(graph_parent_check, 0)


def test_tailbite_parent_equals_incidence_up_to_permutation(
        graph_parent_check, heawood_incidence):
    wrapped = tailbite(graph_parent_check, 7)
    assert wrapped.rows == 14 and wrapped.cols == 21
    assert sorted(wrapped.data) == sorted(heawood_incidence.data)
    assert permutation_equivalent(wrapped, heawood_incidence)


def test_tailbite_nullspace_is_quasicyclic(graph_parent_check):
    wrapped = tailbite(graph_parent_check, 7)
    basis = nullspace_basis(wrapped)
    cols = wrapped.cols
    shift = 3
    mask = (1 << cols) - 1
    for row in basis.data:
        assert wrapped.mul_vec(row) == 0
        rotated = ((row << shift) | (row >> (cols - shift))) & mask
        assert wrapped.mul_vec(rotated) == 0


def test_tailbite_generator_rows_have_zero_syndrome(graph_parent_check):
    parent_gen = kernel_basis(graph_parent_check)
    for length in (1, 2, 7, 10):
        wrapped_h = tailbite(graph_parent_check, length)
        wrapped_g = tailbite(parent_gen, length, -1)
        for row in wrapped_g.data:
            assert wrapped_h.mul_vec(row) == 0


def test_tailbite_short_length_accumulates(graph_parent_check):
    wrapped = tailbite(graph_parent_check, 1)  # length below the memory
    assert wrapped == BinaryMatrix.from_strings(["111", "111"])


# ---------------------------------------------------------------------------
# reduction


def test_row_reduce_fixed_point_nonsingular_leading():
    g = PolyMatrix([[0b11, 0b11], [0b1, 0b10]])  # [[1+D, 1+D], [1, D]]
    assert row_reduce(g) == g


def test_row_reduce_rejects_rank_deficient():
    g = PolyMatrix([[0b11, 0b11], [0b110, 0b110]])
    with pytest.raises(ValueError):
        row_reduce(g)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 63), min_size=6, max_size=6))
def test_row_reduce_random_full_rank_reaches_full_rank_leading_matrix(entries):
    g = PolyMatrix([entries[:3], entries[3:]])
    assume(rank_over_rational_field(g) == 2)
    reduced = row_reduce(g)
    assert poly_row_space_equal(reduced, g)
    assert reduced.constraint_length <= g.constraint_length
    # row i of the high-order matrix: coefficients of D^(row degree i)
    high = [sum(((p >> d) & 1) << j for j, p in enumerate(row))
            for row, d in zip(reduced.entries, reduced.row_degrees())]
    assert rank(BinaryMatrix(high, reduced.cols)) == reduced.rows


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(2, 4), st.lists(st.integers(0, 255), min_size=12,
                                                       max_size=12))
def test_row_reduce_matches_nullspace_reduction(rows, cols, entries):
    g = PolyMatrix([entries[r * cols:(r + 1) * cols] for r in range(rows)])
    assume(rows <= cols and rank_over_rational_field(g) == rows)
    assert row_reduce(g) == nullspace_row_reduce(g)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(2, 4), st.lists(st.integers(0, 63), min_size=12,
                                                       max_size=12))
def test_minimal_kernel_converts_each_form_into_the_other(rows, cols, entries):
    # from a generator or a parity-check matrix M, minimal_kernel gives the
    # other form K: M K^T = 0 and rank M + rank K = cols; converting K back
    # gives M's row space when M has full rank
    m = PolyMatrix([entries[r * cols:(r + 1) * cols] for r in range(rows)])
    k = minimal_kernel(m)
    r = rank_over_rational_field(m)
    assert k.rows == cols - r
    assume(k.rows)
    assert (m @ k.transpose()).is_zero()
    assert rank_over_rational_field(k) == k.rows
    back = minimal_kernel(k)
    assert back.rows == r
    if r:
        assert (back @ k.transpose()).is_zero()
    if r == rows:
        assert poly_row_space_equal(back, m)


def test_row_reduce_matches_nullspace_reduction_on_heawood_kernels(constituent_check):
    for perm in permutations((1, 2, 3)):
        code = build_woven_conv(build_heawood(), constituent_check, perm)
        kernel = kernel_basis(code.H_wg)
        assert row_reduce(kernel) == nullspace_row_reduce(kernel) == list_row_reduce(kernel)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 40), st.booleans(), st.data())
def test_packed_row_reduce_matches_the_list_reduction(rows, cols, degree, dependent, data):
    # entries of degree at most ``degree``; with ``dependent`` the last row is
    # a GF(2)[D] combination of the others, and both reductions must refuse it
    entry = st.integers(0, (2 << degree) - 1)
    grid = [data.draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    if dependent and rows > 1:
        factors = data.draw(st.lists(st.integers(0, 15), min_size=rows - 1, max_size=rows - 1))
        grid[-1] = [0] * cols
        for f, row in zip(factors, grid):
            grid[-1] = [acc ^ clmul(f, p) for acc, p in zip(grid[-1], row)]
    g = PolyMatrix(grid)
    if rank_over_rational_field(g) == rows:
        assert row_reduce(g) == list_row_reduce(g)
    else:
        with pytest.raises(ValueError):
            list_row_reduce(g)
        with pytest.raises(ValueError):
            row_reduce(g)


# ---------------------------------------------------------------------------
# text formats and permutation equivalence


def test_binary_matrix_text_round_trip(utility_incidence):
    text = utility_incidence.to_text()
    assert BinaryMatrix.from_text(text) == utility_incidence
    assert text.splitlines()[0] == "6 9"
    empty = BinaryMatrix((), 3)
    assert BinaryMatrix.from_text(empty.to_text()) == empty


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
def test_sparse_poly_matmul_matches_the_dense_product(m, k, n, data):
    entry = st.one_of(st.just(0), st.integers(0, 255))
    a = [data.draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(m)]
    b = [data.draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(k)]
    # zero rows and columns on either side, so whole terms are skipped
    for grid, size, width in ((a, m, k), (b, k, n)):
        if data.draw(st.booleans()):
            grid[data.draw(st.integers(0, size - 1))] = [0] * width
        if data.draw(st.booleans()):
            j = data.draw(st.integers(0, width - 1))
            for row in grid:
                row[j] = 0
    ma, mb = PolyMatrix(a), PolyMatrix(b)
    assert ma @ mb == dense_poly_matmul(ma, mb)


def test_poly_matrix_text_round_trip(constituent_check):
    text = constituent_check.to_text()
    assert PolyMatrix.from_text(text) == constituent_check
    assert text.splitlines()[0] == "1 3"
    assert text.splitlines()[1] == "11001"


def test_canonical_form_invariant_under_permutations():
    rng = random.Random(11)
    base = BinaryMatrix.from_strings(UTILITY_ROWS)
    for _ in range(5):
        rp = list(range(base.rows))
        cp = list(range(base.cols))
        rng.shuffle(rp)
        rng.shuffle(cp)
        shuffled = BinaryMatrix([sum(1 << cp[j] for j in range(base.cols) if base.data[i] >> j & 1)
                                 for i in rp], base.cols)
        assert permutation_equivalent(shuffled, base)


def test_canonical_form_separates_different_matrices():
    a = BinaryMatrix.from_strings(["110", "011"])
    b = BinaryMatrix.from_strings(["111", "011"])
    assert not permutation_equivalent(a, b)


@st.composite
def matrix_pairs(draw):
    """Entry grids up to 3x4, A and either a shuffled copy of A or an independent draw.

    Entries are 0/1 or polynomials 0..3; each side is also drawn as a matrix,
    a BinaryMatrix being possible only for 0/1 entries.
    """
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    top = draw(st.sampled_from([1, 3]))
    grids = st.lists(st.lists(st.integers(0, top), min_size=cols, max_size=cols),
                     min_size=rows, max_size=rows)
    a = draw(grids)
    if draw(st.booleans()):
        rp, cp = draw(st.permutations(range(rows))), draw(st.permutations(range(cols)))
        b = [[a[i][j] for j in cp] for i in rp]
    else:
        b = draw(grids)

    def matrix(grid):
        if top == 1 and draw(st.booleans()):
            return BinaryMatrix([sum(v << j for j, v in enumerate(row)) for row in grid], cols)
        return PolyMatrix(grid)

    return a, b, matrix(a), matrix(b)


@settings(max_examples=300, deadline=None)
@given(matrix_pairs())
def test_permutation_equivalent_matches_brute_force(pair):
    a, b, ma, mb = pair
    brute = any([[a[i][j] for j in cp] for i in rp] == b for rp in permutations(range(len(a)))
                for cp in permutations(range(len(a[0]))))
    assert permutation_equivalent(ma, mb) == brute


def test_matrix_is_immutable(heawood_incidence):
    with pytest.raises(AttributeError):
        heawood_incidence.rows = 1
