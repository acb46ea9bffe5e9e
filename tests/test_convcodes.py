"""Convolutional codes: distances, spectra, subcodes, and derived block codes."""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wgc.blockcodes import min_distance
from wgc.convcodes import (
    CatastrophicEncoderError,
    ConvCode,
    block_distance_conv,
    free_distance,
    rate_half_subcodes,
    spectrum,
    tb_block_code,
    tb_encoder_code,
    zt_block_code,
)
from wgc.gf2 import BinaryPoly, PolyMatrix, clmul, poly_gcd, rank


# ---------------------------------------------------------------------------
# independent oracles


def enumeration_free_distance(G: PolyMatrix, deg_limit: int) -> int:
    """Min codeword weight over all nonzero inputs of bounded degree."""
    grid = G.bits()
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


def path_count_spectrum_oracle(G: PolyMatrix, w_max: int, t_max: int) -> dict[int, int]:
    """Count first-event paths by weight with an explicit time-indexed DP."""
    from wgc.convcodes import _Trellis

    tr = _Trellis(G)
    zero = tr.zero
    counts: dict[int, int] = {}
    frontier = {}
    for u in tr.inputs:
        if any(u):
            st, w = tr.step(zero, u)
            if w > w_max:
                continue
            if st == zero:
                counts[w] = counts.get(w, 0) + 1
            else:
                frontier[(st, w)] = frontier.get((st, w), 0) + 1
    for _ in range(t_max):
        nxt_frontier: dict = {}
        for (st, w), cnt in frontier.items():
            for u in tr.inputs:
                nst, bw = tr.step(st, u)
                nw = w + bw
                if nw > w_max:
                    continue
                if nst == zero:
                    counts[nw] = counts.get(nw, 0) + cnt
                else:
                    nxt_frontier[(nst, nw)] = nxt_frontier.get((nst, nw), 0) + cnt
        frontier = nxt_frontier
        if not frontier:
            break
    assert not frontier, "oracle horizon too short for this weight cap"
    return counts


def reference_codes(constituent_generator, constituent_check, graph_parent_check):
    pair = ConvCode(G=constituent_generator, H=constituent_check)
    parent = ConvCode.from_parity(graph_parent_check)
    return pair, parent


# ---------------------------------------------------------------------------
# the reference pair


def test_reference_pair_is_orthogonal(constituent_generator, constituent_check):
    code = ConvCode(G=constituent_generator, H=constituent_check)
    assert (code.b, code.c) == (2, 3)
    assert code.memory == 3
    assert code.nu == 5


def test_reference_pair_free_distance(constituent_generator, constituent_check):
    code = ConvCode(G=constituent_generator, H=constituent_check)
    assert free_distance(code) == 6


def test_reference_block_distance(constituent_check):
    assert block_distance_conv(ConvCode.from_parity(constituent_check)) == 2


def test_block_distance_trivial_cases():
    assert block_distance_conv(ConvCode.from_parity(PolyMatrix([[1, 1]]))) == 2
    with_zero_col = ConvCode.from_parity(PolyMatrix([[1, 0b10, 0]]))
    assert block_distance_conv(with_zero_col) == 1


def test_parity_to_generator_roundtrip(graph_parent_check):
    code = ConvCode.from_parity(graph_parent_check).with_generator()
    assert code.G.rows == 1
    assert [p.to_string() for p in code.G.entries[0]] == ["011", "111", "1"]
    assert (code.G @ graph_parent_check.transpose()).is_zero()


def test_generator_to_parity_roundtrip(constituent_generator):
    code = ConvCode.from_generator(constituent_generator).with_parity()
    assert code.H.rows == 1
    assert (constituent_generator @ code.H.transpose()).is_zero()


def test_random_generator_parity_pairs_orthogonal():
    rng = random.Random(5)
    for _ in range(20):
        row = [rng.randrange(1, 16) for _ in range(3)]
        code = ConvCode.from_generator(PolyMatrix([row])).with_parity()
        assert code.H is not None
        assert (code.G @ code.H.transpose()).is_zero()


# ---------------------------------------------------------------------------
# free distance


def test_free_distance_memoryless():
    assert free_distance(ConvCode.from_generator(PolyMatrix([[1, 1]]))) == 2


def test_free_distance_parent_matches_enumeration_oracle(graph_parent_check):
    code = ConvCode.from_parity(graph_parent_check).with_generator()
    oracle = enumeration_free_distance(code.G, deg_limit=8)
    assert free_distance(code) == oracle == 6


def test_free_distance_invariant_under_column_permutation():
    rng = random.Random(1)
    checked = 0
    for _ in range(14):
        row = [rng.randrange(1, 32) for _ in range(3)]
        perm = rng.sample(range(3), 3)
        try:
            base = free_distance(ConvCode.from_generator(PolyMatrix([row])))
        except CatastrophicEncoderError:
            with pytest.raises(CatastrophicEncoderError):
                free_distance(ConvCode.from_generator(PolyMatrix([[row[j] for j in perm]])))
            continue
        shuffled = free_distance(ConvCode.from_generator(PolyMatrix([[row[j] for j in perm]])))
        assert base == shuffled
        checked += 1
    assert checked >= 8


def test_free_distance_rejects_oversized_state_space(constituent_generator):
    code = ConvCode.from_generator(constituent_generator)
    with pytest.raises(ValueError):
        free_distance(code, max_constraint=4)


def test_free_distance_detects_catastrophic_encoder():
    # (1+D, 1+D) has a zero-weight loop in the nonzero state
    code = ConvCode.from_generator(PolyMatrix([[0b11, 0b11]]))
    with pytest.raises(CatastrophicEncoderError):
        free_distance(code)


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_memoryless_single_branch():
    spec = spectrum(ConvCode.from_generator(PolyMatrix([[1, 1]])), depth=3)
    assert spec == {2: 1, 3: 0, 4: 0, 5: 0}


def test_spectrum_reference_matches_path_count_oracle(constituent_generator):
    code = ConvCode.from_generator(constituent_generator)
    got = spectrum(code, depth=2)
    oracle = path_count_spectrum_oracle(constituent_generator, w_max=8, t_max=60)
    assert got[6] == oracle.get(6, 0) > 0
    assert got[7] == oracle.get(7, 0)
    assert got[8] == oracle.get(8, 0)


def test_spectrum_parent_matches_path_count_oracle(graph_parent_check):
    code = ConvCode.from_parity(graph_parent_check).with_generator()
    got = spectrum(code, depth=2)
    oracle = path_count_spectrum_oracle(code.G, w_max=8, t_max=80)
    assert got == {w: oracle.get(w, 0) for w in range(6, 9)}
    assert got[6] >= 1


def test_spectrum_zero_below_free_distance(constituent_generator):
    code = ConvCode.from_generator(constituent_generator)
    spec = spectrum(code, depth=0)
    assert min(spec) == free_distance(code)


# ---------------------------------------------------------------------------
# rate-1/2 subcodes


def test_rate_half_subcodes_reference(constituent_check):
    code = ConvCode.from_parity(constituent_check)
    subs = rate_half_subcodes(code)
    assert len(subs) == 3
    h1, h2, h3 = constituent_check.entries[0]
    # supports (0,1), (0,2), (1,2); generators are the swapped check pairs
    expected = [
        (h2, h1, BinaryPoly(0)),
        (h3, BinaryPoly(0), h1),
        (BinaryPoly(0), h3, h2),
    ]
    got = [tuple(sc.G.entries[0]) for sc in subs]
    assert sorted(str(g) for g in got) == sorted(str(e) for e in expected)
    assert min(free_distance(sc) for sc in subs) == 8
    assert [free_distance(sc) for sc in subs] == [8, 8, 8]


def test_rate_half_subcode_words_satisfy_parent(constituent_check):
    code = ConvCode.from_parity(constituent_check)
    for sc in rate_half_subcodes(code):
        assert (sc.G @ constituent_check.transpose()).is_zero()


def test_rate_half_subcodes_reject_wrong_width():
    with pytest.raises(ValueError):
        rate_half_subcodes(ConvCode.from_parity(PolyMatrix([[1, 1]])))


# ---------------------------------------------------------------------------
# zero-tail and tailbitten block codes


def test_zt_block_code_reference(constituent_generator, constituent_check):
    code = ConvCode(G=constituent_generator, H=constituent_check)
    zt = zt_block_code(code, 1)
    assert min_distance(zt).value >= 6


def test_zt_block_code_parent(graph_parent_check):
    code = ConvCode.from_parity(graph_parent_check)
    zt = zt_block_code(code, 7)
    assert (zt.n, zt.k) == (30, 7)
    d = min_distance(zt).value
    assert d >= free_distance(code.with_generator()) == 6


def test_zt_block_code_zero_information():
    code = ConvCode.from_parity(PolyMatrix([[1, 1, 1], [1, 0b10, 0b1000]]))
    zt = zt_block_code(code, 0)
    assert zt.k == 0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 31), min_size=3, max_size=3), st.integers(1, 3))
def test_zt_block_code_holds_every_shifted_generator_row(row, l):
    polys = [BinaryPoly(p) for p in row]
    # a 1 x c feedforward encoder with coprime entries is non-catastrophic
    assume(poly_gcd(poly_gcd(polys[0], polys[1]), polys[2]) == BinaryPoly(1))
    code = ConvCode.from_generator(PolyMatrix([row]))
    zt = zt_block_code(code, l)
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
        code = ConvCode.from_generator(PolyMatrix([row]))
        try:
            d_free = free_distance(code)
        except CatastrophicEncoderError:
            continue
        for l in (1, 3):
            assert min_distance(zt_block_code(code, l)).value >= d_free


def test_tb_block_code_parent_wrap(graph_parent_check, heawood_incidence):
    code = ConvCode.from_parity(graph_parent_check)
    tb = tb_block_code(code, 7)
    assert tb.n == 21
    assert sorted(tb.H.data) == sorted(heawood_incidence.data)
    assert tb.k == 8  # wrapped checks are dependent: one spare dimension
    assert min_distance(tb).value == 6
    enc = tb_encoder_code(code, 7)
    assert (enc.n, enc.k) == (21, 7)
    assert min_distance(enc).value == 6


def test_tb_block_code_degenerate_wrap(graph_parent_check):
    tb = tb_block_code(ConvCode.from_parity(graph_parent_check), 1)
    assert (tb.n, tb.k) == (3, 2)


def test_tb_block_code_quasicyclic_shift(constituent_check):
    code = ConvCode.from_parity(constituent_check)
    tb = tb_block_code(code, 10)
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
        code = ConvCode.from_parity(PolyMatrix([row]))
        assert block_distance_conv(code) <= code.c - code.b + 1
