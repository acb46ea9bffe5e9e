"""Convolutional codes in polynomial form: distances and derived block codes.

A property of the code reads its parity-check matrix H(D)
(``free_distance``, ``block_distance_conv``); a property of an encoder reads
its generator G(D) (``tb_encoder_code``, ``lightest_codeword``).
``gf2.minimal_kernel`` converts either form into the other.
"""

from __future__ import annotations

import heapq
from itertools import combinations
from typing import TYPE_CHECKING

from .gf2 import (
    PolyMatrix,
    minimal_kernel,
    nullspace_basis,
    rank_over_rational_field,
    tailbite,
)

if TYPE_CHECKING:
    from .blockcodes import LinearBlockCode


# ---------------------------------------------------------------------------
# trellis machinery

_INF = 1 << 60


def _subset_xors(parts: list[int]) -> list[int]:
    """XOR of every subset of parts, at the index whose bit k selects parts[k]."""
    out = [0]
    for p in parts:
        out += [x ^ p for x in out]
    return out


class _Encoder:
    """Shift-register encoder of a polynomial generator; a state is one int.

    Row i keeps its last deg_i inputs in state bits off_i .. off_i + deg_i - 1,
    newest lowest, and input bit b - 1 - i feeds row i.  Bit j of a branch
    output is column j, the XOR of the contributions of the set state bits
    (byte tables) and of the input (one entry per input), both computed once
    per generator.  Branches are generated on demand, never as a table.
    """

    def __init__(self, G: PolyMatrix):
        self.G = G
        b = G.rows
        grid = G.entries
        degs = [max((p.bit_length() - 1 for p in row if p), default=0) for row in grid]
        self.nu = sum(degs)
        offs = [sum(degs[:i]) for i in range(b)]

        def emit(i: int, delay: int) -> int:  # output of row i's input `delay` steps back
            return sum((p >> delay & 1) << j for j, p in enumerate(grid[i]))

        bits = [emit(i, k + 1) for i in range(b) for k in range(degs[i])]
        self._tables = [_subset_xors(bits[lo:lo + 8]) for lo in range(0, self.nu, 8)]
        ins = range(b - 1, -1, -1)  # input bit k feeds row b - 1 - k
        lifts = _subset_xors([(degs[i] > 0) << offs[i] for i in ins])
        self._inputs = list(zip(range(1 << b), lifts, _subset_xors([emit(i, 0) for i in ins])))
        self._keep = ((1 << self.nu) - 1) ^ lifts[-1]  # the bits an input does not set

    def _out(self, s: int) -> int:
        acc = 0
        for table in self._tables:
            acc ^= table[s & 255]
            s >>= 8
        return acc

    def successors(self, s: int) -> list[tuple[int, int, int]]:
        """(input, next state, output weight) of every branch out of state s."""
        base, out = (s << 1) & self._keep, self._out(s)
        return [(u, base | lift, (out ^ e).bit_count()) for u, lift, e in self._inputs]

    def encode(self, inputs: list[int]) -> tuple[int, ...]:
        """Zero-tail codeword u(D) G(D) of a finite input path, one input per step."""
        u = [sum((x >> k & 1) << t for t, x in enumerate(inputs))
             for k in reversed(range(self.G.rows))]
        return (PolyMatrix([u]) @ self.G).entries[0]


def _lightest_paths(enc: _Encoder, *, cap: int = _INF, max_nodes: int = _INF):
    """Capped, node-budgeted Dijkstra from the zero state over the encoder.

    Paths leave the zero state and never pass through it again: a branch back
    to it ends the path, so ``dist[0]`` is the lightest nonzero loop seen.
    Paths as heavy as ``cap`` are dropped; ``link[s]`` is the (state, input)
    of the branch into s.  The search ends once no open path is lighter than
    ``dist[0]``.  Returns (dist, link, nodes expanded), or None once more than
    ``max_nodes`` would be expanded.
    """
    dist, link, heap = {}, {}, []
    d = s = nodes = 0
    while True:
        for u, t, w in enc.successors(s):
            w += d
            if (s or t or u) and w < dist.get(t, cap):
                dist[t], link[t] = w, (s, u)
                if t:
                    heapq.heappush(heap, (w, t))
        while heap:
            d, s = heapq.heappop(heap)
            if d == dist[s]:
                break
        else:
            return dist, link, nodes
        if d >= dist.get(0, cap):
            return dist, link, nodes
        nodes += 1
        if nodes > max_nodes:
            return None


def lightest_codeword(G: PolyMatrix, cap: int, max_nodes: int
                      ) -> tuple[int, tuple[int, ...], int] | None:
    """Lightest nonzero codeword below ``cap``, by one forward search.

    Every prefix of a codeword path lighter than ``cap`` is lighter too, so
    the search, which keeps every path below ``cap``, meets each such path:
    ``dist[0]`` is the lightest.  The search is complete when G is
    non-catastrophic, as a ``gf2.minimal_kernel`` basis is by construction:
    every codeword of finite weight then has a finite input and so a path.
    Nothing here checks G.  Returns (weight, u(D) G(D), nodes
    expanded), (cap, (), nodes) when no nonzero codeword is lighter than
    ``cap``, or None once more than ``max_nodes`` states would be expanded.
    """
    enc = _Encoder(G)
    found = _lightest_paths(enc, cap=cap, max_nodes=max_nodes)
    if found is None:
        return None
    dist, link, nodes = found
    if 0 not in dist:
        return cap, (), nodes
    s, u = link[0]
    inputs = [u]
    while s:
        s, u = link[s]
        inputs.append(u)
    return dist[0], enc.encode(inputs[::-1]), nodes


def free_distance(h: PolyMatrix) -> int:
    """Exact free distance of the code the parity-check matrix h defines.

    The search runs on the code's basic basis ``minimal_kernel(h)``, which is
    non-catastrophic whatever h is, from the zero state back to it and never
    through it: the weight of the lightest nonzero diverge/remerge loop.
    Raises ValueError when h has full column rank, so the code is {0}.
    """
    gen = minimal_kernel(h)
    if not gen.rows:
        raise ValueError("the code has no nonzero codeword: H has full column rank over GF(2)(D)")
    return _lightest_paths(_Encoder(gen))[0][0]


# ---------------------------------------------------------------------------
# block distance over the rational field


def block_distance_conv(h: PolyMatrix) -> int:
    """Smallest coordinate support carrying a nonzero codeword of the code h checks.

    A nonzero codeword lives on support S exactly when the parity columns
    indexed by S are rank deficient over GF(2)(D).  Raises ValueError when no
    support is, as ``free_distance`` does: h has full column rank.
    """
    if not h.rows:
        raise ValueError("code has no redundancy; block distance undefined")
    cols = h.transpose().entries
    for size in range(1, h.cols + 1):
        for subset in combinations(range(h.cols), size):
            sub = PolyMatrix([cols[j] for j in subset]).transpose()
            if rank_over_rational_field(sub) < size:
                return size
    raise ValueError("the code has no nonzero codeword: H has full column rank over GF(2)(D)")


# ---------------------------------------------------------------------------
# derived block codes


def tb_encoder_code(gen: PolyMatrix, length: int) -> LinearBlockCode:
    """Block code spanned by the wrapped generator rows (dimension b * length)."""
    from .blockcodes import LinearBlockCode  # only ``verify`` builds one, so the import waits

    return LinearBlockCode(nullspace_basis(tailbite(gen, length, -1)))
