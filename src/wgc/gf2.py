"""Bit-packed linear algebra over GF(2), GF(2)[D], and the rational field GF(2)(D).

Polynomials are kept as plain ints (bit i = coefficient of D^i); a binary
matrix stores one int per row (bit j = column j), a polynomial matrix one
tuple of polynomials per row.  Everything is immutable after construction.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


# ---------------------------------------------------------------------------
# raw int polynomials


def clmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2)[D] polynomials packed into ints."""
    out = 0
    while a:
        lsb = a & -a
        out ^= b << (lsb.bit_length() - 1)
        a ^= lsb
    return out


def _deg(a: int) -> int:
    return a.bit_length() - 1


def _divmod(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    q = 0
    db = _deg(b)
    while a and _deg(a) >= db:
        sh = _deg(a) - db
        q |= 1 << sh
        a ^= b << sh
    return q, a


class BinaryPoly:
    """Text codec of a GF(2)[D] polynomial, which is an int (bit i = coefficient of D^i)."""

    @staticmethod
    def parse(text: str) -> int:
        """Parse a 0/1 coefficient string, lowest degree first ("11001" = 1+D+D^4).

        The octal shorthand ("o32", prefix o, O, 0o or 0O) is read lowest
        digit first too: digit k holds the coefficients of D^(3k)..D^(3k+2),
        so "o32" = 1+D+D^4.
        """
        text = text.strip()
        if text.startswith(("o", "O", "0o", "0O")):
            digits = text[2:] if text[:2] in ("0o", "0O") else text[1:]
            # int() would also take "_" and whitespace
            if not digits or set(digits) - set("01234567"):
                raise ValueError(f"bad octal polynomial {text!r}")
            return int(digits[::-1], 8)
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"not a coefficient string: {text!r}")
        return int(text[::-1], 2)

    @staticmethod
    def to_string(p: int) -> str:
        """Coefficient string, lowest degree first; "0" for the zero polynomial."""
        return format(p, "b")[::-1]


# ---------------------------------------------------------------------------
# binary matrices


class BinaryMatrix:
    """Immutable bit-packed matrix over GF(2); row i is the int rows[i]."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[int], cols: int):
        payload = tuple(int(r) for r in data)
        mask = (1 << cols) - 1
        for r in payload:
            if r < 0 or r & ~mask:
                raise ValueError("row has bits outside the column range")
        object.__setattr__(self, "data", payload)
        object.__setattr__(self, "rows", len(payload))
        object.__setattr__(self, "cols", cols)

    def __setattr__(self, name, value):
        raise AttributeError("BinaryMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_strings(cls, rows: Sequence[str]) -> "BinaryMatrix":
        """Build from 0/1 strings; leftmost character is column 0."""
        if not rows:
            return cls((), 0)
        cols = len(rows[0])
        ints = []
        for s in rows:
            if len(s) != cols or set(s) - {"0", "1"}:
                raise ValueError(f"bad matrix row {s!r}")
            ints.append(int(s[::-1], 2))
        return cls(ints, cols)

    @classmethod
    def from_text(cls, text: str) -> "BinaryMatrix":
        """Parse the text format: first line "rows cols", then 0/1 rows."""
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty matrix text")
        try:
            m, n = map(int, lines[0].split())
        except ValueError:
            raise ValueError(f'expected the header "rows cols", got {lines[0]!r}') from None
        if len(lines) - 1 != m:
            raise ValueError(f"expected {m} rows, got {len(lines) - 1}")
        mat = cls.from_strings(lines[1:]) if m else cls((), n)
        if mat.cols != n:
            raise ValueError(f"expected {n} columns, got {mat.cols}")
        return mat

    # -- basic queries -----------------------------------------------------

    def transpose(self) -> "BinaryMatrix":
        out = [0] * self.cols
        for i, r in enumerate(self.data):
            while r:
                lsb = r & -r
                out[lsb.bit_length() - 1] |= 1 << i
                r ^= lsb
        return BinaryMatrix(out, self.rows)

    def mul_vec(self, v: int) -> int:
        """Syndrome M v^T as an int with bit i = parity of row i AND v."""
        out = 0
        for i, r in enumerate(self.data):
            out |= ((r & v).bit_count() & 1) << i
        return out

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, BinaryMatrix)
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self) -> int:
        return hash((self.cols, self.data))

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.rows}x{self.cols})"

    def to_strings(self) -> list[str]:
        return [format(r, f"0{self.cols}b")[::-1] if self.cols else "" for r in self.data]

    def to_text(self) -> str:
        return "\n".join([f"{self.rows} {self.cols}"] + self.to_strings()) + "\n"


def _eliminate(m: BinaryMatrix, skip: int = 0) -> tuple[list[int], list[int]]:
    """Gauss-Jordan elimination on the columns outside the bit mask ``skip``.

    Returns every row, the RREF pivot rows first, and the pivot columns.
    """
    work = list(m.data)
    pivots: list[int] = []
    for col in range(m.cols):
        bit = 1 << col
        if skip & bit:
            continue
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i] & bit), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(len(work)):
            if i != r and work[i] & bit:
                work[i] ^= work[r]
        pivots.append(col)
    return work, pivots


def rank(m: BinaryMatrix) -> int:
    """GF(2) row rank via elimination (first nonzero pivot in row-major scan)."""
    return len(_eliminate(m)[1])


def nullspace_basis(m: BinaryMatrix) -> BinaryMatrix:
    """Basis of {v : M v^T = 0}; row count is cols - rank(M)."""
    rows, pivots = _eliminate(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = 1 << free
        for row, pc in zip(rows, pivots):
            if (row >> free) & 1:
                v |= 1 << pc
        basis.append(v)
    return BinaryMatrix(basis, m.cols)


# ---------------------------------------------------------------------------
# graph isomorphism by individualisation and refinement


def _isomorphisms(adj_a: Sequence[Sequence[int]], adj_b: Sequence[Sequence[int]],
                  colours: Sequence[int]) -> Iterator[list[int]]:
    """Every vertex map from graph A onto graph B that keeps colours and adjacency.

    Individualisation-refinement (B. D. McKay, "Practical graph isomorphism",
    1981) on the disjoint union of A and B, where vertex v starts with
    colours[v] on both sides.  The partition is an ordered list of cells in
    ``lab``, each named by its first position; a cell splits by the number
    of neighbours its vertices have in a splitter cell, pieces in order of
    that number, so the names do not depend on vertex numbering.  Every cell
    starts as a splitter; a split cell's pieces join the queue, all but the
    largest when the cell itself is not queued, since the partition is
    already equitable against the whole cell.  A branch is cut as soon as a
    cell holds different numbers of A and B vertices.  Once the queue is
    empty the partition is equitable, and the first cell with more than one
    vertex per side is split: its first A vertex is individualised against
    each of its B vertices, and only that new cell refines the child.  Each
    map is yielded once, as a list with vmap[v] = image of v.  Exponential
    in the worst case, meant for the small graphs handled here.
    """
    n = len(adj_a)
    size = 2 * n
    union = list(adj_a) + [[n + u for u in nb] for nb in adj_b]
    target = [sorted(nb) for nb in adj_b]

    def split(lab: list[int], cell: list[int], ends: list[int], start: int,
              pieces: list[int]) -> bool:
        """Name the pieces of cell ``start`` (their first positions); False if one is unbalanced."""
        for a, b in zip(pieces, pieces[1:] + [ends[start]]):
            ends[a] = b
            for v in lab[a:b]:
                cell[v] = a
            if 2 * sum(v < n for v in lab[a:b]) != b - a:
                return False
        return True

    def refine(lab: list[int], cell: list[int], ends: list[int], queue: list[int]) -> bool:
        while queue:
            splitter = queue.pop()
            hits: dict[int, int] = {}
            for u in lab[splitter:ends[splitter]]:
                for x in union[u]:
                    hits[x] = hits.get(x, 0) + 1
            for start in sorted({cell[x] for x in hits}):
                end = ends[start]
                counts = [hits.get(v, 0) for v in lab[start:end]]
                if min(counts) == max(counts):
                    continue
                order = sorted(zip(counts, lab[start:end]))
                lab[start:end] = [v for _, v in order]
                pieces = [start + i for i, (k, _) in enumerate(order)
                          if i == 0 or k != order[i - 1][0]]
                if not split(lab, cell, ends, start, pieces):
                    return False
                if start in queue:
                    queue.extend(pieces[1:])
                else:
                    largest = max(pieces, key=lambda a: ends[a] - a)
                    queue.extend(a for a in pieces if a != largest)
        return True

    def search(lab: list[int], cell: list[int], ends: list[int],
               queue: list[int]) -> Iterator[list[int]]:
        if not refine(lab, cell, ends, queue):
            return
        start = 0
        while start < size and ends[start] - start == 2:
            start = ends[start]
        if start == size:
            vmap = [0] * n
            for a in range(0, size, 2):
                v, w = sorted(lab[a:a + 2])
                vmap[v] = w - n
            if all(sorted([vmap[u] for u in nb]) == target[vmap[v]]
                   for v, nb in enumerate(adj_a)):
                yield vmap
            return
        end = ends[start]
        members = sorted(lab[start:end])
        v = members[0]
        for w in members[(end - start) // 2:]:
            rest = [x for x in members if x != v and x != w]
            child_cell = list(cell)
            child_cell[v] = child_cell[w] = start
            for x in rest:
                child_cell[x] = start + 2
            child_ends = list(ends)
            child_ends[start], child_ends[start + 2] = start + 2, end
            yield from search(lab[:start] + [v, w] + rest + lab[end:], child_cell, child_ends,
                              [start])

    lab = sorted(range(size), key=lambda v: colours[v % n])
    firsts = [i for i in range(size) if i == 0 or colours[lab[i] % n] != colours[lab[i - 1] % n]]
    cell, ends = [0] * size, [size] * (size + 1)
    split(lab, cell, ends, 0, firsts)  # both sides start alike, so every cell is balanced
    return search(lab, cell, ends, firsts)


def _entries(m: BinaryMatrix | PolyMatrix) -> list[tuple[int, int, int]]:
    """The nonzero entries of a matrix as (value, row, column), in order of value."""
    grid = m.entries if isinstance(m, PolyMatrix) else [
        [r >> j & 1 for j in range(m.cols)] for r in m.data]
    return sorted((v, i, j) for i, row in enumerate(grid) for j, v in enumerate(row) if v)


def permutation_equivalent(a: BinaryMatrix | PolyMatrix, b: BinaryMatrix | PolyMatrix) -> bool:
    """True when A equals B after some row and column permutation.

    Entries are GF(2)[D] polynomials; a BinaryMatrix is read as its 0/1
    entries.  Each matrix becomes a graph with a node per row, per column and
    per nonzero entry, the entry adjacent to its row and its column and
    coloured by its value; the entries are numbered in order of value on both
    sides, so one colouring serves A and B.  An isomorphism of the two graphs
    is a row and column permutation carrying every entry of A onto an equal
    entry of B; the first one found settles it.
    """
    ea, eb = _entries(a), _entries(b)
    if (a.rows, a.cols) != (b.rows, b.cols) or [v for v, _, _ in ea] != [v for v, _, _ in eb]:
        return False
    rows, cols = a.rows, a.cols

    def graph(entries: list[tuple[int, int, int]]) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(rows + cols)]
        for node, (_, i, j) in enumerate(entries, rows + cols):
            adj[i].append(node)
            adj[rows + j].append(node)
            adj.append([i, rows + j])
        return adj

    colours = [-2] * rows + [-1] * cols + [v for v, _, _ in ea]
    return next(_isomorphisms(graph(ea), graph(eb), colours), None) is not None


# ---------------------------------------------------------------------------
# polynomial matrices


class PolyMatrix:
    """Immutable matrix over GF(2)[D], entries stored as ints; ``cols`` sizes a 0-row one."""

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, entries: Iterable[Iterable[int]], cols: int | None = None):
        grid = tuple(map(tuple, entries))
        width = cols if cols is not None else len(grid[0]) if grid else 0
        if any(len(r) != width for r in grid):
            raise ValueError("ragged polynomial matrix")
        # a negative int has no polynomial, and would never leave clmul's loop
        if not all(isinstance(p, int) and p >= 0 for row in grid for p in row):
            raise ValueError("polynomial entries must be nonnegative ints")
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @classmethod
    def from_text(cls, text: str) -> "PolyMatrix":
        """Parse: first line "rows cols", then one polynomial (``BinaryPoly.parse``) per entry."""
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty polynomial matrix text")
        try:
            m, n = map(int, lines[0].split())
        except ValueError:
            raise ValueError(f'expected the header "rows cols", got {lines[0]!r}') from None
        if len(lines) - 1 != m * n:
            raise ValueError(f"expected {m * n} entries, got {len(lines) - 1}")
        polys = [BinaryPoly.parse(ln) for ln in lines[1:]]
        return cls([polys[i * n:(i + 1) * n] for i in range(m)], n)

    def to_text(self) -> str:
        out = [f"{self.rows} {self.cols}"]
        for row in self.entries:
            out.extend(map(BinaryPoly.to_string, row))
        return "\n".join(out) + "\n"

    @property
    def memory(self) -> int:
        """Largest entry degree (0 for an all-zero matrix)."""
        return max((p.bit_length() - 1 for row in self.entries for p in row if p), default=0)

    def row_degrees(self) -> list[int | None]:
        """Largest entry degree of each row, None for a zero row."""
        return [max(map(int.bit_length, row)) - 1 if any(row) else None for row in self.entries]

    @property
    def constraint_length(self) -> int:
        """Sum over rows of the largest entry degree."""
        return sum(d or 0 for d in self.row_degrees())

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix([[row[j] for row in self.entries] for j in range(self.cols)], self.rows)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        """Matrix product over GF(2)[D]; only products of two nonzero entries are formed.

        Row i of the result accumulates clmul(A[i][k], B[k][j]) over the
        nonzero A[i][k] and the nonzero entries of row k of B, so a sparse
        factor such as a check matrix costs its nonzero entries alone.
        """
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        support = [[(j, q) for j, q in enumerate(row) if q] for row in other.entries]
        out = []
        for row in self.entries:
            acc = [0] * other.cols
            for p, terms in zip(row, support):
                if p:
                    for j, q in terms:
                        acc[j] ^= clmul(p, q)
            out.append(acc)
        return PolyMatrix(out, other.cols)

    def is_zero(self) -> bool:
        return all(not p for row in self.entries for p in row)

    def constant_matrix(self) -> BinaryMatrix:
        """Degree-0 matrix reinterpreted over GF(2); error if any entry has D."""
        if self.memory != 0:
            raise ValueError("matrix has entries of positive degree")
        return BinaryMatrix(
            (sum(((row[j] & 1) << j) for j in range(self.cols)) for row in self.entries),
            self.cols,
        )

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PolyMatrix) and self.entries == other.entries
                and self.cols == other.cols)

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"PolyMatrix({self.rows}x{self.cols}, memory={self.memory})"


def tailbite(m: PolyMatrix, length: int, sign: int = 1) -> BinaryMatrix:
    """Block-circulant expansion of a polynomial matrix wrapped at ``length`` levels.

    The coefficient of D^t in entry (i, j) lands in block-row s, block-column
    (s + sign*t) mod length, for every level s.  Levels shorter than the
    memory wrap around and accumulate (XOR) into the same block column.
    sign=1 wraps a parity-check matrix H; sign=-1 wraps a generator G, whose
    rows then stay orthogonal to tailbite(H, length) whenever G H^T = 0 over
    GF(2)[D], which is the pairing used throughout.
    """
    if length < 1:
        raise ValueError("tailbite length must be at least 1")
    n = m.cols
    grid = m.entries
    out = []
    for s in range(length):
        for row in grid:
            bits = 0
            for j, p in enumerate(row):
                t = 0
                while p:
                    if p & 1:
                        bits ^= 1 << (n * ((s + sign * t) % length) + j)
                    p >>= 1
                    t += 1
            out.append(bits)
    return BinaryMatrix(out, n * length)


# ---------------------------------------------------------------------------
# GF(2)[D] kernels, and through them ranks and bases over GF(2)(D)


def kernel_basis(h: PolyMatrix) -> PolyMatrix:
    """Module basis of {v in GF(2)[D]^cols : H v^T = 0}.

    Works on the stacked matrix [H^T | I] with unimodular row operations
    (Euclidean reduction per pivot column); rows whose left part vanishes
    form a basis of the kernel as a GF(2)[D] module.
    """
    m, n = h.rows, h.cols
    grid = h.entries
    work = []
    for i in range(n):
        left = [grid[r][i] for r in range(m)]
        right = [0] * n
        right[i] = 1
        work.append(left + right)
    pivot_row = 0
    for col in range(m):
        while True:
            live = [r for r in range(pivot_row, n) if work[r][col]]
            if not live:
                break
            if len(live) == 1:
                r = live[0]
                work[pivot_row], work[r] = work[r], work[pivot_row]
                pivot_row += 1
                break
            live.sort(key=lambda r: _deg(work[r][col]))
            wb = work[live[0]]
            support = [(cc, p) for cc, p in enumerate(wb) if p]
            for r in live[1:]:
                q, _ = _divmod(work[r][col], wb[col])
                wr = work[r]
                for cc, p in support:
                    wr[cc] ^= clmul(q, p)
    return PolyMatrix([work[r][m:] for r in range(n) if not any(work[r][:m])], n)


def rank_over_rational_field(m: PolyMatrix) -> int:
    """Rank of M over GF(2)(D): columns minus the rank of its kernel module."""
    return m.cols - kernel_basis(m).rows


def row_reduce(g: PolyMatrix) -> PolyMatrix:
    """Greedy high-order reduction preserving the GF(2)[D] row module.

    While the high-order coefficient matrix is rank deficient, the dependent
    row of largest degree is replaced by the D-shifted combination that
    cancels its leading coefficients.  Fixed point: high-order matrix has
    full row rank.

    Each row is one int holding entry j at bit offset j * stride, where
    stride is the widest entry of the input.  A replacement shifts every
    member row up to the largest member degree and cancels that degree, so
    no entry ever grows past the stride: a replacement is one shift-XOR per
    member row, and the high-order vector of a row of degree d is
    ``(row >> d) & low``, with bit j * stride of ``low`` set for every
    column j.  A row's degree only falls, so it is found by stepping down
    from the last one.

    The high-order vectors are eliminated in row order into an echelon
    keyed by leading bit, each entry carrying the set of rows it combines,
    so the first dependent row comes with its unique combination of the
    rows before it.  A replaced row invalidates only the entries of that row
    and later ones, which are dropped and eliminated again.
    """
    grid = g.entries
    stride = max((p.bit_length() for row in grid for p in row), default=0)
    low = sum(1 << (j * stride) for j in range(g.cols))
    rows = [sum(p << (j * stride) for j, p in enumerate(row)) for row in grid]
    degs = [stride] * len(rows)
    hi = [0] * len(rows)

    def refresh(i: int) -> None:
        row, d = rows[i], degs[i] - 1
        if not row:
            raise ValueError("rank-deficient input: zero row produced")
        while not (row >> d) & low:
            d -= 1
        degs[i], hi[i] = d, (row >> d) & low

    for i in range(len(rows)):
        refresh(i)
    echelon: dict[int, tuple[int, int]] = {}  # leading bit -> (vector, row set)
    leads: list[int] = []  # leading bit entered by row i, for the rows done
    while len(leads) < len(rows):
        i = len(leads)
        vec, combo = hi[i], 1 << i
        while vec:
            lead = vec.bit_length() - 1
            if lead not in echelon:
                echelon[lead] = (vec, combo)
                leads.append(lead)
                break
            ev, ec = echelon[lead]
            vec ^= ev
            combo ^= ec
        if vec:
            continue
        members = [m for m in range(i + 1) if (combo >> m) & 1]
        dmax = max(degs[m] for m in members)
        target = max(m for m in members if degs[m] == dmax)
        new = 0
        for m in members:
            new ^= rows[m] << (dmax - degs[m])
        rows[target] = new
        refresh(target)
        for lead in leads[target:]:
            del echelon[lead]
        del leads[target:]
    mask = (1 << stride) - 1
    return PolyMatrix([[row >> j * stride & mask for j in range(g.cols)] for row in rows], g.cols)


def minimal_kernel(m: PolyMatrix) -> PolyMatrix:
    """Minimal-basic basis of {v : M v^T = 0}, the one generator <-> parity-check conversion.

    A parity-check matrix H gives a generator of its code, and a generator
    G gives a parity-check matrix of its code; either has no rows when the
    kernel is trivial.  The rows span the whole polynomial kernel, which
    holds every v with p(D) v in it, so they extend to a unimodular matrix:
    the basis is basic and therefore non-catastrophic, with no zero-weight
    loop through nonzero encoder states.  ``convcodes.lightest_codeword`` is
    complete only on such a generator.
    """
    return row_reduce(kernel_basis(m))
