"""s-partite, s-uniform, c-regular hypergraphs: construction, structure, check routing.

A hypergraph here has ``s`` partitions of ``n`` vertices each; every
hyperedge picks exactly one vertex per partition and every vertex lies in
exactly ``c`` hyperedges, so there are ``n * c`` hyperedges in total.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence


class Hypergraph:
    """Immutable s-partite hypergraph; edge i picks vertex edges[i][p] of partition p."""

    __slots__ = ("s", "c", "n", "edges")

    def __init__(self, s: int, c: int, n: int, edges: tuple[tuple[int, ...], ...]):
        if s < 2 or c < 1 or n < 1:
            raise ValueError("need s >= 2, c >= 1, n >= 1")
        if len(edges) != n * c:
            raise ValueError(f"expected {n * c} hyperedges, got {len(edges)}")
        degree = [[0] * n for _ in range(s)]
        for e in edges:
            if len(e) != s:
                raise ValueError("hyperedge must contain one vertex per partition")
            for p, v in enumerate(e):
                if not 0 <= v < n:
                    raise ValueError(f"vertex index {v} out of range")
                degree[p][v] += 1
        for p in range(s):
            bad = [v for v in range(n) if degree[p][v] != c]
            if bad:
                raise ValueError(f"partition {p} vertices {bad} do not have degree {c}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

    def __setattr__(self, name, value):
        raise AttributeError("Hypergraph is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.s, self.c, self.n, self.edges) == (other.s, other.c, other.n, other.edges)

    def __hash__(self) -> int:
        return hash((self.s, self.c, self.n, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph(s={self.s}, c={self.c}, n={self.n})"

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    # -- text formats --------------------------------------------------

    def to_text(self) -> str:
        lines = [f"{self.s} {self.c} {self.n}"]
        for e in self.edges:
            lines.append(" ".join(f"{p}:{v}" for p, v in enumerate(e)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Hypergraph":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty hypergraph text")
        try:
            s, c, n = map(int, lines[0].split())
        except ValueError:
            raise ValueError(f'expected the header "s c n", got {lines[0]!r}') from None
        edges = []
        for ln in lines[1:]:
            ent = [None] * s
            for token in ln.split():
                p_str, v_str = token.split(":")
                p = int(p_str)
                if not 0 <= p < s or ent[p] is not None:
                    raise ValueError(f"hyperedge line {ln!r} has a bad or repeated partition {p}")
                ent[p] = int(v_str)
            if any(v is None for v in ent):
                raise ValueError(f"hyperedge line {ln!r} misses a partition")
            edges.append(tuple(ent))
        return cls(s, c, n, tuple(edges))


Assignment = tuple[tuple[tuple[int, ...], ...], ...]


def identity_assignment(g: Hypergraph) -> Assignment:
    """Each vertex takes the constituent column blocks in incident-edge order."""
    return tuple(tuple(tuple(range(g.c)) for _ in range(g.n)) for _ in range(g.s))


def route_checks(g: Hypergraph, checks: Sequence[Sequence], order: Assignment) -> list[list]:
    """Check rows of the code on ``g``: one row block per vertex of each part.

    ``checks[i][b]`` is check row i's entry in constituent column block b.  For
    part p and vertex v, in that order, one row is written per check row, and
    the vertex's k-th incident edge (edges in label order) gets block
    ``order[p][v][k]``.  A row has one entry per edge, the zero of the entry
    type off the vertex's edges.  Entries pass through untouched: packed
    l-bit ints for a binary constituent, GF(2)[D] polynomials (ints) for a
    convolutional one.
    """
    rows = []
    for p in range(g.s):
        incident: list[list[int]] = [[] for _ in range(g.n)]
        for e, edge in enumerate(g.edges):
            incident[edge[p]].append(e)
        for v, edges in enumerate(incident):
            slots = order[p][v]
            if sorted(slots) != list(range(g.c)):
                raise ValueError(f"assignment for partition {p} vertex {v} is not a permutation")
            for check in checks:
                row = [type(check[0])()] * g.num_edges
                for e, b in zip(edges, slots):
                    row[e] = check[b]
                rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# built-in graphs, vertex numbering fixed so the incidence matrices match
# the reference layouts bit for bit


def build_heawood() -> Hypergraph:
    """Bipartite 3-regular graph on 2x7 vertices with girth 6.

    Edge 3r+k (k = 0,1,2) joins left vertex r to right vertex r, r+1 or r+3
    (mod 7) respectively, which makes the incidence matrix block-circulant.
    """
    edges = []
    for r in range(7):
        edges.append((r, r))
        edges.append((r, (r - 1) % 7))
        edges.append((r, (r - 3) % 7))
    return Hypergraph(2, 3, 7, tuple(edges))


def build_utility() -> Hypergraph:
    """Complete bipartite graph on 3+3 vertices (girth 4)."""
    bottoms = (0, 2, 1, 1, 0, 2, 2, 1, 0)
    edges = tuple((i // 3, b) for i, b in enumerate(bottoms))
    return Hypergraph(2, 3, 3, edges)


def build_three_partite() -> Hypergraph:
    """3-partite, 3-uniform, 4-regular hypergraph on 3x4 vertices."""
    cols = [
        (0, 0, 0), (0, 1, 1), (0, 2, 2), (0, 3, 3),
        (1, 3, 0), (1, 0, 1), (1, 1, 2), (1, 2, 3),
        (2, 2, 0), (2, 3, 1), (2, 0, 3), (2, 1, 2),
        (3, 1, 0), (3, 2, 1), (3, 3, 3), (3, 0, 2),
    ]
    return Hypergraph(3, 4, 4, tuple(cols))


BUILTINS = {
    "heawood": build_heawood,
    "utility": build_utility,
    "3partite": build_three_partite,
}


def random_regular(s: int, c: int, n: int, seed: int) -> Hypergraph:
    """Random hypergraph from s-1 independent seeded permutations of edge slots.

    Slot i belongs to vertex i // c of partition 0; each further partition
    permutes the n*c slots and assigns slot pi(i) to vertex pi(i) // c, so
    regularity holds by construction for every seed.
    """
    import random  # only the random ensemble needs it, so the import waits
    if s < 2 or c < 2 or n < 1:
        raise ValueError("need s >= 2, c >= 2, n >= 1")
    rng = random.Random(seed)
    slots = n * c
    edges = [[i // c] for i in range(slots)]
    for _ in range(1, s):
        perm = list(range(slots))
        rng.shuffle(perm)
        for i in range(slots):
            edges[i].append(perm[i] // c)
    return Hypergraph(s, c, n, tuple(tuple(e) for e in edges))


# ---------------------------------------------------------------------------
# girth


def girth(g: Hypergraph) -> int | None:
    """Hyperedge count of the shortest cycle; None when the hypergraph is a forest.

    Two distinct hyperedges sharing at least two vertices already form a
    cycle of length 2.  For longer cycles the incidence structure is walked
    as a bipartite graph (vertices and hyperedges as nodes), whose girth is
    exactly twice the hypergraph girth.
    """
    node_count = g.s * g.n + g.num_edges
    adj: list[list[int]] = [[] for _ in range(node_count)]

    def vid(p: int, v: int) -> int:
        return p * g.n + v

    for i, e in enumerate(g.edges):
        enode = g.s * g.n + i
        for p, v in enumerate(e):
            adj[vid(p, v)].append(enode)
            adj[enode].append(vid(p, v))

    best = None
    for start in range(node_count):
        dist = {start: 0}
        parent = {start: -1}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif parent[u] != w and parent[w] != u:
                        cycle = dist[u] + dist[w] + 1
                        if best is None or cycle < best:
                            best = cycle
            if best is not None and 2 * dist[frontier[0]] >= best:
                break
            frontier = nxt
    if best is None:
        return None
    return best // 2


def sd_girth(g: Hypergraph, d: int) -> int | None:
    """Hyperedge count of the shortest compact subgraph.

    A compact subgraph is a connected set of hyperedges in which every
    incident vertex touches at least ``d`` of them.  Each component of an
    edge set with that degree property has it too, so a smallest such set is
    connected and the search need not track connectivity.  Exact iterative
    deepening on the size k, each set anchored at its smallest edge: while
    some touched vertex meets fewer than ``d`` chosen edges, every compact
    superset takes ``d - deg`` more of that vertex's edges above the anchor,
    so the search branches over those choices and drops a branch that cannot
    fit them in k.  Exponential in general, sized for graphs of a few dozen
    edges.
    """
    if d < 2:
        raise ValueError("compactness degree must be at least 2")
    if d > g.c:
        return None

    at: dict[tuple[int, int], list[int]] = {}
    for i, e in enumerate(g.edges):
        for pv in enumerate(e):
            at.setdefault(pv, []).append(i)

    def grows(chosen: list[int], k: int) -> bool:
        deg: dict[tuple[int, int], int] = {}
        for i in chosen:
            for pv in enumerate(g.edges[i]):
                deg[pv] = deg.get(pv, 0) + 1
        short = next((pv for pv, n in deg.items() if n < d), None)
        if short is None:
            return True
        need = d - deg[short]
        if len(chosen) + need > k:
            return False
        options = [i for i in at[short] if i > chosen[0] and i not in chosen]
        return any(grows(chosen + list(more), k) for more in combinations(options, need))

    for k in range(2, g.num_edges + 1):
        for anchor in range(g.num_edges - k + 1):
            if grows([anchor], k):
                return k
    raise AssertionError("unreachable: with d <= c every component is compact")
