"""s-partite, s-uniform, c-regular hypergraphs: construction and structure.

A hypergraph here has ``s`` partitions of ``n`` vertices each; every
hyperedge picks exactly one vertex per partition and every vertex lies in
exactly ``c`` hyperedges, so there are ``n * c`` hyperedges in total.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

from .gf2 import BinaryMatrix


@dataclass(frozen=True)
class Hypergraph:
    s: int
    c: int
    n: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.s < 2 or self.c < 1 or self.n < 1:
            raise ValueError("need s >= 2, c >= 1, n >= 1")
        if len(self.edges) != self.n * self.c:
            raise ValueError(f"expected {self.n * self.c} hyperedges, got {len(self.edges)}")
        degree = [[0] * self.n for _ in range(self.s)]
        for e in self.edges:
            if len(e) != self.s:
                raise ValueError("hyperedge must contain one vertex per partition")
            for p, v in enumerate(e):
                if not 0 <= v < self.n:
                    raise ValueError(f"vertex index {v} out of range")
                degree[p][v] += 1
        for p in range(self.s):
            bad = [v for v in range(self.n) if degree[p][v] != self.c]
            if bad:
                raise ValueError(f"partition {p} vertices {bad} do not have degree {self.c}")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def incident_edges(self, partition: int, vertex: int) -> list[int]:
        return [i for i, e in enumerate(self.edges) if e[partition] == vertex]

    def incidence_matrix(self) -> BinaryMatrix:
        """(s*n) x (n*c) matrix; rows partition-major, columns by edge label."""
        rows = []
        for p in range(self.s):
            for v in range(self.n):
                bits = 0
                for i, e in enumerate(self.edges):
                    if e[p] == v:
                        bits |= 1 << i
                rows.append(bits)
        return BinaryMatrix(rows, self.num_edges)

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
        s, c, n = (int(x) for x in lines[0].split())
        edges = []
        for ln in lines[1:]:
            ent = [None] * s
            for token in ln.split():
                p_str, v_str = token.split(":")
                ent[int(p_str)] = int(v_str)
            if any(v is None for v in ent):
                raise ValueError(f"hyperedge line {ln!r} misses a partition")
            edges.append(tuple(ent))
        return cls(s, c, n, tuple(edges))

    def to_dot(self) -> str:
        """Tanner-style bipartite rendering: boxes for vertices, dots for edges."""
        out = ["graph tanner {", "  rankdir=LR;"]
        for p in range(self.s):
            for v in range(self.n):
                out.append(f'  "p{p}v{v}" [shape=box, label="{p}:{v}"];')
        for i in range(self.num_edges):
            out.append(f'  "e{i}" [shape=point, label="e{i}"];')
        for i, e in enumerate(self.edges):
            for p, v in enumerate(e):
                out.append(f'  "p{p}v{v}" -- "e{i}";')
        out.append("}")
        return "\n".join(out) + "\n"


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


def sd_girth(g: Hypergraph, d: int, max_edges: int | None = None) -> int | None:
    """Hyperedge count of the shortest compact subgraph.

    A compact subgraph is a connected set of hyperedges in which every
    incident vertex touches at least ``d`` of them.  Exact iterative
    deepening over connected edge subsets anchored at their smallest edge;
    exponential in general, sized for graphs of a couple dozen edges.

    A partial subset is dropped as soon as some vertex it touches still
    lacks ``d - deg`` edges and either fewer slots remain to the target
    size, or fewer of the vertex's edges may still be added (index above
    the anchor, not banned in this branch, not chosen yet).  At the target
    size this is exactly the compactness test.
    """
    if d < 2:
        raise ValueError("compactness degree must be at least 2")
    if d > g.c:
        return None
    cap = g.num_edges if max_edges is None else min(max_edges, g.num_edges)

    edge_verts = [frozenset((p, v) for p, v in enumerate(e)) for e in g.edges]
    vertex_edges: dict[tuple[int, int], list[int]] = {}
    for i, verts in enumerate(edge_verts):
        for pv in verts:
            vertex_edges.setdefault(pv, []).append(i)
    neighbors: list[set[int]] = [set() for _ in range(g.num_edges)]
    for i, j in combinations(range(g.num_edges), 2):
        if edge_verts[i] & edge_verts[j]:
            neighbors[i].add(j)
            neighbors[j].add(i)

    def grown(anchor: int, k: int) -> bool:
        # connected subsets of size k whose minimum edge index is `anchor`

        def feasible(current: list[int], banned: set[int]) -> bool:
            deg: dict[tuple[int, int], int] = {}
            for i in current:
                for pv in edge_verts[i]:
                    deg[pv] = deg.get(pv, 0) + 1
            room = k - len(current)
            for pv, cnt in deg.items():
                short = d - cnt
                if short > 0 and (short > room or sum(
                        1 for x in vertex_edges[pv]
                        if x > anchor and x not in banned and x not in current) < short):
                    return False
            return True

        def rec(current: list[int], frontier: set[int], banned: set[int]) -> bool:
            if not feasible(current, banned):
                return False
            if len(current) == k:
                return True
            options = sorted(frontier - banned)
            local_ban = set(banned)
            for e in options:
                nf = frontier | {x for x in neighbors[e] if x > anchor and x not in current}
                if rec(current + [e], nf - {e} - local_ban, local_ban):
                    return True
                local_ban.add(e)
            return False

        start_frontier = {x for x in neighbors[anchor] if x > anchor}
        return rec([anchor], start_frontier, set())

    for k in range(2, cap + 1):
        for anchor in range(g.num_edges - k + 1):
            if grown(anchor, k):
                return k
    return None
