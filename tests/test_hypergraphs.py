"""Built-in graphs, girths, compact-subgraph girths, and the random ensemble."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgc.hypergraphs import (
    Hypergraph,
    build_heawood,
    build_three_partite,
    build_utility,
    girth,
    random_regular,
    sd_girth,
)


# ---------------------------------------------------------------------------
# independent oracles


def subset_girth_oracle(g: Hypergraph) -> int | None:
    """Smallest edge subset whose incidence structure contains a cycle."""
    edge_verts = [set((p, v) for p, v in enumerate(e)) for e in g.edges]
    for k in range(2, g.num_edges + 1):
        for subset in combinations(range(g.num_edges), k):
            verts = set()
            for i in subset:
                verts |= edge_verts[i]
            incid = sum(len(edge_verts[i]) for i in subset)
            nodes = k + len(verts)
            comps = _component_count(subset, edge_verts)
            if incid > nodes - comps:
                return k
    return None


def _component_count(subset, edge_verts) -> int:
    remaining = set(subset)
    comps = 0
    while remaining:
        comps += 1
        stack = [remaining.pop()]
        comp_verts = set(edge_verts[stack[0]])
        grew = True
        while grew:
            grew = False
            for e in list(remaining):
                if edge_verts[e] & comp_verts:
                    comp_verts |= edge_verts[e]
                    remaining.discard(e)
                    grew = True
    return comps


def subset_sd_girth_oracle(g: Hypergraph, d: int, k_max: int) -> int | None:
    """Exhaustive search over all edge subsets up to size k_max."""
    edge_verts = [set((p, v) for p, v in enumerate(e)) for e in g.edges]
    for k in range(2, k_max + 1):
        for subset in combinations(range(g.num_edges), k):
            if _component_count(subset, edge_verts) != 1:
                continue
            deg: dict = {}
            for i in subset:
                for pv in edge_verts[i]:
                    deg[pv] = deg.get(pv, 0) + 1
            if all(v >= d for v in deg.values()):
                return k
    return None


# ---------------------------------------------------------------------------
# built-in instances


def test_heawood_incidence_bit_identical(heawood_incidence):
    assert build_heawood().incidence_matrix() == heawood_incidence


def test_heawood_girth_and_regularity():
    g = build_heawood()
    assert girth(g) == 6
    assert g.incidence_matrix().row_weights() == [3] * 14


def test_utility_incidence_bit_identical(utility_incidence):
    assert build_utility().incidence_matrix() == utility_incidence


def test_utility_girth_and_edge_count():
    g = build_utility()
    assert girth(g) == 4
    assert g.num_edges == 9


def test_three_partite_incidence_bit_identical(three_partite_incidence):
    assert build_three_partite().incidence_matrix() == three_partite_incidence


def test_three_partite_girths():
    g = build_three_partite()
    assert girth(g) == 2
    assert sd_girth(g, 2) == 6


def test_incidence_row_and_column_sums():
    for g in (build_heawood(), build_utility(), build_three_partite()):
        m = g.incidence_matrix()
        assert set(m.col_weights()) == {g.s}
        assert set(m.row_weights()) == {g.c}


# ---------------------------------------------------------------------------
# girth definitions


def test_girth_matches_subset_oracle_on_builtins():
    for g in (build_utility(), build_three_partite()):
        assert girth(g) == subset_girth_oracle(g)
    heawood = build_heawood()
    assert girth(heawood) == subset_girth_oracle(heawood)


def test_girth_matches_subset_oracle_random():
    for seed in range(6):
        g = random_regular(2, 2, 4, seed)
        assert girth(g) == subset_girth_oracle(g)
    for seed in range(4):
        g = random_regular(3, 2, 3, seed)
        assert girth(g) == subset_girth_oracle(g)


def test_girth_none_for_forest():
    # a 1-regular bipartite matching has no cycle
    edges = tuple((i, i) for i in range(3))
    g = Hypergraph(2, 1, 3, edges)
    assert girth(g) is None
    assert sd_girth(g, 2) is None


def test_two_overlapping_hyperedges_form_length_two_cycle():
    edges = ((0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1))
    g = Hypergraph(3, 2, 2, edges)
    assert girth(g) == 2


# ---------------------------------------------------------------------------
# compact-subgraph girth


def test_sd_girth_equals_girth_on_bipartite_instances():
    for g in (build_heawood(), build_utility()):
        assert sd_girth(g, 2) == girth(g)
    for seed in range(5):
        g = random_regular(2, 3, 4, seed)
        assert sd_girth(g, 2) == girth(g)


def test_sd_girth_heawood_matches_exhaustive_subsets():
    g = build_heawood()
    assert sd_girth(g, 2) == subset_sd_girth_oracle(g, 2, 6) == 6


def test_sd_girth_three_partite_matches_exhaustive_subsets():
    g = build_three_partite()
    assert subset_sd_girth_oracle(g, 2, 6) == 6
    assert sd_girth(g, 2) == 6


def test_sd_girth_heawood_full_degree_is_every_edge():
    assert sd_girth(build_heawood(), 3) == 21


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 2, 3), (2, 3, 3), (2, 3, 4), (2, 4, 3), (3, 2, 4),
                        (3, 3, 3), (3, 4, 3), (2, 2, 6)]),
       st.integers(0, 10_000))
def test_sd_girth_matches_exhaustive_subsets_on_random_graphs(shape, seed):
    g = random_regular(*shape, seed)
    for d in range(2, g.c + 1):
        assert sd_girth(g, d) == subset_sd_girth_oracle(g, d, g.num_edges)


def test_sd_girth_rejects_small_d_and_handles_large_d():
    g = build_utility()
    with pytest.raises(ValueError):
        sd_girth(g, 1)
    assert sd_girth(g, g.c + 1) is None


def test_sd_girth_at_least_girth():
    for g in (build_heawood(), build_utility(), build_three_partite()):
        assert sd_girth(g, 2) >= girth(g)


# ---------------------------------------------------------------------------
# random ensemble


@pytest.mark.parametrize("shape", [(2, 3, 7), (3, 4, 4)])
def test_random_regular_invariants_many_seeds(shape):
    s, c, n = shape
    for seed in range(100):
        g = random_regular(s, c, n, seed)  # constructor validates regularity
        assert g.num_edges == n * c


def test_random_regular_deterministic():
    a = random_regular(3, 4, 4, seed=0)
    b = random_regular(3, 4, 4, seed=0)
    assert a == b
    assert random_regular(3, 4, 4, seed=1) != a


def test_random_regular_specific_shape_valid():
    g = random_regular(3, 4, 4, seed=0)
    assert (g.s, g.c, g.n) == (3, 4, 4)
    m = g.incidence_matrix()
    assert set(m.col_weights()) == {3}
    assert set(m.row_weights()) == {4}


# ---------------------------------------------------------------------------
# formats


def test_text_round_trip():
    for g in (build_heawood(), build_utility(), build_three_partite()):
        assert Hypergraph.from_text(g.to_text()) == g


def test_text_format_shape():
    g = build_utility()
    lines = g.to_text().splitlines()
    assert lines[0] == "2 3 3"
    assert lines[1] == "0:0 1:0"


def test_dot_export_mentions_every_edge():
    g = build_utility()
    dot = g.to_dot()
    assert dot.startswith("graph")
    for i in range(g.num_edges):
        assert f'"e{i}"' in dot


def test_invalid_hypergraphs_rejected():
    with pytest.raises(ValueError):
        Hypergraph(2, 3, 7, tuple((i // 3, 0) for i in range(21)))  # irregular
    with pytest.raises(ValueError):
        Hypergraph(2, 3, 2, ((0, 0),))  # wrong edge count
