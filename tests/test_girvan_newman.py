"""Tests for the from-scratch Girvan–Newman implementation."""
import itertools

import networkx as nx
import numpy as np
import pytest

from repro.core.girvan_newman import (
    connected_components,
    edge_betweenness,
    girvan_newman,
    modularity,
)


def _clique(nodes):
    return list(itertools.combinations(nodes, 2))


def test_components_simple():
    comps = connected_components([1, 2, 3, 4], {(1, 2), (3, 4)})
    assert comps == [[1, 2], [3, 4]]


def test_components_isolated():
    comps = connected_components([1, 2, 3], {(1, 2)})
    assert comps == [[1, 2], [3]]


def test_betweenness_path_graph():
    """Path a-b-c: the two edges each carry: (a,b): pairs {a,b},{a,c} → 2."""
    bet = edge_betweenness([0, 1, 2], {(0, 1), (1, 2)})
    assert bet[(0, 1)] == pytest.approx(2.0)
    assert bet[(1, 2)] == pytest.approx(2.0)


def test_betweenness_star():
    """Star center 0 with 3 leaves: each edge carries 1 (to its leaf)
    + 2 half-shares... total shortest paths through edge (0,i) =
    paths from i to each other leaf (2) + path 0-i (1) = 3."""
    bet = edge_betweenness([0, 1, 2, 3], {(0, 1), (0, 2), (0, 3)})
    for e, b in bet.items():
        assert b == pytest.approx(3.0)


def test_betweenness_bridge_dominates():
    c1, c2 = [0, 1, 2, 3], [4, 5, 6, 7]
    edges = set(_clique(c1)) | set(_clique(c2)) | {(0, 4)}
    bet = edge_betweenness(c1 + c2, edges)
    assert max(bet, key=bet.get) == (0, 4)
    assert bet[(0, 4)] == pytest.approx(16.0)  # 4×4 cross pairs


def test_betweenness_equal_split_square():
    """4-cycle: two shortest paths between opposite corners split 50/50."""
    bet = edge_betweenness([0, 1, 2, 3], {(0, 1), (1, 2), (2, 3), (0, 3)})
    vals = list(bet.values())
    assert all(v == pytest.approx(vals[0]) for v in vals)


@pytest.mark.parametrize("seed", range(30))
def test_betweenness_matches_networkx(seed):
    """Brandes' edge betweenness equals networkx's unnormalised one on
    planted-partition graphs (networkx is used only as a test oracle)."""
    g = np.random.default_rng(seed)
    G = nx.planted_partition_graph(
        int(g.integers(2, 5)), int(g.integers(3, 9)), 0.7, 0.1, seed=seed
    )
    edges = {(min(u, v), max(u, v)) for u, v in G.edges}
    bet = edge_betweenness(list(G.nodes), edges)
    want = nx.edge_betweenness_centrality(G, normalized=False)
    assert len(bet) == len(want)
    for (u, v), b in want.items():
        assert bet[(min(u, v), max(u, v))] == pytest.approx(b, abs=1e-9)


def test_modularity_single_community_zero():
    nodes = [0, 1, 2]
    edges = {(0, 1), (1, 2), (0, 2)}
    deg = {0: 2, 1: 2, 2: 2}
    # all-in-one community: Q = 1 - 1 = 0 for a clique? Q = m/m - (2m/2m)^2 = 0
    assert modularity([nodes], edges, deg) == pytest.approx(0.0)


def test_modularity_prefers_true_split():
    c1, c2 = [0, 1, 2], [3, 4, 5]
    edges = set(_clique(c1)) | set(_clique(c2)) | {(0, 3)}
    deg = {u: 0 for u in c1 + c2}
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    q_split = modularity([c1, c2], edges, deg)
    q_all = modularity([c1 + c2], edges, deg)
    assert q_split > q_all


def test_gn_two_cliques():
    c1, c2 = [0, 1, 2, 3, 4], [5, 6, 7, 8, 9]
    edges = _clique(c1) + _clique(c2) + [(0, 5)]
    part = girvan_newman(c1 + c2, edges)
    assert len({part[u] for u in c1}) == 1
    assert len({part[u] for u in c2}) == 1
    assert part[0] != part[5]


def test_gn_three_communities():
    g = np.random.default_rng(0)
    comms = [list(range(0, 8)), list(range(8, 16)), list(range(16, 24))]
    edges = []
    for c in comms:
        edges += [e for e in _clique(c) if g.random() < 0.8]
    edges += [(0, 8), (8, 16)]
    part = girvan_newman(list(range(24)), edges)
    found = {frozenset(u for u in range(24) if part[u] == cid) for cid in set(part.values())}
    # each planted community is recovered as one block
    for c in comms:
        assert any(set(c) == set(f) for f in found), (c, found)


def test_gn_isolated_nodes_singletons():
    part = girvan_newman([1, 2, 3], [])
    assert len(set(part.values())) == 3


def test_gn_single_node():
    assert girvan_newman([7], []) == {7: 0}


def test_gn_empty():
    assert girvan_newman([], []) == {}


def test_gn_deterministic():
    g = np.random.default_rng(1)
    nodes = list(range(20))
    edges = [e for e in _clique(nodes) if g.random() < 0.2]
    assert girvan_newman(nodes, edges) == girvan_newman(nodes, edges)


def test_gn_self_loops_ignored():
    part = girvan_newman([0, 1], [(0, 0), (0, 1)])
    assert part[0] == part[1]


def test_gn_max_edges_fallback_components():
    """Above max_edges, GN degrades to connected components."""
    c1, c2 = [0, 1, 2], [3, 4, 5]
    edges = _clique(c1) + _clique(c2)
    part = girvan_newman(c1 + c2, edges, max_edges=2)
    assert part[0] == part[1] == part[2]
    assert part[3] == part[4] == part[5]
    assert part[0] != part[3]


def test_gn_duplicate_edges_deduped():
    part = girvan_newman([0, 1, 2], [(0, 1), (1, 0), (1, 2)])
    assert len(part) == 3
