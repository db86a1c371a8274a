"""Tests for the from-scratch Girvan–Newman implementation."""
import itertools
from collections import deque
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from repro.core.girvan_newman import (
    TIE_TOL,
    edge_betweenness,
    girvan_newman,
    modularity,
)


def _clique(nodes):
    return list(itertools.combinations(nodes, 2))


def _adj(nodes, edges):
    """0/1 adjacency over ``nodes`` in the given order."""
    index = {u: i for i, u in enumerate(nodes)}
    A = np.zeros((len(nodes), len(nodes)))
    for u, v in edges:
        A[index[u], index[v]] = A[index[v], index[u]] = 1.0
    return A


def _components(nodes, reach):
    labels = reach.argmax(axis=1)
    return [[nodes[i] for i in np.flatnonzero(labels == c)] for c in np.unique(labels)]


def _planted(seed):
    g = np.random.default_rng(seed)
    return nx.planted_partition_graph(
        int(g.integers(2, 5)), int(g.integers(3, 9)), 0.7, 0.1, seed=seed
    )


def _blocks(part):
    return sorted(sorted(u for u in part if part[u] == c) for c in set(part.values()))


# ---- exact-arithmetic reference GN ------------------------------------


def _ref_components(nodes, edges):
    adj = {u: [] for u in nodes}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, comps = set(), []
    for s in nodes:
        if s in seen:
            continue
        seen.add(s)
        comp, q = [s], deque([s])
        while q:
            for v in adj[q.popleft()]:
                if v not in seen:
                    seen.add(v)
                    comp.append(v)
                    q.append(v)
        comps.append(sorted(comp))
    return comps


def _ref_betweenness(nodes, edges):
    """Brandes' edge betweenness over dicts, in exact fractions."""
    adj = {u: [] for u in nodes}
    for u, v in sorted(edges):
        adj[u].append(v)
        adj[v].append(u)
    bet = {e: Fraction(0) for e in edges}
    for s in nodes:
        dist, sigma, preds, order = {s: 0}, {s: 1}, {u: [] for u in nodes}, []
        q = deque([s])
        while q:
            u = q.popleft()
            order.append(u)
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    sigma[v] = 0
                    q.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
                    preds[v].append(u)
        delta = {u: Fraction(0) for u in order}
        for u in reversed(order):
            for p in preds[u]:
                c = Fraction(sigma[p], sigma[u]) * (1 + delta[u])
                bet[(min(p, u), max(p, u))] += c
                delta[p] += c
    return {e: b / 2 for e, b in bet.items()}


def _ref_modularity(partition, edges, degrees):
    m = Fraction(sum(degrees.values()), 2)
    comm_of = {u: i for i, comp in enumerate(partition) for u in comp}
    q = Fraction(0)
    for i, comp in enumerate(partition):
        intra = sum(1 for u, v in edges if comm_of[u] == i == comm_of[v])
        q += intra / m - (sum(degrees[u] for u in comp) / (2 * m)) ** 2
    return q


def _ref_girvan_newman(nodes, edges):
    """The documented tie rule, applied exactly: remove the highest edge
    among those with the maximum betweenness; keep the first partition
    with the maximum modularity."""
    nodes = sorted(set(nodes))
    eset = {(min(u, v), max(u, v)) for u, v in edges if u != v}
    degrees = {u: sum(u in e for e in eset) for u in nodes}
    left = set(eset)
    best = _ref_components(nodes, left)
    best_q = _ref_modularity(best, eset, degrees)
    while left:
        bet = _ref_betweenness(nodes, left)
        left.discard(max(bet, key=lambda e: (bet[e], e)))
        part = _ref_components(nodes, left)
        q = _ref_modularity(part, eset, degrees)
        if q > best_q:
            best, best_q = part, q
    return {u: i for i, comp in enumerate(best) for u in comp}


# ---- components and betweenness ---------------------------------------


def test_components_simple():
    _, reach = edge_betweenness(_adj([1, 2, 3, 4], {(1, 2), (3, 4)}))
    assert _components([1, 2, 3, 4], reach) == [[1, 2], [3, 4]]


def test_components_isolated():
    _, reach = edge_betweenness(_adj([1, 2, 3], {(1, 2)}))
    assert _components([1, 2, 3], reach) == [[1, 2], [3]]


def test_betweenness_path_graph():
    """Path a-b-c: the two edges each carry: (a,b): pairs {a,b},{a,c} → 2."""
    bet, _ = edge_betweenness(_adj([0, 1, 2], {(0, 1), (1, 2)}))
    assert bet[0, 1] == pytest.approx(2.0)
    assert bet[1, 2] == pytest.approx(2.0)


def test_betweenness_star():
    """Star center 0 with 3 leaves: each edge carries 1 (to its leaf)
    + 2 half-shares... total shortest paths through edge (0,i) =
    paths from i to each other leaf (2) + path 0-i (1) = 3."""
    bet, _ = edge_betweenness(_adj([0, 1, 2, 3], {(0, 1), (0, 2), (0, 3)}))
    for i in (1, 2, 3):
        assert bet[0, i] == pytest.approx(3.0)


def test_betweenness_bridge_dominates():
    c1, c2 = [0, 1, 2, 3], [4, 5, 6, 7]
    edges = set(_clique(c1)) | set(_clique(c2)) | {(0, 4)}
    bet, _ = edge_betweenness(_adj(c1 + c2, edges))
    assert np.unravel_index(np.triu(bet).argmax(), bet.shape) == (0, 4)
    assert bet[0, 4] == pytest.approx(16.0)  # 4×4 cross pairs


def test_betweenness_equal_split_square():
    """4-cycle: two shortest paths between opposite corners split 50/50."""
    edges = {(0, 1), (1, 2), (2, 3), (0, 3)}
    bet, _ = edge_betweenness(_adj([0, 1, 2, 3], edges))
    vals = [bet[e] for e in edges]
    assert all(v == pytest.approx(vals[0]) for v in vals)


@pytest.mark.parametrize("seed", range(30))
def test_betweenness_matches_networkx(seed):
    """Brandes' edge betweenness equals networkx's unnormalised one on
    planted-partition graphs (networkx is used only as a test oracle)."""
    G = _planted(seed)
    bet, _ = edge_betweenness(_adj(sorted(G.nodes), G.edges))
    want = nx.edge_betweenness_centrality(G, normalized=False)
    assert np.count_nonzero(np.triu(bet)) == len(want)
    for (u, v), b in want.items():
        assert bet[u, v] == pytest.approx(b, abs=1e-9)


# ---- modularity -------------------------------------------------------


def test_modularity_single_community_zero():
    A = _adj([0, 1, 2], {(0, 1), (1, 2), (0, 2)})
    # all-in-one community: Q = m/m - (2m/2m)^2 = 0 for a clique
    assert modularity(np.zeros(3, dtype=int), A) == 0


def test_modularity_prefers_true_split():
    c1, c2 = [0, 1, 2], [3, 4, 5]
    A = _adj(c1 + c2, set(_clique(c1)) | set(_clique(c2)) | {(0, 3)})
    q_split = modularity(np.array([0, 0, 0, 3, 3, 3]), A)
    q_all = modularity(np.zeros(6, dtype=int), A)
    assert q_split > q_all


# ---- Girvan–Newman ----------------------------------------------------


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


def test_gn_independent_of_input_order():
    """Shuffled nodes and edges, each edge in a random orientation."""
    G = _planted(3)
    nodes, edges = list(G.nodes), list(G.edges)
    g = np.random.default_rng(0)
    flipped = [(v, u) if g.random() < 0.5 else (u, v) for u, v in edges]
    shuffled = girvan_newman(
        [nodes[i] for i in g.permutation(len(nodes))],
        [flipped[i] for i in g.permutation(len(edges))],
    )
    assert shuffled == girvan_newman(nodes, edges)


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


@pytest.mark.parametrize("seed", range(30))
def test_gn_matches_exact_reference(seed):
    G = _planted(seed)
    nodes, edges = list(G.nodes), list(G.edges)
    assert girvan_newman(nodes, edges) == _ref_girvan_newman(nodes, edges)


def test_gn_modularity_tie_keeps_first_partition():
    """A 7-node tree whose dendrogram reaches two partitions with exactly
    Q = 46/144; the first one along the dendrogram is kept."""
    nodes = list(range(7))
    edges = [(0, 2), (1, 4), (1, 6), (2, 5), (3, 4), (4, 5)]
    part = girvan_newman(nodes, edges)
    assert part == _ref_girvan_newman(nodes, edges)
    assert _blocks(part) == [[0, 2, 5], [1, 3, 4, 6]]


def test_gn_partitions_match_networkx():
    """networkx's GN dendrogram and its modularity maximum, compared on
    the planted graphs where neither a betweenness tie (before the best
    partition) nor a modularity tie can pick the answer."""
    compared = 0
    for seed in range(30):
        G = _planted(seed)
        nodes = sorted(G.nodes)
        A = _adj(nodes, G.edges)
        ties = []

        def most_valuable_edge(H):
            bet = nx.edge_betweenness_centrality(H, normalized=False)
            top = sorted(bet.values())
            ties.append(len(top) > 1 and top[-2] >= top[-1] * (1 - TIE_TOL))
            return max(bet, key=bet.get)

        parts, tied = [list(nx.connected_components(G))], [False]
        for p in nx.community.girvan_newman(G, most_valuable_edge):
            parts.append(p)
            tied.append(any(ties))
        labels = [np.array([min(c) for u in nodes for c in p if u in c]) for p in parts]
        qs = [modularity(lab, A) for lab in labels]
        best = qs.index(max(qs))
        if tied[best] or qs.count(qs[best]) > 1:
            continue
        compared += 1
        part = girvan_newman(nodes, G.edges)
        assert _blocks(part) == sorted(sorted(c) for c in parts[best]), seed
    assert compared >= 10
