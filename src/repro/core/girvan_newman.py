"""Girvan–Newman community detection (paper Phase I, ref [16]).

A from-scratch implementation on the ego network's n×n 0/1 adjacency
matrix ``A``, nodes in sorted order. :func:`edge_betweenness` runs
Brandes' algorithm from every source at once, one row per source: a
level-by-level BFS whose levels hold the shortest-path counts σ, then
the dependency accumulation back up the levels. The BFS's reachability
matrix also gives the connected components. The GN loop repeatedly
deletes the highest-betweenness edge and recomputes betweenness only in
the component that held it, because sources in other components add
nothing to its edges; the partition changes only when that component
splits, so only then are the labels and the modularity recomputed.
networkx is used only by the tests, as an oracle.

Tie rule: each step removes the highest ``(u, v)`` among the edges whose
betweenness is within ``TIE_TOL`` (relative) of the maximum — dense sums
differ from any other summation order in the last bits, so exact ties
must not be split by rounding. Modularity is compared as an exact
integer, and the first partition along the dendrogram with the maximum
modularity is kept.

Ego networks above ``max_edges`` edges skip GN and return their
connected components, a graceful fallback for pathologically large ego
networks.
"""
from __future__ import annotations

import numpy as np

#: Relative tolerance within which betweenness scores count as tied.
TIE_TOL = 1e-9


def edge_betweenness(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Brandes' edge betweenness of the undirected graph with adjacency ``A``.

    Returns ``(bet, reach)``: ``bet[u, v]`` is the betweenness of edge
    (u, v) (symmetric, zero off the edges), and ``reach[s, v]`` says
    whether v is reachable from s, so ``reach.argmax(axis=1)`` labels
    each node with the smallest node of its component.
    """
    n = len(A)
    reach = np.eye(n, dtype=bool)
    levels = [np.eye(n)]  # levels[l][s, v] = σ_s(v) for v at distance l from s
    while True:
        nxt = (levels[-1] @ A) * ~reach
        hit = nxt > 0
        if not hit.any():
            break
        reach |= hit
        levels.append(nxt)
    delta = np.zeros((n, n))
    B = np.zeros((n, n))  # B[v, w]: credit of edge (v, w), v nearer the source
    for hi, lo in zip(levels[:0:-1], levels[-2::-1]):
        X = np.divide(1.0 + delta, hi, out=np.zeros((n, n)), where=hi > 0)
        delta += lo * (X @ A)
        B += lo.T @ X
    # each undirected path is counted from both of its endpoints
    return (B + B.T) * A / 2.0, reach


def modularity(labels: np.ndarray, A: np.ndarray) -> int:
    """``4m²·Q``, Newman–Girvan modularity as an exact integer.

    ``labels`` gives each node's community as a node index; ``A`` is the
    *original* graph: ``4m²·Q = 2m·Σ_c 2e_c − Σ_c d_c²``.
    """
    deg = A.sum(axis=0)
    d = np.bincount(labels, weights=deg).astype(np.int64)
    return int(deg.sum()) * int(A[labels[:, None] == labels].sum()) - int(d @ d)


def girvan_newman(
    nodes: list, edges: list[tuple] | set[tuple], max_edges: int = 3000
) -> dict:
    """Detect communities; returns ``{node: community_id}``.

    Runs the full GN dendrogram (remove max-betweenness edge, recompute)
    and returns the partition with maximum modularity, measured against
    the original graph. Community ids follow each community's smallest
    node. Self-loops, duplicate edges and edges to nodes outside
    ``nodes`` are ignored; isolated nodes become singleton communities.
    Graphs above ``max_edges`` skip GN and return connected components
    (a documented large-ego fallback; never hit by the paper-scale ego
    networks this repo generates).
    """
    nodes = sorted(set(nodes))
    if not nodes:
        return {}
    index = {u: i for i, u in enumerate(nodes)}
    A = np.zeros((len(nodes), len(nodes)))
    for u, v in edges:
        if u != v and u in index and v in index:
            A[index[u], index[v]] = A[index[v], index[u]] = 1.0
    n_edges = int(A.sum()) // 2

    bet, reach = edge_betweenness(A)
    labels = reach.argmax(axis=1)
    best = labels
    if n_edges <= max_edges:
        best_q = modularity(labels, A)
        left = A.copy()
        for _ in range(n_edges):
            top = np.triu(bet)
            i, j = np.argwhere(top >= top.max() * (1.0 - TIE_TOL))[-1]
            left[i, j] = left[j, i] = 0.0
            comp = np.flatnonzero(labels == labels[i])
            sub = np.ix_(comp, comp)
            bet[sub], sub_reach = edge_betweenness(left[sub])
            a, b = np.searchsorted(comp, (i, j))
            if not sub_reach[a, b]:
                labels = labels.copy()
                labels[comp] = comp[sub_reach.argmax(axis=1)]
                q = modularity(labels, A)
                if q > best_q:
                    best, best_q = labels, q
    ids = np.unique(best, return_inverse=True)[1]
    return {u: int(c) for u, c in zip(nodes, ids)}
