"""Girvan–Newman community detection (paper Phase I, ref [16]).

A from-scratch implementation: Brandes' algorithm for edge
betweenness, the GN loop that repeatedly deletes the
highest-betweenness edge, and Newman–Girvan modularity to pick the
best partition along the dendrogram. networkx is used only by the
tests, as an oracle for edge betweenness.

Ego networks are small (the paper's community-size median is 8 and 90%
of communities have < 30 members; our synthetic ego nets are similar),
so the O(n·m) betweenness pass per removed edge is comfortably cheap.
A ``max_edges`` guard degrades gracefully to connected components for
pathologically large ego networks.

All iteration orders are sorted, so results are deterministic.
"""
from __future__ import annotations

from collections import deque


def _neighbors(nodes: list, edges: set[tuple]) -> dict:
    adj = {u: [] for u in nodes}
    for u, v in sorted(edges):
        adj[u].append(v)
        adj[v].append(u)
    return adj


def connected_components(nodes: list, edges: set[tuple]) -> list[list]:
    """Sorted list of sorted components (BFS)."""
    adj = _neighbors(nodes, edges)
    seen: set = set()
    comps = []
    for s in sorted(nodes):
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        q = deque([s])
        while q:
            u = q.popleft()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    comp.append(v)
                    q.append(v)
        comps.append(sorted(comp))
    return comps


def edge_betweenness(nodes: list, edges: set[tuple]) -> dict[tuple, float]:
    """Brandes' edge betweenness for an undirected, unweighted graph."""
    adj = _neighbors(nodes, edges)
    bet = {e: 0.0 for e in edges}
    for s in sorted(nodes):
        # BFS from s: sigma counts shortest paths, preds the DAG
        dist = {s: 0}
        sigma = {s: 1.0}
        preds: dict = {u: [] for u in nodes}
        order = []
        q = deque([s])
        while q:
            u = q.popleft()
            order.append(u)
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    sigma[v] = 0.0
                    q.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
                    preds[v].append(u)
        # accumulation in reverse BFS order
        delta = {u: 0.0 for u in order}
        for u in reversed(order):
            for p in preds[u]:
                c = sigma[p] / sigma[u] * (1.0 + delta[u])
                e = (p, u) if (p, u) in bet else (u, p)
                bet[e] += c
                delta[p] += c
    # each undirected path counted from both endpoints
    return {e: b / 2.0 for e, b in bet.items()}


def modularity(partition: list[list], edges: set[tuple], degrees: dict) -> float:
    """Newman–Girvan modularity of ``partition`` w.r.t. the *original* graph."""
    m = sum(degrees.values()) / 2.0
    if m == 0:
        return 0.0
    comm_of = {u: i for i, comp in enumerate(partition) for u in comp}
    intra = [0.0] * len(partition)
    for u, v in edges:
        if comm_of[u] == comm_of[v]:
            intra[comm_of[u]] += 1.0
    q = 0.0
    for i, comp in enumerate(partition):
        dc = sum(degrees[u] for u in comp)
        q += intra[i] / m - (dc / (2.0 * m)) ** 2
    return q


def girvan_newman(
    nodes: list, edges: list[tuple] | set[tuple], max_edges: int = 3000
) -> dict:
    """Detect communities; returns ``{node: community_id}``.

    Runs the full GN dendrogram (remove max-betweenness edge, recompute)
    and returns the partition with maximum modularity, measured against
    the original graph. Isolated nodes become singleton communities.
    Graphs above ``max_edges`` skip GN and return connected components
    (a documented large-ego fallback; never hit by the paper-scale
    ego networks this repo generates).
    """
    node_set = set(nodes)
    nodes = sorted(node_set)
    eset = {(min(u, v), max(u, v)) for u, v in edges if u != v}
    eset = {e for e in eset if e[0] in node_set and e[1] in node_set}
    if not nodes:
        return {}
    degrees = {u: 0 for u in nodes}
    for u, v in eset:
        degrees[u] += 1
        degrees[v] += 1

    if len(eset) > max_edges or not eset:
        comps = connected_components(nodes, eset)
        return {u: i for i, comp in enumerate(comps) for u in comp}

    remaining = set(eset)
    best_part = connected_components(nodes, remaining)
    best_q = modularity(best_part, eset, degrees)
    while remaining:
        bet = edge_betweenness(nodes, remaining)
        # deterministic tie-break: highest betweenness, then edge order
        emax = max(bet, key=lambda e: (bet[e], e))
        remaining.discard(emax)
        part = connected_components(nodes, remaining)
        q = modularity(part, eset, degrees)
        if q > best_q:
            best_q = q
            best_part = part
    return {u: i for i, comp in enumerate(best_part) for u in comp}
