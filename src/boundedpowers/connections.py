"""Even-connections and the quadratic structure of colon ideals of bounded
powers of edge ideals.

Two vertices a, b (possibly equal) are even-connected with respect to a
multiset of s edges when there is a walk a = p_0, p_1, ..., p_{2r+1} = b,
r >= 1, all of whose steps are edges of the graph, whose r interior odd pairs
{p_{2k+1}, p_{2k+2}} are edges from the multiset, each distinct edge used at
most its multiplicity.  These pairs, together with actual edges, generate the
colon of the next bounded power by a generator u of the current one, of degree 2s.

An edge multiset is held as one sorted map {edge: multiplicity}, from
``edge_factorization`` to the search, so its size is the number of distinct
edges, whatever s is.  A walk is its vertex tuple: its interior pairs already
name the edges it takes.

The search allows each distinct edge at most two uses, whatever its
multiplicity, and this is exact.  Suppose a walk takes one multiset edge twice
in the same direction, at pairs k1 < k2.  Cutting the 2(k2 - k1) steps between
the two takes leaves a valid walk: it is strictly shorter, has the same ends,
keeps every parity and takes fewer copies.  So every shortest witness takes
each edge at most once per direction, and the search space does not grow with
the multiplicities.

The search is breadth-first, a level at a time, over (uses left, vertex)
states with the uses left packed into one int, and keeps one parent map per
walk parity in discovery order: the first accepting state at b ends a
shortest witness.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from .graphs import Edge, Graph, normalize_edge
from .monomials import (
    BoundVector,
    Monomial,
    MonomialIdeal,
    _check_monomial,
    _Packing,
    is_bounded,
)


def _edge_counts(graph: Graph, edges: Sequence[Edge]) -> dict[Edge, int]:
    """An edge sequence as its sorted multiplicity map; raises ValueError on a
    pair that is not a graph edge."""
    counts = Counter(normalize_edge(*e) for e in edges)
    for e in counts:
        if e not in graph.edges:
            raise ValueError(f"edge {e} is not one of the graph edges")
    return dict(sorted(counts.items()))


def _even_walks(graph: Graph, counts: dict[Edge, int], a: int) -> tuple[dict, dict, int]:
    """BFS from a: an even level steps along any graph edge, an odd level
    along a multiset edge with a use left.  A state is ``(left, vertex)``;
    base-3 digit t of ``left`` counts the uses left of the t-th distinct edge,
    from min(multiplicity, 2).  Returns the even and the odd parent maps and
    the starting ``left``; an odd state that has taken an edge is accepting."""
    takes: dict[int, list[tuple[int, int]]] = {v: [] for v in graph.vertices()}
    full = 0
    for t, ((i, j), m) in enumerate(counts.items()):
        unit = 3**t
        full += min(m, 2) * unit
        takes[i].append((j, unit))
        takes[j].append((i, unit))
    adjacency = graph.adjacency
    even: dict = {(full, a): None}
    odd: dict = {}
    frontier = [(full, a)]
    while frontier:
        reached = []
        for state in frontier:
            left = state[0]
            for w in adjacency[state[1]]:
                key = (left, w)
                if key not in odd:
                    odd[key] = state
                    reached.append(key)
        frontier = []
        for state in reached:
            left = state[0]
            for w, unit in takes[state[1]]:
                if left // unit % 3:
                    key = (left - unit, w)
                    if key not in even:
                        even[key] = state
                        frontier.append(key)
    return even, odd, full


def _targets(graph: Graph, counts: dict[Edge, int], a: int) -> set[int]:
    """The vertices of the accepting states of ``_even_walks`` from a."""
    _, odd, full = _even_walks(graph, counts, a)
    return {v for left, v in odd if left != full}


def _check_vertex(graph: Graph, v: int) -> None:
    if not 1 <= v <= graph.n:
        raise ValueError(f"unknown vertex label {v}")


def find_even_connection(
    graph: Graph, edges: Sequence[Edge], a: int, b: int
) -> tuple[int, ...] | None:
    """The vertices of a shortest even-connection walk from a to b, or None."""
    _check_vertex(graph, a)
    _check_vertex(graph, b)
    even, odd, full = _even_walks(graph, _edge_counts(graph, edges), a)
    state = next((st for st in odd if st[1] == b and st[0] != full), None)
    if state is None:
        return None
    path: list[int] = []
    while state is not None:
        path.append(state[1])
        state = odd[state] if len(path) % 2 else even[state]
    return tuple(reversed(path))


def even_connected_targets(graph: Graph, edges: Sequence[Edge], a: int) -> set[int]:
    """All vertices even-connected to a with respect to the edge multiset."""
    _check_vertex(graph, a)
    return _targets(graph, _edge_counts(graph, edges), a)


def edge_factorization(graph: Graph, u: Monomial) -> dict[Edge, int] | None:
    """The lexicographically smallest multiset of edges with product u (so of
    deg(u) / 2 edges), as a sorted map {edge: multiplicity}, or None.

    Depth-first over the sorted edges, with an explicit stack, trying the most
    copies of each edge first; the first complete branch is therefore the
    smallest multiset.  The depth is the number of edges, not deg(u) / 2.  The
    sorted edges at a vertex come in the order of its neighbors, so the edge to
    its largest neighbor is its last one, and must take all that is left there:
    that edge has one choice only, and every complete branch factors u.
    """
    u = _check_monomial(graph.n, u)
    if sum(u) % 2:
        return None
    adjacency = graph.adjacency
    remaining = [0, *u]  # 1-based
    # each copy of an edge at v takes one unit at a neighbour of v
    if any(a > sum(map(remaining.__getitem__, adjacency[v])) for v, a in enumerate(u, 1) if a):
        return None
    edges = graph.sorted_edges()
    chosen: list[int] = []  # the multiplicity of each edge on the current branch
    while len(chosen) < len(edges):
        i, j = edges[len(chosen)]
        ri, rj = remaining[i], remaining[j]
        m = ri if ri < rj else rj  # most copies first
        if m < ri and j == adjacency[i][-1] or m < rj and i == adjacency[j][-1]:
            # back up to the deepest edge with a choice left: one copy fewer
            m = -1
            while m < 0 and chosen:
                m = chosen.pop()
                i, j = edges[len(chosen)]
                remaining[i] += m
                remaining[j] += m
                m = -1 if j == adjacency[i][-1] or i == adjacency[j][-1] else m - 1
            if m < 0:
                return None
        remaining[i] -= m
        remaining[j] -= m
        chosen.append(m)
    # nothing is left: each vertex's last edge took the rest there, and the
    # neighbour-sum check refused a positive exponent on a vertex on no edge
    return {e: m for e, m in zip(edges, chosen) if m}


def colon_quadrics(graph: Graph, c: BoundVector, u: Monomial) -> MonomialIdeal:
    """The colon of (I(G)^{s+1})_c by u, assembled from quadrics.

    u must be a minimal generator of (I(G)^s)_c with s = deg(u) / 2 >= 1, so
    s <= delta.  That ideal is generated in the single degree 2s, where no
    generator divides another, so u is one iff u <= c and u is a product of s
    graph edges.  Its edge multiset is ``edge_factorization(graph, u)``; the
    result does not depend on that choice.  The output is generated by the
    monomials x_i*x_j (i = j allowed) such that u*x_i*x_j stays c-bounded and
    x_i, x_j are adjacent or even-connected with respect to that multiset.
    Agreement with the directly computed colon ideal is the content of the
    corresponding verification suite; at s = delta both sides are empty, so
    the description degenerates consistently.
    """
    c = _check_monomial(graph.n, c)
    u = _check_monomial(graph.n, u)
    if not any(u):
        raise ValueError("u must have positive degree: s = deg(u) / 2 must be >= 1")
    counts = edge_factorization(graph, u)
    if counts is None or not is_bounded(u, c):
        raise ValueError("u is not a minimal generator of a bounded power")
    packing = _Packing(graph.n, 2)
    x, quadrics = packing.variables, []
    for i in range(1, graph.n + 1):
        targets = None  # searched only once some pair (i, j) needs it
        for j in range(i, graph.n + 1):
            if u[i - 1] + (2 if i == j else 1) > c[i - 1]:
                continue
            if i != j and u[j - 1] + 1 > c[j - 1]:
                continue
            if i == j or not graph.has_edge(i, j):
                if targets is None:
                    targets = _targets(graph, counts, i)
                if j not in targets:
                    continue
            quadrics.append(x[i - 1] + x[j - 1])
    return MonomialIdeal._from_packed(graph.n, packing, quadrics)
