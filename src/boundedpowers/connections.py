"""Even-connections and the quadratic structure of colon ideals of bounded
powers of edge ideals.

Two vertices a, b (possibly equal) are even-connected with respect to a
multiset of s edges when there is a walk a = p_0, p_1, ..., p_{2r+1} = b,
r >= 1, all of whose steps are edges of the graph, whose r interior odd pairs
{p_{2k+1}, p_{2k+2}} are edges from the multiset, each distinct edge used at
most its multiplicity.  These pairs, together with actual edges, generate the
colon of the next bounded power by a generator of the current one.

The search allows each distinct edge at most two uses, whatever its
multiplicity, and this is exact.  Suppose a walk takes one multiset edge twice
in the same direction, at pairs k1 < k2.  Cutting the 2(k2 - k1) steps between
the two takes leaves a valid walk: it is strictly shorter, has the same ends,
keeps every parity and takes fewer copies.  So every shortest witness takes
each edge at most once per direction, and the search space does not grow with
the number of edges in the multiset.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Sequence

from .graphs import Edge, Graph, normalize_edge
from .monomials import (
    BoundVector,
    Monomial,
    MonomialIdeal,
    _check_monomial,
    degree,
    is_bounded,
)


@dataclass(frozen=True)
class EvenConnection:
    """A witness walk; ``assignment[k]`` is the index into the queried edge
    multiset realizing the k-th interior odd pair."""

    path: tuple[int, ...]
    assignment: tuple[int, ...]

    @property
    def r(self) -> int:
        return (len(self.path) - 2) // 2


def is_valid_even_connection(
    graph: Graph, edges: Sequence[Edge], a: int, b: int, conn: EvenConnection
) -> bool:
    """Check the four defining conditions of an even-connection witness."""
    path = conn.path
    if len(path) < 4 or len(path) % 2:
        return False
    r = conn.r
    if path[0] != a or path[-1] != b or len(conn.assignment) != r:
        return False
    for p, q in zip(path, path[1:]):
        if p == q or not graph.has_edge(p, q):
            return False
    used: dict[Edge, int] = {}
    for k in range(r):
        idx = conn.assignment[k]
        if not 0 <= idx < len(edges):
            return False
        e = normalize_edge(*edges[idx])
        if normalize_edge(path[2 * k + 1], path[2 * k + 2]) != e:
            return False
        used[e] = used.get(e, 0) + 1
    supply = Counter(normalize_edge(*e) for e in edges)
    return all(used[e] <= supply[e] for e in used)


def _edge_copies(graph: Graph, edges: Sequence[Edge]) -> dict[Edge, list[int]]:
    """Each distinct edge of the multiset, in sorted order, with the indices of
    its copies; raises ValueError on a pair that is not a graph edge."""
    copies: dict[Edge, list[int]] = {}
    for idx, e in enumerate(edges):
        e = normalize_edge(*e)
        if e not in graph.edges:
            raise ValueError(f"edge {e} is not an edge of the graph")
        copies.setdefault(e, []).append(idx)
    return {e: copies[e] for e in sorted(copies)}


def _even_walks(graph: Graph, copies: dict[Edge, list[int]], a: int) -> dict[tuple, tuple | None]:
    """BFS from a over (vertex, uses left, parity) states; each distinct edge
    starts with min(multiplicity, 2) uses.  Returns the parent map, whose keys
    are in discovery order.  A state is accepting when its parity is 1 (odd
    walk position) and it has taken at least one multiset edge."""
    distinct = tuple(copies)
    start = (a, tuple(min(len(idx), 2) for idx in copies.values()), 0)
    parents: dict[tuple, tuple | None] = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        vertex, left, parity = state
        if parity:
            # odd position: the next step takes a multiset edge
            steps = [
                (e[1] if e[0] == vertex else e[0], left[:t] + (left[t] - 1,) + left[t + 1:], 0)
                for t, e in enumerate(distinct) if left[t] and vertex in e
            ]
        else:
            # even position: the next step is any edge of the graph
            steps = [(u, left, 1) for u in graph.adjacency[vertex]]
        for nxt in steps:
            if nxt not in parents:
                parents[nxt] = state
                queue.append(nxt)
    return parents


def _targets(parents: dict[tuple, tuple | None]) -> set[int]:
    """The vertices of the accepting states of an ``_even_walks`` parent map."""
    full = next(iter(parents))[1]
    return {v for v, left, parity in parents if parity and left != full}


def _check_vertex(graph: Graph, v: int) -> None:
    if not 1 <= v <= graph.n:
        raise ValueError(f"unknown vertex label {v}")


def find_even_connection(
    graph: Graph, edges: Sequence[Edge], a: int, b: int
) -> EvenConnection | None:
    """A shortest even-connection witness between a and b, or None."""
    _check_vertex(graph, a)
    _check_vertex(graph, b)
    copies = _edge_copies(graph, edges)
    parents = _even_walks(graph, copies, a)
    full = next(iter(parents))[1]
    state = next((st for st in parents if st[0] == b and st[2] and st[1] != full), None)
    if state is None:
        return None
    path: list[int] = []
    while state is not None:
        path.append(state[0])
        state = parents[state]
    path.reverse()
    unused = {e: iter(idx) for e, idx in copies.items()}
    assignment = tuple(
        next(unused[normalize_edge(path[k], path[k + 1])]) for k in range(1, len(path) - 1, 2)
    )
    return EvenConnection(tuple(path), assignment)


def even_connected_targets(graph: Graph, edges: Sequence[Edge], a: int) -> set[int]:
    """All vertices even-connected to a with respect to the edge multiset."""
    _check_vertex(graph, a)
    return _targets(_even_walks(graph, _edge_copies(graph, edges), a))


def edge_factorization(graph: Graph, s: int, u: Monomial) -> tuple[Edge, ...] | None:
    """The lexicographically smallest multiset of s edges with product u.

    Depth-first over edge indices in non-decreasing order, with an explicit
    stack, so s is not bounded by the interpreter's recursion limit.
    """
    edges = graph.sorted_edges()
    remaining = list(u)
    chosen: list[int] = []
    k = 0  # the next edge index to try at the current depth
    while True:
        if len(chosen) < s:
            while k < len(edges) and not (remaining[edges[k][0] - 1] and remaining[edges[k][1] - 1]):
                k += 1
            if k < len(edges):
                i, j = edges[k]
                remaining[i - 1] -= 1
                remaining[j - 1] -= 1
                chosen.append(k)
                continue
        elif not any(remaining):
            return tuple(edges[t] for t in chosen)
        if not chosen:
            return None
        k = chosen.pop()
        i, j = edges[k]
        remaining[i - 1] += 1
        remaining[j - 1] += 1
        k += 1


def colon_quadrics(
    graph: Graph,
    s: int,
    c: BoundVector,
    u: Monomial,
    factorization: Sequence[Edge] | None = None,
) -> MonomialIdeal:
    """The colon of (I(G)^{s+1})_c by u, assembled from quadrics.

    u must be a minimal generator of (I(G)^s)_c (so in particular s <= delta).
    That ideal is generated in the single degree 2s, where no generator divides
    another, so u is one iff u <= c and u is a product of s graph edges.  It is
    factored into a canonical multiset of s edges, unless an explicit witness
    ``factorization`` of s graph edges is supplied (the result must not depend
    on the chosen witness; passing different ones exercises that).  The output is
    generated by the monomials x_i*x_j (i = j allowed) such that u*x_i*x_j
    stays c-bounded and x_i, x_j are adjacent or even-connected with respect
    to the factorization.  Agreement with the directly computed colon ideal is
    the content of the corresponding verification suite; at s = delta both
    sides are empty, so the description degenerates consistently.
    """
    c = _check_monomial(graph.n, c)
    u = _check_monomial(graph.n, u)
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if factorization is None:
        factorization = edge_factorization(graph, s, u)
    else:
        factorization = tuple(normalize_edge(*e) for e in factorization)
        degrees = Counter(v for e in factorization for v in e)
        if (len(factorization) != s or not graph.edges.issuperset(factorization)
                or any(degrees[v] != a for v, a in enumerate(u, 1))):
            raise ValueError("supplied factorization is not s graph edges multiplying to u")
    if factorization is None or not is_bounded(u, c):
        raise ValueError("u is not a minimal generator of the s-th bounded power")
    copies = _edge_copies(graph, factorization)
    quadrics = []
    for i in range(1, graph.n + 1):
        targets = None  # searched only once some pair (i, j) needs it
        for j in range(i, graph.n + 1):
            if u[i - 1] + (2 if i == j else 1) > c[i - 1]:
                continue
            if i != j and u[j - 1] + 1 > c[j - 1]:
                continue
            if i == j or not graph.has_edge(i, j):
                if targets is None:
                    targets = _targets(_even_walks(graph, copies, i))
                if j not in targets:
                    continue
            q = [0] * graph.n
            q[i - 1] += 1
            q[j - 1] += 1
            quadrics.append(tuple(q))
    return MonomialIdeal(graph.n, quadrics)


def colon_generated_in_degree_two(power: MonomialIdeal, nxt: MonomialIdeal) -> bool:
    """Whether ``nxt : u`` is generated purely in degree two for every minimal
    generator u of ``power``.  ``power, nxt`` are consecutive bounded powers
    (I(G)^s)_c, (I(G)^{s+1})_c with 1 <= s <= delta - 1: ``chain[s - 1],
    chain[s]`` of ``bounded_power_chain(graph.edge_ideal(), c)``."""
    for u in power.gens:
        if any(degree(w) != 2 for w in nxt.colon(u).gens):
            return False
    return True
