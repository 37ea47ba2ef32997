"""Fixtures and oracles shared across test modules."""

from collections import Counter
from itertools import groupby
from operator import le

import pytest

from boundedpowers import powers
from boundedpowers.graphs import normalize_edge


@pytest.fixture
def level_builds(monkeypatch):
    """Record every call of ``powers._bounded_levels``: one per chain built."""
    calls = []
    original = powers._bounded_levels

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(powers, "_bounded_levels", counted)
    return calls


def colon_mono(u, v):
    """The monomial u : v = u / gcd(u, v), entrywise max(a - b, 0): the
    oracle for ``MonomialIdeal.colon``, which computes it on packed ints."""
    assert len(u) == len(v), (u, v)
    return tuple(max(a - b, 0) for a, b in zip(u, v))


def member_by_definition(ideal, u):
    """Whether some generator of the ideal divides u, entrywise on tuples: the
    membership oracle.  The library tests membership of u as ``restrict(u)``
    being nonzero, on packed ints."""
    return any(all(map(le, g, u)) for g in ideal.gens)


def minimal_gens(gens):
    """The canonical minimal generating set of the given exponent tuples:
    distinct, no strict multiples, sorted lexicographically.  Each degree
    group is tested only against the kept monomials of lower degree, on
    tuples.  The oracle for every way a ``MonomialIdeal`` is built, which all
    run one rule on packed ints."""
    distinct = set(map(tuple, gens))
    kept = []
    for _, same_degree in groupby(sorted(distinct, key=sum), key=sum):
        if kept:
            lower = tuple(kept)
            same_degree = [u for u in same_degree if not any(all(map(le, v, u)) for v in lower)]
        kept.extend(same_degree)
    return tuple(sorted(kept))


def is_valid_even_connection(graph, edges, a, b, path):
    """Whether ``path`` is an even-connection walk from a to b: an even number
    of at least four vertices, each step a graph edge, and interior pairs that
    take each edge of the multiset ``edges`` at most its multiplicity.  The
    witness checker for ``find_even_connection``."""
    if len(path) < 4 or len(path) % 2 or path[0] != a or path[-1] != b:
        return False
    if any(p == q or not graph.has_edge(p, q) for p, q in zip(path, path[1:])):
        return False
    used = Counter(normalize_edge(path[k], path[k + 1]) for k in range(1, len(path) - 1, 2))
    return not used - Counter(normalize_edge(*e) for e in edges)


def exchange_witness(ideal, u_idx, v_idx, i):
    """The smallest j (1-based) with u_j < v_j and x_j * u / x_i a generator,
    or None, for generators u, v with deg_{x_i}(u) > deg_{x_i}(v): the
    exchange condition for one triple, on tuples.  The oracle for
    ``is_polymatroidal``, which checks every triple on bit masks."""
    u, v = ideal.gens[u_idx], ideal.gens[v_idx]
    assert u[i - 1] > v[i - 1], (u, v, i)
    for j in range(1, ideal.n + 1):
        exchanged = tuple(e - (k == i) + (k == j) for k, e in enumerate(u, 1))
        if u[j - 1] < v[j - 1] and exchanged in ideal.gens:
            return j
    return None


def matching_number(graph) -> int:
    """Maximum number of pairwise disjoint edges, by exact branching: the
    lowest active vertex v with an active neighbour stays unmatched or is
    matched to one of those neighbours.  Active vertex sets are memoized int
    masks, and the search keeps its own stack, so n is not bounded by the
    interpreter's recursion limit.  The oracle for ``delta_bmatching`` at
    c = ones; it is exponential on dense graphs."""
    adj = [0] + [sum(1 << w for w in graph.adjacency[v]) for v in graph.vertices()]
    full = sum(1 << v for v in graph.vertices())
    best: dict[int, int] = {}
    stack = [full]
    while stack:
        mask = rest = stack[-1]
        while rest and not adj[(rest & -rest).bit_length() - 1] & mask:
            rest &= rest - 1  # a vertex without an active neighbour stays unmatched
        if not rest:
            best[mask] = 0
            stack.pop()
            continue
        v = (rest & -rest).bit_length() - 1
        rest ^= 1 << v
        children = [rest] + [rest & ~(1 << w) for w in graph.adjacency[v] if mask >> w & 1]
        pending = [child for child in children if child not in best]
        if pending:
            stack.extend(pending)
            continue
        best[mask] = max(best[rest], 1 + max(best[child] for child in children[1:]))
        stack.pop()
    return best[full]
