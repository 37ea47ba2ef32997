"""Bounded powers of monomial ideals and the largest nonvanishing exponent.

The s-th c-bounded power of I is the subideal of I^s generated by its
c-bounded members.  Products are enumerated level by level, discarding any
partial product that already exceeds the bound (sound because exponents only
grow), so the full power is never materialized.

The level loop runs on packed monomials (``monomials._Packing``), one packing
for every level of a chain.  Each exponent gets a field of ``w`` bits whose
top bit is a guard bit and whose capacity ``2^(w-1) - 1`` is above max(c),
with variable 1 in the most significant field.  A product is one addition
``p + g``, and ``q`` is c-bounded iff ``(q + offset) & guard`` is 0, where
field k of ``offset`` holds ``2^(w-1) - 1 - c_k``.  Levels are stored with
``offset`` already added, which makes the bound test free.  Each level goes
packed to the ``MonomialIdeal`` constructor core, which drops the products
that are not minimal.  ``MonomialIdeal.power`` is a bounded power too.
"""

from __future__ import annotations

from .graphs import Graph
from .monomials import (
    BoundVector,
    MonomialIdeal,
    _check_monomial,
    _Packing,
    degree,
)


def _bounded_levels(ideal: MonomialIdeal, c: BoundVector, max_level: int) -> list[MonomialIdeal]:
    """The nonzero bounded powers (I^s)_c for s = 1..max_level, in order.

    Stops early once a level comes out empty; every bounded (s+1)-fold product
    is a bounded s-fold product times a generator, so the recursion is complete.
    """
    packing = _Packing(ideal.n, max(c))
    guard = packing.guard
    offset = guard - packing.ones - packing.pack(c)
    gens = [packing.pack(g) for g in ideal.restrict(c).gens]
    levels: list[MonomialIdeal] = []
    current = {offset + g for g in gens}
    while current and len(levels) < max_level:
        levels.append(MonomialIdeal._from_packed(ideal.n, packing, [u - offset for u in current]))
        current = {q for p in current for g in gens if not (q := p + g) & guard}
    return levels


def bounded_power(ideal: MonomialIdeal, s: int, c: BoundVector) -> MonomialIdeal:
    """The s-th c-bounded power (I^s)_c, s >= 1."""
    if s < 1:
        raise ValueError(f"bounded_power wants s >= 1, got {s}")
    c = _check_monomial(ideal.n, c)
    if ideal.is_unit():
        return ideal  # every power of the unit ideal is the unit ideal
    levels = _bounded_levels(ideal, c, s)
    return levels[s - 1] if len(levels) == s else MonomialIdeal(ideal.n, ())


def squarefree_power(ideal: MonomialIdeal, s: int) -> MonomialIdeal:
    """The s-th squarefree power, i.e. the bounded power at c = (1,...,1)."""
    return bounded_power(ideal, s, (1,) * ideal.n)


def bounded_power_chain(ideal: MonomialIdeal, c: BoundVector) -> list[MonomialIdeal]:
    """All nonzero bounded powers [(I^1)_c, ..., (I^delta)_c] in one pass."""
    c = _check_monomial(ideal.n, c)
    if ideal.is_unit():
        raise ValueError("delta is unbounded for the unit ideal")
    return _bounded_levels(ideal, c, sum(c) // min(map(degree, ideal.gens), default=1))


def delta(ideal: MonomialIdeal, c: BoundVector) -> int:
    """The largest k with (I^k)_c nonzero; 0 when already I_c = 0.

    Terminates because a c-bounded k-fold product has total degree at least
    k * (minimal generator degree) and at most |c|.
    """
    return len(bounded_power_chain(ideal, c))


def delta_bmatching(graph: Graph, c: BoundVector) -> int:
    """delta of the edge ideal, computed independently as a maximum b-matching.

    Maximizes the number of chosen edge copies subject to every vertex i lying
    on at most c_i copies, by exact branch and bound over edge multiplicities.
    No monomial arithmetic is involved.
    """
    c = _check_monomial(graph.n, c)
    edges = graph.sorted_edges()
    caps = [0] + list(c)  # 1-based
    # capacity left on vertices still touched by edges from position k onward
    suffix_vertices: list[set[int]] = [set() for _ in range(len(edges) + 1)]
    for k in range(len(edges) - 1, -1, -1):
        suffix_vertices[k] = suffix_vertices[k + 1] | set(edges[k])
    best = total = 0
    # the multiplicity of each edge on the current branch; the search keeps
    # its own stack, so the edge count is not bounded by the recursion limit
    chosen: list[int] = []
    while True:
        k = len(chosen)
        best = max(best, total)
        if k < len(edges) and total + sum(caps[v] for v in suffix_vertices[k]) // 2 > best:
            m = min(caps[edges[k][0]], caps[edges[k][1]])  # most copies first
        else:  # back up to the deepest edge that can take one copy fewer
            m = -1
            while m < 0 and chosen:
                m = chosen.pop()
                i, j = edges[len(chosen)]
                caps[i] += m
                caps[j] += m
                total -= m
                m -= 1
            if m < 0:
                return best
        i, j = edges[len(chosen)]
        caps[i] -= m
        caps[j] -= m
        total += m
        chosen.append(m)
