#!/usr/bin/env python3
"""Linear quotients orderings and how bound restriction inherits them.

An ordering of the minimal generators has linear quotients when every prefix
colon ideal is generated by variables.  If any ordering works for I, the
induced subsequence works for every restriction I_c, and for edge ideals the
property for all bounded powers is equivalent to chordality of the
complement graph.
"""

from boundedpowers import (
    MonomialIdeal,
    bounded_power_chain,
    cycle_graph,
    enumerate_labeled_graphs,
    find_lq_ordering,
    is_lq_ordering,
    restrict_lq_ordering,
)

I = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
print("ideal:", I)
print("is (0,1,2) a linear quotients ordering?", is_lq_ordering(I, (0, 1, 2)))
print("is (2,0,1)?", is_lq_ordering(I, (2, 0, 1)))

ordering = find_lq_ordering(I)
print("search finds:", ordering)

# The ordering survives restriction: keep the bounded generators in place.
restricted = I.restrict((1, 1))
induced = restrict_lq_ordering(I, ordering, (1, 1))
print("restricted to c=(1,1):", restricted, "order", induced,
      "still linear quotients:", is_lq_ordering(restricted, induced))

# The classical two-generator counterexample: no ordering exists at all.
R = MonomialIdeal(5, [(1, 1, 1, 0, 0), (1, 0, 0, 1, 1)])
print("\ncounterexample ideal:", R)
print("search result:", find_lq_ordering(R))


def all_powers_lq(graph, c):
    """Whether every nonzero bounded power (I(G)^s)_c has linear quotients."""
    chain = bounded_power_chain(graph.edge_ideal(), c)
    return all(find_lq_ordering(power) is not None for power in chain)


# For edge ideals, all bounded powers have linear quotients exactly when the
# complement is chordal; C4 qualifies, C5 (self-complementary) does not.
print("\nC4, c=(1,1,1,1):", all_powers_lq(cycle_graph(4), (1, 1, 1, 1)))
print("C5, c=(1,...,1):", all_powers_lq(cycle_graph(5), (1,) * 5))

agree = sum(
    all_powers_lq(g, (2,) * 4) == g.complement().is_chordal()
    for g in enumerate_labeled_graphs(4)
)
print(f"\nequivalence holds on {agree}/64 labeled graphs with 4 vertices, c=(2,2,2,2)")
