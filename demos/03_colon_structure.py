#!/usr/bin/env python3
"""Even-connections and the quadratic structure of bounded-power colons.

Dividing the (s+1)-st bounded power of an edge ideal by a generator u of the
s-th always yields an ideal generated in degree two, and the quadrics are
readable off the graph: actual edges, plus pairs of vertices joined by an
alternating walk whose interior steps come from a factorization of u.
"""

from boundedpowers import (
    bounded_power_chain,
    colon_quadrics,
    complete_graph,
    edge_factorization,
    even_connected_targets,
    find_even_connection,
    path_graph,
)

P4 = path_graph(4)
c = (1, 1, 1, 1)
chain = bounded_power_chain(P4.edge_ideal(), c)
print("bounded powers of I(P4) at c=ones:", [str(p) for p in chain])

u = (0, 1, 1, 0)  # the middle edge x2*x3
print("\ncolon of the top power by x2x3, computed directly:  ",
      chain[1].colon(u))
print("assembled from quadrics via even-connections:", colon_quadrics(P4, c, u))

# The witness walk behind the quadric x1*x4: its interior pair is the edge
# (2,3), exactly the factorization of u, held as {edge: multiplicity}.
print("\nfactorization of u:", edge_factorization(P4, u))
print("even-connection between 1 and 4:", find_even_connection(P4, [(2, 3)], 1, 4))
print("every vertex even-connected to 1:", sorted(even_connected_targets(P4, [(2, 3)], 1)))

# Self-connections produce squares: in the triangle, the walk 1,2,3,1 shows
# x1^2 lands in the colon once the bound has room for it.
K3 = complete_graph(3)
loop = find_even_connection(K3, [(2, 3)], 1, 1)
print("\ntriangle self-connection at vertex 1:", loop)
chain3 = bounded_power_chain(K3.edge_ideal(), (2, 1, 1))
print("I(K3) bounded powers at c=(2,1,1):", [str(p) for p in chain3])
print("colon of the second power by x2x3:", chain3[1].colon((0, 1, 1)),
      "= quadrics", colon_quadrics(K3, (2, 1, 1), (0, 1, 1)))
