"""Bounded powers of monomial and edge ideals.

Exact arithmetic on monomial ideals, their bounded powers (I^s)_c, linear
quotients and polymatroidality checks, even-connection colon structure, and
Castelnuovo-Mumford regularity from exact simplicial homology, together with
theorem-verification suites over exhaustive and randomized graph corpora.
"""

from .connections import (
    colon_generated_in_degree_two,
    colon_quadrics,
    edge_factorization,
    even_connected_targets,
    find_even_connection,
    is_valid_even_connection,
)
from .graphs import (
    Graph,
    Graph6Error,
    complete_graph,
    cycle_graph,
    enumerate_labeled_graphs,
    parse_graph6,
    path_graph,
    read_graph6_file,
)
from .homology import (
    BettiTable,
    SimplicialComplex,
    betti_table,
    betti_table_hochster,
    betti_table_taylor,
    has_linear_resolution,
    polarize,
    rank_of_rows,
    reduced_homology_ranks,
    regularity,
)
from .linquot import (
    SearchCapExceeded,
    all_bounded_powers_lq,
    find_lq_ordering,
    has_colon_splitting_order,
    is_lq_ordering,
    restrict_lq_ordering,
)
from .monomials import (
    BoundVector,
    Monomial,
    MonomialIdeal,
    colon_mono,
    degree,
    divides,
    is_bounded,
    support,
)
from .polymatroid import (
    exchange_witness,
    is_equigenerated,
    is_matroidal,
    is_polymatroidal,
)
from .powers import (
    bounded_power,
    bounded_power_chain,
    delta,
    delta_bmatching,
    squarefree_power,
)
from .suites import SUITE_NAMES, SuiteConfig, VerificationReport, run_suite

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
