"""Bounded powers of monomial and edge ideals.

Exact arithmetic on monomial ideals, their bounded powers (I^s)_c, linear
quotients and polymatroidality checks, even-connection colon structure, and
Castelnuovo-Mumford regularity from exact simplicial homology, together with
theorem-verification suites over exhaustive and randomized graph corpora.

Each public name is loaded from its module on first access (PEP 562), so
``import boundedpowers`` loads no submodule, and a command loads only the
layers it runs.
"""

# home module -> the names re-exported from it
_EXPORTS = {
    "connections": ("colon_quadrics", "edge_factorization", "even_connected_targets",
                    "find_even_connection"),
    "graphs": ("Graph", "Graph6Error", "complete_graph", "cycle_graph",
               "enumerate_labeled_graphs", "parse_graph6", "path_graph", "read_graph6_file"),
    "homology": ("betti_table", "betti_table_hochster", "betti_table_taylor",
                 "has_linear_resolution", "polarize", "rank_of_rows", "reduced_homology_ranks",
                 "regularity"),
    "linquot": ("SearchCapExceeded", "find_lq_ordering", "has_colon_splitting_order",
                "is_lq_ordering", "restrict_lq_ordering"),
    "monomials": ("BoundVector", "Monomial", "MonomialIdeal", "degree",
                  "is_bounded", "support"),
    "polymatroid": ("is_equigenerated", "is_matroidal", "is_polymatroidal"),
    "powers": ("bounded_power", "bounded_power_chain", "delta", "delta_bmatching",
               "squarefree_power"),
    "suites": ("SUITE_NAMES", "SuiteConfig", "VerificationReport", "run_suite"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
