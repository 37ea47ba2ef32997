"""The package namespace: public names load their module on first access."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import boundedpowers

SRC = Path(boundedpowers.__file__).resolve().parents[1]
SUBMODULES = sorted(p.stem for p in (SRC / "boundedpowers").glob("*.py")
                    if p.stem not in ("__init__", "__main__"))

# each re-exported name and its home module, written out
EXPORTS = {
    "connections": ["colon_quadrics", "edge_factorization", "even_connected_targets",
                    "find_even_connection"],
    "graphs": ["Graph", "Graph6Error", "complete_graph", "cycle_graph",
               "enumerate_labeled_graphs", "parse_graph6", "path_graph", "read_graph6_file"],
    "homology": ["betti_table", "betti_table_hochster", "betti_table_taylor",
                 "has_linear_resolution", "polarize", "rank_of_rows", "reduced_homology_ranks",
                 "regularity"],
    "linquot": ["SearchCapExceeded", "find_lq_ordering", "has_colon_splitting_order",
                "is_lq_ordering", "restrict_lq_ordering"],
    "monomials": ["BoundVector", "Monomial", "MonomialIdeal", "degree",
                  "is_bounded", "support"],
    "polymatroid": ["is_equigenerated", "is_matroidal", "is_polymatroidal"],
    "powers": ["bounded_power", "bounded_power_chain", "delta", "delta_bmatching",
               "squarefree_power"],
    "suites": ["SUITE_NAMES", "SuiteConfig", "VerificationReport", "run_suite"],
}
HOMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def loaded_after(code: str) -> list[str]:
    """The ``boundedpowers`` modules loaded by a fresh interpreter that runs ``code``."""
    script = code + "\nprint(*sorted(m for m in sys.modules if m.startswith('boundedpowers')))"
    result = subprocess.run([sys.executable, "-c", "import sys\n" + script],
                            capture_output=True, text=True, timeout=60,
                            env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_import_loads_no_submodule():
    assert loaded_after("import boundedpowers") == ["boundedpowers"]


def test_one_name_loads_its_module_and_what_that_imports():
    assert loaded_after("from boundedpowers import MonomialIdeal") == [
        "boundedpowers", "boundedpowers.monomials"]


def test_linquot_loads_monomials_alone():
    # the search reads ideals only; graphs and chains are its callers' business
    assert loaded_after("import boundedpowers.linquot") == [
        "boundedpowers", "boundedpowers.linquot", "boundedpowers.monomials"]


@pytest.mark.parametrize("module, name", HOMES)
def test_name_is_its_home_modules_object(module, name):
    home = importlib.import_module(f"boundedpowers.{module}")
    assert getattr(boundedpowers, name) is getattr(home, name)


def test_all_lists_the_names_and_no_submodule():
    assert len(HOMES) == 43
    assert sorted(boundedpowers.__all__) == sorted(name for _, name in HOMES)
    assert not set(boundedpowers.__all__) & set(SUBMODULES)


def test_dir_lists_every_name():
    assert {name for _, name in HOMES} <= set(dir(boundedpowers))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        boundedpowers.no_such_name
    assert not hasattr(boundedpowers, "check_characteristic")


def test_submodules_still_import():
    import boundedpowers.homology

    assert boundedpowers.homology.regularity is boundedpowers.regularity
    from boundedpowers import canon

    assert canon is sys.modules["boundedpowers.canon"]
