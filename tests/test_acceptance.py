"""Acceptance gate: every criterion at its stated (exact) tolerance.

Each test prints one PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s``
to see them.  All comparisons are integer equalities/inequalities, tolerance 0.
"""

import random
import time
from itertools import combinations

from boundedpowers import (
    Graph,
    MonomialIdeal,
    SuiteConfig,
    betti_table,
    betti_table_hochster,
    betti_table_taylor,
    delta,
    delta_bmatching,
    enumerate_labeled_graphs,
    find_lq_ordering,
    polarize,
    regularity,
    run_suite,
)
from conftest import matching_number


def report(number: int, name: str, ok: bool, started: float, extra: str = "") -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    suffix = f" [{extra}]" if extra else ""
    print(f"[criterion {number:02d}] {name}: {status} ({elapsed:.1f}s){suffix}")
    assert ok, f"criterion {number} failed"


def random_graph(rng: random.Random, n: int) -> Graph:
    edges = [(i, j) for i, j in combinations(range(1, n + 1), 2) if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


def suite_ok(report_obj) -> bool:
    return report_obj.summary["fail"] == 0


def test_criterion_01_delta_consistency():
    started = time.perf_counter()
    mismatches = 0
    for g in enumerate_labeled_graphs(5):
        ones = (1,) * 5
        d = delta(g.edge_ideal(), ones)
        if d != delta_bmatching(g, ones) or d != matching_number(g):
            mismatches += 1
    rng = random.Random(20240501)
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 6))
        c = tuple(rng.randint(0, 3) for _ in range(g.n))
        if delta(g.edge_ideal(), c) != delta_bmatching(g, c):
            mismatches += 1
    report(1, "delta = b-matching = matching number", mismatches == 0, started,
           "1024 exhaustive + 200 random instances")


def test_criterion_02_all_powers_lq_iff_chordal_complement():
    started = time.perf_counter()
    ones = run_suite(SuiteConfig(suite="edge-lq", nmax=5, c_policy="ones"))
    twos = run_suite(SuiteConfig(suite="edge-lq", nmax=5, c_policy="constant", c_value=2))
    report(2, "bounded powers LQ iff chordal complement",
           suite_ok(ones) and suite_ok(twos), started,
           f"{ones.summary['total']}+{twos.summary['total']} instances")


def test_criterion_03_top_power_polymatroidal():
    started = time.perf_counter()
    ones = run_suite(SuiteConfig(suite="essen", nmax=5, c_policy="ones"))
    twos = run_suite(SuiteConfig(suite="essen", nmax=5, c_policy="constant", c_value=2))
    report(3, "top bounded power polymatroidal (matroidal at ones)",
           suite_ok(ones) and suite_ok(twos), started,
           f"skips {ones.summary['skip']}+{twos.summary['skip']} (delta=0)")


def test_criterion_04_lq_restriction_inheritance():
    started = time.perf_counter()
    boston = run_suite(SuiteConfig(suite="boston", random_count=300, seed=77))
    istanbul = run_suite(SuiteConfig(suite="istanbul", random_count=300, seed=78))
    ok = suite_ok(boston) and suite_ok(istanbul)
    checked = boston.summary["pass"] + istanbul.summary["pass"]
    report(4, "LQ orderings survive bound restriction", ok, started,
           f"{checked} checks on 600 random ideals")


def test_criterion_05_colon_quadrics_and_degree_two():
    started = time.perf_counter()
    results = [
        run_suite(SuiteConfig(suite="banerjee-colon", nmax=5, c_policy="ones")),
        run_suite(SuiteConfig(suite="banerjee-colon", nmax=5, c_policy="constant", c_value=2)),
        run_suite(SuiteConfig(suite="deg2", nmax=5, c_policy="ones")),
        run_suite(SuiteConfig(suite="deg2", nmax=5, c_policy="constant", c_value=2)),
    ]
    report(5, "colon ideals quadratic and described by even-connections",
           all(suite_ok(r) for r in results), started,
           f"{sum(r.summary['pass'] for r in results)} pass records")


def test_criterion_06_splitting_labels_exist():
    started = time.perf_counter()
    ones = run_suite(SuiteConfig(suite="rfirst", nmax=5, c_policy="ones", max_generators=10))
    twos = run_suite(SuiteConfig(suite="rfirst", nmax=5, c_policy="constant", c_value=2,
                                 max_generators=10))
    skips = ones.summary["skip"] + twos.summary["skip"]
    report(6, "colon-splitting labeling exists (cap refusals skipped)",
           suite_ok(ones) and suite_ok(twos), started, f"{skips} skipped")


def test_criterion_07_regularity_bound_and_top_equality():
    started = time.perf_counter()
    results = []
    for suite in ("regmain", "linres-top"):
        results.append(run_suite(SuiteConfig(suite=suite, nmax=5, c_policy="ones")))
        results.append(run_suite(SuiteConfig(suite=suite, nmax=5, c_policy="constant", c_value=2)))
        results.append(run_suite(SuiteConfig(
            suite=suite, random_count=100, random_nmax=5, c_policy="random", c_value=2,
            seed=79)))
    report(7, "reg((I^s)_c) <= delta + s, equality at the top",
           all(suite_ok(r) for r in results), started,
           f"{sum(r.summary['pass'] for r in results)} pass records, char 0")


def test_criterion_08_colon_regularity_bounds():
    started = time.perf_counter()
    results = []
    for suite in ("colon-reg", "regcol"):
        results.append(run_suite(SuiteConfig(suite=suite, nmax=5, c_policy="ones")))
        results.append(run_suite(SuiteConfig(suite=suite, nmax=5, c_policy="constant", c_value=2)))
        results.append(run_suite(SuiteConfig(
            suite=suite, random_count=100, random_nmax=5, c_policy="random", c_value=2,
            seed=80)))
    report(8, "colon regularity bounds at every level",
           all(suite_ok(r) for r in results), started,
           f"{sum(r.summary['pass'] for r in results)} pass records")


def test_criterion_09_fixed_counterexample():
    started = time.perf_counter()
    result = run_suite(SuiteConfig(suite="remark45"))
    ideal = MonomialIdeal(5, [(1, 1, 1, 0, 0), (1, 0, 0, 1, 1)])
    direct = delta(ideal, (1,) * 5) == 1 and find_lq_ordering(ideal) is None
    report(9, "fixed two-generator ideal: delta 1, no linear quotients",
           suite_ok(result) and result.summary["pass"] == 1 and direct, started)


def test_criterion_10_betti_oracle_cross_validation():
    started = time.perf_counter()
    rng = random.Random(20240510)
    disagreements = 0
    for _ in range(100):
        n = rng.randint(1, 5)
        gens = []
        for _ in range(rng.randint(1, 5)):
            g = tuple(rng.randint(0, 2) for _ in range(n))
            if any(g):
                gens.append(g)
        ideal = MonomialIdeal(n, gens or [(1,) + (0,) * (n - 1)])
        reference = betti_table(ideal)
        polarized = polarize(ideal)
        if betti_table_taylor(ideal) != reference:
            disagreements += 1
        if betti_table_hochster(polarized) != reference:
            disagreements += 1
        if regularity(ideal) != regularity(polarized):
            disagreements += 1
    report(10, "Betti tables agree across three routes; polarization keeps reg",
           disagreements == 0, started, "100 random ideals")
