"""Exchange-condition checks and the top bounded power of edge ideals."""

import random
from itertools import combinations, combinations_with_replacement

from boundedpowers import (
    Graph,
    MonomialIdeal,
    bounded_power,
    bounded_power_chain,
    complete_graph,
    cycle_graph,
    delta,
    enumerate_labeled_graphs,
    find_lq_ordering,
    is_equigenerated,
    is_matroidal,
    is_polymatroidal,
    squarefree_power,
)
from conftest import exchange_witness, matching_number

REMARK_IDEAL = MonomialIdeal(5, [(1, 1, 1, 0, 0), (1, 0, 0, 1, 1)])
TRIANGLE = complete_graph(3).edge_ideal()


class TestEquigenerated:
    def test_edge_ideals(self):
        assert is_equigenerated(TRIANGLE)

    def test_mixed_degrees(self):
        assert not is_equigenerated(MonomialIdeal(3, [(1, 0, 0), (0, 1, 1)]))

    def test_zero_ideal_convention(self):
        assert is_equigenerated(MonomialIdeal(2, []))


class TestExchangeWitness:
    def test_triangle(self):
        gens = list(TRIANGLE.gens)
        u, v = gens.index((1, 1, 0)), gens.index((0, 1, 1))
        assert exchange_witness(TRIANGLE, u, v, 1) == 3

    def test_remark_ideal_has_no_witness(self):
        gens = list(REMARK_IDEAL.gens)
        u, v = gens.index((1, 1, 1, 0, 0)), gens.index((1, 0, 0, 1, 1))
        assert exchange_witness(REMARK_IDEAL, u, v, 2) is None


class TestIsPolymatroidal:
    def test_triangle(self):
        assert is_polymatroidal(TRIANGLE)

    def test_remark_ideal(self):
        assert not is_polymatroidal(REMARK_IDEAL)

    def test_principal_equigenerated(self):
        assert is_polymatroidal(MonomialIdeal(3, [(2, 1, 0)]))

    def test_zero_ideal(self):
        assert is_polymatroidal(MonomialIdeal(2, []))

    def test_veronese_square(self):
        ideal = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
        assert is_polymatroidal(ideal)
        assert not is_matroidal(ideal)

    def test_not_equigenerated_fails(self):
        assert not is_polymatroidal(MonomialIdeal(2, [(1, 0), (0, 2)]))

    def test_agrees_with_exchange_witness(self):
        # random equigenerated ideals: the exchange condition read off
        # exchange_witness over every (u, v, i)
        rng = random.Random(89)
        outcomes = set()
        for _ in range(300):
            n, d = rng.randint(2, 4), rng.randint(1, 3)
            pool = list(combinations_with_replacement(range(n), d))
            picked = rng.sample(pool, rng.randint(1, min(6, len(pool))))
            ideal = MonomialIdeal(n, [tuple(g.count(k) for k in range(n)) for g in picked])
            gens = ideal.gens
            expected = all(
                exchange_witness(ideal, a, b, i) is not None
                for a in range(len(gens)) for b in range(len(gens))
                for i in range(1, n + 1) if gens[a][i - 1] > gens[b][i - 1]
            )
            assert is_polymatroidal(ideal) == expected
            outcomes.add(expected)
        assert outcomes == {True, False}


class TestIsMatroidal:
    def test_zero_ideal(self):
        assert is_matroidal(MonomialIdeal(2, []))

    def test_top_squarefree_power_is_matroidal(self):
        for n in range(2, 6):
            for g in enumerate_labeled_graphs(n):
                match = matching_number(g)
                if match == 0:
                    continue
                assert is_matroidal(squarefree_power(g.edge_ideal(), match)), g.to_graph6()


class TestTopPower:
    def test_corpus(self):
        rng = random.Random(37)
        for _ in range(50):
            n = rng.randint(2, 5)
            edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.5]
            g = Graph.from_edges(n, edges)
            c = tuple(rng.randint(0, 2) for _ in range(n))
            chain = bounded_power_chain(g.edge_ideal(), c)
            if chain:
                assert is_polymatroidal(chain[-1])

    def test_principal_top_power(self):
        top = bounded_power_chain(complete_graph(2).edge_ideal(), (3, 2))[-1]
        assert is_polymatroidal(top)
        assert top.gens == ((2, 2),)

    def test_polymatroidal_implies_linear_quotients(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(2, 4)
            edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.6]
            g = Graph.from_edges(n, edges)
            c = tuple(rng.randint(1, 2) for _ in range(n))
            top = delta(g.edge_ideal(), c)
            if top == 0:
                continue
            ideal = bounded_power(g.edge_ideal(), top, c)
            assert is_polymatroidal(ideal)
            assert find_lq_ordering(ideal) is not None

    def test_cycle_with_uneven_bounds(self):
        assert is_polymatroidal(bounded_power_chain(cycle_graph(4).edge_ideal(), (2, 1, 1, 2))[-1])
