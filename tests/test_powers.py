"""Bounded powers, delta, and the independent b-matching route."""

import random
from itertools import combinations, product
from operator import le

import pytest

from boundedpowers import (
    Graph,
    MonomialIdeal,
    bounded_power,
    bounded_power_chain,
    colon_quadrics,
    cycle_graph,
    complete_graph,
    delta,
    delta_bmatching,
    is_bounded,
    path_graph,
    squarefree_power,
)
from conftest import matching_number, member_by_definition


def brute_bmatching(g: Graph, c) -> int:
    """Exhaustive edge-multiplicity search, the oracle for delta_bmatching."""
    edges = g.sorted_edges()
    caps = dict(zip(range(1, g.n + 1), c))
    tops = [min(caps[i], caps[j]) for i, j in edges]
    best = 0
    for mults in product(*[range(t + 1) for t in tops]):
        load = [0] * (g.n + 1)
        for (i, j), m in zip(edges, mults):
            load[i] += m
            load[j] += m
        if all(load[v] <= caps[v] for v in range(1, g.n + 1)):
            best = max(best, sum(mults))
    return best


def random_graph(rng, n):
    edges = [(i, j) for i, j in combinations(range(1, n + 1), 2) if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


class TestBoundedPower:
    def test_s1_is_restrict(self):
        i = MonomialIdeal(2, [(2, 0), (1, 1)])
        assert bounded_power(i, 1, (1, 1)) == i.restrict((1, 1))

    def test_square_of_edge_vanishes(self):
        i = complete_graph(2).edge_ideal()
        assert bounded_power(i, 2, (1, 1)).is_zero()

    def test_mixed_bound(self):
        i = MonomialIdeal(3, [(1, 1, 0), (0, 1, 1)])
        assert bounded_power(i, 2, (1, 2, 1)).gens == ((1, 2, 1),)

    def test_matches_unpruned_route(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 4)
            gens = []
            for _ in range(rng.randint(1, 4)):
                g = tuple(rng.randint(0, 2) for _ in range(n))
                if any(g):
                    gens.append(g)
            i = MonomialIdeal(n, gens)
            c = tuple(rng.randint(0, 3) for _ in range(n))
            for s in (1, 2, 3):
                assert bounded_power(i, s, c) == i.power(s).restrict(c)

    def test_invalid_s(self):
        with pytest.raises(ValueError):
            bounded_power(MonomialIdeal(1, [(1,)]), 0, (1,))


class TestSquarefreePower:
    def test_first_power(self):
        i = path_graph(3).edge_ideal()
        assert squarefree_power(i, 1) == i

    def test_vanishing_beyond_matching(self):
        assert squarefree_power(path_graph(3).edge_ideal(), 2).is_zero()

    def test_p4_second_power(self):
        assert squarefree_power(path_graph(4).edge_ideal(), 2).gens == ((1, 1, 1, 1),)


class TestDelta:
    def test_remark_ideal(self):
        i = MonomialIdeal(5, [(1, 1, 1, 0, 0), (1, 0, 0, 1, 1)])
        assert delta(i, (1,) * 5) == 1

    def test_equals_matching_number_exhaustive(self):
        from boundedpowers import enumerate_labeled_graphs

        for n in range(1, 5):
            for g in enumerate_labeled_graphs(n):
                assert delta(g.edge_ideal(), (1,) * n) == matching_number(g)

    def test_k2_with_room(self):
        assert delta(complete_graph(2).edge_ideal(), (3, 2)) == 2

    def test_zero_cases(self):
        assert delta(MonomialIdeal(2, []), (1, 1)) == 0
        assert delta(MonomialIdeal(2, [(2, 0)]), (1, 1)) == 0

    def test_unit_ideal_rejected(self):
        with pytest.raises(ValueError):
            delta(MonomialIdeal(2, [(0, 0)]), (1, 1))

    def test_chain_consistency(self):
        i = cycle_graph(4).edge_ideal()
        c = (2, 1, 1, 2)
        chain = bounded_power_chain(i, c)
        assert len(chain) == delta(i, c)
        for s, level in enumerate(chain, start=1):
            assert level == bounded_power(i, s, c)
            assert not level.is_zero()
        assert bounded_power(i, len(chain) + 1, c).is_zero()

    def test_monotone_in_c(self):
        rng = random.Random(9)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 5))
            big = tuple(rng.randint(0, 3) for _ in range(g.n))
            small = tuple(rng.randint(0, x) for x in big)
            assert delta(g.edge_ideal(), small) <= delta(g.edge_ideal(), big)


class TestBMatching:
    def test_unit_bounds_are_matching(self):
        for g in [path_graph(4), cycle_graph(5), complete_graph(4)]:
            assert delta_bmatching(g, (1,) * g.n) == matching_number(g)

    def test_k2(self):
        assert delta_bmatching(complete_graph(2), (3, 2)) == 2

    def test_c4_depends_on_capacity_placement(self):
        # adjacent capacity-2 vertices admit three edge copies...
        assert delta_bmatching(cycle_graph(4), (2, 1, 1, 2)) == 3
        # ...antipodal ones only two
        anti = Graph.from_edges(4, [(1, 3), (3, 4), (2, 4), (1, 2)])
        assert delta_bmatching(anti, (2, 1, 1, 2)) == 2

    def test_agrees_with_exhaustive_search(self):
        rng = random.Random(11)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 5))
            c = tuple(rng.randint(0, 3) for _ in range(g.n))
            assert delta_bmatching(g, c) == brute_bmatching(g, c)

    def test_two_routes_agree(self):
        rng = random.Random(13)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 6))
            c = tuple(rng.randint(0, 3) for _ in range(g.n))
            assert delta(g.edge_ideal(), c) == delta_bmatching(g, c)

    def test_more_edges_than_the_recursion_limit(self):
        # K46 has 1035 edges, one search level each
        assert delta_bmatching(complete_graph(46), (1,) * 46) == 23
        assert delta_bmatching(complete_graph(46), (2,) * 46) == 46


class TestNesting:
    def test_next_power_sits_inside_product(self):
        rng = random.Random(17)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 5))
            c = tuple(rng.randint(1, 2) for _ in range(g.n))
            ideal = g.edge_ideal()
            chain = bounded_power_chain(ideal, c)
            for s in range(1, len(chain)):
                product_gens = [
                    tuple(a + b for a, b in zip(p, q))
                    for p in chain[s - 1].gens
                    for q in ideal.gens
                ]
                step = MonomialIdeal(ideal.n, product_gens).restrict(c)
                for gen in chain[s].gens:
                    assert member_by_definition(step, gen)


class TestChainReuse:
    """Each helper builds the bounded-power chain at most once per call."""

    def test_bounded_power_of_the_unit_ideal_builds_no_chain(self, level_builds):
        # every power of the unit ideal is the unit ideal, whatever s is
        unit = MonomialIdeal(2, [(0, 0)])
        for s in (1, 2, 20000):
            assert bounded_power(unit, s, (1, 1)) == unit
        assert bounded_power(unit, 3, (0, 0)) == unit
        assert level_builds == []
        # s and c are still validated first
        with pytest.raises(ValueError, match="s >= 1"):
            bounded_power(unit, 0, (1, 1))
        with pytest.raises(ValueError):
            bounded_power(unit, 2, (1, 1, 1))
        with pytest.raises(ValueError):
            bounded_power(unit, 2, (1, -1))

    def test_colon_quadrics_builds_no_chain(self, level_builds):
        g = cycle_graph(5)
        c = (2,) * 5
        chain = bounded_power_chain(g.edge_ideal(), c)
        level_builds.clear()
        for s in range(1, len(chain)):
            for u in chain[s - 1].gens:
                colon_quadrics(g, c, u)
        assert level_builds == []


def tuple_chain(ideal, c):
    """The reference chain: c-bounded s-fold generator products, s = 1, 2, ...,
    formed on exponent tuples.  Each level keeps, straight from the definition,
    the products that no other product of the level divides, so the oracle
    shares no minimalization code with the chain kernel.  A proper divisor
    of u is lexicographically smaller than u, so only those are compared."""
    gens = [g for g in ideal.gens if is_bounded(g, c)]
    chain, level = [], set(gens)
    while level:
        ordered = sorted(level)
        chain.append(tuple(
            u for k, u in enumerate(ordered)
            if not any(all(map(le, v, u)) for v in ordered[:k])
        ))
        level = {q for p in level for g in gens if is_bounded(q := tuple(a + b for a, b in zip(p, g)), c)}
    return chain


def gens_of(chain):
    return [level.gens for level in chain]


def edge_bounds(rng, n, top):
    """c with one entry at ``top``, zeros, and small entries elsewhere, so that
    a product can reach a full field while the chain stays short."""
    c = [rng.choice((0, 1, 1, 2)) for _ in range(n)]
    c[rng.randrange(n)] = top
    return tuple(c)


class TestPackedChain:
    """The packed chain kernel against the tuple loop, at every field width
    up to six bits and in up to 12 variables (packed ints beyond 64 bits)."""

    TOPS = [0, 1, 2, 3, 4, 7, 8, 15, 16]

    @pytest.mark.parametrize("top", TOPS)
    def test_edge_ideals(self, top):
        rng = random.Random(100 + top)
        for _ in range(12):
            g = random_graph(rng, rng.randint(2, 12))
            c = edge_bounds(rng, g.n, top)
            assert gens_of(bounded_power_chain(g.edge_ideal(), c)) == tuple_chain(g.edge_ideal(), c)

    @pytest.mark.parametrize("top", TOPS)
    def test_ideals_of_mixed_degree(self, top):
        rng = random.Random(200 + top)
        for _ in range(12):
            n = rng.randint(1, 12)
            c = list(edge_bounds(rng, n, top))
            limit = rng.randrange(n)  # every generator uses x_limit, so delta <= c_limit
            c[limit] = max(c[limit], 1)
            gens = []
            for _ in range(rng.randint(2, 5)):
                g = [rng.randint(0, ck) if rng.random() < 0.4 else 0 for ck in c]
                g[limit] = max(g[limit], 1)
                if rng.random() < 0.2:  # a generator that c excludes
                    k = rng.randrange(n)
                    g[k] = c[k] + 1
                gens.append(tuple(g))
            c = tuple(c)
            ideal = MonomialIdeal(n, gens)
            chain = bounded_power_chain(ideal, c)
            assert gens_of(chain) == tuple_chain(ideal, c)
            for s in (1, len(chain) + 1):
                expected = chain[s - 1] if s <= len(chain) else MonomialIdeal(n, [])
                assert bounded_power(ideal, s, c) == expected

    @pytest.mark.parametrize("c1", [15, 16])
    def test_full_fields_do_not_carry(self, c1):
        # squaring x1^15*x2 puts 30 in the field of x1 and squaring x2*x3^15
        # puts 30 in the field of x3: both products must be refused, with
        # nothing carried into the neighbouring field
        ideal = MonomialIdeal(3, [(15, 1, 0), (0, 1, 15)])
        chain = bounded_power_chain(ideal, (c1, 2, 15))
        assert gens_of(chain) == [((0, 1, 15), (15, 1, 0)), ((15, 2, 15),)]

    def test_divisible_products_are_dropped(self):
        # x1^2*x2^3 = x1^2 * x2^3 is divisible by x1^2*x2^2 = (x1*x2)^2, and
        # so on at every level; each level keeps only its minimal products
        ideal = MonomialIdeal(2, [(2, 0), (1, 1), (0, 3)])
        chain = bounded_power_chain(ideal, (4, 6))
        assert gens_of(chain) == [
            ((0, 3), (1, 1), (2, 0)),
            ((0, 6), (1, 4), (2, 2), (3, 1), (4, 0)),
            ((2, 5), (3, 3), (4, 2)),
            ((3, 6), (4, 4)),
        ]
        assert gens_of(chain) == tuple_chain(ideal, (4, 6))
