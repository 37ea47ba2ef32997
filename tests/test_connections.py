"""Even-connections and colon structure of consecutive bounded powers."""

import random
import sys
import time
from collections import Counter
from types import SimpleNamespace
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from boundedpowers import (
    Graph,
    MonomialIdeal,
    SearchCapExceeded,
    bounded_power,
    bounded_power_chain,
    colon_quadrics,
    complete_graph,
    cycle_graph,
    degree,
    edge_factorization,
    even_connected_targets,
    find_even_connection,
    has_colon_splitting_order,
    is_bounded,
    path_graph,
)
from boundedpowers import linquot
from boundedpowers.connections import _edge_counts, _even_walks
from boundedpowers.linquot import _lq_pair_data
from boundedpowers.graphs import normalize_edge
from conftest import colon_mono, is_valid_even_connection


def random_graph(rng, n):
    edges = [(i, j) for i, j in combinations(range(1, n + 1), 2) if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


def random_edge_multiset(rng, g, size):
    edges = g.sorted_edges()
    return [edges[rng.randrange(len(edges))] for _ in range(size)] if edges else []


class TestFindEvenConnection:
    def test_path_endpoints(self):
        conn = find_even_connection(path_graph(4), [(2, 3)], 1, 4)
        assert conn == (1, 2, 3, 4)
        assert is_valid_even_connection(path_graph(4), [(2, 3)], 1, 4, conn)

    def test_empty_multiset(self):
        assert find_even_connection(path_graph(4), [], 1, 4) is None

    def test_adjacent_without_usable_interior(self):
        assert find_even_connection(path_graph(4), [(3, 4)], 1, 2) is None

    def test_self_connection(self):
        # 1,2,1,2: the interior pair is the queried edge itself
        conn = find_even_connection(complete_graph(2), [(1, 2)], 1, 2)
        assert conn == (1, 2, 1, 2)
        # in K2 odd positions always sit at the other endpoint: no loop at 1
        assert find_even_connection(complete_graph(2), [(1, 2)], 1, 1) is None
        # the triangle walk 1,2,3,1 realizes x1^2 in the colon
        loop = find_even_connection(complete_graph(3), [(2, 3)], 1, 1)
        assert loop == (1, 2, 3, 1)
        assert is_valid_even_connection(complete_graph(3), [(2, 3)], 1, 1, loop)

    def test_multiplicity_capacity(self):
        # walking 1..6 needs the interior edges (2,3) and (4,5); one copy of
        # (2,3) cannot serve twice
        g = path_graph(6)
        assert find_even_connection(g, [(2, 3), (4, 5)], 1, 6) is not None
        assert find_even_connection(g, [(2, 3)], 1, 6) is None
        assert find_even_connection(g, [(2, 3), (2, 3)], 1, 6) is None

    def test_witness_checker_counts_copies(self):
        k2 = complete_graph(2)
        walk = (1, 2, 1, 2, 1, 2)  # takes (1, 2) at both interior pairs
        assert not is_valid_even_connection(k2, [(1, 2)], 1, 2, walk)
        assert is_valid_even_connection(k2, [(2, 1), (1, 2)], 1, 2, walk)
        assert not is_valid_even_connection(k2, [(1, 2)], 1, 2, (1, 2))
        assert not is_valid_even_connection(path_graph(3), [(1, 2)], 1, 2, (1, 2, 1, 2, 3, 2))

    def test_unknown_vertex(self):
        with pytest.raises(ValueError):
            find_even_connection(path_graph(3), [(1, 2)], 1, 9)
        with pytest.raises(ValueError, match="not one of the graph edges"):
            find_even_connection(path_graph(3), [(1, 3)], 1, 2)
        with pytest.raises(ValueError):
            even_connected_targets(path_graph(3), [(1, 2)], 9)
        with pytest.raises(ValueError):
            even_connected_targets(path_graph(3), [], 0)

    def test_symmetry_and_witness_validity(self):
        rng = random.Random(53)
        for _ in range(150):
            g = random_graph(rng, rng.randint(2, 6))
            if not g.edges:
                continue
            edges = random_edge_multiset(rng, g, rng.randint(1, 3))
            a = rng.randint(1, g.n)
            b = rng.randint(1, g.n)
            forward = find_even_connection(g, edges, a, b)
            backward = find_even_connection(g, edges, b, a)
            assert (forward is None) == (backward is None)
            for conn, (x, y) in ((forward, (a, b)), (backward, (b, a))):
                if conn is not None:
                    assert is_valid_even_connection(g, edges, x, y, conn)

    def test_targets_match_pairwise_queries(self):
        rng = random.Random(59)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 5))
            if not g.edges:
                continue
            edges = random_edge_multiset(rng, g, rng.randint(1, 2))
            for a in g.vertices():
                targets = even_connected_targets(g, edges, a)
                for b in g.vertices():
                    assert (b in targets) == (
                        find_even_connection(g, edges, a, b) is not None
                    )


def enumerate_walks(g, edges, a):
    """Every walk from a that steps along a graph edge from each even position
    and along an unused copy of the multiset from each odd one, with every edge
    at its full multiplicity.  Each take uses up a copy, so a walk has at most
    2 * len(edges) + 1 steps and the enumeration is finite."""
    stack = [((a,), Counter(normalize_edge(*e) for e in edges))]
    while stack:
        path, left = stack.pop()
        yield path
        v = path[-1]
        if len(path) % 2:
            stack += [(path + (w,), left) for w in g.adjacency[v]]
        else:
            stack += [(path + (e[0] + e[1] - v,), left - Counter([e]))
                      for e in left if v in e]


def assert_agrees_with_walks(g, edges):
    """Targets and shortest witnesses of every vertex against the full walk
    enumeration; returns how many (a, b) pairs are connected only by walks
    that take some edge twice."""
    twice = 0
    for a in g.vertices():
        shortest, once = {}, set()
        for path in enumerate_walks(g, edges, a):
            if len(path) >= 4 and len(path) % 2 == 0:
                shortest[path[-1]] = min(shortest.get(path[-1], len(path)), len(path))
                taken = Counter(normalize_edge(*path[k:k + 2]) for k in range(1, len(path) - 1, 2))
                if max(taken.values()) == 1:
                    once.add(path[-1])
        twice += len(set(shortest) - once)
        assert even_connected_targets(g, edges, a) == set(shortest)
        for b in g.vertices():
            conn = find_even_connection(g, edges, a, b)
            assert (conn is None) == (b not in shortest)
            if conn is not None:
                assert is_valid_even_connection(g, edges, a, b, conn)
                assert len(conn) == shortest[b]
    return twice


class TestTwoUseCap:
    def test_agrees_with_walk_enumeration(self):
        rng = random.Random(97)
        heavy = 0
        for _ in range(200):
            g = random_graph(rng, rng.randint(2, 5))
            if not g.edges:
                continue
            # a pool of at most three distinct edges, so multiplicities of 3+ occur
            pool = rng.sample(g.sorted_edges(), min(len(g.edges), rng.randint(1, 3)))
            edges = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
            heavy += max(Counter(edges).values()) >= 3
            assert_agrees_with_walks(g, edges)
        assert heavy >= 30

    def test_pendant_path_into_odd_cycle(self):
        # a walk from the pendant path back to it must take the pendant edge
        # into the cycle out and back, with the odd cycle flipping the parity
        # in between, so every instance needs an edge's second use
        rng = random.Random(101)
        for _ in range(60):
            length, cycle = rng.randint(2, 3), rng.choice((3, 5))
            n = length + cycle
            label = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
            path = [(k, k + 1) for k in range(1, length + 1)]
            ring = [(length + 1 + k, length + 1 + (k + 1) % cycle) for k in range(cycle)]
            g = Graph.from_edges(n, [(label[i], label[j]) for i, j in path + ring])
            # the edge into the cycle, repeated, and the edges that match the
            # rest of the cycle, which let a walk round it flip parity
            multiset = [path[-1]] * rng.randint(2, 3) + ring[1::2]
            if rng.random() < 0.5:
                multiset.append(rng.choice(ring + path[:-1]))
            assert assert_agrees_with_walks(g, [(label[i], label[j]) for i, j in multiset]) >= 1

    def test_edge_taken_in_both_directions(self):
        # the only walk from 1 back to 1 takes (2, 3) out and back, with the
        # triangle 3, 4, 5 flipping the parity in between: one use is not enough
        g = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
        conn = find_even_connection(g, [(2, 3)] * 3 + [(4, 5)], 1, 1)
        assert conn == (1, 2, 3, 4, 5, 3, 2, 1)
        assert find_even_connection(g, [(2, 3), (4, 5)], 1, 1) is None

    def test_states_do_not_grow_with_multiplicity(self):
        k2 = complete_graph(2)
        two, many = (_even_walks(k2, _edge_counts(k2, [(1, 2)] * m), 1) for m in (2, 1000))
        assert two == many
        assert two[2] == 2 and len(two[0]) + len(two[1]) == 6


class TestEvenWalkStates:
    """``_even_walks`` keys a state as (uses left, vertex), with the uses
    left of the t-th distinct edge in base-3 digit t, and keeps one parent
    map per parity in breadth-first discovery order."""

    def test_encoding_and_discovery_order(self):
        # P3 with (1, 2) once and (2, 3) three times: uses left 1 + 2 * 3 = 7
        g = path_graph(3)
        even, odd, full = _even_walks(g, _edge_counts(g, [(1, 2)] + [(2, 3)] * 3), 1)
        assert full == 7
        assert list(even.items()) == [
            ((7, 1), None), ((6, 1), (7, 2)), ((4, 3), (7, 2)), ((3, 3), (6, 2)),
            ((3, 1), (4, 2)), ((1, 3), (4, 2)), ((0, 3), (3, 2)), ((0, 1), (1, 2))]
        assert list(odd.items()) == [
            ((7, 2), (7, 1)), ((6, 2), (6, 1)), ((4, 2), (4, 3)), ((3, 2), (3, 3)),
            ((1, 2), (1, 3)), ((0, 2), (0, 3))]

    def test_parent_maps_equal_a_tuple_queue_search(self):
        # the same search over (uses-left tuple, vertex, parity) states with
        # one FIFO queue: the same states and parents, in the same order
        rng = random.Random(131)
        for _ in range(150):
            g = random_graph(rng, rng.randint(2, 5))
            if not g.edges:
                continue
            counts = _edge_counts(g, random_edge_multiset(rng, g, rng.randint(1, 5)))
            distinct = list(counts)
            a = rng.randint(1, g.n)
            start = (tuple(min(m, 2) for m in counts.values()), a, 0)
            parents, queue = {start: None}, [start]
            for state in queue:
                left, v, parity = state
                if parity:
                    steps = [(left[:t] + (left[t] - 1,) + left[t + 1:], e[0] + e[1] - v, 0)
                             for t, e in enumerate(distinct) if left[t] and v in e]
                else:
                    steps = [(left, w, 1) for w in g.adjacency[v]]
                for step in steps:
                    if step not in parents:
                        parents[step] = state
                        queue.append(step)
            code = lambda state: (sum(k * 3**t for t, k in enumerate(state[0])), state[1])
            expected = [[(code(state), parent and code(parent))
                         for state, parent in parents.items() if state[2] == parity]
                        for parity in (0, 1)]
            even, odd, full = _even_walks(g, counts, a)
            assert (full, a) == code(start)
            assert [list(even.items()), list(odd.items())] == expected

    def test_targets_and_witnesses_agree_with_walk_enumeration(self):
        rng = random.Random(137)
        for _ in range(120):
            g = random_graph(rng, rng.randint(2, 5))
            if g.edges:
                assert_agrees_with_walks(g, random_edge_multiset(rng, g, rng.randint(1, 4)))


def first_multiset(g, u):
    """The first multiset of deg(u) / 2 sorted edges, in lexicographic order,
    whose product is u, as a multiplicity map; None if there is none."""
    if sum(u) % 2:
        return None
    for multiset in combinations_with_replacement(g.sorted_edges(), sum(u) // 2):
        if all(sum(v in e for e in multiset) == a for v, a in enumerate(u, 1)):
            return dict(Counter(multiset))
    return None


class TestEdgeFactorization:
    def test_lexicographically_smallest(self):
        g = cycle_graph(4)
        u = (1, 1, 1, 1)
        assert edge_factorization(g, u) == {(1, 2): 1, (3, 4): 1}

    def test_repeated_edge(self):
        g = complete_graph(2)
        assert edge_factorization(g, (2, 2)) == {(1, 2): 2}

    def test_no_factorization(self):
        assert edge_factorization(path_graph(3), (1, 0, 1)) is None

    def test_odd_degree_has_none(self):
        assert edge_factorization(complete_graph(3), (1, 1, 1)) is None
        assert edge_factorization(complete_graph(2), (3, 2)) is None
        # the empty product
        assert edge_factorization(complete_graph(2), (0, 0)) == {}

    def test_first_multiset_in_lexicographic_order(self):
        rng = random.Random(23)
        for _ in range(200):
            g = random_graph(rng, rng.randint(2, 5))
            u = tuple(rng.randint(0, 2) for _ in range(g.n))
            result = edge_factorization(g, u)
            assert result == first_multiset(g, u)
            if result is not None:
                assert list(result) == sorted(result)

    def test_degree_sum_right_but_no_factorization(self):
        # the last edge at each vertex must use up what is left there, so the
        # search does not backtrack through the multiplicities
        k = 10**4
        assert edge_factorization(path_graph(4), (k, k, k + 1, k - 1)) is None
        assert edge_factorization(path_graph(4), (k + 1, k, k + 1, k)) is None
        assert edge_factorization(path_graph(4), (k - 1, k, k + 1, k)) == {
            (1, 2): k - 1, (2, 3): 1, (3, 4): k}

    def test_vertex_on_no_edge(self):
        g = Graph.from_edges(3, [(1, 2)])
        assert edge_factorization(g, (1, 1, 2)) is None
        assert edge_factorization(g, (1, 1, 0)) == {(1, 2): 1}

    def test_first_multiset_when_degrees_sum_to_2s(self):
        # u built from a random multiset, then perturbed within the degree sum
        rng = random.Random(29)
        for _ in range(300):
            g = random_graph(rng, rng.randint(2, 5))
            s = rng.randint(1, 4)
            u = [0] * g.n
            for i, j in random_edge_multiset(rng, g, s):
                u[i - 1] += 1
                u[j - 1] += 1
            v, w = rng.sample(range(g.n), 2)
            if u[v] and rng.random() < 0.5:
                u[v], u[w] = u[v] - 1, u[w] + 1
            assert edge_factorization(g, tuple(u)) == first_multiset(g, u)

    def test_a_vertex_heavier_than_its_neighbours_has_none(self):
        # every copy of an edge at v takes a unit at a neighbour of v, so
        # u_v > the sum over the neighbours ends the search before it starts
        for u in [(20, 20, 20, 20, 82), (30, 30, 30, 30, 122)]:
            start = time.perf_counter()
            assert edge_factorization(complete_graph(5), u) is None
            assert time.perf_counter() - start < 0.01
        rng = random.Random(139)
        heavy = 0
        for _ in range(300):
            g = random_graph(rng, rng.randint(2, 4))
            u = tuple(rng.randint(0, 3) for _ in range(g.n))
            heavy += sum(u) % 2 == 0 and any(
                a > sum(u[w - 1] for w in g.adjacency[v]) for v, a in enumerate(u, 1))
            assert edge_factorization(g, u) == first_multiset(g, u), (g, u)
        assert heavy >= 30

    def test_independent_of_s(self):
        assert edge_factorization(complete_graph(2), (10**9, 10**9)) == {(1, 2): 10**9}
        # an even degree is not enough
        assert edge_factorization(complete_graph(2), (10**9, 10**9 + 2)) is None

    def test_deeper_than_the_recursion_limit(self):
        depth = sys.getrecursionlimit() + 100
        assert edge_factorization(complete_graph(2), (depth, depth)) == {(1, 2): depth}
        u = (depth, 2 * depth, depth)
        assert edge_factorization(path_graph(3), u) == {(1, 2): depth, (2, 3): depth}
        assert edge_factorization(path_graph(3), (depth, 2 * depth, depth + 2)) is None


def quadrics_by_witness(g, c, u, witness):
    """The quadric description rebuilt on a given edge multiset ``witness`` of
    u: x_i*x_j (i = j allowed) with u*x_i*x_j c-bounded and i, j adjacent or
    even-connected with respect to ``witness``."""
    quadrics = []
    for i in g.vertices():
        targets = even_connected_targets(g, witness, i)
        for j in range(i, g.n + 1):
            q = [0] * g.n
            q[i - 1] += 1
            q[j - 1] += 1
            bounded = is_bounded(tuple(a + b for a, b in zip(u, q)), c)
            if bounded and (i != j and g.has_edge(i, j) or j in targets):
                quadrics.append(tuple(q))
    return MonomialIdeal(g.n, quadrics)


class TestColonQuadrics:
    def test_path_instance(self):
        result = colon_quadrics(path_graph(4), (1, 1, 1, 1), (0, 1, 1, 0))
        assert result.gens == ((1, 0, 0, 1),)

    def test_triangle_top_degenerates_to_zero(self):
        assert colon_quadrics(complete_graph(3), (1, 1, 1), (1, 1, 0)).is_zero()

    def test_rejects_s_below_one(self):
        # u = 1 would be the generator of the 0th power
        with pytest.raises(ValueError, match="u must have positive degree"):
            colon_quadrics(path_graph(4), (1, 1, 1, 1), (0, 0, 0, 0))

    def test_rejects_non_generator(self):
        # an odd degree, and an even one that is no product of edges
        with pytest.raises(ValueError, match="minimal generator"):
            colon_quadrics(complete_graph(2), (2, 2), (2, 1))
        with pytest.raises(ValueError, match="minimal generator"):
            colon_quadrics(path_graph(4), (1, 1, 1, 1), (1, 0, 1, 0))

    def test_equals_direct_colon_randomized(self):
        rng = random.Random(61)
        checked = 0
        while checked < 40:
            g = random_graph(rng, rng.randint(3, 5))
            c = tuple(rng.randint(1, 2) for _ in range(g.n))
            chain = bounded_power_chain(g.edge_ideal(), c)
            if len(chain) < 2:
                continue
            s = rng.randint(1, len(chain) - 1)
            for u in chain[s - 1].gens:
                assert colon_quadrics(g, c, u) == chain[s].colon(u)
            checked += 1
        # bounds up to 4, where the factorization of u can repeat an edge 3+ times
        heavy = 0
        while heavy < 40:
            g = random_graph(rng, rng.randint(2, 5))
            c = tuple(rng.randint(1, 4) for _ in range(g.n))
            chain = bounded_power_chain(g.edge_ideal(), c)
            if len(chain) < 2:
                continue
            s = rng.randint(1, len(chain) - 1)
            for u in chain[s - 1].gens:
                assert colon_quadrics(g, c, u) == chain[s].colon(u)
                heavy += max(edge_factorization(g, u).values()) >= 3

    def test_independent_of_s(self):
        s = 10**6
        result = colon_quadrics(complete_graph(2), (s + 1,) * 2, (s,) * 2)
        assert result == MonomialIdeal(2, [(1, 1)])

    def test_factorization_independence(self):
        g = cycle_graph(4)
        c = (1, 1, 1, 1)
        u = (1, 1, 1, 1)
        chain = bounded_power_chain(g.edge_ideal(), c)
        assert len(chain) == 2  # u generates the top power; colon is vacuous there
        c = (2, 2, 2, 2)
        first = quadrics_by_witness(g, c, u, [(1, 2), (3, 4)])
        second = quadrics_by_witness(g, c, u, [(1, 4), (2, 3)])
        assert first == second
        assert first == bounded_power(g.edge_ideal(), 3, c).colon(u)
        assert colon_quadrics(g, c, u) == first

    def test_independence_over_all_factorizations(self):
        def all_factorizations(g, s, u):
            edges = g.sorted_edges()

            def extend(start, remaining, depth):
                if depth == 0:
                    if not any(remaining):
                        yield ()
                    return
                for k in range(start, len(edges)):
                    i, j = edges[k]
                    if remaining[i - 1] > 0 and remaining[j - 1] > 0:
                        remaining[i - 1] -= 1
                        remaining[j - 1] -= 1
                        for tail in extend(k, remaining, depth - 1):
                            yield (edges[k],) + tail
                        remaining[i - 1] += 1
                        remaining[j - 1] += 1

            return list(extend(0, list(u), s))

        rng = random.Random(79)
        multi_seen = 0
        while multi_seen < 10:
            g = random_graph(rng, rng.randint(3, 5))
            c = tuple(rng.randint(1, 2) for _ in range(g.n))
            chain = bounded_power_chain(g.edge_ideal(), c)
            if len(chain) < 2:
                continue
            s = rng.randint(1, len(chain) - 1)
            for u in chain[s - 1].gens:
                factorizations = all_factorizations(g, s, u)
                if len(factorizations) < 2:
                    continue
                expected = chain[s].colon(u)
                for fact in factorizations:
                    assert quadrics_by_witness(g, c, u, fact) == expected
                assert colon_quadrics(g, c, u) == expected
                multi_seen += 1

    def test_rejects_generator_above_bound(self):
        # (1,1,1,1) = x1x2 * x3x4 is a product of two edges of C4, but not 1-bounded
        with pytest.raises(ValueError, match="minimal generator"):
            colon_quadrics(cycle_graph(4), (1, 1, 0, 1), (1, 1, 1, 1))


class TestDegreeTwo:
    """(chain[s] : u) is generated in degree two for every generator u of chain[s - 1]."""

    def test_path_instance(self):
        chain = bounded_power_chain(path_graph(4).edge_ideal(), (1, 1, 1, 1))
        assert all(degree(w) == 2 for u in chain[0].gens for w in chain[1].colon(u).gens)

    def test_randomized(self):
        rng = random.Random(67)
        checked = 0
        while checked < 30:
            g = random_graph(rng, rng.randint(3, 5))
            c = tuple(rng.randint(1, 2) for _ in range(g.n))
            chain = bounded_power_chain(g.edge_ideal(), c)
            if len(chain) < 2:
                continue
            for s in range(1, len(chain)):
                for u in chain[s - 1].gens:
                    assert all(degree(w) == 2 for w in chain[s].colon(u).gens), (g.edges, c, u)
            checked += 1


def brute_force_splitting_labeling(gens, colon_ideals) -> bool:
    """Permutations oracle: check the pairwise condition on every labeling."""

    def pair_ok(order, pos):
        i = order[pos]
        for j in order[:pos]:
            w = colon_mono(gens[j], gens[i])
            # membership spelled out, so the oracle shares no code with the library
            if any(all(a <= b for a, b in zip(g, w)) for g in colon_ideals[i].gens):
                continue
            if any(
                degree(colon_mono(gens[r], gens[i])) == 1
                and all(
                    a >= b
                    for a, b in zip(w, colon_mono(gens[r], gens[i]))
                )
                for r in order[:pos]
            ):
                continue
            return False
        return True

    m = len(gens)
    return any(
        all(pair_ok(order, pos) for pos in range(m)) for order in permutations(range(m))
    )


class TestSplittingOrder:
    def test_single_generator(self):
        chain = bounded_power_chain(complete_graph(2).edge_ideal(), (2, 2))
        assert has_colon_splitting_order(chain[0], chain[1])

    def test_cap_refusal(self):
        chain = bounded_power_chain(complete_graph(5).edge_ideal(), (2,) * 5)
        with pytest.raises(SearchCapExceeded) as exc:
            has_colon_splitting_order(chain[0], chain[1], max_generators=3)
        assert str(exc.value) == "labeling search refused: 10 generators > cap 3"

    def test_agrees_with_permutation_oracle(self):
        rng = random.Random(71)
        checked = 0
        while checked < 25:
            g = random_graph(rng, rng.randint(3, 5))
            c = tuple(rng.randint(1, 2) for _ in range(g.n))
            chain = bounded_power_chain(g.edge_ideal(), c)
            if len(chain) < 2 or len(chain[0].gens) > 6:
                continue
            s = 1
            gens = chain[s - 1].gens
            colon_ideals = [chain[s].colon(u) for u in gens]
            expected = brute_force_splitting_labeling(gens, colon_ideals)
            assert has_colon_splitting_order(chain[s - 1], chain[s]) == expected
            checked += 1

    def test_randomized_always_exists(self):
        rng = random.Random(73)
        checked = 0
        while checked < 30:
            g = random_graph(rng, rng.randint(3, 5))
            c = tuple(rng.randint(1, 2) for _ in range(g.n))
            chain = bounded_power_chain(g.edge_ideal(), c)
            if len(chain) < 2:
                continue
            for s in range(1, len(chain)):
                try:
                    assert has_colon_splitting_order(chain[s - 1], chain[s], max_generators=12)
                except SearchCapExceeded:
                    pass
            checked += 1


def splitting_needs(monkeypatch, power, nxt):
    """The need masks that ``has_colon_splitting_order`` hands to the search."""
    seen = []
    with monkeypatch.context() as patch:
        patch.setattr(linquot, "search_ordering", lambda needs, var_bits: seen.append(needs))
        has_colon_splitting_order(power, nxt, max_generators=len(power.gens))
    return seen[0]


class TestSplittingTable:
    """The met-in-advance table against its definition: pair (j, i) is met iff
    u_j : u_i lies in (nxt : u_i), with membership spelled out; an unmet pair
    keeps its support mask."""

    def check_chains(self, monkeypatch, chains):
        met = unmet = wide = 0
        for chain in chains:
            for power, nxt in zip(chain, chain[1:]):
                gens = power.gens
                supp, _ = _lq_pair_data(power)
                needs = splitting_needs(monkeypatch, power, nxt)
                wide += max(map(max, nxt.gens)) > max(map(max, gens)) + 1
                for i, u in enumerate(gens):
                    colon = nxt.colon(u).gens
                    for j, v in enumerate(gens):
                        if j == i:
                            continue
                        w = colon_mono(v, u)
                        if any(all(a <= b for a, b in zip(g, w)) for g in colon):
                            assert needs[j][i] == 0, (power, nxt, j, i)
                            met += 1
                        else:
                            assert needs[j][i] == supp[j][i] != 0, (power, nxt, j, i)
                            unmet += 1
        assert met and unmet
        return wide

    def test_edge_ideal_chains(self, monkeypatch):
        rng = random.Random(211)
        chains = []
        while len(chains) < 40:
            g = random_graph(rng, rng.randint(3, 6))
            chain = bounded_power_chain(g.edge_ideal(), tuple(rng.randint(1, 3) for _ in range(g.n)))
            if len(chain) >= 2 and len(chain[0].gens) <= 30:
                chains.append(chain[:3])
        self.check_chains(monkeypatch, chains)

    def test_general_monomial_chains(self, monkeypatch):
        # generator exponents up to 3 and bounds up to 5, so that nxt's top
        # exponent can exceed power's top + 1
        rng = random.Random(223)
        chains = []
        while len(chains) < 60:
            n = rng.randint(1, 4)
            gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 5))]
            ideal = MonomialIdeal(n, [g for g in gens if any(g)])
            if ideal.is_zero():
                continue
            chain = bounded_power_chain(ideal, tuple(rng.randint(1, 5) for _ in range(n)))
            if len(chain) >= 2 and len(chain[0].gens) >= 2:
                chains.append(chain[:4])
        assert self.check_chains(monkeypatch, chains)


def met_by_definition(power, nxt):
    """The pairs (j, i), j != i, with u_j : u_i in (nxt : u_i), where nxt : u_i
    is generated by the ``colon_mono`` of each generator of nxt by u_i and
    membership is spelled out."""
    met = set()
    for i, u in enumerate(power.gens):
        colon = [colon_mono(g, u) for g in nxt.gens]
        for j, v in enumerate(power.gens):
            w = colon_mono(v, u)
            if j != i and any(all(a <= b for a, b in zip(g, w)) for g in colon):
                met.add((j, i))
    return met


class TestPackedPairs:
    """``has_colon_splitting_order`` meets a pair when a packed generator of
    nxt divides the packed join of the two generators, on nxt's packing with
    power's exponents clamped to its capacity.  The table it hands to the
    search, and on few generators its answer, against the definition."""

    @staticmethod
    def check(monkeypatch, power, nxt):
        """The number of met pairs, after checking the table and the answer."""
        needs = splitting_needs(monkeypatch, power, nxt)
        supp, _ = _lq_pair_data(power)
        met = met_by_definition(power, nxt)
        m = len(power.gens)
        for i, j in permutations(range(m), 2):
            expected = 0 if (j, i) in met else supp[j][i]
            assert needs[j][i] == expected, (power, nxt, j, i)
        if m <= 5:
            colons = [SimpleNamespace(gens=[colon_mono(g, u) for g in nxt.gens])
                      for u in power.gens]
            expected = brute_force_splitting_labeling(power.gens, colons)
            assert has_colon_splitting_order(power, nxt) == expected, (power, nxt)
        return len(met), m * (m - 1) - len(met)

    @pytest.mark.parametrize("top", [1, 3, 7])
    def test_chain_levels_match_definition(self, monkeypatch, top):
        # a chain's levels share one packing made for max(c); at max(c) of 1,
        # 3 or 7 that packing is one bit wider than for max(c) - 1.  Exponents
        # up to (top + 1) / 2 leave room for a second level that reaches top.
        rng = random.Random(227 + top)
        met = unmet = checked = 0
        for _ in range(300):  # a fixed number of draws, so a broken chain fails, not hangs
            n = rng.randint(2, 4)
            if top == 1:
                ideal = random_graph(rng, n).edge_ideal()
            else:
                ideal = MonomialIdeal(n, [tuple(rng.randint(0, (top + 1) // 2) for _ in range(n))
                                          for _ in range(rng.randint(1, 4))])
            if ideal.is_zero() or ideal.is_unit():
                continue
            c = [rng.randint(1, top) for _ in range(n)]
            c[rng.randrange(n)] = top
            chain = bounded_power_chain(ideal, tuple(c))
            for power, nxt in zip(chain, chain[1:3]):
                if 2 <= len(power.gens) <= 30:
                    assert power._packed[0] is nxt._packed[0]
                    found = self.check(monkeypatch, power, nxt)
                    met, unmet, checked = met + found[0], unmet + found[1], checked + 1
        assert checked >= 30 and met and unmet, (checked, met, unmet)

    def test_independent_packings(self, monkeypatch):
        # power is built on its own, wider packing, with exponents at, just
        # above and far above the field capacity of nxt's packing
        rng = random.Random(239)
        met = unmet = wider = 0
        for _ in range(150):
            n = rng.randint(1, 4)
            top = rng.choice((1, 2, 3))
            nxt = MonomialIdeal(n, [tuple(rng.randint(0, top) for _ in range(n))
                                    for _ in range(rng.randint(0, 4))])
            cap = nxt._packed[0].cap
            values = (0, 0, 1, cap - 1, cap, cap + 1, 2 * cap + 1, 40)
            power = MonomialIdeal(n, [tuple(rng.choice(values) for _ in range(n))
                                      for _ in range(rng.randint(2, 6))])
            wider += power._packed[0].width > nxt._packed[0].width
            found = self.check(monkeypatch, power, nxt)
            met, unmet = met + found[0], unmet + found[1]
        assert met and unmet and wider > 100

    def test_ambient_mismatch(self):
        # refused before any pair is formed, so also with one generator
        for power in (MonomialIdeal(2, [(1, 0), (0, 1)]), MonomialIdeal(2, [(1, 1)])):
            with pytest.raises(ValueError, match="ambient mismatch"):
                has_colon_splitting_order(power, MonomialIdeal(3, [(1, 1, 0)]))
            with pytest.raises(ValueError, match="ambient mismatch"):
                has_colon_splitting_order(power, MonomialIdeal(1, []))
