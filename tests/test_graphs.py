"""Graph machinery: chordality vs brute force, graph6 codec, enumeration."""

import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from boundedpowers import (
    Graph,
    Graph6Error,
    complete_graph,
    cycle_graph,
    enumerate_labeled_graphs,
    parse_graph6,
    path_graph,
)
from boundedpowers.graphs import labeled_graph6
from conftest import matching_number


def reference_graph6(g: Graph) -> str:
    """graph6 by the letter of its definition: the vertex count, then the
    upper triangle column by column, six bits to a byte from the high bit,
    each byte plus 63."""
    n = g.n
    head = [n + 63] if n <= 62 else [126] + [(n >> shift & 63) + 63 for shift in (12, 6, 0)]
    bits = [int((i, j) in g.edges) for j in range(2, n + 1) for i in range(1, j)]
    bits += [0] * (-len(bits) % 6)
    body = [int("".join(map(str, bits[k:k + 6])), 2) + 63 for k in range(0, len(bits), 6)]
    return bytes(head + body).decode("ascii")


def brute_force_chordal(g: Graph) -> bool:
    """Exhaustive induced-cycle detection: an induced subgraph on >= 4 vertices
    that is connected and 2-regular is an induced cycle."""
    verts = list(g.vertices())
    for size in range(4, g.n + 1):
        for subset in combinations(verts, size):
            chosen = set(subset)
            degs = {v: sum(1 for u in g.adjacency[v] if u in chosen) for v in chosen}
            if any(d != 2 for d in degs.values()):
                continue
            seen = {subset[0]}
            stack = [subset[0]]
            while stack:
                v = stack.pop()
                for u in g.adjacency[v]:
                    if u in chosen and u not in seen:
                        seen.add(u)
                        stack.append(u)
            if len(seen) == size:
                return False
    return True


def brute_force_matching(g: Graph) -> int:
    edges = g.sorted_edges()
    best = 0
    for size in range(len(edges), 0, -1):
        for combo in combinations(edges, size):
            used = set()
            ok = True
            for i, j in combo:
                if i in used or j in used:
                    ok = False
                    break
                used.update((i, j))
            if ok:
                return size
    return best


def random_graph(rng: random.Random, n: int) -> Graph:
    edges = [(i, j) for i, j in combinations(range(1, n + 1), 2) if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


class TestBasics:
    def test_edge_ideal_path(self):
        assert path_graph(3).edge_ideal().gens == ((0, 1, 1), (1, 1, 0))

    def test_edge_ideal_edgeless(self):
        assert Graph(4).edge_ideal().is_zero()

    def test_edge_ideal_triangle(self):
        assert complete_graph(3).edge_ideal().gens == ((0, 1, 1), (1, 0, 1), (1, 1, 0))

    def test_no_loops(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_complement_involution(self):
        g = Graph.from_edges(5, [(1, 2), (2, 5), (3, 4)])
        assert g.complement().complement() == g

    def test_complement_complete(self):
        assert complete_graph(4).complement().edges == frozenset()

    def test_complement_p4(self):
        # direct pair enumeration: the complement of 1-2-3-4 is the path 2-4-1-3
        assert sorted(path_graph(4).complement().edges) == [(1, 3), (1, 4), (2, 4)]

    def test_neighbors(self):
        g = path_graph(4)
        assert g.adjacency[2] == (1, 3)
        assert g.adjacency[1] == (2,)


class TestChordal:
    def test_c4_not_chordal(self):
        assert not cycle_graph(4).is_chordal()

    def test_c5_not_chordal(self):
        assert not cycle_graph(5).is_chordal()

    def test_trees_chordal(self):
        assert path_graph(6).is_chordal()
        star = Graph.from_edges(5, [(1, k) for k in range(2, 6)])
        assert star.is_chordal()

    def test_complete_chordal(self):
        assert complete_graph(5).is_chordal()

    def test_chordal_plus_chord(self):
        assert Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)]).is_chordal()

    def test_agrees_with_brute_force_exhaustive(self):
        for n in range(1, 6):
            for g in enumerate_labeled_graphs(n):
                assert g.is_chordal() == brute_force_chordal(g), g.to_graph6()

    def test_agrees_with_brute_force_sampled(self):
        rng = random.Random(42)
        for n in (6, 7):
            for _ in range(300):
                g = random_graph(rng, n)
                assert g.is_chordal() == brute_force_chordal(g), g.to_graph6()


class TestMatching:
    def test_examples(self):
        assert matching_number(path_graph(4)) == 2
        assert matching_number(Graph(5)) == 0
        assert matching_number(cycle_graph(5)) == 2

    def test_agrees_with_brute_force(self):
        rng = random.Random(7)
        for n in range(2, 8):
            for _ in range(60):
                g = random_graph(rng, n)
                assert matching_number(g) == brute_force_matching(g), g.to_graph6()

    def test_deeper_than_the_recursion_limit(self):
        n = sys.getrecursionlimit() + 50
        assert matching_number(path_graph(n)) == n // 2


class TestGraph6:
    def test_known_star_line(self):
        g = parse_graph6("D?{")
        assert g.n == 5
        assert sorted(g.edges) == [(1, 5), (2, 5), (3, 5), (4, 5)]
        assert g.to_graph6() == "D?{"

    def test_header_tolerated(self):
        assert parse_graph6(">>graph6<<D?{").n == 5

    def test_round_trip_random(self):
        rng = random.Random(3)
        for n in range(1, 9):
            for _ in range(50):
                g = random_graph(rng, n)
                assert g.to_graph6() == reference_graph6(g)
                assert parse_graph6(g.to_graph6()) == g

    @pytest.mark.parametrize("n", [62, 63, 64, 100, 131])
    def test_round_trip_random_around_the_long_form(self, n):
        # from n = 63 on, the vertex count takes the 4-byte form
        rng = random.Random(n)
        for density in (0.0, 0.05, 0.5, 1.0):
            g = Graph.from_edges(n, [p for p in combinations(range(1, n + 1), 2)
                                     if rng.random() < density])
            line = g.to_graph6()
            assert line == reference_graph6(g)
            assert line.startswith("~") == (n >= 63)
            assert parse_graph6(line) == g

    def test_round_trip_long_form(self):
        g = Graph.from_edges(63, [(1, 2), (62, 63)])
        line = g.to_graph6()
        assert line.startswith("~")
        assert parse_graph6(line) == g

    def test_malformed_reports_offset(self):
        with pytest.raises(Graph6Error) as err:
            parse_graph6("D?")  # truncated payload
        assert err.value.offset >= 1
        with pytest.raises(Graph6Error):
            parse_graph6("")
        with pytest.raises(Graph6Error) as err:
            parse_graph6("B\x07")
        assert err.value.offset == 1

    @pytest.mark.parametrize("line, offset", [("Bé", 1), (">>graph6<<A\u00ff", 11), ("C~\u0100", 2)])
    def test_non_ascii_is_refused_at_its_offset(self, line, offset):
        # a non-ASCII character must not be decoded as the zero byte '?'
        with pytest.raises(Graph6Error, match="outside graph6 range") as err:
            parse_graph6(line)
        assert err.value.offset == offset

    def test_control_bytes_are_not_stripped(self):
        # str.strip() treats 0x1c-0x1f as whitespace; graph6 does not
        with pytest.raises(Graph6Error, match="outside graph6 range") as err:
            parse_graph6("\x1cA_\x1f")
        assert err.value.offset == 0

    def test_offset_counts_from_the_start_of_the_line(self):
        with pytest.raises(Graph6Error, match="byte offset 3"):
            parse_graph6("  A@")
        with pytest.raises(Graph6Error) as err:
            parse_graph6("\t>>graph6<<A\u00ff")
        assert err.value.offset == 12
        assert parse_graph6("\t A_\r\n").edges == frozenset({(1, 2)})

    def test_nonzero_padding_rejected(self):
        # n=2 uses only the first payload bit; 'O' = 63+16 sets a padding bit
        with pytest.raises(Graph6Error):
            parse_graph6("AO")
        assert parse_graph6("A?").edges == frozenset()
        assert parse_graph6("A_").edges == frozenset({(1, 2)})


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_labeled_graphs(2)) == 2
        assert sum(1 for _ in enumerate_labeled_graphs(3)) == 8
        assert sum(1 for _ in enumerate_labeled_graphs(4)) == 64

    def test_documented_order(self):
        graphs = list(enumerate_labeled_graphs(3))
        assert graphs[0].edges == frozenset()
        assert graphs[1].edges == frozenset({(1, 2)})  # bit 0 = first pair (1,2)
        assert graphs[2].edges == frozenset({(1, 3)})
        assert graphs[7].edges == frozenset({(1, 2), (1, 3), (2, 3)})

    def test_cap(self):
        with pytest.raises(ValueError):
            next(enumerate_labeled_graphs(10))

    def test_all_distinct(self):
        seen = {g.to_graph6() for g in enumerate_labeled_graphs(4)}
        assert len(seen) == 64

    @pytest.mark.parametrize("n", range(1, 7))
    def test_lines_written_from_masks(self, n):
        graphs = list(enumerate_labeled_graphs(n))
        lines = labeled_graph6(n)
        assert lines == [g.to_graph6() for g in graphs]
        assert [parse_graph6(line) for line in lines] == graphs



@settings(max_examples=80, deadline=None)
@given(st.integers(1, 7), st.integers(0, 10**6))
def test_graph6_round_trip_property(n, seed):
    g = random_graph(random.Random(seed), n)
    assert parse_graph6(g.to_graph6()) == g


def test_json_round_trip():
    g = Graph.from_edges(4, [(2, 1), (3, 4)])
    assert Graph.from_json(g.to_json()) == g


@pytest.mark.parametrize("text", [
    '{"n": true, "edges": []}',
    '{"n": 2, "edges": [[true, 2]]}',
])
def test_json_booleans_are_not_integers(text):
    with pytest.raises(ValueError, match="must look like"):
        Graph.from_json(text)
