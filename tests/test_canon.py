"""Canonical forms of vertex-coloured graphs against brute force and counts."""

import random
from itertools import combinations, permutations

import pytest

from boundedpowers import Graph, cycle_graph, enumerate_labeled_graphs
from boundedpowers import canon
from boundedpowers.canon import canonical_form, labeled_classes


def brute_force_form(graph, colours):
    """The least (colours, sorted edges) over all n! relabelings."""
    n = graph.n
    best = None
    for perm in permutations(range(1, n + 1)):
        relabeled = [None] * n
        for v in range(n):
            relabeled[perm[v] - 1] = colours[v]
        edges = sorted(tuple(sorted((perm[i - 1], perm[j - 1]))) for i, j in graph.edges)
        key = (tuple(relabeled), tuple(edges))
        if best is None or key < best:
            best = key
    return best


def relabel(graph, colours, perm):
    """The image of (graph, colours) under vertex v -> perm[v - 1]."""
    moved = [None] * graph.n
    for v in range(graph.n):
        moved[perm[v] - 1] = colours[v]
    edges = [(perm[i - 1], perm[j - 1]) for i, j in graph.edges]
    return Graph.from_edges(graph.n, edges), tuple(moved)


def partition(keys):
    blocks = {}
    for index, key in enumerate(keys):
        blocks.setdefault(key, []).append(index)
    return sorted(blocks.values())


class TestCanonicalForm:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_partitions_like_brute_force(self, n):
        # seeded graphs with non-constant colours, each next to a relabeled
        # copy, so that every class the forms find has to be a real one
        rng = random.Random(100 + n)
        graphs = list(enumerate_labeled_graphs(n))
        items = []
        for graph in rng.sample(graphs, min(len(graphs), 150)):
            colours = tuple(rng.randint(0, 2) for _ in range(n))
            perm = rng.sample(range(1, n + 1), n)
            items += [(graph, colours), relabel(graph, colours, perm)]
        forms = [canonical_form(g, c) for g, c in items]
        assert None not in forms
        assert partition(forms) == partition([brute_force_form(g, c) for g, c in items])

    def test_class_counts_match_oeis_a000088(self):
        counts = [len({canonical_form(g, (1,) * n) for g in enumerate_labeled_graphs(n)})
                  for n in range(1, 7)]
        assert counts == [1, 2, 4, 11, 34, 156]

    def test_atlas_graphs_are_distinct_and_relabeling_invariant(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(7)
        forms = set()
        atlas = [g for g in nx.graph_atlas_g() if g.number_of_nodes()]
        for nxg in atlas:
            n = nxg.number_of_nodes()
            graph = Graph.from_edges(n, [(i + 1, j + 1) for i, j in nxg.edges()])
            form = canonical_form(graph, (0,) * n)
            forms.add(form)
            colours = tuple(rng.randint(0, 1) for _ in range(n))
            moved = relabel(graph, colours, rng.sample(range(1, n + 1), n))
            assert canonical_form(*moved) == canonical_form(graph, colours)
        assert len(forms) == len(atlas) == 1252

    def test_colours_separate_isomorphic_graphs(self):
        path = Graph.from_edges(3, [(1, 2), (2, 3)])
        assert canonical_form(path, (1, 2, 1)) != canonical_form(path, (2, 1, 1))
        assert canonical_form(path, (2, 1, 1)) == canonical_form(path, (1, 1, 2))

    def test_colour_count_must_match(self):
        with pytest.raises(ValueError, match="2 colours for a graph on 3 vertices"):
            canonical_form(cycle_graph(3), (1, 1))

    def test_over_budget_gives_no_form(self, monkeypatch):
        # C5 needs one leaf per automorphism (10); twins cost a single leaf
        c5, empty = cycle_graph(5), Graph(5)
        assert canonical_form(c5, (1,) * 5) is not None
        monkeypatch.setattr(canon, "LEAF_BUDGET", 9)
        assert canonical_form(c5, (1,) * 5) is None
        monkeypatch.setattr(canon, "LEAF_BUDGET", 1)
        assert canonical_form(empty, (1,) * 5) is not None


def least_relabeled_mask(mask, n):
    """The least mask over all relabelings of graph ``mask`` of
    ``enumerate_labeled_graphs(n)``, by relabeling its edge set."""
    pairs = list(combinations(range(n), 2))
    edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
    return min(sum(1 << pairs.index(tuple(sorted((p[i], p[j])))) for i, j in edges)
               for p in permutations(range(n)))


class TestLabeledClasses:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_partitions_like_canonical_form(self, n):
        forms = [canonical_form(g, (1,) * n) for g in enumerate_labeled_graphs(n)]
        assert None not in forms
        assert partition(labeled_classes(n)) == partition(forms)

    def test_class_counts_match_oeis_a000088(self):
        counts = [len(set(labeled_classes(n))) for n in range(1, 7)]
        assert counts == [1, 2, 4, 11, 34, 156]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_each_key_is_the_least_mask_of_its_class(self, n):
        keys = labeled_classes(n)
        assert len(keys) == 2 ** (n * (n - 1) // 2)
        rng = random.Random(n)
        for mask in rng.sample(range(len(keys)), min(len(keys), 200)):
            assert keys[mask] == least_relabeled_mask(mask, n)
