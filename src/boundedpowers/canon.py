"""Canonical forms of vertex-coloured graphs, by individualization-refinement.

Two vertex-coloured graphs get equal forms iff a bijection of their vertices
carries edges onto edges and each vertex onto one of the same colour (McKay,
*Practical graph isomorphism*, 1981; McKay & Piperno, *Practical graph
isomorphism, II*, J. Symbolic Comput. 2014).

The search tree starts from the vertices ordered into cells by colour and
refined to the coarsest equitable partition (colour refinement).  A node
whose partition is not discrete branches on the vertices of its first
non-singleton cell: each one in turn is split off as a cell of its own, and
the result is refined again.  Refinement and the choice of cell depend only
on the coloured graph, never on the labels, so relabeling the input maps the
tree onto itself.  Every leaf is a discrete partition, that is, a labeling;
its code is the adjacency matrix under that labeling, and the least code over
all leaves is the form.

Twins (two vertices of a cell whose neighbourhoods agree apart from each
other) are swapped by an automorphism that fixes the node, so their subtrees
hold the same codes and only one of them is searched.  Graphs whose tree
still has more than ``LEAF_BUDGET`` leaves get no form (``None``); a caller
treats such a graph as a class of its own, which is always correct.

Uncoloured labeled graphs are instead grouped by ``labeled_classes``: each
class is one orbit, keyed by its least labeling (Read, *Every one a winner*, 1978).
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Sequence

from .graphs import Graph

LEAF_BUDGET = 256


def _refine(adj: list[int], cells: list[list[int]]) -> list[list[int]]:
    """The coarsest equitable refinement of an ordered partition.

    Each round splits every cell by the number of neighbours its vertices
    have in each cell, the parts ordered by that count vector and put where
    the cell was, until a round splits nothing or every cell is a singleton.
    """
    n = len(adj)
    while len(cells) < n:
        masks = []
        for cell in cells:
            mask = 0
            for v in cell:
                mask |= 1 << v
            masks.append(mask)
        refined: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                refined.append(cell)
                continue
            parts: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                row = adj[v]
                parts.setdefault(tuple([(row & m).bit_count() for m in masks]), []).append(v)
            if len(parts) == 1:
                refined.append(cell)
            else:
                refined.extend(parts[counts] for counts in sorted(parts))
        if len(refined) == len(cells):
            break
        cells = refined
    return cells


def _code(edges: list[tuple[int, int]], cells: list[list[int]]) -> int:
    """The adjacency bits of the labeling a discrete partition gives: the
    vertex in cell k gets label k, and pair (a, b), a < b, is bit b(b-1)/2 + a."""
    label = [0] * len(cells)
    for k, (v,) in enumerate(cells):
        label[v] = k
    code = 0
    for i, j in edges:
        a, b = label[i], label[j]
        if a > b:
            a, b = b, a
        code |= 1 << (b * (b - 1) // 2 + a)
    return code


def canonical_form(graph: Graph, colours: Sequence[int]) -> tuple | None:
    """A canonical form of ``graph`` with vertex v coloured ``colours[v - 1]``,
    or None when the search needs more than ``LEAF_BUDGET`` leaves.

    The form is (the colours in ascending order, the least leaf code); vertex
    k of the canonical labeling has the k-th colour of that tuple.
    """
    n = graph.n
    if len(colours) != n:
        raise ValueError(f"{len(colours)} colours for a graph on {n} vertices")
    adj = [0] * n
    edges = []
    for i, j in graph.edges:
        adj[i - 1] |= 1 << (j - 1)
        adj[j - 1] |= 1 << (i - 1)
        edges.append((i - 1, j - 1))
    by_colour: dict[int, list[int]] = {}
    for v, colour in enumerate(colours):
        by_colour.setdefault(colour, []).append(v)
    best = None
    leaves = 0
    stack = [_refine(adj, [by_colour[colour] for colour in sorted(by_colour)])]
    while stack:
        cells = stack.pop()
        target = next((k for k, cell in enumerate(cells) if len(cell) > 1), None)
        if target is None:
            leaves += 1
            if leaves > LEAF_BUDGET:
                return None
            code = _code(edges, cells)
            if best is None or code < best:
                best = code
            continue
        cell = cells[target]
        # u, w are twins iff adj[u] == adj[w] (not adjacent) or
        # adj[u] | u == adj[w] | w (adjacent); the transposition (u w) is
        # then an automorphism fixing every other vertex
        seen_open: set[int] = set()
        seen_closed: set[int] = set()
        for v in cell:
            closed = adj[v] | 1 << v
            if adj[v] in seen_open or closed in seen_closed:
                continue
            seen_open.add(adj[v])
            seen_closed.add(closed)
            rest = [u for u in cell if u != v]
            stack.append(_refine(adj, cells[:target] + [[v], rest] + cells[target + 1:]))
    return tuple(sorted(colours)), best


def labeled_classes(n: int) -> list[int]:
    """Entry ``mask`` is the least mask isomorphic to graph ``mask`` of
    ``enumerate_labeled_graphs(n)``.  An unmarked mask, in increasing order,
    is the least of its class; its orbit under the n! relabelings, each a
    table of the image bit of every pair bit, is then marked at once."""
    pairs = list(combinations(range(n), 2))
    bit = {pair: 1 << k for k, pair in enumerate(pairs)}
    tables = [[bit[min(p[i], p[j]), max(p[i], p[j])] for i, j in pairs]
              for p in permutations(range(n))]
    keys = [-1] * (1 << len(pairs))
    for mask in range(len(keys)):
        if keys[mask] < 0:
            on = [k for k in range(len(pairs)) if mask >> k & 1]
            for table in tables:
                keys[sum([table[k] for k in on])] = mask
    return keys
