"""Simple labeled graphs, their edge ideals, and corpus ingestion.

Vertices are the integers 1..n and are permanently identified with the
variables x_1..x_n of the ambient polynomial ring, so a graph on n vertices
produces ideals of ambient n.  Edges are unordered pairs stored as (i, j)
with i < j.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator

from .monomials import MonomialIdeal, _is_int_rows, _Packing, _Value

Edge = tuple[int, int]

GRAPH6_HEADER = ">>graph6<<"
# str.strip() would also strip the control bytes 0x1c-0x1f, which no graph6
# line may hold
_ASCII_SPACE = " \t\n\r\v\f"
_ENUMERATION_CAP = 9


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the 0-based byte position in the
    line.  An error in a corpus file also names its 1-based ``line``."""

    def __init__(self, message: str, offset: int, line: int | None = None):
        where = f"byte offset {offset}" if line is None else f"line {line}, byte offset {offset}"
        super().__init__(f"{message} ({where})")
        self.message, self.offset = message, offset


def normalize_edge(i: int, j: int) -> Edge:
    if i == j:
        raise ValueError(f"loop at vertex {i} is not allowed")
    return (i, j) if i < j else (j, i)


class Graph(_Value):
    """A simple graph: no loops, no multiple edges, vertices 1..n."""

    _fields = ("n", "edges")

    def __init__(self, n: int, edges: frozenset[Edge] = frozenset()) -> None:
        if n < 1:
            raise ValueError("vertex count must be positive")
        for i, j in edges:
            if not (1 <= i < j <= n):
                raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        self.__dict__.update(n=n, edges=edges)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        return cls(n, frozenset(normalize_edge(i, j) for i, j in edges))

    def has_edge(self, i: int, j: int) -> bool:
        return normalize_edge(i, j) in self.edges

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """The sorted neighbors of every vertex, built once per graph."""
        adjacent: dict[int, list[int]] = {v: [] for v in self.vertices()}
        for i, j in sorted(self.edges):
            adjacent[i].append(j)
            adjacent[j].append(i)
        return {v: tuple(sorted(us)) for v, us in adjacent.items()}

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def edge_ideal(self) -> MonomialIdeal:
        """One squarefree quadric x_i*x_j per edge; edgeless gives the zero ideal."""
        packing = _Packing(self.n, 1)
        quadrics = [packing.variables[i - 1] + packing.variables[j - 1] for i, j in self.edges]
        return MonomialIdeal._from_packed(self.n, packing, quadrics)

    def complement(self) -> "Graph":
        all_pairs = {(i, j) for i, j in combinations(self.vertices(), 2)}
        return Graph(self.n, frozenset(all_pairs - self.edges))

    def is_chordal(self) -> bool:
        """No induced cycle of length >= 4, via maximum cardinality search.

        MCS visits vertices by decreasing count of visited neighbors; the graph
        is chordal iff the reversed visit order is a perfect elimination
        ordering, i.e. every vertex's later neighborhood is a clique.
        """
        weight = {v: 0 for v in self.vertices()}
        unvisited = set(self.vertices())
        visit: list[int] = []
        while unvisited:
            v = min(unvisited, key=lambda u: (-weight[u], u))
            unvisited.remove(v)
            visit.append(v)
            for u in self.adjacency[v]:
                if u in unvisited:
                    weight[u] += 1
        elim = list(reversed(visit))
        position = {v: k for k, v in enumerate(elim)}
        for v in elim:
            later = [u for u in self.adjacency[v] if position[u] > position[v]]
            for a, b in combinations(later, 2):
                if not self.has_edge(a, b):
                    return False
        return True

    def to_graph6(self) -> str:
        line, start = _graph6_frame(self.n)
        for i, j in self.edges:
            at, value = _graph6_slot(i, j)
            line[start + at] += value
        return line.decode("ascii")

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "edges": [list(e) for e in self.sorted_edges()]})

    @classmethod
    def from_json(cls, text: str) -> "Graph":
        data = json.loads(text)
        if not (isinstance(data, dict) and type(data.get("n")) is int
                and _is_int_rows(data.get("edges"), 2)):
            raise ValueError('graph JSON must look like {"n": int, "edges": [[i,j],...]}')
        return cls.from_edges(data["n"], data["edges"])


def _encode_n(n: int) -> list[int]:
    if n <= 62:
        return [n + 63]
    if n <= 258047:
        return [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    raise ValueError(f"graph6 encoding for n={n} not supported (max 258047)")


def _graph6_frame(n: int) -> tuple[bytearray, int]:
    """The graph6 line of the edgeless graph on n vertices, and the offset of
    its payload.  Adding the value of each edge's ``_graph6_slot`` to its
    payload byte gives the line of any graph on n vertices: a payload byte is
    63 plus six pair bits, so no sum carries."""
    head = bytes(_encode_n(n))
    return bytearray(head + b"?" * ((n * (n - 1) // 2 + 5) // 6)), len(head)


def _graph6_slot(i: int, j: int) -> tuple[int, int]:
    """(payload byte, bit value) of pair (i, j), i < j.  graph6 lists the
    pairs column by column, (1,2), (1,3), (2,3), (1,4), ..., six to a byte
    from its bit 5 down."""
    k = (j - 1) * (j - 2) // 2 + i - 1
    return k // 6, 32 >> k % 6


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line (optional `>>graph6<<` header tolerated).

    Decoding is bit-exact: byte values, payload length, and zero padding are
    all enforced, so parse/emit round-trips on valid corpus lines.  Each pair
    whose ``_graph6_slot`` bit is set is an edge, written into the edgeless
    ``_graph6_frame`` as ``to_graph6`` does; any other set bit is padding.
    Only ASCII whitespace is stripped; offsets count from the start of ``line``.
    """
    text = line.lstrip(_ASCII_SPACE)
    base = len(line) - len(text)
    text = text.rstrip(_ASCII_SPACE)
    if text.startswith(GRAPH6_HEADER):
        text = text[len(GRAPH6_HEADER) :]
        base += len(GRAPH6_HEADER)
    if not text:
        raise Graph6Error("empty graph6 line", base)
    for k, ch in enumerate(text):
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"character {ch!r} outside graph6 range 63..126", base + k)
    data = text.encode("ascii")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("graph6 >258047 vertices not supported", base)
        if len(data) < 4:
            raise Graph6Error("truncated graph6 vertex count", base + len(data) - 1)
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        if n <= 62:
            raise Graph6Error(f"non-canonical long form for n={n}", base)
        idx = 4
    else:
        n = data[0] - 63
        idx = 1
    if n < 1:
        raise Graph6Error("graph6 line encodes an empty vertex set", base)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - idx != need:
        raise Graph6Error(f"payload length {len(data) - idx} != expected {need} for n={n}",
                          base + min(idx + need, len(data)))
    written = _graph6_frame(n)[0]
    edges = []
    for i, j in combinations(range(1, n + 1), 2):
        at, value = _graph6_slot(i, j)
        if (data[idx + at] - 63) & value:
            written[idx + at] += value
            edges.append((i, j))
    if written != data:  # padding bits sit in the last byte
        raise Graph6Error("nonzero padding bits", base + len(data) - 1)
    return Graph(n, frozenset(edges))


def read_graph6_file(path: str) -> Iterator[Graph]:
    """The graphs of a corpus file of graph6 lines; blank lines are skipped.

    A byte above 127 decodes to one lone surrogate, so ``parse_graph6``
    refuses it at its own offset, and every error names its line.
    """
    with open(path, "r", encoding="ascii", errors="surrogateescape") as handle:
        for number, line in enumerate(handle, 1):
            if line.strip(_ASCII_SPACE):
                try:
                    graph = parse_graph6(line)
                except Graph6Error as exc:
                    raise Graph6Error(exc.message, exc.offset, number) from None
                yield graph


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """All 2^(n choose 2) labeled graphs on 1..n, in a fixed order.

    Pairs are listed lexicographically ((1,2), (1,3), ..., (n-1,n)); graph
    number ``mask`` contains pair k iff bit k (LSB first) of ``mask`` is set,
    and graphs are yielded in increasing order of ``mask``.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > _ENUMERATION_CAP:
        raise ValueError(f"enumeration refused for n={n} > cap {_ENUMERATION_CAP}")
    pairs = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        edges = frozenset(p for k, p in enumerate(pairs) if mask >> k & 1)
        yield Graph(n, edges)


def labeled_graph6(n: int) -> list[str]:
    """The graph6 line of every graph of ``enumerate_labeled_graphs(n)``, in
    its order, written straight from the masks.  Each line is held as one
    big-endian int, to which mask bit k, lexicographic pair k, adds the value
    of its ``_graph6_slot``; the lines of the masks below 2^(k+1) are those
    below 2^k, then the same with that value added."""
    edgeless, start = _graph6_frame(n)
    last = len(edgeless) - 1
    lines = [int.from_bytes(edgeless, "big")]
    for i, j in combinations(range(1, n + 1), 2):
        at, value = _graph6_slot(i, j)
        bit = value << 8 * (last - start - at)
        lines += [line + bit for line in lines]
    return [line.to_bytes(last + 1, "big").decode("ascii") for line in lines]


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(1, n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(1, n + 1), 2))
