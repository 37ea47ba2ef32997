"""Polarization, graded Betti numbers via exact simplicial homology, and
Castelnuovo-Mumford regularity.

Betti numbers of a monomial ideal are read off reduced homology of upper
Koszul complexes at the multidegrees of the lcm lattice.  Each upper Koszul
complex is built from its facets, one per generator dividing the multidegree
(Miller-Sturmfels, Combinatorial Commutative Algebra, Thm 1.34), and closed
downward over bitmasks of the support.  Homology ranks come from exact ranks
of boundary matrices: integer fraction-free elimination for characteristic 0,
modular elimination for prime characteristic.  Two further routes to the
same table exist for cross-validation: restriction-complex homology on
squarefree ideals and the degreewise strands of the full generator-subset
resolution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd as _gcd, isqrt
from operator import le
from typing import Iterable, Mapping, Sequence

from .monomials import (
    Monomial,
    MonomialIdeal,
    _check_monomial,
    degree,
    lcm,
    support,
)

TAYLOR_GENERATOR_CAP = 14


class SimplicialComplex:
    """An abstract simplicial complex as an explicit face list.

    The void complex (no faces at all) and the empty complex (only the empty
    face) are distinguished; reduced homology of the empty complex is one copy
    of the field in dimension -1.
    """

    def __init__(self, faces: Iterable[Sequence[int]]):
        by_dim: dict[int, set[tuple[int, ...]]] = {}
        for face in faces:
            f = tuple(sorted(set(face)))
            by_dim.setdefault(len(f) - 1, set()).add(f)
        self._by_dim = {d: sorted(fs) for d, fs in sorted(by_dim.items())}

    @classmethod
    def from_facets(cls, facets: Iterable[Sequence[int]]) -> "SimplicialComplex":
        """Downward closure of the given faces."""
        closed: set[tuple[int, ...]] = set()
        stack = [tuple(sorted(set(f))) for f in facets]
        while stack:
            f = stack.pop()
            if f in closed:
                continue
            closed.add(f)
            for k in range(len(f)):
                stack.append(f[:k] + f[k + 1 :])
        return cls(closed)

    def faces_of_dim(self, d: int) -> list[tuple[int, ...]]:
        return self._by_dim.get(d, [])

    def all_faces(self) -> list[tuple[int, ...]]:
        return [f for d in sorted(self._by_dim) for f in self._by_dim[d]]

    def is_void(self) -> bool:
        return not self._by_dim

    def dim(self) -> int:
        """Dimension of the complex; -1 for the empty complex, -2 for void."""
        return max(self._by_dim, default=-2)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SimplicialComplex) and self._by_dim == other._by_dim

    def __repr__(self) -> str:
        return f"SimplicialComplex({self.all_faces()!r})"


def check_characteristic(char: int) -> None:
    """Raise ValueError unless ``char`` is 0 or a prime."""
    if char != 0 and (char < 2 or any(char % d == 0 for d in range(2, isqrt(char) + 1))):
        raise ValueError(f"characteristic must be 0 or a prime, got {char}")


def rank_of_rows(rows: Iterable[Mapping[int, int]], char: int = 0) -> int:
    """Exact rank of a sparse integer matrix given as rows {column: value}.

    char 0 works over the rationals with integer fraction-free row operations
    (each updated row is rescaled by its content); char p reduces modulo p.
    Pivots prefer unit entries with low fill; column counts are kept up to
    date as rows are eliminated.
    """
    check_characteristic(char)
    work: list[dict[int, int]] = []
    colcount: dict[int, int] = {}
    for row in rows:
        if char:
            r = {c: v % char for c, v in row.items() if v % char}
        else:
            r = {c: v for c, v in row.items() if v}
        if r:
            work.append(r)
            for c in r:
                colcount[c] = colcount.get(c, 0) + 1
    rank = 0
    while work:
        # Markowitz pivot: least fill (len(r) - 1) * (colcount - 1); over Q a
        # non-unit entry ranks after every unit one.  A fill-free unit entry
        # cannot be beaten, so the scan stops there.
        nonunit = 0 if char else len(work) * len(colcount)
        best = None
        for idx, r in enumerate(work):
            row_fill = len(r) - 1
            for c, v in r.items():
                key = row_fill * (colcount[c] - 1)
                if v != 1 and v != -1:
                    key += nonunit
                if best is None or key < best[0]:
                    best = (key, idx, c)
                    if not key:
                        break
            if not best[0]:
                break
        _, pidx, pcol = best
        pivot = work.pop(pidx)
        pval = pivot[pcol]
        rank += 1
        for c in pivot:
            colcount[c] -= 1
        nxt: list[dict[int, int]] = []
        for r in work:
            rv = r.get(pcol)
            if rv is None:
                nxt.append(r)
                continue
            for c in r:
                colcount[c] -= 1
            if char:
                factor = rv * pow(pval, char - 2, char) % char
                new = {}
                for c, v in r.items():
                    w = (v - factor * pivot.get(c, 0)) % char
                    if w:
                        new[c] = w
                for c, v in pivot.items():
                    if c not in r:
                        w = -factor * v % char
                        if w:
                            new[c] = w
            else:
                new = {}
                for c, v in r.items():
                    w = pval * v - rv * pivot.get(c, 0)
                    if w:
                        new[c] = w
                for c, v in pivot.items():
                    if c not in r:
                        new[c] = -rv * v
                content = 0
                for v in new.values():
                    content = _gcd(content, v)
                if content > 1:
                    new = {c: v // content for c, v in new.items()}
            if new:
                nxt.append(new)
                for c in new:
                    colcount[c] = colcount.get(c, 0) + 1
        work = nxt
    return rank


def _boundary_rows(
    complex_: SimplicialComplex, k: int
) -> list[dict[int, int]]:
    """Rows of the boundary map from k-faces to (k-1)-faces, one row per
    k-face (rank is transpose-invariant)."""
    sources = complex_.faces_of_dim(k)
    targets = {f: i for i, f in enumerate(complex_.faces_of_dim(k - 1))}
    rows = []
    for f in sources:
        row: dict[int, int] = {}
        for t in range(len(f)):
            sub = f[:t] + f[t + 1 :]
            if sub not in targets:
                raise ValueError(f"complex is not closed under subsets: missing {sub}")
            row[targets[sub]] = 1 if t % 2 == 0 else -1
        rows.append(row)
    return rows


def reduced_homology_ranks(
    complex_: SimplicialComplex, char: int = 0
) -> dict[int, int]:
    """Dimensions of reduced homology in every degree -1..dim."""
    if complex_.is_void():
        return {}
    top = complex_.dim()
    boundary_rank = {}
    for k in range(0, top + 1):
        boundary_rank[k] = rank_of_rows(_boundary_rows(complex_, k), char)
    boundary_rank[top + 1] = 0
    ranks = {}
    for i in range(-1, top + 1):
        ranks[i] = (
            len(complex_.faces_of_dim(i))
            - boundary_rank.get(i, 0)
            - boundary_rank[i + 1]
        )
    return ranks


@dataclass(frozen=True)
class PolarizationMap:
    """Bookkeeping for squarefree-ification: source variable i (1-based) with
    multiplicity a_i expands to target variables indexed offset_i+1..offset_i+a_i,
    where offset_i = a_1 + ... + a_(i-1)."""

    source_n: int
    multiplicities: tuple[int, ...]


def polarize(ideal: MonomialIdeal) -> tuple[MonomialIdeal, PolarizationMap]:
    """The squarefree polarization, one target variable per exponent unit.

    Generator count and minimality are preserved; the map records the variable
    multiplicities used.
    """
    if ideal.is_zero():
        raise ValueError("cannot polarize the zero ideal")
    if ideal.is_unit():
        raise ValueError("cannot polarize the unit ideal (no target variables)")
    mults = tuple(max(g[i] for g in ideal.gens) for i in range(ideal.n))
    # x_i^a becomes the first a of the m_i target variables of x_i
    gens = sorted(
        tuple(bit for a, m in zip(g, mults) for bit in (1,) * a + (0,) * (m - a))
        for g in ideal.gens
    )
    polarized = MonomialIdeal(sum(mults), tuple(gens))
    assert len(polarized.gens) == len(ideal.gens)
    return polarized, PolarizationMap(ideal.n, mults)


def upper_koszul(ideal: MonomialIdeal, m: Monomial) -> SimplicialComplex:
    """The complex on supp(m) whose faces are the subsets sigma with
    m - e_sigma in the ideal; its reduced homology in degree i-1 is the Betti
    number of the ideal at (i, m).

    Built from its facets (Miller-Sturmfels, Combinatorial Commutative
    Algebra, Thm 1.34): m - e_sigma is a member iff some generator g dividing
    m has g_i < m_i on all of sigma, so each such g gives the facet
    {i in supp(m) : g_i < m_i}, and the faces are their subsets.
    """
    m = _check_monomial(ideal.n, m)
    supp = support(m)
    facets = set()
    for g in ideal.gens:
        if all(map(le, g, m)):
            facets.add(sum(1 << t for t, v in enumerate(supp) if g[v - 1] < m[v - 1]))
    if not facets:
        raise ValueError("multidegree is not a member of the ideal")
    masks = {0}
    for f in facets:
        sub = f
        while sub:
            masks.add(sub)
            sub = (sub - 1) & f
    return SimplicialComplex(
        tuple(v for t, v in enumerate(supp) if mask >> t & 1) for mask in masks
    )


def lcm_lattice(ideal: MonomialIdeal) -> list[Monomial]:
    """All least common multiples of nonempty sets of minimal generators."""
    lattice: set[Monomial] = set(ideal.gens)
    frontier = set(ideal.gens)
    while frontier:
        new = set()
        for a in frontier:
            for g in ideal.gens:
                b = tuple(map(max, a, g))
                if b not in lattice:
                    new.add(b)
        lattice |= new
        frontier = new
    return sorted(lattice, key=lambda u: (degree(u), u))


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers beta_{i,j} with the field characteristic recorded.

    ``entries`` holds the nonzero values as (i, j, beta) sorted by (i, j).
    """

    char: int
    entries: tuple[tuple[int, int, int], ...]

    @classmethod
    def from_dict(cls, char: int, table: Mapping[tuple[int, int], int]) -> "BettiTable":
        entries = tuple(
            (i, j, b) for (i, j), b in sorted(table.items()) if b
        )
        if any(b < 0 for _, _, b in entries):
            raise ValueError("Betti numbers must be nonnegative")
        return cls(char, entries)

    def regularity(self) -> int:
        if not self.entries:
            raise ValueError("empty Betti table has no regularity")
        return max(j - i for i, j, _ in self.entries)

    def to_json(self) -> str:
        return json.dumps({"char": self.char, "entries": [list(e) for e in self.entries]})


def betti_table(ideal: MonomialIdeal, char: int = 0) -> BettiTable:
    """Graded Betti numbers of the ideal via upper Koszul complex homology,
    summed over the multidegrees of the lcm lattice."""
    if ideal.is_zero():
        raise ValueError("the zero ideal has no Betti table")
    check_characteristic(char)
    table: dict[tuple[int, int], int] = {}
    for m in lcm_lattice(ideal):
        ranks = reduced_homology_ranks(upper_koszul(ideal, m), char)
        j = degree(m)
        for k, h in ranks.items():
            if h and k + 1 >= 0:
                key = (k + 1, j)
                table[key] = table.get(key, 0) + h
    return BettiTable.from_dict(char, table)


def regularity(ideal: MonomialIdeal, char: int = 0) -> int:
    """max(j - i) over the nonzero Betti numbers of the ideal (not the quotient)."""
    return betti_table(ideal, char).regularity()


def has_linear_resolution(ideal: MonomialIdeal, char: int = 0) -> bool:
    """For an equigenerated nonzero ideal: regularity equals the generator degree."""
    if ideal.is_zero():
        raise ValueError("the zero ideal has no resolution")
    degrees = {degree(g) for g in ideal.gens}
    if len(degrees) != 1:
        raise ValueError("linear resolution is only defined for equigenerated ideals")
    return regularity(ideal, char) == degrees.pop()


def betti_table_hochster(ideal: MonomialIdeal, char: int = 0) -> BettiTable:
    """Betti numbers of a squarefree ideal from homology of restrictions of its
    face complex: an independent route used to cross-validate betti_table.

    For each union sigma of generator supports, the restriction of the
    complex of non-members contributes its reduced homology in degree
    |sigma| - i - 2 to beta_{i, |sigma|}.
    """
    if ideal.is_zero():
        raise ValueError("the zero ideal has no Betti table")
    if any(max(g) > 1 for g in ideal.gens):
        raise ValueError("restriction-homology route requires a squarefree ideal")
    if ideal.is_unit():
        raise ValueError("the unit ideal has no proper face complex")
    supports = [frozenset(support(g)) for g in ideal.gens]
    sigmas = sorted(
        {frozenset(support(m)) for m in lcm_lattice(ideal)},
        key=lambda s: (len(s), sorted(s)),
    )
    table: dict[tuple[int, int], int] = {}
    for sigma in sigmas:
        inside = [s for s in supports if s <= sigma]
        covered = frozenset().union(*inside) if inside else frozenset()
        if covered != sigma:
            continue  # some vertex of sigma is an apex: the restriction is a cone
        verts = sorted(sigma)
        faces = []
        for mask in range(1 << len(verts)):
            tau = frozenset(v for t, v in enumerate(verts) if mask >> t & 1)
            if not any(s <= tau for s in inside):
                faces.append(tuple(sorted(tau)))
        ranks = reduced_homology_ranks(SimplicialComplex(faces), char)
        j = len(sigma)
        for k, h in ranks.items():
            i = j - k - 2
            if h and i >= 0:
                table[(i, j)] = table.get((i, j), 0) + h
    return BettiTable.from_dict(char, table)


def betti_table_taylor(ideal: MonomialIdeal, char: int = 0) -> BettiTable:
    """Betti numbers from the degreewise strands of the generator-subset
    resolution: the third independent route, practical for few generators.

    For each multidegree M, the strand complex has the subsets of generators
    with lcm M in homological degree |subset| - 1, with boundary keeping only
    faces of the same lcm; its homology dimensions are the beta_{i,M}.
    """
    if ideal.is_zero():
        raise ValueError("the zero ideal has no Betti table")
    gens = ideal.gens
    m = len(gens)
    if m > TAYLOR_GENERATOR_CAP:
        raise ValueError(
            f"subset-resolution route refused for {m} generators (cap {TAYLOR_GENERATOR_CAP})"
        )
    lcm_of: dict[int, Monomial] = {}
    groups: dict[Monomial, list[int]] = {}
    for mask in range(1, 1 << m):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        value = gens[low] if not rest else lcm(lcm_of[rest], gens[low])
        lcm_of[mask] = value
        groups.setdefault(value, []).append(mask)
    table: dict[tuple[int, int], int] = {}
    for multidegree, masks in groups.items():
        by_size: dict[int, list[int]] = {}
        for mask in masks:
            by_size.setdefault(bin(mask).count("1"), []).append(mask)
        index = {
            mask: t for size in by_size for t, mask in enumerate(sorted(by_size[size]))
        }
        mask_set = set(masks)
        boundary_rank: dict[int, int] = {}
        for size, level in sorted(by_size.items()):
            rows = []
            for mask in sorted(level):
                row: dict[int, int] = {}
                elems = [t for t in range(m) if mask >> t & 1]
                for pos, t in enumerate(elems):
                    sub = mask & ~(1 << t)
                    if sub in mask_set:
                        row[index[sub]] = 1 if pos % 2 == 0 else -1
                if row:
                    rows.append(row)
            boundary_rank[size] = rank_of_rows(rows, char)
        j = degree(multidegree)
        for size, level in by_size.items():
            i = size - 1
            h = len(level) - boundary_rank.get(size, 0) - boundary_rank.get(size + 1, 0)
            if h:
                table[(i, j)] = table.get((i, j), 0) + h
    return BettiTable.from_dict(char, table)
