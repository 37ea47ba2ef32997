"""Polarization, graded Betti numbers via exact simplicial homology, and
Castelnuovo-Mumford regularity.

Betti numbers of a monomial ideal are read off reduced homology of upper
Koszul complexes at the multidegrees of the lcm lattice (Miller-Sturmfels,
Combinatorial Commutative Algebra, Thm 1.34).  Homology ranks come from exact
ranks of boundary matrices by one plain fraction-free elimination (shortest
row first, a +-1 pivot entry if there is one), reduced mod p in prime
characteristic and divided by row contents in characteristic 0.  Two further
routes to the same table exist for cross-validation: restriction-complex
homology on squarefree ideals and the degreewise strands of the full
generator-subset resolution.  Each route returns the nonzero beta_{i,j} as a
plain map {(i, j): beta} in sorted key order.

``betti_table`` runs on the packed view the ideal is born with
(``MonomialIdeal._packed``), whose ``w``-bit fields have a capacity above
every exponent; the top bit of each field is a guard bit, and ``H`` and ``L``
hold a guard bit and a 1 in every field.  The lcm lattice is closed under
the branch-free field-wise max ``_Packing.joins``, the one packed lcm, which
``has_colon_splitting_order`` uses too.  At a point ``m``, a generator ``g``
divides ``m`` iff ``((m | H) - g) & H == H``, and then ``((m | H) - g - L) & H``
has the guard bit of each variable with ``g_i < m_i``.  That mask is a facet
of the upper Koszul complex at ``m``; its faces are the submasks of the
facets, grouped by popcount, and the boundary of a face is keyed by the face
with one guard bit cleared.

The homology is taken relative to a vertex star.  For a vertex v of the
complex, the star st(v), the faces f with f | {v} a face, is a cone, so it is
acyclic and holds the empty face; the long exact sequence of the pair gives
reduced H_k(complex) = H_k(complex, st v) in every degree.  Equivalently,
F <-> F | {v} is an acyclic matching with no gradient paths to correct, so its
Morse complex is the relative chain complex (Forman, Morse theory for cell
complexes, Adv. Math. 1998; Joellenbeck-Welker, Minimal resolutions via
algebraic discrete Morse theory, Mem. AMS 2009).  ``betti_table`` takes v in
the most facets, keeps as cells the faces of the facets without v that lie
in no facet with v, and drops every boundary entry that lands in the star.
The empty face is in the star, so there is no augmentation: the boundary of
the vertex level has rank 0.  A complex with no cell is a cone, and a point
whose only facet is the empty face is a generator, worth one beta_0.  No
tuple face is built on this path; tuple faces, closed downward by
``reduced_homology_ranks``, serve the restriction-complex route.
"""

from __future__ import annotations

from math import gcd as _gcd
from typing import Iterable, Mapping, Sequence

from .monomials import (
    Monomial,
    MonomialIdeal,
    _Packing,
    check_characteristic,
    degree,
    support,
)

TAYLOR_GENERATOR_CAP = 14


def _reduced(row: Mapping[int, int], char: int) -> dict[int, int]:
    """The nonzero entries of a row, reduced mod ``char`` when it is a prime
    and divided by their content when it is 0."""
    if char:
        return {c: v % char for c, v in row.items() if v % char}
    content = _gcd(*row.values()) or 1
    return {c: v // content for c, v in row.items() if v}


def rank_of_rows(rows: Iterable[Mapping[int, int]], char: int = 0) -> int:
    """Exact rank of a sparse integer matrix given as rows {column: value}.

    Plain elimination: each step pivots on a shortest remaining row, at a +-1
    entry of it if it has one, and replaces every other row r whose entry in
    the pivot column is rv by the fraction-free ``pval * r - rv * pivot``.  The
    update is the same in every characteristic; ``_reduced`` then takes it
    mod p, or over Q divides it by its content.
    """
    check_characteristic(char)
    work = [r for r in (_reduced(row, char) for row in rows) if r]
    rank = 0
    while work:
        pivot = work.pop(min(range(len(work)), key=lambda k: len(work[k])))
        pcol = next((c for c, v in pivot.items() if v in (1, -1)), next(iter(pivot)))
        pval = pivot[pcol]
        rank += 1
        nxt = []
        for r in work:
            rv = r.get(pcol)
            if rv is not None:
                new = {c: pval * v for c, v in r.items()}
                for c, v in pivot.items():
                    new[c] = new.get(c, 0) - rv * v
                r = _reduced(new, char)
            if r:
                nxt.append(r)
        work = nxt
    return rank


def _closure(facets: Iterable[Sequence[int]]) -> dict[int, list[tuple[int, ...]]]:
    """The faces of the complex the given faces span, each a sorted tuple,
    grouped by dimension in sorted order; no faces at all is the void complex."""
    closed: set[tuple[int, ...]] = set()
    stack = [tuple(sorted(set(f))) for f in facets]
    while stack:
        f = stack.pop()
        if f in closed:
            continue
        closed.add(f)
        for k in range(len(f)):
            stack.append(f[:k] + f[k + 1 :])
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for f in sorted(closed):
        by_dim.setdefault(len(f) - 1, []).append(f)
    return by_dim


def reduced_homology_ranks(
    facets: Iterable[Sequence[int]], char: int = 0
) -> dict[int, int]:
    """Dimensions of reduced homology in every degree -1..dim of the complex
    the given faces span.  ``[]`` is the void complex, with no homology at
    all; ``[()]`` is the empty complex, one copy of the field in degree -1."""
    check_characteristic(char)
    by_dim = _closure(facets)
    if not by_dim:
        return {}
    top = max(by_dim)
    # one boundary row per k-face (rank is transpose-invariant)
    boundary_rank = {top + 1: 0}
    for k in range(top + 1):
        targets = {f: i for i, f in enumerate(by_dim[k - 1])}
        rows = [{targets[f[:t] + f[t + 1 :]]: 1 if t % 2 == 0 else -1 for t in range(len(f))}
                for f in by_dim[k]]
        boundary_rank[k] = rank_of_rows(rows, char)
    return {
        i: len(by_dim[i]) - boundary_rank.get(i, 0) - boundary_rank[i + 1]
        for i in range(-1, top + 1)
    }


def polarize(ideal: MonomialIdeal) -> MonomialIdeal:
    """The squarefree polarization, one target variable per exponent unit.

    With m_i the largest exponent of x_i, variable x_i gets the m_i target
    variables m_1 + ... + m_(i-1) + 1, ..., m_1 + ... + m_i, and x_i^a becomes
    the product of the first a of them.  Generator count and minimality are
    preserved.
    """
    if ideal.is_zero():
        raise ValueError("cannot polarize the zero ideal")
    if ideal.is_unit():
        raise ValueError("cannot polarize the unit ideal (no target variables)")
    mults = tuple(max(g[i] for g in ideal.gens) for i in range(ideal.n))
    polarized = MonomialIdeal(sum(mults), (
        tuple(bit for a, m in zip(g, mults) for bit in (1,) * a + (0,) * (m - a))
        for g in ideal.gens
    ))
    assert len(polarized.gens) == len(ideal.gens)
    return polarized


def _packed_lattice(packing: _Packing, gens: tuple[int, ...]) -> set[int]:
    """The lcm lattice of packed generators, closed under the field-wise max in
    one pass: each generator b adds itself and its join with every point so far."""
    lattice: set[int] = set()
    for b in gens:
        lattice.update(packing.joins(b, lattice))
        lattice.add(b)
    return lattice


def _koszul_facets(packing: _Packing, gens: tuple[int, ...], m: int) -> set[int]:
    """Facets of the upper Koszul complex at packed m, as guard-bit masks: one
    per generator g dividing m, holding the variables with g_i < m_i."""
    guard, ones = packing.guard, packing.ones
    guarded = m | guard
    facets = set()
    for g in gens:
        d = guarded - g
        if d & guard == guard:
            facets.add((d - ones) & guard)
    return facets


def _faces(facets: Iterable[int]) -> set[int]:
    """Every submask of the given masks: the complex they span (void if none)."""
    faces = set()
    for f in facets:
        sub = f
        while sub:
            faces.add(sub)
            sub = (sub - 1) & f
        faces.add(0)
    return faces


def _mask_boundary_rows(level: list[int], cells: set[int]) -> list[dict[int, int]]:
    """Rows of the boundary map on faces of one size, keyed by face masks and
    kept only on ``cells``; the variables are ordered by bit position."""
    rows = []
    for f in level:
        row = {}
        rest, sign = f, 1
        while rest:
            low = rest & -rest
            if f ^ low in cells:
                row[f ^ low] = sign
            sign = -sign
            rest ^= low
        rows.append(row)
    return rows


def _betti_map(table: Mapping[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """The nonzero Betti numbers of ``table`` as {(i, j): beta} in sorted key order."""
    betti = {key: b for key, b in sorted(table.items()) if b}
    if any(b < 0 for b in betti.values()):
        raise ValueError("Betti numbers must be nonnegative")
    return betti


def betti_table(ideal: MonomialIdeal, char: int = 0) -> dict[tuple[int, int], int]:
    """Graded Betti numbers of the ideal via upper Koszul complex homology,
    summed over the multidegrees of the lcm lattice: beta_{i,m} is the
    reduced homology of the complex at m in degree i - 1."""
    if ideal.is_zero():
        raise ValueError("the zero ideal has no Betti table")
    check_characteristic(char)
    packing, gens = ideal._packed
    w = packing.width
    vertices = [1 << (k * w + w - 1) for k in range(ideal.n)]  # guard bits
    table: dict[tuple[int, int], int] = {}
    for m in _packed_lattice(packing, gens):
        facets = _koszul_facets(packing, gens, m)
        j = degree(packing.unpack(m))
        if facets == {0}:
            table[(0, j)] = table.get((0, j), 0) + 1  # m is a generator
            continue
        # cells: the faces outside the star of v, the vertex in the most facets
        v = max(vertices, key=lambda b: len([f for f in facets if f & b]))
        cells = _faces(f for f in facets if not f & v) - _faces(f for f in facets if f & v)
        by_size: dict[int, list[int]] = {}
        for f in cells:
            by_size.setdefault(f.bit_count(), []).append(f)
        # no cells at all is a cone; a level with no cells below it (the
        # vertices, at least, as the empty face is in the star) has rank 0
        ranks = {k: rank_of_rows(_mask_boundary_rows(level, cells), char)
                 for k, level in by_size.items() if k - 1 in by_size}
        for k, level in by_size.items():
            h = len(level) - ranks.get(k, 0) - ranks.get(k + 1, 0)
            if h:
                table[(k, j)] = table.get((k, j), 0) + h
    return _betti_map(table)


def regularity(ideal: MonomialIdeal, char: int = 0) -> int:
    """max(j - i) over the nonzero Betti numbers of the ideal (not the quotient)."""
    return max(j - i for i, j in betti_table(ideal, char))


def has_linear_resolution(ideal: MonomialIdeal, char: int = 0) -> bool:
    """For an equigenerated nonzero ideal: regularity equals the generator degree."""
    if ideal.is_zero():
        raise ValueError("the zero ideal has no resolution")
    degrees = {degree(g) for g in ideal.gens}
    if len(degrees) != 1:
        raise ValueError("linear resolution is only defined for equigenerated ideals")
    return regularity(ideal, char) == degrees.pop()


def betti_table_hochster(ideal: MonomialIdeal, char: int = 0) -> dict[tuple[int, int], int]:
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
    # the unions of supports, closed here rather than through betti_table's
    # lcm lattice so that the two routes share no code
    sigmas: set[frozenset[int]] = set()
    for s in supports:
        sigmas |= {s} | {s | t for t in sigmas}
    table: dict[tuple[int, int], int] = {}
    for sigma in sorted(sigmas, key=lambda s: (len(s), sorted(s))):
        inside = [s for s in supports if s <= sigma]
        verts = sorted(sigma)
        faces = []
        for mask in range(1 << len(verts)):
            tau = frozenset(v for t, v in enumerate(verts) if mask >> t & 1)
            if not any(s <= tau for s in inside):
                faces.append(tuple(sorted(tau)))
        ranks = reduced_homology_ranks(faces, char)
        j = len(sigma)
        for k, h in ranks.items():
            i = j - k - 2
            if h and i >= 0:
                table[(i, j)] = table.get((i, j), 0) + h
    return _betti_map(table)


def betti_table_taylor(ideal: MonomialIdeal, char: int = 0) -> dict[tuple[int, int], int]:
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
        value = gens[low] if not rest else tuple(map(max, lcm_of[rest], gens[low]))
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
    return _betti_map(table)
