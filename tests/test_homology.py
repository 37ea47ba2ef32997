"""Exact homology, polarization, Betti tables, and regularity.

The Betti machinery is validated three ways at small scale: upper Koszul
complexes on packed face masks (the production path), restriction-complex
homology on squarefree ideals, and strands of the generator-subset
resolution.
"""

import io
import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from boundedpowers import (
    MonomialIdeal,
    betti_table,
    betti_table_hochster,
    betti_table_taylor,
    complete_graph,
    cycle_graph,
    degree,
    has_linear_resolution,
    path_graph,
    polarize,
    rank_of_rows,
    reduced_homology_ranks,
    regularity,
)
from boundedpowers import cli, homology
from boundedpowers.homology import (
    _faces,
    _koszul_facets,
    _packed_lattice,
    check_characteristic,
)
from conftest import member_by_definition

# antipodally identified icosahedron: the 6-vertex projective plane
PROJECTIVE_PLANE_FACETS = [
    (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 4, 6),
    (2, 3, 4), (2, 3, 6), (2, 4, 5), (3, 5, 6), (4, 5, 6),
]


def fraction_rank(rows):
    """Dense Gaussian elimination over Fraction: the rank oracle."""
    cols = sorted({c for r in rows for c in r})
    dense = [[Fraction(r.get(c, 0)) for c in cols] for r in rows]
    rank = 0
    for col in range(len(cols)):
        pivot = next((k for k in range(rank, len(dense)) if dense[k][col]), None)
        if pivot is None:
            continue
        dense[rank], dense[pivot] = dense[pivot], dense[rank]
        pv = dense[rank][col]
        for k in range(len(dense)):
            if k != rank and dense[k][col]:
                factor = dense[k][col] / pv
                dense[k] = [a - factor * b for a, b in zip(dense[k], dense[rank])]
        rank += 1
    return rank


def modular_rank(rows, char):
    """Dense Gaussian elimination over GF(char): the rank oracle in prime
    characteristic."""
    cols = sorted({c for r in rows for c in r})
    dense = [[r.get(c, 0) % char for c in cols] for r in rows]
    rank = 0
    for col in range(len(cols)):
        pivot = next((k for k in range(rank, len(dense)) if dense[k][col]), None)
        if pivot is None:
            continue
        dense[rank], dense[pivot] = dense[pivot], dense[rank]
        inverse = pow(dense[rank][col], -1, char)
        for k in range(len(dense)):
            if k != rank and dense[k][col]:
                factor = dense[k][col] * inverse
                dense[k] = [(a - factor * b) % char for a, b in zip(dense[k], dense[rank])]
        rank += 1
    return rank


def random_rows(rng, max_size, values):
    """Sparse rows of a random matrix up to max_size x max_size, with entries
    from ``values``.  About half the rows after the first two are integer
    combinations of two earlier rows, so the rank often falls short of full."""
    nrows, ncols = rng.randint(1, max_size), rng.randint(1, max_size)
    density = rng.choice([0.1, 0.3, 0.6])
    rows = []
    for _ in range(nrows):
        if len(rows) >= 2 and rng.random() < 0.5:
            row = {}
            for earlier in rng.sample(rows, 2):
                coeff = rng.choice(values)
                for c, v in earlier.items():
                    row[c] = row.get(c, 0) + coeff * v
        else:
            row = {c: rng.choice(values) for c in range(ncols) if rng.random() < density}
        rows.append(row)
    return rows


def random_ideal(rng, nmax=5, max_gens=5, max_exp=2):
    n = rng.randint(1, nmax)
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        g = tuple(rng.randint(0, max_exp) for _ in range(n))
        if any(g):
            gens.append(g)
    return MonomialIdeal(n, gens or [(1,) + (0,) * (n - 1)])


def lattice_points(ideal):
    """The lcm lattice that ``betti_table`` closes, unpacked and sorted."""
    packing, gens = ideal._packed
    return sorted(map(packing.unpack, _packed_lattice(packing, gens)))


def boundary_ideals():
    """Ideals whose largest exponent is 0 (the unit ideal) or on either side
    of a change of the field width of a packing with room for top
    (top.bit_length() + 1) or for top + 1, as the packed view has.  Each top
    has a principal ideal and a two-generator one in two variables, whose
    polarizations stay narrow, and five random ones."""
    rng = random.Random(127)
    ideals = [MonomialIdeal(3, [(0, 0, 0)])]
    for top in (1, 3, 4, 7, 8, 15, 16, 2, 6, 14):
        ideals.append(MonomialIdeal(2, [(top, 1)]))
        ideals.append(MonomialIdeal(2, [(top, 0), (top - 1, 1)]))
        found = 0
        while found < 5:
            n = rng.randint(1, 4)
            gens = [tuple(rng.choice((0, 1, top - 1, top, rng.randint(0, top))) for _ in range(n))
                    for _ in range(rng.randint(2, 5))]
            ideal = MonomialIdeal(n, gens)
            if max(max(g) for g in ideal.gens) == top and not ideal.is_unit():
                ideals.append(ideal)
                found += 1
    return ideals


def koszul_faces(ideal, m):
    """The upper Koszul complex at m from the face-mask builder, each mask
    decoded to its variables, sorted by size and then lexicographically."""
    packing, gens = ideal._packed
    masks = _faces(_koszul_facets(packing, gens, packing.pack(m)))
    # a face mask holds guard bits only; moved to the bottom of their fields,
    # they unpack to the 0/1 vector of the face
    faces = [
        tuple(i for i, bit in enumerate(packing.unpack(mask >> (packing.width - 1)), start=1) if bit)
        for mask in masks
    ]
    return sorted(faces, key=lambda f: (len(f), f))


class TestHomologyRank:
    """``reduced_homology_ranks`` takes any faces and closes them downward."""

    def test_circle(self):
        assert reduced_homology_ranks([(1, 2), (1, 3), (2, 3)]) == {-1: 0, 0: 0, 1: 1}

    def test_cone_contractible(self):
        assert reduced_homology_ranks([(1, 2, 3)]) == {-1: 0, 0: 0, 1: 0, 2: 0}

    def test_two_points(self):
        assert reduced_homology_ranks([(1,), (2,)]) == {-1: 0, 0: 1}

    def test_empty_complex(self):
        assert reduced_homology_ranks([()]) == {-1: 1}

    def test_void_complex(self):
        assert reduced_homology_ranks([]) == {}

    def test_a_face_brings_its_subsets(self):
        # an edge alone spans the edge with its two vertices and the empty face
        assert reduced_homology_ranks([(1, 2)]) == {-1: 0, 0: 0, 1: 0}

    @pytest.mark.parametrize("faces", [[(1, 2), (2, 1)], [(2, 1, 1)], [(1, 2), (1,), ()]],
                             ids=["reordered", "repeated-vertex", "with-subfaces"])
    def test_faces_are_normalized(self, faces):
        assert reduced_homology_ranks(faces) == reduced_homology_ranks([(1, 2)])

    def test_sphere(self):
        sphere = list(combinations(range(1, 5), 3))
        assert reduced_homology_ranks(sphere) == {-1: 0, 0: 0, 1: 0, 2: 1}

    def test_projective_plane_depends_on_characteristic(self):
        rp2 = PROJECTIVE_PLANE_FACETS
        assert reduced_homology_ranks(rp2, 0) == {-1: 0, 0: 0, 1: 0, 2: 0}
        assert reduced_homology_ranks(rp2, 2) == {-1: 0, 0: 0, 1: 1, 2: 1}
        assert reduced_homology_ranks(rp2, 3) == {-1: 0, 0: 0, 1: 0, 2: 0}

    def test_takes_any_iterable_of_faces(self):
        facets = iter(PROJECTIVE_PLANE_FACETS)
        assert reduced_homology_ranks(facets, 2) == {-1: 0, 0: 0, 1: 1, 2: 1}


class TestRankOfRows:
    def test_small_cases(self):
        assert rank_of_rows([{0: 1}, {1: 1}]) == 2
        assert rank_of_rows([{0: 2, 1: 4}, {0: 1, 1: 2}]) == 1
        assert rank_of_rows([]) == 0
        assert rank_of_rows([{}]) == 0

    def test_char_p(self):
        # rows (2,4),(1,2) are dependent over Q and GF(3), and both zero mod 2
        rows = [{0: 2, 1: 4}, {0: 1, 1: 2}]
        assert rank_of_rows(rows, 2) == 1
        assert rank_of_rows(rows, 3) == 1
        assert rank_of_rows([{0: 2}], 2) == 0

    def test_invalid_characteristic(self):
        for char in (1, 4, -2, 9):
            with pytest.raises(ValueError, match="0 or a prime"):
                rank_of_rows([{0: 1}], char)
            # a principal ideal needs no rank call, so betti_table checks too
            with pytest.raises(ValueError, match="0 or a prime"):
                betti_table(MonomialIdeal(2, [(1, 1)]), char)

    @pytest.mark.parametrize("char", [1, 4, 6])
    def test_composite_characteristic_refused_without_a_rank(self, char):
        # the empty and void complexes, and ideals generated by variables,
        # take no boundary rank, so each entry point checks the field itself
        for faces in ([()], []):
            with pytest.raises(ValueError, match="0 or a prime"):
                reduced_homology_ranks(faces, char)
        for ideal in (MonomialIdeal(1, [(1,)]), MonomialIdeal(3, [(1, 0, 0), (0, 0, 1)])):
            for route in (betti_table, betti_table_hochster, betti_table_taylor):
                with pytest.raises(ValueError, match="0 or a prime"):
                    route(ideal, char)

    def test_check_characteristic(self):
        valid = []
        for char in range(-3, 30):
            try:
                check_characteristic(char)
            except ValueError:
                continue
            valid.append(char)
        assert valid == [0, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_matches_fraction_elimination(self):
        rng = random.Random(83)
        for _ in range(80):
            rows = random_rows(rng, 30, range(-4, 5))
            assert rank_of_rows(rows) == fraction_rank(rows)

    @pytest.mark.parametrize("char", [2, 3, 5])
    def test_matches_modular_elimination(self, char):
        # multiples of char vanish mod char but not over Q
        rng = random.Random(89 + char)
        values = [*range(-4, 5), char, -char, 2 * char]
        for _ in range(60):
            rows = random_rows(rng, 30, values)
            assert rank_of_rows(rows, char) == modular_rank(rows, char)


class TestPolarize:
    def test_single_generator(self):
        ideal = MonomialIdeal(2, [(2, 1)])
        polarized = polarize(ideal)
        # x1^2 x2 -> y1 y2 y3: two target variables for x1, one for x2
        assert polarized.n == 3
        assert polarized.gens == ((1, 1, 1),)

    def test_squarefree_fixed_up_to_renaming(self):
        ideal = path_graph(3).edge_ideal()
        polarized = polarize(ideal)
        assert polarized == ideal

    def test_two_generators(self):
        polarized = polarize(MonomialIdeal(2, [(2, 0), (1, 1)]))
        assert polarized.gens == ((1, 0, 1), (1, 1, 0))

    def test_generator_count_preserved(self):
        rng = random.Random(89)
        for _ in range(40):
            ideal = random_ideal(rng)
            assert len(polarize(ideal).gens) == len(ideal.gens)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            polarize(MonomialIdeal(2, []))
        with pytest.raises(ValueError):
            polarize(MonomialIdeal(2, [(0, 0)]))


class TestUpperKoszul:
    def test_generator_multidegree(self):
        ideal = MonomialIdeal(2, [(1, 1)])
        assert koszul_faces(ideal, (1, 1)) == [()]

    def test_koszul_relation(self):
        ideal = MonomialIdeal(2, [(1, 0), (0, 1)])
        assert koszul_faces(ideal, (1, 1)) == [(), (1,), (2,)]

    def test_non_member_is_void(self):
        assert koszul_faces(MonomialIdeal(2, [(1, 1)]), (1, 0)) == []

    def test_matches_definition_on_lcm_lattice(self):
        # faces: every sigma in supp(m) with m - e_sigma in the ideal
        rng = random.Random(113)
        ideals = [random_ideal(rng, nmax=5, max_gens=5, max_exp=2) for _ in range(60)]
        for ideal in ideals + boundary_ideals():
            for m in lattice_points(ideal):
                supp = [i for i in range(1, ideal.n + 1) if m[i - 1]]
                expected = sorted(
                    (sigma
                     for size in range(len(supp) + 1)
                     for sigma in combinations(supp, size)
                     if member_by_definition(
                         ideal, tuple(a - (i in sigma) for i, a in enumerate(m, start=1))
                     )),
                    key=lambda f: (len(f), f),
                )
                assert koszul_faces(ideal, m) == expected


class TestBettiTable:
    def test_principal(self):
        table = betti_table(MonomialIdeal(3, [(1, 2, 0)]))
        assert table == {(0, 3): 1}
        assert regularity(MonomialIdeal(3, [(1, 2, 0)])) == 3

    def test_koszul_complex(self):
        for n in (2, 3, 4):
            ideal = MonomialIdeal(n, [tuple(int(k == i) for k in range(n)) for i in range(n)])
            table = betti_table(ideal)
            assert table == {(i, i + 1): comb(n, i + 1) for i in range(n)}

    def test_path_ideal_table(self):
        # a plain map, in sorted key order
        table = betti_table(path_graph(4).edge_ideal())
        assert list(table.items()) == [((0, 2), 3), ((1, 3), 2)]

    def test_generator_counts_in_row_zero(self):
        rng = random.Random(97)
        for _ in range(30):
            ideal = random_ideal(rng)
            table = betti_table(ideal)
            by_degree = {}
            for g in ideal.gens:
                by_degree[degree(g)] = by_degree.get(degree(g), 0) + 1
            assert {j: b for (i, j), b in table.items() if i == 0} == by_degree

    def test_zero_ideal_rejected(self):
        with pytest.raises(ValueError):
            betti_table(MonomialIdeal(2, []))

    def test_builds_no_tuple_complex(self, monkeypatch):
        # the production path works on face masks; tuple faces serve the
        # restriction-complex route alone
        def refuse(facets):
            raise AssertionError("betti_table closed a tuple complex")

        rng = random.Random(131)
        ideals = [random_ideal(rng) for _ in range(10)] + [cycle_graph(5).edge_ideal()]
        monkeypatch.setattr(homology, "_closure", refuse)
        for ideal in ideals:
            assert betti_table(ideal)
            assert regularity(ideal, 2) >= 1
        with pytest.raises(AssertionError, match="tuple complex"):
            betti_table_hochster(cycle_graph(5).edge_ideal())

    def test_json_round_trip(self, capsys, monkeypatch):
        # ``ideal betti`` writes the map as {"char", "entries": [[i, j, beta], ...]}
        ideal = path_graph(4).edge_ideal()
        for char in (0, 2):
            monkeypatch.setattr("sys.stdin", io.StringIO(ideal.to_json()))
            assert cli.main(["ideal", "betti", "--char", str(char)]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data == {"char": char, "entries": [[0, 2, 3], [1, 3, 2]]}
            assert {(i, j): b for i, j, b in data["entries"]} == betti_table(ideal, char)

    def test_every_route_returns_sorted_nonzero_entries(self):
        rng = random.Random(137)
        for _ in range(20):
            ideal = random_ideal(rng, nmax=4, max_gens=4)
            polarized = polarize(ideal)
            for table in (betti_table(ideal), betti_table_taylor(ideal),
                          betti_table_hochster(polarized)):
                assert list(table) == sorted(table)
                assert all(b > 0 for b in table.values())

    def test_negative_betti_number_refused(self):
        with pytest.raises(ValueError, match="must be nonnegative"):
            homology._betti_map({(0, 2): 1, (1, 3): -1})


def non_maximal_facet_points(ideal):
    """The lcm-lattice points whose upper Koszul complex has a facet mask
    strictly inside another one."""
    packing, gens = ideal._packed
    points = []
    for m in lattice_points(ideal):
        facets = _koszul_facets(packing, gens, packing.pack(m))
        if any(f != g and not f & ~g for f in facets for g in facets):
            points.append(m)
    return points


class TestVertexStar:
    """``betti_table`` takes homology relative to the star of one vertex.
    Facets that are not maximal hide a cone from a test for a vertex shared
    by every facet, so these tests aim at them."""

    # x2^2 x3, x1 x2 x3, x1^2
    CONE = MonomialIdeal(3, [(0, 2, 1), (1, 1, 1), (2, 0, 0)])

    @pytest.mark.parametrize("char", [0, 2, 3])
    def test_hidden_cone_matches_taylor(self, char):
        # at (2, 2, 1) the facets are {x1}, {x1, x2}, {x2, x3}: no vertex is
        # in all three, yet both maximal ones hold x2
        assert (2, 2, 1) in non_maximal_facet_points(self.CONE)
        table = betti_table(self.CONE, char)
        assert table == betti_table_taylor(self.CONE, char)
        assert table == {(0, 2): 1, (0, 3): 2, (1, 4): 2}

    @pytest.mark.parametrize("char", [0, 2, 3])
    def test_non_maximal_facets_match_taylor(self, char):
        # these seeds find 25 such ideals in 139-200 draws; a broken lattice
        # may find none, so the draws are capped and the count checked
        rng = random.Random(149 + char)
        found = 0
        for _ in range(600):
            ideal = random_ideal(rng, nmax=5, max_gens=6, max_exp=3)
            if non_maximal_facet_points(ideal):
                found += 1
                assert betti_table(ideal, char) == betti_table_taylor(ideal, char), ideal.gens
                if found == 25:
                    break
        assert found == 25, f"{found} of 600 draws have a non-maximal facet, not 25"


class TestRegularity:
    def test_path_and_cycle(self):
        assert regularity(path_graph(4).edge_ideal()) == 2
        assert regularity(cycle_graph(5).edge_ideal()) == 3

    def test_linear_resolution(self):
        assert has_linear_resolution(path_graph(4).edge_ideal())
        assert not has_linear_resolution(cycle_graph(5).edge_ideal())
        with pytest.raises(ValueError):
            has_linear_resolution(MonomialIdeal(2, [(1, 0), (0, 2)]))

    def test_characteristic_dependence(self):
        face_set = {sub for f in PROJECTIVE_PLANE_FACETS
                    for k in range(len(f) + 1) for sub in combinations(f, k)}
        nonfaces = [
            tuple(1 if v in sub else 0 for v in range(1, 7))
            for size in range(1, 7)
            for sub in combinations(range(1, 7), size)
            if sub not in face_set
            and all(sub[:k] + sub[k + 1 :] in face_set for k in range(size))
        ]
        ideal = MonomialIdeal(6, nonfaces)
        assert len(ideal.gens) == 10
        assert regularity(ideal, 0) == 3
        assert has_linear_resolution(ideal, 0)
        assert regularity(ideal, 2) == 4
        assert not has_linear_resolution(ideal, 2)
        assert betti_table(ideal, 2)[(3, 6)] == 1

    def test_polarization_preserves_regularity(self):
        rng = random.Random(101)
        for _ in range(30):
            ideal = random_ideal(rng)
            assert regularity(ideal) == regularity(polarize(ideal))


class TestOracleAgreement:
    def test_three_routes_agree(self):
        rng = random.Random(103)
        for _ in range(40):
            ideal = random_ideal(rng)
            reference = betti_table(ideal)
            assert betti_table_taylor(ideal) == reference
            polarized = polarize(ideal)
            assert betti_table_hochster(polarized) == reference

    def test_three_routes_agree_char2(self):
        rng = random.Random(107)
        for _ in range(15):
            ideal = random_ideal(rng, nmax=4, max_gens=4)
            reference = betti_table(ideal, 2)
            assert betti_table_taylor(ideal, 2) == reference
            polarized = polarize(ideal)
            assert betti_table_hochster(polarized, 2) == reference

    @pytest.mark.parametrize("char", [0, 2, 3])
    def test_three_routes_agree_at_field_boundaries(self, char):
        for ideal in boundary_ideals():
            reference = betti_table(ideal, char)
            assert betti_table_taylor(ideal, char) == reference
            if ideal.is_unit():
                assert reference == {(0, 0): 1}
                continue
            polarized = polarize(ideal)
            # a restriction complex has up to 2^n faces, so the route is
            # checked on the narrow polarizations only (top <= 8)
            if polarized.n <= 10:
                assert betti_table_hochster(polarized, char) == reference

    def test_hochster_requires_squarefree(self):
        with pytest.raises(ValueError):
            betti_table_hochster(MonomialIdeal(2, [(2, 0)]))

    def test_taylor_cap(self):
        gens = [tuple(1 if k in pair else 0 for k in range(6)) for pair in combinations(range(6), 2)]
        with pytest.raises(ValueError):
            betti_table_taylor(MonomialIdeal(6, gens))


class TestLcmLattice:
    def test_contains_generators_and_top(self):
        ideal = path_graph(4).edge_ideal()
        lattice = lattice_points(ideal)
        for g in ideal.gens:
            assert g in lattice
        assert (1, 1, 1, 1) in lattice

    def test_matches_subset_enumeration(self):
        rng = random.Random(109)
        ideals = [random_ideal(rng, nmax=4, max_gens=8, max_exp=3) for _ in range(30)]
        for ideal in ideals + boundary_ideals():
            expected = set()
            gens = ideal.gens
            for size in range(1, len(gens) + 1):
                for combo in combinations(gens, size):
                    acc = combo[0]
                    for g in combo[1:]:
                        acc = tuple(max(a, b) for a, b in zip(acc, g))
                    expected.add(acc)
            assert set(lattice_points(ideal)) == expected
