"""Linear quotients recognition, complete search, and restriction inheritance."""

import random
import sys
from itertools import combinations, permutations

import pytest

from boundedpowers import (
    MonomialIdeal,
    SearchCapExceeded,
    SuiteConfig,
    bounded_power_chain,
    complete_graph,
    cycle_graph,
    degree,
    enumerate_labeled_graphs,
    find_lq_ordering,
    is_lq_ordering,
    path_graph,
    restrict_lq_ordering,
    run_suite,
)
from boundedpowers import suites
from boundedpowers.linquot import _lq_pair_data, search_ordering
from conftest import colon_mono

REMARK_IDEAL = MonomialIdeal(5, [(1, 1, 1, 0, 0), (1, 0, 0, 1, 1)])


def brute_force_has_lq(ideal) -> bool:
    """Try every permutation, unfolding the definition directly."""
    m = len(ideal.gens)
    for order in permutations(range(m)):
        if is_lq_ordering(ideal, order):
            return True
    return False


def random_ideal(rng, nmax=4, max_gens=5, max_exp=2):
    n = rng.randint(1, nmax)
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        g = tuple(rng.randint(0, max_exp) for _ in range(n))
        if any(g):
            gens.append(g)
    return MonomialIdeal(n, gens or [(1,) + (0,) * (n - 1)])


class TestIsLQOrdering:
    def test_single_generator_vacuous(self):
        assert is_lq_ordering(MonomialIdeal(2, [(1, 1)]), (0,))
        assert is_lq_ordering(MonomialIdeal(2, []), ())

    def test_path_both_orders(self):
        ideal = path_graph(3).edge_ideal()
        assert is_lq_ordering(ideal, (0, 1))
        assert is_lq_ordering(ideal, (1, 0))

    def test_remark_ideal_fails_both_orders(self):
        assert not is_lq_ordering(REMARK_IDEAL, (0, 1))
        assert not is_lq_ordering(REMARK_IDEAL, (1, 0))

    def test_not_a_permutation(self):
        ideal = path_graph(3).edge_ideal()
        with pytest.raises(ValueError):
            is_lq_ordering(ideal, (0, 0))
        with pytest.raises(ValueError):
            is_lq_ordering(ideal, (0,))

    def test_order_sensitivity(self):
        # gens sort to (x2^2, x1x2, x1^2); starting x1^2, x2^2 leaves a
        # degree-2 prefix colon with no variable to cover it
        ideal = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
        assert is_lq_ordering(ideal, (0, 1, 2))
        assert not is_lq_ordering(ideal, (2, 0, 1))


class TestFindLQOrdering:
    def test_remark_ideal_has_none(self):
        assert find_lq_ordering(REMARK_IDEAL) is None

    def test_principal(self):
        ordering = find_lq_ordering(MonomialIdeal(3, [(1, 2, 0)]))
        assert ordering == (0,)

    def test_zero_ideal(self):
        ordering = find_lq_ordering(MonomialIdeal(2, []))
        assert ordering == ()

    def test_chordal_complement_edge_ideals_found(self):
        for n in range(2, 5):
            for g in enumerate_labeled_graphs(n):
                if g.complement().is_chordal() and g.edges:
                    assert find_lq_ordering(g.edge_ideal()) is not None

    def test_agrees_with_permutation_brute_force(self):
        rng = random.Random(23)
        for _ in range(120):
            ideal = random_ideal(rng)
            if len(ideal.gens) > 6:
                continue
            found = find_lq_ordering(ideal)
            assert (found is not None) == brute_force_has_lq(ideal)
            if found is not None:
                assert is_lq_ordering(ideal, found)

    def test_cap_refusal(self):
        gens = [tuple(1 if k in pair else 0 for k in range(6)) for pair in combinations(range(6), 2)]
        big = MonomialIdeal(6, gens)
        with pytest.raises(SearchCapExceeded) as exc:
            find_lq_ordering(big, max_generators=5)
        assert str(exc.value) == "linear quotients search refused: 15 generators > cap 5"

    def test_deterministic_tie_break(self):
        ideal = path_graph(3).edge_ideal()
        assert find_lq_ordering(ideal) == (0, 1)

    @pytest.mark.parametrize("gens", [
        [(1, 0), (1, 1)],  # x1 divides x1*x2
        [(0, 1, 1), (1, 1, 0), (0, 1, 1)],  # unsorted, with a duplicate
        [(1, 1, 1), (1, 1, 0), (0, 1, 1), (1, 1, 0)],  # all three at once
    ])
    def test_order_is_valid_on_raw_generators(self, gens):
        ideal = MonomialIdeal(len(gens[0]), gens)
        ordering = find_lq_ordering(ideal)
        assert ordering is not None
        assert is_lq_ordering(ideal, ordering)


class TestRestrictOrdering:
    def test_full_bound_keeps_ordering(self):
        ideal = path_graph(4).edge_ideal()
        ordering = find_lq_ordering(ideal)
        induced = restrict_lq_ordering(ideal, ordering, (2,) * 4)
        assert ideal.restrict((2,) * 4) == ideal
        assert induced == ordering
        assert is_lq_ordering(ideal, induced)

    def test_single_survivor(self):
        ideal = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
        induced = restrict_lq_ordering(ideal, (0, 1, 2), (1, 1))
        assert ideal.restrict((1, 1)).gens == ((1, 1),)
        assert induced == (0,)
        assert is_lq_ordering(ideal.restrict((1, 1)), induced)

    def test_invalid_input_rejected(self):
        ideal = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
        with pytest.raises(ValueError):
            restrict_lq_ordering(ideal, (2, 0, 1), (1, 1))

    def test_bound_is_checked_before_the_ordering(self):
        # (0, 2, 1) has no linear quotients, but the bound is refused first
        ideal = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
        with pytest.raises(ValueError, match="ambient mismatch"):
            restrict_lq_ordering(ideal, (0, 2, 1), (1, 1, 1))
        with pytest.raises(ValueError, match="negative exponent"):
            restrict_lq_ordering(ideal, (0, 2, 1), (1, -1))

    def test_order_is_always_checked(self):
        # no flag or wrapper lets an ordering without linear quotients through
        ideal = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
        assert not is_lq_ordering(ideal, (0, 2, 1))
        with pytest.raises(ValueError, match="not a valid linear quotients ordering"):
            restrict_lq_ordering(ideal, (0, 2, 1), (2, 2))

    def test_induced_indices_match_restricted_generators(self):
        rng = random.Random(41)
        checked = 0
        while checked < 60:
            ideal = random_ideal(rng, nmax=4, max_gens=6)
            ordering = find_lq_ordering(ideal)
            if ordering is None:
                continue
            c = tuple(rng.randint(0, 3) for _ in range(ideal.n))
            restricted = ideal.restrict(c)
            expected = [g for g in (ideal.gens[i] for i in ordering) if g in restricted.gens]
            induced = restrict_lq_ordering(ideal, ordering, c)
            assert [restricted.gens[k] for k in induced] == expected
            checked += 1

    def test_inheritance_on_random_ideals(self):
        rng = random.Random(29)
        checked = 0
        while checked < 60:
            ideal = random_ideal(rng, nmax=4, max_gens=5)
            ordering = find_lq_ordering(ideal)
            if ordering is None:
                continue
            for _ in range(3):
                c = tuple(rng.randint(0, 3) for _ in range(ideal.n))
                induced = restrict_lq_ordering(ideal, ordering, c)
                assert is_lq_ordering(ideal.restrict(c), induced), (ideal, c)
            checked += 1

    def test_persistence_under_smaller_bounds(self):
        rng = random.Random(31)
        checked = 0
        while checked < 40:
            ideal = random_ideal(rng, nmax=4, max_gens=5)
            if find_lq_ordering(ideal) is None:
                continue
            c = tuple(rng.randint(0, 3) for _ in range(ideal.n))
            smaller = tuple(rng.randint(0, x) for x in c)
            if find_lq_ordering(ideal.restrict(c)) is not None:
                assert find_lq_ordering(ideal.restrict(smaller)) is not None
            checked += 1


def all_powers_lq(graph, c):
    """Whether every level of the chain (I(G)^s)_c has linear quotients."""
    chain = bounded_power_chain(graph.edge_ideal(), c)
    return all(find_lq_ordering(power) is not None for power in chain)


class TestAllBoundedPowersLQ:
    """Every (I(G)^s)_c, s = 1..delta, has linear quotients iff the complement
    of G is chordal: the statement the edge-lq suite checks on each chain."""

    def test_c4_true(self):
        assert all_powers_lq(cycle_graph(4), (1, 1, 1, 1))

    def test_c5_false(self):
        assert not all_powers_lq(cycle_graph(5), (1,) * 5)
        assert not cycle_graph(5).complement().is_chordal()

    def test_cap_refusal_keeps_order_and_message(self, tmp_path, monkeypatch):
        # K4 at c = 2: the first power has 6 generators and passes; the second
        # has 19 and is refused with that count, before any later power
        sizes = []
        original = suites.find_lq_ordering

        def find(ideal, *args):
            sizes.append(len(ideal.gens))
            return original(ideal, *args)

        monkeypatch.setattr(suites, "find_lq_ordering", find)
        path = tmp_path / "k4.g6"
        path.write_text(complete_graph(4).to_graph6() + "\n")
        report = run_suite(SuiteConfig(suite="edge-lq", graph6_path=str(path),
                                       c_policy="constant", c_value=2, max_generators=10))
        assert [(r["outcome"], r["s"], r["detail"]) for r in report.records] == [
            ("skip", None, "linear quotients search refused: 19 generators > cap 10")]
        assert sizes == [6, 19]

    def test_equivalence_with_chordal_complement(self):
        for n in range(1, 5):
            for g in enumerate_labeled_graphs(n):
                expected = g.complement().is_chordal()
                assert all_powers_lq(g, (1,) * n) == expected
                assert all_powers_lq(g, (2,) * n) == expected


class TestPairTable:
    """``_lq_pair_data`` against ``colon_mono``, reading each mask bit back as
    the variable whose field's guard bit it is."""

    @staticmethod
    def variables_of(mask, n, width):
        found = set()
        while mask:
            bit = (mask & -mask).bit_length() - 1
            assert bit % width == width - 1, "mask bit is not a guard bit"
            found.add(n - bit // width)
            mask &= mask - 1
        return found

    def assert_masks_match(self, ideal):
        width = ideal._packed[0].width
        supp_masks, var_bits = _lq_pair_data(ideal)
        for j, gj in enumerate(ideal.gens):
            for i, gi in enumerate(ideal.gens):
                colon = colon_mono(gj, gi)
                support = {k + 1 for k, a in enumerate(colon) if a}
                assert self.variables_of(supp_masks[j][i], ideal.n, width) == support
                expected = supp_masks[j][i] if degree(colon) == 1 else 0
                assert var_bits[j][i] == expected, (ideal, gj, gi)

    @pytest.mark.parametrize("max_exp", [1, 2, 3, 6, 7, 8])
    def test_masks_match_colon_mono(self, max_exp):
        rng = random.Random(31 + max_exp)
        for _ in range(40):
            self.assert_masks_match(random_ideal(rng, nmax=12, max_gens=6, max_exp=max_exp))

    @pytest.mark.parametrize("top", [1, 3, 7])
    def test_masks_match_colon_mono_on_chain_levels(self, top):
        # chain levels share a packing made for max(c); with max(c) one below
        # a power of two, a level can hold an exponent at max(c) next to a 0
        rng = random.Random(53 + top)
        edge = MonomialIdeal(2, [(2, 0), (0, top)])  # x1^2 : x2^top sits next to a 0
        self.assert_masks_match(bounded_power_chain(edge, (top, top))[0])
        for _ in range(30):
            ideal = random_ideal(rng, nmax=4, max_gens=4, max_exp=top)
            c = tuple(rng.choice((top, rng.randint(1, top))) for _ in range(ideal.n))
            for level in bounded_power_chain(ideal, c)[:3]:
                self.assert_masks_match(level)

    def test_off_diagonal_masks_are_nonzero(self):
        # search_ordering reads a 0 need mask as a pair met in advance, so
        # find_lq_ordering relies on minimal generators never giving one
        rng = random.Random(43)
        ideals = [random_ideal(rng, nmax=6, max_gens=8, max_exp=3) for _ in range(200)]
        ideals += bounded_power_chain(complete_graph(4).edge_ideal(), (2,) * 4)
        for ideal in ideals:
            supp_masks, _ = _lq_pair_data(ideal)
            for j, row in enumerate(supp_masks):
                assert all(mask for i, mask in enumerate(row) if i != j)

    def test_order_is_the_first_valid_permutation(self):
        # the search returns the lexicographically smallest ordering with
        # linear quotients, which brute force meets first in permutation order
        rng = random.Random(37)
        ideals = [random_ideal(rng, nmax=5, max_gens=8, max_exp=3) for _ in range(300)]
        for g in enumerate_labeled_graphs(4):
            ideals += bounded_power_chain(g.edge_ideal(), (2, 1, 2, 1))
        checked = 0
        for ideal in ideals:
            if not 3 <= len(ideal.gens) <= 6:
                continue
            first = next((order for order in permutations(range(len(ideal.gens)))
                          if is_lq_ordering(ideal, order)), None)
            found = find_lq_ordering(ideal)
            assert found == first
            checked += 1
        assert checked > 100


class TestSearchOrdering:
    @staticmethod
    def admissible(order, needs, var_bits):
        """The pair condition of ``search_ordering``, read off directly."""
        for pos, i in enumerate(order):
            placed = order[:pos]
            varmask = 0
            for k in placed:
                varmask |= var_bits[k][i]
            if any(needs[j][i] and not needs[j][i] & varmask for j in placed):
                return False
        return True

    def test_first_admissible_permutation_on_random_tables(self):
        rng = random.Random(41)
        found = 0
        for _ in range(400):
            m = rng.randint(0, 6)
            tables = (
                [[0 if rng.random() < 0.3 else rng.getrandbits(4) for _ in range(m)]
                 for _ in range(m)],
                [[1 << rng.randrange(4) if rng.random() < 0.4 else 0 for _ in range(m)]
                 for _ in range(m)],
            )
            first = next((order for order in permutations(range(m))
                          if self.admissible(order, *tables)), None)
            assert search_ordering(*tables) == first
            found += first is not None
        assert 50 < found < 350

    def test_deeper_than_the_recursion_limit(self):
        # i may follow any placed set that does not hold i + 1, so the only
        # ordering is 0, ..., m-1, one search level per element
        m = sys.getrecursionlimit() + 50
        needs = [[int(j == i + 1) for i in range(m)] for j in range(m)]
        assert search_ordering(needs, [[0] * m] * m) == tuple(range(m))
