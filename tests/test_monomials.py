"""Core monomial and ideal arithmetic, checked against enumeration oracles."""

import random
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

from boundedpowers import (
    Graph,
    MonomialIdeal,
    SuiteConfig,
    VerificationReport,
    bounded_power_chain,
    is_bounded,
)
from boundedpowers.monomials import _Packing
from conftest import colon_mono, member_by_definition, minimal_gens


def ideal(n, *gens):
    return MonomialIdeal(n, gens)


def member(i, u):
    """Membership as the library tests it: u lies in i iff some generator is
    u-bounded, i.e. ``i.restrict(u)`` is not the zero ideal."""
    return not i.restrict(u).is_zero()


small_ideals = st.builds(
    lambda n, gens: MonomialIdeal(n, [tuple(g[:n]) for g in gens]),
    st.integers(min_value=1, max_value=4),
    st.lists(st.tuples(*[st.integers(0, 2)] * 4), min_size=0, max_size=5),
)

small_bounds = st.tuples(*[st.integers(0, 3)] * 4)


class TestMonomialOps:
    def test_divides(self):
        # u divides v iff every exponent of u is <= that of v: membership of v
        # in the principal ideal (u)
        for u, v, expected in [((1, 1), (2, 1), True), ((1, 1), (1, 1), True),
                               ((2, 0), (1, 1), False)]:
            assert all(a <= b for a, b in zip(u, v)) == expected
            assert is_bounded(u, v) == expected

    def test_divides_ambient_mismatch(self):
        with pytest.raises(ValueError, match="ambient mismatch"):
            is_bounded((1,), (1, 1))

    def test_colon_mono(self):
        assert colon_mono((2, 1, 0), (1, 0, 1)) == (1, 1, 0)
        assert colon_mono((1, 1), (1, 1)) == (0, 0)
        assert colon_mono((1, 1, 1, 0), (0, 0, 0, 1)) == (1, 1, 1, 0)

    def test_is_bounded(self):
        assert is_bounded((1, 1), (1, 1))
        assert not is_bounded((2, 0), (1, 1))
        assert is_bounded((0, 0), (0, 0))


class TestMinimalize:
    def test_drops_multiples(self):
        assert ideal(2, (1, 0), (1, 1)).gens == ((1, 0),)

    def test_constructor_drops_duplicates_and_multiples(self):
        assert MonomialIdeal(2, [(1, 1), (1, 0), (1, 0)]).gens == ((1, 0),)

    def test_constructor_takes_any_iterable(self):
        gens = (list(g) for g in [(0, 2), (2, 0), (1, 2)])
        assert MonomialIdeal(2, gens).gens == ((0, 2), (2, 0))

    def test_empty_is_zero_ideal(self):
        assert MonomialIdeal(2, []).is_zero()

    def test_keeps_incomparable(self):
        result = ideal(3, (1, 1, 0), (0, 1, 1), (1, 1, 1))
        assert result.gens == ((0, 1, 1), (1, 1, 0))

    def test_idempotent(self):
        first = ideal(3, (1, 1, 0), (0, 1, 1), (1, 1, 1), (2, 1, 0))
        assert MonomialIdeal(3, first.gens) == first

    def test_canonical_sorting(self):
        a = ideal(2, (0, 2), (1, 1))
        b = ideal(2, (1, 1), (0, 2))
        assert a == b
        assert list(a.gens) == sorted(a.gens)

    def test_matches_definition_on_mixed_degrees(self):
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randint(1, 4)
            pool = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(0, 6))]
            monomials = pool + rng.choices(pool, k=len(pool) // 2)  # duplicates
            distinct = set(monomials)
            expected = sorted(
                u for u in distinct
                if not any(v != u and all(a <= b for a, b in zip(v, u)) for v in distinct)
            )
            assert MonomialIdeal(n, monomials).gens == tuple(expected)


class TestIdealOps:
    def test_power_principal(self):
        assert ideal(2, (1, 1)).power(2).gens == ((2, 2),)

    def test_power_zero_ideal(self):
        assert MonomialIdeal(2, []).power(3).is_zero()

    def test_power_veronese(self):
        v = ideal(2, (1, 0), (0, 1)).power(2)
        assert v.gens == ((0, 2), (1, 1), (2, 0))

    def test_power_one_is_identity(self):
        i = ideal(3, (1, 1, 0), (0, 0, 2))
        assert i.power(1) == i

    def test_restrict_at_generation_degree(self):
        i = ideal(3, (1, 1, 0), (0, 1, 1))
        assert i.restrict((2, 2, 2)) == i

    def test_restrict_filters(self):
        assert ideal(2, (2, 0), (1, 1)).restrict((1, 1)).gens == ((1, 1),)

    def test_restrict_squarefree_fixed_point(self):
        i = ideal(5, (1, 1, 1, 0, 0), (1, 0, 0, 1, 1))
        assert i.restrict((1,) * 5) == i

    def test_colon_principal(self):
        assert ideal(2, (2, 2)).colon((1, 1)).gens == ((1, 1),)

    def test_colon_by_one(self):
        i = ideal(3, (1, 1, 0), (0, 1, 1))
        assert i.colon((0, 0, 0)) == i

    def test_colon_splits_variables(self):
        assert ideal(3, (1, 1, 0), (0, 1, 1)).colon((0, 1, 0)).gens == (
            (0, 0, 1),
            (1, 0, 0),
        )

    def test_membership(self):
        i = ideal(2, (1, 1))
        assert member(i, (2, 1))
        assert not member(MonomialIdeal(2, []), (0, 0))
        assert not member(ideal(3, (1, 1, 0), (0, 1, 1)), (1, 0, 1))

    def test_ambient_mismatch(self):
        i = ideal(2, (1, 1))
        with pytest.raises(ValueError):
            i.restrict((1, 1, 1))
        with pytest.raises(ValueError):
            i.colon((1,))
        with pytest.raises(ValueError):
            i.restrict((1,))

    def test_json_round_trip(self):
        i = ideal(3, (1, 1, 0), (0, 1, 1))
        assert MonomialIdeal.from_json(i.to_json()) == i
        assert '"n": 3' in i.to_json()

    @pytest.mark.parametrize("text", [
        '{"n": true, "gens": [[1]]}',
        '{"n": 2, "gens": [[true, 1]]}',
        '{"n": 2, "gens": [[1, 0], [0, false]]}',
    ])
    def test_json_booleans_are_not_integers(self, text):
        with pytest.raises(ValueError, match="must look like"):
            MonomialIdeal.from_json(text)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            MonomialIdeal(2, [(-1, 0)])

    @pytest.mark.parametrize("monomials, message", [
        ([(1, 0), (2, 1, 0)], "ambient mismatch"),  # x1 divides the long one
        ([(1, 0), (5,)], "ambient mismatch"),  # and the short one
        ([(2, -1), (3, 0)], "negative exponent"),  # the bad one divides the good one
        ([(0, -2), (1, -1)], "negative exponent"),  # and another bad one
    ])
    def test_invalid_input_raises_kept_or_dropped(self, monomials, message):
        with pytest.raises(ValueError, match=message):
            MonomialIdeal(2, monomials)

    def test_unit_ideal_edge_cases(self):
        one = MonomialIdeal(2, [(0, 0), (1, 1)])
        assert one.is_unit()
        assert one.power(3) == one
        assert one.colon((2, 5)) == one
        assert one.restrict((0, 0)) == one
        assert MonomialIdeal(2, []).colon((1, 0)).is_zero()


class TestPackedMembership:
    """``restrict`` runs on the packed view and clamps its bound to the field
    capacity; its generators, and so membership, must agree with the
    definition everywhere."""

    @staticmethod
    def assert_restrict_matches(i, u):
        assert i.restrict(u).gens == tuple(g for g in i.gens if is_bounded(g, u)), (i, u)
        assert member(i, u) == member_by_definition(i, u), (i, u)

    def test_matches_definition_on_seeded_ideals(self):
        rng = random.Random(29)
        for _ in range(300):
            n = rng.randint(1, 4)
            i = MonomialIdeal(n, [tuple(rng.randint(0, 3) for _ in range(n))
                                  for _ in range(rng.randint(0, 5))])
            for _ in range(10):
                self.assert_restrict_matches(i, tuple(rng.randint(0, 5) for _ in range(n)))

    def test_far_above_the_top_exponent(self):
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(1, 4)
            i = MonomialIdeal(n, [tuple(rng.randint(0, 3) for _ in range(n))
                                  for _ in range(rng.randint(1, 5))])
            u = tuple(rng.choice((0, 1, 2, 3, 4, 8, 9, 100, 2**40)) for _ in range(n))
            self.assert_restrict_matches(i, u)

    def test_an_overflowing_exponent_does_not_carry(self):
        # unclamped, the 8 would spill into the field of x1
        assert MonomialIdeal(2, [(1, 0)]).restrict((0, 8)).is_zero()
        assert MonomialIdeal(2, [(1, 0), (0, 1)]).restrict((0, 8)).gens == ((0, 1),)
        assert member(MonomialIdeal(2, [(1, 0)]), (1, 8))

    def test_unit_and_zero_ideals(self):
        for u in [(0, 0), (3, 0), (2**40, 7)]:
            assert MonomialIdeal(2, [(0, 0)]).restrict(u).is_unit()
            assert MonomialIdeal(2, []).restrict(u).is_zero()

    def test_takes_any_iterable_once(self):
        i = MonomialIdeal(2, [(1, 0)])
        assert i.restrict(iter((1, 0))) == i and i.restrict([2, 1]) == i
        assert i.restrict(iter((0, 5))).is_zero()

    def test_view_is_built_once_and_leaves_equality_alone(self):
        i = ideal(2, (2, 0), (1, 1))
        assert i._packed is i._packed
        assert i == ideal(2, (1, 1), (2, 0)) and hash(i) == hash(ideal(2, (2, 0), (1, 1)))


class TestJoins:
    """``_Packing.joins``, the one packed lcm, against the tuple max, with
    fields at, just below and well below the capacity."""

    @pytest.mark.parametrize("top", [0, 1, 2, 3, 6, 7, 8, 15])
    def test_matches_tuple_max(self, top):
        rng = random.Random(83 + top)
        for _ in range(40):
            n = rng.randint(1, 5)
            packing = _Packing(n, top)
            values = (0, 1, top, packing.cap - 1, packing.cap)
            points = [tuple(rng.choice(values + (rng.randint(0, packing.cap),)) for _ in range(n))
                      for _ in range(rng.randint(1, 6))]
            packed = list(map(packing.pack, points))
            for b, p in zip(points, packed):
                joins = list(map(packing.unpack, packing.joins(p, packed)))
                assert joins == [tuple(map(max, a, b)) for a in points], (top, b, points)


def colon_by_definition(i, u):
    return MonomialIdeal(i.n, [colon_mono(g, u) for g in i.gens])


class TestPackedColon:
    """``colon`` runs on the packed view with u clamped to the field
    capacity; it must agree with ``colon_mono`` everywhere."""

    def test_matches_colon_mono_on_seeded_ideals(self):
        rng = random.Random(37)
        for _ in range(300):
            n = rng.randint(1, 4)
            i = MonomialIdeal(n, [tuple(rng.randint(0, 3) for _ in range(n))
                                  for _ in range(rng.randint(0, 6))])
            for _ in range(10):
                u = tuple(rng.randint(0, 5) for _ in range(n))
                assert i.colon(u) == colon_by_definition(i, u), (i, u)

    def test_far_above_the_top_exponent(self):
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randint(1, 4)
            i = MonomialIdeal(n, [tuple(rng.randint(0, 3) for _ in range(n))
                                  for _ in range(rng.randint(1, 5))])
            u = tuple(rng.choice((0, 1, 2, 3, 4, 5, 7, 8, 9, 100, 2**40)) for _ in range(n))
            assert i.colon(u) == colon_by_definition(i, u), (i, u)

    def test_an_overflowing_exponent_does_not_borrow(self):
        # unclamped, the 8 would borrow from the field of x1
        assert MonomialIdeal(2, [(1, 0)]).colon((0, 8)) == MonomialIdeal(2, [(1, 0)])
        assert MonomialIdeal(2, [(3, 1), (0, 2)]).colon((1, 9)).gens == ((0, 0),)
        assert MonomialIdeal(2, [(3, 1)]).colon((1, 9)).gens == ((2, 0),)

    def test_unit_zero_and_one_variable(self):
        for u in [(0, 0), (3, 0), (2**40, 7)]:
            assert MonomialIdeal(2, [(0, 0)]).colon(u).is_unit()
            assert MonomialIdeal(2, []).colon(u).is_zero()
        for top in range(6):
            for a in range(9):
                assert MonomialIdeal(1, [(top,)]).colon((a,)).gens == ((max(top - a, 0),),)


class TestBornPacked:
    """Every way an ideal is built (the constructor, ``colon``, ``restrict``,
    the bounded-power levels and ``power``) gives the generators of the tuple
    oracle ``minimal_gens``, with a packed view that unpacks to them and a
    field capacity above every exponent."""

    @staticmethod
    def assert_born(ideal, gens):
        assert ideal.gens == minimal_gens(gens), (ideal, gens)
        packing, packed = ideal._packed
        assert tuple(map(packing.unpack, packed)) == ideal.gens
        assert all(a < packing.cap for g in ideal.gens for a in g)

    @staticmethod
    def inputs(seed, count):
        """Seeded mixed-degree generator lists with duplicates, strict
        multiples, the zero and unit ideals, and exponents on either side of
        a change of field width."""
        rng = random.Random(seed)
        yield 2, []
        yield 2, [(0, 0), (1, 1), (0, 0)]
        for _ in range(count):
            n = rng.randint(1, 4)
            top = rng.choice((1, 2, 3, 4, 6, 7, 8, 15))
            values = (0, 1, top - 1, top)
            pool = [tuple(rng.choice(values + (rng.randint(0, top),)) for _ in range(n))
                    for _ in range(rng.randint(1, 6))]
            pool += rng.choices(pool, k=len(pool) // 2)
            pool += [tuple(a + rng.randint(0, 1) for a in g) for g in rng.choices(pool, k=2)]
            if rng.random() < 0.05:
                pool.append((0,) * n)
            yield n, pool

    @staticmethod
    def probes(rng, ideal):
        """Monomials at, below and above the field capacity of the view."""
        cap, top = ideal._packed[0].cap, max(map(max, ideal.gens), default=0)
        values = (0, 1, top - 1, top, cap - 1, cap, cap + 1, 2**40)
        return [tuple(max(rng.choice(values), 0) for _ in range(ideal.n)) for _ in range(4)]

    def test_constructor(self):
        for n, pool in self.inputs(59, 300):
            self.assert_born(MonomialIdeal(n, pool), pool)

    def test_colon_and_restrict(self):
        rng = random.Random(61)
        for n, pool in self.inputs(67, 300):
            ideal = MonomialIdeal(n, pool)
            for u in self.probes(rng, ideal):
                self.assert_born(ideal.colon(u), [colon_mono(g, u) for g in ideal.gens])
                self.assert_born(ideal.restrict(u), [g for g in ideal.gens if is_bounded(g, u)])

    def test_bounded_power_chain_levels(self):
        rng = random.Random(71)
        for n, pool in self.inputs(73, 150):
            ideal = MonomialIdeal(n, pool)
            if ideal.is_unit() or ideal.is_zero():
                continue
            # max(c) at 1, 3 or 7 fills the field a packing for max(c) - 1 has
            c = tuple(rng.choice((1, 2, 3, 4, 7)) for _ in range(n))
            base = [g for g in ideal.gens if is_bounded(g, c)]
            level = set(base)
            for built in bounded_power_chain(ideal, c):
                self.assert_born(built, level)
                # colons of a level run on the packing the chain shares
                for u in self.probes(rng, built)[:2]:
                    self.assert_born(built.colon(u), [colon_mono(g, u) for g in built.gens])
                level = {p for q in level for g in base
                         if is_bounded(p := tuple(map(sum, zip(q, g))), c)}
            assert not level

    def test_power(self):
        for n, pool in self.inputs(79, 120):
            ideal = MonomialIdeal(n, pool)
            for s in (1, 2, 3):
                products = [tuple(map(sum, zip(*combo)))
                            for combo in combinations_with_replacement(ideal.gens, s)]
                self.assert_born(ideal.power(s), products)


class TestValueObjects:
    """The value classes compare, hash and print by their fields, and refuse
    assignment after construction."""

    @pytest.mark.parametrize("make, text", [
        (lambda: MonomialIdeal(2, [(1, 1), (2, 0)]),
         "MonomialIdeal(n=2, gens=((1, 1), (2, 0)))"),
        (lambda: Graph(2, frozenset({(1, 2)})), "Graph(n=2, edges=frozenset({(1, 2)}))"),
        (lambda: SuiteConfig(suite="remark45"),
         "SuiteConfig(suite='remark45', nmax=None, graph6_path=None, random_count=None, "
         "random_nmax=5, seed=0, c_policy='ones', c_value=1, c_explicit=None, char=0, "
         "max_generators=24, max_s=None, jobs=1)"),
        (lambda: VerificationReport({}, [], [], {"fail": 0}),
         "VerificationReport(config={}, records=[], counterexamples=[], summary={'fail': 0}, "
         "timings={})"),
    ], ids=["MonomialIdeal", "Graph", "SuiteConfig", "VerificationReport"])
    def test_equality_repr_and_no_assignment(self, make, text):
        value = make()
        assert value == make() and value != object() and repr(value) == text
        if not isinstance(value, VerificationReport):  # its fields are mutable
            assert hash(value) == hash(make())
        name = text[text.index("(") + 1:text.index("=")]
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
        assert repr(value) == text

    def test_equal_fields_of_another_class_differ(self):
        assert MonomialIdeal(1, []) != Graph(1)
        assert Graph(3) != Graph(3, frozenset({(1, 2)})) and Graph(3) == Graph(3, frozenset())


class TestRestrictOracle:
    @settings(max_examples=60, deadline=None)
    @given(small_ideals, small_bounds)
    def test_restrict_equals_generator_filter(self, i, c):
        c = c[: i.n]
        restricted = i.restrict(c)
        assert restricted.gens == tuple(g for g in i.gens if is_bounded(g, c))

    @settings(max_examples=40, deadline=None)
    @given(small_ideals, small_bounds)
    def test_restrict_equals_membership_enumeration(self, i, c):
        c = c[: i.n]
        members = [
            u
            for u in product(*[range(x + 1) for x in c])
            if member_by_definition(i, u)
        ]
        assert i.restrict(c) == MonomialIdeal(i.n, members)

    @settings(max_examples=60, deadline=None)
    @given(small_ideals, small_bounds, small_bounds)
    def test_restrict_monotone(self, i, big, small):
        big = big[: i.n]
        small = tuple(min(a, b) for a, b in zip(small[: i.n], big))
        smaller = set(i.restrict(small).gens)
        larger = set(i.restrict(big).gens)
        assert smaller <= larger
