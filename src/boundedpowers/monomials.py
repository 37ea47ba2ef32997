"""Exact arithmetic on monomials and monomial ideals.

Monomials are exponent vectors: plain tuples of nonnegative ints of a fixed
length n (the ambient variable count).  Variables are 1-based, so the exponent
of x_i lives at index i-1.  A :class:`MonomialIdeal` is the canonical minimal
generating set: generators sorted lexicographically, pairwise non-dividing.
Equality of ideals is equality of representations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations_with_replacement, groupby
from typing import Iterable, Sequence

Monomial = tuple[int, ...]
BoundVector = tuple[int, ...]


def unit(n: int) -> Monomial:
    """The monomial 1 in n variables (all-zero exponent vector)."""
    return (0,) * n


def variable(n: int, i: int) -> Monomial:
    """The monomial x_i (1-based) in n variables."""
    if not 1 <= i <= n:
        raise ValueError(f"variable index {i} out of range 1..{n}")
    return tuple(1 if k == i - 1 else 0 for k in range(n))


def degree(u: Monomial) -> int:
    return sum(u)

def support(u: Monomial) -> tuple[int, ...]:
    """1-based indices of the variables dividing u."""
    return tuple(i + 1 for i, a in enumerate(u) if a > 0)


def mul(u: Monomial, v: Monomial) -> Monomial:
    _check_same_ambient(u, v)
    return tuple(a + b for a, b in zip(u, v))


def lcm(u: Monomial, v: Monomial) -> Monomial:
    _check_same_ambient(u, v)
    return tuple(max(a, b) for a, b in zip(u, v))


def gcd(u: Monomial, v: Monomial) -> Monomial:
    _check_same_ambient(u, v)
    return tuple(min(a, b) for a, b in zip(u, v))


def divides(u: Monomial, v: Monomial) -> bool:
    """True iff u divides v, i.e. every exponent of u is <= that of v."""
    _check_same_ambient(u, v)
    return all(a <= b for a, b in zip(u, v))


def colon_mono(u: Monomial, v: Monomial) -> Monomial:
    """The monomial u : v = u / gcd(u, v), entrywise max(a - b, 0)."""
    _check_same_ambient(u, v)
    return tuple(max(a - b, 0) for a, b in zip(u, v))


def is_bounded(u: Monomial, c: BoundVector) -> bool:
    """True iff u is entrywise <= c.  With c = (1,...,1) this is squarefreeness."""
    _check_same_ambient(u, c)
    return all(a <= b for a, b in zip(u, c))


def leq_componentwise(c1: Sequence[int], c2: Sequence[int]) -> bool:
    """The componentwise partial order on bound vectors."""
    if len(c1) != len(c2):
        raise ValueError(f"ambient mismatch: {len(c1)} vs {len(c2)}")
    return all(a <= b for a, b in zip(c1, c2))


def _check_same_ambient(u: Sequence[int], v: Sequence[int]) -> None:
    if len(u) != len(v):
        raise ValueError(f"ambient mismatch: {len(u)} vs {len(v)}")


def _is_int_rows(rows: object, width: int | None = None) -> bool:
    """Whether decoded JSON is a list of lists of ints, each ``width`` long if given."""
    return isinstance(rows, list) and all(
        isinstance(r, list) and width in (None, len(r)) and all(isinstance(a, int) for a in r)
        for r in rows
    )


def _check_monomial(n: int, u: Sequence[int]) -> Monomial:
    t = tuple(u)
    if len(t) != n:
        raise ValueError(f"ambient mismatch: monomial has {len(t)} entries, expected {n}")
    if min(t, default=0) < 0:
        raise ValueError(f"negative exponent in {t}")
    return t


class _Packing:
    """Monomials in n variables packed into one int, for the hot loops.

    Each exponent gets a field of ``width`` bits; the low ``width - 1`` bits
    hold values 0..top and the field's top bit is a guard bit.  Variable 1
    sits in the most significant field, so the numeric order of packed ints
    is the lexicographic order of their exponent vectors.  While every field
    stays below its guard, a field-wise comparison is one subtraction and a
    mask: ``v`` divides ``u`` iff ``((u | guard) - v) & guard == guard``.
    """

    def __init__(self, n: int, top: int) -> None:
        self.width = w = top.bit_length() + 1
        self.ones = sum(1 << (k * w) for k in range(n))  # a 1 in every field
        self.guard = self.ones << (w - 1)
        self._shifts = tuple(range((n - 1) * w, -1, -w))
        self._field = (1 << w) - 1

    def pack(self, u: Sequence[int]) -> int:
        """The packed form of an exponent vector with entries in 0..top."""
        p = 0
        for a in u:
            p = p << self.width | a
        return p

    def unpack(self, p: int) -> Monomial:
        """The exponent vector in the n fields of p; bits above them are ignored."""
        field = self._field
        return tuple([p >> shift & field for shift in self._shifts])


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its canonical minimal generating set.

    ``gens`` is lexicographically sorted and pairwise non-dividing; the empty
    tuple is the zero ideal and ``((0,)*n,)`` the unit ideal.  Build instances
    through :func:`minimalize` (or the methods below) so the invariants hold.
    """

    n: int
    gens: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("ambient variable count must be positive")
        for g in self.gens:
            _check_monomial(self.n, g)

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return len(self.gens) == 1 and degree(self.gens[0]) == 0

    def contains(self, u: Monomial) -> bool:
        """Ideal membership: some generator divides u."""
        _check_monomial(self.n, u)
        return any(divides(g, u) for g in self.gens)

    def restrict(self, c: BoundVector) -> "MonomialIdeal":
        """The subideal generated by the c-bounded monomials of self.

        Keeping exactly the c-bounded generators is sound: any c-bounded member
        of the ideal is divisible by a generator, which is then c-bounded too.
        """
        c = _check_monomial(self.n, c)
        kept = tuple(g for g in self.gens if is_bounded(g, c))
        # a subset of a minimal generating set is minimal and stays sorted
        return MonomialIdeal(self.n, kept)

    def power(self, s: int) -> "MonomialIdeal":
        """The s-th ordinary power, s >= 1, by multiset products of generators."""
        if s < 1:
            raise ValueError(f"power wants s >= 1, got {s}")
        if self.is_zero() or s == 1:
            return self
        products = set()
        for combo in combinations_with_replacement(self.gens, s):
            prod = [0] * self.n
            for g in combo:
                for i, a in enumerate(g):
                    prod[i] += a
            products.add(tuple(prod))
        return minimalize(self.n, products)

    def colon(self, u: Monomial) -> "MonomialIdeal":
        """The colon ideal (self : u), generated by the g : u over generators g."""
        u = _check_monomial(self.n, u)
        return minimalize(self.n, (colon_mono(g, u) for g in self.gens))

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "gens": [list(g) for g in self.gens]})

    @classmethod
    def from_json(cls, text: str) -> "MonomialIdeal":
        data = json.loads(text)
        if not (isinstance(data, dict) and isinstance(data.get("n"), int)
                and _is_int_rows(data.get("gens"))):
            raise ValueError('ideal JSON must look like {"n": int, "gens": [[int,...],...]}')
        return minimalize(data["n"], (tuple(g) for g in data["gens"]))

    def __str__(self) -> str:
        if self.is_zero():
            return "(0)"
        return "(" + ", ".join(format_monomial(g) for g in self.gens) + ")"


def minimalize(n: int, monomials: Iterable[Sequence[int]]) -> MonomialIdeal:
    """The ideal generated by ``monomials``: drop every strictly divisible one.

    A candidate is tested only against kept generators of strictly lower
    degree.  That is enough: a proper divisor has lower degree, and two
    distinct monomials of equal degree never divide each other, so an
    equigenerated input (every bounded power of an edge ideal) makes no
    divisibility test at all.  The empty input yields the zero ideal.
    Output generators are sorted lexicographically on exponent entries.
    A wrong-length or negative input raises ValueError even when it would
    have been dropped.
    """
    ms = sorted(set(map(tuple, monomials)), key=degree)
    kept: list[Monomial] = []
    dropped: list[Monomial] = []
    for _, same_degree in groupby(ms, key=degree):
        lower = tuple(kept)
        for u in same_degree:
            divisible = any(all(a <= b for a, b in zip(v, u)) for v in lower)
            (dropped if divisible else kept).append(u)
    # every input is validated exactly once: the dropped ones here, the kept
    # ones by the MonomialIdeal constructor
    for u in dropped:
        _check_monomial(n, u)
    return MonomialIdeal(n, tuple(sorted(kept)))


def format_monomial(u: Monomial) -> str:
    if degree(u) == 0:
        return "1"
    parts = []
    for i, a in enumerate(u):
        if a == 1:
            parts.append(f"x{i + 1}")
        elif a > 1:
            parts.append(f"x{i + 1}^{a}")
    return "*".join(parts)
