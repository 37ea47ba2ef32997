"""Exact arithmetic on monomials and monomial ideals.

Monomials are exponent vectors: plain tuples of nonnegative ints of a fixed
length n (the ambient variable count).  Variables are 1-based, so the exponent
of x_i lives at index i-1.  A :class:`MonomialIdeal` stores the canonical
minimal generating set, which its constructor makes from any generators:
sorted lexicographically, pairwise non-dividing.  Equality of ideals is
equality of representations.  Every ideal is born with its packed view: one
constructor core minimalizes packed ints, from tuples or straight from packed
colons, restrictions and bounded-power levels.
"""

from __future__ import annotations

import json
from math import isqrt
from typing import Iterable, Sequence

Monomial = tuple[int, ...]
BoundVector = tuple[int, ...]


def degree(u: Monomial) -> int:
    return sum(u)

def support(u: Monomial) -> tuple[int, ...]:
    """1-based indices of the variables dividing u."""
    return tuple(i + 1 for i, a in enumerate(u) if a > 0)


def is_bounded(u: Monomial, c: BoundVector) -> bool:
    """True iff u is entrywise <= c.  With c = (1,...,1) this is squarefreeness."""
    if len(u) != len(c):
        raise ValueError(f"ambient mismatch: {len(u)} vs {len(c)}")
    return all(a <= b for a, b in zip(u, c))


def check_characteristic(char: int) -> None:
    """Raise ValueError unless ``char`` is 0 or a prime: the field
    characteristics that homology computes over."""
    if char != 0 and (char < 2 or any(char % d == 0 for d in range(2, isqrt(char) + 1))):
        raise ValueError(f"characteristic must be 0 or a prime, got {char}")


def _is_int_rows(rows: object, width: int | None = None) -> bool:
    """Whether decoded JSON is a list of lists of ints, each ``width`` long if
    given.  ``bool`` is a subclass of ``int``, so ``true`` is refused by type."""
    return isinstance(rows, list) and all(
        isinstance(r, list) and width in (None, len(r)) and all(type(a) is int for a in r)
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
    hold values 0..cap, with cap above the largest exponent stored (``top``),
    and the field's top bit is a guard bit.  Variable 1 sits in the most
    significant field, so the numeric order of packed ints is the
    lexicographic order of their exponent vectors.  While every field stays
    below its guard, a field-wise comparison is one subtraction and a mask:
    ``v`` divides ``u`` iff ``((u | guard) - v) & guard == guard``.
    """

    def __init__(self, n: int, top: int) -> None:
        self.width = w = (top + 1).bit_length() + 1
        self.cap = (1 << w - 1) - 1
        self.ones = sum(1 << (k * w) for k in range(n))  # a 1 in every field
        self.guard = self.ones << (w - 1)
        self._shifts = tuple(range((n - 1) * w, -1, -w))
        self._field = (1 << w) - 1
        self.variables = tuple(1 << shift for shift in self._shifts)  # x_1..x_n

    def pack(self, u: Iterable[int]) -> int:
        """The packed form of an exponent vector with entries in 0..cap."""
        p, w = 0, self.width
        for a in u:
            p = p << w | a
        return p

    def unpack(self, p: int) -> Monomial:
        """The exponent vector in the n fields of p; bits above them are ignored."""
        field = self._field
        return tuple([p >> shift & field for shift in self._shifts])

    def joins(self, b: int, points: Iterable[int]) -> list[int]:
        """The field-wise max (the lcm) of packed b with each packed point,
        all fields in 0..cap.  ``ge = ((a | guard) - b) & guard`` has the guard
        bit of each field where a >= b, ``mask = ge - (ge >> (width - 1))``
        fills the low bits of those fields, and the join takes a there and b
        elsewhere."""
        guard, shift = self.guard, self.width - 1
        out = []
        for a in points:
            ge = ((a | guard) - b) & guard
            mask = ge - (ge >> shift)
            out.append((a & mask) | (b & ~mask))
        return out


class _Value:
    """Equality, hashing and repr by the attributes a subclass names in
    ``_fields`` and sets in ``__init__`` through ``__dict__``; assignment
    raises.  (``dataclasses`` would cost every run its import.)"""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class MonomialIdeal(_Value):
    """A monomial ideal, stored as its canonical minimal generating set.

    The constructor accepts any iterable of exponent sequences and keeps the
    canonical form: duplicates and strict multiples are dropped, and ``gens``
    is lexicographically sorted and pairwise non-dividing.  An empty input
    gives the zero ideal, and ``gens == ((0,)*n,)`` is the unit ideal.  Every
    distinct input is validated once, so a wrong-length or negative monomial
    raises ValueError even when it would have been dropped.
    """

    _fields = ("n", "gens")

    def __init__(self, n: int, gens: Iterable[Sequence[int]]) -> None:
        if n < 1:
            raise ValueError("ambient variable count must be positive")
        distinct = set(map(tuple, gens))
        for u in distinct:
            if len(u) != n or min(u) < 0:
                _check_monomial(n, u)  # raises, naming the fault
        packing = _Packing(n, max(map(max, distinct), default=0))
        self._keep_minimal(n, packing, {packing.pack(u): u for u in distinct})

    @classmethod
    def _from_packed(cls, n: int, packing: _Packing, packed: Iterable[int]) -> "MonomialIdeal":
        """The ideal generated by packed monomials, unvalidated."""
        return cls.__new__(cls)._keep_minimal(n, packing, {p: packing.unpack(p) for p in packed})

    def _keep_minimal(self, n: int, packing: _Packing,
                      unpacked: dict[int, Monomial]) -> "MonomialIdeal":
        """The constructor core: of distinct monomials, keyed packed, keep the
        minimal ones as ``gens`` and as the packed view ``_packed = (packing,
        packed gens)``, both in lexicographic order.  A candidate is tested
        only against kept generators of strictly lower degree: a proper
        divisor has lower degree, and two distinct monomials of equal degree
        never divide each other, so an equigenerated input (every bounded
        power of an edge ideal) makes no divisibility test.
        """
        by_degree: dict[int, list[int]] = {}
        for p, u in unpacked.items():
            by_degree.setdefault(sum(u), []).append(p)
        guard, kept = packing.guard, []
        for d in sorted(by_degree):
            lower = tuple(kept)
            kept += [p for p in by_degree[d]
                     if not (lower and any(((p | guard) - v) & guard == guard for v in lower))]
        kept.sort()  # numeric order is lexicographic order
        self.__dict__.update(n=n, gens=tuple([unpacked[p] for p in kept]),
                             _packed=(packing, tuple(kept)))
        return self

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return len(self.gens) == 1 and degree(self.gens[0]) == 0

    def restrict(self, c: BoundVector) -> "MonomialIdeal":
        """The subideal generated by the c-bounded monomials of self.

        Keeping exactly the c-bounded generators is sound: any c-bounded member
        of the ideal is divisible by a generator, which is then c-bounded too.
        Runs on the packed view, c clamped to the field capacity; u lies in
        the ideal iff ``restrict(u)`` is not the zero ideal.
        """
        c = _check_monomial(self.n, c)
        packing, gens = self._packed
        guard = packing.guard
        guarded = packing.pack(min(a, packing.cap) for a in c) | guard
        return MonomialIdeal._from_packed(
            self.n, packing, [g for g in gens if (guarded - g) & guard == guard])

    def power(self, s: int) -> "MonomialIdeal":
        """The s-th ordinary power, s >= 1: the bounded power under c = s times
        the largest exponent of each variable (0 in the zero ideal), which every
        s-fold product meets."""
        if s < 1:
            raise ValueError(f"power wants s >= 1, got {s}")
        from .powers import bounded_power
        return bounded_power(self, s, tuple(s * max(col) for col in zip((0,) * self.n, *self.gens)))

    def colon(self, u: Monomial) -> "MonomialIdeal":
        """The colon ideal (self : u), generated by the g : u over generators g.

        On the packed view, u clamped as in ``restrict``: ``d = (g | guard) - u``
        borrows no bit between fields, ``ge = d & guard`` flags g_k >= u_k, and
        ``ge - (ge >> (width - 1))`` masks the value bits of those fields.
        """
        u = _check_monomial(self.n, u)
        packing, gens = self._packed
        low, guard = packing.width - 1, packing.guard
        clamped = packing.pack(min(a, packing.cap) for a in u)
        colons = set()
        for g in gens:
            d = (g | guard) - clamped
            ge = d & guard
            colons.add(d & (ge - (ge >> low)))
        return MonomialIdeal._from_packed(self.n, packing, colons)

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "gens": [list(g) for g in self.gens]})

    @classmethod
    def from_json(cls, text: str) -> "MonomialIdeal":
        data = json.loads(text)
        if not (isinstance(data, dict) and type(data.get("n")) is int
                and _is_int_rows(data.get("gens"))):
            raise ValueError('ideal JSON must look like {"n": int, "gens": [[int,...],...]}')
        return cls(data["n"], data["gens"])

    def __str__(self) -> str:
        if self.is_zero():
            return "(0)"
        return "(" + ", ".join(format_monomial(g) for g in self.gens) + ")"


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
