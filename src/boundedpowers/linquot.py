"""Linear quotients orderings: recognition, search, and restriction.

An ordering is a tuple of indices into ``ideal.gens``, the sorted minimal
generators.  An ordering u_1, ..., u_m has linear quotients when every prefix
colon ideal (u_1, ..., u_{i-1}) : u_i is generated by variables; equivalently,
for every j < i some k < i has u_k : u_i equal to a single variable dividing
u_j : u_i.  The search for an ordering is complete backtracking over
"admissible next generator", memoized on the chosen subset: admissibility
depends only on the set of generators already placed, not on their sequence.
The colon-splitting labeling of consecutive bounded powers runs the same
search with some pairs met in advance.
"""

from __future__ import annotations

from .monomials import BoundVector, MonomialIdeal, degree

DEFAULT_GENERATOR_CAP = 24


class SearchCapExceeded(RuntimeError):
    """Raised when an ordering search is refused because the ideal has too
    many generators for the configured cap.  Never silent."""


def _check_permutation(ideal: MonomialIdeal, order: tuple[int, ...]) -> None:
    if sorted(order) != list(range(len(ideal.gens))):
        raise ValueError(f"{order} is not a permutation of 0..{len(ideal.gens) - 1}")


def is_lq_ordering(ideal: MonomialIdeal, order: tuple[int, ...]) -> bool:
    """True iff the given generator ordering has linear quotients, checked
    from the definition: each prefix colon ideal has only degree-1 generators."""
    _check_permutation(ideal, order)
    gens = [ideal.gens[i] for i in order]
    return all(degree(w) == 1 for i in range(1, len(gens))
               for w in MonomialIdeal(ideal.n, gens[:i]).colon(gens[i]).gens)


def search_ordering(needs: list[list[int]], var_bits: list[list[int]]) -> tuple[int, ...] | None:
    """Backtracking search for an ordering of 0..m-1, m = len(needs), by pair conditions.

    Element i may follow the placed set S iff for every j in S the mask
    ``needs[j][i]`` is 0 (the pair is met in advance) or shares a bit with
    ``var_bits[k][i]`` for some k in S.  Failed placed-sets are memoized as
    bitmasks; candidates are tried in ascending index order, so the first
    complete ordering found is the lexicographically smallest valid one.
    The search keeps its own stack, so its depth m is not bounded by the
    interpreter's recursion limit.
    Masks are only combined with ``&`` and ``|``, so their bits may stand for
    variables in any fixed layout: ``_lq_pair_data`` puts each variable at its
    field's guard-bit position, not at its variable index.
    """
    m = len(needs)
    full = (1 << m) - 1
    failed: set[int] = set()
    order: list[int] = []
    # one frame per placed prefix: its set, the OR of var_bits[k][i] over the
    # placed k for every candidate i, and the next candidate to try
    stack: list[tuple[int, list[int], int]] = [(0, [0] * m, 0)]
    while stack:
        mask, varmasks, start = stack[-1]
        if mask == full:
            return tuple(order)
        for i in range(start, m):
            if mask >> i & 1 or mask | 1 << i in failed:
                continue
            varmask = varmasks[i]
            rest = mask
            while rest:
                need = needs[(rest & -rest).bit_length() - 1][i]
                if need and not need & varmask:
                    break
                rest &= rest - 1
            if not rest:
                stack[-1] = (mask, varmasks, i + 1)
                stack.append((mask | 1 << i, [a | b for a, b in zip(varmasks, var_bits[i])], 0))
                order.append(i)
                break
        else:
            failed.add(mask)
            stack.pop()
            if order:
                order.pop()
    return None


def _lq_pair_data(ideal: MonomialIdeal):
    """Per pair (j, i): the support bitmask of gens[j] : gens[i], and the same
    mask again in ``var_bits`` when that colon is a single variable.

    The support mask is 0 only when gens[j] divides gens[i], so off the
    diagonal it is never 0 for the minimal generators of a ``MonomialIdeal``;
    ``search_ordering`` can therefore read a 0 as a pair met in advance.
    Both come from the ideal's packed view, whose field capacity is above
    every exponent.  With guard bits H and a 1 in every field L, field k of
    ``e = (g_j | H) - g_i - L`` keeps its guard bit iff a_k > b_k, so ``e & H``
    is the support mask, and no field of ``e - L`` borrows; the colon is a
    variable iff that mask has one bit and ``(e - L) & mask == 0``, i.e.
    a_k - b_k == 1.  Mask bits are guard-bit positions, not variable indices.
    """
    packing, packed = ideal._packed
    guard, ones = packing.guard, packing.ones
    supp_masks: list[list[int]] = []
    var_bits: list[list[int]] = []
    for gj in packed:
        high = (gj | guard) - ones
        diffs = [high - gi for gi in packed]
        masks = [e & guard for e in diffs]
        supp_masks.append(masks)
        var_bits.append([mask if not mask & (mask - 1) and not (e - ones) & mask else 0
                         for e, mask in zip(diffs, masks)])
    return supp_masks, var_bits


def _check_cap(m: int, cap: int, search: str) -> None:
    if cap < 1:
        raise ValueError(f"max_generators must be >= 1, got {cap}")
    if m > cap:
        raise SearchCapExceeded(f"{search} search refused: {m} generators > cap {cap}")


def find_lq_ordering(
    ideal: MonomialIdeal, max_generators: int = DEFAULT_GENERATOR_CAP
) -> tuple[int, ...] | None:
    """The lexicographically smallest linear quotients ordering, else None.

    The search is complete, so None is a proof of absence.  The zero ideal's
    ordering is ``()``, so test the result with ``is not None``.  Ideals with
    more than ``max_generators`` generators are refused via SearchCapExceeded.
    """
    _check_cap(len(ideal.gens), max_generators, "linear quotients")
    return search_ordering(*_lq_pair_data(ideal))


def has_colon_splitting_order(
    power: MonomialIdeal, nxt: MonomialIdeal, max_generators: int = DEFAULT_GENERATOR_CAP
) -> bool:
    """Whether the generators of ``power`` admit a labeling u_1..u_m so that
    for every j < i, either u_j : u_i lies in ``nxt : u_i``, or some earlier
    u_r has u_r : u_i a variable dividing u_j : u_i.  ``power, nxt`` are
    consecutive bounded powers ``chain[s - 1], chain[s]``, 1 <= s <= delta - 1.

    This is the linear quotients search with the pairs of the first kind met
    in advance: their need masks are cleared.  As (u_j : u_i) * u_i is
    lcm(u_i, u_j), a pair is of the first kind iff nxt holds that lcm, so the
    test is symmetric and builds no colon ideal.  The generators of ``power``
    are packed once on nxt's view, clamped to its field capacity (above every
    generator of nxt, and the clamp commutes with the lcm); a pair is met when
    a packed generator of nxt divides its ``_Packing.joins``.  Refuses ideals
    above the cap, and ideals in different ambient rings.
    """
    if power.n != nxt.n:
        raise ValueError(f"ambient mismatch: {power.n} vs {nxt.n} variables")
    _check_cap(len(power.gens), max_generators, "labeling")
    needs, var_bits = _lq_pair_data(power)
    packing, divisors = nxt._packed
    guard, cap = packing.guard, packing.cap
    packed = [packing.pack(min(a, cap) for a in u) for u in power.gens]
    for i, b in enumerate(packed):
        for j, m in enumerate(packing.joins(b, packed[i + 1:]), start=i + 1):
            guarded = m | guard
            if any((guarded - g) & guard == guard for g in divisors):
                needs[i][j] = needs[j][i] = 0
    return search_ordering(needs, var_bits) is not None


def restrict_lq_ordering(
    ideal: MonomialIdeal, order: tuple[int, ...], c: BoundVector
) -> tuple[int, ...]:
    """The ordering induced on the c-bounded generators, as indices into
    ``ideal.restrict(c).gens``.

    ``order`` must be a linear quotients ordering of ``ideal``; ValueError
    otherwise.  The restriction keeps the bounded generators of the sorted
    minimal set in their order, so each kept generator's index is its rank
    among the kept ones.  Whether the induced ordering has linear quotients
    is for the caller to check, with ``is_lq_ordering(ideal.restrict(c), ...)``.
    """
    rank = {g: k for k, g in enumerate(ideal.restrict(c).gens)}  # validates c first
    if not is_lq_ordering(ideal, order):
        raise ValueError("input is not a valid linear quotients ordering of the ideal")
    gens = ideal.gens
    return tuple(rank[gens[i]] for i in order if gens[i] in rank)
