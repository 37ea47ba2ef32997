"""The polymatroidal exchange condition for equigenerated monomial ideals."""

from __future__ import annotations

from .monomials import MonomialIdeal, degree


def is_equigenerated(ideal: MonomialIdeal) -> bool:
    """All generators share one total degree (zero ideal: true by convention)."""
    return len({degree(g) for g in ideal.gens}) <= 1


def _exchanged(u: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    """x_j * u / x_i, with 0-based i and j."""
    w = list(u)
    w[i] -= 1
    w[j] += 1
    return tuple(w)


def is_polymatroidal(ideal: MonomialIdeal) -> bool:
    """The exchange condition over all generator pairs and exceeding variables.

    Not equigenerated means false; zero and principal ideals are vacuously
    polymatroidal.
    """
    if not is_equigenerated(ideal):
        return False
    genset = set(ideal.gens)
    n = ideal.n
    for u in ideal.gens:
        # bit j of exchanges[i]: x_j * u / x_i is a generator
        exchanges = [sum(1 << j for j in range(n) if _exchanged(u, i, j) in genset)
                     for i in range(n)]
        for v in ideal.gens:
            below = sum(1 << j for j in range(n) if u[j] < v[j])
            if any(u[i] > v[i] and not exchanges[i] & below for i in range(n)):
                return False
    return True


def is_matroidal(ideal: MonomialIdeal) -> bool:
    """Polymatroidal with every generator squarefree."""
    return all(max(g, default=0) <= 1 for g in ideal.gens) and is_polymatroidal(ideal)
