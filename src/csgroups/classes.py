"""Conjugacy classes, primary decomposition of elements, and the split
of class sizes into primes and composites."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import arithmetic_profile, is_prime
from .construct import FiniteGroup


@dataclass
class ClassProfile:
    """Conjugacy classes of a group, with class sizes and centralizer orders."""

    group: FiniteGroup
    classes: list[tuple[int, frozenset[int]]]  # (min-index representative, members)
    class_of: np.ndarray                       # element index -> class position
    cs_set: tuple[int, ...]                    # sorted distinct class sizes

    def class_size_of(self, x: int) -> int:
        return len(self.classes[int(self.class_of[x])][1])

    def centralizer_order_of(self, x: int) -> int:
        return self.group.order // self.class_size_of(x)

    @property
    def representatives(self) -> list[int]:
        return [rep for rep, _ in self.classes]

    def class_members(self, x: int) -> frozenset[int]:
        return self.classes[int(self.class_of[x])][1]


def conjugacy_classes(G: FiniteGroup) -> ClassProfile:
    """Partition the element table into conjugation orbits.

    Orbits are grown by conjugating with generators only, which
    suffices since conjugation by a product factors through generators;
    each generator's conjugation map is computed once, for all elements.
    """
    n = G.order
    class_of = [-1] * n
    classes: list[tuple[int, frozenset[int]]] = []
    maps = [G.conjugate_many(np.arange(n), g).tolist() for g in G.generator_indices]
    for start in range(n):
        if class_of[start] != -1:
            continue
        cid = len(classes)
        class_of[start] = cid
        members = [start]
        for x in members:  # grows while it is read: a breadth-first orbit
            for conj in maps:
                y = conj[x]
                if class_of[y] == -1:
                    class_of[y] = cid
                    members.append(y)
        classes.append((start, frozenset(members)))
    cs_set = tuple(sorted({len(m) for _, m in classes}))
    return ClassProfile(G, classes, np.array(class_of, dtype=np.int64), cs_set)


@dataclass(frozen=True)
class PrimaryPart:
    """One prime-power factor of an element's primary decomposition."""

    prime: int
    part: int        # element index of the q-part
    of_element: int


def primary_decomposition(G: FiniteGroup, x: int) -> list[PrimaryPart]:
    """Commuting prime-power-order parts of x, multiplying back to x.

    For each prime q with q^a || o(x), the q-part is x^(m * o(x)/q^a)
    where m inverts o(x)/q^a modulo q^a.
    """
    o = int(G.element_orders[x])
    parts = []
    for q, e in arithmetic_profile(o).prime_factors:
        qa = q ** e
        rest = o // qa
        m = pow(rest, -1, qa)
        parts.append(PrimaryPart(q, G.power(x, m * rest), x))
    return parts


def pi_part_of_element(G: FiniteGroup, x: int, pi: set[int] | frozenset[int]) -> int:
    """Product of the primary parts of x whose primes lie in pi."""
    result = 0
    for part in primary_decomposition(G, x):
        if part.prime in pi:
            result = G.mul(result, part.part)
    return result


def composite_split(profile: ClassProfile) -> tuple[frozenset[int], frozenset[int]]:
    """Partition cs(G) \\ {1} into prime sizes and composite sizes."""
    primes = frozenset(s for s in profile.cs_set if s > 1 and is_prime(s))
    composites = frozenset(s for s in profile.cs_set
                           if arithmetic_profile(s).is_composite)
    return primes, composites


def is_p_element(G: FiniteGroup, x: int, p: int) -> bool:
    o = int(G.element_orders[x])
    while o % p == 0:
        o //= p
    return o == 1
