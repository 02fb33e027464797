"""Conjugacy classes, centralizers, primary decomposition, and the
class-size arithmetic (prime factorization, p-parts, compositeness)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .construct import FiniteGroup


@dataclass(frozen=True)
class ArithmeticProfile:
    """Multiplicative structure of a positive integer."""

    value: int
    prime_factors: tuple[tuple[int, int], ...]  # (prime, exponent), sorted
    is_composite: bool
    p_part: dict[int, int]  # prime -> largest p-power dividing value

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.prime_factors)

    def part(self, p: int) -> int:
        return self.p_part.get(p, 1)

    def coprime_part(self, p: int) -> int:
        return self.value // self.part(p)

    def is_prime_power(self) -> bool:
        return len(self.prime_factors) == 1

    def is_pi_number(self, pi: set[int] | frozenset[int]) -> bool:
        return all(p in pi for p in self.primes)


@lru_cache(maxsize=65536)
def arithmetic_profile(n: int) -> ArithmeticProfile:
    """Full factorization by trial division (n is at most cap squared)."""
    if n < 1:
        raise ValueError(f"arithmetic_profile({n}): n must be >= 1")
    factors = []
    m, d = n, 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors.append((d, e))
        d += 1
    if m > 1:
        factors.append((m, 1))
    composite = n > 1 and not (len(factors) == 1 and factors[0][1] == 1)
    return ArithmeticProfile(n, tuple(factors), composite,
                             {p: p ** e for p, e in factors})


def is_prime(n: int) -> bool:
    return n > 1 and not arithmetic_profile(n).is_composite


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


def centralizer(G: FiniteGroup, x: int) -> frozenset[int]:
    """Element indices of C_G(x) = {g : gx = xg}."""
    mat = G.table.matrix
    xrow = mat[x]
    # g*x and x*g as image arrays for all g at once
    gx = mat[:, xrow]          # row g composed with x: g(x(i))... careful below
    xg = xrow[mat]             # x composed with g
    hits = np.nonzero((gx == xg).all(axis=1))[0]
    return frozenset(int(h) for h in hits)


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
