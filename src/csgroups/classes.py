"""Conjugacy classes, pi-parts of elements, and the split of class
sizes into primes and composites."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .arith import arithmetic_profile, is_prime
from .construct import FiniteGroup


def _bits(mask: int):
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class ClassProfile:
    """Conjugacy classes of a group, with class sizes and centralizer
    orders, and the algebra of unions of classes.

    Class data is indexed by class position, built once: ``class_index``
    maps an element to its class as a list, for scalar reads, and
    ``class_of`` as an array, for batched ones; ``sizes`` holds the class
    sizes.  A union of classes, such as a normal subgroup, is a *mask*: a
    k-bit integer over the k classes; class 0 is the identity.  The support
    ``support[i][j]``, the classes met by ``rep_i * C_j``, takes one
    multiplication row per class and is built on first use.  Conjugation
    maps ``rep_i * C_j`` onto ``rep_i^g * C_j``, so it is also the classes
    met by C_i C_j: a product of unions of classes is an OR over it.  Normal
    subgroups M and N have the join MN, of order |M||N|/|M n N| (``M & N``).
    """

    group: FiniteGroup
    classes: list[tuple[int, frozenset[int]]]  # (min-index representative, members)
    class_index: list[int]                     # element index -> class position
    sizes: list[int]                           # class position -> class size
    cs_set: tuple[int, ...]                    # sorted distinct class sizes
    class_of: np.ndarray = field(init=False)   # class_index as an array
    representatives: list[int] = field(init=False)

    def __post_init__(self):
        self.class_of = np.array(self.class_index, dtype=np.int64)
        self.representatives = [rep for rep, _ in self.classes]

    def class_size_of(self, x: int) -> int:
        return self.sizes[self.class_index[x]]

    def centralizer_order_of(self, x: int) -> int:
        return self.group.order // self.sizes[self.class_index[x]]

    @cached_property
    def support(self) -> list[list[int]]:
        k = len(self.classes)
        sup = [[0] * k for _ in range(k)]
        for i, rep in enumerate(self.representatives):
            for pair in set((self.class_of * k + self.class_of[self.group.mul_row(rep)]).tolist()):
                sup[i][pair // k] |= 1 << pair % k
        return sup

    def product(self, a: int, b: int) -> int:
        """The classes met by the product of the unions ``a`` and ``b``."""
        joined = 0
        bs = list(_bits(b))
        for i in _bits(a):
            row = self.support[i]
            for j in bs:
                joined |= row[j]
        return joined

    @cached_property
    def class_closures(self) -> list[int]:
        """The normal closure of each class: the fixpoint of multiplying by it."""
        closures = []
        for c in range(len(self.classes)):
            mask = new = 1 | 1 << c
            while new:  # only the classes added last can add more
                grown = 0
                for i in _bits(new):
                    grown |= self.support[i][c]
                new = grown & ~mask
                mask |= grown
            closures.append(mask)
        return closures

    def size(self, mask: int) -> int:
        return sum(self.sizes[c] for c in _bits(mask))

    def members(self, mask: int) -> frozenset[int]:
        return frozenset().union(*(self.classes[c][1] for c in _bits(mask)))

    def quotient_class_sizes(self, N: int) -> list[int]:
        """For each class c of x, |x^G N|/|N|: the size of xN's class in G/N.

        The unions x^G N partition G, and every class in one of them has
        the same size downstairs, so each union is multiplied out once.
        """
        k, n = len(self.classes), self.size(N)
        downs = [0] * k
        for c in range(k):
            if not downs[c]:
                union = self.product(1 << c, N)
                down = self.size(union) // n
                for d in _bits(union):
                    downs[d] = down
        return downs

    def mask_of(self, members) -> int:
        """The classes that meet ``members``: its mask, if it is a union of classes."""
        return sum(1 << c for c in set(self.class_of[list(members)].tolist()))


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
    sizes = [len(m) for _, m in classes]
    return ClassProfile(G, classes, class_of, sizes, tuple(sorted(set(sizes))))


def pi_part_exponent(o: int, pi: set[int] | frozenset[int]) -> int:
    """The e < o with x^e the pi-part of any x of order o: b * (b^-1 mod a),
    where a is the pi-part of o and b = o/a (0 when a = 1)."""
    prof = arithmetic_profile(o)
    a = math.prod(prof.part(p) for p in prof.primes if p in pi)
    if a == 1:
        return 0
    b = o // a
    return b * pow(b, -1, a)


def pi_part_of_element(G: FiniteGroup, x: int, pi: set[int] | frozenset[int]) -> int:
    """The pi-part of x.  It has order the pi-part of o(x), and x's
    pi'-part times it is x."""
    return G.power(x, pi_part_exponent(int(G.element_orders[x]), pi))


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
