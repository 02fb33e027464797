"""Orbit partitions, conjugacy classes, pi-parts of elements, and the
split of class sizes into primes and composites.

``orbit_partition`` is the one orbit routine: conjugacy classes are the
orbits of the generators' conjugation maps, and the cosets of a quotient
(``structure.quotient``) the orbits of right multiplication by the
generators of N."""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    Classes are in order of their least member, which is their
    representative; class 0 is the identity.  Class data is indexed by
    class position: ``class_of`` maps an element to its class, as the
    intp array of ``orbit_partition`` for batched reads, and
    ``class_index`` as a list for scalar reads; ``sizes`` holds the class
    sizes.  ``classes``, the (representative, members) pairs, is built on
    first read, so a caller that needs only the sizes never builds a
    member set.  A union of classes, such as a normal subgroup, is a
    *mask*: a k-bit integer over the k classes.  The support
    ``support[i][j]``, the classes met by ``rep_i * C_j``, takes one
    multiplication row per class and is built on first use.  Conjugation maps ``rep_i * C_j``
    onto ``rep_i^g * C_j``, so it is also the classes met by C_i C_j: a
    product of unions of classes is an OR over it.  Normal subgroups M
    and N have the join MN, of order |M||N|/|M n N| (``M & N``).
    """

    group: FiniteGroup
    class_of: np.ndarray        # element index -> class position (intp)
    class_index: list[int]      # the same, as Python ints
    representatives: list[int]  # class position -> least member
    sizes: list[int]            # class position -> class size
    cs_set: tuple[int, ...]     # sorted distinct class sizes

    @cached_property
    def classes(self) -> list[tuple[int, frozenset[int]]]:
        """(representative, members) of each class, by one pass over ``class_index``."""
        members: list[list[int]] = [[] for _ in self.representatives]
        for x, c in enumerate(self.class_index):
            members[c].append(x)
        return [(rep, frozenset(m)) for rep, m in zip(self.representatives, members)]

    def class_size_of(self, x: int) -> int:
        return self.sizes[self.class_index[x]]

    def centralizer_order_of(self, x: int) -> int:
        return self.group.order // self.sizes[self.class_index[x]]

    @cached_property
    def support(self) -> list[list[int]]:
        k = len(self.sizes)
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
        for c in range(len(self.sizes)):
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
        k, n = len(self.sizes), self.size(N)
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


# Orbit partitions of fewer points than this are found by a walk over
# Python lists, larger ones by ``orbit_labels``.  Timed per call on the
# generators' conjugation maps (2 cores, numpy 2.4), numpy's fixed cost
# makes the labels slower at sym(5), order 120 (60 against 29 us); at
# dihedral(150), order 300, they are about even (43 against 52 us); far
# above it they win by up to 6x (cyclic(4999): 0.21 against 1.26 ms).
WALK_BELOW_ORDER = 300


def orbit_labels(maps: list[np.ndarray], n: int) -> np.ndarray:
    """The least point of each point's orbit under the permutations ``maps``
    of range(n): the connected components of the edges x -> m[x].

    Hooking and shortcutting (Shiloach and Vishkin, 1982): each round
    hooks the larger of the two roots on every edge under the smaller,
    then jumps every label to its root (``_shortcut``); it stops when no
    edge joins two roots.  A long cycle is so joined in O(log n) jumps,
    not in one round per step.  An edge whose ends share a root keeps
    sharing it, so later rounds read only the edges still live.
    """
    label = np.arange(n)
    tail = np.tile(label, len(maps))
    # in intp, as ``label`` is: gathers by other index dtypes are slower
    head = np.concatenate(maps, dtype=np.intp) if maps else tail
    tail_root, head_root = tail, head  # every point is its own root at first
    while True:
        live = np.flatnonzero(tail_root != head_root)  # indices: faster than a mask
        if not len(live):
            return label
        tail, head = tail[live], head[live]
        tail_root, head_root = tail_root[live], head_root[live]
        np.minimum.at(label, np.maximum(tail_root, head_root), np.minimum(tail_root, head_root))
        label = _shortcut(label)
        tail_root, head_root = label[tail], label[head]


def _shortcut(label: np.ndarray) -> np.ndarray:
    """Jump every label to its root: ``label = label[label]`` until nothing changes."""
    while True:
        jumped = label[label]
        if np.array_equal(jumped, label):
            return label
        label = jumped


def orbit_partition(maps: list[np.ndarray], n: int) -> tuple[np.ndarray, list[int], list[int]]:
    """The orbits of range(n) under the permutations ``maps``, in order of
    least member: each point's orbit index (an intp array), each orbit's
    least member and each orbit's size.  A walk over Python lists finds
    them below ``WALK_BELOW_ORDER``, and ``orbit_labels`` from it up."""
    return (_walk_orbits if n < WALK_BELOW_ORDER else _label_orbits)(maps, n)


def _walk_orbits(maps: list[np.ndarray], n: int) -> tuple[np.ndarray, list[int], list[int]]:
    """``orbit_partition`` by breadth-first walks, each from the least
    point not yet in an orbit."""
    rows = [m.tolist() for m in maps]
    index = [-1] * n
    reps: list[int] = []
    sizes: list[int] = []
    for start in range(n):
        if index[start] != -1:
            continue
        oid = len(reps)
        index[start] = oid
        orbit = [start]
        for x in orbit:  # grows while it is read: a breadth-first orbit
            for row in rows:
                y = row[x]
                if index[y] == -1:
                    index[y] = oid
                    orbit.append(y)
        reps.append(start)
        sizes.append(len(orbit))
    return np.array(index, dtype=np.intp), reps, sizes


def _label_orbits(maps: list[np.ndarray], n: int) -> tuple[np.ndarray, list[int], list[int]]:
    """``orbit_partition`` from ``orbit_labels``: the roots, in increasing
    order, are the orbits in order of least member."""
    label = orbit_labels(maps, n)
    reps = np.flatnonzero(label == np.arange(n))
    position = np.empty(n, dtype=np.intp)
    position[reps] = np.arange(len(reps))
    index = position[label]
    return index, reps.tolist(), np.bincount(index).tolist()


def conjugacy_classes(G: FiniteGroup) -> ClassProfile:
    """Partition the element table into conjugation orbits.

    Conjugating by the generators suffices, since conjugation by a product
    factors through them; each generator's conjugation map is computed
    once, for all elements, and ``orbit_partition`` splits the elements
    into their orbits, the classes in order of their least member.  The
    maps read the whole matrix in place (``slice(None)``) and invert only
    the generators' rows, so no inverse table (``FiniteGroup.inv``) is
    built.  No member set is built here: ``ClassProfile.classes`` builds
    them on first read.
    """
    maps = [G.conjugate_many(slice(None), g) for g in G.generator_indices]
    index, reps, sizes = orbit_partition(maps, G.order)
    # a list of Python ints: 1 << class_index[x] must not overflow
    return ClassProfile(G, index, index.tolist(), reps, sizes, tuple(sorted(set(sizes))))


def pi_part_exponent(o: int, pi: set[int] | frozenset[int]) -> int:
    """The e < o with x^e the pi-part of any x of order o: b * (b^-1 mod a),
    where a is the pi-part of o and b = o/a (0 when a = 1)."""
    prof = arithmetic_profile(o)
    a = math.prod(prof.part(p) for p in prof.primes if p in pi)
    if a == 1:
        return 0
    b = o // a
    return b * pow(b, -1, a)


def composite_split(profile: ClassProfile) -> tuple[frozenset[int], frozenset[int]]:
    """Partition cs(G) \\ {1} into prime sizes and composite sizes."""
    primes = frozenset(s for s in profile.cs_set if s > 1 and is_prime(s))
    composites = frozenset(s for s in profile.cs_set
                           if arithmetic_profile(s).is_composite)
    return primes, composites

