"""Structural subgroup machinery: center, derived series, Sylow and
O_p, Fitting subgroups, quotients, normal-subgroup enumeration, Hall
subgroups, Frobenius detection, nilpotency class, and stripping of
abelian direct factors.

A subgroup of G is the frozenset of its element indices in G; a subgroup
that needs its own multiplication table is reified by
``subgroup_as_group``."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .arith import arithmetic_profile
from .classes import ClassProfile, conjugacy_classes, pi_part_of_element
from .construct import FiniteGroup
from .perm import ElementTable

DEFAULT_NORMAL_SUBGROUP_LIMIT = 10000
QUOTIENT_BATCH = 1 << 16  # products looked up at once for a quotient's action


class EnumerationLimitError(RuntimeError):
    """Subgroup enumeration outgrew the configured limit; the structural
    analysis of the group is incomplete rather than silently truncated."""


class NotNilpotentError(ValueError):
    """Nilpotency class requested for a non-nilpotent group."""


def generating_set(G: FiniteGroup, members: frozenset[int]) -> list[int]:
    """A small generating set for a subgroup, grown greedily."""
    if members == {0}:
        return []
    gens: list[int] = []
    have: frozenset[int] = frozenset([0])
    rows: dict[int, list[int]] = {}
    for x in sorted(members):
        if x not in have:
            gens.append(x)
            have = G.subgroup_closure(gens, rows)
            if have == members:
                return gens
    raise ValueError("member set is not closed")


def is_normal(G: FiniteGroup, members: frozenset[int]) -> bool:
    gens = generating_set(G, members)
    return all(G.conjugate(x, g) in members
               for x in gens for g in G.generator_indices)


def center(G: FiniteGroup) -> frozenset[int]:
    """Z(G): elements commuting with every generator."""
    return centralizer_of_set(G, G.generator_indices)


def centralizer_of_set(G: FiniteGroup, xs: list[int]) -> frozenset[int]:
    """Elements g with gx = xg for every x in ``xs``, compared on the base,
    whose images tell elements apart."""
    mat = G.table.matrix
    on_base = mat[:, G.table.base]
    mask = np.ones(G.order, dtype=bool)
    for x in xs:
        xrow = mat[x]
        mask &= (mat[:, xrow[G.table.base]] == xrow[on_base]).all(axis=1)
    return frozenset(np.nonzero(mask)[0].tolist())


def normalizer(G: FiniteGroup, members: frozenset[int]) -> frozenset[int]:
    gens = generating_set(G, members)
    mask = np.ones(G.order, dtype=bool)
    member_mask = np.zeros(G.order, dtype=bool)
    member_mask[list(members)] = True
    for x in gens:
        mask &= member_mask[G.conjugate_by_all(x)]
    return frozenset(np.nonzero(mask)[0].tolist())


def normal_closure(G: FiniteGroup, seed: list[int],
                   conjugators: list[int]) -> tuple[frozenset[int], list[int]]:
    """The smallest subgroup containing ``seed`` that conjugation by each
    of ``conjugators`` keeps, with a generating set of it.

    A seed element or conjugate joins the generating set only when it lies
    outside the subgroup found so far, so the set stays small; the
    closures share their multiplication rows.
    """
    rows: dict[int, list[int]] = {}
    gens: list[int] = []
    sub = frozenset([0])
    for c in seed:
        if c not in sub:
            gens.append(c)
            sub = G.subgroup_closure(gens, rows)
    changed = bool(gens)
    while changed:
        changed = False
        for x in list(gens):
            for h in conjugators:
                y = G.conjugate(x, h)
                if y not in sub:
                    gens.append(y)
                    sub = G.subgroup_closure(gens, rows)
                    changed = True
    return sub, gens


def _derived_with_generators(G: FiniteGroup, gens: list[int]) -> tuple[frozenset[int], list[int]]:
    """[H, H] for H generated by ``gens``, with a generating set of it:
    the normal closure in H of the commutators of the generators."""
    comms = sorted({G.commutator(x, y) for i, x in enumerate(gens) for y in gens[:i]})
    return normal_closure(G, comms, gens)


def derived_series(G: FiniteGroup) -> tuple[list[frozenset[int]], bool]:
    """G >= G' >= G'' >= ... until stabilization; soluble iff it hits 1.

    Each term is generated by the commutators of the previous term's
    generators and their conjugates, starting from G's generators.
    """
    series = [frozenset(range(G.order))]
    gens = G.generator_indices
    while True:
        nxt, gens = _derived_with_generators(G, gens)
        if nxt == series[-1]:
            break
        series.append(nxt)
        if nxt == {0}:
            break
    return series, series[-1] == {0}


def is_soluble(G: FiniteGroup) -> bool:
    return derived_series(G)[1]


def sylow(G: FiniteGroup, p: int) -> frozenset[int]:
    """A Sylow p-subgroup, grown by normalizer ascent.

    While |P| is short of the full p-part, some element of N_G(P) has a
    p-part outside P, and adjoining it keeps the join a p-group since P
    is normal in its normalizer.
    """
    target = arithmetic_profile(G.order).part(p)
    members: frozenset[int] = frozenset([0])
    if target == 1:
        return members
    while len(members) < target:
        candidates = normalizer(G, members) if len(members) > 1 else frozenset(range(G.order))
        extended = False
        for x in sorted(candidates - members):
            if int(G.element_orders[x]) % p != 0:
                continue
            y = pi_part_of_element(G, x, {p})
            if y not in members:
                members = G.subgroup_closure(generating_set(G, members) + [y])
                extended = True
                break
        if not extended:  # pragma: no cover - Sylow theory guarantees progress
            raise RuntimeError(f"sylow ascent stalled at order {len(members)}")
    return members


def core_p(G: FiniteGroup, p: int) -> frozenset[int]:
    """O_p(G): the intersection of all conjugates of one Sylow p-subgroup.

    That is the union of the classes inside P, found as the largest
    subset of P that conjugation by each generator keeps inside itself:
    drop the elements that a generator moves out, until none is moved.
    """
    core = np.array(sorted(sylow(G, p)), dtype=np.int64)
    member_mask = np.zeros(G.order, dtype=bool)
    member_mask[core] = True
    while True:
        keep = np.ones(len(core), dtype=bool)
        for g in G.generator_indices:
            keep &= member_mask[G.conjugate_many(core, g)]
        if keep.all():
            break
        member_mask[core[~keep]] = False
        core = core[keep]
    return frozenset(core.tolist())


def fitting(G: FiniteGroup) -> frozenset[int]:
    """F(G): the join of the O_p(G) over the primes dividing |G|."""
    gens: list[int] = []
    for p in arithmetic_profile(G.order).primes:
        gens += generating_set(G, core_p(G, p))
    return G.subgroup_closure(gens)


@dataclass
class Quotient:
    """A quotient group together with the projection data."""

    group: FiniteGroup
    projection: np.ndarray   # element index of G -> element index of G/N

    def preimage(self, members: frozenset[int]) -> frozenset[int]:
        mask = np.isin(self.projection, list(members))
        return frozenset(np.nonzero(mask)[0].tolist())


def quotient(G: FiniteGroup, N: frozenset[int]) -> Quotient:
    """G/N realized on the left cosets of N by translation."""
    gens = generating_set(G, N)
    if not all(G.conjugate(x, g) in N for x in gens for g in G.generator_indices):
        raise ValueError("quotient by a non-normal subgroup")
    # the coset xN is the orbit of x under right multiplication by N's generators
    columns = [G.mul_column(g).tolist() for g in gens]
    coset_of = [-1] * G.order
    reps: list[int] = []
    for x in range(G.order):
        if coset_of[x] == -1:
            coset_of[x] = len(reps)
            coset = [x]
            for y in coset:  # grows while it is read
                for col in columns:
                    if coset_of[col[y]] == -1:
                        coset_of[col[y]] = len(reps)
                        coset.append(col[y])
            reps.append(x)
    projection = np.array(coset_of, dtype=np.int64)
    # an element acts on the cosets as its coset's representative does,
    # and as N is normal distinct cosets act differently: coset c is
    # element c of the quotient
    step = max(1, QUOTIENT_BATCH // len(reps))
    table = ElementTable(np.concatenate([projection[G.products(reps[start:start + step], reps)]
                                         for start in range(0, len(reps), step)]))
    gen_idx = sorted({int(projection[g]) for g in G.generator_indices} - {0})
    Q = FiniteGroup(table, gen_idx, f"{G.name}/N{len(N)}")
    return Quotient(Q, projection)


def fitting2(G: FiniteGroup) -> frozenset[int]:
    """F2(G): the preimage in G of F(G/F(G))."""
    F = fitting(G)
    if len(F) == G.order:
        return F
    q = quotient(G, F)
    return q.preimage(fitting(q.group))


def normal_subgroups(G: FiniteGroup, limit: int = DEFAULT_NORMAL_SUBGROUP_LIMIT,
                     profile: Optional[ClassProfile] = None) -> list[frozenset[int]]:
    """All normal subgroups, enumerated on masks of conjugacy classes.

    Reads the class-product support of ``profile`` (G's class profile,
    built when not given), so the lattice and the other mask queries on
    that profile share one support.  Every normal subgroup is the join of
    the normal closures of its classes, and the join of normal subgroups
    A and B is their product AB, so joining class closures breadth first
    finds them all.  More than ``limit`` normal subgroups raise
    ``EnumerationLimitError``.
    """
    if profile is None:
        profile = conjugacy_classes(G)
    seeds = set(profile.class_closures)
    found: set[int] = set()
    joins = iter(seeds)
    while True:
        new = []
        for join in joins:  # lazily, so that only new joins are held
            if join not in found:
                found.add(join)
                if len(found) > limit:
                    raise EnumerationLimitError(f"more than {limit} normal subgroups in {G.name}")
                new.append(join)
        if not new:
            break
        joins = (profile.product(A, B) for A in new for B in seeds if B & ~A)
    return sorted(map(profile.members, found), key=lambda m: (len(m), sorted(m)))


@dataclass(frozen=True)
class FrobeniusVerdict:
    is_frobenius: bool
    kernel: Optional[frozenset[int]] = None
    complement: Optional[frozenset[int]] = None


def is_frobenius(Q: FiniteGroup,
                 limit: int = DEFAULT_NORMAL_SUBGROUP_LIMIT) -> FrobeniusVerdict:
    """Search for a Frobenius kernel/complement pair.

    A proper nontrivial normal K qualifies iff centralizers of its
    nonidentity elements stay inside K; the complement is then a Hall
    subgroup for the complementary primes (kernel and complement have
    coprime orders).
    """
    n = Q.order
    for K in normal_subgroups(Q, limit):
        if len(K) in (1, n):
            continue
        if math.gcd(len(K), n // len(K)) != 1:
            continue
        if not all(centralizer_of_set(Q, [k]) <= K for k in K if k != 0):
            continue
        pi = set(arithmetic_profile(n // len(K)).primes)
        H = hall(Q, pi, limit)
        if H is not None and len(H) == n // len(K) and (H & K) == {0}:
            return FrobeniusVerdict(True, K, H)
    return FrobeniusVerdict(False)


def subgroup_as_group(G: FiniteGroup, members: frozenset[int],
                      name: Optional[str] = None) -> tuple[FiniteGroup, dict[int, int]]:
    """Reify a subgroup as a standalone group on the same points.

    Returns the group and a map from new element indices back to the
    ambient indices.
    """
    order = sorted(members)  # the identity, index 0, comes first
    back = dict(enumerate(order))
    position = {old: new for new, old in back.items()}
    gen_idx = [position[g] for g in generating_set(G, frozenset(members))]
    H = FiniteGroup(ElementTable(G.table.matrix[order]), gen_idx,
                    name or f"{G.name}|sub{len(members)}")
    if G._orders is not None:  # the same permutations, so the same orders
        H._orders = G._orders[order]
    return H, back


def minimal_normal_subgroups(G: FiniteGroup,
                             limit: int = DEFAULT_NORMAL_SUBGROUP_LIMIT) -> list[frozenset[int]]:
    nontrivial = [N for N in normal_subgroups(G, limit) if len(N) > 1]
    return [N for N in nontrivial if not any(M < N for M in nontrivial)]


def _complement_abelian(G: FiniteGroup, M: frozenset[int]) -> Optional[frozenset[int]]:
    """Complement of an abelian normal M with gcd(|M|, |G/M|) = 1.

    Classical averaging construction: correct a transversal by the
    "average" of the associated factor set, which exists because |G/M|
    is invertible on M.
    """
    q = quotient(G, M)
    Q = q.group
    nq = Q.order
    if math.gcd(nq, len(M)) != 1:
        return None
    # transversal r: Q -> G picking the least preimage
    r = [int(np.nonzero(q.projection == i)[0][0]) for i in range(nq)]
    inv = G.inv
    # u(a) = prod over s of factor set t(a, s) = r(a) r(s) r(as)^{-1}, in M
    exponent = 1
    for x in M:
        exponent = math.lcm(exponent, int(G.element_orders[x]))
    k = pow(nq, -1, exponent)
    corrected = []
    for a in range(nq):
        u = 0
        for s in range(nq):
            t = G.mul(G.mul(r[a], r[s]), int(inv[r[int(Q.mul(a, s))]]))
            u = G.mul(u, t)
        # c(a) = u(a)^{-1/|Q|} * r(a) gives a homomorphic transversal
        corrected.append(G.mul(G.power(int(inv[u]), k), r[a]))
    H = G.subgroup_closure(corrected)
    if len(H) == nq and (H & M) == {0}:
        return H
    return None  # pragma: no cover - averaging is exact for abelian kernels


def hall(G: FiniteGroup, pi: set[int] | frozenset[int],
         limit: int = DEFAULT_NORMAL_SUBGROUP_LIMIT) -> Optional[frozenset[int]]:
    """A Hall pi-subgroup, or None when the search cannot produce one.

    Recursive construction down a chief series; complete for soluble
    groups at this scale.  Non-soluble inputs may legitimately return
    None (Hall subgroups need not exist there).
    """
    pi = set(pi)
    target = 1
    for p, e in arithmetic_profile(G.order).prime_factors:
        if p in pi:
            target *= p ** e
    if target == 1:
        return frozenset([0])
    if target == G.order:
        return frozenset(range(G.order))
    if len(arithmetic_profile(target).prime_factors) == 1:
        return sylow(G, arithmetic_profile(target).primes[0])
    for M in minimal_normal_subgroups(G, limit):
        prof = arithmetic_profile(len(M))
        if len(prof.prime_factors) != 1:
            continue  # non-elementary-abelian minimal normal: not usable here
        p = prof.primes[0]
        q = quotient(G, M)
        HQ = hall(q.group, pi, limit)
        if HQ is None:
            continue
        pre = q.preimage(HQ)
        if p in pi:
            if len(pre) == target:
                return pre
            continue
        if len(pre) == G.order:
            comp = _complement_abelian(G, M)
            if comp is not None and len(comp) == target:
                return comp
            continue
        K, back = subgroup_as_group(G, pre)
        HK = hall(K, pi, limit)
        if HK is not None and len(HK) == target:
            return frozenset(back[i] for i in HK)
    return None


def strip_abelian_factors(G: FiniteGroup,
                          limit: int = DEFAULT_NORMAL_SUBGROUP_LIMIT,
                          normals: Optional[list[frozenset[int]]] = None
                          ) -> tuple[FiniteGroup, frozenset[int]]:
    """Split G = H x A with A a maximal-order central direct factor.

    Returns H reified as a group (the class-size-carrying core) and A.
    Both factors are normal, so both come from the normal subgroups of G
    (``normals`` when given): every subgroup of Z(G) is normal.  The
    witness is one maximal choice; no canonicity is claimed.
    """
    Z = center(G)
    if len(Z) == G.order:
        H, _ = subgroup_as_group(G, frozenset([0]), name=f"{G.name}|core")
        return H, Z
    if normals is None:
        normals = normal_subgroups(G, limit)
    central = [N for N in normals if N <= Z]
    for A in sorted(central, key=len, reverse=True):
        for H in normals:
            if len(H) * len(A) == G.order and H & A == {0}:
                core, _ = subgroup_as_group(G, H, name=f"{G.name}|core")
                return core, A
    raise RuntimeError("no decomposition found; the trivial factor always works")


def is_nilpotent(G: FiniteGroup) -> bool:
    """Cheap check: nilpotent iff every Sylow subgroup is normal."""
    return all(is_normal(G, sylow(G, p))
               for p in arithmetic_profile(G.order).primes)


def nilpotency_class(G: FiniteGroup) -> int:
    """Length of the lower central series down to the trivial subgroup."""
    if G.order == 1:
        return 0
    if not is_nilpotent(G):
        raise NotNilpotentError(f"{G.name} is not nilpotent")
    ggens = G.generator_indices
    current = frozenset(range(G.order))
    k = 0
    while current != {0}:
        gens = generating_set(G, current)
        comms = sorted({G.commutator(x, g) for x in gens for g in ggens})
        current = normal_closure(G, comms, ggens)[0]
        k += 1
    return k
