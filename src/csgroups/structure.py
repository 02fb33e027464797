"""Structural subgroup machinery: center, derived series, Sylow
subgroups (the centralizer of a p-element when it is one, else a
normalizer ascent), normal cores (unions of classes, counted), O_p and
O_pi, Fitting subgroups (found in G), quotients (of the verdicts, only
the Frobenius test of G/N builds one), Hall subgroups, Frobenius
detection from class sizes, nilpotency class, and stripping of abelian
direct factors.  ``normal_subgroups`` enumerates the whole
normal-subgroup lattice; no analysis calls it, and the tests use it as
their oracle.

A subgroup of G is the frozenset of its element indices in G; a subgroup
that needs its own multiplication table is reified by
``subgroup_as_group``."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .arith import arithmetic_profile
from .classes import ClassProfile, conjugacy_classes, orbit_partition
from .construct import FiniteGroup
from .perm import Closure, ElementTable, point_dtype

QUOTIENT_BATCH = 1 << 16  # products looked up at once for a quotient's action


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


def is_normal(G: FiniteGroup, members: frozenset[int], gens: list[int]) -> bool:
    """Whether conjugation by G's generators keeps ``members``, generated
    by ``gens``: one ``conjugate_many`` batch of ``gens`` per generator."""
    return all(members.issuperset(G.conjugate_many(gens, g).tolist())
               for g in G.generator_indices)


def center(G: FiniteGroup) -> frozenset[int]:
    """Z(G): elements commuting with every generator."""
    return centralizer_of_set(G, G.generator_indices)


def centralizer_mask(G: FiniteGroup, xs: list[int]) -> np.ndarray:
    """The boolean mask of the elements g with gx = xg for every x in
    ``xs``, compared on the base, whose images tell elements apart."""
    mat = G.table.matrix
    on_base = mat[:, G.table.base]
    mask = np.ones(G.order, dtype=bool)
    for x in xs:
        xrow = mat[x]
        mask &= (mat[:, xrow[G.table.base]] == xrow[on_base]).all(axis=1)
    return mask


def centralizer_of_set(G: FiniteGroup, xs: list[int]) -> frozenset[int]:
    """Elements g with gx = xg for every x in ``xs``."""
    return frozenset(np.flatnonzero(centralizer_mask(G, xs)).tolist())


def normalizer(G: FiniteGroup, members: frozenset[int], gens: list[int]) -> frozenset[int]:
    """N_G(H) for H = ``members`` generated by ``gens``: the g conjugating each generator into H."""
    mask = np.ones(G.order, dtype=bool)
    member_mask = np.zeros(G.order, dtype=bool)
    member_mask[list(members)] = True
    for x in gens:
        mask &= member_mask[G.conjugate_by_all(x)]
    return frozenset(np.nonzero(mask)[0].tolist())


def closure_members(G: FiniteGroup, closure: Closure) -> frozenset[int]:
    """The subgroup of G that ``closure`` holds, as element indices: one
    batched lookup of its rows' base images, and none for 1 and G."""
    if closure.count == 1:
        return frozenset([0])
    if closure.count == G.order:
        return frozenset(range(G.order))
    rows = closure.store[:closure.count]
    return frozenset(G.table.indices_of_base(rows[:, G.table.base]).tolist())


def _right_quotients(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The rows of a b^-1, for rows a and rows b that broadcast to a's
    shape: a b^-1 maps b[p] to a[p], so it is written by one scatter, with
    no inverse."""
    quotients = np.empty_like(a)
    starts = np.arange(0, a.size, a.shape[-1]).reshape(a.shape[:-1] + (1,))  # of each row
    quotients.reshape(-1)[b + starts] = a
    return quotients


def _normal_closure(G: FiniteGroup, seed: np.ndarray, conjugators: np.ndarray,
                    within: int) -> Closure:
    """The smallest subgroup of G containing the rows ``seed`` that
    conjugation by each row of ``conjugators`` keeps, grown on image rows;
    its ``gens`` generate it.

    A seed row, then each conjugate h x h^-1 of a generator x so far by a
    conjugator h, is adjoined by one Dimino step when it lies outside the
    subgroup found so far.  In a finite group, a subgroup that each h^-1
    (.) h keeps each h (.) h^-1 keeps too, and h x h^-1 is the quotient of
    the rows hx and h.  Membership only grows, so each generator is
    conjugated once: the generators not yet conjugated are conjugated
    together, a wave at a time.  ``within`` is the order of a subgroup
    known to hold the closure: the store is sized to it, and the search
    ends once the closure is all of it, as it is past half of it.
    """
    closure = Closure(G.deg, within, within.bit_length(), rows=within, within=within)
    closure.extend(seed)
    done, (k, deg) = 0, conjugators.shape
    starts = np.arange(k)[:, None] * deg
    while done < closure.ngens and closure.count < within:
        xs = closure.gens[done:closure.ngens]
        hx = conjugators.reshape(-1).take(xs[:, None, :] + starts)  # h[x[p]], each x, each h
        done = closure.ngens
        closure.extend(_right_quotients(hx, conjugators).reshape(-1, deg))
    return closure


def _derived_subgroup(G: FiniteGroup, gens: np.ndarray, order: int) -> Closure:
    """[H, H] for the subgroup H of ``order`` elements generated by the
    rows ``gens``: the normal closure in H of the quotients (xy)(yx)^-1 of
    the products of two generators.  Each is the commutator [x^-1, y^-1],
    which lies in a normal subgroup N exactly when x and y commute modulo
    N, so these seeds and the commutators [x, y] have one normal closure."""
    products = gens.take(gens, axis=1)  # products[i, j] = gens[i] gens[j]
    pairs = list(itertools.combinations(range(len(gens)), 2))
    i, j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T  # no pairs for one generator
    return _normal_closure(G, _right_quotients(products[i, j], products[j, i]), gens, order)


def _generators_commute(G: FiniteGroup) -> bool:
    """Whether G's generators commute pairwise, so that G is abelian; a
    few scalar products, read by index.

    The closures find the same answer for an abelian G (every seed is the
    identity), so this only saves their set-up there: about 13 us of 21
    per small abelian group, and within the noise of interleaved timings
    on the benchmark's workloads, whose groups are not abelian.  It is
    held because ``perfbench/test_perfbench.py`` asserts that a
    report calls ``FiniteGroup.mul``, and on that path it is the last
    caller (ROADMAP item 1)."""
    gens = G.generator_indices
    return all(G.mul(x, y) == G.mul(y, x) for i, x in enumerate(gens) for y in gens[:i])


def derived_series(G: FiniteGroup) -> tuple[list[Closure], bool]:
    """The terms G' >= G'' >= ... below G until stabilization, each the
    ``Closure`` that found it (order ``count``, generator and element
    rows), and whether the series reaches 1: G is soluble.  No member is
    looked up (``closure_members`` does that).  An abelian G, and a cyclic
    term, has derived subgroup 1, the closure of the identity alone;
    otherwise a term is the normal closure, in the one before, of the
    commutators of that one's generators."""
    terms, abelian = [], _generators_commute(G)
    gens, order = G.table.matrix[G.generator_indices], G.order
    while order > 1:
        if abelian or len(gens) == 1:  # an abelian term, whose derived subgroup is 1
            term = Closure(G.deg, 1, 0)
        elif (term := _derived_subgroup(G, gens, order)).count == order:
            break
        terms.append(term)
        gens, order = term.gens[:term.ngens], term.count
    return terms, order == 1


def sylow(profile: ClassProfile, p: int) -> frozenset[int]:
    """A Sylow p-subgroup of G, the group of ``profile``.

    A class of size |G|_p', the p'-part of |G|, has centralizers of
    order |G|_p, so each is Sylow and holds its class's elements: they
    are p-elements, and their class size is the largest that one prime
    to p can be.  Then P is the centralizer of the first such class's
    representative, one mask, with no normalizer and no closure.  When
    no class has that size (every p-element of class size prime to p
    central, say, in a group that is not a p-group), P is grown by
    normalizer ascent instead.

    While |P| is short of the full p-part, P lies properly in a Sylow
    subgroup S, and N_S(P) is larger than P (normalizers grow in
    p-groups); so N_G(P) \\ P holds a p-element, an element whose order
    divides the p-part.  Adjoining the least one keeps the join a
    p-group, since P is normal in its normalizer.  The adjoined elements
    generate P: the normalizer and each closure read them.  Only the
    ascent reads ``conjugate_by_all``, and so the inverse table.
    """
    G = profile.group
    target = arithmetic_profile(G.order).part(p)
    if G.order // target in profile.sizes:
        z = profile.representatives[profile.sizes.index(G.order // target)]
        return frozenset(np.flatnonzero(centralizer_mask(G, [z])).tolist())
    members: frozenset[int] = frozenset([0])
    gens: list[int] = []
    rows: dict[int, list[int]] = {}
    while len(members) < target:
        candidates = normalizer(G, members, gens) if gens else frozenset(range(G.order))
        outside = np.array(sorted(candidates - members), dtype=np.intp)
        p_elements = outside[target % G.element_orders[outside] == 0]
        if not len(p_elements):  # pragma: no cover - Sylow theory guarantees progress
            raise RuntimeError(f"sylow ascent stalled at order {len(members)}")
        gens.append(int(p_elements[0]))
        members = G.subgroup_closure(gens, rows)
    return members


def normal_core(profile: ClassProfile, members: frozenset[int]) -> frozenset[int]:
    """The largest normal subgroup of G inside the subgroup ``members``, for
    G the group of ``profile``: the x with x^G inside it, so the union of
    the classes it holds whole, found by counting each class's members."""
    H = np.fromiter(members, dtype=np.intp, count=len(members))
    classes = profile.class_of[H]
    whole = np.bincount(classes, minlength=len(profile.sizes)) == profile.sizes
    return frozenset(H[whole[classes]].tolist())


def core_p(G: FiniteGroup, p: int) -> frozenset[int]:
    """O_p(G): the normal core of a Sylow p-subgroup, both read on one class profile."""
    profile = conjugacy_classes(G)
    return normal_core(profile, sylow(profile, p))


def fitting(G: FiniteGroup) -> frozenset[int]:
    """F(G): the join of the O_p(G) over the primes dividing |G|, on one class profile."""
    profile = conjugacy_classes(G)
    return G.subgroup_closure([g for p in arithmetic_profile(G.order).primes
                               for g in generating_set(G, normal_core(profile, sylow(profile, p)))])


def fitting2(profile: ClassProfile) -> frozenset[int]:
    """F2(G), the preimage of F(G/F(G)), found in G, the group of ``profile``:
    for P Sylow in G, PF/F is Sylow in G/F, so the preimage of O_p(G/F) is
    the normal core of <P, F>.  F2 is the join of these cores, and F of
    the cores of the P; each P is ``sylow`` on the same profile."""
    G = profile.group
    sylows = [sylow(profile, p) for p in arithmetic_profile(G.order).primes]
    cores = [normal_core(profile, P) for P in sylows]
    fgens = [g for O in cores for g in generating_set(G, O)]
    order_F = math.prod(map(len, cores))  # F is the direct product of the O_p
    gens, rows = list(fgens), {}
    for P, O in zip(sylows, cores):
        if len(P) // len(O) * order_F == G.order:  # |PF| = |P||F|/|O_p|: G/F is a p-group
            return frozenset(range(G.order))
        pgens = generating_set(G, P)
        PF = G.subgroup_closure(pgens + fgens, rows)
        core = normal_core(profile, PF)
        if len(core) > order_F:  # else the core is F, as for a normal P
            gens += pgens if core == PF else generating_set(G, core)
    return G.subgroup_closure(gens, rows)


@dataclass
class Quotient:
    """A quotient group together with the projection data."""

    group: FiniteGroup
    projection: np.ndarray   # element index of G -> element index of G/N


def quotient(G: FiniteGroup, N: frozenset[int]) -> Quotient:
    """G/N realized on the left cosets of N by translation; built only by the Frobenius test."""
    gens = generating_set(G, N)
    if not is_normal(G, N, gens):
        raise ValueError("quotient by a non-normal subgroup")
    # the coset xN is the orbit of x under right multiplication by N's generators
    projection, reps, _ = orbit_partition([G.mul_column(g) for g in gens], G.order)
    # an element acts on the cosets as its coset's representative does,
    # and as N is normal distinct cosets act differently: coset c is
    # element c of the quotient
    cosets = projection.astype(point_dtype(len(reps)))  # the quotient's points, narrowed once
    step = max(1, QUOTIENT_BATCH // len(reps))
    table = ElementTable(np.concatenate([cosets[G.products(reps[start:start + step], reps)]
                                         for start in range(0, len(reps), step)]))
    gen_idx = sorted({int(projection[g]) for g in G.generator_indices} - {0})
    Q = FiniteGroup(table, gen_idx, f"{G.name}/N{len(N)}")
    return Quotient(Q, projection)


def normal_subgroups(G: FiniteGroup,
                     profile: Optional[ClassProfile] = None) -> list[frozenset[int]]:
    """All normal subgroups, enumerated on masks of conjugacy classes.

    Reads the class-product support of ``profile`` (G's class profile,
    built when not given), so the lattice and the other mask queries on
    that profile share one support.  Every normal subgroup is the join of
    the normal closures of its classes, and the join of normal subgroups
    A and B is their product AB, so joining class closures breadth first
    finds them all.
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
                new.append(join)
        if not new:
            break
        joins = (profile.product(A, B) for A in new for B in seeds if B & ~A)
    return sorted(map(profile.members, found), key=lambda m: (len(m), sorted(m)))


def o_pi(profile: ClassProfile, pi: set[int] | frozenset[int]) -> frozenset[int]:
    """O_pi(G), the largest normal pi-subgroup of the group of ``profile``.

    It is the join of the class closures of pi-order: the product MN of
    normal pi-subgroups has order |M||N|/|M n N|, still a pi-number, and
    a class inside O_pi(G) has its closure there too.
    """
    M = 1
    for N in profile.class_closures:
        if N & ~M and arithmetic_profile(profile.size(N)).is_pi_number(pi):
            M = profile.product(M, N)
    return profile.members(M)


@dataclass(frozen=True)
class FrobeniusVerdict:
    """Whether a group is Frobenius, and its Frobenius kernel if so."""

    is_frobenius: bool
    kernel: Optional[frozenset[int]] = None


def is_frobenius(profile: ClassProfile, N: frozenset[int] = frozenset([0])) -> FrobeniusVerdict:
    """Whether G/N is a Frobenius group, for G the group of ``profile``,
    read from the class sizes of Q = G/N; Q is G itself when N is
    trivial, and then ``profile`` is Q's and no quotient is built.

    A Frobenius kernel K is a normal Hall pi-subgroup, so it is O_pi(Q):
    the candidates are the O_pi(Q) of full pi-part, one for each proper
    nonempty set pi of primes of |Q|.  K is a kernel iff C_Q(k) <= K for
    each k != 1 in K: as C_Q(k) n K is Hall in C_Q(k), iff |Q|/|k^Q| is a
    pi-number, that is iff |Q:K| divides |k^Q|.  No complement is searched
    for: K has one by Schur-Zassenhaus, and it acts fixed-point-freely on
    K as C_Q(k) <= K (Isaacs, *Finite Group Theory*, ch. 6).
    """
    profile = profile if len(N) == 1 else conjugacy_classes(quotient(profile.group, N).group)
    n, prof = profile.group.order, arithmetic_profile(profile.group.order)
    for r in range(1, len(prof.primes)):
        for pi in itertools.combinations(prof.primes, r):
            K = o_pi(profile, pi)
            if len(K) != math.prod(map(prof.part, pi)):
                continue
            in_K = set(profile.class_of[list(K)].tolist()) - {0}
            if all(profile.sizes[c] % (n // len(K)) == 0 for c in in_K):
                return FrobeniusVerdict(True, K)
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


def hall(profile: ClassProfile, pi: set[int] | frozenset[int]) -> Optional[frozenset[int]]:
    """A Hall pi-subgroup of G, the group of ``profile``, or None when the
    search does not reach one: ``sylow`` for a prime-power pi-part.

    Otherwise a maximal pi-subgroup, grown greedily: walking the elements
    in index order, each pi-element of prime-power order outside the
    subgroup is adjoined while the join's order still divides the
    pi-part of |G|.  Such elements generate every pi-subgroup, and a
    rejected one stays outside every pi-subgroup containing the final
    one, so the result is a maximal pi-subgroup.  In a soluble group
    every pi-subgroup lies in a Hall pi-subgroup (P. Hall, 1928), so
    there the result is Hall; in a non-soluble group it may fall short,
    and None is returned.
    """
    G = profile.group
    prof = arithmetic_profile(G.order)
    target = math.prod(prof.part(p) for p in prof.primes if p in pi)
    if target == 1:
        return frozenset([0])
    if target == G.order:
        return frozenset(range(G.order))
    if arithmetic_profile(target).is_prime_power():
        return sylow(profile, arithmetic_profile(target).primes[0])
    rows: dict[int, list[int]] = {}
    gens: list[int] = []
    members: frozenset[int] = frozenset([0])
    for x in range(1, G.order):
        primes = arithmetic_profile(int(G.element_orders[x])).primes
        if x in members or len(primes) != 1 or primes[0] not in pi:
            continue
        joined = G.subgroup_closure(gens + [x], rows)
        if target % len(joined) == 0:
            gens.append(x)
            members = joined
            if len(members) == target:
                return members
    return None


def _adjoin(G: FiniteGroup, B: np.ndarray, g: int) -> np.ndarray:
    """The mask of <B, g> for the mask B of a subgroup that g normalizes:
    the union of the cosets g^i B, each g times the last one."""
    row = G.mul_row(g)
    joined = B.copy()
    coset = np.flatnonzero(B)
    while True:
        coset = row[coset]
        if joined[coset[0]]:
            return joined
        joined[coset] = True


def _central_split(G: FiniteGroup, Z: frozenset[int], K: np.ndarray,
                   kgens: list[int], derived: np.ndarray):
    """The first z in Z(G) n K of prime-power order q = p^e with <z> a
    direct factor of K, or None when there is none.  With z come
    y = z^(q/p), the mask of G'K^q and its generators modulo G'."""
    seeds: dict[int, tuple[np.ndarray, list[int]]] = {}  # q -> G'K^q
    orders = G.element_orders
    for z in sorted(Z):
        q = int(orders[z])
        prof = arithmetic_profile(q)
        if not K[z] or not prof.is_prime_power():
            continue
        if q not in seeds:
            powers = [G.power(k, q) for k in kgens]
            seed = derived
            for x in powers:
                seed = _adjoin(G, seed, x)
            seeds[q] = seed, powers
        y = G.power(z, q // prof.primes[0])
        if not seeds[q][0][y]:
            return z, q, y, *seeds[q]
    return None


def _complement(G: FiniteGroup, K: np.ndarray, seed: np.ndarray, gens: list[int],
                y: int, q: int) -> tuple[np.ndarray, list[int]]:
    """A subgroup of K of index q that contains ``seed`` and misses y,
    grown greedily, with its generators modulo G' (``gens`` are the
    seed's)."""
    B, target = seed, np.count_nonzero(K) // q
    tried = B.copy()  # in B, or in a coset gB with y in <B, g>
    while np.count_nonzero(B) < target and not tried[K].all():
        g = int(np.flatnonzero(K & ~tried)[0])
        joined = _adjoin(G, B, g)
        if joined[y]:
            tried[G.mul_row(g)[B]] = True
        else:
            B, tried, gens = joined, tried | joined, gens + [g]
    if np.count_nonzero(B) != target:  # pragma: no cover - the complement exists
        raise RuntimeError(f"no complement of a central factor of order {q} in {G.name}")
    return B, gens


def strip_abelian_factors(G: FiniteGroup, commutators: Optional[frozenset[int]] = None,
                          Z: Optional[frozenset[int]] = None
                          ) -> tuple[FiniteGroup, frozenset[int]]:
    """Split G = H x A with A an abelian direct factor of largest order.

    Returns H as a group (G itself when A = 1, else H reified), the
    class-size-carrying core, and A.  Central cyclic factors of
    prime-power order are split off one at a time; only Z(G) (``Z``),
    G' (``commutators``, found by one normal closure when not given) and
    p^e-th powers are read.  Let G = K x A so far; then K' = G'.

    - Split test: for z in Z(G) n K of order p^e, <z> is a direct factor
      of K exactly when z^(p^(e-1)) lies outside G'K^(p^e).  That says
      <z> n G' = 1 and <zG'> is a direct factor of the abelian K/G'
      (a cyclic subgroup of order p^e is one exactly when its element of
      order p is no p^e-th power); then the preimage of a complement of
      <zG'> complements <z>.
    - Complement: a subgroup of K maximal among those that contain
      G'K^(p^e) and miss z^(p^(e-1)), grown greedily.  Modulo this seed,
      K has exponent p^e, so the quotient by such a subgroup has one
      subgroup of order p, is cyclic of order at most p^e, and so is
      generated by the image of z: the subgroup complements <z>.  Grown
      from 1 it can fall short: in C4 x C2, <(0,1)> misses (2,1) and lies
      in no larger subgroup that does, yet it does not complement
      <(2,1)>.  A complement short of index p^e raises.  Every
      subgroup containing G' is normal, and G'K^(p^e) is generated
      modulo G' by the p^e-th powers of generators of K, as K/G' is
      abelian.

    The loop ends when no central factor splits off K, so K has no
    abelian direct factor.  By the Krull-Remak-Schmidt theorem, H is
    then, up to isomorphism, the product of the non-abelian
    indecomposable factors of any decomposition of G, and |A| is the
    largest order of an abelian direct factor: the same orders as a
    search of the normal-subgroup lattice, without the lattice.
    """
    if Z is None:
        Z = center(G)
    if len(Z) == G.order:
        H, _ = subgroup_as_group(G, frozenset([0]), name=f"{G.name}|core")
        return H, Z
    split: list[int] = []
    if len(Z) > 1:
        if commutators is None:
            gens = G.table.matrix[G.generator_indices]
            commutators = closure_members(G, _derived_subgroup(G, gens, G.order))
        derived = np.zeros(G.order, dtype=bool)
        derived[list(commutators)] = True
        K, kgens = np.ones(G.order, dtype=bool), G.generator_indices  # K = <kgens, G'>
        while (found := _central_split(G, Z, K, kgens, derived)) is not None:
            z, q, y, seed, powers = found
            K, kgens = _complement(G, K, seed, powers, y, q)
            split.append(z)
    factor = G.subgroup_closure(split)
    if not split:
        return G, factor
    H, _ = subgroup_as_group(G, frozenset(np.flatnonzero(K).tolist()), name=f"{G.name}|core")
    return H, factor


def nilpotency_class(G: FiniteGroup) -> int:
    """Length of the lower central series down to the trivial subgroup;
    a series that stops short of it raises ``NotNilpotentError``.

    An abelian G has class 1 (0 when trivial).  Otherwise the term after
    N is [N, G], the normal closure in G of the commutators of N's
    generators x and G's generators g, seeded as the quotients (xg)(gx)^-1
    (see ``_derived_subgroup``); its generator rows come from the closure,
    and only its order is read.
    """
    if _generators_commute(G):
        return int(G.order > 1)
    ggens = G.table.matrix[G.generator_indices]
    gens, order, k = ggens, G.order, 0
    while order > 1:
        xg = gens.take(ggens, axis=1).reshape(-1, G.deg)  # x g, for each x, then each g
        gx = ggens.take(gens, axis=1).swapaxes(0, 1).reshape(-1, G.deg)
        term = _normal_closure(G, _right_quotients(xg, gx), ggens, order)
        if term.count == order:
            raise NotNilpotentError(f"{G.name} is not nilpotent")
        gens, order, k = term.gens[:term.ngens], term.count, k + 1
    return k
