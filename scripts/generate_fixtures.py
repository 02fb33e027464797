#!/usr/bin/env python3
"""Derive the vendored generator fixtures in src/csgroups/fixtures/.

Each target group is identified by its order, its published structure
string, and its conjugacy class size set.  We rebuild it by a
structure-directed search: construct every candidate group matching the
structure string (enumerating the unspecified actions), compute class
sizes with the engine, and keep the candidate whose class-size set
matches.  The winning generators are written in the fixture grammar.

Targets:
  g480_166  order 480  C3 : (C5 : ((C2 x C2 x C2) : C4))   cs {1,2,4,60}
  g160_234  order 160  ((C2 x C2 x C2 x C2) : C5) : C2     cs {1,5,20,32}
  g486_176  order 486  ((C3 x ((C3 x C3) : C3)) : C3) : C2 cs {1,2,3,18,27}
  g162_5    order 162  ((C9 x C3) : C3) : C2               cs {1,2,3,6,27}
  psl_2_8   order 504  PSL(2,8) on the projective line over F8

Run:  python3 scripts/generate_fixtures.py [target ...]
"""

from __future__ import annotations

import sys
import time
from itertools import product
from pathlib import Path
from typing import Sequence

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from csgroups.classes import ClassProfile, conjugacy_classes
from csgroups.construct import (
    FiniteGroup,
    cyclic,
    direct_product,
    dump_fixture,
    extraspecial_p3,
)
from csgroups.perm import DEFAULT_CLOSURE_CAP, OrderCapExceededError, Permutation, close_with_degree
from csgroups.structure import generating_set

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "src" / "csgroups" / "fixtures"


def group_signature(G: FiniteGroup) -> tuple:
    """Cheap isomorphism-sensitive invariant for deduplicating candidates."""
    prof = conjugacy_classes(G)
    orders = sorted(int(o) for o in G.element_orders)
    sizes = sorted(len(m) for _, m in prof.classes)
    return (G.order, tuple(orders), tuple(sizes))


def class_members(prof: ClassProfile, x: int) -> frozenset[int]:
    """The conjugacy class of the element x."""
    return prof.classes[prof.class_index[x]][1]


def commutator(G: FiniteGroup, x: int, y: int) -> int:
    """Index of x^-1 y^-1 x y."""
    return G.mul(G.mul(int(G.inv[x]), int(G.inv[y])), G.mul(x, y))


def rename(G: FiniteGroup, name: str) -> FiniteGroup:
    G.name = name
    return G


# -- semidirect products --------------------------------------------------------


class ActionError(ValueError):
    """A claimed semidirect-product action is not a valid action."""


def _extend_generator_map(N: FiniteGroup, gens: Sequence[int],
                          gen_images: Sequence[int]) -> np.ndarray:
    """Extend the images of the generators ``gens`` of N to a verified
    automorphism of N.

    Returns the automorphism as an index map, or raises ActionError if
    the extension is not a well-defined bijective homomorphism.
    """
    if len(gen_images) != len(gens):
        raise ActionError(f"expected {len(gens)} generator images, got {len(gen_images)}")
    phi = [-1] * N.order
    phi[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g, img in zip(gens, gen_images):
                y = N.mul(x, g)
                fy = N.mul(phi[x], int(img))
                if phi[y] == -1:
                    phi[y] = fy
                    nxt.append(y)
                elif phi[y] != fy:
                    raise ActionError(f"generator images are inconsistent at element {y}")
        frontier = nxt
    if -1 in phi:
        raise ActionError("generator images do not generate the whole group")
    # homomorphism on (x, generator) pairs implies homomorphism everywhere
    for g, img in zip(gens, gen_images):
        for x in range(N.order):
            if phi[N.mul(x, g)] != N.mul(phi[x], int(img)):
                raise ActionError(f"not a homomorphism at pair ({x}, {g})")
    if len(set(phi)) != N.order:
        raise ActionError("map is not a bijection")
    return np.array(phi, dtype=np.int64)


def semidirect_product(N: FiniteGroup, H: FiniteGroup,
                       action: Sequence[Sequence[int]],
                       cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """External semidirect product N : H in its regular representation.

    ``action[k]`` lists, for the k-th generator of H, the images of the
    generators of N under the corresponding automorphism.  The claimed
    automorphisms are verified, as is compatibility with H's relations
    (the induced map on all of H must be single-valued).
    """
    if len(action) != len(H.generator_indices):
        raise ActionError(f"action must cover all {len(H.generator_indices)} H-generators")
    gen_autos = [_extend_generator_map(N, N.generator_indices, images) for images in action]

    # extend to a map h -> automorphism over H's Cayley graph and verify
    # consistency, which is exactly compatibility with H's relations
    ident = np.arange(N.order, dtype=np.int64)
    autos: dict[int, np.ndarray] = {0: ident}
    keys: dict[int, bytes] = {0: ident.tobytes()}
    frontier = [0]
    while frontier:
        nxt = []
        for h in frontier:
            for g, auto in zip(H.generator_indices, gen_autos):
                h2 = H.mul(h, g)
                # phi_{h*g}(n) = phi_h(phi_g(n))
                composed = autos[h][auto]
                if h2 not in autos:
                    autos[h2] = composed
                    keys[h2] = composed.tobytes()
                    nxt.append(h2)
                elif keys[h2] != composed.tobytes():
                    raise ActionError(f"action does not respect H's relations at element {h2}")
        frontier = nxt

    nn, nh = N.order, H.order
    if nn * nh > cap:
        raise OrderCapExceededError(cap, nn * nh)

    def point(n: int, h: int) -> int:
        return n * nh + h

    def left_mult(a: int, s: int) -> Permutation:
        # (a, s) * (n, h) = (a * phi_s(n), s * h)
        auto = autos[s]
        srow = [H.mul(s, h) for h in range(nh)]
        images = [0] * (nn * nh)
        for n in range(nn):
            an = N.mul(a, int(auto[n]))
            base = n * nh
            for h in range(nh):
                images[base + h] = point(an, srow[h])
        return Permutation(images)

    gens = ([left_mult(g, 0) for g in N.generator_indices]
            + [left_mult(0, g) for g in H.generator_indices])
    table = close_with_degree(gens, nn * nh, cap)
    if len(table) != nn * nh:
        raise ActionError(f"semidirect closure has order {len(table)}, expected {nn * nh}")
    name = f"{N.name} : {H.name}"
    return FiniteGroup(table, [table.index_of(g) for g in gens], name)


# -- generic automorphism search ----------------------------------------------


def automorphisms_of_order(G: FiniteGroup, k: int, *, fix_first_up_to_conjugacy=False,
                           candidate_filter=None):
    """Yield automorphisms (as index maps) whose order divides k.

    Backtracking over generator images, pruned by the (element order,
    class size) signature, by pairwise order/commutator fingerprints,
    and by an optional caller-supplied per-generator image filter.
    """
    prof = conjugacy_classes(G)
    n = G.order
    orders = G.element_orders
    sig = [(int(orders[x]), prof.class_size_of(x)) for x in range(n)]
    gens = generating_set(G, frozenset(range(n)))

    candidates: list[list[int]] = []
    for i, g in enumerate(gens):
        cand = [y for y in range(1, n) if sig[y] == sig[g]]
        if candidate_filter is not None:
            cand = [y for y in cand if candidate_filter(g, y)]
        if i == 0 and fix_first_up_to_conjugacy:
            # conjugate automorphisms give isomorphic extensions
            cand = sorted({min(class_members(prof, y)) for y in cand})
        candidates.append(cand)

    pair_sig = {}
    for i in range(len(gens)):
        for j in range(i):
            p = G.mul(gens[j], gens[i])
            c = commutator(G, gens[j], gens[i])
            pair_sig[(j, i)] = (sig[p], sig[c])

    def dfs(depth: int, images: list[int]):
        if depth == len(gens):
            try:
                phi = _extend_generator_map(G, gens, images).tolist()
            except ActionError:
                return
            # order of phi divides k?
            power = phi
            for _ in range(k - 1):
                power = [phi[v] for v in power]
            if all(power[v] == v for v in range(n)):
                yield phi
            return
        for y in candidates[depth]:
            good = True
            for j in range(depth):
                p = G.mul(images[j], y)
                c = commutator(G, images[j], y)
                if (sig[p], sig[c]) != pair_sig[(j, depth)]:
                    good = False
                    break
            if good:
                yield from dfs(depth + 1, images + [y])

    yield from dfs(0, [])


def extensions_by_cyclic(N: FiniteGroup, k: int, *, nontrivial=True,
                         fix_first=True):
    """Yield semidirect products N : C_k over automorphisms of order dividing k."""
    Ck = cyclic(k)
    seen_phi = set()
    gens = generating_set(N, frozenset(range(N.order)))
    for phi in automorphisms_of_order(N, k, fix_first_up_to_conjugacy=fix_first):
        if nontrivial and all(phi[v] == v for v in range(N.order)):
            continue
        key = tuple(phi[g] for g in gens)
        if key in seen_phi:
            continue
        seen_phi.add(key)
        images = [phi[g] for g in N.generator_indices]
        try:
            yield semidirect_product(N, Ck, [images])
        except ActionError:
            continue


# -- targets -------------------------------------------------------------------


def build_psl_2_8() -> FiniteGroup:
    """PSL(2,8) acting on the 9 points of the projective line over F8."""
    # F8 = F2[t]/(t^3 + t + 1), elements encoded as bit masks 0..7; point 8 = infinity
    def fmul(a: int, b: int) -> int:
        r = 0
        for bit in range(3):
            if (b >> bit) & 1:
                r ^= a << bit
        for hi, low in ((5, 0b1011 << 2), (4, 0b1011 << 1), (3, 0b1011)):
            if (r >> hi) & 1:
                r ^= low
        return r

    finv = {a: next(b for b in range(1, 8) if fmul(a, b) == 1) for a in range(1, 8)}
    INF = 8
    shift = Permutation([x ^ 1 for x in range(8)] + [INF])          # x -> x + 1
    scale = Permutation([fmul(2, x) for x in range(8)] + [INF])     # x -> t*x
    flip = Permutation([INF] + [finv[x] for x in range(1, 8)] + [0])  # x -> 1/x
    table = close_with_degree([shift, scale, flip], 9, cap=600)
    G = FiniteGroup(table, [table.index_of(p) for p in (shift, scale, flip)],
                    "psl_2_8")
    assert G.order == 504, G.order
    return G


def build_g160_234() -> FiniteGroup:
    """F16 : (C5 : C2) as affine maps of F16 on 16 points.

    The C5 is multiplication by a fifth root of unity w in F16*, the C2
    is the square of the Frobenius map, which inverts w.  This is the
    unique split extension matching the structure string with the C2
    acting faithfully.
    """
    def fmul(a: int, b: int) -> int:
        r = 0
        for bit in range(4):
            if (b >> bit) & 1:
                r ^= a << bit
        for hi, low in ((7, 0b10011 << 3), (6, 0b10011 << 2),
                        (5, 0b10011 << 1), (4, 0b10011)):
            if (r >> hi) & 1:
                r ^= low
        return r

    # w = t^3 has multiplicative order 5 in F16* (t generates the order-15 group)
    w = fmul(fmul(2, 2), 2)
    trans = Permutation([x ^ 1 for x in range(16)])                 # x -> x + 1
    mult_w = Permutation([fmul(w, x) for x in range(16)])           # x -> w*x
    frob2 = Permutation([fmul(fmul(x, x), fmul(x, x)) for x in range(16)])  # x -> x^4
    table = close_with_degree([trans, mult_w, frob2], 16, cap=200)
    G = FiniteGroup(table, [table.index_of(p) for p in (trans, mult_w, frob2)],
                    "g160_234")
    assert G.order == 160, G.order
    return G


def build_g480_166() -> FiniteGroup:
    """Search C3 : (C5 : ((C2 x C2 x C2) : C4)) for class sizes {1,2,4,60}."""
    target = (1, 2, 4, 60)
    v8 = direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2))
    c4 = cyclic(4)
    vgens = v8.generator_indices

    def v_elt(bits: tuple[int, int, int]) -> int:
        e = 0
        for b, g in zip(bits, vgens):
            if b:
                e = v8.mul(e, g)
        return e

    # all GL(3,2) elements of order dividing 4, as generator-image triples
    from itertools import product as iproduct
    cols = [bits for bits in iproduct((0, 1), repeat=3)]
    gl_actions = []
    for c1, c2, c3 in iproduct(cols, repeat=3):
        mat = (c1, c2, c3)
        # invertible over F2?
        det = (c1[0] * (c2[1] * c3[2] ^ c2[2] * c3[1])
               ^ c1[1] * (c2[0] * c3[2] ^ c2[2] * c3[0])
               ^ c1[2] * (c2[0] * c3[1] ^ c2[1] * c3[0]))
        if det % 2 == 0:
            continue
        def apply(mat, bits):
            out = [0, 0, 0]
            for j, b in enumerate(bits):
                if b:
                    for i in range(3):
                        out[i] ^= mat[j][i]
            return tuple(out)
        # order dividing 4
        cur = {b: b for b in cols}
        order = 1
        m = {b: apply(mat, b) for b in cols}
        cur = m
        while any(cur[b] != b for b in cols):
            cur = {b: m[cur[b]] for b in cols}
            order += 1
            if order > 4:
                break
        if order in (1, 2, 4):
            gl_actions.append(mat)

    seen_q = {}
    for mat in gl_actions:
        images = [v_elt(tuple(mat[j])) for j in range(3)]
        try:
            Q = semidirect_product(v8, c4, [images])
        except ActionError:
            continue
        sig = group_signature(Q)
        if sig not in seen_q:
            seen_q[sig] = Q
    print(f"  order-32 candidates: {len(seen_q)}")

    c5, c3 = cyclic(5), cyclic(3)
    g5 = c5.generator_indices[0]
    pow5 = {k: c5.power(g5, k) for k in (1, 2, 3, 4)}
    seen_r = {}
    for Q in seen_q.values():
        nqg = len(Q.generator_indices)
        for ks in product((1, 2, 3, 4), repeat=nqg):
            try:
                R = semidirect_product(c5, Q, [[pow5[k]] for k in ks])
            except ActionError:
                continue
            sig = group_signature(R)
            if sig not in seen_r:
                seen_r[sig] = R
    print(f"  order-160 candidates: {len(seen_r)}")

    g3 = c3.generator_indices[0]
    inv3 = c3.power(g3, 2)
    for R in seen_r.values():
        nrg = len(R.generator_indices)
        for ks in product((1, 2), repeat=nrg):
            if all(k == 1 for k in ks):
                continue
            try:
                G = semidirect_product(c3, R, [[g3 if k == 1 else inv3] for k in ks])
            except ActionError:
                continue
            if conjugacy_classes(G).cs_set == target:
                return rename(G, "g480_166")
    raise SystemExit("g480_166: no candidate matched the target class sizes")


def build_g486_176() -> FiniteGroup:
    """Search ((C3 x ((C3 x C3) : C3)) : C3) : C2 for class sizes {1,2,3,18,27}."""
    target = (1, 2, 3, 18, 27)
    # (C3 x C3) : C3 with a nontrivial action is the Heisenberg group of order 27
    W = direct_product(cyclic(3), extraspecial_p3(3))
    seen_t = {}
    for T in extensions_by_cyclic(W, 3):
        # in T : C2 a T-class size s becomes s or 2s, so only {1,3,9,27}
        # can land inside the target; 18 needs source 9 (27 may come from
        # classes in the nontrivial coset instead)
        cs = set(conjugacy_classes(T).cs_set)
        if not cs <= {1, 3, 9, 27} or 9 not in cs:
            continue
        sig = group_signature(T)
        if sig not in seen_t:
            seen_t[sig] = T
    print(f"  order-243 candidates: {len(seen_t)}", flush=True)
    for sig, T in sorted(seen_t.items()):
        prof = conjugacy_classes(T)

        def fusion_ok(g, y, prof=prof):
            # the fusion constraints below, applied per generator image
            cls = class_members(prof, g)
            if len(cls) in (3, 27):
                return y in cls
            if len(cls) == 9:
                return y not in cls
            return True

        checked = 0
        for phi in automorphisms_of_order(T, 2, fix_first_up_to_conjugacy=True,
                                          candidate_filter=fusion_ok):
            if all(phi[v] == v for v in range(T.order)):
                continue
            # class-fusion filter: sizes 3 and 27 must stay (phi-stable
            # classes), size 9 must double to 18 (phi-moved classes)
            ok = True
            for rep, cls in prof.classes:
                stable = phi[rep] in cls
                size = len(cls)
                if (size in (3, 27) and not stable) or (size == 9 and stable):
                    ok = False
                    break
            if not ok:
                continue
            images = [phi[g] for g in T.generator_indices]
            try:
                G = semidirect_product(T, cyclic(2), [images])
            except ActionError:
                continue
            checked += 1
            if conjugacy_classes(G).cs_set == target:
                return rename(G, "g486_176")
        print(f"  candidate exhausted ({checked} extensions built)", flush=True)
    raise SystemExit("g486_176: no candidate matched the target class sizes")


def build_g162_5() -> FiniteGroup:
    """Search ((C9 x C3) : C3) : C2 for class sizes {1,2,3,6,27}."""
    target = (1, 2, 3, 6, 27)
    W = direct_product(cyclic(9), cyclic(3))
    seen_p = {}
    for P in extensions_by_cyclic(W, 3):
        sig = group_signature(P)
        if sig not in seen_p:
            seen_p[sig] = P
    print(f"  order-81 candidates: {len(seen_p)}")
    for sig, P in sorted(seen_p.items()):
        for G in extensions_by_cyclic(P, 2):
            if conjugacy_classes(G).cs_set == target:
                return rename(G, "g162_5")
    raise SystemExit("g162_5: no candidate matched the target class sizes")


TARGETS = {
    "psl_2_8": build_psl_2_8,
    "g160_234": build_g160_234,
    "g480_166": build_g480_166,
    "g486_176": build_g486_176,
    "g162_5": build_g162_5,
}


def main(argv: list[str]) -> None:
    names = argv or list(TARGETS)
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    for name in names:
        t0 = time.time()
        print(f"building {name} ...")
        G = TARGETS[name]()
        cs = conjugacy_classes(G).cs_set
        print(f"  order {G.order}, cs {cs}  [{time.time() - t0:.1f}s]")
        dump_fixture(G, FIXTURE_DIR / f"{name}.txt",
                     comment=f"generated by scripts/generate_fixtures.py; "
                             f"order {G.order}, class sizes {list(cs)}")
        print(f"  wrote {FIXTURE_DIR / (name + '.txt')}")


if __name__ == "__main__":
    main(sys.argv[1:])
