"""Property suite for the supporting class-size lemmas.

Each check is universally quantified over the instances in a group whose
hypotheses hold; the suite counts exercised instances per lemma and
collects replayable failure witnesses.  Zero failures are expected on
correct engine code, so the suite doubles as a regression harness.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field

from .arith import arithmetic_profile
from .classes import conjugacy_classes, is_p_element, pi_part_of_element
from .construct import FiniteGroup
from .structure import (
    EnumerationLimitError,
    center,
    centralizer_of_set,
    core_p,
    generating_set,
    hall,
    is_frobenius,
    is_normal,
    quotient,
    subgroup_as_group,
    sylow,
)
from .theorems import GroupAnalysis

LEMMA_IDS = ("2.1a", "2.1b", "2.1c", "2.1d", "2.1e",
             "2.2", "2.3", "2.4", "2.5", "2.6")

# per-group work bounds; checks stay sound on any subset of instances
MAX_QUOTIENT_NORMALS = 24
MAX_COMMUTING_PAIRS = 400
DEFAULT_PAIR_LIMIT = 10 ** 6  # lemma 2.4's pairs per prime before sampling


@dataclass
class LemmaFailure:
    lemma: str
    group: str
    detail: str


@dataclass
class LemmaReport:
    instances: Counter = field(default_factory=Counter)
    failures: list[LemmaFailure] = field(default_factory=list)
    skipped: list[tuple[str, str, str]] = field(default_factory=list)

    def merge(self, other: "LemmaReport") -> None:
        self.instances.update(other.instances)
        self.failures.extend(other.failures)
        self.skipped.extend(other.skipped)

    def ok(self) -> bool:
        return not self.failures

    def covered(self) -> dict[str, int]:
        return {lem: self.instances.get(lem, 0) for lem in LEMMA_IDS}


def _record(report: LemmaReport, lemma: str, group: str, passed: bool, detail: str):
    report.instances[lemma] += 1
    if not passed:
        report.failures.append(LemmaFailure(lemma, group, detail))


def o_p_prime(p: int, profile) -> frozenset[int]:
    """O_{p'}(G): the largest normal subgroup of order coprime to p.

    One pass over the class closures N: N joins M when |MN| stays prime
    to p.  M stays a normal p'-group, so every class inside O_{p'} joins.
    """
    M = 1
    for N in profile.class_closures:
        order = profile.size(M) * profile.size(N) // profile.size(M & N)
        if order % p:
            M = profile.product(M, N)
    return profile.members(M)


def _direct_factor_check(G: FiniteGroup, A: frozenset[int], B: frozenset[int]) -> bool:
    """Is G the internal direct product of subgroups A and B?"""
    if len(A) * len(B) != G.order or (A & B) != {0}:
        return False
    return _commute(G, A, B)


def _commute(G: FiniteGroup, A: frozenset[int], B: frozenset[int]) -> bool:
    ga = generating_set(G, A)
    gb = generating_set(G, B)
    return all(G.mul(x, y) == G.mul(y, x) for x in ga for y in gb)


# -- individual lemma checks ----------------------------------------------------


def check_quotient_class_size_divides(G, analysis, report: LemmaReport):
    """2.1a: class sizes in a quotient divide the class sizes upstairs."""
    profile = analysis.profile
    if analysis.is_abelian:
        _record(report, "2.1a", G.name, True, "")
        return
    normals = analysis.normals
    if len(normals) > MAX_QUOTIENT_NORMALS:
        normals = sorted(normals, key=len)[:MAX_QUOTIENT_NORMALS // 2] + \
            sorted(normals, key=lambda N: -len(N))[:MAX_QUOTIENT_NORMALS // 2]
        report.skipped.append(("2.1a", G.name, "normal subgroups truncated"))
    for N in normals:
        mask = profile.mask_of(N)
        for c, (x, members) in enumerate(profile.classes):
            up = len(members)
            down = profile.quotient_class_size(c, mask)
            _record(report, "2.1a", G.name, up % down == 0,
                    f"N order {len(N)}, x={x}: {down} does not divide {up}")


def check_coprime_class_size_factorization(G, analysis, report: LemmaReport):
    """2.1b: coprime class sizes give G = C(x)C(y), (xy)^G = x^G y^G and
    |(xy)^G| dividing |x^G||y^G|."""
    profile = analysis.profile
    if analysis.is_abelian:
        _record(report, "2.1b", G.name, True, "")
        return
    reps = [r for r in profile.representatives if profile.class_size_of(r) > 1]
    for i, x in enumerate(reps):
        cx = None
        for y in reps[i:]:
            sx, sy = profile.class_size_of(x), profile.class_size_of(y)
            if math.gcd(sx, sy) != 1:
                continue
            cx = cx if cx is not None else centralizer_of_set(G, [x])
            cy = centralizer_of_set(G, [y])
            product_order = len(cx) * len(cy) // len(cx & cy)
            ok = product_order == G.order
            xy = G.mul(x, y)
            sxy = profile.class_size_of(xy)
            ok = ok and sx * sy % sxy == 0
            # x^G y^G is a union of classes: (xy)^G when it meets no other class
            met = profile.product(profile.mask_of([x]), profile.mask_of([y]))
            ok = ok and met == profile.mask_of([xy])
            _record(report, "2.1b", G.name, ok,
                    f"x={x} (size {sx}), y={y} (size {sy})")


def check_commuting_coprime_centralizer(G, analysis, report: LemmaReport):
    """2.1c: commuting elements of coprime order have
    C(xy) = C(x) n C(y)."""
    profile = analysis.profile
    if analysis.is_abelian:
        _record(report, "2.1c", G.name, True, "")
        return
    orders = G.element_orders
    budget = MAX_COMMUTING_PAIRS
    for x in profile.representatives:
        if x == 0:
            continue
        cx = centralizer_of_set(G, [x])
        ox = int(orders[x])
        for y in sorted(cx):
            if y == 0 or math.gcd(ox, int(orders[y])) != 1:
                continue
            cy = centralizer_of_set(G, [y])
            cxy = centralizer_of_set(G, [G.mul(x, y)])
            _record(report, "2.1c", G.name, cxy == (cx & cy),
                    f"x={x}, y={y}")
            budget -= 1
            if budget <= 0:
                report.skipped.append(("2.1c", G.name, "pair budget reached"))
                return
        if budget <= 0:
            return


def check_prime_missing_from_class_sizes(G, analysis, report: LemmaReport):
    """2.1d: p divides no class size iff G = P x O_{p'}(G) with P an
    abelian Sylow p-subgroup (both directions)."""
    profile = analysis.profile
    for p in arithmetic_profile(G.order).primes:
        lhs = all(s % p != 0 for s in profile.cs_set)
        P = sylow(G, p)
        P_abelian = _commute(G, P, P)
        O = o_p_prime(p, profile)
        rhs = P_abelian and _direct_factor_check(G, P, O)
        _record(report, "2.1d", G.name, lhs == rhs,
                f"p={p}: lhs={lhs}, rhs={rhs}")


def check_pi_element_lifting(G, analysis, report: LemmaReport):
    """2.1e: pi-elements of a quotient lift to pi-elements, via the
    primary decomposition of any preimage."""
    if analysis.is_abelian:
        _record(report, "2.1e", G.name, True, "")
        return
    profile = analysis.profile
    normals = [N for N in analysis.normals if 1 < len(N) < G.order]
    if len(normals) > MAX_QUOTIENT_NORMALS:
        normals = normals[:MAX_QUOTIENT_NORMALS]
        report.skipped.append(("2.1e", G.name, "normal subgroups truncated"))
    for N in normals:
        # the classes of G/N are the unions x^G N; each is represented by
        # its least element x, the representative of its first class
        covered = mask = profile.mask_of(N)
        for c, (x, _) in enumerate(profile.classes):
            if covered >> c & 1:
                continue
            covered |= profile.product(1 << c, mask)
            k, xk = 1, x  # the order of xN is the least k with x^k in N
            while xk not in N:
                k, xk = k + 1, G.mul(xk, x)
            pi = set(arithmetic_profile(k).primes)
            y = pi_part_of_element(G, x, pi)
            z = pi_part_of_element(G, x, set(arithmetic_profile(int(G.element_orders[x])).primes) - pi)
            ok = (z in N and G.mul(int(G.inv[x]), y) in N
                  and arithmetic_profile(int(G.element_orders[y])).is_pi_number(pi))
            _record(report, "2.1e", G.name, ok,
                    f"N order {len(N)}, x={x}")


def check_coprime_triple_growth(G, analysis, report: LemmaReport):
    """2.2: pairwise coprime 1 < a < b1 < b2 in cs(G) force some
    c in cs(G) with c > b_i and c | a*b_i."""
    cs = [s for s in analysis.profile.cs_set if s > 1]
    for i, a_val in enumerate(cs):
        for j in range(i + 1, len(cs)):
            for k in range(j + 1, len(cs)):
                b1, b2 = cs[j], cs[k]
                if math.gcd(a_val, b1) != 1 or math.gcd(a_val, b2) != 1 \
                        or math.gcd(b1, b2) != 1:
                    continue
                ok = any(c > b and (a_val * b) % c == 0
                         for b in (b1, b2) for c in analysis.profile.cs_set)
                _record(report, "2.2", G.name, ok,
                        f"triple ({a_val}, {b1}, {b2})")


def _coprimality_components(values: list[int]) -> list[set[int]]:
    comps: list[set[int]] = []
    for v in values:
        linked = [c for c in comps if any(math.gcd(v, w) > 1 for w in c)]
        merged = {v}
        for c in linked:
            merged |= c
            comps.remove(c)
        comps.append(merged)
    return comps


def check_disconnected_class_sizes(G, analysis, report: LemmaReport):
    """2.3: when every class size is a pi- or pi'-number (both occurring),
    the stripped group is HL with L normal abelian Hall, H abelian Hall,
    central quotient Frobenius, and cs = {1, |L|, |H/Z|}."""
    values = [s for s in analysis.profile.cs_set if s > 1]
    comps = _coprimality_components(values)
    if len(comps) < 2:
        return
    pi = set()
    for v in comps[0]:
        pi |= set(arithmetic_profile(v).primes)
    core, _ = analysis.stripped
    if core.order == 1:
        _record(report, "2.3", G.name, False, "trivial core despite split class sizes")
        return
    pi_all = set(arithmetic_profile(core.order).primes)
    ok = _disconnected_conclusion(core, pi & pi_all, analysis.normal_limit) or \
        _disconnected_conclusion(core, pi_all - pi, analysis.normal_limit)
    _record(report, "2.3", G.name, ok, f"pi={sorted(pi)}")


def _disconnected_conclusion(core: FiniteGroup, pi: set[int], limit: int) -> bool:
    pi_prime = set(arithmetic_profile(core.order).primes) - pi
    H = hall(core, pi, limit)
    L = hall(core, pi_prime, limit)
    if H is None or L is None:
        return False
    if not is_normal(core, L):
        return False
    if not (_commute(core, H, H) and _commute(core, L, L)):
        return False
    if len(H) * len(L) != core.order:
        return False
    Z = center(core)
    q = quotient(core, Z)
    if not is_frobenius(q.group, limit).is_frobenius:
        return False
    expected = tuple(sorted({1, len(L), len(H) // len(Z)}))
    return conjugacy_classes(core).cs_set == expected


def check_mixed_prime_power_products(G, analysis, report: LemmaReport,
                                     pair_limit: int, seed: int):
    """2.4: noncentral t-elements x, y with class sizes powers of distinct
    primes and |(xy)^G| a prime power satisfy <x,y> <= O_t(G) and
    |(xy)^G| = max, a power of t, with a nonabelian Sylow t-subgroup."""
    profile = analysis.profile
    if analysis.is_abelian:
        return
    zset = analysis.center
    for t in arithmetic_profile(G.order).primes:
        telts = [x for x in range(1, G.order)
                 if x not in zset and is_p_element(G, x, t)
                 and arithmetic_profile(profile.class_size_of(x)).is_prime_power()]
        reps = [x for x in telts if profile.representatives[int(profile.class_of[x])] == x]
        pairs = [(x, y) for x in reps for y in telts
                 if arithmetic_profile(profile.class_size_of(x)).primes
                 != arithmetic_profile(profile.class_size_of(y)).primes]
        if len(pairs) > pair_limit:
            rng = random.Random(seed)
            pairs = rng.sample(pairs, pair_limit)
            report.skipped.append(("2.4", G.name, f"sampled {pair_limit} pairs (seed {seed})"))
        core = None
        for x, y in pairs:
            sxy = profile.class_size_of(G.mul(x, y))
            if not arithmetic_profile(sxy).is_prime_power() or sxy == 1:
                continue
            if core is None:  # once per t, and only for a t with an instance
                core = core_p(G, t)
                syl = sylow(G, t)
                nonabelian = not _commute(G, syl, syl)
            sx, sy = profile.class_size_of(x), profile.class_size_of(y)
            inside = G.subgroup_closure([x, y]) <= core
            max_ok = sxy == max(sx, sy) and arithmetic_profile(sxy).primes == (t,)
            _record(report, "2.4", G.name, inside and max_ok and nonabelian,
                    f"t={t}, x={x} (size {sx}), y={y} (size {sy}), |(xy)^G|={sxy}")


def check_two_class_sizes_for_p_regular(G, analysis, report: LemmaReport):
    """2.5: if prime-power-order p'-elements all have class size 1 or m,
    then m = p^a q^b for a single prime q distinct from p; when q really
    divides m, the stripped group is a {p,q}-group."""
    profile = analysis.profile
    orders = G.element_orders
    for p in arithmetic_profile(G.order).primes:
        sizes = set()
        for x in range(1, G.order):
            prof = arithmetic_profile(int(orders[x]))
            if prof.is_prime_power() and prof.primes != (p,):
                sizes.add(profile.class_size_of(x))
        nontrivial = sizes - {1}
        if len(nontrivial) > 1:
            continue
        m = next(iter(nontrivial), 1)
        m_extra = set(arithmetic_profile(m).primes) - {p}
        ok = len(m_extra) <= 1
        detail = f"p={p}, m={m}"
        if ok and m_extra:
            q = next(iter(m_extra))
            core, _ = analysis.stripped
            ok = arithmetic_profile(core.order).is_pi_number({p, q})
            detail += f", q={q}, core order {core.order}"
        _record(report, "2.5", G.name, ok, detail)


def check_minimal_centralizer_shape(G, analysis, report: LemmaReport):
    """2.6: a minimal centralizer realized by an r-element splits as
    (Sylow r-subgroup) x (abelian r'-group)."""
    if analysis.is_abelian:
        return
    profile = analysis.profile
    orders = G.element_orders
    cents = {x: centralizer_of_set(G, [x]) for x in profile.representatives}
    for x, X in cents.items():
        if x == 0:
            continue
        # minimal: no centralizer of an element of X is a smaller subgroup of X
        minimal = all(profile.centralizer_order_of(y) >= len(X)
                      or not (centralizer_of_set(G, [y]) < X)
                      for y in sorted(X) if y != 0)
        if not minimal:
            continue
        for g in sorted(X):
            prof = arithmetic_profile(int(orders[g]))
            if g == 0 or not prof.is_prime_power():
                continue
            if profile.centralizer_order_of(g) != len(X) or centralizer_of_set(G, [g]) != X:
                continue
            r = prof.primes[0]
            Xgrp, _ = subgroup_as_group(G, X)
            R = sylow(Xgrp, r)
            A = frozenset(i for i in range(Xgrp.order)
                          if math.gcd(int(Xgrp.element_orders[i]), r) == 1)
            a_subgroup = Xgrp.subgroup_closure(sorted(A)) == A
            ok = (a_subgroup and _commute(Xgrp, A, A)
                  and _direct_factor_check(Xgrp, R, A))
            _record(report, "2.6", G.name, ok,
                    f"x={x}, r={r}, |X|={len(X)}, |R|={len(R)}, |A|={len(A)}")
            break  # one witness element per minimal centralizer


def lemma_suite_for_group(G: FiniteGroup, analysis=None,
                          pair_limit: int = DEFAULT_PAIR_LIMIT, seed: int = 0) -> LemmaReport:
    analysis = analysis or GroupAnalysis(G)
    report = LemmaReport()
    try:
        check_quotient_class_size_divides(G, analysis, report)
        check_coprime_class_size_factorization(G, analysis, report)
        check_commuting_coprime_centralizer(G, analysis, report)
        check_prime_missing_from_class_sizes(G, analysis, report)
        check_pi_element_lifting(G, analysis, report)
        check_coprime_triple_growth(G, analysis, report)
        check_disconnected_class_sizes(G, analysis, report)
        check_mixed_prime_power_products(G, analysis, report, pair_limit, seed)
        check_two_class_sizes_for_p_regular(G, analysis, report)
        check_minimal_centralizer_shape(G, analysis, report)
    except EnumerationLimitError as exc:
        report.skipped.append(("*", G.name, f"structural limit: {exc}"))
    return report

