"""Property suite for the supporting class-size lemmas.

Each check is universally quantified over the instances in a group whose
hypotheses hold; the suite counts exercised instances per lemma and
collects replayable failure witnesses.  Zero failures are expected on
correct engine code, so the suite doubles as a regression harness.

A check stays sound on any subset of its instances, so the suite samples
where a full walk would cost too much.  Lemmas 2.1a and 2.1e range over
normal subgroups N: they sample the distinct normal closures of single
classes (``GroupAnalysis.class_closures``), which the class algebra
yields, and never build the whole normal-subgroup lattice, whose joins
cost a class product each.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .arith import arithmetic_profile
from .classes import pi_part_exponent
from .construct import FiniteGroup
from .structure import (
    center,
    generating_set,
    hall,
    is_frobenius,
    normal_core,
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


def _record(report: LemmaReport, lemma: str, group: str, passed: bool,
            detail: Callable[[], str] = str):
    """Count one instance; a failure keeps ``detail()``, built only then."""
    report.instances[lemma] += 1
    if not passed:
        report.failures.append(LemmaFailure(lemma, group, detail()))


def _abelian(G: FiniteGroup, A: frozenset[int]) -> bool:
    gens = generating_set(G, A)
    return all(G.mul(x, y) == G.mul(y, x) for x in gens for y in gens)


def _sylow_splits(orders: np.ndarray, p: int) -> bool:
    """Whether a group with element orders ``orders`` is P x O_p', P Sylow:
    exactly when it has |G|_p p-elements and |G|_p' p'-elements.  The p-elements
    are the union of the Sylow p-subgroups, so P is then normal, and so is its
    complement K (Schur-Zassenhaus), as K's conjugates hold only p'-elements."""
    part = arithmetic_profile(len(orders)).part(p)
    return (np.count_nonzero(part % orders == 0) == part
            and np.count_nonzero(orders % p) * part == len(orders))


def _members(mask: int, n: int) -> np.ndarray:
    """The elements whose bits are set in an n-bit element mask, in
    increasing order."""
    packed = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(packed, count=n, bitorder="little"))


# -- individual lemma checks ----------------------------------------------------


def check_quotient_class_size_divides(G, analysis, report: LemmaReport):
    """2.1a: class sizes in a quotient divide the class sizes upstairs."""
    profile = analysis.profile
    if analysis.is_abelian:
        _record(report, "2.1a", G.name, True)
        return
    normals = analysis.class_closures
    if len(normals) > MAX_QUOTIENT_NORMALS:
        normals = sorted(normals, key=len)[:MAX_QUOTIENT_NORMALS // 2] + \
            sorted(normals, key=lambda N: -len(N))[:MAX_QUOTIENT_NORMALS // 2]
        report.skipped.append(("2.1a", G.name, "normal subgroups truncated"))
    for N in normals:
        downs = profile.quotient_class_sizes(profile.mask_of(N))
        for x, up, down in zip(profile.representatives, profile.sizes, downs):
            _record(report, "2.1a", G.name, up % down == 0,
                    lambda: f"N order {len(N)}, x={x}: {down} does not divide {up}")


def check_coprime_class_size_factorization(G, analysis, report: LemmaReport):
    """2.1b: coprime class sizes give G = C(x)C(y), (xy)^G = x^G y^G and
    |(xy)^G| dividing |x^G||y^G|."""
    profile = analysis.profile
    if analysis.is_abelian:
        _record(report, "2.1b", G.name, True)
        return
    reps, sizes, class_index = profile.representatives, profile.sizes, profile.class_index
    noncentral = [c for c, size in enumerate(sizes) if size > 1]
    for i, a in enumerate(noncentral):
        x, sx = reps[a], sizes[a]
        coprime = [b for b in noncentral[i:] if math.gcd(sx, sizes[b]) == 1]
        if not coprime:
            continue
        cx = analysis.centralizer(x)
        xys = G.products([x], [reps[b] for b in coprime])[0].tolist()
        for b, xy in zip(coprime, xys):
            y, sy = reps[b], sizes[b]
            cy = analysis.centralizer(y)
            # |C(x)C(y)| = |C(x)||C(y)|/|C(x) n C(y)| is |G|
            ok = cx.bit_count() * cy.bit_count() == G.order * (cx & cy).bit_count()
            ok = ok and sx * sy % sizes[class_index[xy]] == 0
            # x^G y^G is a union of classes: (xy)^G when it meets no other class
            ok = ok and profile.support[a][b] == 1 << class_index[xy]
            _record(report, "2.1b", G.name, ok,
                    lambda: f"x={x} (size {sx}), y={y} (size {sy})")


def check_commuting_coprime_centralizer(G, analysis, report: LemmaReport):
    """2.1c: commuting elements of coprime order have
    C(xy) = C(x) n C(y)."""
    profile = analysis.profile
    if analysis.is_abelian:
        _record(report, "2.1c", G.name, True)
        return
    orders = G.element_orders
    budget = MAX_COMMUTING_PAIRS
    for x in profile.representatives:
        if x == 0:
            continue
        cx = analysis.centralizer(x)
        ys = _members(cx, G.order)
        ys = ys[(np.gcd(orders[ys], orders[x]) == 1) & (ys != 0)][:budget]
        if not len(ys):
            continue
        for y, xy in zip(ys.tolist(), G.products([x], ys)[0].tolist()):
            cy = analysis.centralizer(y)
            _record(report, "2.1c", G.name, analysis.centralizer(xy) == cx & cy,
                    lambda: f"x={x}, y={y}")
            budget -= 1
            if budget <= 0:
                report.skipped.append(("2.1c", G.name, "pair budget reached"))
                return


def check_prime_missing_from_class_sizes(G, analysis, report: LemmaReport):
    """2.1d: p divides no class size iff G = P x O_{p'}(G) with P an
    abelian Sylow p-subgroup (both directions)."""
    for p in arithmetic_profile(G.order).primes:
        lhs = all(s % p != 0 for s in analysis.profile.cs_set)
        rhs = _abelian_sylow_factor(G, p)
        _record(report, "2.1d", G.name, lhs == rhs,
                lambda: f"p={p}: lhs={lhs}, rhs={rhs}")


def _abelian_sylow_factor(G: FiniteGroup, p: int) -> bool:
    """The right side of 2.1d by ``_sylow_splits``: P is the p-elements, abelian if they commute."""
    P = np.flatnonzero(arithmetic_profile(G.order).part(p) % G.element_orders == 0)
    return _sylow_splits(G.element_orders, p) and _abelian(G, frozenset(P.tolist()))


def check_pi_element_lifting(G, analysis, report: LemmaReport):
    """2.1e: pi-elements of a quotient lift to pi-elements, via the
    primary decomposition of any preimage."""
    if analysis.is_abelian:
        _record(report, "2.1e", G.name, True)
        return
    profile = analysis.profile
    normals = [N for N in analysis.class_closures if 1 < len(N) < G.order]
    if len(normals) > MAX_QUOTIENT_NORMALS:
        normals = normals[:MAX_QUOTIENT_NORMALS]
        report.skipped.append(("2.1e", G.name, "normal subgroups truncated"))
    powers = G.power_table(profile.representatives) if normals else []
    for N in normals:
        # the classes of G/N are the unions x^G N; each is represented by
        # its least element x, the representative of its first class
        covered = mask = profile.mask_of(N)
        for c, x in enumerate(profile.representatives):
            if covered >> c & 1:
                continue
            covered |= profile.product(1 << c, mask)
            xs = powers[c]
            o = len(xs)
            # the order of xN is the least k with x^k in N
            k = next(k for k in range(1, o + 1) if xs[k % o] in N)
            pi = set(arithmetic_profile(k).primes)
            e = pi_part_exponent(o, pi)
            y, z = xs[e], xs[pi_part_exponent(o, set(arithmetic_profile(o).primes) - pi)]
            # y = x^e maps to xN: x^-1 y = x^(e-1) lies in N
            ok = (z in N and xs[(e - 1) % o] in N
                  and arithmetic_profile(int(G.element_orders[y])).is_pi_number(pi))
            _record(report, "2.1e", G.name, ok,
                    lambda: f"N order {len(N)}, x={x}")


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
                        lambda: f"triple ({a_val}, {b1}, {b2})")


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
        _record(report, "2.3", G.name, False, lambda: "trivial core despite split class sizes")
        return
    pi_all = set(arithmetic_profile(core.order).primes)
    ok = _disconnected_conclusion(core, pi & pi_all, analysis) or \
        _disconnected_conclusion(core, pi_all - pi, analysis)
    _record(report, "2.3", G.name, ok, lambda: f"pi={sorted(pi)}")


def _disconnected_conclusion(core: FiniteGroup, pi: set[int], analysis) -> bool:
    pi_prime = set(arithmetic_profile(core.order).primes) - pi
    H = hall(analysis.core_profile, pi)
    L = hall(analysis.core_profile, pi_prime)
    if H is None or L is None:
        return False
    if not _normal_hall(core, L):
        return False
    if not (_abelian(core, H) and _abelian(core, L)):
        return False
    if len(H) * len(L) != core.order:
        return False
    Z = center(core)
    if not is_frobenius(analysis.core_profile, Z).is_frobenius:
        return False
    expected = tuple(sorted({1, len(L), len(H) // len(Z)}))
    return analysis.core_profile.cs_set == expected


def _normal_hall(G: FiniteGroup, L: frozenset[int]) -> bool:
    """Whether the Hall subgroup L of G is normal: exactly when it holds each x of order
    prime to |G:L|, a union of classes (for L normal, <x>L is a subgroup of such order)."""
    return np.count_nonzero(np.gcd(G.element_orders, G.order // len(L)) == 1) == len(L)


def check_mixed_prime_power_products(G, analysis, report: LemmaReport,
                                     pair_limit: int, seed: int):
    """2.4: noncentral t-elements x, y with class sizes powers of distinct
    primes and |(xy)^G| a prime power satisfy <x,y> <= O_t(G) and
    |(xy)^G| = max, a power of t, with a nonabelian Sylow t-subgroup."""
    profile = analysis.profile
    if analysis.is_abelian:
        return
    zset, orders = analysis.center, G.element_orders
    for t in arithmetic_profile(G.order).primes:
        telts = [x for x in range(1, G.order)
                 if x not in zset and arithmetic_profile(int(orders[x])).primes == (t,)
                 and arithmetic_profile(profile.class_size_of(x)).is_prime_power()]
        reps = [x for x in telts if profile.representatives[profile.class_index[x]] == x]
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
                syl = sylow(profile, t)
                core = normal_core(profile, syl)
                nonabelian = not _abelian(G, syl)
            sx, sy = profile.class_size_of(x), profile.class_size_of(y)
            inside = x in core and y in core  # O_t(G) is a subgroup
            max_ok = sxy == max(sx, sy) and arithmetic_profile(sxy).primes == (t,)
            _record(report, "2.4", G.name, inside and max_ok and nonabelian,
                    lambda: f"t={t}, x={x} (size {sx}), y={y} (size {sy}), |(xy)^G|={sxy}")


def check_two_class_sizes_for_p_regular(G, analysis, report: LemmaReport):
    """2.5: if prime-power-order p'-elements all have class size 1 or m,
    then m = p^a q^b for a single prime q distinct from p; when q really
    divides m, the stripped group is a {p,q}-group."""
    profile = analysis.profile
    # element order and class size are class functions: one look per class
    orders = [arithmetic_profile(int(o)) for o in G.element_orders[profile.representatives]]
    for p in arithmetic_profile(G.order).primes:
        sizes = set()
        for prof, size in zip(orders, profile.sizes):
            if prof.is_prime_power() and prof.primes != (p,):
                sizes.add(size)
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
        _record(report, "2.5", G.name, ok, lambda: detail)


def check_minimal_centralizer_shape(G, analysis, report: LemmaReport):
    """2.6: a minimal centralizer realized by an r-element splits as
    (Sylow r-subgroup) x (abelian r'-group)."""
    if analysis.is_abelian:
        return
    verdicts: dict[int, tuple[bool, str] | None] = {}
    for x in analysis.profile.representatives:
        if x == 0:
            continue
        X = analysis.centralizer(x)
        if X not in verdicts:  # the verdict depends on X alone
            verdicts[X] = _minimal_centralizer_verdict(G, analysis, X)
        if verdicts[X] is not None:
            ok, detail = verdicts[X]
            _record(report, "2.6", G.name, ok, lambda: f"x={x}, {detail}")


def _minimal_centralizer_verdict(G, analysis, X: int) -> tuple[bool, str] | None:
    """Lemma 2.6 on one centralizer mask X: None when X is not minimal or
    no element of prime-power order has centralizer X, else the verdict on
    the first such element, an r-element, and its detail."""
    profile, order = analysis.profile, X.bit_count()
    members = _members(X, G.order).tolist()
    # minimal: no centralizer of an element of X is a smaller subgroup of X
    if any(profile.centralizer_order_of(y) < order and analysis.centralizer(y) | X == X
           for y in members if y != 0):
        return None
    for g in members:
        prof = arithmetic_profile(int(G.element_orders[g]))
        if g == 0 or not prof.is_prime_power():
            continue
        if profile.centralizer_order_of(g) != order or analysis.centralizer(g) != X:
            continue
        r = prof.primes[0]
        ok, a_order = _splits_off_sylow(G, analysis, X, r)
        return ok, f"r={r}, |X|={order}, |R|={arithmetic_profile(order).part(r)}, |A|={a_order}"
    return None


def _splits_off_sylow(G, analysis, X: int, r: int) -> tuple[bool, int]:
    """Is the subgroup with mask X the direct product R x A of a Sylow
    r-subgroup R and an abelian r'-group A?  With the number of
    r'-elements of X.

    It is exactly when X has |X|_r r-elements and |X|/|X|_r r'-elements,
    all central in X.  Then the r-elements are X's one Sylow r-subgroup R,
    the r'-elements of the abelian Z(X) are a subgroup A, and R n A = 1
    with RA = X.  Conversely R is normal in R x A, so it holds every
    r-element of X, and A every r'-element.
    """
    order = X.bit_count()
    members = _members(X, G.order)
    orders = G.element_orders[members]
    A = members[orders % r != 0].tolist()
    profile = analysis.profile
    ok = (_sylow_splits(orders, r)
          and all(profile.centralizer_order_of(a) >= order
                  and analysis.centralizer(a) & X == X for a in A))
    return ok, len(A)


def lemma_suite_for_group(G: FiniteGroup, analysis=None,
                          pair_limit: int = DEFAULT_PAIR_LIMIT, seed: int = 0) -> LemmaReport:
    """Run the ten lemma checks on G; each records its instances, failures
    and skips under its own lemma id."""
    analysis = analysis or GroupAnalysis(G)
    report = LemmaReport()
    checks = [check_quotient_class_size_divides, check_coprime_class_size_factorization,
              check_commuting_coprime_centralizer, check_prime_missing_from_class_sizes,
              check_pi_element_lifting, check_coprime_triple_growth,
              check_disconnected_class_sizes,
              partial(check_mixed_prime_power_products, pair_limit=pair_limit, seed=seed),
              check_two_class_sizes_for_p_regular, check_minimal_centralizer_shape]
    for check in checks:
        check(G, analysis, report)
    return report
