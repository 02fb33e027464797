"""Executable verdicts for the statements on class sizes: Theorems A and
C (exactly two composite class sizes), the Chillag-Herzog dichotomy (no
composite one), the Conjecture B check and the PSL(2, 2^a) formula; and
``GroupAnalysis``, the per-group cache they share with the lemma suite."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .arith import arithmetic_profile, is_prime
from .catalog import psl_2_8_fixture
from .classes import composite_split, conjugacy_classes
from .construct import FiniteGroup, alternating
from .structure import (
    NotNilpotentError,
    center,
    centralizer_mask,
    derived_series,
    fitting2,
    is_frobenius,
    nilpotency_class,
    o_pi,
    strip_abelian_factors,
    subgroup_as_group,
)


@dataclass
class Conclusion:
    label: str
    passed: bool
    witness: str = ""


@dataclass
class TheoremVerdict:
    theorem_id: str          # one of A, C, CH, ConjB, PropAS
    hypotheses_apply: bool
    reason: str
    conclusions: list[Conclusion] = field(default_factory=list)
    witnesses: dict = field(default_factory=dict)
    incomplete: bool = False

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.conclusions)

    def status(self) -> str:
        if self.incomplete:
            return "inconclusive"
        if not self.hypotheses_apply:
            return "not-applicable"
        return "pass" if self.all_pass else "FAIL"


class GroupAnalysis:
    """Caches the per-group data the verdicts share; ``profile`` is the
    group's one class algebra, which the mask queries read.

    The derived series and the center are computed once: solubility and
    the stripping of abelian factors read G' from the one, and the strip
    and the lemma checks read the other.  The centralizer of each
    element is kept too, once asked for, as an n-bit mask: an int whose
    bit g is set when g commutes with the element.  The lemma checks ask
    for the same C(x) many times and test products, intersections and
    inclusions of centralizers, which are popcounts and bit operations
    on masks.  All n masks take n^2/8 bytes.
    """

    def __init__(self, G: FiniteGroup):
        self.group = G
        self._centralizers: dict[int, int] = {}

    def centralizer(self, x: int) -> int:
        """C(x), the centralizer of the element x, as a bit mask."""
        C = self._centralizers.get(x)
        if C is None:
            bits = np.packbits(centralizer_mask(self.group, [x]), bitorder="little")
            C = self._centralizers[x] = int.from_bytes(bits.tobytes(), "little")
        return C

    @cached_property
    def profile(self):
        return conjugacy_classes(self.group)

    @cached_property
    def split(self):
        return composite_split(self.profile)

    @cached_property
    def derived(self) -> tuple[list[frozenset[int]], bool]:
        """G's derived series, and whether it reaches 1."""
        return derived_series(self.group)

    @cached_property
    def soluble(self) -> bool:
        return self.derived[1]

    @cached_property
    def stripped(self):
        # G' from the derived series when it is known (a perfect group's
        # series is [G]); else the strip finds G' alone, by one normal
        # closure on image rows, as the derived series would
        commutators = None
        if "derived" in self.__dict__:
            series = self.derived[0]
            commutators = series[1] if len(series) > 1 else series[0]
        return strip_abelian_factors(self.group, commutators, self.center)

    @cached_property
    def core_profile(self):
        """The stripped core's class profile: ``profile`` when it is G."""
        core, _ = self.stripped
        return self.profile if core is self.group else conjugacy_classes(core)

    @cached_property
    def class_closures(self) -> list[frozenset[int]]:
        """The distinct normal closures of G's classes, by order and then
        members: the normal subgroups that lemmas 2.1a and 2.1e sample."""
        profile = self.profile
        return sorted(map(profile.members, set(profile.class_closures)),
                      key=lambda N: (len(N), sorted(N)))

    @cached_property
    def center(self):
        return center(self.group)

    @property
    def is_abelian(self) -> bool:
        return len(self.center) == self.group.order


# -- Theorem A ----------------------------------------------------------------


def _labeling_by_gcd(cs: tuple[int, ...]) -> Optional[dict]:
    """Label cs = {1, p1, p2, p3, m, n} so that m = p1*p2, n = p1*p3.

    p1 is forced: it is gcd(m, n) when the labeling exists.
    """
    primes = sorted(s for s in cs if is_prime(s))
    comps = sorted(s for s in cs if arithmetic_profile(s).is_composite)
    if len(cs) != 6 or len(primes) != 3 or len(comps) != 2:
        return None
    m, n = comps
    p1 = math.gcd(m, n)
    if not is_prime(p1) or p1 not in primes:
        return None
    p2, p3 = m // p1, n // p1
    if sorted([p1, p2, p3]) != primes:
        return None
    return {"p1": p1, "p2": p2, "p3": p3, "m": m, "n": n}


def check_theorem_A(G: FiniteGroup, analysis: Optional[GroupAnalysis] = None) -> TheoremVerdict:
    """Two composite class sizes: at most three prime class sizes, and in
    the six-value case the composites are p1*p2 and p1*p3 with a
    P x H decomposition up to abelian direct factors."""
    a = analysis or GroupAnalysis(G)
    primes, composites = a.split
    verdict = TheoremVerdict("A", len(composites) == 2,
                             f"composite class sizes: {sorted(composites)}")
    if not verdict.hypotheses_apply:
        return verdict
    verdict.conclusions.append(Conclusion(
        "at-most-three-prime-class-sizes", len(primes) <= 3,
        f"prime class sizes: {sorted(primes)}"))
    labeling = _labeling_by_gcd(a.profile.cs_set)
    if len(a.profile.cs_set) != 6 or len(primes) != 3:
        verdict.witnesses["labeling"] = None
        return verdict
    verdict.conclusions.append(Conclusion(
        "composites-are-p1p2-and-p1p3", labeling is not None,
        f"labeling: {labeling}"))
    if labeling is None:
        return verdict
    verdict.witnesses.update(labeling)
    _check_theorem_A_decomposition(a, labeling, verdict)
    return verdict


def _check_theorem_A_decomposition(a: GroupAnalysis, lab: dict,
                                   verdict: TheoremVerdict) -> None:
    """P x H up to abelian direct factors, with P = O_p1(core) and
    H = O_p1'(core): normal subgroups of the core of orders |core|_p1 and
    |core|_p1' are normal Hall subgroups, so these two if any."""
    core, factor = a.stripped
    p1, p2, p3 = lab["p1"], lab["p2"], lab["p3"]
    if a.core_profile.cs_set != a.profile.cs_set:
        verdict.conclusions.append(Conclusion(
            "strip-preserves-class-sizes", False, f"cs(core)={a.core_profile.cs_set}"))
        return
    P_sub = o_pi(a.core_profile, {p1})
    H_sub = o_pi(a.core_profile, set(arithmetic_profile(core.order).primes) - {p1})
    if len(P_sub) * len(H_sub) != core.order:
        verdict.conclusions.append(Conclusion(
            "P-x-H-decomposition", False, "no internal direct decomposition found"))
        return
    P_grp, _ = subgroup_as_group(core, P_sub, name="P")
    H_grp, _ = subgroup_as_group(core, H_sub, name="H")
    cs_P = conjugacy_classes(P_grp).cs_set
    H_profile = conjugacy_classes(H_grp)
    cs_H = H_profile.cs_set
    is_p1_group = arithmetic_profile(P_grp.order).primes == (p1,)
    try:
        nclass = nilpotency_class(P_grp)
    except NotNilpotentError:
        nclass = None
    verdict.conclusions.append(Conclusion(
        "P-is-p1-group-class-le-2-cs-1-p1",
        is_p1_group and cs_P == (1, p1) and nclass is not None and nclass <= 2,
        f"|P|={P_grp.order}, cs(P)={cs_P}, class={nclass}"))
    ZH = center(H_grp)
    frob = is_frobenius(H_profile, ZH)
    central_quotient_order = H_grp.order // len(ZH)
    verdict.conclusions.append(Conclusion(
        "H-cs-1-p2-p3-and-H/Z-frobenius-p2p3",
        cs_H == tuple(sorted([1, p2, p3])) and frob.is_frobenius
        and central_quotient_order == p2 * p3,
        f"cs(H)={cs_H}, |H/Z(H)|={central_quotient_order}, frobenius={frob.is_frobenius}"))
    verdict.witnesses["P_order"] = P_grp.order
    verdict.witnesses["H_order"] = H_grp.order
    verdict.witnesses["abelian_factor_order"] = len(factor)


# -- Theorem C ----------------------------------------------------------------


def _match_case_patterns(cs: tuple[int, ...], p: int, pa: int, n: int) -> list[dict]:
    """Which of the three class-size patterns match (should be exactly one)."""
    matches = []
    cs_set = set(cs)
    nprof = arithmetic_profile(n)
    if len(cs) == 4 and cs_set == {1, p, pa, n}:
        matches.append({"case": "a"})
    if len(cs) == 4:
        others = cs_set - {1, pa, n}
        if len(others) == 1:
            q = next(iter(others))
            if is_prime(q) and q != p and n % q == 0:
                b_pow = n // q
                prof = arithmetic_profile(b_pow)
                a_exp = arithmetic_profile(pa).prime_factors[0][1]
                if prof.primes in ((), (p,)):
                    b = prof.prime_factors[0][1] if prof.prime_factors else 0
                    if 1 <= b <= a_exp:
                        matches.append({"case": "b", "q": q, "b": b})
    if len(cs) == 5:
        others = sorted(cs_set - {1, p, pa, n})
        if len(others) == 1:
            q = others[0]
            if is_prime(q) and q != p and nprof.is_pi_number({p, q}):
                matches.append({"case": "c", "q": q})
    return matches


def check_theorem_C(G: FiniteGroup, analysis: Optional[GroupAnalysis] = None) -> TheoremVerdict:
    """Two composite class sizes with one a proper prime power: soluble,
    almost-trivial second Fitting quotient, and one of three class-size
    patterns."""
    a = analysis or GroupAnalysis(G)
    cs = a.profile.cs_set
    _, composites = a.split
    pp_composites = [c for c in composites if arithmetic_profile(c).is_prime_power()]
    applies = len(cs) >= 4 and len(composites) == 2 and bool(pp_composites)
    verdict = TheoremVerdict(
        "C", applies,
        f"|cs|={len(cs)}, composites={sorted(composites)}, prime-power composites={sorted(pp_composites)}")
    if not applies:
        return verdict

    best: Optional[TheoremVerdict] = None
    for pa in sorted(pp_composites):
        n = next(c for c in sorted(composites) if c != pa)
        candidate = _theorem_C_for_labeling(a, verdict.reason, pa, n)
        if best is None or (candidate.all_pass and not best.all_pass):
            best = candidate
    assert best is not None
    return best


def _theorem_C_for_labeling(a: GroupAnalysis, reason: str, pa: int, n: int) -> TheoremVerdict:
    G = a.group
    cs = a.profile.cs_set
    p = arithmetic_profile(pa).primes[0]
    a_exp = arithmetic_profile(pa).prime_factors[0][1]
    verdict = TheoremVerdict("C", True, reason)
    verdict.witnesses.update({"p": p, "a": a_exp, "n": n})

    verdict.conclusions.append(Conclusion("soluble", a.soluble))

    F2 = fitting2(a.profile)
    index, orders = G.order // len(F2), set()
    for x in set(a.profile.representatives) - F2:  # orders are class functions of G/F2
        k = math.gcd(int(G.element_orders[x]), index)  # o(xF2) divides k, and x^k is in F2
        orders.add(next((d for d in range(2, k) if k % d == 0 and G.power(x, d) in F2), k))
    cond = all(is_prime(o) for o in orders)
    note = (f"|G/F2|={index}, nonidentity orders {sorted(orders)}" if orders
            else "G equals its second Fitting subgroup")
    verdict.witnesses["F2_index"] = index
    verdict.conclusions.append(Conclusion("F2-covers-or-prime-order-quotient", cond, note))

    verdict.conclusions.append(Conclusion("p-divides-n", n % p == 0, f"p={p}, n={n}"))

    matches = _match_case_patterns(cs, p, pa, n)
    verdict.conclusions.append(Conclusion(
        "exactly-one-case-pattern", len(matches) == 1,
        f"matching cases: {[m['case'] for m in matches]}"))
    if len(matches) != 1:
        return verdict
    match = matches[0]
    verdict.witnesses.update(match)
    if match["case"] in ("b", "c"):
        core, _ = a.stripped
        pi = {p, match["q"]}
        ok = arithmetic_profile(core.order).is_pi_number(pi)
        verdict.conclusions.append(Conclusion(
            "pq-group-up-to-abelian-factors", ok,
            f"|core|={core.order}, pi={sorted(pi)}"))
    if match["case"] == "c":
        # record the observed shape of n as data (n = q * p^b or not)
        q = match["q"]
        rest = arithmetic_profile(n // q) if n % q == 0 else None
        verdict.witnesses["n_shape"] = (
            f"q*p^{rest.prime_factors[0][1]}" if rest and rest.primes in ((), (p,))
            else "not-q-p-power")
    return verdict


# -- Chillag-Herzog dichotomy --------------------------------------------------


def check_chillag_herzog(G: FiniteGroup, analysis: Optional[GroupAnalysis] = None) -> TheoremVerdict:
    """No composite class size: up to abelian direct factors, either a
    p-group of class at most 2 with cs {1,p}, or a group whose central
    quotient is Frobenius of order pq with cs {1,p,q}."""
    a = analysis or GroupAnalysis(G)
    _, composites = a.split
    verdict = TheoremVerdict("CH", len(composites) == 0,
                             f"composite class sizes: {sorted(composites)}")
    if not verdict.hypotheses_apply:
        return verdict
    core, _ = a.stripped
    if core.order == 1:
        verdict.conclusions.append(Conclusion("abelian", True, "trivial after stripping"))
        verdict.witnesses["branch"] = "abelian"
        return verdict
    cs_core = a.core_profile.cs_set
    prof = arithmetic_profile(core.order)
    if len(prof.prime_factors) == 1:
        p = prof.primes[0]
        try:
            nclass = nilpotency_class(core)
        except NotNilpotentError:
            nclass = None
        verdict.conclusions.append(Conclusion(
            "p-group-class-le-2-cs-1-p",
            cs_core == (1, p) and nclass is not None and nclass <= 2,
            f"p={p}, cs={cs_core}, class={nclass}"))
        verdict.witnesses.update({"branch": "p-group", "p": p, "class": nclass})
        return verdict
    Z = center(core)
    frob = is_frobenius(a.core_profile, Z)
    central_quotient_order = core.order // len(Z)
    sizes = sorted(cs_core)
    ok = (len(sizes) == 3 and sizes[0] == 1 and is_prime(sizes[1]) and is_prime(sizes[2])
          and frob.is_frobenius and central_quotient_order == sizes[1] * sizes[2])
    verdict.conclusions.append(Conclusion(
        "central-quotient-frobenius-pq-cs-1-p-q", ok,
        f"cs={cs_core}, |G/Z|={central_quotient_order}, frobenius={frob.is_frobenius}"))
    verdict.witnesses.update({"branch": "frobenius", "cs": list(cs_core),
                              "central_quotient_order": central_quotient_order})
    return verdict


# -- Conjecture B sweep ---------------------------------------------------------


@dataclass
class Finding:
    """A reportable observation from a sweep (never a test failure)."""

    kind: str
    group: str
    detail: str


def conjecture_B_findings(G: FiniteGroup,
                          analysis: Optional[GroupAnalysis] = None) -> list[Finding]:
    """Flag any group with exactly two composite class sizes that fails
    to be soluble; such a group would refute the open conjecture."""
    a = analysis or GroupAnalysis(G)
    _, composites = a.split
    if len(composites) != 2:
        return []
    if a.soluble:
        return []
    return [Finding("conjecture-B-counterexample-candidate", G.name,
                    f"two composite class sizes {sorted(composites)} but not soluble")]


# -- PSL(2, 2^a) class-size formula ---------------------------------------------


def psl_formula_set(a: int) -> tuple[int, ...]:
    return tuple(sorted([1, 2 ** (2 * a) - 1,
                         2 ** a * (2 ** a - 1), 2 ** a * (2 ** a + 1)]))


def check_psl_formula(a: int, group: Optional[FiniteGroup] = None) -> TheoremVerdict:
    """Class sizes of PSL(2, 2^a) match the closed formula and include at
    least three composites (a in {2, 3}, the bundled groups A5 and PSL(2,8))."""
    if a not in (2, 3):
        raise ValueError(f"PSL(2, 2^a) is bundled only for a in {{2, 3}}, not a={a}")
    if group is None:
        group = alternating(5) if a == 2 else psl_2_8_fixture()
    formula = psl_formula_set(a)
    computed = conjugacy_classes(group).cs_set
    verdict = TheoremVerdict("PropAS", True, f"a={a}, group={group.name}")
    verdict.conclusions.append(Conclusion(
        "formula-matches-computed", computed == formula,
        f"formula {formula}, computed {computed}"))
    n_comp = sum(1 for s in formula if arithmetic_profile(s).is_composite)
    verdict.conclusions.append(Conclusion(
        "at-least-three-composites", n_comp >= 3, f"composite count {n_comp}"))
    verdict.witnesses.update({"a": a, "formula": list(formula), "order": group.order})
    return verdict
