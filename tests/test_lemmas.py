"""Lemma property suite: hypothesis detection, instance counting, and
zero-failure runs on known groups."""

import itertools
import math
import time
from collections import Counter

from hypothesis import given, reject, settings, strategies as st

from csgroups import lemmas, structure
from csgroups.arith import arithmetic_profile
from csgroups.catalog import fixture_group, iter_catalog, make_builtin
from csgroups.classes import conjugacy_classes
from csgroups.construct import (
    _generated,
    cyclic,
    dihedral,
    direct_product,
    frobenius_pq,
    quaternion8,
    symmetric,
)
from csgroups.perm import OrderCapExceededError, Permutation
from csgroups.structure import (
    centralizer_of_set,
    generating_set,
    hall,
    is_normal,
    normal_subgroups,
    o_pi,
    subgroup_as_group,
    sylow,
)
from csgroups.lemmas import (
    LEMMA_IDS,
    LemmaReport,
    lemma_suite_for_group,
    _coprimality_components,
)
from csgroups.theorems import GroupAnalysis


def commute(G, A: frozenset[int], B: frozenset[int]) -> bool:
    """Whether the subgroups A and B of G commute elementwise: their
    generators do."""
    ga, gb = generating_set(G, A), generating_set(G, B)
    return all(G.mul(x, y) == G.mul(y, x) for x in ga for y in gb)


def direct_factor_check(G, A: frozenset[int], B: frozenset[int]) -> bool:
    """Is G the internal direct product of its subgroups A and B?"""
    return len(A) * len(B) == G.order and A & B == {0} and commute(G, A, B)


def reified_split(G, X: frozenset[int], r: int) -> tuple[bool, int]:
    """Is X = R x A, R a Sylow r-subgroup and A an abelian r'-group?  With
    |A|.  Decided on X's own table, with a Sylow subgroup and a direct
    factor check: the oracle for the order-based test of lemma 2.6."""
    Xgrp, _ = subgroup_as_group(G, X)
    R = sylow(conjugacy_classes(Xgrp), r)
    A = frozenset(i for i in range(Xgrp.order)
                  if math.gcd(int(Xgrp.element_orders[i]), r) == 1)
    ok = (Xgrp.subgroup_closure(sorted(A)) == A and commute(Xgrp, A, A)
          and direct_factor_check(Xgrp, R, A))
    assert len(R) == arithmetic_profile(len(X)).part(r)
    return ok, len(A)


def reified_verdict(G, cents: list[frozenset[int]], X: frozenset[int]):
    """Lemma 2.6 on the centralizer X, from the centralizers ``cents`` of
    all elements: None when X is not minimal or realized by no element of
    prime-power order, else the verdict on the first such element."""
    if any(cents[y] < X for y in X):
        return None
    for g in sorted(X):
        prof = arithmetic_profile(int(G.element_orders[g]))
        if g != 0 and prof.is_prime_power() and cents[g] == X:
            r = prof.primes[0]
            ok, a_order = reified_split(G, X, r)
            return ok, f"r={r}, |X|={len(X)}, |R|={arithmetic_profile(len(X)).part(r)}, |A|={a_order}"
    return None


class TestHelpers:
    def test_o_p_prime_of_symmetric_3(self):
        G = symmetric(3)
        prof = conjugacy_classes(G)
        assert len(o_pi(prof, {3})) == 3  # O_2', the rotation subgroup
        assert len(o_pi(prof, {2})) == 1  # O_3'

    def test_o_p_prime_of_direct_product(self):
        G = direct_product(quaternion8(), cyclic(3))
        prof = conjugacy_classes(G)
        assert len(o_pi(prof, {3})) == 3  # O_2'
        assert len(o_pi(prof, {2})) == 8  # O_3'

    def test_coprimality_components(self):
        assert len(_coprimality_components([2, 4, 3, 9])) == 2
        assert len(_coprimality_components([6, 10, 15])) == 1
        assert len(_coprimality_components([])) == 0


class TestSuiteOnKnownGroups:
    def test_abelian_groups_are_cheap_and_clean(self):
        rep = lemma_suite_for_group(cyclic(30))
        assert rep.ok()

    def test_symmetric_4(self):
        rep = lemma_suite_for_group(symmetric(4))
        assert rep.ok()
        assert rep.instances["2.1a"] > 0
        assert rep.instances["2.1d"] > 0

    def test_disconnected_class_sizes_on_frobenius_21(self):
        # class sizes {1,3,7} split into coprime parts, so the abelian
        # Hall decomposition with a Frobenius central quotient must hold
        rep = lemma_suite_for_group(frobenius_pq(7, 3))
        assert rep.ok()
        assert rep.instances["2.3"] >= 1

    def test_minimal_centralizer_on_symmetric_3(self):
        rep = lemma_suite_for_group(symmetric(3))
        assert rep.ok()
        assert rep.instances["2.6"] >= 1

    def test_coprime_factorization_instances(self):
        G = direct_product(quaternion8(), frobenius_pq(7, 3))
        rep = lemma_suite_for_group(G)
        assert rep.ok()
        assert rep.instances["2.1b"] > 0
        assert rep.instances["2.1c"] > 0
        assert rep.instances["2.2"] >= 1

    def test_mixed_prime_power_products_on_fixture(self):
        rep = lemma_suite_for_group(fixture_group("g162_5"))
        assert rep.ok()
        assert rep.instances["2.4"] >= 1

    def test_dihedral_groups(self):
        for n in (4, 5, 6, 9):
            rep = lemma_suite_for_group(dihedral(n))
            assert rep.ok(), [f.__dict__ for f in rep.failures]


    def test_minimal_centralizer_decided_once_per_distinct_centralizer(self, monkeypatch):
        G = make_builtin("q8xcyclic(15)")
        profile = conjugacy_classes(G)
        cents = {centralizer_of_set(G, [x]) for x in profile.representatives if x != 0}
        minimal = [X for X in cents
                   if not any(centralizer_of_set(G, [y]) < X for y in X)]
        decided = []
        verdict = lemmas._minimal_centralizer_verdict
        monkeypatch.setattr(lemmas, "_minimal_centralizer_verdict",
                            lambda H, a, X: decided.append(X) or verdict(H, a, X))
        rep = lemma_suite_for_group(G)
        assert rep.ok()
        assert rep.instances["2.6"] == 45  # one per non-central class
        assert len(minimal) == 3
        assert len(decided) == len(set(decided)) == len(cents)


class TestMinimalCentralizerOracle:
    def test_order_based_split_matches_reified_check_on_catalog(self):
        """Lemma 2.6's verdict on every distinct centralizer of every
        catalog group, and the split X = R x A for each prime of |X|,
        against the same decisions made on X's own table."""
        seen = Counter()
        for entry in iter_catalog():
            G = entry.group
            analysis = GroupAnalysis(G)
            if analysis.is_abelian:
                continue
            cents = [centralizer_of_set(G, [x]) for x in range(G.order)]
            for X in set(cents[x] for x in analysis.profile.representatives if x != 0):
                mask = sum(1 << g for g in X)
                verdict = lemmas._minimal_centralizer_verdict(G, analysis, mask)
                assert verdict == reified_verdict(G, cents, X), (G.name, sorted(X))
                for r in arithmetic_profile(len(X)).primes:
                    split = lemmas._splits_off_sylow(G, analysis, mask, r)
                    assert split == reified_split(G, X, r), (G.name, sorted(X), r)
                    seen[split[0]] += 1
                seen["verdicts"] += verdict is not None
        assert seen[True] and seen[False] and seen["verdicts"]


def abelian_sylow_factor_by_search(G, p: int) -> bool:
    """The right side of lemma 2.1d by its definition: a Sylow p-subgroup P
    from ``sylow``, O_p'(G) from the class algebra, and a direct factor
    check; the oracle for the count on element orders."""
    profile = conjugacy_classes(G)
    P = sylow(profile, p)
    O = o_pi(profile, set(arithmetic_profile(G.order).primes) - {p})
    return commute(G, P, P) and direct_factor_check(G, P, O)


@st.composite
def random_groups(draw):
    """The group generated by two or three random permutations of at most
    7 points that keep the points below a random split apart from those
    above it, so that direct products come up; at most 1,000 elements."""
    deg = draw(st.integers(2, 7))
    split = draw(st.integers(0, deg))
    halves = st.tuples(st.permutations(range(split)), st.permutations(range(split, deg)))
    gens = draw(st.lists(halves.map(lambda h: Permutation(h[0] + h[1])),
                         min_size=2, max_size=3))
    try:
        return _generated(gens, deg, f"<{', '.join(map(repr, gens))}>", 1000)
    except OrderCapExceededError:
        reject()


class TestCountedNormality:
    """Lemma 2.1d's direct Sylow factor and lemma 2.3's normal Hall
    subgroup, read from element orders, against subgroup searches."""

    def test_direct_sylow_factor_matches_the_search_on_catalog(self):
        groups = [e.group for e in iter_catalog()] + [make_builtin("q8xF21xcyclic(25)")]
        assert {"g160_234", "g162_5", "g480_166", "g486_176", "psl_2_8"} <= {G.name for G in groups}
        seen = Counter()
        for G in groups:
            for p in arithmetic_profile(G.order).primes:
                rhs = lemmas._abelian_sylow_factor(G, p)
                assert rhs == abelian_sylow_factor_by_search(G, p), (G.name, p)
                seen[rhs] += 1
        assert seen[True] >= 20 and seen[False] >= 20

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(random_groups())
    def test_direct_sylow_factor_matches_the_search_on_random_groups(self, G):
        for p in arithmetic_profile(G.order).primes:
            assert lemmas._abelian_sylow_factor(G, p) == abelian_sylow_factor_by_search(G, p)

    def test_direct_sylow_factor_searches_no_subgroup(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("2.1d searched for a Sylow subgroup or an O_pi")

        for module in (lemmas, structure):
            for name in ("sylow", "o_pi"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        for G in (symmetric(4), fixture_group("g162_5"), make_builtin("q8xF21xcyclic(25)")):
            rep = LemmaReport()
            lemmas.check_prime_missing_from_class_sizes(G, GroupAnalysis(G), rep)
            assert rep.ok() and rep.instances["2.1d"] == len(arithmetic_profile(G.order).primes)

    def test_normal_hall_count_matches_conjugation_on_catalog(self):
        seen = Counter()
        for entry in iter_catalog():
            G = entry.group
            profile, primes = conjugacy_classes(G), arithmetic_profile(G.order).primes
            for r in range(1, len(primes)):
                for pi in itertools.combinations(primes, r):
                    L = hall(profile, set(pi))
                    if L is not None:
                        normal = is_normal(G, L, generating_set(G, L))
                        assert lemmas._normal_hall(G, L) == normal, (G.name, pi)
                        seen[normal] += 1
        assert seen[True] >= 20 and seen[False] >= 20


class TestClassClosureSample:
    """Lemmas 2.1a and 2.1e sample the distinct normal closures of single
    classes, which come with the class algebra, and build no lattice."""

    def test_no_suite_enumerates_normal_subgroups(self, refuse_lattice):
        total = LemmaReport()
        names = set()
        for e in iter_catalog():
            total.merge(lemma_suite_for_group(e.group))
            names.add(e.name)
        assert {"g160_234", "g162_5", "g480_166", "g486_176", "psl_2_8"} <= names
        assert total.ok()
        assert total.instances["2.1a"] > 0 and total.instances["2.1e"] > 0

    def test_sample_is_the_distinct_class_closures_on_catalog(self):
        for e in iter_catalog():
            G = e.group
            analysis = GroupAnalysis(G)
            profile, sample = analysis.profile, analysis.class_closures
            lattice = normal_subgroups(G, profile=profile)
            assert sample == sorted(set(sample), key=lambda N: (len(N), sorted(N))), G.name
            assert set(sample) <= set(lattice), G.name
            for N in sample:
                assert is_normal(G, N, generating_set(G, N)), (G.name, len(N))
            # each class's closure is the least normal subgroup holding it
            closures = {min((N for N in lattice if x in N), key=len)
                        for x in profile.representatives}
            assert set(sample) == closures, G.name


class TestNearCap:
    def test_suite_on_q8_times_frobenius_39_times_cyclic_15(self):
        """525 classes: the class-closure sample is truncated for 2.1a
        and 2.1e, which a lattice of 96 normal subgroups made slow."""
        G = make_builtin("q8xfrobenius(13,3)xcyclic(15)")
        assert G.order == 4680
        start = time.perf_counter()
        rep = lemma_suite_for_group(G)
        elapsed = time.perf_counter() - start
        assert rep.ok()
        assert rep.instances == Counter({"2.1a": 12600, "2.1b": 36900, "2.1c": 400, "2.1d": 4,
                                         "2.1e": 2814, "2.2": 1})
        assert rep.skipped == [(lemma, G.name, reason) for lemma, reason in (
            ("2.1a", "normal subgroups truncated"), ("2.1c", "pair budget reached"),
            ("2.1e", "normal subgroups truncated"))]
        assert elapsed < 10.0

    def test_suite_on_sym5_times_frobenius_39(self):
        """The first lemma suite near the order cap; the counts are those
        of the frozenset centralizers that the bit masks replaced."""
        G = make_builtin("sym(5)xfrobenius(13,3)")
        assert G.order == 4680
        start = time.perf_counter()
        rep = lemma_suite_for_group(G)
        elapsed = time.perf_counter() - start
        assert rep.ok()
        assert rep.instances == Counter({"2.1a": 441, "2.1b": 104, "2.1c": 400, "2.1d": 4,
                                         "2.1e": 53, "2.2": 2, "2.6": 4})
        assert rep.skipped == [("2.1c", G.name, "pair budget reached")]
        assert elapsed < 1.0


class TestReportPlumbing:
    def test_merge_accumulates(self):
        a = lemma_suite_for_group(symmetric(3))
        b = lemma_suite_for_group(quaternion8())
        total = LemmaReport()
        total.merge(a)
        total.merge(b)
        for lem in LEMMA_IDS:
            assert total.instances.get(lem, 0) == \
                a.instances.get(lem, 0) + b.instances.get(lem, 0)

    def test_covered_lists_every_lemma(self):
        rep = lemma_suite_for_group(make_builtin("sym(3)"))
        assert set(rep.covered()) == set(LEMMA_IDS)

    def test_sampling_is_seed_deterministic(self):
        G = fixture_group("g162_5")
        r1 = lemma_suite_for_group(G, pair_limit=5, seed=7)
        r2 = lemma_suite_for_group(G, pair_limit=5, seed=7)
        assert r1.instances == r2.instances
        assert r1.skipped == r2.skipped
