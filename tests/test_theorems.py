"""Theorem verdicts: two-composite structure, case analysis, dichotomy,
solubility sweep, and the projective-line class-size formula."""

import math
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from csgroups import classes, lemmas, structure, theorems
from csgroups.catalog import fixture_group, iter_catalog, make_builtin
from csgroups.cli import entry_for_group
from csgroups.arith import arithmetic_profile, is_prime
from csgroups.classes import conjugacy_classes
from csgroups.construct import (
    FiniteGroup,
    alternating,
    cyclic,
    direct_product,
    frobenius_pq,
    quaternion8,
    symmetric,
)
from csgroups.lemmas import LemmaReport
from csgroups.perm import Permutation, close_with_degree
from csgroups.structure import centralizer_of_set, normal_subgroups
from csgroups.theorems import (
    GroupAnalysis,
    TheoremVerdict,
    _check_theorem_A_decomposition,
    _labeling_by_gcd,
    _theorem_C_for_labeling,
    check_chillag_herzog,
    check_psl_formula,
    check_theorem_A,
    check_theorem_C,
    conjecture_B_findings,
    psl_formula_set,
)


def search_labeling(cs):
    """Reference labeling by exhaustive search over prime assignments."""
    primes = sorted(s for s in cs if is_prime(s))
    comps = sorted(s for s in cs if arithmetic_profile(s).is_composite)
    if len(cs) != 6 or len(primes) != 3 or len(comps) != 2:
        return None
    for p1 in primes:
        rest = [p for p in primes if p != p1]
        for p2, p3 in (rest, rest[::-1]):
            if sorted([p1 * p2, p1 * p3]) == comps:
                return {"p1": p1, "p2": p2, "p3": p3,
                        "m": p1 * p2, "n": p1 * p3}
    return None


def lattice_decomposition(core, p1):
    """Reference P x H for Theorem A by a search of the core's
    normal-subgroup lattice: a normal P of order |core|_p1 and a normal H
    with |P||H| = |core| and P n H = 1, or None."""
    normals = normal_subgroups(core)
    for P in normals:
        if len(P) != arithmetic_profile(core.order).part(p1):
            continue
        for H in normals:
            if len(P) * len(H) == core.order and P & H == {0}:
                return P, H
    return None


class TestGroupAnalysis:
    def test_centralizer_is_centralizer_of_set_once_per_element(self):
        for G in (make_builtin("q8xcyclic(15)"), symmetric(4), fixture_group("g162_5")):
            a = GroupAnalysis(G)
            for x in range(G.order):
                assert a.centralizer(x) == sum(1 << g for g in centralizer_of_set(G, [x]))
            for x in range(G.order):
                assert a.centralizer(x) is a.centralizer(x)

    def test_centralizer_masks_are_all_kept(self):
        G = make_builtin("sym(5)xcyclic(6)")  # the centralizers hold 42 * 720 indices
        a = GroupAnalysis(G)
        masks = [a.centralizer(x) for x in range(G.order)]
        assert len(a._centralizers) == G.order
        assert all(0 < C < 1 << G.order for C in masks)
        assert sum(C.bit_count() for C in masks) == len(conjugacy_classes(G).classes) * G.order


class TestVerdictsWithoutLattice:
    """No verdict enumerates a normal-subgroup lattice: Theorem A's P x H
    and the Frobenius test read O_pi from the class algebra."""

    def test_no_verdict_enumerates_normal_subgroups(self, refuse_lattice):
        statuses = set()
        for e in iter_catalog():
            entry, _ = entry_for_group(e.name, e.source, e.group, {}, False)
            statuses.update(v["status"] for v in entry["theorems"].values())
        assert statuses == {"pass", "not-applicable"}


class TestStripNearCap:
    """Near the order cap the strip reads Z(G) and G', not G's lattice."""

    def test_entry_enumerates_no_normal_subgroups_of_G(self, refuse_lattice):
        G = make_builtin("extraspecial(3)xcyclic(2)xcyclic(60)")  # 1,320 classes
        assert G.order == 3240
        entry, _ = entry_for_group(G.name, "builtin", G, {}, False)
        verdict = entry["theorems"]["CH"]
        assert verdict["status"] == "pass"
        assert verdict["witnesses"] == {"branch": "p-group", "p": 3, "class": 2}

    def test_theorem_A_witnesses_keep_the_abelian_factor(self):
        verdict = check_theorem_A(make_builtin("q8xF21xcyclic(25)"))
        assert verdict.status() == "pass"
        assert {k: verdict.witnesses[k] for k in ("P_order", "H_order", "abelian_factor_order")} \
            == {"P_order": 8, "H_order": 21, "abelian_factor_order": 25}


class TestTheoremA:
    def test_end_to_end_on_quaternion_times_frobenius(self):
        G = direct_product(quaternion8(), frobenius_pq(7, 3))
        verdict = check_theorem_A(G)
        assert verdict.hypotheses_apply
        assert verdict.status() == "pass"
        assert verdict.witnesses["p1"] == 2
        assert verdict.witnesses["p2"] == 3
        assert verdict.witnesses["p3"] == 7
        assert verdict.witnesses["m"] == 6
        assert verdict.witnesses["n"] == 14
        assert verdict.witnesses["P_order"] == 8
        assert verdict.witnesses["H_order"] == 21

    @pytest.fixture
    def reified(self, monkeypatch):
        """The member sets Theorem A reifies, by name ("P" and "H")."""
        members = {}
        reify = theorems.subgroup_as_group

        def spy(G, sub, name=None):
            members[name] = sub
            return reify(G, sub, name)

        monkeypatch.setattr(theorems, "subgroup_as_group", spy)
        return members

    def test_decomposition_matches_the_lattice_search(self, reified):
        groups = [e.group for e in iter_catalog()
                  if _labeling_by_gcd(conjugacy_classes(e.group).cs_set)]
        assert groups  # q8xF21
        groups += [make_builtin("q8xfrobenius(11,5)"), make_builtin("extraspecial(5)xfrobenius(7,2)")]
        for G in groups:
            reified.clear()
            a = GroupAnalysis(G)
            verdict = check_theorem_A(G, a)
            assert verdict.status() == "pass"
            expected = lattice_decomposition(a.stripped[0], verdict.witnesses["p1"])
            assert (reified["P"], reified["H"]) == expected

    def test_decomposition_for_every_prime_matches_the_lattice_search(self, reified):
        # the search for P x H alone, for p1 each prime of the core, so the
        # cores without a decomposition are compared too
        missing = 0
        for entry in iter_catalog(max_elements=200):
            a = GroupAnalysis(entry.group)
            core = a.stripped[0]
            for p1 in arithmetic_profile(core.order).primes:
                reified.clear()
                _check_theorem_A_decomposition(a, {"p1": p1, "p2": 1, "p3": 1},
                                               TheoremVerdict("A", True, ""))
                expected = lattice_decomposition(core, p1)
                assert (reified.get("P"), reified.get("H")) == (expected or (None, None))
                missing += expected is None
        assert missing

    def test_does_not_apply_without_two_composites(self):
        assert not check_theorem_A(symmetric(3)).hypotheses_apply
        assert not check_theorem_A(cyclic(10)).hypotheses_apply

    def test_gcd_labeling_matches_search(self):
        for entry in iter_catalog():
            cs = conjugacy_classes(entry.group).cs_set
            assert _labeling_by_gcd(cs) == search_labeling(cs)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]),
                    min_size=3, max_size=3, unique=True))
    def test_gcd_labeling_on_synthetic_sets(self, primes):
        p1, p2, p3 = primes
        cs = tuple(sorted({1, p1, p2, p3, p1 * p2, p1 * p3}))
        lab = _labeling_by_gcd(cs)
        ref = search_labeling(cs)
        assert (lab is None) == (ref is None)
        if lab is not None:
            assert lab == ref
            assert lab["p1"] == math.gcd(lab["m"], lab["n"])


class TestTheoremC:
    def test_case_a_fixture(self):
        verdict = check_theorem_C(fixture_group("g480_166"))
        assert verdict.status() == "pass"
        assert verdict.witnesses["case"] == "a"
        assert verdict.witnesses["p"] == 2
        assert verdict.witnesses["a"] == 2
        assert verdict.witnesses["n"] == 60
        assert verdict.witnesses["F2_index"] == 1

    def test_case_b_fixture(self):
        verdict = check_theorem_C(fixture_group("g160_234"))
        assert verdict.status() == "pass"
        assert verdict.witnesses["case"] == "b"
        assert verdict.witnesses["q"] == 5
        assert verdict.witnesses["p"] == 2
        assert verdict.witnesses["a"] == 5
        assert verdict.witnesses["b"] == 2
        assert verdict.witnesses["F2_index"] == 2

    def test_case_c_fixture_small(self):
        verdict = check_theorem_C(fixture_group("g162_5"))
        assert verdict.status() == "pass"
        assert verdict.witnesses["case"] == "c"
        assert verdict.witnesses["q"] == 2
        assert verdict.witnesses["n"] == 6
        assert verdict.witnesses["n_shape"] == "q*p^1"

    def test_does_not_apply_without_prime_power_composite(self):
        # cs(q8 x F21) = {1,2,3,6,7,14}: composites 6 and 14, neither a
        # proper prime power
        G = direct_product(quaternion8(), frobenius_pq(7, 3))
        assert not check_theorem_C(G).hypotheses_apply

    def test_orders_modulo_F2_are_the_quotients_element_orders(self):
        """Theorem C reads the orders of G/F2 in G; on every catalog group
        with F2 < G they, and the note that reports them, are those of
        the quotient group (the labeling 4, 6 only makes the F2 check run)."""
        checked = 0
        for e in iter_catalog():
            G = e.group
            F2 = structure.fitting2(conjugacy_classes(G))
            if len(F2) == G.order:
                continue
            verdict = _theorem_C_for_labeling(GroupAnalysis(G), "", 4, 6)
            note, = [c.witness for c in verdict.conclusions
                     if c.label == "F2-covers-or-prime-order-quotient"]
            Q = structure.quotient(G, F2).group
            orders = sorted(set(Q.element_orders[1:].tolist()))
            assert note == f"|G/F2|={Q.order}, nonidentity orders {orders}", G.name
            checked += 1
        assert checked >= 3

    def test_builds_no_quotient_and_climbs_only_in_G(self, monkeypatch):
        quotients, ascents = [], []
        build, ascend = structure.quotient, structure.sylow
        monkeypatch.setattr(structure, "quotient",
                            lambda G, N: (quotients.append(G), build(G, N))[1])
        monkeypatch.setattr(structure, "sylow", lambda G, p: (ascents.append(G), ascend(G, p))[1])
        for G in (symmetric(4), fixture_group("g160_234")):
            ascents.clear()
            verdict = check_theorem_C(G)
            assert verdict.status() == "pass" and verdict.witnesses["F2_index"] == 2
            assert ascents and all(H is G for H in ascents)
        assert quotients == []

    def test_conjugates_only_to_find_the_classes(self, monkeypatch):
        """Normal cores are unions of classes, counted on the profile:
        fitting2 and Theorem C make no conjugate_many call outside
        conjugacy_classes."""
        depth, outside = [0], []
        classes_of, conjugate_many = classes.conjugacy_classes, FiniteGroup.conjugate_many

        def counted_classes(G):
            depth[0] += 1
            try:
                return classes_of(G)
            finally:
                depth[0] -= 1

        def spy(G, xs, g):
            if not depth[0]:
                outside.append(G.name)
            return conjugate_many(G, xs, g)

        for module in (classes, structure, theorems):
            monkeypatch.setattr(module, "conjugacy_classes", counted_classes)
        monkeypatch.setattr(FiniteGroup, "conjugate_many", spy)
        for G in (symmetric(4), fixture_group("g160_234"), fixture_group("g486_176"),
                  make_builtin("sym(4)xcyclic(7)xcyclic(25)")):  # F2 < G on all but g486_176
            analysis = GroupAnalysis(G)
            structure.fitting2(analysis.profile)
            assert check_theorem_C(G, analysis).hypotheses_apply, G.name
        assert outside == []

    def test_case_assignment_is_exclusive_across_catalog(self):
        from csgroups.theorems import _match_case_patterns
        for entry in iter_catalog():
            verdict = check_theorem_C(entry.group)
            if not verdict.hypotheses_apply or verdict.incomplete:
                continue
            cs = conjugacy_classes(entry.group).cs_set
            p, a, n = (verdict.witnesses["p"], verdict.witnesses["a"],
                       verdict.witnesses["n"])
            matches = _match_case_patterns(cs, p, p ** a, n)
            assert len(matches) == 1


class TestChillagHerzog:
    def test_p_group_branch(self):
        verdict = check_chillag_herzog(quaternion8())
        assert verdict.status() == "pass"
        assert verdict.witnesses["branch"] == "p-group"

    def test_frobenius_branch(self):
        verdict = check_chillag_herzog(symmetric(3))
        assert verdict.status() == "pass"
        assert verdict.witnesses["branch"] == "frobenius"
        verdict = check_chillag_herzog(frobenius_pq(7, 3))
        assert verdict.status() == "pass"

    def test_abelian_branch(self):
        verdict = check_chillag_herzog(cyclic(30))
        assert verdict.status() == "pass"
        assert verdict.witnesses["branch"] == "abelian"

    def test_does_not_apply_with_composites(self):
        assert not check_chillag_herzog(fixture_group("g480_166")).hypotheses_apply

    def test_every_zero_composite_catalog_group_passes(self):
        for entry in iter_catalog():
            verdict = check_chillag_herzog(entry.group)
            if verdict.hypotheses_apply:
                assert verdict.status() == "pass", entry.name


class TestFrobeniusOfCentralQuotients:
    """``is_frobenius(G, N)`` builds G/N only for a nontrivial N, and reads
    the quotient's own class profile, not G's class algebra."""

    @pytest.fixture
    def quotients(self, monkeypatch):
        """The orders of the subgroups N that ``structure.quotient`` divides by."""
        orders = []
        build = structure.quotient

        def spy(G, N):
            orders.append(len(N))
            return build(G, N)

        monkeypatch.setattr(structure, "quotient", spy)
        return orders

    def test_trivial_centre_builds_no_quotient(self, quotients):
        G = make_builtin("frobenius(13,3)")
        analysis = GroupAnalysis(G)
        report = LemmaReport()
        lemmas.check_disconnected_class_sizes(G, analysis, report)
        verdict = check_chillag_herzog(G, analysis)
        assert report.instances["2.3"] == 1 and not report.failures
        assert verdict.status() == "pass" and verdict.witnesses["branch"] == "frobenius"
        assert verdict.witnesses["central_quotient_order"] == 39
        assert quotients == []

    def test_trivial_centre_computes_the_classes_once(self, monkeypatch):
        computed = Counter()
        compute = theorems.conjugacy_classes

        def spy(G):
            computed[G] += 1
            return compute(G)

        monkeypatch.setattr(theorems, "conjugacy_classes", spy)
        monkeypatch.setattr(structure, "conjugacy_classes", spy)
        G = make_builtin("frobenius(13,3)")
        verdict = check_chillag_herzog(G)
        assert verdict.status() == "pass" and verdict.witnesses["branch"] == "frobenius"
        assert computed == {G: 1}

    def test_large_centre_reads_the_quotients_profile(self, quotients):
        # C3 x| C1024, b inverting a: centre <b^2> of order 512, 1,536 classes
        a = Permutation([1, 2, 0] + list(range(3, 1027)))
        b = Permutation([0, 2, 1] + [3 + (i + 1) % 1024 for i in range(1024)])
        table = close_with_degree([a, b], 1027)
        G = FiniteGroup(table, [table.index_of(g) for g in (a, b)], "C3:C1024")
        start = time.perf_counter()
        analysis = GroupAnalysis(G)
        verdict = check_chillag_herzog(G, analysis)
        elapsed = time.perf_counter() - start
        assert G.order == 3072 and len(analysis.profile.sizes) == 1536
        assert verdict.status() == "pass" and verdict.witnesses["branch"] == "frobenius"
        assert verdict.witnesses["central_quotient_order"] == 6
        assert quotients == [512]
        assert "support" not in analysis.profile.__dict__  # G's class algebra is never built
        assert elapsed < 5, elapsed  # about 0.15 s; G's class algebra took minutes


class TestConjectureB:
    def test_full_catalog_has_no_findings(self):
        findings = [f for e in iter_catalog() for f in conjecture_B_findings(e.group)]
        assert findings == []

    def test_three_composites_out_of_scope(self):
        assert conjecture_B_findings(alternating(5)) == []

    def test_abelian_out_of_scope(self):
        assert conjecture_B_findings(cyclic(24)) == []

    def test_two_composite_groups_in_catalog_are_soluble(self):
        seen = 0
        for entry in iter_catalog():
            analysis = GroupAnalysis(entry.group)
            _, composites = analysis.split
            if len(composites) == 2:
                seen += 1
                assert analysis.soluble, entry.name
        assert seen > 0


class TestPslFormula:
    def test_formula_values(self):
        assert psl_formula_set(2) == (1, 12, 15, 20)
        assert psl_formula_set(3) == (1, 56, 63, 72)

    def test_a2_matches_alternating_5(self):
        verdict = check_psl_formula(2)
        assert verdict.status() == "pass"

    def test_a3_matches_fixture(self):
        verdict = check_psl_formula(3)
        assert verdict.status() == "pass"
        assert verdict.witnesses["order"] == 504

    def test_out_of_range(self):
        import pytest
        # |PSL(2,16)| = 4080 is within the order cap; only a in {2, 3} is bundled
        with pytest.raises(ValueError, match=r"bundled only for a in \{2, 3\}, not a=4"):
            check_psl_formula(4)
