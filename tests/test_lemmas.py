"""Lemma property suite: hypothesis detection, instance counting, and
zero-failure runs on known groups."""

from csgroups import lemmas
from csgroups.catalog import fixture_group, make_builtin
from csgroups.classes import conjugacy_classes
from csgroups.construct import (
    cyclic,
    dihedral,
    direct_product,
    frobenius_pq,
    quaternion8,
    symmetric,
)
from csgroups.structure import centralizer_of_set
from csgroups.lemmas import (
    LEMMA_IDS,
    LemmaReport,
    lemma_suite_for_group,
    o_p_prime,
    _coprimality_components,
)


class TestHelpers:
    def test_o_p_prime_of_symmetric_3(self):
        G = symmetric(3)
        prof = conjugacy_classes(G)
        assert len(o_p_prime(2, prof)) == 3  # the rotation subgroup
        assert len(o_p_prime(3, prof)) == 1

    def test_o_p_prime_of_direct_product(self):
        G = direct_product(quaternion8(), cyclic(3))
        prof = conjugacy_classes(G)
        assert len(o_p_prime(2, prof)) == 3
        assert len(o_p_prime(3, prof)) == 8

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


    def test_minimal_centralizer_reified_once_per_distinct_centralizer(self, monkeypatch):
        G = make_builtin("q8xcyclic(15)")
        profile = conjugacy_classes(G)
        cents = {centralizer_of_set(G, [x]) for x in profile.representatives if x != 0}
        minimal = [X for X in cents
                   if not any(centralizer_of_set(G, [y]) < X for y in X)]
        reified = []
        subgroup_as_group = lemmas.subgroup_as_group
        monkeypatch.setattr(lemmas, "subgroup_as_group",
                            lambda H, X, *a: reified.append(X) or subgroup_as_group(H, X, *a))
        rep = lemma_suite_for_group(G)
        assert rep.ok()
        assert rep.instances["2.6"] == 45  # one per non-central class
        assert len(minimal) == 3
        assert len(reified) <= len(minimal)


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
