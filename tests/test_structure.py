"""Structural subgroup computations: series, Sylow, quotients, Frobenius."""

import pytest

from csgroups.catalog import make_builtin
from csgroups.arith import arithmetic_profile
from csgroups.classes import conjugacy_classes
from csgroups.construct import (
    FiniteGroup,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    frobenius_pq,
    quaternion8,
    symmetric,
)
from csgroups.perm import element_order, from_cycles
from csgroups.structure import (
    EnumerationLimitError,
    center,
    core_p,
    derived_series,
    derived_subgroup,
    fitting,
    fitting2,
    generating_set,
    hall,
    is_frobenius,
    is_nilpotent,
    is_normal,
    is_soluble,
    nilpotency_class,
    normal_subgroups,
    quotient,
    strip_abelian_factors,
    subgroup_as_group,
    sylow,
)


class TestSeries:
    def test_derived_series_symmetric_4(self):
        series, soluble = derived_series(symmetric(4))
        assert [step.order for step in series] == [24, 12, 4, 1]
        assert soluble

    def test_alternating_5_insoluble(self):
        assert not is_soluble(alternating(5))

    def test_derived_subgroup_of_abelian_is_trivial(self):
        G = cyclic(12)
        assert derived_subgroup(G, frozenset(range(G.order))) == frozenset([0])

    def test_nilpotency(self):
        assert nilpotency_class(quaternion8()) == 2
        assert nilpotency_class(dihedral(8)) == 3
        assert is_nilpotent(cyclic(9))
        assert not is_nilpotent(symmetric(3))


class TestCenterAndSylow:
    def test_center_of_quaternion8(self):
        assert center(quaternion8()).order == 2

    def test_center_of_symmetric_is_trivial(self):
        assert center(symmetric(4)).order == 1

    def test_sylow_orders(self):
        G = symmetric(4)
        assert sylow(G, 2).order == 8
        assert sylow(G, 3).order == 3
        G = alternating(5)
        assert sylow(G, 2).order == 4
        assert sylow(G, 5).order == 5

    def test_core_p(self):
        G = symmetric(4)
        assert core_p(G, 2).order == 4  # the Klein four-group
        assert core_p(G, 3).order == 1

    @pytest.mark.parametrize("spec", ["sym(4)", "q8xsym(3)", "frobenius(7,3)",
                                      "dihedral(12)"])
    def test_core_p_is_intersection_of_conjugates(self, spec):
        G = make_builtin(spec)
        for p in arithmetic_profile(G.order).primes:
            P = sylow(G, p).members
            core = frozenset(x for x in P
                             if all(G.conjugate(x, g) in P for g in range(G.order)))
            assert core_p(G, p).members == core

    def test_core_p_needs_more_than_one_round(self):
        # With these generators, dropping once the elements that a
        # generator conjugates out of the Sylow 2-subgroup leaves order 2;
        # O_2(S5) is trivial.
        G = make_builtin("sym(5)")
        gens = [G.table.index_of(from_cycles(5, c)) for c in ([(0, 1)], [(0, 2, 4, 1, 3)])]
        assert core_p(FiniteGroup(G.table, gens, "sym(5)"), 2).order == 1

    def test_fitting_chain(self):
        G = symmetric(4)
        assert fitting(G).order == 4
        assert fitting2(G).order == 12

    def test_fitting_of_nilpotent_group_is_itself(self):
        assert fitting(quaternion8()).order == 8


class TestQuotient:
    def test_symmetric_4_mod_klein(self):
        G = symmetric(4)
        V = core_p(G, 2)
        q = quotient(G, V)
        assert q.group.order == 6
        assert conjugacy_classes(q.group).cs_set == (1, 2, 3)

    def test_projection_is_homomorphism(self):
        G = symmetric(4)
        q = quotient(G, core_p(G, 2))
        for x in range(0, G.order, 5):
            for y in range(0, G.order, 7):
                lhs = int(q.projection[G.mul(x, y)])
                rhs = q.group.mul(int(q.projection[x]), int(q.projection[y]))
                assert lhs == rhs


class TestNormalSubgroups:
    def test_simple_group_has_two(self):
        orders = sorted(N.order for N in normal_subgroups(alternating(5)))
        assert orders == [1, 60]

    def test_symmetric_4(self):
        orders = sorted(N.order for N in normal_subgroups(symmetric(4)))
        assert orders == [1, 4, 12, 24]

    def test_all_reported_subgroups_are_normal(self):
        G = dihedral(6)
        for N in normal_subgroups(G):
            assert is_normal(G, N.members)

    def test_enumeration_limit(self):
        with pytest.raises(EnumerationLimitError):
            normal_subgroups(cyclic(16), limit=2)

    @pytest.mark.parametrize("spec", ["sym(4)", "alt(5)", "frobenius(7,3)",
                                      "dihedral(12)", "sym(3)xsym(3)"])
    def test_lattice_is_complete(self, spec):
        """The lattice holds every union of classes that contains the
        identity and is closed under multiplication, found element by
        element over all such unions."""
        G = make_builtin(spec)
        classes = [members for _, members in conjugacy_classes(G).classes]
        assert len(classes) <= 10
        closed = set()
        for chosen in range(1 << (len(classes) - 1)):
            U = classes[0].union(*(C for c, C in enumerate(classes[1:])
                                   if chosen >> c & 1))
            if all(G.mul(x, y) in U for x in U for y in U):
                closed.add(U)
        assert {N.members for N in normal_subgroups(G)} == closed


class TestFrobeniusAndHall:
    def test_frobenius_21(self):
        verdict = is_frobenius(frobenius_pq(7, 3))
        assert verdict.is_frobenius
        assert verdict.kernel is not None and verdict.kernel.order == 7
        assert verdict.complement is not None and verdict.complement.order == 3

    def test_symmetric_3_is_frobenius(self):
        assert is_frobenius(symmetric(3)).is_frobenius

    def test_quaternion8_is_not_frobenius(self):
        assert not is_frobenius(quaternion8()).is_frobenius

    def test_hall_subgroups_of_symmetric_4(self):
        G = symmetric(4)
        assert hall(G, {2, 3}).order == 24
        assert hall(G, {2}).order == 8
        assert hall(G, {5}).order == 1

    def test_hall_in_soluble_group(self):
        G = frobenius_pq(7, 3)
        assert hall(G, {7}).order == 7
        assert hall(G, {3}).order == 3


class TestStripAbelianFactors:
    def test_quaternion_times_cyclic(self):
        G = direct_product(quaternion8(), cyclic(15))
        core, factor = strip_abelian_factors(G)
        assert factor.order == 15
        assert conjugacy_classes(core).cs_set == (1, 2)

    def test_abelian_group_strips_to_trivial(self):
        core, factor = strip_abelian_factors(cyclic(12))
        assert core.order == 1
        assert factor.order == 12

    def test_centerless_group_is_its_own_core(self):
        core, factor = strip_abelian_factors(symmetric(4))
        assert core.order == 24
        assert factor.order == 1


class TestSubgroupReification:
    def test_back_map_is_an_embedding(self):
        G = symmetric(4)
        S = sylow(G, 2)
        H, back = subgroup_as_group(G, S.members)
        assert H.order == 8
        for x in range(H.order):
            for y in range(H.order):
                assert back[H.mul(x, y)] == G.mul(back[x], back[y])

    def test_elements_generators_and_orders_come_from_the_ambient_group(self):
        G = symmetric(4)
        G.element_orders  # computed first, so the subgroup takes its orders from G
        S = sylow(G, 2)
        H, back = subgroup_as_group(G, S.members)
        assert [H.element(i) for i in range(8)] == [G.element(back[i]) for i in range(8)]
        assert H.element_orders.tolist() == [element_order(H.element(i)) for i in range(8)]
        assert [back[g] for g in H.generator_indices] == generating_set(G, S.members)
