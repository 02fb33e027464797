"""Conjugacy class computation and class-size arithmetic."""

from hypothesis import given, settings, strategies as st

from csgroups.arith import arithmetic_profile, is_prime
from csgroups.classes import (
    composite_split,
    conjugacy_classes,
    is_p_element,
    pi_part_of_element,
)
from csgroups.construct import (
    alternating,
    cyclic,
    dihedral,
    direct_product,
    frobenius_pq,
    quaternion8,
    symmetric,
)

CATALOG = [
    cyclic(12),
    symmetric(3),
    symmetric(4),
    alternating(5),
    dihedral(6),
    quaternion8(),
    frobenius_pq(7, 3),
    direct_product(quaternion8(), frobenius_pq(7, 3)),
]


class TestArithmeticProfile:
    def test_factorization(self):
        prof = arithmetic_profile(60)
        assert prof.prime_factors == ((2, 2), (3, 1), (5, 1))
        assert prof.primes == (2, 3, 5)

    def test_composite_detection(self):
        assert not arithmetic_profile(1).is_composite
        assert not arithmetic_profile(7).is_composite
        assert arithmetic_profile(6).is_composite

    def test_p_part(self):
        assert arithmetic_profile(60).part(2) == 4
        assert arithmetic_profile(60).part(7) == 1

    def test_prime_power(self):
        assert arithmetic_profile(32).is_prime_power()
        assert not arithmetic_profile(12).is_prime_power()

    def test_pi_number(self):
        assert arithmetic_profile(18).is_pi_number({2, 3})
        assert not arithmetic_profile(20).is_pi_number({2, 3})

    def test_is_prime(self):
        assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


class TestConjugacyClasses:
    def test_symmetric_4_class_sizes(self):
        prof = conjugacy_classes(symmetric(4))
        sizes = sorted(len(cls) for _, cls in prof.classes)
        assert sizes == [1, 3, 6, 6, 8]

    def test_alternating_5(self):
        assert conjugacy_classes(alternating(5)).cs_set == (1, 12, 15, 20)

    def test_class_equation(self):
        for G in CATALOG:
            prof = conjugacy_classes(G)
            assert sum(len(cls) for _, cls in prof.classes) == G.order

    def test_orbit_stabilizer(self):
        for G in CATALOG:
            prof = conjugacy_classes(G)
            for rep, cls in prof.classes:
                centralizer = {g for g in range(G.order) if G.mul(g, rep) == G.mul(rep, g)}
                assert len(cls) * len(centralizer) == G.order

    def test_class_sizes_divide_group_order(self):
        for G in CATALOG:
            for s in conjugacy_classes(G).cs_set:
                assert G.order % s == 0

    def test_classes_are_conjugation_invariant(self):
        G = symmetric(4)
        prof = conjugacy_classes(G)
        for rep, cls in prof.classes:
            assert {G.conjugate(rep, g) for g in range(G.order)} == cls

    def test_composite_split(self):
        G = direct_product(quaternion8(), frobenius_pq(7, 3))
        prof = conjugacy_classes(G)
        assert prof.cs_set == (1, 2, 3, 6, 7, 14)
        primes, composites = composite_split(prof)
        assert primes == frozenset({2, 3, 7})
        assert composites == frozenset({6, 14})


class TestPrimaryDecomposition:
    def test_order_six_element_splits(self):
        G = cyclic(6)
        x = G.generator_indices[0]
        y = pi_part_of_element(G, x, {2})
        z = pi_part_of_element(G, x, {3})
        assert int(G.element_orders[y]) == 2
        assert int(G.element_orders[z]) == 3
        assert G.mul(y, z) == x == G.mul(z, y)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(range(1, 24)), st.sampled_from([{2}, {3}]))
    def test_parts_commute_and_multiply(self, x, pi):
        G = symmetric(4)
        y = pi_part_of_element(G, x, pi)
        z = pi_part_of_element(G, x, {2, 3} - pi)
        assert G.mul(y, z) == x == G.mul(z, y)
        assert arithmetic_profile(int(G.element_orders[y])).is_pi_number(pi)
        assert arithmetic_profile(int(G.element_orders[z])).is_pi_number({2, 3} - pi)

    def test_pi_part(self):
        G = cyclic(12)
        x = G.generator_indices[0]  # order 12
        y = pi_part_of_element(G, x, {2})
        assert int(G.element_orders[y]) == 4
        assert is_p_element(G, y, 2)

    def test_pi_part_of_coprime_element_is_identity(self):
        G = cyclic(5)
        assert pi_part_of_element(G, 1, {2, 3}) == 0
