"""Structural subgroup computations: series, Sylow, quotients, Frobenius."""

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from csgroups.catalog import make_builtin
from csgroups.arith import arithmetic_profile
from csgroups.classes import conjugacy_classes
from csgroups.lemmas import MAX_QUOTIENT_NORMALS, LemmaReport, check_pi_element_lifting, o_p_prime
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
from csgroups.perm import (
    OrderCapExceededError,
    Permutation,
    close_with_degree,
    element_order,
    from_cycles,
)
from csgroups.structure import (
    EnumerationLimitError,
    center,
    core_p,
    derived_series,
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
from csgroups.theorems import GroupAnalysis

MAX_RANDOM_ORDER = 1000


@st.composite
def small_permutation_groups(draw):
    """The group generated by 2-3 random permutations of at most 7 points,
    kept when it has at most MAX_RANDOM_ORDER elements.  The generators
    keep the points below a random split apart from those above it, so
    that intransitive groups, with centres and long lattices, come up."""
    deg = draw(st.integers(2, 7))
    split = draw(st.integers(0, deg))
    halves = st.tuples(st.permutations(range(split)), st.permutations(range(split, deg)))
    gens = draw(st.lists(halves.map(lambda h: Permutation(h[0] + h[1])),
                         min_size=2, max_size=3))
    try:
        table = close_with_degree(gens, deg, MAX_RANDOM_ORDER)
    except OrderCapExceededError:
        reject()
    return FiniteGroup(table, [table.index_of(g) for g in gens if not g.is_identity()],
                       f"<{', '.join(map(repr, gens))}>")


class ElementLevel:
    """A group's elements as ``Permutation`` images, for oracles that use
    neither the engine's index tables nor its class-product support.
    Element i is ``G.element(i)``."""

    def __init__(self, G: FiniteGroup):
        self.n = G.order
        self.P = np.array([G.element(i).images for i in range(G.order)], dtype=np.int64)
        self.inv = np.argsort(self.P, axis=1)
        self.weights = G.deg ** np.arange(G.deg)
        self.codes = self.P @ self.weights
        self.sorter = np.argsort(self.codes)

    def index(self, images: np.ndarray) -> np.ndarray:
        codes = images @ self.weights
        return self.sorter[np.searchsorted(self.codes[self.sorter], codes)]

    def products(self, x: int, ys) -> np.ndarray:
        """Indices of x*y for y in ``ys``: y's images, then x's."""
        return self.index(self.P[x][self.P[list(ys)]])

    def times(self, y: int) -> np.ndarray:
        """Indices of x*y for every x."""
        return self.index(self.P[:, self.P[y]])

    def commuting_pairs(self) -> int:
        """The number of pairs (x, y) with xy = yx, that is the sum of |C_G(x)|."""
        return sum(int((self.P[x][self.P] == self.P[:, self.P[x]]).all(axis=1).sum())
                   for x in range(self.n))

    def conjugates(self, x: int) -> frozenset[int]:
        """{g x g^-1 : g in G}."""
        return frozenset(self.index(np.take_along_axis(self.P, self.P[x][self.inv], axis=1)).tolist())

    def classes(self) -> set[frozenset[int]]:
        found, seen = set(), set()
        for x in range(self.n):
            if x not in seen:
                cls = self.conjugates(x)
                found.add(cls)
                seen |= cls
        return found

    def is_closed(self, U: list[int]) -> bool:
        member = np.zeros(self.n, dtype=bool)
        member[U] = True
        return all(member[self.products(x, U)].all() for x in U)

    def normal_subgroups(self) -> set[frozenset[int]]:
        """Every union of classes that is a subgroup; by Lagrange only
        unions whose size divides |G| can be one."""
        identity, *rest = sorted(self.classes(), key=min)
        found = set()
        for chosen in range(1 << len(rest)):
            picked = [C for c, C in enumerate(rest) if chosen >> c & 1]
            if self.n % (1 + sum(map(len, picked))):
                continue
            U = identity.union(*picked)
            if self.is_closed(sorted(U)):
                found.add(U)
        return found

    def subgroups_of_abelian(self, Z: frozenset[int]) -> set[frozenset[int]]:
        """Every subgroup of an abelian subgroup Z: the products of its
        cyclic subgroups, as AB = {ab} is a subgroup when A and B commute."""
        cyclics = set()
        for z in Z:
            powers = [0]
            while (nxt := int(self.products(z, [powers[-1]])[0])) != 0:
                powers.append(nxt)
            cyclics.add(frozenset(powers))
        found, frontier = set(cyclics), list(cyclics)
        while frontier:
            nxt = []
            for A in frontier:
                for B in cyclics:
                    AB = frozenset(y for a in A for y in self.products(a, B).tolist())
                    if AB not in found:
                        found.add(AB)
                        nxt.append(AB)
            frontier = nxt
        return found


def _assert_lattice_complete(G: FiniteGroup) -> None:
    classes = [members for _, members in conjugacy_classes(G).classes]
    assert len(classes) <= 10
    closed = set()
    for chosen in range(1 << (len(classes) - 1)):
        U = classes[0].union(*(C for c, C in enumerate(classes[1:])
                               if chosen >> c & 1))
        if all(G.mul(x, y) in U for x in U for y in U):
            closed.add(U)
    assert set(normal_subgroups(G)) == closed


class TestSeries:
    def test_derived_series_symmetric_4(self):
        series, soluble = derived_series(symmetric(4))
        assert [len(step) for step in series] == [24, 12, 4, 1]
        assert soluble

    def test_alternating_5_insoluble(self):
        assert not is_soluble(alternating(5))

    def test_derived_series_of_abelian_group(self):
        G = cyclic(12)
        assert derived_series(G) == ([frozenset(range(12)), frozenset([0])], True)

    def test_nilpotency(self):
        assert nilpotency_class(quaternion8()) == 2
        assert nilpotency_class(dihedral(8)) == 3
        assert is_nilpotent(cyclic(9))
        assert not is_nilpotent(symmetric(3))


class TestCenterAndSylow:
    def test_center_of_quaternion8(self):
        assert len(center(quaternion8())) == 2

    def test_center_of_symmetric_is_trivial(self):
        assert len(center(symmetric(4))) == 1

    def test_sylow_orders(self):
        G = symmetric(4)
        assert len(sylow(G, 2)) == 8
        assert len(sylow(G, 3)) == 3
        G = alternating(5)
        assert len(sylow(G, 2)) == 4
        assert len(sylow(G, 5)) == 5

    def test_core_p(self):
        G = symmetric(4)
        assert len(core_p(G, 2)) == 4  # the Klein four-group
        assert len(core_p(G, 3)) == 1

    @pytest.mark.parametrize("spec", ["sym(4)", "q8xsym(3)", "frobenius(7,3)",
                                      "dihedral(12)"])
    def test_core_p_is_intersection_of_conjugates(self, spec):
        G = make_builtin(spec)
        for p in arithmetic_profile(G.order).primes:
            P = sylow(G, p)
            core = frozenset(x for x in P
                             if all(G.conjugate(x, g) in P for g in range(G.order)))
            assert core_p(G, p) == core

    def test_core_p_needs_more_than_one_round(self):
        # With these generators, dropping once the elements that a
        # generator conjugates out of the Sylow 2-subgroup leaves order 2;
        # O_2(S5) is trivial.
        G = make_builtin("sym(5)")
        gens = [G.table.index_of(from_cycles(5, c)) for c in ([(0, 1)], [(0, 2, 4, 1, 3)])]
        assert len(core_p(FiniteGroup(G.table, gens, "sym(5)"), 2)) == 1

    def test_fitting_chain(self):
        G = symmetric(4)
        assert len(fitting(G)) == 4
        assert len(fitting2(G)) == 12

    def test_fitting_of_nilpotent_group_is_itself(self):
        assert len(fitting(quaternion8())) == 8


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
        orders = sorted(map(len, normal_subgroups(alternating(5))))
        assert orders == [1, 60]

    def test_symmetric_4(self):
        orders = sorted(map(len, normal_subgroups(symmetric(4))))
        assert orders == [1, 4, 12, 24]

    def test_all_reported_subgroups_are_normal(self):
        G = dihedral(6)
        for N in normal_subgroups(G):
            assert is_normal(G, N)

    def test_enumeration_limit(self):
        with pytest.raises(EnumerationLimitError):
            normal_subgroups(cyclic(16), limit=2)

    @pytest.mark.parametrize("spec", ["sym(4)", "alt(5)", "frobenius(7,3)",
                                      "dihedral(12)", "sym(3)xsym(3)"])
    def test_lattice_is_complete(self, spec):
        """The lattice holds every union of classes that contains the
        identity and is closed under multiplication, found element by
        element over all such unions."""
        _assert_lattice_complete(make_builtin(spec))


class TestClassAlgebraOracles:
    """The class-mask queries against element-level brute force."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(small_permutation_groups())
    def test_mask_queries_match_element_level(self, G):
        brute = ElementLevel(G)
        profile = conjugacy_classes(G)
        classes = brute.classes()
        # the class equation, and Burnside's count k(G)|G| = sum of |C_G(x)|
        assert {members for _, members in profile.classes} == classes
        assert sum(map(len, classes)) == G.order == profile.size((1 << len(classes)) - 1)
        assert all(G.order % len(C) == 0 for C in classes)
        assert len(classes) * G.order == brute.commuting_pairs()

        normals = brute.normal_subgroups()
        lattice = normal_subgroups(G, profile=profile)
        assert set(lattice) == normals
        assert all(profile.members(profile.mask_of(N)) == N for N in normals)

        for p in arithmetic_profile(G.order).primes:
            largest = max((N for N in normals if len(N) % p), key=len)
            assert o_p_prime(p, profile) == largest
            P = sylow(G, p)
            assert len(P) == arithmetic_profile(G.order).part(p) and brute.is_closed(sorted(P))
            p_normals = [N for N in normals if arithmetic_profile(len(N)).primes in ((), (p,))]
            assert core_p(G, p) == max(p_normals, key=len)

        # lemma 2.1e checks one class of G/N but the identity's, for each
        # of the first proper nontrivial normal subgroups
        lifted = [N for N in lattice if 1 < len(N) < G.order][:MAX_QUOTIENT_NORMALS]
        quotient_classes = 0
        for N in lattice:
            q = quotient(G, N)
            assert q.group.order * len(N) == G.order
            for g in G.generator_indices:  # xg maps to xN gN for every x
                image = q.group.mul_column(int(q.projection[g]))[q.projection]
                assert (q.projection[brute.times(g)] == image).all()
            qprof = conjugacy_classes(q.group)
            if N in lifted:
                quotient_classes += len(qprof.classes) - 1
            mask = profile.mask_of(N)
            for c, (x, _) in enumerate(profile.classes):
                expected = qprof.class_size_of(int(q.projection[x]))
                assert profile.quotient_class_size(c, mask) == expected

        Z = frozenset().union(*(C for C in classes if len(C) == 1))
        report = LemmaReport()
        check_pi_element_lifting(G, GroupAnalysis(G), report)
        assert report.ok()
        assert report.instances["2.1e"] == (1 if len(Z) == G.order else quotient_classes)

        assert center(G) == Z
        central = brute.subgroups_of_abelian(Z)
        assert {N for N in lattice if N <= Z} == central
        # stripping takes a largest central subgroup with a normal complement
        core, factor = strip_abelian_factors(G)
        best = max(len(A) for A in central
                   if any(len(A) * len(H) == G.order and A & H == {0} for H in normals))
        assert len(factor) == best and core.order * len(factor) == G.order
        assert factor <= Z

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(small_permutation_groups())
    def test_lattice_is_complete_on_random_groups(self, G):
        assume(len(conjugacy_classes(G).classes) <= 10)
        _assert_lattice_complete(G)


class TestFrobeniusAndHall:
    def test_frobenius_21(self):
        verdict = is_frobenius(frobenius_pq(7, 3))
        assert verdict.is_frobenius
        assert verdict.kernel is not None and len(verdict.kernel) == 7
        assert verdict.complement is not None and len(verdict.complement) == 3

    def test_symmetric_3_is_frobenius(self):
        assert is_frobenius(symmetric(3)).is_frobenius

    def test_quaternion8_is_not_frobenius(self):
        assert not is_frobenius(quaternion8()).is_frobenius

    def test_hall_subgroups_of_symmetric_4(self):
        G = symmetric(4)
        assert len(hall(G, {2, 3})) == 24
        assert len(hall(G, {2})) == 8
        assert len(hall(G, {5})) == 1

    def test_hall_in_soluble_group(self):
        G = frobenius_pq(7, 3)
        assert len(hall(G, {7})) == 7
        assert len(hall(G, {3})) == 3


class TestStripAbelianFactors:
    def test_quaternion_times_cyclic(self):
        G = direct_product(quaternion8(), cyclic(15))
        core, factor = strip_abelian_factors(G)
        assert len(factor) == 15
        assert conjugacy_classes(core).cs_set == (1, 2)

    def test_abelian_group_strips_to_trivial(self):
        core, factor = strip_abelian_factors(cyclic(12))
        assert core.order == 1
        assert len(factor) == 12

    def test_centerless_group_is_its_own_core(self):
        core, factor = strip_abelian_factors(symmetric(4))
        assert core.order == 24
        assert len(factor) == 1


class TestSubgroupReification:
    def test_back_map_is_an_embedding(self):
        G = symmetric(4)
        S = sylow(G, 2)
        H, back = subgroup_as_group(G, S)
        assert H.order == 8
        for x in range(H.order):
            for y in range(H.order):
                assert back[H.mul(x, y)] == G.mul(back[x], back[y])

    def test_elements_generators_and_orders_come_from_the_ambient_group(self):
        G = symmetric(4)
        G.element_orders  # computed first, so the subgroup takes its orders from G
        S = sylow(G, 2)
        H, back = subgroup_as_group(G, S)
        assert [H.element(i) for i in range(8)] == [G.element(back[i]) for i in range(8)]
        assert H.element_orders.tolist() == [element_order(H.element(i)) for i in range(8)]
        assert [back[g] for g in H.generator_indices] == generating_set(G, S)
