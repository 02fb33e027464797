"""Structural subgroup computations: series, Sylow, quotients, Frobenius."""

import itertools
import math
from typing import Optional

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from csgroups import structure
from csgroups.catalog import BUILTIN_GRID, fixture_group, iter_catalog, make_builtin
from csgroups.arith import arithmetic_profile
from csgroups.classes import conjugacy_classes
from csgroups.lemmas import MAX_QUOTIENT_NORMALS, LemmaReport, check_pi_element_lifting
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
    ElementTable,
    OrderCapExceededError,
    Permutation,
    close_with_degree,
    compose,
    element_order,
    from_cycles,
    identity,
)
from csgroups.structure import (
    NotNilpotentError,
    center,
    centralizer_of_set,
    closure_members,
    core_p,
    derived_series,
    fitting,
    fitting2,
    generating_set,
    hall,
    is_frobenius,
    is_normal,
    nilpotency_class,
    normal_core,
    normal_subgroups,
    o_pi,
    quotient,
    strip_abelian_factors,
    subgroup_as_group,
    sylow,
)
from csgroups.theorems import GroupAnalysis

MAX_RANDOM_ORDER = 1000


def derived_members(G: FiniteGroup) -> tuple[list[frozenset[int]], bool]:
    """The derived series as member sets, G first, and whether it reaches
    1: each term of ``derived_series`` looked up by ``closure_members``."""
    terms, soluble = derived_series(G)
    return [frozenset(range(G.order))] + [closure_members(G, t) for t in terms], soluble


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
        series, soluble = derived_members(symmetric(4))
        assert [len(step) for step in series] == [24, 12, 4, 1]
        assert soluble

    def test_alternating_5_insoluble(self):
        assert not derived_series(alternating(5))[1]

    def test_derived_series_of_abelian_group(self):
        G = cyclic(12)
        assert derived_members(G) == ([frozenset(range(12)), frozenset([0])], True)

    def test_nilpotency(self):
        assert nilpotency_class(quaternion8()) == 2
        assert nilpotency_class(dihedral(8)) == 3
        assert nilpotency_class(cyclic(9)) == 1
        with pytest.raises(NotNilpotentError):
            nilpotency_class(symmetric(3))


def _normal_closure_by_index(G: FiniteGroup, seed: list[int],
                             conjugators: list[int]) -> tuple[frozenset[int], list[int]]:
    """Reference normal closure on element indices: the index-level BFS
    closure is run again after each seed element or conjugate that lies
    outside the subgroup so far, until conjugation by each conjugator
    keeps it."""
    rows: dict[int, list[int]] = {}
    gens: list[int] = []
    sub = frozenset([0])
    for c in seed:
        if c not in sub:
            gens.append(c)
            sub = G.subgroup_closure(gens, rows)
    changed = bool(gens)
    while changed:
        changed = False
        for x in list(gens):
            for h in conjugators:
                y = G.conjugate(x, h)
                if y not in sub:
                    gens.append(y)
                    sub = G.subgroup_closure(gens, rows)
                    changed = True
    return sub, gens


def _commutator(G: FiniteGroup, x: int, y: int) -> int:
    """Index of x^-1 y^-1 x y."""
    return G.mul(G.mul(int(G.inv[x]), int(G.inv[y])), G.mul(x, y))


def _derived_series_by_index(G: FiniteGroup) -> tuple[list[frozenset[int]], bool]:
    """Reference derived series: each term the normal closure in the term
    before of the commutators [x, y] of that term's generators."""
    series, gens = [frozenset(range(G.order))], G.generator_indices
    while True:
        comms = sorted({_commutator(G, x, y) for i, x in enumerate(gens) for y in gens[:i]})
        nxt, gens = _normal_closure_by_index(G, comms, gens)
        if nxt == series[-1]:
            break
        series.append(nxt)
        if nxt == {0}:
            break
    return series, series[-1] == {0}


def _nilpotency_class_by_index(G: FiniteGroup) -> Optional[int]:
    """Reference nilpotency class, None for a group that is not nilpotent:
    [N, G] is the normal closure in G of the [x, g] for generators x of N
    and g of G."""
    current, k = frozenset(range(G.order)), 0
    while current != {0}:
        comms = sorted({_commutator(G, x, g) for x in generating_set(G, current)
                        for g in G.generator_indices})
        nxt = _normal_closure_by_index(G, comms, G.generator_indices)[0]
        if nxt == current:
            return None
        current, k = nxt, k + 1
    return k


def _assert_series_match_reference(G: FiniteGroup) -> None:
    assert derived_members(G) == _derived_series_by_index(G), G.name
    expected = _nilpotency_class_by_index(G)
    if expected is None:
        with pytest.raises(NotNilpotentError):
            nilpotency_class(G)
    else:
        assert nilpotency_class(G) == expected, G.name


def _assert_series_invariants(G: FiniteGroup) -> None:
    """Checks that read no reference series: the terms are normal and
    strictly decreasing, the commutators of each term's generators lie
    in the next term (a perfect last term is its own next), and the strip
    is the same whether it is given G' or finds it."""
    series, soluble = derived_members(G)
    assert series[0] == frozenset(range(G.order)) and soluble == (series[-1] == {0})
    for term in series:
        members = np.array(sorted(term))
        assert all(set(G.conjugate_many(members, g).tolist()) <= term
                   for g in G.generator_indices)
    for i, term in enumerate(series):
        last = i + 1 == len(series)
        nxt = term if last else series[i + 1]
        assert nxt <= term and (last or len(nxt) < len(term))
        gens = generating_set(G, term)
        assert {_commutator(G, x, y) for x in gens for y in gens} <= nxt
    derived = series[1] if len(series) > 1 else series[0]
    given, found = strip_abelian_factors(G, derived, center(G)), strip_abelian_factors(G)
    assert given[1] == found[1]
    assert np.array_equal(given[0].table.matrix, found[0].table.matrix)


SERIES_ATOMS = {"sym(3)": 6, "sym(4)": 24, "alt(4)": 12, "dihedral(4)": 8, "dihedral(5)": 10,
                "q8": 8, "frobenius(7,3)": 21, "extraspecial(3)": 27, "cyclic(2)": 2,
                "cyclic(3)": 3, "cyclic(4)": 4}


@st.composite
def small_direct_products(draw):
    """A direct product of two or three atoms, of at most 1,000 elements."""
    atoms = draw(st.lists(st.sampled_from(sorted(SERIES_ATOMS)), min_size=2, max_size=3))
    assume(math.prod(SERIES_ATOMS[a] for a in atoms) <= 1000)
    return make_builtin("x".join(atoms))


class TestSeriesOnImageRows:
    """The derived and lower central series are normal closures grown on
    image rows; they match the index-level closures they replaced."""

    def test_catalog_and_fixtures_match_the_index_reference(self):
        groups = [e.group for e in iter_catalog()]
        assert {"g160_234", "g162_5", "g480_166", "g486_176", "psl_2_8"} <= {G.name for G in groups}
        for G in groups:
            _assert_series_match_reference(G)
            _assert_series_invariants(G)

    @pytest.mark.parametrize("spec", ["alt(5)", "sym(5)xfrobenius(13,3)", "cyclic(1)",
                                      "cyclic(12)", "cyclic(4)xcyclic(6)xcyclic(2)"])
    def test_named_groups_match_the_index_reference(self, spec):
        G = make_builtin(spec)
        _assert_series_match_reference(G)
        _assert_series_invariants(G)

    def test_trivial_and_abelian_groups(self):
        assert derived_members(make_builtin("cyclic(1)")) == ([frozenset([0])], True)
        assert nilpotency_class(make_builtin("cyclic(1)")) == 0
        G = make_builtin("cyclic(4)xcyclic(6)")
        assert derived_members(G) == ([frozenset(range(24)), frozenset([0])], True)
        assert nilpotency_class(G) == 1

    def test_perfect_group_is_its_own_derived_subgroup(self):
        series, soluble = derived_members(alternating(5))
        assert series == [frozenset(range(60))] and not soluble
        series, soluble = derived_members(make_builtin("sym(5)xfrobenius(13,3)"))
        assert [len(t) for t in series] == [4680, 780, 60] and not soluble

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(small_direct_products())
    def test_random_direct_products_match_the_index_reference(self, G):
        _assert_series_match_reference(G)
        _assert_series_invariants(G)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(small_permutation_groups())
    def test_random_groups_match_the_index_reference(self, G):
        _assert_series_match_reference(G)
        _assert_series_invariants(G)

    def test_no_multiplication_rows_or_index_closures(self, monkeypatch):
        groups = [e.group for e in iter_catalog()] + [make_builtin("sym(5)xfrobenius(13,3)")]

        def refuse(*args, **kwargs):
            raise AssertionError("a series went through the index-level closure")

        monkeypatch.setattr(FiniteGroup, "mul_row", refuse)
        monkeypatch.setattr(FiniteGroup, "subgroup_closure", refuse)
        for G in groups:
            derived_series(G)
            try:
                nilpotency_class(G)
            except NotNilpotentError:
                pass


class TestCenterAndSylow:
    def test_center_of_quaternion8(self):
        assert len(center(quaternion8())) == 2

    def test_center_of_symmetric_is_trivial(self):
        assert len(center(symmetric(4))) == 1

    def test_sylow_orders(self):
        profile = conjugacy_classes(symmetric(4))
        assert len(sylow(profile, 2)) == 8
        assert len(sylow(profile, 3)) == 3
        profile = conjugacy_classes(alternating(5))
        assert len(sylow(profile, 2)) == 4
        assert len(sylow(profile, 5)) == 5

    def test_sylow_grows_no_generating_set(self, monkeypatch):
        """The p-elements the ascent adjoins generate P, so they serve the
        normalizer and the closures."""
        def refuse(*args):
            raise AssertionError("sylow grew a generating set")

        monkeypatch.setattr(structure, "generating_set", refuse)
        for spec in ("sym(4)", "q8xsym(3)", "sym(5)", "dihedral(12)", "sym(4)xF21"):
            G = make_builtin(spec)
            profile = conjugacy_classes(G)
            for p in arithmetic_profile(G.order).primes:
                P = sylow(profile, p)
                assert len(P) == arithmetic_profile(G.order).part(p)
                assert G.subgroup_closure(sorted(P)) == P

    def test_fitting_reads_one_class_profile(self, monkeypatch):
        calls, classes_of = [], structure.conjugacy_classes
        monkeypatch.setattr(structure, "conjugacy_classes",
                            lambda G: (calls.append(G), classes_of(G))[1])
        G = make_builtin("sym(4)xF21")  # three primes
        assert len(fitting(G)) == 28  # V4 x C7
        assert calls == [G]

    def test_core_p(self):
        G = symmetric(4)
        assert len(core_p(G, 2)) == 4  # the Klein four-group
        assert len(core_p(G, 3)) == 1

    @pytest.mark.parametrize("spec", ["sym(4)", "q8xsym(3)", "frobenius(7,3)",
                                      "dihedral(12)"])
    def test_core_p_is_intersection_of_conjugates(self, spec):
        G = make_builtin(spec)
        profile = conjugacy_classes(G)
        for p in arithmetic_profile(G.order).primes:
            P = sylow(profile, p)
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
        assert len(fitting2(conjugacy_classes(G))) == 12

    def test_fitting_of_nilpotent_group_is_itself(self):
        assert len(fitting(quaternion8())) == 8

    def test_fitting2_is_the_preimage_of_the_quotients_fitting_subgroup(self):
        groups = [e.group for e in iter_catalog()]
        assert {"g160_234", "g162_5", "g480_166", "g486_176", "psl_2_8"} <= {G.name for G in groups}
        groups += [make_builtin(spec) for spec in ("sym(4)xcyclic(200)",
                                                   "sym(4)xcyclic(7)xcyclic(25)",
                                                   "q8xsym(3)xcyclic(90)")]
        groups.append(_agl_2_3())
        proper = 0
        for G in groups:
            expected = _fitting2_by_quotient(G)
            assert fitting2(conjugacy_classes(G)) == expected, G.name
            proper += len(expected) < G.order
        assert proper >= 5  # G/F2 > 1 on eight of them
        AGL = groups[-1]
        assert (len(fitting(AGL)), len(fitting2(conjugacy_classes(AGL)))) == (9, 72)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(small_permutation_groups())
    def test_fitting2_matches_the_quotient_definition_on_random_groups(self, G):
        assert fitting2(conjugacy_classes(G)) == _fitting2_by_quotient(G)

    @pytest.mark.parametrize("spec", ["sym(4)", "dihedral(6)xsym(3)"])
    def test_normal_core_is_the_intersection_of_conjugates(self, spec):
        """For every subgroup generated by one or two elements."""
        G = make_builtin(spec)
        conjugates = np.array([G.conjugate_by_all(x) for x in range(G.order)])  # [x, g] = g^-1 x g
        subgroups = {G.subgroup_closure([x, y]) for x in range(G.order) for y in range(x + 1)}
        profile = conjugacy_classes(G)
        for H in subgroups:
            members = sorted(H)
            core = frozenset.intersection(*(frozenset(conjugates[members, g].tolist())
                                            for g in range(G.order)))
            assert normal_core(profile, H) == core
        assert len({len(normal_core(profile, H)) for H in subgroups}) >= 3


FIXTURES = ("g160_234", "g162_5", "g480_166", "g486_176", "psl_2_8")


class TestSylowFromCentralizer:
    """``sylow(profile, p)`` reads P off C(z), for z a p-element of the
    largest class size prime to p, when |C(z)| is the p-part of |G|, and
    climbs by normalizers otherwise.  z and C(z) depend on the element
    numbering, so the fixtures run under seeded relabellings too."""

    @pytest.mark.parametrize("case", [*BUILTIN_GRID, *FIXTURES,
                                      *(f"{name}@{seed}" for name in FIXTURES for seed in (1, 2, 3))])
    def test_is_a_p_subgroup_of_full_order_with_the_counted_core(self, case, relabel):
        name, _, seed = case.partition("@")
        G = fixture_group(name) if name in FIXTURES else make_builtin(name)
        if seed:
            G = relabel(G, int(seed))
        profile, prof = conjugacy_classes(G), arithmetic_profile(G.order)
        for p in prof.primes:
            P = sylow(profile, p)
            members = np.array(sorted(P), dtype=np.intp)
            assert len(P) == prof.part(p), (p, len(P))
            assert P.issuperset(G.products(members, members).ravel().tolist())
            assert (prof.part(p) % G.element_orders[members] == 0).all()
            # the core at element level: the x in P with every g^-1 x g in P
            conjugates = np.array([G.conjugate_many(members, g) for g in range(G.order)])
            core = frozenset(members[np.isin(conjugates, members).all(axis=0)].tolist())
            assert normal_core(profile, P) == core

    @staticmethod
    def _count_conjugate_by_all(monkeypatch) -> list[int]:
        calls, by_all = [], FiniteGroup.conjugate_by_all
        monkeypatch.setattr(FiniteGroup, "conjugate_by_all",
                            lambda G, x: (calls.append(x), by_all(G, x))[1])
        return calls

    @pytest.mark.parametrize("name", ["g160_234", "g162_5", "g486_176", "psl_2_8"])
    def test_reads_a_centralizer_without_the_inverse_table(self, monkeypatch, name):
        calls = self._count_conjugate_by_all(monkeypatch)
        G = fixture_group(name)
        profile = conjugacy_classes(G)
        for p in arithmetic_profile(G.order).primes:
            assert len(sylow(profile, p)) == arithmetic_profile(G.order).part(p)
        assert calls == [] and G._inv is None

    def test_climbs_where_every_p_central_element_is_central(self, monkeypatch):
        """In g480_166 every 2-element of odd class size is central, so
        C(z) is G, and only the ascent finds the Sylow 2-subgroup."""
        calls = self._count_conjugate_by_all(monkeypatch)
        G = fixture_group("g480_166")
        profile = conjugacy_classes(G)
        odd_2_classes = [c for c, rep in enumerate(profile.representatives)
                         if 32 % G.element_orders[rep] == 0 and profile.sizes[c] % 2]
        assert {profile.sizes[c] for c in odd_2_classes} == {1}
        climbed = set()
        for p in arithmetic_profile(G.order).primes:
            calls.clear()
            assert len(sylow(profile, p)) == arithmetic_profile(G.order).part(p)
            if calls:
                climbed.add(p)
        assert climbed == {2} and G._inv is not None


def _agl_2_3() -> FiniteGroup:
    """AGL(2, 3) on the points 3a + b of F3^2: F = F3^2 and G/F = GL(2, 3),
    whose O_2, Q8, lies strictly inside its Sylow 2-subgroup SD16; so the
    core of PF for a Sylow 2-subgroup P lies strictly between F and PF."""
    def affine(m, v=(0, 0)):
        (a, b), (c, d) = m
        return Permutation([3 * ((a * (x // 3) + b * (x % 3) + v[0]) % 3)
                            + (c * (x // 3) + d * (x % 3) + v[1]) % 3 for x in range(9)])

    gens = [affine(((1, 0), (0, 1)), (1, 0)), affine(((1, 1), (0, 1))),
            affine(((0, 1), (2, 0))), affine(((2, 0), (0, 1)))]
    table = close_with_degree(gens, 9)
    return FiniteGroup(table, [table.index_of(g) for g in gens], "AGL(2,3)")


def _fitting2_by_quotient(G: FiniteGroup) -> frozenset[int]:
    """F2(G) by its definition: the preimage of F(G/F(G)) through the
    quotient's projection."""
    F = fitting(G)
    if len(F) == G.order:
        return F
    q = quotient(G, F)
    return frozenset(np.flatnonzero(np.isin(q.projection, list(fitting(q.group)))).tolist())


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
            assert is_normal(G, N, generating_set(G, N))

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
        assert sum(profile.sizes) == G.order
        assert profile.sizes == [len(members) for _, members in profile.classes]

        # C(x) as a bit mask: bit g is set when gx = xg
        analysis = GroupAnalysis(G)
        everything = range(G.order)
        for x in everything:
            commuting = np.flatnonzero(brute.times(x) == brute.products(x, everything))
            assert analysis.centralizer(x) == sum(1 << int(g) for g in commuting)

        normals = brute.normal_subgroups()
        lattice = normal_subgroups(G, profile=profile)
        assert set(lattice) == normals
        assert all(profile.members(profile.mask_of(N)) == N for N in normals)

        # O_pi(G), the largest normal pi-subgroup, for every nonempty pi
        primes = arithmetic_profile(G.order).primes
        for r in range(1, len(primes) + 1):
            for pi in itertools.combinations(primes, r):
                largest = max((N for N in normals if arithmetic_profile(len(N)).is_pi_number(pi)),
                              key=len)
                assert o_pi(profile, set(pi)) == largest

        for p in primes:
            P = sylow(profile, p)
            assert len(P) == arithmetic_profile(G.order).part(p) and brute.is_closed(sorted(P))
            p_normals = [N for N in normals if arithmetic_profile(len(N)).primes in ((), (p,))]
            assert core_p(G, p) == max(p_normals, key=len)

        # a Hall pi-subgroup for each pi of at least two primes but not all;
        # soluble groups have one (P. Hall)
        soluble = derived_series(G)[1]
        for r in range(2, len(primes)):
            for pi in itertools.combinations(primes, r):
                H = hall(profile, set(pi))
                assert H is not None or not soluble
                if H is not None:
                    assert len(H) == math.prod(arithmetic_profile(G.order).part(p) for p in pi)
                    assert brute.is_closed(sorted(H))

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
            downs = profile.quotient_class_sizes(profile.mask_of(N))
            for (x, _), down in zip(profile.classes, downs):
                assert down == qprof.class_size_of(int(q.projection[x]))

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
        assert conjugacy_classes(core).cs_set == profile.cs_set

    @pytest.mark.parametrize("spec", ["sym(5)xcyclic(2)", "alt(5)xcyclic(6)",
                                      "frobenius(7,3)xcyclic(5)"])
    def test_o_pi_where_it_misses_primes_of_pi(self, spec):
        """O_pi against the largest normal pi-subgroup of the lattice, in
        groups where some O_pi holds no element of order divisible by
        some prime of pi, which random small groups rarely give."""
        G = make_builtin(spec)
        profile = conjugacy_classes(G)
        normals = normal_subgroups(G, profile=profile)
        primes = arithmetic_profile(G.order).primes
        for r in range(1, len(primes) + 1):
            for pi in itertools.combinations(primes, r):
                largest = max((N for N in normals if arithmetic_profile(len(N)).is_pi_number(pi)),
                              key=len)
                assert o_pi(profile, set(pi)) == largest

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(small_permutation_groups())
    def test_lattice_is_complete_on_random_groups(self, G):
        assume(len(conjugacy_classes(G).classes) <= 10)
        _assert_lattice_complete(G)


class TestFrobeniusAndHall:
    def test_frobenius_21(self):
        verdict = is_frobenius(conjugacy_classes(frobenius_pq(7, 3)))
        assert verdict.is_frobenius
        assert verdict.kernel is not None and len(verdict.kernel) == 7

    def test_symmetric_3_is_frobenius(self):
        assert is_frobenius(conjugacy_classes(symmetric(3))).is_frobenius

    def test_quaternion8_is_not_frobenius(self):
        assert not is_frobenius(conjugacy_classes(quaternion8())).is_frobenius

    def test_hall_subgroups_of_symmetric_4(self):
        G = symmetric(4)
        assert len(hall(conjugacy_classes(G), {2, 3})) == 24
        assert len(hall(conjugacy_classes(G), {2})) == 8
        assert len(hall(conjugacy_classes(G), {5})) == 1

    def test_hall_in_soluble_group(self):
        G = frobenius_pq(7, 3)
        assert len(hall(conjugacy_classes(G), {7})) == 7
        assert len(hall(conjugacy_classes(G), {3})) == 3

    def test_hall_subgroups_for_two_primes(self):
        G = direct_product(symmetric(4), cyclic(5))
        assert len(hall(conjugacy_classes(G), {2, 3})) == 24
        assert len(hall(conjugacy_classes(G), {2, 5})) == 40
        assert len(hall(conjugacy_classes(G), {3, 5})) == 15

    def test_affine_group_of_order_42_is_frobenius(self):
        # AGL(1, 7) on the points 0..6: x -> x + 1 and x -> 3x
        gens = [Permutation([(x + 1) % 7 for x in range(7)]),
                Permutation([3 * x % 7 for x in range(7)])]
        table = close_with_degree(gens, 7)
        G = FiniteGroup(table, [table.index_of(g) for g in gens], "AGL(1,7)")
        verdict = is_frobenius(conjugacy_classes(G))
        assert verdict.is_frobenius
        assert verdict.kernel is not None and len(verdict.kernel) == 7

    def test_hall_subgroups_of_non_soluble_groups(self):
        assert len(hall(conjugacy_classes(alternating(5)), {2, 3})) == 12
        assert len(hall(conjugacy_classes(fixture_group("psl_2_8")), {2, 7})) == 56


def _frobenius_by_lattice(Q: FiniteGroup) -> tuple[bool, Optional[frozenset[int]]]:
    """The Frobenius test as a walk over the normal-subgroup lattice: the
    first normal K of coprime index whose nonidentity elements have their
    centralizers inside K, with a Hall complement.  Whether Q is
    Frobenius, and K."""
    n = Q.order
    for K in normal_subgroups(Q):
        if len(K) in (1, n) or math.gcd(len(K), n // len(K)) != 1:
            continue
        if not all(centralizer_of_set(Q, [k]) <= K for k in K if k != 0):
            continue
        H = hall(conjugacy_classes(Q), set(arithmetic_profile(n // len(K)).primes))
        if H is not None and len(H) == n // len(K) and (H & K) == {0}:
            return True, K
    return False, None


class TestFrobeniusOracle:
    """``is_frobenius(profile, N)`` reads O_pi of full pi-part and the class
    sizes of G/N; the lattice walk tries every normal subgroup of the
    quotient's own group and searches a complement.  Verdict and kernel
    agree."""

    @staticmethod
    def _assert_matches_lattice(G: FiniteGroup, N: frozenset[int]) -> None:
        verdict = is_frobenius(conjugacy_classes(G), N)
        Q = quotient(G, N).group
        assert (verdict.is_frobenius, verdict.kernel) == _frobenius_by_lattice(Q), (G.name, len(N))

    def test_every_proper_quotient_of_catalog_groups(self):
        # dihedral(15) has a kernel of order 15, which no catalog group has
        groups = [e.group for e in iter_catalog()] + [make_builtin("dihedral(15)")]
        quotients = frobenius = 0
        for G in groups:
            for N in normal_subgroups(G):
                if len(N) < G.order:
                    self._assert_matches_lattice(G, N)
                    quotients += 1
                    frobenius += is_frobenius(conjugacy_classes(G), N).is_frobenius
        assert len(is_frobenius(conjugacy_classes(groups[-1])).kernel) == 15
        assert quotients > 300 and frobenius > 30

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(small_permutation_groups())
    def test_random_groups_and_central_quotients(self, G):
        for N in (frozenset([0]), center(G)):
            self._assert_matches_lattice(G, N)


def _lattice_strip(G: FiniteGroup) -> tuple[frozenset[int], frozenset[int]]:
    """The strip as a search of the normal-subgroup lattice: a largest
    central subgroup A with a normal complement H, and H."""
    Z = center(G)
    if len(Z) == G.order:
        return frozenset([0]), Z
    normals = normal_subgroups(G)
    for A in sorted((N for N in normals if N <= Z), key=len, reverse=True):
        for H in normals:
            if len(H) * len(A) == G.order and H & A == {0}:
                return H, A
    raise AssertionError("the trivial factor always has a complement")


def _assert_strip_matches_lattice(G: FiniteGroup) -> None:
    core, factor = strip_abelian_factors(G)
    H, A = _lattice_strip(G)
    assert (core.order, len(factor)) == (len(H), len(A))
    assert factor <= center(G) and G.subgroup_closure(factor) == factor
    assert conjugacy_classes(core).cs_set == conjugacy_classes(G).cs_set


class TestStripAbelianFactors:
    def test_orders_match_the_lattice_strip_on_the_catalog(self):
        for entry in iter_catalog():
            _assert_strip_matches_lattice(entry.group)

    @pytest.mark.parametrize("spec", ["sym(3)xcyclic(4)xcyclic(2)",
                                      "dihedral(4)xcyclic(4)xcyclic(2)",
                                      "q8xcyclic(4)xcyclic(2)",
                                      "extraspecial(3)xcyclic(9)xcyclic(3)"])
    def test_orders_match_the_lattice_strip_with_several_factors(self, spec):
        _assert_strip_matches_lattice(make_builtin(spec))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(small_permutation_groups())
    def test_orders_match_the_lattice_strip_on_random_groups(self, G):
        _assert_strip_matches_lattice(G)

    def test_complement_grows_from_the_seed(self):
        # sym(3) x C4 x C2, numbered so that the central z = (2,1) is tried
        # first and (0,1) comes before (1,0).  <z> splits off, with the
        # complement sym(3) x <(1,0)>; grown from 1 (or from G'), the
        # complement takes (0,1) first, which lies in no complement of <z>.
        # The table is built from an explicit matrix, so its numbering
        # does not depend on the closure: the abelian part in the order
        # 1, z, (0,1), (1,0), ..., then its products with each other
        # element of sym(3)
        deg = 9
        u, v = from_cycles(deg, [(7, 8)]), from_cycles(deg, [(3, 4, 5, 6)])  # (0,1), (1,0)
        v2 = compose(v, v)
        v3 = compose(v2, v)
        abelian = [identity(deg), compose(v2, u), u, v, v2, v3, compose(v, u), compose(v3, u)]
        sym3 = [Permutation(list(s) + list(range(3, deg)))
                for s in itertools.permutations(range(3))]
        rows = [compose(a, s).images for s in sym3 for a in abelian]
        table = ElementTable(np.array(rows))
        gens = abelian[1:4] + [from_cycles(deg, [(0, 1, 2)]), from_cycles(deg, [(0, 1)])]
        G = FiniteGroup(table, [table.index_of(g) for g in gens], "sym(3)xC4xC2")
        core, factor = strip_abelian_factors(G)
        assert (core.order, len(factor)) == (6, 8)
        assert conjugacy_classes(core).cs_set == (1, 2, 3)

    def test_given_center_and_commutator_subgroup(self):
        G = make_builtin("q8xcyclic(4)xcyclic(2)")
        series, _ = derived_members(G)
        for core, factor in (strip_abelian_factors(G, series[1], center(G)),
                             strip_abelian_factors(G)):
            assert (core.order, len(factor)) == (8, 8)

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
        S = sylow(conjugacy_classes(G), 2)
        H, back = subgroup_as_group(G, S)
        assert H.order == 8
        for x in range(H.order):
            for y in range(H.order):
                assert back[H.mul(x, y)] == G.mul(back[x], back[y])

    def test_elements_generators_and_orders_come_from_the_ambient_group(self):
        G = symmetric(4)
        G.element_orders  # computed first, so the subgroup takes its orders from G
        S = sylow(conjugacy_classes(G), 2)
        H, back = subgroup_as_group(G, S)
        assert [H.element(i) for i in range(8)] == [G.element(back[i]) for i in range(8)]
        assert H.element_orders.tolist() == [element_order(H.element(i)) for i in range(8)]
        assert [back[g] for g in H.generator_indices] == generating_set(G, S)
