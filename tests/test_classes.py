"""Conjugacy class computation and class-size arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csgroups import classes, cli
from csgroups.arith import arithmetic_profile, is_prime
from csgroups.catalog import fixture_group, make_builtin
from csgroups.classes import (
    composite_split,
    conjugacy_classes,
    orbit_labels,
    pi_part_exponent,
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
from csgroups.structure import closure_members, core_p, derived_series, quotient

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


def orbit_oracle(G):
    """The classes at element level: each least x not yet seen, with all of
    its conjugates g^-1 x g, g running over every element."""
    seen = np.zeros(G.order, dtype=bool)
    found = []
    for x in range(G.order):
        if not seen[x]:
            conjugates = np.unique(G.conjugate_by_all(x))
            seen[conjugates] = True
            found.append((x, frozenset(conjugates.tolist())))
    return found


def count_rounds(monkeypatch) -> list:
    """Record one entry per hooking round of ``orbit_labels``: each round
    ends in one shortcut."""
    rounds = []
    shortcut = classes._shortcut
    monkeypatch.setattr(classes, "_shortcut", lambda label: (rounds.append(1), shortcut(label))[1])
    return rounds


def cycle(order: np.ndarray) -> np.ndarray:
    """The permutation mapping each point of ``order`` to the next, cyclically."""
    perm = np.empty(len(order), dtype=np.intp)
    perm[order] = np.roll(order, -1)
    return perm


@st.composite
def permutation_lists(draw):
    """1-4 permutations of up to 600 points: random ones, and cycles
    through a random subset of the points taken in sorted, reversed or
    shuffled order, so that later maps hook labels that earlier maps moved
    in the same round."""
    n = draw(st.integers(1, 600))
    maps = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["random", "up", "down", "shuffled"]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if kind == "random":
            maps.append(rng.permutation(n))
            continue
        points = rng.choice(n, size=draw(st.integers(1, n)), replace=False)
        points = {"up": np.sort(points), "down": np.sort(points)[::-1]}.get(kind, points)
        perm = np.arange(n)
        perm[points] = np.roll(points, -1)
        maps.append(perm)
    return maps, n


class TestOrbitLabelsAgainstTheWalk:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(permutation_lists())
    def test_labels_are_the_least_point_of_each_walked_orbit(self, case):
        maps, n = case
        index, reps, sizes = classes._walk_orbits(maps, n)
        assert orbit_labels(maps, n).tolist() == np.array(reps)[index].tolist()
        labelled = classes._label_orbits(maps, n)
        assert (labelled[0].tolist(), labelled[1], labelled[2]) == (index.tolist(), reps, sizes)


class TestOrbitLabels:
    N = 5000

    @pytest.mark.parametrize("direction", ["up", "down"])
    def test_single_long_cycle_in_one_round(self, monkeypatch, direction):
        # plain min-label propagation needs a round per step along it
        rounds = count_rounds(monkeypatch)
        points = np.arange(self.N)
        perm = cycle(points if direction == "up" else points[::-1])
        assert not orbit_labels([perm], self.N).any()
        assert len(rounds) == 1

    def test_shuffled_long_cycle_in_logarithmic_rounds(self, monkeypatch):
        rounds = count_rounds(monkeypatch)
        perm = cycle(np.random.default_rng(5).permutation(self.N))
        assert not orbit_labels([perm], self.N).any()
        assert len(rounds) <= math.log2(self.N)

    def test_no_maps_leave_every_point_alone(self):
        assert orbit_labels([], 1).tolist() == [0]
        assert orbit_labels([], 7).tolist() == list(range(7))

    def test_identity_maps_give_singletons(self, monkeypatch):
        rounds = count_rounds(monkeypatch)
        points = np.arange(50)
        assert orbit_labels([points, points.copy()], 50).tolist() == list(range(50))
        assert rounds == []

    def test_orbits_merge_only_through_both_maps(self):
        # a pairs 2i with 2i+1 and b pairs 2i+1 with 2i+2: alone each has
        # orbits of two, together they join every point into one path
        points = np.arange(self.N)
        a = points ^ 1
        b = np.concatenate(([0], (points[1:-1] - 1 ^ 1) + 1, [self.N - 1]))
        assert orbit_labels([a], self.N).tolist() == (points & ~1).tolist()
        assert orbit_labels([b], self.N).tolist() == ((points + 1 & ~1) - 1).clip(0).tolist()
        assert not orbit_labels([a, b], self.N).any()
        shuffle = np.random.default_rng(6).permutation(self.N)  # relabel the points
        relabelled = [shuffle[m[np.argsort(shuffle)]] for m in (a, b)]
        assert not orbit_labels(relabelled, self.N).any()

    @pytest.mark.parametrize("G", CATALOG + [dihedral(2499), cyclic(4999)],
                             ids=lambda G: f"{G.name}-{G.order}")
    def test_both_paths_match_the_element_orbits(self, monkeypatch, G):
        found = orbit_oracle(G)
        class_index = [-1] * G.order
        for c, (_, cls) in enumerate(found):
            for x in cls:
                class_index[x] = c
        expected = {"classes": found, "representatives": [rep for rep, _ in found],
                    "sizes": [len(cls) for _, cls in found], "class_index": class_index,
                    "class_of": class_index,
                    "cs_set": tuple(sorted({len(cls) for _, cls in found}))}
        for path, walk_below in (("labels", 0), ("walk", 10**9)):
            monkeypatch.setattr(classes, "WALK_BELOW_ORDER", walk_below)
            prof = conjugacy_classes(G)
            observed = {"classes": prof.classes, "representatives": prof.representatives,
                        "sizes": prof.sizes, "class_index": prof.class_index,
                        "class_of": prof.class_of.tolist(), "cs_set": prof.cs_set}
            assert observed == expected, path

    @pytest.mark.parametrize("G, N", [
        (symmetric(4), lambda G: core_p(G, 2)),
        (direct_product(symmetric(4), frobenius_pq(7, 3)),
         lambda G: closure_members(G, derived_series(G)[0][0])),
    ], ids=["sym(4)/V4-24", "sym(4)xF21/derived-504"])
    def test_both_paths_number_the_cosets_by_least_member(self, monkeypatch, G, N):
        N = N(G)
        # the coset xN at element level: x times every member of N
        least = G.products(range(G.order), sorted(N)).min(axis=1)
        expected = np.searchsorted(np.unique(least), least).tolist()
        labels, calls = classes.orbit_labels, []
        monkeypatch.setattr(classes, "orbit_labels", lambda maps, n: (calls.append(n), labels(maps, n))[1])
        tables = []
        for path, walk_below, labelled in (("labels", 0, [G.order]), ("walk", 10**9, [])):
            monkeypatch.setattr(classes, "WALK_BELOW_ORDER", walk_below)
            calls.clear()
            q = quotient(G, N)
            assert calls == labelled, path
            assert q.projection.tolist() == expected, path
            tables.append(q.group.table.matrix)
        assert np.array_equal(*tables)


class TestLazyMembers:
    def test_class_size_entry_builds_no_member_sets(self, monkeypatch):
        # a class-sizes-style product: order 2,112, >= 3 composite class sizes
        G = make_builtin("dihedral(11)xdihedral(8)xsym(3)")
        analyses = []

        class Recorded(cli.GroupAnalysis):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                analyses.append(self)

        monkeypatch.setattr(cli, "GroupAnalysis", Recorded)
        config = cli.effective_config(cli.build_parser().parse_args(["sweep"]))
        entry, _ = cli.entry_for_group("g", "builtin", G, config, False)
        assert G.order >= 2000 and len(entry["composites"]) >= 3
        assert G.order >= classes.WALK_BELOW_ORDER
        profile = analyses[0].profile
        assert "classes" not in profile.__dict__
        assert sum(len(m) for _, m in profile.classes) == G.order  # built on first read

    def test_profile_below_walk_order_builds_no_member_sets(self):
        G = symmetric(4)
        assert G.order < classes.WALK_BELOW_ORDER
        profile = conjugacy_classes(G)
        assert "classes" not in profile.__dict__
        assert profile.classes == orbit_oracle(G)  # built on first read

    @pytest.mark.parametrize("load", [lambda: fixture_group("g486_176"), lambda: symmetric(4),
                                      lambda: make_builtin("dihedral(11)xdihedral(8)xsym(3)")],
                             ids=["g486_176", "sym(4)", "class-sizes-style"])
    def test_classes_build_no_inverse_table(self, load):
        # the conjugation maps invert only the generators' rows
        G = load()
        assert G._inv is None
        profile = conjugacy_classes(G)
        assert G._inv is None
        assert sum(profile.sizes) == G.order


def _pi_part(G, x: int, pi: set[int]) -> int:
    """x's pi-part as lemma 2.1e computes it: x^e, e = pi_part_exponent(o(x), pi)."""
    return G.power(x, pi_part_exponent(int(G.element_orders[x]), pi))


class TestPrimaryDecomposition:
    def test_order_six_element_splits(self):
        G = cyclic(6)
        x = G.generator_indices[0]
        y = _pi_part(G, x, {2})
        z = _pi_part(G, x, {3})
        assert int(G.element_orders[y]) == 2
        assert int(G.element_orders[z]) == 3
        assert G.mul(y, z) == x == G.mul(z, y)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(range(1, 24)), st.sampled_from([{2}, {3}]))
    def test_parts_commute_and_multiply(self, x, pi):
        G = symmetric(4)
        y = _pi_part(G, x, pi)
        z = _pi_part(G, x, {2, 3} - pi)
        assert G.mul(y, z) == x == G.mul(z, y)
        assert arithmetic_profile(int(G.element_orders[y])).is_pi_number(pi)
        assert arithmetic_profile(int(G.element_orders[z])).is_pi_number({2, 3} - pi)

    def test_pi_part(self):
        G = cyclic(12)
        x = G.generator_indices[0]  # order 12
        y = _pi_part(G, x, {2})
        assert int(G.element_orders[y]) == 4
        assert arithmetic_profile(int(G.element_orders[y])).primes == (2,)

    def test_pi_part_of_coprime_element_is_identity(self):
        G = cyclic(5)
        assert _pi_part(G, 1, {2, 3}) == 0
