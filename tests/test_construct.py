"""Group constructors, products, and the fixture file format."""

import importlib.util
import json
import random
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csgroups import construct, perm
from csgroups.catalog import BUILTIN_GRID, fixture_group, iter_catalog, make_builtin
from csgroups.classes import conjugacy_classes
from csgroups.cli import entry_for_group, lemma_report_to_dict
from csgroups.construct import (
    FiniteGroup,
    FixtureError,
    ParameterError,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    dump_fixture,
    extraspecial_p3,
    frobenius_pq,
    load_fixture,
    quaternion8,
    symmetric,
)
from csgroups.lemmas import lemma_suite_for_group
from csgroups.perm import (
    Permutation,
    close_with_degree,
    compose,
    element_order,
    from_cycles,
    identity,
    inverse,
)

_spec = importlib.util.spec_from_file_location(
    "generate_fixtures", Path(__file__).resolve().parent.parent / "scripts" / "generate_fixtures.py")
generate_fixtures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate_fixtures)
_spec = importlib.util.spec_from_file_location(
    "bench_specs", Path(__file__).resolve().parent.parent / "perfbench" / "specs.py")
bench_specs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_specs)


class TestConstructors:
    def test_cyclic_is_abelian(self):
        G = cyclic(6)
        assert G.order == 6
        assert conjugacy_classes(G).cs_set == (1,)

    def test_symmetric_and_alternating_orders(self):
        assert symmetric(4).order == 24
        assert alternating(4).order == 12

    def test_dihedral_order_and_classes(self):
        G = dihedral(5)
        assert G.order == 10
        assert conjugacy_classes(G).cs_set == (1, 2, 5)

    def test_quaternion8(self):
        G = quaternion8()
        assert G.order == 8
        assert conjugacy_classes(G).cs_set == (1, 2)
        orders = sorted(int(o) for o in G.element_orders)
        assert orders == [1, 2, 4, 4, 4, 4, 4, 4]

    def test_extraspecial_27_has_exponent_3(self):
        G = extraspecial_p3(3)
        assert G.order == 27
        assert all(int(o) in (1, 3) for o in G.element_orders)
        assert conjugacy_classes(G).cs_set == (1, 3)

    def test_frobenius_pq(self):
        G = frobenius_pq(7, 3)
        assert G.order == 21
        assert conjugacy_classes(G).cs_set == (1, 3, 7)

    def test_frobenius_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            frobenius_pq(5, 3)  # 3 does not divide 5 - 1
        with pytest.raises(ParameterError):
            frobenius_pq(5, 4)  # 4 is not prime


class TestProducts:
    def test_direct_product_of_cyclics(self):
        G = direct_product(cyclic(2), cyclic(3))
        assert G.order == 6
        assert conjugacy_classes(G).cs_set == (1,)
        assert sorted(int(o) for o in G.element_orders) == [1, 2, 3, 3, 6, 6]

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([2, 3, 4, 5]), st.sampled_from(["sym3", "q8", "d4"]))
    def test_class_sizes_multiply_across_factors(self, n, which):
        H = {"sym3": symmetric(3), "q8": quaternion8(), "d4": dihedral(4)}[which]
        G = direct_product(cyclic(n), H)
        expected = conjugacy_classes(H).cs_set
        assert conjugacy_classes(G).cs_set == expected

    def test_semidirect_matches_frobenius(self):
        # C7 : C3 with the generator acting as x -> x^2
        N = cyclic(7)
        H = cyclic(3)
        square = [N.mul(1, 1)]  # image of N's generator under the action
        G = generate_fixtures.semidirect_product(N, H, [square])
        assert G.order == 21
        assert conjugacy_classes(G).cs_set == (1, 3, 7)

    def test_semidirect_c5_c4(self):
        N = cyclic(5)
        H = cyclic(4)
        G = generate_fixtures.semidirect_product(N, H, [[N.mul(1, 1)]])
        assert G.order == 20
        assert conjugacy_classes(G).cs_set == (1, 4, 5)


class TestFixtures:
    def test_round_trip(self, tmp_path):
        G = symmetric(4)
        path = tmp_path / "s4.txt"
        dump_fixture(G, path)
        H = load_fixture(path)
        assert H.order == 24
        assert conjugacy_classes(H).cs_set == conjugacy_classes(G).cs_set

    def test_parse_identity_and_comments(self, tmp_path):
        path = tmp_path / "triv.txt"
        path.write_text("# a comment\nname trivial\ndegree 3\n()\n")
        G = load_fixture(path)
        assert G.order == 1
        assert G.name == "trivial"

    def test_cycle_lines_are_one_based(self, tmp_path):
        path = tmp_path / "c3.txt"
        path.write_text("name c3\ndegree 3\n(1 2 3)\n")
        G = load_fixture(path)
        assert G.order == 3

    def test_malformed_file_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("name bad\ndegree 3\n(1 99)\n")
        with pytest.raises(FixtureError):
            load_fixture(path)

    def test_missing_degree_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("name bad\n(1 2)\n")
        with pytest.raises(FixtureError):
            load_fixture(path)


def check_against_elements(G: FiniteGroup, picks: list[int]) -> None:
    """Index-level algebra equals element-level compose/inverse followed
    by a lookup among the elements, on rows of the picked elements."""
    els = [G.element(i) for i in range(G.order)]
    find = {p: i for i, p in enumerate(els)}.__getitem__
    all_idx = list(range(G.order))
    assert G.inv.tolist() == [find(inverse(p)) for p in els]
    for i in picks:
        row = [find(compose(els[i], q)) for q in els]
        # the same table without memoized rows, so that mul looks up each product alone
        scalar = FiniteGroup(G.table, G.generator_indices, G.name)
        assert [scalar.mul(i, j) for j in all_idx] == row
        assert G.mul_row(i).tolist() == row
        assert G.products([i], picks[::-1]).tolist() == [[row[j] for j in picks[::-1]]]
        assert G.mul_column(i).tolist() == [find(compose(p, els[i])) for p in els]
        assert [G.mul(i, j) for j in all_idx] == row  # from the memoized row
        conj = [find(compose(compose(inverse(els[i]), x), els[i])) for x in els]
        assert G.conjugate_many(all_idx, i).tolist() == conj
        assert [G.conjugate(x, i) for x in all_idx] == conj
        by_all = [find(compose(compose(inverse(g), els[i]), g)) for g in els]
        assert G.conjugate_by_all(i).tolist() == by_all


class TestPointDtypeBoundary:
    """256 points are the most that uint8 holds and 257 the fewest that need
    uint16.  The dihedral group of order 2n on n points moves the last point,
    and its row starts (index times degree) are far past either dtype."""

    @pytest.mark.parametrize("n, dtype", [(256, np.uint8), (257, np.uint16)])
    def test_index_algebra_matches_permutations(self, n, dtype):
        G = dihedral(n)
        assert G.table.matrix.dtype == dtype
        picks = [1, n, 2 * n - 1]  # the first generator, a middle row and the last
        check_against_elements(G, picks)
        els = [G.element(i) for i in range(G.order)]
        assert G.element_orders.tolist() == [element_order(p) for p in els]
        find = {p: i for i, p in enumerate(els)}.__getitem__
        for x, row in zip(picks, G.power_table(picks)):
            power, expected = identity(n), []
            for _ in range(element_order(els[x])):
                expected.append(find(power))
                power = compose(power, els[x])
            assert row == expected


class TestIndexAlgebra:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_element_level_products(self, data):
        n = data.draw(st.integers(2, 6))
        gens = data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
        G = FiniteGroup(close_with_degree([Permutation(g) for g in gens], n), [], "random")
        picks = data.draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=3))
        check_against_elements(G, picks)
        els = [G.element(i) for i in range(G.order)]
        table = [[els.index(compose(els[x], els[y])) for y in picks] for x in picks]
        assert G.products(picks, picks).tolist() == table

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_element_orders_match_cycle_lengths(self, data):
        n = data.draw(st.integers(2, 7))
        gens = data.draw(st.lists(st.permutations(range(n)), max_size=3))
        G = FiniteGroup(close_with_degree([Permutation(g) for g in gens], n, cap=5040),
                        [], "random")
        assert G.element_orders.tolist() == [element_order(G.element(i))
                                             for i in range(G.order)]

    def test_element_orders_of_trivial_and_regular_groups(self, tmp_path):
        assert cyclic(1).element_orders.tolist() == [1]
        path = tmp_path / "trivial.txt"
        path.write_text("name trivial\ndegree 3\n")
        assert load_fixture(path).element_orders.tolist() == [1]
        assert sorted(quaternion8().element_orders.tolist()) == [1, 2, 4, 4, 4, 4, 4, 4]

    def test_exact_when_every_key_collides(self, monkeypatch):
        monkeypatch.setattr(perm, "_radix_weights", lambda deg, count: None)
        monkeypatch.setattr(perm, "_key_weights", lambda count: [0] * count)
        G = direct_product(symmetric(3), dihedral(4))
        assert not G.table.exact
        assert len(set(G.table._keys.tolist())) == 1
        check_against_elements(G, [0, 5, 17, G.order - 1])
        assert conjugacy_classes(G).cs_set == (1, 2, 3, 4, 6)

    def test_exact_when_keys_are_sums_of_base_images(self, monkeypatch):
        # many keys tie but not all, so a batch searched in key order mixes
        # direct hits with scans of the elements of one key
        monkeypatch.setattr(perm, "_radix_weights", lambda deg, count: None)
        monkeypatch.setattr(perm, "_key_weights", lambda count: [1] * count)
        G = direct_product(symmetric(3), dihedral(4))
        assert not G.table.exact
        keys = G.table._keys.tolist()
        assert 1 < len(set(keys)) < len(keys)
        check_against_elements(G, [0, 5, 17, G.order - 1])
        assert conjugacy_classes(G).cs_set == (1, 2, 3, 4, 6)

    @pytest.mark.parametrize("tables", ["C2^5 on 7,133 points", "every key collides"])
    def test_single_lookups_on_hash_keyed_tables(self, tables, monkeypatch):
        if tables == "every key collides":
            monkeypatch.setattr(perm, "_radix_weights", lambda deg, count: None)
            monkeypatch.setattr(perm, "_key_weights", lambda count: [0] * count)
            gens, deg = [from_cycles(5, [tuple(range(5))]), from_cycles(5, [(1, 4), (2, 3)])], 5
        else:  # five base points are too many for radix-7,133 keys in 64 bits
            gens, deg = [from_cycles(7133, [(i, i + 1)]) for i in range(0, 10, 2)], 7133
        # no memoized rows, so that mul and conjugate look up each element alone
        G = FiniteGroup(close_with_degree(gens, deg), [], tables)
        assert not G.table.exact
        els = [G.element(i) for i in range(G.order)]
        find = {p: i for i, p in enumerate(els)}.__getitem__
        assert [G.table.index_of(p) for p in els] == list(range(G.order))
        inverses = [inverse(y) for y in els]
        for i, x in enumerate(els):
            xy = [compose(x, y) for y in els]
            assert [G.mul(i, j) for j in range(G.order)] == [find(p) for p in xy]
            assert ([G.conjugate(i, j) for j in range(G.order)]
                    == [find(compose(y_inv, p)) for y_inv, p in zip(inverses, xy)])
        assert not G._mul_rows

    def test_single_lookups_are_batches_of_one(self, monkeypatch):
        G = symmetric(4)
        G.inv  # built before the spy: conjugate reads it
        batches = []
        lookup = G.table.indices_of_base
        monkeypatch.setattr(G.table, "indices_of_base",
                            lambda images: batches.append(len(images)) or lookup(images))
        assert not G._mul_rows  # so mul misses its memo
        assert G.mul(5, 7) == G.table.index_of(compose(G.element(5), G.element(7)))
        assert batches == [1, 1]
        assert G.conjugate(5, 7) == G.conjugate_many([5], 7)[0]
        assert batches == [1, 1, 1, 1]


def _row_picks(n: int) -> dict:
    """Each kind of ``xs`` that ``conjugate_many`` takes, as row picks of a
    group of order n, with the element indices that each one picks."""
    rng = np.random.default_rng(n)
    unsorted = rng.permutation(n)
    sample = np.sort(unsorted[:max(1, n // 3)])
    return {
        "slice": (slice(None), range(n)),
        "sorted array": (sample, sample.tolist()),
        "unsorted array": (unsorted, unsorted.tolist()),
        "unsorted subset": (unsorted[:max(1, n // 2)], unsorted[:max(1, n // 2)].tolist()),
        "list": (list(range(n - 1, -1, -2)), list(range(n - 1, -1, -2))),
        "empty array": (np.array([], dtype=np.intp), []),
    }


class TestConjugateMany:
    """``conjugate_many`` inverts g's row itself and gathers x*g by base
    columns; scalar ``conjugate`` (through the inverse table) is its oracle."""

    def test_every_kind_of_xs_matches_scalar_conjugate(self):
        groups = [e.group for e in iter_catalog()]
        assert {"g160_234", "g162_5", "g480_166", "g486_176", "psl_2_8"} <= {G.name for G in groups}
        # the regular representations of degree 480 and 486 have a one-point base
        assert all(len(G.table.base) == 1 for G in groups if G.name in ("g480_166", "g486_176"))
        for G in groups:
            picks = _row_picks(G.order)
            for g in sorted({*G.generator_indices, 0, G.order - 1}):
                scalar = [G.conjugate(x, g) for x in range(G.order)]
                for kind, (xs, chosen) in picks.items():
                    got = G.conjugate_many(xs, g)
                    assert got.tolist() == [scalar[x] for x in chosen], (G.name, g, kind)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_maps_are_permutations_undone_by_the_inverse(self, data):
        n = data.draw(st.integers(1, 7))
        gens = data.draw(st.lists(st.permutations(range(n)), max_size=3))
        table = close_with_degree([Permutation(g) for g in gens], n, cap=5040)
        G = FiniteGroup(table, sorted({table.index_of(Permutation(g)) for g in gens}), "random")
        for g in [*G.generator_indices, data.draw(st.integers(0, G.order - 1))]:
            conj = G.conjugate_many(slice(None), g)
            assert sorted(conj.tolist()) == list(range(G.order))
            assert conj[0] == 0
            undo = G.conjugate_many(slice(None), int(G.inv[g]))  # G.inv: an independent oracle
            assert undo[conj].tolist() == list(range(G.order))


def _cycle_line(p: Permutation) -> str:
    """``p`` in the fixture grammar (1-based points)."""
    return "".join("(" + ",".join(str(pt + 1) for pt in c) + ")" for c in p.cycles()) or "()"


def _grew(gens: list[Permutation], deg: int) -> list[Permutation]:
    """The generators outside the group of those before them, found by
    closing each prefix afresh: the oracle for ``generator_indices``."""
    return [g for i, g in enumerate(gens) if g not in close_with_degree(gens[:i], deg, cap=5040)]


class TestRedundantGenerators:
    """A generator that the closure finds among the elements generated by
    those before it (the identity, a repeat, a product) is dropped from
    ``generator_indices``; the elements and their numbering do not move."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_kept_generators_are_those_that_grew_the_closure(self, data):
        n = data.draw(st.integers(1, 6))
        gens = [Permutation(g) for g in data.draw(st.lists(st.permutations(range(n)), max_size=5))]
        G = construct._generated(gens, n, "random", 5040)
        assert G.generator_indices == [G.table.index_of(g) for g in _grew(gens, n)]

    @pytest.mark.parametrize("name", ["g160_234", "g162_5"])
    def test_redundant_fixture_gives_the_same_group_and_reports(self, tmp_path, name):
        plain = fixture_group(name)
        gens = [plain.element(i) for i in plain.generator_indices]
        # the identity first, a repeat right after its original, a product last
        padded = [identity(plain.deg), gens[0], gens[0], *gens[1:], compose(gens[0], gens[1])]
        path = tmp_path / f"{name}.txt"
        path.write_text("\n".join([f"name {name}", f"degree {plain.deg}",
                                   *map(_cycle_line, padded)]) + "\n")
        G = load_fixture(path)
        assert [G.element(i) for i in G.generator_indices] == gens
        assert G.generator_indices == plain.generator_indices
        assert G.table.matrix.dtype == plain.table.matrix.dtype
        assert G.table.matrix.tobytes() == plain.table.matrix.tobytes()

        def reports(H: FiniteGroup) -> tuple[str, dict]:
            entry, findings = entry_for_group(name, "fixture", H, {}, with_timing=False)
            return (json.dumps([entry, findings], sort_keys=True),
                    lemma_report_to_dict(lemma_suite_for_group(H)))
        assert reports(G) == reports(plain)
        # the dump lists only the kept generators, and loads to the same table
        dumped = tmp_path / "dumped.txt"
        dump_fixture(G, dumped)
        again = load_fixture(dumped)
        assert [again.element(i) for i in again.generator_indices] == gens
        assert again.table.matrix.tobytes() == plain.table.matrix.tobytes()

    def test_one_conjugation_map_per_kept_generator(self, monkeypatch):
        source = make_builtin("dihedral(14)xsym(5)")
        rng = random.Random(14)
        for _ in range(50):  # a random generating set in which one generator is redundant
            gens = [source.element(rng.randrange(1, source.order)) for _ in range(4)]
            kept = _grew(gens, source.deg)
            G = construct._generated(gens, source.deg, "presentation", 5040)
            if G.order == source.order and len(kept) < len(gens):
                break
        else:
            pytest.fail("no presentation with a redundant generator was drawn")
        assert G.generator_indices == [G.table.index_of(g) for g in kept]
        conjugated = []
        conjugate_many = FiniteGroup.conjugate_many

        def spy(self, xs, g):
            conjugated.append(g)
            return conjugate_many(self, xs, g)
        monkeypatch.setattr(FiniteGroup, "conjugate_many", spy)
        profile = conjugacy_classes(G)
        assert conjugated == [G.table.index_of(g) for g in kept]
        assert sum(profile.sizes) == G.order

    def test_benchmark_sources_keep_every_listed_generator(self, monkeypatch):
        # perfbench/gen.py draws as many random elements per presentation as
        # its source group has generators, so dropping one of them would
        # change the benchmark's inputs
        listed = []  # the generators handed to each closure

        def spy(gens, *args):
            listed.append(list(gens))
            return close_with_degree(gens, *args)
        monkeypatch.setattr(construct, "close_with_degree", spy)
        builds = [partial(make_builtin, spec) for spec in bench_specs.ATOMS + list(BUILTIN_GRID)]
        builds += [partial(fixture_group, name) for name in bench_specs.FIXTURE_ORDERS]
        for build in builds:
            G = build()
            gens = listed[-1]  # a product's closure comes after its factors'
            assert len(G.generator_indices) == sum(not g.is_identity() for g in gens), G.name
