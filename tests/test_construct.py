"""Group constructors, products, and the fixture file format."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csgroups import perm
from csgroups.classes import conjugacy_classes
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
from csgroups.perm import Permutation, close_with_degree, compose, element_order, identity, inverse

_spec = importlib.util.spec_from_file_location(
    "generate_fixtures", Path(__file__).resolve().parent.parent / "scripts" / "generate_fixtures.py")
generate_fixtures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate_fixtures)


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
        # the same table without memoized rows, so that mul takes its scalar path
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
