"""Builtin spec-string parsing and the bundled group catalog."""

import pytest

from csgroups.catalog import (
    BUILTIN_GRID,
    CatalogError,
    catalog_entries,
    fixture_group,
    iter_catalog,
    make_builtin,
    psl_2_8_fixture,
)
from csgroups.classes import conjugacy_classes


class TestSpecStrings:
    def test_simple_constructors(self):
        assert make_builtin("cyclic(6)").order == 6
        assert make_builtin("sym(4)").order == 24
        assert make_builtin("alternating(4)").order == 12
        assert make_builtin("dihedral(7)").order == 14
        assert make_builtin("q8").order == 8
        assert make_builtin("extraspecial(3)").order == 27
        assert make_builtin("frobenius(7,3)").order == 21

    def test_f21_alias(self):
        assert conjugacy_classes(make_builtin("F21")).cs_set == (1, 3, 7)

    def test_products(self):
        G = make_builtin("q8xF21")
        assert G.order == 168
        assert conjugacy_classes(G).cs_set == (1, 2, 3, 6, 7, 14)
        assert make_builtin("cyclic(2)xcyclic(3)xcyclic(5)").order == 30

    def test_x_inside_a_name_is_not_a_separator(self):
        assert make_builtin("extraspecial(3)xcyclic(2)").order == 54

    def test_unknown_spec_rejected(self):
        with pytest.raises(CatalogError):
            make_builtin("mystery(5)")
        with pytest.raises(CatalogError):
            make_builtin("cyclic(two)")
        with pytest.raises(CatalogError):
            make_builtin("frobenius(7)")


class TestFixtures:
    def test_bundled_names(self):
        names = [name for name, source, _ in catalog_entries() if source == "fixture"]
        assert "psl_2_8" in names
        assert "g160_234" in names

    def test_psl_2_8(self):
        G = psl_2_8_fixture()
        assert G.order == 504

    def test_unknown_fixture(self):
        with pytest.raises(CatalogError):
            fixture_group("does_not_exist")


class TestGrid:
    def test_grid_specs_all_build(self):
        for spec in BUILTIN_GRID:
            G = make_builtin(spec)
            assert G.order >= 1

    def test_catalog_is_sorted_and_capped(self):
        entries = list(iter_catalog(max_elements=100))
        keys = [(e.group.order, e.name) for e in entries]
        assert keys == sorted(keys)
        assert all(e.group.order <= 100 for e in entries)

    def test_catalog_includes_both_sources(self):
        sources = {e.source for e in iter_catalog()}
        assert sources == {"builtin", "fixture"}

    def test_names_are_unique(self):
        names = [e.name for e in iter_catalog()]
        assert len(names) == len(set(names))
