"""Permutation primitives and closure enumeration."""

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csgroups import perm
from csgroups.catalog import make_builtin
from csgroups.perm import (
    DegreeMismatchError,
    OrderCapExceededError,
    Permutation,
    close,
    close_with_degree,
    compose,
    element_order,
    from_cycles,
    identity,
    inverse,
    point_dtype,
)


@pytest.fixture(scope="module")
def near_cap_table():
    """A table of 4800 elements with six base points."""
    return make_builtin("dihedral(15)xdihedral(5)xdihedral(8)").table


def perm_strategy(deg: int):
    return st.permutations(range(deg)).map(lambda im: Permutation(tuple(im)))


def elements_of(table) -> list[Permutation]:
    """Every element of ``table`` as a ``Permutation``, in index order."""
    return [table.element(i) for i in range(len(table))]


def base_images(table, p: Permutation) -> np.ndarray:
    """``p``'s images of the table's base, as a batch of one row."""
    return np.array([[p(b) for b in table.base]])


def reference_closure(gens: list[Permutation], deg: int) -> list[Permutation]:
    """Row-by-row breadth-first closure: each element of a level times each
    generator, the products by the first generator first."""
    elements = [identity(deg)]
    seen = set(elements)
    frontier = elements
    while frontier:
        nxt = []
        for g in gens:
            for e in frontier:
                p = compose(e, g)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        elements = elements + nxt
        frontier = nxt
    return elements


def reference_dimino(gens: list[Permutation], deg: int) -> list[Permutation]:
    """Dimino's algorithm one coset at a time: each generator adjoined to
    the closure of those before it by right cosets H*t, each new
    representative times every generator so far giving the next round's
    products.  This is the element order ``close_with_degree`` keeps."""
    elements = [identity(deg)]
    seen = set(elements)
    for i, g in enumerate(gens):
        order = len(elements)
        products = [] if g in seen else [g]
        while products:
            reps = []
            for t in products:
                if t not in seen:
                    coset = [compose(h, t) for h in elements[:order]]
                    elements += coset
                    seen.update(coset)
                    reps.append(t)
            products = [compose(t, s) for t in reps for s in gens[:i + 1]]
    return elements


class TestPermutation:
    def test_identity(self):
        e = identity(4)
        assert e.images == (0, 1, 2, 3)

    def test_compose_applies_right_factor_first(self):
        # compose(p, q)(i) = p(q(i))
        p = from_cycles(3, [(0, 1)])
        q = from_cycles(3, [(1, 2)])
        assert compose(p, q).images == (1, 2, 0)
        assert compose(q, p).images == (2, 0, 1)

    def test_from_cycles_three_cycle(self):
        p = from_cycles(5, [(0, 1, 2)])
        assert p.images == (1, 2, 0, 3, 4)

    def test_cycles_round_trip(self):
        p = from_cycles(6, [(0, 3), (1, 4, 5)])
        assert from_cycles(6, p.cycles()) == p

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            compose(identity(3), identity(4))

    def test_element_order(self):
        assert element_order(identity(3)) == 1
        assert element_order(from_cycles(6, [(0, 1), (2, 3, 4)])) == 6

    @given(perm_strategy(5))
    def test_inverse_cancels(self, p):
        assert compose(p, inverse(p)) == identity(5)
        assert compose(inverse(p), p) == identity(5)

    @given(perm_strategy(4), perm_strategy(4), perm_strategy(4))
    def test_compose_associative(self, p, q, r):
        assert compose(compose(p, q), r) == compose(p, compose(q, r))


class TestClosure:
    def test_symmetric_group_from_standard_generators(self):
        table = close([from_cycles(3, [(0, 1)]), from_cycles(3, [(0, 1, 2)])])
        assert len(table) == 6

    def test_identity_is_index_zero(self):
        table = close([from_cycles(4, [(0, 1, 2, 3)])])
        assert table.element(0) == identity(4)

    def test_generator_order_does_not_matter(self):
        a = from_cycles(4, [(0, 1)])
        b = from_cycles(4, [(0, 1, 2, 3)])
        t1 = close([a, b])
        t2 = close([b, a])
        assert set(elements_of(t1)) == set(elements_of(t2))
        assert len(t1) == 24

    def test_closure_cap(self):
        gens = [from_cycles(7, [(0, 1)]), from_cycles(7, [tuple(range(7))])]
        with pytest.raises(OrderCapExceededError):
            close(gens, cap=100)

    def test_single_generator_cyclic(self):
        table = close([from_cycles(5, [tuple(range(5))])])
        assert len(table) == 5

    def test_cap_reports_one_element_past_it(self):
        gens = [from_cycles(4, [(0, 1)]), from_cycles(4, [tuple(range(4))])]
        assert len(close(gens, cap=24)) == 24
        for cap in range(1, 24):  # 23 is the order minus one
            with pytest.raises(OrderCapExceededError) as info:
                close(gens, cap=cap)
            assert (info.value.cap, info.value.partial_count) == (cap, cap + 1)

    def test_no_generators(self):
        assert elements_of(close_with_degree([], 3)) == [identity(3)]
        assert elements_of(close_with_degree([], 0)) == [identity(0)]

    def test_cap_crossed_at_a_later_coset(self):
        a, b = from_cycles(4, [(0, 1)]), from_cycles(4, [tuple(range(4))])
        # <a> = {1, a} and its coset <a>*b make 4 elements; the next coset,
        # <a>*(b*a), would make 6: a cap of 4 fits the first and not the second
        table = close([a, b], cap=24)
        assert set(elements_of(table)[:4]) == {identity(4), a, b, compose(a, b)}
        assert table.element(4) == compose(b, a)
        with pytest.raises(OrderCapExceededError) as info:
            close([a, b], cap=4)
        assert (info.value.cap, info.value.partial_count) == (4, 5)

    def test_cap_crossed_inside_the_first_coset(self):
        a, b = from_cycles(4, [(0, 1)]), from_cycles(4, [tuple(range(4))])
        assert len(close([b], cap=4)) == 4
        # <b> has order 4, so its first coset <b>*a takes the count from 4 to 8
        for cap in (4, 5, 6, 7):
            with pytest.raises(OrderCapExceededError) as info:
                close([b, a], cap=cap)
            assert (info.value.cap, info.value.partial_count) == (cap, cap + 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100])
    def test_cyclic_group_by_doubling_keeps_the_powers_in_order(self, n):
        # an n-cycle, and one with two more cycles, of lengths 2 and 3
        for g in (from_cycles(n, [tuple(range(n))]),
                  from_cycles(n + 5, [tuple(range(n)), (n, n + 1), (n + 2, n + 3, n + 4)])):
            order = element_order(g)
            powers = [identity(g.deg)]
            while len(powers) < order:
                powers.append(compose(powers[-1], g))
            assert elements_of(close([g], cap=order)) == powers
            for cap in {1, order // 2, order - 1} - {0}:
                with pytest.raises(OrderCapExceededError) as info:
                    close([g], cap=cap)
                assert (info.value.cap, info.value.partial_count) == (cap, cap + 1)

    @pytest.mark.parametrize("spec", ["dihedral(15)", "dihedral(6)xcyclic(4)", "alt(4)xsym(3)",
                                      "q8xcyclic(3)", "frobenius(13,3)"])
    def test_element_order_on_catalog_generators(self, spec):
        G = make_builtin(spec)
        gens = [G.element(i) for i in G.generator_indices]
        table = close_with_degree(gens, G.deg)
        assert elements_of(table) == reference_dimino(gens, G.deg)

    def test_cap_crossed_at_each_coset_of_a_commuting_generator(self):
        a = from_cycles(12, [tuple(range(7))])
        b = from_cycles(12, [tuple(range(7, 12))])  # commutes with a: <a, b> is <a> times <b>
        assert len(close([a, b], cap=35)) == 35
        for cap in (7, 14, 21, 28, 34):
            with pytest.raises(OrderCapExceededError) as info:
                close([a, b], cap=cap)
            assert (info.value.cap, info.value.partial_count) == (cap, cap + 1)

    def test_search_stops_past_half_of_a_known_group(self):
        # sym(4) holds <(0 1 2 3), (0 1)>; past 12 of its 24 elements it is all of it
        closure = perm.Closure(4, 24, 2, within=24)
        for g in (from_cycles(4, [(0, 1, 2, 3)]), from_cycles(4, [(0, 1)])):
            closure.adjoin(np.array(g.images, dtype=np.uint8))
        assert closure.count == 24 and 12 < len(closure.seen) < 24
        # later rows add nothing and are not generators
        closure.extend(np.array([from_cycles(4, [(1, 2)]).images], dtype=np.uint8))
        assert (closure.count, closure.ngens) == (24, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_element_order_is_dimino_one_coset_at_a_time(self, data):
        n = data.draw(st.integers(2, 7))
        gens = [Permutation(g) for g in
                data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=4))]
        assert elements_of(close_with_degree(gens, n, cap=5040)) == reference_dimino(gens, n)

    def test_matrix_holds_exactly_the_order(self):
        table = close([from_cycles(6, [(0, 1)]), from_cycles(6, [tuple(range(6))])])
        # the store was trimmed: the matrix owns its memory and has no spare rows
        assert table.matrix.shape == (720, 6) and table.matrix.dtype == np.uint8
        assert table.matrix.base is None and table.matrix.flags.owndata

    def test_closure_peak_is_below_four_matrices(self):
        # the regular representation of a group of order 2,520 on 2,520 points
        G = make_builtin("alt(4)xfrobenius(7,3)xdihedral(5)")
        gens = [Permutation(G.mul_row(g).tolist()) for g in G.generator_indices]
        tracemalloc.start()
        try:
            table = close_with_degree(gens, G.order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == G.order and table.matrix.dtype == np.uint16
        assert peak < 4 * table.matrix.nbytes

    def test_closure_peak_script_runs(self, capsys):
        spec = importlib.util.spec_from_file_location(
            "closure_peak", Path(__file__).resolve().parent.parent / "scripts" / "closure_peak.py")
        closure_peak = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(closure_peak)
        closure_peak.main(["sym(3)"])
        lines = dict(line.split(maxsplit=1) for line in capsys.readouterr().out.splitlines())
        assert lines["order"] == "6"
        assert lines["matrix"].endswith("(uint8)")

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_row_by_row_closure(self, data):
        n = data.draw(st.integers(2, 7))
        gens = [Permutation(g) for g in
                data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))]
        elements = elements_of(close_with_degree(gens, n, cap=5040))
        assert len(elements) == len(set(elements)) == len(reference_closure(gens, n))
        assert elements[0] == identity(n)
        # the closure order: each <g1, ..., gi> is a prefix of the rows
        for i in range(1, len(gens) + 1):
            subgroup = set(reference_closure(gens[:i], n))
            assert set(elements[:len(subgroup)]) == subgroup


class TestElementTable:
    def test_non_member_agreeing_on_the_base(self):
        table = close([from_cycles(4, [(0, 1, 2)])])
        outsider = from_cycles(4, [(0, 1), (2, 3)])
        # (0 1)(2 3) maps the base point as (0 1 2) does
        member = table.element(int(table.indices_of_base(base_images(table, outsider))[0]))
        assert member == from_cycles(4, [(0, 1, 2)])
        with pytest.raises(KeyError):
            table.index_of(outsider)
        assert outsider not in table
        assert from_cycles(4, [(0, 2, 1)]) in table

    def test_other_degree_is_not_a_member(self):
        table = close([from_cycles(4, [(0, 1, 2)])])
        assert identity(5) not in table
        assert identity(3) not in table

    def test_regular_representation_needs_one_base_point(self):
        table = close([from_cycles(6, [tuple(range(6))])])
        assert len(table.base) == 1

    def test_only_the_identity_fixes_the_base(self):
        table = close([from_cycles(6, [(0, 1)]), from_cycles(6, [tuple(range(6))])])
        fixers = [p for p in elements_of(table) if all(p(b) == b for b in table.base)]
        assert fixers == [identity(6)]

    def test_lookups_stay_exact_when_every_key_collides(self, monkeypatch):
        monkeypatch.setattr(perm, "_radix_weights", lambda deg, count: None)
        monkeypatch.setattr(perm, "_key_weights", lambda count: [0] * count)
        table = close([from_cycles(5, [tuple(range(5))]), from_cycles(5, [(1, 4), (2, 3)])])
        assert len(table) == 10 and not table.exact
        assert len(set(table._keys.tolist())) == 1
        scans = []
        scan = table._scan
        monkeypatch.setattr(table, "_scan", lambda *args: scans.append(1) or scan(*args))
        for i, p in enumerate(elements_of(table)):
            assert table.index_of(p) == i
            assert table.indices_of_base(base_images(table, p)).tolist() == [i]
        assert scans  # every key is 0, so all but one element are found by a scan
        images = table.matrix[::-1][:, table.base]
        assert table.indices_of_base(images).tolist() == list(range(10))[::-1]
        assert from_cycles(5, [(0, 1, 2)]) not in table

    def test_batch_of_shuffled_rows_with_repeats(self, near_cap_table, monkeypatch):
        table = near_cap_table
        assert len(table) == 4800 and len(table.base) == 6
        assert len(set(table._keys.tolist())) == len(table)
        # with distinct keys the batch path finds every row without a scan
        monkeypatch.setattr(table, "_scan", lambda *args: pytest.fail("scanned"))
        rng = np.random.default_rng(5)
        rows = rng.permutation(np.concatenate([np.arange(len(table)),
                                               rng.integers(0, len(table), 1200)]))
        found = table.indices_of_base(table.matrix[rows][:, table.base])
        assert found.tolist() == rows.tolist()

    def test_batch_with_one_unknown_tuple_raises(self, near_cap_table):
        table = near_cap_table
        images = table.matrix[::-1][:, table.base]
        images[len(images) // 2] = images[0, 0]  # no bijection maps the base to one point
        with pytest.raises(KeyError):
            table.indices_of_base(images)
        # n rows again, one of them distinct points that no element maps the base to
        images = table.matrix[:, table.base].copy()
        outsider = images[1][::-1].copy()
        assert outsider.tobytes() not in {row.tobytes() for row in images}
        images[len(images) // 3] = outsider
        with pytest.raises(KeyError):
            table.indices_of_base(images)

    def test_radix_keys_are_exact_on_the_near_cap_table(self, near_cap_table):
        table = near_cap_table
        assert table.exact and table.deg ** len(table.base) <= 2 ** 64
        keys = table._keys_of(table.matrix[:, table.base]).tolist()
        digits = [sum(int(v) * table.deg ** c for c, v in enumerate(row))
                  for row in table.matrix[:, table.base].tolist()]
        assert keys == digits

    def test_whole_group_batch_needs_no_search(self, near_cap_table, monkeypatch):
        table = near_cap_table
        rows = np.random.default_rng(11).permutation(len(table))
        monkeypatch.setattr(np, "searchsorted", lambda *args, **kw: pytest.fail("searched"))
        found = table.indices_of_base(table.matrix[rows][:, table.base])
        assert found.dtype == np.int32 and found.tolist() == rows.tolist()

    def test_whole_group_sized_batch_with_a_repeat_is_searched(self, near_cap_table,
                                                               monkeypatch):
        table = near_cap_table
        rows = np.random.default_rng(12).permutation(len(table))
        rows[7] = rows[8]  # n rows, but one element twice and one missing
        searches = []
        search = np.searchsorted
        monkeypatch.setattr(np, "searchsorted",
                            lambda *args, **kw: searches.append(1) or search(*args, **kw))
        found = table.indices_of_base(table.matrix[rows][:, table.base])
        assert found.tolist() == rows.tolist() and searches == [1]

    def test_lookups_on_a_table_without_exact_keys(self):
        # C2^5 on 10 points, padded with fixed points to 7,133: the five base
        # points are too many for radix-7,133 keys in 64 bits
        deg = 7133
        table = close([from_cycles(deg, [(i, i + 1)]) for i in range(0, 10, 2)])
        assert len(table) == 32 and len(table.base) == 5
        assert deg ** 5 > 2 ** 64 and not table.exact
        els = elements_of(table)
        for i, p in enumerate(els):
            assert p in table
            assert table.index_of(p) == i
            assert table.indices_of_base(base_images(table, p)).tolist() == [i]
        rows = [5, 31, 0, 5, 17, 2]
        images = table.matrix[rows][:, table.base]
        assert table.indices_of_base(images).tolist() == rows
        whole = np.arange(len(table))[::-1]
        assert table.indices_of_base(table.matrix[whole][:, table.base]).tolist() == whole.tolist()
        outsider = from_cycles(deg, [(0, 2)])
        assert outsider not in table
        with pytest.raises(KeyError):
            table.index_of(outsider)
        with pytest.raises(KeyError):
            table.indices_of_base(base_images(table, outsider))
        with pytest.raises(KeyError):
            table.indices_of_base(np.concatenate([images, base_images(table, outsider)]))

    def test_duplicate_elements_rejected(self):
        e, t = [0, 1, 2], [1, 0, 2]
        assert perm.ElementTable(np.array([e, t])).exact
        with pytest.raises(ValueError, match="duplicate"):
            perm.ElementTable(np.array([e, t, t]))
        with pytest.raises(ValueError, match="duplicate"):
            perm.ElementTable(np.array([e, e]))

    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError, match="bijection"):
            perm.ElementTable(np.array([[0, 1, 2], [1, 1, 2]]))
        with pytest.raises(ValueError, match="bijection"):
            perm.ElementTable(np.array([[0, 1, 2], [1, 2, 3]]))

    def test_non_bijection_in_the_last_chunk_rejected(self, near_cap_table):
        matrix = near_cap_table.matrix.copy()
        assert matrix.size > 2 * perm._MARK_CHUNK  # rows are checked in several chunks
        matrix[-1, -1] = matrix[-1, 0]
        with pytest.raises(ValueError, match="bijection"):
            perm.ElementTable(matrix)

    def test_out_of_range_images_rejected_not_wrapped(self):
        # in uint8 the second row would wrap to the transposition [1, 0, 2]
        with pytest.raises(ValueError, match="bijection"):
            perm.ElementTable(np.array([[0, 1, 2], [1, 0, 258]]))
        # and on 256 points -1 would wrap to the valid point 255
        row = list(range(256))
        row[0], row[255] = -1, 0
        with pytest.raises(ValueError, match="bijection"):
            perm.ElementTable(np.array([list(range(256)), row]))
        row[0] = 255
        assert perm.ElementTable(np.array([list(range(256)), row])).matrix.dtype == np.uint8

    def test_point_dtype_is_the_narrowest_that_holds_the_points(self):
        assert [point_dtype(n) for n in (1, 256, 257, 65536, 65537)] == [
            np.uint8, np.uint8, np.uint16, np.uint16, np.int32]
        table = perm.ElementTable(np.array([[0, 1, 2], [1, 0, 2]], dtype=np.int64))
        assert table.matrix.dtype == np.uint8

    def test_row_zero_must_be_the_identity(self):
        with pytest.raises(ValueError, match="identity"):
            perm.ElementTable(np.array([[1, 0, 2], [0, 1, 2]]))
        with pytest.raises(ValueError, match="identity"):
            perm.ElementTable(np.zeros((0, 3)))

    def test_elements_are_built_from_the_matrix(self):
        table = close([from_cycles(4, [(0, 1)]), from_cycles(4, [(1, 2, 3)])])
        assert [list(p.images) for p in elements_of(table)] == table.matrix.tolist()
