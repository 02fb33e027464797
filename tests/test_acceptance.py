"""Acceptance gate: the nine headline checks, each with its stated
tolerance and time budget, printed as one pass/fail line apiece."""

import json
import time

import pytest

from csgroups.catalog import fixture_group, iter_catalog
from csgroups.classes import composite_split, conjugacy_classes
from csgroups.cli import main
from csgroups.construct import direct_product, frobenius_pq, quaternion8
from csgroups.lemmas import LemmaReport, lemma_suite_for_group
from csgroups.theorems import (
    check_chillag_herzog,
    check_psl_formula,
    check_theorem_A,
    check_theorem_C,
    conjecture_B_findings,
    psl_formula_set,
)


def report_line(number: int, label: str, passed: bool, elapsed: float):
    status = "PASS" if passed else "FAIL"
    print(f"acceptance {number}: {status} ({elapsed:.1f}s) {label}")


@pytest.fixture(scope="module")
def clock():
    def run(fn):
        t0 = time.monotonic()
        result = fn()
        return result, time.monotonic() - t0
    return run


def test_acceptance_1_case_a_fixture(clock):
    def body():
        G = fixture_group("g480_166")
        prof = conjugacy_classes(G)
        primes, composites = composite_split(prof)
        verdict = check_theorem_C(G)
        return (G.order == 480
                and prof.cs_set == (1, 2, 4, 60)
                and primes == frozenset({2})
                and composites == frozenset({4, 60})
                and verdict.status() == "pass"
                and verdict.witnesses["case"] == "a"
                and verdict.witnesses["p"] == 2
                and verdict.witnesses["a"] == 2
                and verdict.witnesses["n"] == 60)
    ok, elapsed = clock(body)
    report_line(1, "order-480 fixture, case (a)", ok and elapsed < 10, elapsed)
    assert ok
    assert elapsed < 10


def test_acceptance_2_case_b_fixture(clock):
    def body():
        G = fixture_group("g160_234")
        verdict = check_theorem_C(G)
        return (conjugacy_classes(G).cs_set == (1, 5, 20, 32)
                and verdict.status() == "pass"
                and verdict.witnesses["case"] == "b"
                and verdict.witnesses["n"] == 20
                and verdict.witnesses["q"] == 5
                and verdict.witnesses["b"] == 2
                and verdict.witnesses["F2_index"] == 2)
    ok, elapsed = clock(body)
    report_line(2, "order-160 fixture, case (b)", ok and elapsed < 5, elapsed)
    assert ok
    assert elapsed < 5


def test_acceptance_3_case_c_fixtures(clock):
    def body():
        results = []
        G = fixture_group("g486_176")
        v = check_theorem_C(G)
        results.append(conjugacy_classes(G).cs_set == (1, 2, 3, 18, 27)
                       and v.status() == "pass"
                       and v.witnesses["case"] == "c"
                       and v.witnesses["n"] == 18
                       and v.witnesses["n_shape"] == "q*p^2")
        H = fixture_group("g162_5")
        w = check_theorem_C(H)
        results.append(conjugacy_classes(H).cs_set == (1, 2, 3, 6, 27)
                       and w.status() == "pass"
                       and w.witnesses["case"] == "c"
                       and w.witnesses["n"] == 6
                       and w.witnesses["n_shape"] == "q*p^1")
        return all(results)
    ok, elapsed = clock(body)
    report_line(3, "orders 486 and 162, case (c)", ok and elapsed < 20, elapsed)
    assert ok
    assert elapsed < 20


def test_acceptance_4_two_composite_structure(clock):
    def body():
        G = direct_product(quaternion8(), frobenius_pq(7, 3))
        v = check_theorem_A(G)
        labels = {k: v.witnesses.get(k) for k in ("p1", "p2", "p3", "m", "n")}
        return (conjugacy_classes(G).cs_set == (1, 2, 3, 6, 7, 14)
                and v.status() == "pass"
                and labels == {"p1": 2, "p2": 3, "p3": 7, "m": 6, "n": 14})
    ok, elapsed = clock(body)
    report_line(4, "order-168 product, full decomposition", ok and elapsed < 5, elapsed)
    assert ok
    assert elapsed < 5


def test_acceptance_5_zero_composite_dichotomy(clock):
    def body():
        checked = 0
        for entry in iter_catalog():
            verdict = check_chillag_herzog(entry.group)
            if not verdict.hypotheses_apply:
                continue
            if verdict.witnesses.get("branch") == "abelian":
                continue
            checked += 1
            if verdict.status() != "pass":
                return False
        return checked > 0
    ok, elapsed = clock(body)
    report_line(5, "zero-composite dichotomy across catalog", ok, elapsed)
    assert ok


def test_acceptance_6_projective_line_formula(clock):
    def body():
        v2 = check_psl_formula(2)
        v3 = check_psl_formula(3)
        return (psl_formula_set(2) == (1, 12, 15, 20)
                and psl_formula_set(3) == (1, 56, 63, 72)
                and v2.status() == "pass"
                and v3.status() == "pass")
    ok, elapsed = clock(body)
    report_line(6, "class-size formula at a=2 and a=3", ok and elapsed < 30, elapsed)
    assert ok
    assert elapsed < 30


def test_acceptance_7_lemma_suite(clock):
    def body():
        total = LemmaReport()
        for entry in iter_catalog():
            total.merge(lemma_suite_for_group(entry.group))
        coverage = total.covered()
        uncovered = [lem for lem, n in coverage.items() if n == 0]
        return total.ok() and not uncovered, total, coverage
    (ok, total, coverage), elapsed = clock(body)
    report_line(7, f"lemma suite, coverage {coverage}", ok and elapsed < 300, elapsed)
    for failure in total.failures:
        print(f"  lemma {failure.lemma} failed on {failure.group}: {failure.detail}")
    assert ok
    assert elapsed < 300


def test_acceptance_8_solubility_sweep(clock):
    def body():
        findings = [f for e in iter_catalog() for f in conjecture_B_findings(e.group)]
        return findings == []
    ok, elapsed = clock(body)
    report_line(8, "solubility sweep, zero findings", ok and elapsed < 300, elapsed)
    assert ok
    assert elapsed < 300


def test_acceptance_9_deterministic_reports(clock, tmp_path):
    def body():
        paths = [tmp_path / "sweep1.json", tmp_path / "sweep2.json"]
        for path in paths:
            code = main(["sweep", "--pair-sample-seed", "3",
                         "--report", str(path)])
            if code != 0:
                return False
        blobs = [p.read_bytes() for p in paths]
        json.loads(blobs[0])  # must be well-formed
        return blobs[0] == blobs[1]
    ok, elapsed = clock(body)
    report_line(9, "byte-identical repeat sweeps", ok, elapsed)
    assert ok
