"""Tests of the benchmark itself, on small inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from csgroups import cli  # noqa: E402
from csgroups.catalog import make_builtin  # noqa: E402
from csgroups.classes import conjugacy_classes  # noqa: E402
from csgroups.construct import FiniteGroup, load_fixture  # noqa: E402
from csgroups.lemmas import LemmaFailure, LemmaReport  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import specs  # noqa: E402
import tracing  # noqa: E402

CONFIG = cli.effective_config(cli.build_parser().parse_args(["sweep"]))


def report_for(G: FiniteGroup, name: str) -> dict:
    entry, findings = cli.entry_for_group(name, "fixture", G, CONFIG, False)
    return {"entries": [entry], "findings": findings}


def generator_lines(path: str) -> list[str]:
    lines = Path(path).read_text().splitlines()
    return [ln for ln in lines if ln.startswith("(")]


def test_seeds_change_presentations_but_not_groups(tmp_path):
    assert gen.generated_order([(1, 0, 2), (1, 2, 0)]) == 6
    a = gen.generate("lemma-suite", 1, tmp_path / "a")
    b = gen.generate("lemma-suite", 2, tmp_path / "b")
    assert [i["name"] for i in a["inputs"]] == [i["name"] for i in b["inputs"]]
    for ia, ib in zip(a["inputs"], b["inputs"]):
        files = ia["files"] + ib["files"]
        groups = [load_fixture(f) for f in files]
        assert {G.order for G in groups} == {specs.known_order(ia["kind"], ia["name"])}
        assert len({conjugacy_classes(G).cs_set for G in groups}) == 1
        if groups[0].order >= 6:
            assert ([generator_lines(f) for f in ia["files"]]
                    != [generator_lines(f) for f in ib["files"]]), ia["name"]


def test_class_size_specs_are_fixed_and_in_range():
    chosen = specs.class_size_specs()
    assert chosen == specs.class_size_specs()
    assert len(set(chosen)) == specs.CLASS_SIZE_INPUTS
    for spec in chosen:
        atoms = specs.split_product(spec)
        assert 2 <= len(atoms) <= 3
        assert specs.MIN_ORDER <= specs.spec_order(spec) <= specs.MAX_ORDER
        sizes = specs.product_class_sizes(atoms)
        assert sum(s * n for s, n in sizes.items()) == specs.spec_order(spec)
        assert sum(1 for s in sizes if specs.is_composite(s)) >= 3


@pytest.mark.parametrize("atom", ["sym(3)", "sym(4)", "sym(5)", "alt(4)", "alt(5)",
                                  "alt(6)", "dihedral(5)", "dihedral(6)", "frobenius(7,3)"])
def test_class_size_formulas(atom):
    G = make_builtin(atom)
    assert G.order == specs.atom_order(atom)
    engine = Counter(len(m) for _, m in conjugacy_classes(G).classes)
    assert engine == specs.atom_class_sizes(atom)


def test_pinned_verdicts_agree_with_acceptance_values():
    # the values asserted by acceptance checks 1, 2, 3 and 6
    pinned = {name: v["entry"] for name, v in oracle.load_expected_fixtures().items()}
    c = {name: e["theorems"]["C"] for name, e in pinned.items()}
    assert pinned["g480_166"]["cs"] == [1, 2, 4, 60]
    assert pinned["g480_166"]["composites"] == [4, 60]
    assert c["g480_166"]["status"] == "pass"
    assert {k: c["g480_166"]["witnesses"][k] for k in ("case", "p", "a", "n")} == \
        {"case": "a", "p": 2, "a": 2, "n": 60}
    assert pinned["g160_234"]["cs"] == [1, 5, 20, 32]
    assert {k: c["g160_234"]["witnesses"][k] for k in ("case", "n", "q", "b", "F2_index")} == \
        {"case": "b", "n": 20, "q": 5, "b": 2, "F2_index": 2}
    assert pinned["g486_176"]["cs"] == [1, 2, 3, 18, 27]
    assert {k: c["g486_176"]["witnesses"][k] for k in ("case", "n", "n_shape")} == \
        {"case": "c", "n": 18, "n_shape": "q*p^2"}
    assert pinned["g162_5"]["cs"] == [1, 2, 3, 6, 27]
    assert {k: c["g162_5"]["witnesses"][k] for k in ("case", "n", "n_shape")} == \
        {"case": "c", "n": 6, "n_shape": "q*p^1"}
    assert all(c[name]["status"] == "pass" for name in ("g160_234", "g162_5", "g486_176"))
    a = 3  # PSL(2, 2^3): cs = {1, 2^2a - 1, 2^a(2^a - 1), 2^a(2^a + 1)}
    assert pinned["psl_2_8"]["cs"] == sorted([1, 2 ** (2 * a) - 1,
                                              2 ** a * (2 ** a - 1), 2 ** a * (2 ** a + 1)])


def test_verdict_oracle_flags_a_wrong_expected_value(tmp_path):
    manifest = gen.generate("fixtures-verdict", 3, tmp_path)
    inp = next(i for i in manifest["inputs"] if i["name"] == "g160_234")
    report = json.loads(json.dumps(report_for(load_fixture(inp["files"][0]), "g160_234")))
    expected = oracle.load_expected_fixtures()
    assert oracle.check_verdict("g160_234", report, expected) is None
    expected["g160_234"]["entry"]["theorems"]["C"]["witnesses"]["b"] = 3
    assert "theorems" in oracle.check_verdict("g160_234", report, expected)


def test_class_size_oracle_flags_wrong_values(monkeypatch):
    spec = "sym(3)xalt(4)"
    G = make_builtin(spec)
    report = json.loads(json.dumps(report_for(G, spec)))
    sizes = Counter(len(m) for _, m in conjugacy_classes(G).classes)
    assert oracle.check_class_sizes(spec, report, sizes) is None
    assert "class equation" in oracle.check_class_sizes(spec, report, sizes + Counter({2: 1}))
    monkeypatch.setattr(specs, "atom_soluble", lambda atom: False)
    assert "soluble" in oracle.check_class_sizes(spec, report, sizes)


def test_lemma_oracles_flag_failures_and_gaps():
    report = LemmaReport()
    assert oracle.check_lemma_report("g", report) is None
    report.failures.append(LemmaFailure("2.3", "g", "injected"))
    assert "2.3" in oracle.check_lemma_report("g", report)
    covered = Counter({lem: 1 for lem in oracle.LEMMA_IDS})
    assert oracle.check_lemma_coverage(covered) is None
    del covered["2.6"]
    assert "2.6" in oracle.check_lemma_coverage(covered)


def test_self_time_on_a_hand_built_span_tree():
    # a[0,10] holds b[1,4] (which holds c[2,3]) and b[5,9] (which holds b[6,8]);
    # a second root a[11,12] follows
    labels = ["a", "b", "c"]
    name = [0, 1, 2, 1, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0, 6.0, 11.0]
    end = [10.0, 4.0, 3.0, 9.0, 8.0, 12.0]
    parent = [-1, 0, 1, 0, 3, -1]
    stats, c_in_b = tracing.span_metrics(labels, name, start, end, parent, inside=("c", "b"))
    assert stats["a"] == {"calls": 2, "s": 11.0, "self_s": 3.0 + 1.0}
    assert stats["b"] == {"calls": 3, "s": 7.0, "self_s": 2.0 + 2.0 + 2.0}
    assert stats["c"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    assert c_in_b == 1
    assert tracing.span_metrics(labels, name, start, end, parent, inside=("b", "c"))[1] == 0


def test_tracer_spans_nested_calls_and_uninstalls():
    import csgroups.structure as structure
    import csgroups.theorems as theorems
    originals = (theorems.derived_series, structure.derived_series, FiniteGroup.mul)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert theorems.derived_series is structure.derived_series is not originals[0]
        report_for(make_builtin("sym(3)xsym(3)"), "s3xs3")
    finally:
        tracer.uninstall()
    assert (theorems.derived_series, structure.derived_series, FiniteGroup.mul) == originals
    stats, _ = tracing.span_metrics(tracer.labels, tracer.name, tracer.start,
                                    tracer.end, tracer.parent)
    assert stats["cli.entry_for_group"]["calls"] == 1
    assert stats["structure.derived_series"]["calls"] == 1
    assert stats["classes.conjugacy_classes"]["calls"] >= 1
    assert tracer.counts["construct.mul"] > 0
    assert tracer.found["classes.conjugacy_classes"] == 9


def test_benchmark_json_lists_what_the_runner_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(specs.WORKLOADS)
    assert [m["name"] for m in bench["per_layer"]] == list(tracing.layer_metric_units())
    assert [m["unit"] for m in bench["per_layer"]] == list(tracing.layer_metric_units().values())
    # timings are [seconds, speed factor]; set-up takes medians of their
    # products, the other timings each input's mean
    worker = {"samples": [[[1.0, 1.0], [1.0, 2.0], [9.0, 1.0]], [[6.0, 0.5]],
                          [[4.0, 1.0], [5.0, 1.0], [3.0, 2.0]]],
              "loads": [[0.5, 1.0], [0.35, 2.0], [0.6, 1.0]], "peak_rss_mb": 10.0}
    imports = [[0.2, 1.0], [0.3, 1.0], [0.2, 0.5]]
    metrics = run.end_to_end(worker, imports)
    assert [m["name"] for m in bench["end_to_end"]] == list(metrics)
    assert metrics["setup_s"][0] == pytest.approx(0.2 + 0.6)
    assert metrics["wall_s"][0] == pytest.approx(4.0 + 3.0 + 5.0)
    assert metrics["group_p50_s"][0] == pytest.approx(4.0)
    unscaled = run.end_to_end(worker, imports, scale=False)
    assert unscaled["setup_s"][0] == pytest.approx(0.2 + 0.5)
    assert unscaled["wall_s"][0] == pytest.approx(11 / 3 + 6.0 + 4.0)
