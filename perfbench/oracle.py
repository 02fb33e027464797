"""Per-workload oracles.  Each returns None when an output is correct and
a one-line reason when it is not.

The expected values come from outside the run: verdict entries pinned
from the bundled fixtures at the commit that introduced the benchmark
(``expected_fixtures.json``, the ``csgroups analyze fixture:<name>``
entry minus its name and source), and closed class-size formulas for
the direct products (``specs``).
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import specs

EXPECTED_FIXTURES = Path(__file__).resolve().parent / "expected_fixtures.json"
LEMMA_IDS = ("2.1a", "2.1b", "2.1c", "2.1d", "2.1e", "2.2", "2.3", "2.4", "2.5", "2.6")


def load_expected_fixtures() -> dict:
    return json.loads(EXPECTED_FIXTURES.read_text(encoding="utf-8"))


def check_verdict(name: str, report: dict, expected: dict) -> str | None:
    """A fixtures-verdict report must equal the pinned entry and findings."""
    entry = {k: v for k, v in report["entries"][0].items() if k not in ("name", "source")}
    want = expected[name]
    differs = sorted(k for k in set(entry) | set(want["entry"])
                     if entry.get(k) != want["entry"].get(k))
    if differs:
        return f"{name}: entry differs from the pinned one in {differs}"
    if report["findings"] != want["findings"]:
        return f"{name}: findings {report['findings']} != pinned {want['findings']}"
    return None


def check_class_sizes(spec: str, report: dict, class_sizes: Counter) -> str | None:
    """A class-sizes report against the product of its atoms' formulas.

    ``class_sizes`` is the engine's class-size multiset {size: classes}.
    """
    atoms = specs.split_product(spec)
    entry = report["entries"][0]
    order = specs.spec_order(spec)
    expected = specs.product_class_sizes(atoms)
    if entry["order"] != order:
        return f"{spec}: order {entry['order']} != {order}"
    if sum(size * n for size, n in class_sizes.items()) != order:
        return f"{spec}: class equation fails for {dict(class_sizes)}"
    if class_sizes != expected:
        return f"{spec}: class sizes {dict(class_sizes)} != {dict(expected)}"
    if entry["cs"] != sorted(expected):
        return f"{spec}: cs {entry['cs']} != {sorted(expected)}"
    soluble = all(specs.atom_soluble(a) for a in atoms)
    if entry["soluble"] != soluble:
        return f"{spec}: soluble {entry['soluble']} != {soluble}"
    statuses = {tid: v["status"] for tid, v in entry["theorems"].items()}
    if set(statuses.values()) != {"not-applicable"}:
        return f"{spec}: statuses {statuses}, all must be not-applicable"
    if report["findings"]:
        return f"{spec}: unexpected findings {report['findings']}"
    return None


def check_lemma_report(name: str, lemma_report) -> str | None:
    if lemma_report.failures:
        f = lemma_report.failures[0]
        return (f"{name}: {len(lemma_report.failures)} lemma failure(s), "
                f"first {f.lemma}: {f.detail}")
    return None


def check_lemma_coverage(instances: Counter) -> str | None:
    """Over a whole run, every lemma must be exercised at least once."""
    uncovered = [lem for lem in LEMMA_IDS if instances.get(lem, 0) == 0]
    return f"lemmas never exercised: {uncovered}" if uncovered else None
