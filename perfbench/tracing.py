"""Span tracing of the csgroups layers from outside the engine.

``Tracer.install`` replaces the public functions of each module, in every
csgroups namespace that imported them, and the hot ``FiniteGroup``
methods with wrappers.  Functions get a span each (start, end, parent);
hot methods only a call count.  Spans stay in memory until
``span_metrics`` turns them into per-layer metrics:

- ``<label>.calls``: spans recorded, nested ones included;
- ``<label>.s``: time inside outermost spans of the label, so recursion
  (``hall`` inside ``hall``) is not counted twice;
- ``<label>.self_s``: span time not covered by child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Optional

SPANNED = {
    "perm": ["close_with_degree"],
    "construct": ["load_fixture"],
    "classes": ["conjugacy_classes"],
    "structure": ["normal_subgroups", "generating_set", "strip_abelian_factors",
                  "fitting2", "quotient", "sylow", "core_p", "hall", "is_frobenius",
                  "centralizer_of_set", "derived_series", "subgroup_as_group",
                  "nilpotency_class"],
    "cli": ["entry_for_group", "serialize_report"],
}
SPANNED_METHODS = ["subgroup_closure"]
COUNTED_METHODS = ["mul", "mul_row", "conjugate", "conjugate_many", "conjugate_by_all"]
THEOREMS = {"check_theorem_A": "A", "check_theorem_C": "C",
            "check_chillag_herzog": "CH", "conjecture_B_findings": "ConjB"}
LEMMA_CHECKS = {
    "check_quotient_class_size_divides": "2.1a",
    "check_coprime_class_size_factorization": "2.1b",
    "check_commuting_coprime_centralizer": "2.1c",
    "check_prime_missing_from_class_sizes": "2.1d",
    "check_pi_element_lifting": "2.1e",
    "check_coprime_triple_growth": "2.2",
    "check_disconnected_class_sizes": "2.3",
    "check_mixed_prime_power_products": "2.4",
    "check_two_class_sizes_for_p_regular": "2.5",
    "check_minimal_centralizer_shape": "2.6",
}
# result -> number of things it holds, recorded per label
RESULT_SIZES = {
    "perm.close_with_degree": len,
    "classes.conjugacy_classes": lambda profile: len(profile.classes),
    "structure.normal_subgroups": len,
}
# Labels predicted never to run on the class-sizes workload: its products
# have >= 3 composite class sizes, so no theorem reaches the lattice.
PREDICTED_ZERO = {"class-sizes": ["structure.normal_subgroups", "structure.quotient",
                                  "structure.hall", "structure.strip_abelian_factors"]}


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.label_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.found: Counter = Counter()
        self.raised: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------------

    def spanned(self, label: str, fn: Callable,
                result_size: Optional[Callable] = None) -> Callable:
        nid = self.label_ids.setdefault(label, len(self.labels))
        if nid == len(self.labels):
            self.labels.append(label)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[label, type(exc).__name__] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if result_size is not None:
                self.found[label] += result_size(result)
            return result
        return wrapper

    def counted(self, label: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------------

    def _replace_everywhere(self, original: Callable, wrapper: Callable) -> None:
        for modname, module in list(sys.modules.items()):
            if not (modname == "csgroups" or modname.startswith("csgroups.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        from csgroups import cli, lemmas, theorems  # noqa: F401  (load every namespace)
        from csgroups.construct import FiniteGroup

        for modname, functions in SPANNED.items():
            module = sys.modules[f"csgroups.{modname}"]
            for fname in functions:
                label = f"{modname}.{fname}"
                fn = getattr(module, fname)
                self._replace_everywhere(fn, self.spanned(label, fn, RESULT_SIZES.get(label)))
        for fname, tid in THEOREMS.items():
            fn = getattr(theorems, fname)
            self._replace_everywhere(fn, self.spanned(f"theorems.{tid}", fn))
        for fname, lid in LEMMA_CHECKS.items():
            fn = getattr(lemmas, fname)
            self._replace_everywhere(fn, self.spanned(f"lemmas.{lid}", fn))
        for meth in SPANNED_METHODS + COUNTED_METHODS:
            fn = FiniteGroup.__dict__[meth]
            label = f"construct.{meth}"
            wrapped = (self.spanned(label, fn) if meth in SPANNED_METHODS
                       else self.counted(label, fn))
            self._undo.append((FiniteGroup, meth, fn))
            setattr(FiniteGroup, meth, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, in report order, with its unit."""
    units: dict[str, str] = {}

    def add(label: str, *fields: str) -> None:
        for field in fields:
            units[f"{label}.{field}"] = "s" if field in ("s", "self_s") else "count"

    add("perm.close_with_degree", "calls", "s")
    add("perm", "elements")
    add("construct.load_fixture", "s")
    add("construct.subgroup_closure", "calls", "s", "self_s")
    for meth in COUNTED_METHODS:
        add(f"construct.{meth}", "calls")
    add("classes.conjugacy_classes", "calls", "s", "self_s")
    add("classes", "classes_found")
    add("structure.normal_subgroups", "calls", "s", "self_s", "found")
    units["structure.normal_subgroups.closures_per_found"] = "ratio"
    for fname in SPANNED["structure"][1:]:
        add(f"structure.{fname}", "calls", "s", "self_s")
    add("structure", "limit_errors")
    for tid in THEOREMS.values():
        add(f"theorems.{tid}", "s")
    for lid in LEMMA_CHECKS.values():
        add(f"lemmas.{lid}", "s", "instances", "skipped")
    add("cli.entry_for_group", "s")
    add("cli.serialize_report", "s")
    units["trace.overhead_s"] = "s"
    add("trace", "predicted_zero_violations")
    return units


# -- post-processing ---------------------------------------------------------------


def span_metrics(labels: list[str], name, start, end, parent,
                 inside: tuple[str, str] | None = None) -> tuple[dict, int]:
    """Per-label calls, outermost time and self time from a span list.

    Span ``i`` has label ``labels[name[i]]``, runs from ``start[i]`` to
    ``end[i]`` and was opened inside span ``parent[i]`` (-1 for a root);
    spans are listed in the order they opened.  A span's self time is its
    duration minus the part of it that its child spans cover.  Also
    returns how many spans labelled ``inside[0]`` have an ancestor
    labelled ``inside[1]``.
    """
    n = len(name)
    covered = array("d", bytes(8 * n))
    for i in range(n):
        p = parent[i]
        if p >= 0:
            covered[p] += max(0.0, min(end[i], end[p]) - max(start[i], start[p]))
    stats: dict[str, dict[str, float]] = {}
    path: list[int] = []
    on_path: Counter = Counter()
    nested = 0
    inner, outer = inside or (None, None)
    inner_id = labels.index(inner) if inner in labels else -1
    outer_id = labels.index(outer) if outer in labels else -1
    for i in range(n):
        while path and path[-1] != parent[i]:
            on_path[name[path.pop()]] -= 1
        label = labels[name[i]]
        st = stats.setdefault(label, {"calls": 0, "s": 0.0, "self_s": 0.0})
        duration = end[i] - start[i]
        st["calls"] += 1
        if on_path[name[i]] == 0:
            st["s"] += duration
        st["self_s"] += duration - covered[i]
        if name[i] == inner_id and on_path[outer_id] > 0:
            nested += 1
        path.append(i)
        on_path[name[i]] += 1
    return stats, nested
