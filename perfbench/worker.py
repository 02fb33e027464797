"""The measured process of the csgroups benchmark: one fresh interpreter,
one client, no threads, analysing one input group at a time.

It times ``import csgroups``, then makes passes over the inputs named in
a manifest written by ``gen.py``.  Pass k loads presentation k (cycling)
of every input with ``construct.load_fixture`` (the set-up), then
analyses the inputs one by one.  Passes repeat until there are
``MIN_PASSES`` of them and their analysis time reaches ``--seconds``; an
input that alone takes longer than ``--seconds`` is analysed in the
first pass only.  Every pass starts from freshly loaded groups, because
``FiniteGroup`` memoizes rows and inverses that a second pass on the
same objects would reuse.  A ``speed.Sampler`` probes the machine's
speed four times a second, so that each timing can be scaled to the
nominal speed by the probes around it; every timing leaves the probes
out.  Each output is
checked by
the workload's oracle outside the timed region; an input that raises or
fails its oracle counts as failed and the run goes on.

With ``--trace 1`` it runs one untraced pass, then one traced pass on the
same presentations, and reports per-layer metrics and the tracing
overhead instead.

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import speed  # noqa: E402

# this file runs only as a script: the sampler covers the timed import
SAMPLER = speed.Sampler()
SAMPLER.start()
clock = SAMPLER.clock
_t = clock()
import csgroups.cli  # noqa: E402
IMPORT_SPAN = (_t, clock())

import numpy  # noqa: E402
from csgroups import classes, cli, construct, lemmas  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402

MIN_PASSES = 3
CONFIG = cli.effective_config(cli.build_parser().parse_args(["sweep"]))


def analyse_report(inp: dict, G) -> str:
    """The sweep's per-group path: one entry, serialized as a report."""
    entry, findings = cli.entry_for_group(inp["name"], "fixture", G, CONFIG, False)
    report = cli.base_report(CONFIG)
    report["entries"].append(entry)
    report["findings"].extend(findings)
    return cli.serialize_report(report, "json")


def analyse_lemmas(inp: dict, G):
    return lemmas.lemma_suite_for_group(G, seed=CONFIG["pair_sample_seed"])


ANALYSE = {"fixtures-verdict": analyse_report, "class-sizes": analyse_report,
           "lemma-suite": analyse_lemmas}


def load_all(inputs: list[dict], presentation: int) -> tuple[list, tuple[float, float]]:
    """Freshly loaded groups, and the (start, end) clock readings of the load."""
    files = [inp["files"][presentation % len(inp["files"])] for inp in inputs]
    gc.collect()
    t = clock()
    groups = [construct.load_fixture(f) for f in files]
    return groups, (t, clock())


class Run:
    """Samples, failures and lemma totals collected over the passes of a run."""

    def __init__(self, workload: str, inputs: list[dict]):
        self.workload = workload
        self.inputs = inputs
        self.expected = oracle.load_expected_fixtures()
        self.class_sizes: dict[int, Counter] = {}  # engine classes, computed once per input
        # (start, end) clock readings of each load and of each input's analyses
        self.loads: list[tuple[float, float]] = []
        self.spans: list[list[tuple[float, float]]] = [[] for _ in inputs]
        self.attempted = 0
        self.errors: list[str] = []
        self.lemmas = lemmas.LemmaReport()

    def run_pass(self, analysed: list[int], presentation: int) -> dict:
        """Load every input, then analyse those in ``analysed``."""
        groups, load = load_all(self.inputs, presentation)
        self.loads.append(load)
        analyse = ANALYSE[self.workload]
        pass_lemmas = lemmas.LemmaReport()
        elapsed = 0.0
        for i in analysed:
            inp, G = self.inputs[i], groups[i]
            self.attempted += 1
            t = clock()
            try:
                out = analyse(inp, G)
            except Exception as exc:  # a raising input is a failure; the run goes on
                self.errors.append(f"{inp['name']}: {type(exc).__name__}: {exc}")
                continue
            end = clock()
            self.spans[i].append((t, end))
            elapsed += end - t
            if self.workload == "lemma-suite":
                pass_lemmas.merge(out)
            error = self.check(i, inp, G, out)
            if error:
                self.errors.append(error)
        self.lemmas.merge(pass_lemmas)
        return {"analysis_s": elapsed, "lemmas": pass_lemmas}

    def check(self, i: int, inp: dict, G, out) -> str | None:
        """The workload's oracle on one output, outside the timed region."""
        if self.workload == "fixtures-verdict":
            return oracle.check_verdict(inp["name"], json.loads(out), self.expected)
        if self.workload == "class-sizes":
            if i not in self.class_sizes:
                profile = classes.conjugacy_classes(G)
                self.class_sizes[i] = Counter(len(m) for _, m in profile.classes)
            return oracle.check_class_sizes(inp["name"], json.loads(out), self.class_sizes[i])
        return oracle.check_lemma_report(inp["name"], out)

    def run_error(self) -> str | None:
        if self.workload == "lemma-suite":
            return oracle.check_lemma_coverage(self.lemmas.instances)
        return None


def layer_metrics(workload: str, tracer: tracing.Tracer, traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of the traced pass; ``untraced`` is the pass before it."""
    stats, closures_in_normals = tracing.span_metrics(
        tracer.labels, tracer.name, tracer.start, tracer.end, tracer.parent,
        inside=("construct.subgroup_closure", "structure.normal_subgroups"))
    skipped = Counter(lem for lem, _, _ in traced["lemmas"].skipped)
    normals_found = tracer.found["structure.normal_subgroups"]
    values = {}
    for name in tracing.layer_metric_units():
        label, _, field = name.rpartition(".")
        if field in ("calls", "s", "self_s"):
            default = tracer.counts.get(label, 0) if field == "calls" else 0.0
            values[name] = stats.get(label, {}).get(field, default)
    values.update({
        "perm.elements": tracer.found["perm.close_with_degree"],
        "classes.classes_found": tracer.found["classes.conjugacy_classes"],
        "structure.normal_subgroups.found": normals_found,
        "structure.normal_subgroups.closures_per_found":
            closures_in_normals / normals_found if normals_found else 0.0,
        "structure.limit_errors":
            tracer.raised["structure.normal_subgroups", "EnumerationLimitError"],
        "trace.overhead_s": traced["analysis_s"] - untraced["analysis_s"],
    })
    for lid in oracle.LEMMA_IDS:
        values[f"lemmas.{lid}.instances"] = traced["lemmas"].instances.get(lid, 0)
        values[f"lemmas.{lid}.skipped"] = skipped.get(lid, 0)
    violations = [label for label in tracing.PREDICTED_ZERO.get(workload, [])
                  if stats.get(label, {}).get("calls", 0)]
    values["trace.predicted_zero_violations"] = len(violations)
    return values


def save_spans(tracer: tracing.Tracer, path: Path) -> None:
    numpy.savez_compressed(
        path, labels=numpy.array(tracer.labels), name=numpy.frombuffer(tracer.name, numpy.int32),
        parent=numpy.frombuffer(tracer.parent, numpy.int32),
        start=numpy.frombuffer(tracer.start), end=numpy.frombuffer(tracer.end))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None,
                        help="where a traced run writes its spans (.npz)")
    args = parser.parse_args(argv)
    manifest = json.loads(args.manifest.read_text(encoding="utf-8"))
    run = Run(manifest["workload"], manifest["inputs"])
    everything = list(range(len(run.inputs)))

    first = run.run_pass(everything, 0)
    result = {"python": platform.python_version(), "numpy": numpy.__version__}
    if args.trace:
        tracer = tracing.Tracer()
        SAMPLER.stop()  # a probe inside a span would count in the span
        tracer.install()
        try:
            traced = run.run_pass(everything, 0)
        finally:
            tracer.uninstall()
        result["layers"] = layer_metrics(run.workload, tracer, traced, first)
        result["spans"] = len(tracer.name)
        if args.spans:
            save_spans(tracer, args.spans)
    else:
        # an input slower than the whole budget is measured once
        repeated = [i for i in everything if sum(e - s for s, e in run.spans[i]) <= args.seconds]
        elapsed, passes = first["analysis_s"], 1
        while repeated and (passes < MIN_PASSES or elapsed < args.seconds):
            elapsed += run.run_pass(repeated, passes)["analysis_s"]
            passes += 1
        while len(run.loads) < MIN_PASSES:
            run.loads.append(load_all(run.inputs, len(run.loads))[1])
        SAMPLER.stop()

        def timed(span: tuple[float, float]) -> list[float]:
            return [span[1] - span[0], SAMPLER.scale(*span)]

        result.update(imported=timed(IMPORT_SPAN), loads=[timed(s) for s in run.loads],
                      samples=[[timed(s) for s in spans] for spans in run.spans],
                      scale=SAMPLER.scale(), probes=len(SAMPLER.probes), passes=passes)
    run_error = run.run_error()
    result.update({
        "attempted": run.attempted,
        "failed": len(run.errors),
        "run_error": run_error,
        "errors": run.errors[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
