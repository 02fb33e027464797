"""Command-line surface: analyze one group, sweep the catalog, or verify
a structural statement, emitting deterministic machine-readable reports."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from pathlib import Path
from typing import Optional

from . import __version__
from .catalog import (
    CatalogError,
    build_entry,
    catalog_entries,
    fixture_group,
    make_builtin,
    iter_catalog,
)
from .construct import FiniteGroup, FixtureError, load_fixture
from .lemmas import LEMMA_IDS, lemma_suite_for_group, LemmaReport
from .perm import DEFAULT_CLOSURE_CAP, OrderCapExceededError
from .theorems import (
    GroupAnalysis,
    TheoremVerdict,
    check_chillag_herzog,
    check_psl_formula,
    check_theorem_A,
    check_theorem_C,
    conjecture_B_findings,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3

CONFIG_KEYS = ("max_elements", "pair_sample_seed", "jobs", "format", "timings")
FORMATS = ("json", "csv")
TIMINGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


class TargetError(ValueError):
    pass


def resolve_target(target: str, max_elements: int) -> tuple[str, str, FiniteGroup]:
    """Resolve 'builtin:SPEC', 'fixture:NAME', or a fixture file path."""
    source, _, name = target.partition(":")
    try:
        if source in ("builtin", "fixture"):
            build = make_builtin if source == "builtin" else fixture_group
            G = build(name, cap=max_elements)
        elif Path(target).is_file():
            G, source = load_fixture(Path(target), cap=max_elements), "fixture"
            name = G.name
        else:
            raise TargetError(
                f"cannot resolve target {target!r}: expected builtin:SPEC, "
                "fixture:NAME, or a fixture file path")
    except OrderCapExceededError as exc:
        raise _over_cap(exc) from None
    return name, source, G


def _over_cap(exc: OrderCapExceededError) -> TargetError:
    return TargetError(f"group order exceeds --max-elements {exc.cap}: "
                       f"found at least {exc.partial_count} elements")


def verdict_to_dict(v: TheoremVerdict) -> dict:
    return {
        "status": v.status(),
        "hypotheses_apply": v.hypotheses_apply,
        "reason": v.reason,
        "conclusions": [
            {"label": c.label, "passed": c.passed, "witness": c.witness}
            for c in v.conclusions
        ],
        "witnesses": v.witnesses,
        "incomplete": v.incomplete,
    }


def entry_for_group(name: str, source: str, G: FiniteGroup,
                    config: dict, with_timing: bool) -> tuple[dict, list]:
    """G's report entry and Conjecture B findings.  ``config``, the run's
    settings, holds no setting that bounds them."""
    t0 = time.monotonic()
    analysis = GroupAnalysis(G)
    primes, composites = analysis.split
    entry = {
        "name": name,
        "source": source,
        "order": G.order,
        "cs": list(analysis.profile.cs_set),
        "primes": sorted(primes),
        "composites": sorted(composites),
        "soluble": analysis.soluble,
        "theorems": {
            "A": verdict_to_dict(check_theorem_A(G, analysis)),
            "C": verdict_to_dict(check_theorem_C(G, analysis)),
            "CH": verdict_to_dict(check_chillag_herzog(G, analysis)),
        },
        "timings_ms": None,
    }
    findings = [{"kind": f.kind, "group": f.group, "detail": f.detail}
                for f in conjecture_B_findings(G, analysis)]
    if with_timing:
        entry["timings_ms"] = round((time.monotonic() - t0) * 1000, 3)
    return entry, findings


def _sweep_worker(args: tuple) -> tuple[dict, list]:
    entry, config = args
    name, source, _ = entry
    try:
        G = build_entry(entry, config["max_elements"])
    except OrderCapExceededError as exc:
        error = str(_over_cap(exc))
    except (FixtureError, OSError) as exc:
        error = str(exc)
    else:
        return entry_for_group(name, source, G, config, config["timings"])
    return {"name": name, "source": source, "error": error, "timings_ms": None}, []


def report_to_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["name", "source", "order", "cs", "primes", "composites",
                     "soluble", "theorem_A", "theorem_C", "theorem_CH", "error"])
    for e in report["entries"]:
        theorems = e.get("theorems", {})
        writer.writerow([
            e["name"], e["source"], e.get("order", ""),
            " ".join(str(s) for s in e.get("cs", [])),
            " ".join(str(s) for s in e.get("primes", [])),
            " ".join(str(s) for s in e.get("composites", [])),
            e.get("soluble", ""),
            theorems.get("A", {}).get("status", ""),
            theorems.get("C", {}).get("status", ""),
            theorems.get("CH", {}).get("status", ""),
            e.get("error", ""),
        ])
    return buf.getvalue()


def serialize_report(report: dict, fmt: str) -> str:
    if fmt == "csv":
        return report_to_csv(report)
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def emit_report(report: dict, args) -> None:
    """Write the report to ``--report``, or print it when none is given."""
    text = serialize_report(report, args.format)
    if not args.report:
        print(text, end="")
        return
    try:
        Path(args.report).write_text(text)
    except OSError as exc:
        raise TargetError(f"cannot write report {args.report}: {exc.strerror}") from None


def read_config_file(path: str) -> dict:
    """Settings from a file of key=value lines, each value checked and
    converted as its flag would be."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise TargetError(f"cannot read config file {path}: {exc.strerror}") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise TargetError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in CONFIG_KEYS:
            raise TargetError(f"{path}:{lineno}: unknown config key {key!r}")
        value = value.strip()
        if key == "format":
            if value not in FORMATS:
                raise TargetError(f"{path}:{lineno}: format must be one of {', '.join(FORMATS)}")
        elif key == "timings":
            if value.lower() not in TIMINGS:
                raise TargetError(f"{path}:{lineno}: timings must be one of {', '.join(TIMINGS)}")
            value = TIMINGS[value.lower()]
        else:
            try:
                value = int(value)
            except ValueError:
                raise TargetError(f"{path}:{lineno}: {key} must be an integer") from None
        values[key] = value
    return values


def effective_config(args) -> dict:
    config = {
        "max_elements": DEFAULT_CLOSURE_CAP,
        "pair_sample_seed": 0,
        "jobs": 1,
        "format": "json",
        "timings": False,
    }
    if getattr(args, "config", None):
        config.update(read_config_file(args.config))
    # explicit flags take precedence over the config file
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None and flag is not False:
            config[key] = flag
    if config["jobs"] < 1:
        raise TargetError("jobs must be at least 1")
    args.format = config["format"]
    return config


def base_report(config: dict) -> dict:
    return {"version": __version__, "config": dict(config),
            "entries": [], "findings": []}


# -- subcommands -----------------------------------------------------------------


def cmd_analyze(args) -> int:
    config = effective_config(args)
    name, source, G = resolve_target(args.target, config["max_elements"])
    entry, findings = entry_for_group(name, source, G, config, config["timings"])
    if args.report:  # written first, so that a failed write prints no summary
        report = base_report(config)
        report["entries"].append(entry)
        report["findings"].extend(findings)
        emit_report(report, args)
    print(f"{name} ({source}): order {G.order}")
    print(f"  class sizes: {entry['cs']}")
    print(f"  primes {entry['primes']}, composites {entry['composites']}")
    print(f"  soluble: {entry['soluble']}")
    for tid in ("A", "C", "CH"):
        print(f"  theorem {tid}: {entry['theorems'][tid]['status']}")
    for f in findings:
        print(f"  finding: {f['kind']}: {f['detail']}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = effective_config(args)
    report = base_report(config)
    fixture_dirs = args.fixture_dir or []
    for d in fixture_dirs:
        if not Path(d).is_dir():
            raise TargetError(f"--fixture-dir {d} is not a directory")
    jobs = [(entry, config) for entry in catalog_entries(fixture_dirs)]
    if config["jobs"] > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: a slow import

        with ProcessPoolExecutor(max_workers=config["jobs"]) as pool:
            results = list(pool.map(_sweep_worker, jobs))
    else:
        results = [_sweep_worker(j) for j in jobs]
    entries = []
    findings = []
    for entry, found in results:
        entries.append(entry)
        findings.extend(found)
    entries.sort(key=lambda e: (e.get("order", 0), e["name"]))
    findings.sort(key=lambda f: (f["group"], f["kind"]))
    report["entries"] = entries
    report["findings"] = findings
    emit_report(report, args)
    return EXIT_OK


def lemma_report_to_dict(rep: LemmaReport) -> dict:
    return {
        "instances": {lem: rep.instances.get(lem, 0) for lem in LEMMA_IDS},
        "failures": [{"lemma": f.lemma, "group": f.group, "detail": f.detail}
                     for f in rep.failures],
        "skipped": [{"lemma": lem, "group": g, "reason": r}
                    for lem, g, r in rep.skipped],
    }


def cmd_verify(args) -> int:
    config = effective_config(args)
    if config["format"] != "json":
        raise TargetError(f"verify writes json reports only, not {config['format']}")
    theorem = args.theorem

    if theorem == "psl":
        try:
            exponents = [int(args.target)] if args.target else [2, 3]
        except ValueError:
            raise ValueError(f"the psl exponent must be an integer, not {args.target!r}") from None
        verdicts = {str(a): check_psl_formula(a) for a in exponents}
        payload = {a: verdict_to_dict(v) for a, v in verdicts.items()}
        worst = _worst_status(v.status() for v in verdicts.values())
        _emit_verify(payload, args, config)
        return worst

    if theorem == "lemmas":
        if args.target:
            _, _, G = resolve_target(args.target, config["max_elements"])
            groups = [G]
        else:
            groups = [e.group for e in iter_catalog(max_elements=config["max_elements"])]
        total = LemmaReport()
        for G in groups:
            analysis = GroupAnalysis(G)
            total.merge(lemma_suite_for_group(G, analysis, seed=config["pair_sample_seed"]))
        _emit_verify(lemma_report_to_dict(total), args, config)
        return EXIT_OK if total.ok() else EXIT_FAIL

    if not args.target:
        print("error: verify A|C|CH requires a target group", file=sys.stderr)
        return EXIT_USAGE
    _, _, G = resolve_target(args.target, config["max_elements"])
    analysis = GroupAnalysis(G)
    checker = {"A": check_theorem_A, "C": check_theorem_C,
               "CH": check_chillag_herzog}[theorem]
    verdict = checker(G, analysis)
    _emit_verify(verdict_to_dict(verdict), args, config)
    return _worst_status([verdict.status()])


def _worst_status(statuses) -> int:
    code = EXIT_OK
    for s in statuses:
        if s == "inconclusive":
            code = max(code, EXIT_INCONCLUSIVE)
        elif s == "FAIL":
            code = max(code, EXIT_FAIL)
    return code


def _emit_verify(payload: dict, args, config: dict) -> None:
    emit_report({"version": __version__, "config": dict(config), "verdict": payload}, args)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-elements", dest="max_elements", type=int, default=None,
                   help=f"element closure cap (default {DEFAULT_CLOSURE_CAP})")
    p.add_argument("--pair-sample-seed", dest="pair_sample_seed", type=int,
                   default=None, help="seed for sampled pair enumeration")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for sweeps (default 1)")
    p.add_argument("--report", default=None, help="write the report to this path")
    p.add_argument("--format", choices=FORMATS, default=None,
                   help="report format (default json)")
    p.add_argument("--config", default=None,
                   help="key=value config file; flags override it")
    p.add_argument("--timings", action="store_true", default=False,
                   help="include wall-clock timings (breaks byte-determinism)")


class _Parser(argparse.ArgumentParser):
    """Exits with EXIT_USAGE on a bad command line: argparse's own code, 2,
    is the FAIL of ``verify``."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="csgroups",
        description="Analyse conjugacy class sizes of small finite groups and "
                    "verify the structural statements they determine.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyse a single group")
    p_an.add_argument("target", help="builtin:SPEC, fixture:NAME, or fixture file")
    _add_common_flags(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_sw = sub.add_parser("sweep", help="sweep the builtin grid and fixtures")
    p_sw.add_argument("--fixture-dir", action="append", default=None,
                      help="directory of extra fixture files (repeatable)")
    _add_common_flags(p_sw)
    p_sw.set_defaults(func=cmd_sweep)

    p_ve = sub.add_parser("verify", help="verify one structural statement")
    p_ve.add_argument("theorem", choices=("A", "C", "CH", "lemmas", "psl"))
    p_ve.add_argument("target", nargs="?", default=None,
                      help="group target (or field exponent for psl)")
    _add_common_flags(p_ve)
    p_ve.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TargetError, CatalogError, FixtureError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
