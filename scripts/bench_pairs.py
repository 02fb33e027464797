#!/usr/bin/env python3
"""Benchmark a change against its parent revision in alternating pairs.

    python3 scripts/bench_pairs.py --parent HEAD~1 --out BENCH_9.json \\
        --seeds 41 42 43 44 45 46 47 48 49 50

Exports the parent revision (``git archive``) to ``.bench_work/parent``
and runs ``perfbench/run.py --trace 0`` there and in the working tree,
one pair per seed and workload, the side that runs first alternating from
seed to seed.  Writes, for each workload and end-to-end metric of
``BENCHMARK.json``, both sides' medians, the pairs where the change was
better, the parent's interquartile range, each side's ``failed`` counts
and two verdicts: ``claim_holds``, when the change wins at least 9 pairs
in 10 and its median is better by more than the parent's IQR, and
``regressed``, when its median is worse than the parent's by more than
the metric's ``bound``, a fraction of the parent's median.  A run that exits non-zero or times out is listed under
``failures`` (workload, seed, side, exit code, tail of stderr), its pair
is left out, and the other runs go on.  Progress goes to stderr.  The
report is rewritten after every completed pair, so a run stopped early
(by SIGTERM, say, from an outer ``timeout``) keeps the pairs it finished;
the exported copy is removed on exit, SIGTERM included.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PARENT_COPY = ROOT / ".bench_work" / "parent"
RUN_TIMEOUT_S = 300  # one perfbench run; run.py stops its own steps at 170 s
CLAIM_WIN_SHARE = 0.9  # of the pairs, that a claimed gain must win
SIDES = ("parent", "change")


def aggregate(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Summarize paired runs per workload.

    ``runs`` holds one dict per run: ``workload``, ``seed``, ``side``
    (``"parent"`` or ``"change"``) and ``result``, the JSON object that
    ``perfbench/run.py`` prints last.  ``end_to_end`` is the list of that
    name in ``BENCHMARK.json``.  A pair is the two sides' runs of one
    workload and seed; a tie counts as no win.
    """
    out: dict[str, dict] = {}
    for workload in sorted({r["workload"] for r in runs}):
        by_seed: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]
        pairs = [by_seed[s] for s in sorted(by_seed) if set(by_seed[s]) == set(SIDES)]
        metrics = {}
        for metric in end_to_end if pairs else []:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
            q1, q3 = (statistics.quantiles(values["parent"], n=4, method="inclusive")[::2]
                      if len(pairs) > 1 else values["parent"] * 2)
            parent_median = statistics.median(values["parent"])
            change_median = statistics.median(values["change"])
            gain = parent_median - change_median if lower else change_median - parent_median
            wins = sum((c < p) if lower else (c > p)
                       for p, c in zip(values["parent"], values["change"]))
            metrics[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "parent_median": parent_median,
                "change_median": change_median,
                "change_better_pairs": wins,
                "parent_iqr": q3 - q1,
                "claim_holds": wins >= CLAIM_WIN_SHARE * len(pairs) and gain > q3 - q1,
                "regressed": -gain > metric["bound"] * abs(parent_median),
            }
        out[workload] = {
            "pairs": len(pairs),
            "seeds": sorted(by_seed),
            "failed": {side: [p[side]["failed"] for p in pairs] for side in SIDES},
            "attempted": {side: [p[side]["attempted"] for p in pairs] for side in SIDES},
            "metrics": metrics,
        }
    return out


class RunFailed(RuntimeError):
    def __init__(self, exit_code: int | None, stderr: str):
        super().__init__(f"exit code {exit_code}")
        self.exit_code = exit_code
        self.stderr_tail = stderr[-2000:]


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced perfbench run in ``checkout``; its closing JSON line.
    Raises ``RunFailed`` (exit code None on a timeout) when it gives none."""
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(None, f"still running after {RUN_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise RunFailed(proc.returncode, proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def collect(checkouts: dict[str, Path], workloads: list[str], seeds: list[int],
            seconds: int, on_pair=None) -> tuple[list[dict], list[dict]]:
    """Run every pair; returns the runs and the failed runs, which
    ``on_pair``, when given, is also called with after each pair."""
    runs: list[dict] = []
    failures: list[dict] = []
    for i, seed in enumerate(seeds):
        for workload in workloads:
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                where = {"workload": workload, "seed": seed, "side": side}
                try:
                    result = run_once(checkouts[side], workload, seed, seconds)
                except RunFailed as exc:
                    failures.append({**where, "exit_code": exc.exit_code,
                                     "stderr_tail": exc.stderr_tail})
                    print(f"{workload} seed {seed} {side}: FAILED ({exc})",
                          file=sys.stderr, flush=True)
                    continue
                runs.append({**where, "result": result})
                wall = result["metrics"]["wall_s"]["value"]
                print(f"{workload} seed {seed} {side}: wall_s {wall:.4g}",
                      file=sys.stderr, flush=True)
            if on_pair is not None:
                on_pair(runs, failures)
    return runs, failures


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export_revision(revision: str) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", revision], cwd=ROOT,
                             check=True, capture_output=True).stdout
    PARENT_COPY.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(PARENT_COPY, filter="data")


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the clean-up below


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD",
                        help="revision to compare the working tree against (default HEAD)")
    parser.add_argument("--out", required=True, help="JSON file to write, e.g. BENCH_9.json")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="default: every workload in BENCHMARK.json")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    revision = git("rev-parse", args.parent)
    out = Path(args.out)

    def save(runs: list[dict], failures: list[dict]) -> None:
        report = {"parent": revision, "change": "working tree", "seconds": seconds,
                  "command": "perfbench/run.py --trace 0",
                  "workloads": aggregate(runs, bench["end_to_end"]),
                  "failures": failures, "runs": runs}
        partial = out.with_name(out.name + ".part")  # so a stop mid-write loses no pair
        partial.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        partial.replace(out)

    shutil.rmtree(PARENT_COPY, ignore_errors=True)
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        export_revision(revision)
        save(*collect({"parent": PARENT_COPY, "change": ROOT}, workloads, args.seeds,
                      seconds, save))
    finally:
        signal.signal(signal.SIGTERM, previous)
        shutil.rmtree(PARENT_COPY, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
