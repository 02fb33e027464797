"""Run every workload on several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --seeds 1-10 --out perfbench/baseline.json

Run from the root of a checkout.  Workloads are interleaved seed by seed,
with ``run_seconds`` from ``BENCHMARK.json``.  For each workload and
end-to-end metric it prints the median, the quartiles and their distance
as a share of the median (the spread), which must stay within the
metric's bound.  ``--out`` also keeps every value, the machine, and one
traced run of each workload on the first seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"),
                        help="an inclusive range such as 1-10")
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for seed in args.seeds:
        for workload in workloads:
            result = run(workload, seed, seconds, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect ({result['failed']} failed)")
                return 1
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()),
                flush=True)

    summary = {w: {name: summarise(v) for name, v in metrics.items()}
               for w, metrics in values.items()}
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            print(f"{workload} {name}: median {s['median']:.4g} spread {s['spread']:.3f} "
                  f"(bound {bounds[name]})")
    if args.out:
        # run.py keeps the machine in the record of each run it makes
        first_run = ROOT / ".bench_work" / f"{workloads[0]}-seed{args.seeds[0]}-trace0.json"
        traced = {w: {name: m["value"] for name, m in run(w, args.seeds[0], seconds, 1)
                      ["metrics"].items()} for w in workloads}
        record = {"machine": json.loads(first_run.read_text(encoding="utf-8"))["machine"],
                  "seeds": args.seeds, "run_seconds": seconds, "end_to_end": summary,
                  "traced": traced}
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
