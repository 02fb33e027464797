"""Run one workload of the csgroups benchmark and print its metrics.

    python3 perfbench/run.py --workload class-sizes --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  Steps, each in its own process:

1. ``gen.py`` writes the seeded inputs as fixture files;
2. (untraced runs) a few fresh interpreters time ``import csgroups``;
3. ``worker.py`` loads and analyses the inputs, checking every output.

Prints one line per metric with its unit, then, as the last line, a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, scaled to the nominal machine
speed (``speed.py``), and the per-layer ones with ``--trace 1``.
Scratch files go to ``.bench_work/`` in the checkout.  Exits non-zero
without a result when any step fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import specs  # noqa: E402
import tracing  # noqa: E402

IMPORT_PROBES = 4  # fresh interpreters timing the import, besides the worker
RUN_TIMEOUT_S = 170  # for all steps together
PROBE = ("import time; t = time.perf_counter(); import csgroups.cli; "
         "print(time.perf_counter() - t)")


class StepError(RuntimeError):
    pass


def run_step(cmd: list[str], env: dict, deadline: float) -> str:
    """Run one step to completion, killing it at ``deadline`` (monotonic
    clock), and return its standard output."""
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise StepError(f"{cmd[1]} still running {RUN_TIMEOUT_S}s into the run") from exc
    if proc.returncode != 0:
        raise StepError(f"{cmd[1]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def end_to_end(worker: dict, imports: list[list[float]], scale: bool = True) -> dict:
    """Set-up is the median import plus the median load of all inputs.
    The other timings derive from each input's mean analysis time over
    its presentations.  Each timing is [seconds, speed factor]; ``scale``
    applies the factor (see ``speed.py``)."""
    def values(timings: list[list[float]]) -> list[float]:
        return [s * f if scale else s for s, f in timings]

    per_input = [statistics.fmean(values(samples)) for samples in worker["samples"] if samples]
    setup = statistics.median(values(imports)) + statistics.median(values(worker["loads"]))
    return {
        "setup_s": (setup, "s"),
        "wall_s": (sum(per_input), "s"),
        "group_p50_s": (statistics.median(per_input), "s"),
        "group_p80_s": (statistics.quantiles(per_input, n=5, method="inclusive")[3], "s"),
        "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "csgroups" / "__init__.py").is_file():
        print(f"error: no csgroups sources under {SRC}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs_dir = WORK / tag
    shutil.rmtree(inputs_dir, ignore_errors=True)
    # a fixed hash seed keeps set iteration order, and so the work done, the
    # same from run to run
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    python = sys.executable
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        run_step([python, str(HERE / "gen.py"), "--workload", args.workload,
                  "--seed", str(args.seed), "--out", str(inputs_dir)], env, deadline)
        manifest = json.loads((inputs_dir / "manifest.json").read_text(encoding="utf-8"))
        probes = [] if args.trace else [
            float(run_step([python, "-c", PROBE], env, deadline).split()[-1])
            for _ in range(IMPORT_PROBES)]
        cmd = [python, str(HERE / "worker.py"), "--manifest", str(inputs_dir / "manifest.json"),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--spans", str(WORK / f"{tag}.spans.npz")]
        worker = json.loads(run_step(cmd, env, deadline).splitlines()[-1])
    except (StepError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)

    machine = {"nproc": os.cpu_count(), "cpu": cpu_model(),
               "python": worker["python"], "numpy": worker["numpy"]}
    names = [inp["name"] for inp in manifest["inputs"]]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("machine " + json.dumps(machine))
    print(f"inputs ({len(names)}): " + " ".join(names))
    if args.trace:
        units = tracing.layer_metric_units()
        metrics = {name: (worker["layers"][name], unit) for name, unit in units.items()}
        print(f"spans recorded: {worker['spans']}")
    else:
        # the import probes ran in their own processes, next to the worker: they
        # take the worker's speed over its whole run
        imports = [worker["imported"]] + [[t, worker["scale"]] for t in probes]
        metrics = end_to_end(worker, imports)
        unscaled = end_to_end(worker, imports, scale=False)
        counts = [len(s) for s in worker["samples"]]
        print(f"  set-up: median of {len(imports)} imports + median of {len(worker['loads'])} "
              f"loads; {worker['passes']} passes; {min(counts)} to {max(counts)} samples "
              f"per input; wall and percentiles over {len(names)} per-input means")
        print(f"  speed: {worker['probes']} probes, whole-run scale {worker['scale']:.4f}; "
              f"unscaled: " + ", ".join(f"{name} {value:.6g}"
                                        for name, (value, _) in unscaled.items()))
        per_input = {name: statistics.fmean([s * f for s, f in samples])
                     for name, samples in zip(names, worker["samples"]) if samples}
        slowest = sorted(per_input, key=per_input.get, reverse=True)[:3]
        print("  slowest inputs: " + ", ".join(f"{n} {per_input[n]:.4g} s" for n in slowest))
    attempted, failed = worker["attempted"], worker["failed"]
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {failed / attempted:.6g} fraction ({failed} of {attempted} inputs)")
    for error in worker["errors"]:
        print(f"FAILED: {error}")
    if worker["run_error"]:
        print(f"FAILED: {worker['run_error']}")
    if args.trace and args.workload in tracing.PREDICTED_ZERO:
        held = "held" if worker["layers"]["trace.predicted_zero_violations"] == 0 else "VIOLATED"
        print(f"predicted zero calls ({', '.join(tracing.PREDICTED_ZERO[args.workload])}): {held}")

    result = {"correct": failed == 0 and not worker["run_error"],
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine, inputs=names, errors=worker["errors"])
    if not args.trace:
        record.update(per_input_s=per_input, imports=imports, loads=worker["loads"],
                      samples=dict(zip(names, worker["samples"])))
    WORK.mkdir(exist_ok=True)
    (WORK / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
