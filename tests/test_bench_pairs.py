"""The aggregation of scripts/bench_pairs.py, on made-up run results."""

import importlib.util
import json
import os
import signal
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "score", "unit": "count", "better": "higher", "bound": 0.1}]


def run(workload, seed, side, wall, score, failed=0):
    return {"workload": workload, "seed": seed, "side": side,
            "result": {"correct": failed == 0, "attempted": 10, "failed": failed,
                       "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                   "score": {"value": score, "unit": "count"}}}}


def test_medians_wins_iqr_and_failures():
    runs = []
    parent_walls = [1.0, 2.0, 3.0, 4.0, 5.0]
    change_walls = [0.5, 2.0, 2.5, 4.5, 1.0]  # better in pairs 1, 3 and 5; pair 2 ties
    for seed, (p, c) in enumerate(zip(parent_walls, change_walls), start=40):
        runs.append(run("w", seed, "parent", p, 7))
        runs.append(run("w", seed, "change", c, 8, failed=1 if seed == 42 else 0))
    summary = bench_pairs.aggregate(runs, END_TO_END)["w"]
    assert summary["pairs"] == 5
    assert summary["seeds"] == [40, 41, 42, 43, 44]
    assert summary["failed"] == {"parent": [0] * 5, "change": [0, 0, 1, 0, 0]}
    wall = summary["metrics"]["wall_s"]
    assert wall["parent_median"] == 3.0
    assert wall["change_median"] == 2.0
    assert wall["change_better_pairs"] == 3
    assert wall["parent_iqr"] == pytest.approx(2.0)  # quartiles 2.0 and 4.0
    score = summary["metrics"]["score"]  # higher is better: the change wins every pair
    assert score["change_better_pairs"] == 5
    assert score["parent_iqr"] == 0


def test_claim_and_regression_verdicts():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # IQR 0.45, median 1.45
    cases = {
        # nine wins and a median 0.5 lower: the claim holds
        "gain": ([p - 0.5 for p in parent[:9]] + [2.0], True, False),
        # ten wins, but the median only 0.2 lower, inside the IQR
        "small": ([p - 0.2 for p in parent], False, False),
        # a median 0.5 lower, but only eight wins
        "split": ([p - 0.5 for p in parent[:8]] + [2.0, 2.1], False, False),
        # a median 0.4 higher: worse than the parent by more than 25%
        "worse": ([p + 0.4 for p in parent], False, True),
        # a median 0.3 higher: worse, but within the bound
        "near": ([p + 0.3 for p in parent], False, False),
    }
    runs = []
    for workload, (change, _, _) in cases.items():
        for seed, (p, c) in enumerate(zip(parent, change)):
            runs.append(run(workload, seed, "parent", p, 100))
            runs.append(run(workload, seed, "change", c, 100 - 11 * (workload == "worse")))
    summary = bench_pairs.aggregate(runs, END_TO_END)
    for workload, (_, claim, regressed) in cases.items():
        wall = summary[workload]["metrics"]["wall_s"]
        assert (wall["claim_holds"], wall["regressed"]) == (claim, regressed), workload
    # higher is better: a score 11% lower regresses past the 10% bound
    assert summary["worse"]["metrics"]["score"]["regressed"]
    assert not summary["near"]["metrics"]["score"]["regressed"]
    assert not summary["near"]["metrics"]["score"]["claim_holds"]


def test_workloads_apart_and_unpaired_runs_left_out():
    runs = [run("a", 1, "parent", 2.0, 0), run("a", 1, "change", 1.0, 0),
            run("b", 1, "change", 1.0, 0), run("b", 2, "parent", 3.0, 0),
            run("b", 2, "change", 4.0, 0), run("b", 3, "parent", 3.0, 0)]
    summary = bench_pairs.aggregate(runs, END_TO_END)
    assert sorted(summary) == ["a", "b"]
    assert summary["a"]["pairs"] == 1
    assert summary["a"]["metrics"]["wall_s"]["parent_iqr"] == 0
    assert summary["a"]["metrics"]["wall_s"]["change_better_pairs"] == 1
    assert summary["b"]["pairs"] == 1
    assert summary["b"]["metrics"]["wall_s"]["change_median"] == 4.0
    assert summary["b"]["metrics"]["wall_s"]["change_better_pairs"] == 0


def test_no_complete_pair_gives_no_metrics():
    summary = bench_pairs.aggregate([run("a", 1, "parent", 2.0, 0)], END_TO_END)
    assert summary["a"]["pairs"] == 0
    assert summary["a"]["metrics"] == {}


def test_failed_run_is_recorded_and_the_other_runs_go_on(monkeypatch):
    def fake_run(checkout, workload, seed, seconds):
        if (workload, seed, checkout) == ("w", 41, "change-dir"):
            raise bench_pairs.RunFailed(2, "x" * 3000 + "Traceback: boom\n")
        return run(workload, seed, "?", 1.0 if checkout == "change-dir" else 2.0, 0)["result"]

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    runs, failures = bench_pairs.collect({"parent": "parent-dir", "change": "change-dir"},
                                         ["w"], [40, 41, 42], 12)
    assert failures == [{"workload": "w", "seed": 41, "side": "change", "exit_code": 2,
                         "stderr_tail": ("x" * 3000 + "Traceback: boom\n")[-2000:]}]
    assert [(r["seed"], r["side"]) for r in runs] == [
        (40, "parent"), (40, "change"), (41, "parent"), (42, "parent"), (42, "change")]
    summary = bench_pairs.aggregate(runs, END_TO_END)["w"]
    assert summary["pairs"] == 2
    assert summary["metrics"]["wall_s"]["change_better_pairs"] == 2


def test_run_once_raises_with_exit_code_and_stderr_tail(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\nprint('partial output')\nsys.stderr.write('worker exited 1: boom')\n"
        "sys.exit(3)\n")
    with pytest.raises(bench_pairs.RunFailed) as info:
        bench_pairs.run_once(tmp_path, "w", 1, 1)
    assert info.value.exit_code == 3
    assert info.value.stderr_tail == "worker exited 1: boom"


def test_sigterm_keeps_the_finished_pairs_and_removes_the_copy(tmp_path, monkeypatch):
    copy = tmp_path / "work" / "parent"
    monkeypatch.setattr(bench_pairs, "PARENT_COPY", copy)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "abc123")
    monkeypatch.setattr(bench_pairs, "export_revision", lambda revision: copy.mkdir(parents=True))
    bench = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in bench["end_to_end"]}}
    calls = []

    def interrupted(checkout, workload, seed, seconds):
        calls.append((workload, seed))
        if len(calls) == 3:  # the first run of the second pair
            os.kill(os.getpid(), signal.SIGTERM)
        return result

    monkeypatch.setattr(bench_pairs, "run_once", interrupted)
    handler = signal.getsignal(signal.SIGTERM)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(["--out", str(out), "--seeds", "41", "42", "--workloads", "w"])
    assert info.value.code == 128 + signal.SIGTERM
    assert calls == [("w", 41), ("w", 41), ("w", 42)]
    assert not copy.exists()
    assert signal.getsignal(signal.SIGTERM) == handler
    report = json.loads(out.read_text())
    assert report["parent"] == "abc123" and report["workloads"]["w"]["pairs"] == 1
    assert [(r["seed"], r["side"]) for r in report["runs"]] == [(41, "parent"), (41, "change")]
