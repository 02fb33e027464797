"""Command-line interface: targets, reports, config files, exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from csgroups.catalog import FIXTURE_DIR
from csgroups.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    _worst_status,
    main,
    read_config_file,
    resolve_target,
)
from csgroups.construct import dump_fixture, symmetric

DATA = Path(__file__).parent / "data"


def test_import_leaves_process_pools_out():
    """``concurrent.futures`` is imported only when a sweep runs workers."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, csgroups.cli; print('concurrent.futures' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


class TestTargets:
    def test_builtin_target(self):
        name, source, G = resolve_target("builtin:sym(3)", 5000)
        assert (name, source, G.order) == ("sym(3)", "builtin", 6)

    def test_fixture_target(self):
        name, source, G = resolve_target("fixture:g480_166", 5000)
        assert source == "fixture"
        assert G.order == 480

    def test_path_target(self, tmp_path):
        path = tmp_path / "s4.txt"
        dump_fixture(symmetric(4), path)
        _, source, G = resolve_target(str(path), 5000)
        assert (source, G.order) == ("fixture", 24)

    def test_element_cap_enforced(self):
        with pytest.raises(Exception):
            resolve_target("builtin:sym(5)", 100)

    def test_element_cap_applies_to_bundled_fixtures(self, capsys):
        assert main(["analyze", "fixture:g480_166", "--max-elements", "100"]) == EXIT_USAGE
        assert "exceeds --max-elements 100" in capsys.readouterr().err


class TestAnalyze:
    """The ``test_limit_does_not_reach_*`` tests refuse every lattice call:
    no verdict builds the normal-subgroup lattice, so no limit on it is
    needed for them."""

    def test_analyze_prints_class_sizes(self, capsys):
        assert main(["analyze", "builtin:sym(3)"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "class sizes: [1, 2, 3]" in out

    def test_analyze_report_file(self, tmp_path, capsys):
        report = tmp_path / "out.json"
        assert main(["analyze", "fixture:g480_166",
                     "--report", str(report)]) == EXIT_OK
        capsys.readouterr()
        data = json.loads(report.read_text())
        entry = data["entries"][0]
        assert entry["cs"] == [1, 2, 4, 60]
        assert entry["theorems"]["C"]["status"] == "pass"
        assert entry["timings_ms"] is None

    def test_limit_does_not_reach_the_case_c_strip(self, tmp_path, capsys, refuse_lattice):
        # case (c) strips abelian factors, which reads Z(G) and G' but no
        # normal subgroups
        report = tmp_path / "out.json"
        assert main(["analyze", "fixture:g162_5", "--report", str(report)]) == EXIT_OK
        verdict = json.loads(report.read_text())["entries"][0]["theorems"]["C"]
        assert "theorem C: pass" in capsys.readouterr().out
        assert verdict["status"] == "pass" and verdict["witnesses"]["case"] == "c"

    def test_limit_does_not_reach_theorem_A(self, tmp_path, capsys, refuse_lattice):
        # Theorem A reads P = O_2 and H = O_2' of the core from its class algebra
        report = tmp_path / "out.json"
        assert main(["analyze", "builtin:q8xF21", "--report", str(report)]) == EXIT_OK
        verdict = json.loads(report.read_text())["entries"][0]["theorems"]["A"]
        assert "theorem A: pass" in capsys.readouterr().out
        assert verdict["witnesses"]["P_order"] == 8

    def test_limit_does_not_reach_the_frobenius_test(self, capsys, refuse_lattice):
        # the Chillag-Herzog Frobenius test on G/Z(G) tries the O_pi of
        # symmetric(3), not its three normal subgroups
        assert main(["verify", "CH", "builtin:sym(3)"]) == EXIT_OK
        verdict = json.loads(capsys.readouterr().out)["verdict"]
        assert verdict["status"] == "pass"
        assert verdict["witnesses"]["branch"] == "frobenius"

    def test_report_is_written_before_the_summary(self, capsys):
        # an unwritable report path fails before anything reaches stdout
        assert main(["analyze", "builtin:sym(3)", "--report", "/nonexistent-dir/x.json"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot write report /nonexistent-dir/x.json")

    def test_max_elements_raises_the_closure_cap(self, capsys):
        assert main(["analyze", "builtin:sym(7)", "--max-elements", "6000"]) == EXIT_OK
        assert "sym(7) (builtin): order 5040" in capsys.readouterr().out

    def test_unknown_target_is_usage_error(self, capsys):
        assert main(["analyze", "builtin:nope(3)"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err


class TestVerify:
    def test_verify_pass(self, capsys):
        assert main(["verify", "A", "builtin:q8xF21"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"]["status"] == "pass"
        assert data["verdict"]["witnesses"]["m"] == 6

    def test_verify_not_applicable_is_ok(self, capsys):
        assert main(["verify", "C", "builtin:cyclic(12)"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"]["status"] == "not-applicable"

    def test_verify_inconclusive_exit_code(self):
        # no A, C or CH verdict reaches a limit today; the exit code stays
        assert _worst_status(["inconclusive"]) == EXIT_INCONCLUSIVE
        assert _worst_status(["pass", "FAIL", "inconclusive"]) == EXIT_INCONCLUSIVE

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_verify_rejects_csv(self, tmp_path, capsys, how):
        if how == "flag":
            options = ["--format", "csv"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("format = csv\n")
            options = ["--config", str(cfg)]
        report = tmp_path / "out"
        assert main(["verify", "A", "builtin:q8xF21", *options,
                     "--report", str(report)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: verify writes json reports only, not csv\n"
        assert not report.exists()

    def test_verify_requires_target_for_theorems(self, capsys):
        assert main(["verify", "A"]) == EXIT_USAGE
        capsys.readouterr()

    def test_verify_psl(self, capsys):
        assert main(["verify", "psl", "2"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"]["2"]["status"] == "pass"

    def test_verify_psl_rejects_non_integer_exponent(self, capsys):
        assert main(["verify", "psl", "x"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "the psl exponent must be an integer" in err
        assert "invalid literal" not in err

    def test_verify_lemmas_single_group(self, capsys):
        assert main(["verify", "lemmas", "builtin:sym(3)"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"]["failures"] == []
        assert data["verdict"]["instances"]["2.6"] >= 1


class TestSweep:
    def test_small_sweep_csv(self, tmp_path, capsys):
        report = tmp_path / "out.csv"
        assert main(["sweep", "--max-elements", "30", "--format", "csv",
                     "--report", str(report)]) == EXIT_OK
        capsys.readouterr()
        lines = report.read_text().strip().splitlines()
        assert lines[0].startswith("name,source,order,cs")
        assert len(lines) > 5

    def test_sweep_entries_sorted(self, tmp_path, capsys):
        report = tmp_path / "out.json"
        assert main(["sweep", "--max-elements", "30",
                     "--report", str(report)]) == EXIT_OK
        capsys.readouterr()
        data = json.loads(report.read_text())
        keys = [(e.get("order", 0), e["name"]) for e in data["entries"]]
        assert keys == sorted(keys)
        assert data["findings"] == []

    def test_oversized_entries_are_errored_not_fatal(self, tmp_path, capsys):
        report = tmp_path / "out.json"
        assert main(["sweep", "--max-elements", "30",
                     "--report", str(report)]) == EXIT_OK
        capsys.readouterr()
        data = json.loads(report.read_text())
        errored = [e for e in data["entries"] if "error" in e]
        assert errored  # the larger fixtures cannot load under the cap

    def test_fixture_dir_and_workers(self, tmp_path, capsys):
        extra = tmp_path / "extra"
        extra.mkdir()
        shutil.copy(FIXTURE_DIR / "g160_234.txt", extra / "copy_of_g160.txt")
        (extra / "broken.txt").write_text("name broken\ndegree 2\n(1,5)\n")
        reports = []
        for jobs in ("1", "2"):
            report = tmp_path / f"jobs{jobs}.json"
            assert main(["sweep", "--max-elements", "200", "--fixture-dir", str(extra),
                         "--jobs", jobs, "--report", str(report)]) == EXIT_OK
            reports.append(json.loads(report.read_text()))
        capsys.readouterr()
        serial, parallel = reports
        assert serial["entries"] == parallel["entries"]
        assert serial["findings"] == parallel["findings"]
        assert {**serial["config"], "jobs": 2} == parallel["config"]
        by_name = {e["name"]: e for e in serial["entries"]}
        assert by_name["copy_of_g160"]["order"] == by_name["g160_234"]["order"] == 160
        assert "point out of range" in by_name["broken"]["error"]
        for name in ("g480_166", "g486_176", "psl_2_8"):
            assert by_name[name]["error"] == ("group order exceeds --max-elements 200: "
                                              "found at least 201 elements")

    def test_seeded_report_is_byte_identical(self, tmp_path, capsys):
        report = tmp_path / "sweep.json"
        assert main(["sweep", "--pair-sample-seed", "3", "--report", str(report)]) == EXIT_OK
        capsys.readouterr()
        assert report.read_bytes() == (DATA / "sweep_seed3.json").read_bytes()

    def test_undecodable_fixture_is_an_error_entry(self, tmp_path, capsys):
        extra = tmp_path / "extra"
        extra.mkdir()
        (extra / "latin1.txt").write_bytes(b"name caf\xff\ndegree 3\n(1,2,3)\n")
        report = tmp_path / "out.json"
        assert main(["sweep", "--max-elements", "30", "--fixture-dir", str(extra),
                     "--report", str(report)]) == EXIT_OK
        capsys.readouterr()
        by_name = {e["name"]: e for e in json.loads(report.read_text())["entries"]}
        assert "not UTF-8" in by_name["latin1"]["error"]
        assert by_name["sym(3)"]["order"] == 6  # the sweep went on


class TestVerifyLemmas:
    def test_seeded_report_is_byte_identical(self, tmp_path, capsys):
        report = tmp_path / "lemmas.json"
        assert main(["verify", "lemmas", "--pair-sample-seed", "3",
                     "--report", str(report)]) == EXIT_OK
        capsys.readouterr()
        assert report.read_bytes() == (DATA / "lemmas_seed3.json").read_bytes()


class TestConfig:
    def test_config_file_round_trip(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sweep settings\nmax_elements = 30\njobs = 1\n")
        report = tmp_path / "out.json"
        assert main(["sweep", "--config", str(cfg),
                     "--report", str(report)]) == EXIT_OK
        capsys.readouterr()
        data = json.loads(report.read_text())
        assert data["config"]["max_elements"] == 30

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_elements = 30\n")
        report = tmp_path / "out.json"
        assert main(["sweep", "--config", str(cfg), "--max-elements", "25",
                     "--report", str(report)]) == EXIT_OK
        capsys.readouterr()
        data = json.loads(report.read_text())
        assert data["config"]["max_elements"] == 25
        assert all(e.get("order", 0) <= 25 for e in data["entries"]
                   if "error" not in e)

    @pytest.mark.parametrize("line", ["format = xml", "timings = maybe"])
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main(["sweep", "--config", str(cfg), "--max-elements", "10",
                     "--report", str(tmp_path / "out")]) == EXIT_USAGE
        assert "must be one of" in capsys.readouterr().err

    def test_non_integer_config_value_names_file_line_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# limits\nmax_elements = abc\n")
        assert main(["sweep", "--config", str(cfg),
                     "--report", str(tmp_path / "out")]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {cfg}:2: max_elements must be an integer\n"

    def test_config_jobs_below_one_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("jobs = 0\n")
        assert main(["sweep", "--config", str(cfg),
                     "--report", str(tmp_path / "out")]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: jobs must be at least 1\n"
        assert not (tmp_path / "out").exists()

    def test_jobs_flag_below_one_is_usage_error(self, tmp_path, capsys):
        assert main(["sweep", "--jobs", "-2", "--max-elements", "10",
                     "--report", str(tmp_path / "out")]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: jobs must be at least 1\n"
        assert not (tmp_path / "out").exists()

    def test_removed_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_normal_subgroups = 3\n")
        assert main(["analyze", "builtin:sym(3)", "--config", str(cfg)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {cfg}:1: unknown config key 'max_normal_subgroups'\n"

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wibble = 3\n")
        with pytest.raises(Exception):
            read_config_file(str(cfg))


class TestBadCommandLine:
    """A bad command line exits with EXIT_USAGE, not argparse's 2, which
    is the FAIL of ``verify``; asking for help or the version exits 0."""

    @pytest.mark.parametrize("options", [
        ["--bogus", "3"],
        ["--max-normal-subgroups", "3"],
        ["--format", "xml"],
    ], ids=["unknown-flag", "removed-flag", "bad-format"])
    def test_parse_error_is_usage_error(self, capsys, options):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "builtin:sym(3)", *options])
        assert exc.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["analyze", "--help"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out


class TestUnusablePaths:
    """A path that cannot be read or written is a one-line usage error."""

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        assert main(["analyze", "builtin:sym(3)", "--config", str(missing)]) == EXIT_USAGE
        assert capsys.readouterr().err == (f"error: cannot read config file {missing}: "
                                           "No such file or directory\n")

    @pytest.mark.parametrize("command", [["verify", "CH", "builtin:sym(3)"],
                                         ["analyze", "builtin:sym(3)"],
                                         ["sweep", "--max-elements", "10"]])
    def test_report_in_a_missing_directory(self, tmp_path, capsys, command):
        report = tmp_path / "nodir" / "x.json"
        assert main([*command, "--report", str(report)]) == EXIT_USAGE
        assert capsys.readouterr().err == (f"error: cannot write report {report}: "
                                           "No such file or directory\n")
        assert not report.parent.exists()

    def test_missing_fixture_dir(self, tmp_path, capsys):
        missing = tmp_path / "nodir"
        assert main(["sweep", "--max-elements", "10", "--fixture-dir", str(missing)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"error: --fixture-dir {missing} is not a directory\n"
        assert captured.out == ""
