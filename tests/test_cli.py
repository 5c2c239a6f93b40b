"""End-to-end command-line checks: exit codes, formats, determinism.

Commands run in-process through main(argv); every JSON payload is
validated against the schema file shipped with the package.  Numeric
behaviour is owned by the module test suites — these tests pin the
plumbing: flag handling, delegation, serialization, and error mapping
(exit 2 for malformed input, exit 3 for resource caps).
"""

import json
import math
import re
import shlex
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest

from boolvol import cli
from boolvol.analysis import MAX_DEPTH
from boolvol.functions import make_instance, parse_spec
from boolvol.oracle import exact_total_influence

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def strict(out):
    """Parses JSON output that must hold no NaN or Infinity constant."""
    def reject(name):
        raise ValueError("non-JSON constant %s" % name)

    return json.loads(out, parse_constant=reject)


def validated(out):
    """Parses JSON output and validates it against its named schema."""
    payload = json.loads(out)
    name = payload["schema"].split("/")[1]
    text = files("boolvol").joinpath("schemas/%s.v1.json" % name).read_text()
    jsonschema.validate(payload, json.loads(text))
    return payload


class TestSimulate:
    def test_mean_matches_oracle(self, capsys):
        code, out = run_cli(capsys, "simulate", "maj:9", "--p", "0.5",
                            "--T", "1", "--replicas", "4000", "--seed", "7")
        assert code == 0
        payload = validated(out)
        want = exact_total_influence(make_instance(parse_spec("maj:9")), 0.5)
        se = math.sqrt(payload["var_C"] / payload["replicas"])
        assert abs(payload["mean_C"] - want) <= 4 * se
        assert payload["seed"] == 7

    def test_zero_horizon_all_zero_histogram(self, capsys):
        code, out = run_cli(capsys, "simulate", "parity:4", "--T", "0",
                            "--replicas", "200")
        assert code == 0
        payload = validated(out)
        assert payload["histogram"] == [[0, 200]]
        assert payload["p_zero"] == 1.0

    def test_repeat_and_threads_byte_identical(self, capsys):
        argv = ("simulate", "andor:3", "--replicas", "500")
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second

    def test_csv_histogram(self, capsys):
        code, out = run_cli(capsys, "simulate", "maj:9", "--replicas", "300",
                            "--csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "C,count"
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert sum(counts) == 300

    def test_unwritable_out_file_exit_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "run.json"
        code = cli.main(["simulate", "maj:3", "--replicas", "10", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert not target.exists()

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "run.json"
        code, out = run_cli(capsys, "simulate", "parity:8", "--replicas",
                            "200", "--out", str(target))
        assert code == 0
        assert out == ""
        payload = validated(target.read_text())
        assert payload["spec"] == "parity:8"

    def test_default_seed_is_fixed_constant(self, capsys):
        _, out = run_cli(capsys, "simulate", "maj:9", "--replicas", "100")
        assert validated(out)["seed"] == 1

    def test_seed_changes_samples(self, capsys):
        _, a = run_cli(capsys, "simulate", "maj:9", "--replicas", "500")
        _, b = run_cli(capsys, "simulate", "maj:9", "--replicas", "500",
                       "--seed", "2")
        assert a != b

    def test_bad_family_exit_2(self, capsys):
        code, out = run_cli(capsys, "simulate", "nosuch:4")
        assert code == 2
        assert out == ""

    def test_bad_p_exit_2(self, capsys):
        code, _ = run_cli(capsys, "simulate", "maj:9", "--p", "1.5")
        assert code == 2

    def test_event_budget_exit_3(self, capsys):
        code = cli.main(["simulate", "maj:9", "--T", "1e12", "--replicas", "10"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("resource limit:")
        assert "Traceback" not in captured.err

    def test_arity_cap_exit_3(self, capsys):
        code = cli.main(["simulate", "itermaj3:20", "--replicas", "10"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("resource limit:")

    def test_memory_error_exit_3(self, capsys, monkeypatch):
        def exhausted(spec):
            raise MemoryError

        monkeypatch.setattr(cli, "make_instance", exhausted)
        code = cli.main(["simulate", "andor:26", "--replicas", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "resource limit: out of memory\n"

    def test_nan_horizon_exit_2(self, capsys):
        code = cli.main(["simulate", "maj:9", "--T", "nan", "--replicas", "10"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: horizon must be >= 0")


class TestInfluence:
    def test_bigtame_totals_exact(self, capsys):
        code, out = run_cli(capsys, "influence", "bigtame:2", "--p", "0.5")
        assert code == 0
        payload = validated(out)
        assert payload["total_pi"] == 3.5
        assert payload["total_I"] == 1.75

    def test_csv_per_bit(self, capsys):
        _, out = run_cli(capsys, "influence", "bigtame:2", "--csv")
        lines = out.strip().split("\n")
        assert lines[0] == "bit,influence,pivotality"
        assert len(lines) == 1 + 12

    def test_arity_cap_exit_3(self, capsys):
        code, out = run_cli(capsys, "influence", "maj:29")
        assert code == 3
        assert out == ""

    @pytest.mark.parametrize("p", ["1.5", "nan"])
    def test_p_outside_unit_interval_exit_2(self, capsys, p):
        code = cli.main(["influence", "maj:5", "--p", p])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: p must lie in [0, 1]")


class TestJointNoise:
    def test_joint_payload(self, capsys):
        code, out = run_cli(capsys, "joint", "maj:9", "--t", "0.5",
                            "--replicas", "2000")
        assert code == 0
        payload = validated(out)
        assert payload["t"] == 0.5
        assert 0.0 <= payload["disagree"] <= 1.0

    def test_noise_payload(self, capsys):
        code, out = run_cli(capsys, "noise", "maj:9", "--epsilon", "0.4",
                            "--replicas", "2000")
        assert code == 0
        payload = validated(out)
        assert payload["epsilon"] == 0.4

    def test_same_joint_identity_smoke(self, capsys):
        t = 0.5
        _, joint = run_cli(capsys, "joint", "maj:9", "--t", str(t),
                           "--replicas", "20000")
        _, noise = run_cli(capsys, "noise", "maj:9", "--epsilon",
                           str(1.0 - math.exp(-t)), "--replicas", "20000")
        a, b = json.loads(joint), json.loads(noise)
        se = math.hypot(a["se_disagree"], b["se_disagree"])
        assert abs(a["disagree"] - b["disagree"]) <= 4 * se

    def test_noise_epsilon_out_of_range_exit_2(self, capsys):
        code, _ = run_cli(capsys, "noise", "maj:9", "--epsilon", "1.5")
        assert code == 2

    def test_csv_single_row(self, capsys):
        _, out = run_cli(capsys, "noise", "maj:9", "--epsilon", "0.2",
                         "--replicas", "500", "--csv")
        lines = out.strip().split("\n")
        assert lines[0] == "mean_product,disagree,se_product,se_disagree,replicas"
        assert len(lines) == 2


class TestRecursion:
    def test_maj3_a_series(self, capsys):
        code, out = run_cli(capsys, "recursion", "maj3-a", "--p0", "0.3",
                            "--n", "10")
        assert code == 0
        payload = validated(out)
        assert payload["op"] == "maj3-a"
        assert len(payload["series"]) == 11
        assert payload["series"][0][1] == 0.3

    def test_maj3_a_needs_p0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["recursion", "maj3-a", "--n", "5"])
        assert exc.value.code == 2
        assert "--p0" in capsys.readouterr().err

    def test_maj3_b_scaling_mode(self, capsys):
        code, out = run_cli(capsys, "recursion", "maj3-b", "--n", "20",
                            "--alpha", "1.0", "--t", "0.5")
        assert code == 0
        payload = validated(out)
        assert payload["params"]["alpha"] == 1.0

    def test_maj3_b_needs_exactly_one_bias(self, capsys):
        code, _ = run_cli(capsys, "recursion", "maj3-b", "--n", "5")
        assert code == 2
        code, _ = run_cli(capsys, "recursion", "maj3-b", "--n", "5",
                          "--epsilon", "0.1", "--alpha", "1.0")
        assert code == 2

    def test_cutoff_signs(self, capsys):
        code, out = run_cli(capsys, "recursion", "maj3-cutoff", "--alpha",
                            "1", "--n", "300", "--precision", "50")
        assert code == 0
        payload = validated(out)
        assert payload["log_diag"] < 0
        assert payload["digits"] == 50
        _, out = run_cli(capsys, "recursion", "maj3-cutoff", "--alpha",
                         "0.4", "--n", "300")
        assert validated(out)["log_diag"] > 0

    def test_cutoff_csv(self, capsys):
        _, out = run_cli(capsys, "recursion", "maj3-cutoff", "--alpha", "1",
                         "--n", "100", "--csv")
        lines = out.strip().split("\n")
        assert lines[0] == "alpha,n,log_diag,digits"
        assert len(lines) == 2

    @pytest.mark.parametrize("argv", [
        ("maj3-b", "--n", "10", "--alpha", "nan", "--t", "0.5"),
        ("maj3-cutoff", "--alpha", "nan", "--n", "10"),
    ])
    def test_non_finite_alpha_exit_2(self, capsys, argv):
        code = cli.main(["recursion", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: alpha must be finite")

    @pytest.mark.parametrize("argv", [
        ("maj3-b", "--n", "10", "--epsilon", "0.01", "--t", "inf"),
        ("maj3-b", "--n", "10", "--alpha", "0.5", "--t", "nan"),
        ("andor-x", "--t", "inf", "--n", "10"),
        ("andor-bbound", "--n", "10", "--t", "inf"),
    ])
    def test_non_finite_t_exit_2(self, capsys, argv):
        # JSON cannot hold the t = inf limit the library computes
        code = cli.main(["recursion", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: time t must be finite")

    @pytest.mark.parametrize("argv", [
        ("maj3-a", "--p0", "0.4", "--n", "3", "--precision", "0"),
        ("maj3-a", "--p0", "0.4", "--n", "3", "--precision", "-3"),
        ("maj3-b", "--n", "3", "--epsilon", "0.1", "--precision", "0"),
    ])
    def test_precision_below_one_exit_2(self, capsys, argv):
        code = cli.main(["recursion", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: digits must be an integer >= 1")

    def test_andor_x_converges(self, capsys):
        code, out = run_cli(capsys, "recursion", "andor-x", "--t", "0.5",
                            "--n", "60")
        assert code == 0
        payload = validated(out)
        assert payload["info"]["converged"] is True

    def test_andor_bbound(self, capsys):
        code, out = run_cli(capsys, "recursion", "andor-bbound", "--n", "10",
                            "--t", "0.25")
        assert code == 0
        payload = validated(out)
        assert payload["info"]["cap_satisfied"] is True

    @pytest.mark.parametrize("argv", [("--n", "10", "--t", "0"), ("--n", "2", "--t", "0.25")])
    def test_andor_bbound_without_cap_is_strict_json(self, capsys, argv):
        # no cap applies at t = 0 or n < 3: it is null, not Infinity
        code, out = run_cli(capsys, "recursion", "andor-bbound", *argv)
        assert code == 0
        payload = strict(out)
        validated(out)
        assert payload["info"]["cap"] is None
        assert payload["info"]["cap_satisfied"] is True

    def test_andor_bbound_past_depth_511(self, capsys):
        # 4.0^(k+1) overflowed at k = 511 and the command died with a traceback
        code, out = run_cli(capsys, "recursion", "andor-bbound", "--n", "600", "--t", "0.5")
        assert code == 0
        payload = strict(out)
        validated(out)
        assert payload["series"][-1] == [600, 0.0, "linear"]
        assert payload["info"]["cap"] == 0.0
        assert payload["info"]["cap_satisfied"] is True

    @pytest.mark.parametrize("argv", [
        ("maj3-a", "--p0", "0.5"),
        ("andor-x", "--t", "0.5"),
        ("andor-bbound", "--t", "0.5"),
        ("maj3-cutoff", "--alpha", "0.5"),
    ])
    def test_depth_above_budget_exit_3(self, capsys, argv):
        code = cli.main(["recursion", *argv, "--n", str(MAX_DEPTH + 1)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "recursion budget" in captured.err

    def test_andor_gfloor(self, capsys):
        code, out = run_cli(capsys, "recursion", "andor-gfloor", "--grid", "200")
        assert code == 0
        payload = validated(out)
        assert payload["passed"] is True
        assert payload["certificate"]["proved"] is True
        assert payload["min_margin"] >= -1e-6

    def test_maj3_b_bias_lost_in_floats_exit_2(self, capsys):
        # epsilon = 8.6e-35 rounds p to 1/2: the float series would print the
        # fixed point b = 1/4 at every depth
        argv = ("recursion", "maj3-b", "--n", "200", "--alpha", "0.5", "--t", "0.5")
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and "--precision" in captured.err
        code, out = run_cli(capsys, *argv, "--precision", "60")
        assert code == 0
        assert validated(out)["series"][-1][1] < 1e-300

    def test_series_csv(self, capsys):
        _, out = run_cli(capsys, "recursion", "maj3-a", "--p0", "0.4",
                         "--n", "5", "--csv")
        lines = out.strip().split("\n")
        assert lines[0] == "k,value,mode"
        assert len(lines) == 7


class TestPerc:
    def test_build_then_weights_tracks_cubic(self, capsys, tmp_path):
        prof = tmp_path / "prof.txt"
        code, out = run_cli(capsys, "perc", "build", "--target", "nalpha:3",
                            "--levels", "10", "--profile-out", str(prof))
        assert code == 0
        build = validated(out)
        assert len(build["children"]) == 10
        assert len(prof.read_text().split()) == 10
        code, out = run_cli(capsys, "perc", "weights", "--profile", str(prof))
        assert code == 0
        ws = validated(out)
        for k, w in enumerate(ws["w"], start=1):
            assert w <= 4.0 * k**3 and w >= k**3 / 4.0

    def test_weights_from_target_directly(self, capsys):
        code, out = run_cli(capsys, "perc", "weights", "--target", "constant",
                            "--levels", "6")
        assert code == 0
        ws = validated(out)
        assert len(ws["w"]) == 6

    def test_weights_needs_exactly_one_source(self, capsys):
        code, _ = run_cli(capsys, "perc", "weights")
        assert code == 2
        code, _ = run_cli(capsys, "perc", "weights", "--profile", "2,2",
                          "--target", "constant", "--levels", "4")
        assert code == 2
        # --levels belongs to --target; a profile fixes its own depth
        for levels in ("x", "2"):
            code, out = run_cli(capsys, "perc", "weights", "--profile", "2,3",
                                "--levels", levels)
            assert code == 2
            assert out == ""

    def test_run_nested_levels(self, capsys):
        code, out = run_cli(capsys, "perc", "run", "--profile", "2,2,2,2",
                            "--levels", "2,4", "--replicas", "300")
        assert code == 0
        payload = validated(out)
        levels = payload["levels"]
        assert [lv["level"] for lv in levels] == [2, 4]
        assert levels[1]["p_one"] <= levels[0]["p_one"]
        assert levels[1]["p_ever_one"] <= levels[0]["p_ever_one"]

    def test_run_repeat_byte_identical(self, capsys):
        argv = ("perc", "run", "--profile", "2,3,2", "--levels", "1,3",
                "--replicas", "200")
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second

    def test_run_draw_budget_exit_3(self, capsys):
        code, out = run_cli(capsys, "perc", "run", "--profile",
                            "10,10,10,10,10,10,10,10", "--levels", "8",
                            "--replicas", "10")
        assert code == 3
        assert out == ""

    def test_run_past_ten_million_edges(self, capsys):
        # binary-26 has 134M edges; at p = 0.3 a replica draws about 20
        code, out = run_cli(capsys, "perc", "run", "--profile", ",".join(["2"] * 26),
                            "--levels", "26", "--p", "0.3")
        assert code == 0
        assert validated(out)["levels"][0]["level"] == 26

    def test_run_edge_ids_past_2_64_exit_3(self, capsys):
        code = cli.main(["perc", "run", "--profile", ",".join(["2"] * 64),
                         "--levels", "64", "--replicas", "10"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "2^64 edge ids" in captured.err

    def test_run_rarely_reached_wide_level_exit_3(self, capsys):
        # a replica expects about 8e5 draws, but one whose root edge opens
        # would draw all 10^9 child edges of its level-1 vertex at once
        code, out = run_cli(capsys, "perc", "run", "--profile", "2,1000000000",
                            "--levels", "2", "--p", "0.0001", "--replicas", "10000")
        assert code == 3
        assert out == ""

    def test_run_horizon_past_event_budget_exit_3(self, capsys):
        code, out = run_cli(capsys, "perc", "run", "--profile", "2,2",
                            "--levels", "2", "--T", "800", "--replicas", "10")
        assert code == 0
        assert validated(out)["T"] == 800.0
        # 1e6 passes the root edges' c_1 * T but not one replica's descent
        for T in ("inf", "1e7", "1e6"):
            code = cli.main(["perc", "run", "--profile", "2,2", "--levels", "2",
                             "--T", T, "--replicas", "10"])
            captured = capsys.readouterr()
            assert code == 3
            assert captured.out == ""
            assert captured.err.startswith("resource limit:")
            assert "Traceback" not in captured.err

    def test_missing_or_malformed_profile_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\nx\n")
        for profile in (str(tmp_path / "missing.txt"), "2,,3", str(bad)):
            for argv in (("weights",), ("run", "--levels", "1")):
                code, out = run_cli(capsys, "perc", *argv, "--profile", profile)
                assert code == 2
                assert out == ""

    def test_bad_target_exit_2(self, capsys):
        code, _ = run_cli(capsys, "perc", "build", "--target", "bogus",
                          "--levels", "5")
        assert code == 2

    def test_run_csv(self, capsys):
        _, out = run_cli(capsys, "perc", "run", "--profile", "2,2",
                         "--levels", "1,2", "--replicas", "100", "--csv")
        lines = out.strip().split("\n")
        assert lines[0] == ("level,p_one,p_ever_one,p_always_one,"
                            "p_always_zero,mean_C,var_C,mean_S")
        assert len(lines) == 3


class TestClassify:
    def write_plan(self, tmp_path, pairs):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(pairs))
        return str(path)

    def test_parity_plan(self, capsys, tmp_path):
        plan = self.write_plan(tmp_path, [["parity:%d" % n, 0.5]
                                          for n in (4, 8, 16, 32)])
        code, out = run_cli(capsys, "classify", plan, "--replicas", "600")
        assert code == 0
        payload = validated(out)
        assert payload["verdict"] == "volatile-consistent"
        assert payload["ns"] == [4, 8, 16, 32]
        assert payload["replicas"] == 600

    def test_csv_trend_rows(self, capsys, tmp_path):
        plan = self.write_plan(tmp_path, [["dictator:%d" % n, 0.5]
                                          for n in (2, 3, 4)])
        code, out = run_cli(capsys, "classify", plan, "--replicas", "300",
                            "--csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,stat,value,stderr"
        # 14 stats (5 scalar trends + 3 Ms twice + 3 ks) over 3 sizes
        assert len(lines) == 1 + 14 * 3

    def test_bad_plan_shape_exit_2(self, capsys, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"not": "a list"}')
        code, _ = run_cli(capsys, "classify", str(path))
        assert code == 2
        # each pair is a JSON string and a JSON number; a bool or a numeric
        # string is not read as p
        for p in (True, "0.5"):
            plan = self.write_plan(tmp_path, [["parity:%d" % n, p]
                                              for n in (4, 8, 16)])
            code, _ = run_cli(capsys, "classify", plan, "--replicas", "50")
            assert code == 2
        plan = self.write_plan(tmp_path, [[spec, 0.5] for spec in
                                          ("parity:4", ["parity:8"], "parity:16")])
        code, _ = run_cli(capsys, "classify", plan, "--replicas", "50")
        assert code == 2

    def test_missing_plan_file_exit_2(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "classify", str(tmp_path / "nope.json"))
        assert code == 2

    def test_too_few_entries_exit_2(self, capsys, tmp_path):
        plan = self.write_plan(tmp_path, [["parity:4", 0.5],
                                          ["parity:8", 0.5]])
        code, _ = run_cli(capsys, "classify", plan, "--replicas", "200")
        assert code == 2


class TestParser:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bogus"])
        assert exc.value.code == 2

    def test_missing_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_one_parser_prints_what_fresh_parsers_print(self, capsys, tmp_path):
        # main builds its parser once per process; a sequence of different
        # calls, one of them refused, prints what calls that each build a
        # fresh parser print
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps([["parity:%d" % n, 0.5] for n in (2, 3, 4)]))
        calls = [
            ("simulate", "maj:3", "--replicas", "50", "--seed", "3"),
            ("perc", "run", "--profile", "2,2", "--levels", "1,2", "--replicas", "40",
             "--csv"),
            ("perc", "build", "--target", "constant", "--levels", "3"),
            ("perc", "weights", "--profile", "2,3", "--levels", "2"),
            ("perc", "weights", "--target", "constant", "--levels", "3"),
            ("influence", "maj:3", "--p", "0.3"),
            ("joint", "parity:3", "--t", "0.5", "--replicas", "50"),
            ("noise", "maj:3", "--epsilon", "0.2", "--replicas", "50", "--csv"),
            ("recursion", "maj3-a", "--p0", "0.4", "--n", "4"),
            ("classify", str(plan), "--replicas", "50", "--T", "0.5"),
            ("simulate", "maj:3", "--replicas", "50"),
        ]

        def run_all(fresh):
            out = []
            for argv in calls:
                if fresh:
                    cli._build_parser.cache_clear()
                code = cli.main(list(argv))
                captured = capsys.readouterr()
                out.append((code, captured.out, captured.err))
            return out

        cached = run_all(False)
        assert cli._build_parser() is cli._build_parser()
        assert cached == run_all(True)
        assert [code for code, _, _ in cached] == [0] * 3 + [2] + [0] * 7

    def test_every_readme_example_parses(self):
        # parsing runs nothing: a documented call the parser refuses fails here
        text = (ROOT / "README.md").read_text()
        blocks = re.findall(r"^```[a-z]*\n(.*?)^```", text, flags=re.M | re.S)
        calls = [shlex.split(line) for block in blocks for line in block.splitlines()
                 if line.startswith("boolvol ")]
        assert len(calls) >= 6
        parser = cli._build_parser()
        for argv in calls:
            assert parser.parse_args(argv[1:]).handler is not None, argv

    def test_every_schema_file_has_a_const_id(self):
        root = files("boolvol").joinpath("schemas")
        names = sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))
        assert len(names) == 11
        for name in names:
            body = json.loads(root.joinpath(name).read_text())
            stem = name[: -len(".v1.json")]
            assert body["properties"]["schema"]["const"] == "boolvol/%s/v1" % stem
            assert set(body["required"]) <= set(body["properties"]), name
            assert body["additionalProperties"] is False, name

    @pytest.mark.parametrize("argv", [("simulate",), ("recursion", "andor-gfloor")])
    def test_output_flags_listed_in_their_group(self, capsys, argv):
        with pytest.raises(SystemExit):
            cli.main([*argv, "--help"])
        groups = re.split(r"\n(?=\S)", capsys.readouterr().out)
        output = [g for g in groups if g.startswith("output flags:")]
        assert len(output) == 1
        for flag in ("--json", "--csv", "--out"):
            assert re.search(r"^  %s\b" % flag, output[0], flags=re.M), flag
            assert all(not re.search(r"^  %s\b" % flag, g, flags=re.M)
                       for g in groups if g is not output[0]), flag


class TestPercArguments:
    """Malformed perc arguments exit 2 with empty stdout and no traceback."""

    @staticmethod
    def _exit_2(capsys, *argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("target", ["nlogn:-1", "logn1p:-2", "nalpha:1e308"])
    def test_build_target_arithmetic_error_exit_2(self, capsys, target):
        self._exit_2(capsys, "perc", "build", "--target", target, "--levels", "5")

    @pytest.mark.parametrize("ratio", ["nan", "inf", "0", "-1"])
    def test_build_max_ratio_exit_2(self, capsys, ratio):
        self._exit_2(capsys, "perc", "build", "--target", "nalpha:3", "--levels", "5",
                     "--max-ratio", ratio)

    @pytest.mark.parametrize("argv", [
        ("run", "--profile", "2,2", "--levels", "2", "--target", "bogus",
         "--profile-out", "MISSING/x"),
        ("weights", "--profile", "2,3", "--max-ratio", "-5"),
        ("build", "--target", "constant", "--levels", "3", "--p", "7", "--T", "-1",
         "--profile", "1,x"),
    ])
    def test_flag_the_op_does_not_read_exit_2(self, capsys, tmp_path, argv):
        # each op takes only the flags it reads: argparse refuses a flag of
        # another op, and weights --profile refuses the --target flags
        argv = [a.replace("MISSING", str(tmp_path / "missing")) for a in argv]
        try:
            code = cli.main(["perc", *argv])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error:" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("op", ["build", "weights"])
    def test_unreachable_max_ratio_exit_2(self, capsys, op):
        # no integer child count keeps nalpha:3 within a factor 1 of n^3
        self._exit_2(capsys, "perc", op, "--target", "nalpha:3", "--levels", "6",
                     "--max-ratio", "1.0")


# each leaf command with a valid call, and the flags it does not read: the
# Monte Carlo flags off the Monte Carlo commands, --precision off all but
# the 3-majority recursions, every recursion op's flags off the other ops,
# and the removed --threads and --conv-points everywhere
_UNREAD_FLAGS = [
    (("simulate", "maj:3", "--replicas", "5"), ("--precision", "--threads")),
    (("influence", "maj:3"), ("--seed", "--replicas", "--precision", "--threads")),
    (("joint", "maj:3", "--t", "0.5", "--replicas", "5"), ("--precision", "--threads")),
    (("noise", "maj:3", "--epsilon", "0.2", "--replicas", "5"),
     ("--precision", "--threads")),
    (("recursion", "maj3-a", "--p0", "0.4", "--n", "3"),
     ("--seed", "--replicas", "--threads", "--epsilon", "--alpha", "--t", "--grid",
      "--conv-points")),
    (("recursion", "maj3-b", "--n", "3", "--epsilon", "0.1"),
     ("--seed", "--replicas", "--threads", "--p0", "--grid", "--conv-points")),
    (("recursion", "maj3-cutoff", "--alpha", "1", "--n", "10"),
     ("--seed", "--replicas", "--threads", "--p0", "--epsilon", "--t", "--grid",
      "--conv-points")),
    (("recursion", "andor-x", "--t", "0.5", "--n", "3"),
     ("--seed", "--replicas", "--threads", "--precision", "--p0", "--epsilon",
      "--alpha", "--grid", "--conv-points")),
    (("recursion", "andor-bbound", "--n", "3", "--t", "0.25"),
     ("--seed", "--replicas", "--threads", "--precision", "--p0", "--epsilon",
      "--alpha", "--grid", "--conv-points")),
    (("recursion", "andor-gfloor", "--grid", "100"),
     ("--seed", "--replicas", "--threads", "--precision", "--p0", "--n", "--epsilon",
      "--alpha", "--t", "--conv-points")),
    (("perc", "build", "--target", "constant", "--levels", "3"),
     ("--seed", "--replicas", "--precision", "--threads")),
    (("perc", "weights", "--profile", "2,3"),
     ("--seed", "--replicas", "--precision", "--threads")),
    (("perc", "run", "--profile", "2,2", "--levels", "2", "--replicas", "5"),
     ("--precision", "--threads")),
    (("classify", "PLAN", "--replicas", "20"), ("--precision", "--threads")),
]


@pytest.mark.parametrize("argv,flag", [
    pytest.param(argv, flag, id=" ".join(argv[:2]) + " " + flag)
    for argv, flags in _UNREAD_FLAGS for flag in flags])
def test_flag_the_command_does_not_read_exit_2(capsys, tmp_path, argv, flag):
    # every value is valid for the flag where it is read, so only the
    # command's refusal of the flag can exit 2
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([["parity:%d" % n, 0.5] for n in (2, 3, 4)]))
    argv = [str(plan) if a == "PLAN" else a for a in argv]
    try:
        code = cli.main([*argv, flag, "1"])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err
    assert "Traceback" not in captured.err
