import inspect
from pathlib import Path

import pytest

from ratepower.admission import escalate_pricing
from ratepower.cli import main
from ratepower.scenario import TRACE_HEADER

SHIPPED_SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.scn"))

THREE_USER = """
[user u1]
distances_m = 110
alpha2 = 20
lambda = 1e-5
p_max = 3
r_max = 47000

[user u2]
distances_m = 130
alpha2 = 20
lambda = 1e-5
p_max = 3
r_max = 47000

[user u3]
distances_m = 210
alpha2 = 20
lambda = 1e-5
p_max = 3
r_max = 47000
"""

SIX_USER_CROWDED = "\n".join(
    f"[user u{k}]\ndistances_m = 110\nalpha2 = 12.9492\nlambda = 4e-4\n"
    f"p_max = 0.0647\nr_max = 96000\n"
    for k in range(1, 7)
)


@pytest.fixture
def three_user_file(tmp_path):
    path = tmp_path / "three.scn"
    path.write_text(THREE_USER)
    return str(path)


@pytest.fixture
def crowded_file(tmp_path):
    path = tmp_path / "crowded.scn"
    path.write_text(SIX_USER_CROWDED)
    return str(path)


class TestRun:
    def test_run_writes_trace_and_summary(self, three_user_file, tmp_path, capsys):
        trace_path = tmp_path / "out.csv"
        summary_path = tmp_path / "out.txt"
        code = main(
            ["run", three_user_file, "--trace", str(trace_path), "--summary", str(summary_path)]
        )
        assert code == 0
        assert trace_path.read_text().startswith(TRACE_HEADER)
        assert "converged = true" in summary_path.read_text()
        assert "u1.p_w" in capsys.readouterr().out

    def test_policy_flag_changes_result(self, three_user_file, capsys):
        assert main(["run", three_user_file, "--policy", "kkt"]) == 0
        kkt_out = capsys.readouterr().out
        assert main(["run", three_user_file, "--policy", "clamp"]) == 0
        clamp_out = capsys.readouterr().out
        assert kkt_out != clamp_out  # boundary users land on different rates

    def test_schedule_alias(self, three_user_file):
        assert main(["run", three_user_file, "--schedule", "seq"]) == 0

    def test_missing_file_fails_cleanly(self, capsys):
        assert main(["run", "no-such-file.scn"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_parse_error_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("[user a]\ndistances_m = 110\nbogus = 1\n")
        assert main(["run", str(bad)]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_arrival_after_max_iterations_fails_cleanly(self, tmp_path, capsys):
        # The arrival could never fire, so the run could never converge.
        late = tmp_path / "late.scn"
        arrival = "[event arrival]\niteration = 80\nuser = u4\ndistances_m = 130\n"
        late.write_text(THREE_USER + "\n[run]\nmax_iterations = 50\n\n" + arrival)
        assert main(["run", str(late)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: arrival at iteration 80 comes after max_iterations = 50 and would never fire"
        ]

    def test_lone_noise_free_user_fails_cleanly(self, tmp_path, capsys):
        lone = tmp_path / "lone.scn"
        lone.write_text("[network]\nnoise_w = 0\n\n[user a]\ndistances_m = 110\n")
        assert main(["run", str(lone)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "lone user with zero noise" in err


class TestBackToBackCalls:
    """``main`` keeps one parser per process; no call leaks into the next."""

    def test_policy_flag_does_not_stick(self, three_user_file, capsys):
        assert main(["run", three_user_file]) == 0
        own = capsys.readouterr().out
        assert main(["run", three_user_file, "--policy", "kkt"]) == 0
        kkt = capsys.readouterr().out
        assert main(["run", three_user_file]) == 0
        assert capsys.readouterr().out == own != kkt
        # The scenario sets no policy, so its own is clamp.
        assert main(["run", three_user_file, "--policy", "clamp"]) == 0
        assert capsys.readouterr().out == own

    @pytest.mark.parametrize(
        "bad", [["run"], ["run", "x.scn", "--policy", "newton"], ["bogus"], []]
    )
    def test_usage_error_leaves_the_next_call_working(self, bad, three_user_file, capsys):
        assert main(["run", three_user_file]) == 0
        want = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert "usage: ratepower" in capsys.readouterr().err
        assert main(["run", three_user_file]) == 0
        assert capsys.readouterr().out == want


class TestShippedScenarios:
    @pytest.mark.parametrize("policy", ["clamp", "kkt"])
    @pytest.mark.parametrize("schedule", ["sync", "seq"])
    @pytest.mark.parametrize("path", SHIPPED_SCENARIOS, ids=lambda p: p.stem)
    def test_converges_and_trace_ends_at_summary(self, path, schedule, policy, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        summary_path = tmp_path / "summary.txt"
        argv = ["run", str(path), "--schedule", schedule, "--policy", policy]
        argv += ["--trace", str(trace_path), "--summary", str(summary_path)]
        assert main(argv) == 0
        summary = dict(line.split(" = ") for line in summary_path.read_text().splitlines())
        assert summary["converged"] == "true"
        rows = [line.split(",") for line in trace_path.read_text().splitlines()[1:]]
        final = [row for row in rows if row[0] == rows[-1][0]]
        # user keys come first; per-step keys of movement runs follow them
        n_users = int(summary["n_users"])
        names = [key[: -len(".bs")] for key in summary if key.endswith(".bs")][:n_users]
        assert len(final) == len(names) == n_users
        for row, name in zip(final, names):
            want = [summary[f"{name}.{field}"] for field in ("bs", "p_w", "r_bps")]
            assert row[2:5] == want


class TestReproduce:
    def test_single_target(self, capsys):
        assert main(["reproduce", "table2"]) == 0
        out = capsys.readouterr().out
        assert "table2: PASS" in out

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "table9"])


class TestSweep:
    def test_sweep_csv_shape(self, three_user_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep-lambda",
                three_user_file,
                "--from",
                "0.05",
                "--to",
                "0.2",
                "--steps",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "lambda,user,bs,p_w,r_bps,sinr,converged"
        assert len(lines) == 1 + 3 * 3

    @pytest.mark.parametrize("flag", ["--from", "--to"])
    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_bound_rejected_before_sweeping(self, three_user_file, flag, bad, capsys):
        bounds = {"--from": "0.05", "--to": "0.2", flag: bad}
        argv = ["sweep-lambda", three_user_file, "--steps", "3"]
        code = main(argv + [item for pair in bounds.items() for item in pair])
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: pricing values must be finite"]


class TestTuneAndRemove:
    def test_tune_pricing_reference(self, crowded_file, capsys):
        code = main(["tune-pricing", crowded_file, "--dc", "1e-4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "achieved" in out and "5.0000000000e-04" in out

    @pytest.mark.parametrize("command", ["tune-pricing", "remove-loop"])
    def test_unconverged_solve_fails_cleanly(self, command, tmp_path, capsys):
        path = tmp_path / "short.scn"
        path.write_text(SIX_USER_CROWDED + "\n[run]\nmax_iterations = 1\n")
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "converge" in err
        assert "Traceback" not in err

    def test_zero_max_steps_fails_cleanly(self, crowded_file, capsys):
        assert main(["tune-pricing", crowded_file, "--max-steps", "0"]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: max_steps must be at least 1"]

    def test_absent_max_steps_takes_the_escalation_budget(self, crowded_file, capsys):
        # A step too small to reach the target exhausts the budget.
        budget = inspect.signature(escalate_pricing).parameters["max_steps"].default
        for flags, runs in (([], budget), (["--max-steps", "3"], 3)):
            assert main(["tune-pricing", crowded_file, "--dc", "1e-12", *flags]) == 1
            head = capsys.readouterr().out.splitlines()[0]
            assert head.startswith("tune-pricing: not-achieved") and head.endswith(f"after {runs} runs")

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_step_names_dc(self, crowded_file, bad, capsys):
        assert main(["tune-pricing", crowded_file, "--dc", bad]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: dc must be finite, got {bad}"]

    @pytest.mark.parametrize("command", ["tune-pricing", "remove-loop"])
    @pytest.mark.parametrize(
        "section, name",
        [
            ("[run]\nrates = 9600 19200 38400\n", "[run] rates"),
            ("[event arrival]\niteration = 20\nuser = u4\ndistances_m = 130\n", "[event arrival]"),
            ("[event move]\nstep = 2\nuser = u1\ndistances_m = 150\n", "[event move]"),
        ],
    )
    def test_sections_the_command_cannot_run_are_rejected(
        self, command, section, name, tmp_path, capsys
    ):
        path = tmp_path / "extra.scn"
        path.write_text(THREE_USER + "\n" + section)
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {command} cannot run a scenario with {name}"]

    def test_remove_loop_rejects_pricing(self, tmp_path, capsys):
        # run prices these users at 3 * 1e-4 and puts every one at target;
        # removal, which plays each user's own lambda, used to drop u3 and u2.
        path = tmp_path / "priced.scn"
        users = THREE_USER.replace("lambda = 1e-5", "lambda = 1e-6")
        path.write_text(users + "\n[pricing]\nrule = per_user_count\nc = 1e-4\n")
        summary_path = tmp_path / "run.txt"
        assert main(["run", str(path), "--summary", str(summary_path)]) == 0
        assert summary_path.read_text().count("outcome = at_target") == 3
        capsys.readouterr()
        assert main(["remove-loop", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: remove-loop cannot run a scenario with [pricing]"
        ]

    def test_remove_loop_drops_cap_pinned_user(self, three_user_file, capsys):
        code = main(["remove-loop", three_user_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "removed: u3" in out
        assert "remaining: u1 u2" in out

    def test_tune_pricing_summary_is_priced_at_c_final(self, crowded_file, tmp_path):
        summary_path = tmp_path / "tuned.txt"
        assert main(["tune-pricing", crowded_file, "--dc", "1e-4", "--summary", str(summary_path)]) == 0
        summary = dict(line.split(" = ") for line in summary_path.read_text().splitlines())
        assert summary["n_users"] == "6"
        for k in range(1, 7):
            assert summary[f"u{k}.lambda"] == "5.0000000000e-04"
            assert summary[f"u{k}.outcome"] != "below_target"

    def test_remove_loop_summary_covers_the_survivors(self, three_user_file, tmp_path):
        summary_path = tmp_path / "survivors.txt"
        assert main(["remove-loop", three_user_file, "--summary", str(summary_path)]) == 0
        summary = dict(line.split(" = ") for line in summary_path.read_text().splitlines())
        assert summary["n_users"] == "2"
        assert "u3.bs" not in summary
        assert summary["u1.outcome"] != "below_target" and summary["u2.outcome"] != "below_target"
