import argparse
import hashlib
import inspect
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from ratepower import cli
from ratepower.admission import PricingRule, escalate_pricing
from ratepower.cli import _parser, main
from ratepower.reference import REPRODUCE_TARGETS
from ratepower.scenario import TRACE_HEADER, parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED_SCENARIOS = sorted(SCENARIO_DIR.glob("*.scn"))

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

    # sha256 of the stdout for THREE_USER priced at these lambdas, the same
    # under every schedule and policy: every user at (p_max, r_max).
    TINY_PRICES = {
        "1e-300": "a814e9050af2be89b64965eb10fefea4a55229d4654ad7e7164e84affda3cf7d",
        "1e-320": "c64f1a2df86b00eb1a8ee32386c0719a6a053af1f1c97574d1f7c74b816f45e4",
    }

    @pytest.mark.parametrize("schedule", ["sync", "seq"])
    @pytest.mark.parametrize("policy", ["clamp", "kkt"])
    @pytest.mark.parametrize("lam", sorted(TINY_PRICES))
    def test_a_tiny_price_clamps_without_warnings(self, lam, policy, schedule, tmp_path, capsys):
        # The unconstrained responses overflow to inf or divide by an
        # underflowed 0; the box clamps them to its upper corner, silently.
        path = tmp_path / "tiny.scn"
        path.write_text(THREE_USER.replace("lambda = 1e-5", f"lambda = {lam}"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(path), "--policy", policy, "--schedule", schedule]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == self.TINY_PRICES[lam]
        assert captured.out.count("p_w = 3.0000000000e+00") == 3
        assert captured.out.count("r_bps = 4.7000000000e+04") == 3

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

    def test_choices_are_the_reference_targets(self):
        # The parser spells the targets out so that building it does not
        # import ``reference``; they must stay the ones ``reference`` runs.
        (sub,) = [a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)]
        (target,) = [a for a in sub.choices["reproduce"]._actions if a.dest == "target"]
        assert tuple(target.choices) == REPRODUCE_TARGETS + ("all",)

    def test_help_lists_every_target(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["reproduce", "--help"])
        assert exited.value.code == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(REPRODUCE_TARGETS + ("all",)) + "}" in out

    def test_python_dash_m_runs_the_command_line(self, monkeypatch, capsys):
        # ``python -m ratepower reproduce all``, run in process, as from a
        # fresh interpreter that has not imported the module yet.
        monkeypatch.setattr(sys, "argv", ["ratepower", "reproduce", "all"])
        monkeypatch.delitem(sys.modules, "ratepower.__main__", raising=False)
        with pytest.raises(SystemExit) as exited:
            runpy.run_module("ratepower", run_name="__main__")
        assert exited.value.code == 0
        out = capsys.readouterr().out
        assert out.count(": PASS (") == 8 and "FAIL" not in out


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

    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError(), "error: out of memory"),
            (MemoryError("Unable to allocate 745. GiB"), "error: Unable to allocate 745. GiB"),
        ],
    )
    def test_memory_error_is_an_error_line(self, three_user_file, exc, line, monkeypatch, capsys):
        # A grid too large for memory, as --steps 100000000000 asks for, is
        # refused by np.geomspace; the patch raises without allocating it.
        def refuse(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli.np, "geomspace", refuse)
        argv = ["sweep-lambda", three_user_file, "--from", "1e-5", "--to", "1e-3", "--steps", "100000000000"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [line]


class TestTuneAndRemove:
    def test_tune_pricing_reference(self, crowded_file, capsys):
        code = main(["tune-pricing", crowded_file, "--dc", "1e-4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "achieved" in out and "5.0000000000e-04" in out

    @pytest.mark.parametrize("dc", [None, 3e-5])
    def test_tune_pricing_without_pricing_escalates_from_the_uniform_lambda(self, dc, crowded_file, capsys):
        # With no [pricing] section the rule is constant at the users' one
        # lambda, and steps by --dc or else by a quarter of that lambda.
        scenario = parse_scenario(Path(crowded_file).read_text())
        rule = PricingRule("constant", 4e-4, dc=dc)
        want = escalate_pricing(scenario.channel, scenario.users, rule, scenario.config)
        assert want.tested[0] == 4e-4 and len(want.tested) > 1
        flags = [] if dc is None else ["--dc", repr(dc)]
        assert main(["tune-pricing", crowded_file, *flags]) == 0
        head = capsys.readouterr().out.splitlines()[0]
        assert head == f"tune-pricing: achieved c_final = {want.c_final:.10e} after {len(want.tested)} runs"

    @pytest.mark.parametrize("odd", [1, 6])
    def test_tune_pricing_without_pricing_refuses_mixed_lambdas(self, odd, tmp_path, capsys):
        path = tmp_path / "mixed.scn"
        blocks = SIX_USER_CROWDED.split("[user ")
        blocks[odd] = blocks[odd].replace("lambda = 4e-4", "lambda = 5e-4")
        path.write_text("[user ".join(blocks))
        assert main(["tune-pricing", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: tune-pricing without a [pricing] section needs a uniform user lambda"
        ]

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


# Every command that writes a file: the scenario fixture it runs and its
# arguments, SCN standing for the scenario and OUT for the file.
WRITERS = {
    "run --trace": ("three_user_file", ["run", "SCN", "--trace", "OUT"]),
    "run --summary": ("three_user_file", ["run", "SCN", "--summary", "OUT"]),
    "sweep-lambda --out": (
        "three_user_file",
        ["sweep-lambda", "SCN", "--from", "0.05", "--to", "0.2", "--steps", "3", "--out", "OUT"],
    ),
    "tune-pricing --summary": ("crowded_file", ["tune-pricing", "SCN", "--dc", "1e-4", "--summary", "OUT"]),
    "remove-loop --summary": ("three_user_file", ["remove-loop", "SCN", "--summary", "OUT"]),
}


class TestOutputFiles:
    """An existing output file is written over from its first byte and cut to length."""

    @pytest.mark.parametrize("command", WRITERS)
    def test_a_longer_file_is_written_over_and_cut(self, command, request, tmp_path, capsys):
        fixture, argv = WRITERS[command]
        scenario = request.getfixturevalue(fixture)

        def run(out):
            return main([{"SCN": scenario, "OUT": str(out)}.get(arg, arg) for arg in argv])

        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        reused.write_bytes(b"9" * 100_000)
        assert run(fresh) == run(reused) == 0
        assert 0 < len(fresh.read_bytes()) < 100_000
        assert reused.read_bytes() == fresh.read_bytes()

    def test_a_shorter_scenario_run_into_the_same_paths(self, tmp_path, capsys):
        def run(scenario, stem):
            trace, summary = tmp_path / f"{stem}.csv", tmp_path / f"{stem}.txt"
            argv = ["run", str(SCENARIO_DIR / scenario), "--trace", str(trace), "--summary", str(summary)]
            assert main(argv) == 0
            return trace.read_bytes(), summary.read_bytes()

        long_trace, long_summary = run("station_walk.scn", "out")
        short = run("three_users.scn", "out")
        assert run("three_users.scn", "fresh") == short
        assert len(short[0]) < len(long_trace) and len(short[1]) < len(long_summary)

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_a_device_is_written_but_not_cut(self, three_user_file, capsys):
        # /dev/null refuses ftruncate, and the writer does not try.
        assert main(["run", three_user_file, "--trace", "/dev/null", "--summary", "/dev/null"]) == 0

    @pytest.mark.skipif(sys.platform == "win32", reason="Windows refuses a directory with EACCES")
    @pytest.mark.parametrize("flag", ["--trace", "--summary"])
    def test_a_directory_destination_fails_cleanly(self, flag, three_user_file, tmp_path, capsys):
        assert main(["run", three_user_file, flag, str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    @pytest.mark.skipif(sys.platform == "win32", reason="no RLIMIT_FSIZE on Windows")
    def test_a_failed_flush_still_cuts_the_file(self, three_user_file, tmp_path, capsys):
        # A 256-byte file-size limit makes the last flush of a longer summary
        # fail part-way with EFBIG. The file is cut where the bytes that
        # reached it end, so no byte of the longer file it replaces survives.
        fresh, reused = tmp_path / "fresh.txt", tmp_path / "reused.txt"
        assert main(["run", three_user_file, "--summary", str(fresh)]) == 0
        assert len(fresh.read_bytes()) > 256
        reused.write_bytes(b"9" * 100_000)
        child = (
            "import resource, signal, sys\n"
            "from ratepower.cli import main\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (256, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = str(Path(inspect.getfile(main)).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-c", child, "run", three_user_file, "--summary", str(reused)]
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (1, "error: [Errno 27] File too large\n")
        assert reused.read_bytes() == fresh.read_bytes()[:256]

    def test_no_output_is_emptied_on_open(self, three_user_file, tmp_path, monkeypatch, capsys):
        # Emptying an existing file and refilling it costs several times the
        # write on a filesystem that discards freed blocks, so every output is
        # opened through os.open without O_TRUNC; a plain open(path, "wb")
        # would bypass the spy and fail the first assert.
        opened = {}
        real_open = os.open

        def spy(path, flags, *args, **kwargs):
            opened[os.fspath(path)] = flags
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        trace, summary, sweep = (str(tmp_path / name) for name in ("t.csv", "s.txt", "w.csv"))
        assert main(["run", three_user_file, "--trace", trace, "--summary", summary]) == 0
        sweep_argv = ["sweep-lambda", three_user_file, "--from", "0.05", "--to", "0.2", "--steps", "3"]
        assert main(sweep_argv + ["--out", sweep]) == 0
        assert {trace, summary, sweep} <= opened.keys()
        assert not [path for path, flags in opened.items() if flags & os.O_TRUNC]


# One invocation of every command, each writing to stdout only.
STDOUT_COMMANDS = {
    "run": ["run", str(SCENARIO_DIR / "three_users.scn")],
    "reproduce": ["reproduce", "all"],
    "sweep-lambda": [
        "sweep-lambda", str(SCENARIO_DIR / "three_users.scn"), "--from", "1e-5", "--to", "1e-4", "--steps", "3"
    ],
    "tune-pricing": ["tune-pricing", str(SCENARIO_DIR / "crowded_cell.scn")],
    "remove-loop": ["remove-loop", str(SCENARIO_DIR / "crowded_cell.scn")],
}


def run_with_closed_stdout(argv, unbuffered):
    """``python -m ratepower argv`` with stdout a pipe whose read end is closed: (exit code, stderr)."""
    src = str(Path(inspect.getfile(main)).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        argv = [sys.executable, "-m", "ratepower", *argv]
        done = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write)
    return done.returncode, done.stderr


@pytest.mark.skipif(sys.platform == "win32", reason="no EPIPE on a closed pipe on Windows")
class TestClosedStdout:
    """A reader that leaves early, as ``| head -1`` does, ends a command quietly."""

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", STDOUT_COMMANDS)
    def test_every_command_exits_1_with_nothing_on_stderr(self, command, unbuffered):
        assert run_with_closed_stdout(STDOUT_COMMANDS[command], unbuffered) == (1, "")

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("flag", ["--trace", "--summary"])
    def test_a_broken_pipe_on_an_output_file_is_an_error_line(self, flag, unbuffered):
        # The file is written before anything is printed, so the broken
        # pipe is the output file's, opened by its path.
        argv = ["run", str(SCENARIO_DIR / "three_users.scn"), flag, "/dev/stdout"]
        assert run_with_closed_stdout(argv, unbuffered) == (1, "error: [Errno 32] Broken pipe\n")
