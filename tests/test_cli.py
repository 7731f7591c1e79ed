from pathlib import Path

import pytest

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

    def test_lone_noise_free_user_fails_cleanly(self, tmp_path, capsys):
        lone = tmp_path / "lone.scn"
        lone.write_text("[network]\nnoise_w = 0\n\n[user a]\ndistances_m = 110\n")
        assert main(["run", str(lone)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "lone user with zero noise" in err


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

    def test_remove_loop_drops_cap_pinned_user(self, three_user_file, capsys):
        code = main(["remove-loop", three_user_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "removed: u3" in out
        assert "remaining: u1 u2" in out
