import io

import pytest

from ratepower.core import ChannelModel, UserParams
from ratepower.engine import (
    KKT,
    SEQUENTIAL,
    ConvergenceConfig,
    iterate_to_convergence,
)
from ratepower.scenario import (
    ScenarioFormatError,
    TRACE_HEADER,
    emit_trace,
    parse_scenario,
    recompute_sinrs,
    run_scenario,
    scenario_to_text,
    summary_to_text,
    sweep_lambda,
)

MINIMAL = """
[user alice]
distances_m = 110
"""

FULL = """
# five equidistant users under heavy pricing
[network]
bandwidth_hz = 1e6
noise_w = 5e-15
pathloss_exponent = 4
shadowing = 0.097

[user u1]
distances_m = 110
alpha1 = 1e6
alpha2 = 12.9492
lambda = 4e-4
p_min = 1e-6
p_max = 0.0647
r_min = 0.1
r_max = 96000

[user u2]
distances_m = 110
alpha2 = 12.9492
lambda = 4e-4
p_max = 0.0647
r_max = 96000

[run]
policy = clamp
schedule = synchronous
delta = 1e-9
max_iterations = 500
metric = relative
"""

TWO_CELL = """
[user near1]
distances_m = 110 410
alpha2 = 20

[user near2]
distances_m = 410 110
alpha2 = 20
"""


class TestParsing:
    def test_minimal_document_gets_all_defaults(self):
        s = parse_scenario(MINIMAL)
        assert s.user_names == ["alice"]
        assert s.channel.n_users == 1 and s.channel.n_stations == 1
        assert s.channel.bandwidth_hz == 1e6
        assert s.channel.noise_w == 5e-15
        assert s.channel.pathloss_exponent == 4.0
        assert s.channel.shadowing == 0.097
        assert s.policy == "clamp"
        assert s.schedule == "synchronous"
        assert s.config.delta == 1e-9
        assert s.config.max_iterations == 500
        assert s.users[0].initial_power == s.users[0].p_min

    def test_full_document_literal_values(self):
        s = parse_scenario(FULL)
        assert len(s.users) == 2
        assert s.users[0].alpha2 == 12.9492
        assert s.users[0].lam == 4e-4
        assert s.users[0].p_max == 0.0647
        assert s.users[1].alpha1 == 1e6  # default carried through

    def test_unknown_key_reports_line(self):
        bad = MINIMAL + "bandwidth = 5\n"
        with pytest.raises(ScenarioFormatError, match=r"line \d+.*bandwidth"):
            parse_scenario(bad)

    def test_unknown_section_rejected(self):
        with pytest.raises(ScenarioFormatError, match="unknown section"):
            parse_scenario("[users]\n")

    def test_dimension_mismatch_rejected(self):
        text = "[user a]\ndistances_m = 110 410\n\n[user b]\ndistances_m = 130\n"
        with pytest.raises(ScenarioFormatError, match="distances"):
            parse_scenario(text)

    def test_bound_violation_rejected(self):
        text = "[user a]\ndistances_m = 110\np_min = 2\np_max = 1\n"
        with pytest.raises(ScenarioFormatError, match="p_min"):
            parse_scenario(text)

    def test_per_station_lambda_mismatch_rejected(self):
        text = "[user a]\ndistances_m = 110 410\nlambda = 1e-4 2e-4\n"
        with pytest.raises(ScenarioFormatError, match="identical"):
            parse_scenario(text)

    def test_per_station_lambda_equal_collapses(self):
        text = "[user a]\ndistances_m = 110 410\nlambda = 1e-4 1e-4\n"
        assert parse_scenario(text).users[0].lam == 1e-4

    def test_duplicate_user_names_rejected(self):
        text = "[user a]\ndistances_m = 110\n\n[user a]\ndistances_m = 130\n"
        with pytest.raises(ScenarioFormatError, match="duplicate"):
            parse_scenario(text)

    def test_duplicate_key_rejected(self):
        text = "[user a]\ndistances_m = 110\nalpha2 = 20\nalpha2 = 25\n"
        with pytest.raises(ScenarioFormatError, match="duplicate key"):
            parse_scenario(text)

    def test_malformed_number_rejected(self):
        text = "[user a]\ndistances_m = abc\n"
        with pytest.raises(ScenarioFormatError, match="number"):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "text",
        [
            "[user a]\ndistances_m = 110\nalpha2 = nan\n",
            "[user a]\ndistances_m = 110\nlambda = inf\n",
            "[network]\nnoise_w = nan\n[user a]\ndistances_m = 110\n",
            "[user a]\ndistances_m = 110\n[run]\ndelta = nan\n",
        ],
    )
    def test_non_finite_number_rejected(self, text):
        with pytest.raises(ScenarioFormatError, match="finite"):
            parse_scenario(text)

    def test_arrival_and_move_cannot_mix(self):
        text = (
            MINIMAL
            + "[event arrival]\niteration = 5\nuser = bob\ndistances_m = 130\n"
            + "[event move]\nstep = 2\nuser = alice\ndistances_m = 150\n"
        )
        with pytest.raises(ScenarioFormatError, match="combined"):
            parse_scenario(text)

    def test_event_ordering_must_increase(self):
        text = (
            MINIMAL
            + "[event arrival]\niteration = 9\nuser = bob\ndistances_m = 130\n"
            + "[event arrival]\niteration = 5\nuser = carol\ndistances_m = 150\n"
        )
        with pytest.raises(ScenarioFormatError, match="strictly increase"):
            parse_scenario(text)

    def test_move_references_existing_user(self):
        text = MINIMAL + "[event move]\nstep = 2\nuser = nobody\ndistances_m = 150\n"
        with pytest.raises(ScenarioFormatError, match="unknown user"):
            parse_scenario(text)

    def test_gain_pricing_rejected_with_two_stations(self):
        text = TWO_CELL + "\n[pricing]\nrule = direct_gain\nc = 1e-4\n"
        with pytest.raises(ScenarioFormatError, match="gain"):
            parse_scenario(text)

    def test_rates_and_quantize_parsed(self):
        text = MINIMAL + "[run]\nrates = 9600 19200 38400\nquantize = at_convergence\n"
        s = parse_scenario(text)
        assert s.rate_set.rates == (9600.0, 19200.0, 38400.0)
        assert s.quantize_at_convergence


class TestRoundTrip:
    @pytest.mark.parametrize("text", [MINIMAL, FULL, TWO_CELL])
    def test_serialize_parse_is_stable(self, text):
        first = scenario_to_text(parse_scenario(text))
        second = scenario_to_text(parse_scenario(first))
        assert first == second

    def test_round_trip_with_events_and_pricing(self):
        text = (
            MINIMAL
            + "[run]\nrates = 9600 19200\n\n[pricing]\nrule = per_user_count\nc = 2e-5\ndc = 1e-5\n"
            + "[event arrival]\niteration = 10\nuser = bob\ndistances_m = 130\nalpha2 = 25\n"
        )
        first = scenario_to_text(parse_scenario(text))
        second = scenario_to_text(parse_scenario(first))
        assert first == second
        reparsed = parse_scenario(first)
        assert reparsed.arrivals[0].iteration == 10
        assert reparsed.pricing.kind == "per_user_count"


class TestRunScenario:
    def test_no_events_matches_direct_iteration(self):
        s = parse_scenario(FULL)
        trace, summary = run_scenario(s)
        direct = iterate_to_convergence(s.channel, s.users, s.policy, s.config, s.schedule)
        assert summary.converged
        assert summary.powers == pytest.approx(direct.final_powers, rel=1e-12)
        assert summary.rates == pytest.approx(direct.final_rates, rel=1e-12)

    def test_pricing_section_overrides_user_lambda(self):
        text = MINIMAL + "[pricing]\nrule = constant\nc = 5e-4\n"
        _, summary = run_scenario(parse_scenario(text))
        assert summary.lam[0] == pytest.approx(5e-4)

    def test_arrival_grows_the_network(self):
        text = (
            "[user a]\ndistances_m = 110\nalpha2 = 20\n\n"
            "[user b]\ndistances_m = 130\nalpha2 = 20\n\n"
            "[event arrival]\niteration = 15\nuser = c\ndistances_m = 130\nalpha2 = 20\n"
        )
        trace, summary = run_scenario(parse_scenario(text))
        assert summary.converged
        assert summary.user_names == ["a", "b", "c"]
        sizes = {rec.iteration: len(rec.user_ids) for rec in trace.records}
        assert sizes[14] == 2 and sizes[15] == 3

    def test_count_based_pricing_reprices_on_arrival(self):
        text = (
            "[user a]\ndistances_m = 110\nalpha2 = 20\n\n"
            "[pricing]\nrule = per_user_count\nc = 5e-5\n\n"
            "[event arrival]\niteration = 10\nuser = b\ndistances_m = 130\nalpha2 = 20\n"
        )
        _, summary = run_scenario(parse_scenario(text))
        assert summary.converged
        # both users priced at c * 2 once the second one is transmitting
        assert summary.lam == pytest.approx([1e-4, 1e-4])

    def test_arrival_needs_single_station(self):
        text = (
            TWO_CELL
            + "[event arrival]\niteration = 5\nuser = late\ndistances_m = 200 200\n"
        )
        with pytest.raises(ValueError, match="single-station"):
            run_scenario(parse_scenario(text))

    def test_moves_produce_per_step_summaries(self):
        text = (
            MINIMAL
            + "[event move]\nstep = 2\nuser = alice\ndistances_m = 150\n"
            + "[event move]\nstep = 3\nuser = alice\ndistances_m = 200\n"
        )
        trace, summary = run_scenario(parse_scenario(text))
        assert [sr.step for sr in summary.steps] == [1, 2, 3]
        assert all(sr.converged for sr in summary.steps)
        iters = [rec.iteration for rec in trace.records]
        assert iters == sorted(iters) and len(set(iters)) == len(iters)

    def test_sweep_lambda_sets_uniform_price(self):
        s = parse_scenario(FULL)
        results = sweep_lambda(s, [4e-4, 8e-4])
        assert [lam for lam, _, _ in results] == [4e-4, 8e-4]
        assert all(summary.converged for _, _, summary in results)
        assert results[1][2].lam[0] == pytest.approx(8e-4)


class TestTraceOutput:
    def run_three_iterations(self):
        channel = ChannelModel([110, 130])
        users = [UserParams(alpha2=20, lam=1e-4) for _ in range(2)]
        config = ConvergenceConfig(delta=1e-30, max_iterations=3)
        return iterate_to_convergence(channel, users, config=config)

    def test_header_and_row_count(self):
        trace = self.run_three_iterations()
        buf = io.StringIO()
        emit_trace(trace, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 1 + 2 * 3

    def test_single_cell_station_column_constant(self):
        trace = self.run_three_iterations()
        buf = io.StringIO()
        emit_trace(trace, buf)
        stations = {row.split(",")[2] for row in buf.getvalue().strip().split("\n")[1:]}
        assert stations == {"0"}

    def test_reruns_are_byte_identical(self):
        s = parse_scenario(FULL)
        outputs = []
        for _ in range(2):
            trace, _ = run_scenario(s)
            buf = io.StringIO()
            emit_trace(trace, buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]

    def test_floats_carry_enough_digits(self):
        trace = self.run_three_iterations()
        buf = io.StringIO()
        emit_trace(trace, buf)
        p_field = buf.getvalue().strip().split("\n")[1].split(",")[3]
        mantissa = p_field.split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) >= 9

    def test_file_destination(self, tmp_path):
        trace = self.run_three_iterations()
        path = tmp_path / "trace.csv"
        emit_trace(trace, path)
        assert path.read_text().startswith(TRACE_HEADER)


class TestSummary:
    def test_recomputed_sinrs_match_summary(self):
        for text in (FULL, TWO_CELL):
            s = parse_scenario(text)
            trace, summary = run_scenario(s)
            recomputed = recompute_sinrs(s.channel, trace.final)
            assert recomputed == pytest.approx(summary.sinrs, rel=1e-9)

    def test_summary_text_fields(self):
        s = parse_scenario(FULL)
        _, summary = run_scenario(s)
        text = summary_to_text(summary)
        assert "converged = true" in text
        assert "u1.p_w = " in text
        assert "u2.outcome = at_target" in text

    def test_policy_and_schedule_respected(self):
        s = parse_scenario(FULL)
        s.policy = KKT
        s.schedule = SEQUENTIAL
        _, summary = run_scenario(s)
        assert summary.converged
