import functools
import io
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ratepower import encoder, reference, scenario as scenario_module
from ratepower.admission import GAIN_DEPENDENT_KINDS, PRICING_KINDS, PricingRule, priced_users
from ratepower.core import ChannelModel, UserParams
from ratepower.engine import (
    CLAMP,
    HISTORY_FULL,
    KKT,
    SEQUENTIAL,
    SYNCHRONOUS,
    ConvergenceConfig,
    IterationRecord,
    IterationTrace,
    Segment,
    iterate_to_convergence,
)
from ratepower.oracle import recompute_sinrs
from ratepower.rates import RateSet
from ratepower.scenario import (
    ArrivalEvent,
    MoveEvent,
    Scenario,
    ScenarioFormatError,
    TRACE_HEADER,
    emit_trace,
    parse_scenario,
    run_scenario,
    scenario_to_text,
    summarize_run,
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

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED_SCENARIOS = sorted(SCENARIO_DIR.glob("*.scn"))

TWO_CELL = """
[user near1]
distances_m = 110 410
alpha2 = 20

[user near2]
distances_m = 410 110
alpha2 = 20
"""


def run_full_history(scenario):
    """``run_scenario`` keeping every iteration's row, as ``run --trace`` does."""
    return run_scenario(replace(scenario, config=replace(scenario.config, history=HISTORY_FULL)))


class TestParsing:
    def test_minimal_document_gets_all_defaults(self):
        s = parse_scenario(MINIMAL)
        assert s.user_names == ["alice"]
        assert s.channel.n_users == 1 and s.channel.n_stations == 1
        assert s.channel.bandwidth_hz == 1e6
        assert s.channel.noise_w == 5e-15
        assert s.channel.pathloss_exponent == 4.0
        assert s.channel.shadowing == 0.097
        assert s.config.policy == "clamp"
        assert s.config.schedule == "synchronous"
        assert s.config.delta == 1e-9
        assert s.config.max_iterations == 500
        assert s.users[0].initial_power == s.users[0].p_min

    @pytest.mark.parametrize("kind", ["constant", "per_user_count", "inverse_gain"])
    def test_absent_keys_take_the_dataclass_defaults(self, kind):
        # Every default lives on its dataclass; the parser passes only the
        # keys a section holds.
        s = parse_scenario(MINIMAL + f"[network]\n\n[run]\n\n[pricing]\nrule = {kind}\n")
        assert repr(s.channel) == repr(ChannelModel([110.0]))
        assert s.config == ConvergenceConfig()
        assert s.pricing == PricingRule(kind)

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

    @pytest.mark.parametrize("mode", ["per_iteration", "at_convergence"])
    def test_quantize_without_rates_rejected(self, mode):
        text = MINIMAL + f"[run]\nquantize = {mode}\n"
        with pytest.raises(ScenarioFormatError, match="^line 5: quantize needs a rates ladder$"):
            parse_scenario(text)

    def test_rates_and_quantize_parsed(self):
        text = MINIMAL + "[run]\nrates = 9600 19200 38400\nquantize = at_convergence\n"
        s = parse_scenario(text)
        assert s.config.rate_set.rates == (9600.0, 19200.0, 38400.0)
        assert s.config.quantize_at_convergence


# One user on one station, lines 1-2, as the head of most bad documents below.
ONE = "[user a]\ndistances_m = 110\n"
ARRIVAL = "[event arrival]\niteration = 5\nuser = b\ndistances_m = 130\n"
MOVE = "[event move]\nstep = 2\nuser = a\ndistances_m = 150\n"

# Every way a document is refused, with its full message: one bad document
# per check of the parser.
FORMAT_ERRORS = {
    "malformed_header": ("[user a\n", "line 1: malformed section header '[user a'"),
    "not_key_value": (
        "[user a]\ndistances_m 110\n",
        "line 2: expected 'key = value', got 'distances_m 110'",
    ),
    "key_outside_section": ("distances_m = 110\n", "line 1: key outside any section"),
    "empty_value": ("[user a]\ndistances_m =\n", "line 2: empty key or value"),
    "duplicate_key": (ONE + "distances_m = 120\n", "line 3: duplicate key 'distances_m'"),
    "bad_user_header_name": (
        "[user a-b]\ndistances_m = 110\n",
        "line 1: user names must be alphanumeric/underscore, got 'a-b'",
    ),
    "unknown_section": ("[users]\n", "line 1: unknown section [users]"),
    "duplicate_singleton": (ONE + "[run]\n[run]\n", "line 4: duplicate [run] section"),
    "unknown_key": (ONE + "bandwidth = 5\n", "line 3: unknown key 'bandwidth' in [user a]"),
    "unknown_event_key": (
        ONE + MOVE + "alpha2 = 20\n",
        "line 7: unknown key 'alpha2' in [event move]",
    ),
    "no_users": ("[run]\ndelta = 1e-6\n", "scenario declares no [user ...] sections"),
    "duplicate_user_names": (
        ONE + "\n[user a]\ndistances_m = 130\n",
        "line 4: duplicate user name 'a'",
    ),
    "user_missing_distances": ("[user a]\nalpha2 = 20\n", "line 1: user 'a' is missing distances_m"),
    "user_distance_count": (
        "[user a]\ndistances_m = 110 410\n[user b]\ndistances_m = 130\n",
        "line 4: user 'b' has 1 distances, expected 2",
    ),
    "channel_refused": (
        "[network]\nshadowing = -1\n" + ONE,
        "[network]: shadowing must be positive",
    ),
    "ladder_refused": (ONE + "[run]\nrates = -5\n", "line 4: all admissible rates must be positive"),
    "quantize_without_rates": (
        ONE + "[run]\nquantize = per_iteration\n",
        "line 4: quantize needs a rates ladder",
    ),
    "quantize_mode": (
        ONE + "[run]\nrates = 9600\nquantize = never\n",
        "line 5: quantize must be one of ['at_convergence', 'per_iteration']",
    ),
    "config_refused": (ONE + "[run]\ndelta = -1\n", "[run]: delta must be positive"),
    "pricing_rule": (
        ONE + "[pricing]\nrule = flat\n",
        "line 4: pricing rule must be one of ('constant', 'per_user_count', 'direct_gain', "
        "'inverse_gain', 'target_ratio', 'inverse_target_ratio')",
    ),
    "pricing_refused": (
        ONE + "[pricing]\nc = -1\n",
        "[pricing]: pricing coefficient c must be positive",
    ),
    "gain_pricing_on_two_stations": (
        "[user a]\ndistances_m = 110 410\n[pricing]\nrule = inverse_gain\n",
        "line 4: gain-dependent pricing cannot be used with 2 stations",
    ),
    "arrival_keys": (
        ONE + "[event arrival]\nuser = b\ndistances_m = 130\n",
        "line 3: arrival needs iteration and user keys",
    ),
    "arrival_iteration": (
        ONE + ARRIVAL.replace("iteration = 5", "iteration = 0"),
        "line 3: arrival iteration must be >= 1",
    ),
    "arrival_order": (
        ONE + ARRIVAL + ARRIVAL.replace("user = b", "user = c"),
        "line 7: arrival iterations must strictly increase",
    ),
    "arrival_name_taken": (
        ONE + ARRIVAL.replace("user = b", "user = a"),
        "line 3: arrival user name 'a' already used",
    ),
    "arrival_name": (
        ONE + ARRIVAL.replace("user = b", "user = a=b"),
        "line 5: user names must be alphanumeric/underscore, got 'a=b'",
    ),
    "arrival_missing_distances": (
        ONE + "[event arrival]\niteration = 5\nuser = b\n",
        "line 3: arrival is missing distances_m",
    ),
    "arrival_distance_count": (
        ONE + ARRIVAL.replace("130", "130 140"),
        "line 3: arrival has 2 distances, expected 1",
    ),
    "arrival_distance_not_positive": (
        ONE + ARRIVAL.replace("130", "0"),
        "line 6: arrival distances must be positive",
    ),
    "move_keys": (
        ONE + "[event move]\nstep = 2\nuser = a\n",
        "line 3: move needs step, user and distances_m keys",
    ),
    "move_step": (ONE + MOVE.replace("step = 2", "step = 0"), "line 3: move step must be >= 1"),
    "move_order": (ONE + MOVE + MOVE, "line 7: move steps must strictly increase"),
    "move_unknown_user": (
        ONE + MOVE.replace("user = a", "user = nobody"),
        "line 3: move references unknown user 'nobody'",
    ),
    "move_distance_count": (
        ONE + MOVE.replace("150", "150 160"),
        "line 3: move has 2 distances, expected 1",
    ),
    "move_distance_not_positive": (
        "[user a]\ndistances_m = 110 410\n" + MOVE.replace("150", "150 -5"),
        "line 6: move distances must be positive",
    ),
    "not_a_number": ("[user a]\ndistances_m = 110 abc\n", "line 2: expected a number, got 'abc'"),
    "not_finite": (ONE + "alpha2 = inf\n", "line 3: expected a finite number, got 'inf'"),
    "network_not_finite": (
        "[network]\nnoise_w = nan\n" + ONE,
        "line 2: expected a finite number, got 'nan'",
    ),
    "ladder_not_a_number": (ONE + "[run]\nrates = abc\n", "line 4: expected a number, got 'abc'"),
    "event_distance_not_finite": (
        ONE + MOVE.replace("150", "1e400"),
        "line 6: expected a finite number, got '1e400'",
    ),
    "not_an_integer": (
        ONE + "[run]\nmax_iterations = 1.5\n",
        "line 4: expected an integer, got '1.5'",
    ),
    "choice": (
        ONE + "[run]\nschedule = async\n",
        "line 4: schedule must be one of ['seq', 'sequential', 'sync', 'synchronous']",
    ),
    "per_station_lambda": (
        "[user a]\ndistances_m = 110 410\nlambda = 1e-4 2e-4\n",
        "line 3: user 'a' pricing must be identical across stations",
    ),
    "user_refused": (
        ONE + "p_min = 2\np_max = 1\n",
        "line 1: user 'a': need 0 < p_min <= p_max, got [2.0, 1.0]",
    ),
    "arrival_user_refused": (
        ONE + ARRIVAL + "alpha1 = -1\n",
        "line 3: user 'b': alpha1 and alpha2 must be positive",
    ),
    "ladder_misses_user": (
        ONE + "r_max = 47000\n[run]\nrates = 50000 96000\n",
        "line 1: user 'a': rate box [0.1, 47000.0] holds no rung of the rate ladder",
    ),
    "ladder_misses_arrival": (
        ONE + "[run]\nrates = 9600\n" + ARRIVAL + "r_min = 1e4\n",
        "line 5: user 'b': rate box [10000.0, 96000.0] holds no rung of the rate ladder",
    ),
}


@pytest.mark.parametrize("name", sorted(FORMAT_ERRORS))
def test_every_format_error_message_is_pinned(name):
    text, message = FORMAT_ERRORS[name]
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(text)
    assert str(info.value) == message


# Documents with several faults. The users' faults are reported by kind, each
# kind's first in file order: names and missing distances, then numbers, then
# distance counts and per-station lambdas, then a user's constants; then the
# [network], [run] (with the ladder), [pricing] and event sections.
SEVERAL_FAULTS = {
    "number_after_a_bad_user": (
        "[user a]\ndistances_m = 110\np_min = 2\np_max = 1\n[user b]\ndistances_m = abc\n",
        "line 6: expected a number, got 'abc'",
    ),
    "name_after_a_bad_number": (
        "[user a]\ndistances_m = 110\nalpha2 = x\n[user a]\ndistances_m = 120\n",
        "line 4: duplicate user name 'a'",
    ),
    "count_after_a_bad_user": (
        "[user a]\ndistances_m = 110\nalpha1 = -1\n[user b]\ndistances_m = 1 2\n",
        "line 5: user 'b' has 2 distances, expected 1",
    ),
    "first_bad_user": (
        "[user a]\ndistances_m = 110\n[user b]\ndistances_m = 120\nalpha1 = -1\n"
        "[user c]\ndistances_m = 130\nlambda = -1\n",
        "line 3: user 'b': alpha1 and alpha2 must be positive",
    ),
}


@pytest.mark.parametrize("name", sorted(SEVERAL_FAULTS))
def test_the_first_fault_of_each_kind_is_reported(name):
    text, message = SEVERAL_FAULTS[name]
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(text)
    assert str(info.value) == message


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_parses_and_shows_every_key():
    # The example under "Scenario files" is a working document, and each of
    # its sections shows exactly the keys the schema gives that section. An
    # arrival shows its own keys and some of the [user] keys it also takes.
    block = re.search(r"## Scenario files\n.*?```ini\n(.*?)```", README.read_text(), re.S).group(1)
    s = parse_scenario(block)
    assert s.pricing is not None and s.arrivals and s.moves
    shown = {}
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            tokens = line[1:-1].split()
            keys = shown.setdefault("user" if tokens[0] == "user" else " ".join(tokens), set())
        elif line:
            keys.add(line.partition("=")[0].strip())
    schema = scenario_module._SCHEMA
    assert shown.keys() == schema.keys()
    user_keys = set(schema["user"])
    assert shown.pop("event arrival") - user_keys == set(schema["event arrival"])
    assert shown == {kind: set(schema[kind]) for kind in shown}


finite = functools.partial(st.floats, allow_nan=False, allow_infinity=False)
# Names as [user NAME] takes them: word characters, not only underscores.
NAMES = st.text("abcxyzABZ0189_", min_size=1, max_size=6).filter(lambda name: name.strip("_"))


@st.composite
def user_params(draw):
    p_min, p_max = sorted(draw(st.lists(finite(1e-9, 10.0), min_size=2, max_size=2)))
    r_min, r_max = sorted(draw(st.lists(finite(1e-3, 1e6), min_size=2, max_size=2)))
    inits = {}
    if draw(st.booleans()):
        inits["p_init"] = draw(finite(p_min, p_max))
    if draw(st.booleans()):
        inits["r_init"] = draw(finite(r_min, r_max))
    return UserParams(
        alpha1=draw(finite(1.0, 1e8)),
        alpha2=draw(finite(1e-3, 1e3)),
        lam=draw(finite(1e-12, 1.0)),
        p_min=p_min,
        p_max=p_max,
        r_min=r_min,
        r_max=r_max,
        **inits,
    )


@st.composite
def scenarios(draw):
    """Any valid Scenario value: 1-4 stations, 1-6 users, 0-2 arrivals and 0-2 moves."""
    n_stations = draw(st.integers(1, 4))
    rows = st.lists(finite(1.0, 5000.0), min_size=n_stations, max_size=n_stations)
    names = draw(st.lists(NAMES, min_size=1, max_size=8, unique=True))
    n_users = draw(st.integers(1, min(6, len(names))))
    channel = ChannelModel(
        np.array(draw(st.lists(rows, min_size=n_users, max_size=n_users))),
        pathloss_exponent=draw(finite(2.0, 5.0)),
        shadowing=draw(finite(0.01, 1.0)),
        noise_w=draw(finite(0.0, 1e-9)),
        bandwidth_hz=draw(finite(1e3, 1e8)),
    )
    users = [draw(user_params()) for _ in range(n_users)]
    iterations = sorted(draw(st.sets(st.integers(1, 1000), max_size=min(2, len(names) - n_users))))
    arrivals = [
        ArrivalEvent(at, name, np.array(draw(rows)), draw(user_params()))
        for at, name in zip(iterations, names[n_users:])
    ]
    ladder = {}
    if draw(st.booleans()):
        # A ladder holds a rung in every user's rate box.
        boxed = [draw(finite(u.r_min, u.r_max)) for u in users + [ev.user for ev in arrivals]]
        rungs = draw(st.lists(finite(1.0, 1e6), max_size=5)) + boxed
        ladder = {"rate_set": RateSet(tuple(rungs)), "quantize_at_convergence": draw(st.booleans())}
    config = ConvergenceConfig(
        delta=draw(finite(1e-12, 1.0)),
        max_iterations=draw(st.integers(1, 10_000)),
        metric=draw(st.sampled_from(["relative", "absolute"])),
        policy=draw(st.sampled_from([CLAMP, KKT])),
        schedule=draw(st.sampled_from([SYNCHRONOUS, SEQUENTIAL])),
        **ladder,
    )
    kinds = [k for k in PRICING_KINDS if n_stations == 1 or k not in GAIN_DEPENDENT_KINDS]
    pricing = draw(
        st.none()
        | st.builds(
            PricingRule,
            st.sampled_from(kinds),
            finite(1e-9, 1.0),
            st.none() | finite(1e-9, 1.0),
        )
    )
    moves = [
        MoveEvent(at, user, names[user], np.array(draw(rows)))
        for at, user in zip(
            sorted(draw(st.sets(st.integers(1, 1000), max_size=2))),
            draw(st.lists(st.integers(0, n_users - 1), min_size=2, max_size=2)),
        )
    ]
    return Scenario(
        channel=channel,
        users=users,
        user_names=names[:n_users],
        config=config,
        pricing=pricing,
        arrivals=arrivals,
        moves=moves,
    )


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(scenarios())
    def test_every_scenario_value_survives_its_text(self, s):
        text = scenario_to_text(s)
        got = parse_scenario(text)
        assert scenario_to_text(got) == text
        for name in ("pathloss_exponent", "shadowing", "noise_w", "bandwidth_hz"):
            assert getattr(got.channel, name) == getattr(s.channel, name)
        np.testing.assert_array_equal(got.channel.distances_m, s.channel.distances_m)
        assert got.users == s.users
        assert got.user_names == s.user_names
        assert got.config == s.config
        assert got.pricing == s.pricing
        assert len(got.arrivals) == len(s.arrivals)
        for a, b in zip(got.arrivals, s.arrivals):
            assert (a.iteration, a.name, a.user) == (b.iteration, b.name, b.user)
            np.testing.assert_array_equal(a.distances_m, b.distances_m)
        assert len(got.moves) == len(s.moves)
        for a, b in zip(got.moves, s.moves):
            assert (a.step, a.user, a.user_name) == (b.step, b.user, b.user_name)
            np.testing.assert_array_equal(a.distances_m, b.distances_m)

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


REFERENCE_BUILDERS = {
    **{f"table1_lam{lam:g}": functools.partial(reference.table1_scenario, lam) for lam in (1e-5, 1e-4)},
    "table1_removal": reference.table1_removal_scenario,
    **{f"table2_{v}": functools.partial(reference.table2_scenario, v) for v in (1, 2)},
    **{f"table3_{m}": functools.partial(reference.table3_scenario, m) for m in range(3, 8)},
    **{
        f"table4_d{d:g}_lam{lam:g}": functools.partial(reference.table4_scenario, d, lam)
        for d, lam, *_ in reference.TABLE4_ROWS
    },
    "fig1": reference.fig1_scenario,
    "fig2": reference.fig2_scenario,
    "fig3": reference.fig3_scenario,
    "fig4": reference.fig4_scenario,
}


class TestReferenceScenarios:
    """Every built-in experiment, built as a value, is also a valid scenario document."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_BUILDERS))
    def test_is_a_stable_scenario_document(self, name):
        s = REFERENCE_BUILDERS[name]()
        text = scenario_to_text(s)
        parsed = parse_scenario(text)
        assert scenario_to_text(parsed) == text
        np.testing.assert_array_equal(parsed.channel.distances_m, s.channel.distances_m)
        assert parsed.users == s.users
        assert parsed.user_names == s.user_names
        assert parsed.config == s.config
        assert parsed.pricing == s.pricing
        assert len(parsed.arrivals) == len(s.arrivals)
        for got, want in zip(parsed.arrivals, s.arrivals):
            assert (got.iteration, got.name, got.user) == (want.iteration, want.name, want.user)
            np.testing.assert_array_equal(got.distances_m, want.distances_m)
        assert len(parsed.moves) == len(s.moves)
        for got, want in zip(parsed.moves, s.moves):
            assert (got.step, got.user, got.user_name) == (want.step, want.user, want.user_name)
            np.testing.assert_array_equal(got.distances_m, want.distances_m)


class TestRunScenario:
    def test_no_events_matches_direct_iteration(self):
        s = parse_scenario(FULL)
        trace, summary = run_scenario(s)
        direct = iterate_to_convergence(s.channel, s.users, s.config)
        assert summary.converged
        assert summary.powers == pytest.approx(direct.final_powers, rel=1e-12)
        assert summary.rates == pytest.approx(direct.final_rates, rel=1e-12)

    def test_a_move_of_a_missing_user_is_refused(self):
        s = parse_scenario(MINIMAL)
        moved = replace(s, moves=[MoveEvent(2, -1, "ghost", np.array([150.0]))])
        with pytest.raises(ValueError, match=r"^user index -1 is outside \[0, 1\)$"):
            run_scenario(moved)

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
        trace, summary = run_full_history(parse_scenario(text))
        assert summary.converged
        assert summary.user_names == ["a", "b", "c"]
        sizes = {rec.iteration: len(rec.powers) for rec in trace.records}
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
        # and the run solved at that price: it ends where a solve of both users does
        users = [UserParams(alpha2=20, lam=1e-4), UserParams(alpha2=20, lam=1e-4)]
        direct = iterate_to_convergence(ChannelModel([110, 130]), users)
        assert summary.powers == pytest.approx(direct.final_powers, rel=1e-6)
        assert summary.rates == pytest.approx(direct.final_rates, rel=1e-6)

    def test_arrival_on_two_stations(self):
        text = (
            TWO_CELL
            + "[event arrival]\niteration = 5\nuser = late\ndistances_m = 400 120\nalpha2 = 20\n"
        )
        trace, summary = run_full_history(parse_scenario(text))
        assert summary.converged
        assert summary.user_names == ["near1", "near2", "late"]
        assert list(summary.assignment) == [0, 1, 1]
        assert "late.bs = 1" in summary_to_text(summary)
        # the newcomer joins on station 0 and moves to the nearer one on its first step
        first = next(rec for rec in trace.records if rec.iteration == 5)
        assert len(first.powers) == 3 and first.assignment[2] == 1

    def test_moves_produce_per_step_summaries(self):
        text = (
            MINIMAL
            + "[event move]\nstep = 2\nuser = alice\ndistances_m = 150\n"
            + "[event move]\nstep = 3\nuser = alice\ndistances_m = 200\n"
        )
        trace, summary = run_full_history(parse_scenario(text))
        assert [sr.step for sr in summary.steps] == [1, 2, 3]
        # The run converges only when every step does.
        assert summary.converged
        iters = [rec.iteration for rec in trace.records]
        assert iters == sorted(iters) and len(set(iters)) == len(iters)

    def test_arrival_and_moves_share_one_timeline(self):
        # station_walk's five users and eleven steps, plus a user joining step 1
        text = (SCENARIO_DIR / "station_walk.scn").read_text() + (
            "\n[event arrival]\niteration = 5\nuser = late\n"
            "distances_m = 400 120\nalpha2 = 20\n"
        )
        first = parse_scenario(text)
        for s in (first, parse_scenario(scenario_to_text(first))):
            trace, summary = run_full_history(s)
            n = len(s.users) + 1
            assert summary.converged
            assert summary.user_names == ["u1", "u2", "u3", "u4", "u5", "late"]
            assert len(summary.powers) == len(summary.lam) == len(summary.outcomes) == n
            assert [sr.step for sr in summary.steps] == list(range(1, 12))
            for sr in summary.steps:
                assert len(sr.powers) == len(sr.rates) == len(sr.sinrs) == n
                assert len(sr.assignment) == n
            assert [rec.iteration for rec in trace.records] == list(
                range(1, summary.iterations_used + 1)
            )
            steps = [rec.step for rec in trace.records]
            assert steps == sorted(steps) and sorted(set(steps)) == list(range(1, 12))
            # the newcomer joins at iteration 5 and stays for every later step
            sizes = [len(rec.powers) for rec in trace.records]
            assert sizes[:4] == [n - 1] * 4 and sizes[4:] == [n] * (len(sizes) - 4)
            assert trace.channel.n_users == len(trace.users) == n

    @pytest.mark.parametrize("arrival", [False, True])
    def test_in_place_restamp_does_not_leak_into_a_rerun(self, arrival):
        # Later steps' segments are re-stamped with their step and iteration
        # offset; a second run of the same Scenario must number and fill its
        # records as the first did.
        text = (SCENARIO_DIR / "station_walk.scn").read_text()
        if arrival:
            text += "\n[event arrival]\niteration = 5\nuser = late\ndistances_m = 400 120\n"
        s = parse_scenario(text)
        first, _ = run_full_history(s)
        second, _ = run_full_history(s)
        stamps = [(rec.iteration, rec.step) for rec in first.records]
        assert stamps == [(rec.iteration, rec.step) for rec in second.records]
        assert [it for it, _ in stamps] == list(range(1, first.iterations_used + 1))
        assert {step for _, step in stamps} == set(range(1, 12))
        for a, b in zip(first.records, second.records):
            for name in ("assignment", "powers", "rates", "sinrs", "utilities"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
            assert a.metric == b.metric
        step1 = iterate_to_convergence(s.channel, s.users, s.config, arrivals=s.arrivals)
        n1 = step1.iterations_used
        assert [rec.step for rec in second.records[: n1 + 1]] == [1] * n1 + [2]

    def test_trace_carries_the_grown_network(self):
        text = (
            "[user a]\ndistances_m = 110\nalpha2 = 20\n\n"
            "[pricing]\nrule = per_user_count\nc = 5e-5\n\n"
            "[event arrival]\niteration = 10\nuser = b\ndistances_m = 130\nalpha2 = 25\n"
        )
        s = parse_scenario(text)
        trace, summary = run_scenario(s)
        grown = s.channel.with_user(s.arrivals[0].distances_m)
        assert np.array_equal(trace.channel.distances_m, grown.distances_m)
        assert np.array_equal(trace.channel.gains, grown.gains)
        assert trace.channel.noise_w == grown.noise_w
        assert trace.channel.bandwidth_hz == grown.bandwidth_hz
        assert trace.users == priced_users(s.pricing, grown, s.users.with_user(s.arrivals[0].user))
        assert [u.lam for u in trace.users] == pytest.approx([1e-4, 1e-4])
        assert list(summary.lam) == [u.lam for u in trace.users]

    def test_sweep_lambda_prices_arriving_users(self):
        s = parse_scenario((SCENARIO_DIR / "new_user.scn").read_text())
        [(lam, trace, summary)] = sweep_lambda(s, [0.05])
        assert summary.user_names == ["u1", "u2", "u3", "u4"]
        assert list(summary.lam) == [0.05] * 4
        assert [u.lam for u in trace.users] == [0.05] * 4

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
        config = ConvergenceConfig(delta=1e-30, max_iterations=3, history=HISTORY_FULL)
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
            trace, _ = run_full_history(s)
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
        # A trace that kept only each segment's last row is refused before
        # anything is written, to a file or a stream.
        config = ConvergenceConfig(delta=1e-30, max_iterations=3)
        last = iterate_to_convergence(trace.channel, trace.users, config=config)
        buf = io.StringIO()
        for destination in (tmp_path / "last.csv", buf):
            with pytest.raises(ValueError, match="^the trace keeps only each segment's last row"):
                emit_trace(last, destination)
        assert not (tmp_path / "last.csv").exists() and buf.getvalue() == ""


def per_field_trace(trace):
    """The CSV trace formatted field by field, as the writer's golden oracle."""

    def fmt(x):
        return format(float(x), ".10e")

    lines = [TRACE_HEADER]
    for rec in trace.records:
        for k in range(len(rec.powers)):
            lines.append(
                ",".join(
                    [
                        str(rec.iteration),
                        str(k),
                        str(int(rec.assignment[k])),
                        fmt(rec.powers[k]),
                        fmt(rec.rates[k]),
                        fmt(rec.sinrs[k]),
                        fmt(rec.utilities[k]),
                        fmt(rec.metric),
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def written_trace(trace):
    buf = io.StringIO()
    emit_trace(trace, buf)
    return buf.getvalue()


# Zeros, subnormals, negatives and values that round up to the next power of
# ten at 11 significant digits.
AWKWARD_FLOATS = [0.0, -0.0, 5e-324, -2.5e-310, 9.99999999996e-5, -9.99999999999951e10, 1.0, -3.5]
FLOATS = st.one_of(st.sampled_from(AWKWARD_FLOATS), st.floats())


@st.composite
def records(draw):
    """A trace of 0-4 drawn segments, each of 1-3 iterations of 0-5 users."""
    out = []
    for _ in range(draw(st.integers(0, 4))):
        n_iterations, n = draw(st.integers(1, 3)), draw(st.integers(0, 5))

        def column(elements, dtype):
            values = [[draw(elements) for _ in range(n)] for _ in range(n_iterations)]
            return np.array(values, dtype=dtype).reshape(n_iterations, n)

        iterations = np.array([draw(st.integers(1, 10**6)) for _ in range(n_iterations)])
        assignment = column(st.integers(0, 10**4), int)
        floats = [column(FLOATS, float) for _ in range(4)]
        metrics = np.array([draw(FLOATS) for _ in range(n_iterations)])
        out.append(Segment(1, iterations, assignment, *floats, metrics))
    return IterationTrace(out, False, sum(len(seg.iterations) for seg in out))


def constant_segment(value, metric, iteration=7):
    """One iteration of three users whose four float columns all hold ``value``."""
    c = np.full((1, 3), value)
    return Segment(1, np.array([iteration]), np.zeros((1, 3), dtype=int), c, c, c, c, np.array([metric]))


class TestTraceWriterGolden:
    @pytest.mark.parametrize("policy", [CLAMP, KKT])
    @pytest.mark.parametrize("schedule", [SYNCHRONOUS, SEQUENTIAL])
    @pytest.mark.parametrize("path", SHIPPED_SCENARIOS, ids=lambda p: p.stem)
    def test_shipped_scenarios(self, path, schedule, policy):
        scenario = parse_scenario(path.read_text())
        config = replace(scenario.config, policy=policy, schedule=schedule)
        trace, _ = run_full_history(replace(scenario, config=config))
        assert written_trace(trace) == per_field_trace(trace)

    def test_shipped_traces_cover_growing_and_offset_records(self):
        traces = {p.stem: run_full_history(parse_scenario(p.read_text()))[0] for p in SHIPPED_SCENARIOS}
        sizes = [len(rec.powers) for rec in traces["new_user"].records]
        assert sizes[0] < sizes[-1]
        walk = traces["station_walk"].records
        # Move steps number their iterations on from the previous step's last.
        assert len({rec.step for rec in walk}) > 1
        assert [rec.iteration for rec in walk] == list(range(1, len(walk) + 1))

    def test_rate_ladder_run(self):
        ladder = (0.1, 9600.0, 19200.0, 38400.0, 96000.0)
        text = TWO_CELL + "[run]\nrates = " + " ".join(map(str, ladder)) + "\n"
        trace, _ = run_full_history(parse_scenario(text))
        assert set(np.concatenate([rec.rates for rec in trace.records]).tolist()) <= set(ladder)
        assert written_trace(trace) == per_field_trace(trace)

    @settings(max_examples=200, deadline=None)
    @given(records())
    @example(IterationTrace([constant_segment(-3.5, 0.0)], True, 1))
    @example(IterationTrace([constant_segment(5e-324, 9.99999999996e-5)], True, 1))
    @example(IterationTrace([constant_segment(9.99999999996e-5, -2.5e-310, iteration=12)], True, 12))
    def test_drawn_records(self, trace):
        assert written_trace(trace) == per_field_trace(trace)


def nudged(x, ulps):
    """x moved by the given number of ulps, up for positive counts."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def half_ties(draw):
    """A value whose 12th significant digit is an exact or near half, then nudged."""
    digits = draw(st.integers(10**10, 10**11 - 1))
    half = draw(st.sampled_from(["5", "49999999", "50000001", "4999999999999", "5000000000001"]))
    exponent = draw(st.integers(-40, 40))
    return nudged(float(f"{digits}{half}e{exponent}"), draw(st.integers(-3, 3)))


@st.composite
def powers_of_ten(draw):
    return nudged(float(f"1e{draw(st.integers(-323, 308))}"), draw(st.integers(-3, 3)))


@st.composite
def extreme_exponents(draw):
    """Exponents -100..-98 and 98..100, where the printed exponent gains a digit."""
    exponent = draw(st.sampled_from([-100, -99, -98, 98, 99, 100]))
    mantissa = draw(st.one_of(st.just("9.99999999995"), st.floats(1.0, 9.999999999999998).map(repr)))
    return float(f"{mantissa}e{exponent}")


SUBNORMALS = st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)
SPECIALS = st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324])
ENCODER_FLOATS = st.tuples(
    st.one_of(half_ties(), powers_of_ten(), extreme_exponents(), SUBNORMALS, SPECIALS, st.floats()),
    st.booleans(),
).map(lambda drawn: -drawn[0] if drawn[1] else drawn[0])


def segment_of(values, iterations=(3,), metrics=(0.5,)):
    """One segment whose four float columns are permutations of the values.

    The values fill the given iterations row by row.
    """
    v = np.array(values, dtype=float).reshape(len(iterations), -1)
    n = v.shape[1]
    columns = (v, v[:, ::-1], np.roll(v, 1, axis=1), np.roll(v, 2, axis=1))
    assignment = np.tile(np.arange(n) % 3, (len(iterations), 1))
    return Segment(1, np.array(iterations), assignment, *columns, np.array(metrics, dtype=float))


class TestTraceEncoder:
    """The vectorised writer against format(x, ".10e"), on values chosen to break it."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(ENCODER_FLOATS, min_size=1, max_size=40), ENCODER_FLOATS)
    @example([1.00000000005, 9.99999999995e99, -0.0, 1e23, 1e-13, 99999999999.5], math.inf)
    def test_adversarial_values(self, values, metric):
        trace = IterationTrace([segment_of(values, metrics=[metric])], False, 1)
        assert written_trace(trace) == per_field_trace(trace)

    def test_fast_and_fallback_values_in_one_chunk(self):
        trace, _ = run_full_history(parse_scenario(FULL))
        (seg,) = trace.segments
        # Zeros, non-finite values, a near tie, an exponent past the exact
        # powers of ten, a 3-digit exponent and a subnormal, beside solver
        # output in the same chunk.
        seg.powers[1] = [0.0, math.nan]
        seg.rates[1] = [-math.inf, 1.00000000005]
        seg.utilities[2] = [-1e-300, 9.99999999995e99]
        seg.sinrs[2, 0] = -2.5e-310
        seg.metrics[2] = math.nan
        assert written_trace(trace) == per_field_trace(trace)

    def test_trace_longer_than_one_chunk(self, monkeypatch):
        encoded = []
        encode_rows = encoder.encode_rows
        monkeypatch.setattr(
            encoder,
            "encode_rows",
            lambda seg, its: encoded.append((seg, its)) or encode_rows(seg, its),
        )
        rng = np.random.default_rng(7)
        chunk = encoder.TRACE_CHUNK_ROWS
        # (users, iterations) per segment: user counts straddle the chunk
        # boundary, one iteration alone is longer than a chunk, and one
        # segment has no users.
        shapes = [(1, 3), (chunk - 1, 2), (2, 700), (chunk // 3, 5), (chunk + 5, 2), (0, 2), (7, 300)]
        segments, first = [], 1
        for n, n_iterations in shapes:
            size = n * n_iterations
            values = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-15, 35, size)
            values[rng.random(size) < 0.01] = 0.0
            its = np.arange(first, first + n_iterations)
            segments.append(segment_of(values, iterations=its * 997, metrics=10.0**-its))
            first += n_iterations
        trace = IterationTrace(segments, False, first - 1)
        written = written_trace(trace)
        assert written.count("\n") == 1 + sum(n * s for n, s in shapes) > 2 * chunk
        assert written == per_field_trace(trace)
        # A chunk holds whole iterations of one segment and closes once it
        # reaches the chunk size, so none holds more than a chunk beyond its
        # last iteration, and only a segment's last chunk falls short of one.
        assert len(encoded) > len(shapes)
        for seg, its in encoded:
            n_iterations, n = seg.powers[its].shape
            assert n_iterations * n - n < chunk
            assert n_iterations * n >= chunk or its.stop >= len(seg.iterations)

    @pytest.mark.parametrize("value", [-(2**63), -1, 0, 9999, 10**4, 2**53 + 1, 2**63 - 1])
    def test_integer_columns(self, value):
        seg = segment_of([1.5] * 9, iterations=[value, 0, 10**12], metrics=[0.25] * 3)
        seg.assignment = np.array([[0, value, 99999], [value, 0, 10**12], [99999, 10**12, value]])
        trace = IterationTrace([seg], False, 3)
        assert written_trace(trace) == per_field_trace(trace)


class TestSummary:
    def test_recomputed_sinrs_match_summary(self):
        for text in (FULL, TWO_CELL):
            s = parse_scenario(text)
            trace, summary = run_scenario(s)
            recomputed = recompute_sinrs(s.channel, trace.final)
            assert recomputed == pytest.approx(summary.sinrs, rel=1e-9)

    @pytest.mark.parametrize("names", [["u1", "u2"], ["u1", "u2", "u3", "u4"]])
    def test_names_must_match_the_users(self, names):
        s = parse_scenario((SCENARIO_DIR / "three_users.scn").read_text())
        trace, _ = run_scenario(s)
        with pytest.raises(ValueError, match=f"{len(names)} names for a trace of 3 users"):
            summarize_run(trace, names)

    def test_summary_text_fields(self):
        s = parse_scenario(FULL)
        _, summary = run_scenario(s)
        text = summary_to_text(summary)
        assert "converged = true" in text
        assert "u1.p_w = " in text
        assert "u2.outcome = at_target" in text

    def test_policy_and_schedule_respected(self):
        s = parse_scenario(FULL)
        s.config = replace(s.config, policy=KKT, schedule=SEQUENTIAL)
        _, summary = run_scenario(s)
        assert summary.converged


def per_line_summary(summary):
    """The summary text formatted float by float, as the writer's oracle."""

    def fmt(x):
        return format(float(x), ".10e")

    out = [
        f"converged = {str(summary.converged).lower()}",
        f"iterations_used = {summary.iterations_used}",
        f"n_users = {len(summary.user_names)}",
    ]
    for k, name in enumerate(summary.user_names):
        out.append(f"{name}.bs = {int(summary.assignment[k])}")
        out.append(f"{name}.p_w = {fmt(summary.powers[k])}")
        out.append(f"{name}.r_bps = {fmt(summary.rates[k])}")
        out.append(f"{name}.sinr = {fmt(summary.sinrs[k])}")
        out.append(f"{name}.target_sinr = {fmt(summary.targets[k])}")
        out.append(f"{name}.lambda = {fmt(summary.lam[k])}")
        out.append(f"{name}.outcome = {summary.outcomes[k]}")
    if summary.steps:
        out.append(f"n_steps = {len(summary.steps)}")
        for sr in summary.steps:
            for k, name in enumerate(summary.user_names):
                out.append(f"step{sr.step}.{name}.bs = {int(sr.assignment[k])}")
                out.append(f"step{sr.step}.{name}.p_w = {fmt(sr.powers[k])}")
                out.append(f"step{sr.step}.{name}.r_bps = {fmt(sr.rates[k])}")
                out.append(f"step{sr.step}.{name}.sinr = {fmt(sr.sinrs[k])}")
    return "\n".join(out) + "\n"


@st.composite
def summaries(draw):
    """A RunSummary of 1-6 users whose float columns hold the encoder's hard values."""
    n = draw(st.integers(1, 6))

    def column():
        return np.array([draw(ENCODER_FLOATS) for _ in range(n)])

    def step(k):
        values = [column() for _ in range(4)]
        return IterationRecord(k, k, np.arange(n) % 2, *values, 0.0)

    return scenario_module.RunSummary(
        converged=draw(st.booleans()),
        iterations_used=draw(st.integers(1, 10**6)),
        user_names=[f"u{k}" for k in range(n)],
        powers=column(),
        rates=column(),
        sinrs=column(),
        utilities=column(),
        assignment=np.arange(n) % 3,
        targets=column(),
        outcomes=["at_target"] * n,
        lam=column(),
        steps=[step(k) for k in range(1, draw(st.integers(0, 3)) + 1)],
    )


class TestSummaryText:
    @settings(max_examples=60, deadline=None)
    @given(summaries())
    def test_column_encoding_equals_per_line_formatting(self, summary):
        assert summary_to_text(summary) == per_line_summary(summary)

    @pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, 1.00000000005, 99999999999.5, 1e-23, 1e23, 2.5e300])
    def test_edge_values(self, value):
        summary = run_scenario(parse_scenario(FULL))[1]
        for column in (summary.powers, summary.rates, summary.sinrs, summary.targets, summary.lam):
            column[1] = value
        assert summary_to_text(summary) == per_line_summary(summary)

    def test_a_column_of_the_wrong_length_is_refused(self):
        summary = run_scenario(parse_scenario(FULL))[1]
        summary.lam = summary.lam[:-1]
        with pytest.raises(ValueError, match=f"one value for each of {len(summary.user_names)} users"):
            summary_to_text(summary)
