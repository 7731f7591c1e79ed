"""Lockstep batches against serial solves, the escalation and removal
windows against serial loops, and "last" history against "full".

``iterate_batch`` steps K independent networks, each with its own user
count, in one loop per station count and round; a network with arrivals
steps each of its windows in a round of its own, and a batch's networks may
each stop under their own delta and max_iterations. Network k's outcome
must be what ``iterate_to_convergence`` gives for it alone, bit for bit:
every segment column, ``iterations_used`` and ``converged``, or the same
exception with the same message; ``run_scenarios`` must likewise give each
scenario's ``run_scenario``. The escalation window solves the next few
coefficients as one batch and reads them in order, and stops stepping them
at its answer; what it reports and raises must be what testing one
coefficient at a time gives, which ``serial_escalation`` below restates.
Likewise a removal window solves the survivors less the next few predicted
removals, and must report and raise what removing one user per solve gives
(``serial_removal``). A solve under "last" history keeps each segment's
last row only; it must be the "full" trace's last row, bit for bit, with
every other field of the outcome the same.
"""

import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ratepower import admission, engine
from ratepower.admission import (
    BELOW_TARGET,
    ESCALATION_WINDOW,
    REMOVAL_WINDOW,
    EscalationResult,
    NotConvergedError,
    RemovalResult,
    classify_users,
    escalate_pricing,
    removal_loop,
)
from ratepower.cli import main
from ratepower.core import (
    ChannelModel,
    NoFeasibleRateError,
    PricingRule,
    RateSet,
    UserParams,
    UserTable,
    priced_users,
)
from ratepower.engine import (
    CLAMP,
    HISTORY_FULL,
    HISTORY_LAST,
    KKT,
    METRIC_ABSOLUTE,
    METRIC_RELATIVE,
    SEQUENTIAL,
    SYNCHRONOUS,
    ConvergenceConfig,
    Network,
    iterate_batch,
    iterate_to_convergence,
)
from ratepower.oracle import pricing_rule_eval, target_sinr
from ratepower.reference import (
    REPRODUCE_TARGETS,
    fig4_scenario,
    reproduce,
    reproduce_many,
    table1_scenario,
    table3_scenario,
    table4_scenario,
)
from ratepower.scenario import (
    ArrivalEvent,
    MoveEvent,
    Scenario,
    _run,
    parse_scenario,
    run_scenario,
    run_scenarios,
    sweep_lambda,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
CROWDED_CELL = SCENARIO_DIR / "crowded_cell.scn"

ROW_COLUMNS = ("assignment", "powers", "rates", "sinrs", "utilities")
COLUMNS = ("iterations", "metrics") + ROW_COLUMNS
# The lowest rungs of the last two ladders sit above the rates that heavy
# pricing gives, so some solves on them raise NoFeasibleRateError.
LADDERS = (None, RateSet((0.1, 1e3, 1e4, 5e4)), RateSet((2e3, 1e4, 5e4)), RateSet((1.5e4, 3e4, 6e4)))


def solved(solve):
    """A solve's trace, or the error it raises."""
    try:
        return solve()
    except ValueError as exc:
        return exc


def serial(network, config=None):
    """One network solved alone: its trace, or the error the solve raises."""
    return solved(
        lambda: iterate_to_convergence(
            network.channel,
            network.users,
            config,
            arrivals=network.arrivals,
            pricing=network.pricing,
        )
    )


def assert_same_outcome(got, want, last_rows=False):
    """``got`` is ``want``, bit for bit; with ``last_rows``, it holds only the
    last row of each of ``want``'s segments, as "last" history keeps them."""
    if isinstance(want, Exception):
        assert type(got) is type(want)
        assert str(got) == str(want)
        return
    assert not isinstance(got, Exception), got
    assert (got.converged, got.iterations_used) == (want.converged, want.iterations_used)
    for name in ("pathloss_exponent", "shadowing", "noise_w", "bandwidth_hz"):
        assert getattr(got.channel, name) == getattr(want.channel, name)
    assert got.channel.distances_m.tobytes() == want.channel.distances_m.tobytes()
    assert got.users == want.users
    assert len(got.segments) == len(want.segments)
    for a, b in zip(got.segments, want.segments):
        assert a.step == b.step
        for name in COLUMNS:
            x, y = getattr(a, name), getattr(b, name)
            if last_rows and name in ROW_COLUMNS:
                y = y[-1:]
            assert (x.dtype, x.shape) == (y.dtype, y.shape), name
            assert x.tobytes() == y.tobytes(), name


def assert_batch_is_serial(networks, config):
    got = iterate_batch(networks, config)
    assert len(got) == len(networks)
    for network, outcome in zip(networks, got):
        assert_same_outcome(outcome, serial(network, config))
    return got


@st.composite
def batches(draw):
    """K (network, config) requests on one station count. Each network has
    its own user count, 0-3 arrivals and its own delta and max_iterations,
    and is priced on its own scale so their convergence lengths differ; the
    settings they share may stop some of them at max_iterations or fail
    them on a rate ladder."""
    k = draw(st.integers(1, 6))
    b = draw(st.sampled_from([1, 2, 4]))
    metric = draw(st.sampled_from([METRIC_RELATIVE, METRIC_ABSOLUTE]))
    deltas = [1e-9, 1e-8] if metric == METRIC_RELATIVE else [1e-3, 1.0]
    ladder = draw(st.sampled_from(LADDERS[:2] + LADDERS[3:]))
    shared = ConvergenceConfig(
        metric=metric,
        policy=draw(st.sampled_from([CLAMP, KKT])),
        rate_set=ladder,
        quantize_at_convergence=ladder is not None and draw(st.booleans()),
    )
    distance = st.floats(20.0, 400.0)
    requests = []
    for _ in range(k):
        config = replace(shared, delta=draw(st.sampled_from(deltas)), max_iterations=draw(st.integers(1, 120)))
        n = draw(st.integers(1, 6))
        d = draw(st.lists(distance, min_size=n * b, max_size=n * b))
        noise = draw(st.sampled_from([5e-15, 1e-12]))
        scale = 10.0 ** draw(st.floats(-6.0, -2.0))
        users = UserTable.from_users(
            [
                UserParams(
                    alpha2=draw(st.sampled_from([12.9492, 20.0, 30.0])),
                    lam=scale * draw(st.floats(0.5, 2.0)),
                    p_max=draw(st.floats(0.01, 3.0)),
                )
                for _ in range(n)
            ]
        )
        arrivals = tuple(
            ArrivalEvent(
                iteration,
                "late",
                np.array(draw(st.lists(distance, min_size=b, max_size=b))),
                UserTable(alpha2=[draw(st.sampled_from([12.9492, 20.0]))], lam=users.lam[:1]),
            )
            for iteration in draw(st.lists(st.integers(1, config.max_iterations), max_size=3))
        )
        channel = ChannelModel(np.reshape(d, (n, b)), noise_w=noise)
        requests.append((Network(channel, users, arrivals=arrivals), config))
    return requests


def with_history(requests, history):
    return [(network, replace(config, history=history)) for network, config in requests]


class TestIterateBatch:
    @settings(max_examples=200, deadline=None)
    @given(batches())
    def test_each_network_equals_its_serial_solve(self, requests):
        # Arrival windows and networks of every stop rule step together.
        for history in (HISTORY_LAST, HISTORY_FULL):
            requests = with_history(requests, history)
            for (network, config), outcome in zip(requests, engine._solve(requests)):
                assert_same_outcome(outcome, serial(network, config))

    @pytest.mark.parametrize("policy", [CLAMP, KKT])
    def test_sequential_schedule_equals_serial_solves(self, policy):
        rng = np.random.default_rng(3)
        networks = [
            Network(ChannelModel(rng.uniform(20.0, 400.0, (5, 2))), UserTable(lam=[lam] * 5))
            for lam in (1e-5, 1e-4, 1e-3)
        ]
        assert_batch_is_serial(networks, ConvergenceConfig(policy=policy, schedule=SEQUENTIAL))

    def test_lengths_differ_and_one_hits_max_iterations(self):
        # Table 3's six users converge in 8, 16 and 35 iterations at these
        # three prices; a budget of 20 stops the third.
        scenario = table3_scenario(6)
        networks = [
            Network(scenario.channel, scenario.users, PricingRule("constant", c))
            for c in (4e-4, 5e-4, 6e-4)
        ]
        got = assert_batch_is_serial(networks, ConvergenceConfig(max_iterations=20))
        assert [t.iterations_used for t in got] == [8, 16, 20]
        assert [t.converged for t in got] == [True, True, False]

    @pytest.mark.parametrize("at_convergence", [False, True])
    def test_two_failing_networks_keep_their_own_errors(self, at_convergence):
        # Networks 1 and 2 fall below the ladder at different prices; each
        # keeps its own error, and networks 0 and 3 finish as if alone.
        config = ConvergenceConfig(rate_set=LADDERS[2], quantize_at_convergence=at_convergence)
        channel = ChannelModel([110.0, 130.0, 210.0])
        networks = [Network(channel, UserTable(alpha2=20.0, lam=[lam] * 3)) for lam in (1e-5, 100.0, 300.0, 1e-5)]
        got = assert_batch_is_serial(networks, config)
        assert not isinstance(got[0], Exception) and not isinstance(got[3], Exception)
        assert isinstance(got[1], NoFeasibleRateError) and isinstance(got[2], NoFeasibleRateError)
        assert str(got[1]) != str(got[2])

    def test_a_network_that_would_raise_past_its_convergence_keeps_its_trace(self):
        # Alone, network a converges at iteration 1 and its second step would
        # fall below the ladder; b converges at 4, so the batch steps a past
        # its end. Either order must still give the serial solves.
        ladder = RateSet((7e4, 96000, 2e5, 5e5, 1e6))
        config = ConvergenceConfig(metric=METRIC_ABSOLUTE, delta=1e5, rate_set=ladder)
        a = Network(ChannelModel([110.0, 130.0]), UserTable(lam=[0.1] * 2))
        b = Network(ChannelModel([300.0, 310.0]), UserTable(lam=1e-6, r_max=[1e6] * 2))
        with pytest.raises(NoFeasibleRateError):
            iterate_to_convergence(a.channel, a.users, replace(config, delta=1e-30, max_iterations=2))
        got = assert_batch_is_serial([a, b], config)
        assert [(t.converged, t.iterations_used) for t in got] == [(True, 1), (True, 4)]
        assert_batch_is_serial([b, a], config)

    def test_zero_interference_fails_only_its_network(self):
        # No noise, and the far users' received power is below the rounding
        # of the near user's, so the near user sees no interference at all.
        silent = ChannelModel([[10.0], [1e4], [1e4]], noise_w=0.0)
        loud = ChannelModel([[110.0], [130.0], [210.0]])
        users = UserTable.from_users([UserParams(p_init=3.0), UserParams(), UserParams()])
        plain = UserTable.from_users([UserParams()] * 3)
        networks = [Network(loud, users), Network(silent, users), Network(loud, plain)]
        got = assert_batch_is_serial(networks, None)
        assert str(got[1]) == "effective interference must be positive"
        assert got[0].converged and got[2].converged

    def test_a_sweep_reports_the_lower_index_error(self):
        # Two prices fall below the ladder with different messages; the sweep
        # raises the one a price-by-price loop meets first.
        config = ConvergenceConfig(rate_set=LADDERS[2])
        scenario = Scenario(
            ChannelModel([110.0, 130.0, 210.0]),
            UserTable(alpha2=[20.0] * 3),
            ["u1", "u2", "u3"],
            config,
        )
        lambdas = [1e-5, 100.0, 300.0]
        with pytest.raises(NoFeasibleRateError) as want:
            for lam in lambdas:
                run_scenario(replace(scenario, pricing=PricingRule("constant", lam)))
        with pytest.raises(NoFeasibleRateError) as got:
            sweep_lambda(scenario, lambdas)
        assert str(got.value) == str(want.value)
        with pytest.raises(NoFeasibleRateError) as last:
            run_scenario(replace(scenario, pricing=PricingRule("constant", lambdas[2])))
        assert str(last.value) != str(want.value)

    def test_entry_errors_stand_in_place(self):
        channel = ChannelModel([110.0, 130.0])
        lone = ChannelModel([110.0], noise_w=0.0)
        networks = [Network(channel, UserTable.from_users([UserParams()] * n)) for n in (2, 1, 2)]
        got = assert_batch_is_serial(networks, None)
        assert str(got[1]) == "1 users but channel has 2 rows"
        lone_users = [UserTable.from_users([UserParams()]), UserTable(lam=[1e-3])]
        got = assert_batch_is_serial([Network(lone, users) for users in lone_users], None)
        assert all(isinstance(outcome, ValueError) for outcome in got)

    def test_networks_of_different_user_counts_equal_serial_solves(self):
        # Table 3's networks of 3 to 7 users converge in different numbers
        # of iterations; one batch of all five gives each its own solve.
        networks = [Network(s.channel, s.users) for s in map(table3_scenario, range(3, 8))]
        got = assert_batch_is_serial(networks, ConvergenceConfig(history=HISTORY_FULL))
        assert [len(t.final_powers) for t in got] == [3, 4, 5, 6, 7]
        assert len({t.iterations_used for t in got}) > 1

    def test_networks_of_different_station_counts_equal_their_serial_solves(self, monkeypatch):
        one, two = ChannelModel([110.0, 130.0]), ChannelModel([[110.0, 400.0], [130.0, 380.0]])
        three = ChannelModel([110.0, 130.0, 210.0])
        pair, trio = UserTable.from_users([UserParams()] * 2), UserTable.from_users([UserParams()] * 3)
        networks = [Network(one, pair), Network(two, pair), Network(three, trio)]
        calls = counted_loops(monkeypatch)
        assert_batch_is_serial(networks, None)
        # The batch splits by station count: the one-station pair, then the
        # two-station network; the serial solves follow, one network each.
        assert calls[:2] == [2, 1]

    def test_an_empty_batch_has_no_outcomes(self):
        assert iterate_batch([]) == []

    def test_a_group_whose_loop_raises_is_solved_again_one_leg_at_a_time(self, monkeypatch):
        # Snapped at convergence, b's rates fall below the ladder, which
        # raises from the loop it shares with a's window up to its arrival.
        # Each is then solved alone, and a's last leg plays in round 2.
        config = ConvergenceConfig(rate_set=LADDERS[2], quantize_at_convergence=True)
        walk = walk_with_arrival()
        a = Network(walk.channel, walk.users, arrivals=tuple(walk.arrivals))
        b = Network(
            ChannelModel([[110.0, 400.0], [130.0, 380.0], [210.0, 300.0]]),
            UserTable(alpha2=20.0, lam=[100.0] * 3),
        )
        calls = counted_loops(monkeypatch)
        got = iterate_batch([a, b], config)
        assert calls == [2, 1, 1, 1]
        assert_same_outcome(got[0], serial(a, config))
        assert_same_outcome(got[1], serial(b, config))
        assert got[0].converged and len(got[0].segments) == 2
        assert isinstance(got[1], NoFeasibleRateError)

    @pytest.mark.parametrize("history", [HISTORY_LAST, HISTORY_FULL])
    @pytest.mark.parametrize("ladder", [None, False, True])
    def test_a_ragged_batch_with_repeated_sizes_equals_serial_solves(
        self, history, ladder, monkeypatch
    ):
        # Sizes 3, 5, 3, 1, 5, 3 on two stations: three networks share one
        # stacked product, two another, and the lone user a third. Their
        # prices spread their convergence lengths.
        rng = np.random.default_rng(26)
        config = ConvergenceConfig(
            history=history,
            rate_set=None if ladder is None else LADDERS[1],
            quantize_at_convergence=bool(ladder),
        )
        networks = [
            Network(ChannelModel(rng.uniform(20.0, 400.0, (n, 2))), UserTable(alpha2=20.0, lam=[lam] * n))
            for n, lam in zip([3, 5, 3, 1, 5, 3], [1e-4, 1e-5, 1e-3, 1e-4, 2e-4, 3e-5])
        ]
        calls = counted_loops(monkeypatch)
        got = assert_batch_is_serial(networks, config)
        assert all(t.converged for t in got)
        assert len({t.iterations_used for t in got}) > 1
        # One lockstep loop, not solved again one network at a time, then
        # the six serial solves.
        assert calls == [6] + [1] * 6

    def test_a_fortran_ordered_channel_solves_as_its_c_copy(self):
        # Gains read in Fortran order would round ``p @ g`` differently from
        # the stacked product; the channel stores both matrices C-ordered.
        rng = np.random.default_rng(7)
        users = UserTable(alpha2=20.0, lam=[1e-4] * 6)
        distances = rng.uniform(20.0, 400.0, (6, 3))
        f_ordered = ChannelModel(np.asfortranarray(distances))
        c_ordered = ChannelModel(np.ascontiguousarray(distances))
        assert f_ordered.distances_m.flags.c_contiguous and f_ordered.gains.flags.c_contiguous
        mate = Network(ChannelModel(rng.uniform(20.0, 400.0, (6, 3))), users)
        for config in histories(ConvergenceConfig()):
            alone = serial(Network(f_ordered, users), config)
            (batched, _) = iterate_batch([Network(f_ordered, users), mate], config)
            assert_same_outcome(batched, alone)
            assert_same_outcome(alone, serial(Network(c_ordered, users), config))


class TestEntry:
    """The engine prices each network at entry, and what entry refuses is
    that network's outcome."""

    @pytest.mark.parametrize("schedule", [SYNCHRONOUS, SEQUENTIAL])
    @pytest.mark.parametrize(
        "rule, distances",
        [
            (PricingRule("per_user_count", 2e-5), [[110.0, 400.0], [130.0, 380.0], [390.0, 120.0]]),
            (PricingRule("target_ratio", 3e-5), [[110.0, 400.0], [130.0, 380.0], [390.0, 120.0]]),
            (PricingRule("inverse_gain", 1e-16), [110.0, 130.0, 210.0]),
        ],
        ids=lambda x: getattr(x, "kind", ""),
    )
    def test_unpriced_starting_users_play_as_hand_priced_ones(self, rule, distances, schedule):
        channel = ChannelModel(distances)
        users = UserTable(alpha2=[12.9492, 20.0, 16.0], lam=4e-4)
        late = [ArrivalEvent(6, "late", np.full(channel.n_stations, 150.0), UserTable(alpha2=[20.0]))]
        for config in histories(ConvergenceConfig(schedule=schedule)):
            got = iterate_to_convergence(channel, users, config, arrivals=late, pricing=rule)
            by_hand = priced_users(rule, channel, users)
            want = iterate_to_convergence(channel, by_hand, config, arrivals=late, pricing=rule)
            assert_same_outcome(got, want)
            # At their own factor the users would play the first window otherwise.
            own = iterate_to_convergence(channel, users, config, arrivals=late)
            assert got.segments[0].powers.tobytes() != own.segments[0].powers.tobytes()

    @pytest.mark.parametrize(
        "rule, message",
        [
            (
                PricingRule("direct_gain", 1e3),
                "pricing rule 'direct_gain' depends on the channel gain and cannot be used "
                "with more than one station",
            ),
            (PricingRule("per_user_count", 1e308), "lam must be finite, got inf"),
        ],
        ids=["gain_dependent", "overflow"],
    )
    def test_a_network_that_fails_pricing_fails_alone(self, rule, message, monkeypatch):
        rng = np.random.default_rng(27)
        users = UserTable(alpha2=[20.0] * 3)
        networks = [
            Network(ChannelModel(rng.uniform(20.0, 400.0, (3, 2))), users, PricingRule("constant", 3e-4)),
            Network(ChannelModel(rng.uniform(20.0, 400.0, (3, 2))), users, rule),
            Network(ChannelModel(rng.uniform(20.0, 400.0, (3, 2))), users, PricingRule("per_user_count", 2e-5)),
        ]
        calls = counted_loops(monkeypatch)
        got = assert_batch_is_serial(networks, None)
        assert type(got[1]) is ValueError and str(got[1]) == message
        assert got[0].converged and got[2].converged
        # Its batch-mates still step together, in one loop.
        assert calls[0] == 2


@st.composite
def size_groups(draw):
    """1-8 networks of 1-64 users on 1-16 stations, C-ordered gains, and
    their powers as a row of a state whose columns start at a drawn offset.
    The sizes come from a pool of at most three, so most of them repeat."""
    b = draw(st.integers(1, 16))
    pool = draw(st.lists(st.integers(1, 64), min_size=1, max_size=3))
    sizes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    offset = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gains = [ChannelModel(rng.uniform(20.0, 600.0, (n, b))).gains for n in sizes]
    state = rng.uniform(1e-6, 3.0, (2, offset + sum(sizes)))
    return gains, state[0, offset:]


class TestSizeGroups:
    @settings(max_examples=300, deadline=None)
    @given(size_groups())
    def test_the_grouped_product_equals_each_networks_own(self, drawn):
        gains, powers = drawn
        sizes, starts, spans = engine._spans([len(g) for g in gains])
        groups = engine._size_groups(gains, starts, sizes)
        got = engine._totals(powers, gains, groups)
        want = np.array([powers[span] @ g for span, g in zip(spans, gains)]).repeat(sizes, axis=0)
        assert got.tobytes() == want.tobytes()
        # Unsorted sizes still give each network its totals: each run of
        # equal sizes forms its own group.
        runs = [n for n, _ in itertools.groupby(sizes.tolist())]
        assert [shape[2] for _, shape, _, _ in groups[0]] == runs

    def test_batch_hands_the_loop_each_group_by_size(self, monkeypatch):
        # Ragged one- and two-station networks, listed out of size order:
        # each loop call gets its legs in nondecreasing size order, a stable
        # sort, and every outcome still lands in its request's place.
        rng = np.random.default_rng(32)
        shapes = [(5, 1), (2, 1), (7, 2), (2, 2), (3, 1), (5, 1), (1, 2), (2, 1)]
        networks = [
            Network(ChannelModel(rng.uniform(20.0, 400.0, shape)), UserTable(alpha2=20.0, lam=[1e-5] * shape[0]))
            for shape in shapes
        ]
        sizes, loop = [], engine._loop

        def spy(legs, *args, **kwargs):
            sizes.append([len(leg.users) for leg in legs])
            return loop(legs, *args, **kwargs)

        monkeypatch.setattr(engine, "_loop", spy)
        assert_batch_is_serial(networks, None)
        assert sizes[:2] == [[2, 2, 3, 5, 5], [1, 2, 7]]
        sizes.clear()
        reproduce_many(REPRODUCE_TARGETS)
        assert len(sizes) == 4 and all(s == sorted(s) for s in sizes)


def chain(log, name, rounds, fail_at=None):
    """A chain for ``engine._drive`` of ``rounds`` rounds of one network each.

    It logs each round it is sent and raises in round ``fail_at``, once it
    has the outcome; it returns its name.
    """
    users = UserTable.from_users([UserParams()] * 2)
    network = (Network(ChannelModel([110.0, 130.0]), users), ConvergenceConfig())
    for round_no in range(1, rounds + 1):
        (trace,) = yield [network]
        assert trace.converged
        log.append((name, round_no))
        if round_no == fail_at:
            raise ValueError(f"{name} fails in round {round_no}")
    return name


class TestDrive:
    def test_chains_step_in_lockstep_rounds(self, monkeypatch):
        log = []
        calls = counted_loops(monkeypatch)
        got = engine._drive([chain(log, "a", 3), chain(log, "b", 1), chain(log, "c", 2)])
        assert got == ["a", "b", "c"]
        assert calls == [3, 2, 1]
        assert log == [("a", 1), ("b", 1), ("c", 1), ("a", 2), ("c", 2), ("a", 3)]
        assert engine._drive([]) == []

    def test_an_earlier_chains_later_error_wins(self):
        # b errs in round 1, a in round 2: run one after another, a errs first.
        log = []
        with pytest.raises(ValueError, match="^a fails in round 2$"):
            engine._drive([chain(log, "a", 3, fail_at=2), chain(log, "b", 2, fail_at=1)])
        assert log == [("a", 1), ("b", 1), ("a", 2)]

    def test_a_later_chains_error_waits_for_the_earlier_chains(self):
        # c errs in round 1; a and b still run to their ends, clean, and d,
        # after c, is not sent its first outcome.
        log = []
        chains = [
            chain(log, "a", 3),
            chain(log, "b", 2),
            chain(log, "c", 2, fail_at=1),
            chain(log, "d", 3),
        ]
        with pytest.raises(ValueError, match="^c fails in round 1$"):
            engine._drive(chains)
        assert log == [("a", 1), ("b", 1), ("c", 1), ("a", 2), ("b", 2), ("a", 3)]


def serial_run(scenario):
    """A scenario's steps solved one at a time: its joined segments and last trace."""

    channel, users = scenario.channel, scenario.users
    segments, offset = [], 0
    for step in sorted({1} | {ev.step for ev in scenario.moves}):
        for ev in scenario.moves:
            if ev.step == step:
                channel = channel.moved(ev.user, ev.distances_m)
        arrivals = scenario.arrivals if step == 1 else ()
        priced = priced_users(scenario.pricing, channel, users)
        trace = iterate_to_convergence(
            channel, priced, scenario.config, arrivals=arrivals, pricing=scenario.pricing
        )
        channel, users = trace.channel, trace.users
        segments += [replace(s, step=step, iterations=s.iterations + offset) for s in trace.segments]
        offset += trace.iterations_used
    return segments, trace


def walk_with_arrival(rate_set=None):
    # Two stations; u4 arrives at iteration 5 of step 1, u1 walks far away at
    # step 2, where its rate falls furthest, and back at step 3.
    channel = ChannelModel([[110.0, 400.0], [130.0, 380.0], [390.0, 120.0]])
    arrival = ArrivalEvent(5, "u4", np.array([200.0, 300.0]), UserTable(alpha2=[20.0]))
    moves = [
        MoveEvent(2, 0, np.array([600.0, 600.0])),
        MoveEvent(3, 0, np.array([250.0, 260.0])),
    ]
    config = ConvergenceConfig(rate_set=rate_set)
    return Scenario(
        channel, UserTable(alpha2=[20.0] * 3), ["u1", "u2", "u3"], config, None, [arrival], moves
    )


def assert_same_run(got, want):
    """Two (trace, summary) runs agree bit for bit."""
    assert_same_outcome(got[0], want[0])
    a, b = got[1], want[1]
    assert (a.converged, a.iterations_used, a.user_names, a.outcomes) == (
        b.converged,
        b.iterations_used,
        b.user_names,
        b.outcomes,
    )
    for name in ("powers", "rates", "sinrs", "utilities", "assignment", "targets", "lam"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert [r.powers.tobytes() for r in a.steps] == [r.powers.tobytes() for r in b.steps]


def counted_sweeps(monkeypatch):
    """Patch ``engine._synchronous_sweep`` to log the iterations of each loop call."""
    sweeps = []
    sweep, loop = engine._synchronous_sweep, engine._loop

    def counted_sweep(*args):
        sweeps[-1] += 1
        return sweep(*args)

    def counted_loop(*args, **kwargs):
        sweeps.append(0)
        return loop(*args, **kwargs)

    monkeypatch.setattr(engine, "_synchronous_sweep", counted_sweep)
    monkeypatch.setattr(engine, "_loop", counted_loop)
    return sweeps


def counted_loops(monkeypatch):
    """Patch ``engine._loop`` to log the number of networks of each call."""
    calls = []
    loop = engine._loop

    def counted(networks, *args, **kwargs):
        calls.append(len(networks))
        return loop(networks, *args, **kwargs)

    monkeypatch.setattr(engine, "_loop", counted)
    return calls


class TestScenarioBatches:
    def test_run_scenarios_equals_each_run_scenario(self, monkeypatch):
        # Ragged user counts, one and two stations, an arrival, moves and a
        # pricing rule, all under the default config.
        scenarios = [
            table3_scenario(3),
            walk_with_arrival(),
            table3_scenario(7),
            fig4_scenario(),
            table4_scenario(50.0),
            replace(table1_scenario(), pricing=PricingRule("per_user_count", 2e-5)),
        ]
        want = [run_scenario(s) for s in scenarios]
        calls = counted_loops(monkeypatch)
        got = run_scenarios(scenarios)
        assert len(got) == len(want)
        for pair in zip(got, want):
            assert_same_run(*pair)
        # One batch per station count and round. Round 1: the four
        # one-station runs, and fig4's 11 steps with the walk's 2 later ones
        # and its window up to the arrival. Round 2: the walk's run from the
        # arrival, alone. The order of independent solves within a round is
        # not behaviour.
        assert sorted(calls) == [1, 4, 14]

    def test_run_scenarios_raises_the_error_a_serial_loop_meets_first(self):
        # As below: at price 1 a later step falls below the ladder, at
        # price 100 the arrival step already does.
        scenario = walk_with_arrival(LADDERS[2])
        priced = [replace(scenario, pricing=PricingRule("constant", lam)) for lam in (1.0, 100.0)]
        for order in (priced, priced[::-1]):
            with pytest.raises(NoFeasibleRateError) as want:
                for one in order:
                    run_scenario(one)
            with pytest.raises(NoFeasibleRateError) as got:
                run_scenarios(order)
            assert str(got.value) == str(want.value)

    def test_run_scenarios_mixes_configs(self, monkeypatch):
        # Clamp and kkt, sync and seq, two deltas and a ladder, interleaved on
        # one and two stations, an arrival and moves: each scenario solves
        # under its own config.
        configs = [
            ConvergenceConfig(),
            ConvergenceConfig(policy=KKT),
            ConvergenceConfig(schedule=SEQUENTIAL),
            ConvergenceConfig(delta=1e-6),
            ConvergenceConfig(rate_set=LADDERS[1]),
        ]
        bases = [table3_scenario(3), fig4_scenario(), table3_scenario(6), walk_with_arrival()]
        scenarios = [replace(s, config=c) for s in bases for c in configs]
        want = [run_scenario(s) for s in scenarios]
        calls = counted_loops(monkeypatch)
        got = run_scenarios(scenarios)
        assert len(got) == len(want)
        for pair in zip(got, want):
            assert_same_run(*pair)
        # One batch per (config less its stop rule, station count) and
        # round, so the default config and delta = 1e-6 share theirs. Round
        # 1: 4 one-station networks for those two and 2 each for kkt and the
        # ladder; 28 and 14 two-station ones (per config, fig4's 11 steps,
        # the walk's 2 later ones and its window up to the arrival). Round
        # 2: the walks' runs from the arrival, 2, 1 and 1. The sequential
        # schedule solves its 17 legs one at a time.
        assert sorted(calls) == [1] * 19 + [2] * 3 + [4] + [14] * 2 + [28]
        assert run_scenarios([]) == []

    def test_the_first_serial_error_may_come_from_a_later_config_group(self):
        # Prices 100 and 300 fall below the ladder with different messages.
        # In serial order the first error is 100's, whose config group is
        # solved after the group holding 300's.
        early = ConvergenceConfig(rate_set=LADDERS[2])
        late = replace(early, delta=1e-8)
        channel = ChannelModel([110.0, 130.0, 210.0])
        base = Scenario(channel, UserTable(alpha2=[20.0] * 3), ["u1", "u2", "u3"])
        runs = [(early, 1e-5), (late, 100.0), (early, 300.0)]
        scenarios = [replace(base, config=c, pricing=PricingRule("constant", lam)) for c, lam in runs]
        errors = []
        for order in (scenarios, scenarios[::-1]):
            with pytest.raises(NoFeasibleRateError) as want:
                for one in order:
                    run_scenario(one)
            with pytest.raises(NoFeasibleRateError) as got:
                run_scenarios(order)
            assert str(got.value) == str(want.value)
            errors.append(str(got.value))
        assert errors[0] != errors[1]

    @pytest.mark.parametrize("target, loops", [("table3", 2), ("table4", 1)])
    def test_reference_tables_solve_their_runs_as_batches(self, target, loops, monkeypatch):
        # table3: the clamp rows with the first escalation window of each
        # escalated row, then the kkt rows; table4: all five rows.
        calls = counted_loops(monkeypatch)
        assert reproduce(target).passed
        assert len(calls) == loops

    def test_reproduce_all_solves_every_target_in_four_loops(self, monkeypatch):
        # Round 1 is one batch of the 22 default-config one-station runs of
        # table1-4 and fig1-2, table1's removal window (its three users, then
        # less u3, its answer), table3's two escalation windows of
        # ESCALATION_WINDOW = 6 coefficients each and fig3's window up to its
        # arrival, under delta = 1e-8 (37 networks); with it come table3's
        # kkt rows and fig4's 11 steps.
        # Round 2 is fig3's run from the arrival, alone.
        want = [reproduce(target).lines() for target in REPRODUCE_TARGETS]
        calls, sweeps = counted_loops(monkeypatch), counted_sweeps(monkeypatch)
        got = reproduce_many(REPRODUCE_TARGETS)
        assert [report.lines() for report in got] == want
        assert sorted(calls) == [1, 2, 11, 37]
        assert sum(sweeps) == 106

    def test_a_sweep_steps_its_arrival_windows_together(self, monkeypatch, capsys):
        # Five prices of new_user.scn, whose fourth user arrives at
        # iteration 20: one loop for the five windows up to the arrival and
        # one for the five runs from it.
        calls = counted_loops(monkeypatch)
        argv = ["sweep-lambda", str(SCENARIO_DIR / "new_user.scn"), "--from", "1e-5", "--to", "1e-3", "--steps", "5"]
        assert main(argv) == 0
        assert calls == [5, 5]
        # A header, then a row for each of the four users at each price.
        assert len(capsys.readouterr().out.splitlines()) == 1 + 5 * 4

    def test_an_unknown_target_is_refused_before_any_solve(self, monkeypatch):
        calls = counted_loops(monkeypatch)
        with pytest.raises(ValueError, match="^unknown target 'table9'"):
            reproduce_many(["table1", "table9"])
        assert calls == []

    def test_a_sweep_with_arrivals_and_moves_equals_serial_runs(self):
        scenario = walk_with_arrival()
        lambdas = [1e-5, 1e-1, 10.0]
        for lam, trace, summary in sweep_lambda(scenario, lambdas):
            segments, last = serial_run(replace(scenario, pricing=PricingRule("constant", lam)))
            assert_same_outcome(
                trace, replace(last, segments=segments, iterations_used=trace.iterations_used)
            )
            assert trace.iterations_used == sum(len(s.iterations) for s in segments)
            assert [s.step for s in segments] == [1, 1, 2, 3]
            assert summary.user_names == ["u1", "u2", "u3", "u4"]

    def test_arrivals_listed_out_of_order_join_in_iteration_order(self):
        # The later steps play the network the arrivals grew, who join in
        # iteration order whatever order the scenario lists them in.
        channel = ChannelModel([[110.0, 400.0], [130.0, 380.0], [390.0, 120.0]])
        arrivals = [
            ArrivalEvent(9, "late", np.array([200.0, 300.0]), UserTable(alpha2=[20.0], p_max=0.5)),
            ArrivalEvent(4, "early", np.array([350.0, 150.0]), UserTable(alpha2=[12.9492])),
        ]
        moves = [MoveEvent(2, 0, np.array([600.0, 600.0])), MoveEvent(3, 0, np.array([250.0, 260.0]))]
        names = ["u1", "u2", "u3"]
        rule = PricingRule("per_user_count", 2e-5)
        users = UserTable(alpha2=[20.0] * 3)
        scenario = Scenario(channel, users, names, ConvergenceConfig(), rule, arrivals, moves)
        trace, summary = run_scenario(scenario)
        segments, last = serial_run(scenario)
        assert_same_outcome(
            trace, replace(last, segments=segments, iterations_used=trace.iterations_used)
        )
        assert [s.step for s in segments] == [1, 1, 1, 2, 3]
        assert summary.user_names == names + ["early", "late"]

    def test_a_sweep_raises_the_error_serial_runs_meet_first(self):
        # At price 1 the walk's far step falls below the ladder; at price 100
        # step 1 already does. A price-by-price loop meets the first, though
        # the second comes from step 1, whose arrival takes two rounds.
        scenario = walk_with_arrival(LADDERS[2])
        priced = [replace(scenario, pricing=PricingRule("constant", lam)) for lam in (1.0, 100.0)]
        errors = []
        for one in priced:
            with pytest.raises(NoFeasibleRateError) as exc:
                serial_run(one)
            errors.append(str(exc.value))
        assert errors[0] != errors[1]
        with pytest.raises(NoFeasibleRateError) as got:
            sweep_lambda(scenario, [1.0, 100.0])
        assert str(got.value) == errors[0]


def histories(config):
    return [replace(config, history=h) for h in (HISTORY_LAST, HISTORY_FULL)]


@st.composite
def history_runs(draw):
    """``batches()`` under either schedule."""
    schedule = draw(st.sampled_from([SYNCHRONOUS, SEQUENTIAL]))
    return [(network, replace(config, schedule=schedule)) for network, config in draw(batches())]


class TestHistory:
    @settings(max_examples=200, deadline=None)
    @given(history_runs())
    def test_last_history_is_the_full_traces_last_rows(self, requests):
        last, full = (engine._solve(with_history(requests, h)) for h in (HISTORY_LAST, HISTORY_FULL))
        for pair in zip(last, full):
            assert_same_outcome(*pair, last_rows=True)

    @pytest.mark.parametrize("schedule", [SYNCHRONOUS, SEQUENTIAL])
    @pytest.mark.parametrize("policy", [CLAMP, KKT])
    @pytest.mark.parametrize("ladder", [None, False, True])
    def test_lengths_differ_arrivals_and_ladders(self, schedule, policy, ladder):
        # Table 3's six users converge in different numbers of iterations at
        # these three prices and a budget of 12 stops the last; a ladder
        # snaps every iteration's rates (False) or the converged row's (True).
        config = ConvergenceConfig(
            max_iterations=12,
            policy=policy,
            schedule=schedule,
            rate_set=None if ladder is None else LADDERS[1],
            quantize_at_convergence=bool(ladder),
        )
        last, full = histories(config)
        scenario = table3_scenario(6)
        networks = [
            Network(scenario.channel, scenario.users, PricingRule("constant", c))
            for c in (4e-4, 5e-4, 6e-4)
        ]
        got = iterate_batch(networks, last)
        for pair in zip(got, iterate_batch(networks, full)):
            assert_same_outcome(*pair, last_rows=True)
        assert len({t.iterations_used for t in got}) > 1 and not got[-1].converged
        # Arrivals and move steps, through run_scenario.
        scenario = walk_with_arrival(config.rate_set)
        for lam in (1e-5, 1e-1):
            priced = replace(scenario, pricing=PricingRule("constant", lam))
            traces = [run_scenario(replace(priced, config=c))[0] for c in (last, full)]
            assert_same_outcome(*traces, last_rows=True)

    def test_no_last_history_solve_stacks_rows(self, monkeypatch):
        # Only "full" history stacks the (iterations x users) rows; every
        # reference experiment runs, and passes, without it.
        def refuse(*args):
            raise AssertionError("rows stacked under last history")

        monkeypatch.setattr(engine, "_columns", refuse)
        assert all(reproduce(target).passed for target in REPRODUCE_TARGETS)
        full = ConvergenceConfig(history=HISTORY_FULL)
        with pytest.raises(AssertionError, match="rows stacked"):
            iterate_to_convergence(ChannelModel([110.0, 130.0]), UserTable(alpha2=[20.0] * 2), full)


def serial_escalation(channel, users, rule, config=None, max_steps=40):
    """Escalation one coefficient at a time, the loop the window must agree with."""
    step = rule.dc if rule.dc is not None else 0.25 * rule.c
    weights = zip(users.alpha1.tolist(), users.alpha2.tolist())
    targets = [target_sinr(a1, a2, channel.bandwidth_hz) for a1, a2 in weights]
    tested, trace = [], None
    for k in range(max_steps):
        c = rule.c + k * step
        trace = iterate_to_convergence(channel, priced_users(replace(rule, c=c), channel, users), config)
        tested.append(c)
        if BELOW_TARGET not in classify_users(trace, targets):
            return EscalationResult(c, True, trace, tested)
    return EscalationResult(tested[-1], False, trace, tested)


def assert_escalation_is_serial(channel, users, rule, config=None, max_steps=40):
    try:
        want = serial_escalation(channel, users, rule, config, max_steps)
    except (ValueError, NotConvergedError) as exc:
        with pytest.raises(type(exc)) as got:
            escalate_pricing(channel, users, rule, config, max_steps)
        assert str(got.value) == str(exc)
        return exc
    got = escalate_pricing(channel, users, rule, config, max_steps)
    assert (got.tested, got.c_final, got.achieved) == (want.tested, want.c_final, want.achieved)
    assert_same_outcome(got.trace, want.trace)
    return got


def table3_escalation(c=4e-4, dc=1e-4):
    # Six users at 110 m: below target at 4e-4, achieved at 5e-4, and the
    # solves at 4e-4, 5e-4 and 6e-4 or more take 8, 16 and 35 iterations.
    scenario = table3_scenario(6)
    return scenario.channel, scenario.users, PricingRule("constant", c, dc=dc)


class TestEscalationWindow:
    def test_the_window_batches_more_than_one_coefficient(self):
        assert ESCALATION_WINDOW > 1

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 8),
        st.sampled_from([1, 2]),
        st.integers(1, 14),
        st.sampled_from([SYNCHRONOUS, SEQUENTIAL]),
        st.sampled_from([None, 30]),
        st.sampled_from(LADDERS),
    )
    def test_random_networks_match_serial_escalation(self, seed, n, b, max_steps, schedule, budget, ladder):
        # Up to 14 steps spans more than two windows; a ladder snaps the
        # converged row's rates, so the window's test reads snapped SINRs.
        rng = np.random.default_rng(seed)
        channel = ChannelModel(rng.uniform(20.0, 400.0, (n, b)))
        alpha2 = rng.choice([12.9492, 16.0, 20.0], n)
        users = UserTable(alpha2=alpha2, p_max=rng.uniform(0.02, 2.0, n))
        c = float(10.0 ** rng.uniform(-6.0, -3.0))
        rule = PricingRule("constant", c, dc=c * float(rng.uniform(0.2, 1.0)))
        config = ConvergenceConfig(
            schedule=schedule,
            max_iterations=budget or 500,
            rate_set=ladder,
            quantize_at_convergence=ladder is not None,
        )
        assert_escalation_is_serial(channel, users, rule, config, max_steps)

    def test_max_steps_below_the_window(self):
        channel, users, rule = table3_escalation(c=1e-4, dc=1e-5)
        got = assert_escalation_is_serial(channel, users, rule, max_steps=ESCALATION_WINDOW - 1)
        assert not got.achieved and len(got.tested) == ESCALATION_WINDOW - 1

    def test_the_window_reads_past_the_achieved_coefficient_unreported(self):
        got = assert_escalation_is_serial(*table3_escalation())
        assert got.achieved and got.tested == [4e-4, 5e-4]

    def test_non_convergence_past_the_achieved_coefficient_does_not_surface(self):
        # 6e-4 would need 35 iterations; the serial loop stops at 5e-4.
        got = assert_escalation_is_serial(*table3_escalation(), ConvergenceConfig(max_iterations=20))
        assert got.achieved and got.c_final == 5e-4

    def test_non_convergence_the_serial_loop_reaches_surfaces(self):
        exc = assert_escalation_is_serial(*table3_escalation(), ConvergenceConfig(max_iterations=12))
        assert isinstance(exc, NotConvergedError)
        assert str(exc).startswith("run did not converge within 12 iterations")

    # Snapped at convergence onto this ladder, 4e-4 stays below target and
    # 5e-4 is achieved, while 6e-4's rates lie below its lowest rung.
    LADDER = ConvergenceConfig(rate_set=RateSet((15447.0, 17273.0, 96000.0)), quantize_at_convergence=True)

    def test_a_ladder_error_past_the_achieved_coefficient_does_not_surface(self):
        got = assert_escalation_is_serial(*table3_escalation(), self.LADDER)
        assert got.achieved and got.tested == [4e-4, 5e-4]

    def test_a_ladder_error_the_serial_loop_reaches_surfaces(self):
        exc = assert_escalation_is_serial(*table3_escalation(dc=2e-4), self.LADDER)
        assert isinstance(exc, NoFeasibleRateError)
        assert "(minimum is 15447.0)" in str(exc)

    def test_a_pricing_error_past_the_achieved_coefficient_does_not_surface(self):
        # The third coefficient overflows to inf, but the first is achieved.
        got = assert_escalation_is_serial(*table3_escalation(c=5e-4, dc=1e308))
        assert got.achieved and got.tested == [5e-4]

    def test_a_pricing_error_the_serial_loop_reaches_surfaces(self):
        # Under noise equal to their gain the users see an interference of
        # about 1, which holds them below target at any price, so the serial
        # loop prices the third coefficient, which overflows to inf.
        channel = ChannelModel([97.0**0.25, 97.0**0.25], noise_w=1e-3)
        rule = PricingRule("constant", 1e307, dc=1e308)
        exc = assert_escalation_is_serial(channel, UserTable.from_users([UserParams()] * 2), rule)
        assert str(exc) == "c must be finite, got inf"

    def test_the_answered_window_stops_at_its_answer(self, monkeypatch):
        # crowded_cell: 4e-4, 5e-4 and 6e-4 converge in 8, 16 and 35
        # iterations and 5e-4 is achieved, so its window of six steps 16
        # iterations, not 35, in one loop.
        scenario = parse_scenario(CROWDED_CELL.read_text())
        rule = PricingRule("constant", 4e-4, dc=1e-4)
        calls, sweeps = counted_loops(monkeypatch), counted_sweeps(monkeypatch)
        got = escalate_pricing(scenario.channel, scenario.users, rule, scenario.config)
        assert got.achieved and got.tested == [4e-4, 5e-4]
        assert calls == [ESCALATION_WINDOW] and sweeps == [16]

    def test_non_convergence_before_the_answer_surfaces(self, monkeypatch):
        # Under this absolute stopping rule the first six coefficients need
        # 8, 27, 25, 24, 36 and 35 iterations, and the fourth is the first
        # achieved. Its window stops at 27, when the second converges, not
        # at 36. With a budget of 26 the second never converges, which
        # raises, as serially, after 26 iterations.
        distances = [[352.0, 129.0, 458.0], [440.0, 370.0, 499.0], [419.0, 534.0, 254.0]]
        channel = ChannelModel(distances, noise_w=2.2e-16)
        users = UserTable(alpha2=[20.0, 20.0, 40.0], p_max=[0.056, 1.3, 0.028])
        rule = PricingRule("constant", 1.4e-5, dc=3.1e-5)
        config = ConvergenceConfig(delta=1e-5, metric=METRIC_ABSOLUTE)
        traces = [
            iterate_to_convergence(channel, users, config, pricing=replace(rule, c=rule.c + k * rule.dc))
            for k in range(6)
        ]
        assert [t.iterations_used for t in traces] == [8, 27, 25, 24, 36, 35]
        sweeps = counted_sweeps(monkeypatch)
        got = assert_escalation_is_serial(channel, users, rule, config)
        assert got.achieved and len(got.tested) == 4 and sweeps[-1] == 27
        exc = assert_escalation_is_serial(channel, users, rule, replace(config, max_iterations=26))
        assert isinstance(exc, NotConvergedError)
        assert str(exc).startswith("run did not converge within 26 iterations")
        assert sweeps[-1] == 26

    def test_the_window_tests_the_snapped_row(self, monkeypatch):
        # On this ladder 4e-4's rates snap from about 17274 down to 15447,
        # which lifts its users to target: its window is answered at 8
        # iterations, where its continuous row, still below target, would
        # wait for 5e-4 at 16. 6e-4's rates lie below the ladder.
        config = ConvergenceConfig(rate_set=RateSet((15447.0, 96000.0)), quantize_at_convergence=True)
        sweeps = counted_sweeps(monkeypatch)
        got = assert_escalation_is_serial(*table3_escalation(), config)
        assert got.achieved and got.tested == [4e-4] and sweeps[-1] == 8

    @pytest.mark.parametrize("config", [ConvergenceConfig(max_iterations=20), LADDER], ids=["budget", "ladder"])
    def test_a_coefficient_past_the_answer_holds_no_shared_batch_open(self, config, monkeypatch):
        # Past the answer (5e-4, at 16 iterations) 6e-4 would not converge
        # within 20 iterations, or its converged rates would fall below the
        # ladder. Driven with a scenario run of the same config, as
        # ``reproduce_many`` drives table3, the one shared loop stops when
        # both are answered, and nothing is solved again alone.
        channel, users, rule = table3_escalation()
        scenario = replace(table3_scenario(7), config=config)
        want = serial_escalation(channel, users, rule, config)
        run_trace, _ = run_scenario(scenario)
        assert run_trace.iterations_used == 7
        calls, sweeps = counted_loops(monkeypatch), counted_sweeps(monkeypatch)
        got, (trace, _) = engine._drive([admission._escalation(channel, users, rule, config), _run(scenario)])
        assert calls == [ESCALATION_WINDOW + 1]
        assert sweeps == [16]
        assert (got.tested, got.c_final, got.achieved) == (want.tested, want.c_final, want.achieved)
        assert_same_outcome(got.trace, want.trace)
        assert_same_outcome(trace, run_trace)

    def test_every_width_gives_the_serial_answer(self, monkeypatch):
        # Every width gives the serial answer; the constant only sets how
        # many coefficients are solved together.
        for width in (1, 2, 5):
            monkeypatch.setattr(admission, "ESCALATION_WINDOW", width)
            assert_escalation_is_serial(*table3_escalation())
            assert_escalation_is_serial(*table3_escalation(), ConvergenceConfig(max_iterations=12))


def serial_removal(channel, users, config=None):
    """Removal one user per solve, the loop the window must agree with."""
    weights = zip(users.alpha1.tolist(), users.alpha2.tolist())
    targets = np.array([target_sinr(a1, a2, channel.bandwidth_hz) for a1, a2 in weights])
    active, removed = list(range(len(users))), []
    while active:
        trace = iterate_to_convergence(channel.subset(active), users[active], config)
        outcomes = classify_users(trace, targets[active])
        below = [k for k, o in enumerate(outcomes) if o == BELOW_TARGET]
        if not below:
            return RemovalResult(removed, active, trace, False)
        ratios = trace.final_sinrs / targets[active]
        removed.append(active.pop(min(below, key=ratios.__getitem__)))
    return RemovalResult(removed, [], None, True)


def assert_removal_is_serial(channel, users, config=None):
    try:
        want = serial_removal(channel, users, config)
    except (ValueError, NotConvergedError) as exc:
        with pytest.raises(type(exc)) as got:
            removal_loop(channel, users, config)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return exc
    got = removal_loop(channel, users, config)
    assert (got.removed, got.remaining, got.empty_network) == (want.removed, want.remaining, want.empty_network)
    if want.trace is None:
        assert got.trace is None
    else:
        assert_same_outcome(got.trace, want.trace)
    return got


def overloaded_cell(n, seed=0, noise_w=5e-15):
    """three_users.scn's constants for n users at U(50, 400) m from one station."""
    rng = np.random.default_rng(seed)
    channel = ChannelModel(rng.uniform(50.0, 400.0, n), noise_w=noise_w)
    users = UserTable(alpha1=1e6, alpha2=[20.0] * n, lam=1e-5, p_max=3.0, r_max=47000.0)
    return channel, users


class TestRemovalWindow:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 12),
        st.integers(1, 3),
        st.sampled_from([SYNCHRONOUS, SEQUENTIAL]),
        st.sampled_from([CLAMP, KKT]),
        st.sampled_from([5e-15, 0.0]),
        st.sampled_from([None, 28, 33]),
        st.sampled_from([REMOVAL_WINDOW, 4, 6]),
    )
    def test_random_overloaded_cells_match_serial_removal(self, seed, n, b, schedule, policy, noise, budget, width):
        # Mixed targets and power caps put several users below target and
        # make some predictions miss; zero noise refuses a one-user network
        # at entry, and most rounds need 25-35 iterations, so a budget of 28
        # or 33 leaves some unconverged, before or past a window's answer.
        # Every width gives the serial answer; the constant only sets how
        # many networks a round solves together.
        rng = np.random.default_rng(seed)
        channel = ChannelModel(rng.uniform(50.0, 400.0, (n, b)), noise_w=noise)
        users = UserTable(
            alpha1=1e6,
            alpha2=rng.choice([12.9492, 16.0, 20.0, 25.0], n),
            lam=1e-5,
            p_max=rng.uniform(0.05, 3.0, n),
            r_max=47000.0,
        )
        config = ConvergenceConfig(schedule=schedule, policy=policy, max_iterations=budget or 500)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(admission, "REMOVAL_WINDOW", width)
            assert_removal_is_serial(channel, users, config)

    @pytest.mark.parametrize(
        "width, n, loops",
        [(REMOVAL_WINDOW, 20, 9), (REMOVAL_WINDOW, 40, 19), (REMOVAL_WINDOW, 80, 39)]
        + [(6, 20, 3), (6, 40, 7), (6, 80, 13)],
    )
    def test_an_overloaded_cell_removes_a_window_a_loop(self, width, n, loops, monkeypatch):
        # Every prediction holds, so each loop call serves ``width`` serial
        # rounds: 18, 38 and 78 rounds, one loop call each, at width 1.
        monkeypatch.setattr(admission, "REMOVAL_WINDOW", width)
        channel, users = overloaded_cell(n)
        want = serial_removal(channel, users)
        calls = counted_loops(monkeypatch)
        got = removal_loop(channel, users)
        assert len(calls) == loops
        assert (got.removed, got.remaining) == (want.removed, want.remaining)
        assert len(got.removed) == n - 3
        assert_same_outcome(got.trace, want.trace)

    @pytest.mark.parametrize("n", [20, 40])
    def test_the_sequential_schedule_solves_one_network_a_round(self, n, monkeypatch):
        channel, users = overloaded_cell(n)
        config = ConvergenceConfig(schedule=SEQUENTIAL)
        calls = counted_loops(monkeypatch)
        got = removal_loop(channel, users, config)
        assert calls == [1] * (len(got.removed) + 1)

    def test_table1_removes_u3_in_one_round(self, monkeypatch):
        # The best gain over target names u3 first; its removal is the one
        # predicted, and the two survivors, nobody below target, answer the
        # window.
        scenario = table1_scenario(1e-5)
        calls, sweeps = counted_loops(monkeypatch), counted_sweeps(monkeypatch)
        got = removal_loop(scenario.channel, scenario.users)
        assert (got.removed, got.remaining) == ([2], [0, 1])
        assert calls == [REMOVAL_WINDOW] and sweeps == [35]

    def test_a_lone_zero_noise_user_past_the_answer_does_not_surface(self, monkeypatch):
        # Under zero noise a one-user network is refused at entry. Two users
        # both at target answer the window before its lone member; at width
        # 3, of three users, user 0 goes as predicted and the two survivors
        # answer before the last.
        for width, n, removed in ((REMOVAL_WINDOW, 2, []), (3, 3, [0])):
            monkeypatch.setattr(admission, "REMOVAL_WINDOW", width)
            channel, users = overloaded_cell(n, noise_w=0.0)
            got = assert_removal_is_serial(channel, users)
            assert got.removed == removed and len(got.remaining) == 2

    def test_a_lone_zero_noise_user_the_serial_loop_reaches_surfaces(self):
        channel = ChannelModel([60.0, 390.0], noise_w=0.0)
        users = UserTable(alpha1=1e6, alpha2=[20.0, 25.0], lam=1e-5, p_max=[3.0, 0.01], r_max=47000.0)
        exc = assert_removal_is_serial(channel, users)
        assert str(exc) == "a lone user with zero noise has no positive fixed point"

    def test_non_convergence_past_the_answer_does_not_surface(self, monkeypatch):
        # The first window's networks of 5 and 4 users converge in 11 and 23
        # iterations; in the second, the 3 users' run converges in 27 and is
        # the answer, and the two-user one past it would need 35. With a
        # budget of 27 the loop drops it unconverged; with 26 the answer
        # itself does not converge.
        channel, users = overloaded_cell(5, seed=194)
        outcomes, loop = [], engine._loop

        def spy(legs, *args, **kwargs):
            traces = loop(legs, *args, **kwargs)
            outcomes.extend((len(leg.users), t and t.iterations_used) for leg, t in zip(legs, traces))
            return traces

        monkeypatch.setattr(engine, "_loop", spy)
        got = assert_removal_is_serial(channel, users, ConvergenceConfig(max_iterations=27))
        assert (got.removed, got.remaining) == ([1, 0], [2, 3, 4])
        assert sorted(outcomes[-4:]) == [(2, None), (3, 27), (4, 23), (5, 11)]
        # Users 2 and 4, what is left once user 3 goes next as predicted.
        alone = iterate_to_convergence(channel.subset([2, 4]), users[[2, 4]], ConvergenceConfig(max_iterations=27))
        assert not alone.converged
        exc = assert_removal_is_serial(channel, users, ConvergenceConfig(max_iterations=26))
        assert str(exc).startswith("run did not converge within 26 iterations")


class TestPricedUsers:
    RULES = [
        PricingRule("constant", 3e-4),
        PricingRule("per_user_count", 2e-5),
        PricingRule("direct_gain", 1e3),
        PricingRule("inverse_gain", 1e-16),
        PricingRule("target_ratio", 1e-4),
        PricingRule("inverse_target_ratio", 1e-4),
    ]

    @pytest.mark.parametrize("rule", RULES, ids=lambda r: r.kind)
    def test_equals_replace(self, rule):
        channel = ChannelModel([90.0, 150.0, 320.0])
        users = [
            UserParams(alpha2=12.9492, p_init=0.5),
            UserParams(alpha1=2e6, alpha2=30.0, r_max=5e4, r_init=100.0),
            UserParams(alpha2=20.0, lam=7.0),
        ]
        got = priced_users(rule, channel, UserTable.from_users(users))
        n = len(users)
        gains = channel.gains[:, 0]
        want = [
            replace(u, lam=pricing_rule_eval(rule, n, float(g), u.alpha1, u.alpha2))
            for u, g in zip(users, gains)
        ]
        assert got == UserTable.from_users(want)
        assert isinstance(got, UserTable) and len(got) == n

    @pytest.mark.parametrize(
        "rule, distances, message",
        [
            (PricingRule("per_user_count", 1e308), [110.0, 130.0], "lam must be finite, got inf"),
            (PricingRule("inverse_gain", 1e300), [1e5, 130.0], "lam must be finite, got inf"),
            (PricingRule("direct_gain", 1e-300), [1e7, 130.0], "pricing factor must be positive"),
        ],
    )
    def test_an_overflowing_price_raises_as_replace_does(self, rule, distances, message):
        channel = ChannelModel(distances)
        users = [UserParams()] * len(distances)
        gain = float(channel.gains[0, 0])
        lam = pricing_rule_eval(rule, len(users), gain, 1e6, 20.0)
        with pytest.raises(ValueError) as want:
            replace(users[0], lam=lam)
        with pytest.raises(ValueError) as got:
            priced_users(rule, channel, UserTable.from_users(users))
        assert str(got.value) == str(want.value) == message
