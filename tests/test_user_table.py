"""The array form of a user set against the scalar ``UserParams`` it stands for.

A ``UserTable`` built from columns checks them vectorised, and the first bad
row raises what ``UserParams`` raises for it; its rows read back as the users
they came from; pricing writes one column equal to ``oracle.with_lam`` of
each user at ``oracle.pricing_rule_eval``; and
parsing, pricing and solving a scenario builds no ``UserParams`` at all. A
solve refuses at entry a user whose rate box holds no rung of the ladder, and
arithmetic that reaches NaN as a ValueError.
"""

import contextlib
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ratepower.core import (
    GAIN_DEPENDENT_KINDS,
    PRICING_KINDS,
    ChannelModel,
    PricingRule,
    RateSet,
    UserParams,
    UserTable,
    _RowError,
    priced_users,
)
from ratepower.engine import ConvergenceConfig, Network, iterate_batch, iterate_to_convergence
from ratepower.oracle import pricing_rule_eval, with_lam
from ratepower.scenario import ArrivalEvent, parse_scenario, run_scenario, summary_to_text

FIELDS = ("alpha1", "alpha2", "lam", "p_min", "p_max", "r_min", "r_max", "p_init", "r_init")
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def rows(draw):
    """One valid user's fields, None where it has no initial strategy."""
    p_min, p_max = sorted(draw(st.lists(st.floats(1e-9, 10.0), min_size=2, max_size=2)))
    r_min, r_max = sorted(draw(st.lists(st.floats(1e-3, 1e6), min_size=2, max_size=2)))
    return {
        "alpha1": draw(st.floats(1.0, 1e8)),
        "alpha2": draw(st.floats(1e-3, 1e3)),
        "lam": draw(st.floats(1e-12, 1.0)),
        "p_min": p_min,
        "p_max": p_max,
        "r_min": r_min,
        "r_max": r_max,
        "p_init": draw(st.none() | st.floats(p_min, p_max)),
        "r_init": draw(st.none() | st.floats(r_min, r_max)),
    }


def bad_value(draw, row, name):
    """A value of field ``name`` that makes ``row`` invalid."""
    specials = [math.inf, -math.inf]
    if name in ("p_init", "r_init"):
        lo, hi = (row["p_min"], row["p_max"]) if name == "p_init" else (row["r_min"], row["r_max"])
        return draw(st.sampled_from(specials + [lo / 2, hi * 2, math.nextafter(lo, 0.0), -1.0]))
    choices = specials + [math.nan, 0.0, -0.0, -1.0, draw(finite.filter(lambda x: x <= 0))]
    if name == "p_min":
        choices.append(row["p_max"] * 2)
    if name == "p_max":
        choices.append(row["p_min"] / 2)
    if name == "r_min":
        choices.append(row["r_max"] * 2)
    if name == "r_max":
        choices.append(row["r_min"] / 2)
    return draw(st.sampled_from(choices))


@st.composite
def tables_with_bad_rows(draw):
    """1-6 rows, of which some have one field pushed out of range."""
    table = draw(st.lists(rows(), min_size=1, max_size=6))
    for i in draw(st.sets(st.integers(0, len(table) - 1), min_size=1)):
        name = draw(st.sampled_from(FIELDS))
        table[i][name] = bad_value(draw, table[i], name)
    return table


def columns_of(table):
    return {name: [np.nan if row[name] is None else row[name] for row in table] for name in FIELDS}


def first_refusal(table):
    for i, row in enumerate(table):
        try:
            UserParams(**row)
        except ValueError as exc:
            return i, str(exc)
    return None


class TestChecks:
    @settings(max_examples=150, deadline=None)
    @given(tables_with_bad_rows())
    def test_the_first_bad_row_raises_its_scalar_message(self, table):
        want = first_refusal(table)
        if want is None:
            # A bad p_init or r_init pushed onto the same value: still valid.
            UserTable(**columns_of(table))
            return
        with pytest.raises(_RowError) as info:
            UserTable(**columns_of(table))
        assert (info.value.row, str(info.value)) == want

    @settings(max_examples=50, deadline=None)
    @given(st.lists(rows(), min_size=1, max_size=6))
    def test_valid_columns_build_the_table_of_their_users(self, table):
        users = [UserParams(**row) for row in table]
        assert UserTable(**columns_of(table)) == UserTable.from_users(users)

    def test_left_out_columns_take_the_defaults_and_numbers_repeat(self):
        table = UserTable(alpha2=[20.0, 25.0], p_max=1.0)
        assert list(table) == [UserParams(alpha2=20.0, p_max=1.0), UserParams(alpha2=25.0, p_max=1.0)]
        assert np.isnan(table.p_init).all() and np.isnan(table.r_init).all()

    def test_a_table_of_no_users_builds_from_columns(self):
        table = UserTable(alpha2=[], lam=4e-4)
        assert len(table) == 0 and list(table) == [] and table.initial.shape == (2, 0)
        assert table == UserTable(alpha2=[]) == UserTable.from_users([]) == []
        assert table == UserTable.from_users([UserParams(), UserParams()])[0:0]

    @pytest.mark.parametrize("alpha2", [[20.0, 25.0], [[20.0]], 20.0])
    def test_columns_must_be_one_dimensional_and_of_one_length(self, alpha2):
        with pytest.raises(ValueError, match="^user columns must be 1-D and of one length$"):
            UserTable(1e6, alpha2, [1e-4], [1e-6], [3.0], [0.1], [96000.0, 96000.0] if alpha2 == 20.0 else [9.6e4])


class TestRowViews:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(rows(), max_size=6))
    def test_rows_equal_the_users_they_came_from(self, table):
        users = [UserParams(**row) for row in table]
        t = UserTable.from_users(users)
        assert len(t) == len(users)
        assert list(t) == users
        assert [t[k] for k in range(len(users))] == users
        assert t == users and users == t
        assert all(type(u) is UserParams for u in t)
        if users:
            assert t[-1] == users[-1]
            assert t[1:] == users[1:]
            assert t[[0, 0]] == [users[0], users[0]]
            assert t.with_user(users[0]) == users + [users[0]]
            assert UserTable.concat([t, users]) == users + users

    def test_a_table_differs_from_other_users(self):
        t = UserTable.from_users([UserParams(), UserParams(p_init=1.0)])
        assert t != [UserParams(), UserParams()]
        assert t != [UserParams()]
        assert t != 5 and t != "users"
        with pytest.raises(IndexError):
            t[2]
        with pytest.raises(TypeError):
            hash(t)

    def test_initial_strategies_default_to_the_lower_corner(self):
        t = UserTable.from_users([UserParams(p_init=2.0), UserParams(r_init=7.0)])
        assert t.initial.tolist() == [[2.0, UserParams().p_min], [UserParams().r_min, 7.0]]


@st.composite
def priced_networks(draw):
    n = draw(st.integers(1, 6))
    stations = draw(st.integers(1, 3))
    distances = [[draw(st.floats(10.0, 5000.0)) for _ in range(stations)] for _ in range(n)]
    users = [UserParams(**draw(rows())) for _ in range(n)]
    rule = PricingRule(draw(st.sampled_from(PRICING_KINDS)), draw(st.floats(1e-12, 1e3)))
    return rule, ChannelModel(np.array(distances)), users


def priced_one_by_one(rule, channel, users):
    """Each user priced by the scalar statements; gain pricing needs one station."""
    if rule.kind in GAIN_DEPENDENT_KINDS and channel.n_stations > 1:
        raise ValueError(
            f"pricing rule {rule.kind!r} depends on the channel gain and cannot "
            "be used with more than one station"
        )
    gains = channel.gains[:, 0]
    return [
        with_lam(u, pricing_rule_eval(rule, len(users), float(gains[i]), u.alpha1, u.alpha2))
        for i, u in enumerate(users)
    ]


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


class TestPricing:
    @settings(max_examples=150, deadline=None)
    @given(priced_networks())
    def test_the_column_equals_per_user_with_lam(self, network):
        got, want = (outcome(f, *network) for f in (priced_users, priced_one_by_one))
        if isinstance(want, str):
            assert got == want
        else:
            assert got == want
            assert isinstance(got, UserTable)

    @pytest.mark.parametrize("kind", PRICING_KINDS)
    def test_every_kind_on_a_fixed_network(self, kind):
        channel = ChannelModel([110.0, 130.0, 210.0])
        users = [UserParams(alpha2=a2) for a2 in (12.0, 20.0, 25.0)]
        rule = PricingRule(kind, 3e-5)
        assert priced_users(rule, channel, users) == priced_one_by_one(rule, channel, users)

    @pytest.mark.parametrize("lam", [[1e-4, math.inf], [1e-4, 0.0], [math.nan, 1e-4], -1.0])
    def test_a_bad_factor_raises_the_scalar_message(self, lam):
        t = UserTable.from_users([UserParams(), UserParams()])
        first = next(x for x in np.atleast_1d(lam) if not 0 < x < math.inf)
        with pytest.raises(ValueError) as want:
            with_lam(UserParams(), float(first))
        with pytest.raises(ValueError) as got:
            t.with_lam(lam)
        assert str(got.value) == str(want.value)

    def test_an_overflowing_factor_is_refused_without_a_warning(self):
        channel = ChannelModel([1e-3, 110.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^lam must be finite, got inf$"):
                priced_users(PricingRule("direct_gain", 1e300), channel, [UserParams()] * 2)


def cell_text(n=100):
    users = "".join(
        f"[user u{k}]\ndistances_m = {60.0 + 1.6 * k!r}\nalpha2 = {(12.9492, 16.0, 20.0, 25.0)[k % 4]!r}\n"
        f"p_max = 3.0\nr_max = 96000.0\n\n"
        for k in range(n)
    )
    return users + "[pricing]\nrule = per_user_count\nc = 1e-5\n"


def test_parsing_pricing_and_solving_build_no_user_params(monkeypatch):
    built = []
    post_init = UserParams.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(UserParams, "__post_init__", counted)
    scenario = parse_scenario(cell_text())
    trace, summary = run_scenario(scenario)
    summary_to_text(summary)
    assert trace.converged and len(trace.users) == 100
    assert built == []
    UserParams()
    assert len(built) == 1


class TestLadderAtEntry:
    LADDER = ConvergenceConfig(rate_set=RateSet((50000.0, 96000.0)))
    MESSAGE = "user 1: rate box [0.1, 47000.0] holds no rung of the rate ladder"

    def test_a_solve_refuses_a_user_below_the_ladder(self):
        users = [UserParams(), UserParams(r_max=47000.0), UserParams(r_max=47000.0)]
        channel = ChannelModel([110.0, 130.0, 210.0])
        with pytest.raises(ValueError) as info:
            iterate_to_convergence(channel, users, self.LADDER)
        assert str(info.value) == self.MESSAGE
        (got,) = iterate_batch([Network(channel, users)], self.LADDER)
        assert str(got) == self.MESSAGE

    def test_a_box_above_the_ladder_is_refused(self):
        users = [UserParams(r_min=1e5, r_max=2e5)] * 2
        with pytest.raises(ValueError, match="^user 0: rate box"):
            iterate_to_convergence(ChannelModel([110.0, 130.0]), users, self.LADDER)

    def test_an_arriving_user_is_checked_before_the_first_iteration(self):
        newcomer = ArrivalEvent(3, "c", np.array([150.0]), UserParams(r_min=60000.0, r_max=90000.0))
        with pytest.raises(ValueError, match="^user 2: rate box"):
            iterate_to_convergence(ChannelModel([110.0, 130.0]), [UserParams()] * 2, self.LADDER, arrivals=[newcomer])

    def test_a_box_holding_a_rung_at_either_end_solves(self):
        users = [UserParams(r_min=50000.0, r_max=60000.0), UserParams(r_min=96000.0, r_max=96000.0)]
        trace = iterate_to_convergence(ChannelModel([110.0, 130.0]), users, self.LADDER)
        assert set(trace.final_rates.tolist()) <= {50000.0, 96000.0}

    def test_the_cli_refuses_the_scenario_at_parse(self, tmp_path):
        from ratepower.cli import main

        text = "".join(
            f"[user u{k}]\ndistances_m = {d}\nalpha2 = 20\nlambda = 1\np_max = 3\nr_max = 47000\n"
            for k, d in enumerate((110, 130, 210), start=1)
        )
        path = tmp_path / "three.scn"
        path.write_text(text + "[run]\nrates = 50000 96000\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", str(path)])
        assert code == 1
        assert err.getvalue() == (
            "error: line 1: user 'u1': rate box [0.1, 47000.0] holds no rung of the rate ladder\n"
        )


class TestOutOfRange:
    def test_a_nan_in_the_loop_is_a_value_error(self):
        users = [UserParams(alpha2=1e308)] * 3
        config = ConvergenceConfig(policy="kkt")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^the network's numbers leave the range of floats \(invalid value"):
                iterate_to_convergence(ChannelModel([110.0, 130.0, 210.0]), users, config)

    @pytest.mark.parametrize("distance", [1e-320, 1e308])
    def test_gains_beyond_floats_are_refused_without_a_warning(self, distance):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^derived gains must be finite and positive$"):
                ChannelModel([distance, 110.0])
