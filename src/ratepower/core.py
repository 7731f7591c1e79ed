"""The uplink model: channel, users and their table, rate ladder, pricing rule.

Everything here works in SI units throughout (watts, bps, hertz); channel
gains are dimensionless. Every constructor rejects NaN and infinite numbers.
A ``ChannelModel`` evaluates its (n_users x n_stations) gain matrix once, when
it is built, and ``gains`` hands out that cached read-only array; a channel
that changes (a removal, an arrival, a move) is a new ``ChannelModel`` with
its own gains. The functions are pure and nothing mutable is shared, so every
operation is safe to call concurrently.

A user set is held as one ``UserTable``, from the scenario parser to the
summary, an arriving user as a table of one: a column per ``UserParams``
field, checked once, vectorised, with ``UserParams``' own message for the
first bad user. ``from_users`` builds one from the oracles' scalar users.

A ``RateSet`` is the ladder of admissible rates a solve snaps onto. A
``PricingRule`` maps one coefficient to every user's pricing factor, and
``priced_users`` writes the factors as the table's new pricing column; the
engine calls it for each network it solves, at entry and after each
arrival group.

The scalar formulas of the model (path gain, target SINR, effective
interference, SINR, the utilities, one user's price and one rate's rung)
are stated in ``oracle``; the channel, the table and the solver in
``engine`` run them as array code.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields, replace

import numpy as np

__all__ = [
    "ChannelModel",
    "UserParams",
    "UserTable",
    "Strategy",
    "RateSet",
    "NoFeasibleRateError",
    "PRICING_KINDS",
    "GAIN_DEPENDENT_KINDS",
    "PricingRule",
    "priced_users",
]


def _require_finite(**values) -> None:
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _require_int(name: str, value) -> int:
    # ``value`` as an int: floats, NaN, inf and bools are refused, not cast.
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return number


def _require_count(name: str, value) -> int:
    # ``value`` as an int of at least 1.
    count = _require_int(name, value)
    if count < 1:
        raise ValueError(f"{name} must be at least 1")
    return count


def _require_index(name: str, value, size: int) -> int:
    # ``value`` as an int in [0, size): a negative index is refused, not
    # counted from the end.
    index = _require_int(name, value)
    if not 0 <= index < size:
        raise ValueError(f"{name} {index} is outside [0, {size})")
    return index


def _check_lam(lam: float) -> None:
    # A pricing factor, checked as UserParams checks its own.
    _require_finite(lam=lam)
    if lam <= 0:
        raise ValueError("pricing factor must be positive")


@np.errstate(over="ignore", divide="ignore")
def _path_gains(distances: np.ndarray, exponent: float, shadowing: float) -> np.ndarray:
    # Gains beyond the range of floats come out as 0 or inf, for the caller
    # to refuse.
    return shadowing / distances**exponent


@dataclass(frozen=True)
class ChannelModel:
    """Static uplink geometry and radio constants.

    ``distances_m`` is a (n_users x n_stations) matrix; a 1-D sequence is
    read as a single-station column. Gains follow the power-law model
    ``g[i, a] = shadowing / d[i, a] ** pathloss_exponent``, which
    ``oracle.path_gain`` states for one distance. The model is immutable
    (fields frozen, arrays read-only), so the gains cached at construction
    always match the geometry. Both matrices are stored C-ordered whatever
    the layout given, so a network solved alone and in a batch reads the
    same layout.
    """

    distances_m: np.ndarray
    pathloss_exponent: float = 4.0
    shadowing: float = 0.097
    noise_w: float = 5e-15
    bandwidth_hz: float = 1e6
    _gains: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # C order, and so the gains: ``p @ g`` rounds by the layout it reads.
        d = np.array(self.distances_m, dtype=float, order="C")
        if d.ndim == 1:
            d = d.reshape(-1, 1)
        if d.ndim != 2 or d.size == 0:
            raise ValueError("distances_m must be a non-empty users x stations matrix")
        if not np.isfinite(d).all() or (d <= 0).any():
            raise ValueError("all distances must be positive and finite")
        _require_finite(
            pathloss_exponent=self.pathloss_exponent,
            shadowing=self.shadowing,
            noise_w=self.noise_w,
            bandwidth_hz=self.bandwidth_hz,
        )
        if self.pathloss_exponent <= 0:
            raise ValueError("pathloss_exponent must be positive")
        if self.shadowing <= 0:
            raise ValueError("shadowing must be positive")
        if self.noise_w < 0:
            raise ValueError("noise_w must be non-negative")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")
        g = _path_gains(d, self.pathloss_exponent, self.shadowing)
        if not np.isfinite(g).all() or (g <= 0).any():
            raise ValueError("derived gains must be finite and positive")
        d.flags.writeable = False
        g.flags.writeable = False
        object.__setattr__(self, "distances_m", d)
        object.__setattr__(self, "_gains", g)

    @property
    def n_users(self) -> int:
        return self.distances_m.shape[0]

    @property
    def n_stations(self) -> int:
        return self.distances_m.shape[1]

    @property
    def gains(self) -> np.ndarray:
        """Per-user, per-station gain matrix (n_users x n_stations), read-only."""
        return self._gains

    def subset(self, user_indices) -> "ChannelModel":
        """Channel restricted to the given users, e.g. after removals.

        Every index must be an integer in ``[0, n_users)``.
        """
        rows = [_require_index("user index", i, self.n_users) for i in user_indices]
        return replace(self, distances_m=self.distances_m[rows])

    def with_user(self, distances_row) -> "ChannelModel":
        """Channel extended by one arriving user."""
        row = np.asarray(distances_row, dtype=float).reshape(1, -1)
        if row.shape[1] != self.n_stations:
            raise ValueError(
                f"arriving user has {row.shape[1]} distances, network has "
                f"{self.n_stations} stations"
            )
        return replace(self, distances_m=np.vstack([self.distances_m, row]))

    def moved(self, user_index: int, distances_row) -> "ChannelModel":
        """Channel with one user's distances replaced (a movement step).

        ``user_index`` must be an integer in ``[0, n_users)``.
        """
        user_index = _require_index("user index", user_index, self.n_users)
        row = np.asarray(distances_row, dtype=float).reshape(-1)
        if row.shape[0] != self.n_stations:
            raise ValueError(
                f"move has {row.shape[0]} distances, network has "
                f"{self.n_stations} stations"
            )
        d = self.distances_m.copy()
        d[user_index] = row
        return replace(self, distances_m=d)


@dataclass(frozen=True)
class UserParams:
    """One user's game constants, as the scalar oracles take them.

    The ratio alpha2/alpha1 times the bandwidth fixes the SINR the user
    settles at when its strategy stays interior; ``lam`` scales the quadratic
    price on rate and power. The strategy box bounds both coordinates and the
    initial strategy defaults to the box's lower corner. The benchmark's
    ``perfbench/workloads.py`` builds one by name for ``engine.bounded_step``.
    """

    alpha1: float = 1e6
    alpha2: float = 20.0
    lam: float = 1e-4
    p_min: float = 1e-6
    p_max: float = 3.0
    r_min: float = 0.1
    r_max: float = 96000.0
    p_init: float | None = None
    r_init: float | None = None

    def __post_init__(self) -> None:
        _require_finite(
            alpha1=self.alpha1,
            alpha2=self.alpha2,
            lam=self.lam,
            p_min=self.p_min,
            p_max=self.p_max,
            r_min=self.r_min,
            r_max=self.r_max,
            p_init=self.p_init,
            r_init=self.r_init,
        )
        if self.alpha1 <= 0 or self.alpha2 <= 0:
            raise ValueError("alpha1 and alpha2 must be positive")
        if self.lam <= 0:
            raise ValueError("pricing factor must be positive")
        if not 0 < self.p_min <= self.p_max:
            raise ValueError(f"need 0 < p_min <= p_max, got [{self.p_min}, {self.p_max}]")
        if not 0 < self.r_min <= self.r_max:
            raise ValueError(f"need 0 < r_min <= r_max, got [{self.r_min}, {self.r_max}]")
        if self.p_init is not None and not self.p_min <= self.p_init <= self.p_max:
            raise ValueError(f"p_init {self.p_init} outside [{self.p_min}, {self.p_max}]")
        if self.r_init is not None and not self.r_min <= self.r_init <= self.r_max:
            raise ValueError(f"r_init {self.r_init} outside [{self.r_min}, {self.r_max}]")

    @property
    def initial_power(self) -> float:
        return self.p_min if self.p_init is None else self.p_init

    @property
    def initial_rate(self) -> float:
        return self.r_min if self.r_init is None else self.r_init


# UserParams' fields, in order: the rows of a UserTable's block.
_USER_FIELDS = ("alpha1", "alpha2", "lam", "p_min", "p_max", "r_min", "r_max", "p_init", "r_init")
_INITS = ("p_init", "r_init")
# Each field's default, NaN for no initial strategy.
_USER_DEFAULTS = {f.name: np.nan if f.default is None else f.default for f in fields(UserParams)}
_fields_of = operator.attrgetter(*_USER_FIELDS)
_COLUMNS = {name: k for k, name in enumerate(_USER_FIELDS)}
_DEFAULT_COLUMN = np.array([list(_USER_DEFAULTS.values())]).T
# What every best response reads, by name: the two weight ratios, halved,
# and the strategy box as stacked (2, n) bounds [p; r].
_DERIVED = {
    "half_a2_a1": lambda t: 0.5 * (t.alpha2 / t.alpha1),
    "half_a1_a2": lambda t: 0.5 * (t.alpha1 / t.alpha2),
    "lo": lambda t: t._block[[3, 5]],
    "hi": lambda t: t._block[[4, 6]],
}


def _row_values(row) -> dict:
    # One user's values, in field order, as UserParams' fields; a NaN
    # initial strategy is None.
    values = dict(zip(_USER_FIELDS, row))
    for name in _INITS:
        if math.isnan(values[name]):
            values[name] = None
    return values


class _RowError(ValueError):
    """A table row that ``UserParams`` refuses, with its message; ``row`` is its index."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


class UserTable:
    """The array form of a user set: one float column per ``UserParams`` field.

    The columns (``alpha1`` ... ``r_init``) are the rows of one (9, n)
    block, each a view made on first read. ``p_init`` and ``r_init`` hold
    NaN for a user without one, which starts at its box's lower corner
    (``initial``).
    Built from columns, the table fills a column left out with the
    ``UserParams`` default and a number with that number for every user,
    checks the columns once, vectorised, and hands the first row that
    fails, in order, to ``UserParams``, so the error is the one that user
    would raise. A table of checked users (``from_users``, indexing,
    ``concat``) is not checked again, and ``with_lam`` checks only its new
    column. Tables share their blocks: none is written in place.

    The table hands out columns and tables, never rows: a slice or an index
    array gives a table, an integer index or iteration raises TypeError, and
    a table equals only a table of the same users. The solver reads the
    constants every best response needs, computed on first use:
    ``half_a2_a1 = 0.5 * (alpha2 / alpha1)``, ``half_a1_a2 = 0.5 * (alpha1
    / alpha2)``, and the strategy box as stacked (2, n) arrays ``lo = [p_min;
    r_min]`` and ``hi = [p_max; r_max]``.
    """

    alpha1: np.ndarray
    alpha2: np.ndarray
    lam: np.ndarray
    p_min: np.ndarray
    p_max: np.ndarray
    r_min: np.ndarray
    r_max: np.ndarray
    p_init: np.ndarray
    r_init: np.ndarray
    half_a2_a1: np.ndarray
    half_a1_a2: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __init__(
        self,
        alpha1=None,
        alpha2=None,
        lam=None,
        p_min=None,
        p_max=None,
        r_min=None,
        r_max=None,
        p_init=None,
        r_init=None,
    ):
        values = (alpha1, alpha2, lam, p_min, p_max, r_min, r_max, p_init, r_init)
        given = {
            name: np.asarray(value, dtype=float)
            for name, value in zip(_USER_FIELDS, values)
            if value is not None
        }
        shapes = {column.shape for column in given.values() if column.ndim}
        if len(shapes) != 1 or len(next(iter(shapes))) != 1:
            raise ValueError("user columns must be 1-D and of one length")
        block = _DEFAULT_COLUMN.repeat(shapes.pop()[0], axis=1)
        for name, column in given.items():
            block[_COLUMNS[name]] = column
        self._block = block
        self._check()

    @classmethod
    def _of(cls, block: np.ndarray) -> "UserTable":
        # A table of a block taken from checked users, used as it is.
        table = object.__new__(cls)
        table._block = block
        return table

    def __getattr__(self, name):
        # A column or a best-response constant, made on first use and kept.
        if name in _COLUMNS:
            value = self._block[_COLUMNS[name]]
        elif name in _DERIVED:
            value = _DERIVED[name](self)
        else:
            raise AttributeError(f"'UserTable' object has no attribute {name!r}")
        self.__dict__[name] = value
        return value

    def _check(self) -> None:
        b = self._block
        constants, lo, hi, inits = b[:7], b[3:7:2], b[4:7:2], b[7:]
        plain = np.isnan(inits).all()  # no initial strategy given
        # The initial values let a table of no users pass.
        low, high = constants.min(initial=np.inf), constants.max(initial=0.0)
        if plain and low > 0 and high < np.inf and (lo <= hi).all():
            return
        ok = ((constants > 0) & (constants < np.inf)).all(axis=0) & (lo <= hi).all(axis=0)
        ok &= (np.isnan(inits) | ((lo <= inits) & (inits <= hi))).all(axis=0)
        for i in np.flatnonzero(~ok).tolist():
            try:
                UserParams(**_row_values(b[:, i].tolist()))
            except ValueError as exc:
                raise _RowError(i, str(exc)) from None

    @classmethod
    def from_users(cls, users) -> "UserTable":
        """Table of the ``UserParams`` in ``users``, which are checked already."""
        rows = np.array(list(map(_fields_of, users)), dtype=float)
        return cls._of(rows.reshape(-1, len(_USER_FIELDS)).T.copy())

    @classmethod
    def concat(cls, tables) -> "UserTable":
        """The tables' users, one after another, in one table."""
        return cls._of(np.concatenate([t._block for t in tables], axis=1))

    def with_lam(self, lam) -> "UserTable":
        """This table at pricing factor ``lam``, a number or one per user.

        Only the new column is checked: the first bad value raises what
        ``UserParams`` raises for it as its ``lam``.
        """
        if np.ndim(lam) == 0:
            _check_lam(float(lam))
        else:
            lam = np.asarray(lam, dtype=float)
            for i in np.flatnonzero(~((lam > 0) & (lam < np.inf))).tolist():
                _check_lam(lam[i].item())
        block = self._block.copy()
        block[2] = lam
        return UserTable._of(block)

    @np.errstate(over="ignore")
    def target_sinrs(self, bandwidth_hz: float) -> np.ndarray:
        """Each user's ``oracle.target_sinr`` at ``bandwidth_hz``, computed the same way."""
        return (self.alpha2 / self.alpha1) * bandwidth_hz

    @property
    def initial(self) -> np.ndarray:
        """The initial strategies as a fresh (2, n) stack [powers; rates]."""
        inits = self._block[7:]
        return np.where(np.isnan(inits), self.lo, inits)

    def __len__(self) -> int:
        return self._block.shape[1]

    def __getitem__(self, index):
        try:
            operator.index(index)
        except TypeError:
            return UserTable._of(self._block[:, index])
        raise TypeError("a UserTable indexes by slice or index array, not by one integer")

    # Not a sequence of rows: ``iter`` and ``in`` raise TypeError.
    __iter__ = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, UserTable):
            return NotImplemented
        return np.array_equal(self._block, other._block, equal_nan=True)

    __hash__ = None

    def __repr__(self) -> str:
        columns = ", ".join(f"{name}={getattr(self, name).tolist()!r}" for name in _USER_FIELDS)
        return f"UserTable({columns})"


def _require_table(users) -> UserTable:
    # ``users``, refused unless a table, with the bridge from a list named.
    if not isinstance(users, UserTable):
        kind = type(users).__name__
        raise TypeError(f"users must be a UserTable, not {kind}; see UserTable.from_users")
    return users


def _require_newcomer(user) -> None:
    if not (isinstance(user, UserTable) and len(user) == 1):
        raise ValueError("an arrival's user must be a UserTable of one user")


@dataclass(frozen=True)
class Strategy:
    """One user's play: transmit power in watts and data rate in bps."""

    power: float
    rate: float

    def __post_init__(self) -> None:
        if self.power <= 0:
            raise ValueError(f"power must be positive, got {self.power}")
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")


class NoFeasibleRateError(ValueError):
    """Requested rate falls below the smallest admissible rate."""


@dataclass(frozen=True)
class RateSet:
    """Sorted, duplicate-free ladder of admissible data rates in bps.

    ``snap`` quantizes an array of rates, each to its largest rung not above
    it (``oracle.rate_floor`` states it for one rate); ``gap`` finds a rate
    box that holds no rung.
    """

    rates: tuple[float, ...]
    _rungs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = tuple(sorted({float(x) for x in self.rates}))
        if not values:
            raise ValueError("rate set must not be empty")
        if not all(math.isfinite(x) for x in values):
            raise ValueError("all admissible rates must be finite")
        if values[0] <= 0:
            raise ValueError("all admissible rates must be positive")
        rungs = np.array(values)
        rungs.flags.writeable = False
        object.__setattr__(self, "rates", values)
        object.__setattr__(self, "_rungs", rungs)

    def snap(self, rates: np.ndarray) -> np.ndarray:
        """Each rate's largest rung not above it, as a new array.

        Lowering the rate can only raise the SINR, so a user quantized this
        way never ends up below the SINR its continuous rate would have given
        it. The first rate below the ladder raises ``NoFeasibleRateError``.
        """
        idx = np.searchsorted(self._rungs, rates, side="right") - 1
        if idx.min() < 0:
            rate = rates[idx.argmin()]
            raise NoFeasibleRateError(
                f"no admissible rate at or below {rate} (minimum is {self.rates[0]})"
            )
        return self._rungs[idx]

    def gap(self, users) -> tuple[int, str] | None:
        """The first user of the table ``users`` whose rate box holds no rung, as (index, why)."""
        r_min, r_max = users.r_min, users.r_max
        # Each user's least rung at or above r_min, inf past the top of the ladder.
        rungs = np.append(self._rungs, np.inf)
        least = rungs[np.searchsorted(rungs, r_min)]
        off = np.flatnonzero(least > r_max)
        if not off.size:
            return None
        k = int(off[0])
        return k, f"rate box [{float(r_min[k])}, {float(r_max[k])}] holds no rung of the rate ladder"

    def __len__(self) -> int:
        return len(self.rates)


# Each kind's pricing factors from the coefficient c, the channel's gains and
# the user table t, with the operations of ``oracle.pricing_rule_eval`` in
# its order. The gain-dependent kinds read the one station's gains.
_PRICES = {
    "constant": lambda c, gains, t: c,
    "per_user_count": lambda c, gains, t: c * len(t),
    "direct_gain": lambda c, gains, t: c * gains[:, 0],
    "inverse_gain": lambda c, gains, t: c / gains[:, 0],
    "target_ratio": lambda c, gains, t: c * t.alpha2 / t.alpha1,
    "inverse_target_ratio": lambda c, gains, t: c * t.alpha1 / t.alpha2,
}
PRICING_KINDS = tuple(_PRICES)

# Gains differ per station, so these rules would make a user's price depend
# on where it is served and break the fixed-point guarantees in multi-cell.
GAIN_DEPENDENT_KINDS = ("direct_gain", "inverse_gain")


@dataclass(frozen=True)
class PricingRule:
    """How a scalar coefficient c maps to each user's pricing factor.

    ``dc`` is the step by which escalation raises c.
    """

    kind: str = "constant"
    c: float = 1e-4
    dc: float | None = None

    def __post_init__(self) -> None:
        _require_finite(c=self.c, dc=self.dc)
        if self.kind not in PRICING_KINDS:
            raise ValueError(f"kind must be one of {PRICING_KINDS}, got {self.kind!r}")
        if self.c <= 0:
            raise ValueError("pricing coefficient c must be positive")
        if self.dc is not None and self.dc <= 0:
            raise ValueError("escalation step dc must be positive")


@np.errstate(over="ignore")
def priced_users(rule: PricingRule | None, channel: ChannelModel, users: UserTable) -> UserTable:
    """Users with their pricing factor replaced by the rule's value, as one new column.

    With no rule the users keep their own factors. A gain-dependent rule is
    refused on more than one station. A factor that overflows to inf is
    refused as the table's ``with_lam`` refuses it.
    """
    if rule is None or not len(_require_table(users)):
        return users
    if rule.kind in GAIN_DEPENDENT_KINDS and channel.n_stations > 1:
        raise ValueError(
            f"pricing rule {rule.kind!r} depends on the channel gain and cannot "
            "be used with more than one station"
        )
    return users.with_lam(_PRICES[rule.kind](rule.c, channel.gains, users))
