"""Core uplink model types: the channel, the users and their array table.

Everything here works in SI units throughout (watts, bps, hertz); channel
gains are dimensionless. Every constructor rejects NaN and infinite numbers.
A ``ChannelModel`` evaluates its (n_users x n_stations) gain matrix once, when
it is built, and ``gains`` hands out that cached read-only array; a channel
that changes (a removal, an arrival, a move) is a new ``ChannelModel`` with
its own gains. The functions are pure and nothing mutable is shared, so every
operation is safe to call concurrently.

The scalar formulas of the model (effective interference, SINR and the
utilities) are stated in ``oracle``; the solver in ``engine`` runs them as
array code.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "ChannelModel",
    "UserParams",
    "UserTable",
    "Strategy",
    "path_gain",
    "target_sinr",
    "alpha_ratio_for_target",
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


def path_gain(distance_m: float, pathloss_exponent: float, shadowing: float) -> float:
    """Channel gain xi / d**eta for a transmitter at distance d."""
    if distance_m <= 0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    return shadowing / distance_m ** pathloss_exponent


@dataclass(frozen=True)
class ChannelModel:
    """Static uplink geometry and radio constants.

    ``distances_m`` is a (n_users x n_stations) matrix; a 1-D sequence is
    read as a single-station column. Gains follow the power-law model
    ``g[i, a] = shadowing / d[i, a] ** pathloss_exponent``. The model is
    immutable (fields frozen, arrays read-only), so the gains cached at
    construction always match the geometry.
    """

    distances_m: np.ndarray
    pathloss_exponent: float = 4.0
    shadowing: float = 0.097
    noise_w: float = 5e-15
    bandwidth_hz: float = 1e6
    _gains: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        d = np.array(self.distances_m, dtype=float)
        if d.ndim == 1:
            d = d.reshape(-1, 1)
        if d.ndim != 2 or d.size == 0:
            raise ValueError("distances_m must be a non-empty users x stations matrix")
        if not np.all(np.isfinite(d)) or np.any(d <= 0):
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
        g = self.shadowing / d**self.pathloss_exponent
        if not np.all(np.isfinite(g)) or np.any(g <= 0):
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
    """One user's game constants.

    The ratio alpha2/alpha1 times the bandwidth fixes the SINR the user
    settles at when its strategy stays interior; ``lam`` scales the quadratic
    price on rate and power. The strategy box bounds both coordinates and the
    initial strategy defaults to the box's lower corner.
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

    def with_lam(self, lam: float) -> "UserParams":
        """This user at pricing factor ``lam``: equal to ``replace(self, lam=lam)``.

        Only ``lam`` is checked, with the constructor's messages; every other
        field was checked when this user was built, so it is copied as is.
        """
        _require_finite(lam=lam)
        if lam <= 0:
            raise ValueError("pricing factor must be positive")
        user = object.__new__(type(self))
        user.__dict__.update(self.__dict__, lam=lam)
        return user

    @property
    def initial_power(self) -> float:
        return self.p_min if self.p_init is None else self.p_init

    @property
    def initial_rate(self) -> float:
        return self.r_min if self.r_init is None else self.r_init


@dataclass(frozen=True)
class UserTable:
    """Struct-of-arrays form of a user list: one float column per constant.

    Array solvers build it once per solve and index it like the list. The
    table also holds what every best response reads: the constants
    ``half_a2_a1 = 0.5 * (alpha2 / alpha1)`` and ``half_a1_a2 = 0.5 *
    (alpha1 / alpha2)``, and the strategy box as stacked (2, n) arrays ``lo
    = [p_min; r_min]`` and ``hi = [p_max; r_max]``.
    """

    alpha1: np.ndarray
    alpha2: np.ndarray
    lam: np.ndarray
    p_min: np.ndarray
    p_max: np.ndarray
    r_min: np.ndarray
    r_max: np.ndarray
    half_a2_a1: np.ndarray = field(init=False, repr=False, compare=False)
    half_a1_a2: np.ndarray = field(init=False, repr=False, compare=False)
    lo: np.ndarray = field(init=False, repr=False, compare=False)
    hi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        derived = {
            "half_a2_a1": 0.5 * (self.alpha2 / self.alpha1),
            "half_a1_a2": 0.5 * (self.alpha1 / self.alpha2),
            "lo": np.stack([self.p_min, self.r_min]),
            "hi": np.stack([self.p_max, self.r_max]),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_users(cls, users) -> "UserTable":
        """Table of ``users``; a table passes through unchanged."""
        if isinstance(users, UserTable):
            return users
        rows = [(u.alpha1, u.alpha2, u.lam, u.p_min, u.p_max, u.r_min, u.r_max) for u in users]
        return cls(*np.array(rows, dtype=float).reshape(-1, 7).T.copy())


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


def target_sinr(alpha1: float, alpha2: float, bandwidth_hz: float) -> float:
    """SINR a user attains at an interior equilibrium: (alpha2 / alpha1) * W."""
    if alpha1 <= 0 or alpha2 <= 0 or bandwidth_hz <= 0:
        raise ValueError("all arguments must be positive")
    return (alpha2 / alpha1) * bandwidth_hz


def alpha_ratio_for_target(target: float, bandwidth_hz: float) -> float:
    """Weight ratio alpha2/alpha1 that makes ``target`` the attained SINR."""
    if target <= 0 or bandwidth_hz <= 0:
        raise ValueError("all arguments must be positive")
    return target / bandwidth_hz
