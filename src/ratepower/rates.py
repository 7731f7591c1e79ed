"""Discrete-rate support: admissible rate ladders and nearest-lower quantization."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["RateSet", "NoFeasibleRateError"]


class NoFeasibleRateError(ValueError):
    """Requested rate falls below the smallest admissible rate."""


@dataclass(frozen=True)
class RateSet:
    """Sorted, duplicate-free ladder of admissible data rates in bps.

    ``floor`` quantizes one rate and is the scalar oracle of ``snap``, which
    quantizes an array of them; ``gap`` finds a rate box that holds no rung.
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

    def floor(self, rate: float) -> float:
        """Largest admissible rate not exceeding ``rate``.

        Lowering the rate can only raise the SINR, so a user quantized this
        way never ends up below the SINR its continuous rate would have given
        it.
        """
        idx = bisect.bisect_right(self.rates, rate) - 1
        if idx < 0:
            raise NoFeasibleRateError(
                f"no admissible rate at or below {rate} (minimum is {self.rates[0]})"
            )
        return self.rates[idx]

    def snap(self, rates: np.ndarray) -> np.ndarray:
        """``floor`` of each rate, as a new array; the first rate below the ladder raises."""
        idx = np.searchsorted(self._rungs, rates, side="right") - 1
        if idx.min() < 0:
            self.floor(rates[idx.argmin()])
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
