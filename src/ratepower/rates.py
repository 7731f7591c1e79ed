"""Discrete-rate support: admissible rate ladders and nearest-lower quantization."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

__all__ = ["RateSet", "NoFeasibleRateError"]


class NoFeasibleRateError(ValueError):
    """Requested rate falls below the smallest admissible rate."""


@dataclass(frozen=True)
class RateSet:
    """Sorted, duplicate-free ladder of admissible data rates in bps."""

    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(sorted({float(x) for x in self.rates}))
        if not values:
            raise ValueError("rate set must not be empty")
        if not all(math.isfinite(x) for x in values):
            raise ValueError("all admissible rates must be finite")
        if values[0] <= 0:
            raise ValueError("all admissible rates must be positive")
        object.__setattr__(self, "rates", values)

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

    def __len__(self) -> int:
        return len(self.rates)
