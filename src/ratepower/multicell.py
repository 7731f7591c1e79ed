"""Base-station assignment by least effective interference, one user at a time.

Each iteration of the joint loop (``engine.iterate_to_convergence``) first
re-points every user at the station where its effective interference is
smallest, then runs the bounded update against that station. Because the
update power falls and the update rate rises as effective interference
falls, choosing the minimum station simultaneously minimizes the power
update and maximizes the rate update.

The loop does this on whole arrays. The scalar
``effective_interference_by_station`` and ``assign_base_station`` here state
the rule one user at a time and are the oracles the loop is tested against.
``engine.power_update_map`` is the power map of the joint game, for property
checks.
"""

from __future__ import annotations

import numpy as np

from .core import ChannelModel
from .engine import TIE_REL_TOL

__all__ = [
    "effective_interference_by_station",
    "assign_base_station",
]


def effective_interference_by_station(
    channel: ChannelModel, powers, i: int
) -> np.ndarray:
    """User i's effective interference at every station for the given powers."""
    g = channel.gains
    p = np.asarray(powers, dtype=float)
    totals = p @ g
    own = g[i] * p[i]
    return (np.maximum(totals - own, 0.0) + channel.noise_w) / g[i]


def assign_base_station(
    channel: ChannelModel, powers, i: int, current: int | None = None
) -> int:
    """Station with the least effective interference for user i.

    Ties within TIE_REL_TOL keep ``current`` when it is tied, otherwise the
    lowest tied index wins.
    """
    if channel.n_stations < 1:
        raise ValueError("need at least one station")
    reffs = effective_interference_by_station(channel, powers, i)
    best = float(reffs.min())
    tied = np.flatnonzero(reffs <= best * (1.0 + TIE_REL_TOL))
    if current is not None:
        if not 0 <= current < channel.n_stations:
            raise ValueError(f"current station {current} out of range")
        if current in tied:
            return int(current)
    return int(tied[0])

