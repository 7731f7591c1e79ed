"""A fixed calibration kernel that measures how fast the machine runs right now.

The end-to-end times are reported at a reference machine speed: each op's
wall time is multiplied by ``REF_KERNEL_S / k``, where ``k`` is the mean wall
time of the two kernel runs on either side of the op. On a host whose CPU
speed drifts (shared vCPUs run the same code up to 2x slower for minutes at a
time), the op and the kernel slow down together and the scaled time stays
put, while a change to ratepower moves the op and not the kernel.

The kernel imports nothing from ratepower and must never change: it mixes
what ratepower's ops spend their time on (small numpy arrays in a fixed-point
loop, scalar float conversions, dict inserts, number formatting and string
joins), so that it slows down as they do. Changing it, or ``REF_KERNEL_S``,
rescales every end-to-end time and breaks comparison with earlier runs.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# Nominal wall seconds of one kernel run: about its fastest time on a 2-vCPU
# x86-64 host (Python 3.11, numpy 2.4), whose slower regime takes 0.0135 s.
REF_KERNEL_S = 0.008

_USERS = 8
_ROUNDS = 400


def kernel() -> int:
    """The calibration work; returns a checksum so nothing is optimised away."""
    # Fixed gains without numpy.random, whose import alone would add 5 MB to
    # the peak memory of a workload that does not use it.
    g = 0.1 + 0.9 * (np.arange(_USERS * _USERS) * 37 % 64 / 63.0).reshape(_USERS, _USERS)
    own = np.diag(g).copy()
    p = np.ones(_USERS)
    seen = {}
    rows = []
    for it in range(_ROUNDS):
        interference = g @ p - own * p + 1e-3
        sinr = own * p / interference
        p = np.clip(2.0 * p / np.maximum(sinr, 1e-9), 1e-3, 10.0)
        for k in range(_USERS):
            x = float(p[k])
            seen[(it, k)] = x
            rows.append(f"{it},{k},{x!r},{float(sinr[k]):.6g}")
    return len(",".join(rows)) + len(seen)


def measure() -> float:
    """Wall seconds of one kernel run, after a full garbage collection."""
    gc.collect()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
