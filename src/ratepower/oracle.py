"""Independent verification machinery.

A brute-force grid argmax for the priced utility, central finite differences
for its gradient and Hessian, a sampler that hunts for counterexamples to
the positivity / monotonicity / scalability properties of a power-update map,
and a per-user SINR recomputation of a trace record. Deliberately
unoptimized; correctness reference only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    ChannelModel,
    Strategy,
    sinr,
    utility_priced,
    utility_priced_gradient,
    utility_priced_hessian,
)
from .engine import IterationRecord

__all__ = [
    "grid_best_response",
    "fd_gradient_check",
    "StandardFunctionReport",
    "standard_function_check",
    "recompute_sinrs",
]


def grid_best_response(
    r_eff: float,
    alpha1: float,
    alpha2: float,
    lam: float,
    p_bounds: tuple[float, float],
    r_bounds: tuple[float, float],
    grid_n: int = 120,
) -> Strategy:
    """Argmax of the priced utility on a grid_n x grid_n logarithmic grid.

    Exhaustive by design; cross-checks the closed-form best responses. When
    the true maximizer is interior the grid argmax lands within one grid cell
    of it; when a box edge cuts it off, the grid argmax sits on that edge.
    """
    if grid_n < 100:
        raise ValueError("grid_n must be at least 100 per axis")
    p_lo, p_hi = p_bounds
    r_lo, r_hi = r_bounds
    if not 0 < p_lo <= p_hi or not 0 < r_lo <= r_hi:
        raise ValueError("bounds must be positive and ordered")
    if r_eff <= 0:
        raise ValueError("effective interference must be positive")
    p = np.geomspace(p_lo, p_hi, grid_n)
    r = np.geomspace(r_lo, r_hi, grid_n)
    P, R = np.meshgrid(p, r, indexing="ij")
    s = alpha2 * r_eff * R + alpha1 * P
    u = np.log(s) - 0.5 * lam * (
        (alpha2 / alpha1) * r_eff * R**2 + (alpha1 / alpha2) * P**2 / r_eff
    )
    flat = int(np.argmax(u))
    i, j = divmod(flat, grid_n)
    return Strategy(float(p[i]), float(r[j]))


def fd_gradient_check(
    power: float,
    rate: float,
    r_eff: float,
    alpha1: float,
    alpha2: float,
    lam: float,
    rel_step: float = 1e-6,
) -> float:
    """Worst relative disagreement between analytic and finite-difference calculus.

    First derivatives are differenced from the utility itself; second
    derivatives are differenced from the analytic gradient, which keeps the
    truncation and roundoff error of each comparison near 1e-9.
    """
    hp = rel_step * power
    hr = rel_step * rate

    def u(p, r):
        return utility_priced(Strategy(p, r), r_eff, alpha1, alpha2, lam)

    def grad(p, r):
        return utility_priced_gradient(p, r, r_eff, alpha1, alpha2, lam)

    fd_dp = (u(power + hp, rate) - u(power - hp, rate)) / (2 * hp)
    fd_dr = (u(power, rate + hr) - u(power, rate - hr)) / (2 * hr)
    fd_pp = (grad(power + hp, rate)[0] - grad(power - hp, rate)[0]) / (2 * hp)
    fd_rr = (grad(power, rate + hr)[1] - grad(power, rate - hr)[1]) / (2 * hr)

    an_dp, an_dr = grad(power, rate)
    # The mixed term is symmetric; difference the smaller gradient component,
    # where the cancellation noise of the central difference is lowest.
    if abs(an_dr) <= abs(an_dp):
        fd_pr = (grad(power + hp, rate)[1] - grad(power - hp, rate)[1]) / (2 * hp)
    else:
        fd_pr = (grad(power, rate + hr)[0] - grad(power, rate - hr)[0]) / (2 * hr)
    hess = utility_priced_hessian(power, rate, r_eff, alpha1, alpha2, lam)

    pairs = [
        (fd_dp, an_dp),
        (fd_dr, an_dr),
        (fd_pp, hess[0, 0]),
        (fd_rr, hess[1, 1]),
        (fd_pr, hess[0, 1]),
    ]
    return max(abs(a - b) / max(abs(b), 1e-300) for a, b in pairs)


@dataclass
class StandardFunctionReport:
    """Counterexample log from sampling a power-update map."""

    n_samples: int
    counterexamples: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def standard_function_check(
    update_map,
    samples,
    rng: np.random.Generator | None = None,
    rel_tol: float = 1e-12,
) -> StandardFunctionReport:
    """Sample positivity, monotonicity and scalability of ``update_map``.

    For every base vector p the map is evaluated at p, at a componentwise
    smaller p', and at a scaled a*p with a drawn from (1, 10]. Checked:

      positivity    I(p) > 0
      monotonicity  p >= p'  implies  I(p) >= I(p')
      scalability   a * I(p) >= I(a * p) for a > 1

    Violations beyond rel_tol are recorded as counterexample dicts; any
    counterexample is a finding, not an exception.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    report = StandardFunctionReport(n_samples=samples.shape[0])
    for p in samples:
        mapped = np.asarray(update_map(p), dtype=float)
        if not np.all(mapped > 0):
            report.counterexamples.append(
                {"property": "positivity", "p": p.copy(), "mapped": mapped}
            )
        shrink = rng.uniform(0.1, 1.0, size=p.shape)
        p_small = p * shrink
        mapped_small = np.asarray(update_map(p_small), dtype=float)
        slack = rel_tol * np.abs(mapped)
        if np.any(mapped_small > mapped + slack):
            report.counterexamples.append(
                {
                    "property": "monotonicity",
                    "p": p.copy(),
                    "p_small": p_small,
                    "mapped": mapped,
                    "mapped_small": mapped_small,
                }
            )
        a = float(rng.uniform(1.0, 10.0))
        if a <= 1.0:
            a = 1.0 + 1e-9
        scaled = np.asarray(update_map(a * p), dtype=float)
        if np.any(a * mapped < scaled - rel_tol * np.abs(scaled)):
            report.counterexamples.append(
                {"property": "scalability", "p": p.copy(), "a": a, "mapped": mapped, "scaled": scaled}
            )
    return report


def recompute_sinrs(channel: ChannelModel, record: IterationRecord) -> np.ndarray:
    """Recompute per-user SINRs from a trace record via the scalar model ops."""
    out = np.empty(len(record.user_ids))
    for k in range(len(record.user_ids)):
        a = int(record.assignment[k])
        gains = channel.gains[:, a]
        r_eff = float(
            (np.delete(gains * record.powers, k).sum() + channel.noise_w) / gains[k]
        )
        out[k] = sinr(
            channel.bandwidth_hz, Strategy(record.powers[k], record.rates[k]), r_eff
        )
    return out
