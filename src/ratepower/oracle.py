"""Scalar statements of the paper's formulas, and independent verification machinery.

The solver in ``engine`` runs the game as array code; this module states
each formula one user at a time, and the tests check the solver against it.
No module imports it and the package does not re-export its names: it loads
when ``ratepower.oracle`` is first read, so no command loads it. It holds
the model (the path gain, the target SINR and the weight ratio that sets it,
one user at a new pricing factor, one user's pricing factor under a rule,
one rate's rung of a ladder, effective interference, SINR, the utilities and
the priced one's gradient and Hessian), the game (the unpriced equilibrium,
the closed-form best response, the two boundary updates, the symmetric fixed
point), the least-interference station rule, the power-update map with a
sampler of the standard-interference-function properties (Yates, IEEE JSAC
1995) that make the equilibrium unique, the loop's step metric, and brute
force: a grid argmax, finite differences and a per-user SINR recomputation
of a trace record. Deliberately unoptimized. From ``engine`` it takes only
constants and types, never a function, so the solver is always checked
against a statement of its own.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import ChannelModel, NoFeasibleRateError, PricingRule, RateSet, Strategy, UserParams
from .core import UserTable
from .engine import _EPS, METRIC_ABSOLUTE, METRIC_RELATIVE, METRICS, TIE_REL_TOL, IterationRecord

__all__ = [
    "path_gain",
    "target_sinr",
    "alpha_ratio_for_target",
    "with_lam",
    "pricing_rule_eval",
    "rate_floor",
    "UtilityParamsBase",
    "effective_interference",
    "sinr",
    "utility_base",
    "utility_priced",
    "utility_priced_gradient",
    "utility_priced_hessian",
    "njrpcg_equilibrium",
    "unconstrained_best_response",
    "power_update_rate_bounded",
    "rate_update_power_bounded",
    "symmetric_fixed_point",
    "effective_interference_by_station",
    "assign_base_station",
    "power_update_map",
    "convergence_metric",
    "StandardFunctionReport",
    "standard_function_check",
    "grid_best_response",
    "fd_gradient_check",
    "recompute_sinrs",
]


# The model.


def path_gain(distance_m: float, pathloss_exponent: float, shadowing: float) -> float:
    """Channel gain xi / d**eta for a transmitter at distance d."""
    if distance_m <= 0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    return shadowing / distance_m ** pathloss_exponent


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


def with_lam(user: UserParams, lam: float) -> UserParams:
    """``user`` at pricing factor ``lam``: one user of ``UserTable.with_lam``."""
    return replace(user, lam=lam)


def pricing_rule_eval(rule: PricingRule, n_users: int, gain=None, alpha1=None, alpha2=None):
    """One user's pricing factor under ``rule``, in a network of ``n_users``.

    ``gain`` is the user's gain to its one station and ``alpha1``, ``alpha2``
    its weights; each kind reads only what it needs.
    """
    c = rule.c
    if rule.kind == "constant":
        return c
    if rule.kind == "per_user_count":
        return c * n_users
    if rule.kind == "direct_gain":
        return c * gain
    if rule.kind == "inverse_gain":
        return c / gain
    if rule.kind == "target_ratio":
        return c * alpha2 / alpha1
    return c * alpha1 / alpha2


def rate_floor(ladder: RateSet, rate: float) -> float:
    """Largest rung of ``ladder`` not exceeding ``rate``: ``RateSet.snap`` of one rate."""
    idx = bisect.bisect_right(ladder.rates, rate) - 1
    if idx < 0:
        raise NoFeasibleRateError(
            f"no admissible rate at or below {rate} (minimum is {ladder.rates[0]})"
        )
    return ladder.rates[idx]


@dataclass(frozen=True)
class UtilityParamsBase:
    """Weights of the unpriced log utility; k2 conventionally carries the bandwidth."""

    k1: float = 1.0
    k2: float = 1e6

    def __post_init__(self) -> None:
        if self.k1 <= 0 or self.k2 <= 0:
            raise ValueError("k1 and k2 must be positive")

    @classmethod
    def for_bandwidth(cls, bandwidth_hz: float) -> "UtilityParamsBase":
        return cls(1.0, float(bandwidth_hz))


def effective_interference(gains_to_bs, powers, i: int, noise_w: float = 0.0) -> float:
    """Interference plus noise at the receiver, normalized by user i's own gain.

    Returns ``(sum_{j != i} g_j p_j + noise_w) / g_i``. The sum deliberately
    skips user i's own term instead of subtracting it, so no cancellation
    error creeps in when one power dominates.
    """
    g = np.asarray(gains_to_bs, dtype=float)
    p = np.asarray(powers, dtype=float)
    if g.shape != p.shape or g.ndim != 1:
        raise ValueError("gains and powers must be 1-D and of equal length")
    if not 0 <= i < g.size:
        raise IndexError(f"user index {i} out of range for {g.size} users")
    if g[i] <= 0:
        raise ValueError("own channel gain must be positive")
    if np.any(p < 0):
        raise ValueError("powers must be non-negative")
    if noise_w < 0:
        raise ValueError("noise must be non-negative")
    total = float(np.delete(g * p, i).sum())
    return (total + noise_w) / float(g[i])


def sinr(bandwidth_hz: float, strategy: Strategy, r_eff: float) -> float:
    """SINR with CDMA processing gain: (W / r) * (p / R_eff)."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    if r_eff <= 0:
        raise ValueError(f"effective interference must be positive, got {r_eff}")
    return (bandwidth_hz / strategy.rate) * (strategy.power / r_eff)


def utility_base(strategy: Strategy, r_eff: float, k1: float = 1.0, k2: float = 1e6) -> float:
    """Unpriced log utility log(k1 * r + k2 * p / R_eff), in nats.

    Increasing in both coordinates, which is why the unpriced game ends at
    every user's top corner.
    """
    if r_eff <= 0:
        raise ValueError(f"effective interference must be positive, got {r_eff}")
    arg = k1 * strategy.rate + k2 * strategy.power / r_eff
    if arg <= 0:
        raise ValueError(f"log argument must be positive, got {arg}")
    return math.log(arg)


def utility_priced(
    strategy: Strategy, r_eff: float, alpha1: float, alpha2: float, lam: float
) -> float:
    """Priced utility, in nats.

    u = log(a2 * R * r + a1 * p)
        - (lam / 2) * ((a2 / a1) * R * r**2 + (a1 / a2) * p**2 / R)

    with R the effective interference. The interference weighting pushes a
    user toward less rate and more power as R grows.
    """
    if r_eff <= 0:
        raise ValueError(f"effective interference must be positive, got {r_eff}")
    p, r = strategy.power, strategy.rate
    s = alpha2 * r_eff * r + alpha1 * p
    if s <= 0:
        raise ValueError(f"log argument must be positive, got {s}")
    price = 0.5 * lam * ((alpha2 / alpha1) * r_eff * r**2 + (alpha1 / alpha2) * p**2 / r_eff)
    return math.log(s) - price


def utility_priced_gradient(
    power: float, rate: float, r_eff: float, alpha1: float, alpha2: float, lam: float
) -> tuple[float, float]:
    """Analytic (du/dp, du/dr) of the priced utility."""
    if r_eff <= 0:
        raise ValueError("effective interference must be positive")
    s = alpha1 * power + alpha2 * r_eff * rate
    du_dp = alpha1 / s - lam * (alpha1 / alpha2) * power / r_eff
    du_dr = alpha2 * r_eff / s - lam * (alpha2 / alpha1) * r_eff * rate
    return du_dp, du_dr


def utility_priced_hessian(
    power: float, rate: float, r_eff: float, alpha1: float, alpha2: float, lam: float
) -> np.ndarray:
    """Analytic 2x2 Hessian of the priced utility in (p, r) order.

    Both diagonal entries are negative and the determinant is positive for
    any admissible arguments, so the utility is strictly concave.
    """
    if r_eff <= 0:
        raise ValueError("effective interference must be positive")
    s = alpha1 * power + alpha2 * r_eff * rate
    d2p = -((alpha1 / s) ** 2) - lam * (alpha1 / alpha2) / r_eff
    d2r = -((alpha2 * r_eff / s) ** 2) - lam * (alpha2 / alpha1) * r_eff
    dpr = -(alpha1 * alpha2 * r_eff) / s**2
    return np.array([[d2p, dpr], [dpr, d2r]])


# The game. The engine's array kernel evaluates the best response and the
# two boundary updates with the same operations in the same order.


def njrpcg_equilibrium(users: list[UserParams]) -> list[Strategy]:
    """Equilibrium of the unpriced game: every user at (p_max, r_max).

    The unpriced utility increases in both coordinates, so the top corner of
    each box is reached no matter the gains or the pricing of anyone else.
    """
    return [Strategy(u.p_max, u.r_max) for u in users]


def unconstrained_best_response(
    r_eff: float, alpha1: float, alpha2: float, lam: float
) -> Strategy:
    """Interior maximizer of the priced utility at effective interference r_eff.

    p = sqrt(0.5 * (a2/a1) * R / lam),  r = sqrt(0.5 * (a1/a2) / (lam * R)).
    The pair always satisfies p / (r * R) = a2 / a1.
    """
    if r_eff <= 0:
        raise ValueError(f"effective interference must be positive, got {r_eff}")
    if alpha1 <= 0 or alpha2 <= 0 or lam <= 0:
        raise ValueError("alpha1, alpha2 and lam must be positive")
    p = math.sqrt(0.5 * (alpha2 / alpha1) * r_eff / lam)
    r = math.sqrt(0.5 * (alpha1 / alpha2) / (lam * r_eff))
    return Strategy(p, r)


def power_update_rate_bounded(
    r_eff: float, r_bound: float, alpha1: float, alpha2: float, lam: float
) -> float:
    """Stationary power when the rate sits at a box bound.

    Positive root of a1*lam*p**2 + a2*lam*R*r_bound*p - a2*R = 0; the
    discriminant is always positive so the root exists for any r_bound >= 0.
    """
    if r_eff <= 0 or alpha1 <= 0 or alpha2 <= 0 or lam <= 0:
        raise ValueError("r_eff, alpha1, alpha2 and lam must be positive")
    if r_bound < 0:
        raise ValueError("r_bound must be non-negative")
    b = alpha2 * lam * r_eff * r_bound
    return (-b + math.sqrt(b * b + 4.0 * alpha1 * alpha2 * lam * r_eff)) / (2.0 * alpha1 * lam)


def rate_update_power_bounded(
    r_eff: float, p_bound: float, alpha1: float, alpha2: float, lam: float
) -> float:
    """Stationary rate when the power sits at a box bound.

    Positive root of a2*lam*R*r**2 + a1*lam*p_bound*r - a1 = 0.
    """
    if r_eff <= 0 or alpha1 <= 0 or alpha2 <= 0 or lam <= 0:
        raise ValueError("r_eff, alpha1, alpha2 and lam must be positive")
    if p_bound < 0:
        raise ValueError("p_bound must be non-negative")
    b = alpha1 * lam * p_bound
    return (-b + math.sqrt(b * b + 4.0 * alpha1 * alpha2 * lam * r_eff)) / (
        2.0 * alpha2 * lam * r_eff
    )


def symmetric_fixed_point(
    n_users: int, target_ratio: float, lam: float, noise_w: float, gain: float
) -> Strategy:
    """Closed-form converged strategy when all users share one gain and target.

    Solves p = sqrt((rho / (2 lam)) * ((M - 1) p + N0 / g)) directly, then
    reads the rate off the interior stationarity pair at that interference.
    Serves as an analytic oracle for the iteration on symmetric scenarios.
    """
    if n_users < 1:
        raise ValueError("need at least one user")
    if target_ratio <= 0 or lam <= 0 or gain <= 0:
        raise ValueError("target_ratio, lam and gain must be positive")
    if noise_w < 0:
        raise ValueError("noise must be non-negative")
    if n_users == 1 and noise_w == 0:
        raise ValueError("a lone user with zero noise has no positive fixed point")
    b = target_ratio * (n_users - 1) / (2.0 * lam)
    c = target_ratio * noise_w / (2.0 * lam * gain)
    p = 0.5 * (b + math.sqrt(b * b + 4.0 * c))
    r_eff = (n_users - 1) * p + noise_w / gain
    r = math.sqrt(0.5 / (target_ratio * lam * r_eff))
    return Strategy(p, r)


# The station rule. The update power falls and the update rate rises as the
# effective interference falls, so the least-interference station minimizes
# the one and maximizes the other.


def effective_interference_by_station(
    channel: ChannelModel, powers, i: int
) -> np.ndarray:
    """User i's effective interference at every station for the given powers.

    Unlike ``effective_interference``, this subtracts user i's own term from
    each station total, as the loop does, so the tests can compare the
    synchronous sweep with it bit for bit. It clips the difference at zero;
    the loop does not, because its totals are a fresh ``p @ g`` that never
    falls below one of its own nonnegative terms, so the two agree.
    """
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


# The standard interference function.


def power_update_map(channel: ChannelModel, users: list[UserParams], clamped: bool = False):
    """Vector power-update map as a callable p -> I(p), for property checks.

    Each user's unconstrained power update is taken at every station and the
    least one is kept, which is the station the assignment picks; with one
    station this is the single-cell map. With ``clamped=True`` the output is
    projected onto each user's power box.
    """
    t = UserTable.from_users(users)
    half_ratio = 0.5 * t.alpha2 / (t.alpha1 * t.lam)

    def apply(powers) -> np.ndarray:
        p = np.asarray(powers, dtype=float)
        reffs = np.array([effective_interference_by_station(channel, p, i) for i in range(len(p))])
        out = np.sqrt(half_ratio[:, None] * reffs).min(axis=1)
        if clamped:
            out = np.clip(out, t.p_min, t.p_max)
        return out

    return apply


def convergence_metric(
    prev_powers, prev_rates, powers, rates, kind: str = METRIC_RELATIVE
) -> float:
    """Largest per-user step between consecutive iterates.

    The loop computes the same value from ``engine._step_metric`` on its
    stacked (2, n) states; this four-vector statement is that function's
    oracle.
    """
    if kind not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {kind!r}")
    vectors = [np.asarray(v, dtype=float) for v in (prev_powers, prev_rates, powers, rates)]
    if len({v.shape for v in vectors}) != 1 or vectors[0].ndim != 1:
        raise ValueError("metric needs four vectors of one length")
    prev_powers, prev_rates, powers, rates = vectors
    dp = np.abs(powers - prev_powers)
    dr = np.abs(rates - prev_rates)
    if kind == METRIC_ABSOLUTE:
        return float((dp + dr).max())
    rel = dp / np.maximum(np.abs(powers), _EPS) + dr / np.maximum(np.abs(rates), _EPS)
    return float(rel.max())


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


# Brute force.


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


def recompute_sinrs(channel: ChannelModel, record: IterationRecord) -> np.ndarray:
    """Recompute per-user SINRs from a trace record via the scalar model ops."""
    out = np.empty(len(record.powers))
    for k in range(len(record.powers)):
        gains = channel.gains[:, int(record.assignment[k])]
        r_eff = effective_interference(gains, record.powers, k, channel.noise_w)
        out[k] = sinr(
            channel.bandwidth_hz, Strategy(record.powers[k], record.rates[k]), r_eff
        )
    return out
