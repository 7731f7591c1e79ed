"""Workloads: seeded inputs, one op each, and outside-in checks of the outputs.

Every op calls ``ratepower.cli.main`` in process with stdout captured, on
scenario files this module wrote from the seed. Ops of one workload do equal
work; their inputs differ (users in a fresh seeded order), so no cache that
lives across calls can answer an op.

The checks recompute what they can with numpy from the generated inputs,
independently of ratepower. The only ratepower function they use is the
scalar oracle ``engine.bounded_step``, to certify a fixed point.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Radio constants of the generated networks; the scenario files state them.
BANDWIDTH_HZ = 1e6
NOISE_W = 5e-15
PATHLOSS_EXPONENT = 4.0
SHADOWING = 0.097
ALPHA1 = 1e6
P_MIN = 1e-6
R_MIN = 0.1
R_MAX = 96000.0
# ratepower's default at-target band, restated so the checks stay independent.
AT_TARGET_TOL = 1e-3


@dataclass
class Call:
    argv: list
    code: int
    stdout: str
    stderr: str


def call_cli(argv) -> Call:
    """One in-process ``ratepower`` command; SystemExit counts as its exit code."""
    main = sys.modules["ratepower.cli"].main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return Call(argv, code, out.getvalue(), err.getvalue())


def _user_block(name, distances, alpha2, p_max) -> str:
    return (
        f"[user {name}]\n"
        f"distances_m = {' '.join(repr(float(d)) for d in distances)}\n"
        f"alpha1 = {ALPHA1!r}\n"
        f"alpha2 = {float(alpha2)!r}\n"
        f"p_min = {P_MIN!r}\n"
        f"p_max = {float(p_max)!r}\n"
        f"r_min = {R_MIN!r}\n"
        f"r_max = {R_MAX!r}\n"
    )


def _network_block() -> str:
    return (
        "[network]\n"
        f"bandwidth_hz = {BANDWIDTH_HZ!r}\n"
        f"noise_w = {NOISE_W!r}\n"
        f"pathloss_exponent = {PATHLOSS_EXPONENT!r}\n"
        f"shadowing = {SHADOWING!r}\n"
    )


def _gains(distances: np.ndarray) -> np.ndarray:
    return SHADOWING / distances**PATHLOSS_EXPONENT


def _parse_kv(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


class Workload:
    """Base: ``prepare(i)`` writes op i's inputs, ``run`` is the timed part."""

    name = ""
    traced_ops = 10

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def op_rng(self, index: int) -> np.random.Generator:
        # Timed ops have indices 0, 1, ...; warm-up ops -1, -2, ... draw from
        # a stream of their own.
        stream = 1 if index >= 0 else 2
        return np.random.default_rng([self.seed, stream, abs(index)])

    def prepare(self, index: int):
        raise NotImplementedError

    def run(self, op) -> list:
        return [call_cli(argv) for argv in op["argvs"]]

    def check(self, op, calls: list) -> list:
        """Return a list of failure reasons; empty means the op is correct."""
        raise NotImplementedError


class Reproduce(Workload):
    """``ratepower reproduce all``: the paper's tables 1-4 and figs 1-4."""

    name = "reproduce"
    traced_ops = 25
    expected_ok = 153

    def prepare(self, index: int):
        return {"argvs": [["reproduce", "all"]]}

    def check(self, op, calls):
        (c,) = calls
        errors = []
        if c.code != 0:
            errors.append(f"exit code {c.code}: {c.stderr.strip()[-200:]}")
        ok = sum(1 for line in c.stdout.splitlines() if line.startswith("[ok"))
        if ok != self.expected_ok:
            errors.append(f"{ok} [ok lines, expected {self.expected_ok}")
        if "FAIL" in c.stdout:
            errors.append("output contains FAIL")
        return errors


class Cell(Workload):
    """One station, N users with mixed targets under per-user-count pricing."""

    name = "cell"
    traced_ops = 30
    n_users = 100
    pricing_c = 1e-5
    alpha2_choices = (12.9492, 16.0, 20.0, 25.0)
    p_max = 3.0
    # A discrete ladder for one of the four runs; r_min is its lowest rung so
    # every continuous rate has a rung below it. Whole numbers print exactly.
    ladder = (R_MIN,) + tuple(float(x) for x in np.round(np.geomspace(64.0, 96000.0, 22)))
    # (policy, schedule, uses the ladder file)
    runs = (("clamp", "sync", False), ("kkt", "sync", False), ("clamp", "seq", True), ("kkt", "seq", False))
    # One more best-response step from the reported state may move p and r by
    # at most this share: the solver stops at a step metric of 1e-9 and the
    # summary prints 11 significant digits.
    cert_tol = 1e-6
    sinr_tol = 1e-6

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # Stratified draws: one distance per equal-width band and the targets
        # in equal shares, so the work per op varies little from seed to seed.
        rng = np.random.default_rng([seed, 0])
        bands = (np.arange(self.n_users) + rng.uniform(size=self.n_users)) / self.n_users
        self.distances = 60.0 + 160.0 * bands
        self.alpha2 = rng.permutation(np.resize(self.alpha2_choices, self.n_users))

    def _text(self, order, ladder: bool) -> str:
        parts = [_network_block()]
        for k in order:
            parts.append(_user_block(f"u{k:04d}", [self.distances[k]], self.alpha2[k], self.p_max))
        parts.append(f"[pricing]\nrule = per_user_count\nc = {self.pricing_c!r}\n")
        if ladder:
            parts.append("[run]\nrates = " + " ".join(repr(r) for r in self.ladder) + "\n")
        return "\n".join(parts)

    def prepare(self, index):
        order = self.op_rng(index).permutation(self.n_users)
        plain, laddered = self.workdir / "cell.scn", self.workdir / "cell_ladder.scn"
        plain.write_text(self._text(order, False))
        laddered.write_text(self._text(order, True))
        argvs = []
        for k, (policy, schedule, use_ladder) in enumerate(self.runs):
            argvs.append(
                [
                    "run",
                    str(laddered if use_ladder else plain),
                    "--trace",
                    str(self.workdir / f"trace{k}.csv"),
                    "--summary",
                    str(self.workdir / f"summary{k}.txt"),
                    "--policy",
                    policy,
                    "--schedule",
                    schedule,
                ]
            )
        return {"argvs": argvs, "order": order}

    def check(self, op, calls):
        errors = []
        op["user_iterations"] = 0
        order = op["order"]
        n = len(order)
        g = _gains(self.distances[order])
        alpha2 = self.alpha2[order]
        lam = self.pricing_c * n
        targets = alpha2 / ALPHA1 * BANDWIDTH_HZ
        for k, ((policy, schedule, use_ladder), c) in enumerate(zip(self.runs, calls)):
            label = f"{policy}/{schedule}"
            if c.code != 0:
                errors.append(f"{label}: exit code {c.code}: {c.stderr.strip()[-200:]}")
                continue
            summary_text = (self.workdir / f"summary{k}.txt").read_text()
            if summary_text != c.stdout:
                errors.append(f"{label}: summary file differs from printed summary")
            kv = _parse_kv(summary_text)
            names = [f"u{j:04d}" for j in order]
            iterations = int(kv["iterations_used"])
            op["user_iterations"] += n * iterations
            p = np.array([float(kv[f"{u}.p_w"]) for u in names])
            r = np.array([float(kv[f"{u}.r_bps"]) for u in names])
            sinr = np.array([float(kv[f"{u}.sinr"]) for u in names])
            if kv["converged"] != "true" or int(kv["n_users"]) != n:
                errors.append(f"{label}: not converged or wrong user count")
            if any(kv[f"{u}.bs"] != "0" for u in names):
                errors.append(f"{label}: a user is not on station 0")
            if not np.allclose([float(kv[f"{u}.target_sinr"]) for u in names], targets, rtol=1e-9):
                errors.append(f"{label}: target SINR differs from alpha2/alpha1*W")
            if not np.allclose([float(kv[f"{u}.lambda"]) for u in names], lam, rtol=1e-9):
                errors.append(f"{label}: lambda differs from c*N")

            cross = g * p
            r_eff = (cross.sum() - cross + NOISE_W) / g
            sinr_np = (BANDWIDTH_HZ / r) * (p / r_eff)
            worst = float(np.max(np.abs(sinr_np - sinr) / sinr_np))
            if worst > self.sinr_tol:
                errors.append(f"{label}: SINR differs from numpy recomputation by {worst:.2e}")

            errors += self._certify(label, policy, use_ladder, p, r, r_eff, alpha2, lam)
            errors += self._check_trace(label, k, n, iterations, names, kv)
        return errors

    def _certify(self, label, policy, use_ladder, p, r, r_eff, alpha2, lam):
        engine = sys.modules["ratepower.engine"]
        UserParams = sys.modules["ratepower.core"].UserParams
        worst_p = worst_r = 0.0
        for i in range(len(p)):
            user = UserParams(ALPHA1, float(alpha2[i]), lam, P_MIN, self.p_max, R_MIN, R_MAX)
            s = engine.bounded_step(user, float(r_eff[i]), policy)
            worst_p = max(worst_p, abs(s.power - p[i]) / p[i])
            if use_ladder:
                # The rung below the step's rate, allowing the rate to sit within
                # the tolerance of a rung.
                lo = self.ladder[bisect.bisect_right(self.ladder, s.rate * (1 - self.cert_tol)) - 1]
                hi = self.ladder[bisect.bisect_right(self.ladder, s.rate * (1 + self.cert_tol)) - 1]
                if not lo <= r[i] <= hi:
                    worst_r = max(worst_r, 1.0)
            else:
                worst_r = max(worst_r, abs(s.rate - r[i]) / r[i])
        if worst_p > self.cert_tol or worst_r > self.cert_tol:
            return [f"{label}: not a fixed point, one more step moves p by {worst_p:.1e}, r by {worst_r:.1e}"]
        return []

    def _check_trace(self, label, k, n, iterations, names, kv):
        text = (self.workdir / f"trace{k}.csv").read_text()
        rows = text.count("\n")
        if rows != n * iterations + 1:
            return [f"{label}: trace has {rows} lines, expected N*iterations+1 = {n * iterations + 1}"]
        last = text.splitlines()[-n:]
        for uid, (line, name) in enumerate(zip(last, names)):
            f = line.split(",")
            expected = [str(iterations), str(uid), "0", kv[f"{name}.p_w"], kv[f"{name}.r_bps"], kv[f"{name}.sinr"]]
            if f[:6] != expected:
                return [f"{label}: last trace row of user {uid} differs from the summary"]
        return []


class Multicell(Workload):
    """Pricing escalation on four stations; synchronous and sequential schedules."""

    name = "multicell"
    traced_ops = 20
    grid = 6
    n_users = grid * grid
    side_m = 400.0
    alpha2_choices = (12.9492, 16.0, 20.0)
    p_max = 1.0
    # Escalation starts at 0.3 c* and steps by 0.2 c*, with c* the least
    # coefficient at which no user is below target. It therefore tests 0.3,
    # 0.5, 0.7, 0.9 and 1.1 c* and stops at the fifth, and both neighbours of
    # c* are 10% away from it.
    start_share, step_share, expected_tests = 0.3, 0.2, 5

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # Users on a jittered grid over the stations' square plus a 10% margin,
        # one per grid cell, with the targets in equal shares.
        rng = np.random.default_rng([seed, 0])
        s = self.side_m
        stations = np.array([[0.0, 0.0], [s, 0.0], [0.0, s], [s, s]])
        k = self.grid
        cells = np.stack(np.meshgrid(np.arange(k), np.arange(k)), axis=-1).reshape(-1, 2)
        xy = -0.1 * s + 1.2 * s * (cells + rng.uniform(size=cells.shape)) / k
        self.distances = np.maximum(np.linalg.norm(xy[:, None, :] - stations[None], axis=2), 20.0)
        self.alpha2 = rng.permutation(np.resize(self.alpha2_choices, self.n_users))
        c_star = self._threshold()
        self.c0 = self.start_share * c_star
        self.dc = self.step_share * c_star
        self.c_final = self.c0 + (self.expected_tests - 1) * self.dc

    def _below_target(self, c: float) -> bool:
        """Independent model: is some user below target at pricing c (clamp policy)?

        Iterates the synchronous joint assignment and power update to its fixed
        point in numpy; rates follow from the converged interference.
        """
        g = _gains(self.distances)
        rho = self.alpha2 / ALPHA1
        p = np.full(self.n_users, P_MIN)
        rows = np.arange(self.n_users)
        for _ in range(2000):
            other = np.maximum((p @ g)[None, :] - g * p[:, None], 0.0)
            by_station = (other + NOISE_W) / g
            r_eff = by_station[rows, by_station.argmin(axis=1)]
            new_p = np.clip(np.sqrt(0.5 * rho * r_eff / c), P_MIN, self.p_max)
            done = np.max(np.abs(new_p - p) / new_p) < 1e-13
            p = new_p
            if done:
                break
        r = np.clip(np.sqrt(0.5 / (rho * c * r_eff)), R_MIN, R_MAX)
        sinr = (BANDWIDTH_HZ / r) * (p / r_eff)
        return bool(np.any(sinr < rho * BANDWIDTH_HZ * (1 - AT_TARGET_TOL)))

    def _threshold(self) -> float:
        lo, hi = 1e-9, 1.0
        if not self._below_target(lo) or self._below_target(hi):
            raise RuntimeError("multicell geometry has no pricing threshold in [1e-9, 1]")
        for _ in range(60):
            mid = float(np.sqrt(lo * hi))
            if self._below_target(mid):
                lo = mid
            else:
                hi = mid
        return hi

    def prepare(self, index):
        order = self.op_rng(index).permutation(self.n_users)
        argvs = []
        for schedule in ("synchronous", "sequential"):
            parts = [_network_block()]
            for k in order:
                parts.append(_user_block(f"u{k:04d}", self.distances[k], self.alpha2[k], self.p_max))
            parts.append(f"[run]\nschedule = {schedule}\n")
            parts.append(f"[pricing]\nrule = constant\nc = {self.c0!r}\n")
            path = self.workdir / f"multicell_{schedule}.scn"
            path.write_text("\n".join(parts))
            argvs.append(["tune-pricing", str(path), "--dc", repr(self.dc)])
        return {"argvs": argvs, "order": order}

    def check(self, op, calls):
        errors = []
        targets = self.alpha2[op["order"]] / ALPHA1 * BANDWIDTH_HZ
        head = f"tune-pricing: achieved c_final = {self.c_final:.10e} after {self.expected_tests} runs"
        for c in calls:
            label = Path(c.argv[1]).stem
            lines = c.stdout.splitlines()
            if c.code != 0 or not lines or lines[0] != head:
                first = lines[0] if lines else c.stderr.strip()[-200:]
                errors.append(f"{label}: exit code {c.code}, got {first!r}, expected {head!r}")
                continue
            sinrs = np.array([float(line.rsplit("= ", 1)[1]) for line in lines[1:]])
            if len(sinrs) != self.n_users:
                errors.append(f"{label}: {len(sinrs)} user lines, expected {self.n_users}")
            elif np.any(sinrs < targets * (1 - AT_TARGET_TOL)):
                errors.append(f"{label}: a user is below target although escalation achieved")
        return errors


WORKLOADS = {w.name: w for w in (Reproduce, Cell, Multicell)}
