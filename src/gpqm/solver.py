"""Particle-swarm benchmark for the continuous placement problem.

The planner's discrete search is benchmarked against a direct minimisation
of total allocated capacity over (x, y, z, tx power), with capacity taken
from either the linear SNR-to-share regression or the Shannon bound.
Constraint handling is a quadratic exterior penalty; feasibility is always
re-judged by direct constraint evaluation, never by penalty value. The
per-link constraints and the aggregate cap are written once, in the
per-problem `_constraint_terms`: `evaluate`, the audit, takes those terms
from it, and the swarm's fitness is the penalised objective over the same
terms, so the two cannot drift apart. The swarm re-scores only the
particles that moved on each step, and stops once it sits at a fixed point,
padding `fitness_history` with its global best; `evaluate` picks the
returned point among the distinct personal bests. The optimum sits exactly
on the delay-bound surface (surplus capacity is pure cost), so the audit
accepts normalised magnitudes up to 1e-6 — about 10 ns of sojourn against
the default bound — as solver-precision noise, the way any continuous NLP
solver states a feasibility tolerance.

Links carry DEFAULT_PACKET_SIZE_BYTES packets, as in the planner and the
simulator. Both capacity models come from `channel.capacity_bps`, whose
arithmetic `_constraint_terms` repeats operation for operation. The
regression model's aggregate cap and the swarm's coefficients are module
constants; the cap is computed once, at import. NumPy is imported inside
`solve_pso`, its only user here, so that `import gpqm` does not load NumPy and
the swarm loads it on its first call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import ClassVar

from .channel import (
    _REGRESSION,
    CAPACITY_MODELS,
    ChannelParams,
    McsTable,
    calibrated_mcs_table,
    capacity_bps,
    default_mcs_table,
    friis_snr_db,
    link_budget_constant_db,
)
from .errors import PlanningError
from .placement import Point, Venue
from .planner import FapPlan, GpqmPlan, PlannerConfig, PlanSeries, plan_snapshot
from .queueing import PACKET_BITS, md1_delay_s, mm1q_plr, planned_queue_size
from .scenario import (
    DEFAULT_DEMAND_FRACTIONS,
    DEFAULT_PLANNING_PERIOD_S,
    DemandProfile,
    FapState,
    FapTrace,
    ScenarioTrace,
    Snapshot,
    reference_fair_share_bps,
)
from .simulator import SimConfig, merge_metrics, simulate

_SATURATED_DELAY_MAGNITUDE = 1e3
_CALIBRATED_TOP_PHY_BPS = calibrated_mcs_table().top.phy_rate_bps

_OMEGA = 0.72
_C_PERSONAL = 1.49
_C_SOCIAL = 1.49
_VELOCITY_CLAMP = 0.2  # fraction of each bound's range
_PENALTY_WEIGHT = 1e6

# Feasibility tolerance on normalised violation magnitudes. The capacity
# objective presses the delay constraint to equality, so converged swarms
# land on the bound plus or minus solver-precision jitter; magnitudes at or
# below this are indistinguishable from that jitter and do not count.
FEASIBILITY_TOL = 1e-6

# run_benchmark gives up after this many candidate seeds per requested instance.
_SEEDS_PER_INSTANCE = 100


@dataclass(frozen=True)
class OptProblem:
    """Static placement instance for the benchmark solver, at the planner's default delay bound."""

    delay_threshold_s: ClassVar[float] = PlannerConfig.delay_threshold_s
    snapshot: Snapshot
    channel: ChannelParams
    venue: Venue
    capacity_model: str = "regression"  # one of channel.CAPACITY_MODELS

    def __post_init__(self) -> None:
        if self.capacity_model not in CAPACITY_MODELS:
            raise ValueError(f"unknown capacity model {self.capacity_model!r}")

    @property
    def effective_aggregate_cap_bps(self) -> float:
        if self.capacity_model == "regression":
            # Usable rate of the fastest calibrated mode.
            return self.channel.mac_efficiency * _CALIBRATED_TOP_PHY_BPS
        return math.inf

    @property
    def bounds(self) -> tuple[tuple[float, float], ...]:
        return (
            (0.0, self.venue.x_max_m),
            (0.0, self.venue.y_max_m),
            (self.venue.min_altitude_m, self.venue.z_max_m),
            (0.0, self.channel.max_tx_power_dbm),
        )

    def capacity_bps(self, snr_db: float) -> float:
        return capacity_bps(self.capacity_model, self.channel, snr_db)


@dataclass(frozen=True)
class SolverEval:
    objective_bps: float
    violations: tuple[tuple[str, float], ...]

    @property
    def feasible(self) -> bool:
        return not self.violations

    @property
    def total_violation(self) -> float:
        return sum(m for _, m in self.violations)


def _constraint_terms(problem: OptProblem):
    """The per-link constraints and the aggregate cap of one problem, written once.

    The returned function takes a row (x, y, z, tx power) of Python floats
    and returns (total capacity, pen, violations): `pen` is the sum of
    the squared violation magnitudes, accumulated in order, and `violations`
    the named ones in `evaluate`'s order. The problem's constants are read and
    each FAP's violation names formatted once, here. SNR, capacity and delay
    repeat `channel.friis_snr_db`, `channel.capacity_bps` and
    `queueing.md1_delay_s` operation for operation; a saturated link carries
    the fixed magnitude `_SATURATED_DELAY_MAGNITUDE`.
    """
    k_db = link_budget_constant_db(problem.channel)
    faps = tuple(
        (f.position, f.demand_bps, f"link_capacity:{f.fap_id}",
         f"min_separation:{f.fap_id}", f"delay_bound:{f.fap_id}")
        for f in problem.snapshot.faps
    )
    regression = problem.capacity_model == "regression"
    slope, intercept = _REGRESSION.slope_bps_per_db, _REGRESSION.intercept_bps
    bandwidth = problem.channel.bandwidth_hz
    min_sep = problem.venue.min_separation_m
    bound_s = problem.delay_threshold_s
    cap_limit = problem.effective_aggregate_cap_bps

    def terms(row):
        px, py, pz, p_tx = row
        pos = (px, py, pz)
        total = pen = 0.0
        violations: list[tuple[str, float]] = []
        for fap_pos, demand, capacity_name, separation_name, delay_name in faps:
            d = math.dist(pos, fap_pos)
            if d < 1e-6:
                d = 1e-6
            snr = p_tx + (k_db - 20.0 * math.log10(d))
            if regression:
                cap = slope * snr + intercept
                if not cap > 0.0:
                    cap = 0.0
            else:
                cap = bandwidth * math.log2(1.0 + 10.0 ** (snr / 10.0))
            total += cap
            m = (demand - cap) / 1e6
            if m > FEASIBILITY_TOL:
                pen += m * m
                violations.append((capacity_name, m))
            m = min_sep - d
            if m > FEASIBILITY_TOL:
                pen += m * m
                violations.append((separation_name, m))
            rho = demand / cap if cap > 0.0 else math.inf
            m = _SATURATED_DELAY_MAGNITUDE
            if rho < 1.0:
                delay = (2.0 - rho) / (2.0 * (cap / PACKET_BITS) * (1.0 - rho))
                m = (delay - bound_s) / bound_s
            if m > FEASIBILITY_TOL:
                pen += m * m
                violations.append((delay_name, m))
        m = (total - cap_limit) / 1e6
        if m > FEASIBILITY_TOL:
            pen += m * m
            violations.append(("aggregate_capacity", m))
        return total, pen, violations

    return terms


def evaluate(problem: OptProblem, x) -> SolverEval:
    """Direct constraint audit of a decision vector (x, y, z, tx power).

    Violation magnitudes are normalised (Mbit/s, metres, dB, fractions of
    the delay threshold) so the penalty treats them comparably. Magnitudes
    at or below FEASIBILITY_TOL are solver-precision noise, not violations.
    """
    px, py, pz, p_tx = (float(v) for v in x)
    violations: list[tuple[str, float]] = []

    below = max(0.0, -p_tx)
    above = max(0.0, p_tx - problem.channel.max_tx_power_dbm)
    if below + above > FEASIBILITY_TOL:
        violations.append(("tx_power_range", below + above))

    v = problem.venue
    out = (
        max(0.0, -px)
        + max(0.0, px - v.x_max_m)
        + max(0.0, -py)
        + max(0.0, py - v.y_max_m)
        + max(0.0, v.min_altitude_m - pz)
        + max(0.0, pz - v.z_max_m)
    )
    if out > FEASIBILITY_TOL:
        violations.append(("venue_bounds", out))

    total_capacity, _, links = _constraint_terms(problem)((px, py, pz, p_tx))
    return SolverEval(total_capacity, (*violations, *links))


@dataclass(frozen=True)
class PsoParams:
    swarm: int = 50
    iterations: int = 2000

    def __post_init__(self) -> None:
        if self.swarm < 2 or self.iterations < 1:
            raise ValueError("swarm must be >= 2 and iterations >= 1")


@dataclass(frozen=True)
class SolverResult:
    x: tuple[float, float, float, float]
    position: Point
    tx_power_dbm: float
    objective_bps: float
    feasible: bool
    violations: tuple[tuple[str, float], ...]
    fitness_history: tuple[float, ...]


def _swarm_fitness(problem: OptProblem):
    """The swarm's fitness for one problem: `evaluate`'s penalised objective.

    The returned function takes a row (x, y, z, tx power) of Python floats
    and returns `objective_bps / 1e6 + _PENALTY_WEIGHT * pen` from the same
    `_constraint_terms` that `evaluate` audits with, so it cannot drift from
    the audit. The power-range and venue terms are left out because they are
    exactly 0 for every row the swarm scores: `solve_pso` clips each row to
    `problem.bounds`, which are the venue and the power range.
    """
    terms = _constraint_terms(problem)

    def fitness(row) -> float:
        total, pen, _ = terms(row)
        return total / 1e6 + _PENALTY_WEIGHT * pen

    return fitness


def solve_pso(problem: OptProblem, seed: int, params: PsoParams | None = None) -> SolverResult:
    """Global-best PSO over (x, y, z, tx power); deterministic per seed.

    After each step only the particles whose clipped row moved are scored
    again: the fitness is a pure function of the row, and a row that did not
    move cannot beat its personal best. Once a step moves no particle and
    every particle and personal best sits on the global best, the swarm is
    at a fixed point; the loop stops there and pads `fitness_history` with
    the global best to `iterations + 1` entries. The final pick audits each
    distinct personal best once. The result is the one a loop that scores
    every particle for every iteration returns, bit for bit.
    """
    import numpy as np

    params = params or PsoParams()
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in problem.bounds])
    hi = np.array([b[1] for b in problem.bounds])
    span = hi - lo
    v_max = _VELOCITY_CLAMP * span

    fitness = _swarm_fitness(problem)
    s = params.swarm
    x = lo + span * rng.random((s, 4))
    vel = np.zeros((s, 4))
    fits = np.array([fitness(row) for row in x.tolist()])
    pbest = x.copy()
    pbest_fit = fits.copy()
    g_idx = int(np.argmin(pbest_fit))
    gbest = pbest[g_idx].copy()
    gbest_fit = float(pbest_fit[g_idx])
    history = [gbest_fit]

    for _ in range(params.iterations):
        r1 = rng.random((s, 4))
        r2 = rng.random((s, 4))
        vel = (
            _OMEGA * vel
            + _C_PERSONAL * r1 * (pbest - x)
            + _C_SOCIAL * r2 * (gbest - x)
        )
        np.clip(vel, -v_max, v_max, out=vel)
        x_next = np.clip(x + vel, lo, hi)
        moved = (x_next != x).any(axis=1)
        x = x_next
        # Fixed point: with every row of x and pbest equal to gbest, the r1
        # and r2 terms of every later step are exact zeros, so each later
        # velocity is omega times the last, clipped (a no-op, since
        # |omega * v| <= |v| <= v_max). This step's clip(x + v) left x as it
        # was, and rounded addition and clipping are monotone, so
        # clip(x + omega * v), between clip(x + 0) and clip(x + v), leaves x
        # too: no row moves, no fitness changes, pbest and gbest stay. A zero
        # term may carry either sign, which can flip only the sign of a zero
        # velocity; x + (-0.0) is x. The fitness reads a row through
        # math.dist and p_tx + budget, where the sign of a zero coordinate
        # cannot change the value, and the returned row is a pbest row, which
        # changes only on a strict improvement.
        if not moved.any() and (x == gbest).all() and (pbest == gbest).all():
            break
        # A row that did not move keeps its score: the fitness is a pure
        # function of the row and cannot see the sign of a zero, which `!=`
        # ignores too.
        rows = x.tolist()
        for i in np.flatnonzero(moved).tolist():
            fits[i] = fitness(rows[i])
        improved = fits < pbest_fit
        pbest[improved] = x[improved]
        pbest_fit[improved] = fits[improved]
        g_idx = int(np.argmin(pbest_fit))
        if float(pbest_fit[g_idx]) < gbest_fit:
            gbest = pbest[g_idx].copy()
            gbest_fit = float(pbest_fit[g_idx])
        history.append(gbest_fit)
    history.extend([gbest_fit] * (params.iterations + 1 - len(history)))

    # Equal rows have equal audits, so audit each distinct personal best once,
    # keeping its first index: `min` then picks the row it would pick among all.
    # A feasible row's total violation is 0, so feasible rows win by objective.
    firsts: dict[tuple[float, ...], int] = {}
    for i, row in enumerate(pbest.tolist()):
        firsts.setdefault(tuple(row), i)
    evals = {i: evaluate(problem, pbest[i]) for i in firsts.values()}
    best_i = min(
        evals,
        key=lambda i: (not evals[i].feasible, evals[i].total_violation, evals[i].objective_bps),
    )
    best_ev = evals[best_i]
    bx = tuple(float(v) for v in pbest[best_i])
    return SolverResult(
        x=bx,
        position=bx[:3],
        tx_power_dbm=bx[3],
        objective_bps=best_ev.objective_bps,
        feasible=best_ev.feasible,
        violations=best_ev.violations,
        fitness_history=tuple(history),
    )


def solver_plan(
    problem: OptProblem, result: SolverResult, table: McsTable
) -> GpqmPlan:
    """Translate a solver solution into a simulator plan.

    Position and power are taken as-is; each link's realised capacity comes
    from the discrete MCS actually available at the solution's SNR, while
    the queue, delay and loss come from the solver's own continuous capacity:
    the M/D/1 backlog rounded up (floor one packet; fallback 100 for saturated
    links the solver itself flagged infeasible), the M/D/1 delay and the
    M/M/1/Q loss.
    """
    faps = []
    for fap in problem.snapshot.faps:
        d = max(math.dist(result.position, fap.position), 1e-6)
        snr = friis_snr_db(problem.channel, result.tx_power_dbm, d)
        mcs = table.for_snr(snr)
        capacity = mcs.fair_share_bps if mcs is not None else 0.0
        realised_rho = fap.demand_bps / capacity if capacity > 0.0 else math.inf
        cap = problem.capacity_bps(snr)
        rho = fap.demand_bps / cap if cap > 0.0 else math.inf
        saturated = rho >= 1.0
        queue = 100 if saturated else planned_queue_size(rho)
        delay = math.inf if saturated else md1_delay_s(rho, cap / PACKET_BITS)
        faps.append(
            FapPlan(
                fap_id=fap.fap_id,
                demand_bps=fap.demand_bps,
                mcs_index=mcs.index if mcs is not None else -1,
                target_snr_db=snr,
                capacity_bps=capacity,
                utilisation=realised_rho,
                queue_pkts=queue,
                delay_s=delay,
                plr=mm1q_plr(rho, queue),
            )
        )
    return GpqmPlan(
        t_s=0.0,
        tx_power_dbm=result.tx_power_dbm,
        fgw_position=result.position,
        faps=tuple(faps),
        margins_m=(),
    )


# --- head-to-head benchmark ----------------------------------------------


@dataclass(frozen=True)
class BenchmarkRow:
    instance: int
    seed: int
    method: str  # gpqm | pso
    objective_bps: float
    feasible: bool
    p_delay_s: float
    p_throughput_bps: float


def random_static_instance(
    seed: int,
    n_faps: int,
    venue: Venue,
    channel: ChannelParams,
    demand_fractions: tuple[float, ...] = DEFAULT_DEMAND_FRACTIONS,
) -> Snapshot:
    """Uniformly placed static FAPs with demands cycled over the fractions."""
    rng = random.Random(seed)
    reference = reference_fair_share_bps(n_faps, channel.mac_efficiency)
    faps = []
    for i in range(n_faps):
        pos = (
            rng.uniform(0.0, venue.x_max_m),
            rng.uniform(0.0, venue.y_max_m),
            rng.uniform(venue.min_altitude_m, venue.z_max_m),
        )
        faps.append(
            FapState(f"fap{i}", pos, demand_fractions[i % len(demand_fractions)] * reference)
        )
    return Snapshot(0.0, tuple(faps))


def _static_trace(
    snapshot: Snapshot, venue: Venue, channel: ChannelParams, duration_s: float, seed: int
) -> ScenarioTrace:
    faps = tuple(
        FapTrace(f.fap_id, ((0.0, *f.position),), DemandProfile(constant_bps=f.demand_bps))
        for f in snapshot.faps
    )
    return ScenarioTrace(
        venue=venue,
        channel=channel,
        faps=faps,
        duration_s=duration_s,
        planning_period_s=DEFAULT_PLANNING_PERIOD_S,
        seed=seed,
    )


def run_benchmark(
    n_instances: int = 5,
    n_faps: int = 3,
    base_seed: int = 7,
    pso_params: PsoParams | None = None,
    capacity_model: str = "regression",
    demand_fractions: tuple[float, ...] = DEFAULT_DEMAND_FRACTIONS,
    sim_config: SimConfig | None = None,
    sim_runs: int = 3,
) -> list[BenchmarkRow]:
    """Plan and PSO-solve seeded static instances, then simulate both plans.

    Instance seeds count up from `base_seed`, skipping draws the planner
    cannot serve, until `n_instances` plannable instances are collected;
    PlanningError when 100 candidate seeds per instance do not suffice.
    Instances use the default venue, channel and planner settings. Delay is
    the 90th percentile of pooled per-packet delays; throughput the
    per-second value exceeded by 90% of samples.
    """
    if n_instances < 1 or sim_runs < 1:
        raise ValueError("need at least one instance and one simulation run")
    venue = Venue()
    channel = ChannelParams()
    planner_config = PlannerConfig()
    pso_params = pso_params or PsoParams()
    sim_config = sim_config or SimConfig(
        bootstrap_s=5.0, measure_s=20.0, placement="gpqm", queue="scheduled"
    )
    duration = sim_config.bootstrap_s + sim_config.measure_s

    table = default_mcs_table(n_faps, channel.mac_efficiency)
    instances = []
    for seed in range(base_seed, base_seed + _SEEDS_PER_INSTANCE * n_instances):
        snapshot = random_static_instance(seed, n_faps, venue, channel, demand_fractions)
        try:
            plan = plan_snapshot(snapshot, channel, venue, planner_config, table)
        except PlanningError:
            continue
        instances.append((seed, snapshot, plan))
        if len(instances) == n_instances:
            break
    else:
        raise PlanningError(
            f"only {len(instances)} of {n_instances} instances plannable among seeds "
            f"{base_seed}..{seed}"
        )

    rows: list[BenchmarkRow] = []
    for instance, (seed, snapshot, gpqm_plan) in enumerate(instances):
        problem = OptProblem(snapshot, channel, venue, capacity_model)
        pso_result = solve_pso(problem, seed=seed, params=pso_params)
        trace = _static_trace(snapshot, venue, channel, duration, seed)
        methods = (
            ("gpqm", gpqm_plan, sum(f.capacity_bps for f in gpqm_plan.faps), True),
            ("pso", solver_plan(problem, pso_result, table), pso_result.objective_bps,
             pso_result.feasible),
        )
        for method, plan, objective, feasible in methods:
            series = PlanSeries((plan,), duration)
            runs = [
                simulate(trace, replace(sim_config, seed=r + 1), plan=series)
                for r in range(sim_runs)
            ]
            delay_p, thr_p = merge_metrics(runs).percentiles()
            rows.append(
                BenchmarkRow(
                    instance=instance,
                    seed=seed,
                    method=method,
                    objective_bps=objective,
                    feasible=feasible,
                    p_delay_s=delay_p,
                    p_throughput_bps=thr_p,
                )
            )
    return rows
