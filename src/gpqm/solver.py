"""Particle-swarm benchmark for the continuous placement problem.

The planner's discrete search is benchmarked against a direct minimisation
of total allocated capacity over (x, y, z, tx power), with capacity taken
from either the linear SNR-to-share regression or the Shannon bound.
Constraint handling is a quadratic exterior penalty; feasibility is always
re-judged by direct constraint evaluation, never by penalty value. The
optimum sits exactly on the delay-bound surface (surplus capacity is pure
cost), so the audit accepts normalised magnitudes up to 1e-6 — about 10 ns
of sojourn against the default bound — as solver-precision noise, the way
any continuous NLP solver states a feasibility tolerance.

Links carry DEFAULT_PACKET_SIZE_BYTES packets, as in the planner and the
simulator. Both capacity models come from `channel.capacity_bps`. The
regression model's aggregate cap and the swarm's coefficients are module
constants; the cap is computed once, at import.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

import numpy as np

from .channel import (
    ChannelParams,
    McsTable,
    calibrated_mcs_table,
    capacity_bps,
    default_mcs_table,
    friis_snr_db,
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
    """Static placement instance for the benchmark solver."""

    snapshot: Snapshot
    channel: ChannelParams
    venue: Venue
    delay_threshold_s: float = PlannerConfig.delay_threshold_s
    capacity_model: str = "regression"  # regression | shannon

    def __post_init__(self) -> None:
        if self.capacity_model not in ("regression", "shannon"):
            raise ValueError(f"unknown capacity model {self.capacity_model!r}")
        if not self.delay_threshold_s > 0.0:
            raise ValueError("delay threshold must be positive")

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


def evaluate(problem: OptProblem, x) -> SolverEval:
    """Direct constraint audit of a decision vector (x, y, z, tx power).

    Violation magnitudes are normalised (Mbit/s, metres, dB, fractions of
    the delay threshold) so the penalty treats them comparably. Magnitudes
    at or below FEASIBILITY_TOL are solver-precision noise, not violations.
    """
    px, py, pz, p_tx = (float(v) for v in x)
    pos = (px, py, pz)
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

    total_capacity = 0.0
    for fap in problem.snapshot.faps:
        d = max(math.dist(pos, fap.position), 1e-6)
        snr = friis_snr_db(problem.channel, p_tx, d)
        cap = problem.capacity_bps(snr)
        total_capacity += cap

        shortfall = (fap.demand_bps - cap) / 1e6
        if shortfall > FEASIBILITY_TOL:
            violations.append((f"link_capacity:{fap.fap_id}", shortfall))

        sep = v.min_separation_m - d
        if sep > FEASIBILITY_TOL:
            violations.append((f"min_separation:{fap.fap_id}", sep))

        rho = fap.demand_bps / cap if cap > 0.0 else math.inf
        if rho < 1.0:
            delay = md1_delay_s(rho, cap / PACKET_BITS)
            excess = (delay - problem.delay_threshold_s) / problem.delay_threshold_s
            if excess > FEASIBILITY_TOL:
                violations.append((f"delay_bound:{fap.fap_id}", excess))
        else:
            violations.append((f"delay_bound:{fap.fap_id}", _SATURATED_DELAY_MAGNITUDE))

    cap_limit = problem.effective_aggregate_cap_bps
    over = (total_capacity - cap_limit) / 1e6
    if over > FEASIBILITY_TOL:
        violations.append(("aggregate_capacity", over))

    return SolverEval(total_capacity, tuple(violations))


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


def _fitness(problem: OptProblem, x) -> float:
    ev = evaluate(problem, x)
    penalty = _PENALTY_WEIGHT * sum(m * m for _, m in ev.violations)
    return ev.objective_bps / 1e6 + penalty


def solve_pso(problem: OptProblem, seed: int, params: PsoParams | None = None) -> SolverResult:
    """Global-best PSO over (x, y, z, tx power); deterministic per seed."""
    params = params or PsoParams()
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in problem.bounds])
    hi = np.array([b[1] for b in problem.bounds])
    span = hi - lo
    v_max = _VELOCITY_CLAMP * span

    s = params.swarm
    x = lo + span * rng.random((s, 4))
    vel = np.zeros((s, 4))
    fits = np.array([_fitness(problem, row) for row in x])
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
        x = np.clip(x + vel, lo, hi)
        fits = np.array([_fitness(problem, row) for row in x])
        improved = fits < pbest_fit
        pbest[improved] = x[improved]
        pbest_fit[improved] = fits[improved]
        g_idx = int(np.argmin(pbest_fit))
        if float(pbest_fit[g_idx]) < gbest_fit:
            gbest = pbest[g_idx].copy()
            gbest_fit = float(pbest_fit[g_idx])
        history.append(gbest_fit)

    # A feasible row's total violation is 0, so feasible rows win by objective.
    evals = [evaluate(problem, row) for row in pbest]
    best_i = min(
        range(len(evals)),
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
                plr=mm1q_plr(min(rho, 10.0), queue) if math.isfinite(rho) else 1.0,
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
        problem = OptProblem(
            snapshot=snapshot,
            channel=channel,
            venue=venue,
            delay_threshold_s=planner_config.delay_threshold_s,
            capacity_model=capacity_model,
        )
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
                simulate(trace, replace(sim_config, seed=r + 1, label=method), plan=series)
                for r in range(sim_runs)
            ]
            delay_p, thr_p = merge_metrics(runs).percentiles(90.0)
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
