"""Joint gateway placement, power and queue-size planning.

For one snapshot: pick each FAP's MCS from its demand, escalate any MCS
whose predicted delay breaks the threshold, then sweep transmit power
upward until the per-link range spheres admit a gateway position. The
returned plan carries the minimal feasible power, the position, and per
link the capacity, utilisation, provisioned queue and predicted delay and
loss.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace

from .channel import ChannelParams, McsTable, default_mcs_table, max_distance_m
from .errors import (
    AggregateCapacityError,
    DelayInfeasibleError,
    PlacementInfeasibleError,
    PlanningError,
)
from .placement import Point, SphereConstraint, Venue, compute_fgw_pos
from .queueing import md1_delay_s, mm1q_plr, planned_queue_size, rates_from_traffic
from .scenario import (
    DEFAULT_PLANNING_PERIOD_S, ScenarioTrace, Snapshot, _check_type, _from_dict, _rows, _to_dict,
)

SLACK_TOL_M = 1e-9


@dataclass(frozen=True)
class PlannerConfig:
    delay_threshold_s: float = 0.010
    power_step_db: float = 1.0
    min_tx_power_dbm: float = 0.0
    update_period_s: float = DEFAULT_PLANNING_PERIOD_S

    def __post_init__(self) -> None:
        if not self.delay_threshold_s > 0.0:
            raise ValueError("delay threshold must be positive")
        if not self.power_step_db > 0.0:
            raise ValueError("power step must be positive")
        if not self.update_period_s >= 1.0:
            raise ValueError("update period must be at least 1 s")


@dataclass(frozen=True)
class FapPlan:
    """Planned link parameters for one FAP."""

    fap_id: str
    demand_bps: float
    mcs_index: int
    target_snr_db: float
    capacity_bps: float
    utilisation: float
    queue_pkts: int
    delay_s: float
    plr: float


@dataclass(frozen=True)
class GpqmPlan:
    t_s: float
    tx_power_dbm: float
    fgw_position: Point
    faps: tuple[FapPlan, ...]
    margins_m: tuple[float, ...]


def _fap_plans(snapshot: Snapshot, table: McsTable, config: PlannerConfig) -> list[FapPlan]:
    """Size each FAP at its demand-matching MCS, raised until the predicted delay fits."""
    fap_plans = []
    for fap in snapshot.faps:
        first = table.entries.index(table.for_demand(fap.demand_bps))
        for entry in table.entries[first:]:
            _, mu, rho = rates_from_traffic(fap.demand_bps, entry.fair_share_bps)
            delay = md1_delay_s(rho, mu) if rho < 1.0 else math.inf
            if delay < config.delay_threshold_s:
                break
        else:
            raise DelayInfeasibleError(
                f"FAP {fap.fap_id}: delay threshold {config.delay_threshold_s} s "
                f"unreachable even at the top MCS"
            )
        queue = planned_queue_size(rho)
        fap_plans.append(
            FapPlan(
                fap_id=fap.fap_id,
                demand_bps=fap.demand_bps,
                mcs_index=entry.index,
                target_snr_db=entry.min_snr_db,
                capacity_bps=entry.fair_share_bps,
                utilisation=rho,
                queue_pkts=queue,
                delay_s=delay,
                plr=mm1q_plr(rho, queue),
            )
        )
    return fap_plans


def plan_snapshot(
    snapshot: Snapshot,
    channel: ChannelParams,
    venue: Venue,
    config: PlannerConfig,
    table: McsTable | None = None,
) -> GpqmPlan:
    """Plan one snapshot at the minimal feasible transmit power.

    Raises InfeasibleDemandError, AggregateCapacityError,
    DelayInfeasibleError or PlacementInfeasibleError when no plan exists.
    """
    if table is None:
        table = default_mcs_table(len(snapshot.faps), channel.mac_efficiency)
    for fap in snapshot.faps:
        if not venue.contains(fap.position):
            raise ValueError(f"FAP {fap.fap_id} position {fap.position} outside the venue")

    fap_plans = _fap_plans(snapshot, table, config)

    total_demand = sum(f.demand_bps for f in snapshot.faps)
    usable = channel.mac_efficiency * max(table.entry(f.mcs_index).phy_rate_bps for f in fap_plans)
    if total_demand > usable:
        raise AggregateCapacityError(
            f"total demand {total_demand / 1e6:.1f} Mbit/s exceeds usable capacity "
            f"{usable / 1e6:.1f} Mbit/s"
        )

    power = config.min_tx_power_dbm
    while power <= channel.max_tx_power_dbm + 1e-9:
        spheres = [
            SphereConstraint(fap.position, max_distance_m(channel, power, f.target_snr_db))
            for fap, f in zip(snapshot.faps, fap_plans)
        ]
        placement = compute_fgw_pos(spheres, venue)
        if placement.feasible:
            return GpqmPlan(
                t_s=snapshot.t_s,
                tx_power_dbm=power,
                fgw_position=placement.position,
                faps=tuple(fap_plans),
                margins_m=placement.margins_m,
            )
        power += config.power_step_db
    raise PlacementInfeasibleError(
        f"no gateway position at any power up to {channel.max_tx_power_dbm} dBm "
        f"(snapshot t={snapshot.t_s} s)"
    )


@dataclass(frozen=True)
class PlanSeries:
    """One plan per snapshot, held piecewise-constant between updates."""

    plans: tuple[GpqmPlan, ...]
    update_period_s: float

    def __post_init__(self) -> None:
        if not self.plans:
            raise ValueError("plan series must not be empty")
        times = [p.t_s for p in self.plans]
        if times != sorted(times):
            raise ValueError("plans must be time-ordered")

    @property
    def start_s(self) -> float:
        return self.plans[0].t_s

    @property
    def end_s(self) -> float:
        return self.plans[-1].t_s + self.update_period_s

    def at(self, t_s: float) -> GpqmPlan:
        """Zero-order hold: the latest plan not newer than `t_s`."""
        if t_s < self.start_s - 1e-9:
            raise ValueError(f"no plan at t={t_s} s (series starts at {self.start_s} s)")
        times = [p.t_s for p in self.plans]
        idx = bisect.bisect_right(times, t_s + 1e-12) - 1
        return self.plans[idx]


def plan_series(trace: ScenarioTrace, config: PlannerConfig) -> PlanSeries:
    """Plan every snapshot against the trace's MCS ladder; infeasibility is tagged with its time."""
    table = trace.mcs_table()
    plans = []
    for snap in trace.snapshots():
        try:
            plans.append(plan_snapshot(snap, trace.channel, trace.venue, config, table))
        except PlanningError as exc:
            raise type(exc)(f"snapshot t={snap.t_s} s: {exc}") from exc
    return PlanSeries(tuple(plans), trace.planning_period_s)


# --- constraint audit -----------------------------------------------------


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    slack: float
    passed: bool


@dataclass(frozen=True)
class ConstraintReport:
    checks: tuple[ConstraintCheck, ...]
    objective_bps: float

    @property
    def violations(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.passed)

    @property
    def passes(self) -> bool:
        return not self.violations


def check_formulation(
    plan: GpqmPlan,
    snapshot: Snapshot,
    channel: ChannelParams,
    venue: Venue,
    config: PlannerConfig,
    table: McsTable | None = None,
) -> ConstraintReport:
    """Audit a plan against every formulation constraint; slack >= 0 passes.

    Length-like slacks tolerate -1e-9 m of float noise.
    """
    if table is None:
        table = default_mcs_table(len(plan.faps), channel.mac_efficiency)
    checks: list[ConstraintCheck] = []

    def add(name: str, slack: float, tol: float = 0.0) -> None:
        checks.append(ConstraintCheck(name, slack, slack >= -tol))

    p = plan.tx_power_dbm
    add("tx_power_range", min(p - 0.0, channel.max_tx_power_dbm - p))

    # Same admission rule the planner enforces: total carried traffic against
    # the usable rate of the fastest selected MCS.
    objective = sum(f.capacity_bps for f in plan.faps)
    usable = channel.mac_efficiency * max(
        table.entry(f.mcs_index).phy_rate_bps for f in plan.faps
    )
    add("aggregate_capacity", usable - sum(f.demand_bps for f in plan.faps))

    pos = plan.fgw_position
    add(
        "venue_bounds",
        min(
            pos[0],
            venue.x_max_m - pos[0],
            pos[1],
            venue.y_max_m - pos[1],
            pos[2] - venue.min_altitude_m,
            venue.z_max_m - pos[2],
        ),
        SLACK_TOL_M,
    )

    by_id = {f.fap_id: f for f in snapshot.faps}
    for f in plan.faps:
        state = by_id[f.fap_id]
        dist = math.dist(pos, state.position)
        add(f"link_capacity:{f.fap_id}", f.capacity_bps - state.demand_bps)
        add(f"queue_size:{f.fap_id}", float(f.queue_pkts))
        add(f"delay_bound:{f.fap_id}", config.delay_threshold_s - f.delay_s)
        radius = max_distance_m(channel, p, f.target_snr_db)
        add(f"link_exists:{f.fap_id}", radius - dist, SLACK_TOL_M)
        add(f"min_separation:{f.fap_id}", dist - venue.min_separation_m, SLACK_TOL_M)

    return ConstraintReport(tuple(checks), objective)


# --- plan file format -----------------------------------------------------


# Plan-file keys of the FapPlan fields whose key is not the field name.
_FAP_PLAN_KEYS = {
    "fap_id": "id",
    "mcs_index": "mcs",
    "target_snr_db": "snr_db",
    "utilisation": "rho",
}


def plan_series_to_json(series: PlanSeries, duration_s: float | None = None) -> dict:
    """Export a series on a 1 s zero-order-hold grid (the simulator cadence)."""
    end = duration_s if duration_s is not None else series.end_s
    plans = []
    t = series.start_s
    while t < end - 1e-9:
        plan = series.at(t)
        plans.append(
            {
                "t": t,
                "p_tx_dbm": plan.tx_power_dbm,
                "fgw": list(plan.fgw_position),
                "faps": [_to_dict(f, _FAP_PLAN_KEYS) for f in plan.faps],
            }
        )
        t += 1.0
    return {
        "config_echo": {
            "update_period_s": series.update_period_s,
            "sampling_period_s": 1.0,
        },
        "plans": plans,
    }


def _fap_plan_from_json(where: str, entry) -> FapPlan:
    _check_type(where, "each faps entry", "object", entry)
    if "demand_bps" in entry:
        return _from_dict(FapPlan, entry, _FAP_PLAN_KEYS)
    # plan files written before the demand was stored
    plan = _from_dict(FapPlan, {**entry, "demand_bps": 0.0}, _FAP_PLAN_KEYS)
    return replace(plan, demand_bps=plan.utilisation * plan.capacity_bps)


def _plan_from_json(where: str, entry) -> GpqmPlan:
    _check_type("plan file", where, "object", entry)
    _check_type(where, "t", "float", entry["t"])
    _check_type(where, "p_tx_dbm", "float", entry["p_tx_dbm"])
    _check_type(where, "faps", "list", entry["faps"])
    return GpqmPlan(
        t_s=float(entry["t"]),
        tx_power_dbm=float(entry["p_tx_dbm"]),
        fgw_position=_rows(where, "fgw", [entry["fgw"]], 3)[0],
        faps=tuple(_fap_plan_from_json(where, f) for f in entry["faps"]),
        margins_m=(),
    )


def plan_series_from_json(data: dict) -> PlanSeries:
    _check_type("plan file", "the file", "object", data)
    _check_type("plan file", "plans", "list", data["plans"])
    echo = data.get("config_echo", {})
    _check_type("plan file", "config_echo", "object", echo)
    period = echo.get("sampling_period_s", 1.0)
    _check_type("config_echo", "sampling_period_s", "float", period)
    plans = [_plan_from_json(f"plans[{i}]", entry) for i, entry in enumerate(data["plans"])]
    return PlanSeries(tuple(plans), float(period))
