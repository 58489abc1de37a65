"""Joint gateway placement, power and queue-size planning.

For one snapshot: pick each FAP's MCS from its demand, escalate any MCS
whose predicted delay breaks the threshold, then sweep transmit power
upward until the per-link range spheres admit a gateway position. The
returned plan carries the minimal feasible power, the position, and per
link the capacity, utilisation, provisioned queue and predicted delay and
loss.

The sweep skips the powers that provably admit no gateway: those at which
some FAP's range is shorter than the protection distance, or some pair of
FAPs stands farther apart than its two ranges reach. Under Friis every range
grows by the same factor with the power, so these powers lie below one
floor, computed once from the link budget at the bottom rung; from the
floor on, the sweep places the gateway as a rung-by-rung scan would.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import astuple, dataclass, replace
from operator import attrgetter
from typing import ClassVar

from .channel import (
    ChannelParams, McsTable, default_mcs_table, log10_max_distance, max_distance_m,
)
from .errors import (
    AggregateCapacityError,
    DelayInfeasibleError,
    PlacementInfeasibleError,
    PlanningError,
)
from .placement import Point, SphereConstraint, Venue, compute_fgw_pos
from .queueing import md1_delay_s, mm1q_plr, planned_queue_size, rates_from_traffic
from .scenario import (
    DEFAULT_PLANNING_PERIOD_S, ScenarioTrace, Snapshot, _from_dict, _rows, _section, _to_dict,
)

SLACK_TOL_M = 1e-9


@dataclass(frozen=True)
class PlannerConfig:
    """Planner settings; the power sweep climbs from `min_tx_power_dbm` by `power_step_db`.

    A step of at least 0.01 dB keeps the ladder to at most 3001 rungs up to
    the default 30 dBm ceiling; the sweep tries to place the gateway only on
    the rungs at or above its power floor.
    """

    min_tx_power_dbm: ClassVar[float] = 0.0
    delay_threshold_s: float = 0.010
    power_step_db: float = 1.0
    update_period_s: float = DEFAULT_PLANNING_PERIOD_S

    def __post_init__(self) -> None:
        if not self.delay_threshold_s > 0.0:
            raise ValueError("delay threshold must be positive")
        if not self.power_step_db >= 0.01:
            raise ValueError("power step must be positive and at least 0.01 dB")
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

    positions = [fap.position for fap in snapshot.faps]
    targets = [f.target_snr_db for f in fap_plans]

    # Below floor_dbm some FAP's range is short of the protection distance, or
    # some pair of FAPs is out of reach, so compute_fgw_pos admits no gateway.
    # Under Friis every range grows by 10^((P - P0) / 20) from its value at
    # the bottom rung P0, so a distance d that a range r at P0 must reach
    # needs P >= P0 + 20 (log10 d - log10 r), with log10(r_i + r_j) for a
    # pair. The logarithms come from the link budget, not from the ranges,
    # which lose digits where subnormal; 1e-9 dB is left for rounding. A
    # bottom range outside (0, inf) leaves -inf: SphereConstraint rejects it.
    power = config.min_tx_power_dbm
    floor_dbm = -math.inf
    if all(0.0 < max_distance_m(channel, power, t) < math.inf for t in targets):
        logs = [log10_max_distance(channel, power, t) for t in targets]
        reaches = [(venue.min_separation_m, min(logs))] + [
            (math.dist(positions[i], positions[j]),
             max(a, b) + math.log10(1.0 + 10.0 ** -abs(a - b)))
            for (i, a), (j, b) in itertools.combinations(enumerate(logs), 2)
        ]
        terms = [power + 20.0 * (math.log10(d) - lg) for d, lg in reaches if d > 0.0]
        floor_dbm = max(terms, default=-math.inf) - 1e-9
    while power <= channel.max_tx_power_dbm + 1e-9:
        if power >= floor_dbm:
            spheres = [
                SphereConstraint(position, max_distance_m(channel, power, t))
                for position, t in zip(positions, targets)
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
        if not 0.0 < self.update_period_s < math.inf:
            raise ValueError(
                f"update period must be positive and finite, not {self.update_period_s}"
            )
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
        return self.plans[bisect.bisect_right(self.plans, t_s + 1e-12, key=attrgetter("t_s")) - 1]


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
    add("tx_power_range", min(p - config.min_tx_power_dbm, channel.max_tx_power_dbm - p))

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


def plan_series_to_json(series: PlanSeries, duration_s: float) -> dict:
    """Export a series up to `duration_s` on a 1 s zero-order-hold grid (the simulator cadence)."""
    plans = []
    t = series.start_s
    while t < duration_s - 1e-9:
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


# Every key a plan file, its config echo and each plan entry may hold, its JSON
# type, and the default of each optional key. A file without an echo reads as
# plans updated every second on a 1 s grid.
_PLAN_FILE_KEYS = {"config_echo": "object", "plans": "list of objects"}
_PLAN_FILE_DEFAULTS = {"config_echo": {}}
_CONFIG_ECHO_KEYS = {"update_period_s": "float", "sampling_period_s": "float"}
_CONFIG_ECHO_DEFAULTS = {"update_period_s": 1.0, "sampling_period_s": 1.0}
_PLAN_KEYS = {"t": "float", "p_tx_dbm": "float", "fgw": "list", "faps": "list of objects"}


def _fap_plan_from_json(entry: dict) -> FapPlan:
    if "demand_bps" in entry:
        return _from_dict(FapPlan, entry, _FAP_PLAN_KEYS)
    # plan files written before the demand was stored
    plan = _from_dict(FapPlan, {**entry, "demand_bps": 0.0}, _FAP_PLAN_KEYS)
    return replace(plan, demand_bps=plan.utilisation * plan.capacity_bps)


def _plan_from_json(where: str, entry: dict) -> GpqmPlan:
    """One plan entry, refused where a run cannot use it.

    The time, power and gateway must be finite, each FAP entry free of NaN
    and each queue at least one packet.
    """
    entry = _section(where, entry, _PLAN_KEYS, {})
    plan = GpqmPlan(
        t_s=float(entry["t"]),
        tx_power_dbm=float(entry["p_tx_dbm"]),
        fgw_position=_rows(where, "fgw", [entry["fgw"]], 3)[0],
        faps=tuple(_fap_plan_from_json(f) for f in entry["faps"]),
        margins_m=(),
    )
    if not all(map(math.isfinite, (plan.t_s, plan.tx_power_dbm, *plan.fgw_position))):
        raise ValueError(f"{where}: t, p_tx_dbm and fgw must be finite")
    for f in plan.faps:
        if any(map(math.isnan, astuple(f)[1:])):  # every field after the id is a number
            raise ValueError(f"{where}: FAP {f.fap_id} holds a NaN")
        if f.queue_pkts < 1:
            raise ValueError(
                f"{where}: FAP {f.fap_id}: queue_pkts must be at least 1, not {f.queue_pkts}"
            )
    return plan


def plan_series_from_json(data: dict) -> PlanSeries:
    data = _section("plan file", data, _PLAN_FILE_KEYS, _PLAN_FILE_DEFAULTS)
    echo = _section("config_echo", data["config_echo"], _CONFIG_ECHO_KEYS, _CONFIG_ECHO_DEFAULTS)
    period = echo["update_period_s"]
    if not 0.0 < period < math.inf:
        raise ValueError(f"config_echo: update_period_s must be positive and finite, not {period}")
    plans = [_plan_from_json(f"plans[{i}]", entry) for i, entry in enumerate(data["plans"])]
    return PlanSeries(tuple(plans), float(echo["sampling_period_s"]))
