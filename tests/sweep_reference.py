"""Reference copies of the planner's power sweep and the placement fallback.

`plan_snapshot` here climbs the power ladder one rung at a time, calling
`compute_fgw_pos` on every rung. This module's `compute_fgw_pos` searches the
protection-distance fence whenever the deepest point lies inside it, with the
compass search of `descend`, which evaluates every candidate it visits. The
package's versions skip the rungs and fence searches that provably admit no
gateway and evaluate each point once; the tests require the same plans,
points and errors from both, on random traces and on the benchmark's
snapshots listed in FENCED_SNAPSHOTS. The package never imports this module.
"""

from __future__ import annotations

import itertools
import math

from gpqm.channel import McsTable, default_mcs_table, max_distance_m
from gpqm.errors import AggregateCapacityError, PlacementInfeasibleError
from gpqm.placement import (
    _DIRECTIONS,
    _STEP_LEVELS,
    PlacementResult,
    SphereConstraint,
    Venue,
    _coverage_gap,
    _deepest_point,
    _separation_gap,
    feasibility_margin,
)
from gpqm.planner import GpqmPlan, _fap_plans
from gpqm.scenario import ScenarioTrace, Snapshot, generate_rwm


def descend(start, objective, venue: Venue, calls: list[int] | None = None):
    """Compass pattern search over the clamped venue, step 8 m halving down.

    `calls`, when given, counts the objective's evaluations in calls[0].
    """
    def evaluate(p):
        if calls is not None:
            calls[0] += 1
        return objective(p)

    best = venue.clamp(start)
    best_val = evaluate(best)
    step = 8.0
    for _ in range(_STEP_LEVELS):
        while True:
            move = None
            move_val = best_val
            for d in _DIRECTIONS:
                cand = venue.clamp(
                    (best[0] + step * d[0], best[1] + step * d[1], best[2] + step * d[2])
                )
                val = evaluate(cand)
                if val < move_val - 1e-15:
                    move = cand
                    move_val = val
            if move is None:
                break
            best = move
            best_val = move_val
        step *= 0.5
    return best


def compute_fgw_pos(spheres: list[SphereConstraint], venue: Venue) -> PlacementResult:
    """Deepest admissible gateway position, searching the fence whenever the
    deepest point lies inside a FAP's protection distance."""
    if not spheres:
        raise ValueError("at least one sphere constraint is required")
    for s in spheres:
        if not venue.contains(s.center):
            raise ValueError(f"sphere center {s.center} lies outside the venue")

    for a, b in itertools.combinations(spheres, 2):
        if math.dist(a.center, b.center) > a.radius_m + b.radius_m:
            return PlacementResult(False, None, (), -math.inf)

    pos, exact = _deepest_point(spheres)
    if not exact or not venue.contains(pos):
        pos = descend(pos, lambda p: _coverage_gap(p, spheres), venue)
    if _coverage_gap(pos, spheres) > 0.0:
        return PlacementResult(False, None, (), -math.inf)

    min_sep = venue.min_separation_m
    if _separation_gap(pos, spheres, min_sep) > 0.0:
        def fenced(p):
            return max(_coverage_gap(p, spheres), _separation_gap(p, spheres, min_sep))

        pos = descend(pos, fenced, venue)
        if fenced(pos) > 0.0:
            return PlacementResult(False, None, (), -math.inf)

        def standoff_kept(p):
            if _separation_gap(p, spheres, min_sep) > 0.0:
                return math.inf
            return _coverage_gap(p, spheres)

        pos = descend(pos, standoff_kept, venue)

    margins = feasibility_margin(pos, spheres)
    sep = min(math.dist(pos, s.center) for s in spheres) - min_sep
    return PlacementResult(True, pos, margins, sep)


def plan_snapshot(snapshot, channel, venue, config, table: McsTable | None = None) -> GpqmPlan:
    """Plan one snapshot, trying every rung of the power ladder from the bottom."""
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


def trace_snapshot(seed: int, index: int) -> tuple[ScenarioTrace, Snapshot]:
    """Snapshot `index` of the 100 s random-waypoint trace of `seed`, with 3
    FAPs at even seeds and 5 at odd ones, as the benchmark's plan workload
    draws them."""
    trace = generate_rwm(3 if seed % 2 == 0 else 5, 100.0, seed=seed)
    return trace, trace.snapshots()[index]


# (trace seed, snapshot index) of the snapshots of trace seeds 1000-1047 whose
# rung-by-rung sweep searches the protection-distance fence.
FENCED_SNAPSHOTS = (
    (1002, 10), (1002, 13), (1003, 18), (1004, 0), (1004, 10), (1005, 17), (1011, 6),
    (1012, 15), (1012, 20), (1020, 0), (1020, 2), (1020, 4), (1022, 9), (1024, 19),
    (1032, 7), (1034, 11), (1036, 2), (1036, 3), (1036, 6), (1036, 18), (1040, 12),
    (1040, 13), (1040, 14), (1043, 3), (1043, 15), (1044, 16), (1044, 17), (1046, 6),
)
