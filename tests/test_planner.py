"""Planner behaviour: golden plan, minimality, escalation, constraint audit."""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import replace

import pytest

from gpqm import (
    AggregateCapacityError,
    ChannelParams,
    DelayInfeasibleError,
    InfeasibleDemandError,
    PlacementInfeasibleError,
    PlannerConfig,
    PlanningError,
    Venue,
    check_formulation,
    default_mcs_table,
    generate_rwm,
    plan_series,
    plan_series_from_json,
    plan_series_to_json,
    plan_snapshot,
)
from gpqm.scenario import DemandProfile, FapState, FapTrace, ScenarioTrace, Snapshot

CH = ChannelParams()
VENUE = Venue()
CFG = PlannerConfig()


def reference_snapshot() -> Snapshot:
    return Snapshot(
        t_s=0.0,
        faps=(
            FapState("fap1", (50.0, 75.0, 10.0), 40e6),
            FapState("fap2", (75.0, 25.0, 10.0), 125e6),
            FapState("fap3", (25.0, 25.0, 10.0), 150e6),
        ),
    )


# --- golden plan ------------------------------------------------------------

def test_reference_plan_power_and_queues():
    plan = plan_snapshot(reference_snapshot(), CH, VENUE, CFG)
    assert plan.tx_power_dbm == 20.0
    assert [f.queue_pkts for f in plan.faps] == [2, 8, 5]
    assert [f.target_snr_db for f in plan.faps] == [15.0, 27.0, 35.0]
    assert [f.mcs_index for f in plan.faps] == [2, 5, 7]


def test_reference_plan_loads_and_delays():
    plan = plan_snapshot(reference_snapshot(), CH, VENUE, CFG)
    rhos = [f.utilisation for f in plan.faps]
    assert rhos[0] == pytest.approx(0.8)
    assert rhos[1] == pytest.approx(125.0 / 133.0)
    assert rhos[2] == pytest.approx(150.0 / 166.0, abs=5e-7)
    assert all(f.delay_s < CFG.delay_threshold_s for f in plan.faps)
    assert plan.faps[2].delay_s == pytest.approx(0.3837e-3, abs=5e-8)


def test_reference_plan_position_feasible():
    plan = plan_snapshot(reference_snapshot(), CH, VENUE, CFG)
    assert all(m >= 0.0 for m in plan.margins_m)
    assert VENUE.contains(plan.fgw_position)
    for fs in reference_snapshot().faps:
        assert math.dist(plan.fgw_position, fs.position) >= VENUE.min_separation_m


def test_reference_plan_minimal_power():
    # one step less power must leave no admissible gateway position
    capped = replace(CH, max_tx_power_dbm=19.0)
    with pytest.raises(PlanningError):
        plan_snapshot(reference_snapshot(), capped, VENUE, CFG)


def test_reference_plan_runtime_under_one_second():
    import time

    t0 = time.time()
    plan_snapshot(reference_snapshot(), CH, VENUE, CFG)
    assert time.time() - t0 < 1.0


# --- basic behaviours -------------------------------------------------------

def test_single_easy_fap_gets_zero_power():
    snap = Snapshot(0.0, (FapState("f", (50.0, 50.0, 10.0), 10e6),))
    plan = plan_snapshot(snap, CH, VENUE, CFG)
    assert plan.tx_power_dbm == 0.0
    assert plan.faps[0].mcs_index == 0


def test_corner_faps_never_reachable():
    # Demands resolving to the top MCS shrink both radii to ~22 m at 30 dBm,
    # far short of the 141 m corner distance, at every power level.
    snap = Snapshot(
        0.0,
        (
            FapState("a", (0.0, 0.0, 10.0), 300e6),
            FapState("b", (100.0, 100.0, 10.0), 300e6),
        ),
    )
    with pytest.raises(PlacementInfeasibleError):
        plan_snapshot(snap, CH, VENUE, CFG)


def test_unservable_demand_raises():
    snap = Snapshot(0.0, (FapState("f", (50.0, 50.0, 10.0), 700e6),))
    with pytest.raises(InfeasibleDemandError):
        plan_snapshot(snap, CH, VENUE, CFG)


def test_aggregate_admission_rejects_oversubscription():
    # three links each fitting MCS 7 individually, but 480 > 0.8 * 585 Mbit/s
    snap = Snapshot(
        0.0,
        (
            FapState("a", (45.0, 50.0, 10.0), 160e6),
            FapState("b", (55.0, 50.0, 10.0), 160e6),
            FapState("c", (50.0, 45.0, 10.0), 160e6),
        ),
    )
    with pytest.raises(AggregateCapacityError):
        plan_snapshot(snap, CH, VENUE, CFG)


def test_delay_driven_mcs_escalation():
    # At the demand-matching MCS the deterministic-service delay is ~0.94 ms;
    # a 0.3 ms threshold forces one escalation, which then suffices.
    snap = Snapshot(0.0, (FapState("f", (50.0, 50.0, 10.0), 40e6),))
    tight = PlannerConfig(delay_threshold_s=0.3e-3)
    plan = plan_snapshot(snap, CH, VENUE, tight)
    assert plan.faps[0].mcs_index == 1
    assert plan.faps[0].delay_s < 0.3e-3


def test_impossible_delay_threshold_raises():
    snap = Snapshot(0.0, (FapState("f", (50.0, 50.0, 10.0), 40e6),))
    with pytest.raises(DelayInfeasibleError):
        plan_snapshot(snap, CH, VENUE, PlannerConfig(delay_threshold_s=1e-6))


def test_translation_equivariance():
    base = reference_snapshot()
    shift = (5.0, -3.0, 0.0)
    moved = Snapshot(
        0.0,
        tuple(
            FapState(
                f.fap_id,
                (
                    f.position[0] + shift[0],
                    f.position[1] + shift[1],
                    f.position[2] + shift[2],
                ),
                f.demand_bps,
            )
            for f in base.faps
        ),
    )
    a = plan_snapshot(base, CH, VENUE, CFG)
    b = plan_snapshot(moved, CH, VENUE, CFG)
    assert b.tx_power_dbm == a.tx_power_dbm
    assert [f.mcs_index for f in b.faps] == [f.mcs_index for f in a.faps]
    assert [f.queue_pkts for f in b.faps] == [f.queue_pkts for f in a.faps]
    for k in range(3):
        assert b.fgw_position[k] == pytest.approx(a.fgw_position[k] + shift[k], abs=1e-6)


def test_plans_are_deterministic():
    a = plan_snapshot(reference_snapshot(), CH, VENUE, CFG)
    b = plan_snapshot(reference_snapshot(), CH, VENUE, CFG)
    assert a == b


def test_snapshot_positions_validated():
    snap = Snapshot(0.0, (FapState("f", (150.0, 50.0, 10.0), 10e6),))
    with pytest.raises(ValueError):
        plan_snapshot(snap, CH, VENUE, CFG)


# --- series -----------------------------------------------------------------

def static_trace(duration_s: float = 20.0) -> ScenarioTrace:
    snap = reference_snapshot()
    faps = tuple(
        FapTrace(f.fap_id, ((0.0, *f.position),), DemandProfile(constant_bps=f.demand_bps))
        for f in snap.faps
    )
    return ScenarioTrace(
        venue=VENUE,
        channel=CH,
        faps=faps,
        duration_s=duration_s,
        planning_period_s=5.0,
        seed=0,
    )


def test_static_trace_plans_identical():
    series = plan_series(static_trace(), CFG)
    assert len(series.plans) == 5
    first = series.plans[0]
    for p in series.plans[1:]:
        assert p.tx_power_dbm == first.tx_power_dbm
        assert p.fgw_position == first.fgw_position
        assert [f.queue_pkts for f in p.faps] == [f.queue_pkts for f in first.faps]


def test_series_all_plans_pass_audit():
    trace = generate_rwm(n_faps=3, duration_s=70.0, seed=11)
    series = plan_series(trace, CFG)
    assert len(series.plans) == 15
    table = trace.mcs_table()
    for plan, snap in zip(series.plans, trace.snapshots()):
        report = check_formulation(plan, snap, CH, VENUE, CFG, table)
        assert report.passes, report.violations


def test_series_error_names_snapshot_time():
    # demand jumps beyond the ladder at t=10 s
    snap = reference_snapshot()
    faps = list(
        FapTrace(f.fap_id, ((0.0, *f.position),), DemandProfile(constant_bps=f.demand_bps))
        for f in snap.faps
    )
    faps[0] = FapTrace(
        faps[0].fap_id,
        faps[0].waypoints,
        DemandProfile(schedule=((0.0, 40e6), (10.0, 500e6))),
    )
    trace = ScenarioTrace(
        venue=VENUE,
        channel=CH,
        faps=tuple(faps),
        duration_s=20.0,
        planning_period_s=5.0,
        seed=0,
    )
    with pytest.raises(InfeasibleDemandError, match=r"t=10\.0"):
        plan_series(trace, CFG)


def test_series_zero_order_hold_lookup():
    series = plan_series(static_trace(), CFG)
    assert series.at(0.0) is series.plans[0]
    assert series.at(4.999) is series.plans[0]
    assert series.at(5.0) is series.plans[1]
    assert series.at(23.0) is series.plans[4]
    with pytest.raises(ValueError):
        series.at(-1.0)


# --- constraint audit -------------------------------------------------------

def test_audit_reports_all_checks_for_reference():
    plan = plan_snapshot(reference_snapshot(), CH, VENUE, CFG)
    report = check_formulation(plan, reference_snapshot(), CH, VENUE, CFG)
    assert report.passes
    names = {c.name for c in report.checks}
    assert "tx_power_range" in names
    assert "aggregate_capacity" in names
    assert "venue_bounds" in names
    for fap_id in ("fap1", "fap2", "fap3"):
        for prefix in (
            "link_capacity",
            "queue_size",
            "delay_bound",
            "link_exists",
            "min_separation",
        ):
            assert f"{prefix}:{fap_id}" in names
    assert report.objective_bps == pytest.approx(50e6 + 133e6 + 166e6)


def test_audit_flags_negative_queue():
    plan = plan_snapshot(reference_snapshot(), CH, VENUE, CFG)
    bad_fap = replace(plan.faps[0], queue_pkts=-1)
    bad = replace(plan, faps=(bad_fap,) + plan.faps[1:])
    report = check_formulation(bad, reference_snapshot(), CH, VENUE, CFG)
    assert "queue_size:fap1" in report.violations


def test_audit_flags_gateway_on_fap():
    plan = plan_snapshot(reference_snapshot(), CH, VENUE, CFG)
    bad = replace(plan, fgw_position=(25.0, 25.0, 10.0))
    report = check_formulation(bad, reference_snapshot(), CH, VENUE, CFG)
    assert "min_separation:fap3" in report.violations


def test_audit_flags_delay_breach():
    plan = plan_snapshot(reference_snapshot(), CH, VENUE, CFG)
    slow_fap = replace(plan.faps[1], delay_s=0.02)
    bad = replace(plan, faps=(plan.faps[0], slow_fap, plan.faps[2]))
    report = check_formulation(bad, reference_snapshot(), CH, VENUE, CFG)
    assert "delay_bound:fap2" in report.violations


def test_audit_flags_out_of_range_power():
    plan = plan_snapshot(reference_snapshot(), CH, VENUE, CFG)
    bad = replace(plan, tx_power_dbm=31.0)
    report = check_formulation(bad, reference_snapshot(), CH, VENUE, CFG)
    assert "tx_power_range" in report.violations


# --- export -----------------------------------------------------------------

def test_plan_export_round_trip():
    trace = generate_rwm(n_faps=3, duration_s=20.0, seed=11)
    series = plan_series(trace, CFG)
    doc = plan_series_to_json(series, trace.duration_s)
    assert doc["config_echo"]["sampling_period_s"] == 1.0
    assert len(doc["plans"]) == 20
    back = plan_series_from_json(doc)
    for t in (0.0, 0.5, 4.0, 7.3, 19.0):
        a = series.at(t)
        b = back.at(t)
        assert b.tx_power_dbm == a.tx_power_dbm
        assert b.fgw_position == pytest.approx(a.fgw_position)
        assert [f.queue_pkts for f in b.faps] == [f.queue_pkts for f in a.faps]
        assert [f.capacity_bps for f in b.faps] == pytest.approx(
            [f.capacity_bps for f in a.faps]
        )


def test_one_second_grid_is_zero_order_hold():
    trace = generate_rwm(n_faps=3, duration_s=20.0, seed=11)
    series = plan_series(trace, CFG)
    doc = plan_series_to_json(series, trace.duration_s)
    times = [p["t"] for p in doc["plans"]]
    assert times == [float(k) for k in range(20)]
    # entries between planning instants repeat the latest plan
    assert doc["plans"][6]["fgw"] == doc["plans"][5]["fgw"]
    assert doc["plans"][6]["p_tx_dbm"] == doc["plans"][5]["p_tx_dbm"]


def _random_demand_series(seed: int):
    rng = random.Random(seed)
    demands = [rng.uniform(10e6, 100e6) for _ in range(3)]
    trace = generate_rwm(n_faps=3, duration_s=12.0, seed=seed, demands_bps=demands)
    return trace, plan_series(trace, CFG)


def test_fap_plans_read_back_equal_at_every_second():
    for seed in (1, 2, 3, 4):
        trace, series = _random_demand_series(seed)
        doc = json.loads(json.dumps(plan_series_to_json(series, trace.duration_s)))
        back = plan_series_from_json(doc)
        for t in range(int(trace.duration_s)):
            assert back.at(t).faps == series.at(t).faps


def test_plan_file_without_demand_loads_rho_times_capacity():
    trace, series = _random_demand_series(1)
    doc = plan_series_to_json(series, trace.duration_s)
    for entry in doc["plans"]:
        for f in entry["faps"]:
            del f["demand_bps"]
    for plan in plan_series_from_json(doc).plans:
        for f in plan.faps:
            assert f.demand_bps == f.utilisation * f.capacity_bps


def test_plan_file_missing_key_is_named():
    trace, series = _random_demand_series(1)
    doc = plan_series_to_json(series, trace.duration_s)
    del doc["plans"][3]["faps"][0]["mcs"]
    with pytest.raises(ValueError, match=r"missing keys \['mcs'\]"):
        plan_series_from_json(doc)


@pytest.mark.parametrize("with_demand", [True, False], ids=["current", "without-demand"])
def test_plan_file_wrong_type_is_named(with_demand):
    trace, series = _random_demand_series(1)
    doc = plan_series_to_json(series, trace.duration_s)
    entry = doc["plans"][2]["faps"][1]
    if not with_demand:
        del entry["demand_bps"]
    entry["rho"] = "0.5"
    with pytest.raises(ValueError, match=r"FapPlan: rho must be float"):
        plan_series_from_json(doc)


GOLDEN_PLAN_SERIES_SHA256 = "2ce26dc2c87c0e965e4f8079b9a5814a4d1819b6e52813d42e85ba186f0fe000"


def test_golden_plan_series():
    """One SHA-256 over the plan series (or planning error) of 15 random traces."""
    out = []
    for seed in range(1, 6):
        for n_faps in (1, 3, 5):
            trace = generate_rwm(n_faps=n_faps, duration_s=30.0, seed=seed)
            try:
                out.append(plan_series(trace, CFG))
            except PlanningError as exc:
                out.append((type(exc).__name__, str(exc)))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == GOLDEN_PLAN_SERIES_SHA256
