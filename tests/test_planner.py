"""Planner behaviour: golden plan, minimality, escalation, constraint audit."""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpqm.planner
from gpqm import (
    AggregateCapacityError,
    ChannelParams,
    DelayInfeasibleError,
    InfeasibleDemandError,
    PlacementInfeasibleError,
    PlannerConfig,
    PlanningError,
    SphereConstraint,
    Venue,
    check_formulation,
    compute_fgw_pos,
    default_mcs_table,
    feasibility_margin,
    generate_rwm,
    max_distance_m,
    plan_series,
    plan_series_from_json,
    plan_series_to_json,
    plan_snapshot,
)
from gpqm.channel import link_budget_constant_db, log10_max_distance
from gpqm.scenario import DemandProfile, FapState, FapTrace, ScenarioTrace, Snapshot

import sweep_reference

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


def test_deepest_point_reaches_the_lowest_feasible_power():
    # A compass search stalled short of the intersection at 22 dBm in this
    # snapshot and planned it at 23 dBm.
    trace = generate_rwm(n_faps=5, duration_s=100.0, seed=1005)
    snap = next(s for s in trace.snapshots() if s.t_s == 15.0)
    plan = plan_snapshot(snap, trace.channel, trace.venue, CFG, trace.mcs_table())
    assert plan.tx_power_dbm == 22.0
    spheres = [
        SphereConstraint(fap.position, max_distance_m(trace.channel, 22.0, f.target_snr_db))
        for fap, f in zip(snap.faps, plan.faps)
    ]
    # Checked without the solver: the plan's point and a fixed witness are
    # admissible at 22 dBm.
    for witness in (plan.fgw_position, (77.741, 40.788, 14.551)):
        assert min(feasibility_margin(witness, spheres)) >= 0.0
        assert trace.venue.contains(witness)
        assert all(
            math.dist(witness, fap.position) >= trace.venue.min_separation_m for fap in snap.faps
        )


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


def test_power_step_below_a_hundredth_of_a_db_is_rejected():
    # A 1e-6 dB step would take tens of millions of probes to reach a feasible power.
    with pytest.raises(ValueError, match="at least 0.01 dB"):
        PlannerConfig(power_step_db=1e-6)
    assert PlannerConfig(power_step_db=0.01).power_step_db == 0.01


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


GOLDEN_PLAN_SERIES_SHA256 = "599dcca0baabceb9c0eb6b009ca2cd98e90a54821dbe9d3b838cdeec2b97022a"


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


# --- the sweep against a rung-by-rung reference ------------------------------


def outcome(plan, snap, channel, venue, config, table=None) -> str:
    """repr of the plan, or the type and message of the error, so -0.0 and
    0.0 differ."""
    try:
        return repr(plan(snap, channel, venue, config, table))
    except (PlanningError, ValueError) as exc:
        return repr((type(exc), str(exc)))


def assert_sweep_matches_reference(snap, channel, venue, config, table=None):
    args = (snap, channel, venue, config, table)
    assert outcome(plan_snapshot, *args) == outcome(sweep_reference.plan_snapshot, *args)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    st.builds(
        generate_rwm,
        n_faps=st.integers(1, 5),
        duration_s=st.floats(1.0, 40.0),
        seed=st.integers(0, 2**31 - 1),
        demand_fractions=st.lists(st.floats(0.05, 1.2), min_size=1, max_size=4).map(tuple),
    ),
    st.floats(0.01, 5.0),
    st.floats(0.0, 60.0),
)
def test_sweep_matches_the_rung_by_rung_reference(trace, step, ceiling):
    channel = replace(trace.channel, max_tx_power_dbm=ceiling)
    config = PlannerConfig(power_step_db=step)
    for snap in trace.snapshots():
        assert_sweep_matches_reference(snap, channel, trace.venue, config, trace.mcs_table())


@pytest.mark.parametrize("seed, index", sweep_reference.FENCED_SNAPSHOTS)
def test_sweep_matches_the_reference_on_fenced_snapshots(seed, index):
    trace, snap = sweep_reference.trace_snapshot(seed, index)
    for config in (CFG, PlannerConfig(power_step_db=0.37)):
        assert_sweep_matches_reference(snap, trace.channel, trace.venue, config, trace.mcs_table())


def exact_metre_channel() -> ChannelParams:
    """A channel whose 15 dB range at 0 dBm is exactly 1 m."""
    a = link_budget_constant_db(CH) + CH.noise_power_dbm
    channel = replace(CH, noise_power_dbm=a - 15.0)
    assert max_distance_m(channel, 0.0, 15.0) == 1.0
    return channel


def test_range_equal_to_the_protection_distance_is_tried():
    # The MCS-2 FAP's range equals the 1 m fence at 0 dBm; the gateway sits
    # exactly on both, one compass step away.
    snap = Snapshot(0.0, (FapState("f", (50.0, 50.0, 10.0), 112e6),))
    venue = Venue(min_separation_m=1.0)
    plan = plan_snapshot(snap, exact_metre_channel(), venue, CFG)
    assert (plan.tx_power_dbm, plan.faps[0].target_snr_db) == (0.0, 15.0)
    assert plan.fgw_position == (49.0, 50.0, 10.0)
    assert_sweep_matches_reference(snap, exact_metre_channel(), venue, CFG)


def test_underflowing_radius_raises_as_the_reference():
    trace, snap = sweep_reference.trace_snapshot(1000, 0)
    channel = replace(trace.channel, noise_power_dbm=7000.0)
    with pytest.raises(ValueError) as caught:
        plan_snapshot(snap, channel, trace.venue, CFG, trace.mcs_table())
    assert str(caught.value) == "sphere radius must be positive and finite, not 0.0"
    assert type(caught.value) is ValueError
    assert_sweep_matches_reference(snap, channel, trace.venue, CFG, trace.mcs_table())


HUGE_CEILING = """
from dataclasses import replace
from gpqm import PlannerConfig, generate_rwm, plan_snapshot
trace = generate_rwm(3, 100.0, seed=1000)
channel = replace(trace.channel, max_tx_power_dbm=1e9)
print(repr(plan_snapshot(trace.snapshots()[0], channel, trace.venue, PlannerConfig(),
                         trace.mcs_table())))
"""


def test_huge_power_ceiling_plans_without_building_the_ladder():
    # A ladder of 10^9 rungs held as a list would need some 32 GB; under a
    # 1 GiB address-space limit the child fails with MemoryError instead.
    def limit() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(sweep_reference.__file__).parents[1] / "src")
    child = subprocess.run(
        [sys.executable, "-c", HUGE_CEILING], capture_output=True, text=True, timeout=60,
        preexec_fn=limit, env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
    )
    assert child.returncode == 0, child.stderr
    trace, snap = sweep_reference.trace_snapshot(1000, 0)
    expected = plan_snapshot(snap, trace.channel, trace.venue, CFG, trace.mcs_table())
    assert expected.tx_power_dbm == 23.0
    assert child.stdout.strip() == repr(expected)


# --- the power floor ---------------------------------------------------------


# One FAP at the venue centre whose demand takes MCS 6 (29.8 dB) when alone.
MCS6_SNAPSHOT = Snapshot(0.0, (FapState("f", (50.0, 50.0, 10.0), 400e6),))


def fence_rung_config() -> PlannerConfig:
    """A power step whose first rung is the lowest at which an MCS-6 FAP's
    range reaches the 3 m fence on the default channel, while the planner's
    power floor without its 1e-9 dB margin lies above that rung. Found by a
    scan over power steps."""
    config = PlannerConfig(power_step_db=1.187383348561081)
    fence, rung = VENUE.min_separation_m, config.power_step_db
    assert max_distance_m(CH, 0.0, 29.8) < fence <= max_distance_m(CH, rung, 29.8)
    assert 20.0 * (math.log10(fence) - log10_max_distance(CH, 0.0, 29.8)) > rung
    return config


def test_rung_where_the_range_just_reaches_the_fence_is_tried():
    plan = plan_snapshot(MCS6_SNAPSHOT, CH, VENUE, fence_rung_config())
    assert (plan.tx_power_dbm, plan.faps[0].target_snr_db) == (1.187383348561081, 29.8)
    assert math.dist(plan.fgw_position, (50.0, 50.0, 10.0)) == VENUE.min_separation_m
    assert_sweep_matches_reference(MCS6_SNAPSHOT, CH, VENUE, fence_rung_config())


@pytest.mark.parametrize(
    "make, noise_dbm",
    [
        (lambda: sweep_reference.trace_snapshot(1000, 0), 6200.0),
        (lambda: (generate_rwm(1, 1.0, seed=0), MCS6_SNAPSHOT), 6263.812616631439),
    ],
    ids=["distance-over-range-overflows", "range-loses-digits"],
)
def test_subnormal_bottom_ranges_plan_as_the_reference(make, noise_dbm):
    # The bottom-rung ranges are subnormal. In the first case 3 m over such a
    # range overflows; in the second, found by a scan over the noise, the
    # range keeps too few digits to place the floor within 1e-9 dB of the
    # power the reference plans at.
    trace, snap = make()
    channel = replace(trace.channel, noise_power_dbm=noise_dbm, max_tx_power_dbm=7000.0)
    config = PlannerConfig(power_step_db=50.0)
    plan = plan_snapshot(snap, channel, trace.venue, config, trace.mcs_table())
    assert 0.0 < max_distance_m(channel, 0.0, plan.faps[0].target_snr_db) < sys.float_info.min
    assert plan.tx_power_dbm == 6350.0
    assert_sweep_matches_reference(snap, channel, trace.venue, config, trace.mcs_table())


def test_fenced_snapshots_place_the_gateway_at_most_twice(monkeypatch):
    calls = []

    def counted(spheres, venue):
        calls.append(spheres)
        return compute_fgw_pos(spheres, venue)

    monkeypatch.setattr(gpqm.planner, "compute_fgw_pos", counted)
    for seed, index in sweep_reference.FENCED_SNAPSHOTS:
        trace, snap = sweep_reference.trace_snapshot(seed, index)
        for config in (CFG, PlannerConfig(power_step_db=0.37)):
            calls.clear()
            plan_snapshot(snap, trace.channel, trace.venue, config, trace.mcs_table())
            assert 1 <= len(calls) <= 2, (seed, index, config)
