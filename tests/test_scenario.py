"""Mobility traces, demand profiles and scenario file formats."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest

import gpqm.scenario
from gpqm import (
    ChannelParams,
    DemandProfile,
    FapTrace,
    McsEntry,
    MobilityParams,
    ScenarioTrace,
    Venue,
    generate_rwm,
    load_scenario,
    load_waypoints,
    reference_fair_share_bps,
    save_scenario,
    save_waypoints,
)
from gpqm.scenario import scenario_from_json, scenario_to_json


# --- demand profiles --------------------------------------------------------

def test_constant_demand():
    d = DemandProfile(constant_bps=40e6)
    assert d.at(0.0) == 40e6
    assert d.at(1e6) == 40e6


def test_schedule_demand_switches():
    d = DemandProfile(schedule=((0.0, 10e6), (35.0, 90e6)))
    assert d.at(0.0) == 10e6
    assert d.at(34.999) == 10e6
    assert d.at(35.0) == 90e6
    assert d.at(100.0) == 90e6
    late = DemandProfile(schedule=((5.0, 20e6), (10.0, 30e6)))
    assert late.at(0.0) == 20e6
    assert late.at(10.0) == 30e6
    same_time = DemandProfile(schedule=((0.0, 10e6), (5.0, 20e6), (5.0, 30e6)))
    assert same_time.at(4.999) == 10e6
    assert same_time.at(5.0) == 30e6


def test_demand_validation():
    with pytest.raises(ValueError):
        DemandProfile()
    with pytest.raises(ValueError):
        DemandProfile(constant_bps=-1.0)
    with pytest.raises(ValueError):
        DemandProfile(schedule=((10.0, 5e6), (0.0, 9e6)))
    with pytest.raises(ValueError):
        DemandProfile(schedule=((0.0, 0.0), (10.0, 9e6)))
    silent = DemandProfile(constant_bps=0.0)
    assert silent.at(3.0) == 0.0


# --- interpolation ----------------------------------------------------------

def make_leg_trace() -> FapTrace:
    return FapTrace(
        "f", ((0.0, 0.0, 0.0, 10.0), (10.0, 10.0, 0.0, 10.0)), DemandProfile(constant_bps=1e6)
    )


def test_position_at_waypoints_exact():
    tr = make_leg_trace()
    assert tr.position_at(0.0) == (0.0, 0.0, 10.0)
    assert tr.position_at(10.0) == (10.0, 0.0, 10.0)


def test_position_midleg_blend():
    tr = make_leg_trace()
    assert tr.position_at(5.0) == pytest.approx((5.0, 0.0, 10.0))
    assert tr.position_at(3.7)[0] == pytest.approx(3.7)


def test_position_holds_past_last_waypoint():
    tr = make_leg_trace()
    assert tr.position_at(25.0) == (10.0, 0.0, 10.0)


def test_constant_speed_leg_duration():
    # 10 m at exactly 1 m/s must take exactly 10 s
    trace = generate_rwm(
        n_faps=1,
        duration_s=30.0,
        seed=5,
        mobility=MobilityParams(speed_min_mps=1.0, speed_max_mps=1.0),
    )
    wps = trace.faps[0].waypoints
    for prev, cur in zip(wps, wps[1:]):
        dist = math.dist(prev[1:], cur[1:])
        assert cur[0] - prev[0] == pytest.approx(dist, rel=1e-9)


# --- generation -------------------------------------------------------------

def test_generation_deterministic():
    a = generate_rwm(n_faps=3, duration_s=70.0, seed=42)
    b = generate_rwm(n_faps=3, duration_s=70.0, seed=42)
    assert a == b


def test_generated_positions_stay_in_venue():
    trace = generate_rwm(n_faps=3, duration_s=70.0, seed=8)
    v = trace.venue
    for f in trace.faps:
        t = 0.0
        while t <= 70.0:
            x, y, z = f.position_at(t)
            assert -1e-9 <= x <= v.x_max_m + 1e-9
            assert -1e-9 <= y <= v.y_max_m + 1e-9
            assert v.min_altitude_m - 1e-9 <= z <= v.z_max_m + 1e-9
            t += 1.0


def test_generated_speeds_within_bounds():
    m = MobilityParams(speed_min_mps=0.5, speed_max_mps=3.0)
    trace = generate_rwm(n_faps=3, duration_s=120.0, seed=13, mobility=m)
    for f in trace.faps:
        for prev, cur in zip(f.waypoints, f.waypoints[1:]):
            dt = cur[0] - prev[0]
            speed = math.dist(prev[1:], cur[1:]) / dt
            assert m.speed_min_mps - 1e-9 <= speed <= m.speed_max_mps + 1e-9


def test_planar_mode_fixes_altitude():
    m = MobilityParams(planar_z_m=10.0)
    trace = generate_rwm(n_faps=2, duration_s=50.0, seed=3, mobility=m)
    for f in trace.faps:
        assert all(w[3] == 10.0 for w in f.waypoints)


def test_default_demand_fraction_cycle():
    trace = generate_rwm(n_faps=3, duration_s=10.0, seed=1)
    ref = reference_fair_share_bps(3)
    assert ref == 166e6
    demands = [f.demand.at(0.0) for f in trace.faps]
    assert demands == pytest.approx([0.25 * ref, 0.75 * ref, 0.90 * ref])


def test_snapshot_count_and_times():
    trace = generate_rwm(n_faps=3, duration_s=70.0, seed=2, planning_period_s=5.0)
    snaps = trace.snapshots()
    assert len(snaps) == 15
    assert [s.t_s for s in snaps] == [5.0 * k for k in range(15)]


def test_snapshot_out_of_range_rejected():
    trace = generate_rwm(n_faps=1, duration_s=30.0, seed=2)
    with pytest.raises(ValueError):
        trace.snapshot_at(-1.0)
    with pytest.raises(ValueError):
        trace.snapshot_at(30.5)


def test_schedule_visible_in_snapshots():
    base = generate_rwm(n_faps=1, duration_s=70.0, seed=4)
    fap = FapTrace(
        base.faps[0].fap_id,
        base.faps[0].waypoints,
        DemandProfile(schedule=((0.0, 10e6), (35.0, 90e6))),
    )
    trace = ScenarioTrace(
        venue=base.venue,
        channel=base.channel,
        faps=(fap,),
        duration_s=70.0,
        planning_period_s=5.0,
        seed=4,
    )
    snaps = trace.snapshots()
    assert snaps[6].faps[0].demand_bps == 10e6   # t=30
    assert snaps[7].faps[0].demand_bps == 90e6   # t=35


# --- file round-trips -------------------------------------------------------

def test_waypoint_file_round_trip(tmp_path):
    trace = generate_rwm(n_faps=3, duration_s=70.0, seed=21)
    path = tmp_path / "wp.txt"
    save_waypoints(trace, path)
    loaded = load_waypoints(path)
    for f in trace.faps:
        assert loaded[f.fap_id] == f.waypoints


def test_waypoint_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("fap0 0.0 1.0 2.0\n")
    with pytest.raises(ValueError):
        load_waypoints(path)
    path.write_text("fap0 0.0 1.0 2.0 zebra\n")
    with pytest.raises(ValueError):
        load_waypoints(path)


def test_scenario_json_round_trip(tmp_path):
    trace = generate_rwm(n_faps=3, duration_s=70.0, seed=33)
    path = tmp_path / "sc.json"
    save_scenario(trace, path)
    loaded = load_scenario(path)
    assert loaded.duration_s == trace.duration_s
    assert loaded.planning_period_s == trace.planning_period_s
    for orig, back in zip(trace.faps, loaded.faps):
        assert orig.fap_id == back.fap_id
        t = 0.0
        while t <= trace.duration_s:
            a = orig.position_at(t)
            b = back.position_at(t)
            assert math.dist(a, b) < 1e-6
            t += 1.0


def test_scenario_regenerates_waypoints_from_seed():
    trace = generate_rwm(n_faps=3, duration_s=70.0, seed=77)
    data = scenario_to_json(trace)
    for f in data["faps"]:
        del f["waypoints"]
    rebuilt = scenario_from_json(data)
    assert rebuilt == trace


def test_scenario_json_missing_venue_key_raises():
    trace = generate_rwm(n_faps=1, duration_s=10.0, seed=1)
    data = scenario_to_json(trace)
    del data["venue"]
    with pytest.raises(ValueError, match=r"missing keys \['venue'\]"):
        scenario_from_json(data)


def test_trace_validation():
    base = generate_rwm(n_faps=2, duration_s=10.0, seed=1)
    with pytest.raises(ValueError):
        ScenarioTrace(
            venue=base.venue,
            channel=base.channel,
            faps=(base.faps[0], base.faps[0]),
            duration_s=10.0,
            planning_period_s=5.0,
            seed=1,
        )
    with pytest.raises(ValueError):
        ScenarioTrace(
            venue=base.venue,
            channel=base.channel,
            faps=base.faps,
            duration_s=-1.0,
            planning_period_s=5.0,
            seed=1,
        )
    with pytest.raises(ValueError):
        MobilityParams(speed_min_mps=0.0)
    with pytest.raises(ValueError):
        MobilityParams(speed_min_mps=5.0, speed_max_mps=1.0)


_CONSTANT = DemandProfile(constant_bps=1e6)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Venue(x_max_m=math.nan),
        lambda: Venue(z_max_m=math.inf),
        lambda: Venue(min_separation_m=math.nan),
        lambda: ChannelParams(carrier_frequency_hz=math.inf),
        lambda: ChannelParams(noise_power_dbm=math.nan),
        lambda: ChannelParams(bandwidth_hz=math.nan),
        lambda: ChannelParams(max_tx_power_dbm=math.nan),
        lambda: ChannelParams(rician_k_db=math.nan),
        lambda: DemandProfile(constant_bps=math.nan),
        lambda: DemandProfile(constant_bps=math.inf),
        lambda: DemandProfile(schedule=((0.0, math.nan),)),
        lambda: DemandProfile(schedule=((math.nan, 1e6),)),
        lambda: MobilityParams(speed_max_mps=math.inf),
        lambda: MobilityParams(pause_s=math.nan),
        lambda: MobilityParams(planar_z_m=math.nan),
        lambda: FapTrace("f", ((0.0, math.nan, 1.0, 5.0),), _CONSTANT),
        lambda: FapTrace("f", ((0.0, 1.0, 1.0, 5.0), (math.inf, 2.0, 2.0, 5.0)), _CONSTANT),
        lambda: McsEntry(9, math.nan, 780e6, 312e6),
        lambda: McsEntry(9, math.inf, 780e6, 312e6),
        lambda: McsEntry(9, 41.2, math.nan, 312e6),
        lambda: McsEntry(9, 41.2, math.inf, 312e6),
        lambda: McsEntry(9, 41.2, -780e6, 312e6),
        lambda: McsEntry(9, 41.2, 780e6, math.nan),
        lambda: McsEntry(9, 41.2, 780e6, math.inf),
        lambda: McsEntry(9, 41.2, 780e6, -1.0),
        lambda: McsEntry(9, 41.2, 780e6, 0.0),
    ],
    ids=["venue-x-nan", "venue-z-inf", "venue-separation-nan", "carrier-inf", "noise-nan",
         "bandwidth-nan", "max-power-nan", "rician-k-nan", "demand-nan", "demand-inf",
         "schedule-rate-nan", "schedule-time-nan", "speed-inf", "pause-nan", "planar-z-nan",
         "waypoint-nan", "waypoint-time-inf", "mcs-snr-nan", "mcs-snr-inf", "mcs-rate-nan",
         "mcs-rate-inf", "mcs-rate-negative", "mcs-share-nan", "mcs-share-inf",
         "mcs-share-negative", "mcs-share-zero"],
)
def test_constructors_reject_nan_and_misplaced_infinity(make):
    with pytest.raises(ValueError):
        make()


def test_channel_params_accept_infinite_k_factor():
    assert ChannelParams(rician_k_db=math.inf).rician_k_db == math.inf


@pytest.mark.parametrize(
    "duration, period",
    [(math.nan, 5.0), (math.inf, 5.0), (10.0, math.nan), (10.0, math.inf)],
    ids=["duration-nan", "duration-inf", "period-nan", "period-inf"],
)
def test_trace_rejects_non_finite_duration_and_period(duration, period):
    base = generate_rwm(n_faps=2, duration_s=10.0, seed=1)
    with pytest.raises(ValueError):
        replace(base, duration_s=duration, planning_period_s=period)


def test_mcs_override_merging():
    from gpqm import McsEntry

    base = generate_rwm(n_faps=3, duration_s=10.0, seed=1)
    patched = ScenarioTrace(
        venue=base.venue,
        channel=base.channel,
        faps=base.faps,
        duration_s=base.duration_s,
        planning_period_s=base.planning_period_s,
        seed=base.seed,
        mcs_overrides=(McsEntry(5, 26.0, 468e6, 130e6),),
    )
    table = patched.mcs_table()
    assert table.entry(5).min_snr_db == 26.0
    assert table.entry(5).fair_share_bps == 130e6
    assert table.entry(7).fair_share_bps == 166e6


# --- field-driven codec -------------------------------------------------------

def _scheduled_planar_trace() -> ScenarioTrace:
    """Two planar FAPs, one on a demand schedule, with one MCS override."""
    base = generate_rwm(
        n_faps=2, duration_s=30.0, seed=4, mobility=MobilityParams(planar_z_m=8.0)
    )
    scheduled = replace(base.faps[1], demand=DemandProfile(schedule=((0.0, 50e6), (10.0, 80e6))))
    return replace(
        base,
        faps=(base.faps[0], scheduled),
        mcs_overrides=(McsEntry(5, 26.0, 468e6, 130e6),),
    )


def test_scenario_json_round_trip_is_exact():
    trace = _scheduled_planar_trace()
    assert scenario_from_json(scenario_to_json(trace)) == trace
    assert scenario_from_json(json.loads(json.dumps(scenario_to_json(trace)))) == trace


def test_supplied_waypoints_kept_when_another_fap_lacks_them():
    trace = generate_rwm(n_faps=2, duration_s=30.0, seed=5)
    data = scenario_to_json(trace)
    data["faps"][0]["waypoints"][0][1:] = [10.0, 10.0, 5.0]
    del data["faps"][1]["waypoints"]
    rebuilt = scenario_from_json(data)
    assert rebuilt.faps[0].waypoints[0] == (0.0, 10.0, 10.0, 5.0)
    assert rebuilt.faps[0].waypoints[1:] == trace.faps[0].waypoints[1:]
    # fap1 is drawn from the seed after fap0, as generate_rwm draws it
    assert rebuilt.faps[1].waypoints == trace.faps[1].waypoints


def test_file_with_every_path_draws_none(monkeypatch):
    # A draw at this speed would take practically forever; the file needs none.
    trace = generate_rwm(n_faps=2, duration_s=6.0, seed=6)
    data = scenario_to_json(trace)
    data["mobility"]["speed_max_mps"] = 1e308

    def no_draw(*args):
        raise AssertionError("drew a path the file already holds")

    monkeypatch.setattr(gpqm.scenario, "_random_waypoints", no_draw)
    rebuilt = scenario_from_json(data)
    assert rebuilt == replace(trace, mobility=MobilityParams(speed_max_mps=1e308))


@pytest.mark.parametrize(
    "section",
    [
        lambda d: d,
        lambda d: d["venue"],
        lambda d: d["channel"],
        lambda d: d["mobility"],
        lambda d: d["faps"][0],
    ],
    ids=["top", "venue", "channel", "mobility", "fap"],
)
def test_scenario_json_unknown_key_is_named(section):
    data = scenario_to_json(generate_rwm(n_faps=1, duration_s=10.0, seed=1))
    section(data)["x_max"] = 1.0
    with pytest.raises(ValueError, match=r"unknown keys \['x_max'\]"):
        scenario_from_json(data)


def test_scenario_json_missing_override_key_is_named():
    data = scenario_to_json(_scheduled_planar_trace())
    del data["mcs_overrides"][0]["phy_rate_bps"]
    with pytest.raises(ValueError, match=r"missing keys \['phy_rate_bps'\]"):
        scenario_from_json(data)


@pytest.mark.parametrize(
    "section, key, value, named",
    [
        ("venue", "x_max_m", "100", r"Venue: x_max_m must be float"),
        ("channel", "noise_power_dbm", "-85", r"ChannelParams: noise_power_dbm must be float"),
        ("channel", "bandwidth_hz", True, r"ChannelParams: bandwidth_hz must be float"),
        ("mobility", "planar_z_m", "5", r"MobilityParams: planar_z_m must be float \| None"),
        ("mcs_overrides", "index", 5.0, r"McsEntry: index must be int"),
    ],
)
def test_scenario_json_wrong_type_is_named(section, key, value, named):
    data = scenario_to_json(_scheduled_planar_trace())
    target = data[section][0] if section == "mcs_overrides" else data[section]
    target[key] = value
    with pytest.raises(ValueError, match=named):
        scenario_from_json(data)


def test_scenario_json_accepts_int_for_float_and_null_for_optional():
    data = scenario_to_json(_scheduled_planar_trace())
    data["venue"]["x_max_m"] = 100
    data["mobility"]["planar_z_m"] = None
    trace = scenario_from_json(data)
    assert trace.venue.x_max_m == 100.0
    assert trace.mobility.planar_z_m is None
