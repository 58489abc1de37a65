"""Each benchmark output check passes real gpqm output and fails a corrupted copy;
the per-call timing keeps working when an operation raises part-way."""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gpqm  # noqa: E402
import gpqm.cli  # noqa: E402

import bench_checks as chk  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads as wl  # noqa: E402

CH = gpqm.ChannelParams()
VENUE = gpqm.Venue()
CH_D, VENUE_D = wl.channel_dict(CH), wl.venue_dict(VENUE)
SNAP = gpqm.Snapshot(0.0, (
    gpqm.FapState("fap0", (35.0, 40.0, 10.0), 60e6),
    gpqm.FapState("fap1", (50.0, 62.0, 10.0), 90e6),
    gpqm.FapState("fap2", (64.0, 45.0, 10.0), 120e6),
))


@pytest.fixture(scope="module")
def plan_dict():
    plan = gpqm.plan_snapshot(SNAP, CH, VENUE, gpqm.PlannerConfig())
    return chk.plan_to_dict(plan)


def _positions():
    return {f.fap_id: f.position for f in SNAP.faps}


def test_audit_plan_passes_and_catches_corruption(plan_dict):
    assert chk.audit_plan(plan_dict, _positions(), CH_D, VENUE_D, 0.010) == []
    corrupt = [
        lambda p: p.update(fgw=[120.0, 50.0, 10.0]),
        lambda p: p.update(fgw=list(SNAP.faps[0].position)),
        lambda p: p["faps"][0].update(snr_db=p["faps"][0]["snr_db"] + 10.0),
        lambda p: p["faps"][1].update(queue_pkts=p["faps"][1]["queue_pkts"] + 1),
        lambda p: p["faps"][2].update(rho=0.9999),
        lambda p: p.update(p_tx_dbm=p["p_tx_dbm"] - 3.0),
    ]
    for change in corrupt:
        bad = json.loads(json.dumps(plan_dict))
        change(bad)
        assert chk.audit_plan(bad, _positions(), CH_D, VENUE_D, 0.010), change


def test_audit_plan_file_uses_snapshot_times():
    trace = gpqm.generate_rwm(3, 12.0, seed=6)
    series = gpqm.plan_series(trace, gpqm.PlannerConfig(update_period_s=trace.planning_period_s))
    data = gpqm.planner.plan_series_to_json(series, trace.duration_s)
    scen = gpqm.scenario.scenario_to_json(trace)
    assert chk.audit_plan_file(data, scen, 0.010) == []
    data["plans"][7]["fgw"] = [0.0, 0.0, 19.0]
    assert chk.audit_plan_file(data, scen, 0.010)


@pytest.fixture(scope="module")
def small_sim():
    trace = gpqm.generate_rwm(3, 3.0, seed=6)
    config = gpqm.SimConfig(bootstrap_s=1.0, measure_s=1.0, placement="venue-center",
                            queue="droptail")
    return gpqm.simulate(trace, config)


def test_sim_metrics_identities(small_sim):
    floor = wl.min_transmission_s(3)
    assert chk.check_sim_metrics(small_sim, floor) == []
    m = small_sim
    for bad in (
        replace(m, generated=m.generated + 1),
        replace(m, delay_samples_s=m.delay_samples_s[1:]),
        replace(m, throughput_samples_bps=(m.throughput_samples_bps[0] + 11200.0,)),
        replace(m, delay_samples_s=(floor / 2,) + m.delay_samples_s[1:]),
    ):
        assert chk.check_sim_metrics(bad, floor)


def test_oracle_checks(small_sim):
    mu = wl.ORACLE_MU_PPS
    exact = chk.md1_delay(0.5, mu)
    good = replace(small_sim, delay_samples_s=(exact * 0.99, exact * 1.01))
    assert chk.check_md1_oracle(good, 0.5, mu) == []
    assert chk.check_md1_oracle(replace(good, delay_samples_s=(exact * 1.1,)), 0.5, mu)
    loss = chk.mm11_loss(0.7)
    good = replace(small_sim, window_delivered=round(1000 * (1 - loss)),
                   window_dropped=round(1000 * loss))
    assert chk.check_mm11_oracle(good, 0.7) == []
    assert chk.check_mm11_oracle(replace(good, window_dropped=300), 0.7)


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("pipeline")
    scen, plan = str(d / "s.json"), str(d / "p.json")
    window = ["--bootstrap", "1", "--measure", "1", "--seed", "3"]
    for argv in (
        ["generate", "--faps", "3", "--duration", "6", "--seed", "6", "--out", scen],
        ["plan", "--scenario", scen, "--out", plan],
        ["simulate", "--scenario", scen, "--plan", plan, "--runs", "2", *window,
         "--out", str(d / "planned")],
        ["simulate", "--scenario", scen, "--policy", "venue-center", "--packets-csv",
         *window, "--out", str(d / "base")],
        ["analyze", "cdf", "--metrics", str(d / "planned"), "--metrics", str(d / "base"),
         "--out", str(d / "cdf.json")],
    ):
        assert gpqm.cli.main(argv) == 0
    return d


def _offered(d: Path) -> float:
    scen = json.loads((d / "s.json").read_text())
    return sum(f["demand_bps"] for f in scen["faps"]) / chk.PACKET_BITS


def test_run_dir_checks(pipeline_dir):
    d = pipeline_dir
    run = d / "base" / "seed3"
    assert chk.check_run_dir(run, 1.0, _offered(d), 303) == []
    assert chk.check_run_dir(run, 1.0, _offered(d) * 1.5, 303)
    assert chk.check_packets_csv(run, 1.0, 1.0) == []
    lines = (run / "delays.csv").read_text().splitlines()
    (run / "delays.csv").write_text("\n".join(lines[:-1]) + "\n")
    try:
        assert chk.check_run_dir(run, 1.0, _offered(d), 303)
        assert chk.check_packets_csv(run, 1.0, 1.0)
    finally:
        (run / "delays.csv").write_text("\n".join(lines) + "\n")


def test_pooled_and_cdf_checks(pipeline_dir):
    d = pipeline_dir
    seeds = [d / "planned" / "seed3", d / "planned" / "seed4"]
    assert chk.check_pooled(d / "planned" / "pooled", seeds) == []
    assert chk.check_pooled(d / "planned" / "pooled", seeds[::-1])
    cdf = json.loads((d / "cdf.json").read_text())
    inputs = [d / "planned" / "pooled", d / "base" / "seed3"]
    assert chk.check_cdf(cdf, inputs, 90.0) == []
    cdf["delay"]["p_value_s"] *= 1.001
    assert chk.check_cdf(cdf, inputs, 90.0)


@pytest.fixture(scope="module")
def single_fap():
    fap = gpqm.FapState("f0", (20.0, 30.0, 10.0), 100e6)
    problem = gpqm.OptProblem(snapshot=gpqm.Snapshot(0.0, (fap,)), channel=CH, venue=VENUE,
                              capacity_model="shannon")
    res = gpqm.solve_pso(problem, seed=11, params=gpqm.PsoParams(swarm=20, iterations=150))
    assert res.feasible
    return fap, res


def test_solver_result_recomputed(single_fap):
    fap, res = single_fap
    faps = [(fap.position, fap.demand_bps)]
    assert chk.check_solver_result(res, faps, CH_D, VENUE_D, "shannon", 0.010, math.inf) == []
    x, y, z, p = res.x
    for bad in (
        replace(res, x=(x, y, z, p - 3.0)),
        replace(res, x=(-1.0, y, z, p)),
        replace(res, x=(*fap.position, p)),
        replace(res, objective_bps=res.objective_bps * 1.01),
    ):
        assert chk.check_solver_result(bad, faps, CH_D, VENUE_D, "shannon", 0.010, math.inf)
    assert chk.check_solver_result(res, faps, CH_D, VENUE_D, "shannon", 0.010, 1e6)


def test_fitness_history_checks(single_fap):
    _, res = single_fap
    assert chk.check_fitness_history(res.fitness_history, 150) == []
    assert chk.check_fitness_history(res.fitness_history, 149)
    h = list(res.fitness_history)
    h[5] = h[4] + 1.0
    assert chk.check_fitness_history(h, 150)


def test_single_fap_optimum_check(single_fap):
    fap, res = single_fap
    args = (fap.position, fap.demand_bps, CH_D, VENUE_D, 0.010, 0.05)
    grid = chk.single_fap_grid_optimum(fap.position, fap.demand_bps, CH_D, VENUE_D, 0.010)
    near = replace(res, objective_bps=grid * 1.01)
    assert [m for m in chk.check_single_fap_optimum(near, *args) if "grid" in m] == []
    far = replace(res, objective_bps=grid * 1.2)
    assert [m for m in chk.check_single_fap_optimum(far, *args) if "grid" in m]
    assert chk.check_single_fap_optimum(replace(res, feasible=False), *args)


def test_pair_analysis_checks():
    power = 20.0
    centers = [(40.0, 50.0, 10.0), (62.0, 50.0, 10.0)]
    radii = [gpqm.max_distance_m(CH, power, snr) for snr in (31.0, 31.5)]
    spheres = [gpqm.SphereConstraint(c, r) for c, r in zip(centers, radii)]

    def capacity(d):
        return gpqm.shannon_capacity_bps(CH.bandwidth_hz, gpqm.friis_snr_db(CH, power, d))

    res = gpqm.sphere_pair_analysis(spheres[0], spheres[1], VENUE, capacity)
    base = chk.friis_snr_db(CH_D, power, 1.0)

    def total(d1, d2):
        return sum(chk.capacity_bps("shannon", CH.bandwidth_hz, base - 20.0 * np.log10(d))
                   for d in (d1, d2))

    assert chk.check_pair_analysis(res, centers, radii, VENUE_D, total, 1e-3) == []
    for bad in (
        replace(res, overlap="full"),
        replace(res, min_point=(0.0, 0.0, 1.0)),
        replace(res, min_value_bps=res.min_value_bps * 1.01),
        replace(res, max_value_bps=res.max_value_bps * 0.9),
    ):
        assert chk.check_pair_analysis(bad, centers, radii, VENUE_D, total, 1e-3)


def test_recorder_skips_a_round_that_made_fewer_calls():
    rec = bench_trace.Recorder()

    def op(fail):
        rec.time("inner", lambda: None)
        if fail:
            raise RuntimeError("part-way")
        rec.time("inner", lambda: None)

    for fail in (False, True, False):
        with pytest.raises(RuntimeError) if fail else contextlib.nullcontext():
            rec.time("op", op, fail)
        rec.end_round()
    rec.summarize()
    assert [len(rec.typical[n]) for n in ("setup:op", "setup:inner")] == [1, 2]


def test_recorder_scales_times_to_nominal_speed(monkeypatch):
    # a machine at half speed: the reference loop takes twice its nominal time
    monkeypatch.setattr(bench_trace.bench_speed, "unit_s",
                        lambda units: 2.0 * bench_trace.bench_speed.UNIT_S)
    clock = iter([0.0, 1.0, 5.0, 9.0])
    monkeypatch.setattr(bench_trace, "perf", lambda: next(clock))
    rec = bench_trace.Recorder()
    rec.time("op", lambda: None)  # 1 s
    rec.time("op", lambda: None)  # 4 s
    rec.end_round()
    rec.summarize()
    assert rec.typical["setup:op"] == [0.5, 2.0]
    assert rec.speed_readings == [0.5, 0.5]
