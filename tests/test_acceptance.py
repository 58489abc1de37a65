"""Acceptance gates, one test per criterion.

Each test is a single pass/fail line in the verbose report and checks its
criterion at the stated tolerance, including the runtime budget. Fixtures
are seeded and deterministic; no tolerance below is looser than stated.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from gpqm import (
    ChannelParams,
    DemandProfile,
    FapState,
    FapTrace,
    OptProblem,
    PlannerConfig,
    PlanningError,
    PsoParams,
    ScenarioTrace,
    SimConfig,
    Snapshot,
    SphereConstraint,
    Venue,
    check_formulation,
    default_mcs_table,
    feasibility_margin,
    fit_rate_model,
    friis_snr_db,
    max_distance_m,
    md1_delay_s,
    mm1q_plr,
    plan_series,
    plan_snapshot,
    plr_curve,
    reference_fair_share_bps,
    simulate,
    solve_pso,
)
from gpqm.queueing import DEFAULT_PACKET_SIZE_BYTES
from test_solver import shannon_grid_optimum

CH = ChannelParams()
VENUE = Venue()


def test_ac1_reference_plan_golden_values():
    t0 = time.monotonic()
    snapshot = Snapshot(
        0.0,
        (
            FapState("fap1", (50.0, 75.0, 10.0), 40e6),
            FapState("fap2", (75.0, 25.0, 10.0), 125e6),
            FapState("fap3", (25.0, 25.0, 10.0), 150e6),
        ),
    )
    plan = plan_snapshot(snapshot, CH, VENUE, PlannerConfig())
    assert plan.tx_power_dbm == 20.0

    spheres = [
        SphereConstraint(f.position, r)
        for f, r in zip(snapshot.faps, (143.8, 36.2, 14.38))
    ]
    margins = feasibility_margin((39.0, 21.9, 9.2), spheres)
    assert all(m >= 0.0 for m in margins)

    by_id = {f.fap_id: f for f in plan.faps}
    assert by_id["fap3"].queue_pkts == 5
    assert by_id["fap3"].utilisation == pytest.approx(0.9036, abs=5e-4)
    assert time.monotonic() - t0 < 1.0


def test_ac2_plr_anchor_and_curve_dips():
    assert mm1q_plr(0.7, 1) == pytest.approx(0.4118, abs=5e-4)
    points = {rho: (q, plr) for rho, q, plr in plr_curve([0.8, 0.9])}
    q8, plr8 = points[0.8]
    q9, plr9 = points[0.9]
    assert q8 == 2 and plr8 == pytest.approx(0.2623, abs=5e-4)
    assert q9 == 4 and plr9 == pytest.approx(0.1602, abs=5e-4)
    # Dips: lower than the curve immediately before each queue bump.
    before8 = plr_curve([0.79])[0][2]
    before9 = plr_curve([0.88])[0][2]
    assert plr8 < before8
    assert plr9 < before9


def _static_single_fap_trace(demand_bps: float, duration_s: float) -> ScenarioTrace:
    fap = FapTrace("s0", ((0.0, 50.0, 50.0, 10.0),), DemandProfile(constant_bps=demand_bps))
    return ScenarioTrace(
        venue=VENUE, channel=CH, faps=(fap,), duration_s=duration_s,
        planning_period_s=5.0, seed=0,
    )


def _mm1q_blocking_oracle(rho: float, q: int) -> float:
    weights = [rho ** n for n in range(q + 1)]
    return weights[-1] / math.fsum(weights)


def test_ac3_simulator_matches_queueing_oracles():
    t0 = time.monotonic()
    mu_pps = (0.8 * 526.5e6) / (8.0 * DEFAULT_PACKET_SIZE_BYTES)
    base = dict(
        bootstrap_s=2.0, seed=7, placement="fixed", fixed_position=(50.0, 70.0, 10.0),
        queue="droptail", fading=False,
    )

    md1 = simulate(
        _static_single_fap_trace(0.5 * mu_pps * 11200.0, 12.0),
        SimConfig(measure_s=10.0, queue_size=100_000, **base),
    )
    assert md1.window_delivered >= 100_000
    expected = md1_delay_s(0.5, mu_pps)
    assert abs(statistics.fmean(md1.delay_samples_s) - expected) / expected < 0.05

    mm11 = simulate(
        _static_single_fap_trace(0.7 * mu_pps * 11200.0, 22.0),
        SimConfig(measure_s=20.0, queue_size=1, service_mode="exponential", **base),
    )
    assert mm11.plr == pytest.approx(mm1q_plr(0.7, 1), abs=0.02)

    for q in range(1, 11):
        for rho in (0.05, 0.2, 0.5, 0.7, 0.9, 0.95, 1.5, 2.0):
            assert abs(mm1q_plr(rho, q) - _mm1q_blocking_oracle(rho, q)) <= 1e-12
    assert time.monotonic() - t0 < 120.0


def _formation_scenario(seed: int) -> ScenarioTrace:
    """Congested dynamic fixture: three FAPs orbit a drifting center.

    Each FAP holds 31-35 m from the formation center, so the averaged
    position at the 20 dBm default only reaches the 133 Mbit/s share
    against 149.4 Mbit/s of offered load, while a replanned gateway can
    still buy the top rate with more transmit power.
    """
    rng = random.Random(seed)
    demand = 0.9 * reference_fair_share_bps(3)
    duration = 56.0
    c_pts = [(50.0, 50.0)] + [
        (rng.uniform(42.0, 58.0), rng.uniform(42.0, 58.0)) for _ in range(2)
    ]

    def center(t: float) -> tuple[float, float]:
        if t <= 28.0:
            a, b, u = c_pts[0], c_pts[1], t / 28.0
        else:
            a, b, u = c_pts[1], c_pts[2], (t - 28.0) / 28.0
        return (a[0] + (b[0] - a[0]) * u, a[1] + (b[1] - a[1]) * u)

    omega = rng.choice((-1.0, 1.0)) * rng.uniform(2 * math.pi / 80, 2 * math.pi / 40)
    faps = []
    for k in range(3):
        radius = rng.uniform(31.0, 35.0)
        phase = 2 * math.pi * k / 3 + rng.uniform(-0.2, 0.2)
        wps = []
        for t in range(int(duration) + 1):
            cx, cy = center(float(t))
            wps.append(
                (float(t), cx + radius * math.cos(omega * t + phase),
                 cy + radius * math.sin(omega * t + phase), 10.0)
            )
        faps.append(FapTrace(f"fap{k}", tuple(wps), DemandProfile(constant_bps=demand)))
    return ScenarioTrace(
        venue=VENUE, channel=CH, faps=tuple(faps), duration_s=duration,
        planning_period_s=5.0, seed=seed,
    )


@pytest.mark.slow
def test_ac4_beats_static_baseline_on_congested_scenarios():
    t0 = time.monotonic()
    delay_wins = 0
    for seed in (1, 2, 3, 4, 5):
        trace = _formation_scenario(seed)
        series = plan_series(trace, PlannerConfig())
        gpqm = simulate(
            trace,
            SimConfig(bootstrap_s=10.0, measure_s=45.0, seed=1,
                      placement="gpqm", queue="scheduled"),
            plan=series,
        )
        base = simulate(
            trace,
            SimConfig(bootstrap_s=10.0, measure_s=45.0, seed=1,
                      placement="centroid", queue="droptail", queue_size=100),
        )
        gpqm_delay, gpqm_thr = gpqm.percentiles()
        base_delay, base_thr = base.percentiles()
        if gpqm_delay < base_delay:
            delay_wins += 1
        assert gpqm_thr >= 0.98 * base_thr
    assert delay_wins >= 4
    assert time.monotonic() - t0 < 300.0


def _feasible_snapshot(i: int) -> Snapshot:
    """Constructed-feasible instance: FAPs clustered inside a shared sphere.

    Offsets stay within 0.45 of the target mode's full-power radius, so a
    one-step rate escalation for the delay bound still leaves the anchor
    admissible; demand fractions below 0.85 keep the aggregate inside the
    usable channel for every contender count.
    """
    n = (3, 6, 12)[i % 3]
    rng = random.Random(5000 + i)
    mcs = rng.randrange(0, 10)
    table = default_mcs_table(n, CH.mac_efficiency)
    entry = table.entry(mcs)
    radius = max_distance_m(CH, CH.max_tx_power_dbm, entry.min_snr_db)
    reach = min(0.45 * radius, 28.0)
    anchor = (rng.uniform(30.0, 70.0), rng.uniform(30.0, 70.0), rng.uniform(6.0, 12.0))
    faps = []
    for k in range(n):
        norm = rng.uniform(min(4.0, reach / 2.0), reach)
        theta = rng.uniform(0.0, 2 * math.pi)
        u = rng.uniform(-0.2, 0.2)
        planar = norm * math.sqrt(1 - u * u)
        pos = (
            anchor[0] + planar * math.cos(theta),
            anchor[1] + planar * math.sin(theta),
            min(18.0, max(2.0, anchor[2] + norm * u)),
        )
        demand = rng.uniform(0.3, 0.85) * entry.fair_share_bps
        faps.append(FapState(f"fap{k}", pos, demand))
    return Snapshot(0.0, tuple(faps))


def test_ac5_planner_invariants_on_random_instances():
    t0 = time.monotonic()
    config = PlannerConfig()
    for i in range(100):
        snapshot = _feasible_snapshot(i)
        plan = plan_snapshot(snapshot, CH, VENUE, config)
        audit = check_formulation(plan, snapshot, CH, VENUE, config)
        assert audit.violations == ()
        if plan.tx_power_dbm > config.min_tx_power_dbm:
            weaker = replace(CH, max_tx_power_dbm=plan.tx_power_dbm - 1.0)
            with pytest.raises(PlanningError):
                plan_snapshot(snapshot, weaker, VENUE, config)
        assert plan_snapshot(snapshot, CH, VENUE, config) == plan
    assert time.monotonic() - t0 < 120.0


@pytest.mark.slow
def test_ac6_solver_benchmark_directional():
    from gpqm import run_benchmark

    t0 = time.monotonic()
    rows = run_benchmark(n_instances=5, n_faps=3, base_seed=7)
    by_instance: dict[int, dict[str, object]] = {}
    for r in rows:
        by_instance.setdefault(r.instance, {})[r.method] = r
    assert len(by_instance) == 5
    delay_wins = sum(
        1
        for pair in by_instance.values()
        if pair["gpqm"].p_delay_s <= pair["pso"].p_delay_s
    )
    pso_feasible = sum(1 for pair in by_instance.values() if pair["pso"].feasible)
    assert delay_wins >= 3
    assert pso_feasible >= 4

    for fap_pos, demand in (
        ((20.0, 30.0, 10.0), 100e6),
        ((70.0, 60.0, 8.0), 150e6),
    ):
        problem = OptProblem(
            snapshot=Snapshot(0.0, (FapState("f0", fap_pos, demand),)),
            channel=CH, venue=VENUE, capacity_model="shannon",
        )
        oracle = shannon_grid_optimum(problem)
        res = solve_pso(problem, seed=11)
        assert res.feasible
        assert abs(res.objective_bps - oracle) <= 0.05 * oracle
    assert time.monotonic() - t0 < 600.0


def test_ac7_link_budget_exactness():
    for power in np.linspace(0.0, 30.0, 16):
        for snr in np.linspace(-20.0, 60.0, 33):
            d = max_distance_m(CH, float(power), float(snr))
            assert abs(friis_snr_db(CH, float(power), d) - float(snr)) < 1e-9

    # dB-shift identity at double-precision resolution: every point within
    # one representable step, and almost all bitwise equal.
    exact = 0
    total = 0
    for delta in (1.0, 3.0, 7.5, 10.0):
        for power in np.linspace(0.0, 30.0, 7):
            for d in np.geomspace(1.0, 300.0, 25):
                total += 1
                lhs = friis_snr_db(CH, float(power) + delta, float(d))
                rhs = friis_snr_db(CH, float(power), float(d)) + delta
                if lhs == rhs:
                    exact += 1
                else:
                    assert abs(lhs - rhs) <= math.ulp(max(abs(lhs), abs(rhs)))
    assert exact / total >= 0.95

    table = default_mcs_table(3, CH.mac_efficiency)
    model = fit_rate_model(table)
    xs = np.array([e.min_snr_db for e in table.entries])
    ys = np.array([e.fair_share_bps for e in table.entries])
    design = np.stack([xs, np.ones_like(xs)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(design, ys, rcond=None)
    assert abs(model.slope_bps_per_db - slope) <= 1e-9 * abs(slope)
    assert abs(model.intercept_bps - intercept) <= 1e-9 * abs(intercept)
    assert slope == pytest.approx(5.89e6, rel=5e-3)
    assert intercept == pytest.approx(-34.8e6, rel=5e-3)
