"""Swarm benchmark solver: exact audits, grid-search oracles, bookkeeping.

The continuous relaxation has a clean structure that makes independent
optima computable: capacity depends on the decision vector only through
distance and power, so a dense position grid with per-position closed-form
power choice brackets the true optimum.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpqm import (
    ChannelParams,
    FapState,
    OptProblem,
    PlannerConfig,
    PlanningError,
    PsoParams,
    SimConfig,
    Snapshot,
    SolverResult,
    Venue,
    calibrated_mcs_table,
    default_mcs_table,
    evaluate,
    fit_rate_model,
    friis_snr_db,
    link_budget_constant_db,
    md1_delay_s,
    mm1q_plr,
    run_benchmark,
    shannon_capacity_bps,
    solve_pso,
    solver,
    solver_plan,
)
from gpqm.solver import (
    _PENALTY_WEIGHT,
    FEASIBILITY_TOL,
    SolverEval,
    _swarm_fitness,
    random_static_instance,
)

import pso_reference

CH = ChannelParams()
VENUE = Venue()
BITS = 11200.0


def min_capacity_bps(demand_bps: float, delay_s: float) -> float:
    """Smallest service rate keeping an M/D/1 sojourn at the delay bound.

    Root of 2*H*C^2 - 2*(H*demand + bits)*C + bits*demand = 0 above demand.
    """
    h = delay_s
    a = h * demand_bps + BITS
    disc = a * a - 2.0 * h * BITS * demand_bps
    return (a + math.sqrt(disc)) / (2.0 * h)


def one_fap_problem() -> OptProblem:
    snap = Snapshot(0.0, (FapState("f0", (20.0, 30.0, 10.0), 100e6),))
    return OptProblem(snapshot=snap, channel=CH, venue=VENUE, capacity_model="shannon")


# --- exact constraint audit -------------------------------------------------

def test_power_range_violation_magnitude():
    p = one_fap_problem()
    ev = evaluate(p, (50.0, 50.0, 10.0, -3.0))
    assert dict(ev.violations)["tx_power_range"] == pytest.approx(3.0)
    ev = evaluate(p, (50.0, 50.0, 10.0, 35.0))
    assert dict(ev.violations)["tx_power_range"] == pytest.approx(5.0)


def test_venue_bounds_violation_magnitude():
    p = one_fap_problem()
    ev = evaluate(p, (150.0, 50.0, 10.0, 20.0))
    assert dict(ev.violations)["venue_bounds"] == pytest.approx(50.0)
    ev = evaluate(p, (50.0, 50.0, 0.5, 20.0))
    assert dict(ev.violations)["venue_bounds"] == pytest.approx(0.5)


def test_separation_violation():
    p = one_fap_problem()
    ev = evaluate(p, (20.0, 30.0, 11.0, 20.0))  # 1 m above the FAP
    assert dict(ev.violations)["min_separation:f0"] == pytest.approx(2.0)


def test_saturated_link_flags_capacity_and_delay():
    p = one_fap_problem()
    ev = evaluate(p, (100.0, 100.0, 1.0, 0.0))
    names = dict(ev.violations)
    # 106.7 m at 0 dBm carries ~105 Mbit/s on the information-rate bound:
    # enough for the 100 Mbit/s demand, so push demand out of reach instead.
    assert "link_capacity:f0" not in names
    heavy = replace(p, snapshot=Snapshot(0.0, (FapState("f0", (20.0, 30.0, 10.0), 900e6),)))
    ev = evaluate(heavy, (100.0, 100.0, 1.0, 0.0))
    names = dict(ev.violations)
    assert names["link_capacity:f0"] > 0.0
    assert names["delay_bound:f0"] == 1e3
    assert not ev.feasible
    assert ev.total_violation == pytest.approx(sum(m for _, m in ev.violations))


def test_aggregate_cap_binds_only_regression_model():
    snap = random_static_instance(3, 3, VENUE, CH)
    reg = OptProblem(snapshot=snap, channel=CH, venue=VENUE, capacity_model="regression")
    sha = OptProblem(snapshot=snap, channel=CH, venue=VENUE, capacity_model="shannon")
    assert reg.effective_aggregate_cap_bps == pytest.approx(0.8 * 585e6)
    assert sha.effective_aggregate_cap_bps == math.inf
    ev = evaluate(reg, (50.0, 50.0, 20.0, 30.0))
    if ev.objective_bps > reg.effective_aggregate_cap_bps:
        assert "aggregate_capacity" in dict(ev.violations)


def test_problem_validation():
    snap = Snapshot(0.0, (FapState("f0", (20.0, 30.0, 10.0), 1e6),))
    with pytest.raises(ValueError):
        OptProblem(snapshot=snap, channel=CH, venue=VENUE, capacity_model="oracle")
    with pytest.raises(TypeError):  # the delay bound is the planner's constant
        OptProblem(snapshot=snap, channel=CH, venue=VENUE, delay_threshold_s=0.010)
    with pytest.raises(ValueError):
        PsoParams(swarm=1)
    with pytest.raises(ValueError):
        PsoParams(iterations=0)


# --- grid-search oracles ----------------------------------------------------

def shannon_grid_optimum(problem: OptProblem, step_m: float = 0.5) -> float:
    """Exhaustive position grid with closed-form per-position power choice.

    Capacity is monotone in power, so each position's best objective is the
    larger of the zero-power capacity and the queueing floor; positions whose
    full-power capacity cannot reach the floor are infeasible.
    """
    fap = problem.snapshot.faps[0]
    need = max(fap.demand_bps, min_capacity_bps(fap.demand_bps, problem.delay_threshold_s))
    v = problem.venue
    xs = np.arange(0.0, v.x_max_m + 1e-9, step_m)
    ys = np.arange(0.0, v.y_max_m + 1e-9, step_m)
    zs = np.arange(v.min_altitude_m, v.z_max_m + 1e-9, step_m)
    dx2 = (xs - fap.position[0]) ** 2
    dy2 = (ys - fap.position[1]) ** 2
    dz2 = (zs - fap.position[2]) ** 2
    d2 = dx2[:, None, None] + dy2[None, :, None] + dz2[None, None, :]
    d = np.sqrt(d2)
    snr_lo = link_budget_constant_db(problem.channel) - 20.0 * np.log10(np.maximum(d, 1e-6))
    b = problem.channel.bandwidth_hz
    cap_lo = b * np.log2(1.0 + 10.0 ** (snr_lo / 10.0))
    cap_hi = b * np.log2(1.0 + 10.0 ** ((snr_lo + problem.channel.max_tx_power_dbm) / 10.0))
    objective = np.maximum(cap_lo, need)
    objective[(cap_hi < need) | (d < v.min_separation_m)] = np.inf
    return float(objective.min())


def test_single_fap_matches_dense_grid():
    problem = one_fap_problem()
    oracle = shannon_grid_optimum(problem)
    res = solve_pso(problem, seed=11, params=PsoParams(swarm=40, iterations=800))
    assert res.feasible
    assert res.objective_bps <= 1.05 * oracle
    assert res.objective_bps >= 0.999 * oracle


def test_single_fap_optimum_trades_power_for_distance():
    problem = one_fap_problem()
    res = solve_pso(problem, seed=11, params=PsoParams(swarm=40, iterations=800))
    # Surplus capacity is pure cost, so the solution retreats from the FAP
    # and runs close to the power floor.
    assert res.tx_power_dbm < 2.0
    d = math.dist(res.position, problem.snapshot.faps[0].position)
    assert d > 90.0


def regression_grid_best(problem: OptProblem, step_m: float = 2.0) -> float:
    v = problem.venue
    xs = np.arange(0.0, v.x_max_m + 1e-9, step_m)
    ys = np.arange(0.0, v.y_max_m + 1e-9, step_m)
    zs = np.linspace(v.min_altitude_m, v.z_max_m, 5)
    gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
    pos = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    dists = np.stack(
        [np.sqrt(((pos - np.array(f.position)) ** 2).sum(axis=1)) for f in problem.snapshot.faps],
        axis=1,
    )
    dists = np.maximum(dists, 1e-6)
    demands = np.array([f.demand_bps for f in problem.snapshot.faps])
    needs = np.array(
        [
            max(f.demand_bps, min_capacity_bps(f.demand_bps, problem.delay_threshold_s))
            for f in problem.snapshot.faps
        ]
    )
    k = link_budget_constant_db(problem.channel)
    m = fit_rate_model(calibrated_mcs_table())
    best = math.inf
    for p_tx in np.arange(0.0, problem.channel.max_tx_power_dbm + 1e-9, 0.25):
        snr = p_tx + k - 20.0 * np.log10(dists)
        cap = np.maximum(0.0, m.slope_bps_per_db * snr + m.intercept_bps)
        total = cap.sum(axis=1)
        ok = (
            (cap > needs[None, :]).all(axis=1)
            & (cap >= demands[None, :]).all(axis=1)
            & (dists >= v.min_separation_m).all(axis=1)
            & (total <= problem.effective_aggregate_cap_bps)
        )
        if ok.any():
            best = min(best, float(total[ok].min()))
    return best


def test_three_fap_objective_bracketed_by_grid_and_bound():
    snap = random_static_instance(1, 3, VENUE, CH)
    problem = OptProblem(snapshot=snap, channel=CH, venue=VENUE)
    res = solve_pso(problem, seed=5, params=PsoParams(swarm=40, iterations=600))
    assert res.feasible
    lower = sum(
        max(f.demand_bps, min_capacity_bps(f.demand_bps, problem.delay_threshold_s))
        for f in snap.faps
    )
    upper = regression_grid_best(problem)
    assert upper < math.inf
    assert res.objective_bps >= lower * (1.0 - 1e-9)
    assert res.objective_bps <= upper * 1.001


# --- swarm fitness ----------------------------------------------------------

def _coordinate(lo: float, hi: float):
    """A float in [lo, hi], often exactly a face."""
    return st.sampled_from((lo, hi)) | st.floats(lo, hi)


@st.composite
def fitness_cases(draw):
    """A problem of 1-5 FAPs inside the swarm's box, and rows the swarm could score.

    Rows sit on faces, at corners and at FAP centres (the 1e-6 m distance
    clamp, a separation violation); at 0 dBm far from a FAP a regression
    link carries nothing and takes the saturated magnitude 1e3. Half the
    problems put one FAP's demand just under its link's capacity at one of
    the rows, where the M/D/1 delay crosses the bound.
    """
    model = draw(st.sampled_from(("regression", "shannon")))
    space = ((0.0, VENUE.x_max_m), (0.0, VENUE.y_max_m), (VENUE.min_altitude_m, VENUE.z_max_m))
    faps = [
        FapState(f"f{i}", tuple(draw(_coordinate(*b)) for b in space), draw(st.floats(1e5, 1e9)))
        for i in range(draw(st.integers(1, 5)))
    ]
    problem = OptProblem(snapshot=Snapshot(0.0, tuple(faps)), channel=CH, venue=VENUE,
                         capacity_model=model)
    anywhere = st.tuples(*(_coordinate(*b) for b in problem.bounds)).map(list)
    at_fap = st.tuples(st.sampled_from(faps), _coordinate(*problem.bounds[3])).map(
        lambda fp: [*fp[0].position, fp[1]])
    rows = draw(st.lists(anywhere | at_fap, min_size=1, max_size=8))
    if draw(st.booleans()):
        i, row = draw(st.integers(0, len(faps) - 1)), draw(st.sampled_from(rows))
        d = max(math.dist(row[:3], faps[i].position), 1e-6)
        cap = problem.capacity_bps(friis_snr_db(CH, row[3], d))
        if cap > 0.0:
            faps[i] = replace(faps[i], demand_bps=cap * draw(st.floats(0.99, 1.0)))
            problem = replace(problem, snapshot=Snapshot(0.0, tuple(faps)))
    return problem, rows


@settings(derandomize=True, deadline=None, max_examples=300)
@given(fitness_cases())
def test_swarm_fitness_is_the_audits_penalised_objective_bit_for_bit(case):
    problem, rows = case
    fitness = _swarm_fitness(problem)
    for row in rows:
        ev = evaluate(problem, row)
        penalty = 0.0
        for _, m in ev.violations:
            penalty = penalty + m * m
        assert fitness(row) == ev.objective_bps / 1e6 + _PENALTY_WEIGHT * penalty, (row, ev)


def _library_audit(problem: OptProblem, row) -> SolverEval:
    """`evaluate` on an in-bounds row, built from the channel and queueing modules."""
    total, violations = 0.0, []
    for fap in problem.snapshot.faps:
        d = max(math.dist(row[:3], fap.position), 1e-6)
        cap = problem.capacity_bps(friis_snr_db(CH, row[3], d))
        total += cap
        rho = fap.demand_bps / cap if cap > 0.0 else math.inf
        bound = problem.delay_threshold_s
        excess = (md1_delay_s(rho, cap / BITS) - bound) / bound if rho < 1.0 else 1e3
        for name, m in (
            ("link_capacity", (fap.demand_bps - cap) / 1e6),
            ("min_separation", VENUE.min_separation_m - d),
            ("delay_bound", excess),
        ):
            if m > FEASIBILITY_TOL:
                violations.append((f"{name}:{fap.fap_id}", m))
    over = (total - problem.effective_aggregate_cap_bps) / 1e6
    if over > FEASIBILITY_TOL:
        violations.append(("aggregate_capacity", over))
    return SolverEval(total, tuple(violations))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(fitness_cases())
def test_audit_repeats_the_library_link_arithmetic_bit_for_bit(case):
    problem, rows = case
    for row in rows:
        assert evaluate(problem, row) == _library_audit(problem, row), row


# --- solver behaviour -------------------------------------------------------

def test_fitness_history_monotone():
    res = solve_pso(one_fap_problem(), seed=2, params=PsoParams(swarm=15, iterations=120))
    h = res.fitness_history
    assert len(h) == 121
    assert all(b <= a for a, b in zip(h, h[1:]))


def test_solver_deterministic_per_seed():
    p = one_fap_problem()
    params = PsoParams(swarm=15, iterations=100)
    a = solve_pso(p, seed=9, params=params)
    b = solve_pso(p, seed=9, params=params)
    c = solve_pso(p, seed=10, params=params)
    assert a == b
    # Different seeds walk different trajectories even when they agree on
    # the clamped corner optimum.
    assert a.fitness_history != c.fitness_history


@st.composite
def swarm_cases(draw):
    """A problem of 1-4 FAPs, a swarm budget and a swarm seed.

    FAPs often sit on the venue's faces and demands run from links that
    0 dBm serves to links no power serves, so swarms park on the venue and
    power bounds, keep moving in power alone, or freeze at a corner.
    """
    model = draw(st.sampled_from(("regression", "shannon")))
    space = ((0.0, VENUE.x_max_m), (0.0, VENUE.y_max_m), (VENUE.min_altitude_m, VENUE.z_max_m))
    faps = tuple(
        FapState(f"f{i}", tuple(draw(_coordinate(*b)) for b in space), draw(st.floats(1e6, 4e8)))
        for i in range(draw(st.integers(1, 4)))
    )
    problem = OptProblem(snapshot=Snapshot(0.0, faps), channel=CH, venue=VENUE,
                         capacity_model=model)
    params = PsoParams(swarm=draw(st.integers(2, 40)), iterations=draw(st.integers(1, 400)))
    return problem, draw(st.integers(0, 2**32 - 1)), params


@settings(derandomize=True, deadline=None, max_examples=200)
@given(swarm_cases())
# Two particles that sit on the global best, pressed onto the delay bound in
# the last bits of power, while one's personal best ties it one ulp away:
# the steps after that still improve, so a stop must also wait for pbest.
@example((one_fap_problem(), 76, PsoParams(swarm=2, iterations=400)))
def test_swarm_returns_the_reference_result_bit_for_bit(case):
    problem, seed, params = case
    assert repr(solve_pso(problem, seed, params)) == repr(
        pso_reference.solve_pso(problem, seed, params))


def _single_fap_problem(position, demand_bps) -> OptProblem:
    return OptProblem(snapshot=Snapshot(0.0, (FapState("f0", position, demand_bps),)),
                      channel=CH, venue=VENUE, capacity_model="shannon")


@pytest.mark.parametrize(
    ("problem", "seed"),
    [
        (_single_fap_problem((20.0, 30.0, 10.0), 100e6), 11),
        (_single_fap_problem((70.0, 60.0, 8.0), 150e6), 11),
        (OptProblem(snapshot=random_static_instance(10, 3, VENUE, CH), channel=CH,
                    venue=VENUE, capacity_model="shannon"), 10),
    ],
    ids=["ac6-first", "ac6-second", "instance10-shannon-frozen-at-9"],
)
def test_default_budget_swarm_returns_the_reference_result_bit_for_bit(problem, seed):
    assert repr(solve_pso(problem, seed)) == repr(pso_reference.solve_pso(problem, seed))


def test_swarm_scores_only_the_particles_that_moved(monkeypatch):
    # At the default budget AC6's first swarm parks every particle on the
    # corner (100, 100, 1 m, 0 dBm) by its ninth step; scoring every particle
    # on every step would take 50 * 2001 = 100 050 calls.
    scored = 0

    def counting_fitness(problem):
        fitness = _swarm_fitness(problem)

        def count(row):
            nonlocal scored
            scored += 1
            return fitness(row)

        return count

    monkeypatch.setattr(solver, "_swarm_fitness", counting_fitness)
    res = solve_pso(one_fap_problem(), seed=11)
    assert len(res.fitness_history) == 2001
    assert scored < 1000


def test_infeasible_instance_reports_least_violation():
    snap = Snapshot(
        0.0,
        (
            FapState("a", (0.0, 0.0, 5.0), 160e6),
            FapState("b", (100.0, 100.0, 5.0), 160e6),
        ),
    )
    problem = OptProblem(snapshot=snap, channel=CH, venue=VENUE)
    res = solve_pso(problem, seed=4, params=PsoParams(swarm=25, iterations=250))
    assert not res.feasible
    assert res.violations
    names = {name.split(":")[0] for name, _ in res.violations}
    assert names <= {"link_capacity", "delay_bound"}
    assert all(m > 0.0 for _, m in res.violations)


def test_feasibility_judged_by_exact_audit():
    p = one_fap_problem()
    res = solve_pso(p, seed=11, params=PsoParams(swarm=40, iterations=800))
    again = evaluate(p, res.x)
    assert again.feasible == res.feasible
    assert again.violations == res.violations
    assert again.objective_bps == pytest.approx(res.objective_bps)


# --- plan translation -------------------------------------------------------

def test_solver_plan_uses_discrete_rates():
    snap = random_static_instance(1, 3, VENUE, CH)
    problem = OptProblem(snapshot=snap, channel=CH, venue=VENUE)
    res = solve_pso(problem, seed=5, params=PsoParams(swarm=40, iterations=600))
    table = default_mcs_table(3, CH.mac_efficiency)
    plan = solver_plan(problem, res, table)
    assert plan.tx_power_dbm == res.tx_power_dbm
    assert plan.fgw_position == res.position
    assert len(plan.faps) == 3
    for fp, fap in zip(plan.faps, snap.faps):
        d = math.dist(res.position, fap.position)
        snr = friis_snr_db(CH, res.tx_power_dbm, d)
        entry = table.for_snr(snr)
        assert entry is not None
        assert fp.mcs_index == entry.index
        assert fp.capacity_bps == entry.fair_share_bps
        assert fp.utilisation == pytest.approx(fap.demand_bps / entry.fair_share_bps)
        assert isinstance(fp.queue_pkts, int) and fp.queue_pkts >= 1
        assert 0.0 <= fp.plr <= 1.0


def test_solver_plan_loss_of_a_link_loaded_past_ten():
    # 143 m at -10 dBm leaves about 7 Mbit/s of Shannon capacity for 100 Mbit/s.
    snap = Snapshot(0.0, (FapState("f0", (0.0, 0.0, 2.0), 100e6),))
    problem = OptProblem(snapshot=snap, channel=CH, venue=VENUE, capacity_model="shannon")
    x = (100.0, 100.0, 20.0, -10.0)
    res = SolverResult(x, x[:3], x[3], 0.0, False, (), ())
    (fp,) = solver_plan(problem, res, default_mcs_table(1, CH.mac_efficiency)).faps
    rho = 100e6 / problem.capacity_bps(friis_snr_db(CH, -10.0, math.dist(x[:3], (0.0, 0.0, 2.0))))
    assert 10.0 < rho < math.inf
    assert fp.queue_pkts == 100
    assert fp.plr == mm1q_plr(rho, 100)
    assert fp.plr > mm1q_plr(10.0, 100)


# --- head-to-head harness ---------------------------------------------------

@pytest.fixture(scope="module")
def small_benchmark():
    kw = dict(
        n_instances=2,
        n_faps=3,
        base_seed=7,
        pso_params=PsoParams(swarm=10, iterations=50),
        sim_config=SimConfig(bootstrap_s=2.0, measure_s=6.0, placement="gpqm", queue="scheduled"),
        sim_runs=1,
    )
    return kw, run_benchmark(**kw)


def test_benchmark_row_shape(small_benchmark):
    _, rows = small_benchmark
    assert len(rows) == 4
    assert [r.method for r in rows] == ["gpqm", "pso", "gpqm", "pso"]
    assert [r.instance for r in rows] == [0, 0, 1, 1]
    for r in rows:
        assert r.objective_bps > 0.0
        assert r.p_throughput_bps > 0.0
        assert r.p_delay_s > 0.0
    gpqm_rows = [r for r in rows if r.method == "gpqm"]
    assert all(r.feasible for r in gpqm_rows)


def test_benchmark_deterministic(small_benchmark):
    kw, rows = small_benchmark
    assert run_benchmark(**kw) == rows


def test_shannon_capacity_exceeds_discrete_rates():
    # The information-rate bound dominates every realisable PHY rate at the
    # SNR that unlocks it, keeping the two capacity models ordered.
    table = default_mcs_table(1, 1.0)
    for entry in table.entries:
        assert shannon_capacity_bps(CH.bandwidth_hz, entry.min_snr_db) > entry.phy_rate_bps


def test_run_benchmark_gives_up_on_unplannable_seeds():
    start = time.perf_counter()
    with pytest.raises(PlanningError):
        run_benchmark(n_instances=1, demand_fractions=(5.0,))
    assert time.perf_counter() - start < 30.0


# --- golden outputs ---------------------------------------------------------
# One SHA-256 over swarm results with their plan translations (three random
# instances and one the swarm cannot serve, each under both capacity models)
# and one over the rows of a small head-to-head benchmark. A change that moves
# any float of the solver, its plan translation or the benchmark changes them.

GOLDEN_SOLVER_SHA256 = {
    "solve_pso": "c1ac13584cd6595a252a46ecdbc64bfaeb77fb19c59f3eef8486a6e567da108d",
    "run_benchmark": "4e8a2ba757f38046c26b5706dd8d923661ab49122cedd04c27b8307f1efdf8e8",
}


def test_golden_solver_outputs():
    table = default_mcs_table(3, CH.mac_efficiency)
    far = Snapshot(
        0.0,
        (FapState("a", (0.0, 0.0, 5.0), 160e6), FapState("b", (100.0, 100.0, 5.0), 160e6)),
    )
    cases = [(random_static_instance(seed, 3, VENUE, CH), seed) for seed in (1, 2, 3)]
    solved = []
    for snap, seed in [*cases, (far, 4)]:
        for model in ("regression", "shannon"):
            problem = OptProblem(snapshot=snap, channel=CH, venue=VENUE, capacity_model=model)
            res = solve_pso(problem, seed=seed, params=PsoParams(swarm=20, iterations=150))
            solved.append((res.x, res.objective_bps, res.feasible, res.violations,
                           res.fitness_history, solver_plan(problem, res, table)))
    rows = run_benchmark(
        n_instances=2,
        pso_params=PsoParams(swarm=10, iterations=50),
        sim_config=SimConfig(bootstrap_s=1.0, measure_s=2.0, placement="gpqm", queue="scheduled"),
        sim_runs=2,
    )
    digests = {
        name: hashlib.sha256(repr(out).encode()).hexdigest()
        for name, out in (("solve_pso", solved), ("run_benchmark", rows))
    }
    assert digests == GOLDEN_SOLVER_SHA256
