"""Event simulator validation against queueing theory and its invariants.

The geometry in these fixtures is chosen so the link rate is a known MCS
fair share: a lone FAP 20 m from a fixed gateway at 20 dBm sees 32.13 dB,
landing in the 526.5 Mbit/s PHY entry, whose single-contender share is
421.2 Mbit/s (37607 packets/s at 1400 B).
"""

from __future__ import annotations

import gc
import hashlib
import math
import statistics
from dataclasses import replace

import pytest

from gpqm import (
    ChannelParams,
    DemandProfile,
    FapPlan,
    FapTrace,
    GpqmPlan,
    PlannerConfig,
    PlanSeries,
    ScenarioTrace,
    SimConfig,
    Venue,
    compare,
    generate_rwm,
    md1_delay_s,
    merge_metrics,
    mm1q_plr,
    plan_series,
    simulate,
    summarize,
)

CH = ChannelParams()
VENUE = Venue()

MU_PPS = (0.8 * 526.5e6) / 11200.0  # single-contender share at MCS 6
FGW = (50.0, 70.0, 10.0)


def static_trace(demand_bps: float, duration_s: float, n_faps: int = 1,
                 positions=None) -> ScenarioTrace:
    if positions is None:
        positions = [(50.0, 50.0, 10.0)]
    faps = tuple(
        FapTrace(f"s{i}", ((0.0, *positions[i]),), DemandProfile(constant_bps=demand_bps))
        for i in range(n_faps)
    )
    return ScenarioTrace(
        venue=VENUE,
        channel=CH,
        faps=faps,
        duration_s=duration_s,
        planning_period_s=5.0,
        seed=0,
    )


def run_single(demand_bps: float, plan=None, **kw) -> "SimMetrics":
    defaults = dict(
        bootstrap_s=2.0,
        measure_s=10.0,
        seed=7,
        placement="fixed",
        fixed_position=FGW,
        queue="droptail",
        queue_size=100_000,
        fading=False,
    )
    defaults.update(kw)
    cfg = SimConfig(**defaults)
    trace = static_trace(demand_bps, cfg.bootstrap_s + cfg.measure_s)
    return simulate(trace, cfg, plan=plan)


# --- trivial cases ----------------------------------------------------------

def test_zero_traffic_zero_metrics():
    for traffic in ("poisson", "onoff", "aimd"):
        m = run_single(0.0, traffic=traffic, measure_s=5.0)
        assert m.generated == 0
        assert m.delay_samples_s == ()
        assert all(v == 0.0 for v in m.throughput_samples_bps)
        assert len(m.throughput_samples_bps) == 5


def test_throughput_samples_cover_measure_window():
    m = run_single(50e6, measure_s=10.0)
    assert len(m.throughput_samples_bps) == 10
    assert all(v >= 0.0 for v in m.throughput_samples_bps)


# --- queueing-theory validation --------------------------------------------

def test_md1_mean_delay_at_half_load():
    rho = 0.5
    m = run_single(rho * MU_PPS * 11200.0)
    assert m.window_delivered >= 100_000
    expected = md1_delay_s(rho, MU_PPS)
    measured = statistics.fmean(m.delay_samples_s)
    assert abs(measured - expected) / expected < 0.05


def test_md1_delay_samples_right_skewed():
    m = run_single(0.5 * MU_PPS * 11200.0)
    mean = statistics.fmean(m.delay_samples_s)
    median = statistics.median(m.delay_samples_s)
    assert median < mean


def test_mm11_drop_fraction_exponential_mode():
    rho = 0.7
    m = run_single(
        rho * MU_PPS * 11200.0,
        queue_size=1,
        service_mode="exponential",
        measure_s=20.0,
    )
    expected = mm1q_plr(0.7, 1)
    assert expected == pytest.approx(0.4118, abs=5e-5)
    assert m.plr == pytest.approx(expected, abs=0.02)


def test_deterministic_service_loses_less_than_exponential():
    rho = 0.85
    kw = dict(queue_size=3, measure_s=8.0)
    det = run_single(rho * MU_PPS * 11200.0, service_mode="deterministic", **kw)
    exp = run_single(rho * MU_PPS * 11200.0, service_mode="exponential", **kw)
    assert det.plr < exp.plr


# --- invariants -------------------------------------------------------------

def test_conservation_exact():
    plan = plan_series(static_trace(100e6, 8.0), PlannerConfig())  # read by "scheduled"
    for queue in ("scheduled", "droptail", "red", "codel"):
        for traffic in ("poisson", "onoff", "aimd"):
            m = run_single(100e6, plan=plan, traffic=traffic, queue=queue, queue_size=20,
                           measure_s=6.0)
            assert m.generated == m.delivered + m.dropped + m.residual, (queue, traffic)


def test_queue_bound_caps_sojourn():
    q = 5
    m = run_single(2.0 * MU_PPS * 11200.0, queue_size=q, measure_s=6.0)
    assert m.dropped > 0
    bound = q / MU_PPS + 20.0 / 3.0e8 + 1e-9
    assert max(m.delay_samples_s) <= bound


def test_scheduled_queue_takes_plan_limits_under_fixed_placement():
    q = 3
    base = plan_series(static_trace(100e6, 4.0), PlannerConfig())
    plans = tuple(
        replace(p, faps=tuple(replace(f, queue_pkts=q) for f in p.faps)) for p in base.plans
    )
    plan = PlanSeries(plans, base.update_period_s)
    # queue_size stays at run_single's 100 000: only the plan can bound the queue
    m = run_single(1.5 * MU_PPS * 11200.0, plan=plan, queue="scheduled", measure_s=2.0)
    assert m.dropped > 0
    bound = q / MU_PPS + 20.0 / 3.0e8 + 1e-9
    assert max(m.delay_samples_s) <= bound


def test_tick_runs_before_events_due_at_its_instant():
    # No MCS is reachable at -60 dBm, so nothing is served; AIMD at half of
    # 8 packets/s sends at exactly 0.25, 0.5, 0.75 and 1.0 s.
    def plan_at(t: float, limit: int) -> GpqmPlan:
        fap = FapPlan("s0", 89600.0, 0, 0.0, 1e6, 0.1, limit, 0.0, 0.0)
        return GpqmPlan(t, -60.0, (50.0, 60.0, 10.0), (fap,), (0.0,))

    plan = PlanSeries((plan_at(0.0, 100), plan_at(1.0, 1)), 1.0)
    cfg = SimConfig(bootstrap_s=0.0, measure_s=1.5, placement="fixed",
                    fixed_position=(50.0, 60.0, 10.0), baseline_tx_power_dbm=-60.0,
                    fading=False, traffic="aimd", queue="scheduled")
    m = simulate(static_trace(8 * 11200.0, 1.5), cfg, plan=plan)
    # The arrival due at 1.0 s sees the limit the tick at 1.0 s set.
    assert (m.generated, m.dropped, m.residual) == (4, 1, 3)


def test_determinism_bit_identical():
    kw = dict(fading=True, traffic="onoff", measure_s=6.0, queue_size=50)
    a = run_single(80e6, **kw)
    b = run_single(80e6, **kw)
    assert a == b


def test_run_leaves_no_reference_cycles():
    # A run's packet records must be freed as soon as its metrics are, not at
    # some later garbage collection: they can take tens of megabytes.
    gc.collect()
    gc.disable()
    try:
        run_single(80e6, traffic="onoff", measure_s=2.0, record_packets=True)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_seed_changes_outcome():
    a = run_single(80e6, seed=1, measure_s=6.0)
    b = run_single(80e6, seed=2, measure_s=6.0)
    assert a.delay_samples_s != b.delay_samples_s


def test_packet_records_causal():
    m = run_single(1.5 * MU_PPS * 11200.0, queue_size=5, measure_s=4.0,
                   record_packets=True)
    delivered = [p for p in m.packets if not p.dropped]
    droppedp = [p for p in m.packets if p.dropped]
    assert delivered and droppedp
    for p in delivered:
        assert p.delivered_s > p.created_s
        assert p.delay_s == pytest.approx(p.delivered_s - p.created_s)
        assert p.delay_s > 0.0
    for p in droppedp:
        assert p.delivered_s is None and p.delay_s is None


def test_fair_share_parity_across_identical_faps():
    positions = [(70.0, 50.0, 10.0), (30.0, 50.0, 10.0), (50.0, 70.0, 10.0)]
    share = 0.8 * 526.5e6 / 3.0
    trace = static_trace(0.8 * share, 26.0, n_faps=3, positions=positions)
    cfg = SimConfig(
        bootstrap_s=2.0, measure_s=24.0, seed=3, placement="venue-center",
        queue="droptail", queue_size=1000, fading=False,
    )
    m = simulate(trace, cfg)
    goodputs = list(m.per_fap_goodput_bps.values())
    lo, hi = min(goodputs), max(goodputs)
    assert (hi - lo) / hi < 0.02


def test_shared_cap_limits_aggregate():
    # Three saturated links at the calibrated top share sum to 498 Mbit/s,
    # 30 Mbit/s above the usable channel; shared mode must scale them back.
    positions = [(64.0, 50.0, 10.0), (36.0, 50.0, 10.0), (50.0, 64.0, 10.0)]
    trace = static_trace(174e6, 10.0, n_faps=3, positions=positions)
    kw = dict(
        bootstrap_s=2.0, measure_s=8.0, seed=5, placement="venue-center",
        queue="droptail", queue_size=100, fading=False,
    )
    ind = simulate(trace, SimConfig(channel_mode="independent", **kw))
    shd = simulate(trace, SimConfig(channel_mode="shared", **kw))
    mean_ind = statistics.fmean(ind.throughput_samples_bps)
    mean_shd = statistics.fmean(shd.throughput_samples_bps)
    assert mean_ind > 485e6
    assert mean_shd < 475e6
    assert mean_shd == pytest.approx(0.8 * 585e6, rel=0.02)


# --- AQM disciplines --------------------------------------------------------

def test_red_no_drops_below_min_threshold():
    m = run_single(0.2 * MU_PPS * 11200.0, queue="red", queue_size=100,
                   measure_s=6.0)
    assert m.dropped == 0
    assert m.window_delivered > 0


def test_red_sheds_overload():
    m = run_single(3.0 * MU_PPS * 11200.0, queue="red", queue_size=100,
                   measure_s=6.0)
    assert 0.55 < m.plr < 0.75
    mean_thr = statistics.fmean(m.throughput_samples_bps)
    assert mean_thr == pytest.approx(0.8 * 526.5e6, rel=0.03)


def test_codel_silent_when_sojourn_below_target():
    m = run_single(0.5 * MU_PPS * 11200.0, queue="codel", measure_s=6.0)
    assert m.dropped == 0


def test_codel_tames_greedy_sender_delay():
    # A rate-halving sender against a deep drop-tail buffer parks the queue
    # near the tail and holds sojourn at the buffer depth; head drops from
    # the sojourn controller signal earlier and keep the tail delay well
    # below that standing value.
    demand = 1.5 * MU_PPS * 11200.0
    kw = dict(traffic="aimd", measure_s=8.0)
    codel = run_single(demand, queue="codel", **kw)
    tail = run_single(demand, queue="droptail", queue_size=5000, **kw)
    assert codel.dropped > 0
    p90_codel = summarize(codel.delay_samples_s).percentile(90.0)
    p90_tail = summarize(tail.delay_samples_s).percentile(90.0)
    assert p90_codel < 0.25 * p90_tail
    assert p90_codel < 0.02


# --- traffic models ---------------------------------------------------------

def test_onoff_duty_cycle_halves_goodput():
    demand = 50e6
    m = run_single(demand, traffic="onoff", measure_s=60.0)
    goodput = m.per_fap_goodput_bps["s0"]
    assert 0.3 * demand < goodput < 0.7 * demand


def test_onoff_source_slower_than_its_on_periods_stays_silent():
    # One packet per 100 s never fits in an on period (mean 0.5 s); the source
    # skips periods only until the end of the run.
    m = run_single(112.0, traffic="onoff", bootstrap_s=0.0, measure_s=2.0)
    assert m.generated == 0


def test_aimd_ceiling_follows_a_demand_schedule():
    one = generate_rwm(n_faps=1, duration_s=4.0, seed=6)
    cfg = SimConfig(bootstrap_s=1.0, measure_s=3.0, placement="venue-center",
                    queue="droptail", traffic="aimd")

    def generated(demand: DemandProfile) -> int:
        return simulate(replace(one, faps=(replace(one.faps[0], demand=demand),)), cfg).generated

    step = generated(DemandProfile(schedule=((0.0, 5e6), (1.0, 50e6))))
    assert step > 2 * generated(DemandProfile(constant_bps=5e6))


def test_aimd_backs_off_under_congestion():
    demand = 1.2 * MU_PPS * 11200.0
    m = run_single(demand, traffic="aimd", queue_size=10, measure_s=10.0)
    goodput = m.per_fap_goodput_bps["s0"]
    assert 0.0 < goodput < demand
    assert m.dropped > 0


# --- configuration errors ---------------------------------------------------

def test_gpqm_placement_requires_plan():
    trace = static_trace(50e6, 12.0)
    cfg = SimConfig(bootstrap_s=2.0, measure_s=10.0, placement="gpqm")
    with pytest.raises(ValueError):
        simulate(trace, cfg)


def test_plan_must_cover_run():
    trace = generate_rwm(n_faps=3, duration_s=40.0, seed=6)
    series = plan_series(trace, PlannerConfig())
    short = SimConfig(bootstrap_s=10.0, measure_s=35.0)
    with pytest.raises(ValueError):
        simulate(trace, short, plan=series)


def test_trace_must_cover_run():
    trace = static_trace(50e6, 5.0)
    cfg = SimConfig(bootstrap_s=2.0, measure_s=10.0, placement="venue-center",
                    queue="droptail")
    with pytest.raises(ValueError):
        simulate(trace, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(placement="teleport")
    with pytest.raises(ValueError):
        SimConfig(queue="lifo")
    with pytest.raises(ValueError):
        SimConfig(measure_s=0.0)
    with pytest.raises(ValueError):
        SimConfig(placement="fixed")


# --- summaries and comparison ----------------------------------------------

def test_nearest_rank_percentiles():
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert s.percentile(90.0) == 4.0
    assert s.percentile(50.0) == 2.0
    assert s.percentile(0.0) == 1.0
    assert s.percentile(100.0) == 4.0


def test_cdf_ccdf_complementary():
    s = summarize([0.5, 1.0, 1.5, 2.0, 5.0])
    for x in (0.4, 0.5, 1.2, 5.0, 9.0):
        assert s.cdf(x) + s.ccdf(x) == pytest.approx(1.0)
    assert s.cdf(0.4) == 0.0
    assert s.cdf(5.0) == 1.0


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


def test_compare_identical_runs_zero_deltas():
    a = replace(run_single(80e6, measure_s=6.0), label="a")
    b = replace(run_single(80e6, measure_s=6.0), label="b")
    table = compare([a, b], baseline="a")
    rows = table["results"]
    assert rows["b"]["delay_vs_baseline"] == pytest.approx(0.0)
    assert rows["b"]["throughput_vs_baseline"] == pytest.approx(0.0)
    assert len(rows) == 2
    assert table["baseline"] == "a"


def test_compare_rejects_mismatched_windows():
    a = replace(run_single(80e6, measure_s=6.0), label="a")
    b = replace(run_single(80e6, measure_s=8.0), label="b")
    with pytest.raises(ValueError):
        compare([a, b], baseline="a")
    c = replace(run_single(80e6, measure_s=6.0), label="a")
    with pytest.raises(ValueError):
        compare([a, c], baseline="a")


def test_merge_pools_samples():
    a = run_single(80e6, seed=1, measure_s=6.0)
    b = run_single(80e6, seed=2, measure_s=6.0)
    merged = merge_metrics([a, b])
    assert len(merged.throughput_samples_bps) == 12
    assert merged.generated == a.generated + b.generated
    assert merged.window_dropped == a.window_dropped + b.window_dropped


def test_percentiles_pair_delay_and_throughput():
    m = run_single(80e6, measure_s=6.0)
    delay, throughput = m.percentiles()
    assert delay == summarize(m.delay_samples_s).percentile(90.0)
    assert throughput == summarize(m.throughput_samples_bps).percentile(10.0)
    assert replace(m, delay_samples_s=()).percentiles()[0] == math.inf


def test_fractional_warmup_bins_the_measurement_window():
    trace = generate_rwm(n_faps=3, duration_s=40.0, seed=6)
    m = simulate(trace, SimConfig(bootstrap_s=0.5, measure_s=1.0,
                                  placement="venue-center", queue="droptail"))
    assert len(m.throughput_samples_bps) == 1
    assert math.fsum(m.throughput_samples_bps) == 11200.0 * m.window_delivered


@pytest.mark.parametrize("measure_s, samples", [(1.4, 2), (2.5, 3)])
def test_partial_second_window_keeps_its_tail(measure_s, samples):
    trace = generate_rwm(n_faps=3, duration_s=40.0, seed=6)
    m = simulate(trace, SimConfig(bootstrap_s=0.5, measure_s=measure_s,
                                  placement="venue-center", queue="droptail"))
    assert len(m.throughput_samples_bps) == samples
    assert math.fsum(m.throughput_samples_bps) == 11200.0 * m.window_delivered


# --- golden outputs ---------------------------------------------------------
# One SHA-256 of every SimMetrics field, packet records included, per cell.
# A change to the engine that reorders events or RNG draws changes them, so a
# refactor of the engine must leave them as they are.

GOLDEN_WINDOW = dict(bootstrap_s=0.5, measure_s=1.0, record_packets=True)

GOLDEN_CELLS = {
    **{
        f"{queue}-{traffic}": ("rwm", dict(queue=queue, traffic=traffic, queue_size=8))
        for queue in ("scheduled", "droptail", "red", "codel")
        for traffic in ("poisson", "onoff", "aimd")
    },
    "shared-nofade": ("rwm", dict(queue="droptail", channel_mode="shared", fading=False)),
    "exponential": ("rwm", dict(queue="droptail", service_mode="exponential")),
    "onoff-shared-exponential-centroid": ("rwm", dict(
        placement="centroid", queue="droptail", traffic="onoff", channel_mode="shared",
        service_mode="exponential")),
    "centroid": ("rwm", dict(placement="centroid", queue="droptail")),
    "venue-center": ("rwm", dict(placement="venue-center", queue="droptail")),
    **{
        f"silent-{traffic}": (
            "silent", dict(placement="venue-center", queue="droptail", traffic=traffic))
        for traffic in ("poisson", "onoff", "aimd")
    },
    **{
        f"schedule-{traffic}": ("schedule", dict(traffic=traffic))
        for traffic in ("poisson", "onoff", "aimd")
    },
}

GOLDEN_SHA256 = {
    "centroid": "b578e6df94ee116610a0c56dc0955a37729ba4c1b03587ba59c4746c5fc2fafc",
    "codel-aimd": "20f7539f705e8460070178c9b49df4e9bb3ef06798baea378a50cf1c2636c5eb",
    "codel-onoff": "7b0fcce983fb48f45d7cd20f5ffd153c166c11b143b257ba92ed385461bd66da",
    "codel-poisson": "964169b1cc6f848b378b428b196fe578619b3a9835f0f090d0b00b4bb7e981cb",
    "droptail-aimd": "b6944d93f6b2ddac92eec1c96fef3c90af2361c2927138db3304f5982d0eeecc",
    "droptail-onoff": "a68d0c17da15fd5634b9d749b85fadc4847a1c23884f359d797c462751fb8579",
    "droptail-poisson": "bbe6303320b077cb94d70400ce7cef02b4756f177c9067575b1d6a94d5199cf7",
    "exponential": "88f8c7cd5fb24f270395878e2fb406f493672834cea1d1fd1046c61dbb764243",
    "onoff-shared-exponential-centroid":
        "31990f136f1b92eba331df7b7f88a9c80609290bdc9a58211ca901c0a3346867",
    "red-aimd": "c6694ebe66d5072730541eee09e03275b0709ed51a7b11edc01a7d3da20f7558",
    "red-onoff": "91d1319fdce8255458a64cca62ced9cdc98b552941bbde8da9675ef27753d70b",
    "red-poisson": "52bea06494973452d2b7d2bfb2fe8d4098000ed9375545694ad12384422ab471",
    "schedule-aimd": "380e42d5bf961806bf5e48b06a516bf89324a5ff7d461cc5ef1c8f8677981e44",
    "schedule-onoff": "238025e47cab4799e416cd0a981132ff77a6288928aceb6b888134db1924b42a",
    "schedule-poisson": "474988d1af98fc3f5c461acfbbeb048bcff780ad578eb16d015d071512a63343",
    "scheduled-aimd": "21c704e2e8d3e5773451ec9b885d540ae7f32c4d5c6cb39e5d2916d88a88cef5",
    "scheduled-onoff": "7cba7ad7154834ea85f805a7bce7ae8033c6c4b31e84322f889cf8bd3bede4ad",
    "scheduled-poisson": "8ef961b0f3014b087adb51c1b112f44a58bd7629532e57b1dd75d8917621d941",
    "shared-nofade": "aeb4e4dd2c22e2bb826bb9600d219a60473b01d93e973b45f6a0a44f2c6a8957",
    "silent-aimd": "7ca5d208ee12420832946fce79ac7d1f83f20ad76d1cf5a27b494f14ea71f453",
    "silent-onoff": "e9711efe16da730041346dca6d326a74fe4a1f0cea558f6b888d9d2e8e79e040",
    "silent-poisson": "5b488afbdeb4c448fa32044c9b6018c1f72f1d49c7767296e8c3a94b54c1b914",
    "venue-center": "fd8d25f9c5c3af8cba2ae2245bd593e70eede31d19bf4d714b6b8b971c7bd78b",
}


@pytest.fixture(scope="module")
def golden_inputs() -> dict:
    rwm = generate_rwm(n_faps=3, duration_s=2.0, seed=6, planning_period_s=1.0)

    def with_fap0(demand: DemandProfile) -> ScenarioTrace:
        return replace(rwm, faps=(replace(rwm.faps[0], demand=demand), *rwm.faps[1:]))

    schedule = with_fap0(DemandProfile(schedule=((0.0, 40e6), (0.7, 120e6), (1.3, 20e6))))
    return {
        "rwm": (rwm, plan_series(rwm, PlannerConfig())),
        "silent": (with_fap0(DemandProfile(constant_bps=0.0)), None),
        "schedule": (schedule, plan_series(schedule, PlannerConfig())),
    }


@pytest.mark.parametrize("cell", sorted(GOLDEN_CELLS))
def test_golden_outputs(golden_inputs, cell):
    kind, kw = GOLDEN_CELLS[cell]
    trace, plan = golden_inputs[kind]
    m = simulate(trace, SimConfig(**GOLDEN_WINDOW, **kw), plan=plan)
    # Tuples of the records' fields repr faster than the dataclasses themselves.
    rows = [(p.fap_id, p.created_s, p.delivered_s, p.dropped, p.delay_s) for p in m.packets]
    digest = hashlib.sha256(repr((replace(m, packets=()), rows)).encode()).hexdigest()
    assert digest == GOLDEN_SHA256[cell]


# Three identical static FAPs equidistant from the venue centre, fading off and
# deterministic service: their events keep falling at equal times. AIMD has
# 110 846 pairs of equal-time events of different FAPs in this window, on/off
# fewer. These pin the rule that outputs at one instant are recorded in FAP
# order. The hashes were computed with a global event heap, which ran two of
# the on/off pairs out of FAP order without changing any output.
TIE_SHA256 = {
    "aimd": "e29fead9d63e88ce76597f8bfac0383cec6de41663f95682e98646c955e1b366",
    "onoff": "9f1f0b16b692cd209fe938911c75c6c4120fdd3af6f4e8f9041f0d039cfc3f49",
}


@pytest.mark.parametrize("traffic", sorted(TIE_SHA256))
def test_golden_cross_fap_ties(traffic):
    positions = [(70.0, 50.0, 10.0), (30.0, 50.0, 10.0), (50.0, 70.0, 10.0)]
    trace = static_trace(1.2 * 0.8 * 526.5e6 / 3.0, 3.0, n_faps=3, positions=positions)
    cfg = SimConfig(bootstrap_s=0.5, measure_s=2.5, seed=3, placement="venue-center",
                    queue="droptail", queue_size=6, traffic=traffic, fading=False,
                    service_mode="deterministic", record_packets=True)
    m = simulate(trace, cfg)
    # the digest of test_golden_outputs
    rows = [(p.fap_id, p.created_s, p.delivered_s, p.dropped, p.delay_s) for p in m.packets]
    digest = hashlib.sha256(repr((replace(m, packets=()), rows)).encode()).hexdigest()
    assert digest == TIE_SHA256[traffic]
