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
import random
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
    generate_rwm,
    md1_delay_s,
    merge_metrics,
    mm1q_plr,
    percentile,
    plan_series,
    simulate,
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


def test_inline_poisson_gap_is_expovariate():
    # The engine draws Poisson gaps and exponential service times inline as
    # now - log(1 - random()) / lam, Random.expovariate's formula written out,
    # so the floats match bit for bit. Should an interpreter change
    # expovariate, this test names the cause where only golden hashes would fail.
    for seed in (0, 1, 7, 12345):
        for lam in (0.5, 8.0, 1785.7, 37607.1, 1e6):
            inline, ref = random.Random(seed), random.Random(seed)
            now = 0.25
            for _ in range(200):
                at = now - math.log(1.0 - inline.random()) / lam
                assert at == now + ref.expovariate(lam)
                now = at


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
    delivered = [p for p in m.packets if p.delivered_s is not None]
    assert delivered and len(delivered) < len(m.packets)
    for p in delivered:
        assert p.delivered_s > p.created_s


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
    p90_codel = percentile(codel.delay_samples_s, 90.0)
    p90_tail = percentile(tail.delay_samples_s, 90.0)
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
    for position in ((math.nan, 50.0, 10.0), (50.0, 10.0)):
        with pytest.raises(ValueError, match="fixed_position"):
            SimConfig(placement="fixed", fixed_position=position)


# --- percentiles and pooling ----------------------------------------------

def test_nearest_rank_percentiles():
    samples = [3.0, 1.0, 4.0, 2.0]
    assert percentile(samples, 90.0) == 4.0
    assert percentile(samples, 50.0) == 2.0
    assert percentile(samples, 30.0) == 2.0  # rank ceil(1.2) = 2
    assert percentile(samples, 0.0) == 1.0
    assert percentile(samples, 100.0) == 4.0
    assert percentile(iter(samples), 25.0) == 1.0
    assert samples == [3.0, 1.0, 4.0, 2.0]
    for p in (-0.1, 100.1, math.nan):
        with pytest.raises(ValueError):
            percentile(samples, p)


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        percentile([], 90.0)
    with pytest.raises(ValueError):
        percentile(iter(()), 50.0)


def test_merge_pools_samples():
    a = run_single(80e6, seed=1, measure_s=6.0)
    b = run_single(80e6, seed=2, measure_s=6.0)
    merged = merge_metrics([a, b])
    assert len(merged.throughput_samples_bps) == 12
    assert merged.generated == a.generated + b.generated
    assert merged.window_dropped == a.window_dropped + b.window_dropped


def test_merge_refuses_no_runs_and_mixed_windows_or_labels():
    a = run_single(80e6, measure_s=6.0)
    with pytest.raises(ValueError, match="no runs"):
        merge_metrics([])
    for other in (replace(a, measure_s=8.0), replace(a, bootstrap_s=3.0)):
        with pytest.raises(ValueError, match="measurement windows"):
            merge_metrics([a, other])
    with pytest.raises(ValueError, match="labels"):
        merge_metrics([a, replace(a, label="other")])


def test_percentiles_pair_delay_and_throughput():
    m = run_single(80e6, measure_s=6.0)
    delay, throughput = m.percentiles()
    assert delay == percentile(m.delay_samples_s, 90.0)
    assert throughput == percentile(m.throughput_samples_bps, 10.0)
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
    "codel-aimd": "e1d3557a885da08a63173150c1c0941beba65bc91fcbef04892032bec2c480cd",
    "codel-onoff": "d9d278478775203e4529b9bd77e2d3e79e02abec2c14a0efb61b22a4edc7eb49",
    "codel-poisson": "c5fcbcafb17df8bb373842227754ea1a6606515097202fe88cbbb0a38e1b3015",
    "droptail-aimd": "13603552a49609c1fcfa3d3ff143e4c96f7b18f121e3ede811346e035ede85a9",
    "droptail-onoff": "bc13e6bec826bd68897c72b53f06fc652e1f77304858c0848ccabe0d06a9a993",
    "droptail-poisson": "0c0ff970fc8b9b656d99ed8aa3a9128bdf901e6bfa953ecd4f556fa62db8b5b0",
    "exponential": "7ecc0f9cfda2346675e8e7effb62050dfb31419ab2cec1df2605097a34ce3212",
    "onoff-shared-exponential-centroid":
        "31990f136f1b92eba331df7b7f88a9c80609290bdc9a58211ca901c0a3346867",
    "red-aimd": "73d02157de346ffecebe4290766363f0d641b5c142cc8c2cdaf0a48edb8ad759",
    "red-onoff": "601c83608f2721adac4a377caa384220cd1e54a96186f6b6de573603d1e532e0",
    "red-poisson": "5104e01618f72df7dd07b06ccbc6d37d8834fbcac43029b0927c6f3abed4d877",
    "schedule-aimd": "40918702a6968da410d944635be288718c1191f497c8d4a548e31387f7bf1bd1",
    "schedule-onoff": "dded28a36d0cead7f0f266a1f391f39a511ea7e015e905466ef6fa3a547915fc",
    "schedule-poisson": "37892fbbfe33e21d157e9d0b35c110853be4c994b7a823e536922189435482e6",
    "scheduled-aimd": "583f27e901e4fe47c8dd9799aeb479b15ae093632be8c8b45fb7d445fcec02e1",
    "scheduled-onoff": "46f377edaff41ca582bd816a225e06bedb430f45527ac0eed2fc00ce91f8a8bc",
    "scheduled-poisson": "1b57c61b4d4c4ab7fef3ca50a4e8b2af9d69e7b93bdaa0f587d85c4ea73f54a3",
    "shared-nofade": "6e7e5bc81e46f5efa617f01366ddfe6687c5436f68c07ad5a936011f34310868",
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
    rows = [(p.fap_id, p.created_s, p.delivered_s, p.delivered_s is None,
             None if p.delivered_s is None else p.delivered_s - p.created_s) for p in m.packets]
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
    rows = [(p.fap_id, p.created_s, p.delivered_s, p.delivered_s is None,
             None if p.delivered_s is None else p.delivered_s - p.created_s) for p in m.packets]
    digest = hashlib.sha256(repr((replace(m, packets=()), rows)).encode()).hexdigest()
    assert digest == TIE_SHA256[traffic]


# Two static FAPs under gpqm placement whose plan drops the power to -60 dBm,
# where no MCS is reachable, for [1, 2) s and restores 20 dBm at 2 s. Packets
# queue at a link whose rate is 0, and the tick at 2 s serves the idle link
# with packets waiting, a path no cell above reaches. The hashes were computed
# before the engine did each event's work in its own branch.
OUTAGE_CELLS = [
    (queue, traffic, service)
    for queue in ("scheduled", "droptail", "red", "codel")
    for traffic in ("poisson", "onoff", "aimd")
    for service in ("deterministic", "exponential")
]

OUTAGE_SHA256 = {
    "codel-aimd-deterministic": "438cfce17c7177281a287bf88faf02e953b8510e9c68479e7f5a93ec3da91863",
    "codel-aimd-exponential": "a3105544f0ad4ca600dc7789cbd3a4ae2840684a635c063f0876357093475b97",
    "codel-onoff-deterministic":
        "a3e19798b6f2cef41a9c03038060fcb1e03474f7a9b5c21034f7fbbedd300929",
    "codel-onoff-exponential": "ffccade9cdec4d282162285b5849ba307c32de0c1bfe06d5e254d55bfb758976",
    "codel-poisson-deterministic":
        "a5c2724cb83e391a5a8f177faeded8d96eeea49bc93bbe545fd66f862fd8d067",
    "codel-poisson-exponential":
        "2d1ceb836fc9271a06c7a9cde1b2943d138679a9b37a43a6505a7b0a43464f66",
    "droptail-aimd-deterministic":
        "6f96556ac36b5ea51135a71603552e98e338292a38da606db8bb23addf9a7748",
    "droptail-aimd-exponential":
        "6040ab6c9ef8cc2683c82ea9ae08ed8a386c6998e7e8f8e347d311cccbdf01a3",
    "droptail-onoff-deterministic":
        "e44b0673a7319c9baf7e2a4287c7c0ba60db9a4541b0c285df240b2d33d197c5",
    "droptail-onoff-exponential":
        "5a2943b84432502c1c87de84dc09f8c3ead8291dfaecf342517a2101919195a7",
    "droptail-poisson-deterministic":
        "16e702c52e106b9e9efd81b69f5e6fc0a44f20fa86bc0a88aa2c3702aaa8c448",
    "droptail-poisson-exponential":
        "cc0a8a6d3d289eb29d464473b288f2eb2f33247d1219fe39ac1992603c63b1fd",
    "red-aimd-deterministic": "f04db6d6c250700798ecb0fcfba351c82b3d237b879c21c4a6f98ac4943105e0",
    "red-aimd-exponential": "d336536e7ccb7c397813d6ca8e0b64f2bb33f9d9b04422b379ad35242c2459bf",
    "red-onoff-deterministic": "2256b98aa5cac46e790490c3ce4c98f2c58d77526539089dfe8334b9f660cd3d",
    "red-onoff-exponential": "fd3452114358a9499a47dd53e1ea5f1e77c502421f6dcca817fb8811d034bb7c",
    "red-poisson-deterministic":
        "0934e0e06a49edb3186b9ba59344f824cadc088d7e701b7cbfe01e2de769afa2",
    "red-poisson-exponential": "7291d1153c0970ec9fbf87979431f70022764a239d6e839ab9ab40fa486870c0",
    "scheduled-aimd-deterministic":
        "d91308c0076170dfaf1fd22e8da8e1540422c3cfc9faf29bd25a647743553b9c",
    "scheduled-aimd-exponential":
        "b1358bf0c6c06e1258956c81039daec6c2cc8ede449f5bd08f94703be6e6935c",
    "scheduled-onoff-deterministic":
        "5c2831d4d8a281c91cbf14df9442771c13cf633ecc1769ec2701b8d535d9d18c",
    "scheduled-onoff-exponential":
        "8744907f89ecdd753c736bf7be761fdea92dd4620c5e69b4aa36ee14d2388c71",
    "scheduled-poisson-deterministic":
        "863580836b26caab44a638cab03e714113e847b9804e7a3662bc338f4157e571",
    "scheduled-poisson-exponential":
        "d77b2df930fe489ab9053aba68a824d03ca4c306ba86b84389482fe33be493e2",
}


@pytest.fixture(scope="module")
def outage_inputs() -> tuple[ScenarioTrace, PlanSeries]:
    positions = [(30.0, 50.0, 10.0), (70.0, 50.0, 10.0)]
    trace = static_trace(20e6, 3.0, n_faps=2, positions=positions)
    first = replace(plan_series(trace, PlannerConfig()).plans[0], tx_power_dbm=20.0)
    plans = (first, replace(first, t_s=1.0, tx_power_dbm=-60.0), replace(first, t_s=2.0))
    return trace, PlanSeries(plans, 1.0)


@pytest.mark.parametrize("queue,traffic,service", OUTAGE_CELLS)
def test_golden_outage(outage_inputs, queue, traffic, service):
    trace, plan = outage_inputs
    cfg = SimConfig(bootstrap_s=0.5, measure_s=2.5, seed=5, queue=queue, queue_size=20,
                    traffic=traffic, service_mode=service, record_packets=True)
    m = simulate(trace, cfg, plan=plan)
    # the digest of test_golden_outputs
    rows = [(p.fap_id, p.created_s, p.delivered_s, p.delivered_s is None,
             None if p.delivered_s is None else p.delivered_s - p.created_s) for p in m.packets]
    digest = hashlib.sha256(repr((replace(m, packets=()), rows)).encode()).hexdigest()
    assert digest == OUTAGE_SHA256[f"{queue}-{traffic}-{service}"]
