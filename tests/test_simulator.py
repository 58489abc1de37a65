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


def golden_digest(trace: ScenarioTrace, m) -> str:
    """SHA-256 of every field of `m`, packet records included.

    It first checks that the records come grouped by FAP, in scenario order,
    and that the delay samples are the records' deliveries in the window, in
    the records' order.
    """
    order = {f.fap_id: i for i, f in enumerate(trace.faps)}
    ranks = [order[p.fap_id] for p in m.packets]
    assert ranks == sorted(ranks)
    lo, hi = m.bootstrap_s, m.bootstrap_s + m.measure_s
    assert m.delay_samples_s == tuple(
        p.delivered_s - p.created_s for p in m.packets
        if p.delivered_s is not None and lo <= p.delivered_s < hi
    )
    # Tuples of the records' fields repr faster than the dataclasses themselves.
    rows = [(p.fap_id, p.created_s, p.delivered_s, p.delivered_s is None,
             None if p.delivered_s is None else p.delivered_s - p.created_s) for p in m.packets]
    return hashlib.sha256(repr((replace(m, packets=()), rows)).encode()).hexdigest()

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
    "centroid": "3e0b433c886d105b29a700170bd0b15c13746bd2b90641b63323fc17c7b93a85",
    "codel-aimd": "96705b570c794583188496fd5c21743e36b70a052fad06d2bb5d8e7b4512c267",
    "codel-onoff": "03ce014f68c96d253afe3cae407bf414298198b011f7df6fb69d7b65109d1a9d",
    "codel-poisson": "3f5491d17c86536f701b1dc7409e66a4d770b403cad4a9135568ee485bfa4158",
    "droptail-aimd": "a9ff7255d5ecea16beae5a52eb7d11f9f32773a1ae1bf1d61f383e0cf2913590",
    "droptail-onoff": "003dcea0d9bca2197a560d7f994680619161a28139b14a01c1e5dad0659209c0",
    "droptail-poisson": "6a30cc06c52e177dda68a9af1b74dba39b6adbb96f052ad7da3251f67c592d9e",
    "exponential": "8ce9d63dbbcb20c647c6a3bdbe28db3520204744adff547408ba83e2b62b6ab8",
    "onoff-shared-exponential-centroid":
        "98ca86859b7c072201d5535d7d96b1a2324600a77055ed828ed3ae6189500bfd",
    "red-aimd": "ea81c49fbd087c8349ae7301d9fa6ac533a4e464bd9030034c09255b222882a3",
    "red-onoff": "2fb2c8e853cbf971731194d4763f2e5a22765d3aed5e3642c435ab2231a6ae91",
    "red-poisson": "64991ff67d9b7e896f987cf6415befdea81884ffa25f8943eca187ea8dba998b",
    "schedule-aimd": "8f0650d128d579a9f3d47f2cbc1f5ef5819b42fbb5c25496656c23a2c1fb6cda",
    "schedule-onoff": "2f2bd3cb7ae0c7e63acbbb4b77f2a194859d87e468a847cfa8aa68d56b4c94ec",
    "schedule-poisson": "b1a80334ecf280c343f28d693afec3566c44c872b222f29041bc0dc5e84db33a",
    "scheduled-aimd": "146d501fe30a29b41de248643694227a9094a4d8078003673b50e940f0d35ef1",
    "scheduled-onoff": "611e144f7eaa5e03591657a74ffc98c27ed4a0b22218686e0665920f6a152ba3",
    "scheduled-poisson": "72aa573e83a67317f81bf1298c58e5f3f836038d0775e93f04f50e13bccc57ba",
    "shared-nofade": "2a790fb285bc9ec58ffe2b9bc1b4c158aa83270f2fe6354499e5815fb22e52e9",
    "silent-aimd": "5d9ee5b7f2f75873e8ba0545b030849baf581d09ef59f0bb9e16c2dc2828ec69",
    "silent-onoff": "e7644a2969fc5644af052aa9613b6ca46e6d7339eda92fa88292c107a3578ec4",
    "silent-poisson": "e29e134f80d48c60e31b635245dc60bfe87502035fd0463186523a00e758b231",
    "venue-center": "364e5ae38c45d0f31a439bcd4e5ea4bbce88802c1710a8ab1eeb6f70b66d68e6",
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
    assert golden_digest(trace, m) == GOLDEN_SHA256[cell]


# Three identical static FAPs equidistant from the venue centre, fading off and
# deterministic service: their events keep falling at equal times. In this
# window AIMD has 110 846 pairs of equal-time events of different FAPs next to
# each other in time order, on/off 10 318; on/off also has 5 arrivals due at the
# instant of a departure of their own FAP. These pin the FAP-major order of the
# outputs, which such cross-FAP ties must not disturb, and the within-FAP rule
# that of two events due at one time the one scheduled first runs first.
TIE_SHA256 = {
    "aimd": "a6f3d5a4139de7e6b7f333de2bbe17e0b86a48472982b2b8e4f93ea40b0ec235",
    "onoff": "1008cafe6b5e5457037956ef7704c060160917651bd433681fb3e34a866697e6",
}


@pytest.mark.parametrize("traffic", sorted(TIE_SHA256))
def test_golden_cross_fap_ties(traffic):
    positions = [(70.0, 50.0, 10.0), (30.0, 50.0, 10.0), (50.0, 70.0, 10.0)]
    trace = static_trace(1.2 * 0.8 * 526.5e6 / 3.0, 3.0, n_faps=3, positions=positions)
    cfg = SimConfig(bootstrap_s=0.5, measure_s=2.5, seed=3, placement="venue-center",
                    queue="droptail", queue_size=6, traffic=traffic, fading=False,
                    service_mode="deterministic", record_packets=True)
    m = simulate(trace, cfg)
    assert golden_digest(trace, m) == TIE_SHA256[traffic]


# Two static FAPs under gpqm placement whose plan drops the power to -60 dBm,
# where no MCS is reachable, for [1, 2) s and restores 20 dBm at 2 s. Packets
# queue at a link whose rate is 0, and the tick at 2 s serves the idle link
# with packets waiting, a path no cell above reaches.
OUTAGE_CELLS = [
    (queue, traffic, service)
    for queue in ("scheduled", "droptail", "red", "codel")
    for traffic in ("poisson", "onoff", "aimd")
    for service in ("deterministic", "exponential")
]

OUTAGE_SHA256 = {
    "codel-aimd-deterministic": "978422143c742cff0e6f056c4db9de85e35ec00199d084e8bfcee5513b2e0204",
    "codel-aimd-exponential": "29516308fb89338adf85a2de0a7d954b3292ffcf2f4bf05e02ab3c686bb6a653",
    "codel-onoff-deterministic":
        "54c8d12c2f952477b0cc562c815539acbb9604e5954700f0b654e01eb8502a11",
    "codel-onoff-exponential": "f6d10eea3bf18e592bb5f015a7cf4230f8732b607a2a99c89c8eabc2ae76368b",
    "codel-poisson-deterministic":
        "e9eed8ca036527e8b9ebad280c595238dff4221c06d771f1b14c9e09e99ff310",
    "codel-poisson-exponential":
        "91c489c794ab723b7e2831c61ef2a39eb6418922e4b43f41b8c6d1703d96bd11",
    "droptail-aimd-deterministic":
        "2dabd570abf118ee889fbd5506d119958e21697ae8b54cd6879b807ecce82181",
    "droptail-aimd-exponential":
        "8494ff78e83bde922d0978a2ade0f4ee3009027de64bf0e916eb3d34483034bf",
    "droptail-onoff-deterministic":
        "908ea4b617c53305f7ff60f38a82d320608a715b7c84fcf343690b04b9b70dbb",
    "droptail-onoff-exponential":
        "33b18e32308af37f5a746ff8d142b18072c40e5a3b5e8b60507922444ef8b142",
    "droptail-poisson-deterministic":
        "9e9964924b6454a5bf96ac809b813005ecf90da1ad50bea03739923e05b64f24",
    "droptail-poisson-exponential":
        "6bb0be2d8363f5f2c496fa78f640101ba69bcd68878f7aafe90a3b5dd3b05973",
    "red-aimd-deterministic": "1949c931b892e75acece4272658e6c4de09bbc06bc4a826bf4bab69c18630e92",
    "red-aimd-exponential": "53f079fce4aacd3a9e0efd31ff4ab283d9eec06930134dabce83e740c50fdad0",
    "red-onoff-deterministic": "097392be6e05c56bbeacedf2a5563144b97a23d0fc028b4b4344cd18539f0f05",
    "red-onoff-exponential": "905d7537e56fc6e08c83fab81aa8894631954de812707911d23f9737ba6ef551",
    "red-poisson-deterministic":
        "5662e285d15e0ea7a9bd5ed96790b186b66e438dc54bef9c5361e01a099d84e5",
    "red-poisson-exponential": "c69a6581d637bc2b9b9472baa5a4fc400ef0b74c288cbc8941a41d41ca97427f",
    "scheduled-aimd-deterministic":
        "61266eb7563501c47808f8b9b16b81e551db399255c1f94e77ba28e67f5d3553",
    "scheduled-aimd-exponential":
        "89534d77d5fa0ea76473b3282971f691f7cbc8f8f2a955c50ed086557842badd",
    "scheduled-onoff-deterministic":
        "cd064d8feaef5accaf28188cf83f79b888d4a8c6ee470daf3b91ce496e350e69",
    "scheduled-onoff-exponential":
        "63edc64ad748e4c1e248ad4cd95f5a394a2b52dcdebf62b21427055c8589fa82",
    "scheduled-poisson-deterministic":
        "c2b214c73f612350c5a6eedab5fb8842ee815c2cd34c8f2410e649028dd7f8d5",
    "scheduled-poisson-exponential":
        "faf4fb160ae6e5974409f9a98ece0f157d7ab3ade6a8b5353eaf68bdec10670c",
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
    assert golden_digest(trace, m) == OUTAGE_SHA256[f"{queue}-{traffic}-{service}"]
