"""Deterministic discrete-event simulator for the FAP-to-gateway uplink.

Each FAP is an arrival source feeding a finite queue drained by a server
whose rate is the link's instantaneous fair share (SNR to MCS at current
positions, optional per-second Rician fading). Queue disciplines: the
planner-scheduled drop-tail, a static drop-tail, RED and CoDel. Traffic:
Poisson, exponential on/off, and a rate-halving AIMD approximation. An
on/off source draws its exponential on and off periods (mean 0.5 s) as it
schedules; a packet due at or after the end of its on period is not sent.

Everything is driven by seeded `random.Random` streams, one set per FAP, and
a total event order, so identical inputs reproduce bit-identical metrics.
Ticks, once per whole second, set positions, rates, scheduled queue limits,
Poisson's rate and AIMD's ceiling (on/off reads the demand at each packet): a
tick runs after every event due before it and before any event due at its
instant. FAPs interact only at ticks, so between two ticks each FAP runs its
own loop over its two pending events, the next arrival and the next
departure; within a FAP, events due at the same time run in the order they
were scheduled. The FAPs' delay samples and packet records are then merged in
the time order of the events that made them; across FAPs, outputs at one
instant are recorded in FAP order.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from .channel import SPEED_OF_LIGHT_MPS, friis_snr_db, rician_snr_sample
from .planner import PlanSeries
from .queueing import PACKET_BITS
from .scenario import ScenarioTrace

# RED drops early between a quarter and three quarters of the queue size.
_RED_MAX_P = 0.1
_RED_WEIGHT = 0.002
_CODEL_TARGET_S = 0.005
_CODEL_INTERVAL_S = 0.1
_CODEL_LIMIT_PKTS = 1000
# FAPs run alone for this long between merges of their outputs: a short slice
# keeps the merge's buffers, and so the run's peak memory, small.
_MERGE_EVERY_S = 1.0 / 16.0

PLACEMENTS = ("gpqm", "centroid", "venue-center", "fixed")
QUEUES = ("scheduled", "droptail", "red", "codel")
TRAFFIC_MODELS = ("poisson", "onoff", "aimd")
CHANNEL_MODES = ("independent", "shared")
SERVICE_MODES = ("deterministic", "exponential")
# The percentile that SimMetrics.percentiles and compare report.
PERCENTILE = 90.0


@dataclass(frozen=True)
class SimConfig:
    bootstrap_s: float = 30.0
    measure_s: float = 70.0
    seed: int = 1
    placement: str = "gpqm"
    queue: str = "scheduled"
    queue_size: int = 100
    traffic: str = "poisson"
    channel_mode: str = "independent"
    fading: bool = True
    service_mode: str = "deterministic"
    baseline_tx_power_dbm: float = 20.0
    fixed_position: tuple[float, float, float] | None = None
    record_packets: bool = False

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENTS:
            raise ValueError(f"unknown placement policy {self.placement!r}")
        if self.queue not in QUEUES:
            raise ValueError(f"unknown queue discipline {self.queue!r}")
        if self.traffic not in TRAFFIC_MODELS:
            raise ValueError(f"unknown traffic model {self.traffic!r}")
        if self.channel_mode not in CHANNEL_MODES:
            raise ValueError(f"unknown channel mode {self.channel_mode!r}")
        if self.service_mode not in SERVICE_MODES:
            raise ValueError(f"unknown service mode {self.service_mode!r}")
        if not (0.0 <= self.bootstrap_s < math.inf and 0.0 < self.measure_s < math.inf):
            raise ValueError("bootstrap must be >= 0 and measure > 0, both finite")
        if not math.isfinite(self.baseline_tx_power_dbm):
            raise ValueError("baseline tx power must be finite")
        if self.queue_size < 1:
            raise ValueError("queue size must be at least 1")
        if self.placement == "fixed" and self.fixed_position is None:
            raise ValueError("fixed placement needs fixed_position")


class PacketRecord(NamedTuple):
    fap_id: str
    created_s: float
    delivered_s: float | None
    dropped: bool
    delay_s: float | None


@dataclass(frozen=True)
class SimMetrics:
    label: str
    seed: int
    bootstrap_s: float
    measure_s: float
    throughput_samples_bps: tuple[float, ...]
    delay_samples_s: tuple[float, ...]
    generated: int
    delivered: int
    dropped: int
    residual: int
    window_generated: int
    window_delivered: int
    window_dropped: int
    per_fap_goodput_bps: dict[str, float]
    packets: tuple[PacketRecord, ...] = ()

    @property
    def plr(self) -> float:
        total = self.window_delivered + self.window_dropped
        return self.window_dropped / total if total else 0.0

    def percentiles(self) -> tuple[float, float]:
        """Delay and throughput at PERCENTILE.

        The delay is the PERCENTILE-th percentile (inf without delays); the
        throughput is the value exceeded in PERCENTILE % of seconds.
        """
        delays = self.delay_samples_s
        delay = summarize(delays).percentile(PERCENTILE) if delays else math.inf
        return delay, summarize(self.throughput_samples_bps).percentile(100.0 - PERCENTILE)


# --- queue disciplines ----------------------------------------------------


class DropTailQueue:
    """Finite FIFO of creation times; the limit counts the packet in service too."""

    def __init__(self, limit: int):
        self.limit = limit
        self.items: deque[float] = deque()

    def admit(self, in_system: int) -> bool:
        return in_system < self.limit

    def pull(self, now: float):
        pkt = self.items.popleft() if self.items else None
        return pkt, ()


class RedQueue(DropTailQueue):
    """Random early detection on an EWMA of the occupancy, over a hard cap."""

    def __init__(self, limit: int, rng: random.Random):
        super().__init__(limit)
        self.min_th = limit / 4.0
        self.max_th = 3.0 * limit / 4.0
        self.rng = rng
        self.avg = 0.0

    def admit(self, in_system: int) -> bool:
        self.avg = (1.0 - _RED_WEIGHT) * self.avg + _RED_WEIGHT * in_system
        if in_system >= self.limit:
            return False
        if self.avg < self.min_th:
            return True
        if self.avg >= self.max_th:
            return False
        p_drop = _RED_MAX_P * (self.avg - self.min_th) / (self.max_th - self.min_th)
        return self.rng.random() >= p_drop


class CoDelQueue(DropTailQueue):
    """Sojourn-controlled queue: drops at dequeue while delay stays above target.

    Follows the ACM Queue 2012 pseudo-code (Nichols & Jacobson), which resumes
    from `count - 2` within 8 intervals, not RFC 8289's `lastcount` form.
    """

    def __init__(self):
        super().__init__(_CODEL_LIMIT_PKTS)
        self.first_above = 0.0
        self.dropping = False
        self.drop_next = 0.0
        self.count = 0

    def _dodequeue(self, now: float):
        if not self.items:
            self.first_above = 0.0
            return None, False
        pkt = self.items.popleft()
        if now - pkt < _CODEL_TARGET_S:  # the packet's sojourn
            self.first_above = 0.0
            return pkt, False
        if self.first_above == 0.0:
            self.first_above = now + _CODEL_INTERVAL_S
            return pkt, False
        return pkt, now >= self.first_above

    def pull(self, now: float):
        dropped = []
        pkt, ok_to_drop = self._dodequeue(now)
        if self.dropping:
            if not ok_to_drop:
                self.dropping = False
            else:
                while pkt is not None and self.dropping and now >= self.drop_next:
                    dropped.append(pkt)
                    self.count += 1
                    pkt, ok_to_drop = self._dodequeue(now)
                    if not ok_to_drop:
                        self.dropping = False
                    else:
                        self.drop_next += _CODEL_INTERVAL_S / math.sqrt(self.count)
        elif ok_to_drop:
            dropped.append(pkt)
            pkt, _ = self._dodequeue(now)
            self.dropping = True
            delta = self.count - 2
            if delta > 1 and now - self.drop_next < 8.0 * _CODEL_INTERVAL_S:
                self.count = delta
            else:
                self.count = 1
            self.drop_next = now + _CODEL_INTERVAL_S / math.sqrt(self.count)
        return pkt, tuple(dropped)


# --- engine ---------------------------------------------------------------


class _Fap:
    """One FAP's source, queue and server, run on its own from tick to tick.

    Its pending events are the next arrival and the next departure; of two due
    at one time, the one scheduled first runs first. Outputs wait in `delays`
    and `records`, each beside the time of the event that made it, until
    `simulate` merges them with the other FAPs'.
    """

    def __init__(self, i: int, trace_fap, config: SimConfig, thr_bins: list[float]):
        base = config.seed * 1_000_003
        self.trace = trace_fap
        self.queue = _queue(config, base, i)
        self.arr_rng = random.Random(base + 2 * i)
        self.srv_rng = random.Random(base + 2 * i + 1)
        self.fade_rng = random.Random(base + 700_000 + i)
        self.config = config
        self.thr_bins = thr_bins
        self.serving = None
        self.rate_bps = 0.0
        self.prop_s = 0.0
        self.demand_bps = trace_fap.demand.at(0.0)  # Poisson's rate, AIMD's ceiling
        self.aimd_rate_bps = self.demand_bps / 2.0
        # End of an on/off source's on period: a draw for any other would shift its arrivals.
        self.off_at = self.arr_rng.expovariate(2.0) if config.traffic == "onoff" else math.inf
        # A silent source stays silent (see DemandProfile).
        self.arrival_at = self.next_arrival(0.0) if self.demand_bps > 0.0 else math.inf
        self.departure_at = math.inf
        self.arrival_last = True  # whether the pending arrival was scheduled after the departure
        self.delay_at: list[float] = []
        self.delays: list[float] = []
        self.record_at: list[float] = []
        self.records: list[PacketRecord] = []
        self.generated = self.delivered = self.dropped = 0
        self.w_generated = self.w_delivered = self.w_dropped = 0

    def next_arrival(self, now: float) -> float:
        """Time of the source's next packet after `now` (inf if it sends no more)."""
        traffic = self.config.traffic
        if traffic == "poisson":
            return now + self.arr_rng.expovariate(self.demand_bps / PACKET_BITS)
        if traffic == "aimd":
            return now + PACKET_BITS / self.aimd_rate_bps
        # Skip to the next on period until the packet fits in one or the run ends.
        demand = self.trace.demand
        t = now + PACKET_BITS / demand.at(now)
        while t >= self.off_at:
            if self.off_at >= self.config.bootstrap_s + self.config.measure_s:
                return math.inf
            start = self.off_at + self.arr_rng.expovariate(2.0)
            self.off_at = start + self.arr_rng.expovariate(2.0)
            t = start + PACKET_BITS / demand.at(start)
        return t

    def run(self, now: float, until: float, tick: bool) -> None:
        """Run the events due from `now` to before `until`, first serving an
        idle link if `now` is a tick.

        An arrival joins the queue or is dropped, the server starts if it is
        idle, then the source schedules its next packet; a departure delivers
        its packet, then the server takes the next one.
        """
        cfg = self.config
        lo, hi = cfg.bootstrap_s, cfg.bootstrap_s + cfg.measure_s
        aimd = cfg.traffic == "aimd"
        record = cfg.record_packets
        fap_id = self.trace.fap_id
        queue = self.queue
        items, admit, pull = queue.items, queue.admit, queue.pull
        next_arrival = self.next_arrival
        thr = self.thr_bins
        last_bin = len(thr) - 1
        delay_at, delays = self.delay_at.append, self.delays.append
        record_at, records = self.record_at.append, self.records.append
        rate, prop = self.rate_bps, self.prop_s
        st = PACKET_BITS / rate if rate > 0.0 else math.inf
        srv_expo = None if cfg.service_mode == "deterministic" else self.srv_rng.expovariate
        serving, arrival_at, departure_at = self.serving, self.arrival_at, self.departure_at
        arrival_last = self.arrival_last
        generated = delivered = dropped = w_generated = w_delivered = w_dropped = 0

        serve, arrival, drops = tick, False, ()
        while True:
            if serve and serving is None and rate > 0.0:
                serving, drops = pull(now)
                if serving is not None:
                    departure_at = now + (st if srv_expo is None else srv_expo(rate / PACKET_BITS))
                    arrival_last = False
            for created in drops:
                dropped += 1
                if lo <= now < hi:
                    w_dropped += 1
                if aimd:
                    self.aimd_rate_bps = max(self.aimd_rate_bps * 0.5, PACKET_BITS)
                if record:
                    record_at(now)
                    records(PacketRecord(fap_id, created, None, True, None))
            if arrival:
                arrival_at = next_arrival(now)
                arrival_last = True

            if arrival_at < departure_at or (arrival_at == departure_at and not arrival_last):
                now = arrival_at
                if now >= until:
                    break
                arrival = True
                generated += 1
                if lo <= now < hi:
                    w_generated += 1
                serve = admit(len(items) + (serving is not None))
                if serve:
                    items.append(now)
                    drops = ()
                else:
                    drops = (now,)
            else:
                now = departure_at
                if now >= until:
                    break
                serve, arrival, drops = True, False, ()
                created, serving, departure_at = serving, None, math.inf
                delivered_at = now + prop
                delivered += 1
                if lo <= delivered_at < hi:
                    w_delivered += 1
                    delay_at(now)
                    delays(delivered_at - created)
                    # an offset that rounds up to measure_s belongs to the last bin
                    thr[min(int(delivered_at - lo), last_bin)] += PACKET_BITS
                if record:
                    record_at(now)
                    records(PacketRecord(fap_id, created, delivered_at, False,
                                         delivered_at - created))
                if aimd:
                    self.aimd_rate_bps = min(self.aimd_rate_bps + PACKET_BITS, self.demand_bps)

        self.serving, self.arrival_at, self.departure_at = serving, arrival_at, departure_at
        self.arrival_last = arrival_last
        self.generated += generated
        self.delivered += delivered
        self.dropped += dropped
        self.w_generated += w_generated
        self.w_delivered += w_delivered
        self.w_dropped += w_dropped


def _merge(out: list, parts: list) -> None:
    """Extend `out` by the FAPs' outputs in the time order of the events that
    made them, equal times in FAP order, and empty the FAPs' buffers.

    `parts` holds each FAP's (times, outputs) lists, in FAP order.
    """
    full = [p for p in parts if p[0]]
    if len(full) == 1:
        out.extend(full[0][1])
    elif full:
        times = list(chain.from_iterable(t for t, _ in full))
        outputs = list(chain.from_iterable(v for _, v in full))
        # sorted is stable, so equal times keep the FAPs' order
        out.extend(map(outputs.__getitem__, sorted(range(len(times)), key=times.__getitem__)))
    for times, outputs in full:
        times.clear()
        outputs.clear()


def _queue(config: SimConfig, base: int, i: int) -> DropTailQueue:
    if config.queue == "red":
        return RedQueue(config.queue_size, random.Random(base + 800_000 + i))
    if config.queue == "codel":
        return CoDelQueue()
    return DropTailQueue(config.queue_size)  # scheduled takes the plan's limits at each tick


def _tick_setting(config: SimConfig, trace: ScenarioTrace, plan, now: float):
    """Gateway position, transmit power and per-FAP queue limits (or None) at a tick."""
    cur = plan.at(now) if config.placement == "gpqm" or config.queue == "scheduled" else None
    sched = {fp.fap_id: fp.queue_pkts for fp in cur.faps} if config.queue == "scheduled" else None
    if config.placement == "gpqm":
        return cur.fgw_position, cur.tx_power_dbm, sched
    venue = trace.venue
    if config.placement == "venue-center":
        fgw = (venue.x_max_m / 2.0, venue.y_max_m / 2.0, venue.z_max_m / 2.0)
    elif config.placement == "fixed":
        fgw = config.fixed_position
    else:  # centroid, refreshed on the planning grid like the planner
        t_grid = math.floor(now / trace.planning_period_s) * trace.planning_period_s
        points = [f.position_at(t_grid) for f in trace.faps]
        fgw = tuple(sum(p[k] for p in points) / len(points) for k in range(3))
    return fgw, config.baseline_tx_power_dbm, sched


def _tick(config: SimConfig, trace: ScenarioTrace, plan, table, faps: list[_Fap],
          now: float) -> None:
    """Set positions, rates, scheduled queue limits and demand."""
    channel = trace.channel
    fgw, tx, sched = _tick_setting(config, trace, plan, now)
    selected = []
    for f in faps:
        pos = f.trace.position_at(now)
        d = max(math.dist(pos, fgw), 1e-3)
        f.prop_s = d / SPEED_OF_LIGHT_MPS
        snr = friis_snr_db(channel, tx, d)
        if config.fading:
            snr = rician_snr_sample(snr, channel.rician_k_db, f.fade_rng)
        mcs = table.for_snr(snr)
        selected.append(mcs)
        f.rate_bps = mcs.fair_share_bps if mcs is not None else 0.0

    phy_rates = [m.phy_rate_bps for m in selected if m is not None]
    if config.channel_mode == "shared" and phy_rates:
        cap = channel.mac_efficiency * max(phy_rates)
        total = sum(f.rate_bps for f in faps)
        if total > cap:
            scale = cap / total
            for f in faps:
                f.rate_bps *= scale

    for f in faps:
        if sched is not None:
            f.queue.limit = sched[f.trace.fap_id]
        f.demand_bps = f.trace.demand.at(now)


def simulate(
    trace: ScenarioTrace, config: SimConfig, plan: PlanSeries | None = None
) -> SimMetrics:
    """Run one seeded simulation of a scenario against its own MCS ladder."""
    duration = config.bootstrap_s + config.measure_s
    if trace.duration_s + 1e-9 < duration:
        raise ValueError(
            f"trace covers {trace.duration_s} s but the run needs {duration} s"
        )
    if config.placement == "gpqm" or config.queue == "scheduled":
        if plan is None:
            raise ValueError("gpqm placement and scheduled queues need a plan")
        if plan.start_s > 1e-9 or plan.end_s + 1e-9 < duration:
            raise ValueError(
                f"plan covers [{plan.start_s}, {plan.end_s}) s but the run needs "
                f"[0, {duration}) s"
            )
    if config.queue == "scheduled":
        ids = sorted(f.fap_id for f in trace.faps)
        for p in plan.plans:
            planned = sorted(f.fap_id for f in p.faps)
            if planned != ids:
                raise ValueError(
                    f"plan at t={p.t_s} s has FAPs {planned}, but the scenario has {ids}"
                )
    table = trace.mcs_table()
    # One bin per started second of the window; the last may cover part of a second.
    thr_bins = [0.0] * math.ceil(config.measure_s)
    faps = [_Fap(i, tf, config, thr_bins) for i, tf in enumerate(trace.faps)]
    delay_samples: list[float] = []
    records: list[PacketRecord] = []
    for tb in range(int(math.ceil(duration))):
        now, end = float(tb), min(tb + 1.0, duration)
        _tick(config, trace, plan, table, faps, now)
        tick = True
        while now < end:
            until = min(now + _MERGE_EVERY_S, end)
            for f in faps:
                f.run(now, until, tick)
            _merge(delay_samples, [(f.delay_at, f.delays) for f in faps])
            _merge(records, [(f.record_at, f.records) for f in faps])
            now, tick = until, False

    return SimMetrics(
        label=f"{config.placement}-{config.queue}",
        seed=config.seed,
        bootstrap_s=config.bootstrap_s,
        measure_s=config.measure_s,
        throughput_samples_bps=tuple(thr_bins),
        delay_samples_s=tuple(delay_samples),
        generated=sum(f.generated for f in faps),
        delivered=sum(f.delivered for f in faps),
        dropped=sum(f.dropped for f in faps),
        residual=sum(len(f.queue.items) + (f.serving is not None) for f in faps),
        window_generated=sum(f.w_generated for f in faps),
        window_delivered=sum(f.w_delivered for f in faps),
        window_dropped=sum(f.w_dropped for f in faps),
        # exact: every delivered packet adds the same whole number of bits
        per_fap_goodput_bps={
            f.trace.fap_id: f.w_delivered * PACKET_BITS / config.measure_s for f in faps
        },
        packets=tuple(records),
    )


# --- metrics --------------------------------------------------------------


@dataclass(frozen=True)
class DistributionSummary:
    """Empirical distribution with nearest-rank percentiles."""

    samples: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("cannot summarise an empty sample set")
        object.__setattr__(self, "samples", tuple(sorted(self.samples)))

    def cdf(self, x: float) -> float:
        return bisect.bisect_right(self.samples, x) / len(self.samples)

    def ccdf(self, x: float) -> float:
        return 1.0 - self.cdf(x)

    def percentile(self, p: float) -> float:
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        n = len(self.samples)
        rank = max(1, math.ceil(p / 100.0 * n))
        return self.samples[rank - 1]


def summarize(samples) -> DistributionSummary:
    return DistributionSummary(tuple(samples))


def merge_metrics(runs: list[SimMetrics]) -> SimMetrics:
    """Pool several seeded runs of the same configuration into one sample set."""
    if not runs:
        raise ValueError("no runs to merge")
    first = runs[0]
    for m in runs[1:]:
        if m.bootstrap_s != first.bootstrap_s or m.measure_s != first.measure_s:
            raise ValueError("cannot merge runs with different measurement windows")
        if m.label != first.label:
            raise ValueError("cannot merge runs with different labels")
    goodput: dict[str, float] = {}
    for m in runs:
        for k, v in m.per_fap_goodput_bps.items():
            goodput[k] = goodput.get(k, 0.0) + v / len(runs)
    return SimMetrics(
        label=first.label,
        seed=first.seed,
        bootstrap_s=first.bootstrap_s,
        measure_s=first.measure_s,
        throughput_samples_bps=tuple(
            s for m in runs for s in m.throughput_samples_bps
        ),
        delay_samples_s=tuple(s for m in runs for s in m.delay_samples_s),
        generated=sum(m.generated for m in runs),
        delivered=sum(m.delivered for m in runs),
        dropped=sum(m.dropped for m in runs),
        residual=sum(m.residual for m in runs),
        window_generated=sum(m.window_generated for m in runs),
        window_delivered=sum(m.window_delivered for m in runs),
        window_dropped=sum(m.window_dropped for m in runs),
        per_fap_goodput_bps=goodput,
    )


def compare(runs: list[SimMetrics], baseline: str) -> dict:
    """Percentile throughput and delay per label, with deltas vs a baseline.

    Delay uses the PERCENTILE-th percentile of the delay distribution;
    throughput the value exceeded by PERCENTILE% of per-second samples (the
    complementary view).
    """
    if not runs:
        raise ValueError("nothing to compare")
    windows = {(m.bootstrap_s, m.measure_s) for m in runs}
    if len(windows) != 1:
        raise ValueError("compared runs must share the measurement window")
    labels = [m.label for m in runs]
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be unique")
    if baseline not in labels:
        raise ValueError(f"baseline {baseline!r} not among {labels}")

    rows: dict[str, dict] = {}
    for m in runs:
        delay_p, thr_p = m.percentiles()
        rows[m.label] = {
            "p_delay_s": delay_p,
            "p_throughput_bps": thr_p,
            "plr": m.plr,
        }
    base = rows[baseline]
    for label, row in rows.items():
        row["delay_vs_baseline"] = (
            (row["p_delay_s"] - base["p_delay_s"]) / base["p_delay_s"]
            if base["p_delay_s"] > 0
            else 0.0
        )
        row["throughput_vs_baseline"] = (
            (row["p_throughput_bps"] - base["p_throughput_bps"]) / base["p_throughput_bps"]
            if base["p_throughput_bps"] > 0
            else 0.0
        )
    return {"percentile": PERCENTILE, "baseline": baseline, "results": rows}
