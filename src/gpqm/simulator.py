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
instant. FAPs interact only at ticks, so from one tick to the next each FAP
runs its own loop over its two pending events, the next arrival and the next
departure; within a FAP, events due at the same time run in the order they
were scheduled. Each FAP keeps its delay samples and packet records in the
order of its own events, and a run's outputs are the FAPs' outputs one FAP
after another, in scenario order.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from math import log
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

PLACEMENTS = ("gpqm", "centroid", "venue-center", "fixed")
QUEUES = ("scheduled", "droptail", "red", "codel")
TRAFFIC_MODELS = ("poisson", "onoff", "aimd")
CHANNEL_MODES = ("independent", "shared")
SERVICE_MODES = ("deterministic", "exponential")
# The percentile every report gives: SimMetrics.percentiles (and so
# summary.json and the benchmark CSV) and `gpqm analyze cdf`.
PERCENTILE = 90.0


@dataclass(frozen=True)
class SimConfig:
    bootstrap_s: float = 30.0
    measure_s: float = 70.0
    seed: int = 1
    placement: str = "gpqm"
    queue: str = "scheduled"
    queue_size: int = 100  # droptail and red only: scheduled takes the plan's, codel its own
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
        if self.fixed_position is not None and not (
            len(self.fixed_position) == 3 and all(map(math.isfinite, self.fixed_position))
        ):
            raise ValueError(f"fixed_position must be 3 finite numbers, not {self.fixed_position}")


class PacketRecord(NamedTuple):
    """One packet's source, creation time and delivery time (None if dropped)."""

    fap_id: str
    created_s: float
    delivered_s: float | None


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
        delay = percentile(delays, PERCENTILE) if delays else math.inf
        return delay, percentile(self.throughput_samples_bps, 100.0 - PERCENTILE)


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
    at one time, the one scheduled first runs first. Its delay samples and
    packet records collect in `delays` and `records`, in the order of the
    events that made them.
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
        self.delays: list[float] = []
        self.records: list[PacketRecord] = []
        self.generated = self.delivered = self.dropped = 0
        self.w_generated = self.w_delivered = self.w_dropped = 0

    def next_arrival(self, now: float) -> float:
        """Time of the source's next packet after `now` (inf if it sends no more).

        `run` draws Poisson's and AIMD's inline, by the same formulas.
        """
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

    def drop(self, now: float, created: float) -> None:
        """Count a packet dropped at `now`; AIMD backs off."""
        cfg = self.config
        self.dropped += 1
        if cfg.bootstrap_s <= now < cfg.bootstrap_s + cfg.measure_s:
            self.w_dropped += 1
        if cfg.traffic == "aimd":
            self.aimd_rate_bps = max(self.aimd_rate_bps * 0.5, PACKET_BITS)
        if cfg.record_packets:
            self.records.append(PacketRecord(self.trace.fap_id, created, None))

    def pull(self, now: float) -> float | None:
        """The queue's next packet, dropping what the queue discards on the way."""
        pkt, drops = self.queue.pull(now)
        for created in drops:
            self.drop(now, created)
        return pkt

    def run(self, now: float, until: float) -> None:
        """Run the events due from the tick at `now` to before `until`, first
        serving an idle link.

        An arrival is counted, then joins the queue or is dropped, starts the
        server if it is idle, then the source schedules its next packet; a
        departure delivers its packet, then the server takes the next one.
        """
        cfg = self.config
        lo, hi = cfg.bootstrap_s, cfg.bootstrap_s + cfg.measure_s
        traffic = cfg.traffic
        poisson, aimd = traffic == "poisson", traffic == "aimd"
        lam = self.demand_bps / PACKET_BITS  # Poisson's packets per second
        arr_random = self.arr_rng.random
        next_arrival = self.next_arrival
        record = cfg.record_packets
        fap_id = self.trace.fap_id
        queue = self.queue
        # Drop-tail queues (static and scheduled) admit and pull here; RED and CoDel by hook.
        plain = type(queue) is DropTailQueue
        items, limit, admit, pull = queue.items, queue.limit, queue.admit, self.pull
        drop = self.drop
        thr = self.thr_bins
        last_bin = len(thr) - 1
        delays, records = self.delays.append, self.records.append
        rate, prop = self.rate_bps, self.prop_s
        st = PACKET_BITS / rate if rate > 0.0 else math.inf
        mu = rate / PACKET_BITS  # exponential service's packets per second
        srv_random = None if cfg.service_mode == "deterministic" else self.srv_rng.random
        serving, arrival_at, departure_at = self.serving, self.arrival_at, self.departure_at
        arrival_last = self.arrival_last
        generated = delivered = w_generated = w_delivered = 0

        if serving is None and rate > 0.0:
            serving = pull(now)
            if serving is not None:
                departure_at = (now + st if srv_random is None
                                else now - log(1.0 - srv_random()) / mu)
                arrival_last = False
        while True:
            if arrival_at < departure_at or (arrival_at == departure_at and not arrival_last):
                now = arrival_at
                if now >= until:
                    break
                generated += 1
                if lo <= now < hi:
                    w_generated += 1
                in_system = len(items) + (serving is not None)
                if in_system < limit if plain else admit(in_system):
                    items.append(now)
                    if serving is None and rate > 0.0:
                        serving = items.popleft() if plain else pull(now)
                        if serving is not None:
                            departure_at = (now + st if srv_random is None
                                            else now - log(1.0 - srv_random()) / mu)
                            arrival_last = False
                else:
                    drop(now, now)
                # Random.expovariate's own formula, inline: the same floats
                if poisson:
                    arrival_at = now - log(1.0 - arr_random()) / lam
                elif aimd:
                    arrival_at = now + PACKET_BITS / self.aimd_rate_bps
                else:
                    arrival_at = next_arrival(now)
                arrival_last = True
            else:
                now = departure_at
                if now >= until:
                    break
                created, serving, departure_at = serving, None, math.inf
                delivered_at = now + prop
                delivered += 1
                if lo <= delivered_at < hi:
                    w_delivered += 1
                    delays(delivered_at - created)
                    # an offset that rounds up to measure_s belongs to the last bin
                    thr[min(int(delivered_at - lo), last_bin)] += PACKET_BITS
                if record:
                    records(PacketRecord(fap_id, created, delivered_at))
                if aimd:
                    self.aimd_rate_bps = min(self.aimd_rate_bps + PACKET_BITS, self.demand_bps)
                if rate > 0.0:
                    serving = (items.popleft() if items else None) if plain else pull(now)
                    if serving is not None:
                        departure_at = (now + st if srv_random is None
                                        else now - log(1.0 - srv_random()) / mu)
                        arrival_last = False

        self.serving, self.arrival_at, self.departure_at = serving, arrival_at, departure_at
        self.arrival_last = arrival_last
        self.generated += generated
        self.delivered += delivered
        self.w_generated += w_generated
        self.w_delivered += w_delivered


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
    for tb in range(int(math.ceil(duration))):
        _tick(config, trace, plan, table, faps, float(tb))
        for f in faps:
            f.run(float(tb), min(tb + 1.0, duration))
    # The FAPs' outputs one after another, each FAP's emptied as it joins, so
    # that no output is held three times: in a FAP's list, the joined list and
    # the tuple.
    delays: list[float] = []
    records: list[PacketRecord] = []
    for f in faps:
        delays += f.delays
        records += f.records
        f.delays.clear()
        f.records.clear()

    return SimMetrics(
        label=f"{config.placement}-{config.queue}",
        seed=config.seed,
        bootstrap_s=config.bootstrap_s,
        measure_s=config.measure_s,
        throughput_samples_bps=tuple(thr_bins),
        delay_samples_s=tuple(delays),
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


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the max(1, ceil(p/100 * n))-th of the n samples in order."""
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples to take a percentile of")
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


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
