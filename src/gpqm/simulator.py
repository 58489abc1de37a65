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
tick takes effect after every event due before it and before any event due
at its instant. A tick reads no queue state, so every tick is settled first,
into a table of each FAP's settings at each second; then each FAP runs
through all its ticks on its own, over its two pending events, the next
arrival and the next departure. Within a FAP, events due at the same time
run in the order they were scheduled. Each FAP keeps its delay samples,
throughput bins and packet records in the order of its own events, and a
run's outputs are the FAPs' outputs one FAP after another, in scenario order
(the bins summed). A FAP's packet records are two columns, creation and
delivery times, with None delivered for a drop.
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
# A run whose sources would send more packets than this at their peak demands
# is refused: at the 1.2-2.6 us a packet costs, that is one to two minutes of
# simulation. The largest run of the tests, the README and the benchmark (the
# congested scenarios of acceptance test AC4) expects 2.2 million.
_MAX_PACKETS = 50_000_000
# A run of more FAP-ticks (FAPs times started seconds) than this is refused
# before the first event: the settings table takes about 104 bytes a FAP-tick,
# 10 MB at the bound, and 3 FAPs at 100 bit/s ticked for 3e4 s, just under it,
# take 0.7 s. The largest run of the tests, the README and the benchmark ticks
# 3 FAPs 100 times.
_MAX_TICKS = 100_000
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
        if self.seed < 0:
            # random.Random seeds a negative int by its absolute value, and
            # seeds -1 and 1 would draw one FAP's arrivals from one stream.
            raise ValueError(f"seed must be non-negative, not {self.seed}")
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


class FapPackets(NamedTuple):
    """One FAP's packet records as columns: the i-th packet's creation time
    and delivery time (None if dropped), in the order of the FAP's events."""

    fap_id: str
    created_s: tuple[float, ...]
    delivered_s: tuple[float | None, ...]


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
    packets: tuple[FapPackets, ...] = ()  # one per FAP, in scenario order

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

    def pull(self, now: float, drop) -> float | None:
        """The next packet to serve (None if empty); each packet the queue
        discards on the way goes to drop(now, created) first."""
        return self.items.popleft() if self.items else None


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

    def pull(self, now: float, drop) -> float | None:
        pkt, ok_to_drop = self._dodequeue(now)
        if self.dropping:
            if not ok_to_drop:
                self.dropping = False
            else:
                while pkt is not None and self.dropping and now >= self.drop_next:
                    drop(now, pkt)
                    self.count += 1
                    pkt, ok_to_drop = self._dodequeue(now)
                    if not ok_to_drop:
                        self.dropping = False
                    else:
                        self.drop_next += _CODEL_INTERVAL_S / math.sqrt(self.count)
        elif ok_to_drop:
            drop(now, pkt)
            pkt, _ = self._dodequeue(now)
            self.dropping = True
            delta = self.count - 2
            if delta > 1 and now - self.drop_next < 8.0 * _CODEL_INTERVAL_S:
                self.count = delta
            else:
                self.count = 1
            self.drop_next = now + _CODEL_INTERVAL_S / math.sqrt(self.count)
        return pkt


# --- engine ---------------------------------------------------------------


class _Fap:
    """One FAP's source, queue and server, run through all its ticks in one call.

    Its pending events are the next arrival and the next departure; of two due
    at one time, the one scheduled first runs first. Its delay samples
    collect in `delays`, its in-window deliveries in its own throughput bins
    and its packet records in the columns `created_s` and `delivered_s`, in
    the order of the events that made them. It shares no mutable state with
    another FAP: its run reads only its settings rows and its own streams.
    """

    def __init__(self, i: int, trace_fap, config: SimConfig):
        self.trace = trace_fap
        self.queue = _queue(config, i)
        self.arr_rng = _stream(config, 2 * i)
        self.srv_rng = _stream(config, 2 * i + 1)
        self.config = config
        # One bin per started second of the window; the last may cover part of a second.
        self.thr_bins = [0.0] * math.ceil(config.measure_s)
        # End of an on/off source's on period: a draw for any other would shift its arrivals.
        self.off_at = self.arr_rng.expovariate(2.0) if config.traffic == "onoff" else math.inf
        self.delays: list[float] = []
        self.created_s: list[float] = []
        self.delivered_s: list[float | None] = []
        self.dropped = self.w_dropped = 0

    def next_arrival(self, now: float) -> float:
        """Time of an on/off source's next packet after `now` (inf if it sends no more).

        `run` draws Poisson's and AIMD's inline.
        """
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
            self.created_s.append(created)
            self.delivered_s.append(None)

    def run(self, settings, duration: float) -> None:
        """Run the FAP through all its ticks, settled beforehand by
        `_tick_settings`, in one call, to `duration`: `settings[t]` is the
        (rate, propagation delay, queue limit or None, demand) of the tick at
        t s. The demand is Poisson's rate and AIMD's ceiling; on/off reads
        the demand at each packet.

        A tick takes effect after every event due before it and before any
        event due at its instant, then serves an idle link. An arrival is
        counted, then joins the queue or is dropped, starts the server if it
        is idle, then the source schedules its next packet; a departure
        delivers its packet, then the server takes the next one.
        """
        cfg = self.config
        lo, hi = cfg.bootstrap_s, cfg.bootstrap_s + cfg.measure_s
        traffic = cfg.traffic
        poisson, aimd = traffic == "poisson", traffic == "aimd"
        arr_random = self.arr_rng.random
        next_arrival = self.next_arrival
        record = cfg.record_packets
        queue = self.queue
        # Drop-tail queues (static and scheduled) admit and pull here; RED and CoDel by hook.
        plain = type(queue) is DropTailQueue
        items, limit, admit, pull = queue.items, queue.limit, queue.admit, queue.pull
        drop = self.drop
        thr = self.thr_bins
        last_bin = len(thr) - 1
        delays = self.delays.append
        record_created, record_delivered = self.created_s.append, self.delivered_s.append
        srv_random = None if cfg.service_mode == "deterministic" else self.srv_rng.random
        serving, departure_at = None, math.inf
        arrival_last = True  # whether the pending arrival was scheduled after the departure
        generated = delivered = w_generated = w_delivered = 0
        demand = settings[0][3]
        self.aimd_rate_bps = demand / 2.0
        if demand > 0.0:  # a silent source stays silent (see DemandProfile)
            # the first arrival, drawn as every later one below
            if poisson:
                arrival_at = 0.0 - log(1.0 - arr_random()) / (demand / PACKET_BITS)
            elif aimd:
                arrival_at = 0.0 + PACKET_BITS / self.aimd_rate_bps
            else:
                arrival_at = next_arrival(0.0)
        else:
            arrival_at = math.inf

        for tick, (rate, prop, tick_limit, demand) in enumerate(settings):
            now = float(tick)
            until = min(now + 1.0, duration)
            if tick_limit is not None:
                limit = tick_limit
            lam = demand / PACKET_BITS  # Poisson's packets per second
            st = PACKET_BITS / rate if rate > 0.0 else math.inf
            mu = rate / PACKET_BITS  # exponential service's packets per second
            if serving is None and rate > 0.0:
                serving = pull(now, drop)
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
                            serving = items.popleft() if plain else pull(now, drop)
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
                        record_created(created)
                        record_delivered(delivered_at)
                    if aimd:
                        self.aimd_rate_bps = min(self.aimd_rate_bps + PACKET_BITS, demand)
                    if rate > 0.0:
                        serving = (items.popleft() if items else None) if plain else pull(now, drop)
                        if serving is not None:
                            departure_at = (now + st if srv_random is None
                                            else now - log(1.0 - srv_random()) / mu)
                            arrival_last = False

        self.generated, self.delivered = generated, delivered
        self.w_generated, self.w_delivered = w_generated, w_delivered
        self.residual = len(items) + (serving is not None)


def _stream(config: SimConfig, offset: int) -> random.Random:
    """The run's random stream `offset`: each FAP's arrivals, service, fading and RED."""
    return random.Random(config.seed * 1_000_003 + offset)


def _queue(config: SimConfig, i: int) -> DropTailQueue:
    if config.queue == "red":
        return RedQueue(config.queue_size, _stream(config, 800_000 + i))
    if config.queue == "codel":
        return CoDelQueue()
    return DropTailQueue(config.queue_size)  # scheduled takes the plan's limits at each tick


def _tick_settings(config: SimConfig, trace: ScenarioTrace, plan, n_ticks: int):
    """Each FAP's (rate, propagation delay, queue limit or None, demand) at
    the ticks 0, 1, ..., n_ticks - 1 s: `settings[i][t]` for FAP i at t s.

    A tick reads the positions, the plan, the MCS table, the demand schedule
    and each FAP's own fading stream, but no queue state, so every tick is
    settled before any packet moves.
    """
    channel, venue, faps = trace.channel, trace.venue, trace.faps
    table = trace.mcs_table()
    fade_rngs = [_stream(config, 700_000 + i) for i in range(len(faps))]
    settings: list[list[tuple]] = [[] for _ in faps]
    for tick in range(n_ticks):
        now = float(tick)
        cur = plan.at(now) if config.placement == "gpqm" or config.queue == "scheduled" else None
        sched = {fp.fap_id: fp.queue_pkts for fp in cur.faps} if config.queue == "scheduled" else None
        tx = config.baseline_tx_power_dbm
        if config.placement == "gpqm":
            fgw, tx = cur.fgw_position, cur.tx_power_dbm
        elif config.placement == "venue-center":
            fgw = (venue.x_max_m / 2.0, venue.y_max_m / 2.0, venue.z_max_m / 2.0)
        elif config.placement == "fixed":
            fgw = config.fixed_position
        else:  # centroid, refreshed on the planning grid like the planner
            t_grid = math.floor(now / trace.planning_period_s) * trace.planning_period_s
            points = [f.position_at(t_grid) for f in faps]
            fgw = tuple(sum(p[k] for p in points) / len(points) for k in range(3))

        props, selected = [], []
        for f, fade_rng in zip(faps, fade_rngs):
            d = max(math.dist(f.position_at(now), fgw), 1e-3)
            props.append(d / SPEED_OF_LIGHT_MPS)
            snr = friis_snr_db(channel, tx, d)
            if config.fading:
                snr = rician_snr_sample(snr, channel.rician_k_db, fade_rng)
            selected.append(table.for_snr(snr))
        rates = [m.fair_share_bps if m is not None else 0.0 for m in selected]
        phy_rates = [m.phy_rate_bps for m in selected if m is not None]
        if config.channel_mode == "shared" and phy_rates:
            cap = channel.mac_efficiency * max(phy_rates)
            total = sum(rates)
            if total > cap:
                rates = [r * (cap / total) for r in rates]

        for rows, f, rate, prop in zip(settings, faps, rates, props):
            rows.append((rate, prop, sched[f.fap_id] if sched is not None else None,
                         f.demand.at(now)))
    return settings


def simulate(
    trace: ScenarioTrace, config: SimConfig, plan: PlanSeries | None = None
) -> SimMetrics:
    """Run one seeded simulation of a scenario against its own MCS ladder.

    Every tick is settled first (`_tick_settings`); then each FAP runs
    through all its ticks on its own, and the outputs are joined FAP by FAP.
    """
    duration = config.bootstrap_s + config.measure_s
    if trace.duration_s + 1e-9 < duration:
        raise ValueError(
            f"trace covers {trace.duration_s} s but the run needs {duration} s"
        )
    expected = sum(f.demand.peak_bps for f in trace.faps) / PACKET_BITS * duration
    if expected > _MAX_PACKETS:
        raise ValueError(
            f"the run would send about {expected:.3g} packets at peak demand, more than "
            f"{_MAX_PACKETS}: lower the demands or shorten the run"
        )
    n_ticks = math.ceil(duration)
    if len(trace.faps) * n_ticks > _MAX_TICKS:
        raise ValueError(
            f"the run would tick {len(trace.faps)} FAPs {n_ticks} times each, more than "
            f"{_MAX_TICKS} FAP-ticks: shorten the run"
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
    settings = _tick_settings(config, trace, plan, n_ticks)
    faps = [_Fap(i, tf, config) for i, tf in enumerate(trace.faps)]
    for f, rows in zip(faps, settings):
        f.run(rows, duration)
    # The FAPs' delays one after another, each FAP's emptied as it joins, so
    # that no sample is held three times: in a FAP's list, the joined list and
    # the tuple. Each FAP's records become its own tuples as its lists go.
    delays: list[float] = []
    packets = []
    for f in faps:
        delays += f.delays
        f.delays.clear()
        if config.record_packets:
            packets.append(FapPackets(f.trace.fap_id, tuple(f.created_s), tuple(f.delivered_s)))
            f.created_s.clear()
            f.delivered_s.clear()

    return SimMetrics(
        label=f"{config.placement}-{config.queue}",
        seed=config.seed,
        bootstrap_s=config.bootstrap_s,
        measure_s=config.measure_s,
        # exact in any order: every bin holds a whole multiple of PACKET_BITS
        throughput_samples_bps=tuple(map(sum, zip(*(f.thr_bins for f in faps)))),
        delay_samples_s=tuple(delays),
        generated=sum(f.generated for f in faps),
        delivered=sum(f.delivered for f in faps),
        dropped=sum(f.dropped for f in faps),
        residual=sum(f.residual for f in faps),
        window_generated=sum(f.w_generated for f in faps),
        window_delivered=sum(f.w_delivered for f in faps),
        window_dropped=sum(f.w_dropped for f in faps),
        # exact: every delivered packet adds the same whole number of bits
        per_fap_goodput_bps={
            f.trace.fap_id: f.w_delivered * PACKET_BITS / config.measure_s for f in faps
        },
        packets=tuple(packets),
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
