"""Deterministic discrete-event simulator for the FAP-to-gateway uplink.

Each FAP is an arrival source feeding a finite queue drained by a server
whose rate is the link's instantaneous fair share (SNR to MCS at current
positions, optional per-second Rician fading). Queue disciplines: the
planner-scheduled drop-tail, a static drop-tail, RED and CoDel. Traffic:
Poisson, exponential on/off, and a rate-halving AIMD approximation. An
on/off source draws its exponential on and off periods (mean 0.5 s) as it
schedules; a packet due at or after the end of its on period is not sent.

Everything is driven by seeded `random.Random` streams and a total event
order, so identical inputs reproduce bit-identical metrics. Ticks, once per
whole second, set positions, rates, scheduled queue limits, Poisson's rate and
AIMD's ceiling (on/off reads the demand at each packet): a tick runs after
every event due before it and before any event due at its instant; other
events due at the same time run in the order they were scheduled. The event
heap holds only packet arrivals and departures.
"""

from __future__ import annotations

import bisect
import heapq
import math
import random
from collections import deque
from dataclasses import dataclass
from itertools import count

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
    label: str | None = None

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
        if self.bootstrap_s < 0.0 or self.measure_s <= 0.0:
            raise ValueError("bootstrap must be >= 0 and measure > 0")
        if self.queue_size < 1:
            raise ValueError("queue size must be at least 1")
        if self.placement == "fixed" and self.fixed_position is None:
            raise ValueError("fixed placement needs fixed_position")

    @property
    def effective_label(self) -> str:
        return self.label if self.label is not None else f"{self.placement}-{self.queue}"


@dataclass(frozen=True)
class PacketRecord:
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

    def percentiles(self, p: float = 90.0) -> tuple[float, float]:
        """p-th percentile delay (inf without delays), throughput exceeded by p% of seconds."""
        delay = summarize(self.delay_samples_s).percentile(p) if self.delay_samples_s else math.inf
        return delay, summarize(self.throughput_samples_bps).percentile(100.0 - p)


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
    def __init__(self, i: int, trace_fap, config: SimConfig):
        base = config.seed * 1_000_003
        self.trace = trace_fap
        self.queue = _queue(config, base, i)
        self.arr_rng = random.Random(base + 2 * i)
        self.srv_rng = random.Random(base + 2 * i + 1)
        self.fade_rng = random.Random(base + 700_000 + i)
        self.serving = None
        self.rate_bps = 0.0
        self.prop_s = 0.0
        self.demand_bps = trace_fap.demand.at(0.0)  # Poisson's rate, AIMD's ceiling
        self.aimd_rate_bps = self.demand_bps / 2.0
        # End of an on/off source's on period: a draw for any other would shift its arrivals.
        self.off_at = self.arr_rng.expovariate(2.0) if config.traffic == "onoff" else math.inf
        self.generated = 0
        self.delivered = 0
        self.dropped = 0
        self.w_generated = 0
        self.w_delivered = 0
        self.w_dropped = 0


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


def simulate(
    trace: ScenarioTrace, config: SimConfig, plan: PlanSeries | None = None
) -> SimMetrics:
    """Run one seeded simulation of a scenario against its own MCS ladder."""
    channel = trace.channel
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
    table = trace.mcs_table()
    faps = [_Fap(i, tf, config) for i, tf in enumerate(trace.faps)]
    traffic = config.traffic
    deterministic = config.service_mode == "deterministic"

    # Entries are (t, seq, handler, fap); seq is unique, so ties never compare
    # handlers or FAPs and equal times pop in the order they were pushed.
    heap: list = []
    seq = count()

    def push(t: float, handler, f: _Fap) -> None:
        heapq.heappush(heap, (t, next(seq), handler, f))

    def schedule_arrival(f: _Fap, now: float) -> None:
        """Push the next arrival after `now` of a source that has demand."""
        if traffic == "poisson":
            push(now + f.arr_rng.expovariate(f.demand_bps / PACKET_BITS), arrival, f)
        elif traffic == "aimd":
            push(now + PACKET_BITS / f.aimd_rate_bps, arrival, f)
        else:
            # Skip to the next on period until the packet fits in one or the run ends.
            t = now + PACKET_BITS / f.trace.demand.at(now)
            while t >= f.off_at:
                if f.off_at >= duration:
                    return
                start = f.off_at + f.arr_rng.expovariate(2.0)
                f.off_at = start + f.arr_rng.expovariate(2.0)
                t = start + PACKET_BITS / f.trace.demand.at(start)
            push(t, arrival, f)

    thr_bins: dict[int, float] = {}
    delay_samples: list[float] = []
    records: list[PacketRecord] = []
    in_window_lo = config.bootstrap_s
    record = config.record_packets

    def note_drop(f: _Fap, created: float, now: float) -> None:
        f.dropped += 1
        if in_window_lo <= now < duration:
            f.w_dropped += 1
        if traffic == "aimd":
            f.aimd_rate_bps = max(f.aimd_rate_bps * 0.5, PACKET_BITS)
        if record:
            records.append(PacketRecord(f.trace.fap_id, created, None, True, None))

    def serve(f: _Fap, now: float) -> None:
        """Start the next packet's service if the server is idle and the link is up."""
        if f.serving is not None or f.rate_bps <= 0.0:
            return
        pkt, codel_drops = f.queue.pull(now)
        for created in codel_drops:
            note_drop(f, created, now)
        if pkt is None:
            return
        f.serving = pkt
        if deterministic:
            st = PACKET_BITS / f.rate_bps
        else:
            st = f.srv_rng.expovariate(f.rate_bps / PACKET_BITS)
        push(now + st, departure, f)

    def tick(now: float) -> None:
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
            serve(f, now)

    def arrival(f: _Fap, now: float) -> None:
        f.generated += 1
        if in_window_lo <= now < duration:
            f.w_generated += 1
        in_system = len(f.queue.items) + (1 if f.serving is not None else 0)
        if f.queue.admit(in_system):
            f.queue.items.append(now)
            serve(f, now)
        else:
            note_drop(f, now, now)
        schedule_arrival(f, now)

    def departure(f: _Fap, now: float) -> None:
        created = f.serving
        f.serving = None
        delivered_at = now + f.prop_s
        f.delivered += 1
        if in_window_lo <= delivered_at < duration:
            f.w_delivered += 1
            delay_samples.append(delivered_at - created)
            second = int(delivered_at - in_window_lo)
            thr_bins[second] = thr_bins.get(second, 0.0) + PACKET_BITS
        if record:
            records.append(
                PacketRecord(f.trace.fap_id, created, delivered_at, False, delivered_at - created)
            )
        if traffic == "aimd":
            f.aimd_rate_bps = min(f.aimd_rate_bps + PACKET_BITS, f.demand_bps)
        serve(f, now)

    for f in faps:
        if f.trace.demand.at(0.0) > 0.0:  # a silent source stays silent (see DemandProfile)
            schedule_arrival(f, 0.0)
    # A tick runs before the events due at its instant (see the module docstring).
    for tb in range(int(math.ceil(duration))):
        tick(float(tb))
        until = min(tb + 1.0, duration)
        while heap and heap[0][0] < until:
            now, _, handler, f = heapq.heappop(heap)
            handler(f, now)
    # Break the handlers' reference cycles so the run's records are freed on return.
    heap.clear()
    del arrival, departure

    samples = tuple(thr_bins.get(s, 0.0) for s in range(int(round(config.measure_s))))
    return SimMetrics(
        label=config.effective_label,
        seed=config.seed,
        bootstrap_s=config.bootstrap_s,
        measure_s=config.measure_s,
        throughput_samples_bps=samples,
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


def compare(
    runs: list[SimMetrics], baseline: str, percentile: float = 90.0
) -> dict:
    """Percentile throughput and delay per label, with deltas vs a baseline.

    Delay uses the p-th percentile of the delay distribution; throughput uses
    the value exceeded by p% of per-second samples (the complementary view).
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
        delay_p, thr_p = m.percentiles(percentile)
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
    return {"percentile": percentile, "baseline": baseline, "results": rows}
