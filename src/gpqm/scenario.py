"""Deployment scenarios: FAP mobility traces, demands and file formats.

A scenario holds per-FAP waypoint traces (random-waypoint mobility or
externally supplied), per-FAP demand profiles, the venue, the radio
parameters and the planning cadence. Snapshots sampled from the trace are
what the planner consumes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .channel import ChannelParams, McsEntry, McsTable, default_mcs_table
from .placement import Point, Venue
from .queueing import PACKET_BITS

Waypoint = tuple[float, float, float, float]  # (t_s, x, y, z)

DEFAULT_PLANNING_PERIOD_S = 5.0

# A random-waypoint path that would hold more waypoints than this is refused:
# a default 100 s path at 3 m/s holds about 5, one at 1e6 m/s over 6 s about
# 10 000, and a path at 1e308 m/s would practically never finish drawing.
_MAX_WAYPOINTS = 100_000
# A trace planned at more instants than this is refused when its snapshots are
# listed: a default 100 s trace has 21, and one of 1e9 s at 5 s would have 2e8.
_MAX_SNAPSHOTS = 100_000


@dataclass(frozen=True)
class MobilityParams:
    """Random-waypoint parameters; planar_z_m fixes the altitude when set."""

    speed_min_mps: float = 0.5
    speed_max_mps: float = 3.0
    pause_s: float = 0.0
    planar_z_m: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.speed_min_mps <= self.speed_max_mps < math.inf:
            raise ValueError("speeds must satisfy 0 < min <= max < inf")
        if not 0.0 <= self.pause_s < math.inf:
            raise ValueError("pause must be non-negative and finite")
        if self.planar_z_m is not None and not math.isfinite(self.planar_z_m):
            raise ValueError("planar altitude must be finite")


@dataclass(frozen=True)
class DemandProfile:
    """Constant offered load, or a piecewise-constant schedule of (t_from, bps).

    A constant of exactly zero models a silent source; schedule entries must
    stay positive because a source cannot restart from silence.
    """

    constant_bps: float | None = None
    schedule: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.constant_bps is None and not self.schedule:
            raise ValueError("demand profile needs a constant or a schedule")
        if self.constant_bps is not None and not 0.0 <= self.constant_bps < math.inf:
            raise ValueError("demand must be non-negative and finite")
        for t_from, bps in self.schedule:
            if not (math.isfinite(t_from) and 0.0 < bps < math.inf):
                raise ValueError("schedule times must be finite and demands positive and finite")
        times = [t for t, _ in self.schedule]
        if times != sorted(times):
            raise ValueError("demand schedule must be time-ordered")
        # A Poisson source draws its gaps at rate demand / PACKET_BITS.
        for bps in (self.constant_bps, *(bps for _, bps in self.schedule)):
            if bps and bps / PACKET_BITS == 0.0:
                raise ValueError(
                    f"demand {bps!r} bit/s is too small: its rate in packets per second "
                    f"underflows to 0"
                )

    @property
    def peak_bps(self) -> float:
        """The largest demand over all time."""
        if self.constant_bps is not None:
            return self.constant_bps
        return max(bps for _, bps in self.schedule)

    def at(self, t_s: float) -> float:
        if self.constant_bps is not None:
            return self.constant_bps
        for t_from, bps in reversed(self.schedule):
            if t_from <= t_s:
                return bps
        return self.schedule[0][1]


@dataclass(frozen=True)
class FapTrace:
    """One FAP's identity, movement and offered load over time."""

    fap_id: str
    waypoints: tuple[Waypoint, ...]
    demand: DemandProfile

    def __post_init__(self) -> None:
        if not self.waypoints:
            raise ValueError("a FAP trace needs at least one waypoint")
        if not all(math.isfinite(v) for w in self.waypoints for v in w):
            raise ValueError(f"FAP {self.fap_id}: waypoints must be finite")
        times = [w[0] for w in self.waypoints]
        if times != sorted(times):
            raise ValueError("waypoints must be time-ordered")

    def position_at(self, t_s: float) -> Point:
        wps = self.waypoints
        if t_s <= wps[0][0]:
            return wps[0][1:]
        if t_s >= wps[-1][0]:
            return wps[-1][1:]
        for prev, cur in zip(wps, wps[1:]):
            if t_s <= cur[0]:
                span = cur[0] - prev[0]
                if span <= 0.0:
                    return cur[1:]
                f = (t_s - prev[0]) / span
                return (
                    prev[1] + f * (cur[1] - prev[1]),
                    prev[2] + f * (cur[2] - prev[2]),
                    prev[3] + f * (cur[3] - prev[3]),
                )
        return wps[-1][1:]


@dataclass(frozen=True)
class FapState:
    """A FAP frozen at one instant: where it is and what it asks for."""

    fap_id: str
    position: Point
    demand_bps: float

    def __post_init__(self) -> None:
        if self.demand_bps <= 0.0:
            raise ValueError(
                f"FAP {self.fap_id} has demand {self.demand_bps} bit/s: a silent FAP "
                "can be simulated but not planned"
            )


@dataclass(frozen=True)
class Snapshot:
    t_s: float
    faps: tuple[FapState, ...]

    def __post_init__(self) -> None:
        if not self.faps:
            raise ValueError("snapshot needs at least one FAP")


@dataclass(frozen=True)
class ScenarioTrace:
    venue: Venue
    channel: ChannelParams
    faps: tuple[FapTrace, ...]
    duration_s: float
    planning_period_s: float
    seed: int
    mobility: MobilityParams = MobilityParams()
    mcs_overrides: tuple[McsEntry, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 < self.duration_s < math.inf:
            raise ValueError(f"duration must be positive and finite, not {self.duration_s}")
        if not 1.0 <= self.planning_period_s < math.inf:
            raise ValueError("planning period must be finite and at least 1 s")
        ids = [f.fap_id for f in self.faps]
        if len(set(ids)) != len(ids):
            raise ValueError("FAP ids must be unique")
        z, venue = self.mobility.planar_z_m, self.venue
        if z is not None and not venue.min_altitude_m <= z <= venue.z_max_m:
            raise ValueError(
                f"planar altitude {z} m outside the venue's "
                f"[{venue.min_altitude_m}, {venue.z_max_m}] m"
            )

    def snapshot_at(self, t_s: float) -> Snapshot:
        if not 0.0 <= t_s <= self.duration_s:
            raise ValueError(f"time {t_s} outside the trace [0, {self.duration_s}]")
        return Snapshot(
            t_s,
            tuple(
                FapState(f.fap_id, f.position_at(t_s), f.demand.at(t_s)) for f in self.faps
            ),
        )

    def snapshots(self) -> list[Snapshot]:
        count = math.floor(self.duration_s / self.planning_period_s) + 1
        if count > _MAX_SNAPSHOTS:
            raise ValueError(
                f"a {self.duration_s} s trace planned every {self.planning_period_s} s "
                f"would hold more than {_MAX_SNAPSHOTS} snapshots"
            )
        return [self.snapshot_at(k * self.planning_period_s) for k in range(count)]

    def mcs_table(self) -> McsTable:
        """Default ladder for this contender count with any overrides applied."""
        base = default_mcs_table(len(self.faps), self.channel.mac_efficiency)
        if not self.mcs_overrides:
            return base
        rows = {e.index: e for e in base.entries}
        for e in self.mcs_overrides:
            rows[e.index] = e
        return McsTable(tuple(rows[i] for i in sorted(rows)))


def reference_fair_share_bps(n_faps: int, efficiency: float = 0.8) -> float:
    """Fair share of the highest calibrated MCS for this contender count."""
    return default_mcs_table(n_faps, efficiency).entry(7).fair_share_bps


DEFAULT_DEMAND_FRACTIONS = (0.25, 0.75, 0.90)


def _random_point(rng: random.Random, venue: Venue, mobility: MobilityParams) -> Point:
    if mobility.planar_z_m is not None:
        z = mobility.planar_z_m
    else:
        z = rng.uniform(venue.min_altitude_m, venue.z_max_m)
    return (rng.uniform(0.0, venue.x_max_m), rng.uniform(0.0, venue.y_max_m), z)


def _random_waypoints(
    rng: random.Random, venue: Venue, mobility: MobilityParams, duration_s: float
) -> tuple[Waypoint, ...]:
    if not math.isfinite(duration_s):
        raise ValueError(f"duration must be positive and finite, not {duration_s}")
    pos = _random_point(rng, venue, mobility)
    t = 0.0
    points = [(t, *pos)]
    while t < duration_s:
        if len(points) >= _MAX_WAYPOINTS:
            raise ValueError(
                f"a random-waypoint path at up to {mobility.speed_max_mps} m/s over "
                f"{duration_s} s would hold more than {_MAX_WAYPOINTS} waypoints"
            )
        target = _random_point(rng, venue, mobility)
        speed = rng.uniform(mobility.speed_min_mps, mobility.speed_max_mps)
        leg = math.dist(pos, target) / speed
        if leg > 0.0:
            t += leg
            points.append((t, *target))
            pos = target
        if mobility.pause_s > 0.0 and t < duration_s:
            t += mobility.pause_s
            points.append((t, *pos))
    return tuple(points)


def generate_rwm(
    n_faps: int,
    duration_s: float,
    seed: int,
    mobility: MobilityParams | None = None,
    planning_period_s: float = DEFAULT_PLANNING_PERIOD_S,
    demands_bps: list[float] | None = None,
    demand_fractions: tuple[float, ...] = DEFAULT_DEMAND_FRACTIONS,
) -> ScenarioTrace:
    """Random-waypoint scenario for `n_faps` FAPs in the default venue and channel.

    Fully determined by `seed`. Demands default to cycling `demand_fractions`
    of the reference fair share for this contender count; explicit
    `demands_bps` override.
    """
    if n_faps < 1:
        raise ValueError("need at least one FAP")
    venue, channel = Venue(), ChannelParams()
    mobility = mobility or MobilityParams()
    if demands_bps is not None and len(demands_bps) != n_faps:
        raise ValueError("one demand per FAP required")

    reference = reference_fair_share_bps(n_faps, channel.mac_efficiency)
    rng = random.Random(seed)
    faps = []
    for i in range(n_faps):
        wps = _random_waypoints(rng, venue, mobility, duration_s)
        if demands_bps is not None:
            demand = demands_bps[i]
        else:
            demand = demand_fractions[i % len(demand_fractions)] * reference
        faps.append(FapTrace(f"fap{i}", wps, DemandProfile(constant_bps=demand)))
    return ScenarioTrace(
        venue=venue,
        channel=channel,
        faps=tuple(faps),
        duration_s=duration_s,
        planning_period_s=planning_period_s,
        seed=seed,
        mobility=mobility,
    )


# --- file formats ---------------------------------------------------------


def _to_dict(obj, rename: dict[str, str] | None = None) -> dict:
    """A dataclass as a dict under its field names, some renamed per `rename`."""
    rename = rename or {}
    return {rename.get(f.name, f.name): getattr(obj, f.name) for f in fields(obj)}


# The JSON types a schema or field annotation may name, and the values each accepts.
_JSON_TYPES = {
    "float": (int, float), "int": (int,), "str": (str,), "object": (dict,), "list": (list,),
    "list of objects": (list,),
}


def _check_type(where: str, key: str, annotation: str, value) -> None:
    base = annotation.removesuffix(" | None")
    if value is None and base != annotation:
        return
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[base]):
        raise ValueError(f"{where}: {key} must be {annotation}, not {value!r}")
    if base == "list of objects":
        for i, entry in enumerate(value):
            _check_type(where, f"each {key} entry ({key}[{i}])", "object", entry)


def _section(where: str, data, schema: dict[str, str], defaults: dict) -> dict:
    """Check a JSON object against a `{key: JSON type}` schema; return it with `defaults` added.

    Raises a ValueError naming `where` and every key outside the schema, the
    first value of the wrong type, or every schema key that is neither present
    nor in `defaults`; an int is accepted where a float is expected.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be object, not {data!r}")
    unknown = [k for k in data if k not in schema]
    if unknown:
        raise ValueError(f"{where}: unknown keys {unknown}")
    for k, v in data.items():
        _check_type(where, k, schema[k], v)
    missing = [k for k in schema if k not in data and k not in defaults]
    if missing:
        raise ValueError(f"{where}: missing keys {missing}")
    return {**defaults, **data}


def _rows(where: str, key: str, rows: list, width: int) -> tuple[tuple[float, ...], ...]:
    """A list of rows of `width` numbers each, as tuples of floats."""
    for row in rows:
        if not isinstance(row, list) or len(row) != width:
            raise ValueError(f"{where}: each {key} row must hold {width} numbers, not {row!r}")
        for v in row:
            _check_type(where, key, "float", v)
    return tuple(tuple(float(v) for v in row) for row in rows)


def _from_dict(cls, data: dict, rename: dict[str, str] | None = None):
    """Inverse of `_to_dict`: a `_section` whose schema and defaults are the fields'."""
    keys = {(rename or {}).get(f.name, f.name): f for f in fields(cls)}
    defaults = {k: f.default for k, f in keys.items() if f.default is not MISSING}
    section = _section(cls.__name__, data, {k: f.type for k, f in keys.items()}, defaults)
    return cls(**{keys[k].name: v for k, v in section.items()})


def scenario_to_json(trace: ScenarioTrace) -> dict:
    faps = []
    for f in trace.faps:
        entry: dict = {"id": f.fap_id, "waypoints": [list(w) for w in f.waypoints]}
        if f.demand.constant_bps is not None:
            entry["demand_bps"] = f.demand.constant_bps
        else:
            entry["demand_schedule"] = [list(s) for s in f.demand.schedule]
        faps.append(entry)
    return {
        "venue": _to_dict(trace.venue),
        "channel": _to_dict(trace.channel),
        "mcs_overrides": [_to_dict(e) for e in trace.mcs_overrides],
        "mobility": _to_dict(trace.mobility),
        "faps": faps,
        "duration_s": trace.duration_s,
        "planning_period_s": trace.planning_period_s,
        "seed": trace.seed,
    }


# Every key a scenario file and each of its FAP entries may hold, the JSON type
# of its value, and the default of each optional key.
_SCENARIO_KEYS = {
    "venue": "object", "channel": "object", "mcs_overrides": "list of objects",
    "mobility": "object", "faps": "list of objects", "duration_s": "float",
    "planning_period_s": "float", "seed": "int",
}
_SCENARIO_DEFAULTS = {"mcs_overrides": [], "mobility": {}, "seed": 0,
                      "planning_period_s": DEFAULT_PLANNING_PERIOD_S}
_FAP_KEYS = {"id": "str", "waypoints": "list", "demand_bps": "float", "demand_schedule": "list"}
_FAP_DEFAULTS = {"waypoints": None, "demand_bps": None, "demand_schedule": None}


def scenario_from_json(data: dict) -> ScenarioTrace:
    """Build a trace from the JSON schema; missing waypoints are regenerated.

    If some FAP lacks waypoints, every FAP's are drawn from the stored seed in
    file order and replaced by the file's own where it has them, so a file
    without any waypoints reloads to the exact trace `generate_rwm` would
    produce. A file with every FAP's waypoints draws none.
    """
    data = _section("scenario", data, _SCENARIO_KEYS, _SCENARIO_DEFAULTS)
    venue = _from_dict(Venue, data["venue"])
    mobility = _from_dict(MobilityParams, data["mobility"])
    duration = float(data["duration_s"])
    gen_rng = random.Random(data["seed"])
    draw = any(entry.get("waypoints") is None for entry in data["faps"])
    faps = []
    for i, entry in enumerate(data["faps"]):
        where = f"FAP {entry['id']}" if "id" in entry else f"faps[{i}]"
        entry = _section(where, entry, _FAP_KEYS, _FAP_DEFAULTS)
        if (entry["demand_bps"] is None) == (entry["demand_schedule"] is None):
            raise ValueError(f"{where}: needs exactly one of demand_bps and demand_schedule")
        wps = _random_waypoints(gen_rng, venue, mobility, duration) if draw else None
        if entry["waypoints"] is not None:
            wps = _rows(where, "waypoints", entry["waypoints"], 4)
        if entry["demand_bps"] is not None:
            demand = DemandProfile(constant_bps=float(entry["demand_bps"]))
        else:
            schedule = _rows(where, "demand_schedule", entry["demand_schedule"], 2)
            demand = DemandProfile(schedule=schedule)
        faps.append(FapTrace(entry["id"], wps, demand))
    return ScenarioTrace(
        venue=venue,
        channel=_from_dict(ChannelParams, data["channel"]),
        faps=tuple(faps),
        duration_s=duration,
        planning_period_s=float(data["planning_period_s"]),
        seed=data["seed"],
        mobility=mobility,
        mcs_overrides=tuple(_from_dict(McsEntry, e) for e in data["mcs_overrides"]),
    )


def save_scenario(trace: ScenarioTrace, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_json(trace), indent=2))


def load_scenario(path: str | Path) -> ScenarioTrace:
    return scenario_from_json(json.loads(Path(path).read_text()))
