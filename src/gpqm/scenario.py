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

Waypoint = tuple[float, float, float, float]  # (t_s, x, y, z)

DEFAULT_PLANNING_PERIOD_S = 5.0


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

    def fap(self, fap_id: str) -> FapTrace:
        for f in self.faps:
            if f.fap_id == fap_id:
                return f
        raise KeyError(f"no FAP {fap_id!r}")

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
    venue: Venue | None = None,
    channel: ChannelParams | None = None,
    mobility: MobilityParams | None = None,
    planning_period_s: float = DEFAULT_PLANNING_PERIOD_S,
    demands_bps: list[float] | None = None,
    demand_fractions: tuple[float, ...] = DEFAULT_DEMAND_FRACTIONS,
) -> ScenarioTrace:
    """Random-waypoint scenario for `n_faps` FAPs, fully determined by `seed`.

    Demands default to cycling `demand_fractions` of the reference fair
    share for this contender count; explicit `demands_bps` override.
    """
    if n_faps < 1:
        raise ValueError("need at least one FAP")
    venue = venue or Venue()
    channel = channel or ChannelParams()
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


def save_waypoints(trace: ScenarioTrace, path: str | Path) -> None:
    """Plain-text waypoint export, one `<fap_id> <t_s> <x> <y> <z>` per line."""
    lines = []
    for f in trace.faps:
        for t, x, y, z in f.waypoints:
            lines.append(f"{f.fap_id} {t!r} {x!r} {y!r} {z!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_waypoints(path: str | Path) -> dict[str, tuple[Waypoint, ...]]:
    """Parse a waypoint text file into per-FAP ordered waypoint tuples."""
    out: dict[str, list[Waypoint]] = {}
    for ln, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"waypoint line {ln}: expected 5 fields, got {len(parts)}")
        fap_id = parts[0]
        try:
            t, x, y, z = (float(v) for v in parts[1:])
        except ValueError as exc:
            raise ValueError(f"waypoint line {ln}: {exc}") from None
        out.setdefault(fap_id, []).append((t, x, y, z))
    return {k: tuple(sorted(v)) for k, v in out.items()}


def _to_dict(obj, rename: dict[str, str] | None = None) -> dict:
    """A dataclass as a dict under its field names, some renamed per `rename`."""
    rename = rename or {}
    return {rename.get(f.name, f.name): getattr(obj, f.name) for f in fields(obj)}


def _reject_unknown(where: str, data: dict, known) -> None:
    unknown = [k for k in data if k not in known]
    if unknown:
        raise ValueError(f"{where}: unknown keys {unknown}")


# The field annotations the codec reads, and the JSON values each accepts.
_JSON_TYPES = {
    "float": (int, float), "int": (int,), "str": (str,), "object": (dict,), "list": (list,),
}


def _check_type(where: str, key: str, annotation: str, value) -> None:
    base = annotation.removesuffix(" | None")
    if value is None and base != annotation:
        return
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[base]):
        raise ValueError(f"{where}: {key} must be {annotation}, not {value!r}")


def _rows(where: str, key: str, rows, width: int) -> tuple[tuple[float, ...], ...]:
    """A list of rows of `width` numbers each, as tuples of floats."""
    if not isinstance(rows, (list, tuple)):
        raise ValueError(f"{where}: {key} must be a list of rows, not {rows!r}")
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != width:
            raise ValueError(f"{where}: each {key} row must hold {width} numbers, not {row!r}")
        for v in row:
            _check_type(where, key, "float", v)
    return tuple(tuple(float(v) for v in row) for row in rows)


def _from_dict(cls, data: dict, rename: dict[str, str] | None = None):
    """Inverse of `_to_dict`.

    Unknown keys, missing keys and values of the wrong type raise a ValueError
    naming them; an int is accepted where a float is expected.
    """
    rename = rename or {}
    keys = {rename.get(f.name, f.name): f for f in fields(cls)}
    _check_type(cls.__name__, "each entry", "object", data)
    _reject_unknown(cls.__name__, data, keys)
    missing = [
        k
        for k, f in keys.items()
        if k not in data and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ValueError(f"{cls.__name__}: missing keys {missing}")
    for k, v in data.items():
        _check_type(cls.__name__, k, keys[k].type, v)
    return cls(**{keys[k].name: v for k, v in data.items()})


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


_FAP_KEYS = ("id", "waypoints", "demand_bps", "demand_schedule")
# Every key a scenario file may hold, and the JSON type of its value.
_SCENARIO_TYPES = {
    "venue": "object", "channel": "object", "mcs_overrides": "list", "mobility": "object",
    "faps": "list", "duration_s": "float", "planning_period_s": "float", "seed": "int",
}


def scenario_from_json(data: dict) -> ScenarioTrace:
    """Build a trace from the JSON schema; missing waypoints are regenerated.

    Every FAP's waypoints are drawn from the stored seed in file order and
    replaced by the file's own where it has them, so a file without any
    waypoints reloads to the exact trace `generate_rwm` would produce.
    """
    _check_type("scenario", "the file", "object", data)
    _reject_unknown("scenario", data, _SCENARIO_TYPES)
    for key, annotation in _SCENARIO_TYPES.items():
        if key in data:
            _check_type("scenario", key, annotation, data[key])
    venue = _from_dict(Venue, data["venue"])
    mobility = _from_dict(MobilityParams, data.get("mobility", {}))
    duration = float(data["duration_s"])
    seed = int(data.get("seed", 0))
    gen_rng = random.Random(seed)
    faps = []
    for entry in data["faps"]:
        _check_type("scenario", "each faps entry", "object", entry)
        where = f"FAP {entry.get('id')}"
        _reject_unknown(where, entry, _FAP_KEYS)
        _check_type(where, "id", "str", entry["id"])
        wps = _random_waypoints(gen_rng, venue, mobility, duration)
        if "waypoints" in entry:
            wps = _rows(where, "waypoints", entry["waypoints"], 4)
        if "demand_bps" in entry:
            _check_type(where, "demand_bps", "float", entry["demand_bps"])
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
        planning_period_s=float(data.get("planning_period_s", DEFAULT_PLANNING_PERIOD_S)),
        seed=seed,
        mobility=mobility,
        mcs_overrides=tuple(_from_dict(McsEntry, e) for e in data.get("mcs_overrides", [])),
    )


def save_scenario(trace: ScenarioTrace, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_json(trace), indent=2))


def load_scenario(path: str | Path) -> ScenarioTrace:
    return scenario_from_json(json.loads(Path(path).read_text()))
