"""Gateway positioning inside the intersection of link-budget spheres.

Each FAP contributes a sphere: the gateway must sit within `radius` of the
FAP for the link to reach its target SNR. A position is admissible when it
lies in every sphere, inside the venue cuboid, at or above the minimum
altitude, and at least the protection distance away from every FAP.

The search minimises g(p) = max_i(dist(p, fap_i) - radius_i), a convex
piecewise-smooth function whose minimiser is the deepest point of the
intersection; deterministic compass descent with a shrinking step is exact
enough at centimetre scale and needs no derivatives.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

Point = tuple[float, float, float]

# Compass directions: all 26 non-zero offsets in {-1, 0, 1}^3.
_DIRECTIONS = tuple(
    d for d in itertools.product((-1.0, 0.0, 1.0), repeat=3) if d != (0.0, 0.0, 0.0)
)

_STEP_LEVELS = 11  # 8 m halved down to ~0.008 m


@dataclass(frozen=True)
class Venue:
    """Flight volume and protection distances for a deployment."""

    x_max_m: float = 100.0
    y_max_m: float = 100.0
    z_max_m: float = 20.0
    min_separation_m: float = 3.0
    min_altitude_m: float = 1.0

    def __post_init__(self) -> None:
        if not all(0.0 < v < math.inf for v in (self.x_max_m, self.y_max_m, self.z_max_m)):
            raise ValueError("venue dimensions must be positive and finite")
        if not 0.0 <= self.min_altitude_m < self.z_max_m:
            raise ValueError("minimum altitude must lie inside [0, z_max)")
        if not 0.0 <= self.min_separation_m < math.inf:
            raise ValueError("minimum separation must be non-negative and finite")

    def clamp(self, p: Point) -> Point:
        return (
            min(max(p[0], 0.0), self.x_max_m),
            min(max(p[1], 0.0), self.y_max_m),
            min(max(p[2], self.min_altitude_m), self.z_max_m),
        )

    def contains(self, p: Point, tol: float = 1e-9) -> bool:
        return (
            -tol <= p[0] <= self.x_max_m + tol
            and -tol <= p[1] <= self.y_max_m + tol
            and self.min_altitude_m - tol <= p[2] <= self.z_max_m + tol
        )


@dataclass(frozen=True)
class SphereConstraint:
    """Keep the gateway within `radius_m` of the FAP at `center`."""

    center: Point
    radius_m: float

    def __post_init__(self) -> None:
        if not 0.0 < self.radius_m < math.inf:
            raise ValueError(f"sphere radius must be positive and finite, not {self.radius_m}")


@dataclass(frozen=True)
class PlacementResult:
    feasible: bool
    position: Point | None
    margins_m: tuple[float, ...]
    separation_slack_m: float

    @property
    def min_margin_m(self) -> float:
        return min(self.margins_m) if self.margins_m else math.inf


def feasibility_margin(point: Point, spheres: list[SphereConstraint]) -> tuple[float, ...]:
    """Per-sphere slack radius - distance; negative means outside that sphere."""
    return tuple(s.radius_m - math.dist(point, s.center) for s in spheres)


def _coverage_gap(point: Point, spheres: list[SphereConstraint]) -> float:
    return max(math.dist(point, s.center) - s.radius_m for s in spheres)


def _separation_gap(point: Point, spheres: list[SphereConstraint], min_sep: float) -> float:
    return max(min_sep - math.dist(point, s.center) for s in spheres)


def _descend(start: Point, objective, venue: Venue) -> Point:
    """Compass pattern search over the clamped venue, step 8 m halving down."""
    best = venue.clamp(start)
    best_val = objective(best)
    step = 8.0
    for _ in range(_STEP_LEVELS):
        while True:
            move = None
            move_val = best_val
            for d in _DIRECTIONS:
                cand = venue.clamp(
                    (best[0] + step * d[0], best[1] + step * d[1], best[2] + step * d[2])
                )
                val = objective(cand)
                if val < move_val - 1e-15:
                    move = cand
                    move_val = val
            if move is None:
                break
            best = move
            best_val = move_val
        step *= 0.5
    return best


def _weighted_centroid(spheres: list[SphereConstraint]) -> Point:
    # Tighter spheres pull harder: weight 1/r^2.
    wsum = 0.0
    acc = [0.0, 0.0, 0.0]
    for s in spheres:
        w = 1.0 / (s.radius_m * s.radius_m)
        wsum += w
        for k in range(3):
            acc[k] += w * s.center[k]
    return (acc[0] / wsum, acc[1] / wsum, acc[2] / wsum)


def compute_fgw_pos(spheres: list[SphereConstraint], venue: Venue) -> PlacementResult:
    """Deepest admissible gateway position, or an infeasible result.

    Deterministic: identical inputs give bit-identical output.
    """
    if not spheres:
        raise ValueError("at least one sphere constraint is required")
    for s in spheres:
        if not venue.contains(s.center):
            raise ValueError(f"sphere center {s.center} lies outside the venue")

    # Pairwise spheres must intersect for the full intersection to exist.
    for a, b in itertools.combinations(spheres, 2):
        if math.dist(a.center, b.center) > a.radius_m + b.radius_m:
            return PlacementResult(False, None, (), -math.inf)

    pos = _descend(_weighted_centroid(spheres), lambda p: _coverage_gap(p, spheres), venue)
    if _coverage_gap(pos, spheres) > 0.0:
        return PlacementResult(False, None, (), -math.inf)

    min_sep = venue.min_separation_m
    if _separation_gap(pos, spheres, min_sep) > 0.0:
        # Too close to some FAP. First find any admissible point (max of the
        # two gaps is <= 0 exactly when both are), then go as deep as the
        # protection distance allows with moves that never re-enter it.
        def fenced(p: Point) -> float:
            return max(_coverage_gap(p, spheres), _separation_gap(p, spheres, min_sep))

        pos = _descend(pos, fenced, venue)
        if fenced(pos) > 0.0:
            return PlacementResult(False, None, (), -math.inf)

        def standoff_kept(p: Point) -> float:
            if _separation_gap(p, spheres, min_sep) > 0.0:
                return math.inf
            return _coverage_gap(p, spheres)

        pos = _descend(pos, standoff_kept, venue)

    margins = feasibility_margin(pos, spheres)
    sep = min(math.dist(pos, s.center) for s in spheres) - min_sep
    return PlacementResult(True, pos, margins, sep)


@dataclass(frozen=True)
class OverlapAnalysis:
    """Coverage relation of two link spheres and capacity extremes inside it."""

    overlap: str  # disjoint | partial | full
    min_point: Point | None
    min_value_bps: float | None
    max_point: Point | None
    max_value_bps: float | None


def sphere_pair_analysis(
    first: SphereConstraint,
    second: SphereConstraint,
    venue: Venue,
    capacity_of_distance,
) -> OverlapAnalysis:
    """Classify two spheres' overlap and find total-capacity extremes inside it.

    `capacity_of_distance` maps a gateway-to-FAP distance in metres to the
    capacity of that link in bit/s; the objective is the sum over both links.
    Grid seeding at 1 m plus local refinement; admissibility matches
    compute_fgw_pos (both spheres, venue, altitude, separation).
    """
    d = math.dist(first.center, second.center)
    if d > first.radius_m + second.radius_m:
        return OverlapAnalysis("disjoint", None, None, None, None)
    overlap = "full" if d <= abs(first.radius_m - second.radius_m) else "partial"

    spheres = [first, second]
    min_sep = venue.min_separation_m

    def admissible(p: Point) -> bool:
        return (
            _coverage_gap(p, spheres) <= 0.0
            and _separation_gap(p, spheres, min_sep) <= 0.0
            and venue.contains(p)
        )

    def total(p: Point) -> float:
        return capacity_of_distance(math.dist(p, first.center)) + capacity_of_distance(
            math.dist(p, second.center)
        )

    axes = []
    bounds = ((0.0, venue.x_max_m), (0.0, venue.y_max_m), (venue.min_altitude_m, venue.z_max_m))
    for k, (floor, ceiling) in enumerate(bounds):
        v = max(floor, min(s.center[k] - s.radius_m for s in spheres))
        top = min(ceiling, max(s.center[k] + s.radius_m for s in spheres))
        axis = []
        while v <= top + 1e-9:
            axis.append(v)
            v += 1.0
        axes.append(axis)

    deepest = compute_fgw_pos(spheres, venue)
    seeds = [deepest.position] if deepest.feasible else []
    seeds += [p for p in itertools.product(*axes) if admissible(p)]
    if not seeds:
        return OverlapAnalysis(overlap, None, None, None, None)

    def refine(start: Point, sign: float) -> Point:
        return _descend(start, lambda p: sign * total(p) if admissible(p) else math.inf, venue)

    totals = [total(p) for p in seeds]
    min_point = refine(seeds[totals.index(min(totals))], 1.0)
    max_point = refine(seeds[totals.index(max(totals))], -1.0)
    return OverlapAnalysis(overlap, min_point, total(min_point), max_point, total(max_point))
