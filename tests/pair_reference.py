"""Reference copy of the two-sphere study's list-based grid seeding.

`sphere_pair_analysis` here tests every point of the 1 m grid with the
scalar `admissible` (`math.dist`), keeps the admissible ones and their totals
in lists, and seeds compass search from the first lowest and the first
highest total. The package screens the grid in NumPy one x-plane at a time
and streams the extremes; the tests require the same seeds and the same
results, bit for bit. The package never imports this module.
"""

from __future__ import annotations

import itertools
import math

from gpqm.placement import (
    OverlapAnalysis,
    SphereConstraint,
    Venue,
    _check_centers,
    _coverage_gap,
    _descend,
    _separation_gap,
    compute_fgw_pos,
)


def grid_axes(spheres: list[SphereConstraint], venue: Venue) -> list[list[float]]:
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
    return axes


def admissible(p, spheres: list[SphereConstraint], venue: Venue) -> bool:
    return (
        _coverage_gap(p, spheres) <= 0.0
        and _separation_gap(p, spheres, venue.min_separation_m) <= 0.0
        and venue.contains(p)
    )


def admissible_grid(spheres: list[SphereConstraint], venue: Venue) -> list:
    """Every admissible point of the 1 m grid, in `itertools.product` order."""
    return [p for p in itertools.product(*grid_axes(spheres, venue))
            if admissible(p, spheres, venue)]


def sphere_pair_analysis(
    first: SphereConstraint,
    second: SphereConstraint,
    venue: Venue,
    capacity_of_distance,
) -> OverlapAnalysis:
    spheres = [first, second]
    _check_centers(spheres, venue)
    d = math.dist(first.center, second.center)
    if d > first.radius_m + second.radius_m:
        return OverlapAnalysis("disjoint", None, None, None, None)
    overlap = "full" if d <= abs(first.radius_m - second.radius_m) else "partial"

    def total(p) -> float:
        return capacity_of_distance(math.dist(p, first.center)) + capacity_of_distance(
            math.dist(p, second.center)
        )

    deepest = compute_fgw_pos(spheres, venue)
    seeds = [deepest.position] if deepest.feasible else []
    seeds += admissible_grid(spheres, venue)
    if not seeds:
        return OverlapAnalysis(overlap, None, None, None, None)

    def refine(start, sign: float):
        return _descend(start, lambda p, bound=math.inf: (
            sign * total(p) if admissible(p, spheres, venue) else math.inf), venue)

    totals = [total(p) for p in seeds]
    min_point = refine(seeds[totals.index(min(totals))], 1.0)
    max_point = refine(seeds[totals.index(max(totals))], -1.0)
    return OverlapAnalysis(overlap, min_point, total(min_point), max_point, total(max_point))
