"""Gateway positioning inside the intersection of link-budget spheres.

Each FAP contributes a sphere: the gateway must sit within `radius` of the
FAP for the link to reach its target SNR. A position is admissible when it
lies in every sphere, inside the venue cuboid, at or above the minimum
altitude, and at least the protection distance away from every FAP.

The deepest point of the intersection minimises the convex function
g(p) = max_i(dist(p, fap_i) - radius_i). With R = max_i radius_i,
g(p) + R = max_i(dist(p, fap_i) + R - radius_i), so the minimiser is the
centre of the smallest ball enclosing balls of radii R - radius_i around the
FAPs (Fischer & Gaertner, "The smallest enclosing ball of balls", 2004).
At most four spheres fix it, and `_deepest_point` solves it exactly by
trying support sets of one to four spheres: each leaves one quadratic in
the depth, and the first root that meets the optimality conditions is the
global minimiser. Sets are screened by the pair-depth floor: every pair's
depth is a lower bound on the optimal depth, so a set whose depth bound lies
below the deepest pair's cannot hold the minimiser and is not solved. When
no root certifies, every set is solved again, unscreened, so that the
uncertified fallback is the deepest candidate of all of them.

Compass search with a shrinking step remains only as the fallback, started
from the exact point, in two cases: where that point lies outside the venue
(a convex combination of FAPs inside the venue does so only by rounding),
and where it lies inside a FAP's protection distance, whose excluded balls
make the admissible set non-convex, so that search stays heuristic. The
search evaluates each point it visits once. A sphere whose radius is under
the protection distance admits no point at all, so no search starts then.

The two-sphere study seeds compass search on a 1 m grid. NumPy screens the
grid one x-plane at a time by each point's worst constraint value; only the
points within a rounding band of 0 go to the scalar `math.dist` test, so the
seeds are bit for bit those of testing every point. The lowest and highest
totals are kept as the seeds stream past, the first of equals winning, so no
list of seeds or totals is built.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

Point = tuple[float, float, float]

# Compass directions: all 26 non-zero offsets in {-1, 0, 1}^3.
_DIRECTIONS = tuple(
    d for d in itertools.product((-1.0, 0.0, 1.0), repeat=3) if d != (0.0, 0.0, 0.0)
)

_STEP_LEVELS = 11  # 8 m halved down to ~0.008 m
CONTAINS_TOL_M = 1e-9
# A support set's centres count as affinely dependent when the determinant of
# their Gram matrix is below this share of the product of its diagonal.
_SINGULAR = 1e-10
_CERTIFY_TOL_M = 1e-9


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

    def contains(self, p: Point) -> bool:
        """Inside the flight volume, up to CONTAINS_TOL_M of float noise."""
        tol = CONTAINS_TOL_M
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
    """Compass pattern search over the clamped venue, step 8 m halving down.

    Each point's objective is computed once: the objectives are pure, and
    read a point only through distances and venue comparisons, for which
    0.0 and -0.0, one dictionary key, are alike.
    """
    x_max, y_max = venue.x_max_m, venue.y_max_m
    z_min, z_max = venue.min_altitude_m, venue.z_max_m
    best = venue.clamp(start)
    best_val = objective(best)
    seen = {best: best_val}
    step = 8.0
    for _ in range(_STEP_LEVELS):
        while True:
            move = None
            move_val = best_val
            bx, by, bz = best
            for dx, dy, dz in _DIRECTIONS:
                # Venue.clamp, inlined: min(max(v, lower), upper)
                x = bx + step * dx
                x = 0.0 if 0.0 > x else x
                y = by + step * dy
                y = 0.0 if 0.0 > y else y
                z = bz + step * dz
                z = z_min if z_min > z else z
                cand = (x_max if x_max < x else x, y_max if y_max < y else y,
                        z_max if z_max < z else z)
                val = seen.get(cand)
                if val is None:
                    val = seen[cand] = objective(cand)
                if val < move_val - 1e-15:
                    move = cand
                    move_val = val
            if move is None:
                break
            best = move
            best_val = move_val
        step *= 0.5
    return best


def _dot(u: Point, v: Point) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _gram_inverse(us: list[Point]) -> list[list[float]] | None:
    """Inverse of the Gram matrix of 1-3 vectors; None when they are (nearly)
    linearly dependent."""
    g = [[_dot(u, v) for v in us] for u in us]
    if len(us) == 1:
        adj, det = [[1.0]], g[0][0]
    elif len(us) == 2:
        adj = [[g[1][1], -g[0][1]], [-g[1][0], g[0][0]]]
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    else:
        adj = [
            [
                g[(j + 1) % 3][(i + 1) % 3] * g[(j + 2) % 3][(i + 2) % 3]
                - g[(j + 1) % 3][(i + 2) % 3] * g[(j + 2) % 3][(i + 1) % 3]
                for j in range(3)
            ]
            for i in range(3)
        ]
        det = g[0][0] * adj[0][0] + g[0][1] * adj[1][0] + g[0][2] * adj[2][0]
    if det <= _SINGULAR * math.prod(g[i][i] for i in range(len(us))):
        return None
    return [[x / det for x in row] for row in adj]


def _support_roots(support: tuple[SphereConstraint, ...]) -> list[tuple[float, Point]]:
    """Depths t and points p, a convex combination of the support's centres,
    with dist(p, c_i)^2 = (t + r_i)^2 for each of its spheres; empty when the
    centres are affinely dependent. A root with some t + r_i < 0 is spurious,
    and the certificate in `_deepest_point` rejects it."""
    first, *rest = support
    c0, r0 = first.center, first.radius_m
    if not rest:
        return [(-r0, c0)]
    us = [(s.center[0] - c0[0], s.center[1] - c0[1], s.center[2] - c0[2]) for s in rest]
    inv = _gram_inverse(us)
    if inv is None:
        return []
    # Subtracting |p - c0|^2 = (t + r0)^2 from |p - c_i|^2 = (t + r_i)^2 leaves
    # (p - c0) . u_i = a_i + b_i t, so p - c0 = qa + t qb with weights wa + t wb
    # on the u_i.
    b = [r0 - s.radius_m for s in rest]
    a = [0.5 * (_dot(u, u) + bi * (r0 + s.radius_m)) for u, bi, s in zip(us, b, rest)]
    wa = [sum(x * y for x, y in zip(row, a)) for row in inv]
    wb = [sum(x * y for x, y in zip(row, b)) for row in inv]
    qa = tuple(sum(w * u[k] for w, u in zip(wa, us)) for k in range(3))
    qb = tuple(sum(w * u[k] for w, u in zip(wb, us)) for k in range(3))
    # |p - c0|^2 = (t + r0)^2 then reads quad t^2 + 2 half_lin t + const = 0.
    quad, half_lin, const = _dot(qb, qb) - 1.0, _dot(qa, qb) - r0, _dot(qa, qa) - r0 * r0
    disc = half_lin * half_lin - quad * const
    if disc < 0.0:
        return []
    # Cancellation-free roots; const / q is the only one when quad vanishes.
    q = -(half_lin + math.copysign(math.sqrt(disc), half_lin))
    roots = ([const / q] if q else []) + ([q / quad] if quad else [])
    out = []
    for t in roots:
        w = [x + t * y for x, y in zip(wa, wb)]
        if min(w) < 0.0 or sum(w) > 1.0:
            continue
        out.append((t, tuple(c0[k] + qa[k] + t * qb[k] for k in range(3))))
    return out


def _depth_bound(support: tuple[SphereConstraint, ...]) -> float:
    """Upper bound on the depth t of any root of `support` that passes the
    weight test of `_support_roots`.

    Such a root's point is a convex combination of the support's centres at
    which every support sphere's gap dist - r equals t: the KKT point of
    minimising the largest of those gaps, so t is that minimum, and no more
    than the largest gap at any point. A spurious root, with dist(p, c_i) =
    -(t + r_i) > 0 for some i, is such a point for radii grown by 2 dist, so
    its t is that minimum for larger spheres, which is no higher. The bound is
    exact for one sphere (-r) and for two, and takes the best of the centres
    and their centroid for three or four.
    """
    if len(support) == 1:
        return -support[0].radius_m
    if len(support) == 2:
        a, b = support
        return max(-a.radius_m, -b.radius_m,
                   0.5 * (math.dist(a.center, b.center) - a.radius_m - b.radius_m))
    centres = [s.center for s in support]
    centroid = tuple(sum(c[k] for c in centres) / len(centres) for k in range(3))
    return min(_coverage_gap(q, support) for q in (*centres, centroid))


def _solve_supports(
    spheres: list[SphereConstraint], supports: Iterable[tuple[SphereConstraint, ...]]
) -> tuple[Point, bool]:
    """The first certified root among `supports`, else the deepest candidate
    among them, uncertified."""
    best_gap, best = math.inf, spheres[0].center
    for support in supports:
        for t, p in _support_roots(support):
            gap = _coverage_gap(p, spheres)
            if gap <= t + _CERTIFY_TOL_M:
                return p, True
            if gap < best_gap:
                best_gap, best = gap, p
    return best, False


def _deepest_point(spheres: list[SphereConstraint]) -> tuple[Point, bool]:
    """Minimiser of max_i(dist(p, c_i) - r_i) over all of space, and whether
    it is certified.

    Support sets of 1-4 spheres are tried in order of size. A root whose
    point has a coverage gap of at most t (+_CERTIFY_TOL_M), every sphere
    counted, meets the KKT conditions of the convex problem, so the first
    such root is the global minimiser.

    Sets are screened by the pair-depth floor. Every pair's exact depth,
    computed once per call, is a lower bound on the optimal depth t*, and a certified root has a depth of
    at least t* - _CERTIFY_TOL_M, so a set whose `_depth_bound` lies below
    the deepest pair's depth, less a margin, cannot hold it and is skipped.
    The margin, 1e-4 of the inputs' reach (largest radius plus coordinate)
    and never under 1e-4 m, covers the tolerance and rounding. The bounds and
    the floor err by a few ulps of the reach; a root's depth by at most about
    the Gram matrix's condition number times that, which `_SINGULAR` keeps
    under about 7e10, so under 2e-5 of the reach. A spurious root obeys the
    same bound (see `_depth_bound`), so it cannot certify inside the margin
    either.

    Should rounding leave no root certified, every set is solved again, with
    no screen, and the deepest candidate among them is returned uncertified.
    """
    def sets(size: int) -> Iterator[tuple[SphereConstraint, ...]]:
        return itertools.combinations(spheres, size)

    pairs = list(sets(2))
    depths = list(map(_depth_bound, pairs))
    reach = max(s.radius_m + max(map(abs, s.center)) for s in spheres)
    floor = max(depths, default=-math.inf) - 1e-4 * max(1.0, reach)
    found = _solve_supports(spheres, itertools.chain(
        (s for s in sets(1) if _depth_bound(s) >= floor),
        (pair for pair, depth in zip(pairs, depths) if depth >= floor),
        (s for s in itertools.chain(sets(3), sets(4)) if _depth_bound(s) >= floor),
    ))
    if found[1]:
        return found
    return _solve_supports(spheres, itertools.chain.from_iterable(map(sets, range(1, 5))))


def _check_centers(spheres: list[SphereConstraint], venue: Venue) -> None:
    for s in spheres:
        if not venue.contains(s.center):
            raise ValueError(f"sphere center {s.center} lies outside the venue")


def compute_fgw_pos(spheres: list[SphereConstraint], venue: Venue) -> PlacementResult:
    """Deepest admissible gateway position, or an infeasible result.

    Deterministic: identical inputs give bit-identical output.
    """
    if not spheres:
        raise ValueError("at least one sphere constraint is required")
    _check_centers(spheres, venue)

    # Pairwise spheres must intersect for the full intersection to exist.
    for a, b in itertools.combinations(spheres, 2):
        if math.dist(a.center, b.center) > a.radius_m + b.radius_m:
            return PlacementResult(False, None, (), -math.inf)

    min_sep = venue.min_separation_m
    if min(s.radius_m for s in spheres) < min_sep:
        # Within such a sphere every point is inside the protection distance.
        return PlacementResult(False, None, (), -math.inf)

    pos, exact = _deepest_point(spheres)
    if not exact or not venue.contains(pos):
        # Compass search from the exact point. That point is a convex
        # combination of centres inside the venue, so it leaves the venue,
        # or misses its certificate, only by rounding.
        pos = _descend(pos, lambda p: _coverage_gap(p, spheres), venue)
    if _coverage_gap(pos, spheres) > 0.0:
        return PlacementResult(False, None, (), -math.inf)

    if _separation_gap(pos, spheres, min_sep) > 0.0:
        # Too close to some FAP. First find any admissible point (max of the
        # two gaps is <= 0 exactly when both are), then go as deep as the
        # protection distance allows with moves that never re-enter it.
        centers = [s.center for s in spheres]
        radii = [s.radius_m for s in spheres]

        def fenced(p: Point) -> float:
            ds = [math.dist(p, c) for c in centers]
            return max(max(map(operator.sub, ds, radii)), min_sep - min(ds))

        pos = _descend(pos, fenced, venue)
        if fenced(pos) > 0.0:
            return PlacementResult(False, None, (), -math.inf)

        def standoff_kept(p: Point) -> float:
            ds = [math.dist(p, c) for c in centers]
            if min(ds) < min_sep:
                return math.inf
            return max(map(operator.sub, ds, radii))

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


def _admissible(p: Point, spheres: list[SphereConstraint], venue: Venue) -> bool:
    """In every sphere, outside every protection distance and in the venue,
    as compute_fgw_pos requires."""
    return (
        _coverage_gap(p, spheres) <= 0.0
        and _separation_gap(p, spheres, venue.min_separation_m) <= 0.0
        and venue.contains(p)
    )


def _admissible_grid(spheres: list[SphereConstraint], venue: Venue) -> Iterator[Point]:
    """The admissible points of the 1 m seed grid over the spheres' extent in
    the venue, in `itertools.product` order, screened one x value's (y, z)
    plane at a time in NumPy.

    A point's worst constraint value is the largest over the spheres of
    d - radius and min_sep - d; `_admissible` accepts it exactly when that
    value, with d from `math.dist`, is at most 0. Each step of `np.sqrt` of
    the sum of squares rounds once, so the screened d lies within 4 eps d of
    `math.dist`'s; the largest gap seen on the 100 m venue was 1 ulp, under
    3e-14 m. So a point screened below -band is admissible, one above band is
    not, and `_admissible` decides the few inside the band. Every grid point
    lies within 2 (D + r) of both centres, D their distance and r the larger
    radius, and the band is at least 1e-14 (45 eps) times that reach, so it
    covers the screen's error on any venue.
    The axes lie in the venue by construction (each runs from its floor or
    above to its ceiling plus the 1e-9 m that `Venue.contains` forgives), so
    no point needs the venue test.
    """
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
    xs, ys, zs = axes
    min_sep = venue.min_separation_m
    reach = 2.0 * (math.dist(spheres[0].center, spheres[1].center)
                   + max(s.radius_m for s in spheres))
    band = max(1e-9, 1e-14 * reach)
    y = np.array(ys)[:, None]
    z = np.array(zs)[None, :]
    # Each sphere's squared (y, z) offsets; a plane adds its squared x offset.
    planes = [(s.center[0], s.radius_m, (y - s.center[1]) ** 2 + (z - s.center[2]) ** 2)
              for s in spheres]
    nz = len(zs)
    for x in xs:
        worst = None
        for cx, radius, yz in planes:
            d = np.sqrt((x - cx) ** 2 + yz)
            gap = np.maximum(d - radius, min_sep - d)
            worst = gap if worst is None else np.maximum(worst, gap)
        inside = worst < -band
        for i in np.flatnonzero(np.abs(worst) <= band).tolist():
            inside.flat[i] = _admissible((x, ys[i // nz], zs[i % nz]), spheres, venue)
        for i in np.flatnonzero(inside).tolist():
            yield (x, ys[i // nz], zs[i % nz])


def sphere_pair_analysis(
    first: SphereConstraint,
    second: SphereConstraint,
    venue: Venue,
    capacity_of_distance,
) -> OverlapAnalysis:
    """Classify two spheres' overlap and find total-capacity extremes inside it.

    `capacity_of_distance` maps a gateway-to-FAP distance in metres to the
    capacity of that link in bit/s; the objective is the sum over both links.
    The seeds are the deepest point, then the admissible points of a 1 m grid
    in `itertools.product` order, screened in NumPy one x-plane at a time
    (`_admissible_grid`; points within a rounding band of a constraint are
    decided by the scalar test). The lowest and highest totals are kept as the
    seeds stream past, the first of equal totals winning, as `min` and `max`
    would pick; compass search then refines each. Admissibility matches
    compute_fgw_pos (both spheres, venue, altitude, separation).
    """
    spheres = [first, second]
    _check_centers(spheres, venue)
    d = math.dist(first.center, second.center)
    if d > first.radius_m + second.radius_m:
        return OverlapAnalysis("disjoint", None, None, None, None)
    overlap = "full" if d <= abs(first.radius_m - second.radius_m) else "partial"

    def total(p: Point) -> float:
        return capacity_of_distance(math.dist(p, first.center)) + capacity_of_distance(
            math.dist(p, second.center)
        )

    deepest = compute_fgw_pos(spheres, venue)
    seeds = itertools.chain([deepest.position] if deepest.feasible else [],
                            _admissible_grid(spheres, venue))
    lowest = highest = None  # (total, seed); strict comparisons keep the first of equals
    for p in seeds:
        value = total(p)
        if lowest is None:
            lowest = highest = (value, p)
            continue
        if value < lowest[0]:
            lowest = (value, p)
        if value > highest[0]:
            highest = (value, p)
    if lowest is None:
        return OverlapAnalysis(overlap, None, None, None, None)

    def refine(start: Point, sign: float) -> Point:
        return _descend(
            start, lambda p: sign * total(p) if _admissible(p, spheres, venue) else math.inf, venue
        )

    min_point = refine(lowest[1], 1.0)
    max_point = refine(highest[1], -1.0)
    return OverlapAnalysis(overlap, min_point, total(min_point), max_point, total(max_point))
