"""Gateway positioning tests.

`compute_fgw_pos` solves the deepest point of the sphere intersection exactly,
as the centre of a smallest enclosing ball of balls (Fischer & Gaertner,
2004), and falls back to compass search from that point only where the point
leaves the venue or lies inside a FAP's protection distance. The result is
audited against coarse grid enumeration (the grid can never beat the
returned point on the same objective), against instances built by
construction around a known admissible point, and against an optimality
certificate: no short step in any of many directions makes the point deeper.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpqm import (
    PlacementResult,
    SphereConstraint,
    Venue,
    compute_fgw_pos,
    feasibility_margin,
    max_distance_m,
    sphere_pair_analysis,
    shannon_capacity_bps,
    friis_snr_db,
    ChannelParams,
)
from gpqm import PlannerConfig, plan_snapshot, placement
from gpqm.channel import capacity_bps

import sweep_reference

VENUE = Venue()
NO_FENCE = Venue(min_separation_m=0.0)


def coverage_gap(p, spheres):
    return max(math.dist(p, s.center) - s.radius_m for s in spheres)


def grid_best_gap(spheres, venue, step=2.0):
    """Exhaustive coarse search for the deepest point; oracle lower bound."""
    best = math.inf
    x = 0.0
    while x <= venue.x_max_m + 1e-9:
        y = 0.0
        while y <= venue.y_max_m + 1e-9:
            z = venue.min_altitude_m
            while z <= venue.z_max_m + 1e-9:
                best = min(best, coverage_gap((x, y, z), spheres))
                z += step
            y += step
        x += step
    return best


def test_feasibility_margin_values():
    spheres = [SphereConstraint((0.0, 0.0, 10.0), 5.0), SphereConstraint((8.0, 0.0, 10.0), 6.0)]
    m = feasibility_margin((2.0, 0.0, 10.0), spheres)
    assert m[0] == pytest.approx(3.0)
    assert m[1] == pytest.approx(0.0)
    m2 = feasibility_margin((7.0, 0.0, 10.0), spheres)
    assert m2[0] == pytest.approx(-2.0)


def test_single_sphere_respects_separation_and_radius():
    res = compute_fgw_pos([SphereConstraint((50.0, 50.0, 10.0), 20.0)], VENUE)
    assert res.feasible
    d = math.dist(res.position, (50.0, 50.0, 10.0))
    assert VENUE.min_separation_m - 1e-6 <= d <= 20.0 + 1e-9
    assert VENUE.contains(res.position)
    assert res.separation_slack_m >= -1e-6


def test_tight_sphere_forces_standoff():
    # Deepest point of one sphere is its centre, which violates the 3 m
    # protection distance; the search must back off without leaving the ball.
    res = compute_fgw_pos([SphereConstraint((50.0, 50.0, 10.0), 5.0)], VENUE)
    assert res.feasible
    d = math.dist(res.position, (50.0, 50.0, 10.0))
    assert d >= VENUE.min_separation_m - 1e-6
    assert d <= 5.0 + 1e-9


def test_disjoint_spheres_infeasible():
    spheres = [
        SphereConstraint((10.0, 10.0, 10.0), 20.0),
        SphereConstraint((90.0, 90.0, 10.0), 20.0),
    ]
    res = compute_fgw_pos(spheres, VENUE)
    assert not res.feasible
    assert res.position is None


def test_pairwise_touching_but_empty_intersection_detected():
    # Three spheres whose pairwise overlaps are non-empty while the common
    # intersection is: equilateral centres 30 apart, radii 16.
    h = 30.0 * math.sqrt(3.0) / 2.0
    spheres = [
        SphereConstraint((35.0, 40.0, 10.0), 16.0),
        SphereConstraint((65.0, 40.0, 10.0), 16.0),
        SphereConstraint((50.0, 40.0 + h, 10.0), 16.0),
    ]
    for a, b in ((0, 1), (0, 2), (1, 2)):
        d = math.dist(spheres[a].center, spheres[b].center)
        assert d < spheres[a].radius_m + spheres[b].radius_m
    # circumradius 30/sqrt(3) = 17.32 > 16, so no common point exists
    res = compute_fgw_pos(spheres, VENUE)
    assert not res.feasible


def test_reference_spheres_deepest_margin():
    # Two near-tangent spheres 50 m apart with radii summing to 50.5001 m;
    # the deepest point splits the overlap, max-min margin (r1+r2-50)/2.
    ch = ChannelParams()
    spheres = [
        SphereConstraint((50.0, 75.0, 10.0), max_distance_m(ch, 20.0, 15.0)),
        SphereConstraint((75.0, 25.0, 10.0), max_distance_m(ch, 20.0, 27.0)),
        SphereConstraint((25.0, 25.0, 10.0), max_distance_m(ch, 20.0, 35.0)),
    ]
    expected = (spheres[1].radius_m + spheres[2].radius_m - 50.0) / 2.0
    res = compute_fgw_pos(spheres, VENUE)
    assert res.feasible
    assert res.min_margin_m == pytest.approx(expected, abs=5e-3)
    assert res.position[1] == pytest.approx(25.0, abs=0.1)
    assert res.position[0] == pytest.approx(25.0 + 50.0 - (expected + 35.99), abs=0.5)


def test_descent_at_least_as_deep_as_grid():
    rng = random.Random(2024)
    for _ in range(5):
        centers = [
            (rng.uniform(20, 80), rng.uniform(20, 80), rng.uniform(5, 15))
            for _ in range(3)
        ]
        q = (rng.uniform(30, 70), rng.uniform(30, 70), rng.uniform(6, 14))
        spheres = [
            SphereConstraint(c, math.dist(c, q) + rng.uniform(1.0, 10.0))
            for c in centers
        ]
        res = compute_fgw_pos(spheres, VENUE)
        assert res.feasible
        assert coverage_gap(res.position, spheres) <= grid_best_gap(spheres, VENUE) + 1e-9


def test_constructed_feasible_instances_always_solved():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.choice((1, 2, 3, 5))
        q = (rng.uniform(10, 90), rng.uniform(10, 90), rng.uniform(4, 16))
        spheres = []
        for _ in range(n):
            while True:
                c = (rng.uniform(5, 95), rng.uniform(5, 95), rng.uniform(2, 18))
                if math.dist(c, q) >= VENUE.min_separation_m:
                    break
            spheres.append(SphereConstraint(c, math.dist(c, q) + rng.uniform(0.5, 20.0)))
        res = compute_fgw_pos(spheres, VENUE)
        assert res.feasible
        # the returned point is at least as deep as the constructed one
        q_margin = min(feasibility_margin(q, spheres))
        assert res.min_margin_m >= q_margin - 1e-6
        assert all(m >= -1e-9 for m in res.margins_m)
        assert res.separation_slack_m >= -1e-6
        assert VENUE.contains(res.position)


def _unit(d):
    n = math.sqrt(sum(x * x for x in d))
    return tuple(x / n for x in d)


_CERT_RNG = random.Random(17)
CERTIFICATE_DIRECTIONS = [
    _unit(d) for d in itertools.product((-1.0, 0.0, 1.0), repeat=3) if any(d)
] + [_unit([_CERT_RNG.gauss(0.0, 1.0) for _ in range(3)]) for _ in range(50)]


def assert_deepest(p, spheres):
    """Optimality certificate of the convex coverage gap: no 1e-4 m step along
    the 26 compass directions or 50 random ones lowers it by over 1e-9."""
    gap = coverage_gap(p, spheres)
    for d in CERTIFICATE_DIRECTIONS:
        step = (p[0] + 1e-4 * d[0], p[1] + 1e-4 * d[1], p[2] + 1e-4 * d[2])
        assert coverage_gap(step, spheres) >= gap - 1e-9, (p, d)


# Lattice points 0.25 m apart: centres either coincide exactly or stand well
# apart, so the certificate is not blurred by micrometre-scale clusters.
lattice_points = st.builds(
    lambda x, y, z: (x / 4.0, y / 4.0, z / 4.0),
    st.integers(0, 400), st.integers(0, 400), st.integers(4, 80),
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    lattice_points,
    st.lists(st.tuples(lattice_points, st.floats(0.05, 30.0)), min_size=1, max_size=5),
)
def test_exact_point_is_the_deepest(common, drawn):
    spheres = [SphereConstraint(c, math.dist(c, common) + slack) for c, slack in drawn]
    exact = compute_fgw_pos(spheres, NO_FENCE)
    assert exact.feasible
    assert NO_FENCE.contains(exact.position)  # never clamped: centres span the point
    assert_deepest(exact.position, spheres)
    fenced = compute_fgw_pos(spheres, VENUE)
    if min(math.dist(exact.position, s.center) for s in spheres) >= VENUE.min_separation_m:
        assert fenced.position == exact.position
    elif fenced.feasible:
        assert coverage_gap(fenced.position, spheres) >= coverage_gap(exact.position, spheres) - 1e-9
        assert fenced.separation_slack_m >= -1e-6
        assert all(m >= 0.0 for m in fenced.margins_m)


_H = 10.0 / math.sqrt(2.0)
DEGENERATE = {
    # The coincident pair's Gram matrix is singular; the smaller sphere and
    # the third support the optimum.
    "coincident-centres": (
        [((50.0, 50.0, 10.0), 20.0), ((50.0, 50.0, 10.0), 12.0), ((70.0, 50.0, 10.0), 25.0)],
        (53.5, 50.0, 10.0),
    ),
    # The first triple is collinear and skipped; spheres 0, 2 and 3 support it.
    "three-collinear-centres": (
        [((30.0, 50.0, 10.0), 25.0), ((50.0, 50.0, 10.0), 25.0), ((70.0, 50.0, 10.0), 25.0),
         ((50.0, 80.0, 10.0), 25.0)],
        (50.0, 175.0 / 3.0, 10.0),
    ),
    # The first quadruple is coplanar and skipped; spheres 0, 1, 2 and 4 support it.
    "four-coplanar-centres": (
        [((40.0, 40.0, 5.0), 25.0), ((60.0, 40.0, 5.0), 25.0), ((50.0, 62.0, 5.0), 25.0),
         ((50.0, 45.0, 5.0), 25.0), ((50.0, 47.0, 19.0), 25.0)],
        (50.0, 536.0 / 11.0, 1791.0 / 308.0),
    ),
    "equal-radii": (
        [((40.0, 40.0, 5.0), 20.0), ((60.0, 40.0, 5.0), 20.0), ((50.0, 60.0, 5.0), 20.0),
         ((50.0, 50.0, 15.0), 20.0)],
        (50.0, 47.5, 5.0),
    ),
    # Radius differences equal to the projections of the centre offsets on a
    # unit vector: the quadratic's leading coefficient vanishes and the depth
    # is the root of a linear equation.
    "linear-root": (
        [((40.0, 40.0, 10.0), 5.0), ((50.0, 40.0, 10.0), 5.0 + _H), ((40.0, 50.0, 10.0), 5.0 + _H)],
        (41.25, 41.25, 10.0),
    ),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_degenerate_support_sets(case):
    drawn, expected = DEGENERATE[case]
    spheres = [SphereConstraint(c, r) for c, r in drawn]
    res = compute_fgw_pos(spheres, NO_FENCE)
    assert res.feasible
    assert res.position == pytest.approx(expected, abs=1e-9)
    assert_deepest(res.position, spheres)


def test_uncertified_point_falls_back_to_compass_search(monkeypatch):
    # With every support set of two or more spheres refused, no single centre
    # certifies, so compass search starts from the deepest centre.
    monkeypatch.setattr(placement, "_SINGULAR", math.inf)
    spheres = [SphereConstraint((30.0, 50.0, 10.0), 25.0), SphereConstraint((70.0, 50.0, 10.0), 25.0)]
    res = compute_fgw_pos(spheres, VENUE)
    assert res.feasible
    assert res.min_margin_m == pytest.approx(5.0, abs=0.01)
    assert VENUE.contains(res.position)


def test_coplanar_instance_whose_deepest_point_misses_its_certificate():
    # The best root, of support {2, 3}, misses the certificate by about
    # 2.3e-9 m, above the 1e-9 m tolerance, with no centres coincident. Its
    # point lies 0.0012 m from FAP 3, so the fence search runs after the
    # compass fallback.
    spheres = [
        SphereConstraint((65.81005149297108, 80.01787713012037, 5.0), 156.62273902347113),
        SphereConstraint((42.99075976031358, 68.13780283303323, 5.0), 134.0634176921894),
        SphereConstraint((46.468328095648495, 14.889386889832867, 5.0), 175.81744186001666),
        SphereConstraint((45.04095932695263, 93.42118770380453, 5.0), 97.27497166757996),
    ]
    _, certified = placement._deepest_point(spheres)
    assert not certified
    res = compute_fgw_pos(spheres, VENUE)
    assert res.feasible
    assert min(res.margins_m) >= 0.0
    assert res.separation_slack_m >= 0.0
    assert VENUE.contains(res.position)


def test_placement_is_deterministic():
    spheres = [
        SphereConstraint((50.0, 75.0, 10.0), 143.8),
        SphereConstraint((75.0, 25.0, 10.0), 36.2),
        SphereConstraint((25.0, 25.0, 10.0), 14.38),
    ]
    a = compute_fgw_pos(spheres, VENUE)
    b = compute_fgw_pos(spheres, VENUE)
    assert a == b
    assert a.position == b.position


def test_input_validation():
    with pytest.raises(ValueError):
        compute_fgw_pos([], VENUE)
    with pytest.raises(ValueError):
        compute_fgw_pos([SphereConstraint((500.0, 0.0, 10.0), 5.0)], VENUE)
    with pytest.raises(ValueError):
        SphereConstraint((0.0, 0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        Venue(min_altitude_m=25.0)


# --- two-sphere study -------------------------------------------------------

def shannon_of_distance(d: float) -> float:
    ch = ChannelParams()
    return shannon_capacity_bps(ch.bandwidth_hz, friis_snr_db(ch, 20.0, max(d, 1e-3)))


def test_pair_disjoint_classification():
    a = SphereConstraint((10.0, 50.0, 10.0), 10.0)
    b = SphereConstraint((80.0, 50.0, 10.0), 10.0)
    out = sphere_pair_analysis(a, b, VENUE, shannon_of_distance)
    assert out.overlap == "disjoint"
    assert out.max_point is None


def test_pair_full_containment_classification():
    a = SphereConstraint((50.0, 50.0, 10.0), 30.0)
    b = SphereConstraint((52.0, 50.0, 10.0), 5.0)
    out = sphere_pair_analysis(a, b, VENUE, shannon_of_distance)
    assert out.overlap == "full"
    assert out.max_point is not None
    assert out.max_value_bps >= out.min_value_bps


def test_pair_partial_overlap_extremes():
    r = 36.12
    a = SphereConstraint((30.0, 30.0, 10.0), r)
    b = SphereConstraint((60.0, 60.0, 10.0), r)
    out = sphere_pair_analysis(a, b, VENUE, shannon_of_distance)
    assert out.overlap == "partial"
    assert out.min_value_bps < out.max_value_bps
    # Capacity falls convexly with distance, so the best total sits on the
    # centre axis next to one FAP, pinned by the other sphere's boundary,
    # and beats the symmetric lens midpoint.
    mx, my, mz = out.max_point
    assert mx == pytest.approx(my, abs=0.5)
    near = min(math.dist(out.max_point, a.center), math.dist(out.max_point, b.center))
    far = max(math.dist(out.max_point, a.center), math.dist(out.max_point, b.center))
    assert far == pytest.approx(r, abs=0.05)
    assert near < 10.0
    midpoint = (45.0, 45.0, 10.0)
    mid_total = shannon_of_distance(math.dist(midpoint, a.center)) + shannon_of_distance(
        math.dist(midpoint, b.center)
    )
    assert out.max_value_bps > mid_total
    for p in (out.min_point, out.max_point):
        assert math.dist(p, a.center) <= r + 1e-6
        assert math.dist(p, b.center) <= r + 1e-6
        assert math.dist(p, a.center) >= VENUE.min_separation_m - 1e-6
        assert math.dist(p, b.center) >= VENUE.min_separation_m - 1e-6


def test_pair_extremes_beat_grid_sampling():
    r = 20.0
    a = SphereConstraint((40.0, 50.0, 10.0), r)
    b = SphereConstraint((65.0, 50.0, 10.0), r)
    out = sphere_pair_analysis(a, b, VENUE, shannon_of_distance)

    best = -math.inf
    worst = math.inf
    x = 20.0
    while x <= 85.0:
        y = 30.0
        while y <= 70.0:
            z = 1.0
            while z <= 20.0:
                p = (x, y, z)
                ok = (
                    math.dist(p, a.center) <= r
                    and math.dist(p, b.center) <= r
                    and math.dist(p, a.center) >= VENUE.min_separation_m
                    and math.dist(p, b.center) >= VENUE.min_separation_m
                )
                if ok:
                    v = shannon_of_distance(math.dist(p, a.center)) + shannon_of_distance(
                        math.dist(p, b.center)
                    )
                    best = max(best, v)
                    worst = min(worst, v)
                z += 1.0
            y += 1.0
        x += 1.0
    assert out.max_value_bps >= best - 1e-6
    assert out.min_value_bps <= worst + 1e-6


def test_compass_search_evaluates_each_point_once(monkeypatch):
    """On the fence searches of the fenced planner snapshots and on the pair
    study's refinement, the compass search returns the plain copy's point,
    bit for bit, with fewer objective calls."""
    calls = {}  # objective kind: [memoised calls, plain calls]
    memoised = placement._descend

    def both(start, objective, venue):
        memo = [0]

        def counted(p):
            memo[0] += 1
            return objective(p)

        point = memoised(start, counted, venue)
        plain = [0]
        assert repr(point) == repr(sweep_reference.descend(start, objective, venue, plain))
        assert memo[0] <= plain[0]
        kind = calls.setdefault(f"{phase}:{objective.__name__}", [0, 0])
        kind[0] += memo[0]
        kind[1] += plain[0]
        return point

    monkeypatch.setattr(placement, "_descend", both)
    phase = "plan"
    for seed, index in sweep_reference.FENCED_SNAPSHOTS:
        trace, snap = sweep_reference.trace_snapshot(seed, index)
        plan_snapshot(snap, trace.channel, trace.venue, PlannerConfig(), trace.mcs_table())
    phase = "pair"
    ch = ChannelParams()
    for first, second in (
        (((30.0, 50.0, 10.0), max_distance_m(ch, 20.0, 15.0)),
         ((60.0, 50.0, 10.0), max_distance_m(ch, 20.0, 15.0))),
        (((45.0, 50.0, 10.0), 3.5), ((50.0, 50.0, 10.0), 3.5)),
    ):
        sphere_pair_analysis(SphereConstraint(*first), SphereConstraint(*second), VENUE,
                             shannon_of_distance)
    for kind in ("plan:fenced", "plan:standoff_kept", "pair:<lambda>"):
        memo, plain = calls[kind]
        assert memo < plain, kind


GOLDEN_PAIR_SHA256 = "ef3505e1cd60135df4ddca727355a7fab76285ea75c6ddb701c9bce7602bb132"


def test_golden_pair_outputs():
    """One SHA-256 over four pair geometries under both capacity models."""
    ch = ChannelParams()
    readme = max_distance_m(ch, 20.0, 15.0)
    pairs = [
        (((30.0, 50.0, 10.0), readme), ((60.0, 50.0, 10.0), readme)),  # README pair
        (((10.0, 50.0, 10.0), 10.0), ((80.0, 50.0, 10.0), 10.0)),  # disjoint
        (((50.0, 50.0, 10.0), 30.0), ((52.0, 50.0, 10.0), 5.0)),  # full containment
        # The lens lies within the separation distance of both FAPs, so the
        # separation fence binds.
        (((45.0, 50.0, 10.0), 3.5), ((50.0, 50.0, 10.0), 3.5)),
    ]
    out = []
    for model in ("shannon", "regression"):
        def capacity(d: float, model: str = model) -> float:
            return capacity_bps(model, ch, friis_snr_db(ch, 20.0, d))

        for first, second in pairs:
            out.append(sphere_pair_analysis(
                SphereConstraint(*first), SphereConstraint(*second), VENUE, capacity))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == GOLDEN_PAIR_SHA256
