"""Gateway positioning tests.

The descent result is audited against coarse grid enumeration (the grid can
never beat the returned point on the same objective) and against feasible
instances built by construction around a known admissible point.
"""

from __future__ import annotations

import hashlib
import math
import random

import pytest

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
from gpqm.channel import capacity_bps

VENUE = Venue()


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


GOLDEN_PAIR_SHA256 = "6f2b79c66a758dfa35f9d5c7bfabe043a5b17780fe11ccf8f4c08748f01af90a"


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
