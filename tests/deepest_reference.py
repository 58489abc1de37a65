"""Reference copy of the unscreened deepest-point enumeration.

`_deepest_point` here solves every support set of one to four spheres, in
order of size, until a root certifies, and returns the deepest candidate it
solved when none does. The package skips the sets whose depth bound lies
below the deepest pair's, and reruns this enumeration when nothing
certifies; the tests require the same point and flag from both, bit for bit.
The package never imports this module.
"""

from __future__ import annotations

import itertools
import math

from gpqm.placement import _CERTIFY_TOL_M, SphereConstraint, _coverage_gap, _support_roots


def _deepest_point(spheres: list[SphereConstraint]):
    best_gap, best = math.inf, spheres[0].center
    for size in range(1, min(4, len(spheres)) + 1):
        for support in itertools.combinations(spheres, size):
            for t, p in _support_roots(support):
                gap = _coverage_gap(p, spheres)
                if gap <= t + _CERTIFY_TOL_M:
                    return p, True
                if gap < best_gap:
                    best_gap, best = gap, p
    return best, False


def optimum_snapshots():
    """The `optimum` workload's plan items: (trace, table, snapshot) for the
    100 s random-waypoint traces of seeds 1000-1047, 3 FAPs at even seeds and
    5 at odd ones."""
    from gpqm.scenario import generate_rwm

    items = []
    for seed in range(1000, 1048):
        trace = generate_rwm(3 if seed % 2 == 0 else 5, 100.0, seed=seed)
        table = trace.mcs_table()
        items += [(trace, table, snap) for snap in trace.snapshots()]
    return items
