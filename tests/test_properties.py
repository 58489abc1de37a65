"""Property tests over random scenarios: file round trips and planner audits."""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from gpqm import (
    MobilityParams,
    PlannerConfig,
    PlanningError,
    check_formulation,
    generate_rwm,
    plan_snapshot,
)
from gpqm.scenario import scenario_from_json, scenario_to_json

scenarios = st.builds(
    generate_rwm,
    n_faps=st.integers(1, 5),
    duration_s=st.floats(1.0, 60.0),
    seed=st.integers(0, 2**31 - 1),
    mobility=st.builds(MobilityParams, planar_z_m=st.none() | st.floats(1.0, 20.0)),
    planning_period_s=st.floats(1.0, 15.0),
    demand_fractions=st.lists(st.floats(0.05, 1.2), min_size=1, max_size=4).map(tuple),
)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(scenarios)
def test_scenario_file_round_trips(trace):
    text = json.dumps(scenario_to_json(trace))
    assert scenario_from_json(json.loads(text)) == trace


@settings(derandomize=True, deadline=None, max_examples=30)
@given(scenarios)
def test_every_plannable_snapshot_passes_audit_and_replans_equal(trace):
    config, table = PlannerConfig(), trace.mcs_table()
    for snap in trace.snapshots():
        try:
            plan = plan_snapshot(snap, trace.channel, trace.venue, config, table)
        except PlanningError:
            continue
        report = check_formulation(plan, snap, trace.channel, trace.venue, config, table)
        assert report.violations == ()
        assert plan_snapshot(snap, trace.channel, trace.venue, config, table) == plan
