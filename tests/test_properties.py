"""Property tests over random scenarios: file round trips and planner audits."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpqm import (
    McsEntry,
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


def _required_keys(doc: dict) -> list[tuple[dict, str]]:
    """Every (section, key) of a scenario file whose key has no default."""
    return [
        *((doc, k) for k in ("venue", "channel", "faps", "duration_s")),
        *((f, "id") for f in doc["faps"]),
        *((e, k) for e in doc["mcs_overrides"]
          for k in ("index", "min_snr_db", "phy_rate_bps", "fair_share_bps")),
    ]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(scenarios, st.data())
def test_deleting_a_required_key_names_it(trace, data):
    doc = scenario_to_json(replace(trace, mcs_overrides=(McsEntry(5, 26.0, 468e6, 130e6),)))
    section, key = data.draw(st.sampled_from(_required_keys(doc)))
    del section[key]
    with pytest.raises(ValueError, match=rf"missing keys \['{key}'\]"):
        scenario_from_json(doc)


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
