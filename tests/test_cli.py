"""Command-line workflows end to end in temporary directories.

Every invocation goes through cli.main(argv) so argument wiring, file
formats, and exit codes are exercised exactly as a shell user sees them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
import signal
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest

from gpqm import (
    PlannerConfig,
    PsoParams,
    SimConfig,
    SimMetrics,
    cli,
    load_scenario,
    merge_metrics,
    percentile,
    reference_fair_share_bps,
    simulate,
)
from gpqm.scenario import DEFAULT_PLANNING_PERIOD_S
from gpqm.simulator import PacketRecord


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory) -> dict:
    """generate -> plan -> simulate (gpqm and baseline) -> analyze."""
    root = tmp_path_factory.mktemp("flow")
    scenario = root / "scenario.json"
    waypoints = root / "waypoints.txt"
    plan = root / "plan.json"
    gpqm_dir = root / "gpqm"
    base_dir = root / "baseline"
    cdf = root / "cdf.json"

    assert cli.main([
        "generate", "--faps", "3", "--duration", "40", "--seed", "6",
        "--out", str(scenario), "--waypoints-out", str(waypoints),
    ]) == 0
    assert cli.main([
        "plan", "--scenario", str(scenario), "--out", str(plan),
    ]) == 0
    assert cli.main([
        "simulate", "--scenario", str(scenario), "--plan", str(plan),
        "--policy", "gpqm", "--bootstrap", "2", "--measure", "8",
        "--runs", "2", "--packets-csv", "--out", str(gpqm_dir),
    ]) == 0
    assert cli.main([
        "simulate", "--scenario", str(scenario), "--policy", "venue-center",
        "--bootstrap", "2", "--measure", "8", "--out", str(base_dir),
    ]) == 0
    assert cli.main([
        "analyze", "cdf", "--metrics", str(gpqm_dir / "seed1"),
        "--metrics", str(gpqm_dir / "seed2"), "--out", str(cdf),
    ]) == 0
    return {
        "scenario": scenario, "waypoints": waypoints, "plan": plan,
        "gpqm": gpqm_dir, "baseline": base_dir, "cdf": cdf,
    }


def test_generate_writes_loadable_scenario(pipeline):
    trace = load_scenario(pipeline["scenario"])
    assert len(trace.faps) == 3
    assert trace.duration_s == 40.0
    assert pipeline["waypoints"].read_text().strip()


def test_generate_cycles_demand_fractions(tmp_path):
    scenario = tmp_path / "s.json"
    assert cli.main([
        "generate", "--faps", "3", "--duration", "10", "--seed", "2",
        "--demand-fraction", "0.5", "--demand-fraction", "0.2", "--out", str(scenario),
    ]) == 0
    ref = reference_fair_share_bps(3)
    demands = [f.demand.at(0.0) for f in load_scenario(scenario).faps]
    assert demands == [0.5 * ref, 0.2 * ref, 0.5 * ref]


def test_generate_refuses_demand_with_demand_fraction(tmp_path, capsys):
    out = tmp_path / "s.json"
    with pytest.raises(SystemExit) as exc:
        cli.main([
            "generate", "--demand-fraction", "0.5", "--demand", "1e6", "--demand", "2e6",
            "--demand", "3e6", "--out", str(out),
        ])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


def test_cli_defaults_are_the_library_defaults():
    parser = cli._build_parser()
    sim = parser.parse_args(["simulate", "--scenario", "s.json", "--out", "m"])
    assert SimConfig() == SimConfig(
        bootstrap_s=sim.bootstrap,
        measure_s=sim.measure,
        seed=sim.seed,
        placement=sim.policy,
        queue_size=sim.queue_size,
        traffic=sim.traffic,
        channel_mode=sim.channel_mode,
        fading=sim.fading == "on",
        service_mode=sim.service_mode,
        baseline_tx_power_dbm=sim.baseline_power,
    )
    plan = parser.parse_args(["plan", "--scenario", "s.json", "--out", "p.json"])
    assert PlannerConfig() == PlannerConfig(
        delay_threshold_s=plan.delay_threshold, power_step_db=plan.power_step
    )
    bench = parser.parse_args(["benchmark", "--out", "b.csv"])
    assert PsoParams() == PsoParams(swarm=bench.pso_swarm, iterations=bench.pso_iterations)
    gen = parser.parse_args(["generate", "--out", "s.json"])
    assert gen.planning_period == DEFAULT_PLANNING_PERIOD_S


def test_plan_file_covers_sampling_grid(pipeline):
    doc = json.loads(pipeline["plan"].read_text())
    assert doc["config_echo"]["sampling_period_s"] == 1.0
    assert len(doc["plans"]) == 40
    times = [p["t"] for p in doc["plans"]]
    assert times == sorted(times)
    assert times[0] == 0.0 and times[-1] == 39.0
    first = doc["plans"][0]
    assert set(first) == {"t", "p_tx_dbm", "fgw", "faps"}
    assert len(first["faps"]) == 3
    for f in first["faps"]:
        assert f["queue_pkts"] >= 1
        assert 0.0 <= f["rho"] < 1.0


def test_simulate_run_layout(pipeline):
    for seed in (1, 2):
        run = pipeline["gpqm"] / f"seed{seed}"
        with (run / "throughput.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert float(rows[0]["t_s"]) == 2.0
        assert all(float(r["throughput_bps"]) >= 0.0 for r in rows)
        with (run / "delays.csv").open() as fh:
            delays = [float(r["delay_s"]) for r in csv.DictReader(fh)]
        assert delays and all(d > 0.0 for d in delays)
        summary = json.loads((run / "summary.json").read_text())
        assert summary["label"] == "gpqm-scheduled"
        assert summary["p90_delay_s"] > 0.0
        assert 0.0 <= summary["plr"] <= 1.0
        with (run / "packets.csv").open() as fh:
            pk = list(csv.DictReader(fh))
        assert pk
        assert set(pk[0]) == {"source_id", "created_s", "delay_s", "dropped"}
    pooled = json.loads((pipeline["gpqm"] / "pooled" / "summary.json").read_text())
    assert pooled["window_delivered"] > 0


def test_streamed_csvs_match_csv_writer(tmp_path):
    # FAP ids that csv must quote, floats whose repr is short or exponent-form,
    # and a dropped packet's empty delay field.
    ids = ['a,"b c', "plain", "two\nlines", ""]
    delays = (1e-05, 0.1, 1.0 / 3.0, 2.5e-07, 1e16)
    packets = (
        PacketRecord(ids[0], 0.0, 1e-05),
        PacketRecord(ids[1], 1e-05, None),
        PacketRecord(ids[2], 0.25, 0.35),
        PacketRecord(ids[3], 2.0, None),
        PacketRecord(ids[0], 1.0 / 3.0, None),
    )
    metrics = SimMetrics(
        label="x", seed=1, bootstrap_s=0.0, measure_s=1.0, throughput_samples_bps=(0.0,),
        delay_samples_s=delays, generated=5, delivered=2, dropped=3, residual=0,
        window_generated=5, window_delivered=2, window_dropped=3,
        per_fap_goodput_bps=dict.fromkeys(ids, 0.0), packets=packets)
    cli._write_metrics(tmp_path, metrics, True)

    def written(rows) -> bytes:
        buf = io.StringIO(newline="")
        csv.writer(buf).writerows(rows)
        return buf.getvalue().encode()

    assert (tmp_path / "delays.csv").read_bytes() == written(
        [["delay_s"], *([v] for v in delays)])
    assert (tmp_path / "packets.csv").read_bytes() == written(
        [["source_id", "created_s", "delay_s", "dropped"]]
        + [[p.fap_id, p.created_s, "" if p.delivered_s is None else p.delivered_s - p.created_s,
            int(p.delivered_s is None)] for p in packets])


def test_runs_are_merged_without_their_records(tmp_path, monkeypatch):
    # Each run's records are written, then freed: merge_metrics reads none.
    scenario, metrics, single = tmp_path / "s.json", tmp_path / "m", tmp_path / "one"
    assert cli.main([
        "generate", "--faps", "2", "--duration", "4", "--seed", "6", "--out", str(scenario),
    ]) == 0
    merged = []

    def merge_without_records(runs):
        assert all(m.packets == () for m in runs)
        merged.append(len(runs))
        return merge_metrics(runs)

    monkeypatch.setattr(cli, "merge_metrics", merge_without_records)
    window = ["--policy", "venue-center", "--bootstrap", "1", "--measure", "1.5",
              "--packets-csv"]
    assert cli.main(["simulate", "--scenario", str(scenario), "--runs", "2", *window,
                     "--out", str(metrics)]) == 0
    assert merged == [2]
    assert cli.main(["simulate", "--scenario", str(scenario), "--seed", "2", *window,
                     "--out", str(single)]) == 0
    packets = (metrics / "seed2" / "packets.csv").read_bytes()
    assert packets.count(b"\r\n") > 1
    assert packets == (single / "seed2" / "packets.csv").read_bytes()


@pytest.mark.parametrize("queue, code", [("scheduled", 2), ("codel", 2), (None, 2),
                                         ("droptail", 4), ("red", 4)])
def test_queue_size_only_where_the_queue_uses_it(tmp_path, monkeypatch, capsys, queue, code):
    # scheduled takes the plan's sizes and codel its own limit; None is gpqm's scheduled.
    # The flag is checked before the (missing) scenario is read, which exits 4.
    monkeypatch.chdir(tmp_path)
    queue_flag = [] if queue is None else ["--queue", queue]
    assert cli.main(["simulate", "--scenario", "s.json", "--queue-size", "3", *queue_flag,
                     "--out", "m"]) == code
    assert ("--queue-size" in capsys.readouterr().err) == (code == 2)
    assert not any(tmp_path.iterdir())


def test_pooled_delays_are_the_pooled_samples_written_afresh(tmp_path):
    # The pooled delays.csv copies the seed files' rows; it must hold exactly
    # what formatting the pooled samples would write.
    scenario, metrics = tmp_path / "s.json", tmp_path / "m"
    assert cli.main([
        "generate", "--faps", "2", "--duration", "4", "--seed", "6", "--out", str(scenario),
    ]) == 0
    assert cli.main([
        "simulate", "--scenario", str(scenario), "--policy", "venue-center", "--runs", "3",
        "--seed", "4", "--bootstrap", "1", "--measure", "1.5", "--out", str(metrics),
    ]) == 0
    trace = load_scenario(scenario)
    config = SimConfig(bootstrap_s=1.0, measure_s=1.5, placement="venue-center",
                       queue="droptail")
    runs = [simulate(trace, replace(config, seed=seed)) for seed in (4, 5, 6)]
    cli._write_metrics(tmp_path / "fresh", merge_metrics(runs), False)
    pooled = (metrics / "pooled" / "delays.csv").read_bytes()
    assert pooled.count(b"\r\n") > 3
    assert pooled == (tmp_path / "fresh" / "delays.csv").read_bytes()


def _column(path: Path, name: str) -> list[str]:
    with path.open(newline="") as fh:
        return [row[name] for row in csv.DictReader(fh)]


def test_pooled_throughput_labels_each_run_over_its_window(pipeline):
    # The pooled rows are the seed files' rows in seed order, each labelled
    # with the start of its second in the window, not counted on past it.
    root = pipeline["gpqm"]
    for name in ("t_s", "throughput_bps"):
        seeds = [_column(root / f"seed{s}" / "throughput.csv", name) for s in (1, 2)]
        assert _column(root / "pooled" / "throughput.csv", name) == seeds[0] + seeds[1]


def test_baseline_needs_no_plan(pipeline):
    summary = json.loads((pipeline["baseline"] / "seed1" / "summary.json").read_text())
    assert summary["label"] == "venue-center-droptail"
    assert not (pipeline["baseline"] / "pooled").exists()


def test_cdf_payload(pipeline):
    doc = json.loads(pipeline["cdf"].read_text())
    assert doc["percentile"] == 90.0
    assert doc["throughput"]["p_exceeded_bps"] > 0.0
    ccdf = doc["throughput"]["ccdf"]
    assert ccdf[-1][1] == 0.0
    cdf = doc["delay"]["cdf"]
    assert cdf[-1][1] == 1.0
    assert doc["delay"]["p_value_s"] > 0.0


def test_cdf_points_are_shares_of_the_pooled_rows(pipeline):
    # The payload pools seed1 and seed2, whose rows pooled/ holds.
    doc = json.loads(pipeline["cdf"].read_text())
    pooled = pipeline["gpqm"] / "pooled"
    delays = [float(v) for v in _column(pooled / "delays.csv", "delay_s")]
    thr = [float(v) for v in _column(pooled / "throughput.csv", "throughput_bps")]

    def share_at_most(samples: list[float], x: float) -> float:
        return sum(v <= x for v in samples) / len(samples)

    assert len(doc["delay"]["cdf"]) == len(doc["throughput"]["ccdf"]) == 50
    for x, cdf in doc["delay"]["cdf"]:
        assert cdf == share_at_most(delays, x)
    for x, ccdf in doc["throughput"]["ccdf"]:
        assert ccdf == 1.0 - share_at_most(thr, x)
    assert doc["delay"]["p_value_s"] == percentile(delays, 90.0)
    assert doc["throughput"]["p_exceeded_bps"] == percentile(thr, 10.0)


@pytest.mark.parametrize(
    "file, edit, named",
    [
        ("delays.csv", lambda rows: rows.insert(2, "nan"), "delays.csv line 3: expected 1 fields"),
        ("throughput.csv", lambda rows: rows.insert(2, "5.0"),
         "throughput.csv line 3: expected 2 fields"),
        ("delays.csv", lambda rows: rows.__setitem__(0, "delay"),
         "delays.csv line 1: header must be delay_s"),
        ("throughput.csv", lambda rows: rows.__delitem__(slice(1, None)),
         "no samples to take a percentile of"),
    ],
    ids=["nan-row", "short-row", "renamed-header", "no-rows"],
)
def test_cdf_names_the_file_and_line_of_a_bad_row(pipeline, tmp_path, capsys, file, edit, named):
    run = tmp_path / "run"
    shutil.copytree(pipeline["baseline"] / "seed1", run)
    rows = (run / file).read_text().splitlines()
    edit(rows)
    (run / file).write_text("\n".join(rows) + "\n")
    out = tmp_path / "cdf.json"
    assert cli.main(["analyze", "cdf", "--metrics", str(run), "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_window_shorter_than_a_second_gives_one_sample(tmp_path):
    scenario, metrics = tmp_path / "s.json", tmp_path / "m"
    assert cli.main([
        "generate", "--faps", "3", "--duration", "12", "--seed", "6", "--out", str(scenario),
    ]) == 0
    assert cli.main([
        "simulate", "--scenario", str(scenario), "--policy", "venue-center",
        "--bootstrap", "0.5", "--measure", "0.25", "--out", str(metrics),
    ]) == 0
    with (metrics / "seed1" / "throughput.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    summary = json.loads((metrics / "seed1" / "summary.json").read_text())
    assert [float(r["t_s"]) for r in rows] == [0.5]
    assert float(rows[0]["throughput_bps"]) == 11200.0 * summary["window_delivered"] > 0


def test_pair_analysis_both_capacity_models(tmp_path):
    for model in ("shannon", "regression"):
        out = tmp_path / f"pair-{model}.json"
        rc = cli.main([
            "analyze", "pair",
            "--fap", "30,50,10", "--fap", "60,50,10",
            "--snr", "15", "--snr", "15",
            "--capacity-model", model, "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["overlap"] == "partial"
        assert doc["radii_m"] == pytest.approx([143.79774886996253] * 2)
        assert doc["max_value_bps"] >= doc["min_value_bps"] > 0.0


def test_benchmark_csv_contract(tmp_path):
    out = tmp_path / "bench.csv"
    rc = cli.main([
        "benchmark", "--instances", "1", "--sim-runs", "1",
        "--pso-iterations", "50", "--pso-swarm", "10", "--out", str(out),
    ])
    assert rc == 0
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "instance", "seed", "method", "objective_bps", "feasible",
        "p90_delay_s", "p90_throughput_bps",
    ]
    assert len(rows) == 3
    assert [r[2] for r in rows[1:]] == ["gpqm", "pso"]
    assert rows[1][4] == "1"


# --- exit codes -------------------------------------------------------------

def test_exit_usage_on_malformed_point(tmp_path):
    rc = cli.main([
        "analyze", "pair", "--fap", "1,2", "--fap", "3,4,5",
        "--snr", "15", "--snr", "15", "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 2


def test_exit_usage_on_single_fap_pair(tmp_path, capsys):
    rc = cli.main([
        "analyze", "pair", "--fap", "30,50,10", "--snr", "15", "--snr", "15",
        "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 2
    assert "exactly two --fap and two --snr" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_exit_usage_on_nan_duration(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert cli.main(["generate", "--duration", "nan", "--out", str(out)]) == 2
    assert "duration" in capsys.readouterr().err
    assert not out.exists()


PAIR = ["analyze", "pair", "--fap", "30,50,10", "--fap", "60,50,10", "--out", "pair.json"]
# The flags are checked before the (missing) scenario is read.
SIM = ["simulate", "--scenario", "s.json", "--policy", "venue-center", "--out", "m"]


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--planar-z", "nan", "--duration", "12", "--out", "s.json"],
        ["generate", "--faps", "2", "--demand", "nan", "--demand", "1e6", "--out", "s.json"],
        [*PAIR, "--snr", "15", "--snr", "15", "--power", "nan"],
        [*PAIR, "--snr", "nan", "--snr", "15"],
        [*PAIR, "--snr", "15", "--snr", "15", "--power", "1e300"],
        [*SIM, "--bootstrap", "1", "--measure", "1", "--baseline-power", "nan"],
        [*SIM, "--bootstrap", "nan", "--measure", "1"],
        [*SIM, "--bootstrap", "1", "--measure", "inf"],
        ["generate", "--planar-z", "100", "--duration", "12", "--out", "s.json"],
        ["analyze", "pair", "--fap", "500,50,10", "--fap", "30,50,10", "--snr", "35",
         "--snr", "35", "--power", "0", "--out", "pair.json"],
    ],
    ids=["planar-z", "demand", "pair-power", "pair-snr", "pair-power-overflow",
         "baseline-power", "bootstrap", "measure", "planar-z-above-venue",
         "pair-disjoint-outside-venue"],
)
def test_exit_usage_on_nan_flag(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--power-step", "nan", "must be positive"),
        ("--delay-threshold", "nan", "must be positive"),
        ("--power-step", "1e-6", "at least 0.01 dB"),
    ],
    ids=["--power-step", "--delay-threshold", "--power-step-tiny"],
)
def test_exit_usage_on_nan_planner_flag(tmp_path, capsys, flag, value, message):
    scenario = tmp_path / "s.json"
    assert cli.main(["generate", "--faps", "1", "--duration", "12", "--out", str(scenario)]) == 0
    rc = cli.main(["plan", "--scenario", str(scenario), flag, value,
                   "--out", str(tmp_path / "p.json")])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["plan", "simulate"])
@pytest.mark.parametrize(
    "section, key",
    [("venue", "x_max_m"), ("channel", "noise_power_dbm"), ("channel", "rician_k_db")],
)
def test_exit_usage_on_nan_in_scenario(tmp_path, command, section, key):
    scenario = tmp_path / "s.json"
    assert cli.main(["generate", "--faps", "1", "--duration", "12", "--out", str(scenario)]) == 0
    data = json.loads(scenario.read_text())
    data[section][key] = float("nan")
    scenario.write_text(json.dumps(data))
    argv = {
        "plan": ["plan", "--out", str(tmp_path / "p.json")],
        "simulate": ["simulate", "--policy", "venue-center", "--bootstrap", "1",
                     "--measure", "1", "--out", str(tmp_path / "m")],
    }[command]
    assert cli.main([*argv, "--scenario", str(scenario)]) == 2


BASELINE_SIM = ["simulate", "--policy", "venue-center", "--queue", "droptail",
                "--bootstrap", "0.5", "--measure", "0.5"]


def test_rician_k_too_large_for_a_float_simulates_as_no_fading(tmp_path):
    scenario = tmp_path / "s.json"
    assert cli.main(["generate", "--faps", "2", "--duration", "4", "--seed", "1",
                     "--out", str(scenario)]) == 0
    data = json.loads(scenario.read_text())
    written = {}
    for k_db in (1e10, math.inf, 13.0):
        data["channel"]["rician_k_db"] = k_db
        scenario.write_text(json.dumps(data))
        out = tmp_path / f"m{k_db}"
        assert cli.main([*BASELINE_SIM, "--scenario", str(scenario), "--out", str(out)]) == 0
        written[k_db] = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert written[1e10] == written[math.inf]
    assert written[13.0] != written[math.inf]


def test_exit_usage_on_planar_altitude_outside_venue_in_complete_file(tmp_path, capsys):
    # Every FAP keeps its waypoints, so no path is drawn to check the altitude.
    scenario = tmp_path / "s.json"
    assert cli.main(["generate", "--faps", "2", "--duration", "6", "--seed", "6",
                     "--out", str(scenario)]) == 0
    data = json.loads(scenario.read_text())
    data["mobility"]["planar_z_m"] = 100.0
    scenario.write_text(json.dumps(data))
    assert cli.main(["plan", "--scenario", str(scenario), "--out", str(tmp_path / "p.json")]) == 2
    assert "planar altitude 100.0 m outside" in capsys.readouterr().err
    assert not (tmp_path / "p.json").exists()


class _StillRunning(BaseException):
    """Raised by `_hang_guard`; no `except` clause of the CLI catches it."""


@contextmanager
def _hang_guard(seconds: int):
    """Fail, instead of hanging, when the body runs longer than `seconds`."""

    def expire(signum, frame):
        raise _StillRunning(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _seed6_file_with_drawn_path(tmp_path: Path, speed_max_mps: float) -> Path:
    """The 2-FAP, 6 s, seed-6 file with faps[1]'s path left to draw at this top speed."""
    scenario = tmp_path / "s.json"
    assert cli.main(["generate", "--faps", "2", "--duration", "6", "--seed", "6",
                     "--out", str(scenario)]) == 0
    data = json.loads(scenario.read_text())
    del data["faps"][1]["waypoints"]
    data["mobility"]["speed_max_mps"] = speed_max_mps
    scenario.write_text(json.dumps(data))
    return scenario


@pytest.mark.parametrize("case", ["speed", "duration"])
def test_exit_usage_on_a_random_waypoint_path_too_long_to_draw(tmp_path, capsys, case):
    out = tmp_path / "out.json"
    if case == "speed":
        argv = ["plan", "--scenario", str(_seed6_file_with_drawn_path(tmp_path, 1e308)),
                "--out", str(out)]
        named = "at up to 1e+308 m/s over 6.0 s"
    else:
        argv = ["generate", "--faps", "1", "--duration", "1e9", "--seed", "1", "--out", str(out)]
        named = "at up to 3.0 m/s over 1000000000.0 s"
    capsys.readouterr()
    with _hang_guard(10):
        t0 = time.monotonic()
        assert cli.main(argv) == 2
        assert time.monotonic() - t0 < 1.0
    assert f"{named} would hold more than 100000 waypoints" in capsys.readouterr().err
    assert not out.exists()


def test_a_fast_random_waypoint_path_under_the_cap_still_plans(tmp_path):
    # About 10 000 waypoints: drawn in milliseconds, well under the cap.
    scenario = _seed6_file_with_drawn_path(tmp_path, 1e6)
    with _hang_guard(10):
        assert cli.main(["plan", "--scenario", str(scenario),
                         "--out", str(tmp_path / "p.json")]) == 0
    assert 5_000 < len(load_scenario(scenario).faps[1].waypoints) < 100_000


@pytest.mark.parametrize(
    "edit",
    [
        None,
        lambda fap: fap.update(demand_bps=1e-320),
        lambda fap: _drop_demand(fap).update(demand_schedule=[[0.0, 1e6], [2.0, 1e-320]]),
    ],
    ids=["generate", "constant", "schedule"],
)
def test_exit_usage_names_a_demand_whose_packet_rate_underflows(tmp_path, capsys, edit):
    scenario, metrics = tmp_path / "s.json", tmp_path / "m"
    generate = ["generate", "--faps", "2", "--duration", "4", "--seed", "1",
                "--out", str(scenario)]
    if edit is None:
        assert cli.main([*generate, "--demand", "1e-320", "--demand", "1e6"]) == 2
        assert not scenario.exists()
    else:
        assert cli.main(generate) == 0
        data = json.loads(scenario.read_text())
        edit(data["faps"][0])
        scenario.write_text(json.dumps(data))
        assert cli.main([*BASELINE_SIM, "--scenario", str(scenario), "--out", str(metrics)]) == 2
        assert not metrics.exists()
    assert "demand 1e-320 bit/s" in capsys.readouterr().err


def test_exit_usage_when_plan_missing_for_gpqm(tmp_path):
    scenario = tmp_path / "s.json"
    assert cli.main([
        "generate", "--faps", "1", "--duration", "12", "--seed", "2",
        "--out", str(scenario),
    ]) == 0
    rc = cli.main([
        "simulate", "--scenario", str(scenario), "--policy", "gpqm",
        "--bootstrap", "2", "--measure", "8", "--out", str(tmp_path / "m"),
    ])
    assert rc == 2


def test_exit_infeasible_on_unservable_demand(tmp_path):
    scenario = tmp_path / "heavy.json"
    assert cli.main([
        "generate", "--faps", "3", "--duration", "12", "--seed", "2",
        "--demand", "700e6", "--demand", "700e6", "--demand", "700e6",
        "--out", str(scenario),
    ]) == 0
    rc = cli.main([
        "plan", "--scenario", str(scenario), "--out", str(tmp_path / "p.json"),
    ])
    assert rc == 3


def test_exit_io_on_missing_metrics_dir(tmp_path):
    rc = cli.main([
        "analyze", "cdf", "--metrics", str(tmp_path / "nowhere"),
        "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 4


def test_exit_io_on_unreadable_scenario(tmp_path):
    rc = cli.main([
        "plan", "--scenario", str(tmp_path / "missing.json"),
        "--out", str(tmp_path / "p.json"),
    ])
    assert rc == 4


@pytest.mark.parametrize("section", ["venue", "channel"])
def test_exit_usage_names_unknown_scenario_key(tmp_path, capsys, section):
    scenario = tmp_path / "s.json"
    assert cli.main([
        "generate", "--faps", "1", "--duration", "12", "--seed", "2",
        "--out", str(scenario),
    ]) == 0
    data = json.loads(scenario.read_text())
    data[section]["typo_key"] = 1.0
    scenario.write_text(json.dumps(data))
    rc = cli.main(["plan", "--scenario", str(scenario), "--out", str(tmp_path / "p.json")])
    assert rc == 2
    assert "typo_key" in capsys.readouterr().err


def test_exit_usage_on_plan_entry_without_mcs(tmp_path, capsys):
    scenario, plan = tmp_path / "s.json", tmp_path / "p.json"
    assert cli.main([
        "generate", "--faps", "1", "--duration", "12", "--seed", "2",
        "--out", str(scenario),
    ]) == 0
    assert cli.main(["plan", "--scenario", str(scenario), "--out", str(plan)]) == 0
    doc = json.loads(plan.read_text())
    del doc["plans"][0]["faps"][0]["mcs"]
    plan.write_text(json.dumps(doc))
    rc = cli.main([
        "simulate", "--scenario", str(scenario), "--plan", str(plan),
        "--bootstrap", "2", "--measure", "1", "--out", str(tmp_path / "m"),
    ])
    assert rc == 2
    assert "mcs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value",
    [("venue", "x_max_m", "100"), ("channel", "noise_power_dbm", "-85")],
)
def test_exit_usage_names_wrong_typed_scenario_value(tmp_path, capsys, section, key, value):
    scenario = tmp_path / "s.json"
    assert cli.main([
        "generate", "--faps", "1", "--duration", "12", "--seed", "2",
        "--out", str(scenario),
    ]) == 0
    data = json.loads(scenario.read_text())
    data[section][key] = value
    scenario.write_text(json.dumps(data))
    rc = cli.main(["plan", "--scenario", str(scenario), "--out", str(tmp_path / "p.json")])
    assert rc == 2
    assert key in capsys.readouterr().err


def test_exit_usage_names_silent_fap_when_planning(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    assert cli.main([
        "generate", "--faps", "2", "--duration", "12", "--seed", "2",
        "--demand", "50e6", "--demand", "0", "--out", str(scenario),
    ]) == 0
    rc = cli.main(["plan", "--scenario", str(scenario), "--out", str(tmp_path / "p.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "FAP fap1" in err and "silent" in err


def _drop_demand(fap: dict) -> dict:
    del fap["demand_bps"]
    return fap


@pytest.mark.parametrize(
    "key, edit",
    [
        ("duration_s", lambda d: d.update(duration_s=None)),
        ("planning_period_s", lambda d: d.update(planning_period_s="5")),
        ("seed", lambda d: d.update(seed="3")),
        ("id", lambda d: d["faps"][0].update(id=3)),
        ("demand_bps", lambda d: d["faps"][0].update(demand_bps=[1])),
        ("demand_bps", lambda d: d["faps"][0].update(demand_bps="5e7")),
        ("waypoints", lambda d: d["faps"][0]["waypoints"].__setitem__(0, [0, 1, 2])),
        ("waypoints", lambda d: d["faps"][0]["waypoints"][0].__setitem__(1, "1")),
        ("demand_schedule", lambda d: _drop_demand(d["faps"][0]).update(demand_schedule=[[0]])),
    ],
    ids=["duration-null", "period-str", "seed-str", "id-int", "demand-list", "demand-str",
         "waypoint-short", "waypoint-str", "schedule-short"],
)
def test_exit_usage_names_wrong_typed_top_level_or_fap_value(tmp_path, capsys, key, edit):
    scenario = tmp_path / "s.json"
    assert cli.main([
        "generate", "--faps", "1", "--duration", "12", "--seed", "2",
        "--out", str(scenario),
    ]) == 0
    data = json.loads(scenario.read_text())
    edit(data)
    scenario.write_text(json.dumps(data))
    rc = cli.main(["plan", "--scenario", str(scenario), "--out", str(tmp_path / "p.json")])
    assert rc == 2
    assert key in capsys.readouterr().err


def test_exit_usage_on_zero_counts(tmp_path):
    scenario, metrics, bench = tmp_path / "s.json", tmp_path / "m", tmp_path / "b.csv"
    assert cli.main([
        "generate", "--faps", "1", "--duration", "12", "--seed", "2",
        "--out", str(scenario),
    ]) == 0
    assert cli.main([
        "simulate", "--scenario", str(scenario), "--policy", "venue-center", "--runs", "0",
        "--bootstrap", "1", "--measure", "1", "--out", str(metrics),
    ]) == 2
    assert not metrics.exists()
    for flag in ("--instances", "--sim-runs"):
        assert cli.main(["benchmark", flag, "0", "--out", str(bench)]) == 2
    assert not bench.exists()


def _set(key, value):
    return lambda d: d.update({key: value})


@pytest.mark.parametrize(
    "file, named, edit",
    [
        ("scenario", "faps entry", lambda d: d["faps"].__setitem__(0, 5)),
        ("scenario", "venue", _set("venue", 5)),
        ("scenario", "faps", _set("faps", 5)),
        ("scenario", "mcs_overrides", _set("mcs_overrides", 3)),
        ("scenario", "mobility must be object", _set("mobility", "x")),
        ("plan", "plans", _set("plans", 5)),
        ("plan", "plans[0]", lambda d: d["plans"].__setitem__(0, 5)),
        ("plan", "t must be float", lambda d: d["plans"][0].update(t=None)),
        ("plan", "fgw", lambda d: d["plans"][0].update(fgw=5)),
        ("plan", "faps", lambda d: d["plans"][0].update(faps=5)),
        ("plan", "plans[0]: each faps entry", lambda d: d["plans"][0]["faps"].__setitem__(0, 5)),
        ("plan", "fgw", lambda d: d["plans"][0].update(fgw=[50.0, 50.0])),
        ("plan", "plan file: unknown keys ['extra']", _set("extra", 1)),
        ("plan", "config_echo: unknown keys ['update_periods']",
         lambda d: d["config_echo"].update(update_periods=5.0)),
        ("plan", "plans[0]: unknown keys ['fgw_typo']", lambda d: d["plans"][0].update(fgw_typo=1)),
        ("plan", "update period must be positive and finite",
         lambda d: d["config_echo"].update(sampling_period_s=math.nan)),
        ("plan", "plans[0]: t, p_tx_dbm and fgw must be finite",
         lambda d: d["plans"][0].update(p_tx_dbm=math.nan)),
        ("plan", "plans[0]: t, p_tx_dbm and fgw must be finite",
         lambda d: d["plans"][0]["fgw"].__setitem__(2, math.inf)),
        ("plan", "plans[0]: FAP fap0 holds a NaN",
         lambda d: d["plans"][0]["faps"][0].update(rho=math.nan)),
        ("plan", "plans[0]: FAP fap0: queue_pkts must be at least 1",
         lambda d: d["plans"][0]["faps"][0].update(queue_pkts=-5)),
        ("plan", "has FAPs [], but the scenario has ['fap0']",
         lambda d: d["plans"][0]["faps"].clear()),
        ("plan", "has FAPs ['fap0', 'ghost']",
         lambda d: d["plans"][0]["faps"].append({**d["plans"][0]["faps"][0], "id": "ghost"})),
        ("scenario", "FAP fap0: needs exactly one of demand_bps and demand_schedule",
         lambda d: d["faps"][0].update(demand_schedule=[[0.0, 5e6]])),
        ("scenario", "FAP fap0: needs exactly one of demand_bps and demand_schedule",
         lambda d: _drop_demand(d["faps"][0])),
        ("plan", "plans[0]: missing keys ['t']", lambda d: d["plans"][0].pop("t")),
        ("scenario", "faps[0]: missing keys ['id']", lambda d: d["faps"][0].pop("id")),
        ("scenario", "scenario: missing keys ['duration_s']", lambda d: d.pop("duration_s")),
        ("plan", "plan file: missing keys ['plans']", lambda d: d.pop("plans")),
        ("plan", "config_echo: update_period_s must be positive and finite",
         lambda d: d["config_echo"].update(update_period_s=math.nan)),
        ("scenario", "MCS 7: fair share must be positive and finite, not nan",
         _set("mcs_overrides", [{"index": 7, "min_snr_db": 35.0, "phy_rate_bps": 585e6,
                                 "fair_share_bps": math.nan}])),
    ],
    ids=["fap-entry", "venue", "faps", "mcs-overrides", "mobility-str", "plans", "plan-entry",
         "t-null", "fgw-int", "plan-faps", "plan-fap-entry", "fgw-two-numbers",
         "plan-unknown-top", "plan-unknown-echo", "plan-unknown-entry", "period-nan", "power-nan",
         "fgw-inf", "plan-fap-nan", "queue-negative", "plan-lacks-fap", "plan-extra-fap",
         "both-demands", "no-demand", "plan-lacks-t", "fap-lacks-id", "lacks-duration",
         "lacks-plans", "update-period-nan", "mcs-share-nan"],
)
def test_exit_usage_names_malformed_file_shape(tmp_path, capsys, file, named, edit):
    scenario, plan = tmp_path / "s.json", tmp_path / "p.json"
    assert cli.main([
        "generate", "--faps", "1", "--duration", "12", "--seed", "2",
        "--out", str(scenario),
    ]) == 0
    if file == "plan":
        assert cli.main(["plan", "--scenario", str(scenario), "--out", str(plan)]) == 0
    path = scenario if file == "scenario" else plan
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    if file == "scenario":
        rc = cli.main(["plan", "--scenario", str(scenario), "--out", str(plan)])
    else:
        rc = cli.main([
            "simulate", "--scenario", str(scenario), "--plan", str(plan),
            "--bootstrap", "2", "--measure", "1", "--out", str(tmp_path / "m"),
        ])
    assert rc == 2
    assert named in capsys.readouterr().err
