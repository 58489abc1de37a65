"""Command-line front end.

Subcommands: generate (scenario files), plan (plan series JSON), simulate
(metrics directories), benchmark (planner vs PSO CSV), analyze (two-sphere
capacity study, CDF/CCDF tables). Exit codes: 0 success, 2 bad input,
3 infeasible instance, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import shutil
import sys
from bisect import bisect_right
from dataclasses import asdict, replace
from pathlib import Path

from .channel import CAPACITY_MODELS, ChannelParams, capacity_bps, friis_snr_db, max_distance_m
from .errors import PlanningError
from .placement import SphereConstraint, Venue, sphere_pair_analysis
from .planner import (
    PlannerConfig,
    plan_series,
    plan_series_from_json,
    plan_series_to_json,
)
from .scenario import (
    DEFAULT_PLANNING_PERIOD_S,
    MobilityParams,
    generate_rwm,
    load_scenario,
    save_scenario,
)
from .simulator import (
    CHANNEL_MODES,
    PERCENTILE,
    PLACEMENTS,
    QUEUES,
    SERVICE_MODES,
    TRAFFIC_MODELS,
    SimConfig,
    merge_metrics,
    percentile,
    simulate,
)
from .solver import PsoParams, run_benchmark

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gpqm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a random-waypoint scenario")
    g.add_argument("--faps", type=int, default=3)
    g.add_argument("--duration", type=float, default=100.0, help="trace length in s")
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--planning-period", type=float, default=DEFAULT_PLANNING_PERIOD_S)
    demand = g.add_mutually_exclusive_group()
    demand.add_argument("--demand-fraction", type=float, action="append", default=None,
                        help="fraction of the reference fair share; repeat to cycle")
    demand.add_argument("--demand", type=float, action="append", default=None,
                        help="explicit per-FAP demand in bit/s; repeat per FAP")
    g.add_argument("--planar-z", type=float, default=None,
                   help="fix all FAP altitudes to this height")
    g.add_argument("--out", required=True, help="scenario JSON path")
    g.set_defaults(run=_cmd_generate)

    p = sub.add_parser("plan", help="plan a scenario into a plan-series JSON")
    p.add_argument("--scenario", required=True)
    p.add_argument("--delay-threshold", type=float, default=PlannerConfig.delay_threshold_s,
                   help="seconds")
    p.add_argument("--power-step", type=float, default=PlannerConfig.power_step_db, help="dB")
    p.add_argument("--out", required=True, help="plan JSON path")
    p.set_defaults(run=_cmd_plan)

    s = sub.add_parser("simulate", help="simulate a scenario under a policy")
    s.add_argument("--scenario", required=True)
    s.add_argument("--plan", default=None, help="plan JSON (required for gpqm policy)")
    s.add_argument("--policy", choices=[p for p in PLACEMENTS if p != "fixed"],
                   default=SimConfig.placement)
    s.add_argument("--queue", choices=QUEUES, default=None,
                   help="default: scheduled for gpqm, droptail otherwise")
    s.add_argument("--queue-size", type=int, default=SimConfig.queue_size,
                   help="packets; droptail and red only")
    s.add_argument("--seed", type=int, default=SimConfig.seed)
    s.add_argument("--runs", type=int, default=1)
    s.add_argument("--out", required=True, help="output directory")
    s.add_argument("--channel-mode", choices=CHANNEL_MODES, default=SimConfig.channel_mode)
    s.add_argument("--fading", choices=("on", "off"), default="on")
    s.add_argument("--traffic", choices=TRAFFIC_MODELS, default=SimConfig.traffic)
    s.add_argument("--bootstrap", type=float, default=SimConfig.bootstrap_s)
    s.add_argument("--measure", type=float, default=SimConfig.measure_s)
    s.add_argument("--baseline-power", type=float, default=SimConfig.baseline_tx_power_dbm)
    s.add_argument("--service-mode", choices=SERVICE_MODES, default=SimConfig.service_mode)
    s.add_argument("--packets-csv", action="store_true", help="also write per-packet rows")
    s.set_defaults(run=_cmd_simulate)

    b = sub.add_parser("benchmark", help="planner vs PSO on static instances")
    b.add_argument("--faps", type=int, default=3)
    b.add_argument("--instances", type=int, default=5)
    b.add_argument("--seed", type=int, default=7)
    b.add_argument("--capacity-model", choices=CAPACITY_MODELS, default="regression")
    b.add_argument("--pso-iterations", type=int, default=PsoParams.iterations)
    b.add_argument("--pso-swarm", type=int, default=PsoParams.swarm)
    b.add_argument("--sim-runs", type=int, default=3)
    b.add_argument("--out", required=True, help="CSV path")
    b.set_defaults(run=_cmd_benchmark)

    a = sub.add_parser("analyze", help="analysis utilities")
    asub = a.add_subparsers(dest="analysis", required=True)

    ap = asub.add_parser("pair", help="two-sphere overlap and capacity extremes")
    ap.add_argument("--fap", action="append", required=True, metavar="X,Y,Z",
                    help="FAP position; give exactly twice")
    ap.add_argument("--snr", type=float, action="append", required=True,
                    help="target SNR in dB; give exactly twice")
    ap.add_argument("--power", type=float, default=20.0, help="transmit power in dBm")
    ap.add_argument("--capacity-model", choices=CAPACITY_MODELS, default="shannon")
    ap.add_argument("--out", required=True, help="result JSON path")
    ap.set_defaults(run=_cmd_analyze_pair)

    ac = asub.add_parser("cdf", help="CDF/CCDF tables and percentiles from run dirs")
    ac.add_argument("--metrics", action="append", required=True,
                    help="run directory written by simulate; repeat to pool")
    ac.add_argument("--out", required=True, help="result JSON path")
    ac.set_defaults(run=_cmd_analyze_cdf)

    return parser


def _parse_point(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected X,Y,Z, got {text!r}")
    return tuple(float(v) for v in parts)


def _cmd_generate(args) -> int:
    mobility = MobilityParams(planar_z_m=args.planar_z)
    kwargs = {}
    if args.demand is not None:
        kwargs["demands_bps"] = args.demand
    if args.demand_fraction:
        kwargs["demand_fractions"] = tuple(args.demand_fraction)
    trace = generate_rwm(
        n_faps=args.faps,
        duration_s=args.duration,
        seed=args.seed,
        mobility=mobility,
        planning_period_s=args.planning_period,
        **kwargs,
    )
    save_scenario(trace, args.out)
    print(f"wrote scenario with {args.faps} FAPs, {args.duration} s, seed {args.seed} -> {args.out}")
    return EXIT_OK


def _cmd_plan(args) -> int:
    trace = load_scenario(args.scenario)
    config = PlannerConfig(
        delay_threshold_s=args.delay_threshold,
        power_step_db=args.power_step,
    )
    series = plan_series(trace, config)
    Path(args.out).write_text(
        json.dumps(plan_series_to_json(series, trace.duration_s), indent=2)
    )
    for plan in series.plans:
        fgw = ", ".join(f"{v:.1f}" for v in plan.fgw_position)
        print(f"t={plan.t_s:7.1f} s  p_tx={plan.tx_power_dbm:4.1f} dBm  fgw=({fgw})")
    print(f"wrote {len(series.plans)} plans -> {args.out}")
    return EXIT_OK


# The header of each run file that `analyze cdf` reads back; its last column holds the samples.
THROUGHPUT_HEADER = ("t_s", "throughput_bps")
DELAY_HEADER = ("delay_s",)


def _csv_prefix(field: str) -> str:
    """`field` and the comma after it, as csv.writer writes them at the start of a row."""
    buf = io.StringIO()
    csv.writer(buf).writerow([field, ""])
    return buf.getvalue().removesuffix("\r\n")


def _write_metrics(out_dir: Path, metrics, write_packets: bool, delay_parts=()) -> None:
    """Write a run's CSVs and summary. The per-packet files are streamed row by
    row as csv.writer would write them: floats by repr, CRLF line ends.

    Given `delay_parts`, the delays.csv files whose samples `metrics` pools in
    their order, the rows are copied from them rather than formatted again.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "throughput.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(THROUGHPUT_HEADER)
        # pooled runs follow one another, each labelled over the same window
        per_run = math.ceil(metrics.measure_s)
        for i, v in enumerate(metrics.throughput_samples_bps):
            w.writerow([metrics.bootstrap_s + i % per_run, v])
    with (out_dir / "delays.csv").open("w", newline="") as fh:
        csv.writer(fh).writerow(DELAY_HEADER)
        if delay_parts:
            for part in delay_parts:
                with part.open(newline="") as src:
                    src.readline()  # its header
                    shutil.copyfileobj(src, fh)
        else:
            fh.writelines(f"{v!r}\r\n" for v in metrics.delay_samples_s)
    if write_packets:
        with (out_dir / "packets.csv").open("w", newline="") as fh:
            csv.writer(fh).writerow(["source_id", "created_s", "delay_s", "dropped"])
            # every record's FAP is one of the run's FAPs
            prefix = {fap_id: _csv_prefix(fap_id) for fap_id in metrics.per_fap_goodput_bps}
            # a dropped packet has no delivery time: an empty delay, dropped 1
            fh.writelines(
                f"{prefix[fap_id]}{created!r},,1\r\n" if delivered is None
                else f"{prefix[fap_id]}{created!r},{delivered - created!r},0\r\n"
                for fap_id, created, delivered in metrics.packets
            )
    p90_delay, p90_throughput = metrics.percentiles()
    summary = {
        "label": metrics.label,
        "p90_throughput_bps": p90_throughput,
        "p90_delay_s": p90_delay if metrics.delay_samples_s else None,
        "plr": metrics.plr,
        "window_delivered": metrics.window_delivered,
        "window_dropped": metrics.window_dropped,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2))


def _cmd_simulate(args) -> int:
    if args.runs < 1:
        raise ValueError("--runs must be at least 1")
    queue = args.queue
    if queue is None:
        queue = "scheduled" if args.policy == "gpqm" else "droptail"
    if queue in ("scheduled", "codel") and args.queue_size != SimConfig.queue_size:
        raise ValueError(f"--queue-size applies to droptail and red only, not {queue}")
    base = SimConfig(
        bootstrap_s=args.bootstrap,
        measure_s=args.measure,
        seed=args.seed,
        placement=args.policy,
        queue=queue,
        queue_size=args.queue_size,
        traffic=args.traffic,
        channel_mode=args.channel_mode,
        fading=args.fading == "on",
        service_mode=args.service_mode,
        baseline_tx_power_dbm=args.baseline_power,
        record_packets=args.packets_csv,
    )
    trace = load_scenario(args.scenario)
    plan = None
    if args.plan is not None:
        plan = plan_series_from_json(json.loads(Path(args.plan).read_text()))
    out_root = Path(args.out)
    runs = []
    for k in range(args.runs):
        config = replace(base, seed=args.seed + k)
        metrics = simulate(trace, config, plan=plan)
        _write_metrics(out_root / f"seed{config.seed}", metrics, args.packets_csv)
        print(
            f"seed {config.seed}: delivered {metrics.window_delivered} pkts, "
            f"plr {metrics.plr:.4f}"
        )
        # merge_metrics reads no records: free them before the next run
        metrics = replace(metrics, packets=())
        runs.append(metrics)
    if len(runs) > 1:
        _write_metrics(out_root / "pooled", merge_metrics(runs), False,
                       [out_root / f"seed{m.seed}" / "delays.csv" for m in runs])
    print(f"wrote metrics -> {out_root}")
    return EXIT_OK


def _cmd_benchmark(args) -> int:
    rows = run_benchmark(
        n_instances=args.instances,
        n_faps=args.faps,
        base_seed=args.seed,
        capacity_model=args.capacity_model,
        pso_params=PsoParams(swarm=args.pso_swarm, iterations=args.pso_iterations),
        sim_runs=args.sim_runs,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["instance", "seed", "method", "objective_bps", "feasible",
             "p90_delay_s", "p90_throughput_bps"]
        )
        for r in rows:
            w.writerow(
                [r.instance, r.seed, r.method, f"{r.objective_bps:.1f}", int(r.feasible),
                 f"{r.p_delay_s:.6g}", f"{r.p_throughput_bps:.1f}"]
            )
    for r in rows:
        print(
            f"instance {r.instance} {r.method:>4}: objective "
            f"{r.objective_bps / 1e6:8.1f} Mbit/s feasible={int(r.feasible)} "
            f"p90_delay={r.p_delay_s * 1e3:.3f} ms"
        )
    print(f"wrote benchmark CSV -> {out}")
    return EXIT_OK


def _cmd_analyze_pair(args) -> int:
    if len(args.fap) != 2 or len(args.snr) != 2:
        raise ValueError("pair analysis needs exactly two --fap and two --snr")
    channel = ChannelParams()
    venue = Venue()
    spheres = [
        SphereConstraint(_parse_point(f), max_distance_m(channel, args.power, snr))
        for f, snr in zip(args.fap, args.snr)
    ]

    def capacity(d: float) -> float:
        return capacity_bps(args.capacity_model, channel, friis_snr_db(channel, args.power, d))

    result = asdict(sphere_pair_analysis(spheres[0], spheres[1], venue, capacity))
    radii = [s.radius_m for s in spheres]
    payload = {"overlap": result.pop("overlap"), "radii_m": radii, **result}
    Path(args.out).write_text(json.dumps(payload, indent=2))
    print(f"overlap: {payload['overlap']} -> {args.out}")
    return EXIT_OK


def _resolve_run_dir(run: Path) -> Path:
    # simulate writes per-seed leaves under --out; accept the parent too
    if (run / "throughput.csv").exists():
        return run
    if (run / "pooled" / "throughput.csv").exists():
        return run / "pooled"
    seeds = sorted(p for p in run.glob("seed*") if (p / "throughput.csv").exists())
    if len(seeds) == 1:
        return seeds[0]
    return run


def _read_column(path: Path, header: tuple[str, ...]) -> list[float]:
    """The last column of a run file written under `header`.

    Raises a ValueError naming the file and the line of a different header or
    of a row that is not `len(header)` fields ending in a finite number.
    """
    with path.open(newline="") as fh:
        rows = csv.reader(fh)
        if tuple(next(rows, ())) != header:
            raise ValueError(f"{path} line 1: header must be {','.join(header)}")
        values = []
        for row in rows:
            try:
                value = float(row[-1])
            except (IndexError, ValueError):
                value = math.nan
            if len(row) != len(header) or not math.isfinite(value):
                raise ValueError(
                    f"{path} line {rows.line_num}: expected {len(header)} fields ending in a "
                    f"finite number, not {row}"
                )
            values.append(value)
    return values


def _cmd_analyze_cdf(args) -> int:
    delays: list[float] = []
    throughputs: list[float] = []
    for d in args.metrics:
        run = _resolve_run_dir(Path(d))
        throughputs += _read_column(run / "throughput.csv", THROUGHPUT_HEADER)
        delays += _read_column(run / "delays.csv", DELAY_HEADER)
    throughputs.sort()
    delays.sort()
    payload = {
        "percentile": PERCENTILE,
        "throughput": {
            "p_exceeded_bps": percentile(throughputs, 100.0 - PERCENTILE),
            "ccdf": [(x, 1.0 - cdf) for x, cdf in _cdf_points(throughputs)],
        },
    }
    if delays:
        payload["delay"] = {
            "p_value_s": percentile(delays, PERCENTILE),
            "cdf": _cdf_points(delays),
        }
    Path(args.out).write_text(json.dumps(payload, indent=2))
    print(f"wrote analysis -> {args.out}")
    return EXIT_OK


def _cdf_points(ordered: list[float]) -> list[tuple[float, float]]:
    """The empirical CDF of sorted samples at 50 evenly spaced points from the
    smallest to the largest sample."""
    lo, hi = ordered[0], ordered[-1]
    grid = [lo] if hi <= lo else [lo + (hi - lo) * i / 49 for i in range(50)]
    return [(x, bisect_right(ordered, x) / len(ordered)) for x in grid]


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except PlanningError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
