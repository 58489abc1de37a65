"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

The run imports gpqm from the checkout's src/ (never an installed copy),
times that import in IMPORTS fresh interpreters, sets its inputs up SETUPS
times, then repeats whole rounds of the workload's operations until --seconds
have passed, checks the outputs and prints one JSON object as its last line:
correct, attempted, failed and the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1, which also writes a span file under
.bench_out/). Every time is scaled to the machine's nominal speed, read from
the reference loop of bench_speed beside the calls, and each call counts at
its median over the rounds: the machine's speed drifts by up to 1.5x over
seconds to minutes, and the scaled times do not.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IMPORTS, SETUPS = 9, 5
TIME_UNITS = ("s", "ms", "us", "s/Mrow")


def _import_s(src: Path) -> float:
    """Median time of `import gpqm` in IMPORTS fresh interpreters, each
    scaled by the reference loop run just before and after it in the same
    interpreter (so the standard-library modules the loop needs are loaded
    before the clock starts).

    One in-process import is a single sample of a ~0.2 s step that the
    machine's drift moves by a third.
    """
    code = ("import time, bench_speed as b; u = b.unit_s(10); t = time.perf_counter(); "
            "import gpqm; dt = time.perf_counter() - t; "
            "print(dt * b.UNIT_S / (0.5 * (u + b.unit_s(10))))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "benchmarks")]))
    times = [float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, check=True).stdout)
             for _ in range(IMPORTS)]
    return statistics.median(times)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "gpqm" / "__init__.py").is_file():
        print(f"gpqm sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import gpqm

    if Path(gpqm.__file__).resolve().parent != (src / "gpqm").resolve():
        print(f"imported gpqm from {gpqm.__file__}, not from {src}", file=sys.stderr)
        return 2
    import_s = _import_s(src)

    import bench_checks
    import bench_trace
    import bench_workloads

    if args.workload not in bench_workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench_workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tracer = bench_trace.Tracer() if args.trace else None
    workload = bench_workloads.make(args.workload, args.seed, workdir, tracer)
    rec = bench_trace.Recorder()
    if tracer is not None:
        tracer.install()
    for mod in (gpqm.planner, gpqm.solver):
        rec.wrap(mod, "plan_snapshot", "plan_snapshot")
    workload.install(rec)

    try:
        rec.calibrate()
        for _ in range(SETUPS):
            rec.time("set-up", workload.setup, rec)
            rec.end_round()

        if tracer is not None:
            tracer.mark_body()
        rec.phase = "body"
        ops = workload.ops()
        failed_by_round = []
        start = time.perf_counter()
        while not failed_by_round or time.perf_counter() - start < args.seconds:
            rec.keep = not failed_by_round
            failed_by_round.append(workload.run_round(rec))
            rec.end_round()
        rec.keep = False
        peak_rss_mb = _peak_rss_mb()

        rec.summarize()
        setup_s = import_s + rec.typical["setup:set-up"][0]
        rec.unwrap()  # wrapped last, so unwrapped first
        if tracer is not None:
            tracer.uninstall()
        rec.phase = "check"
        per_op, run_bad = workload.check(rec)
        rounds = len(failed_by_round)
        wall_s = sum(sum(t) for name, t in rec.typical.items() if name.startswith("body:op:"))
        speeds = sorted(rec.speed_readings)
        print(f"machine speed, nominal over measured: median {statistics.median(speeds):.3f}, "
              f"range {speeds[0]:.3f}-{speeds[-1]:.3f} over {len(speeds)} readings")
        if tracer is not None:
            tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
            # per-layer times are raw spans; scale them by the run's median speed reading
            speed = statistics.median(speeds)
            metrics = {name: (value * speed if unit in TIME_UNITS else value, unit)
                       for name, (value, unit) in tracer.metrics(rounds).items()}
            print(f"{args.workload} seed {args.seed} traced: wall_s {wall_s:.4f} over {rounds} rounds")
        else:
            pkts, sim_s = workload.sim_load(rec)
            plans = sorted(workload.plan_times(rec))
            metrics = {
                "wall_s": (wall_s, "s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "sim_pkts_per_s": (pkts / sim_s, "packets/s"),
                "plan_p50_ms": (bench_checks.nearest_rank(plans, 50.0) * 1e3, "ms"),
                "plan_p99_ms": (bench_checks.nearest_rank(plans, 99.0) * 1e3, "ms"),
            }
            print(f"{args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} ops in "
                  f"{time.perf_counter() - start:.1f} s; {len(plans)} distinct plan calls")
            for name, times in sorted(rec.typical.items()):
                print(f"  median {name:38s} {len(times):5d} calls {sum(times):10.4f} s")
    finally:
        workload.cleanup()

    check_failed = {op for op, msgs in per_op.items() if msgs}
    for op in sorted(check_failed):
        for msg in per_op[op][:3]:
            print(f"CHECK FAILED {op}: {msg}", file=sys.stderr)
    for msg in run_bad:
        print(f"CHECK FAILED (run): {msg}", file=sys.stderr)
    attempted = len(ops) * rounds
    failed = sum(len(f | check_failed) for f in failed_by_round)
    correct = not check_failed and not run_bad
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
