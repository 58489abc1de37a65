"""The benchmark workloads.

A part builds its inputs from the seed in `setup`, runs one round of
operations in `run_round` and checks the first round's outputs in `check`.
A workload of `WORKLOADS` runs its parts' rounds back to back as one round.
Every round repeats the same operations on the same inputs, so each later
round's outputs are compared with the first round's and a check verdict
holds for every round. All gpqm calls go through module attributes at call
time (gpqm.simulator.simulate, not a name imported once), so the timing and
tracing wrappers in bench_trace see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

import gpqm.channel
import gpqm.cli
import gpqm.placement
import gpqm.planner
import gpqm.scenario
import gpqm.simulator
import gpqm.solver
from gpqm.errors import PlanningError

import bench_checks as chk

DELAY_BOUND_S = 0.010
TOP_PHY_RATE_BPS = 780.0e6  # 802.11ac 160 MHz MCS 9
MAC_EFFICIENCY = 0.8


def min_transmission_s(n_faps: int) -> float:
    """One packet's air time at the top fair share for `n_faps` contenders."""
    return chk.PACKET_BITS / (MAC_EFFICIENCY * TOP_PHY_RATE_BPS / n_faps)


def channel_dict(ch) -> dict:
    return {k: getattr(ch, k) for k in ("carrier_frequency_hz", "noise_power_dbm",
                                        "bandwidth_hz", "max_tx_power_dbm")}


def venue_dict(v) -> dict:
    return {k: getattr(v, k) for k in ("x_max_m", "y_max_m", "z_max_m",
                                       "min_separation_m", "min_altitude_m")}


class Workload:
    """One part: its inputs, a round of its operations and their checks."""

    def __init__(self, seed: int, workdir: Path, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.round_index = 0

    def ops(self) -> list[str]:
        raise NotImplementedError

    def setup(self, rec) -> None:
        raise NotImplementedError

    def run_round(self, rec) -> set[str]:
        """Run every op once; return the ops that failed or changed output."""
        raise NotImplementedError

    def check(self, rec) -> tuple[dict[str, list[str]], list[str]]:
        """Failures per op, and failures of the run as a whole."""
        raise NotImplementedError

    def sim_load(self, rec) -> tuple[int, float]:
        """(packets in the window, median seconds) over the run's simulations."""
        raise NotImplementedError

    def plan_times(self, rec) -> list[float] | None:
        """Best wall time of each distinct plan_snapshot call this part
        times as an operation, or None when it times none."""
        return None

    def install(self, rec) -> None:
        """Wrap the gpqm functions whose calls this workload's metrics need."""

    def cleanup(self) -> None:
        """Remove what the run wrote, apart from the span file."""

    def _span(self, name: str, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call_span(name, fn, *args, **kwargs)


# --- pipeline -------------------------------------------------------------


class Pipeline(Workload):
    """The README pipeline through gpqm.cli.main, on the README's scenario.

    The README's 2 s warm-up, so the window sees queues in steady state, and
    a 1 s window in place of its 8 s, so each command is tried many times.
    """

    BOOTSTRAP_S, MEASURE_S = 2.0, 1.0

    def ops(self) -> list[str]:
        return [op for op, _, _ in self.commands]

    def setup(self, rec) -> None:
        d = self.workdir / "pipeline"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        self.dir = d
        s, window = str(self.seed), ["--bootstrap", str(self.BOOTSTRAP_S),
                                      "--measure", str(self.MEASURE_S)]
        scen, plan = str(d / "scenario.json"), str(d / "plan.json")
        planned, baseline = d / "runs" / "planned", d / "runs" / "baseline"
        self.planned, self.baseline = planned, baseline
        self.commands = [
            ("generate", ["generate", "--faps", "3", "--duration", "40", "--seed", "6",
                          "--out", scen], [Path(scen)]),
            ("plan", ["plan", "--scenario", scen, "--out", plan], [Path(plan)]),
            ("simulate-gpqm", ["simulate", "--scenario", scen, "--plan", plan,
                               "--policy", "gpqm", "--queue", "scheduled", "--runs", "2",
                               "--seed", s, *window, "--out", str(planned)], [planned]),
            ("simulate-baseline", ["simulate", "--scenario", scen, "--policy", "venue-center",
                                   "--queue", "droptail", "--seed", s, *window,
                                   "--packets-csv", "--out", str(baseline)], [baseline]),
            ("analyze-cdf", ["analyze", "cdf", "--metrics", str(planned), "--metrics",
                             str(baseline), "--out", str(d / "cdf.json")], [d / "cdf.json"]),
        ]
        self.digests: dict[str, str] = {}
        self.determinism: list[str] = []

    @staticmethod
    def _files(paths: list[Path]) -> list[Path]:
        out = []
        for p in paths:
            out += sorted(f for f in p.rglob("*") if f.is_file()) if p.is_dir() else [p]
        return out

    def _cli(self, argv: list[str]) -> int:
        sub = "analyze_cdf" if argv[0] == "analyze" else argv[0]
        with contextlib.redirect_stdout(io.StringIO()):
            return self._span(f"cli.{sub}", gpqm.cli.main, argv)

    def run_round(self, rec) -> set[str]:
        failed = set()
        for op, argv, outputs in self.commands:
            try:
                code = rec.op(op, self._cli, argv)
            except Exception:  # a traceback out of the CLI is a failed command
                code = -1
            if code != 0:
                failed.add(op)
                continue
            files = self._files(outputs)
            h = hashlib.sha256()
            for f in files:
                h.update(f.read_bytes())
            if self.digests.setdefault(op, h.hexdigest()) != h.hexdigest():
                failed.add(op)
                self.determinism.append(f"{op}: round {self.round_index} output differs")
            if self.tracer is not None:
                self.tracer.counts["cli.bytes_written"] += sum(f.stat().st_size for f in files)
                if op == "analyze-cdf":
                    self.tracer.counts["cli.cdf_rows"] += sum(
                        len(f.read_text().splitlines()) - 1 for f in self._cdf_inputs())
        self.round_index += 1
        return failed

    def _seed_dirs(self) -> list[Path]:
        return [self.planned / f"seed{self.seed}", self.planned / f"seed{self.seed + 1}",
                self.baseline / f"seed{self.seed}"]

    def _cdf_inputs(self) -> list[Path]:
        return [self.planned / "pooled" / n for n in ("throughput.csv", "delays.csv")] + [
            self.baseline / f"seed{self.seed}" / n for n in ("throughput.csv", "delays.csv")]

    def check(self, rec):
        scen = json.loads((self.dir / "scenario.json").read_text())
        per_op: dict[str, list[str]] = {}
        faps = scen["faps"]
        per_op["generate"] = (
            [] if len(faps) == 3 and all(f["waypoints"] for f in faps)
            else ["scenario lacks 3 FAPs with waypoints"])
        plan = json.loads((self.dir / "plan.json").read_text())
        per_op["plan"] = chk.audit_plan_file(plan, scen, DELAY_BOUND_S)
        offered = sum(f["demand_bps"] for f in faps) / chk.PACKET_BITS
        biggest = max([100] + [f["queue_pkts"] for p in plan["plans"] for f in p["faps"]])
        slack = len(faps) * (biggest + 1)
        dirs = self._seed_dirs()
        gpqm_bad = []
        for d in dirs[:2]:
            gpqm_bad += chk.check_run_dir(d, self.MEASURE_S, offered, slack)
        gpqm_bad += chk.check_pooled(self.planned / "pooled", dirs[:2])
        per_op["simulate-gpqm"] = gpqm_bad
        per_op["simulate-baseline"] = (
            chk.check_run_dir(dirs[2], self.MEASURE_S, offered, slack)
            + chk.check_packets_csv(dirs[2], self.BOOTSTRAP_S, self.MEASURE_S))
        cdf = json.loads((self.dir / "cdf.json").read_text())
        per_op["analyze-cdf"] = chk.check_cdf(cdf, [self.planned / "pooled", dirs[2]], 90.0)
        return per_op, list(self.determinism)

    def sim_load(self, rec) -> tuple[int, float]:
        pkts = 0
        for d in self._seed_dirs():
            summary = json.loads((d / "summary.json").read_text())
            pkts += summary["window_delivered"] + summary["window_dropped"]
        secs = math.fsum(rec.typical["body:op:simulate-gpqm"]
                         + rec.typical["body:op:simulate-baseline"])
        return pkts, secs

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# --- queue-mix ------------------------------------------------------------

ORACLE_MU_PPS = MAC_EFFICIENCY * 526.5e6 / chk.PACKET_BITS  # MCS 6, one contender
ORACLE_FAP = (50.0, 50.0, 10.0)
ORACLE_GATEWAY = (50.0, 70.0, 10.0)


class QueueMix(Workload):
    """Library simulate over the cells the pipeline never touches, plus oracles."""

    # whole seconds: simulate bins throughput by the second from t = 0
    BOOTSTRAP_S, MEASURE_S = 1.0, 1.0
    MOBILE_CELLS = (
        ("red-poisson-independent", dict(queue="red")),
        ("codel-poisson-independent", dict(queue="codel")),
        ("droptail-onoff-independent", dict(queue="droptail", traffic="onoff")),
        ("droptail-aimd-independent", dict(queue="droptail", traffic="aimd")),
        ("droptail-poisson-shared-nofade",
         dict(queue="droptail", channel_mode="shared", fading=False)),
        ("droptail-poisson-independent-exp",
         dict(queue="droptail", service_mode="exponential")),
    )
    MD1_RHO, MM11_RHO, ORACLE_MEASURE_S = 0.5, 0.7, 2.0

    def ops(self) -> list[str]:
        return [name for name, _, _, _ in self.cells]

    def _oracle_trace(self, rho: float):
        duration = self.BOOTSTRAP_S + self.ORACLE_MEASURE_S
        fap = gpqm.scenario.FapTrace(
            "s0", ((0.0, *ORACLE_FAP),),
            gpqm.scenario.DemandProfile(constant_bps=rho * ORACLE_MU_PPS * chk.PACKET_BITS))
        return gpqm.scenario.ScenarioTrace(
            venue=gpqm.placement.Venue(), channel=gpqm.channel.ChannelParams(), faps=(fap,),
            duration_s=duration, planning_period_s=5.0, seed=0)

    def setup(self, rec) -> None:
        trace = gpqm.scenario.generate_rwm(3, 40.0, seed=6)
        config = gpqm.planner.PlannerConfig(update_period_s=trace.planning_period_s)
        plan = gpqm.planner.plan_series(trace, config)
        base = gpqm.simulator.SimConfig(bootstrap_s=self.BOOTSTRAP_S, measure_s=self.MEASURE_S,
                                        seed=self.seed, placement="gpqm")
        self.cells = [(name, trace, replace(base, **kw), plan)
                      for name, kw in self.MOBILE_CELLS]
        oracle = gpqm.simulator.SimConfig(
            bootstrap_s=self.BOOTSTRAP_S, measure_s=self.ORACLE_MEASURE_S, seed=self.seed,
            placement="fixed", fixed_position=ORACLE_GATEWAY, queue="droptail", fading=False)
        self.cells += [
            ("oracle-md1", self._oracle_trace(self.MD1_RHO),
             replace(oracle, queue_size=100_000), None),
            ("oracle-mm11", self._oracle_trace(self.MM11_RHO),
             replace(oracle, queue_size=1, service_mode="exponential"), None),
        ]
        self.prints: dict[str, tuple] = {}
        self.verdicts: dict[str, list[str]] = {}
        self.window_pkts: dict[str, int] = {}
        self.determinism: list[str] = []

    def _check_cell(self, name, trace, config, m) -> list[str]:
        deterministic = config.service_mode == "deterministic"
        bad = chk.check_sim_metrics(
            m, min_transmission_s(len(trace.faps)) if deterministic else 0.0)
        if name == "oracle-md1":
            bad += chk.check_md1_oracle(m, self.MD1_RHO, ORACLE_MU_PPS)
        elif name == "oracle-mm11":
            bad += chk.check_mm11_oracle(m, self.MM11_RHO)
        return bad

    def run_round(self, rec) -> set[str]:
        """First-round results are checked at once and kept only as
        fingerprints, so the benchmark holds no large sample tuples."""
        failed = set()
        for name, trace, config, plan in self.cells:
            try:
                m = rec.op(name, gpqm.simulator.simulate, trace, config, plan=plan)
            except Exception:
                failed.add(name)
                continue
            if name not in self.prints:
                self.verdicts[name] = self._check_cell(name, trace, config, m)
                self.window_pkts[name] = m.window_delivered + m.window_dropped
            if self.prints.setdefault(name, fingerprint(m)) != fingerprint(m):
                failed.add(name)
                self.determinism.append(f"{name}: round {self.round_index} differs from round 0")
            del m
        self.round_index += 1
        return failed

    def check(self, rec):
        name, trace, config, plan = self.cells[0]
        if name in self.prints:
            again = gpqm.simulator.simulate(trace, config, plan=plan)
            if fingerprint(again) != self.prints[name]:
                self.determinism.append(f"{name}: a repeat after the timed body differs")
        return dict(self.verdicts), list(self.determinism)

    def sim_load(self, rec) -> tuple[int, float]:
        secs = math.fsum(rec.typical[f"body:op:{name}"][0] for name in self.window_pkts)
        return sum(self.window_pkts.values()), secs


def fingerprint(m) -> tuple:
    """Every SimMetrics field, the sample tuples by hash."""
    return (m.label, m.seed, m.generated, m.delivered, m.dropped, m.residual,
            m.window_generated, m.window_delivered, m.window_dropped,
            hash(m.delay_samples_s), hash(m.throughput_samples_bps),
            tuple(sorted(m.per_fap_goodput_bps.items())), hash(m.packets))


# --- plan-trace -----------------------------------------------------------


class PlanTrace(Workload):
    """plan_snapshot on every snapshot of 3- and 5-FAP random-waypoint traces.

    The traces are the same for every benchmark seed: p99 over 1008 snapshots
    is set by the ten slowest, and a new draw of snapshots per seed would move
    it more than the machine's noise does. Trace seeds 1000-1047 all plan.
    """

    TRACES, DURATION_S, FIRST_TRACE_SEED = 48, 100.0, 1000  # 21 snapshots a trace
    MINIMALITY_EVERY = 25
    CONFIG = gpqm.planner.PlannerConfig()

    def ops(self) -> list[str]:
        return [f"snapshot{k}" for k in range(len(self.items))]

    def setup(self, rec) -> None:
        self.items = []
        for k in range(self.TRACES):
            n = 3 if k % 2 == 0 else 5
            trace = gpqm.scenario.generate_rwm(n, self.DURATION_S,
                                               seed=self.FIRST_TRACE_SEED + k)
            table = trace.mcs_table()
            self.items += [(trace, table, snap) for snap in trace.snapshots()]
        for trace, table, snap in self.items[:5]:  # warm-up
            gpqm.planner.plan_snapshot(snap, trace.channel, trace.venue, self.CONFIG, table)
        self.first: list = []
        self.determinism: list[str] = []

    def run_round(self, rec) -> set[str]:
        failed = set()
        plans = []
        for k, (trace, table, snap) in enumerate(self.items):
            try:
                plan = rec.time("op:snapshot", gpqm.planner.plan_snapshot, snap, trace.channel,
                                trace.venue, self.CONFIG, table)
            except Exception:
                failed.add(f"snapshot{k}")
                plan = None
            plans.append(plan)
        if not self.first:
            self.first = plans
        else:
            for k, (a, b) in enumerate(zip(self.first, plans)):
                if a != b:
                    failed.add(f"snapshot{k}")
                    self.determinism.append(f"snapshot{k}: round {self.round_index} differs")
        self.round_index += 1
        return failed

    def check(self, rec):
        per_op: dict[str, list[str]] = {}
        ch, venue = channel_dict(self.items[0][0].channel), venue_dict(self.items[0][0].venue)
        for k, ((trace, table, snap), plan) in enumerate(zip(self.items, self.first)):
            if plan is None:
                continue
            bad = [f"check_formulation: {v}" for v in gpqm.planner.check_formulation(
                plan, snap, trace.channel, trace.venue, self.CONFIG, table).violations]
            positions = {f.fap_id: chk.interpolate(f.waypoints, snap.t_s) for f in trace.faps}
            bad += chk.audit_plan(chk.plan_to_dict(plan), positions, ch, venue, DELAY_BOUND_S)
            if k % self.MINIMALITY_EVERY == 0 and plan.tx_power_dbm > self.CONFIG.min_tx_power_dbm:
                weaker = replace(trace.channel,
                                 max_tx_power_dbm=plan.tx_power_dbm - self.CONFIG.power_step_db)
                try:
                    gpqm.planner.plan_snapshot(snap, weaker, trace.venue, self.CONFIG, table)
                    bad.append(f"plans at {weaker.max_tx_power_dbm} dBm, under the plan's power")
                except PlanningError:
                    pass
            if bad:
                per_op[f"snapshot{k}"] = bad
        return per_op, list(self.determinism)

    def plan_times(self, rec) -> list[float]:
        return rec.typical["body:op:snapshot"]

    def sim_load(self, rec) -> tuple[int, float]:
        return 0, 0.0


# --- optimum --------------------------------------------------------------


class Optimum(Workload):
    """PSO on a single-FAP Shannon instance, run_benchmark, and two pair analyses."""

    PAIR_POWER_DBM = 20.0
    PAIR_REL_TOL = 0.01
    OPTIMUM_REL_TOL = 0.05
    # Acceptance test AC6's first instance and swarm seed. On random
    # instances, or with other swarm seeds, the default-budget swarm often
    # stops in a venue corner that is not the optimum (see CHANGES.md), so
    # the 5 % check would fail on some benchmark seeds and not others.
    SINGLE_FAP_POS, SINGLE_FAP_DEMAND_BPS, SINGLE_FAP_SWARM_SEED = (20.0, 30.0, 10.0), 100e6, 11
    BENCH_PSO = dict(swarm=30, iterations=300)

    def ops(self) -> list[str]:
        return ["solve", "benchmark", "pair-shannon", "pair-regression"]

    def setup(self, rec) -> None:
        rng = random.Random(self.seed)
        self.channel = gpqm.channel.ChannelParams()
        self.venue = gpqm.placement.Venue()
        fap = gpqm.scenario.FapState("f0", self.SINGLE_FAP_POS, self.SINGLE_FAP_DEMAND_BPS)
        self.single = gpqm.solver.OptProblem(
            snapshot=gpqm.scenario.Snapshot(0.0, (fap,)),
            channel=self.channel, venue=self.venue, capacity_model="shannon")
        c1 = (rng.uniform(35.0, 65.0), rng.uniform(35.0, 65.0), rng.uniform(5.0, 15.0))
        angle, gap = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(20.0, 30.0)
        c2 = (c1[0] + gap * math.cos(angle), c1[1] + gap * math.sin(angle), c1[2])
        radii = [gpqm.channel.max_distance_m(self.channel, self.PAIR_POWER_DBM,
                                             rng.uniform(29.0, 32.0)) for _ in range(2)]
        self.pair = ([c1, c2], radii)
        self.spheres = [gpqm.placement.SphereConstraint(c, r) for c, r in zip(*self.pair)]
        ch, power = self.channel, self.PAIR_POWER_DBM
        model = gpqm.channel.fit_rate_model(gpqm.channel.calibrated_mcs_table())
        self.capacity = {
            "shannon": lambda d: gpqm.channel.shannon_capacity_bps(
                ch.bandwidth_hz, gpqm.channel.friis_snr_db(ch, power, d)),
            "regression": lambda d: model.capacity_bps(gpqm.channel.friis_snr_db(ch, power, d)),
        }
        self.bench_sim = gpqm.simulator.SimConfig(bootstrap_s=0.0, measure_s=1.0,
                                                  placement="gpqm", queue="scheduled")
        self.outputs: dict[str, object] = {}
        self.determinism: list[str] = []
        # warm-up: a few fitness evaluations
        for _ in range(10):
            gpqm.solver.evaluate(self.single, (50.0, 50.0, 10.0, 10.0))

    def _op(self, op: str):
        if op == "solve":
            return gpqm.solver.solve_pso(self.single, seed=self.SINGLE_FAP_SWARM_SEED)
        if op == "benchmark":
            return gpqm.solver.run_benchmark(
                n_instances=2, n_faps=3, base_seed=7,
                pso_params=gpqm.solver.PsoParams(**self.BENCH_PSO),
                sim_config=self.bench_sim, sim_runs=1)
        model = op.split("-")[1]
        return gpqm.placement.sphere_pair_analysis(self.spheres[0], self.spheres[1],
                                                   self.venue, self.capacity[model])

    def run_round(self, rec) -> set[str]:
        failed = set()
        for op in self.ops():
            try:
                out = rec.op(op, self._op, op)
            except Exception:
                failed.add(op)
                continue
            if self.outputs.setdefault(op, out) != out:
                failed.add(op)
                self.determinism.append(f"{op}: round {self.round_index} differs")
        self.round_index += 1
        return failed

    def check(self, rec):
        ch, venue = channel_dict(self.channel), venue_dict(self.venue)
        per_op: dict[str, list[str]] = {}
        pso_runs = rec.notes.get("solve_pso", [])
        if "solve" in self.outputs:
            res = self.outputs["solve"]
            fap = self.single.snapshot.faps[0]
            bad = chk.check_fitness_history(res.fitness_history,
                                            gpqm.solver.PsoParams().iterations)
            bad += chk.check_single_fap_optimum(res, fap.position, fap.demand_bps, ch, venue,
                                                DELAY_BOUND_S, self.OPTIMUM_REL_TOL)
            per_op["solve"] = bad
        if "benchmark" in self.outputs:
            rows = self.outputs["benchmark"]
            bad = []
            instances = sorted({r.instance for r in rows})
            if instances != [0, 1] or len(rows) != 4:
                bad.append(f"{len(rows)} rows for instances {instances}")
            for r in rows:
                if not (math.isfinite(r.p_delay_s) and r.p_delay_s > 0.0
                        and math.isfinite(r.p_throughput_bps) and r.p_throughput_bps > 0.0):
                    bad.append(f"instance {r.instance} {r.method}: delay {r.p_delay_s}, "
                               f"throughput {r.p_throughput_bps}")
            for problem, iterations, res in pso_runs:
                if problem is self.single:
                    continue
                bad += chk.check_fitness_history(res.fitness_history, iterations)
                if res.feasible:
                    faps = [(f.position, f.demand_bps) for f in problem.snapshot.faps]
                    cap = MAC_EFFICIENCY * 585.0e6  # calibrated top mode, MCS 7
                    bad += chk.check_solver_result(res, faps, ch, venue, "regression",
                                                   DELAY_BOUND_S, cap)
            per_op["benchmark"] = bad
        (c1, c2), radii = self.pair
        base = chk.friis_snr_db(ch, self.PAIR_POWER_DBM, 1.0)
        for model in ("shannon", "regression"):
            op = f"pair-{model}"
            if op not in self.outputs:
                continue

            def total(d1, d2, model=model):
                snr = [base - 20.0 * np.log10(d) for d in (d1, d2)]
                return (chk.capacity_bps(model, ch["bandwidth_hz"], snr[0])
                        + chk.capacity_bps(model, ch["bandwidth_hz"], snr[1]))

            per_op[op] = chk.check_pair_analysis(self.outputs[op], (c1, c2), radii, venue,
                                                 total, self.PAIR_REL_TOL)
        return per_op, list(self.determinism)

    def sim_load(self, rec) -> tuple[int, float]:
        return sum(rec.notes.get("sim", [])), math.fsum(rec.typical.get("body:sim", []))

    def install(self, rec) -> None:
        rec.wrap(gpqm.solver, "solve_pso", "solve_pso",
                 keep=lambda a, kw, r: (a[0], (kw.get("params") or gpqm.solver.PsoParams())
                                        .iterations, r))
        rec.wrap(gpqm.solver, "simulate", "sim",
                 keep=lambda a, kw, m: m.window_delivered + m.window_dropped)



# --- the workloads --------------------------------------------------------


class Combined(Workload):
    """Parts whose rounds run back to back as one round of one workload."""

    def __init__(self, parts, seed: int, workdir: Path, tracer=None):
        super().__init__(seed, workdir, tracer)
        self.parts = [part(seed, workdir, tracer) for part in parts]

    def ops(self) -> list[str]:
        return [op for part in self.parts for op in part.ops()]

    def setup(self, rec) -> None:
        for part in self.parts:
            part.setup(rec)

    def run_round(self, rec) -> set[str]:
        return set().union(*(part.run_round(rec) for part in self.parts))

    def check(self, rec):
        per_op: dict[str, list[str]] = {}
        run_bad: list[str] = []
        for part in self.parts:
            ops, bad = part.check(rec)
            per_op.update(ops)
            run_bad += bad
        return per_op, run_bad

    def sim_load(self, rec) -> tuple[int, float]:
        loads = [part.sim_load(rec) for part in self.parts]
        return sum(p for p, _ in loads), math.fsum(s for _, s in loads)

    def plan_times(self, rec) -> list[float]:
        """The snapshots a part plans as operations, else every plan_snapshot
        call of the round (those inside CLI commands and library drivers)."""
        for part in self.parts:
            times = part.plan_times(rec)
            if times is not None:
                return times
        return rec.typical["body:plan_snapshot"]

    def install(self, rec) -> None:
        for part in self.parts:
            part.install(rec)

    def cleanup(self) -> None:
        for part in self.parts:
            part.cleanup()


# Two workloads, not four: every end-to-end metric is printed on every
# workload, and alone queue-mix times no planning call and plan-trace no
# simulation; paired, each workload has both to measure (see README.md).
WORKLOADS = {
    "pipeline": (Pipeline, QueueMix),  # simulator, CLI and scenario layers
    "optimum": (Optimum, PlanTrace),  # solver, placement and planner layers
}


def make(name: str, seed: int, workdir: Path, tracer=None) -> Combined:
    return Combined(WORKLOADS[name], seed, workdir, tracer)
