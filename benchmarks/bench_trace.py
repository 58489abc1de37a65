"""Call timing around gpqm's public functions, from outside the package.

`Recorder` times calls on every run. The end-to-end metrics need the wall
time of whole operations and of the plan_snapshot and simulate calls made
inside CLI commands and library drivers. Calls land in the current round
under "<phase>:<name>". After every operation timed with `op`, and after
every CALIBRATE_S of other outermost calls, the reference loop of bench_speed
reads the machine's speed, and the calls timed since the last reading are
scaled to the nominal speed by the mean of the two readings around them.
`summarize` takes each call's median over the rounds, matched by the call's
position in the round (every round of a phase repeats the same calls; a
round where an operation raised part-way and so made fewer calls is left out
of that call's medians).

`Tracer` (traced runs only) adds a span at every layer boundary, with its
parent, plus count-and-total counters for functions called too often for a
span each. Spans stay in memory and are written once, at the end; their
times are raw wall times.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from array import array
from collections import defaultdict
from pathlib import Path

import gpqm.cli
import gpqm.placement
import gpqm.planner
import gpqm.scenario
import gpqm.simulator
import gpqm.solver

import bench_speed

perf = time.perf_counter


def _patch(undo: list, owner, attr: str, make) -> None:
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    undo.append((owner, attr, original))


def _restore(undo: list) -> None:
    while undo:
        owner, attr, original = undo.pop()
        setattr(owner, attr, original)


# Read the machine's speed after every CALIBRATE_S of timed outermost calls,
# with a reference run of REF_SHARE of that time, at least MIN_UNITS units.
CALIBRATE_S, REF_SHARE, MIN_UNITS = 0.25, 0.2, 10


class Recorder:
    """Per-call wall times at nominal machine speed; a median per call over rounds."""

    def __init__(self):
        self.phase = "setup"
        self.keep = False  # note wrapped results while set (the first body round)
        self.current: dict[str, list[float]] = defaultdict(list)
        self.rounds: dict[str, list[list[float]]] = defaultdict(list)
        self.typical: dict[str, list[float]] = {}
        self.notes: dict[str, list] = defaultdict(list)
        self.speed_readings: list[float] = []  # nominal over measured reference speed
        self._undo: list = []
        self._depth = 0
        self._pending: list[tuple[list[float], int]] = []  # timed, not yet scaled
        self._pending_s = 0.0
        self._unit_s: float | None = None

    def time(self, name: str, fn, *args, **kwargs):
        self._depth += 1
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf() - t0
            self._depth -= 1
            times = self.current[f"{self.phase}:{name}"]
            times.append(dt)
            self._pending.append((times, len(times) - 1))
            if self._depth == 0:
                self._pending_s += dt
                if self._pending_s >= CALIBRATE_S:
                    self.calibrate()

    def op(self, name: str, fn, *args, **kwargs):
        """Time one operation as "op:<name>" and read the machine's speed right
        after it, so the reading brackets it tightly (the speed moves within a
        second)."""
        try:
            return self.time(f"op:{name}", fn, *args, **kwargs)
        finally:
            if self._pending:
                self.calibrate()

    def calibrate(self) -> None:
        """Read the machine's speed; scale the calls timed since the last reading."""
        units = max(MIN_UNITS, round(REF_SHARE * self._pending_s / bench_speed.UNIT_S))
        unit = bench_speed.unit_s(units)
        around = unit if self._unit_s is None else 0.5 * (self._unit_s + unit)
        factor = bench_speed.UNIT_S / around
        for times, i in self._pending:
            times[i] *= factor
        if self._pending:
            self.speed_readings.append(factor)
        self._unit_s, self._pending, self._pending_s = unit, [], 0.0

    def end_round(self) -> None:
        if self._pending:
            self.calibrate()
        for name, times in self.current.items():
            self.rounds[name].append(times)
        self.current = defaultdict(list)

    def summarize(self) -> None:
        """Each call's median over the rounds that made as many calls as the first."""
        self.typical = {}
        for name, rounds in self.rounds.items():
            full = [r for r in rounds if len(r) == len(rounds[0])]
            self.typical[name] = [statistics.median(c) for c in zip(*full)]

    def wrap(self, owner, attr: str, name: str, keep=None) -> None:
        """Time every call of owner.attr; `keep(args, kwargs, result)` is noted
        while `self.keep` is set."""
        def make(original):
            def timed(*args, **kwargs):
                result = self.time(name, original, *args, **kwargs)
                if keep is not None and self.keep:
                    self.notes[name].append(keep(args, kwargs, result))
                return result
            return timed
        _patch(self._undo, owner, attr, make)

    def unwrap(self) -> None:
        _restore(self._undo)


def sim_cell_key(config) -> str:
    """<queue>-<traffic>-<channel>, marked -exp / -nofade off the defaults."""
    key = f"{config.queue}-{config.traffic}-{config.channel_mode}"
    if config.service_mode == "exponential":
        key += "-exp"
    if not config.fading:
        key += "-nofade"
    return key


CLI_COMMANDS = ("generate", "plan", "simulate", "analyze_cdf")
SIM_CELLS = (
    "scheduled-poisson-independent",  # pipeline, gpqm policy
    "droptail-poisson-independent",  # pipeline, venue-centre baseline
    "red-poisson-independent",
    "codel-poisson-independent",
    "droptail-onoff-independent",
    "droptail-aimd-independent",
    "droptail-poisson-shared-nofade",
    "droptail-poisson-independent-exp",
    "droptail-poisson-independent-nofade",  # M/D/1 oracle
    "droptail-poisson-independent-exp-nofade",  # M/M/1/1 oracle
)
PER_LAYER = (
    [(f"cli.{c}_s", "s") for c in CLI_COMMANDS]
    + [("cli.write_s", "s"), ("cli.bytes_written", "count"), ("cli.cdf_s_per_mrow", "s/Mrow"),
       ("scenario.generate_rwm_s", "s"), ("scenario.snapshots_s", "s"),
       ("scenario.load_scenario_s", "s"),
       ("planner.plan_snapshot.calls", "count"), ("planner.plan_snapshot.self_ms_p50", "ms"),
       ("planner.powers_tried_mean", "calls"), ("planner.plan_series_s", "s"),
       ("placement.compute_fgw_pos.calls", "count"),
       ("placement.compute_fgw_pos.feasible_share", "ratio"),
       ("placement.compute_fgw_pos.us_feasible_p50", "us"),
       ("placement.compute_fgw_pos.us_infeasible_p50", "us"),
       ("placement.sphere_pair_analysis_s", "s"),
       ("simulator.simulate.calls", "count"), ("simulator.window_pkts", "count"),
       ("simulator.generated", "count")]
    + [(f"simulator.us_per_pkt.{c}", "us") for c in SIM_CELLS]
    + [("simulator.share_of_run_benchmark", "ratio"),
       ("solver.solve_pso.calls", "count"), ("solver.solve_pso_s", "s"),
       ("solver.evaluate.calls", "count"), ("solver.us_per_evaluate", "us"),
       ("solver.run_benchmark_s", "s")]
)


class Tracer:
    """Spans [name, start, end, parent, child seconds, tag] and hot-call counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.totals: dict[str, float] = defaultdict(float)
        self.samples: dict[str, array] = defaultdict(lambda: array("d"))
        self.body_span = 0  # first span of the timed body
        self.body_counts: dict[str, int] = {}
        self._undo: list = []

    def _charge_parent(self, seconds: float) -> None:
        if self.stack:
            self.spans[self.stack[-1]][4] += seconds

    def call_span(self, name: str, fn, *args, annotate=None, **kwargs):
        """Run fn inside a span; `annotate(span, args, kwargs, result)` may tag it."""
        idx = len(self.spans)
        self.spans.append([name, perf(), 0.0, self.stack[-1] if self.stack else -1, 0.0, None])
        self.stack.append(idx)
        try:
            result = fn(*args, **kwargs)
            if annotate is not None:
                annotate(self.spans[idx], args, kwargs, result)
            return result
        finally:
            self.stack.pop()
            span = self.spans[idx]
            span[2] = perf()
            self._charge_parent(span[2] - span[1])

    def span(self, owner, attr: str, name: str, annotate=None) -> None:
        def make(original):
            def traced(*args, **kwargs):
                return self.call_span(name, original, *args, annotate=annotate, **kwargs)
            return traced
        _patch(self._undo, owner, attr, make)

    def counter(self, owner, attr: str, names: tuple[str, ...], split=None) -> None:
        """Count and total a hot function under each name; `split` buckets durations."""
        def make(original):
            def counted(*args, **kwargs):
                t0 = perf()
                result = original(*args, **kwargs)
                dt = perf() - t0
                for name in names:
                    self.counts[name] += 1
                    self.totals[name] += dt
                self._charge_parent(dt)
                if split is not None:
                    self.samples[f"{names[0]}.{split(result)}"].append(dt)
                return result
            return counted
        _patch(self._undo, owner, attr, make)

    def install(self) -> None:
        def on_sim(span, args, kwargs, m) -> None:
            self.counts["simulator.window_pkts"] += m.window_delivered + m.window_dropped
            self.counts["simulator.generated"] += m.generated
            span[5] = (sim_cell_key(args[1] if len(args) > 1 else kwargs["config"]), m.generated)

        def feasible(result) -> str:
            return "feasible" if result.feasible else "infeasible"

        for mod in (gpqm.cli, gpqm.solver, gpqm.simulator):
            self.span(mod, "simulate", "simulator.simulate", on_sim)
        for mod in (gpqm.planner, gpqm.solver):
            self.span(mod, "plan_snapshot", "planner.plan_snapshot")
        for mod in (gpqm.planner, gpqm.cli):
            self.span(mod, "plan_series", "planner.plan_series")
        self.counter(gpqm.planner, "compute_fgw_pos",
                     ("placement.compute_fgw_pos", "planner.compute_fgw_pos"), feasible)
        self.counter(gpqm.placement, "compute_fgw_pos", ("placement.compute_fgw_pos",), feasible)
        for mod in (gpqm.scenario, gpqm.cli):
            self.span(mod, "generate_rwm", "scenario.generate_rwm")
        self.span(gpqm.cli, "load_scenario", "scenario.load_scenario")
        self.span(gpqm.scenario.ScenarioTrace, "snapshots", "scenario.snapshots")
        self.span(gpqm.placement, "sphere_pair_analysis", "placement.sphere_pair_analysis")
        self.span(gpqm.solver, "solve_pso", "solver.solve_pso")
        self.span(gpqm.solver, "run_benchmark", "solver.run_benchmark")
        self.counter(gpqm.solver, "evaluate", ("solver.evaluate",))

    def uninstall(self) -> None:
        _restore(self._undo)

    def mark_body(self) -> None:
        self.body_span = len(self.spans)
        self.body_counts = dict(self.counts)

    # -- per-layer metrics ---------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Every PER_LAYER metric; counts are per round of the timed body,
        times are means per call over the whole traced run, 0 where unused."""
        by_name: dict[str, list[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            by_name[s[0]].append(i)

        def dur(i: int) -> float:
            return self.spans[i][2] - self.spans[i][1]

        def mean_s(name: str) -> float:
            idx = by_name.get(name, [])
            return math.fsum(map(dur, idx)) / len(idx) if idx else 0.0

        def body_calls(name: str) -> float:
            return sum(1 for i in by_name.get(name, []) if i >= self.body_span) / rounds

        def body_count(name: str) -> float:
            return (self.counts.get(name, 0) - self.body_counts.get(name, 0)) / rounds

        def children(parents: list[int], name: str) -> float:
            wanted = set(parents)
            return math.fsum(dur(i) for i in by_name.get(name, []) if self.spans[i][3] in wanted)

        out: dict[str, float] = {f"cli.{c}_s": mean_s(f"cli.{c}") for c in CLI_COMMANDS}
        sims = by_name.get("cli.simulate", [])
        out["cli.write_s"] = ((math.fsum(map(dur, sims)) - children(sims, "simulator.simulate"))
                              / len(sims) if sims else 0.0)
        out["cli.bytes_written"] = body_count("cli.bytes_written")
        rows = self.counts.get("cli.cdf_rows", 0)
        cdf = by_name.get("cli.analyze_cdf", [])
        out["cli.cdf_s_per_mrow"] = math.fsum(map(dur, cdf)) / (rows / 1e6) if rows else 0.0
        for name in ("generate_rwm", "snapshots", "load_scenario"):
            out[f"scenario.{name}_s"] = mean_s(f"scenario.{name}")

        plans = by_name.get("planner.plan_snapshot", [])
        out["planner.plan_snapshot.calls"] = body_calls("planner.plan_snapshot")
        out["planner.plan_snapshot.self_ms_p50"] = (
            statistics.median(dur(i) - self.spans[i][4] for i in plans) * 1e3 if plans else 0.0)
        out["planner.powers_tried_mean"] = (
            self.counts.get("planner.compute_fgw_pos", 0) / len(plans) if plans else 0.0)
        out["planner.plan_series_s"] = mean_s("planner.plan_series")

        fgw = "placement.compute_fgw_pos"
        ok, bad = self.samples.get(f"{fgw}.feasible", ()), self.samples.get(f"{fgw}.infeasible", ())
        out[f"{fgw}.calls"] = body_count(fgw)
        out[f"{fgw}.feasible_share"] = len(ok) / (len(ok) + len(bad)) if ok or bad else 0.0
        out[f"{fgw}.us_feasible_p50"] = statistics.median(ok) * 1e6 if ok else 0.0
        out[f"{fgw}.us_infeasible_p50"] = statistics.median(bad) * 1e6 if bad else 0.0
        out["placement.sphere_pair_analysis_s"] = mean_s("placement.sphere_pair_analysis")

        out["simulator.simulate.calls"] = body_calls("simulator.simulate")
        out["simulator.window_pkts"] = body_count("simulator.window_pkts")
        out["simulator.generated"] = body_count("simulator.generated")
        per_cell: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
        for i in by_name.get("simulator.simulate", []):
            cell, generated = self.spans[i][5]
            per_cell[cell][0] += dur(i)
            per_cell[cell][1] += generated
        for cell in SIM_CELLS:
            secs, pkts = per_cell.get(cell, (0.0, 0.0))
            out[f"simulator.us_per_pkt.{cell}"] = secs / pkts * 1e6 if pkts else 0.0
        bench = by_name.get("solver.run_benchmark", [])
        bench_s = math.fsum(map(dur, bench))
        out["simulator.share_of_run_benchmark"] = (
            children(bench, "simulator.simulate") / bench_s if bench_s else 0.0)

        out["solver.solve_pso.calls"] = body_calls("solver.solve_pso")
        out["solver.solve_pso_s"] = mean_s("solver.solve_pso")
        out["solver.evaluate.calls"] = body_count("solver.evaluate")
        n_eval = self.counts.get("solver.evaluate", 0)
        out["solver.us_per_evaluate"] = (
            self.totals["solver.evaluate"] / n_eval * 1e6 if n_eval else 0.0)
        out["solver.run_benchmark_s"] = mean_s("solver.run_benchmark")
        return {name: (out[name], unit) for name, unit in PER_LAYER}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans": [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                       "self_s": s[2] - s[1] - s[4], "tag": s[5]} for s in self.spans],
            "counters": {k: {"calls": self.counts[k], "total_s": self.totals.get(k, 0.0)}
                         for k in sorted(self.counts)},
        }
        path.write_text(json.dumps(payload))
