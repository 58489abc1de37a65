"""Output checks computed apart from gpqm.

Every check takes program outputs plus the inputs they came from and
returns a list of failure messages; an empty list means the output passed.
The formulas (Friis budget, M/D/1, M/M/1/1, nearest-rank percentiles,
capacity models) are written here again on purpose, so a fault in the
package's own version cannot hide itself.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

PACKET_BITS = 11200.0  # 1400-byte packets
SPEED_OF_LIGHT_MPS = 3.0e8
SOLVER_TOL = 1e-6  # the solver's stated feasibility tolerance
LENGTH_TOL_M = 1e-6
SNR_TOL_DB = 1e-6


# --- formulas -------------------------------------------------------------


def friis_snr_db(channel: dict, tx_power_dbm: float, distance_m: float) -> float:
    """Free-space SNR: P + 20 log10(c / (4 pi f d)) - noise."""
    wavelength = SPEED_OF_LIGHT_MPS / channel["carrier_frequency_hz"]
    path_gain_db = 20.0 * math.log10(wavelength / (4.0 * math.pi * distance_m))
    return tx_power_dbm + path_gain_db - channel["noise_power_dbm"]


def md1_delay(rho: float, mu_pps: float) -> float:
    return (2.0 - rho) / (2.0 * mu_pps * (1.0 - rho))


def planned_queue(rho: float) -> int:
    return max(1, math.ceil(rho * rho / (2.0 * (1.0 - rho))))


def mm11_loss(rho: float) -> float:
    return rho / (1.0 + rho)


def nearest_rank(sorted_values, p: float) -> float:
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return float(sorted_values[rank - 1])


def interpolate(waypoints, t_s: float) -> tuple[float, float, float]:
    """Piecewise-linear position on (t, x, y, z) waypoints, held at both ends."""
    wp = np.asarray(waypoints, dtype=float)
    return tuple(float(np.interp(t_s, wp[:, 0], wp[:, k])) for k in (1, 2, 3))


def regression_line(points) -> tuple[float, float]:
    """Least-squares (slope, intercept) through (snr_db, share_bps) points."""
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    design = np.stack([xs, np.ones_like(xs)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(design, ys, rcond=None)
    return float(slope), float(intercept)


# Calibrated (min SNR dB, fair share bit/s) rows: indexes 2, 5 and 7.
CALIBRATED_POINTS = ((15.0, 50.0e6), (27.0, 133.0e6), (35.0, 166.0e6))
REGRESSION = regression_line(CALIBRATED_POINTS)


def capacity_bps(model: str, bandwidth_hz: float, snr_db):
    """Shannon bound or the clamped calibrated regression; arrays welcome."""
    snr = np.asarray(snr_db, dtype=float)
    if model == "shannon":
        return bandwidth_hz * np.log2(1.0 + 10.0 ** (snr / 10.0))
    slope, intercept = REGRESSION
    return np.maximum(0.0, slope * snr + intercept)


# --- plans ----------------------------------------------------------------


def audit_plan(plan: dict, positions: dict, channel: dict, venue: dict,
               delay_bound_s: float) -> list[str]:
    """Independent audit of one plan in the plan-file layout.

    `plan` holds p_tx_dbm, fgw and faps (id, snr_db, capacity_bps, rho,
    queue_pkts); `positions` maps FAP id to its position at the plan's
    snapshot time.
    """
    bad = []
    gw = plan["fgw"]
    if not (-LENGTH_TOL_M <= gw[0] <= venue["x_max_m"] + LENGTH_TOL_M
            and -LENGTH_TOL_M <= gw[1] <= venue["y_max_m"] + LENGTH_TOL_M
            and venue["min_altitude_m"] - LENGTH_TOL_M <= gw[2]
            <= venue["z_max_m"] + LENGTH_TOL_M):
        bad.append(f"gateway {gw} outside the venue")
    for f in plan["faps"]:
        fid = f["id"]
        d = math.dist(gw, positions[fid])
        if d < venue["min_separation_m"] - LENGTH_TOL_M:
            bad.append(f"{fid}: gateway {d:.4f} m away, under the separation")
            continue
        snr = friis_snr_db(channel, plan["p_tx_dbm"], d)
        if snr < f["snr_db"] - SNR_TOL_DB:
            bad.append(f"{fid}: SNR {snr:.6f} dB under the target {f['snr_db']} dB")
        rho = f["rho"]
        if not 0.0 < rho < 1.0:
            bad.append(f"{fid}: utilisation {rho} outside (0, 1)")
            continue
        delay = md1_delay(rho, f["capacity_bps"] / PACKET_BITS)
        if delay >= delay_bound_s:
            bad.append(f"{fid}: M/D/1 delay {delay:.6g} s not under {delay_bound_s} s")
        if f["queue_pkts"] != planned_queue(rho):
            bad.append(f"{fid}: queue {f['queue_pkts']} != {planned_queue(rho)}")
    return bad


def plan_to_dict(plan) -> dict:
    """A GpqmPlan in the plan-file layout used by audit_plan."""
    return {
        "p_tx_dbm": plan.tx_power_dbm,
        "fgw": list(plan.fgw_position),
        "faps": [
            {"id": f.fap_id, "snr_db": f.target_snr_db, "capacity_bps": f.capacity_bps,
             "rho": f.utilisation, "queue_pkts": f.queue_pkts}
            for f in plan.faps
        ],
    }


def audit_plan_file(plan_json: dict, scenario_json: dict, delay_bound_s: float) -> list[str]:
    """Audit every plan of a `gpqm plan` file against the scenario's waypoints.

    The file holds one entry per second; each entry is the plan of the
    latest snapshot, so FAP positions are taken at that snapshot's time.
    """
    period = float(plan_json["config_echo"]["update_period_s"])
    waypoints = {f["id"]: f["waypoints"] for f in scenario_json["faps"]}
    bad = []
    if not plan_json["plans"]:
        return ["plan file holds no plans"]
    for entry in plan_json["plans"]:
        t_snap = math.floor(entry["t"] / period + 1e-9) * period
        positions = {fid: interpolate(wp, t_snap) for fid, wp in waypoints.items()}
        bad += [f"t={entry['t']}: {m}" for m in audit_plan(
            entry, positions, scenario_json["channel"], scenario_json["venue"], delay_bound_s)]
    return bad


# --- simulation outputs -----------------------------------------------------


def check_sim_metrics(m, min_delay_s: float) -> list[str]:
    """Conservation and sample-count identities of one SimMetrics.

    With deterministic service no packet leaves sooner than one transmission
    (`min_delay_s`); pass 0 for exponential service, where it can.
    """
    bad = []
    if m.generated != m.delivered + m.dropped + m.residual:
        bad.append(f"generated {m.generated} != delivered {m.delivered} + dropped "
                   f"{m.dropped} + residual {m.residual}")
    if len(m.delay_samples_s) != m.window_delivered:
        bad.append(f"{len(m.delay_samples_s)} delays for {m.window_delivered} delivered")
    bits = math.fsum(m.throughput_samples_bps)
    if abs(bits - PACKET_BITS * m.window_delivered) > 1e-9 * max(bits, 1.0):
        bad.append(f"throughput sums to {bits} bits, not {PACKET_BITS} x {m.window_delivered}")
    if m.delay_samples_s and min(m.delay_samples_s) <= 0.0:
        bad.append("a delay is not positive")
    elif m.delay_samples_s and min(m.delay_samples_s) < min_delay_s:
        bad.append(f"delay {min(m.delay_samples_s):.3e} s under one transmission "
                   f"{min_delay_s:.3e} s")
    if m.window_delivered == 0:
        bad.append("nothing delivered in the window")
    return bad


def check_md1_oracle(m, rho: float, mu_pps: float, rel_tol: float = 0.05) -> list[str]:
    if not m.delay_samples_s:
        return ["no delay samples"]
    mean = math.fsum(m.delay_samples_s) / len(m.delay_samples_s)
    expected = md1_delay(rho, mu_pps)
    if abs(mean - expected) > rel_tol * expected:
        return [f"mean delay {mean:.4e} s vs M/D/1 {expected:.4e} s"]
    return []


def check_mm11_oracle(m, rho: float, abs_tol: float = 0.02) -> list[str]:
    if abs(m.plr - mm11_loss(rho)) > abs_tol:
        return [f"loss {m.plr:.4f} vs M/M/1/1 {mm11_loss(rho):.4f}"]
    return []


def _csv_column(path: Path, column: str) -> list[str]:
    """One column of a gpqm CSV (plain fields: no quoting or embedded commas)."""
    header, *rows = path.read_text().splitlines()
    k = header.split(",").index(column)
    return [row.split(",")[k] for row in rows]


def check_run_dir(run_dir: Path, measure_s: float, offered_pps: float,
                  queue_slack_pkts: int) -> list[str]:
    """One `gpqm simulate` seed directory against its own summary."""
    bad = []
    summary = json.loads((run_dir / "summary.json").read_text())
    delivered = summary["window_delivered"]
    delays = _csv_column(run_dir / "delays.csv", "delay_s")
    if len(delays) != delivered:
        bad.append(f"{run_dir.name}: {len(delays)} delay rows, {delivered} delivered")
    thr = [float(v) for v in _csv_column(run_dir / "throughput.csv", "throughput_bps")]
    if len(thr) != round(measure_s):
        bad.append(f"{run_dir.name}: {len(thr)} throughput rows for {measure_s} s")
    if abs(math.fsum(thr) - PACKET_BITS * delivered) > 1e-9 * max(math.fsum(thr), 1.0):
        bad.append(f"{run_dir.name}: throughput sum {math.fsum(thr)} != bits x delivered")
    expected = offered_pps * measure_s
    tol = 5.0 * math.sqrt(expected) + queue_slack_pkts
    seen = delivered + summary["window_dropped"]
    if abs(seen - expected) > tol:
        bad.append(f"{run_dir.name}: {seen} packets in the window, expected "
                   f"{expected:.0f} +- {tol:.0f}")
    return bad


def check_packets_csv(run_dir: Path, bootstrap_s: float, measure_s: float) -> list[str]:
    """Delivered packets landing in the window carry exactly delays.csv."""
    end = bootstrap_s + measure_s
    inside: Counter = Counter()
    edge: Counter = Counter()
    header, *rows = (run_dir / "packets.csv").read_text().splitlines()
    if header != "source_id,created_s,delay_s,dropped":
        return [f"{run_dir.name}: unexpected packets.csv header {header!r}"]
    for row in rows:
        _, created, delay, dropped = row.split(",")
        if dropped == "1":
            continue
        t = float(created) + float(delay)
        if bootstrap_s + 1e-9 <= t < end - 1e-9:
            inside[delay] += 1
        elif abs(t - bootstrap_s) <= 1e-9 or abs(t - end) <= 1e-9:
            edge[delay] += 1
    delays = Counter(_csv_column(run_dir / "delays.csv", "delay_s"))
    if inside - delays or delays - (inside + edge):
        return [f"{run_dir.name}: packets.csv delays differ from delays.csv "
                f"({sum((inside - delays).values())} extra, "
                f"{sum((delays - (inside + edge)).values())} missing)"]
    return []


def check_pooled(pooled_dir: Path, seed_dirs: list[Path]) -> list[str]:
    """Pooled delays are the per-seed delays concatenated in seed order."""
    def rows(p: Path) -> list[str]:
        return (p / "delays.csv").read_text().splitlines()[1:]

    joined = [r for d in seed_dirs for r in rows(d)]
    if rows(pooled_dir) != joined:
        return ["pooled delays.csv is not the concatenation of the seed runs"]
    return []


def check_cdf(cdf_json: dict, run_dirs: list[Path], percentile: float) -> list[str]:
    delays = np.sort(np.array([float(v) for d in run_dirs
                               for v in _csv_column(d / "delays.csv", "delay_s")]))
    thr = np.sort(np.array([float(v) for d in run_dirs
                            for v in _csv_column(d / "throughput.csv", "throughput_bps")]))
    bad = []
    want_delay = nearest_rank(delays, percentile)
    if cdf_json["delay"]["p_value_s"] != want_delay:
        bad.append(f"p{percentile:g} delay {cdf_json['delay']['p_value_s']} != {want_delay}")
    want_thr = nearest_rank(thr, 100.0 - percentile)
    if cdf_json["throughput"]["p_exceeded_bps"] != want_thr:
        bad.append(f"p{100 - percentile:g} throughput "
                   f"{cdf_json['throughput']['p_exceeded_bps']} != {want_thr}")
    return bad


# --- solver and pair analysis ---------------------------------------------


def check_solver_result(res, faps, channel: dict, venue: dict, model: str,
                        delay_bound_s: float, aggregate_cap_bps: float) -> list[str]:
    """Recompute a solver-feasible result's constraints; `faps` are (position, demand)."""
    bad = []
    x, y, z, p = res.x
    if not -SOLVER_TOL <= p <= channel["max_tx_power_dbm"] + SOLVER_TOL:
        bad.append(f"power {p} dBm out of range")
    outside = (max(0.0, -x) + max(0.0, x - venue["x_max_m"]) + max(0.0, -y)
               + max(0.0, y - venue["y_max_m"]) + max(0.0, venue["min_altitude_m"] - z)
               + max(0.0, z - venue["z_max_m"]))
    if outside > SOLVER_TOL:
        bad.append(f"position {res.position} outside the venue by {outside} m")
    total = 0.0
    for k, (pos, demand) in enumerate(faps):
        d = max(math.dist((x, y, z), pos), 1e-6)
        if venue["min_separation_m"] - d > SOLVER_TOL:
            bad.append(f"fap {k}: {d:.4f} m from the gateway, under the separation")
        cap = float(capacity_bps(model, channel["bandwidth_hz"], friis_snr_db(channel, p, d)))
        total += cap
        if (demand - cap) / 1e6 > SOLVER_TOL:
            bad.append(f"fap {k}: capacity {cap:.6g} under demand {demand:.6g}")
            continue
        rho = demand / cap
        delay = md1_delay(rho, cap / PACKET_BITS)
        if (delay - delay_bound_s) / delay_bound_s > SOLVER_TOL:
            bad.append(f"fap {k}: M/D/1 delay {delay:.6g} s over {delay_bound_s} s")
    if (total - aggregate_cap_bps) / 1e6 > SOLVER_TOL:
        bad.append(f"total capacity {total:.6g} over the aggregate cap")
    if abs(total - res.objective_bps) > 1e-6 * total:
        bad.append(f"objective {res.objective_bps} != recomputed {total}")
    return bad


def check_fitness_history(history, iterations: int) -> list[str]:
    bad = []
    if len(history) != iterations + 1:
        bad.append(f"{len(history)} history entries for {iterations} iterations")
    if any(b > a for a, b in zip(history, history[1:])):
        bad.append("fitness history increases")
    return bad


def single_fap_grid_optimum(fap_pos, demand_bps: float, channel: dict, venue: dict,
                            delay_bound_s: float, step_m: float = 0.5) -> float:
    """Least Shannon capacity meeting the delay bound, over a venue grid.

    At a grid point the cheapest power gives exactly the capacity the delay
    bound needs, unless even zero power gives more; points where full power
    falls short, or that break the separation, are excluded.
    """
    h = delay_bound_s
    a = h * demand_bps + PACKET_BITS
    floor = (a + math.sqrt(a * a - 2.0 * h * PACKET_BITS * demand_bps)) / (2.0 * h)
    need = max(demand_bps, floor)
    xs = np.arange(0.0, venue["x_max_m"] + 1e-9, step_m)
    ys = np.arange(0.0, venue["y_max_m"] + 1e-9, step_m)
    zs = np.arange(venue["min_altitude_m"], venue["z_max_m"] + 1e-9, step_m)
    d = np.sqrt(((xs - fap_pos[0]) ** 2)[:, None, None]
                + ((ys - fap_pos[1]) ** 2)[None, :, None]
                + ((zs - fap_pos[2]) ** 2)[None, None, :])
    snr0 = friis_snr_db(channel, 0.0, 1.0) - 20.0 * np.log10(np.maximum(d, 1e-6))
    b = channel["bandwidth_hz"]
    cap_lo = capacity_bps("shannon", b, snr0)
    cap_hi = capacity_bps("shannon", b, snr0 + channel["max_tx_power_dbm"])
    objective = np.maximum(cap_lo, need)
    objective[(cap_hi < need) | (d < venue["min_separation_m"])] = np.inf
    return float(objective.min())


def check_single_fap_optimum(res, fap_pos, demand_bps: float, channel: dict, venue: dict,
                             delay_bound_s: float, rel_tol: float) -> list[str]:
    """A feasible single-FAP Shannon result within rel_tol of the grid optimum."""
    if not res.feasible:
        return [f"single-FAP result infeasible: {res.violations}"]
    bad = check_solver_result(res, [(fap_pos, demand_bps)], channel, venue, "shannon",
                              delay_bound_s, math.inf)
    grid = single_fap_grid_optimum(fap_pos, demand_bps, channel, venue, delay_bound_s)
    if abs(res.objective_bps - grid) > rel_tol * grid:
        bad.append(f"objective {res.objective_bps:.6g} vs grid optimum {grid:.6g}")
    return bad


def check_pair_analysis(res, centers, radii, venue: dict, total_of_distances,
                        rel_tol: float, step_m: float = 0.5) -> list[str]:
    """Overlap class, admissibility and grid bracketing of an OverlapAnalysis.

    `total_of_distances(d1, d2)` gives the summed capacity for NumPy arrays
    of distances to the two FAPs.
    """
    bad = []
    gap = math.dist(*centers)
    r1, r2 = radii
    want = ("disjoint" if gap > r1 + r2 else "full" if gap <= abs(r1 - r2) else "partial")
    if res.overlap != want:
        bad.append(f"overlap {res.overlap}, centres {gap:.3f} m apart want {want}")
    if want == "disjoint":
        return bad
    sep = venue["min_separation_m"]

    def admissible(p) -> bool:
        return (all(math.dist(p, c) <= r + LENGTH_TOL_M for c, r in zip(centers, radii))
                and all(math.dist(p, c) >= sep - LENGTH_TOL_M for c in centers)
                and -LENGTH_TOL_M <= p[0] <= venue["x_max_m"] + LENGTH_TOL_M
                and -LENGTH_TOL_M <= p[1] <= venue["y_max_m"] + LENGTH_TOL_M
                and venue["min_altitude_m"] - LENGTH_TOL_M <= p[2]
                <= venue["z_max_m"] + LENGTH_TOL_M)

    if res.min_point is None or res.max_point is None:
        return bad + ["no extreme points for overlapping spheres"]
    for name, p, v in (("min", res.min_point, res.min_value_bps),
                       ("max", res.max_point, res.max_value_bps)):
        if not admissible(p):
            bad.append(f"{name} point {p} not admissible")
        got = float(total_of_distances(np.array(math.dist(p, centers[0])),
                                       np.array(math.dist(p, centers[1]))))
        if abs(got - v) > 1e-9 * abs(got):
            bad.append(f"{name} value {v} != recomputed {got}")
    if res.min_value_bps > res.max_value_bps:
        bad.append("min value above max value")

    lo = [max(0.0, min(c[k] - r for c, r in zip(centers, radii))) for k in range(2)]
    lo.append(max(venue["min_altitude_m"], min(c[2] - r for c, r in zip(centers, radii))))
    hi = [min(venue[("x_max_m", "y_max_m")[k]], max(c[k] + r for c, r in zip(centers, radii)))
          for k in range(2)]
    hi.append(min(venue["z_max_m"], max(c[2] + r for c, r in zip(centers, radii))))
    axes = [np.arange(lo[k], hi[k] + 1e-9, step_m) for k in range(3)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    d1 = np.sqrt((gx - centers[0][0]) ** 2 + (gy - centers[0][1]) ** 2
                 + (gz - centers[0][2]) ** 2)
    d2 = np.sqrt((gx - centers[1][0]) ** 2 + (gy - centers[1][1]) ** 2
                 + (gz - centers[1][2]) ** 2)
    ok = (d1 <= r1) & (d2 <= r2) & (d1 >= sep) & (d2 >= sep)
    if not ok.any():
        return bad
    values = total_of_distances(d1[ok], d2[ok])
    grid_min, grid_max = float(values.min()), float(values.max())
    if res.min_value_bps > grid_min * (1.0 + rel_tol):
        bad.append(f"min value {res.min_value_bps:.6g} above the grid's {grid_min:.6g}")
    if res.max_value_bps < grid_max * (1.0 - rel_tol):
        bad.append(f"max value {res.max_value_bps:.6g} below the grid's {grid_max:.6g}")
    return bad
