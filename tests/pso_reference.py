"""Reference copy of the swarm loop that scores every particle on every step.

`solve_pso` here runs all `params.iterations` steps, calls the fitness on
every row after every step and audits every personal best with `evaluate`
for the final pick. The package re-scores only the rows that moved, stops
once the swarm sits at a fixed point, and audits each distinct personal best
once; the tests require the same `SolverResult`, bit for bit. The package
never imports this module.
"""

from __future__ import annotations

import numpy as np

from gpqm.solver import (
    _C_PERSONAL,
    _C_SOCIAL,
    _OMEGA,
    _VELOCITY_CLAMP,
    OptProblem,
    PsoParams,
    SolverResult,
    _swarm_fitness,
    evaluate,
)


def solve_pso(problem: OptProblem, seed: int, params: PsoParams | None = None) -> SolverResult:
    """Global-best PSO over (x, y, z, tx power); deterministic per seed."""
    params = params or PsoParams()
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in problem.bounds])
    hi = np.array([b[1] for b in problem.bounds])
    span = hi - lo
    v_max = _VELOCITY_CLAMP * span

    fitness = _swarm_fitness(problem)
    s = params.swarm
    x = lo + span * rng.random((s, 4))
    vel = np.zeros((s, 4))
    fits = np.array([fitness(row) for row in x.tolist()])
    pbest = x.copy()
    pbest_fit = fits.copy()
    g_idx = int(np.argmin(pbest_fit))
    gbest = pbest[g_idx].copy()
    gbest_fit = float(pbest_fit[g_idx])
    history = [gbest_fit]

    for _ in range(params.iterations):
        r1 = rng.random((s, 4))
        r2 = rng.random((s, 4))
        vel = (
            _OMEGA * vel
            + _C_PERSONAL * r1 * (pbest - x)
            + _C_SOCIAL * r2 * (gbest - x)
        )
        np.clip(vel, -v_max, v_max, out=vel)
        x = np.clip(x + vel, lo, hi)
        fits = np.array([fitness(row) for row in x.tolist()])
        improved = fits < pbest_fit
        pbest[improved] = x[improved]
        pbest_fit[improved] = fits[improved]
        g_idx = int(np.argmin(pbest_fit))
        if float(pbest_fit[g_idx]) < gbest_fit:
            gbest = pbest[g_idx].copy()
            gbest_fit = float(pbest_fit[g_idx])
        history.append(gbest_fit)

    # A feasible row's total violation is 0, so feasible rows win by objective.
    evals = [evaluate(problem, row) for row in pbest]
    best_i = min(
        range(len(evals)),
        key=lambda i: (not evals[i].feasible, evals[i].total_violation, evals[i].objective_bps),
    )
    best_ev = evals[best_i]
    bx = tuple(float(v) for v in pbest[best_i])
    return SolverResult(
        x=bx,
        position=bx[:3],
        tx_power_dbm=bx[3],
        objective_bps=best_ev.objective_bps,
        feasible=best_ev.feasible,
        violations=best_ev.violations,
        fitness_history=tuple(history),
    )
