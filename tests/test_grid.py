"""Solver-regression grid: a fixed set of planning points against a committed
reference.

The points are the 25 sweep points below (sweep1 spin x thrust, sweep2
approach attitude x spin at f_thr = 0.03), three sweep2 points whose first
candidate's pass-1 solve cannot converge, and the nominal config as `plan`
runs it.  Every sweep point plans as the sweep subcommands do: automatic
minimum duration, corotating goal, 2 candidates.

For each point the reference holds one line: name, converged (1/0), chosen
duration [s], objective (%.17g) and the Newton steps of every solve_al run
of the point, failed ones included.  The test gates convergence, chosen
durations and objectives within 1e-5 relative, and that the LQ relaxation
bounds the objective of every pass-1 and pass-2 solve of every point from
below; it prints the Newton totals and wall time beside the reference's,
ungated.  A change that moves a point
rewrites the reference and says which points moved, and why:

    PYTHONPATH=src python tests/test_grid.py --write
"""
from __future__ import annotations

import math
import sys
import time
from pathlib import Path

from proxdock import harness, optimizer
from proxdock.nlp import InfeasibleError, NotConvergedError
from proxdock.optimizer import AllCandidatesFailed, plan

REFERENCE = Path(__file__).with_name("data") / "grid_reference.txt"
RTOL = 1e-5

_SWEEP = {"opt.max_candidates": 2, "opt.min_duration": "auto", "opt.goal_corotate": True}


def _points() -> dict[str, dict]:
    """name -> config values over the defaults."""
    out = {}
    for omega in (0.07, 0.57, 1.07, 1.5, 1.985):
        for f_thr in (0.12, 0.99):
            out[f"sweep1:omega={omega}:f_thr={f_thr}"] = {
                **_SWEEP, "target.omega": omega, "layout.f_thr": f_thr}
    sweep2 = [(th, om) for th in (0, 90, 180, 240, 330) for om in (0.05, 1.0, 1.5)]
    # the pass-1 solves that spend the outer iteration budget
    sweep2 += [(180, 0.55), (180, 1.2), (210, 0.9)]
    for theta_deg, omega in sweep2:
        out[f"sweep2:theta={theta_deg}:omega={omega}"] = {
            **_SWEEP, "opt.theta_approach": math.radians(theta_deg),
            "target.omega": omega, "layout.f_thr": 0.03}
    out["nominal"] = {}
    return out


POINTS = _points()


def run_point(values: dict) -> tuple[int, float, float, int, float, list]:
    """(converged, chosen duration, objective, Newton steps, wall time [s],
    unbounded solves): the last lists (N, pass, bound, J) of each converged
    solve whose objective J lies below its LQ relaxation's."""
    cfg = harness.RunConfig({**harness.load_config(None).values, **values})
    newton = [0]
    unbounded = []
    real, real_solve = optimizer.solve_al, optimizer.solve

    def bounded(problem, *args, **kwargs):
        sol = real_solve(problem, *args, **kwargs)
        bound = optimizer.lq_relaxation(problem).objective
        if bound > sol.objective_value:
            unbounded.append((problem.N, 1 if problem.kos_schedule is None else 2,
                              bound, sol.objective_value))
        return sol

    def counting(prob, z0, **kwargs):
        try:
            out = real(prob, z0, **kwargs)
        except (NotConvergedError, InfeasibleError) as ex:
            newton[0] += ex.stats.newton_iterations
            raise
        newton[0] += out[3].newton_iterations
        return out

    optimizer.solve_al, optimizer.solve = counting, bounded
    t0 = time.perf_counter()
    try:
        best, _ = plan(cfg["opt.theta_approach"], cfg.opt_template(), **cfg.plan_kwargs())
        conv, duration, objective = 1, float(best.times[-1]), best.objective_value
    except AllCandidatesFailed:
        conv, duration, objective = 0, math.nan, math.nan
    finally:
        optimizer.solve_al, optimizer.solve = real, real_solve
    return conv, duration, objective, newton[0], time.perf_counter() - t0, unbounded


def read_reference() -> dict[str, tuple[int, float, float, int]]:
    ref = {}
    for line in REFERENCE.read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, conv, duration, objective, newton = line.split()
        ref[name] = int(conv), float(duration), float(objective), int(newton)
    return ref


def test_grid_against_reference(capsys):
    ref = read_reference()
    assert list(ref) == list(POINTS)
    rows, moved = [], []
    newton_total = 0
    for name, values in POINTS.items():
        conv, duration, objective, newton, wall, unbounded = run_point(values)
        r_conv, r_duration, r_objective, r_newton = ref[name]
        moved += [f"{name}: N {n} pass {k}: J {j!r} below its bound {b!r}"
                  for n, k, b, j in unbounded]
        newton_total += newton
        rows.append(f"{name:32s} newton {r_newton:5d} -> {newton:5d}   {wall:6.2f} s")
        if conv != r_conv:
            moved.append(f"{name}: converged {r_conv} -> {conv}")
        elif conv and not (math.isclose(duration, r_duration, rel_tol=RTOL)
                           and math.isclose(objective, r_objective, rel_tol=RTOL)):
            moved.append(f"{name}: T {r_duration!r} -> {duration!r}, "
                         f"J {r_objective!r} -> {objective!r}")
    with capsys.disabled():
        print("\nsolver grid (Newton steps: reference -> now, wall time)")
        print("\n".join(rows))
        print(f"Newton total {sum(r[3] for r in ref.values())} -> {newton_total}")
    assert not moved, "\n".join(moved)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_grid.py --write")
    lines = ["# name converged duration_s objective newton_steps"]
    for name, values in POINTS.items():
        conv, duration, objective, newton, wall, _ = run_point(values)
        lines.append(f"{name} {conv} {duration:.17g} {objective:.17g} {newton}")
        print(f"{lines[-1]}   ({wall:.2f} s)", flush=True)
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text("\n".join(lines) + "\n")
