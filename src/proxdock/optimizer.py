"""Direct transcription of the rendezvous problem and the duration search.

Decision variables are the N+1 knot states and N inertial-frame wrenches,
interleaved per knot so the transcription Hessian is banded.  The knot-to-knot
defects reuse the exact forward-Euler map from `dynamics`; keep-out constraints
come from the smooth forms in `kos`, scheduled per knot as State I or II.

The maneuver duration is picked from rotation-phase-consistent candidates:
each is solved (twice when the final-approach relaxation engages) and the
lowest-objective converged solution wins.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from . import kos as koslib
from .dynamics import BodyParams, TargetState, euler_matrices, wrap_angle
from .kos import KosConfig, KosState
from .nlp import (InfeasibleError, NotConvergedError, SolverStats, solve_al)

__all__ = [
    "OptProblem", "PlannedTrajectory", "DurationCandidate", "AllCandidatesFailed",
    "duration_candidates", "solve", "plan",
    "build_goal_state", "pack_variables", "unpack_variables",
    "NotConvergedError", "InfeasibleError",
]


class AllCandidatesFailed(RuntimeError):
    def __init__(self, reasons):
        self.reasons = list(reasons)
        super().__init__("no duration candidate produced a converged plan: "
                         + "; ".join(str(r) for r in self.reasons))


@dataclass(frozen=True)
class OptProblem:
    """One fixed-horizon transcription instance.

    x_init and x_goal are states [x, y, theta, vx, vy, omega]; wrench_min and
    wrench_max bound each inertial wrench [Fx, Fy, tau] componentwise.  All
    four are stored as read-only float arrays.
    """

    N: int
    dt: float
    x_init: np.ndarray
    theta_finish: float
    x_goal: np.ndarray
    target: TargetState
    body: BodyParams
    kos_cfg: KosConfig | None
    w_goal: float = 100.0
    w_u: float = 10.0
    w_kin: float = 1.0
    wrench_min: np.ndarray = field(default_factory=lambda: np.array([-0.03, -0.03, -0.0072]))
    wrench_max: np.ndarray = field(default_factory=lambda: np.array([0.03, 0.03, 0.0072]))
    kos_schedule: tuple | None = None  # per-knot KosState; None -> all State I

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N must be at least 2")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        for name, size in (("x_init", 6), ("x_goal", 6), ("wrench_min", 3), ("wrench_max", 3)):
            a = np.array(getattr(self, name), dtype=float)
            if a.shape != (size,) or not np.all(np.isfinite(a)):
                raise ValueError(f"{name} must be {size} finite values")
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if np.any(self.wrench_min > 0) or np.any(self.wrench_max < 0):
            raise ValueError("wrench bounds must bracket zero componentwise")
        if self.kos_schedule is not None and len(self.kos_schedule) != self.N + 1:
            raise ValueError("kos_schedule must have N+1 entries")

    @property
    def horizon(self) -> float:
        return self.N * self.dt

    def schedule(self) -> list[KosState]:
        if self.kos_schedule is None:
            return [KosState.STATE_I] * (self.N + 1)
        return list(self.kos_schedule)


@dataclass(frozen=True)
class DurationCandidate:
    t_total: float
    n_revolutions: int


@dataclass
class PlannedTrajectory:
    """Knot states/wrenches plus solve metadata.

    states rows are [x, y, theta, vx, vy, omega]; wrenches rows [Fx, Fy, tau]
    in the inertial frame.
    """

    times: np.ndarray
    states: np.ndarray
    wrenches: np.ndarray
    objective_value: float
    objective_breakdown: tuple
    kos_states: list
    converged: bool
    solver_stats: SolverStats
    x_goal: np.ndarray
    theta_finish: float
    dt: float

    @property
    def N(self) -> int:
        return len(self.wrenches)

    def resampled(self, n_new: int) -> tuple[np.ndarray, np.ndarray]:
        """Resample to a new horizon on normalized time.

        The pose path is kept; rates scale by the horizon ratio and wrenches
        by its square so the stretched trajectory stays dynamically consistent.
        """
        s_old = np.linspace(0.0, 1.0, self.N + 1)
        s_new = np.linspace(0.0, 1.0, n_new + 1)
        states = np.column_stack([np.interp(s_new, s_old, self.states[:, i]) for i in range(6)])
        scale = self.N / n_new
        states[:, 3:] *= scale
        src = np.minimum((np.arange(n_new) * self.N) // n_new, self.N - 1)
        return states, self.wrenches[src] * scale**2


# ---------------------------------------------------------------------------
# variable layout: z = [x_0, w_0, x_1, w_1, ..., w_{N-1}, x_N]

def _state_offsets(N):
    return np.arange(N + 1) * 9


def pack_variables(states: np.ndarray, wrenches: np.ndarray) -> np.ndarray:
    N = len(wrenches)
    z = np.empty(9 * N + 6)
    so = _state_offsets(N)
    z[(so[:, None] + np.arange(6)).ravel()] = np.asarray(states, dtype=float).ravel()
    wo = np.arange(N) * 9 + 6
    z[(wo[:, None] + np.arange(3)).ravel()] = np.asarray(wrenches, dtype=float).ravel()
    return z


def unpack_variables(z: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    so = _state_offsets(N)
    states = z[(so[:, None] + np.arange(6)).ravel()].reshape(N + 1, 6)
    wo = np.arange(N) * 9 + 6
    wrenches = z[(wo[:, None] + np.arange(3)).ravel()].reshape(N, 3)
    return states, wrenches


class ObjectiveModel:
    """Quadratic objective J = w_goal |x_N - g|^2 + sum dt (w_kin E_kin + w_u |F|^2)."""

    def __init__(self, problem: OptProblem):
        self.problem = problem
        N, dt = problem.N, problem.dt
        m, inertia = problem.body.mass, problem.body.inertia
        goal = problem.x_goal
        n = 9 * N + 6
        q = np.zeros(n)
        so = _state_offsets(N)
        vel_cols = so[:N, None] + np.array([3, 4, 5])
        q[vel_cols.ravel()] = np.tile(0.5 * dt * problem.w_kin * np.array([m, m, inertia]), N)
        wo = (np.arange(N) * 9 + 6)[:, None] + np.arange(3)
        q[wo.ravel()] = problem.w_u * dt
        q[so[N]: so[N] + 6] += problem.w_goal
        c = np.zeros(n)
        c[so[N]: so[N] + 6] = -2.0 * problem.w_goal * goal
        self.q = q
        self.c = c
        self.c0 = problem.w_goal * float(goal @ goal)
        self._goal = goal

    def value_flat(self, z: np.ndarray) -> float:
        return float(z @ (self.q * z) + self.c @ z) + self.c0

    def gradient_flat(self, z: np.ndarray) -> np.ndarray:
        return 2.0 * self.q * z + self.c

    def breakdown(self, states, wrenches) -> tuple[float, float, float]:
        """(goal, kinetic, effort) terms; they sum to the objective."""
        p = self.problem
        states = np.asarray(states, dtype=float)
        wrenches = np.asarray(wrenches, dtype=float)
        d = states[-1] - self._goal
        goal = p.w_goal * float(d @ d)
        v = states[:-1, 3:]
        ek = 0.5 * (p.body.mass * (v[:, 0] ** 2 + v[:, 1] ** 2) + p.body.inertia * v[:, 2] ** 2)
        kinetic = p.w_kin * p.dt * float(np.sum(ek))
        effort = p.w_u * p.dt * float(np.sum(wrenches**2))
        return goal, kinetic, effort


class _Transcription:
    """Flat-variable problem object consumed by nlp.solve_al."""

    def __init__(self, problem: OptProblem):
        self.problem = problem
        N, dt = problem.N, problem.dt
        self.N = N
        self.n = 9 * N + 6
        self.objective = ObjectiveModel(problem)
        self.obj_hess_diag = 2.0 * self.objective.q

        # box bounds: states free, wrenches boxed
        lb = np.full(self.n, -np.inf)
        ub = np.full(self.n, np.inf)
        wo = (np.arange(N) * 9 + 6)[:, None] + np.arange(3)
        lb[wo.ravel()] = np.tile(problem.wrench_min, N)
        ub[wo.ravel()] = np.tile(problem.wrench_max, N)
        self.lb, self.ub = lb, ub

        # equality rows: initial state, Euler defects, terminal attitude
        A, Bw = euler_matrices(problem.body, dt)
        rows, cols, vals = [], [], []
        rhs = np.zeros(6 * N + 7)
        for j in range(6):
            rows.append([j]); cols.append([j]); vals.append([1.0])
        rhs[:6] = problem.x_init
        k = np.arange(N)
        for j in range(6):
            r = 6 + 6 * k + j
            rows.append(r); cols.append(9 * (k + 1) + j); vals.append(np.ones(N))
            rows.append(r); cols.append(9 * k + j); vals.append(np.full(N, -1.0))
            if j < 3:
                rows.append(r); cols.append(9 * k + j + 3); vals.append(np.full(N, -A[j, j + 3]))
            else:
                rows.append(r); cols.append(9 * k + 6 + (j - 3)); vals.append(np.full(N, -Bw[j, j - 3]))
        rows.append([6 + 6 * N]); cols.append([9 * N + 2]); vals.append([1.0])
        rhs[6 + 6 * N] = problem.theta_finish
        rows = np.concatenate([np.asarray(r) for r in rows])
        cols = np.concatenate([np.asarray(c) for c in cols])
        vals = np.concatenate([np.asarray(v, dtype=float) for v in vals])
        self.E = sp.csr_matrix((vals, (rows, cols)), shape=(6 * N + 7, self.n))
        self.e_rhs = rhs

        ete = (self.E.T @ self.E).tocoo()
        mask = ete.row >= ete.col
        r, c, v = ete.row[mask], ete.col[mask], ete.data[mask]
        self.bandwidth = int(np.max(r - c)) if len(r) else 0
        self.ete_banded = np.zeros((self.bandwidth + 1, self.n))
        np.add.at(self.ete_banded, (r - c, c), v)

        # keep-out constraints: circle at State I knots, both lobes everywhere
        self._build_kos()

    def _build_kos(self):
        p = self.problem
        if p.kos_cfg is None:
            self.m_in = 0
            self.ineq_ix = np.zeros(0, dtype=int)
            self.ineq_iy = np.zeros(0, dtype=int)
            return
        N = self.N
        sched = np.array([s.value for s in p.schedule()])
        tk = np.arange(N + 1) * p.dt
        th = p.target.attitude(tk)
        rs = koslib.r_safe(p.kos_cfg)
        circle_knots = np.flatnonzero(sched == KosState.STATE_I.value)
        lobe_knots = np.tile(np.arange(N + 1), 2)
        lobe_sides = np.repeat([1.0, -1.0], N + 1)
        cos_th, sin_th = np.cos(th), np.sin(th)
        self._rs = rs
        self._circle_knots = circle_knots
        self._lobe_knots = lobe_knots
        self._lobe_sides = lobe_sides
        self._lobe_cos = cos_th[lobe_knots]
        self._lobe_sin = sin_th[lobe_knots]
        self._center = p.target.position
        knots_all = np.concatenate([circle_knots, lobe_knots])
        self.ineq_ix = 9 * knots_all
        self.ineq_iy = 9 * knots_all + 1
        self.m_in = len(knots_all)

    def base_banded(self, mu: float) -> np.ndarray:
        ab = mu * self.ete_banded
        ab[0] += self.obj_hess_diag
        return ab

    def objective_value(self, z):
        return self.objective.value_flat(z)

    def objective_value_grad(self, z):
        return self.objective.value_flat(z), self.objective.gradient_flat(z)

    def ineq_full(self, z):
        nc = len(self._circle_knots)
        g = np.empty(self.m_in)
        gx = np.empty(self.m_in)
        gy = np.empty(self.m_in)
        hxx = np.empty(self.m_in)
        hxy = np.empty(self.m_in)
        hyy = np.empty(self.m_in)
        if nc:
            px = z[9 * self._circle_knots]
            py = z[9 * self._circle_knots + 1]
            v, dgx, dgy = koslib.smooth_circle(px, py, self._center, self._rs)
            g[:nc], gx[:nc], gy[:nc] = v, dgx, dgy
            hxx[:nc] = hyy[:nc] = 2.0
            hxy[:nc] = 0.0
        px = z[9 * self._lobe_knots]
        py = z[9 * self._lobe_knots + 1]
        v, dgx, dgy, lxx, lxy, lyy = koslib.smooth_lobe(
            px, py, self._lobe_cos, self._lobe_sin, self._center, self._rs, self._rs / 2.0,
            self._lobe_sides)
        g[nc:], gx[nc:], gy[nc:] = v, dgx, dgy
        hxx[nc:], hxy[nc:], hyy[nc:] = lxx, lxy, lyy
        return g, gx, gy, hxx, hxy, hyy

    def ineq_values(self, z):
        """Constraint values only; bit for bit ineq_full(z)[0]."""
        if self.m_in == 0:
            return np.zeros(0)
        nc = len(self._circle_knots)
        g = np.empty(self.m_in)
        if nc:
            g[:nc] = koslib.circle_value(z[9 * self._circle_knots], z[9 * self._circle_knots + 1],
                                         self._center, self._rs)
        xp, yp = koslib.target_frame(z[9 * self._lobe_knots], z[9 * self._lobe_knots + 1],
                                     self._lobe_cos, self._lobe_sin, self._center)
        g[nc:] = koslib.lobe_value(xp, yp, self._rs, self._rs / 2.0, self._lobe_sides)
        return g


def default_initial_guess(problem: OptProblem) -> np.ndarray:
    """Pose interpolation with zero wrenches, detoured around the keep-out circle.

    Straight-line interpolation of position/attitude; any span of the line
    inside the safety circle is replaced by an arc slightly outside it (the
    bare line can cross the target's center, which stalls the multiplier
    loop), and rates are rebuilt by finite differences.
    """
    N = problem.N
    s0 = problem.x_init
    sg = problem.x_goal
    frac = np.linspace(0.0, 1.0, N + 1)
    states = np.empty((N + 1, 6))
    states[:, 0] = s0[0] + frac * (sg[0] - s0[0])
    states[:, 1] = s0[1] + frac * (sg[1] - s0[1])
    states[:, 2] = s0[2] + frac * (problem.theta_finish - s0[2])
    states[:, 5] = (problem.theta_finish - s0[2]) / problem.horizon

    if problem.kos_cfg is not None:
        rs = koslib.r_safe(problem.kos_cfg) + 0.02
        c = problem.target.position
        rel = states[:, :2] - c
        r = np.hypot(rel[:, 0], rel[:, 1])
        inside = np.flatnonzero(r < rs)
        if len(inside):
            k_in = inside[0]
            if k_in > 0:
                a0 = math.atan2(rel[k_in - 1, 1], rel[k_in - 1, 0])
            else:
                a0 = math.atan2(rel[k_in, 1], rel[k_in, 0]) if r[k_in] > 1e-9 else 0.0
            k_out = inside[-1]
            ref = rel[k_out + 1] if k_out < N else rel[k_out]
            a1 = math.atan2(ref[1], ref[0]) if np.hypot(*ref) > 1e-9 else a0
            da = wrap_angle(a1 - a0)
            if abs(abs(da) - math.pi) < 1e-9:  # diametral tie: detour co-rotating
                da = math.copysign(math.pi, problem.target.omega if problem.target.omega else 1.0)
            span = np.arange(k_in, k_out + 1)
            ang = a0 + da * (span - k_in + 1) / (k_out - k_in + 2)
            states[span, 0] = c[0] + rs * np.cos(ang)
            states[span, 1] = c[1] + rs * np.sin(ang)

    states[:-1, 3:5] = np.diff(states[:, :2], axis=0) / problem.dt
    states[-1, 3:5] = states[-2, 3:5]
    return pack_variables(states, np.zeros((N, 3)))


def solve(problem: OptProblem, initial_guess: PlannedTrajectory | None = None,
          *, kkt_tol=1e-6, feas_tol=1e-8, max_outer=500, max_inner=200) -> PlannedTrajectory:
    """Solve one transcription to local optimality.

    Raises NotConvergedError / InfeasibleError (from proxdock.nlp) on failure.
    """
    tr = _Transcription(problem)
    if initial_guess is not None:
        states, wrenches = initial_guess.resampled(problem.N)
        z0 = pack_variables(states, wrenches)
    else:
        z0 = default_initial_guess(problem)
    z, lam, eta, stats = solve_al(tr, z0, kkt_tol=kkt_tol, feas_tol=feas_tol,
                                  max_outer=max_outer, max_inner=max_inner)
    states, wrenches = unpack_variables(z, problem.N)
    breakdown = tr.objective.breakdown(states, wrenches)
    return PlannedTrajectory(
        times=np.arange(problem.N + 1) * problem.dt,
        states=states,
        wrenches=wrenches,
        objective_value=float(sum(breakdown)),
        objective_breakdown=breakdown,
        kos_states=problem.schedule(),
        converged=True,
        solver_stats=stats,
        x_goal=problem.x_goal,
        theta_finish=problem.theta_finish,
        dt=problem.dt,
    )


def duration_candidates(target: TargetState, theta_approach: float, max_candidates: int,
                        *, min_duration: float = 5.0,
                        static_durations=(20.0, 40.0, 60.0, 80.0)) -> list[DurationCandidate]:
    """Maneuver durations at which the target attitude equals theta_approach.

    For a static target the configured fixed ladder is used instead.  The
    phase index n keeps increasing until max_candidates admissible durations
    are collected, so slow actuators still get reachable horizons.
    """
    if max_candidates <= 0:
        return []
    if target.omega == 0.0:
        out = [DurationCandidate(float(t), i) for i, t in enumerate(static_durations)
               if t >= min_duration]
        return out[:max_candidates]
    if target.omega > 0:
        delta = (theta_approach - target.theta0) % (2.0 * math.pi)
    else:
        delta = (target.theta0 - theta_approach) % (2.0 * math.pi)
    out = []
    n = 0
    while len(out) < max_candidates and n <= 1_000_000:
        t = (delta + 2.0 * math.pi * n) / abs(target.omega)
        if t >= min_duration:
            out.append(DurationCandidate(t, n))
        n += 1
    return out


def build_goal_state(target: TargetState, theta_target_final: float, body: BodyParams,
                     theta_unwrapped: float, capture_offset: float = 0.05,
                     corotate: bool = False) -> np.ndarray:
    """Goal pose on the docking normal at capture distance.

    The default goal is at rest: the residual target-frame relative velocity
    then equals omega_t * r_dock (~0.03 m/s for the nominal geometry), and the
    weak thrusters are not asked to brake a moving endpoint during
    station-keeping.  corotate=True instead matches the dock point's
    rotational velocity.
    """
    r_dock = 0.5 * (body.side_length + target.side_length) + capture_offset
    nx, ny = math.cos(theta_target_final), math.sin(theta_target_final)
    rx, ry = r_dock * nx, r_dock * ny
    if corotate:
        vx, vy, om = -target.omega * ry, target.omega * rx, target.omega
    else:
        vx = vy = om = 0.0
    return np.array([target.x + rx, target.y + ry, theta_unwrapped, vx, vy, om])


def _classified_schedule(sol: PlannedTrajectory, target: TargetState,
                         cfg: KosConfig, delay_knots: int = 0) -> list[KosState]:
    """Per-knot classification, latched from first satisfaction to the end.

    delay_knots postpones the latch (a confirmation window): the re-solved
    trajectory starts its descent only after the live conditions have held
    for that long, so the flown relaxation never leads the classification.
    """
    th = target.attitude(sol.times)
    raw = koslib.classify(sol.states[:, :2], th, target.position, cfg)
    return [KosState(v) for v in koslib.latch(raw, delay_knots)]


def plan(theta_approach: float, template: OptProblem, max_candidates: int = 2,
         *, min_duration: float = 5.0, static_durations=(20.0, 40.0, 60.0, 80.0),
         capture_offset: float = 0.05, goal_corotate: bool = False,
         latch_delay: float | str = "auto", warm_start: bool = True,
         collect_all: bool = False):
    """Duration search + two-pass keep-out scheduling; returns the best plan.

    Candidates are solved in ascending duration (warm-started from the
    previous one unless warm_start=False); each converged solution whose
    knots trigger the final-approach classification is re-solved with the
    relaxed State II schedule latched from first satisfaction.  The converged
    plan with the lowest objective wins; ties go to the shortest duration.
    With collect_all=True returns (best, all_results) for sweep diagnostics.
    """
    target = template.target
    if target.omega == 0.0 and abs(wrap_angle(theta_approach - target.theta0)) > 1e-9:
        raise AllCandidatesFailed(
            [f"static target never reaches approach attitude {theta_approach!r}"])
    if latch_delay == "auto":
        # confirmation window scaled to the gate-crossing timescale, so slow
        # approaches get a solid debounce and fast spins still engage
        if template.kos_cfg is not None and target.omega != 0.0:
            latch_delay = min(5.0, 0.5 * template.kos_cfg.angle_threshold / abs(target.omega))
        else:
            latch_delay = 0.0
    cands = duration_candidates(target, theta_approach, max_candidates,
                                min_duration=min_duration, static_durations=static_durations)
    if not cands:
        raise AllCandidatesFailed(["no admissible duration candidates"])

    results = []
    failures = []
    prev = None
    for cand in cands:
        N = max(2, int(round(cand.t_total / template.dt)))
        T = N * template.dt
        theta_t_final = target.attitude(T)
        theta_init = float(template.x_init[2])
        theta_fin = theta_init + wrap_angle(theta_t_final - theta_init)
        goal = build_goal_state(target, theta_t_final, template.body, theta_fin,
                                capture_offset, corotate=goal_corotate)
        prob1 = replace(template, N=N, theta_finish=theta_fin, x_goal=goal, kos_schedule=None)
        guess = prev if warm_start else None
        try:
            sol = solve(prob1, guess)
        except (NotConvergedError, InfeasibleError) as ex:
            failures.append(f"t={T:.2f}s pass1: {type(ex).__name__}")
            continue
        if template.kos_cfg is not None:
            sched = _classified_schedule(sol, target, template.kos_cfg,
                                         delay_knots=int(round(latch_delay / template.dt)))
            if KosState.STATE_II in sched:
                prob2 = replace(prob1, kos_schedule=tuple(sched))
                try:
                    sol = solve(prob2, sol)
                except (NotConvergedError, InfeasibleError):
                    pass  # keep the conservative pass-1 plan
        results.append(sol)
        if warm_start:
            prev = sol

    if not results:
        raise AllCandidatesFailed(failures or ["candidate list was empty"])

    best = results[0]
    for r in results[1:]:
        if r.objective_value < best.objective_value - 1e-9 * max(1.0, abs(best.objective_value)):
            best = r  # strictly better J; earlier (shorter) candidate wins ties
    if collect_all:
        return best, results
    return best
