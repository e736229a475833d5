"""Direct transcription of the rendezvous problem and the duration search.

Decision variables are the N+1 knot states and N inertial-frame wrenches,
ordered by axis chain (translation block, then attitude block, knot-major
inside each; see _layout) so the transcription Hessian is banded with
bandwidth 6.  The knot-to-knot defects reuse the exact forward-Euler map
from `dynamics`; keep-out constraints come from the smooth forms in `kos`,
scheduled per knot as State I or II by an int array of KosState values
(`OptProblem.kos_schedule`, None for all State I).

The transcription separates exactly into its two axis chains, and solve
solves them apart (Betts, Practical Methods for Optimal Control, ch. 2).
No equality row reads both blocks: the translation defects never see
theta, omega or tau, and the attitude rows never see x, y or a force.  The
objective is diagonal.  The keep-out constraints read only x and y, since
`kos.r_safe` is the worst-case corner circle and the chaser's attitude
never enters.  So the whole problem's KKT conditions are the two chains'
side by side, and a KKT point of each chain is one of the whole.  The
attitude chain, [theta, omega, tau] with the initial theta and omega rows,
their Euler defects, the terminal-theta row and the torque box, is a
box-constrained QP that nlp.solve_al solves with no keep-out constraint; the
augmented-Lagrangian loop then runs on the translation chain, [x, y, vx,
vy, Fx, Fy] with the keep-out constraints.  A pass-2 re-solve changes only
the keep-out schedule, so its warm restart of the attitude chain returns
the pass-1 columns after one outer iteration and no Newton step.

The maneuver duration (a float, in seconds) is picked from
rotation-phase-consistent candidates.  Each candidate is solved on its own
from the default initial guess (twice when the final-approach relaxation
engages, the second pass restarting at the same N from the first's primal
and multipliers), and the lowest-objective converged solution wins.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from . import kos as koslib
from .dynamics import BodyParams, TargetState, euler_matrices, wrap_angle
from .kos import KosConfig, KosState
from .nlp import InfeasibleError, NotConvergedError, SolverStats, dot, solve_al

__all__ = [
    "OptProblem", "PlannedTrajectory", "AllCandidatesFailed",
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
    four are stored as read-only float arrays, and kos_schedule as a read-only
    int array.
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
    kos_schedule: np.ndarray | None = None  # per-knot KosState; None -> all State I

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
        if self.kos_schedule is not None:
            sched = np.array(self.kos_schedule, dtype=int)
            if sched.shape != (self.N + 1,):
                raise ValueError("kos_schedule must have N+1 entries")
            sched.flags.writeable = False
            object.__setattr__(self, "kos_schedule", sched)

    @property
    def horizon(self) -> float:
        return self.N * self.dt


@dataclass
class PlannedTrajectory:
    """Knot states/wrenches plus solve metadata.

    states rows are [x, y, theta, vx, vy, omega]; wrenches rows [Fx, Fy, tau]
    in the inertial frame; kos_states is the per-knot KosState int array.
    multipliers is the solve's final (lam, circle eta per knot, lobe eta,
    mu_final): lam has one entry per equality row, the circle eta is zero at
    knots without a circle constraint, and the lobe eta holds the positive
    side's N+1 knots, then the negative side's.  solve restarts from them
    when it is given this plan as its initial guess; plans read from a file
    have None.  pass2_failure is the solver message of a failed pass-2
    re-solve (see `plan`), whose pass-1 plan this then is; None otherwise.
    """

    times: np.ndarray
    states: np.ndarray
    wrenches: np.ndarray
    objective_value: float
    objective_breakdown: tuple
    kos_states: np.ndarray
    converged: bool
    solver_stats: SolverStats
    x_goal: np.ndarray
    theta_finish: float
    dt: float
    multipliers: tuple | None = None
    pass2_failure: str | None = None

    @property
    def N(self) -> int:
        return len(self.wrenches)


def terminal_errors(plan: PlannedTrajectory, state) -> tuple[float, float]:
    """(position error [m], wrapped attitude residual [rad]) of a chaser state
    against a plan's goal."""
    return (float(np.hypot(state[0] - plan.x_goal[0], state[1] - plan.x_goal[1])),
            abs(wrap_angle(state[2] - plan.theta_finish)))


# ---------------------------------------------------------------------------
# variable layout.  Quantity j of a knot is numbered as in [state | wrench] =
# [x, y, theta, vx, vy, omega, Fx, Fy, tau].  z holds one block per axis
# chain, knot-major inside each block: first the translation block, [x, y,
# vx, vy, Fx, Fy] per knot k < N and [x, y, vx, vy] at knot N, then the
# attitude block, [theta, omega, tau] per knot and [theta, omega] at knot N.
# Every Euler row and the objective stay on one chain and the keep-out
# constraints read only x and y, so E^T E couples z entries at most 6 apart
# (x_k to x_{k+1}) and the Newton matrix has bandwidth 6.  x and y must stay
# adjacent: nlp puts the keep-out cross term on the first subdiagonal.
_BLOCKS = ((0, 1, 3, 4, 6, 7), (2, 5, 8))


def _layout(N: int) -> np.ndarray:
    """Position in z of quantity j at knot k, as an (N+1, 9) int array; the
    wrench columns of knot N, which has no wrench, hold -1."""
    pos = np.full((N + 1, 9), -1)
    start = 0
    for cols in _BLOCKS:
        w = len(cols)
        pos[:, cols] = start + w * np.arange(N + 1)[:, None] + np.arange(w)
        start += w * (N + 1) - sum(j >= 6 for j in cols)
    pos[N, 6:] = -1
    return pos


def pack_variables(states: np.ndarray, wrenches: np.ndarray) -> np.ndarray:
    pos = _layout(len(wrenches))
    z = np.empty(pos.max() + 1)
    z[pos[:, :6]] = states
    z[pos[:-1, 6:]] = wrenches
    return z


def unpack_variables(z: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    pos = _layout(N)
    return z[pos[:, :6]], z[pos[:-1, 6:]]


class _Transcription:
    """Flat-variable problem object consumed by nlp.solve_al.

    The objective is the quadratic J = w_goal |x_N - g|^2
    + sum dt (w_kin E_kin + w_u |F|^2) = z.(q*z) + c.z + c0.
    """

    def __init__(self, problem: OptProblem):
        self.problem = problem
        N, dt = problem.N, problem.dt
        self.N = N
        pos = _layout(N)
        self.n = int(pos.max()) + 1
        goal = problem.x_goal
        wpos = pos[:-1, 6:]
        q = np.zeros(self.n)
        q[pos[:-1, 3:6]] = 0.5 * dt * problem.w_kin * np.array(
            [problem.body.mass, problem.body.mass, problem.body.inertia])
        q[wpos] = problem.w_u * dt
        q[pos[N, :6]] += problem.w_goal
        self.q = q
        self.c = np.zeros(self.n)
        self.c[pos[N, :6]] = -2.0 * problem.w_goal * goal
        self.c0 = problem.w_goal * float(goal @ goal)

        # box bounds: states free, wrenches boxed
        self.lb = np.full(self.n, -np.inf)
        self.ub = np.full(self.n, np.inf)
        self.lb[wpos] = problem.wrench_min
        self.ub[wpos] = problem.wrench_max

        # equality rows: initial state, Euler defects, terminal attitude
        A, Bw = euler_matrices(problem.body, dt)
        rows, cols, vals = [], [], []
        rhs = np.zeros(6 * N + 7)
        for j in range(6):
            rows.append([j]); cols.append([pos[0, j]]); vals.append([1.0])
        rhs[:6] = problem.x_init
        k = np.arange(N)
        for j in range(6):
            r = 6 + 6 * k + j
            rows.append(r); cols.append(pos[k + 1, j]); vals.append(np.ones(N))
            rows.append(r); cols.append(pos[k, j]); vals.append(np.full(N, -1.0))
            # rate (velocity or wrench) driving quantity j is quantity j + 3
            rate = A[j, j + 3] if j < 3 else Bw[j, j - 3]
            rows.append(r); cols.append(pos[k, j + 3]); vals.append(np.full(N, -rate))
        rows.append([6 + 6 * N]); cols.append([pos[N, 2]]); vals.append([1.0])
        rhs[6 + 6 * N] = problem.theta_finish
        rows = np.concatenate([np.asarray(r) for r in rows])
        cols = np.concatenate([np.asarray(c) for c in cols])
        vals = np.concatenate([np.asarray(v, dtype=float) for v in vals])
        self.E = sp.csr_matrix((vals, (rows, cols)), shape=(6 * N + 7, self.n))
        self.ET = self.E.T.tocsr()
        self.e_rhs = rhs

        ete = (self.E.T @ self.E).tocoo()
        mask = ete.row >= ete.col
        r, c, v = ete.row[mask], ete.col[mask], ete.data[mask]
        self.bandwidth = int(np.max(r - c)) if len(r) else 0
        self._ete_banded = np.zeros((self.bandwidth + 1, self.n))
        np.add.at(self._ete_banded, (r - c, c), v)

        # the axis chains: z splits at n_t into the translation and the
        # attitude block, and each equality row reads one of them
        n_t = int(pos[:, _BLOCKS[0]].max()) + 1
        self.chain_cols = (slice(0, n_t), slice(n_t, self.n))
        attitude_row = self.E.indices[self.E.indptr[:-1]] >= n_t
        self.chain_rows = (np.flatnonzero(~attitude_row), np.flatnonzero(attitude_row))

        # keep-out constraints: circle at State I knots, both lobes everywhere
        self._pos = pos
        self._build_kos(problem.kos_cfg)

    def _build_kos(self, kos_cfg):
        """Set the keep-out constraint rows: the circle at the State I knots,
        then each lobe at every knot, the positive side first.  Without a
        keep-out config the knot sets are empty, so m_in is 0, ineq_full and
        ineq_values return empty arrays and no row reads the nan r_safe."""
        p, pos = self.problem, self._pos
        knots = np.arange(self.N + 1 if kos_cfg is not None else 0)
        circle_knots = (knots if p.kos_schedule is None
                        else knots[p.kos_schedule[knots] == KosState.STATE_I])
        th = p.target.attitude(knots * p.dt)
        self._rs = koslib.r_safe(kos_cfg) if kos_cfg is not None else math.nan
        self._circle_knots = circle_knots
        self._lobe_sides = np.repeat([1.0, -1.0], len(knots))
        self._lobe_cos = np.tile(np.cos(th), 2)
        self._lobe_sin = np.tile(np.sin(th), 2)
        self._center = p.target.position
        knots_all = np.concatenate([circle_knots, knots, knots])
        self.ineq_ix = pos[knots_all, 0]
        self.ineq_iy = pos[knots_all, 1]
        self.m_in = len(knots_all)

    def chain(self, b: int) -> "_Transcription":
        """Axis chain b (0 translation, 1 attitude) as a problem of its own
        over z[chain_cols[b]]: the equality rows chain_rows[b], the chain's
        objective terms, which sum to the objective over both chains, and
        for the translation chain the keep-out constraints, whose indices
        already point into its leading slice of z."""
        cols, rows = self.chain_cols[b], self.chain_rows[b]
        sub = copy.copy(self)
        sub.n = cols.stop - cols.start
        sub.q, sub.c, sub.lb, sub.ub = self.q[cols], self.c[cols], self.lb[cols], self.ub[cols]
        goal = self.problem.x_goal[[j for j in _BLOCKS[b] if j < 6]]
        sub.c0 = self.problem.w_goal * float(goal @ goal)
        sub.E = self.E[rows][:, cols]
        sub.ET = sub.E.T.tocsr()
        sub.e_rhs = self.e_rhs[rows]
        band = self._ete_banded[:, cols]
        sub.bandwidth = int(np.flatnonzero(band.any(axis=1))[-1])
        sub._ete_banded = band[:sub.bandwidth + 1]
        if b == 1:
            sub._build_kos(None)
        return sub

    def base_banded(self, mu: float) -> np.ndarray:
        """diag(2q) + mu E^T E in lower-banded storage."""
        ab = mu * self._ete_banded
        ab[0] += 2.0 * self.q
        return ab

    def objective_value(self, z):
        return dot(z, self.q * z) + dot(self.c, z) + self.c0

    def objective_value_grad(self, z):
        return self.objective_value(z), 2.0 * self.q * z + self.c

    def breakdown(self, states, wrenches) -> tuple[float, float, float]:
        """(goal, kinetic, effort) terms; they sum to the objective."""
        p = self.problem
        d = states[-1] - p.x_goal
        goal = p.w_goal * float(d @ d)
        v = states[:-1, 3:]
        ek = 0.5 * (p.body.mass * (v[:, 0] ** 2 + v[:, 1] ** 2) + p.body.inertia * v[:, 2] ** 2)
        kinetic = p.w_kin * p.dt * float(np.sum(ek))
        effort = p.w_u * p.dt * float(np.sum(wrenches**2))
        return goal, kinetic, effort

    def ineq_full(self, z):
        """Constraint values and gradients, as (g, gx, gy)."""
        nc = len(self._circle_knots)
        xs, ys = z[self.ineq_ix], z[self.ineq_iy]
        g = np.empty(self.m_in)
        gx = np.empty(self.m_in)
        gy = np.empty(self.m_in)
        g[:nc], gx[:nc], gy[:nc] = koslib.smooth_circle(xs[:nc], ys[:nc], self._center, self._rs)
        g[nc:], gx[nc:], gy[nc:] = koslib.smooth_lobe(
            xs[nc:], ys[nc:], self._lobe_cos, self._lobe_sin,
            self._center, self._rs, self._rs / 2.0, self._lobe_sides)
        return g, gx, gy

    def ineq_values(self, z):
        """Constraint values only; bit for bit ineq_full(z)[0]."""
        nc = len(self._circle_knots)
        xs, ys = z[self.ineq_ix], z[self.ineq_iy]
        g = np.empty(self.m_in)
        g[:nc] = koslib.circle_value(xs[:nc], ys[:nc], self._center, self._rs)
        xp, yp = koslib.target_frame(xs[nc:], ys[nc:], self._lobe_cos, self._lobe_sin, self._center)
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


# Penalty ceiling for a same-N warm start.  Pass 1 ends at mu 1e6-1e8.  Over
# the nominal plan and three sweep points, restarting at 1e4, 1e6 or the
# uncapped mu_final took 9-17 % more Newton steps than at 1e5.
_WARM_MU_CAP = 1e5


def solve(problem: OptProblem, initial_guess: PlannedTrajectory | None = None,
          *, feas_tol=1e-8) -> PlannedTrajectory:
    """Solve one transcription to a local optimum with violation <= feas_tol.

    Without a guess the solve starts from default_initial_guess.  A guess
    must be a plan at the problem's N (another N raises ValueError); its
    knots give the primal start, and when it carries multipliers for the
    same keep-out model the multiplier loop restarts from them, with the
    penalty capped at _WARM_MU_CAP.

    The attitude chain is solved first, then the translation chain (see the
    module docstring).  The plan's solver_stats sum the two runs' iteration,
    stall and cap counts and take the larger KKT residual and violation;
    mu_final is the translation chain's.

    Raises NotConvergedError / InfeasibleError (from proxdock.nlp) on
    failure, with the stats of the chain that failed.
    """
    tr = _Transcription(problem)
    warm = None
    if initial_guess is None:
        z0 = default_initial_guess(problem)
    elif initial_guess.N != problem.N:
        raise ValueError(f"initial guess has N = {initial_guess.N}, "
                         f"the problem has N = {problem.N}")
    else:
        z0 = pack_variables(initial_guess.states, initial_guess.wrenches)
        if initial_guess.multipliers is not None:
            lam0, circle_eta, lobe_eta, mu_final = initial_guess.multipliers
            eta0 = np.concatenate([circle_eta[tr._circle_knots], lobe_eta])
            if len(eta0) == tr.m_in:  # same keep-out model
                warm = lam0, eta0, min(mu_final, _WARM_MU_CAP)
    z = np.empty(tr.n)
    lam = np.empty(tr.E.shape[0])
    runs = []
    # the cheap attitude chain first, so a hopeless solve ends soonest; the
    # translation chain holds every keep-out constraint (the attitude chain's
    # m_in is 0), runs last and leaves eta, their multipliers
    for b in (1, 0):
        chain, cols, rows = tr.chain(b), tr.chain_cols[b], tr.chain_rows[b]
        kw = {} if warm is None else dict(lam0=warm[0][rows], eta0=warm[1][:chain.m_in],
                                          mu0=warm[2])
        z[cols], lam[rows], eta, chain_stats = solve_al(chain, z0[cols], feas_tol=feas_tol, **kw)
        runs.append(chain_stats)
    att, stats = runs
    stats = replace(
        stats, **{k: getattr(att, k) + getattr(stats, k) for k in
                  ("outer_iterations", "newton_iterations", "inner_stalls", "inner_capped")},
        kkt_residual=max(att.kkt_residual, stats.kkt_residual),
        constraint_violation=max(att.constraint_violation, stats.constraint_violation))
    states, wrenches = unpack_variables(z, problem.N)
    breakdown = tr.breakdown(states, wrenches)
    nc = len(tr._circle_knots)
    circle_eta = np.zeros(problem.N + 1)
    circle_eta[tr._circle_knots] = eta[:nc]
    return PlannedTrajectory(
        times=np.arange(problem.N + 1) * problem.dt,
        states=states,
        wrenches=wrenches,
        objective_value=float(sum(breakdown)),
        objective_breakdown=breakdown,
        kos_states=(np.full(problem.N + 1, KosState.STATE_I) if problem.kos_schedule is None
                    else problem.kos_schedule),
        converged=True,
        solver_stats=stats,
        x_goal=problem.x_goal,
        theta_finish=problem.theta_finish,
        dt=problem.dt,
        multipliers=(lam, circle_eta, eta[nc:], stats.mu_final),
    )


def duration_candidates(target: TargetState, theta_approach: float, max_candidates: int,
                        *, min_duration: float = 5.0,
                        static_durations=(20.0, 40.0, 60.0, 80.0)) -> list[float]:
    """Maneuver durations [s] at which the target attitude equals theta_approach.

    For a static target the configured fixed ladder is used instead.  The
    phase index n keeps increasing until max_candidates admissible durations
    are collected, so slow actuators still get reachable horizons.
    """
    if max_candidates <= 0:
        return []
    if target.omega == 0.0:
        out = [float(t) for t in static_durations if t >= min_duration]
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
            out.append(t)
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


def plan(theta_approach: float, template: OptProblem, max_candidates: int = 2,
         *, min_duration: float = 5.0, static_durations=(20.0, 40.0, 60.0, 80.0),
         capture_offset: float = 0.05, goal_corotate: bool = False,
         latch_delay: float | str = "auto"):
    """Duration search + two-pass keep-out scheduling; returns (best, results).

    Every candidate duration is solved on its own from default_initial_guess;
    each converged solution whose knots trigger the final-approach
    classification is re-solved with the relaxed State II schedule latched
    from first satisfaction; a failed re-solve keeps the pass-1 plan and
    records the failure in its pass2_failure.  results holds the converged
    plans in ascending duration; best is the one with the lowest objective,
    ties going to the shortest duration.
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
    for t_total in cands:
        N = max(2, int(round(t_total / template.dt)))
        T = N * template.dt
        theta_t_final = target.attitude(T)
        theta_init = float(template.x_init[2])
        theta_fin = theta_init + wrap_angle(theta_t_final - theta_init)
        goal = build_goal_state(target, theta_t_final, template.body, theta_fin,
                                capture_offset, corotate=goal_corotate)
        prob1 = replace(template, N=N, theta_finish=theta_fin, x_goal=goal, kos_schedule=None)
        try:
            sol = solve(prob1)
        except (NotConvergedError, InfeasibleError) as ex:
            failures.append(f"t={T:.2f}s pass1: {ex.stats.message}")
            continue
        if template.kos_cfg is not None:
            # the latch delay is a confirmation window: the re-solved
            # trajectory starts its descent only after the live conditions
            # have held for that long, so the flown relaxation never leads
            # the classification
            sched = koslib.latch(
                koslib.classify(sol.states[:, :2], target.attitude(sol.times),
                                target.position, template.kos_cfg),
                int(round(latch_delay / template.dt)))
            if KosState.STATE_II in sched:
                try:
                    sol = solve(replace(prob1, kos_schedule=sched), sol)
                except (NotConvergedError, InfeasibleError) as ex:
                    # keep the conservative pass-1 plan, and say why
                    sol = replace(sol, pass2_failure=ex.stats.message)
        results.append(sol)

    if not results:
        raise AllCandidatesFailed(failures or ["candidate list was empty"])

    best = results[0]
    for r in results[1:]:
        if r.objective_value < best.objective_value - 1e-9 * max(1.0, abs(best.objective_value)):
            best = r  # strictly better J; earlier (shorter) candidate wins ties
    return best, results
