"""Direct transcription of the rendezvous problem and the duration search.

Decision variables are the N+1 knot states and N inertial-frame wrenches,
split into two axis chains, each a vector of its own (knot-major; see
_CHAINS).  The knot-to-knot defects reuse the exact forward-Euler map from
`dynamics`; the keep-out rows, one per knot under the per-knot schedule
`OptProblem.kos_schedule` (None for all State I), are kos.KnotRows, and
`kos` states the zone's rules.

The transcription separates exactly into its two axis chains, so it is
built and solved as two problems (Betts, Practical Methods for Optimal
Control, ch. 2).  No equality row reads both chains: the translation defects
never see theta, omega or tau, and the attitude rows never see x, y or a
force.  The objective is diagonal.  The keep-out constraints read only x and
y, since `kos.r_safe` is the worst-case corner circle and the chaser's
attitude never enters.  So the whole problem's KKT conditions are the two
chains' side by side, and a KKT point of each chain is one of the whole.
_Transcription(problem, b) builds chain b directly, as a problem over its
own vector, which pack and unpack convert to and from a plan's knots.  The
attitude chain, [theta, omega, tau] with the initial theta and omega rows,
their Euler defects, the terminal-theta row and the torque box, is a
box-constrained QP that nlp.solve_al solves with no keep-out constraint; the
augmented-Lagrangian loop then runs on the translation chain, [x, y, vx,
vy, Fx, Fy] with the keep-out constraints.

The maneuver duration (a float, in seconds) is picked from
rotation-phase-consistent candidates by bound and prune (see plan).  Each
candidate's LQ relaxation, the problem without the wrench box and the
keep-out rows, is solved exactly (lq_relaxation); its objective bounds the
candidate's plans from below.  The candidates are solved in ascending bound
order, each from the default initial guess and its relaxation's equality
multipliers; plan then decides whether it needs a pass 2 under the State II
schedule.  A candidate whose bound exceeds the best objective found is
skipped, and the lowest-objective converged solution wins.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import kos as koslib
from .dynamics import BodyParams, TargetState, euler_matrices, wrap_angle
from .kos import KosConfig, KosState
from .nlp import (FEAS_TOL, Csr, InfeasibleError, NotConvergedError, SolverStats,
                  lu_solve_banded, solve_al)

__all__ = [
    "OptProblem", "PlannedTrajectory", "AllCandidatesFailed", "Candidate", "LqRelaxation",
    "duration_candidates", "lq_relaxation", "solve", "plan",
    "build_goal_state",
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
    int array.  kos_cfg sizes the keep-out zone that every plan keeps out of.
    A schedule holds KosState values, its State I knots before its State II
    knots: the zone is never re-inflated (see kos), the only form plan makes
    and the one kos.KnotRows needs.
    """

    N: int
    dt: float
    x_init: np.ndarray
    theta_finish: float
    x_goal: np.ndarray
    target: TargetState
    body: BodyParams
    kos_cfg: KosConfig
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
            if not np.all(np.isin(self.kos_schedule, (KosState.STATE_I, KosState.STATE_II))):
                raise ValueError("kos_schedule entries must be KosState values (1 or 2)")
            if np.any(np.diff(sched) < 0):
                raise ValueError("kos_schedule must not switch from State II back to State I")
            sched.flags.writeable = False
            object.__setattr__(self, "kos_schedule", sched)

    @property
    def horizon(self) -> float:
        return self.N * self.dt


@dataclass
class PlannedTrajectory:
    """Knot states/wrenches of a converged plan (solve returns no other, and
    records.read_trajectory reads no other's record) plus solve metadata.

    states rows are [x, y, theta, vx, vy, omega]; wrenches rows [Fx, Fy, tau]
    in the inertial frame; kos_states is the per-knot KosState int array.
    restart is what solve needs to restart from this plan (see _Restart),
    None on plans read from a file or returned by plan.  pass2 records what
    plan's pass 2 did: the stats of the translation run that re-solved this
    plan, or of a failed one, whose pass-1 plan this then is; None where
    pass 2 did not run, and then kos_states holds State II knots only if
    the pass-1 plan already met pass 2's KKT conditions (see plan).
    """

    times: np.ndarray
    states: np.ndarray
    wrenches: np.ndarray
    objective_value: float
    objective_breakdown: tuple
    kos_states: np.ndarray
    solver_stats: SolverStats
    x_goal: np.ndarray
    theta_finish: float
    dt: float
    restart: _Restart | None = None
    pass2: SolverStats | None = None

    @property
    def N(self) -> int:
        return len(self.wrenches)


@dataclass(frozen=True)
class _Restart:
    """What solve takes from a plan to restart it under another keep-out
    schedule: the problem and translation chain it solved, the chain's
    equality multipliers, its keep-out multipliers (one per knot, as its
    rows) and final penalty, and the stats of the attitude run that produced
    its theta, omega and tau columns, which a restart keeps."""

    problem: OptProblem
    chain: _Transcription
    lam: np.ndarray
    eta: np.ndarray
    mu: float
    attitude: SolverStats


def terminal_errors(plan: PlannedTrajectory, state) -> tuple[float, float]:
    """(position error [m], wrapped attitude residual [rad]) of a chaser state
    against a plan's goal."""
    return (float(np.hypot(state[0] - plan.x_goal[0], state[1] - plan.x_goal[1])),
            abs(wrap_angle(state[2] - plan.theta_finish)))


# ---------------------------------------------------------------------------
# variable layout.  Quantity j of a knot is numbered as in [state | wrench] =
# [x, y, theta, vx, vy, omega, Fx, Fy, tau]; _CHAINS lists each axis chain's
# quantities, its states first.  Each chain is transcribed over its own
# vector (see _Transcription), knot-major: the chain's quantities at each
# knot k < N, then its states at knot N, so quantity i of the chain sits at
# w k + i, w the chain's quantity count.  Its Euler rows couple entries at
# most one knot apart, so E^T E has bandwidth 6 on the translation chain
# (x_k to x_{k+1}) and 3 on the attitude chain.  x and y must stay
# adjacent: nlp puts the keep-out cross term on the first subdiagonal.
_CHAINS = ((0, 1, 3, 4, 6, 7), (2, 5, 8))


def _equality_rows(b: int, N: int, dt: float, body: BodyParams):
    """(E, E^T E) of axis chain b's equality rows: the Jacobian as an
    nlp.Csr, its arrays written in row order, and E^T E in lower-banded
    storage, all read-only.

    The rows: the s initial ones (1 at column i); per knot k and state i the
    Euler defect, -1, -rate and +1 at columns w k + i, w k + j(i) and
    w (k + 1) + i, j(i) > i the rate driving state i; on the attitude chain
    the terminal row (1 at column w N).  E and the band equal byte for byte
    csr_matrix((vals, (rows, cols))) and E.T @ E, whose entry (i, j) sums
    E[k, j] E[k, i] over the rows k in ascending order, starting from 0.  So
    the Newton steps run on the bytes they ran on with scipy.sparse.
    """
    quantities = _CHAINS[b]
    w = len(quantities)
    states = [j for j in quantities if j < 6]
    s = len(states)
    n = w * N + s
    A, Bw = euler_matrices(body, dt)
    i = np.arange(s)
    # rate (velocity or wrench) driving quantity j is quantity j + 3
    j_rate = [quantities.index(j + 3) for j in states]
    rate = np.array([A[j, j + 3] if j < 3 else Bw[j, j - 3] for j in states])
    cols = w * np.arange(N)[:, None, None] + np.stack([i, j_rate, i + w], axis=-1)  # (N, s, 3)
    vals = np.broadcast_to(np.stack([np.full(s, -1.0), -rate, np.ones(s)], axis=-1), cols.shape)
    term = [w * N] if b == 1 else []
    width = np.repeat([1, 3, 1], [s, s * N, len(term)])
    indptr = np.append(0, np.cumsum(width)).astype(np.int32)
    indices = np.concatenate([i, cols.ravel(), term]).astype(np.int32)
    data = np.concatenate([np.ones(s), vals.ravel(), np.ones(len(term))])
    for a in (indptr, indices, data):
        a.flags.writeable = False
    E = Csr((len(width), n), indptr, indices, data)

    # each pair of entries hi >= lo in row k of E, whose columns ascend, adds
    # E[k, hi] E[k, lo] to band entry (col hi - col lo, col lo), k ascending
    hi, lo = np.tril_indices(3)
    ok = hi < width[:, None]
    ph, pl = ((indptr[:-1, None] + o)[ok] for o in (hi, lo))
    ch, cl = indices[ph], indices[pl]
    band = np.zeros((int(np.max(ch - cl)) + 1, n))
    with np.errstate(all="ignore"):  # an inf is the solve's to report, as with scipy
        np.add.at(band, (ch - cl, cl), data[ph] * data[pl])
    band.flags.writeable = False
    return E, band


class _Transcription:
    """Axis chain b of the transcription (0 translation, 1 attitude; see
    _CHAINS) as a problem for nlp.solve_al, over the chain's own vector z.

    pack and unpack convert between a plan's knots and z.  The objective is
    the chain's share of the quadratic J = w_goal |x_N - g|^2 + sum dt
    (w_kin E_kin + w_u |F|^2), as z.(q*z) + c.z + c0; the two chains' shares
    sum to J.  The equality rows are the chain's initial-state rows, then
    its Euler defects knot-major, then on the attitude chain the
    terminal-attitude row, held once, in E, beside the E^T E band.  The
    translation chain has one keep-out row per knot, in knot order (m_in =
    N + 1), its rows the kos.KnotRows of the schedule; the attitude chain
    has none.
    """

    def __init__(self, problem: OptProblem, b: int):
        N, dt = problem.N, problem.dt
        quantities = _CHAINS[b]
        self._w = w = len(quantities)
        self._states = [j for j in quantities if j < 6]
        self._wrenches = [j - 6 for j in quantities if j >= 6]
        s = len(self._states)
        self.n = w * N + s
        # positions in z, (N+1, w); knot N's wrench columns lie past its end
        pos = w * np.arange(N + 1)[:, None] + np.arange(w)
        # per-quantity weights: kinetic energy on the rates, effort on the
        # wrenches, the goal on every state of knot N
        body = problem.body
        weight = np.zeros(9)
        weight[3:6] = 0.5 * dt * problem.w_kin * np.array([body.mass, body.mass, body.inertia])
        weight[6:] = problem.w_u * dt
        self.q = np.zeros(self.n)
        self.q[pos[:-1]] = weight[list(quantities)]
        self.q[pos[N, :s]] += problem.w_goal
        goal = problem.x_goal[self._states]
        self.c = np.zeros(self.n)
        self.c[pos[N, :s]] = -2.0 * problem.w_goal * goal
        self.c0 = problem.w_goal * float(goal @ goal)

        # box bounds: states free, wrenches boxed
        self.lb = np.full(self.n, -np.inf)
        self.ub = np.full(self.n, np.inf)
        self.lb[pos[:-1, s:]] = problem.wrench_min[self._wrenches]
        self.ub[pos[:-1, s:]] = problem.wrench_max[self._wrenches]

        # equality rows: initial state, Euler defects, terminal attitude
        self.E, self.ete_band = _equality_rows(b, N, dt, body)
        rhs = [problem.x_init[self._states], np.zeros(s * N)]
        if b == 1:
            rhs.append([problem.theta_finish])
        self.e_rhs = np.concatenate(rhs)

        # keep-out rows: row k reads x and y of knot k
        self.m_in = N + 1 if b == 0 else 0
        self.ineq_ix = w * np.arange(self.m_in)
        self.ineq_iy = self.ineq_ix + 1
        self._schedule(problem)

    def _schedule(self, problem: OptProblem) -> None:
        """Set the keep-out rows of problem's schedule."""
        self.rows = koslib.KnotRows(problem.kos_schedule, np.arange(self.m_in) * problem.dt,
                                    problem.target, problem.kos_cfg)

    def rescheduled(self, problem: OptProblem) -> _Transcription:
        """A copy under problem's schedule, sharing every array but the
        keep-out rows'; problem may differ from this chain's in kos_schedule
        alone."""
        chain = copy.copy(self)
        chain._schedule(problem)
        return chain

    def pack(self, states, wrenches) -> np.ndarray:
        """The chain's z of knot states (N+1, 6) and wrenches (N, 3)."""
        s = len(self._states)
        knots = np.empty((len(states), self._w))
        knots[:, :s] = states[:, self._states]
        knots[:-1, s:] = wrenches[:, self._wrenches]
        return knots.reshape(-1)[:self.n]

    def unpack(self, z, states, wrenches) -> None:
        """Write the chain's columns of states and wrenches from its z."""
        s = len(self._states)
        knots = np.empty((len(states), self._w))
        knots.reshape(-1)[:self.n] = z
        states[:, self._states] = knots[:, :s]
        wrenches[:, self._wrenches] = knots[:-1, s:]

    def ineq_full(self, z):
        """Constraint values and gradients, as (g, gx, gy)."""
        return self.rows.full(z[self.ineq_ix], z[self.ineq_iy])

    def ineq_values(self, z):
        """Constraint values only; bit for bit ineq_full(z)[0]."""
        return self.rows.values(z[self.ineq_ix], z[self.ineq_iy])


def breakdown(problem: OptProblem, states, wrenches) -> tuple[float, float, float]:
    """(goal, kinetic, effort) terms of the objective; they sum to it."""
    p = problem
    d = states[-1] - p.x_goal
    goal = p.w_goal * float(d @ d)
    v = states[:-1, 3:]
    ek = 0.5 * (p.body.mass * (v[:, 0] ** 2 + v[:, 1] ** 2) + p.body.inertia * v[:, 2] ** 2)
    kinetic = p.w_kin * p.dt * float(np.sum(ek))
    effort = p.w_u * p.dt * float(np.sum(wrenches**2))
    return goal, kinetic, effort


@dataclass(frozen=True)
class LqRelaxation:
    """A problem with the wrench box and the keep-out rows dropped: the
    objective under the Euler dynamics, the initial state and the terminal
    attitude alone, an equality-constrained LQ solved exactly.

    states and wrenches are its optimum, objective its J.  Every plan of the
    problem, and of any keep-out schedule at the same N, is feasible for it,
    so objective bounds their J from below.  lam holds the equality-row
    multipliers per chain (translation, attitude), in _Transcription's row
    order and with nlp's sign, grad f = E^T lam.
    """

    states: np.ndarray
    wrenches: np.ndarray
    lam: tuple
    objective: float


def lq_relaxation(problem: OptProblem) -> LqRelaxation:
    """The LQ relaxation of problem, by one banded LU solve per axis.

    The LQ splits into the axes x, y and theta, each a chain of knots
    (p_k, v_k, u_k): position, rate and wrench.  Its KKT system,
    [2Q E^T; E 0] [z; nu] = [-c; e] with lam = -nu, is ordered knot by knot,
    each knot's unknowns [nu of the row that fixes (p_k, v_k), p_k, v_k,
    u_k] (the initial rows at knot 0, the Euler defect k - 1 after it), and
    the slot of u_N holds the terminal-attitude multiplier on theta and an
    unused unknown with a unit diagonal on x and y.  Every row then reads
    unknowns at most three places away, so the system is banded with three
    sub- and superdiagonals (the first of them zero) and 5(N+1) unknowns,
    and x and y share its matrix: two right-hand sides of one solve.
    """
    p = problem
    N, dt = p.N, p.dt
    A, Bw = euler_matrices(p.body, dt)
    states, wrenches = np.empty((N + 1, 6)), np.empty((N, 3))
    nu = np.empty((N + 1, 6))  # per state: its initial row, then defects 0 .. N-1
    for axes, inertia in (([0, 1], p.body.mass), ([2], p.body.inertia)):
        j = axes[0]
        rates = [a + 3 for a in axes]
        # LAPACK band storage: row 6 + d holds subdiagonal d and row 6 - d
        # superdiagonal d; rows 0-2 are dgbsv's room for the fill.  diag, d2
        # and d3 view the diagonal and subdiagonals 2 and 3 knot by knot.
        ab = np.zeros((10, 5 * (N + 1)), order="F")
        diag, d2, d3 = (ab[r].reshape(N + 1, 5) for r in (6, 8, 9))
        diag[:N, 3] = dt * p.w_kin * inertia   # 2 q of the rate
        diag[:N, 4] = 2.0 * p.w_u * dt          # 2 q of the wrench
        diag[N, 2:4] = 2.0 * p.w_goal
        d2[:, :2] = 1.0                         # p_k, v_k in the row fixing them
        d2[:N, 3] = -A[j, j + 3]                # v_k in defect k's position row
        d2[:N, 4] = -Bw[j + 3, j]               # u_k in defect k's rate row
        d3[:N, 2:4] = -1.0                      # p_k, v_k in defect k
        if j == 2:
            d2[N, 2] = 1.0                      # theta_N in the terminal row
        else:
            diag[N, 4] = 1.0                    # the unused unknown
        ab[4, 2:] = ab[8, :-2]                  # the upper half, by symmetry
        ab[3, 3:] = ab[9, :-3]
        rhs = np.zeros((N + 1, 5, len(axes)))
        rhs[0, 0], rhs[0, 1] = p.x_init[axes], p.x_init[rates]
        rhs[N, 2:4] = 2.0 * p.w_goal * p.x_goal[axes + rates].reshape(2, -1)
        if j == 2:
            rhs[N, 4] = p.theta_finish
        x = lu_solve_banded(3, 3, ab, rhs.reshape(5 * (N + 1), -1)).reshape(rhs.shape)
        states[:, axes], states[:, rates] = x[:, 2], x[:, 3]
        wrenches[:, axes] = x[:N, 4]
        nu[:, axes], nu[:, rates] = x[:, 0], x[:, 1]
    # x is theta's solution, the last one, with the terminal row's nu
    lam = (-nu[:, list(_CHAINS[0][:4])].ravel(),
           -np.append(nu[:, [2, 5]].ravel(), x[N, 4, 0]))
    return LqRelaxation(states, wrenches, lam, float(sum(breakdown(p, states, wrenches))))


def default_initial_guess(problem: OptProblem) -> tuple[np.ndarray, np.ndarray]:
    """(states, wrenches): pose interpolation with zero wrenches, detoured
    around the keep-out circle.

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
    return states, np.zeros((N, 3))


# Penalty ceiling of a pass-2 restart: starting at pass 1's far higher final
# penalty costs Newton steps (measured in CHANGES.md).
_WARM_MU_CAP = 1e5


def solve(problem: OptProblem, initial_guess: PlannedTrajectory | None = None,
          lam0: tuple | None = None) -> PlannedTrajectory:
    """Solve one transcription to a local optimum within nlp's FEAS_TOL and KKT_TOL.

    Without a guess the solve starts from default_initial_guess and solves
    the cheap attitude chain first, so that a hopeless solve ends soonest,
    then the translation chain (see the module docstring).  lam0, a pair of
    equality-row multipliers (translation, attitude) such as
    LqRelaxation.lam, starts the multiplier loop at the penalty nlp.MU0;
    without it every multiplier starts at zero.  A guess, a plan that solve
    returned for this problem but for kos_schedule (plan decides when pass
    2 needs one), restarts the translation chain alone from its restart
    state, the penalty capped at _WARM_MU_CAP, and keeps its attitude
    columns; any other guess raises ValueError.

    The plan's solver_stats sum the counts of the attitude run and the
    translation run that produced its columns, and take the larger KKT
    residual and violation; mu_final is the translation run's.

    Raises NotConvergedError / InfeasibleError (from proxdock.nlp) on
    failure, with the stats of the chain that failed.
    """
    if initial_guess is None:
        states, wrenches = default_initial_guess(problem)
        attitude = _Transcription(problem, 1)
        z_a, _, _, att = solve_al(attitude, attitude.pack(states, wrenches),
                                  **({} if lam0 is None else dict(lam0=lam0[1])))
        attitude.unpack(z_a, states, wrenches)
        chain = _Transcription(problem, 0)
        kw = {} if lam0 is None else dict(lam0=lam0[0])
    else:
        r = initial_guess.restart
        if r is None:
            raise ValueError("initial guess holds no restart state, as a plan read from a file")
        differ = [f.name for f in fields(OptProblem) if f.name != "kos_schedule"
                  and not np.array_equal(getattr(r.problem, f.name), getattr(problem, f.name))]
        if differ:
            raise ValueError(f"initial guess solves another problem: {', '.join(differ)} differ")
        states, wrenches = initial_guess.states.copy(), initial_guess.wrenches.copy()
        att = r.attitude
        chain = r.chain.rescheduled(problem)
        # the circle rows of both schedules keep their multipliers, and every
        # ellipse row starts at zero
        eta0 = r.eta.copy()
        eta0[min(r.chain.rows.switch, chain.rows.switch):] = 0.0
        kw = dict(lam0=r.lam, eta0=eta0, mu0=min(r.mu, _WARM_MU_CAP))
    z_t, lam_t, eta, run = solve_al(chain, chain.pack(states, wrenches), **kw)
    chain.unpack(z_t, states, wrenches)
    stats = replace(
        run, **{k: getattr(att, k) + getattr(run, k) for k in
                ("outer_iterations", "newton_iterations", "inner_stalls", "inner_capped",
                 "mu_raises")},
        kkt_residual=max(att.kkt_residual, run.kkt_residual),
        constraint_violation=max(att.constraint_violation, run.constraint_violation))
    terms = breakdown(problem, states, wrenches)
    return PlannedTrajectory(
        times=np.arange(problem.N + 1) * problem.dt,
        states=states,
        wrenches=wrenches,
        objective_value=float(sum(terms)),
        objective_breakdown=terms,
        kos_states=(np.full(problem.N + 1, KosState.STATE_I) if problem.kos_schedule is None
                    else problem.kos_schedule),
        solver_stats=stats,
        x_goal=problem.x_goal,
        theta_finish=problem.theta_finish,
        dt=problem.dt,
        restart=_Restart(problem, chain, lam_t, eta, run.mu_final, att),
        pass2=None if initial_guess is None else run,
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


# Relative margin of the prune test.  The bound is exact, but a plan meets
# its equality rows only to nlp.FEAS_TOL, which can put its J a rounding
# amount below the bound.
PRUNE_RTOL = 1e-6


def _tie(j: float) -> float:
    """Objective difference within which two candidates tie, at objective j."""
    return 1e-9 * max(1.0, abs(j))


@dataclass(frozen=True)
class Candidate:
    """One duration candidate of plan: its horizon N dt [s], the objective of
    its LQ relaxation, a lower bound on any plan of it, and its outcome.
    plan is its converged plan, or None: failure then holds its pass-1
    solver message, or is None when the candidate was pruned, its bound
    above the best objective found."""

    duration: float
    bound: float
    plan: PlannedTrajectory | None = None
    failure: str | None = None

    @property
    def pruned(self) -> bool:
        return self.plan is None and self.failure is None


def _answers_pass2(sol: PlannedTrajectory, problem: OptProblem) -> bool:
    """Whether sol, a pass-1 plan, meets the KKT conditions of problem, its
    pass 2, as it stands: when the circle rows past pass 2's switch index
    had multiplier 0, and the ellipse rows that replace them, at multiplier
    0, hold to FEAS_TOL, stationarity and complementarity are pass 1's."""
    r = sol.restart
    chain = r.chain.rescheduled(problem)
    s = chain.rows.switch
    if np.any(r.eta[s:]):
        return False
    g = chain.ineq_values(chain.pack(sol.states, sol.wrenches))
    return bool(np.all(g[s:] >= -FEAS_TOL))


def plan(theta_approach: float, template: OptProblem, max_candidates: int = 2,
         *, min_duration: float = 5.0, static_durations=(20.0, 40.0, 60.0, 80.0),
         capture_offset: float = 0.05, goal_corotate: bool = False,
         latch_delay: float | str = "auto"):
    """Duration search + two-pass keep-out scheduling; returns (best, candidates).

    Bound and prune (Land & Doig 1960, with a convex relaxation): every
    candidate duration's LQ relaxation (lq_relaxation) bounds its plans'
    objective from below.  The candidates are solved in ascending bound
    order, and one whose bound exceeds the best objective found so far by
    more than PRUNE_RTOL (and the tie tolerance) is skipped: it cannot win.
    Each solved candidate's pass 1 starts from default_initial_guess with
    its relaxation's equality multipliers.  When its knots trigger the
    final-approach classification, the relaxed State II schedule latched
    from first satisfaction makes a pass 2: a pass-1 plan that already meets
    its KKT conditions (_answers_pass2) is kept, with the schedule as its
    kos_states; any other is restarted by solve, and a failed restart keeps
    the pass-1 plan and records the failure in its pass2.  candidates holds
    one Candidate per duration, ascending; best is the converged plan with
    the lowest objective, ties going to the shortest duration, which a
    pruned candidate can never be.
    """
    target = template.target
    if target.omega == 0.0 and abs(wrap_angle(theta_approach - target.theta0)) > 1e-9:
        raise AllCandidatesFailed(
            [f"static target never reaches approach attitude {theta_approach!r}"])
    if latch_delay == "auto":
        latch_delay = koslib.auto_latch_delay(template.kos_cfg, target.omega)
    durations = duration_candidates(target, theta_approach, max_candidates,
                                    min_duration=min_duration, static_durations=static_durations)
    if not durations:
        raise AllCandidatesFailed(["no admissible duration candidates"])

    problems, lams, cands = [], [], []
    for t_total in durations:
        N = max(2, int(round(t_total / template.dt)))
        theta_t_final = target.attitude(N * template.dt)
        theta_init = float(template.x_init[2])
        theta_fin = theta_init + wrap_angle(theta_t_final - theta_init)
        goal = build_goal_state(target, theta_t_final, template.body, theta_fin,
                                capture_offset, corotate=goal_corotate)
        prob1 = replace(template, N=N, theta_finish=theta_fin, x_goal=goal, kos_schedule=None)
        try:
            relax = lq_relaxation(prob1)
        except np.linalg.LinAlgError:
            # an LQ without a unique optimum (no effort and no kinetic
            # weight): no bound, and a start from zero multipliers
            relax = None
        problems.append(prob1)
        lams.append(relax and relax.lam)
        cands.append(Candidate(prob1.horizon, -math.inf if relax is None else relax.objective))

    best_j = math.inf
    for i in sorted(range(len(cands)), key=lambda i: cands[i].bound):
        if cands[i].bound > best_j + max(PRUNE_RTOL * best_j, _tie(best_j)):
            continue  # pruned: no plan of it can beat best_j
        prob1 = problems[i]
        try:
            sol = solve(prob1, lam0=lams[i])
        except (NotConvergedError, InfeasibleError) as ex:
            cands[i] = replace(cands[i], failure=ex.stats.message)
            continue
        # the latch delay is a confirmation window: the re-solved trajectory
        # starts its descent only after the live conditions have held for
        # that long, so the flown relaxation never leads the classification
        sched = koslib.schedule(sol.states[:, :2], sol.times, target, template.kos_cfg,
                                int(round(latch_delay / template.dt)))
        if KosState.STATE_II in sched:
            prob2 = replace(prob1, kos_schedule=sched)
            if _answers_pass2(sol, prob2):
                sol = replace(sol, kos_states=prob2.kos_schedule)
            else:
                try:
                    sol = solve(prob2, sol)
                except (NotConvergedError, InfeasibleError) as ex:
                    # keep the conservative pass-1 plan, and say why
                    sol = replace(sol, pass2=ex.stats)
        cands[i] = replace(cands[i], plan=replace(sol, restart=None))
        best_j = min(best_j, sol.objective_value)

    best = None
    for c in cands:
        if c.plan is not None and (best is None or c.plan.objective_value
                                   < best.objective_value - _tie(best.objective_value)):
            best = c.plan  # strictly better J; earlier (shorter) candidate wins ties
    if best is None:
        raise AllCandidatesFailed([f"t={c.duration:.2f}s pass1: {c.failure}" for c in cands])
    return best, cands
