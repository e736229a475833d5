"""Augmented-Lagrangian solver for the banded trajectory transcription.

Outer loop: Powell-Hestenes-Rockafellar multiplier updates on the linear
equalities (boundary + Euler defects) and the keep-out inequalities.  Inner
loop: projected damped Newton over the wrench box bounds, with the Hessian
assembled in symmetric lower-banded storage (the problem's variable ordering
sets the bandwidth: 6 for the planner's translation chain, 3 for its
attitude chain) and factored by LAPACK's banded Cholesky, so each Newton
step is O(N).  Every vector dot product goes through dot, so no result
depends on the BLAS thread count.

The Newton matrix is the Gauss-Newton form of the merit's Hessian,
diag(2q) + mu E^T E + mu sum grad g grad g^T over the keep-out constraints
whose PHR multiplier estimate a = max(0, eta - mu g) is positive.  The
exact Hessian also has -a hess(g) per such constraint, -2a on the diagonal
for the circle, which makes it indefinite; leaving that term out is the
standard Hessian modification for AL subproblems (Nocedal & Wright,
Numerical Optimization, 3.4 and ch. 17), and the KKT test reads gradients
only.  The matrix is positive definite: with a positive effort weight
diag(2q) is positive on every wrench, and given the wrenches the
initial-state and defect rows of E fix every state.  Box-pinned variables
get identity rows, which keeps that.  So each step is one Cholesky
factorization and one solve, without refinement: a refinement pass in
working precision does not lower the backward error of a stable Cholesky
solve (Higham, Accuracy and Stability of Numerical Algorithms, ch. 12).
Should a factorization still fail (say with a zero effort weight), the
solve ends with NotConvergedError and stats.message names the
non-positive-definite Newton matrix.  An inf or nan in the Newton matrix
or its right-hand side (say from a body so light that dt / inertia
overflows) ends it the same way, with a message of its own.

The inner loop has three other exits: the projected gradient is within the
outer loop's current tolerance; a stall, where the accepted line-search
step leaves the AL merit unchanged or none of its 40 halvings passes the
Armijo test, so the iterate sits at the merit's rounding floor; or MAX_INNER
Newton steps.  They rank stall, cap, tol: a stall on the last step is a
stall, and MAX_INNER steps are a cap even where the final point meets the
tolerance.  After a stall or the cap the outer multiplier/penalty update
carries on.  SolverStats counts the stalled and capped inner loops.

Each iterate is evaluated once.  The inner loop hands the outer loop the
equality residual h, the keep-out values g and the projected AL-gradient
norm of its final point, and the outer loop reads violation and
complementarity from them.  With the first-order update lam+ = lam - mu h,
eta+ = max(0, eta - mu g), the AL gradient before the update is the
Lagrangian gradient after it (Nocedal & Wright, 17.3), and bit for bit, as
mu h - lam is exactly -(lam - mu h); so that norm is the final point's
projected KKT residual.

Warm start: lam0, eta0 and mu0 restart the outer loop from an earlier
solve's multipliers instead of zeros and the default penalty MU0.  The
planner does this for its pass-2 re-solve, which keeps the equality rows of
pass 1 and, at the State II knots, swaps the circle row for the two lobe
rows, restarted at multiplier zero.  The added rows are feasible at the
pass-1 point: each lobe value is at least the circle value / r_safe^2, so
it is >= 0 wherever the circle value is (see kos).  With a zero multiplier
they are complementary too and add nothing to stationarity.  So if the
dropped circle rows were inactive at the pass-1 optimum (multiplier zero),
the pass-1 point with the remaining multipliers already satisfies pass 2's
KKT conditions, and the inner loop exits at once.  When it took no step
and the start meets FEAS_TOL on the violation and on the complementarity
measure max|min(g, eta/mu)|, the start's projected KKT residual is tested
with the given lam0/eta0 before the first multiplier update, which would
move lam by mu0 h (h the pass-1 equality residual) and can lift that
residual above KKT_TOL.  So a restart at a converged point returns it after
one outer iteration and 0 Newton steps.

The problem object must expose::

    n, lb, ub                      decision size and box bounds
    E, e_rhs                       sparse equality Jacobian and rhs
    ET                             E's transpose as a CSR matrix, built once
    base_banded(mu)                -> lower-banded constant objective Hessian
                                      diagonal plus mu E^T E, one row per band
    objective_value_grad(z)        -> (f, grad)
    objective_value(z)             -> f
    m_in, ineq_ix, ineq_iy         inequality count and variable indices
    ineq_values(z)                 -> g
    ineq_full(z)                   -> (g, gx, gy)

m_in may be 0, with empty index arrays, as on the planner's attitude chain;
ineq_values and ineq_full then return empty arrays, and every path runs the
same arithmetic on them.

ineq_values is the value-only path used by line-search trials; it must equal
ineq_full(z)[0] bit for bit, because the stall exit compares a trial merit
(from ineq_values) with the current merit (from ineq_full) by ==.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

KKT_TOL = 1e-6     # projected KKT residual at convergence
FEAS_TOL = 1e-8    # constraint violation at convergence
MAX_OUTER = 500    # multiplier/penalty updates before NotConvergedError
MAX_INNER = 200    # Newton steps per inner loop
MU_MAX = 1e12      # penalty ceiling

# Penalty of a cold start.  From mu = 10 both nominal pass-1 solves raised it
# three times, to 1e4, before their first multiplier update.  Over a
# 25-point sweep1/sweep2 grid, starting at 10, 1e2, 1e3 and 1e4 took 12 331,
# 11 998, 11 533 and 11 316 Newton steps, all with the same chosen
# durations; against the planner that also put lobe rows at State I knots
# and started at 10, the objectives moved by up to 4.0e-9, 7.4e-9, 8.4e-8
# and 9.6e-7 relative.
MU0 = 1e3

# messages of the inner-loop exits that end the solve
_FACTOR_FAILURES = {"not_pd": "Newton matrix not positive definite",
                    "not_finite": "Newton matrix holds an inf or nan"}

# OpenBLAS splits a ddot longer than this over threads, so its rounding,
# and with it every iterate, would depend on the host's thread count.
_DOT_CHUNK = 10_000


def dot(a, b) -> float:
    """a . b of two 1-D float arrays, the same on any host.

    The arrays are cut into the fewest chunks of at most _DOT_CHUNK elements,
    with sizes that differ by at most one and the larger ones first, and the
    chunk ddots are added left to right.  One chunk gives exactly
    float(a @ b).  Two chunks are the halves that a two-thread OpenBLAS
    sums, in its order, so on such a host the result equals a @ b.
    """
    k = -(-len(a) // _DOT_CHUNK)
    if k <= 1:
        return float(a @ b)
    q, r = divmod(len(a), k)
    edges = [i * q + min(i, r) for i in range(k + 1)]
    return sum(float(a[lo:hi] @ b[lo:hi]) for lo, hi in zip(edges, edges[1:]))


def cholesky_banded(ab, lower=False):
    """scipy.linalg.cholesky_banded without its per-call wrapper cost.

    LAPACK dpbtrf on ab, which it overwrites when ab is column-major (each
    Newton step assembles a fresh one).  Raises ValueError for an inf or nan
    in ab and LinAlgError when the matrix is not positive definite, as
    scipy's does.
    """
    if not np.isfinite(ab).all():
        raise ValueError("array must not contain infs or NaNs")
    c, info = dpbtrf(ab, lower=lower, overwrite_ab=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpbtrf")
    return c


def cho_solve_banded(cb_and_lower, b):
    """scipy.linalg.cho_solve_banded the same way: LAPACK dpbtrs, with a
    ValueError for an inf or nan in b.  The factor is cholesky_banded's,
    which checked its input."""
    cb, lower = cb_and_lower
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    x, info = dpbtrs(cb, b, lower=lower)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpbtrs")
    return x


@dataclass
class SolverStats:
    outer_iterations: int = 0
    newton_iterations: int = 0
    inner_stalls: int = 0      # inner loops ended for lack of progress
    inner_capped: int = 0      # inner loops that took MAX_INNER Newton steps
    kkt_residual: float = np.inf
    constraint_violation: float = np.inf
    mu_final: float = 0.0
    message: str = ""


class NotConvergedError(RuntimeError):
    def __init__(self, stats: SolverStats):
        super().__init__(f"solver did not converge: {stats}")
        self.stats = stats


class InfeasibleError(RuntimeError):
    def __init__(self, stats: SolverStats):
        super().__init__(f"constraint violation stalled above tolerance: {stats}")
        self.stats = stats


@dataclass
class _Multipliers:
    lam: np.ndarray   # equality multipliers
    eta: np.ndarray   # inequality multipliers (>= 0)
    mu: float


def _merit(prob, z, m: _Multipliers, *, grad=False):
    """The AL merit at z.  With grad, (merit, gradient, h, (g, gx, gy)): the
    equality residual h = E z - e_rhs and the keep-out values and gradients
    at z; without, the merit alone, from the value-only paths."""
    if grad:
        f, df = prob.objective_value_grad(z)
        ineq = g, gx, gy = prob.ineq_full(z)
    else:
        f, g = prob.objective_value(z), prob.ineq_values(z)
    h = prob.E @ z - prob.e_rhs
    f += 0.5 * m.mu * dot(h, h) - dot(m.lam, h)
    a = np.maximum(0.0, m.eta - m.mu * g)
    f += (dot(a, a) - dot(m.eta, m.eta)) / (2.0 * m.mu)
    if not grad:
        return f
    df = df + prob.ET @ (m.mu * h - m.lam)
    np.add.at(df, prob.ineq_ix, -a * gx)
    np.add.at(df, prob.ineq_iy, -a * gy)
    return f, df, h, ineq


def _projected_grad(z, grad, lb, ub):
    """(max |projected gradient|, pinned mask): a variable is pinned, and its
    entry zeroed, when it sits on a bound and its gradient points out."""
    pinned = ((z <= lb + 1e-11) & (grad > 0)) | ((z >= ub - 1e-11) & (grad < 0))
    pg = np.abs(grad)
    pg[pinned] = 0.0
    return float(np.max(pg, initial=0.0)), pinned


def projected_kkt_residual(prob, z, lam, eta) -> float:
    """Stationarity of the Lagrangian projected onto the box bounds."""
    _, grad = prob.objective_value_grad(z)
    r = grad - prob.ET @ lam
    _, gx, gy = prob.ineq_full(z)
    np.add.at(r, prob.ineq_ix, -eta * gx)
    np.add.at(r, prob.ineq_iy, -eta * gy)
    return _projected_grad(z, r, prob.lb, prob.ub)[0]


def _assemble_banded(prob, m: _Multipliers, ineq, base):
    """base (diag + mu EtE) plus mu grad g grad g^T of the active inequalities."""
    # column-major, as LAPACK stores it, so cholesky_banded factors this
    # fresh copy in place instead of copying it again
    ab = base.copy(order="F")
    g, gx, gy = ineq
    act = m.eta - m.mu * g > 0.0
    # iy == ix + 1 for every constraint (x, y adjacent in the layout), so the
    # cross term lives on the first subdiagonal
    ix = prob.ineq_ix[act]
    iy = prob.ineq_iy[act]
    gxa, gya = gx[act], gy[act]
    np.add.at(ab[0], ix, m.mu * gxa * gxa)
    np.add.at(ab[0], iy, m.mu * gya * gya)
    np.add.at(ab[1], ix, m.mu * gxa * gya)
    return ab


def _apply_active(ab, rhs, active_idx):
    ab[0, active_idx] = 1.0
    for r in range(1, ab.shape[0]):
        ab[r, active_idx[active_idx + r < ab.shape[1]]] = 0.0
        cols = active_idx - r
        ab[r, cols[cols >= 0]] = 0.0
    rhs[active_idx] = 0.0


def _inner_newton(prob, z, m: _Multipliers, base, tol):
    """Minimize the AL merit over the box from z.

    Returns (z, h, g, pgn, Newton steps, exit): h, the keep-out values g and
    the projected AL-gradient norm pgn are those of the final z.  exit names
    the inner loop's exit (see the module docstring): "tol", "stall", "cap",
    "not_pd" when the Newton matrix fails to factor, or "not_finite" when
    it holds an inf or nan.
    """
    lb, ub = prob.lb, prob.ub
    nit = 0
    floor = False
    while True:
        f, grad, h, ineq = _merit(prob, z, m, grad=True)
        pgn, pinned = _projected_grad(z, grad, lb, ub)
        exit_ = ("stall" if floor else "cap" if nit == MAX_INNER
                 else "tol" if pgn <= tol else None)
        if exit_:
            return z, h, ineq[0], pgn, nit, exit_
        nit += 1
        ab = _assemble_banded(prob, m, ineq, base)
        rhs = -grad
        _apply_active(ab, rhs, np.flatnonzero(pinned))

        try:
            d = cho_solve_banded((cholesky_banded(ab, lower=True), True), rhs)
        except np.linalg.LinAlgError:
            return z, h, ineq[0], pgn, nit, "not_pd"
        except ValueError:  # both check their input for an inf or nan
            return z, h, ineq[0], pgn, nit, "not_finite"

        alpha = 1.0
        for _ in range(40):
            zt = np.clip(z + alpha * d, lb, ub)
            step = zt - z
            gs = dot(grad, step)
            if gs > 0:  # projection turned it uphill; shrink
                alpha *= 0.5
                continue
            ft = _merit(prob, zt, m)
            if ft <= f + 1e-4 * gs:
                break
            alpha *= 0.5
        else:
            return z, h, ineq[0], pgn, nit, "stall"  # no trial lowered the merit
        z = zt
        # at the merit's rounding floor further steps only spin; the outer
        # multiplier/penalty update takes over from here
        floor = ft == f


def solve_al(prob, z0, *, mu0=MU0, lam0=None, eta0=None):
    """Run the augmented-Lagrangian loop; returns (z, lam, eta, stats).

    Converged means a constraint violation within FEAS_TOL and a projected
    KKT residual within KKT_TOL.  lam0 and eta0 warm-start the equality and
    inequality multipliers (zeros when None); with mu0 they restart the loop
    from an earlier solve's multipliers (see the module docstring).

    Raises NotConvergedError when MAX_OUTER iterations run out and
    InfeasibleError when the violation stalls at the penalty ceiling MU_MAX.
    """
    z = np.clip(np.asarray(z0, dtype=float), prob.lb, prob.ub)
    lam = np.zeros(prob.E.shape[0]) if lam0 is None else np.array(lam0, dtype=float)
    eta = np.zeros(prob.m_in) if eta0 is None else np.array(eta0, dtype=float)
    if lam.shape != (prob.E.shape[0],) or eta.shape != (prob.m_in,):
        raise ValueError("lam0/eta0 must match the equality/inequality counts")
    m = _Multipliers(lam=lam, eta=eta, mu=mu0)
    stats = SolverStats()
    omega = 1e-2
    feas_target = 1e-2
    base = np.asfortranarray(prob.base_banded(m.mu))
    best_v = np.inf
    stall = 0

    for outer in range(MAX_OUTER):
        stats.outer_iterations = outer + 1
        z, h, g, pgn, nit, exit_ = _inner_newton(prob, z, m, base, tol=omega)
        stats.newton_iterations += nit
        stats.inner_stalls += exit_ == "stall"
        stats.inner_capped += exit_ == "cap"
        if exit_ in _FACTOR_FAILURES:
            stats.message = _FACTOR_FAILURES[exit_]
            raise NotConvergedError(stats)

        hinf = float(np.max(np.abs(h), initial=0.0))
        ginf = float(max(0.0, -np.min(g, initial=np.inf)))
        mixed = float(np.max(np.abs(np.minimum(g, m.eta / m.mu)), initial=0.0))
        viol = max(hinf, ginf)
        v_measure = max(hinf, mixed)
        stats.constraint_violation = viol
        stats.mu_final = m.mu

        if outer == 0 and nit == 0 and v_measure <= FEAS_TOL:
            # a feasible, complementary start (v_measure bounds viol too):
            # test it with the given multipliers before the first update
            # moves them
            pk = projected_kkt_residual(prob, z, m.lam, m.eta)
            if pk <= KKT_TOL:
                stats.kkt_residual = pk
                stats.message = "converged"
                return z, m.lam, m.eta, stats

        if v_measure <= feas_target:
            m.lam = m.lam - m.mu * h
            m.eta = np.maximum(0.0, m.eta - m.mu * g)
            # the AL gradient at z is the Lagrangian gradient at the updated
            # multipliers, so pgn is z's projected KKT residual
            stats.kkt_residual = pgn
            if viol <= FEAS_TOL and pgn <= KKT_TOL:
                stats.message = "converged"
                return z, m.lam, m.eta, stats
            feas_target = max(0.2 * feas_target, 0.5 * FEAS_TOL)
            omega = max(0.2 * omega, 0.3 * KKT_TOL)
        else:
            m.mu = min(10.0 * m.mu, MU_MAX)
            base = np.asfortranarray(prob.base_banded(m.mu))
            omega = max(omega, 1e-4)

        if v_measure < 0.9 * best_v:
            best_v = v_measure
            stall = 0
        else:
            stall += 1
        if m.mu >= MU_MAX and stall >= 5 and viol > FEAS_TOL:
            stats.message = "violation stalled at mu_max"
            raise InfeasibleError(stats)

    stats.message = "iteration budget exhausted"
    raise NotConvergedError(stats)
