"""Augmented-Lagrangian solver for the banded trajectory transcription.

Outer loop: Powell-Hestenes-Rockafellar multiplier updates on the linear
equalities (boundary + Euler defects) and the keep-out inequalities.  Inner
loop: projected damped Newton over the wrench box bounds, with the Hessian
assembled in symmetric lower-banded storage (the problem's variable ordering
sets the bandwidth: 6 for the planner's translation chain, 3 for its
attitude chain) and factored by LAPACK's banded Cholesky, so each Newton
step is O(N).  Every vector dot product goes through dot, so no result
depends on the BLAS thread count.

The module needs numpy only to import.  Of scipy, a solve calls two
compiled kernels: LAPACK's banded Cholesky dpbtrf/dpbtrs and sparsetools'
mat-vecs csr_matvec and csc_matvec (Csr's E x and E^T y); the planner's LQ
relaxation calls a third, LAPACK's banded LU solve dgbsv
(lu_solve_banded).  scipy_kernels loads their two extension modules by
file location on the first call, without the scipy.linalg and
scipy.sparse packages around them, which cost far more to import (measured
in CHANGES.md).  So a process that tracks or audits loads no scipy module,
and one that plans loads those two alone.

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

Line search: backtracking from the full step, halving up to 40 times, with
the Armijo test.  A trial point that stays in the box, the common case, gets
its merit change in closed form: along the step d the objective and the
equality terms are quadratic, so the change at z + alpha d is
alpha s1 + alpha^2 s2 + (|a(alpha)|^2 - |a|^2) / 2mu, with s1 and s2
computed once per step and only the keep-out values of the trial point
evaluated.  Such a trial is accepted only when it also lowers the merit by
more than its rounding noise, 8 eps |merit|.  A trial that leaves the box
is clipped into it and evaluated whole, by the _evaluate that every iterate
gets; an accepted one's evaluation is the next iterate's.

The inner loop has three other exits: the projected gradient is within the
outer loop's current tolerance; a stall, where the iterate sits at the
merit's rounding floor; or MAX_INNER Newton steps.  A stall is a step none
of whose trials passes the Armijo test, a closed-form trial that passes it
with a decrease within the rounding noise (the loop then ends at once, where
the step started), or an accepted clipped trial whose merit equals the
current one.  The exits rank stall, cap, tol: a stall on the last step is a
stall, and MAX_INNER steps are a cap even where the final point meets the
tolerance.  After a stall or the cap the outer multiplier/penalty update
carries on.  SolverStats counts the stalled and capped inner loops.

Outer loop: when the violation measure max(|h|, max|min(g, eta/mu)|) misses
the current feasibility target, mu rises tenfold; otherwise the multipliers
are updated, and mu also rises when the measure did not contract to
CONTRACTION (1/4) of its value at the last update, unless it is already
within 100 FEAS_TOL (without that floor, raises near convergence cost one
grid point its convergence; see CONTRACTION).  SolverStats counts both
kinds of penalty raise.

Each iterate is evaluated once.  The inner loop hands the outer loop its
final point's objective, gradient, equality residual h and keep-out values
and gradients (none of which depends on the multipliers), and the next inner
loop recombines them with the updated multipliers and penalty, so its start
costs no evaluation.  The outer loop reads violation and complementarity
from h and g.  With the first-order update lam+ = lam - mu h,
eta+ = max(0, eta - mu g), the AL gradient before the update is the
Lagrangian gradient after it (Nocedal & Wright, 17.3), and bit for bit, as
mu h - lam is exactly -(lam - mu h); so the inner loop's final projected
AL-gradient norm is the final point's projected KKT residual.

Warm start: lam0, eta0 and mu0 restart the outer loop from an earlier
solve's multipliers instead of zeros and the default penalty MU0.  The
planner starts each pass-1 solve from its LQ relaxation's equality
multipliers, which saves Newton steps but selects among local optima (see
CHANGES.md), and restarts pass 2 from pass 1's (see optimizer.solve).
Whether pass 2 runs at all is the planner's decision (optimizer.plan), so
this loop has no special case for a start at a KKT point: its first
multiplier update moves lam by mu0 h, h the start's equality residual, and
the solve goes on from there.

The problem object must expose::

    n, lb, ub                      decision size and box bounds
    q, c, c0                       the objective z.(q z) + c.z + c0: its
                                   diagonal, linear and constant terms
    E, e_rhs                       equality Jacobian as a Csr (E @ x and
                                   E.rmatvec(y) = E^T y), and rhs
    ete_band                       E^T E in lower-banded storage, one row
                                   per band
    m_in, ineq_ix, ineq_iy         inequality count and variable indices:
                                   row k reads x = z[ineq_ix[k]] and
                                   y = z[ineq_iy[k]], ineq_ix strictly
                                   increasing and ineq_iy = ineq_ix + 1
    ineq_values(z)                 -> g
    ineq_full(z)                   -> (g, gx, gy)

m_in may be 0, with empty index arrays, as on the planner's attitude chain;
ineq_values and ineq_full then return empty arrays, and every path runs the
same arithmetic on them.

ineq_values is the value-only path of the closed-form trials; it must
equal ineq_full(z)[0] bit for bit (the planner's pair is kos.KnotRows
values and full; see kos).  Such a trial subtracts |a|^2 at the
current point (from ineq_full) from |a(alpha)|^2 at the trial (from
ineq_values): any difference between the two paths would enter the merit
change as a spurious term that the rounding-noise test cannot tell from
progress.  Clipped trials and iterates go through ineq_full alone.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

KKT_TOL = 1e-6     # projected KKT residual at convergence
FEAS_TOL = 1e-8    # constraint violation at convergence
MAX_OUTER = 500    # multiplier/penalty updates before NotConvergedError
MAX_INNER = 200    # Newton steps per inner loop
MU_MAX = 1e12      # penalty ceiling

# Penalty of a cold start.  From a lower one the first inner loops raise it
# before the first multiplier update, at a cost in Newton steps (measured in
# CHANGES.md).
MU0 = 1e3

# Contraction the violation measure must reach from one multiplier update to
# the next; an update that misses it also raises the penalty, unless the
# measure is already within 100 FEAS_TOL (Bertsekas, Constrained
# Optimization and Lagrange Multiplier Methods, 2.2; Birgin & Martinez,
# Practical Augmented Lagrangian Methods, Alg. 4.1).  1/4 is the textbook
# value.  Without the floor, raises near convergence cost a solver-grid
# point its convergence (see CHANGES.md).
CONTRACTION = 0.25

# a closed-form line-search trial must lower the merit by more than this
# times |merit| to count as progress rather than rounding
_NOISE = 8.0 * np.finfo(float).eps

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


def _extension(name):
    """The extension module of this dotted name, loaded from its file
    without running the __init__ of the packages it sits in; or the module
    already imported under the name."""
    if name in sys.modules:
        return sys.modules[name]
    top, *middle, _ = name.split(".")
    spec = importlib.machinery.PathFinder.find_spec(top)
    spec = spec and importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(p, *middle) for p in spec.submodule_search_locations])
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


@functools.cache
def scipy_kernels():
    """(dpbtrf, dpbtrs, csr_matvec, csc_matvec, dgbsv), bound on the first call.

    The LAPACK ones come from scipy.linalg._flapack, whose functions are the
    objects scipy.linalg.lapack re-exports; csr_matvec and csc_matvec from
    scipy.sparse._sparsetools are the kernels of csr_matrix @ x and
    csc_matrix @ x.  Loading the two extension modules takes a few
    milliseconds (measured in CHANGES.md), so no caller needs to warm them
    up outside its clock.
    """
    flapack = _extension("scipy.linalg._flapack")
    sparsetools = _extension("scipy.sparse._sparsetools")
    return (flapack.dpbtrf, flapack.dpbtrs, sparsetools.csr_matvec, sparsetools.csc_matvec,
            flapack.dgbsv)


class Csr:
    """A sparse matrix in scipy.sparse's CSR arrays, read-only: int32 indptr
    and indices, the column indices of each row ascending, float64 data.

    A @ x runs csr_matvec into a zeroed output, as csr_matrix @ x does.
    A.rmatvec(y) = A^T y runs csc_matvec on the same arrays, which are A^T's
    CSC arrays, as A.T @ y does for a csr_matrix A.  So both products are
    scipy's bit for bit.
    """

    __slots__ = ("shape", "indptr", "indices", "data")

    def __init__(self, shape, indptr, indices, data):
        self.shape, self.indptr, self.indices, self.data = shape, indptr, indices, data

    def __matmul__(self, x):
        return self._product(2, self.shape, x)

    def rmatvec(self, y):
        return self._product(3, self.shape[::-1], y)

    def _product(self, kernel, shape, v):
        # the kernels read v at the stored indices unchecked
        if v.shape != shape[1:]:
            raise ValueError(f"cannot multiply a {shape} matrix by shape {v.shape}")
        out = np.zeros(shape[0])
        scipy_kernels()[kernel](*shape, self.indptr, self.indices, self.data, v, out)
        return out


def cholesky_banded(ab, lower=False):
    """scipy.linalg.cholesky_banded without its per-call wrapper cost.

    LAPACK dpbtrf on ab, which it overwrites when ab is column-major (each
    Newton step assembles a fresh one).  Raises ValueError for an inf or nan
    in ab and LinAlgError when the matrix is not positive definite, as
    scipy's does.  dpbtrf is scipy's own (see scipy_kernels).
    """
    if not np.isfinite(ab).all():
        raise ValueError("array must not contain infs or NaNs")
    c, info = scipy_kernels()[0](ab, lower=lower, overwrite_ab=1)
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
    x, info = scipy_kernels()[1](cb, b, lower=lower)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpbtrs")
    return x


def lu_solve_banded(kl, ku, ab, b):
    """x with A x = b, for a general banded A with kl sub- and ku
    superdiagonals: LAPACK dgbsv, an LU factorization with partial pivoting.

    ab is A in LAPACK's band storage, kl spare leading rows for the fill
    included: shape (2 kl + ku + 1, n), ab[kl + ku + i - j, j] = A[i, j].
    dgbsv overwrites ab and b when they are column-major.  Raises
    LinAlgError when A is singular.
    """
    _, _, x, info = scipy_kernels()[4](kl, ku, ab, b, overwrite_ab=1, overwrite_b=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"U({info}, {info}) is exactly zero: singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgbsv")
    return x


@dataclass
class SolverStats:
    outer_iterations: int = 0
    newton_iterations: int = 0
    inner_stalls: int = 0      # inner loops ended for lack of progress
    inner_capped: int = 0      # inner loops that took MAX_INNER Newton steps
    mu_raises: int = 0         # penalty raises, for feasibility or contraction
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


def _objective(prob, z):
    """(f, grad f) of the objective f = z.(q z) + c.z + c0."""
    return dot(z, prob.q * z) + dot(prob.c, z) + prob.c0, 2.0 * prob.q * z + prob.c


def _base_banded(prob, mu):
    """diag(2q) + mu E^T E in column-major lower-banded storage."""
    ab = mu * prob.ete_band
    ab[0] += 2.0 * prob.q
    return np.asfortranarray(ab)


def _evaluate(prob, z):
    """What the merit and its gradient need of z, whatever the multipliers:
    (objective, its gradient, h = E z - e_rhs, (g, gx, gy))."""
    f, df = _objective(prob, z)
    return f, df, prob.E @ z - prob.e_rhs, prob.ineq_full(z)


def _al_terms(ev, m: _Multipliers):
    """(AL merit, PHR multiplier estimate a) at the point that _evaluate
    gave ev for."""
    f, _, h, (g, _, _) = ev
    f += 0.5 * m.mu * dot(h, h) - dot(m.lam, h)
    a = np.maximum(0.0, m.eta - m.mu * g)
    f += (dot(a, a) - dot(m.eta, m.eta)) / (2.0 * m.mu)
    return f, a


def _merit_grad(prob, ev, m: _Multipliers):
    """(merit, gradient, a) at the point that _evaluate gave ev for."""
    _, df, h, (_, gx, gy) = ev
    f, a = _al_terms(ev, m)
    df = df + prob.E.rmatvec(m.mu * h - m.lam)
    # one keep-out row per knot: the indices are unique (see solve_al)
    df[prob.ineq_ix] -= a * gx
    df[prob.ineq_iy] -= a * gy
    return f, df, a


def _projected_grad(z, grad, lb, ub):
    """(max |projected gradient|, pinned mask): a variable is pinned, and its
    entry zeroed, when it sits on a bound and its gradient points out."""
    pinned = ((z <= lb + 1e-11) & (grad > 0)) | ((z >= ub - 1e-11) & (grad < 0))
    pg = np.abs(grad)
    pg[pinned] = 0.0
    return float(np.max(pg, initial=0.0)), pinned


def _assemble_banded(prob, m: _Multipliers, ineq, base):
    """base (diag + mu EtE) plus mu grad g grad g^T of the active inequalities."""
    # column-major, as LAPACK stores it, so cholesky_banded factors this
    # fresh copy in place instead of copying it again
    ab = base.copy(order="F")
    g, gx, gy = ineq
    act = m.eta - m.mu * g > 0.0
    # the rows' x indices are unique and each y index is its x index + 1
    # (see solve_al), so the cross term lives on the first subdiagonal
    ix = prob.ineq_ix[act]
    gxa, gya = gx[act], gy[act]
    ab[0, ix] += m.mu * gxa * gxa
    ab[0, ix + 1] += m.mu * gya * gya
    ab[1, ix] += m.mu * gxa * gya
    return ab


def _apply_active(ab, rhs, pinned):
    """Give each pinned variable an identity row and a zero right-hand side."""
    if not pinned.any():
        return
    n = ab.shape[1]
    ab[0, pinned] = 1.0
    for r in range(1, ab.shape[0]):
        # entry (j + r, j) of the matrix: row j + r or column j pinned
        ab[r, :n - r][pinned[:n - r] | pinned[r:]] = 0.0
    rhs[pinned] = 0.0


def _trial_point(z, alpha, d, lb, ub):
    """(z + alpha d clipped into the box, whether the clip left it as is)."""
    step = z + alpha * d
    zt = np.clip(step, lb, ub)
    return zt, np.array_equal(zt, step)


def _merit_change(prob, m: _Multipliers, gd, a, ineq, d):
    """delta(alpha, zt): the merit at zt = z + alpha d minus the merit at z,
    where gd is the merit gradient's dot product with d, _merit_grad gave a
    and ineq is z's (g, gx, gy).

    Along d the objective and the equality terms are quadratic, so the
    change is alpha s1 + alpha^2 s2 + (|a(alpha)|^2 - |a|^2) / 2mu with
    s1 = gd + sum a (grad g . d) and s2 = d.(q d) + mu/2 |E d|^2; only
    the keep-out estimate a(alpha) needs zt, through ineq_values.  Exact
    while zt is z + alpha d, that is, while the step stays in the box.
    """
    _, gx, gy = ineq
    s1 = gd + dot(a, gx * d[prob.ineq_ix] + gy * d[prob.ineq_iy])
    ed = prob.E @ d
    s2 = dot(d, prob.q * d) + 0.5 * m.mu * dot(ed, ed)
    aa = dot(a, a)

    def delta(alpha, zt):
        at = np.maximum(0.0, m.eta - m.mu * prob.ineq_values(zt))
        return alpha * s1 + alpha * alpha * s2 + (dot(at, at) - aa) / (2.0 * m.mu)

    return delta


def _inner_newton(prob, z, ev, m: _Multipliers, base, tol):
    """Minimize the AL merit over the box from z, where _evaluate gave ev.

    Returns (z, ev, pgn, Newton steps, exit): ev and the projected
    AL-gradient norm pgn are those of the final z.  exit names the inner
    loop's exit (see the module docstring): "tol", "stall", "cap", "not_pd"
    when the Newton matrix fails to factor, or "not_finite" when it holds an
    inf or nan.
    """
    lb, ub = prob.lb, prob.ub
    nit = 0
    floor = False
    while True:
        f, grad, a = _merit_grad(prob, ev, m)
        pgn, pinned = _projected_grad(z, grad, lb, ub)
        exit_ = ("stall" if floor else "cap" if nit == MAX_INNER
                 else "tol" if pgn <= tol else None)
        if exit_:
            return z, ev, pgn, nit, exit_
        nit += 1
        ab = _assemble_banded(prob, m, ev[3], base)
        rhs = -grad
        _apply_active(ab, rhs, pinned)

        try:
            d = cho_solve_banded((cholesky_banded(ab, lower=True), True), rhs)
        except np.linalg.LinAlgError:
            return z, ev, pgn, nit, "not_pd"
        except ValueError:  # both check their input for an inf or nan
            return z, ev, pgn, nit, "not_finite"

        gd = dot(grad, d)
        # a trial inside the box gets its merit change in closed form
        delta = _merit_change(prob, m, gd, a, ev[3], d)
        alpha = 1.0
        for _ in range(40):
            zt, closed = _trial_point(z, alpha, d, lb, ub)
            gs = alpha * gd if closed else dot(grad, zt - z)
            if gs > 0:  # projection turned it uphill; shrink
                alpha *= 0.5
                continue
            if closed:
                df = delta(alpha, zt)
                if df <= 1e-4 * gs:
                    if df >= -_NOISE * abs(f):
                        # a decrease within the merit's rounding: at its floor
                        return z, ev, pgn, nit, "stall"
                    ev_t = _evaluate(prob, zt)
                    break
            else:
                ev_t = _evaluate(prob, zt)
                ft = _al_terms(ev_t, m)[0]
                if ft <= f + 1e-4 * gs:
                    # at the merit's rounding floor further steps only spin;
                    # the outer multiplier/penalty update takes over from here
                    floor = ft == f
                    break
            alpha *= 0.5
        else:
            return z, ev, pgn, nit, "stall"  # no trial lowered the merit
        z, ev = zt, ev_t


def solve_al(prob, z0, *, mu0=MU0, lam0=None, eta0=None):
    """Run the augmented-Lagrangian loop; returns (z, lam, eta, stats).

    Converged means a constraint violation within FEAS_TOL and a projected
    KKT residual within KKT_TOL.  lam0 and eta0 warm-start the equality and
    inequality multipliers (zeros when None); with mu0 they restart the loop
    from an earlier solve's multipliers (see the module docstring).

    Raises NotConvergedError when MAX_OUTER iterations run out and
    InfeasibleError when the violation stalls at the penalty ceiling MU_MAX.
    Raises ValueError unless prob.ineq_ix strictly increases and
    prob.ineq_iy = prob.ineq_ix + 1, the layout whose updates the merit
    gradient and the Newton matrix write as plain indexed adds.
    """
    if np.any(np.diff(prob.ineq_ix) <= 0) or not np.array_equal(prob.ineq_iy, prob.ineq_ix + 1):
        raise ValueError("ineq_ix must strictly increase, with ineq_iy = ineq_ix + 1")
    z = np.clip(np.asarray(z0, dtype=float), prob.lb, prob.ub)
    lam = np.zeros(prob.E.shape[0]) if lam0 is None else np.array(lam0, dtype=float)
    eta = np.zeros(prob.m_in) if eta0 is None else np.array(eta0, dtype=float)
    if lam.shape != (prob.E.shape[0],) or eta.shape != (prob.m_in,):
        raise ValueError("lam0/eta0 must match the equality/inequality counts")
    m = _Multipliers(lam=lam, eta=eta, mu=mu0)
    stats = SolverStats()
    omega = 1e-2
    feas_target = 1e-2
    base = _base_banded(prob, m.mu)
    best_v = np.inf
    v_update = np.inf  # v_measure at the last multiplier update
    stall = 0
    # each inner loop starts from the previous one's final evaluation, which
    # the multiplier and penalty updates leave valid
    ev = _evaluate(prob, z)

    for outer in range(MAX_OUTER):
        stats.outer_iterations = outer + 1
        z, ev, pgn, nit, exit_ = _inner_newton(prob, z, ev, m, base, tol=omega)
        _, _, h, (g, _, _) = ev
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

        raise_mu = v_measure > feas_target
        if not raise_mu:
            m.lam = m.lam - m.mu * h
            m.eta = np.maximum(0.0, m.eta - m.mu * g)
            # the AL gradient at z is the Lagrangian gradient at the updated
            # multipliers, so pgn is z's projected KKT residual
            stats.kkt_residual = pgn
            if viol <= FEAS_TOL and pgn <= KKT_TOL:
                stats.message = "converged"
                return z, m.lam, m.eta, stats
            raise_mu = v_measure > max(CONTRACTION * v_update, 100.0 * FEAS_TOL)
            v_update = v_measure
            feas_target = max(0.2 * feas_target, 0.5 * FEAS_TOL)
            omega = max(0.2 * omega, 0.3 * KKT_TOL)
        else:
            omega = max(omega, 1e-4)
        if raise_mu and m.mu < MU_MAX:
            m.mu = min(10.0 * m.mu, MU_MAX)
            base = _base_banded(prob, m.mu)
            stats.mu_raises += 1

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
