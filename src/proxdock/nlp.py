"""Augmented-Lagrangian solver for the banded trajectory transcription.

Outer loop: Powell-Hestenes-Rockafellar multiplier updates on the linear
equalities (boundary + Euler defects) and the keep-out inequalities.  Inner
loop: projected damped Newton over the wrench box bounds, with the Hessian
assembled in symmetric lower-banded storage (the interleaved knot ordering
gives bandwidth 14) and factored by LAPACK's banded Cholesky, so each Newton
step is O(N).

The inner loop has three exits: the projected gradient is within the outer
loop's current tolerance; a stall, where the accepted line-search step
leaves the AL merit unchanged (or no trial lowers it), so the iterate sits
at the merit's rounding floor; or max_inner Newton steps.  After a stall or
the cap the outer multiplier/penalty update carries on.  SolverStats counts
the stalled and capped inner loops.

The problem object must expose::

    n, lb, ub                      decision size and box bounds
    E, e_rhs                       sparse equality Jacobian and rhs
    ete_banded, bandwidth          lower-banded E^T E and its bandwidth
    obj_hess_diag                  constant objective Hessian diagonal
    objective_value_grad(z)        -> (f, grad)
    objective_value(z)             -> f
    m_in, ineq_ix, ineq_iy         inequality count and variable indices
    ineq_values(z)                 -> g
    ineq_full(z)                   -> (g, gx, gy, hxx, hxy, hyy)

ineq_values is the value-only path used by line-search trials; it must equal
ineq_full(z)[0] bit for bit, because the stall exit compares a trial merit
(from ineq_values) with the current merit (from ineq_full) by ==.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded


@dataclass
class SolverStats:
    outer_iterations: int = 0
    newton_iterations: int = 0
    inner_stalls: int = 0      # inner loops ended for lack of progress
    inner_capped: int = 0      # inner loops that took max_inner Newton steps
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


def _al_value(prob, z, m: _Multipliers, g=None, h=None):
    f = prob.objective_value(z)
    if h is None:
        h = prob.E @ z - prob.e_rhs
    f += 0.5 * m.mu * float(h @ h) - float(m.lam @ h)
    if prob.m_in:
        if g is None:
            g = prob.ineq_values(z)
        a = np.maximum(0.0, m.eta - m.mu * g)
        f += float(a @ a - m.eta @ m.eta) / (2.0 * m.mu)
    return f


def _al_value_grad(prob, z, m: _Multipliers):
    f, grad = prob.objective_value_grad(z)
    h = prob.E @ z - prob.e_rhs
    f += 0.5 * m.mu * float(h @ h) - float(m.lam @ h)
    grad = grad + prob.E.T @ (m.mu * h - m.lam)
    ineq = None
    if prob.m_in:
        ineq = prob.ineq_full(z)
        g, gx, gy = ineq[0], ineq[1], ineq[2]
        a = np.maximum(0.0, m.eta - m.mu * g)
        f += float(a @ a - m.eta @ m.eta) / (2.0 * m.mu)
        np.add.at(grad, prob.ineq_ix, -a * gx)
        np.add.at(grad, prob.ineq_iy, -a * gy)
    return f, grad, h, ineq


def _projected_grad(z, grad, lb, ub, tol=1e-11):
    pg = grad.copy()
    pg[(z <= lb + tol) & (grad > 0)] = 0.0
    pg[(z >= ub - tol) & (grad < 0)] = 0.0
    return pg


def projected_kkt_residual(prob, z, lam, eta) -> float:
    """Stationarity of the Lagrangian projected onto the box bounds."""
    _, grad = prob.objective_value_grad(z)
    r = grad - prob.E.T @ lam
    if prob.m_in:
        _, gx, gy, *_ = prob.ineq_full(z)
        np.add.at(r, prob.ineq_ix, -eta * gx)
        np.add.at(r, prob.ineq_iy, -eta * gy)
    viol = np.abs(r)
    at_lb = z <= prob.lb + 1e-11
    at_ub = z >= prob.ub - 1e-11
    viol[at_lb] = np.maximum(0.0, -r[at_lb])
    viol[at_ub] = np.maximum(0.0, r[at_ub])
    viol[at_lb & at_ub] = 0.0  # pinned variables satisfy stationarity trivially
    return float(np.max(viol)) if len(viol) else 0.0


def _assemble_banded(prob, m: _Multipliers, ineq, base):
    """base (diag + mu EtE) plus the active PHR inequality blocks."""
    ab = base.copy()
    if ineq is not None:
        g, gx, gy, hxx, hxy, hyy = ineq
        a = np.maximum(0.0, m.eta - m.mu * g)
        act = a > 0.0
        if np.any(act):
            # iy == ix + 1 for every constraint (x, y adjacent in the layout),
            # so the cross term lives on the first subdiagonal
            ix = prob.ineq_ix[act]
            iy = prob.ineq_iy[act]
            gxa, gya, aa = gx[act], gy[act], a[act]
            np.add.at(ab[0], ix, m.mu * gxa * gxa - aa * hxx[act])
            np.add.at(ab[0], iy, m.mu * gya * gya - aa * hyy[act])
            np.add.at(ab[1], ix, m.mu * gxa * gya - aa * hxy[act])
    return ab


def _apply_active(ab, rhs, active_idx, bandwidth):
    if len(active_idx) == 0:
        return
    ab[0, active_idx] = 1.0
    for r in range(1, bandwidth + 1):
        ab[r, active_idx[active_idx + r < ab.shape[1]]] = 0.0
        cols = active_idx - r
        ab[r, cols[cols >= 0]] = 0.0
    rhs[active_idx] = 0.0


def _band_matvec(ab, d):
    """y = H d for symmetric lower-banded storage ab[r, c] = H[c+r, c]."""
    y = ab[0] * d
    n = ab.shape[1]
    for r in range(1, ab.shape[0]):
        y[r:] += ab[r, :n - r] * d[:n - r]
        y[:n - r] += ab[r, :n - r] * d[r:]
    return y


def _inner_newton(prob, z, m: _Multipliers, base, tol, max_iter):
    """Minimize the AL merit over the box; returns (z, Newton steps, exit).

    exit names the inner loop's exit (see the module docstring): "tol",
    "stall" or "cap".
    """
    lb, ub = prob.lb, prob.ub
    bw = prob.bandwidth
    nit = 0
    shift = 0.0
    for _ in range(max_iter):
        f, grad, h, ineq = _al_value_grad(prob, z, m)
        pg = _projected_grad(z, grad, lb, ub)
        pgn = float(np.max(np.abs(pg))) if len(pg) else 0.0
        if pgn <= tol:
            return z, nit, "tol"
        nit += 1
        ab = _assemble_banded(prob, m, ineq, base)
        active = np.flatnonzero(((z <= lb + 1e-11) & (grad > 0)) | ((z >= ub - 1e-11) & (grad < 0)))
        rhs = -grad
        _apply_active(ab, rhs, active, bw)

        d = None
        trial_shift = shift
        for _ in range(25):
            abt = ab if trial_shift == 0.0 else ab + np.vstack(
                [np.full(ab.shape[1], trial_shift), np.zeros((bw, ab.shape[1]))])
            try:
                cb = cholesky_banded(abt, lower=True)
                d = cho_solve_banded((cb, True), rhs)
                # one refinement pass keeps steps accurate at large penalties
                d += cho_solve_banded((cb, True), rhs - _band_matvec(abt, d))
                break
            except np.linalg.LinAlgError:
                trial_shift = max(2.0 * trial_shift, 1e-8 * (1.0 + np.abs(ab[0]).max()))
        shift = trial_shift / 4.0 if trial_shift > 0 else 0.0
        if d is None:
            d = -pg  # hopeless Hessian; fall back to steepest descent

        alpha = 1.0
        for _ in range(40):
            zt = np.clip(z + alpha * d, lb, ub)
            step = zt - z
            gs = float(grad @ step)
            if gs > 0:  # projection turned it uphill; shrink
                alpha *= 0.5
                continue
            ft = _al_value(prob, zt, m)
            if ft <= f + 1e-4 * gs:
                break
            alpha *= 0.5
        else:
            # last resort: short projected gradient step
            gn = max(1.0, pgn)
            for expo in range(30):
                zt = np.clip(z - (0.5**expo / gn) * pg, lb, ub)
                ft = _al_value(prob, zt, m)
                if ft < f:
                    break
            else:
                return z, nit, "stall"
        z = zt
        if ft == f:
            # the merit's rounding floor: further steps only spin; the outer
            # multiplier/penalty update takes over from here
            return z, nit, "stall"
    return z, nit, "cap"


def solve_al(prob, z0, *, kkt_tol=1e-6, feas_tol=1e-8, max_outer=500,
             max_inner=200, mu0=10.0, mu_max=1e12):
    """Run the augmented-Lagrangian loop; returns (z, lam, eta, stats).

    Raises NotConvergedError when the iteration budget runs out and
    InfeasibleError when the violation stalls at the penalty ceiling.
    """
    z = np.clip(np.asarray(z0, dtype=float), prob.lb, prob.ub)
    m = _Multipliers(lam=np.zeros(prob.E.shape[0]), eta=np.zeros(prob.m_in), mu=mu0)
    stats = SolverStats()
    omega = 1e-2
    feas_target = 1e-2
    base = prob.base_banded(m.mu)
    best_v = np.inf
    stall = 0

    for outer in range(max_outer):
        stats.outer_iterations = outer + 1
        z, nit, exit_ = _inner_newton(prob, z, m, base, tol=omega, max_iter=max_inner)
        stats.newton_iterations += nit
        stats.inner_stalls += exit_ == "stall"
        stats.inner_capped += exit_ == "cap"

        h = prob.E @ z - prob.e_rhs
        hinf = float(np.max(np.abs(h))) if len(h) else 0.0
        if prob.m_in:
            g = prob.ineq_values(z)
            ginf = float(max(0.0, -np.min(g)))
            mixed = float(np.max(np.abs(np.minimum(g, m.eta / m.mu))))
        else:
            g = np.zeros(0)
            ginf = 0.0
            mixed = 0.0
        viol = max(hinf, ginf)
        v_measure = max(hinf, mixed)
        stats.constraint_violation = viol
        stats.mu_final = m.mu

        if v_measure <= feas_target:
            m.lam = m.lam - m.mu * h
            if prob.m_in:
                m.eta = np.maximum(0.0, m.eta - m.mu * g)
            pk = projected_kkt_residual(prob, z, m.lam, m.eta)
            stats.kkt_residual = pk
            if viol <= feas_tol and pk <= kkt_tol:
                stats.message = "converged"
                return z, m.lam, m.eta, stats
            feas_target = max(0.2 * feas_target, 0.5 * feas_tol)
            omega = max(0.2 * omega, 0.3 * kkt_tol)
        else:
            m.mu = min(10.0 * m.mu, mu_max)
            base = prob.base_banded(m.mu)
            omega = max(omega, 1e-4)

        if v_measure < 0.9 * best_v:
            best_v = v_measure
            stall = 0
        else:
            stall += 1
        if m.mu >= mu_max and stall >= 5 and viol > feas_tol:
            stats.message = "violation stalled at mu_max"
            raise InfeasibleError(stats)

    stats.message = "iteration budget exhausted"
    raise NotConvergedError(stats)
