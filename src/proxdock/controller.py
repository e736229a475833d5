"""Trajectory-tracking control with ON/OFF thrusters.

Pipeline per control period: 6-state PD error -> inertial wrench (plus the
planned feed-forward wrench when enabled) -> body frame -> box-constrained
least-squares duty allocation over the 8 thrusters -> PWM ON/OFF pattern.
States are float arrays [x, y, theta, vx, vy, omega] and wrenches float
arrays [Fx, Fy, tau] (see `dynamics`); a tracking error is a state-shaped
array with its attitude entry wrapped to (-pi, pi].

scipy.optimize is imported inside `lsq_linear`, on its first call: only the
rare allocation that `_bvls_fast` leaves alone needs it, and planning,
sweeps and audits never do, so importing this package does not load it.
`lsq_linear` must stay a module-level function that `allocate_duty` looks
up by name: the benchmark tracer wraps it and tests monkeypatch it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import NUM_THRUSTERS, ThrusterLayout, wrap_angle


@dataclass(frozen=True)
class PdGains:
    """PD gains; defaults tuned for the 10 kg / 0.15 kg m^2 chaser."""

    kp_pos: float = 2.0
    kd_pos: float = 8.0
    kp_att: float = 0.4
    kd_att: float = 1.2

    def __post_init__(self):
        g = (self.kp_pos, self.kd_pos, self.kp_att, self.kd_att)
        if any(v < 0 for v in g):
            raise ValueError("gains must be non-negative")
        if all(v == 0 for v in g):
            raise ValueError("at least one gain must be positive")


def tracking_error(ref: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """ref - actual, with the attitude entry wrapped to (-pi, pi]."""
    e = ref - actual
    e[2] = wrap_angle(e[2])
    return e


def pd_wrench(e: np.ndarray, gains: PdGains) -> np.ndarray:
    """Inertial-frame wrench request from the tracking error."""
    return np.array([gains.kp_pos * e[0] + gains.kd_pos * e[3],
                     gains.kp_pos * e[1] + gains.kd_pos * e[4],
                     gains.kp_att * e[2] + gains.kd_att * e[5]])


def world_to_body(w: np.ndarray, theta: float) -> np.ndarray:
    """Rotate the force pair by R(theta)^T; torque is frame-invariant about z."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([c * w[0] + s * w[1], -s * w[0] + c * w[1], w[2]])


def body_to_world(w, theta: float) -> tuple[float, float, float]:
    """Rotate the force pair by R(theta); a tuple of floats, as `euler_step` takes."""
    c, s = math.cos(theta), math.sin(theta)
    return c * w[0] - s * w[1], s * w[0] + c * w[1], w[2]


def lsq_linear(*args, **kwargs):
    """scipy.optimize.lsq_linear, imported on the first call."""
    from scipy.optimize import lsq_linear as solve
    return solve(*args, **kwargs)


ALL_FREE = (1 << NUM_THRUSTERS) - 1  # bit i set: duty i is free
BVLS_TOL = 1e-10    # lsq_linear's default tol, BVLS's KKT test
# A set decision this close to a bound is left to lsq_linear: the
# pseudo-inverse and BVLS's lstsq disagreed by at most 1e-11 over 15 000
# random requests on five f_max values.
SET_GUARD = 1e-8


def _bound_set(layout: ThrusterLayout, free: int, upper: int) -> tuple:
    """Cached arrays of one bound set of the allocation (bit masks over the 8
    duties; the duties in neither mask sit at 0).

    Returns (free indices, M, c, A_ridge[:, free], x, A_ridge x, on_bound):
    M w + c is the free duties' least-squares solution for body wrench w with
    the others at their bounds, by pseudo-inverse; x holds the bounds (0 where
    free) and on_bound BVLS's marks (-1, +1, 0 where free).
    """
    key = (free, upper)
    entry = layout.bvls_maps.get(key)
    if entry is None:
        A = layout.A_ridge
        idx = [i for i in range(NUM_THRUSTERS) if free >> i & 1]
        x = np.array([float(upper >> i & 1) for i in range(NUM_THRUSTERS)])
        on_bound = [0.0 if free >> i & 1 else 2.0 * v - 1.0 for i, v in enumerate(x)]
        A_free = A[:, np.array(idx, dtype=np.intp)]
        P = np.linalg.pinv(A_free) if free else np.zeros((0, A.shape[0]))
        Ax = A.dot(x)
        entry = layout.bvls_maps[key] = (idx, P[:, :3].copy(), -P @ Ax, A_free, x, Ax, on_bound)
    return entry


def _bvls_fast(rhs: np.ndarray, layout: ThrusterLayout) -> np.ndarray | None:
    """lsq_linear(A_ridge, rhs, (0, 1), method="bvls").x bit for bit, or None.

    BVLS (Stark & Parker 1995, as scipy writes it) clips the unconstrained
    solution to the box, then re-solves on the free duties and clips again
    until no free duty leaves the box; its main loop runs only if that point
    fails the KKT test.  Here the cached pseudo-inverses replay those set
    decisions, the free duties come from BVLS's own `lstsq` call on the final
    set and the KKT test is BVLS's.  None (call lsq_linear instead) when a
    decision lies within SET_GUARD of a bound, when the unconstrained solution
    is inside the box (lsq_linear returns it as it is) or when the KKT test
    fails (BVLS's main loop would run).
    """
    w = rhs[:3]
    free, upper = ALL_FREE, 0
    while free:
        idx, M, c = _bound_set(layout, free, upper)[:3]
        left = free
        for i, z in zip(idx, (M @ w + c).tolist()):
            if abs(z) < SET_GUARD or abs(z - 1.0) < SET_GUARD:
                return None
            if z < 0.0 or z > 1.0:
                left &= ~(1 << i)
                upper |= (z > 1.0) << i
        if left == free:
            break
        free = left
    if free == ALL_FREE:
        return None
    A = layout.A_ridge
    idx, _, _, A_free, x, Ax, on_bound = _bound_set(layout, free, upper)
    x = x.copy()
    if free:
        # x is 0 on the free duties, so A x is BVLS's A.dot(x * active_set)
        z = np.linalg.lstsq(A_free, rhs - Ax, rcond=None)[0]
        if not 0.0 <= z.min() <= z.max() <= 1.0:
            return None
        x[idx] = z
    g = A.T.dot(A.dot(x) - rhs).tolist()
    # BVLS's KKT measure: g * on_bound on the bounded duties, |g| on the free
    kkt = max(gi * b if b else abs(gi) for gi, b in zip(g, on_bound))
    return x if kkt < BVLS_TOL else None


def allocate_duty(w_body: np.ndarray, layout: ThrusterLayout) -> np.ndarray:
    """Duty ratios u minimizing |B u f_max - w|^2 over the box [0,1]^8.

    Active-set BVLS with a tiny ridge that breaks ties toward the
    minimum-norm duty (the 3x8 system has many exact minimizers): the result
    is lsq_linear(A_ridge, [w; 0], (0, 1), method="bvls") clipped to the box.
    `_bvls_fast` returns that solution bit for bit when BVLS would stop after
    its initialization phase, as it does for almost every saturating
    request; the rest (a set decision within SET_GUARD of a bound, an
    unconstrained solution inside the box, a failed KKT test) call
    lsq_linear itself.  The wrench u delivers is `total_wrench(u, layout)`.
    """
    rhs = np.concatenate([w_body, np.zeros(NUM_THRUSTERS)])
    x = _bvls_fast(rhs, layout)
    if x is None:
        x = lsq_linear(layout.A_ridge, rhs, bounds=(0.0, 1.0), method="bvls").x
    return np.clip(x, 0.0, 1.0)


def pwm_schedule(u: np.ndarray, n_slots: int) -> np.ndarray:
    """Leading-edge PWM: round(u*n_slots) ON slots from the start of the period.

    Returns the (8, n_slots) int8 firing pattern of one control period.
    Duties within 1e-12 outside [0, 1] count as the bound they pass.
    """
    u = np.asarray(u, dtype=float)
    if n_slots < 1:
        raise ValueError("n_slots must be >= 1")
    if u.shape != (NUM_THRUSTERS,):
        raise ValueError("duty vector must have 8 entries")
    if not -1e-12 <= u.min() <= u.max() <= 1.0 + 1e-12:  # also rejects nan
        raise ValueError("duty ratios must lie in [0, 1]")
    # no clip: a duty below 0 rounds to k <= 0 and one above 1 to k >= n_slots,
    # which turn the same slots ON (s < k) as the clipped duty would
    return (np.arange(n_slots) < np.rint(u * n_slots)[:, None]).view(np.int8)


def continuous_duty(e: np.ndarray, theta: float, gains: PdGains, layout: ThrusterLayout,
                    feed_forward: np.ndarray | None = None) -> np.ndarray:
    """Duty vector that `pwm_schedule` turns into one period's firings:
    tracking error e (`tracking_error`) -> PD (+feed-forward) -> body frame
    at chaser attitude theta -> allocate."""
    w = pd_wrench(e, gains)
    if feed_forward is not None:
        w = w + feed_forward
    return allocate_duty(world_to_body(w, theta), layout)
