"""Trajectory-tracking control with ON/OFF thrusters.

Pipeline per control period: 6-state PD error -> inertial wrench (plus the
planned feed-forward wrench when enabled) -> body frame -> box-constrained
least-squares duty allocation over the 8 thrusters -> PWM ON/OFF pattern.
States are float arrays [x, y, theta, vx, vy, omega] and wrenches float
arrays [Fx, Fy, tau] (see `dynamics`); a tracking error is a state-shaped
array with its attitude entry wrapped to (-pi, pi].
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
    """scipy.optimize.lsq_linear, imported on the first call: the reference
    the allocator is tested against, and a name the benchmark tracer wraps."""
    from scipy.optimize import lsq_linear as solve
    return solve(*args, **kwargs)


ALL_FREE = (1 << NUM_THRUSTERS) - 1  # bit i set: duty i is free
# A bound duty is freed while its gradient points into the box by more than
# this share of the ridge: the objective curves only by the ridge in the null
# space of B, so an absolute tolerance (BVLS's 1e-10) stops early there.
KKT_TOL = 1e-6
MAX_PASSES = 64  # a guard: 39 000 random requests took at most 10


def _bound_set(layout: ThrusterLayout, free: int, upper: int) -> tuple:
    """Cached arrays of one bound set of the allocation (bit masks over the 8
    duties; the duties in neither mask sit at 0).

    Returns (free indices, M, c, x, on_bound): M w + c is the free duties'
    least-squares solution for body wrench w with the others at their bounds,
    by pseudo-inverse; x holds the bounds (0 where free) and on_bound marks
    each duty -1 (at 0), +1 (at 1) or 0 (free).
    """
    key = (free, upper)
    entry = layout.bvls_maps.get(key)
    if entry is None:
        A = layout.A_ridge
        idx = np.array([i for i in range(NUM_THRUSTERS) if free >> i & 1], dtype=np.intp)
        x = np.array([float(upper >> i & 1) for i in range(NUM_THRUSTERS)])
        on_bound = np.array([0.0 if free >> i & 1 else 2.0 * v - 1.0 for i, v in enumerate(x)])
        P = np.linalg.pinv(A[:, idx]) if free else np.zeros((0, A.shape[0]))
        entry = layout.bvls_maps[key] = (idx, P[:, :3].copy(), -P @ A.dot(x), x, on_bound)
    return entry


def allocate_duty(w_body: np.ndarray, layout: ThrusterLayout) -> np.ndarray:
    """Duty ratios u minimizing |B u f_max - w|^2 over the box [0,1]^8.

    BVLS (Stark & Parker 1995) with a tiny ridge that breaks ties toward the
    minimum-norm duty (the 3x8 system has many exact minimizers), on the
    cached maps of `_bound_set`.  Until the free duties' least-squares values
    first fit the box, every duty that leaves it is bound at once (BVLS's
    initialization).  From then on a step toward the free duties'
    least-squares values stops at the first bound it crosses, and a bound
    duty whose gradient points into the box by more than KKT_TOL * ridge is
    freed.  The wrench u delivers is `total_wrench(u, layout)`.
    """
    if not np.all(np.isfinite(w_body)):
        raise ValueError("wrench request must be finite")
    A = layout.A_ridge
    rhs = np.concatenate([w_body, np.zeros(NUM_THRUSTERS)])
    free, upper = ALL_FREE, 0
    x = None  # None until the free duties' least-squares values fit the box
    for _ in range(MAX_PASSES):
        idx, M, c, bounds, on_bound = _bound_set(layout, free, upper)
        z = M @ w_body + c
        zs = z.tolist()
        out = [k for k, zk in enumerate(zs) if not 0.0 <= zk <= 1.0]
        if out:
            if x is not None:
                # step from x toward z; the first duty to reach a bound stops it
                xf = x[idx]
                alpha, k = min((((zs[k] > 1.0) - xf[k]) / (zs[k] - xf[k]), k) for k in out)
                x[idx] = xf + alpha * (z - xf)
                out = [k]
            for k in out:
                i = int(idx[k])
                free &= ~(1 << i)
                upper |= (zs[k] > 1.0) << i
            continue
        x = bounds.copy()
        x[idx] = z
        kkt = A.T.dot(A.dot(x) - rhs) * on_bound
        i = int(np.argmax(kkt))
        if kkt[i] <= KKT_TOL * layout.ridge:
            return x
        free |= 1 << i
        upper &= ~(1 << i)
    return np.clip(x, 0.0, 1.0)  # rounding made BVLS cycle: x is feasible


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
