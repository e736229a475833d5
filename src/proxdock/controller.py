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
from scipy.optimize import lsq_linear

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


def body_to_world(w: np.ndarray, theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([c * w[0] - s * w[1], s * w[0] + c * w[1], w[2]])


def allocate_duty(w_body: np.ndarray, layout: ThrusterLayout) -> tuple[np.ndarray, np.ndarray]:
    """Duty ratios minimizing |B u f_max - w|^2 over the box [0,1]^8.

    Among exact minimizers the minimum-norm duty is returned (interior
    solutions via the pseudoinverse, otherwise active-set BVLS with a tiny
    ridge).  Returns (u, residual wrench = B u f_max - w).
    """
    u = layout.A_pinv @ w_body
    if np.all(u >= -1e-12) and np.all(u <= 1.0 + 1e-12):
        u = np.clip(u, 0.0, 1.0)
    else:
        rhs = np.concatenate([w_body, np.zeros(NUM_THRUSTERS)])
        res = lsq_linear(layout.A_ridge, rhs, bounds=(0.0, 1.0), method="bvls")
        u = np.clip(res.x, 0.0, 1.0)
    return u, layout.A @ u - w_body


def pwm_schedule(u: np.ndarray, n_slots: int) -> np.ndarray:
    """Leading-edge PWM: round(u*n_slots) ON slots from the start of the period.

    Returns the (8, n_slots) int8 firing pattern of one control period.
    """
    u = np.asarray(u, dtype=float)
    if n_slots < 1:
        raise ValueError("n_slots must be >= 1")
    if u.shape != (NUM_THRUSTERS,):
        raise ValueError("duty vector must have 8 entries")
    if not np.all((u >= -1e-12) & (u <= 1.0 + 1e-12)):  # also rejects nan
        raise ValueError("duty ratios must lie in [0, 1]")
    k = np.rint(np.clip(u, 0.0, 1.0) * n_slots).astype(int)
    return (np.arange(n_slots)[None, :] < k[:, None]).astype(np.int8)


def continuous_duty(ref: np.ndarray, actual: np.ndarray, gains: PdGains,
                    layout: ThrusterLayout,
                    feed_forward: np.ndarray | None = None) -> np.ndarray:
    """Duty vector before PWM: error -> PD (+feed-forward) -> body frame -> allocate."""
    w = pd_wrench(tracking_error(ref, actual), gains)
    if feed_forward is not None:
        w = w + feed_forward
    u, _ = allocate_duty(world_to_body(w, actual[2]), layout)
    return u
