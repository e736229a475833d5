"""Planar rigid-body model of the chaser.

Array conventions, shared by the planner, the controller, the simulator and
the record files: a chaser state is a float array [x, y, theta, vx, vy, omega]
in the inertial frame, with theta stored unwrapped (no modular reduction) so
attitude arithmetic stays continuous; a wrench is a float array
[Fx, Fy, tau], in the inertial frame unless a name says body frame.  The same
forward-Euler map is used by the trajectory optimizer (knot defects) and by
the simulator (fine-step propagation), which steps a state held as a tuple
of floats.

`ThrusterLayout` imports scipy.optimize's `linprog` where it runs its layout
LP: only tracking and Monte Carlo runs build a layout, so planning, sweeps
and audits never load scipy.optimize.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

STATE_DIM = 6
NUM_THRUSTERS = 8
RIDGE = 1e-9  # relative tie-break toward minimum-norm duty (the 3x8 system is wide)


@dataclass(frozen=True)
class BodyParams:
    """Mass properties of the chaser.

    Defaults: 10 kg square of side 0.3 m, inertia of a uniform plate
    (m * l^2 / 6).  All overridable from config.
    """

    mass: float = 10.0
    inertia: float = 10.0 * 0.3**2 / 6.0
    side_length: float = 0.3

    def __post_init__(self):
        bad = [n for n in ("mass", "inertia", "side_length") if getattr(self, n) <= 0]
        if bad:
            raise ValueError(f"BodyParams fields must be positive: {', '.join(bad)}")


@dataclass(frozen=True)
class TargetState:
    """Rotating target: fixed position, constant spin rate."""

    side_length: float = 0.3
    omega: float = 0.1            # [rad/s]
    theta0: float = 0.0           # attitude at t = 0 [rad]
    x: float = 0.0
    y: float = 0.0

    def __post_init__(self):
        if self.side_length <= 0:
            raise ValueError("target side_length must be positive")

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])

    def attitude(self, t):
        """Attitude at time t (a float or an array of times), unwrapped."""
        return self.theta0 + self.omega * t


def effective_ridge(A: np.ndarray) -> float:
    """Ridge weight scaled by the allocation matrix so the wrench-residual
    bias stays below the tie-break's own magnitude regardless of f_max."""
    return RIDGE * np.linalg.norm(A, 2) ** 2


@dataclass(frozen=True)
class ThrusterLayout:
    """Eight body-mounted ON/OFF thrusters.

    positions: (8, 2) mount points in the body frame [m]
    directions: (8, 2) unit thrust directions in the body frame
    f_max: thrust magnitude per thruster [N]

    Derived once per layout: B = effectiveness_matrix() and A_ridge, the
    duty-to-body-wrench matrix B * f_max stacked on the ridge rows of the
    bounded least-squares allocation.  `bvls_maps` caches, per bound set of
    that allocation, the maps `controller.allocate_duty` builds on first use.
    """

    positions: np.ndarray
    directions: np.ndarray
    f_max: float
    B: np.ndarray = field(init=False, repr=False, compare=False)
    A_ridge: np.ndarray = field(init=False, repr=False, compare=False)
    bvls_maps: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        dirs = np.asarray(self.directions, dtype=float)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "directions", dirs)
        if pos.shape != (NUM_THRUSTERS, 2) or dirs.shape != (NUM_THRUSTERS, 2):
            raise ValueError("layout needs 8 mount points and 8 directions")
        if not 0.0 < self.f_max < math.inf:
            raise ValueError("f_max must be positive and finite")
        norms = np.linalg.norm(dirs, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("thrust directions must be unit vectors (1e-12)")
        B = self.effectiveness_matrix()
        if np.linalg.matrix_rank(B) != 3:
            raise ValueError("control-effectiveness matrix must have rank 3")
        # A rank-3 B positively spans the wrench space (zero wrench interior
        # to the attainable set) iff some duty vector with every entry > 0
        # gives zero wrench: maximise t subject to B u = 0, t <= u_i <= 1.
        from scipy.optimize import linprog
        lp = linprog(np.r_[np.zeros(NUM_THRUSTERS), -1.0],
                     A_ub=np.hstack([-np.eye(NUM_THRUSTERS), np.ones((NUM_THRUSTERS, 1))]),
                     b_ub=np.zeros(NUM_THRUSTERS),
                     A_eq=np.hstack([B, np.zeros((3, 1))]), b_eq=np.zeros(3),
                     bounds=(0.0, 1.0))
        if lp.status != 0 or -lp.fun <= 1e-9:
            raise ValueError("layout cannot actuate some wrench direction both ways")
        A = B * self.f_max
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "A_ridge", np.vstack(
            [A, math.sqrt(effective_ridge(A)) * np.eye(NUM_THRUSTERS)]))

    def effectiveness_matrix(self) -> np.ndarray:
        """3x8 map from duty vector to body wrench per unit f_max.

        Rows: fx, fy, tau.  Column i is [d_i; r_i x d_i].
        """
        cross = self.positions[:, 0] * self.directions[:, 1] - self.positions[:, 1] * self.directions[:, 0]
        return np.vstack([self.directions.T, cross])


def default_layout(side_length: float = 0.3, f_max: float = 0.03) -> ThrusterLayout:
    """Two thrusters per face at +/-0.4*side offsets, thrust opposite the face normal."""
    h = side_length / 2.0
    o = 0.4 * side_length
    positions = np.array([
        [h, o], [h, -o],       # +x face, push -x
        [-h, o], [-h, -o],     # -x face, push +x
        [o, h], [-o, h],       # +y face, push -y
        [o, -h], [-o, -h],     # -y face, push +y
    ])
    directions = np.array([
        [-1.0, 0.0], [-1.0, 0.0],
        [1.0, 0.0], [1.0, 0.0],
        [0.0, -1.0], [0.0, -1.0],
        [0.0, 1.0], [0.0, 1.0],
    ])
    return ThrusterLayout(positions=positions, directions=directions, f_max=f_max)


def total_wrench(u, layout: ThrusterLayout) -> np.ndarray:
    """Body-frame wrench [Fx, Fy, tau] of a duty or binary vector (Newton sums)."""
    return layout.B @ np.asarray(u, dtype=float) * layout.f_max


def euler_step(s, w, p: BodyParams, dt: float) -> tuple[float, ...]:
    """One forward-Euler step of the Newton-Euler rates, on floats: positions
    advance by velocity * dt and velocities by (inertial wrench w) / (mass or
    inertia) * dt.

    s and w may be arrays or any sequences; the new state is a tuple of six
    floats (the simulator calls this once per physics step, so it builds no
    arrays).  The optimizer's defect constraints use the same map in matrix
    form (see euler_matrices)."""
    if dt < 0:
        raise ValueError("dt must be non-negative")
    x, y, theta, vx, vy, omega = s
    return (x + vx * dt, y + vy * dt, theta + omega * dt,
            vx + w[0] / p.mass * dt, vy + w[1] / p.mass * dt, omega + w[2] / p.inertia * dt)


def euler_matrices(p: BodyParams, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Matrix form of euler_step: s' = A s + B w (the dynamics are linear).

    The optimizer builds its knot defects from these coefficients.  B applies
    (dt/m) F where euler_step applies (F/m) dt, so replaying a knot through
    euler_step agrees with the next knot only up to rounding: in 410 of
    10 000 random steps the two differ in the last bit.
    """
    A = np.eye(STATE_DIM)
    A[0, 3] = A[1, 4] = A[2, 5] = dt
    B = np.zeros((STATE_DIM, 3))
    B[3, 0] = dt / p.mass
    B[4, 1] = dt / p.mass
    B[5, 2] = dt / p.inertia
    return A, B


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]; states stay unwrapped, only error metrics wrap."""
    w = math.remainder(a, 2.0 * math.pi)
    if w <= -math.pi:
        w += 2.0 * math.pi
    return w
