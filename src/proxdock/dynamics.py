"""Planar rigid-body model of the chaser.

State convention: [x, y, theta, vx, vy, omega] in the inertial frame, with
theta stored unwrapped (no modular reduction) so attitude arithmetic stays
continuous.  The same forward-Euler map is used by the trajectory optimizer
(knot defects) and by the simulator (fine-step propagation).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

STATE_DIM = 6
NUM_THRUSTERS = 8


@dataclass(frozen=True)
class BodyState:
    """Planar 6-DOF state of the chaser."""

    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0
    vx: float = 0.0
    vy: float = 0.0
    omega: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.as_array()):
            raise ValueError("BodyState fields must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.theta, self.vx, self.vy, self.omega])

    @classmethod
    def from_array(cls, a) -> "BodyState":
        a = np.asarray(a, dtype=float)
        return cls(*(float(v) for v in a))

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])

    @property
    def velocity(self) -> np.ndarray:
        return np.array([self.vx, self.vy])


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
class Wrench:
    """Planar force pair plus scalar torque about z."""

    fx: float = 0.0
    fy: float = 0.0
    tau: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.fx) and math.isfinite(self.fy) and math.isfinite(self.tau)):
            raise ValueError("Wrench components must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.fx, self.fy, self.tau])

    @classmethod
    def from_array(cls, a) -> "Wrench":
        a = np.asarray(a, dtype=float)
        return cls(float(a[0]), float(a[1]), float(a[2]))


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


def target_state_at(t: float, target: TargetState) -> tuple[float, np.ndarray]:
    """Target attitude and (fixed) position at time t."""
    return target.theta0 + target.omega * t, target.position


_DIRECTION_PROBE = None  # lazily built set of probe directions for layout validation


def _direction_probes() -> np.ndarray:
    global _DIRECTION_PROBE
    if _DIRECTION_PROBE is None:
        rng = np.random.default_rng(1234)
        d = rng.normal(size=(256, 3))
        d = np.vstack([d, np.eye(3), -np.eye(3)])
        _DIRECTION_PROBE = d / np.linalg.norm(d, axis=1, keepdims=True)
    return _DIRECTION_PROBE


@dataclass(frozen=True)
class ThrusterLayout:
    """Eight body-mounted ON/OFF thrusters.

    positions: (8, 2) mount points in the body frame [m]
    directions: (8, 2) unit thrust directions in the body frame
    f_max: thrust magnitude per thruster [N]
    """

    positions: np.ndarray
    directions: np.ndarray
    f_max: float

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        dirs = np.asarray(self.directions, dtype=float)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "directions", dirs)
        if pos.shape != (NUM_THRUSTERS, 2) or dirs.shape != (NUM_THRUSTERS, 2):
            raise ValueError("layout needs 8 mount points and 8 directions")
        if self.f_max <= 0:
            raise ValueError("f_max must be positive")
        norms = np.linalg.norm(dirs, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("thrust directions must be unit vectors (1e-12)")
        B = self.effectiveness_matrix()
        if np.linalg.matrix_rank(B) != 3:
            raise ValueError("control-effectiveness matrix must have rank 3")
        # zero wrench must be interior to the attainable set {B u f_max}
        probes = _direction_probes()
        reach = np.maximum(probes @ B, 0.0).sum(axis=1) * self.f_max
        if np.any(reach <= 1e-12):
            raise ValueError("layout cannot actuate some wrench direction both ways")

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


@dataclass(frozen=True)
class ThrusterCommand:
    """Duty (or binary) command for the 8 thrusters, each in [0, 1]."""

    u: np.ndarray = field(default_factory=lambda: np.zeros(NUM_THRUSTERS))

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        object.__setattr__(self, "u", u)
        if u.shape != (NUM_THRUSTERS,):
            raise ValueError("command must have 8 entries")
        if np.any(u < -1e-12) or np.any(u > 1.0 + 1e-12):
            raise ValueError("duty ratios must lie in [0, 1]")


def total_wrench(cmd: ThrusterCommand | np.ndarray, layout: ThrusterLayout) -> Wrench:
    """Body-frame wrench produced by a duty/binary command (Newton sums)."""
    u = cmd.u if isinstance(cmd, ThrusterCommand) else np.asarray(cmd, dtype=float)
    w = layout.effectiveness_matrix() @ u * layout.f_max
    return Wrench(w[0], w[1], w[2])


def state_derivative(s: BodyState, w: Wrench, p: BodyParams) -> np.ndarray:
    """Newton-Euler rates; wrench is taken in the inertial frame."""
    return np.array([s.vx, s.vy, s.omega, w.fx / p.mass, w.fy / p.mass, w.tau / p.inertia])


def euler_step(s: BodyState, w: Wrench, p: BodyParams, dt: float) -> BodyState:
    """One forward-Euler step; the optimizer's defect constraints reuse this exact map."""
    if dt < 0:
        raise ValueError("dt must be non-negative")
    return BodyState.from_array(s.as_array() + state_derivative(s, w, p) * dt)


def euler_matrices(p: BodyParams, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Matrix form of euler_step: s' = A s + B w (exactly, the dynamics are linear).

    Shared with the optimizer so knot defects replay bit-identically through
    euler_step.
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
