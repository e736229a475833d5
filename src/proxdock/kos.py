"""Dynamic keep-out zone around the rotating target.

Two configurations ("State I" for general approach, "State II" once the
final-approach conditions hold) built from a circle of radius r_safe plus two
half-ellipse lobes that flank the docking corridor.  All primitives are rigidly
attached to the target frame.  Exact signed distances here are the audit-grade
definitions; the optimizer uses the smooth variants at the bottom of this
module (same zero sets).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dynamics import BodyState

# Smooth-constraint tuning shared with the optimizer: half-plane activation is
# blended over a short spatial band so constraint gradients stay continuous,
# and released lobes get a slack far larger than any implicit-value deficit.
BLEND_BAND = 0.02      # [m]
RELEASE_SLACK = 10.0


class KosState(Enum):
    STATE_I = 1
    STATE_II = 2


@dataclass(frozen=True)
class KosConfig:
    """Geometry and switching thresholds of the keep-out zone.

    angle_threshold defaults to the corner-safe bound computed from the
    geometry (see corner_safe_angle_threshold).
    """

    l_s: float = 0.3                   # chaser side [m]
    l_t: float = 0.3                   # target side [m]
    margin_fraction: float = 0.10      # margin as a fraction of l_s
    dist_threshold_factor: float = 1.5
    angle_threshold: float | None = None   # [rad]; None -> derived default below

    def __post_init__(self):
        if self.l_s <= 0 or self.l_t <= 0:
            raise ValueError("side lengths must be positive")
        if self.margin_fraction < 0:
            raise ValueError("margin_fraction must be non-negative")
        if self.dist_threshold_factor < 1.0:
            raise ValueError("dist_threshold_factor must be >= 1")
        if self.angle_threshold is None:
            # Gate the final approach to the corridor sector: the lobe
            # boundary meets the corner-engagement radius at
            # corner_safe_angle_threshold from the normal, so the admissible
            # line-of-sight cone is its complement.  12.8 deg for equal cubes.
            gate = math.pi / 2 - corner_safe_angle_threshold(self)
            object.__setattr__(self, "angle_threshold",
                               min(max(gate, 1e-9), math.pi / 2 - 1e-9))
        if not (0.0 < self.angle_threshold < math.pi / 2):
            raise ValueError("angle_threshold must lie in (0, pi/2)")


def r_safe(cfg: KosConfig) -> float:
    """Worst-case corner-to-corner separation of the two squares plus margin."""
    return (math.sqrt(2) / 2) * (cfg.l_s + cfg.l_t) + cfg.margin_fraction * cfg.l_s


def corner_safe_angle_threshold(cfg: KosConfig) -> float:
    """Largest off-axis angle at which the lobe boundary stays corner-safe.

    The chaser center riding the State II ellipse boundary at angle phi from
    the docking normal sits at radius r(phi); the corner circumscribing
    circles (radii l_s/sqrt2 and l_t/sqrt2) stay apart iff r(phi) >= their
    radius sum.  The boundary radius grows monotonically from semi-minor
    (on-axis) to semi-major (broadside), so the first-touch angle is closed
    form.
    """
    rs = r_safe(cfg)
    a = rs            # semi-major, lateral
    b = rs / 2.0      # semi-minor, along the docking normal
    r_c = (cfg.l_s + cfg.l_t) / math.sqrt(2)
    if r_c <= b:
        return math.pi / 2
    if r_c >= a:
        return 0.0
    cos2 = (r_c**-2 - a**-2) / (b**-2 - a**-2)
    return math.acos(math.sqrt(cos2))


@dataclass(frozen=True)
class Circle:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))


@dataclass(frozen=True)
class HalfEllipse:
    """Ellipse lobe active on one side of the docking axis.

    Local frame: x' along the docking normal (target +x face), y' lateral.
    semi_minor lies along x', semi_major along y'.  The lobe constrains points
    with side * y' >= 0 only.
    """

    center: np.ndarray
    theta: float          # target attitude = docking-normal angle [rad]
    semi_major: float     # lateral extent [m]
    semi_minor: float     # extent along the normal [m]
    side: int             # +1 or -1

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.side not in (-1, 1):
            raise ValueError("side must be +1 or -1")


@dataclass(frozen=True)
class KosRegion:
    state: KosState
    primitives: tuple = field(default_factory=tuple)


def build_region(state: KosState, target_theta: float, target_pos, cfg: KosConfig) -> KosRegion:
    """Forbidden-region primitives in the inertial frame for the given state."""
    pos = np.asarray(target_pos, dtype=float)
    rs = r_safe(cfg)
    lobes = (
        HalfEllipse(pos, target_theta, rs, rs / 2.0, +1),
        HalfEllipse(pos, target_theta, rs, rs / 2.0, -1),
    )
    if state is KosState.STATE_I:
        return KosRegion(state, (Circle(pos, rs),) + lobes)
    return KosRegion(state, lobes)


def classify(chaser: BodyState, target_theta: float, target_pos, cfg: KosConfig) -> KosState:
    """State II iff the chaser is in front of the docking face, within the
    angular threshold of its normal, and inside the distance threshold."""
    rel = chaser.position - np.asarray(target_pos, dtype=float)
    dist = float(np.linalg.norm(rel))
    if dist <= 1e-12:
        return KosState.STATE_I
    normal = np.array([math.cos(target_theta), math.sin(target_theta)])
    along = float(rel @ normal)
    if along <= 0.0:
        return KosState.STATE_I
    dev = math.acos(min(1.0, max(-1.0, along / dist)))
    if dev > cfg.angle_threshold:
        return KosState.STATE_I
    if dist > cfg.dist_threshold_factor * r_safe(cfg):
        return KosState.STATE_I
    return KosState.STATE_II


def classify_batch(points, target_thetas, target_pos, cfg: KosConfig) -> np.ndarray:
    """Vectorized classify over a trajectory; returns KosState values (ints)."""
    pts = np.asarray(points, dtype=float)
    th = np.asarray(target_thetas, dtype=float)
    rel = pts - np.asarray(target_pos, dtype=float)
    dist = np.hypot(rel[:, 0], rel[:, 1])
    along = np.cos(th) * rel[:, 0] + np.sin(th) * rel[:, 1]
    with np.errstate(invalid="ignore"):
        dev = np.arccos(np.clip(along / np.maximum(dist, 1e-300), -1.0, 1.0))
    ok = (dist > 1e-12) & (along > 0.0) & (dev <= cfg.angle_threshold) \
        & (dist <= cfg.dist_threshold_factor * r_safe(cfg))
    return np.where(ok, KosState.STATE_II.value, KosState.STATE_I.value)


def ellipse_distance(qx, qy, ax: float, ay: float):
    """Signed Euclidean distance from point(s) to an axis-aligned ellipse.

    Negative inside.  Vectorized bisection on the Lagrange parameter of the
    nearest-point conditions; zero components are nudged by ~1e-14 so the
    on-axis/evolute degeneracies resolve to the correct off-axis foot point.
    """
    qx = np.abs(np.asarray(qx, dtype=float))
    qy = np.abs(np.asarray(qy, dtype=float))
    scale = max(ax, ay)
    tiny = 1e-14 * scale
    qx = np.maximum(qx, tiny)
    qy = np.maximum(qy, tiny)
    inside = (qx / ax) ** 2 + (qy / ay) ** 2 < 1.0

    # Bisect in u = t + min(ax,ay)^2, the distance from the Lagrange-parameter
    # pole, so deep-inside points keep full floating-point resolution.
    # F(u=0) -> +inf is known analytically and never evaluated.
    m2 = min(ax, ay) ** 2
    dax = ax**2 - m2
    day = ay**2 - m2
    lo = np.zeros(qx.shape)
    hi = np.maximum(math.sqrt(2) * ax * qx, math.sqrt(2) * ay * qy) + scale**2 + m2
    with np.errstate(over="ignore", divide="ignore"):
        for _ in range(110):
            mid = 0.5 * (lo + hi)
            f = (ax * qx / (mid + dax)) ** 2 + (ay * qy / (mid + day)) ** 2 - 1.0
            take_hi = f > 0
            lo = np.where(take_hi, mid, lo)
            hi = np.where(take_hi, hi, mid)
    u = 0.5 * (lo + hi)
    sx = ax**2 * qx / (u + dax)
    sy = ay**2 * qy / (u + day)
    dist = np.hypot(qx - sx, qy - sy)
    return np.where(inside, -dist, dist)


def _lobe_frame(points: np.ndarray, lobe: HalfEllipse):
    return target_frame(points[..., 0], points[..., 1], math.cos(lobe.theta),
                        math.sin(lobe.theta), lobe.center)


def signed_distance(chaser_pos, region: KosRegion) -> float:
    """Exact audit distance: min over active primitives, negative if forbidden."""
    p = np.asarray(chaser_pos, dtype=float)
    best = math.inf
    for prim in region.primitives:
        if isinstance(prim, Circle):
            g = float(np.linalg.norm(p - prim.center)) - prim.radius
        else:
            xp, yp = _lobe_frame(p[None, :], prim)
            if prim.side * yp[0] < 0.0:
                continue
            g = float(ellipse_distance(xp, yp, prim.semi_minor, prim.semi_major)[0])
        best = min(best, g)
    return best


def signed_distance_batch(points, target_thetas, states, target_pos, cfg: KosConfig) -> np.ndarray:
    """Vectorized exact distances for a trajectory history.

    points: (n, 2); target_thetas: (n,); states: (n,) of KosState (or int value).
    """
    pts = np.asarray(points, dtype=float)
    th = np.asarray(target_thetas, dtype=float)
    sv = np.array([s.value if isinstance(s, KosState) else int(s) for s in np.atleast_1d(states)])
    pos = np.asarray(target_pos, dtype=float)
    rs = r_safe(cfg)

    rel = pts - pos
    c, s = np.cos(th), np.sin(th)
    xp = c * rel[:, 0] + s * rel[:, 1]
    yp = -s * rel[:, 0] + c * rel[:, 1]
    # both lobes share the ellipse; the active one is simply the side the
    # point is on, so one distance evaluation covers them (axis: both active)
    lobe = ellipse_distance(xp, yp, rs / 2.0, rs)
    circle = np.hypot(rel[:, 0], rel[:, 1]) - rs
    g = np.where(sv == KosState.STATE_I.value, np.minimum(circle, lobe), lobe)
    return g


# ---------------------------------------------------------------------------
# Smooth constraint forms for the optimizer (raw implicit quadratics; same
# zero sets as the exact definitions above).

def circle_value(px, py, center, radius: float):
    """g = |p-c|^2 - r^2, the value of smooth_circle."""
    dx = px - center[0]
    dy = py - center[1]
    return dx * dx + dy * dy - radius * radius


def smooth_circle(px, py, center, radius: float):
    """g = |p-c|^2 - r^2 with gradient; Hessian is 2*I."""
    return circle_value(px, py, center, radius), 2.0 * (px - center[0]), 2.0 * (py - center[1])


def target_frame(px, py, cos_th, sin_th, center):
    """Point(s) in the target frame: x' along the docking normal, y' lateral."""
    rx = px - center[0]
    ry = py - center[1]
    return cos_th * rx + sin_th * ry, -sin_th * rx + cos_th * ry


def lobe_value(xp, yp, a_lat: float, b_norm: float, side):
    """Blended half-ellipse value at target-frame coordinates (xp, yp).

    On the active side this is the raw implicit (x'/b)^2 + (y'/a)^2 - 1; past
    the docking axis the constraint releases smoothly over BLEND_BAND through
    a smoothstep blend.  smooth_lobe returns exactly this value.
    """
    e = (xp / b_norm) ** 2 + (yp / a_lat) ** 2 - 1.0
    tc = np.clip(-side * yp / BLEND_BAND, 0.0, 1.0)
    return e + RELEASE_SLACK * (tc * tc * (3.0 - 2.0 * tc))


def smooth_lobe(px, py, cos_th, sin_th, center, a_lat: float, b_norm: float, side):
    """lobe_value at inertial point(s) with its gradient and 2x2 Hessian.

    cos_th, sin_th are the cosine and sine of the target attitude.
    """
    c, s = cos_th, sin_th
    xp, yp = target_frame(px, py, c, s, center)
    val = lobe_value(xp, yp, a_lat, b_norm, side)

    # smoothstep derivatives, zero outside the open blend band
    t = -side * yp / BLEND_BAND
    tc = np.clip(t, 0.0, 1.0)
    band = (t > 0.0) & (t < 1.0)
    dblend = np.where(band, 6.0 * tc * (1.0 - tc), 0.0)
    ddblend = np.where(band, 6.0 - 12.0 * tc, 0.0)

    # gradients of the local coordinates: dxp = (c, s), dyp = (-s, c)
    de_dxp = 2.0 * xp / b_norm**2
    de_dyp = 2.0 * yp / a_lat**2
    dv_dyp = de_dyp + RELEASE_SLACK * dblend * (-side / BLEND_BAND)
    gx = de_dxp * c + dv_dyp * (-s)
    gy = de_dxp * s + dv_dyp * c

    h_xpxp = 2.0 / b_norm**2
    h_ypyp = 2.0 / a_lat**2 + RELEASE_SLACK * ddblend / BLEND_BAND**2
    hxx = h_xpxp * c * c + h_ypyp * s * s
    hxy = (h_xpxp - h_ypyp) * c * s
    hyy = h_xpxp * s * s + h_ypyp * c * c
    return val, gx, gy, hxx, hxy, hyy
