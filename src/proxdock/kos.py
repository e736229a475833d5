"""Dynamic keep-out zone around the rotating target.

Two configurations: "State I" for general approach is a circle of radius
r_safe, and "State II", once the final-approach conditions hold, is two
half-ellipse lobes that flank the docking corridor.  The lobes are halves of
one ellipse inside the circle, so State II only ever shrinks the zone.  All
primitives are rigidly attached to the target frame.  Exact signed distances
here are the audit-grade definitions; the optimizer uses the smooth variants
at the bottom of this module (same zero sets): one implicit quadratic per
state, the circle's or the ellipse's, so one row per knot.  A per-knot or
per-step schedule of states is an int array of KosState values (1 or 2)
throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class KosState(IntEnum):
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


def classify(points, target_thetas, target_pos, cfg: KosConfig) -> np.ndarray:
    """Per-point KosState values over a trajectory, as an int array.

    State II iff the chaser is in front of the docking face, within the
    angular threshold of its normal, and inside the distance threshold.
    """
    pts = np.asarray(points, dtype=float)
    th = np.asarray(target_thetas, dtype=float)
    rel = pts - np.asarray(target_pos, dtype=float)
    dist = np.hypot(rel[:, 0], rel[:, 1])
    along = np.cos(th) * rel[:, 0] + np.sin(th) * rel[:, 1]
    with np.errstate(invalid="ignore"):
        dev = np.arccos(np.clip(along / np.maximum(dist, 1e-300), -1.0, 1.0))
    ok = (dist > 1e-12) & (along > 0.0) & (dev <= cfg.angle_threshold) \
        & (dist <= cfg.dist_threshold_factor * r_safe(cfg))
    return np.where(ok, KosState.STATE_II, KosState.STATE_I)


def latch(states, delay: int = 0) -> np.ndarray:
    """State II from the first State II entry, delay entries later, to the end.

    The final-approach classification latches: once its conditions have held,
    the zone is not re-inflated mid-capture.  states and the result are int
    arrays of KosState values.  A negative delay would let the zone relax
    before its conditions hold, so it is an error.
    """
    if delay < 0:
        raise ValueError(f"latch delay must be non-negative (got {delay})")
    sv = np.asarray(states)
    out = np.full(len(sv), KosState.STATE_I)
    hits = np.flatnonzero(sv == KosState.STATE_II)
    if len(hits):
        out[hits[0] + delay:] = KosState.STATE_II
    return out


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


def signed_distance_batch(points, target_thetas, states, target_pos, cfg: KosConfig) -> np.ndarray:
    """Exact audit distances for a trajectory history, negative if forbidden.

    A State I point gets the distance to the circle of radius r_safe; a
    State II point the distance to the half-ellipse lobes (semi-minor
    r_safe/2 along the docking normal, semi-major r_safe lateral).  Both
    lobes are halves of one ellipse that lies inside the circle, so the
    circle alone is the State I zone, and only State II points pay for the
    ellipse bisection.
    points: (n, 2); target_thetas: (n,); states: (n,) KosState values.
    """
    pts = np.asarray(points, dtype=float)
    th = np.asarray(target_thetas, dtype=float)
    state_ii = np.asarray(states) == KosState.STATE_II
    pos = np.asarray(target_pos, dtype=float)
    rs = r_safe(cfg)

    rel = pts - pos
    out = np.hypot(rel[:, 0], rel[:, 1]) - rs
    # the active lobe is simply the side the point is on, so one distance
    # evaluation covers both (axis: both active)
    p, t = pts[state_ii], th[state_ii]
    xp, yp = target_frame(p[:, 0], p[:, 1], np.cos(t), np.sin(t), pos)
    out[state_ii] = ellipse_distance(xp, yp, rs / 2.0, rs)
    return out


# ---------------------------------------------------------------------------
# Smooth constraint forms for the optimizer (raw implicit quadratics; same
# zero sets as the exact definitions above).

def circle_value(px, py, center, radius: float):
    """g = |p-c|^2 - r^2, the value of smooth_circle."""
    dx = px - center[0]
    dy = py - center[1]
    return dx * dx + dy * dy - radius * radius


def smooth_circle(px, py, center, radius: float):
    """g = |p-c|^2 - r^2 with its gradient, as (g, gx, gy)."""
    return circle_value(px, py, center, radius), 2.0 * (px - center[0]), 2.0 * (py - center[1])


def target_frame(px, py, cos_th, sin_th, center):
    """Point(s) in the target frame: x' along the docking normal, y' lateral."""
    rx = px - center[0]
    ry = py - center[1]
    return cos_th * rx + sin_th * ry, -sin_th * rx + cos_th * ry


def lobe_value(xp, yp, a_lat: float, b_norm: float):
    """The State II implicit e = (x'/b)^2 + (y'/a)^2 - 1 at target-frame
    coordinates (xp, yp), the value of smooth_lobe.

    Its zero set is the ellipse whose halves are the two lobes, so the one
    row e >= 0 keeps a point out of both.
    """
    return (xp / b_norm) ** 2 + (yp / a_lat) ** 2 - 1.0


def smooth_lobe(px, py, cos_th, sin_th, center, a_lat: float, b_norm: float):
    """lobe_value at inertial point(s) with its gradient, as (g, gx, gy).

    cos_th, sin_th are the cosine and sine of the target attitude.
    """
    c, s = cos_th, sin_th
    xp, yp = target_frame(px, py, c, s, center)
    # gradients of the local coordinates: dxp = (c, s), dyp = (-s, c)
    de_dxp = 2.0 * xp / b_norm**2
    de_dyp = 2.0 * yp / a_lat**2
    return lobe_value(xp, yp, a_lat, b_norm), de_dxp * c + de_dyp * (-s), de_dxp * s + de_dyp * c
