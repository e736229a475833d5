"""Dynamic keep-out zone around the rotating target: every rule of it.

States.  A point's zone is in one of two states, KosState values 1 and 2;
a schedule of states, per knot or per step, is an int array of them.

Shapes.  Both are rigidly attached to the target frame (x' along the
docking normal, y' lateral; target_frame).  State I, general approach, is
the circle of radius r_safe, the worst-case corner-to-corner separation
plus margin.  State II, final approach, is the ellipse of ellipse_axes:
semi-major r_safe lateral, semi-minor r_safe / 2 along the normal.  Its two
halves are the lobes that flank the docking corridor, and it lies inside
the circle, so State II only ever shrinks the zone.

Switch and latch.  classify puts a point in State II iff it is in front of
the docking face, within the angle threshold of its normal and within the
distance threshold; latch holds State II from the first such point,
delay entries later, to the end, so the zone is never re-inflated.
schedule is the one place that combines the two.  The planner latches its
pass-2 schedule a confirmation window late (auto_latch_delay, in seconds);
the audit latches with no delay.

Distances.  signed_distance_batch gives the exact audit-grade signed
distance to the zone in force, negative inside.

Planner rows.  KnotRows holds one smooth row per knot, with the zero set of
the exact shape: the circle's implicit |p - c|^2 - r_safe^2 at the State I
knots, which come first, and the ellipse's (x'/b)^2 + (y'/a)^2 - 1 at the
State II knots.  Nothing else can bind at either.  KnotRows.full gives the
values with their gradients, KnotRows.values the values alone, bit for bit
the same.
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


def ellipse_axes(cfg: KosConfig) -> tuple[float, float]:
    """(a, b) of the State II ellipse: semi-major a = r_safe lateral,
    semi-minor b = r_safe / 2 along the docking normal."""
    rs = r_safe(cfg)
    return rs, rs / 2.0


def corner_safe_angle_threshold(cfg: KosConfig) -> float:
    """Largest off-axis angle at which the lobe boundary stays corner-safe.

    The chaser center riding the State II ellipse boundary at angle phi from
    the docking normal sits at radius r(phi); the corner circumscribing
    circles (radii l_s/sqrt2 and l_t/sqrt2) stay apart iff r(phi) >= their
    radius sum.  The boundary radius grows monotonically from semi-minor
    (on-axis) to semi-major (broadside), so the first-touch angle is closed
    form.
    """
    a, b = ellipse_axes(cfg)
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
    th = np.asarray(target_thetas, dtype=float)
    rel = np.asarray(points, dtype=float) - np.asarray(target_pos, dtype=float)
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
    out = np.full(len(states), KosState.STATE_I)
    hits = np.flatnonzero(np.asarray(states) == KosState.STATE_II)
    if len(hits):
        out[hits[0] + delay:] = KosState.STATE_II
    return out


def schedule(points, times, target, cfg: KosConfig, delay: int) -> np.ndarray:
    """The zone's states along a trajectory, as latch returns them: each
    point classified against target (a dynamics.TargetState) at its entry
    of the array times, then latched delay entries late."""
    return latch(classify(points, target.attitude(times), target.position, cfg), delay)


def auto_latch_delay(cfg: KosConfig, omega: float) -> float:
    """The planner's "auto" latch delay [s] at target spin rate omega: a
    confirmation window scaled to the gate-crossing timescale, so slow
    approaches get a solid debounce and fast spins still engage."""
    return 0.0 if omega == 0.0 else min(5.0, 0.5 * cfg.angle_threshold / abs(omega))


def ellipse_distance(qx, qy, ax: float, ay: float):
    """Signed Euclidean distance from point(s) to an axis-aligned ellipse.

    Negative inside.  Vectorized bisection on the Lagrange parameter of the
    nearest-point conditions; zero components are nudged by ~1e-14 so the
    on-axis/evolute degeneracies resolve to the correct off-axis foot point.
    """
    scale = max(ax, ay)
    tiny = 1e-14 * scale
    qx = np.maximum(np.abs(np.asarray(qx, dtype=float)), tiny)
    qy = np.maximum(np.abs(np.asarray(qy, dtype=float)), tiny)
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

    A State I point gets the distance to the circle, a State II point the
    distance to the ellipse; only State II points pay for its bisection.
    points: (n, 2); target_thetas: (n,); states: (n,) KosState values.
    """
    pts = np.asarray(points, dtype=float)
    th = np.asarray(target_thetas, dtype=float)
    state_ii = np.asarray(states) == KosState.STATE_II
    pos = np.asarray(target_pos, dtype=float)
    rel = pts - pos
    out = np.hypot(rel[:, 0], rel[:, 1]) - r_safe(cfg)
    # the active lobe is simply the side the point is on, so one distance
    # evaluation covers both (axis: both active)
    p, t = pts[state_ii], th[state_ii]
    xp, yp = target_frame(p[:, 0], p[:, 1], np.cos(t), np.sin(t), pos)
    a, b = ellipse_axes(cfg)
    out[state_ii] = ellipse_distance(xp, yp, b, a)
    return out


# ---------------------------------------------------------------------------
# Smooth constraint forms for the optimizer (raw implicit quadratics; same
# zero sets as the exact definitions above).

def circle_value(px, py, center, radius: float):
    """g = |p-c|^2 - r^2, the value of smooth_circle."""
    dx, dy = px - center[0], py - center[1]
    return dx * dx + dy * dy - radius * radius


def smooth_circle(px, py, center, radius: float):
    """g = |p-c|^2 - r^2 with its gradient, as (g, gx, gy)."""
    return circle_value(px, py, center, radius), 2.0 * (px - center[0]), 2.0 * (py - center[1])


def target_frame(px, py, cos_th, sin_th, center):
    """Point(s) in the target frame: x' along the docking normal, y' lateral."""
    rx, ry = px - center[0], py - center[1]
    return cos_th * rx + sin_th * ry, -sin_th * rx + cos_th * ry


def lobe_value(xp, yp, a_lat: float, b_norm: float):
    """The State II implicit e = (x'/b)^2 + (y'/a)^2 - 1 at target-frame
    coordinates (xp, yp), the value of smooth_lobe.

    Its zero set is the ellipse whose halves are the two lobes, so the one
    row e >= 0 keeps a point out of both.
    """
    return (xp / b_norm) ** 2 + (yp / a_lat) ** 2 - 1.0


def smooth_lobe(px, py, c, s, center, a_lat: float, b_norm: float):
    """lobe_value at inertial point(s) with its gradient, as (g, gx, gy).

    c, s are the cosine and sine of the target attitude.
    """
    xp, yp = target_frame(px, py, c, s, center)
    # gradients of the local coordinates: dxp = (c, s), dyp = (-s, c)
    de_dxp, de_dyp = 2.0 * xp / b_norm**2, 2.0 * yp / a_lat**2
    return lobe_value(xp, yp, a_lat, b_norm), de_dxp * c + de_dyp * (-s), de_dxp * s + de_dyp * c


class KnotRows:
    """The planner's keep-out rows over a sequence of knots, one per knot.

    times are the knots' times [s].  schedule holds KosState values, State
    I first, whose first len(times) entries are the knots' states; or it is
    None for all State I.  The first switch knots, the State I ones, get the
    circle row, the rest the ellipse row at the target attitude of their
    time.
    """

    def __init__(self, schedule, times, target, cfg: KosConfig):
        self.switch = len(times) if schedule is None else int(
            np.count_nonzero(schedule[:len(times)] == KosState.STATE_I))
        th = target.attitude(times[self.switch:])
        self.cos, self.sin = np.cos(th), np.sin(th)
        self.center = target.position
        self.r = r_safe(cfg)
        self.a, self.b = ellipse_axes(cfg)

    def full(self, xs, ys):
        """The rows' values and gradients at knot positions (xs, ys), as
        (g, gx, gy)."""
        s = self.switch
        g, gx, gy = np.empty((3, len(xs)))
        g[:s], gx[:s], gy[:s] = smooth_circle(xs[:s], ys[:s], self.center, self.r)
        if s < len(xs):  # no ellipse row on pass 1: skip the empty pass
            g[s:], gx[s:], gy[s:] = smooth_lobe(xs[s:], ys[s:], self.cos, self.sin,
                                                self.center, self.a, self.b)
        return g, gx, gy

    def values(self, xs, ys):
        """The rows' values alone; bit for bit full(xs, ys)[0]."""
        s = self.switch
        g = np.empty(len(xs))
        g[:s] = circle_value(xs[:s], ys[:s], self.center, self.r)
        if s < len(xs):
            xp, yp = target_frame(xs[s:], ys[s:], self.cos, self.sin, self.center)
            g[s:] = lobe_value(xp, yp, self.a, self.b)
        return g
