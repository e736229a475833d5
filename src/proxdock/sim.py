"""Deterministic closed-loop simulator.

Propagates the chaser at the physics step under binary PWM firings, runs the
controller at the control rate against the planned knots (zero-order hold),
and evaluates tracking, terminal and safety metrics.  Optional seeded model
mismatch (mass/inertia/thrust) and bounded disturbance accelerations emulate
plant/controller discrepancies; everything is reproducible from the seed.
The chaser state is a float array [x, y, theta, vx, vy, omega] and every
wrench a float array [Fx, Fy, tau] throughout (see `dynamics`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kos as koslib
from .controller import (PdGains, body_to_world, continuous_duty, pwm_schedule,
                         tracking_error)
from .dynamics import (BodyParams, TargetState, ThrusterLayout, default_layout,
                       euler_step, total_wrench)
from .kos import KosConfig
from .optimizer import PlannedTrajectory, terminal_errors


class ConfigMisaligned(ValueError):
    """physics_dt, control rate and PWM slots do not divide evenly."""


def steps_per_period(physics_dt: float, control_hz: float, n_slots: int) -> int:
    """Physics steps per control period; ConfigMisaligned unless the period is
    a whole number of physics steps that n_slots PWM slots divide evenly."""
    period = 1.0 / control_hz
    n = period / physics_dt
    if abs(n - round(n)) > 1e-9 * max(1.0, n):
        raise ConfigMisaligned(f"control period {period} not a multiple of physics_dt")
    n = int(round(n))
    if n % n_slots != 0:
        raise ConfigMisaligned(f"n_slots={n_slots} does not divide {n} steps/period")
    return n


@dataclass(frozen=True)
class SimConfig:
    body: BodyParams = field(default_factory=BodyParams)
    layout: ThrusterLayout = field(default_factory=default_layout)
    gains: PdGains = field(default_factory=PdGains)
    physics_dt: float = 0.01
    control_hz: float = 10.0
    n_slots: int = 10
    duration: float | None = None     # None -> plan horizon + tail
    tail: float = 5.0                 # station-keeping time after the horizon [s]
    feed_forward: bool = True
    mismatch_fraction: float = 0.0    # +-fraction on mass, inertia, f_max
    disturbance_accel: float = 0.0    # bound on random accelerations [m/s^2, rad/s^2]
    seed: int = 0
    kos_cfg: KosConfig | None = None  # None -> built from body/target sides

    def steps_per_period(self) -> int:
        return steps_per_period(self.physics_dt, self.control_hz, self.n_slots)


@dataclass
class SimResult:
    times: np.ndarray            # physics-rate stamps, (n_steps+1,)
    states: np.ndarray           # (n_steps+1, 6)
    slot_times: np.ndarray       # start time of each PWM slot
    firings: np.ndarray          # (8, n_slots_total) of 0/1
    errors: np.ndarray           # (n_periods, 6) tracking errors
    relative_velocity: np.ndarray  # (n_steps+1, 2) target-frame
    kos_distance: np.ndarray     # (n_steps+1,) exact signed distance
    terminal_position_error: float
    terminal_attitude_error: float
    terminal_relative_speed: float
    min_kos_distance: float


def relative_velocity_target_frame(states, times, target: TargetState) -> np.ndarray:
    """Chaser velocities seen by an observer rotating with the target, (n, 2)."""
    th = target.attitude(times)
    rel = states[:, :2] - target.position
    vx = states[:, 3] + target.omega * rel[:, 1]
    vy = states[:, 4] - target.omega * rel[:, 0]
    c, s = np.cos(th), np.sin(th)
    return np.column_stack([c * vx + s * vy, -s * vx + c * vy])


def kos_distance_series(states, times, target: TargetState, cfg: KosConfig) -> np.ndarray:
    """Exact signed distance at every step, classification latched (kos.latch)."""
    th = target.attitude(np.asarray(times, dtype=float))
    pts = np.asarray(states, dtype=float)[:, :2]
    sv = koslib.latch(koslib.classify(pts, th, target.position, cfg))
    return koslib.signed_distance_batch(pts, th, sv, target.position, cfg)


def audit_safety(states, times, target: TargetState, cfg: KosConfig) -> float:
    """Minimum exact keep-out distance over a state history."""
    return float(np.min(kos_distance_series(states, times, target, cfg)))


def run(plan: PlannedTrajectory, cfg: SimConfig, target: TargetState) -> SimResult:
    """Track a converged plan with PWM thrusters; deterministic for a seed.

    Per control period the controller allocates a duty (`allocate_duty`)
    and PWM turns it into slots; each slot applies its ON/OFF firing column
    to the true layout.  A slot's body wrench is recomputed only when its
    firing column differs from the previous slot's, and each
    physics step is one `euler_step` on plain floats.
    """
    if not plan.converged:
        raise ValueError("refusing to track a non-converged plan")
    spp = cfg.steps_per_period()
    steps_per_slot = spp // cfg.n_slots
    period = 1.0 / cfg.control_hz
    horizon = float(plan.times[-1])
    duration = cfg.duration if cfg.duration is not None else horizon + cfg.tail
    n_periods = max(1, int(round(duration * cfg.control_hz)))
    n_steps = n_periods * spp

    rng = np.random.default_rng(cfg.seed)
    if cfg.mismatch_fraction:
        fm, fi, ft = 1.0 + cfg.mismatch_fraction * rng.uniform(-1.0, 1.0, 3)
    else:
        fm = fi = ft = 1.0
    body_true = BodyParams(cfg.body.mass * fm, cfg.body.inertia * fi, cfg.body.side_length)
    layout_true = ThrusterLayout(cfg.layout.positions, cfg.layout.directions,
                                 cfg.layout.f_max * ft)

    kos_cfg = cfg.kos_cfg or KosConfig(l_s=cfg.body.side_length, l_t=target.side_length)

    times = np.arange(n_steps + 1) * cfg.physics_dt
    states = np.empty((n_steps + 1, 6))
    firings = np.zeros((8, n_periods * cfg.n_slots), dtype=np.int8)
    slot_times = np.arange(n_periods * cfg.n_slots) * (period / cfg.n_slots)
    errors = np.empty((n_periods, 6))

    state = plan.states[0].tolist()
    states[0] = state
    step = 0
    rest = np.concatenate([plan.states[-1, :3], np.zeros(3)])
    applied = None  # bytes of the firing column whose body wrench w_body holds
    for j in range(n_periods):
        t = j * period
        if t <= horizon + 1e-9:
            kref = min(int(math.floor(t / plan.dt + 1e-9)), plan.N)
            ref = plan.states[kref]
            ff = plan.wrenches[kref] if (cfg.feed_forward and kref < plan.N) else None
        else:
            # tail: hold the final pose at rest so station-keeping settles
            ref, ff = rest, None
        errors[j] = e = tracking_error(ref, state)
        duty = continuous_duty(e, state[2], cfg.gains, cfg.layout, feed_forward=ff)
        pattern = pwm_schedule(duty, cfg.n_slots)
        firings[:, j * cfg.n_slots:(j + 1) * cfg.n_slots] = pattern
        if cfg.disturbance_accel:
            da = rng.uniform(-cfg.disturbance_accel, cfg.disturbance_accel, 3).tolist()
            dist_w = (body_true.mass * da[0], body_true.mass * da[1], body_true.inertia * da[2])
        else:
            dist_w = None
        for fired in pattern.T:
            key = fired.tobytes()
            if key != applied:
                w_body, applied = total_wrench(fired, layout_true).tolist(), key
            for _ in range(steps_per_slot):
                w_world = body_to_world(w_body, state[2])
                if dist_w is not None:
                    w_world = (w_world[0] + dist_w[0], w_world[1] + dist_w[1],
                               w_world[2] + dist_w[2])
                state = euler_step(state, w_world, body_true, cfg.physics_dt)
                step += 1
                states[step] = state
    if not np.all(np.isfinite(states)):
        raise ValueError("simulated chaser state is not finite")

    relvel = relative_velocity_target_frame(states, times, target)
    g = kos_distance_series(states, times, target, kos_cfg)
    pos_err, att_err = terminal_errors(plan, states[-1])
    return SimResult(
        times=times,
        states=states,
        slot_times=slot_times,
        firings=firings,
        errors=errors,
        relative_velocity=relvel,
        kos_distance=g,
        terminal_position_error=pos_err,
        terminal_attitude_error=att_err,
        terminal_relative_speed=float(np.hypot(*relvel[-1])),
        min_kos_distance=float(np.min(g)),
    )
