import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import lsq_linear

from proxdock import harness, kos, optimizer
from proxdock.controller import PdGains
from proxdock.dynamics import (BodyParams, TargetState, default_layout, effective_ridge,
                               wrap_angle)
from proxdock.kos import KosConfig, KosState, r_safe
from proxdock.nlp import SolverStats
from proxdock.optimizer import OptProblem, PlannedTrajectory, plan
from proxdock.sim import (ConfigMisaligned, SimConfig, audit_safety,
                          kos_distance_series, relative_velocity_target_frame,
                          run, steps_per_period)


def state(x=0.0, y=0.0, theta=0.0, vx=0.0, vy=0.0, omega=0.0):
    return np.array([x, y, theta, vx, vy, omega])


def stationary_plan(pose=state(x=1.0), n=50):
    """A hold-in-place plan used for controller-free checks."""
    states = np.tile(pose, (n + 1, 1))
    return PlannedTrajectory(
        times=np.arange(n + 1) * 0.1, states=states, wrenches=np.zeros((n, 3)),
        objective_value=0.0, objective_breakdown=(0.0, 0.0, 0.0),
        kos_states=np.full(n + 1, KosState.STATE_I),
        solver_stats=SolverStats(message="synthetic"),
        x_goal=pose.copy(), theta_finish=pose[2], dt=0.1)


def relative_velocity_one(chaser, target_theta, target_omega, target_pos):
    """Target-frame velocity of one chaser state, with the target at target_theta."""
    target = TargetState(omega=target_omega, theta0=target_theta,
                         x=target_pos[0], y=target_pos[1])
    return relative_velocity_target_frame(chaser[None, :], np.zeros(1), target)[0]


def reference_run(plan, cfg):
    """sim.run written out from its definition as a scalar loop.

    Per control period: error ref - x (attitude wrapped), PD wrench plus the
    knot's feed-forward wrench, rotation to the body frame, duty from the
    box-bounded least squares (pseudoinverse when inside the box, else BVLS
    with the ridge), and round(u n_slots) ON slots from the start.  Per slot:
    the body wrench (B u) f_max of the true layout.  Per physics step: that
    wrench rotated to the inertial frame plus the period's disturbance, then
    one forward-Euler step.  Returns (states, firings, errors).
    """
    spp = steps_per_period(cfg.physics_dt, cfg.control_hz, cfg.n_slots)
    period = 1.0 / cfg.control_hz
    horizon = float(plan.times[-1])
    n_periods = max(1, int(round((horizon + cfg.tail) * cfg.control_hz)))
    rng = np.random.default_rng(cfg.seed)
    fm = fi = ft = 1.0
    if cfg.mismatch_fraction:
        fm, fi, ft = 1.0 + cfg.mismatch_fraction * rng.uniform(-1.0, 1.0, 3)
    mass, inertia = cfg.body.mass * fm, cfg.body.inertia * fi
    B = cfg.layout.effectiveness_matrix()
    A = B * cfg.layout.f_max
    f_true = cfg.layout.f_max * ft
    g, dt, n = cfg.gains, cfg.physics_dt, cfg.n_slots
    x = [float(v) for v in plan.states[0]]
    states, firings, errors = [x], [], []
    for j in range(n_periods):
        t = j * period
        ff = None
        if t <= horizon + 1e-9:
            k = min(int(math.floor(t / plan.dt + 1e-9)), plan.N)
            ref = [float(v) for v in plan.states[k]]
            if cfg.feed_forward and k < plan.N:
                ff = [float(v) for v in plan.wrenches[k]]
        else:
            ref = [float(v) for v in plan.states[-1, :3]] + [0.0, 0.0, 0.0]
        e = [ref[i] - x[i] for i in range(6)]
        e[2] = wrap_angle(e[2])
        errors.append(e)
        w = [g.kp_pos * e[0] + g.kd_pos * e[3], g.kp_pos * e[1] + g.kd_pos * e[4],
             g.kp_att * e[2] + g.kd_att * e[5]]
        if ff is not None:
            w = [w[i] + ff[i] for i in range(3)]
        c, s = math.cos(x[2]), math.sin(x[2])
        w_body = np.array([c * w[0] + s * w[1], -s * w[0] + c * w[1], w[2]])
        u = np.linalg.pinv(A) @ w_body
        if np.any(u < -1e-12) or np.any(u > 1.0 + 1e-12):
            aug = np.vstack([A, math.sqrt(effective_ridge(A)) * np.eye(8)])
            u = lsq_linear(aug, np.concatenate([w_body, np.zeros(8)]),
                           bounds=(0.0, 1.0), method="bvls").x
        u = np.clip(u, 0.0, 1.0)
        on = [round(float(ui) * n) for ui in u]
        if cfg.disturbance_accel:
            da = rng.uniform(-cfg.disturbance_accel, cfg.disturbance_accel, 3)
            dist = [mass * da[0], mass * da[1], inertia * da[2]]
        else:
            dist = [0.0, 0.0, 0.0]
        for slot in range(n):
            fired = [1 if slot < k_on else 0 for k_on in on]
            firings.append(fired)
            wb = (B @ np.array(fired, dtype=float)) * f_true
            for _ in range(spp // n):
                c, s = math.cos(x[2]), math.sin(x[2])
                fx, fy, tau = c * wb[0] - s * wb[1], s * wb[0] + c * wb[1], wb[2]
                if cfg.disturbance_accel:
                    fx, fy, tau = fx + dist[0], fy + dist[1], tau + dist[2]
                x = [x[0] + x[3] * dt, x[1] + x[4] * dt, x[2] + x[5] * dt,
                     x[3] + fx / mass * dt, x[4] + fy / mass * dt, x[5] + tau / inertia * dt]
                states.append(x)
    return np.array(states), np.array(firings, dtype=np.int8).T, np.array(errors)


@pytest.fixture(scope="module")
def nominal():
    body = BodyParams()
    target = TargetState(omega=0.1)
    template_kw = dict(N=2, dt=0.1, x_init=state(x=1.0), theta_finish=0.0,
                       x_goal=state(), target=target, body=body,
                       kos_cfg=KosConfig())
    from proxdock.optimizer import OptProblem
    best, _ = plan(3 * math.pi / 4, OptProblem(**template_kw), max_candidates=2)
    return best, target


class TestRelativeVelocity:
    def test_corotating_chaser_has_zero(self):
        om, r = 0.3, 0.8
        chaser = state(x=r, y=0.0, vx=0.0, vy=om * r)
        v = relative_velocity_one(chaser, 0.7, om, [0, 0])
        np.testing.assert_allclose(v, [0, 0], atol=1e-15)

    def test_static_target_plain_rotation(self):
        chaser = state(x=1.0, vx=0.2, vy=-0.1)
        v = relative_velocity_one(chaser, math.pi / 2, 0.0, [0, 0])
        np.testing.assert_allclose(v, [-0.1, -0.2], atol=1e-15)

    def test_finite_difference_oracle(self):
        # criterion: d/dt of the target-frame position matches to 1e-6
        rng = np.random.default_rng(12)
        for _ in range(50):
            om = rng.uniform(-1, 1)
            pos = rng.uniform(-1, 1, 2)
            th0 = rng.uniform(-3, 3)
            s = np.concatenate([rng.uniform(-1, 1, 3), rng.uniform(-0.5, 0.5, 3)])
            v = relative_velocity_one(s, th0, om, pos)
            h = 1e-6

            def frame_pos(t):
                th = th0 + om * t
                p = np.array([s[0] + s[3] * t, s[1] + s[4] * t]) - pos
                c, si = math.cos(th), math.sin(th)
                return np.array([c * p[0] + si * p[1], -si * p[0] + c * p[1]])

            fd = (frame_pos(h) - frame_pos(-h)) / (2 * h)
            np.testing.assert_allclose(v, fd, atol=1e-6)


class TestRunBasics:
    def test_config_misalignment_raises(self):
        for cfg in (SimConfig(physics_dt=0.03), SimConfig(n_slots=7)):
            with pytest.raises(ConfigMisaligned):
                steps_per_period(cfg.physics_dt, cfg.control_hz, cfg.n_slots)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_state_rejected(self):
        # at rest on the reference nothing fires; the coasting position
        # overflows to inf within the single control period
        p = stationary_plan(state(x=1.7e308, vx=1.7e308))
        with pytest.raises(ValueError, match="finite"):
            run(p, SimConfig(duration=0.1), TargetState(omega=0.0))

    def test_rest_plan_zero_firings_zero_error(self):
        p = stationary_plan(state(x=1.0))
        res = run(p, SimConfig(tail=1.0), TargetState(omega=0.1))
        assert res.firings.sum() == 0
        assert res.terminal_position_error == 0.0
        np.testing.assert_array_equal(res.states[0], res.states[-1])

    def test_momentum_conservation_without_thrust(self):
        # drifting plan, zero gains won't fire: velocities stay bit-identical
        p = stationary_plan(state(x=5.0, vx=0.01, vy=-0.02, omega=0.03))
        gains = PdGains(0.0, 0.0, 1e-30, 0.0)  # effectively off, still valid
        res = run(p, SimConfig(gains=gains, tail=0.0, feed_forward=False),
                  TargetState(omega=0.0))
        assert res.firings.sum() == 0
        assert np.all(res.states[:, 3] == 0.01)
        assert np.all(res.states[:, 4] == -0.02)
        assert np.all(res.states[:, 5] == 0.03)

    def test_determinism_bit_identical(self, nominal):
        best, target = nominal
        cfg = SimConfig(mismatch_fraction=0.05, disturbance_accel=1e-4, seed=42)
        r1 = run(best, cfg, target)
        r2 = run(best, cfg, target)
        np.testing.assert_array_equal(r1.states, r2.states)
        np.testing.assert_array_equal(r1.firings, r2.firings)
        np.testing.assert_array_equal(r1.kos_distance, r2.kos_distance)
        assert r1.terminal_position_error == r2.terminal_position_error

    def test_matches_reference_loop(self, nominal):
        # bit for bit: the simulator keeps the definition's operation order;
        # f_max = 0.01 saturates the allocation on most control periods
        best, target = nominal
        for cfg in (SimConfig(mismatch_fraction=0.05, disturbance_accel=1e-4, seed=3),
                    SimConfig(feed_forward=False), SimConfig(layout=default_layout(f_max=0.01))):
            res = run(best, cfg, target)
            states, firings, errors = reference_run(best, cfg)
            assert np.array_equal(res.states, states)
            assert np.array_equal(res.firings, firings)
            assert np.array_equal(res.errors, errors)

    def test_seed_changes_disturbed_run(self, nominal):
        best, target = nominal
        r1 = run(best, SimConfig(disturbance_accel=1e-4, seed=1), target)
        r2 = run(best, SimConfig(disturbance_accel=1e-4, seed=2), target)
        assert np.any(r1.states != r2.states)


class TestTracking:
    def test_nominal_tracked_run(self, nominal):
        best, target = nominal
        plan_err = float(np.hypot(*(best.states[-1, :2] - best.x_goal[:2])))
        res = run(best, SimConfig(), target)
        assert res.terminal_position_error <= 2 * plan_err + 0.02
        assert res.terminal_relative_speed <= 0.05
        assert res.min_kos_distance >= -0.005
        assert res.terminal_attitude_error <= 0.01

    def test_impulse_bookkeeping(self):
        # integrated applied force over a period equals sum k_i/n f_max d_i
        # rotated per sub-step; with a non-rotating chaser it is exact
        p = stationary_plan(state(x=1.0))
        target = TargetState(omega=0.0)
        cfg = SimConfig(gains=PdGains(2.0, 8.0, 1e-30, 0.0), tail=0.0)
        res = run(p, cfg, target)
        spp = steps_per_period(cfg.physics_dt, cfg.control_hz, cfg.n_slots)
        layout = cfg.layout
        B = layout.effectiveness_matrix() * layout.f_max
        m = cfg.body.mass
        for j in range(3):
            dv = res.states[(j + 1) * spp, 3:5] - res.states[j * spp, 3:5]
            duty = res.firings[:, j * 10:(j + 1) * 10].sum(axis=1) / 10.0
            expected = (B @ duty)[:2] * (0.1 / m)
            np.testing.assert_allclose(dv, expected, atol=1e-12)

    def test_physics_step_refinement_first_order(self, nominal):
        best, target = nominal
        res1 = run(best, SimConfig(physics_dt=0.01, tail=1.0), target)
        res2 = run(best, SimConfig(physics_dt=0.005, tail=1.0), target)
        d = np.hypot(*(res1.states[-1, :2] - res2.states[-1, :2]))
        assert d < 0.01  # refinement shifts the endpoint by O(physics_dt)

    def test_degraded_gains_run_completes(self, nominal):
        best, target = nominal
        gains = PdGains(0.0, 0.0, 1e-30, 0.0)
        res = run(best, SimConfig(gains=gains, feed_forward=True), target)
        assert math.isfinite(res.terminal_position_error)
        assert res.terminal_position_error > 0.01  # drifts without feedback

    def test_mismatch_still_tracks(self, nominal):
        best, target = nominal
        plan_err = float(np.hypot(*(best.states[-1, :2] - best.x_goal[:2])))
        res = run(best, SimConfig(mismatch_fraction=0.05, seed=3), target)
        assert res.terminal_position_error <= 2 * plan_err + 0.05


class TestAudit:
    def test_far_trajectory_distance(self):
        cfg = KosConfig()
        rs = r_safe(cfg)
        target = TargetState(omega=0.2)
        states = np.zeros((100, 6))
        states[:, 0] = 10 * rs
        times = np.arange(100) * 0.01
        g = kos_distance_series(states, times, target, cfg)
        np.testing.assert_allclose(g, 9 * rs, rtol=1e-9)
        assert audit_safety(states, times, target, cfg) == pytest.approx(9 * rs, rel=1e-9)

    def test_interior_step_flagged(self):
        cfg = KosConfig()
        target = TargetState(omega=0.0)
        states = np.zeros((10, 6))
        states[:, 0] = 2.0
        states[5, 0] = 0.1  # one step dives inside the keep-out circle
        times = np.arange(10) * 0.01
        assert audit_safety(states, times, target, cfg) < 0

    def test_latched_relaxation_persists(self):
        # once the approach conditions held, parking at the dock stays legal
        cfg = KosConfig()
        target = TargetState(omega=0.1)
        dock = 0.35
        states = np.zeros((400, 6))
        states[:, 0] = dock
        times = np.arange(400) * 0.01  # normal sweeps away after ~2.2 s
        g = kos_distance_series(states, times, target, cfg)
        assert g[0] > 0
        assert np.min(g) > 0


def test_plan_and_audit_share_the_switch_rule(monkeypatch):
    # one rule, kos.schedule, classifies and latches for both.  The nominal
    # plan (the defaults of `python -m proxdock plan`) latches its pass-1
    # knots round(latch_delay / dt) knots late, the "auto" delay of
    # kos.auto_latch_delay, and the audit grades with no delay.  So on the
    # same knots the plan's zone switches that many knots after the audit's:
    # up to 5 s, the gap this test pins.
    cfg = harness.load_config(None)
    template = cfg.opt_template()
    kcfg, target, dt = template.kos_cfg, template.target, template.dt
    assert cfg["opt.latch_delay"] == "auto"
    pass1 = []
    real = optimizer.solve

    def spy(problem, initial_guess=None, **kwargs):
        sol = real(problem, initial_guess, **kwargs)
        if initial_guess is None:
            pass1.append(sol)
        return sol

    monkeypatch.setattr(optimizer, "solve", spy)
    best, _ = plan(cfg["opt.theta_approach"], template, **cfg.plan_kwargs())
    assert best.pass2 is not None and best.pass2.message == "converged"
    (sol,) = [s for s in pass1 if s.N == best.N]
    pts = sol.states[:, :2]
    delay = round(kos.auto_latch_delay(kcfg, target.omega) / dt)
    planned = kos.schedule(pts, sol.times, target, kcfg, delay)
    assert planned.tobytes() == best.kos_states.tobytes()

    audited = kos.schedule(pts, sol.times, target, kcfg, 0)
    g = kos.signed_distance_batch(pts, target.attitude(sol.times), audited, target.position, kcfg)
    assert kos_distance_series(sol.states, sol.times, target, kcfg).tobytes() == g.tobytes()

    first = [int(np.argmax(s == KosState.STATE_II)) for s in (planned, audited)]
    assert 0 < delay <= round(5.0 / dt)
    assert first[0] - first[1] == delay
