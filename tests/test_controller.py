import math

import numpy as np
import pytest

from proxdock import controller
from proxdock.controller import (PdGains, allocate_duty, body_to_world,
                                 continuous_duty, pd_wrench, pwm_schedule,
                                 tracking_error, world_to_body)
from proxdock.dynamics import default_layout, effective_ridge, total_wrench


@pytest.fixture
def layout():
    return default_layout(0.3, 0.03)


def state(x=0.0, y=0.0, theta=0.0, vx=0.0, vy=0.0, omega=0.0):
    return np.array([x, y, theta, vx, vy, omega])


def test_tracking_error_zero():
    s = state(1, 2, 3, 4, 5, 6)
    assert np.all(tracking_error(s, s) == 0)


def test_tracking_error_wraps_attitude():
    e = tracking_error(state(theta=3.5), state(theta=-3.5))
    assert e[2] == pytest.approx(7.0 - 2 * math.pi)
    assert -math.pi < e[2] <= math.pi


def test_tracking_error_velocity_only():
    e = tracking_error(state(vx=0.1, vy=-0.2, omega=0.3), state())
    assert tuple(e[:3]) == (0, 0, 0)
    assert tuple(e[3:]) == (0.1, -0.2, 0.3)


def test_pd_wrench_examples():
    g = PdGains(kp_pos=2.0, kd_pos=0.0, kp_att=0.0, kd_att=1.0)
    e = tracking_error(state(x=1.0), state())
    w = pd_wrench(e, g)
    assert tuple(w) == (2.0, 0.0, 0.0)
    assert pd_wrench(tracking_error(state(), state()), g).sum() == 0


def test_pd_wrench_hand_computed_mixed():
    g = PdGains(1.5, 2.5, 0.7, 0.9)
    e = tracking_error(state(0.2, -0.4, 0.1, 0.05, -0.02, 0.3), state())
    w = pd_wrench(e, g)
    assert w[0] == pytest.approx(1.5 * 0.2 + 2.5 * 0.05)
    assert w[1] == pytest.approx(1.5 * -0.4 + 2.5 * -0.02)
    assert w[2] == pytest.approx(0.7 * 0.1 + 0.9 * 0.3)


def test_pd_wrench_linear_in_error():
    g = PdGains()
    rng = np.random.default_rng(8)
    for _ in range(20):
        e1 = tracking_error(rng.normal(size=6) * 0.1, state())
        e2 = tracking_error(rng.normal(size=6) * 0.1, state())
        a, b = rng.normal(size=2)
        combo = a * e1 + b * e2
        np.testing.assert_allclose(
            pd_wrench(combo, g),
            a * pd_wrench(e1, g) + b * pd_wrench(e2, g),
            atol=1e-14)


def test_world_to_body_identity_and_quarter_turn():
    w = np.array([1.0, 0.0, 0.3])
    assert world_to_body(w, 0.0) == pytest.approx([1, 0, 0.3])
    b = world_to_body(w, math.pi / 2)
    assert b[0] == pytest.approx(0.0, abs=1e-15)
    assert b[1] == pytest.approx(-1.0)
    assert b[2] == 0.3


def test_rotation_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(100):
        w = rng.normal(size=3)
        th = rng.uniform(-10, 10)
        back = body_to_world(world_to_body(w, th), th)
        np.testing.assert_allclose(back, w, atol=1e-12)


class TestAllocation:
    def test_zero_wrench_zero_duty(self, layout):
        u = allocate_duty(np.zeros(3), layout)
        assert np.all(u == 0)
        assert np.all(total_wrench(u, layout) == 0)

    def test_achievable_interior_wrench_reproduced(self, layout):
        rng = np.random.default_rng(21)
        B = layout.effectiveness_matrix() * layout.f_max
        for _ in range(50):
            u0 = rng.uniform(0.2, 0.8, 8)
            w = total_wrench(u0, layout)
            u = allocate_duty(w, layout)
            assert np.linalg.norm(B @ u - w) < 1e-9
            np.testing.assert_allclose(B @ u, w, atol=1e-9)

    def test_saturated_request_hits_bounds(self, layout):
        # 10x beyond the attainable set: some thrusters saturate at 1
        w = np.array([10 * 2 * layout.f_max, 0.0, 0.0])
        u = allocate_duty(w, layout)
        assert np.any(u >= 1.0 - 1e-12)
        assert np.linalg.norm(total_wrench(u, layout) - w) > 0

    def test_kkt_on_full_problem(self, layout):
        # criterion: projected KKT residual of the ridge problem <= 1e-8
        rng = np.random.default_rng(33)
        B = layout.effectiveness_matrix() * layout.f_max
        lam = effective_ridge(B)
        worst = 0.0
        for _ in range(1000):
            w = rng.normal(size=3) * np.array([0.08, 0.08, 0.01])
            u = allocate_duty(w, layout)
            grad = 2 * B.T @ (B @ u - w) + 2 * lam * u
            viol = np.where(u <= 1e-12, np.maximum(0.0, -grad),
                            np.where(u >= 1 - 1e-12, np.maximum(0.0, grad), np.abs(grad)))
            worst = max(worst, float(np.max(viol)))
        assert worst <= 1e-8

    def test_matches_lsq_linear(self):
        # contract: allocate_duty is the ridge problem's minimizer, so it
        # agrees with lsq_linear's BVLS to 1e-9 in any scipy version, fires
        # the same PWM slots and meets the projected KKT conditions
        rng = np.random.default_rng(15)
        n = 0
        for f_max in (0.03, 0.12, 0.99):
            layout = default_layout(0.3, f_max)
            B = layout.effectiveness_matrix() * f_max
            lam = effective_ridge(B)
            scale = f_max * np.array([1.0, 1.0, 0.15])
            requests = ([np.zeros(3)]
                        + [total_wrench(rng.uniform(0, 1, 8), layout) for _ in range(1000)]
                        + [rng.normal(size=3) * scale * k
                           for k in rng.choice([0.01, 0.1, 0.5, 1.0, 2.0, 5.0], 2400)])
            for w in requests:
                want = controller.lsq_linear(layout.A_ridge, np.concatenate([w, np.zeros(8)]),
                                             bounds=(0.0, 1.0), method="bvls").x
                want = np.clip(want, 0.0, 1.0)
                u = allocate_duty(w, layout)
                assert np.all((0.0 <= u) & (u <= 1.0))
                assert np.max(np.abs(u - want)) <= 1e-9
                np.testing.assert_array_equal(pwm_schedule(u, 10), pwm_schedule(want, 10))
                grad = 2 * B.T @ (B @ u - w) + 2 * lam * u
                viol = np.where(u <= 1e-12, np.maximum(0.0, -grad),
                                np.where(u >= 1 - 1e-12, np.maximum(0.0, grad), np.abs(grad)))
                assert np.max(viol) <= 1e-8
                n += 1
        assert n >= 10_000

    def test_non_finite_request_rejected(self, layout):
        with pytest.raises(ValueError, match="finite"):
            allocate_duty(np.array([0.0, math.nan, 0.0]), layout)

    def test_grid_oracle_on_reduced_layout(self, layout):
        # criterion: the allocator's residual matches an exhaustive search
        # over a reduced duty set, a 5-level grid on each of the 8 duties,
        # within the grid quantization bound
        B = layout.effectiveness_matrix() * layout.f_max
        levels = np.linspace(0.0, 1.0, 5)
        grids = np.stack(np.meshgrid(*[levels] * 8, indexing="ij"), axis=-1).reshape(-1, 8)
        wrench_grid = grids @ B.T
        # quantization bound: moving each duty by <= 1/8 (half the grid
        # step) changes the wrench by at most the sum of column norms / 8
        lip = np.linalg.norm(B, axis=0).sum() * (0.5 * 0.25)

        rng = np.random.default_rng(55)
        for _ in range(200):
            w = rng.normal(size=3) * np.array([0.05, 0.05, 0.008])
            r_cont = np.linalg.norm(B @ allocate_duty(w, layout) - w)
            d = wrench_grid - w
            r_grid = math.sqrt(float(np.min(np.einsum("ij,ij->i", d, d))))
            assert r_cont <= r_grid + 1e-12
            assert r_grid <= r_cont + lip


def test_pwm_examples():
    off = pwm_schedule(np.zeros(8), 10)
    assert off.sum() == 0
    on = pwm_schedule(np.ones(8), 10)
    assert on.sum() == 80
    half = pwm_schedule(np.full(8, 0.5), 10)
    assert np.all(half.sum(axis=1) == 5)
    np.testing.assert_array_equal(half[:, :5], 1)
    np.testing.assert_array_equal(half[:, 5:], 0)
    assert np.all(half.sum(axis=1) / 10 == 0.5)
    # duties within the 1e-12 tolerance outside [0, 1] fire as the bound
    np.testing.assert_array_equal(pwm_schedule(np.full(8, -1e-12), 10), off)
    np.testing.assert_array_equal(pwm_schedule(np.full(8, 1.0 + 1e-12), 10), on)


def test_pwm_duty_accuracy_bound():
    rng = np.random.default_rng(77)
    for n_slots in (1, 4, 10, 25):
        u = rng.uniform(0, 1, 8)
        pattern = pwm_schedule(u, n_slots)
        assert np.all(np.abs(pattern.sum(axis=1) / n_slots - u) <= 0.5 / n_slots + 1e-12)


def test_control_step_all_off_on_reference(layout):
    s = state(0.3, -0.2, 0.5, 0.01, 0.0, -0.02)
    pattern = pwm_schedule(continuous_duty(tracking_error(s, s), s[2], PdGains(), layout), 10)
    assert pattern.sum() == 0


def test_control_step_fires_plus_x_thrusters(layout):
    # +x position error with chaser at theta=0: only the -x-face pair
    # (which pushes +x) may fire
    pattern = pwm_schedule(continuous_duty(tracking_error(state(x=0.5), state()), 0.0,
                                           PdGains(), layout), 10)
    firing = set(np.flatnonzero(pattern.sum(axis=1)))
    assert firing
    assert firing <= {2, 3}


def test_control_step_opposite_face_at_pi(layout):
    # same inertial +x error with the chaser flipped (no attitude error):
    # the +x-face pair, which pushes -x in the body frame, fires instead
    pattern = pwm_schedule(continuous_duty(tracking_error(state(x=0.5, theta=math.pi),
                                                          state(theta=math.pi)),
                                           math.pi, PdGains(), layout), 10)
    firing = set(np.flatnonzero(pattern.sum(axis=1)))
    assert firing
    assert firing <= {0, 1}


def test_control_step_rotation_equivariance(layout):
    rng = np.random.default_rng(3)
    for _ in range(25):
        ref = rng.normal(size=6) * 0.2
        act = rng.normal(size=6) * 0.2
        delta = rng.uniform(-math.pi, math.pi)
        c, s = math.cos(delta), math.sin(delta)
        R = np.array([[c, -s], [s, c]])

        def rotated(b):
            p = R @ b[:2]
            v = R @ b[3:5]
            return state(p[0], p[1], b[2] + delta, v[0], v[1], b[5])

        p1 = pwm_schedule(continuous_duty(tracking_error(ref, act), act[2], PdGains(), layout), 10)
        p2 = pwm_schedule(continuous_duty(tracking_error(rotated(ref), rotated(act)),
                                           act[2] + delta, PdGains(), layout), 10)
        np.testing.assert_array_equal(p1, p2)


def test_feed_forward_added_before_allocation(layout):
    ff = np.array([0.02, 0.0, 0.0])
    pattern = pwm_schedule(continuous_duty(np.zeros(6), 0.0, PdGains(), layout,
                                           feed_forward=ff), 10)
    firing = set(np.flatnonzero(pattern.sum(axis=1)))
    assert firing <= {2, 3} and firing


def test_gain_validation():
    with pytest.raises(ValueError):
        PdGains(-1.0, 0, 0, 0)
    with pytest.raises(ValueError):
        PdGains(0, 0, 0, 0)
