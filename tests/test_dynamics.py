import math

import numpy as np
import pytest

from proxdock.controller import pwm_schedule
from proxdock.dynamics import (BodyParams, TargetState, ThrusterLayout,
                               default_layout, euler_matrices, euler_step,
                               total_wrench, wrap_angle)
from proxdock.optimizer import OptProblem


@pytest.fixture
def body():
    return BodyParams()


def state(x=0.0, y=0.0, theta=0.0, vx=0.0, vy=0.0, omega=0.0):
    return np.array([x, y, theta, vx, vy, omega])


def wrench(fx=0.0, fy=0.0, tau=0.0):
    return np.array([fx, fy, tau])


def test_zero_command_zero_wrench():
    w = total_wrench(np.zeros(8), default_layout())
    assert w[0] == 0 and w[1] == 0 and w[2] == 0


def test_single_thruster_hand_evaluated():
    # thruster at (0.15, 0.15) pushing -x: tau = rx*fy - ry*fx = 0.15
    pos = np.zeros((8, 2))
    dirs = np.tile([1.0, 0.0], (8, 1))
    pos[0] = [0.15, 0.15]
    dirs[0] = [-1.0, 0.0]
    # remaining thrusters arranged to keep the layout actuating all axes
    pos[1] = [0.15, -0.15]; dirs[1] = [-1.0, 0.0]
    pos[2] = [-0.15, 0.15]; dirs[2] = [1.0, 0.0]
    pos[3] = [-0.15, -0.15]; dirs[3] = [1.0, 0.0]
    pos[4] = [0.15, 0.15]; dirs[4] = [0.0, -1.0]
    pos[5] = [-0.15, 0.15]; dirs[5] = [0.0, -1.0]
    pos[6] = [0.15, -0.15]; dirs[6] = [0.0, 1.0]
    pos[7] = [-0.15, -0.15]; dirs[7] = [0.0, 1.0]
    layout = ThrusterLayout(pos, dirs, f_max=1.0)
    u = np.zeros(8)
    u[0] = 1.0
    w = total_wrench(u, layout)
    assert w[0] == pytest.approx(-1.0)
    assert w[1] == pytest.approx(0.0)
    assert w[2] == pytest.approx(0.15)


def test_mirrored_pair_cancels_lateral_and_torque():
    layout = default_layout()
    u = np.zeros(8)
    u[0] = u[1] = 1.0   # both +x-face thrusters, mirrored about the x-axis
    w = total_wrench(u, layout)
    assert w[0] == pytest.approx(-2 * layout.f_max)
    assert w[1] == pytest.approx(0.0, abs=1e-15)
    assert w[2] == pytest.approx(0.0, abs=1e-15)


def test_total_wrench_linearity():
    layout = default_layout()
    rng = np.random.default_rng(7)
    for _ in range(20):
        u1 = rng.uniform(0, 1, 8)
        u2 = rng.uniform(0, 1, 8)
        a, b = rng.uniform(0, 0.5, 2)
        lhs = total_wrench(a * u1 + b * u2, layout)
        rhs = a * total_wrench(u1, layout) + b * total_wrench(u2, layout)
        np.testing.assert_allclose(lhs, rhs, atol=1e-15)


def test_command_validation():
    pwm_schedule(np.full(8, 0.5), 10)
    with pytest.raises(ValueError):
        pwm_schedule(np.full(8, 1.5), 10)
    with pytest.raises(ValueError):
        pwm_schedule(np.ones(7), 10)
    with pytest.raises(ValueError):
        pwm_schedule(np.full(8, math.nan), 10)


def test_layout_validation():
    good = default_layout()
    assert np.linalg.matrix_rank(good.effectiveness_matrix()) == 3
    with pytest.raises(ValueError):
        ThrusterLayout(good.positions, good.directions * 2.0, 0.03)
    # all thrusters pushing +x: rank deficient and one-sided
    with pytest.raises(ValueError):
        ThrusterLayout(good.positions, np.tile([1.0, 0.0], (8, 1)), 0.03)


def test_half_space_layout_rejected():
    # rank 3, but no column of B has a positive component along
    # d = -(1,1,0)/sqrt(2), so no duty pushes along d: the attainable wrench
    # cone is a half-space, not all of R^3
    r = 1.0 / math.sqrt(2.0)
    dirs = np.array([[r, -r], [r, -r], [-r, r], [-r, r], [1, 0], [1, 0], [0, 1], [0, 1]])
    pos = np.array([[.15, .15], [-.15, -.15], [.15, .15], [-.15, -.15],
                    [0, .15], [0, -.15], [.15, 0], [-.15, 0]])
    B = np.vstack([dirs.T, pos[:, 0] * dirs[:, 1] - pos[:, 1] * dirs[:, 0]])
    assert np.linalg.matrix_rank(B) == 3
    assert np.all(np.array([-r, -r, 0.0]) @ B <= 1e-12)
    with pytest.raises(ValueError, match="both ways"):
        ThrusterLayout(pos, dirs, 0.03)


def lp_positively_spans(B):
    """Reference: zero wrench is interior to the attainable set iff some duty
    vector with every entry > 0 gives zero wrench; maximise t subject to
    B u = 0, t <= u_i <= 1."""
    from scipy.optimize import linprog
    lp = linprog(np.r_[np.zeros(8), -1.0],
                 A_ub=np.hstack([-np.eye(8), np.ones((8, 1))]), b_ub=np.zeros(8),
                 A_eq=np.hstack([B, np.zeros((3, 1))]), b_eq=np.zeros(3), bounds=(0.0, 1.0))
    return lp.status == 0 and -lp.fun > 1e-9


def test_positive_span_check_matches_lp():
    # the closed-form pair-normal check accepts exactly the layouts the LP
    # accepts, on random rank-3 layouts of both kinds
    rng = np.random.default_rng(4)
    verdicts = []
    for _ in range(400):
        pos = rng.uniform(-0.15, 0.15, (8, 2))
        ang = rng.uniform(0.0, rng.uniform(1.0, 2.0) * math.pi, 8)
        dirs = np.column_stack([np.cos(ang), np.sin(ang)])
        B = np.vstack([dirs.T, pos[:, 0] * dirs[:, 1] - pos[:, 1] * dirs[:, 0]])
        want = lp_positively_spans(B)
        try:
            ThrusterLayout(pos, dirs, 0.03)
            got = True
        except ValueError as ex:
            assert "both ways" in str(ex)
            got = False
        assert got == want
        verdicts.append(got)
    assert 50 < sum(verdicts) < 350


def rates(s, w, body):
    """Newton-Euler rates of s under w: one Euler step of unit length, less s."""
    return np.subtract(euler_step(s, w, body, 1.0), s)


def test_state_derivative_ballistic(body):
    rate = rates(state(vx=1.0), wrench(), body)
    np.testing.assert_allclose(rate, [1, 0, 0, 0, 0, 0])


def test_state_derivative_unit_accels(body):
    rate = rates(state(), wrench(fx=body.mass), body)
    assert rate[3] == pytest.approx(1.0)
    rate = rates(state(), wrench(tau=body.inertia * 0.5), body)
    assert rate[5] == pytest.approx(0.5)


def test_euler_step_zero_dt(body):
    s = state(1, 2, 3, 4, 5, 6)
    np.testing.assert_array_equal(euler_step(s, wrench(1, 1, 1), body, 0.0), s)


def test_euler_step_drift(body):
    s = euler_step(state(vx=1.0), wrench(), body, 0.1)
    assert s[0] == pytest.approx(0.1)
    assert s[3] == pytest.approx(1.0)


def test_euler_convergence_to_analytic(body):
    # constant wrench: Euler error vs closed form shrinks first-order in dt
    w = wrench(0.5, -0.2, 0.05)
    T = 2.0

    def roll(dt):
        s = state()
        for _ in range(int(round(T / dt))):
            s = euler_step(s, w, body, dt)
        return s

    a = np.array([w[0] / body.mass, w[1] / body.mass, w[2] / body.inertia])
    exact = np.concatenate([0.5 * a * T**2, a * T])
    err_coarse = np.abs(roll(0.01) - exact).max()
    err_fine = np.abs(roll(0.0001) - exact).max()
    assert err_fine < err_coarse / 50  # ~factor 100 for a first-order method


def test_euler_matrices_match_euler_step(body):
    # agreement to rounding (dt*(f/m) vs (dt/m)*f differ by <=1 ulp), nine
    # orders below the 1e-8 defect tolerance the optimizer enforces
    A, B = euler_matrices(body, 0.1)
    rng = np.random.default_rng(3)
    for _ in range(50):
        s = rng.normal(size=6)
        w = rng.normal(size=3)
        np.testing.assert_allclose(A @ s + B @ w, euler_step(s, w, body, 0.1),
                                   rtol=0, atol=1e-14)


def test_zero_wrench_conserves_velocity(body):
    s = state(0, 0, 0, 0.3, -0.2, 0.1)
    for _ in range(1000):
        s = euler_step(s, wrench(), body, 0.01)
    assert tuple(s[3:]) == (0.3, -0.2, 0.1)


def test_kinetic_energy_matches_closed_form(body):
    s = state(vx=0.1, vy=-0.05, omega=0.2)
    w = wrench(0.01, 0.02, -0.003)
    s1 = euler_step(s, w, body, 0.01)
    v = np.array([s[3] + w[0] / body.mass * 0.01,
                  s[4] + w[1] / body.mass * 0.01,
                  s[5] + w[2] / body.inertia * 0.01])
    ek_closed = 0.5 * body.mass * (v[0]**2 + v[1]**2) + 0.5 * body.inertia * v[2]**2
    ek_stepped = 0.5 * body.mass * (s1[3]**2 + s1[4]**2) + 0.5 * body.inertia * s1[5]**2
    assert ek_stepped == pytest.approx(ek_closed, rel=1e-15)


def test_target_state_at():
    t0 = TargetState(omega=0.0, theta0=0.7)
    assert t0.attitude(123.0) == 0.7
    t1 = TargetState(omega=0.1, theta0=0.2)
    assert t1.attitude(10.0) == pytest.approx(1.2)
    period = 2 * math.pi / 0.1
    assert t1.attitude(period) == pytest.approx(0.2 + 2 * math.pi)
    np.testing.assert_array_equal(t1.position, [0.0, 0.0])


def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(7.0) == pytest.approx(7.0 - 2 * math.pi)
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)


def test_params_validation():
    with pytest.raises(ValueError):
        BodyParams(mass=-1.0)
    with pytest.raises(ValueError):
        BodyParams(inertia=0.0)
    # non-finite planner inputs are rejected where they enter the program
    kw = dict(N=2, dt=0.1, x_init=state(x=1.0), theta_finish=0.0, x_goal=state(),
              target=TargetState(), body=BodyParams(), kos_cfg=None)
    OptProblem(**kw)
    with pytest.raises(ValueError, match="x_init"):
        OptProblem(**{**kw, "x_init": state(x=math.nan)})
    with pytest.raises(ValueError, match="wrench_max"):
        OptProblem(**{**kw, "wrench_max": wrench(fx=math.inf)})
