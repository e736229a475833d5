import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from proxdock.dynamics import BodyParams, TargetState, euler_step, wrap_angle
from proxdock.kos import (BLEND_BAND, KosConfig, KosState, r_safe,
                          signed_distance_batch)
from proxdock.nlp import InfeasibleError
from proxdock.optimizer import (AllCandidatesFailed, ObjectiveModel, OptProblem,
                                build_goal_state, duration_candidates,
                                pack_variables, plan, solve, unpack_variables)
from proxdock.optimizer import _Transcription


def state(x=0.0, y=0.0, theta=0.0, vx=0.0, vy=0.0, omega=0.0):
    return np.array([x, y, theta, vx, vy, omega])


def wrench(fx=0.0, fy=0.0, tau=0.0):
    return np.array([fx, fy, tau])


def simple_problem(N=40, kos=False, **overrides):
    body = BodyParams()
    target = TargetState(omega=0.0)
    kw = dict(
        N=N, dt=0.1,
        x_init=state(x=-1.5, y=0.2),
        theta_finish=0.4,
        x_goal=state(x=-1.0, y=0.0, theta=0.4),
        target=target, body=body,
        kos_cfg=KosConfig() if kos else None,
        wrench_min=wrench(-0.1, -0.1, -0.02),
        wrench_max=wrench(0.1, 0.1, 0.02),
    )
    kw.update(overrides)
    return OptProblem(**kw)


def equality_residuals(p, states, wrenches) -> dict:
    """Initial-state, defect and terminal-attitude rows of E z - e."""
    tr = _Transcription(p)
    r = tr.E @ pack_variables(states, wrenches) - tr.e_rhs
    return {"init": r[:6], "defects": r[6:6 + 6 * p.N].reshape(p.N, 6),
            "terminal": float(r[6 + 6 * p.N])}


def objective_value(p, states, wrenches) -> float:
    return ObjectiveModel(p).value_flat(pack_variables(states, wrenches))


def nominal_template(**overrides):
    body = BodyParams()
    target = TargetState(omega=0.1)
    kw = dict(N=2, dt=0.1, x_init=state(x=1.0), theta_finish=0.0,
              x_goal=state(), target=target, body=body, kos_cfg=KosConfig())
    kw.update(overrides)
    return OptProblem(**kw)


class TestDurationCandidates:
    def test_phase_arithmetic(self):
        t = TargetState(omega=0.1, theta0=0.0)
        cands = duration_candidates(t, math.pi / 2, 3)
        assert cands[0].t_total == pytest.approx(15.70796, abs=1e-5)
        assert cands[1].t_total == pytest.approx(78.53982, abs=1e-5)
        assert cands[2].t_total == pytest.approx(141.37167, abs=1e-5)

    def test_zero_phase_excluded_by_minimum(self):
        t = TargetState(omega=0.1, theta0=0.7)
        cands = duration_candidates(t, 0.7, 2, min_duration=5.0)
        period = 2 * math.pi / 0.1
        assert cands[0].t_total == pytest.approx(period)
        assert cands[1].t_total == pytest.approx(2 * period)

    @pytest.mark.parametrize("omega", [0.1, -0.1, 0.37, -2.0])
    def test_attitude_consistency_invariant(self, omega):
        t = TargetState(omega=omega, theta0=0.3)
        for cand in duration_candidates(t, 2.0, 4):
            th = t.attitude(cand.t_total)
            assert abs(wrap_angle(th - 2.0)) < 1e-9

    def test_static_ladder(self):
        t = TargetState(omega=0.0)
        cands = duration_candidates(t, 0.0, 3, min_duration=25.0)
        assert [c.t_total for c in cands] == [40.0, 60.0, 80.0]
        assert duration_candidates(t, 0.0, 3, min_duration=100.0) == []

    def test_ascending(self):
        t = TargetState(omega=0.5)
        ts = [c.t_total for c in duration_candidates(t, 1.0, 6)]
        assert ts == sorted(ts)


class TestObjective:
    def test_zero_at_goal_at_rest(self):
        p = simple_problem(N=5, x_init=state(x=-1.0, theta=0.4),
                           x_goal=state(x=-1.0, theta=0.4), theta_finish=0.4)
        states = np.tile(p.x_goal, (6, 1))
        assert objective_value(p, states, np.zeros((5, 3))) == pytest.approx(0.0, abs=1e-12)

    def test_kinetic_only_contribution(self):
        p = simple_problem(N=2)
        states = np.tile(p.x_goal, (3, 1))
        states[0, 3] = 0.2  # velocity at one interior knot
        expected = p.w_kin * p.dt * 0.5 * p.body.mass * 0.2**2
        got = objective_value(p, states, np.zeros((2, 3)))
        # knot N sits on the goal so only the kinetic term contributes
        assert got == pytest.approx(expected, rel=1e-12)

    def test_three_knot_hand_computed(self):
        p = simple_problem(N=2, w_goal=3.0, w_u=2.0, w_kin=1.5)
        obj = ObjectiveModel(p)
        rng = np.random.default_rng(1)
        states = rng.normal(size=(3, 6))
        wrenches = rng.normal(size=(2, 3))
        # independent scalar re-evaluation
        m, inertia, dt = p.body.mass, p.body.inertia, p.dt
        goal = 3.0 * sum((states[2, i] - p.x_goal[i]) ** 2 for i in range(6))
        kinetic = sum(1.5 * dt * (0.5 * m * (states[k, 3] ** 2 + states[k, 4] ** 2)
                                  + 0.5 * inertia * states[k, 5] ** 2) for k in range(2))
        effort = sum(2.0 * dt * (wrenches[k] @ wrenches[k]) for k in range(2))
        assert objective_value(p, states, wrenches) == pytest.approx(goal + kinetic + effort,
                                                                     rel=1e-12)
        b = obj.breakdown(states, wrenches)
        assert b[0] == pytest.approx(goal, rel=1e-12)
        assert b[1] == pytest.approx(kinetic, rel=1e-12)
        assert b[2] == pytest.approx(effort, rel=1e-12)

    def test_gradient_matches_central_differences(self):
        # criterion: relative error <= 1e-4 at random feasible points
        p = simple_problem(N=8)
        obj = ObjectiveModel(p)
        rng = np.random.default_rng(6)
        z = rng.normal(size=9 * 8 + 6)
        grad = obj.gradient_flat(z)
        h = 1e-6
        fd = np.empty_like(z)
        for i in range(len(z)):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            fd[i] = (obj.value_flat(zp) - obj.value_flat(zm)) / (2 * h)
        denom = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(grad - fd) / denom) <= 1e-4


class TestConstraints:
    def test_stationary_feasible(self):
        s = state(x=-1.0, theta=0.4)
        p = simple_problem(N=2, x_init=s, x_goal=s, theta_finish=0.4)
        states = np.tile(s, (3, 1))
        res = equality_residuals(p, states, np.zeros((2, 3)))
        assert np.abs(res["init"]).max() == 0
        assert np.abs(res["defects"]).max() == 0
        assert res["terminal"] == 0

    def test_knot_at_target_center_flagged(self):
        p = simple_problem(N=4, kos=True)
        states = np.tile(p.x_init, (5, 1))
        states[2, :2] = 0.0  # knot parked at the target's center
        z = pack_variables(states, np.zeros((4, 3)))
        assert np.min(_Transcription(p).ineq_values(z)) < 0

    def test_defect_residuals_match_euler_recompute(self):
        # oracle: recompute defects through dynamics.euler_step directly
        p = simple_problem(N=12)
        rng = np.random.default_rng(9)
        states = rng.normal(size=(13, 6))
        wrenches = rng.normal(size=(12, 3))
        res = equality_residuals(p, states, wrenches)
        for k in range(12):
            stepped = euler_step(states[k], wrenches[k], p.body, p.dt)
            np.testing.assert_allclose(res["defects"][k], states[k + 1] - stepped, atol=1e-13)

    def test_pack_unpack_round_trip(self):
        rng = np.random.default_rng(2)
        states = rng.normal(size=(7, 6))
        wrenches = rng.normal(size=(6, 3))
        s2, w2 = unpack_variables(pack_variables(states, wrenches), 6)
        np.testing.assert_array_equal(states, s2)
        np.testing.assert_array_equal(wrenches, w2)


class TestValuePath:
    """ineq_values(z) must equal ineq_full(z)[0] bit for bit: the inner loop
    compares merit values computed through both paths with ==."""

    @staticmethod
    def knots_near_kos(p):
        """Knot positions laid out in the rotating target frame: inside the
        blend band on both sides of the docking axis, on the axis and the band
        edges, inside the circle and well outside everything."""
        rs = r_safe(p.kos_cfg)
        band = [0.3 * BLEND_BAND, 0.7 * BLEND_BAND, BLEND_BAND, 0.0,
                -0.3 * BLEND_BAND, -0.7 * BLEND_BAND, -BLEND_BAND]
        local = [(xp, yp) for xp in (0.1, 0.5 * rs, 0.95 * rs, 1.2 * rs) for yp in band]
        local += [(0.0, 0.0), (-0.5 * rs, 0.2 * rs), (0.1 * rs, -0.6 * rs), (2.0, -1.5)]
        rng = np.random.default_rng(8)
        states = rng.normal(size=(p.N + 1, 6))
        th = p.target.theta0 + p.target.omega * np.arange(p.N + 1) * p.dt
        for k in range(p.N + 1):
            xp, yp = local[k % len(local)]
            c, s = math.cos(th[k]), math.sin(th[k])
            states[k, 0] = p.target.x + c * xp - s * yp
            states[k, 1] = p.target.y + s * xp + c * yp
        return pack_variables(states, rng.normal(size=(p.N, 3)))

    @pytest.mark.parametrize("mixed", [False, True], ids=["all_state_i", "mixed"])
    def test_values_equal_full_bit_for_bit(self, mixed):
        target = TargetState(omega=0.37, theta0=0.4, x=0.2, y=-0.1)
        p = simple_problem(N=80, kos=True, target=target)
        if mixed:
            sched = [KosState.STATE_I] * 30 + [KosState.STATE_II] * 20 \
                + [KosState.STATE_I] * 10 + [KosState.STATE_II] * 21
            p = replace(p, kos_schedule=tuple(sched))
        tr = _Transcription(p)
        z = self.knots_near_kos(p)
        g = tr.ineq_values(z)
        assert g.shape == (tr.m_in,)
        assert np.array_equal(g, tr.ineq_full(z)[0])
        # some knots lie inside the circle
        assert np.any(g[:tr.m_in - 2 * (p.N + 1)] < 0)


class TestSolve:
    def test_reaches_goal_against_lq_oracle(self):
        # unconstrained transcription has a closed-form KKT solution; compare
        p = simple_problem(N=400, x_init=state(x=-1.25, y=0.1),
                           wrench_min=wrench(-5, -5, -1),
                           wrench_max=wrench(5, 5, 1))
        sol = solve(p)
        assert np.hypot(*(sol.states[-1, :2] - sol.x_goal[:2])) <= 1e-3

        tr = _Transcription(p)
        n, m = tr.n, tr.E.shape[0]
        H = sp.diags(tr.obj_hess_diag).tocsr()
        kkt = sp.bmat([[H, tr.E.T], [tr.E, None]], format="csc")
        rhs = np.concatenate([-tr.objective.c, tr.e_rhs])
        zl = spla.spsolve(kkt, rhs)
        np.testing.assert_allclose(pack_variables(sol.states, sol.wrenches),
                                   zl[:n], atol=2e-4)

    def test_already_at_goal(self):
        s = state(x=-1.0, theta=0.4)
        p = simple_problem(N=5, x_init=s, x_goal=s, theta_finish=0.4)
        sol = solve(p)
        assert sol.objective_value <= 1e-10
        assert np.abs(sol.wrenches).max() <= 1e-6

    def test_converged_invariants(self):
        p = simple_problem(N=50, kos=True, x_init=state(x=1.0),
                           x_goal=state(x=0.6, theta=0.2), theta_finish=0.2)
        sol = solve(p)
        assert sol.converged
        # defect replay through euler_step
        worst = 0.0
        for k in range(sol.N):
            stepped = euler_step(sol.states[k], sol.wrenches[k], p.body, p.dt)
            worst = max(worst, np.abs(sol.states[k + 1] - stepped).max())
        assert worst <= 1e-8
        # terminal attitude equality
        assert abs(sol.states[-1, 2] - p.theta_finish) <= 1e-6
        # exact keep-out audit at knots
        th = p.target.theta0 + p.target.omega * np.arange(p.N + 1) * p.dt
        g = signed_distance_batch(sol.states[:, :2], th, p.schedule(), p.target.position,
                                  p.kos_cfg)
        assert float(np.min(g)) >= -1e-6
        # wrench box with slack
        lo, hi = p.wrench_min, p.wrench_max
        assert max(np.max(lo - sol.wrenches), np.max(sol.wrenches - hi), 0.0) <= 1e-10
        # breakdown consistency
        assert sum(sol.objective_breakdown) == pytest.approx(sol.objective_value, rel=1e-9)

    def test_kkt_and_feasibility_reported(self):
        p = simple_problem(N=30)
        sol = solve(p)
        assert sol.solver_stats.kkt_residual <= 1e-6
        assert sol.solver_stats.constraint_violation <= 1e-8

    def test_weight_scaling_preserves_kkt_points(self):
        # scaling all three objective weights scales J and keeps the solution
        p = simple_problem(N=30)
        sol = solve(p)
        c = 7.5
        p2 = replace(p, w_goal=p.w_goal * c, w_u=p.w_u * c, w_kin=p.w_kin * c)
        assert objective_value(p2, sol.states, sol.wrenches) == pytest.approx(
            c * sol.objective_value, rel=1e-9)
        sol2 = solve(p2, sol)
        np.testing.assert_allclose(
            pack_variables(sol2.states, sol2.wrenches),
            pack_variables(sol.states, sol.wrenches), atol=5e-5)

    def test_infeasible_when_unactuated(self):
        p = simple_problem(N=20, wrench_min=wrench(), wrench_max=wrench(),
                           theta_finish=1.0)
        with pytest.raises((InfeasibleError,)):
            solve(p)


class TestPlan:
    def test_nominal_two_candidates(self):
        best, results = plan(3 * math.pi / 4, nominal_template(),
                             max_candidates=2, collect_all=True)
        assert len(results) == 2
        assert best.times[-1] == pytest.approx(86.4)
        assert best.objective_value == min(r.objective_value for r in results)
        # relaxation engages in the terminal segment
        assert KosState.STATE_II in best.kos_states
        first = best.kos_states.index(KosState.STATE_II)
        assert best.times[first] >= 0.9 * best.times[-1]
        # no inner Newton loop spins up to max_inner on zero-progress steps
        assert best.solver_stats.inner_capped == 0

    def test_static_target_ladder(self):
        t = TargetState(omega=0.0, theta0=0.3)
        template = nominal_template(target=t, x_init=state(x=1.0))
        best = plan(0.3, template, max_candidates=2, static_durations=(30.0, 60.0))
        assert best.converged
        assert best.times[-1] in (30.0, 60.0)

    def test_static_target_wrong_attitude_rejected(self):
        t = TargetState(omega=0.0, theta0=0.3)
        with pytest.raises(AllCandidatesFailed):
            plan(1.0, nominal_template(target=t), max_candidates=2)

    def test_matches_exhaustive_candidate_search(self):
        # oracle: solve every candidate independently and take the lowest J
        template = nominal_template(target=TargetState(omega=0.3))
        best = plan(1.2, template, max_candidates=3, warm_start=False)
        cands = duration_candidates(TargetState(omega=0.3), 1.2, 3)
        objs = []
        for cand in cands:
            b = plan(1.2, template, max_candidates=1,
                     min_duration=cand.t_total - 1e-6, warm_start=False)
            objs.append(b.objective_value)
        assert best.objective_value == pytest.approx(min(objs), rel=1e-6)

    def test_warm_start_agrees_with_cold(self):
        template = nominal_template(target=TargetState(omega=0.3))
        warm = plan(1.2, template, max_candidates=3, warm_start=True)
        cold = plan(1.2, template, max_candidates=3, warm_start=False)
        assert warm.times[-1] == cold.times[-1]
        assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-4)

    def test_all_candidates_failed(self):
        template = nominal_template(wrench_min=wrench(), wrench_max=wrench())
        with pytest.raises(AllCandidatesFailed) as ex:
            plan(3 * math.pi / 4, template, max_candidates=2)
        assert ex.value.reasons


def test_goal_state_geometry():
    t = TargetState(omega=0.1, x=0.2, y=-0.1)
    body = BodyParams()
    g = build_goal_state(t, 0.0, body, 0.0, capture_offset=0.05)
    assert g[0] == pytest.approx(0.2 + 0.35)
    assert g[1] == pytest.approx(-0.1)
    assert tuple(g[3:]) == (0, 0, 0)
    g2 = build_goal_state(t, math.pi / 2, body, math.pi / 2, capture_offset=0.05,
                          corotate=True)
    assert g2[1] == pytest.approx(-0.1 + 0.35)
    assert g2[3] == pytest.approx(-0.1 * 0.35)
    assert g2[4] == pytest.approx(0.0, abs=1e-15)
    assert g2[5] == 0.1


def test_problem_validation():
    with pytest.raises(ValueError):
        simple_problem(N=1)
    with pytest.raises(ValueError):
        simple_problem(wrench_min=wrench(0.1, 0, 0), wrench_max=wrench(1, 1, 1))
