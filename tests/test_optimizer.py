import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from proxdock.dynamics import BodyParams, TargetState, euler_step, wrap_angle
from proxdock.kos import (BLEND_BAND, KosConfig, KosState, classify, latch, r_safe,
                          signed_distance_batch)
from proxdock import harness, nlp, optimizer
from proxdock.nlp import InfeasibleError, NotConvergedError
from proxdock.optimizer import (AllCandidatesFailed, OptProblem, build_goal_state,
                                duration_candidates, pack_variables, plan, solve,
                                unpack_variables)
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
    return _Transcription(p).objective_value(pack_variables(states, wrenches))


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
        assert cands[0] == pytest.approx(15.70796, abs=1e-5)
        assert cands[1] == pytest.approx(78.53982, abs=1e-5)
        assert cands[2] == pytest.approx(141.37167, abs=1e-5)

    def test_zero_phase_excluded_by_minimum(self):
        t = TargetState(omega=0.1, theta0=0.7)
        cands = duration_candidates(t, 0.7, 2, min_duration=5.0)
        period = 2 * math.pi / 0.1
        assert cands[0] == pytest.approx(period)
        assert cands[1] == pytest.approx(2 * period)

    @pytest.mark.parametrize("omega", [0.1, -0.1, 0.37, -2.0])
    def test_attitude_consistency_invariant(self, omega):
        t = TargetState(omega=omega, theta0=0.3)
        for t_total in duration_candidates(t, 2.0, 4):
            th = t.attitude(t_total)
            assert abs(wrap_angle(th - 2.0)) < 1e-9

    def test_static_ladder(self):
        t = TargetState(omega=0.0)
        cands = duration_candidates(t, 0.0, 3, min_duration=25.0)
        assert cands == [40.0, 60.0, 80.0]
        assert duration_candidates(t, 0.0, 3, min_duration=100.0) == []

    def test_ascending(self):
        t = TargetState(omega=0.5)
        ts = duration_candidates(t, 1.0, 6)
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
        tr = _Transcription(p)
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
        b = tr.breakdown(states, wrenches)
        assert b[0] == pytest.approx(goal, rel=1e-12)
        assert b[1] == pytest.approx(kinetic, rel=1e-12)
        assert b[2] == pytest.approx(effort, rel=1e-12)

    def test_gradient_matches_central_differences(self):
        # criterion: relative error <= 1e-4 at random feasible points
        p = simple_problem(N=8)
        tr = _Transcription(p)
        rng = np.random.default_rng(6)
        z = rng.normal(size=9 * 8 + 6)
        grad = tr.objective_value_grad(z)[1]
        h = 1e-6
        fd = np.empty_like(z)
        for i in range(len(z)):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            fd[i] = (tr.objective_value(zp) - tr.objective_value(zm)) / (2 * h)
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
        for N in (2, 3, 6, 50):
            states = rng.normal(size=(N + 1, 6))
            wrenches = rng.normal(size=(N, 3))
            z = pack_variables(states, wrenches)
            assert z.shape == (9 * N + 6,)
            s2, w2 = unpack_variables(z, N)
            np.testing.assert_array_equal(states, s2)
            np.testing.assert_array_equal(wrenches, w2)


class TestLayout:
    """The axis-blocked variable layout: translation chain first, then
    attitude, which keeps the Newton matrix's bandwidth at 6."""

    @pytest.mark.parametrize("N", [2, 3, 50])
    def test_table_covers_every_variable_once(self, N):
        pos = optimizer._layout(N)
        assert pos.shape == (N + 1, 9)
        assert np.all(pos[N, 6:] == -1)
        np.testing.assert_array_equal(np.sort(pos[pos >= 0]), np.arange(9 * N + 6))

    @pytest.mark.parametrize("N", [2, 3, 50])
    @pytest.mark.parametrize("model", ["no_kos", "all_state_i", "mixed"])
    def test_bandwidth_six(self, N, model):
        p = simple_problem(N=N, kos=model != "no_kos")
        if model == "mixed":
            p = replace(p, kos_schedule=[KosState.STATE_I] * (N // 2 + 1)
                        + [KosState.STATE_II] * (N - N // 2))
        tr = _Transcription(p)
        assert tr.bandwidth == 6
        # nlp puts the keep-out cross term on the first subdiagonal
        np.testing.assert_array_equal(tr.ineq_iy, tr.ineq_ix + 1)
        if model != "no_kos":
            assert tr.m_in > 0


class TestChains:
    """The transcription splits exactly into the translation chain and the
    attitude chain, and solve solves them apart."""

    @staticmethod
    def attitude_columns(N):
        pos = optimizer._layout(N)[:, [2, 5, 8]]
        return np.sort(pos[pos >= 0])

    @pytest.mark.parametrize("N", [2, 50])
    def test_every_row_and_constraint_reads_one_chain(self, N):
        p = simple_problem(N=N, kos=True)
        tr = _Transcription(p)
        cols, rows = tr.chain_cols, tr.chain_rows
        np.testing.assert_array_equal(np.arange(tr.n)[cols[1]], self.attitude_columns(N))
        np.testing.assert_array_equal(np.sort(np.concatenate(rows)), np.arange(tr.E.shape[0]))
        for b in (0, 1):
            assert tr.E[rows[b]][:, cols[1 - b]].nnz == 0
        assert np.all(tr.ineq_ix < cols[0].stop) and np.all(tr.ineq_iy < cols[0].stop)
        # the chains' objectives sum to the whole one
        z = np.random.default_rng(N).normal(size=tr.n)
        parts = [tr.chain(b).objective_value(z[cols[b]]) for b in (0, 1)]
        assert sum(parts) == pytest.approx(tr.objective_value(z), rel=1e-12)
        assert (tr.chain(0).m_in, tr.chain(1).m_in) == (tr.m_in, 0)

    def test_attitude_columns_solve_the_attitude_qp(self):
        # a keep-out problem whose keep-out constraints are active and whose
        # torque box stays slack: its attitude columns are the solution of
        # the attitude block's equality-constrained QP, solved densely
        p = simple_problem(N=50, kos=True, dt=0.5, x_init=state(x=-1.0, y=0.3),
                           x_goal=state(x=0.35, theta=0.4))
        sol = solve(p)
        assert np.count_nonzero(sol.multipliers[1]) + np.count_nonzero(sol.multipliers[2]) > 0
        assert np.max(np.abs(sol.wrenches[:, 2])) < 0.5 * p.wrench_max[2]
        tr = _Transcription(p)
        att = self.attitude_columns(p.N)
        E = tr.E.toarray()
        rows = np.flatnonzero(np.any(E[:, att] != 0.0, axis=1))
        A = E[np.ix_(rows, att)]
        kkt = np.block([[np.diag(2.0 * tr.q[att]), A.T],
                        [A, np.zeros((len(rows), len(rows)))]])
        qp = np.linalg.solve(kkt, np.concatenate([-tr.c[att], tr.e_rhs[rows]]))[:len(att)]
        np.testing.assert_allclose(pack_variables(sol.states, sol.wrenches)[att], qp,
                                   rtol=0, atol=1e-6)


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


class TestNewtonMatrix:
    """_assemble_banded's band storage against the Gauss-Newton matrix built
    densely: diag(2q) + mu E^T E + mu sum_active grad g grad g^T."""

    @staticmethod
    def dense_from_band(ab):
        n = ab.shape[1]
        H = np.zeros((n, n))
        for r in range(ab.shape[0]):
            c = np.arange(n - r)
            H[c + r, c] = ab[r, :n - r]
            H[c, c + r] = ab[r, :n - r]
        return H

    @pytest.mark.parametrize("mixed", [False, True], ids=["all_state_i", "mixed"])
    def test_matches_definition_and_is_positive_definite(self, mixed):
        target = TargetState(omega=0.37, theta0=0.4, x=0.2, y=-0.1)
        p = simple_problem(N=30, kos=True, target=target)
        if mixed:
            p = replace(p, kos_schedule=[KosState.STATE_I] * 12 + [KosState.STATE_II] * 19)
        tr = _Transcription(p)
        z = TestValuePath.knots_near_kos(p)
        rng = np.random.default_rng(3)
        mu = 100.0
        m = nlp._Multipliers(lam=np.zeros(tr.E.shape[0]),
                             eta=rng.uniform(0.0, 50.0, tr.m_in), mu=mu)
        ineq = g, gx, gy = tr.ineq_full(z)
        act = m.eta - mu * g > 0.0
        assert 0 < np.count_nonzero(act) < tr.m_in

        H = self.dense_from_band(nlp._assemble_banded(tr, m, ineq, tr.base_banded(mu)))

        E = tr.E.toarray()
        G = np.zeros((tr.m_in, tr.n))
        rows = np.arange(tr.m_in)
        G[rows, tr.ineq_ix] = gx
        G[rows, tr.ineq_iy] = gy
        expected = np.diag(2.0 * tr.q) + mu * E.T @ E + mu * G[act].T @ G[act]
        assert np.max(np.abs(H - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert np.linalg.eigvalsh(H)[0] > 0.0

    def test_one_solve_per_step_is_accurate_at_large_penalty(self, monkeypatch):
        # each Newton step factors the matrix once and solves once, with no
        # refinement pass; at mu = 1e8, with keep-out constraints active,
        # the solve's relative residual |H d - r| / |r| stays within 1e-8
        steps = []
        real_chol, real_solve = nlp.cholesky_banded, nlp.cho_solve_banded

        def chol(ab, **kwargs):
            steps.append([ab.copy()])
            return real_chol(ab, **kwargs)

        def cho_solve(cb, rhs):
            d = real_solve(cb, rhs)
            steps[-1] += [rhs.copy(), d.copy()]
            return d

        monkeypatch.setattr(nlp, "cholesky_banded", chol)
        monkeypatch.setattr(nlp, "cho_solve_banded", cho_solve)
        p = simple_problem(N=50, kos=True, dt=0.5, x_init=state(x=-1.0, y=0.3),
                           x_goal=state(x=0.35, theta=0.4))
        tr = _Transcription(p)
        z0 = optimizer.default_initial_guess(p)[tr.chain_cols[0]]
        z, lam, eta, stats = nlp.solve_al(tr.chain(0), z0, mu0=1e8)
        assert stats.mu_final == 1e8 and np.any(eta > 0)
        assert len(steps) == stats.newton_iterations > 0
        for ab, rhs, d in steps:
            H = self.dense_from_band(ab)
            assert np.linalg.norm(H @ d - rhs) <= 1e-8 * np.linalg.norm(rhs)


class TestFactorizationFailure:
    """A Newton matrix that does not factor ends the solve as a recorded failure."""

    @pytest.fixture
    def cholesky_fails(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("not positive definite")
        monkeypatch.setattr(nlp, "cholesky_banded", fail)

    def test_solve_raises_not_converged(self, cholesky_fails):
        with pytest.raises(NotConvergedError) as ex:
            solve(simple_problem(N=20, kos=True))
        assert ex.value.stats.message == "Newton matrix not positive definite"
        assert ex.value.stats.newton_iterations == 1

    def test_plan_lists_failed_candidates(self, cholesky_fails):
        with pytest.raises(AllCandidatesFailed) as ex:
            plan(3 * math.pi / 4, nominal_template(), max_candidates=2)
        assert len(ex.value.reasons) == 2
        assert all("not positive definite" in r for r in ex.value.reasons)


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
        H = sp.diags(2.0 * tr.q)
        kkt = sp.bmat([[H, tr.E.T], [tr.E, None]], format="csc")
        rhs = np.concatenate([-tr.c, tr.e_rhs])
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
        g = signed_distance_batch(sol.states[:, :2], th, np.full(p.N + 1, KosState.STATE_I),
                                  p.target.position, p.kos_cfg)
        assert float(np.min(g)) >= -1e-6
        # wrench box with slack
        lo, hi = p.wrench_min, p.wrench_max
        assert max(np.max(lo - sol.wrenches), np.max(sol.wrenches - hi), 0.0) <= 1e-10
        # breakdown consistency
        assert sum(sol.objective_breakdown) == pytest.approx(sol.objective_value, rel=1e-9)

    def test_kkt_and_feasibility_reported(self, monkeypatch):
        seen = []
        real = optimizer.solve_al

        def spy(prob, z0, **kwargs):
            seen.append((prob, real(prob, z0, **kwargs)))
            return seen[-1][1]

        monkeypatch.setattr(optimizer, "solve_al", spy)
        p = simple_problem(N=30)
        sol = solve(p)
        assert sol.solver_stats.kkt_residual <= 1e-6
        assert sol.solver_stats.constraint_violation <= 1e-8
        k = simple_problem(N=50, kos=True)
        solve(k, solve(k))
        # the reported residual is the returned point's, recomputed from the
        # returned multipliers, bit for bit: without and with keep-out
        # constraints, and for a restart at a converged point, in both of
        # each solve's solve_al runs (attitude chain, then translation chain)
        assert len(seen) == 6
        for prob, (z, lam, eta, stats) in seen:
            pk = nlp.projected_kkt_residual(prob, z, lam, eta)
            assert stats.kkt_residual.hex() == pk.hex()

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

    # A spin-0.07 rendezvous at N = 1234 (the long candidate of the sweep1
    # point omega = 0.07, f_thr = 0.12): n = 9N + 6 = 11 112 variables.
    LONG_SOLVE = """
import hashlib
from proxdock.dynamics import BodyParams, TargetState, wrap_angle
from proxdock.kos import KosConfig
from proxdock.optimizer import OptProblem, build_goal_state, solve
target, body, N = TargetState(omega=0.07), BodyParams(), 1234
theta_t = target.attitude(N * 0.1)
p = OptProblem(N=N, dt=0.1, x_init=[1.0, 0, 0, 0, 0, 0], theta_finish=wrap_angle(theta_t),
               x_goal=build_goal_state(target, theta_t, body, wrap_angle(theta_t), corotate=True),
               target=target, body=body, kos_cfg=KosConfig(),
               wrench_min=[-0.12, -0.12, -0.0288], wrench_max=[0.12, 0.12, 0.0288])
sol = solve(p)
print(sol.solver_stats.newton_iterations,
      hashlib.sha256(sol.states.tobytes() + sol.wrenches.tobytes()).hexdigest())
"""

    def test_long_horizon_solve_independent_of_blas_threads(self):
        # Past n = 10 000 OpenBLAS would split each ddot over its threads and
        # round differently per thread count; the solve must not notice.
        src = str(Path(optimizer.__file__).resolve().parents[1])
        out = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            run = subprocess.run([sys.executable, "-c", self.LONG_SOLVE], env=env,
                                 capture_output=True, text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            out.append(run.stdout)
        assert out[0] == out[1]

    @pytest.mark.parametrize("n", [0, 7, 10_000, 10_001, 20_000, 25_001])
    def test_dot_chunks(self, n):
        # the fewest chunks of <= 10 000, sizes within one, larger first
        # (numpy's array_split), summed left to right
        rng = np.random.default_rng(n)
        a, b = rng.normal(size=n), rng.normal(size=n)
        k = max(1, -(-n // 10_000))
        parts = list(zip(np.array_split(a, k), np.array_split(b, k)))
        assert max(len(x) for x, _ in parts) <= 10_000
        assert nlp.dot(a, b) == sum(float(x @ y) for x, y in parts)
        if k == 1:
            assert nlp.dot(a, b) == float(a @ b)

    def test_multiplier_shapes_checked(self):
        tr = _Transcription(simple_problem(N=10, kos=True))
        z0 = optimizer.default_initial_guess(tr.problem)
        for bad in (dict(lam0=np.zeros(3)), dict(eta0=np.zeros(tr.m_in + 1))):
            with pytest.raises(ValueError, match="lam0/eta0 must match"):
                nlp.solve_al(tr, z0, **bad)

    def test_iteration_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(nlp, "MAX_OUTER", 2)
        with pytest.raises(NotConvergedError) as ex:
            solve(simple_problem(N=30, kos=True))
        assert ex.value.stats.message == "iteration budget exhausted"
        assert ex.value.stats.outer_iterations == 2

    def test_infeasible_when_unactuated(self):
        p = simple_problem(N=20, wrench_min=wrench(), wrench_max=wrench(),
                           theta_finish=1.0)
        with pytest.raises((InfeasibleError,)):
            solve(p)


class TestInnerExits:
    """Each inner loop evaluates every iterate once and hands back the
    equality residual, the keep-out values and the projected AL-gradient
    norm of the point it ends at, whichever way it ends."""

    @staticmethod
    @pytest.fixture
    def exits(monkeypatch):
        """Spy on nlp._inner_newton: checks every return against a fresh
        evaluation and records (gradient evaluations, Newton steps, exit)."""
        seen = []
        real_inner, real_merit = nlp._inner_newton, nlp._merit
        evals = [0]

        def merit(prob, z, m, *, grad=False):
            evals[0] += grad
            return real_merit(prob, z, m, grad=grad)

        def spy(prob, z, m, base, tol):
            evals[0] = 0
            out = zf, h, g, pgn, nit, exit_ = real_inner(prob, z, m, base, tol)
            _, grad, h2, (g2, _, _) = real_merit(prob, zf, m, grad=True)
            assert h.tobytes() == h2.tobytes() and g.tobytes() == g2.tobytes()
            assert pgn == nlp._projected_grad(zf, grad, prob.lb, prob.ub)[0]
            # one evaluation per iterate: the point of a step that no trial
            # accepted is the one evaluated last
            assert evals[0] == nit + 1 or (evals[0] == nit and exit_ == "stall")
            seen.append((evals[0], nit, exit_))
            return out

        monkeypatch.setattr(nlp, "_merit", merit)
        monkeypatch.setattr(nlp, "_inner_newton", spy)
        return seen

    def test_cap(self, exits, monkeypatch):
        monkeypatch.setattr(nlp, "MAX_INNER", 2)
        with pytest.raises(InfeasibleError) as ex:
            solve(simple_problem(N=30, kos=True))
        stats = ex.value.stats
        assert stats.inner_capped == sum(e == "cap" for _, _, e in exits) > 0
        assert all((nit == 2) == (e == "cap") for _, nit, e in exits if e != "stall")
        assert stats.newton_iterations == sum(nit for _, nit, _ in exits)

    def test_cap_ranks_above_tol(self, exits, monkeypatch):
        # a restart at a converged point meets the tolerance at once, but
        # with MAX_INNER = 0 its inner loop ends as a cap
        p = simple_problem(N=50, kos=True)
        first = solve(p)
        monkeypatch.setattr(nlp, "MAX_INNER", 0)
        again = solve(p, first).solver_stats
        # one such inner loop per chain
        assert exits[-2:] == [(1, 0, "cap")] * 2
        assert (again.outer_iterations, again.newton_iterations, again.inner_capped) == (2, 0, 2)
        assert again.message == "converged"

    def test_both_stalls(self, exits):
        # the sweep1 point omega = 1.66, f_thr = 0.27: its solves end inner
        # loops both where no backtracking trial passes the Armijo test and
        # where an accepted step leaves the merit unchanged
        cfg = harness.RunConfig({**harness.load_config(None).values,
                                 "target.omega": 1.66, "layout.f_thr": 0.27,
                                 "opt.min_duration": "auto", "opt.goal_corotate": True})
        plan(cfg["opt.theta_approach"], cfg.opt_template(), **cfg.plan_kwargs())
        stalls = [evals - nit for evals, nit, e in exits if e == "stall"]
        assert 0 in stalls and 1 in stalls


class TestWarmMultipliers:
    """A solve returns its multipliers; a later solve at the same N restarts
    the multiplier loop from them."""

    @staticmethod
    @pytest.fixture(scope="class")
    def two_pass():
        """Pass 1 of a docking approach that ends against the keep-out circle,
        and its latched State II schedule, which drops circle knots with
        positive multipliers."""
        p = simple_problem(N=50, kos=True, dt=0.5, x_init=state(x=-1.0, y=0.3),
                           x_goal=state(x=0.35, theta=0.4))
        sol = solve(p)
        sched = latch(classify(sol.states[:, :2], p.target.attitude(sol.times),
                               p.target.position, p.kos_cfg))
        assert KosState.STATE_I in sched and KosState.STATE_II in sched
        assert np.any(sol.multipliers[1][sched == KosState.STATE_II] > 0)
        return p, sol, sched

    def test_resolve_from_own_plan(self):
        p = simple_problem(N=50, kos=True)
        first = solve(p)
        again = solve(p, first).solver_stats
        # the start is tested with its own multipliers before the first
        # update moves lam by mu0 * h, so no Newton step is taken (a cold
        # multiplier restart takes 32)
        assert again.newton_iterations == 0
        # with an equality residual too small to move lam, the re-solve
        # accepts its start as is: one outer iteration and no Newton step
        # in each chain
        tight = solve(p, feas_tol=1e-10)
        again = solve(p, tight).solver_stats
        assert (again.outer_iterations, again.newton_iterations) == (2, 0)
        assert again.message == "converged"

    def test_warm_pass2_agrees_with_cold(self, two_pass):
        p, sol, sched = two_pass
        p2 = replace(p, kos_schedule=sched)
        warm = solve(p2, sol)
        cold = solve(p2, replace(sol, multipliers=None))
        assert warm.converged and cold.converged
        assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-4)

    def test_pass2_keeps_the_attitude_columns(self, two_pass, monkeypatch):
        # pass 2 changes only the keep-out schedule, which the attitude chain
        # never reads: its warm restart takes no Newton step and returns
        # pass 1's theta, omega and tau columns bit for bit
        p, sol, sched = two_pass
        runs = []
        real = optimizer.solve_al

        def spy(prob, z0, **kwargs):
            runs.append(real(prob, z0, **kwargs))
            return runs[-1]

        monkeypatch.setattr(optimizer, "solve_al", spy)
        warm = solve(replace(p, kos_schedule=sched), sol)
        attitude = runs[0][3]
        assert (attitude.outer_iterations, attitude.newton_iterations) == (1, 0)
        assert warm.states[:, [2, 5]].tobytes() == sol.states[:, [2, 5]].tobytes()
        assert warm.wrenches[:, 2].tobytes() == sol.wrenches[:, 2].tobytes()

    def test_eta_mapping(self, two_pass, monkeypatch):
        p, sol, sched = two_pass
        seen = []
        real = optimizer.solve_al

        def spy(prob, z0, **kwargs):
            seen.append(kwargs)
            return real(prob, z0, **kwargs)

        monkeypatch.setattr(optimizer, "solve_al", spy)
        p2 = replace(p, kos_schedule=sched)
        solve(p2, sol)
        lam, circle_eta, lobe_eta, mu_final = sol.multipliers
        assert circle_eta.shape == (p.N + 1,) and lobe_eta.shape == (2 * (p.N + 1),)
        state_i = sched == KosState.STATE_I
        # the attitude chain runs first, then the translation chain, which
        # holds every keep-out constraint; each restarts from its rows' lam
        rows = _Transcription(p2).chain_rows
        translation, attitude = seen[1], seen[0]
        np.testing.assert_array_equal(
            translation["eta0"], np.concatenate([circle_eta[state_i], lobe_eta]))
        np.testing.assert_array_equal(translation["lam0"], lam[rows[0]])
        assert attitude["eta0"].shape == (0,)
        np.testing.assert_array_equal(attitude["lam0"], lam[rows[1]])
        assert translation["mu0"] == attitude["mu0"] == min(mu_final, 1e5)
        # a guess at another N is refused before the multiplier loop starts
        with pytest.raises(ValueError, match="N = 50"):
            solve(replace(p, N=60), sol)
        assert len(seen) == 2

    def test_keep_out_model_change_restarts_multipliers(self):
        # a guess from a problem with another constraint set hands over its
        # primal only
        sol = solve(simple_problem(N=50, kos=True))
        again = solve(simple_problem(N=50), sol)
        assert again.converged and again.multipliers[2].shape == (0,)

    def test_failed_pass2_keeps_pass1_plan(self, monkeypatch):
        real = optimizer.solve
        failed = []

        def solve_failing_warm(problem, initial_guess=None, **kwargs):
            if initial_guess is not None:
                failed.append(problem.N)
                raise NotConvergedError(nlp.SolverStats(message="forced"))
            return real(problem, initial_guess, **kwargs)

        monkeypatch.setattr(optimizer, "solve", solve_failing_warm)
        best, results = plan(1.2, nominal_template(target=TargetState(omega=0.3)),
                             max_candidates=2)
        assert len(failed) == len(results) == 2
        for r in results:
            assert r.converged and r.solver_stats.message == "converged"
            assert np.all(r.kos_states == KosState.STATE_I)
            assert r.pass2_failure == "forced"  # recorded, not swallowed
        assert any(best is r for r in results)


class TestPlan:
    def test_nominal_two_candidates(self):
        best, results = plan(3 * math.pi / 4, nominal_template(), max_candidates=2)
        assert len(results) == 2
        assert best.times[-1] == pytest.approx(86.4)
        assert best.objective_value == min(r.objective_value for r in results)
        # relaxation engages in the terminal segment
        assert KosState.STATE_II in best.kos_states
        first = int(np.flatnonzero(best.kos_states == KosState.STATE_II)[0])
        assert best.times[first] >= 0.9 * best.times[-1]
        # no inner Newton loop spins up to MAX_INNER on zero-progress steps
        assert best.solver_stats.inner_capped == 0

    def test_static_target_ladder(self):
        t = TargetState(omega=0.0, theta0=0.3)
        template = nominal_template(target=t, x_init=state(x=1.0))
        best, _ = plan(0.3, template, max_candidates=2, static_durations=(30.0, 60.0))
        assert best.converged
        assert best.times[-1] in (30.0, 60.0)

    def test_static_target_wrong_attitude_rejected(self):
        t = TargetState(omega=0.0, theta0=0.3)
        with pytest.raises(AllCandidatesFailed):
            plan(1.0, nominal_template(target=t), max_candidates=2)

    def test_matches_exhaustive_candidate_search(self):
        # oracle: plan each candidate alone; every candidate is solved from
        # its own cold start, so each result equals its single-candidate
        # plan bit for bit, and the best is the lowest J among them
        template = nominal_template(target=TargetState(omega=0.3))
        best, results = plan(1.2, template, max_candidates=3)
        cands = duration_candidates(TargetState(omega=0.3), 1.2, 3)
        assert len(results) == len(cands) == 3
        for r, t_total in zip(results, cands):
            alone, _ = plan(1.2, template, max_candidates=1, min_duration=t_total - 1e-6)
            np.testing.assert_array_equal(r.states, alone.states)
            np.testing.assert_array_equal(r.wrenches, alone.wrenches)
            assert r.objective_value == alone.objective_value
        assert best.objective_value == min(r.objective_value for r in results)

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
