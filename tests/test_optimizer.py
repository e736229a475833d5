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
from proxdock.kos import (KosConfig, KosState, classify, latch, r_safe,
                          signed_distance_batch)
from proxdock import harness, nlp, optimizer, records
from proxdock.nlp import InfeasibleError, NotConvergedError
from proxdock.optimizer import (AllCandidatesFailed, OptProblem, build_goal_state,
                                duration_candidates, plan, solve)
from proxdock.optimizer import _Transcription


def state(x=0.0, y=0.0, theta=0.0, vx=0.0, vy=0.0, omega=0.0):
    return np.array([x, y, theta, vx, vy, omega])


def wrench(fx=0.0, fy=0.0, tau=0.0):
    return np.array([fx, fy, tau])


def simple_problem(N=40, **overrides):
    body = BodyParams()
    target = TargetState(omega=0.0)
    kw = dict(
        N=N, dt=0.1,
        x_init=state(x=-1.5, y=0.2),
        theta_finish=0.4,
        x_goal=state(x=-1.0, y=0.0, theta=0.4),
        target=target, body=body,
        kos_cfg=KosConfig(),
        wrench_min=wrench(-0.1, -0.1, -0.02),
        wrench_max=wrench(0.1, 0.1, 0.02),
    )
    kw.update(overrides)
    return OptProblem(**kw)


def chain_parts(p, states, wrenches):
    """(chain, its z) for the translation and the attitude chain."""
    return [(tr, tr.pack(states, wrenches)) for tr in (_Transcription(p, 0), _Transcription(p, 1))]


def equality_residuals(p, states, wrenches) -> dict:
    """Initial-state, defect and terminal-attitude rows of E z - e over both
    chains, the rows of each state quantity in its place."""
    init, defects = np.empty(6), np.empty((p.N, 6))
    for (tr, z), js in zip(chain_parts(p, states, wrenches), ([0, 1, 3, 4], [2, 5])):
        r = tr.E @ z - tr.e_rhs
        s = len(js)
        init[js] = r[:s]
        defects[:, js] = r[s:s + s * p.N].reshape(p.N, s)
    return {"init": init, "defects": defects, "terminal": float(r[-1])}


def scipy_csr(M):
    """An nlp.Csr as the scipy.sparse matrix of the same arrays."""
    return sp.csr_matrix((M.data, M.indices, M.indptr), shape=M.shape)


def objective_value(p, states, wrenches) -> float:
    return sum(nlp._objective(tr, z)[0] for tr, z in chain_parts(p, states, wrenches))


def nominal_template(**overrides):
    body = BodyParams()
    target = TargetState(omega=0.1)
    kw = dict(N=2, dt=0.1, x_init=state(x=1.0), theta_finish=0.0,
              x_goal=state(), target=target, body=body, kos_cfg=KosConfig())
    kw.update(overrides)
    return OptProblem(**kw)


@pytest.fixture(scope="module")
def two_pass():
    """Pass 1 of a docking approach that ends against the keep-out circle,
    and its latched State II schedule, which drops circle knots with
    positive multipliers."""
    p = simple_problem(N=50, dt=0.5, x_init=state(x=-1.0, y=0.3),
                       x_goal=state(x=0.35, theta=0.4))
    sol = solve(p)
    sched = latch(classify(sol.states[:, :2], p.target.attitude(sol.times),
                           p.target.position, p.kos_cfg))
    assert KosState.STATE_I in sched and KosState.STATE_II in sched
    assert np.any(sol.restart.eta[sched == KosState.STATE_II] > 0)
    return p, sol, sched


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
        b = optimizer.breakdown(p, states, wrenches)
        assert b[0] == pytest.approx(goal, rel=1e-12)
        assert b[1] == pytest.approx(kinetic, rel=1e-12)
        assert b[2] == pytest.approx(effort, rel=1e-12)

    def test_gradient_matches_central_differences(self):
        # criterion: relative error <= 1e-4 at random feasible points
        p = simple_problem(N=8)
        rng = np.random.default_rng(6)
        for b in (0, 1):
            tr = _Transcription(p, b)
            z = rng.normal(size=tr.n)
            grad = nlp._objective(tr, z)[1]
            h = 1e-6
            fd = np.empty_like(z)
            for i in range(len(z)):
                zp, zm = z.copy(), z.copy()
                zp[i] += h
                zm[i] -= h
                fd[i] = (nlp._objective(tr, zp)[0] - nlp._objective(tr, zm)[0]) / (2 * h)
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
        p = simple_problem(N=4)
        states = np.tile(p.x_init, (5, 1))
        states[2, :2] = 0.0  # knot parked at the target's center
        tr, z = chain_parts(p, states, np.zeros((4, 3)))[0]
        assert np.min(tr.ineq_values(z)) < 0

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
            p = simple_problem(N=N)
            states = rng.normal(size=(N + 1, 6))
            wrenches = rng.normal(size=(N, 3))
            s2, w2 = np.full_like(states, np.nan), np.full_like(wrenches, np.nan)
            parts = chain_parts(p, states, wrenches)
            assert [z.shape for _, z in parts] == [(6 * N + 4,), (3 * N + 2,)]
            for tr, z in parts:
                tr.unpack(z, s2, w2)
            np.testing.assert_array_equal(states, s2)
            np.testing.assert_array_equal(wrenches, w2)


class TestLayout:
    """Each chain's vector, knot-major: its quantities at each knot k < N,
    states first, then its states at knot N.  This keeps the Newton matrix's
    bandwidth at 6 on the translation chain and 3 on the attitude chain."""

    @pytest.mark.parametrize("N", [2, 3, 50])
    def test_table_covers_every_variable_once(self, N):
        # every state and wrench entry gets a distinct code: 10 k + j for
        # quantity j of knot k, as numbered in [state | wrench]
        code = 10.0 * np.arange(N + 1)[:, None] + np.arange(9)
        states, wrenches = code[:, :6], code[:-1, 6:]
        packed = []
        for b, quantities in enumerate(([0, 1, 3, 4, 6, 7], [2, 5, 8])):
            tr = _Transcription(simple_problem(N=N), b)
            z = tr.pack(states, wrenches)
            w = len(quantities)
            assert tr.n == w * N + sum(j < 6 for j in quantities)
            np.testing.assert_array_equal(z, code[:, quantities].ravel()[:tr.n])
            packed.append(z)
        np.testing.assert_array_equal(np.sort(np.concatenate(packed)),
                                      np.sort(np.concatenate([states.ravel(), wrenches.ravel()])))

    @pytest.mark.parametrize("N", [2, 3, 50])
    @pytest.mark.parametrize("model", ["all_state_i", "mixed", "all_state_ii"])
    def test_bandwidth_six(self, N, model):
        p = simple_problem(N=N)
        if model == "mixed":
            p = replace(p, kos_schedule=[KosState.STATE_I] * (N // 2 + 1)
                        + [KosState.STATE_II] * (N - N // 2))
        elif model == "all_state_ii":
            p = replace(p, kos_schedule=[KosState.STATE_II] * (N + 1))
        tr, att = _Transcription(p, 0), _Transcription(p, 1)
        assert (len(tr.ete_band) - 1, len(att.ete_band) - 1) == (6, 3)
        # nlp puts the keep-out cross term on the first subdiagonal
        np.testing.assert_array_equal(tr.ineq_iy, tr.ineq_ix + 1)
        assert tr.m_in > 0


class TestChains:
    """The transcription is built as the translation chain and the attitude
    chain, each over its own vector, and solve solves them apart."""

    @pytest.mark.parametrize("N", [2, 50])
    def test_every_row_and_constraint_reads_one_chain(self, N):
        # a schedule with both states, latched from knot 1: a State I knot
        # has the circle row, a State II knot the ellipse row
        sched = latch(np.where(np.arange(N + 1) % 3 == 1, KosState.STATE_II, KosState.STATE_I))
        p = simple_problem(N=N, kos_schedule=sched)
        tr, att = _Transcription(p, 0), _Transcription(p, 1)
        # the chains' variables: 4 states and 2 forces, 2 states and a torque
        assert (tr.n, att.n) == (6 * N + 4, 3 * N + 2)
        # every equality row: initial state, defects, terminal attitude
        assert tr.E.shape == (4 * (N + 1), tr.n) and att.E.shape == (2 * (N + 1) + 1, att.n)
        # every keep-out constraint reads x and y of the translation chain,
        # one row per knot in knot order
        np.testing.assert_array_equal(tr.ineq_ix, 6 * np.arange(N + 1))
        np.testing.assert_array_equal(tr.ineq_iy, 6 * np.arange(N + 1) + 1)
        n_ii = np.count_nonzero(sched == KosState.STATE_II)
        assert 0 < n_ii < N + 1 and tr.rows.switch == N + 1 - n_ii
        assert (tr.m_in, att.m_in) == (N + 1, 0)
        # the chains' objectives sum to the objective's terms
        rng = np.random.default_rng(N)
        states, wrenches = rng.normal(size=(N + 1, 6)), rng.normal(size=(N, 3))
        parts = [nlp._objective(c, z)[0] for c, z in chain_parts(p, states, wrenches)]
        assert sum(parts) == pytest.approx(sum(optimizer.breakdown(p, states, wrenches)),
                                           rel=1e-12)

    def test_attitude_columns_solve_the_attitude_qp(self):
        # a keep-out problem whose keep-out constraints are active and whose
        # torque box stays slack: its attitude columns are the solution of
        # the attitude block's equality-constrained QP, solved densely
        p = simple_problem(N=50, dt=0.5, x_init=state(x=-1.0, y=0.3),
                           x_goal=state(x=0.35, theta=0.4))
        sol = solve(p)
        assert np.count_nonzero(sol.restart.eta) > 0
        assert np.max(np.abs(sol.wrenches[:, 2])) < 0.5 * p.wrench_max[2]
        tr = _Transcription(p, 1)
        A = scipy_csr(tr.E).toarray()
        m = A.shape[0]
        kkt = np.block([[np.diag(2.0 * tr.q), A.T], [A, np.zeros((m, m))]])
        qp = np.linalg.solve(kkt, np.concatenate([-tr.c, tr.e_rhs]))[:tr.n]
        np.testing.assert_allclose(tr.pack(sol.states, sol.wrenches), qp, rtol=0, atol=1e-6)


class TestValuePath:
    """ineq_values(z) must equal ineq_full(z)[0] bit for bit: a closed-form
    trial's merit change subtracts a value of one path from one of the
    other."""

    @staticmethod
    def knots_near_kos(p):
        """(states, wrenches) with knot positions laid out in the rotating
        target frame: within 2 cm of the docking axis on both sides of it,
        on the axis, inside the circle and well outside everything."""
        rs = r_safe(p.kos_cfg)
        band = [0.006, 0.014, 0.02, 0.0, -0.006, -0.014, -0.02]
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
        return states, rng.normal(size=(p.N, 3))

    @pytest.mark.parametrize("mixed", [False, True], ids=["all_state_i", "mixed"])
    def test_values_equal_full_bit_for_bit(self, mixed):
        target = TargetState(omega=0.37, theta0=0.4, x=0.2, y=-0.1)
        p = simple_problem(N=80, target=target)
        if mixed:
            sched = [KosState.STATE_I] * 30 + [KosState.STATE_II] * 51
            p = replace(p, kos_schedule=tuple(sched))
        tr = _Transcription(p, 0)
        z = tr.pack(*self.knots_near_kos(p))
        g = tr.ineq_values(z)
        # the circle at the State I knots, then the ellipse at the State II
        # knots; all State I: no ellipse row
        n_i = (p.N + 1 if p.kos_schedule is None
               else np.count_nonzero(p.kos_schedule == KosState.STATE_I))
        assert g.shape == (tr.m_in,) == (p.N + 1,) and tr.rows.switch == n_i
        assert np.array_equal(g, tr.ineq_full(z)[0])
        # some knots lie inside the circle
        assert np.any(g[:n_i] < 0)


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
        p = simple_problem(N=30, target=target)
        if mixed:
            p = replace(p, kos_schedule=[KosState.STATE_I] * 12 + [KosState.STATE_II] * 19)
        tr = _Transcription(p, 0)
        z = tr.pack(*TestValuePath.knots_near_kos(p))
        rng = np.random.default_rng(3)
        mu = 100.0
        # every other multiplier zero, so that the rows of knots outside
        # the zone are inactive
        eta = rng.uniform(0.0, 50.0, tr.m_in)
        eta[::2] = 0.0
        m = nlp._Multipliers(lam=np.zeros(tr.E.shape[0]), eta=eta, mu=mu)
        ineq = g, gx, gy = tr.ineq_full(z)
        act = m.eta - mu * g > 0.0
        assert 0 < np.count_nonzero(act) < tr.m_in

        H = self.dense_from_band(nlp._assemble_banded(tr, m, ineq, nlp._base_banded(tr, mu)))

        E = scipy_csr(tr.E).toarray()
        G = np.zeros((tr.m_in, tr.n))
        rows = np.arange(tr.m_in)
        G[rows, tr.ineq_ix] = gx
        G[rows, tr.ineq_iy] = gy
        expected = np.diag(2.0 * tr.q) + mu * E.T @ E + mu * G[act].T @ G[act]
        assert np.max(np.abs(H - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert np.linalg.eigvalsh(H)[0] > 0.0
        # the attitude chain has no keep-out term
        att = _Transcription(p, 1)
        H = self.dense_from_band(nlp._base_banded(att, mu))
        E = scipy_csr(att.E).toarray()
        expected = np.diag(2.0 * att.q) + mu * E.T @ E
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
        p = simple_problem(N=50, dt=0.5, x_init=state(x=-1.0, y=0.3),
                           x_goal=state(x=0.35, theta=0.4))
        tr = _Transcription(p, 0)
        z0 = tr.pack(*optimizer.default_initial_guess(p))
        z, lam, eta, stats = nlp.solve_al(tr, z0, mu0=1e8)
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
            solve(simple_problem(N=20))
        assert ex.value.stats.message == "Newton matrix not positive definite"
        assert ex.value.stats.newton_iterations == 1

    def test_plan_lists_failed_candidates(self, cholesky_fails):
        with pytest.raises(AllCandidatesFailed) as ex:
            plan(3 * math.pi / 4, nominal_template(), max_candidates=2)
        assert len(ex.value.reasons) == 2
        assert all("not positive definite" in r for r in ex.value.reasons)

    def test_factor_calls_match_scipy_and_keep_its_checks(self):
        # nlp's LAPACK calls give scipy.linalg's results bit for bit and raise
        # what scipy's raise: ValueError on an inf or nan, LinAlgError when
        # the matrix is not positive definite
        import scipy.linalg
        rng = np.random.default_rng(4)
        ab = rng.uniform(-0.1, 0.1, (7, 300))
        ab[0] += 2.0
        rhs = rng.normal(size=300)
        want = scipy.linalg.cholesky_banded(ab, lower=True)
        cb = nlp.cholesky_banded(ab.copy(), lower=True)
        assert cb.tobytes() == want.tobytes()
        assert (nlp.cho_solve_banded((cb, True), rhs).tobytes()
                == scipy.linalg.cho_solve_banded((want, True), rhs).tobytes())
        for bad in (np.nan, np.inf):
            broken = ab.copy()
            broken[3, 17] = bad
            with pytest.raises(ValueError):
                nlp.cholesky_banded(broken, lower=True)
            with pytest.raises(ValueError):
                nlp.cho_solve_banded((cb, True), np.where(np.arange(300) == 5, bad, rhs))
        indefinite = ab.copy()
        indefinite[0, 40] = -1.0
        with pytest.raises(np.linalg.LinAlgError):
            nlp.cholesky_banded(indefinite, lower=True)

    def test_non_finite_newton_matrix_raises_not_converged(self, monkeypatch):
        # cholesky_banded raises ValueError on an inf or nan
        def fail(*args, **kwargs):
            raise ValueError("array must not contain infs or NaNs")
        monkeypatch.setattr(nlp, "cholesky_banded", fail)
        with pytest.raises(NotConvergedError) as ex:
            solve(simple_problem(N=20))
        assert ex.value.stats.message == "Newton matrix holds an inf or nan"
        assert ex.value.stats.newton_iterations == 1


class TestLqRelaxation:
    """lq_relaxation, one banded LU solve per axis, against a dense solve of
    each chain's KKT system [2Q E^T; E 0] [z; -lam] = [-c; e]."""

    @pytest.mark.parametrize("N, scheduled, weights", [
        (2, False, {}), (7, True, {}), (40, False, dict(w_kin=0.0)),
        (60, True, dict(w_u=0.5, w_goal=3.0, dt=0.3))])
    def test_matches_dense_kkt(self, N, scheduled, weights):
        # the relaxation drops the keep-out rows, so a State II schedule
        # leaves it as it is
        p = simple_problem(N=N, x_init=state(-1.5, 0.2, 0.1, 0.01, -0.02, 0.03),
                           x_goal=state(-1.0, 0.1, 0.5, 0.002, -0.001, 0.01), **weights)
        if scheduled:
            p = replace(p, kos_schedule=np.where(np.arange(N + 1) > N // 2, KosState.STATE_II,
                                                 KosState.STATE_I))
        relax = optimizer.lq_relaxation(p)
        objective = 0.0
        for b in (0, 1):
            tr = _Transcription(p, b)
            E = scipy_csr(tr.E).toarray()
            m = len(E)
            kkt = np.block([[np.diag(2.0 * tr.q), E.T], [E, np.zeros((m, m))]])
            x = np.linalg.solve(kkt, np.concatenate([-tr.c, tr.e_rhs]))
            z, lam = x[:tr.n], -x[tr.n:]
            np.testing.assert_allclose(tr.pack(relax.states, relax.wrenches), z,
                                       rtol=0, atol=1e-10 * max(1.0, np.max(np.abs(z))))
            np.testing.assert_allclose(relax.lam[b], lam,
                                       rtol=0, atol=1e-10 * max(1.0, np.max(np.abs(lam))))
            objective += nlp._objective(tr, z)[0]
        assert relax.objective == pytest.approx(objective, rel=1e-10, abs=1e-12)

    def test_no_unique_optimum_gives_no_bound(self):
        # without effort and kinetic weights the LQ has no unique optimum:
        # the planner then prunes nothing and starts from zero multipliers,
        # and the candidates fail as the solver reports
        p = nominal_template(w_u=0.0, w_kin=0.0)
        with pytest.raises(np.linalg.LinAlgError):
            optimizer.lq_relaxation(replace(p, N=40))
        with pytest.raises(AllCandidatesFailed, match="not positive definite") as ex:
            plan(3 * math.pi / 4, p, max_candidates=2)
        assert len(ex.value.reasons) == 2

    def test_bounds_the_plan_and_its_pass2(self, two_pass):
        p, sol, sched = two_pass
        bound = optimizer.lq_relaxation(p).objective
        assert bound <= sol.objective_value
        assert bound <= solve(replace(p, kos_schedule=sched), sol).objective_value


class TestSolve:
    def test_reaches_goal_against_lq_oracle(self):
        # unconstrained transcription has a closed-form KKT solution; compare
        p = simple_problem(N=400, x_init=state(x=-1.25, y=0.1),
                           wrench_min=wrench(-5, -5, -1),
                           wrench_max=wrench(5, 5, 1))
        sol = solve(p)
        assert np.hypot(*(sol.states[-1, :2] - sol.x_goal[:2])) <= 1e-3

        # the whole problem's KKT system, with the chains side by side
        chains = _Transcription(p, 0), _Transcription(p, 1)
        n = sum(tr.n for tr in chains)
        H = sp.diags(2.0 * np.concatenate([tr.q for tr in chains]))
        E = sp.block_diag([scipy_csr(tr.E) for tr in chains])
        kkt = sp.bmat([[H, E.T], [E, None]], format="csc")
        rhs = np.concatenate([-tr.c for tr in chains] + [tr.e_rhs for tr in chains])
        zl = spla.spsolve(kkt, rhs)
        np.testing.assert_allclose(np.concatenate([tr.pack(sol.states, sol.wrenches)
                                                   for tr in chains]), zl[:n], atol=2e-4)

    def test_already_at_goal(self):
        s = state(x=-1.0, theta=0.4)
        p = simple_problem(N=5, x_init=s, x_goal=s, theta_finish=0.4)
        sol = solve(p)
        assert sol.objective_value <= 1e-10
        assert np.abs(sol.wrenches).max() <= 1e-6

    def test_converged_invariants(self):
        p = simple_problem(N=50, x_init=state(x=1.0),
                           x_goal=state(x=0.6, theta=0.2), theta_finish=0.2)
        sol = solve(p)
        assert sol.solver_stats.message == "converged"
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

    @staticmethod
    def projected_kkt_residual(prob, z, lam, eta) -> float:
        """Stationarity of the Lagrangian projected onto the box bounds."""
        _, grad = nlp._objective(prob, z)
        r = grad - prob.E.rmatvec(lam)
        _, gx, gy = prob.ineq_full(z)
        np.add.at(r, prob.ineq_ix, -eta * gx)
        np.add.at(r, prob.ineq_iy, -eta * gy)
        return nlp._projected_grad(z, r, prob.lb, prob.ub)[0]

    def test_kkt_and_feasibility_reported(self, two_pass, monkeypatch):
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
        solve(simple_problem(N=50))
        p2, sol2, sched = two_pass
        solve(replace(p2, kos_schedule=sched), sol2)
        # the reported residual is the returned point's, recomputed from the
        # returned multipliers, bit for bit: for two cold solves, in both of
        # their solve_al runs (attitude chain, then translation chain), and
        # a pass-2 restart, in its one (translation chain)
        assert len(seen) == 5
        for prob, (z, lam, eta, stats) in seen:
            pk = self.projected_kkt_residual(prob, z, lam, eta)
            assert stats.kkt_residual.hex() == pk.hex()

    def test_weight_scaling_preserves_kkt_points(self):
        # scaling all three objective weights scales J and keeps the solution
        p = simple_problem(N=30)
        sol = solve(p)
        c = 7.5
        p2 = replace(p, w_goal=p.w_goal * c, w_u=p.w_u * c, w_kin=p.w_kin * c)
        assert objective_value(p2, sol.states, sol.wrenches) == pytest.approx(
            c * sol.objective_value, rel=1e-9)
        # a solve of its own: a restart takes a plan of the same problem only
        sol2 = solve(p2)
        np.testing.assert_allclose(sol2.states, sol.states, atol=5e-5)
        np.testing.assert_allclose(sol2.wrenches, sol.wrenches, atol=5e-5)

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
        p = simple_problem(N=10)
        tr = _Transcription(p, 0)
        z0 = tr.pack(*optimizer.default_initial_guess(p))
        for bad in (dict(lam0=np.zeros(3)), dict(eta0=np.zeros(tr.m_in + 1))):
            with pytest.raises(ValueError, match="lam0/eta0 must match"):
                nlp.solve_al(tr, z0, **bad)

    @pytest.mark.parametrize("layout", ["duplicated", "descending", "not_adjacent"])
    def test_keep_out_layout_checked(self, layout):
        # the merit gradient and the Newton matrix add the keep-out rows'
        # terms by plain indexed adds, right only for unique x indices with
        # each y index right after its x index
        p = simple_problem(N=10)
        tr = _Transcription(p, 0)
        z0 = tr.pack(*optimizer.default_initial_guess(p))
        ix = tr.ineq_ix.copy()
        if layout == "duplicated":
            ix[4] = ix[3]
        elif layout == "descending":
            ix = ix[::-1].copy()
        tr.ineq_ix, tr.ineq_iy = ix, ix + (2 if layout == "not_adjacent" else 1)
        with pytest.raises(ValueError, match="ineq_ix must strictly increase"):
            nlp.solve_al(tr, z0)

    def test_iteration_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(nlp, "MAX_OUTER", 2)
        with pytest.raises(NotConvergedError) as ex:
            solve(simple_problem(N=30))
        assert ex.value.stats.message == "iteration budget exhausted"
        assert ex.value.stats.outer_iterations == 2

    def test_infeasible_when_unactuated(self):
        p = simple_problem(N=20, wrench_min=wrench(), wrench_max=wrench(),
                           theta_finish=1.0)
        with pytest.raises((InfeasibleError,)):
            solve(p)


class TestOracles:
    """The planner's keep-out rows and plans against independent references:
    the audit's exact distances and scipy's SLSQP."""

    def test_row_signs_agree_with_the_audit(self):
        # knots of both states at random attitudes, uniform over a disc of
        # twice the zone's size or within a relative 1e-8.5 to 1e-3 of its
        # boundary: away from the boundary, a knot's row is >= 0 exactly
        # where its exact signed distance is
        target = TargetState(omega=0.37, theta0=0.4, x=0.2, y=-0.1)
        N, n_i = 3999, 2000
        sched = np.repeat([KosState.STATE_I, KosState.STATE_II], [n_i, N + 1 - n_i])
        p = simple_problem(N=N, target=target, kos_schedule=sched)
        rs = r_safe(p.kos_cfg)
        rng = np.random.default_rng(12)
        phi = rng.uniform(-math.pi, math.pi, N + 1)
        # the zone's boundary point at each knot's angle phi, in the target frame
        bx = np.where(sched == KosState.STATE_I, rs, rs / 2.0) * np.cos(phi)
        by = rs * np.sin(phi)
        near = 1.0 + rng.choice([-1.0, 1.0], N + 1) * 10.0 ** rng.uniform(-8.5, -3.0, N + 1)
        scale = np.where(rng.random(N + 1) < 0.5, near, rng.uniform(0.0, 2.0, N + 1))
        th = target.attitude(np.arange(N + 1) * p.dt)
        c, s = np.cos(th), np.sin(th)
        states = np.zeros((N + 1, 6))
        states[:, 0] = target.x + scale * (c * bx - s * by)
        states[:, 1] = target.y + scale * (s * bx + c * by)
        tr = _Transcription(p, 0)
        g = tr.ineq_values(tr.pack(states, np.zeros((N, 3))))
        d = signed_distance_batch(states[:, :2], th, sched, target.position, p.kos_cfg)
        keep = np.abs(d) >= 1e-9
        np.testing.assert_array_equal(g[keep] >= 0.0, d[keep] >= 0.0)
        for state_ in (KosState.STATE_I, KosState.STATE_II):
            kept = keep & (sched == state_)
            assert np.count_nonzero(kept & (d < 0.0)) > 500
            assert np.count_nonzero(kept & (d > 0.0)) > 500
            assert np.count_nonzero(kept & (np.abs(d) < 1e-6)) > 50

    def test_binding_ellipse_rows_against_slsqp(self):
        # all State II, a static target and a straight line through the
        # ellipse: the plan bends around it, against its rows.  SLSQP, from
        # the plan, on the same translation chain, ends at a feasible point
        # of the same objective
        from scipy.optimize import minimize
        N = 14
        p = simple_problem(N=N, dt=2.5, x_init=state(x=0.05, y=0.6),
                           x_goal=state(x=0.05, y=-0.6, theta=0.4),
                           kos_schedule=[KosState.STATE_II] * (N + 1))
        sol = solve(p)
        tr = sol.restart.chain
        assert tr.rows.switch == 0 and np.any(sol.restart.eta > 0)
        z0 = tr.pack(sol.states, sol.wrenches)
        E = scipy_csr(tr.E).toarray()
        rows = np.arange(tr.m_in)

        def ineq_jac(z):
            _, gx, gy = tr.ineq_full(z)
            J = np.zeros((tr.m_in, tr.n))
            J[rows, tr.ineq_ix], J[rows, tr.ineq_iy] = gx, gy
            return J

        res = minimize(lambda z: nlp._objective(tr, z), z0, jac=True, method="SLSQP",
                       bounds=[(None if np.isinf(lo) else lo, None if np.isinf(hi) else hi)
                               for lo, hi in zip(tr.lb, tr.ub)],
                       constraints=[dict(type="eq", fun=lambda z: E @ z - tr.e_rhs,
                                         jac=lambda z: E),
                                    dict(type="ineq", fun=tr.ineq_values, jac=ineq_jac)],
                       options=dict(maxiter=1000, ftol=1e-14))
        assert res.success, res.message
        z = res.x
        assert res.fun == pytest.approx(nlp._objective(tr, z0)[0], rel=1e-5)
        assert np.max(np.abs(E @ z - tr.e_rhs)) <= 1e-8
        assert np.min(tr.ineq_values(z)) >= -1e-8
        assert np.all((tr.lb <= z) & (z <= tr.ub))


class TestInnerExits:
    """Each inner loop evaluates every iterate once, and besides them only
    the trials that the box clipped, and hands back the equality residual,
    the keep-out values and the projected AL-gradient norm of the point it
    ends at, whichever way it ends."""

    @staticmethod
    @pytest.fixture
    def exits(monkeypatch):
        """Spy on nlp._inner_newton: checks its start and every return
        against a fresh evaluation and records (evaluated iterates, Newton
        steps, exit), the start counted as evaluated.  Inside the loop only
        the latest line-search trial may be evaluated, a closed-form one
        only as its step's last evaluation, and each step must start from
        the point evaluated last, whose evaluation is then the iterate's."""
        seen = []
        real_inner, real_evaluate, real_trial = nlp._inner_newton, nlp._evaluate, nlp._trial_point
        loop = {}  # the running inner loop's state; empty outside one

        def trial(z, alpha, d, lb, ub):
            if z is not loop["z"]:  # a Newton step starts at z
                assert z is loop["evaluated"]
                loop.update(z=z, closed_evaluated=False, steps=loop["steps"] + 1)
            loop["trial"] = real_trial(z, alpha, d, lb, ub)
            return loop["trial"]

        def evaluate(prob, z):
            if loop:
                zt, closed = loop["trial"]
                assert z is zt and z is not loop["evaluated"] and not loop["closed_evaluated"]
                loop.update(evaluated=z, closed_evaluated=closed)
            return real_evaluate(prob, z)

        def bits(ev):
            f, df, h, ineq = ev
            return [float(f).hex()] + [a.tobytes() for a in (df, h, *ineq)]

        def spy(prob, z, ev, m, base, tol):
            # the evaluation handed over from the last inner loop (or the
            # start) is z's, bit for bit, whatever the multipliers now are
            assert bits(ev) == bits(real_evaluate(prob, z))
            loop.update(z=None, evaluated=z, trial=None, steps=0)
            out = zf, evf, pgn, nit, exit_ = real_inner(prob, z, ev, m, base, tol)
            last_start, steps, evaluated = loop["z"], loop["steps"], loop["evaluated"]
            loop.clear()
            fresh = real_evaluate(prob, zf)
            assert bits(evf) == bits(fresh)
            grad = nlp._merit_grad(prob, fresh, m)[1]
            assert pgn == nlp._projected_grad(zf, grad, prob.lb, prob.ub)[0]
            # one evaluation per iterate: the point of a step that no trial
            # accepted is the one its step started from
            assert steps == nit and (zf is evaluated or (zf is last_start and exit_ == "stall"))
            iterates = 1 + nit - (nit > 0 and zf is last_start)
            assert iterates == nit + 1 or (iterates == nit and exit_ == "stall")
            seen.append((iterates, nit, exit_))
            return out

        monkeypatch.setattr(nlp, "_trial_point", trial)
        monkeypatch.setattr(nlp, "_evaluate", evaluate)
        monkeypatch.setattr(nlp, "_inner_newton", spy)
        return seen

    @staticmethod
    @pytest.fixture
    def all_trials_clipped(monkeypatch):
        """Every line-search trial taken as clipped, so each evaluates the
        merit whole; requested before exits, whose spy then sees it."""
        real_trial = nlp._trial_point
        monkeypatch.setattr(nlp, "_trial_point", lambda *args: (real_trial(*args)[0], False))

    def test_cap(self, exits, monkeypatch):
        monkeypatch.setattr(nlp, "MAX_INNER", 2)
        with pytest.raises(InfeasibleError) as ex:
            solve(simple_problem(N=30))
        stats = ex.value.stats
        assert stats.inner_capped == sum(e == "cap" for _, _, e in exits) > 0
        assert all((nit == 2) == (e == "cap") for _, nit, e in exits if e != "stall")
        assert stats.newton_iterations == sum(nit for _, nit, _ in exits)

    def test_cap_ranks_above_tol(self, exits, monkeypatch):
        # a restart at a converged point, from its multipliers at a penalty
        # too small for the first update's mu0 h to move them past KKT_TOL,
        # meets the tolerance at once, but with MAX_INNER = 0 its inner loop
        # ends as a cap; one such restart per chain
        p = simple_problem(N=50)
        starts = []
        for b in (1, 0):
            tr = _Transcription(p, b)
            z, lam, eta, _ = nlp.solve_al(tr, tr.pack(*optimizer.default_initial_guess(p)))
            starts.append((tr, z, lam, eta))
        monkeypatch.setattr(nlp, "MAX_INNER", 0)
        for tr, z, lam, eta in starts:
            again = nlp.solve_al(tr, z, lam0=lam, eta0=eta, mu0=1.0)[3]
            assert exits[-1] == (1, 0, "cap")
            assert (again.outer_iterations, again.newton_iterations,
                    again.inner_capped) == (1, 0, 1)
            assert again.message == "converged"

    def test_both_stalls(self, all_trials_clipped, exits):
        # the sweep2 point theta = 180 deg, omega = 0.55 (f_thr = 0.03): the
        # pass-1 solve of its first candidate, which spends the outer
        # iteration budget.  With every trial taken as clipped, each
        # evaluates the merit whole; inner loops then end both where no
        # backtracking trial passes the Armijo test and where an accepted
        # step leaves the merit unchanged
        cfg = harness.RunConfig({**harness.load_config(None).values,
                                 "opt.theta_approach": math.pi, "target.omega": 0.55,
                                 "layout.f_thr": 0.03,
                                 "opt.min_duration": "auto", "opt.goal_corotate": True})
        plan(cfg["opt.theta_approach"], cfg.opt_template(), **cfg.plan_kwargs())
        stalls = [iterates - nit for iterates, nit, e in exits if e == "stall"]
        assert 0 in stalls and 1 in stalls

    def test_closed_form_floor_is_a_stall(self, two_pass, monkeypatch):
        # from a converged point, with no gradient tolerance, the Newton
        # steps soon lower the merit by less than its rounding: that step's
        # first closed-form trial passes the Armijo test but not the noise
        # test, so the loop ends as a stall where the step started, after
        # one trial, instead of halving 40 times
        p, sol, _ = two_pass
        tr = _Transcription(p, 0)
        z = tr.pack(sol.states, sol.wrenches)
        r = sol.restart
        m = nlp._Multipliers(lam=r.lam, eta=r.eta, mu=r.mu)
        trials, evals = [], []
        real_values, real_evaluate = tr.ineq_values, nlp._evaluate
        monkeypatch.setattr(tr, "ineq_values", lambda zt: trials.append(zt) or real_values(zt))
        monkeypatch.setattr(nlp, "_evaluate", lambda prob, zt: evals.append(zt)
                            or real_evaluate(prob, zt))
        zf, _, pgn, nit, exit_ = nlp._inner_newton(
            tr, z, real_evaluate(tr, z), m, nlp._base_banded(tr, r.mu), tol=0.0)
        assert exit_ == "stall" and pgn > 0.0
        # one trial per step, and the last step is not taken: zf is the
        # point evaluated last
        assert len(trials) == nit <= 3
        assert len(evals) == nit - 1 and zf is (evals[-1] if evals else z)


class TestClosedFormTrials:
    """Up to the box step a line-search trial's merit change is closed form
    but for the keep-out term; past it the trial is clipped into the box
    and evaluated whole."""

    @pytest.mark.parametrize("which", ["pass1", "pass2", "attitude"])
    def test_change_matches_merit_difference(self, two_pass, which):
        p, sol, sched = two_pass
        b = int(which == "attitude")
        tr = _Transcription(replace(p, kos_schedule=sched) if which == "pass2" else p, b)
        assert tr.m_in == (0 if b else p.N + 1)
        assert (tr.rows.switch < tr.m_in) == (which == "pass2")
        rng = np.random.default_rng(11)
        z = tr.pack(sol.states, sol.wrenches)
        z = np.clip(z + 1e-3 * rng.normal(size=tr.n), tr.lb, tr.ub)
        eta = rng.uniform(0.0, 10.0, tr.m_in)
        eta[::2] = 0.0
        m = nlp._Multipliers(lam=rng.normal(size=tr.E.shape[0]), eta=eta, mu=1e4)
        ev = nlp._evaluate(tr, z)
        f, grad, a = nlp._merit_grad(tr, ev, m)
        d = 1e-2 * rng.normal(size=tr.n)
        d[(z == tr.lb) | (z == tr.ub)] = 0.0  # as a pinned variable's
        delta = nlp._merit_change(tr, m, nlp.dot(grad, d), a, ev[3], d)
        # the longest step inside the wrench box
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(d > 0, tr.ub - z, tr.lb - z) / d
        alpha_box = np.min(room[d != 0])
        assert 0.0 < alpha_box < np.inf
        keep_out_moved = False
        for alpha in 0.999 * alpha_box * np.append(rng.uniform(0.0, 1.0, 20), 1.0):
            zt, inside = nlp._trial_point(z, alpha, d, tr.lb, tr.ub)
            assert inside and zt.tobytes() == (z + alpha * d).tobytes()
            want = nlp._merit_grad(tr, nlp._evaluate(tr, zt), m)[0] - f
            assert abs(delta(alpha, zt) - want) <= 1e-10 * max(1.0, abs(f))
            at = np.maximum(0.0, m.eta - m.mu * tr.ineq_values(zt))
            keep_out_moved |= not np.array_equal(at, a)
        assert keep_out_moved == (b == 0)

    def test_step_across_a_wrench_bound_is_clipped(self, monkeypatch):
        # a box too tight for the maneuver: steps cross wrench bounds, and
        # those trials are clipped into the box and evaluated whole
        p = simple_problem(N=40, wrench_min=wrench(-0.004, -0.004, -0.02),
                           wrench_max=wrench(0.004, 0.004, 0.02))
        tr = _Transcription(p, 0)
        inside = lambda zt: bool(np.all((tr.lb <= zt) & (zt <= tr.ub)))
        trials, clipped, evaluated = [], [], []
        real_trial, real_evaluate = nlp._trial_point, nlp._evaluate

        def trial(*args):
            zt, closed = real_trial(*args)
            trials.append(zt)
            if not closed:
                clipped.append(zt)
            return zt, closed

        monkeypatch.setattr(nlp, "_trial_point", trial)
        monkeypatch.setattr(nlp, "_evaluate", lambda prob, zt: evaluated.append(zt)
                            or real_evaluate(prob, zt))
        z, _, _, stats = nlp.solve_al(tr, tr.pack(*optimizer.default_initial_guess(p)))
        assert stats.message == "converged"
        assert 0 < len(clipped) < len(trials)
        assert any(any(zt is e for e in evaluated) for zt in clipped)
        assert all(map(inside, trials)) and inside(z)
        # a clipped trial lands a wrench on its bound; the plan uses the box
        boxed = np.isfinite(tr.lb)
        assert all(np.any(boxed & ((zt == tr.lb) | (zt == tr.ub))) for zt in clipped)
        assert np.any(boxed & ((z == tr.lb) | (z == tr.ub)))


class TestPenaltyRaises:
    """After a multiplier update whose violation measure is above both a
    quarter of the last update's and 100 FEAS_TOL, the penalty rises too."""

    def test_raise_when_the_violation_stops_contracting(self, monkeypatch):
        calls = {}
        real = nlp._inner_newton

        def spy(prob, z, ev, m, base, tol):
            # the updates replace lam and eta, so holding them is a snapshot
            mu, lam, eta = m.mu, m.lam, m.eta
            out = real(prob, z, ev, m, base, tol)
            _, _, h, (g, _, _) = out[1]
            v = max(np.max(np.abs(h), initial=0.0),
                    np.max(np.abs(np.minimum(g, eta / mu)), initial=0.0))
            # keyed by the problem itself: held here, no two share an id
            calls.setdefault(prob, []).append((mu, lam, v))
            return out

        runs = []
        real_al = optimizer.solve_al

        def spy_al(prob, z0, **kwargs):
            out = real_al(prob, z0, **kwargs)
            runs.append((prob, out[3]))
            return out

        monkeypatch.setattr(nlp, "_inner_newton", spy)
        monkeypatch.setattr(optimizer, "solve_al", spy_al)
        plan(3 * math.pi / 4, nominal_template(), max_candidates=2)
        contraction = floor = 0
        for key, stats in runs:
            seq = calls[key]
            v_update = np.inf
            raises = 0
            for (mu, lam, v), (mu_next, lam_next, _) in zip(seq, seq[1:]):
                raised = min(10.0 * mu, nlp.MU_MAX)
                if lam_next is lam:  # no update: the feasibility target failed
                    assert mu_next == raised
                elif v > max(v_update / 4, 1e-6):
                    assert mu_next == raised
                    contraction += 1
                else:
                    assert mu_next == mu
                    floor += v <= 1e-6 < v_update / 4
                if lam_next is not lam:
                    v_update = v
                raises += mu_next > mu
            assert stats.mu_raises == raises
        # both sides of the rule are exercised
        assert contraction > 0 and floor > 0

    def test_plan_sums_both_chains(self, two_pass, monkeypatch):
        p, sol, sched = two_pass
        runs = []
        real = optimizer.solve_al

        def spy(prob, z0, **kwargs):
            out = real(prob, z0, **kwargs)
            runs.append(out[3])
            return out

        monkeypatch.setattr(optimizer, "solve_al", spy)
        cold = solve(p).solver_stats
        warm = solve(replace(p, kos_schedule=sched), sol).solver_stats
        attitude, translation = runs[0], runs[1]
        assert cold.mu_raises == attitude.mu_raises + translation.mu_raises
        assert translation.mu_raises > 0
        # pass 2 runs the translation chain alone and sums it with the
        # attitude run that produced its columns, pass 1's
        assert len(runs) == 3 and sol.restart.attitude == attitude
        assert warm.mu_raises == attitude.mu_raises + runs[2].mu_raises


class TestEqualityRows:
    """E and the E^T E band, built in numpy, equal scipy.sparse's
    construction byte for byte, and so do E's two products."""

    @pytest.mark.parametrize("N", [2, 236, 1234])
    @pytest.mark.parametrize("b", [0, 1])
    def test_equal_scipy_construction(self, b, N):
        p = nominal_template()
        E, band = optimizer._equality_rows(b, N, p.dt, p.body)
        want = sp.csr_matrix(scipy_csr(E).toarray())
        ete = (want.T @ want).tocoo()
        lower = ete.row >= ete.col
        r, c, v = ete.row[lower], ete.col[lower], ete.data[lower]
        want_band = np.zeros((int(np.max(r - c)) + 1, want.shape[1]))
        np.add.at(want_band, (r - c, c), v)
        assert E.shape == want.shape
        for attr in ("data", "indices", "indptr"):
            assert getattr(E, attr).dtype == getattr(want, attr).dtype
            assert getattr(E, attr).tobytes() == getattr(want, attr).tobytes()
        assert band.shape == want_band.shape and band.tobytes() == want_band.tobytes()
        # E x and E^T y of vectors with signed zeros, one of them all -0.0:
        # E^T y against scipy's E.T @ y, a csc_matrix product
        rng = np.random.default_rng(N + b)
        for n, product, want_product in ((E.shape[1], E.__matmul__, want.__matmul__),
                                         (E.shape[0], E.rmatvec, want.T.__matmul__)):
            x = rng.normal(size=n)
            x[::3], x[1::3] = 0.0, -0.0
            for vec in (x, np.full(n, -0.0)):
                assert product(vec).tobytes() == want_product(vec).tobytes()
            with pytest.raises(ValueError):
                product(x[1:])
            with pytest.raises(ValueError):
                product(np.zeros((n, 1)))

    def test_transcription_rows_are_fresh_and_read_only(self):
        # each transcription builds its own rows, bit for bit a fresh build
        p = replace(nominal_template(), N=37)
        for b in (0, 1):
            tr = _Transcription(p, b)
            E, band = optimizer._equality_rows(b, p.N, p.dt, p.body)
            assert _Transcription(p, b).E is not tr.E
            fresh = sp.csr_matrix(scipy_csr(tr.E).toarray())
            for new in (E, fresh):
                for attr in ("data", "indices", "indptr"):
                    assert getattr(tr.E, attr).tobytes() == getattr(new, attr).tobytes()
                    assert not getattr(tr.E, attr).flags.writeable
            assert tr.ete_band.tobytes() == band.tobytes()
            assert not tr.ete_band.flags.writeable
            assert _Transcription(p, b).ete_band is not tr.ete_band


class TestWarmMultipliers:
    """A solve returns its restart state; a pass-2 solve restarts the
    translation chain alone from it, and plan runs pass 2 only where the
    pass-1 plan does not already meet pass 2's KKT conditions."""

    def test_resolve_from_own_plan(self, monkeypatch):
        # a static target's pass 1 that stops short of the circle, inside the
        # State II gate: it already meets pass 2's KKT conditions, so plan
        # keeps it, with the latched schedule and no Newton step after pass 1
        # (solving pass 2 from it once took 0 Newton steps too)
        template = nominal_template(target=TargetState(omega=0.0))
        pass1 = []
        real = optimizer.solve
        monkeypatch.setattr(optimizer, "solve",
                            lambda *a, **kw: pass1.append(real(*a, **kw)) or pass1[-1])
        best, _ = plan(0.0, template, max_candidates=1, static_durations=(30.0,),
                       capture_offset=0.35)
        assert len(pass1) == 1 and best.pass2 is None
        assert KosState.STATE_II in best.kos_states
        assert best.solver_stats == pass1[0].solver_stats
        assert best.states.tobytes() == pass1[0].states.tobytes()
        assert best.solver_stats.message == "converged"

    def test_warm_pass2_agrees_with_cold(self, two_pass):
        p, sol, sched = two_pass
        p2 = replace(p, kos_schedule=sched)
        warm = solve(p2, sol)
        cold = solve(p2)
        assert warm.solver_stats.message == cold.solver_stats.message == "converged"
        assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-4)

    def test_pass2_keeps_the_attitude_columns(self, two_pass, monkeypatch):
        # pass 2 changes only the keep-out schedule, which the attitude chain
        # never reads: the restart runs the translation chain alone, on pass
        # 1's equality rows, and returns pass 1's theta, omega and tau
        # columns bit for bit
        p, sol, sched = two_pass
        runs = []
        real = optimizer.solve_al

        def spy(prob, z0, **kwargs):
            runs.append((prob, real(prob, z0, **kwargs)))
            return runs[-1][1]

        monkeypatch.setattr(optimizer, "solve_al", spy)
        p2 = replace(p, kos_schedule=sched)
        warm = solve(p2, sol)
        assert len(runs) == 1
        chain = runs[0][0]
        assert chain.E is sol.restart.chain.E and chain.ete_band is sol.restart.chain.ete_band
        assert warm.states[:, [2, 5]].tobytes() == sol.states[:, [2, 5]].tobytes()
        assert warm.wrenches[:, 2].tobytes() == sol.wrenches[:, 2].tobytes()
        # its keep-out rows are a fresh build's
        fresh = _Transcription(p2, 0)
        assert chain.rows.switch == fresh.rows.switch
        for a, b in ((chain.ineq_ix, fresh.ineq_ix), (chain.ineq_iy, fresh.ineq_iy),
                     (chain.rows.cos, fresh.rows.cos), (chain.rows.sin, fresh.rows.sin)):
            assert a.tobytes() == b.tobytes()
        z = chain.pack(warm.states, warm.wrenches)
        assert chain.ineq_values(z).tobytes() == fresh.ineq_values(z).tobytes()

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
        r = sol.restart
        # per knot: the circle multipliers of pass 1, which has no ellipse row
        assert r.eta.shape == (p.N + 1,)
        state_i = sched == KosState.STATE_I
        # the translation chain holds every keep-out constraint and restarts
        # from its rows' lam; the ellipse rows start at zero
        (translation,) = seen
        assert r.lam.shape == (_Transcription(p2, 0).E.shape[0],)
        np.testing.assert_array_equal(translation["eta0"], np.where(state_i, r.eta, 0.0))
        np.testing.assert_array_equal(translation["lam0"], r.lam)
        assert translation["mu0"] == min(r.mu, 1e5)
        # a guess at another N is refused before the multiplier loop starts
        with pytest.raises(ValueError, match="N differ"):
            solve(replace(p, N=60), sol)
        assert len(seen) == 1

    def test_restart_refuses_another_problem(self, two_pass, tmp_path):
        # a restart takes a plan of the same problem but for kos_schedule,
        # with its restart state: not one of another torque bound, nor one
        # read from a file
        p, sol, sched = two_pass
        with pytest.raises(ValueError, match="wrench_max differ"):
            solve(replace(p, wrench_max=p.wrench_max * [1.0, 1.0, 2.0]), sol)
        path = tmp_path / "trajectory.txt"
        records.write_trajectory(path, sol, [], p.target, p.kos_cfg)
        loaded, _ = records.read_trajectory(path)
        with pytest.raises(ValueError, match="no restart state"):
            solve(replace(p, kos_schedule=sched), loaded)

    def test_kept_plans_are_pass1_bit_for_bit(self, monkeypatch):
        # sweep1's point omega = 1.07, f_thr = 0.12, as the sweeps plan it:
        # both candidates' pass 1 answers pass 2, so each candidate's plan is
        # its pass-1 plan, knots and stats, with the latched schedule
        cfg = harness.RunConfig({**harness.load_config(None).values,
                                 "target.omega": 1.07, "layout.f_thr": 0.12,
                                 "opt.min_duration": "auto", "opt.goal_corotate": True})
        pass1 = {}
        real = optimizer.solve

        def spy(problem, *args, **kwargs):
            pass1[problem.N] = real(problem, *args, **kwargs)
            return pass1[problem.N]

        monkeypatch.setattr(optimizer, "solve", spy)
        _, cands = plan(cfg["opt.theta_approach"], cfg.opt_template(), **cfg.plan_kwargs())
        assert len(cands) == len(pass1) == 2
        for c in cands:
            first = pass1[c.plan.N]
            assert c.plan.pass2 is None and c.plan.restart is None
            assert KosState.STATE_II in c.plan.kos_states
            assert np.all(first.kos_states == KosState.STATE_I)
            assert c.plan.states.tobytes() == first.states.tobytes()
            assert c.plan.wrenches.tobytes() == first.wrenches.tobytes()
            assert c.plan.solver_stats == first.solver_stats

    def test_failed_pass2_keeps_pass1_plan(self, monkeypatch):
        real = optimizer.solve
        failed = []

        def solve_failing_warm(problem, initial_guess=None, **kwargs):
            if initial_guess is not None:
                failed.append(problem.N)
                raise NotConvergedError(nlp.SolverStats(message="forced"))
            return real(problem, initial_guess, **kwargs)

        monkeypatch.setattr(optimizer, "solve", solve_failing_warm)
        best, cands = plan(1.2, nominal_template(target=TargetState(omega=0.3)),
                           max_candidates=2)
        results = [c.plan for c in cands]
        assert len(failed) == len(results) == 2 and None not in results
        for r in results:
            assert r.solver_stats.message == "converged"
            assert np.all(r.kos_states == KosState.STATE_I)
            assert r.pass2.message == "forced"  # recorded, not swallowed
        assert any(best is r for r in results)


class TestPlan:
    def test_nominal_two_candidates(self):
        best, cands = plan(3 * math.pi / 4, nominal_template(), max_candidates=2)
        assert [c.duration for c in cands] == pytest.approx([23.6, 86.4])
        assert best.times[-1] == pytest.approx(86.4)
        # the 86.4 s candidate has the lower bound, so it is solved first;
        # the 23.6 s candidate's bound exceeds its J, so it is pruned
        short, chosen = cands
        assert chosen.plan is best and chosen.bound <= best.objective_value
        assert short.pruned and short.bound > best.objective_value
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
        assert best.solver_stats.message == "converged"
        assert best.times[-1] in (30.0, 60.0)

    def test_static_target_wrong_attitude_rejected(self):
        t = TargetState(omega=0.0, theta0=0.3)
        with pytest.raises(AllCandidatesFailed):
            plan(1.0, nominal_template(target=t), max_candidates=2)

    def test_matches_exhaustive_candidate_search(self):
        # oracle: plan each candidate alone.  Every solved candidate starts
        # from its own default guess and relaxation, so it equals its
        # single-candidate plan bit for bit; a pruned one's bound exceeds
        # the best J, and so does its plan alone; the best is the lowest J
        # of them all.  Two candidates are both solved, three prune two.
        template = nominal_template(target=TargetState(omega=0.3))
        for n, pruned in ((2, False), (3, True)):
            best, cands = plan(1.2, template, max_candidates=n)
            durations = duration_candidates(TargetState(omega=0.3), 1.2, n)
            assert len(cands) == len(durations) == n
            alone = [plan(1.2, template, max_candidates=1, min_duration=t - 1e-6)[0]
                     for t in durations]
            for c, a in zip(cands, alone):
                assert c.bound <= a.objective_value
                if c.pruned:
                    assert c.bound > best.objective_value
                    assert a.objective_value > best.objective_value
                else:
                    np.testing.assert_array_equal(c.plan.states, a.states)
                    np.testing.assert_array_equal(c.plan.wrenches, a.wrenches)
                    assert c.plan.objective_value == a.objective_value
            assert best.objective_value == min(a.objective_value for a in alone)
            assert any(c.pruned for c in cands) == pruned

    def test_solves_in_bound_order_from_lq_multipliers(self, monkeypatch):
        # pass 1 starts from the relaxation's equality multipliers and the
        # default penalty; pass 2 restarts from pass 1's multipliers
        template = nominal_template(target=TargetState(omega=0.3))
        seen = []
        real = optimizer.solve_al

        def spy(prob, z0, **kwargs):
            seen.append((prob, kwargs))
            return real(prob, z0, **kwargs)

        monkeypatch.setattr(optimizer, "solve_al", spy)
        best, cands = plan(1.2, template, max_candidates=2)
        assert not any(c.pruned for c in cands)
        order = np.argsort([c.bound for c in cands], kind="stable")
        starts = [(prob, kw) for prob, kw in seen if "eta0" not in kw]
        assert len(starts) == 2 * len(cands)
        for i, k in enumerate(order):
            lam = optimizer.lq_relaxation(replace(
                template, N=cands[k].plan.N, theta_finish=cands[k].plan.theta_finish,
                x_goal=cands[k].plan.x_goal)).lam
            for prob, kw in starts[2 * i:2 * i + 2]:
                assert prob.n in (6 * cands[k].plan.N + 4, 3 * cands[k].plan.N + 2)
                assert set(kw) == {"lam0"}
                b = 0 if prob.m_in else 1
                np.testing.assert_array_equal(kw["lam0"], lam[b])

    @pytest.mark.parametrize("excess, pruned", [(1e-7, False), (1e-5, True)])
    def test_prune_margin_keeps_the_tie_rule(self, monkeypatch, excess, pruned):
        # both candidates' plans get J = 5; the longer one's bound is 0, so
        # it is solved first, and the shorter one's is 5 (1 + excess).  Within
        # PRUNE_RTOL the shorter one is still solved and wins the tie, as
        # without pruning; beyond it, it is pruned
        real_relax, real_solve = optimizer.lq_relaxation, optimizer.solve
        calls = []

        def bound(problem):
            # plan bounds the candidates in ascending duration
            calls.append(problem.N)
            b = 5.0 * (1.0 + excess) if len(calls) == 1 else 0.0
            return replace(real_relax(problem), objective=b)

        def objective_five(problem, initial_guess=None, **kwargs):
            return replace(real_solve(problem, initial_guess, **kwargs), objective_value=5.0)

        monkeypatch.setattr(optimizer, "lq_relaxation", bound)
        monkeypatch.setattr(optimizer, "solve", objective_five)
        best, cands = plan(1.2, nominal_template(target=TargetState(omega=0.3)),
                           max_candidates=2)
        assert [c.pruned for c in cands] == [pruned, False]
        assert best is cands[1 if pruned else 0].plan

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
    # a knot of neither state would get no keep-out row
    with pytest.raises(ValueError, match="KosState values"):
        simple_problem(N=10, kos_schedule=[1] * 5 + [3] * 3 + [0] * 3)
    with pytest.raises(ValueError, match="KosState values"):
        simple_problem(N=2, kos_schedule=[1.5, 2, 2])
    # the keep-out rows hold the State I knots first
    with pytest.raises(ValueError, match="back to State I"):
        simple_problem(N=10, kos_schedule=[1] * 5 + [2] * 3 + [1] * 3)
    # every schedule that plan latches is one
    rng = np.random.default_rng(3)
    for delay in (0, 1, 4, 20):
        for raw in ([1] * 11, [2] * 11, rng.choice([1, 2], 11), rng.choice([1, 2], 11)):
            p = simple_problem(N=10, kos_schedule=latch(raw, delay))
            assert _Transcription(p, 0).m_in == 11
