import math

import numpy as np
import pytest

from proxdock import records
from proxdock.kos import (KosConfig, KosState, circle_value, classify,
                          corner_safe_angle_threshold, ellipse_distance,
                          latch, lobe_value, r_safe, signed_distance_batch,
                          smooth_circle, smooth_lobe)

SQ2 = math.sqrt(2.0)


def corner_safe_oracle(cfg, angle_res_deg=0.1, dist_res=0.001):
    """Pose-sampling oracle for the corner-safe angle.

    Marches along each bearing to find the State II lobe boundary, then asks
    whether the swept squares' circumscribing circles stay apart there.  The
    reported angle is the first-touch bearing scanned at angle_res_deg.
    """
    rs = r_safe(cfg)
    a, b = rs, rs / 2.0
    touch_radius = (cfg.l_s + cfg.l_t) / SQ2
    angles = np.arange(0.0, 90.0 + angle_res_deg, angle_res_deg)
    last_unsafe = 0.0
    for ang in angles:
        phi = math.radians(ang)
        d = dist_res
        while d < 2 * rs:
            x, y = d * math.cos(phi), d * math.sin(phi)
            if (x / b) ** 2 + (y / a) ** 2 >= 1.0:
                break
            d += dist_res
        if d < touch_radius:
            last_unsafe = phi
    return last_unsafe


def classify_oracle(chaser_pos, target_theta, target_pos, cfg) -> KosState:
    """Scalar classification from the definition: State II iff the chaser is
    in front of the docking face, within the angular threshold of its normal,
    and inside the distance threshold."""
    rel = np.asarray(chaser_pos, dtype=float) - np.asarray(target_pos, dtype=float)
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


def region_distance_oracle(p, state, target_theta, target_pos, cfg, sides=(1, -1)) -> float:
    """Exact keep-out distance from the definition, one primitive at a time:
    the circle (State I only) and each half-ellipse lobe of `sides` whose
    half-plane (side * y' >= 0 in the target frame) holds the point."""
    p = np.asarray(p, dtype=float)
    center = np.asarray(target_pos, dtype=float)
    rs = r_safe(cfg)
    best = math.inf
    if state == KosState.STATE_I:
        best = float(np.linalg.norm(p - center)) - rs
    c, s = math.cos(target_theta), math.sin(target_theta)
    rx, ry = p - center
    xp, yp = c * rx + s * ry, -s * rx + c * ry
    for side in sides:
        if side * yp >= 0.0:
            best = min(best, float(ellipse_distance(xp, yp, rs / 2.0, rs)))
    return best


def classify_one(chaser_pos, target_theta, target_pos, cfg) -> KosState:
    return KosState(classify([chaser_pos], [target_theta], target_pos, cfg)[0])


def distance_one(p, state, target_theta, target_pos, cfg) -> float:
    return float(signed_distance_batch([p], [target_theta], [state], target_pos, cfg)[0])


class TestRSafe:
    @pytest.mark.parametrize("ls,lt,margin", [(0.3, 0.3, 0.10), (0.2, 0.5, 0.05), (1.0, 0.4, 0.2)])
    def test_formula_vs_independent_arithmetic(self, ls, lt, margin):
        cfg = KosConfig(l_s=ls, l_t=lt, margin_fraction=margin)
        expected = SQ2 / 2 * ls + SQ2 / 2 * lt + margin * ls
        assert r_safe(cfg) == pytest.approx(expected, rel=1e-15)

    def test_nominal_value(self):
        assert r_safe(KosConfig()) == pytest.approx(0.4543, abs=1e-4)

    def test_degenerate_limit(self):
        cfg = KosConfig(l_s=1e-12, l_t=1e-12, margin_fraction=0.0,
                        angle_threshold=0.5)
        assert r_safe(cfg) < 1e-11

    def test_homogeneity(self):
        c1 = KosConfig(l_s=0.3, l_t=0.4, margin_fraction=0.1)
        c2 = KosConfig(l_s=0.6, l_t=0.8, margin_fraction=0.1)
        assert r_safe(c2) == pytest.approx(2 * r_safe(c1), rel=1e-15)


class TestCornerSafeAngle:
    def test_symmetric_in_side_lengths(self):
        # margin is a fraction of l_s, so pin the absolute margin via zero
        a = corner_safe_angle_threshold(KosConfig(l_s=0.2, l_t=0.5, margin_fraction=0.0,
                                                  angle_threshold=0.3))
        b = corner_safe_angle_threshold(KosConfig(l_s=0.5, l_t=0.2, margin_fraction=0.0,
                                                  angle_threshold=0.3))
        assert a == pytest.approx(b, abs=1e-12)

    def test_shrinking_chaser_raises_threshold(self):
        sides = [0.3, 0.2, 0.1, 0.05, 0.02]
        vals = [corner_safe_angle_threshold(KosConfig(l_s=s, l_t=0.3)) for s in sides]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))

    def test_default_geometry_frozen_value(self):
        # frozen regression value computed from the sampling oracle
        assert corner_safe_angle_threshold(KosConfig()) == pytest.approx(1.34804, abs=2e-4)

    def test_matches_sampling_oracle_within_half_degree(self):
        cfg = KosConfig()
        oracle = corner_safe_oracle(cfg)
        assert abs(corner_safe_angle_threshold(cfg) - oracle) < math.radians(0.5)

    def test_oracle_tracks_formula_on_other_geometry(self):
        cfg = KosConfig(l_s=0.2, l_t=0.4)
        oracle = corner_safe_oracle(cfg)
        assert abs(corner_safe_angle_threshold(cfg) - oracle) < math.radians(0.5)


class TestClassify:
    def setup_method(self):
        self.cfg = KosConfig()
        self.rs = r_safe(self.cfg)

    def test_far_on_normal_is_state_one(self):
        s = (10 * self.rs, 0.0)
        assert classify_one(s, 0.0, [0, 0], self.cfg) is KosState.STATE_I

    def test_close_on_normal_is_state_two(self):
        s = (1.4 * self.rs, 0.0)
        assert classify_one(s, 0.0, [0, 0], self.cfg) is KosState.STATE_II

    def test_behind_target_is_state_one(self):
        s = (-1.2 * self.rs, 0.0)
        assert classify_one(s, 0.0, [0, 0], self.cfg) is KosState.STATE_I

    def test_angle_gate(self):
        d = 1.2 * self.rs
        inside = self.cfg.angle_threshold * 0.9
        outside = self.cfg.angle_threshold * 1.1
        s_in = (d * math.cos(inside), d * math.sin(inside))
        s_out = (d * math.cos(outside), d * math.sin(outside))
        assert classify_one(s_in, 0.0, [0, 0], self.cfg) is KosState.STATE_II
        assert classify_one(s_out, 0.0, [0, 0], self.cfg) is KosState.STATE_I

    def test_rotation_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            th_t = rng.uniform(-math.pi, math.pi)
            pos = rng.uniform(-1, 1, 2)
            p = pos + rng.uniform(-1.5, 1.5, 2)
            delta = rng.uniform(-math.pi, math.pi)
            c, s = math.cos(delta), math.sin(delta)
            R = np.array([[c, -s], [s, c]])
            p_rot = pos + R @ (p - pos)
            st1 = classify_one(p, th_t, pos, self.cfg)
            st2 = classify_one(p_rot, th_t + delta, pos, self.cfg)
            assert st1 is st2

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-1.5, 1.5, size=(300, 2))
        thetas = rng.uniform(-6, 6, 300)
        vals = classify(pts, thetas, [0, 0], self.cfg)
        for p, th, v in zip(pts, thetas, vals):
            assert classify_oracle(p, th, [0, 0], self.cfg).value == v

    def test_latch_from_first_state_two(self):
        one, two = KosState.STATE_I.value, KosState.STATE_II.value
        raw = [one, one, two, one, two, one, one]
        assert latch(raw).tolist() == [one, one, two, two, two, two, two]
        assert latch(raw, delay=3).tolist() == [one] * 5 + [two] * 2
        assert latch(raw, delay=10).tolist() == [one] * 7
        assert latch([one] * 4, delay=1).tolist() == [one] * 4
        with pytest.raises(ValueError, match="non-negative"):
            latch(raw, delay=-1)


class TestRegion:
    def setup_method(self):
        self.cfg = KosConfig()
        self.rs = r_safe(self.cfg)

    def primitives(self, state, theta, pos=(0.0, 0.0)):
        """(kind, fields) of each `# kos_primitive:` line a trajectory record writes."""
        lines = records._primitive_lines(state, 0.0, theta, pos, self.cfg)
        return [(ln.split()[4], [float(v) for v in ln.split()[5:]]) for ln in lines]

    def test_primitive_counts(self):
        r1 = self.primitives(KosState.STATE_I, 0.3)
        r2 = self.primitives(KosState.STATE_II, 0.3)
        assert len(r1) == 3
        assert sum(kind == "circle" for kind, _ in r1) == 1
        assert len(r2) == 2
        assert all(kind == "half_ellipse" for kind, _ in r2)

    def test_rigid_rotation_of_primitives(self):
        pos = np.array([0.4, -0.2])
        base = self.primitives(KosState.STATE_II, 0.2, pos)
        rot = self.primitives(KosState.STATE_II, 0.2 + 0.5, pos)
        for (_, p0), (_, p1) in zip(base, rot):
            assert p1[2] == pytest.approx(p0[2] + 0.5)
            np.testing.assert_allclose(p1[:2], p0[:2])

    def test_circle_signed_distance_examples(self):
        args = (KosState.STATE_I, 0.0, [0, 0], self.cfg)
        assert distance_one([2 * self.rs, 0.0], *args) == pytest.approx(self.rs, rel=1e-12)
        assert distance_one([self.rs, 0.0], *args) == pytest.approx(0.0, abs=1e-12)

    def test_half_ellipse_center_vs_boundary_sampling(self):
        got = distance_one([0.0, 0.0], KosState.STATE_II, 0.0, [0, 0], self.cfg)
        # brute-force nearest boundary point on a fine sampling
        t = np.linspace(0, 2 * math.pi, 1_000_001)
        bx = (self.rs / 2) * np.cos(t)
        by = self.rs * np.sin(t)
        ref = -float(np.min(np.hypot(bx, by)))
        assert got < 0
        assert got == pytest.approx(ref, abs=1e-9)

    def test_half_ellipse_inactive_half_ignored(self):
        # a point on the -y side is governed by the -1 lobe only
        p = [0.1, -0.2]
        d_minus = region_distance_oracle(p, KosState.STATE_II, 0.0, [0, 0], self.cfg, sides=(-1,))
        assert distance_one(p, KosState.STATE_II, 0.0, [0, 0], self.cfg) == \
            pytest.approx(d_minus, rel=1e-12)

    def test_forbidden_interior_detected(self):
        rng = np.random.default_rng(5)
        pts = []
        for _ in range(500):
            r = rng.uniform(0, self.rs * 0.999)
            ang = rng.uniform(0, 2 * math.pi)
            pts.append([r * math.cos(ang), r * math.sin(ang)])
        g = signed_distance_batch(pts, np.full(500, 0.7), [KosState.STATE_I] * 500,
                                  [0, 0], self.cfg)
        assert np.all(g < 1e-12)

    def test_state2_forbidden_subset_of_state1(self):
        # criterion: containment on 10,000 sampled points
        rng = np.random.default_rng(17)
        pts = rng.uniform(-1.0, 1.0, size=(10_000, 2))
        th = np.full(len(pts), 0.6)
        g1 = signed_distance_batch(pts, th, [KosState.STATE_I] * len(pts), [0, 0], self.cfg)
        g2 = signed_distance_batch(pts, th, [KosState.STATE_II] * len(pts), [0, 0], self.cfg)
        assert np.all(g1[g2 < 0] < 0)

    def test_continuity_within_half_plane(self):
        rng = np.random.default_rng(23)
        p0, p1 = [], []
        for _ in range(200):
            p = rng.uniform(-0.8, 0.8, 2)
            step = rng.normal(size=2) * 1e-7
            p0.append(p)
            p1.append(p + step)
        args = (np.full(200, 0.4), [KosState.STATE_II] * 200, [0, 0], self.cfg)
        g0 = signed_distance_batch(p0, *args)
        g1 = signed_distance_batch(p1, *args)
        finite = np.isfinite(g0) & np.isfinite(g1)
        assert np.all(np.abs(g1 - g0)[finite] < 1e-5)


class TestEllipseDistance:
    def test_against_dense_boundary_sampling(self):
        ax, ay = 0.227, 0.454
        t = np.linspace(0, 2 * math.pi, 2_000_001)
        bx, by = ax * np.cos(t), ay * np.sin(t)
        rng = np.random.default_rng(2)
        for _ in range(40):
            q = rng.uniform(-0.6, 0.6, 2)
            ref = float(np.min(np.hypot(bx - q[0], by - q[1])))
            inside = (q[0] / ax) ** 2 + (q[1] / ay) ** 2 < 1
            ref = -ref if inside else ref
            got = float(ellipse_distance(q[0], q[1], ax, ay))
            assert got == pytest.approx(ref, abs=5e-7)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(9)
        q = rng.uniform(-1, 1, size=(100, 2))
        batch = ellipse_distance(q[:, 0], q[:, 1], 0.3, 0.5)
        for i in range(100):
            assert batch[i] == pytest.approx(float(ellipse_distance(q[i, 0], q[i, 1], 0.3, 0.5)))


class TestSmoothForms:
    def test_zero_sets_match_exact(self):
        cfg = KosConfig()
        rs = r_safe(cfg)
        v, _, _ = smooth_circle(np.array([rs]), np.array([0.0]), np.zeros(2), rs)
        assert v[0] == pytest.approx(0.0, abs=1e-14)
        # the ellipse row at the tip of the lobes
        v, *_ = smooth_lobe(np.array([0.0]), np.array([rs]), np.array([1.0]), np.array([0.0]),
                            np.zeros(2), rs, rs / 2)
        assert v[0] == pytest.approx(0.0, abs=1e-12)

    @staticmethod
    def released_lobe_rows(xp, yp, a_lat, b_norm):
        """A State II knot's keep-out as one row per lobe: on its own side of
        the docking axis a lobe's row is the ellipse implicit e, and past the
        axis e plus a smoothstep release of slack 10 over a 2 cm band."""
        e = (xp / b_norm) ** 2 + (yp / a_lat) ** 2 - 1.0
        rows = []
        for side in (1.0, -1.0):
            tc = np.clip(-side * yp / 0.02, 0.0, 1.0)
            rows.append(e + 10.0 * (tc * tc * (3.0 - 2.0 * tc)))
        return rows

    def test_ellipse_row_is_both_lobe_rows(self):
        # target-frame points: uniform over a disc of 2 r_safe, uniform over
        # the strip within 2 cm of the docking axis, near where the ellipse
        # crosses that strip, and on the axis itself
        rs = r_safe(KosConfig())
        a, b = rs, rs / 2.0
        rng = np.random.default_rng(7)
        n = 100_000
        r, phi = rs * rng.uniform(0.0, 2.0, n), rng.uniform(-math.pi, math.pi, n)
        ys = rng.uniform(-0.02, 0.02, n)
        yb = rng.uniform(-0.02, 0.02, n)
        xb = b * np.sqrt(1.0 - (yb / a) ** 2) * (1.0 + rng.normal(scale=1e-9, size=n)) \
            * rng.choice([-1.0, 1.0], n)
        xa = rs * rng.uniform(-2.0, 2.0, n)
        xp = np.concatenate([r * np.cos(phi), rs * rng.uniform(-2.0, 2.0, n), xb, xa, xa])
        yp = np.concatenate([r * np.sin(phi), ys, yb, np.zeros(n), np.full(n, -0.0)])
        e = lobe_value(xp, yp, a, b)
        plus, minus = self.released_lobe_rows(xp, yp, a, b)
        assert np.minimum(plus, minus).tobytes() == e.tobytes()
        np.testing.assert_array_equal((plus >= 0.0) & (minus >= 0.0), e >= 0.0)
        # both sides of the boundary are sampled within the strip
        strip = np.abs(yp) <= 0.02
        assert np.count_nonzero(strip & (e < 0.0)) > 1000
        assert np.count_nonzero(strip & (e >= 0.0)) > 1000

    def test_lobe_gradients_by_finite_difference(self):
        cfg = KosConfig()
        rs = r_safe(cfg)
        rng = np.random.default_rng(31)
        for _ in range(60):
            px, py = rng.uniform(-0.8, 0.8, 2)
            th = rng.uniform(-3, 3)
            args = (np.cos([th]), np.sin([th]), np.array([0.05, -0.02]), rs, rs / 2)
            h = 1e-7
            v0, gx, gy, *_ = smooth_lobe(np.array([px]), np.array([py]), *args)
            vx1, *_ = smooth_lobe(np.array([px + h]), np.array([py]), *args)
            vx0, *_ = smooth_lobe(np.array([px - h]), np.array([py]), *args)
            vy1, *_ = smooth_lobe(np.array([px]), np.array([py + h]), *args)
            vy0, *_ = smooth_lobe(np.array([px]), np.array([py - h]), *args)
            assert gx[0] == pytest.approx((vx1[0] - vx0[0]) / (2 * h), rel=2e-5, abs=2e-5)
            assert gy[0] == pytest.approx((vy1[0] - vy0[0]) / (2 * h), rel=2e-5, abs=2e-5)


class TestLobesInsideCircle:
    """Both lobes are halves of one ellipse inside the State I circle, so
    wherever the circle is in force the lobes add nothing: the planner puts
    the ellipse row at State II knots only, and the audit grades State I
    points by the circle alone."""

    @staticmethod
    def target_frame_points(rs):
        """(x', y') points: uniform over a disc of radius 2 r_safe, near the
        tangent points (0, +-r_safe), and r_safe's float neighbours on the
        lateral axis."""
        rng = np.random.default_rng(5)
        n = 100_000
        r, phi = rs * rng.uniform(0.0, 2.0, n), rng.uniform(-math.pi, math.pi, n)
        xt = rs * rng.normal(scale=1e-6, size=n) * (rng.random(n) > 0.2)
        yt = rs * (1.0 + rng.normal(scale=1e-9, size=n)) * rng.choice([-1.0, 1.0], n)
        ye = rs + np.arange(-50, 51) * np.spacing(rs)
        zero = np.zeros(len(ye))
        return (np.concatenate([r * np.cos(phi), xt, zero, zero]),
                np.concatenate([r * np.sin(phi), yt, ye, -ye]))

    def test_smooth_lobe_non_negative_where_circle_is(self):
        rs = r_safe(KosConfig())
        xp, yp = self.target_frame_points(rs)
        outside = circle_value(xp, yp, np.zeros(2), rs) >= 0.0
        assert np.count_nonzero(outside) > 100_000
        assert np.all(lobe_value(xp, yp, rs, rs / 2.0)[outside] >= 0.0)

    def test_ellipse_distance_at_least_circle_distance(self):
        # not bit for bit: near the tangent points the two distances can
        # round apart by an ulp
        rs = r_safe(KosConfig())
        xp, yp = self.target_frame_points(rs)
        lobe = ellipse_distance(xp, yp, rs / 2.0, rs)
        assert np.all(lobe >= np.hypot(xp, yp) - rs - 1e-15)


def test_signed_distance_batch_matches_regions():
    cfg = KosConfig()
    rng = np.random.default_rng(42)
    pts = rng.uniform(-1, 1, size=(200, 2))
    thetas = rng.uniform(0, 7, 200)
    states = rng.choice([KosState.STATE_I, KosState.STATE_II], 200)
    g = signed_distance_batch(pts, thetas, states, [0, 0], cfg)
    for i in range(200):
        ref = region_distance_oracle(pts[i], states[i], thetas[i], [0, 0], cfg)
        assert g[i] == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        KosConfig(l_s=-0.1)
    with pytest.raises(ValueError):
        KosConfig(dist_threshold_factor=0.5)
    with pytest.raises(ValueError):
        KosConfig(angle_threshold=2.0)
    cfg = KosConfig()
    assert 0 < cfg.angle_threshold < math.pi / 2
    # derived default gate is the complement of the corner-touch angle
    assert cfg.angle_threshold == pytest.approx(
        math.pi / 2 - corner_safe_angle_threshold(cfg), abs=1e-9)
