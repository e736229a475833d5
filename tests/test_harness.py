import math

import numpy as np
import pytest

from proxdock import harness, records
from proxdock.harness import (ConfigError, cmd_audit, cmd_plan, cmd_sweep1,
                              cmd_sweep2, cmd_track, grid_values, load_config,
                              main)
from proxdock.kos import KosState


def write(tmp_path, text, name="cfg.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, ""))
        assert cfg["body.mass"] == 10.0
        assert cfg["opt.w_goal"] == 100.0
        assert cfg["opt.theta_approach"] == pytest.approx(3 * math.pi / 4)
        assert cfg["sim.physics_dt"] == 0.01
        assert cfg["sim.control_hz"] == 10.0

    def test_none_path_gives_defaults(self):
        cfg = load_config(None)
        assert cfg["target.omega"] == 0.1

    def test_partial_override_keeps_rest(self, tmp_path):
        cfg = load_config(write(tmp_path, "target.omega = 0.5\n# a comment\n"))
        assert cfg["target.omega"] == 0.5
        assert cfg["body.mass"] == 10.0

    def test_unknown_key_is_error(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write(tmp_path, "body.masss = 4\n"))

    def test_negative_mass_names_field(self, tmp_path):
        with pytest.raises(ConfigError, match="body.mass"):
            load_config(write(tmp_path, "body.mass = -2\n"))

    def test_all_violations_listed(self, tmp_path):
        with pytest.raises(ConfigError) as ex:
            load_config(write(tmp_path, "body.mass = -2\nlayout.f_thr = 0\n"))
        assert "body.mass" in str(ex.value)
        assert "layout.f_thr" in str(ex.value)

    @pytest.mark.parametrize("sweep", ["sweep1", "sweep2"])
    def test_sweep_max_candidates_validated(self, tmp_path, sweep):
        with pytest.raises(ConfigError, match=f"{sweep}.max_candidates"):
            load_config(write(tmp_path, f"{sweep}.max_candidates = 0\n"))

    @pytest.mark.parametrize("key,value", [("sweep1.f_start", "0"), ("sweep1.f_start", "-0.03"),
                                           ("sweep2.f_thr", "0")])
    def test_sweep_thrust_must_be_positive(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be positive"):
            load_config(write(tmp_path, f"{key} = {value}\n"))

    def test_bad_syntax_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line 2"):
            load_config(write(tmp_path, "body.mass = 10\nnonsense\n"))

    def test_derived_inertia(self, tmp_path):
        cfg = load_config(write(tmp_path, "body.mass = 12\n"))
        assert cfg.body().inertia == pytest.approx(12 * 0.3**2 / 6)
        cfg2 = load_config(write(tmp_path, "body.inertia = 0.5\n", "b.txt"))
        assert cfg2.body().inertia == 0.5

    def test_wrench_bounds_scale_with_thrust(self):
        cfg = load_config(None)
        lo, hi = cfg.wrench_bounds(f_thr=0.6)
        assert hi[0] == pytest.approx(0.6)
        assert hi[2] == pytest.approx(0.8 * 0.3 * 0.6)
        assert lo[0] == -hi[0]


def test_grid_values_exact():
    # 2.0 is not on the 0.035 + k*0.025 lattice; the grid stops at 1.985
    g = grid_values(0.035, 0.025, 2.0)
    assert len(g) == 79
    assert g[0] == 0.035
    assert g[-1] == pytest.approx(1.985)
    assert np.all(np.diff(g) == pytest.approx(0.025, abs=1e-15))
    g2 = grid_values(0.0, 30.0, 330.0)
    assert len(g2) == 12 and g2[-1] == 330.0
    # regenerating gives bit-identical grids
    np.testing.assert_array_equal(g, grid_values(0.035, 0.025, 2.0))


@pytest.fixture(scope="module")
def planned(tmp_path_factory):
    out = tmp_path_factory.mktemp("plan_out")
    traj = cmd_plan(None, out)
    return out, traj


# Minimal well-formed record heads (no meta) and two trajectory knots.
TRAJECTORY_HEAD = ("# proxdock trajectory v1\n# columns: "
                   + " ".join(records.TRAJECTORY_COLUMNS) + "\n")
TRAJECTORY_ROWS = ("0 1 0 0 0 0 0 0 0 0 1 0.5\n"
                   "0.1 1 0 0 0 0 0 nan nan nan 1 0.5\n")
RUN_HEAD = "# proxdock run v1\n# columns: " + " ".join(records.RUN_COLUMNS) + "\n"


class TestPlanTrackCli:
    def test_plan_writes_trajectory_and_summary(self, planned):
        out, traj = planned
        assert traj.exists()
        assert (out / "plan_summary.txt").exists()
        text = (out / "plan_summary.txt").read_text()
        assert "KOS switch" in text and "objective" in text

    def test_trajectory_round_trip(self, planned):
        out, traj = planned
        loaded, info = records.read_trajectory(traj)
        assert loaded.converged
        assert loaded.N + 1 == len(loaded.times)
        assert any(s is KosState.STATE_II for s in loaded.kos_states)
        assert info["meta"]["objective_value"]
        # write again, read again: identical arrays
        cfg = load_config(None)
        p2 = out / "again.txt"
        records.write_trajectory(p2, loaded, cfg.resolved_lines(), cfg.target(),
                                 cfg.kos_config())
        loaded2, _ = records.read_trajectory(p2)
        np.testing.assert_array_equal(loaded.states, loaded2.states)
        np.testing.assert_array_equal(loaded.wrenches, loaded2.wrenches)
        assert loaded.objective_value == loaded2.objective_value

    def test_track_and_audit(self, planned, tmp_path):
        out, traj = planned
        result = cmd_track(traj, None, tmp_path)
        rec_path = tmp_path / "run_record.txt"
        assert rec_path.exists() and (tmp_path / "firing_sequence.txt").exists()
        rec = records.read_run_record(rec_path)
        assert float(rec["meta"]["min_kos_distance"]) >= -0.005
        np.testing.assert_allclose(rec["states"][-1], result.states[-1])
        assert cmd_audit(rec_path, None) == 0
        assert cmd_audit(rec_path, None, fail_below=result.min_kos_distance + 1.0) == 1

    def test_track_byte_identical_reruns(self, planned, tmp_path):
        out, traj = planned
        a = tmp_path / "a"
        b = tmp_path / "b"
        cmd_track(traj, None, a)
        cmd_track(traj, None, b)
        assert (a / "run_record.txt").read_bytes() == (b / "run_record.txt").read_bytes()
        assert (a / "firing_sequence.txt").read_bytes() == (b / "firing_sequence.txt").read_bytes()

    def test_cli_main_plan_fails_cleanly_on_bad_config(self, tmp_path):
        bad = write(tmp_path, "body.mass = -1\n")
        assert main(["plan", "--config", bad, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("key,value", [("init.x", "nan"), ("body.mass", "nan"),
                                           ("layout.f_thr", "inf")])
    def test_cli_main_rejects_non_finite_value(self, tmp_path, capsys, key, value):
        bad = write(tmp_path, f"{key} = {value}\n")
        assert main(["plan", "--config", bad, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and f"{key} must be finite" in err

    def test_cli_main_unactuated_plan_exit_code(self, tmp_path):
        cfg = write(tmp_path, "opt.force_bound = 1e-9\nopt.torque_bound = 1e-9\n"
                              "opt.max_candidates = 1\n")
        assert main(["plan", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_track_rejects_malformed_file(self, tmp_path):
        bogus = tmp_path / "t.txt"
        bogus.write_text("# not a trajectory\n1 2 3\n")
        assert main(["track", str(bogus), "--out", str(tmp_path / "o")]) == 2

    def test_track_rejects_bad_format_version(self, tmp_path):
        bogus = tmp_path / "t.txt"
        bogus.write_text(TRAJECTORY_HEAD.replace(" v1", " vX") + TRAJECTORY_ROWS)
        assert main(["track", str(bogus), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command", ["track", "audit"])
    @pytest.mark.parametrize("defect", ["non_numeric", "ragged"])
    def test_malformed_data_row_rejected(self, tmp_path, command, defect):
        head, columns = ((TRAJECTORY_HEAD, records.TRAJECTORY_COLUMNS) if command == "track"
                         else (RUN_HEAD, records.RUN_COLUMNS))
        row = " ".join(["0.5"] * len(columns))
        bad = row.replace("0.5", "abc", 1) if defect == "non_numeric" else row + " 0.5"
        bogus = tmp_path / "r.txt"
        bogus.write_text(head + row + "\n" + bad + "\n")
        if command == "track":
            argv = ["track", str(bogus), "--out", str(tmp_path / "o")]
        else:
            argv = ["audit", str(bogus)]
        assert main(argv) == 2

    def test_track_rejects_missing_meta_key(self, tmp_path):
        bogus = tmp_path / "t.txt"
        bogus.write_text(TRAJECTORY_HEAD + TRAJECTORY_ROWS)
        assert main(["track", str(bogus), "--out", str(tmp_path / "o")]) == 2


class TestSweeps:
    def test_single_point_sweep_matches_plan_metrics(self, tmp_path):
        cfgtext = (
            "sweep1.omega_start = 0.1\nsweep1.omega_step = 0.1\nsweep1.omega_stop = 0.1\n"
            "sweep1.f_start = 0.03\nsweep1.f_step = 0.03\nsweep1.f_stop = 0.03\n"
            "sweep1.goal_corotate = false\nsweep1.min_duration = 5.0\n"
        )
        cfg_path = write(tmp_path, cfgtext)
        rows = cmd_sweep1(cfg_path, tmp_path / "s")
        assert len(rows) == 1
        table = records.read_table(tmp_path / "s" / "sweep1_points.txt", "sweep1-points")
        assert len(table["rows"]) == 1
        # compare with a direct plan run under the same settings
        out2 = tmp_path / "p"
        cmd_plan(cfg_path, out2)
        summary = (out2 / "plan_summary.txt").read_text()
        pos_err = float([ln for ln in summary.splitlines()
                         if "terminal pos error" in ln][0].split(":")[1].split()[0])
        cols = table["columns"]
        row = table["rows"][0]
        # the summary prints 6 significant digits
        assert float(row[cols.index("pos_err")]) == pytest.approx(pos_err, abs=1e-6)

    def test_sweep_rerun_identical_tables(self, tmp_path):
        cfgtext = (
            "sweep2.theta_start_deg = 0\nsweep2.theta_step_deg = 120\n"
            "sweep2.theta_stop_deg = 240\n"
            "sweep2.omega_start = 0.5\nsweep2.omega_step = 0.5\nsweep2.omega_stop = 0.5\n"
        )
        cfg_path = write(tmp_path, cfgtext)
        cmd_sweep2(cfg_path, tmp_path / "a")
        cmd_sweep2(cfg_path, tmp_path / "b")

        def rows_sans_walltime(path):
            t = records.read_table(path, "sweep2-points")
            drop = t["columns"].index("wall_time")
            return [r[:drop] + r[drop + 1:] for r in t["rows"]]

        assert rows_sans_walltime(tmp_path / "a" / "sweep2_points.txt") == \
            rows_sans_walltime(tmp_path / "b" / "sweep2_points.txt")
        assert (tmp_path / "a" / "sweep2_summary.txt").read_bytes() == \
            (tmp_path / "b" / "sweep2_summary.txt").read_bytes()

    def test_failing_point_is_recorded_not_fatal(self, tmp_path, monkeypatch):
        cfgtext = (
            "sweep1.omega_start = 0.5\nsweep1.omega_step = 0.5\nsweep1.omega_stop = 1.5\n"
            "sweep1.f_start = 0.33\nsweep1.f_step = 0.33\nsweep1.f_stop = 0.33\n"
        )
        real_plan = harness.plan

        def plan_failing_at_one_omega(theta_approach, template, **kw):
            if template.target.omega == 1.0:
                raise ValueError("injected failure")
            return real_plan(theta_approach, template, **kw)

        monkeypatch.setattr(harness, "plan", plan_failing_at_one_omega)
        srows = cmd_sweep1(write(tmp_path, cfgtext), tmp_path / "s", parallel=1)
        pts = records.read_table(tmp_path / "s" / "sweep1_points.txt", "sweep1-points")
        summ = records.read_table(tmp_path / "s" / "sweep1_summary.txt", "sweep1-summary")
        pc = pts["columns"]
        by_omega = {float(r[pc.index("omega")]): r for r in pts["rows"]}
        assert sorted(by_omega) == [0.5, 1.0, 1.5]
        failed = by_omega[1.0]
        assert failed[pc.index("converged")] == "0"
        assert failed[pc.index("reason")] == "ValueError"
        for om in (0.5, 1.5):
            assert by_omega[om][pc.index("converged")] == "1"
        assert [r[2:4] for r in srows] == [[1, 0], [0, 1], [1, 0]]
        assert len(summ["rows"]) == 3

    @staticmethod
    def assert_summary_recomputes(out, sweep, index, stats):
        """Each summary row's stats equal those of its converged points."""
        pts = records.read_table(out / f"{sweep}_points.txt", f"{sweep}-points")
        summ = records.read_table(out / f"{sweep}_summary.txt", f"{sweep}-summary")
        pc, sc = pts["columns"], summ["columns"]
        for srow in summ["rows"]:
            i = srow[sc.index(index)]
            errs = [float(r[pc.index("pos_err")]) for r in pts["rows"]
                    if r[pc.index(index)] == i and r[pc.index("converged")] == "1"]
            for column, stat in stats.items():
                assert float(srow[sc.index(column)]) == pytest.approx(
                    float(stat(errs)), abs=1e-12)

    def test_sweep_aggregates_recomputable(self, tmp_path):
        cfgtext = (
            "sweep1.omega_start = 0.2\nsweep1.omega_step = 0.2\nsweep1.omega_stop = 0.4\n"
            "sweep1.f_start = 0.33\nsweep1.f_step = 0.33\nsweep1.f_stop = 0.66\n"
        )
        cfg_path = write(tmp_path, cfgtext)
        cmd_sweep1(cfg_path, tmp_path / "s")
        self.assert_summary_recomputes(tmp_path / "s", "sweep1", "i_omega",
                                       {"pos_err_mean": np.mean, "pos_err_std": np.std})
        cfgtext = (
            "sweep2.theta_start_deg = 0\nsweep2.theta_step_deg = 180\n"
            "sweep2.theta_stop_deg = 180\n"
            "sweep2.omega_start = 0.5\nsweep2.omega_step = 0.5\nsweep2.omega_stop = 1.0\n"
            "sweep2.f_thr = 0.33\n"
        )
        cmd_sweep2(write(tmp_path, cfgtext, "cfg2.txt"), tmp_path / "s2")
        self.assert_summary_recomputes(tmp_path / "s2", "sweep2", "i_theta",
                                       {"pos_err_mean": np.mean, "pos_err_std": np.std,
                                        "pos_err_max": np.max})

    def test_failed_points_recorded_not_fatal(self, tmp_path):
        cfgtext = (
            "opt.force_bound = 1e-9\nopt.torque_bound = 1e-9\n"
            "sweep1.omega_start = 0.5\nsweep1.omega_step = 0.5\nsweep1.omega_stop = 0.5\n"
            "sweep1.f_start = 0.03\nsweep1.f_step = 0.03\nsweep1.f_stop = 0.03\n"
            "sweep1.max_candidates = 1\nsweep1.min_duration = 5.0\n"
        )
        cfg_path = write(tmp_path, cfgtext)
        rows = cmd_sweep1(cfg_path, tmp_path / "s")
        table = records.read_table(tmp_path / "s" / "sweep1_points.txt", "sweep1-points")
        assert table["rows"][0][table["columns"].index("converged")] == "0"
        assert rows[0][2] == 0  # n_converged in the summary


class TestRecordFormat:
    def test_header_embeds_config_and_digest(self, planned):
        out, traj = planned
        text = traj.read_text()
        assert text.startswith("# proxdock trajectory v1")
        assert "# config_digest: " in text
        assert "# config: body.mass = 10" in text
        assert "# columns: t x y theta" in text
        assert "# kos_primitive:" in text

    def test_wrong_kind_rejected(self, planned, tmp_path):
        out, traj = planned
        with pytest.raises(records.RecordError):
            records.read_run_record(traj)
