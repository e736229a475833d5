import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from proxdock import harness, nlp, optimizer, records
from proxdock.harness import (ConfigError, cmd_audit, cmd_plan, cmd_sweep1,
                              cmd_sweep2, cmd_track, grid_values, load_config,
                              main)
from proxdock.kos import KosState
from proxdock.optimizer import terminal_errors
from proxdock.sim import SimConfig


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

    RULE_CASES = [
        ("sweep1.f_start", "0", "must be positive (got 0.0)"),
        ("sweep1.f_start", "-0.03", "must be positive (got -0.03)"),
        ("sweep2.f_thr", "0", "must be positive (got 0.0)"),
        ("opt.force_bound", "0", "must be positive (got 0.0)"),
        ("opt.torque_bound", "-0.1", "must be positive (got -0.1)"),
        ("opt.latch_delay", "-3", "must be non-negative (got -3.0)"),
        ("seed", "-1", "must be non-negative (got -1)"),
        ("sim.mismatch_fraction", "1.5", "must lie in [0, 1) (got 1.5)"),
        ("sim.disturbance_accel", "-1e-4", "must be non-negative (got -0.0001)"),
        ("gains.kp_pos", "-1", "must be non-negative (got -1.0)"),
        ("ctrl.n_slots", "0", "must be >= 1 (got 0)"),
        ("sim.control_hz", "0", "must be positive (got 0.0)"),
        ("sim.tail", "-100", "must be non-negative (got -100.0)"),
        ("sim.duration", "-1", "must be positive (got -1.0)"),
        ("sweep1.omega_stop", "0.01", "must be >= sweep1.omega_start"),
        ("sweep2.theta_stop_deg", "-30", "must be >= sweep2.theta_start_deg"),
    ]

    @pytest.mark.parametrize("key,value,message", RULE_CASES,
                             ids=[f"{key}-{value}" for key, value, _ in RULE_CASES])
    def test_rule_violation_names_key(self, tmp_path, key, value, message):
        # exactly one error line: the simulator's own checks, which would
        # add a second line for a zero n_slots or control rate, stay silent
        with pytest.raises(ConfigError) as ex:
            load_config(write(tmp_path, f"{key} = {value}\n"))
        assert str(ex.value).splitlines() == ["config validation errors:",
                                              f"  {key} {message}"]

    @pytest.mark.parametrize("key,value", [("body.mass", "heavy"), ("seed", "1.5"),
                                           ("opt.goal_corotate", "maybe"),
                                           ("opt.static_durations", "20,x")])
    def test_unparsable_value_reports_line(self, tmp_path, key, value):
        with pytest.raises(ConfigError) as ex:
            load_config(write(tmp_path, f"# header\n{key} = {value}\n"))
        assert str(ex.value).startswith(f"config parse errors:\n  line 2: bad value for {key}: ")

    def test_unreadable_path(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.cfg")
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(missing)
        assert main(["plan", "--config", missing, "--out", str(tmp_path / "o")]) == 2
        assert "error: cannot read config" in capsys.readouterr().err
        # a directory, and a file that is not text
        (tmp_path / "binary.cfg").write_bytes(bytes(range(128, 256)))
        for path in (tmp_path, tmp_path / "binary.cfg"):
            assert main(["plan", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: cannot read config") and err.count("\n") == 1

    @pytest.mark.parametrize("key,value,message", [
        ("sim.control_hz", "7", "sim.control_hz must make the control period a multiple of "
         "sim.physics_dt = 0.01 (got 7.0, a period of 0.14285714285714285 s)"),
        ("ctrl.n_slots", "3", "ctrl.n_slots must divide the 10 physics steps per control "
         "period set by sim.control_hz and sim.physics_dt (got 3)"),
    ], ids=["control_hz-7", "n_slots-3"])
    def test_misaligned_timing_is_one_error(self, tmp_path, capsys, key, value, message):
        # the simulator's timing check, worded with the keys involved
        path = write(tmp_path, f"{key} = {value}\n")
        with pytest.raises(ConfigError) as ex:
            load_config(path)
        assert str(ex.value).splitlines() == ["config validation errors:", f"  {message}"]
        assert main(["plan", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {ex.value}\n"

    def test_every_key_round_trips_through_resolved_lines(self, tmp_path):
        # every key off its default: floats by an order-keeping affine map
        # (sweep stops stay above their starts), a simulator timing that
        # still divides evenly, the other value kinds by hand
        values = {}
        for key, (default, vtype, _) in harness.DEFAULTS.items():
            if vtype is harness.BOOL:
                values[key] = not default
            elif vtype is harness.INT:
                values[key] = default + 1
            elif vtype is harness.FLOAT_LIST:
                values[key] = (15.5, 20.1234567)  # 20.1234567 needs 9 digits
            elif default in (None, "auto"):
                values[key] = 0.375
            elif vtype is harness.FLOAT_OR_AUTO:
                values[key] = "auto"
            else:
                values[key] = 1.25 * default + 0.125
        values.update({"sim.physics_dt": 0.005, "sim.control_hz": 20.0, "ctrl.n_slots": 5})
        assert all(values[k] != d for k, (d, _, _) in harness.DEFAULTS.items())
        lines = harness.RunConfig(values).resolved_lines()
        cfg = load_config(write(tmp_path, "\n".join(lines) + "\n"))
        assert cfg.values == values
        assert all(type(cfg[k]) is type(v) for k, v in values.items())
        assert cfg.resolved_lines() == lines

    def test_bad_syntax_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line 2"):
            load_config(write(tmp_path, "body.mass = 10\nnonsense\n"))

    def test_derived_inertia(self, tmp_path):
        cfg = load_config(write(tmp_path, "body.mass = 12\n"))
        assert cfg.body().inertia == pytest.approx(12 * 0.3**2 / 6)
        cfg2 = load_config(write(tmp_path, "body.inertia = 0.5\n", "b.txt"))
        assert cfg2.body().inertia == 0.5

    def test_sim_config_sets_every_field(self, tmp_path):
        # every key that feeds the simulator off its default: then no
        # SimConfig field may keep SimConfig()'s value (layouts by f_max)
        text = ("seed = 7\nbody.mass = 12\nbody.inertia = 0.2\nbody.side_length = 0.4\n"
                "layout.f_thr = 0.05\ntarget.side_length = 0.5\nkos.margin_fraction = 0.2\n"
                "kos.dist_threshold_factor = 2\nkos.angle_threshold = 0.3\n"
                "gains.kp_pos = 3\ngains.kd_pos = 9\ngains.kp_att = 0.5\ngains.kd_att = 1.5\n"
                "ctrl.n_slots = 5\nctrl.feed_forward = false\nsim.physics_dt = 0.005\n"
                "sim.control_hz = 20\nsim.tail = 2\nsim.duration = 30\n"
                "sim.mismatch_fraction = 0.05\nsim.disturbance_accel = 1e-4\n")
        sim_cfg = load_config(write(tmp_path, text)).sim_config()
        default = SimConfig()
        for field in dataclasses.fields(SimConfig):
            got, ref = getattr(sim_cfg, field.name), getattr(default, field.name)
            if field.name == "layout":
                got, ref = got.f_max, ref.f_max
            assert got != ref, field.name

    def test_wrench_bounds_scale_with_thrust(self, tmp_path):
        cfg = load_config(write(tmp_path, "layout.f_thr = 0.6\n"))
        lo, hi = cfg.wrench_bounds()
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


def test_terminal_attitude_residual_wrapped():
    # a last knot one full turn past theta_finish has reached its attitude
    s = np.array([[0.0, 0.0, 0.0, 0, 0, 0], [0.3, 0.4, 0.1 + 2 * math.pi, 0, 0, 0]])
    best = SimpleNamespace(states=s, x_goal=np.zeros(6), theta_finish=0.1)
    pos_err, att_err = terminal_errors(best, s[-1])
    assert pos_err == pytest.approx(0.5, abs=1e-15)
    assert att_err <= 1e-15


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
        assert KosState.STATE_II in loaded.kos_states
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
        # without a keep-out zone: no primitives, and g_min is inf by design
        p3 = out / "no_zone.txt"
        records.write_trajectory(p3, loaded, cfg.resolved_lines(), cfg.target(), None)
        loaded3, _ = records.read_trajectory(p3)
        np.testing.assert_array_equal(loaded.states, loaded3.states)
        np.testing.assert_array_equal(loaded.wrenches, loaded3.wrenches)
        text = p3.read_text()
        assert "# kos_primitive:" not in text
        rows = [ln.split() for ln in text.splitlines() if not ln.startswith("#")]
        assert len(rows) == len(loaded.times) and all(r[-1] == "inf" for r in rows)

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

    def test_audit_rejects_non_finite_floor(self, planned, tmp_path, capsys):
        # a nan floor used to pass the safety gate on any run
        out, traj = planned
        cmd_track(traj, None, tmp_path)
        capsys.readouterr()
        for floor in ("nan", "inf", "-inf"):
            argv = ["audit", str(tmp_path / "run_record.txt"), f"--fail-below={floor}"]
            assert main(argv) == 2
            assert capsys.readouterr() == (
                "", f"error: --fail-below must be finite (got {float(floor)})\n")

    @pytest.mark.parametrize("command", ["plan", "track", "sweep1", "sweep2"])
    def test_out_naming_a_file_rejected(self, planned, tmp_path, capsys, command):
        out, traj = planned
        taken = tmp_path / "taken"
        taken.write_text("keep")
        argv = [command] + ([str(traj)] if command == "track" else []) + ["--out", str(taken)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot make output directory: ")
        assert err.count("\n") == 1
        assert taken.read_text() == "keep"

    def test_track_warns_on_other_config(self, planned, tmp_path, capsys):
        out, traj = planned
        cmd_track(traj, write(tmp_path, "sim.tail = 2\n"), tmp_path / "o")
        assert capsys.readouterr().err == \
            "warning: tracking config differs from the planning config\n"
        cmd_track(traj, None, tmp_path / "o")
        assert capsys.readouterr().err == ""

    def test_track_rejects_negative_disturbance(self, planned, tmp_path, capsys):
        # a negative bound used to reach rng.uniform and end in a traceback
        out, traj = planned
        bad = write(tmp_path, "sim.disturbance_accel = -1e-4\n")
        assert main(["track", str(traj), "--config", bad, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == ("error: config validation errors:\n"
                                           "  sim.disturbance_accel must be non-negative"
                                           " (got -0.0001)\n")

    def test_track_byte_identical_reruns(self, planned, tmp_path):
        out, traj = planned
        a = tmp_path / "a"
        b = tmp_path / "b"
        cmd_track(traj, None, a)
        cmd_track(traj, None, b)
        assert (a / "run_record.txt").read_bytes() == (b / "run_record.txt").read_bytes()
        assert (a / "firing_sequence.txt").read_bytes() == (b / "firing_sequence.txt").read_bytes()

    def test_all_zero_gains_is_one_error(self, planned, tmp_path, capsys):
        # each gain passes its own rule; PdGains' "at least one positive" is
        # a check across the gains.* keys
        out, traj = planned
        bad = write(tmp_path, "gains.kp_pos = 0\ngains.kd_pos = 0\n"
                              "gains.kp_att = 0\ngains.kd_att = 0\n")
        for argv in (["plan"], ["track", str(traj)]):
            assert main(argv + ["--config", bad, "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err == (
                "error: config validation errors:\n  at least one of gains.kp_pos, "
                "gains.kd_pos, gains.kp_att, gains.kd_att must be positive\n")

    def test_underflowing_derived_inertia_is_one_error(self, tmp_path, capsys):
        # mass and side length pass their rules, but mass * side^2 / 6 is 0
        bad = write(tmp_path, "body.mass = 1e-300\nbody.side_length = 1e-13\n")
        assert main(["plan", "--config", bad, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: config validation errors:\n  body.inertia = none derives body.mass * "
            "body.side_length^2 / 6, which underflows to 0 (got 1e-300 and 1e-13); "
            "set body.inertia\n")

    def test_cli_main_plan_records_non_finite_newton_matrix(self, tmp_path, capsys):
        # dt / inertia overflows, so the Newton matrix holds an inf or nan
        cfg = write(tmp_path, "body.mass = 1e-300\nbody.side_length = 1e-10\n")
        assert main(["plan", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.count("pass1: Newton matrix holds an inf or nan") == 2

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

    def test_cli_main_plan_records_failed_factorization(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("not positive definite")
        monkeypatch.setattr(nlp, "cholesky_banded", fail)
        assert main(["plan", "--out", str(tmp_path / "o")]) == 1
        assert "Newton matrix not positive definite" in capsys.readouterr().err

    def test_plan_summary_names_failed_pass2(self, tmp_path, monkeypatch):
        real = optimizer.solve

        def solve_failing_warm(problem, initial_guess=None, **kwargs):
            if initial_guess is not None:
                raise nlp.NotConvergedError(nlp.SolverStats(message="forced"))
            return real(problem, initial_guess, **kwargs)

        monkeypatch.setattr(optimizer, "solve", solve_failing_warm)
        cmd_plan(None, tmp_path)
        lines = (tmp_path / "plan_summary.txt").read_text().splitlines()
        candidates = lines[lines.index("  candidates:") + 1:]
        # the 23.6 s candidate never reaches State II, so it has no pass 2
        assert not candidates[0].endswith(")")
        assert candidates[1].endswith("  (pass 2 failed: forced; pass-1 plan)")
        assert len(candidates) == 2

    def test_track_rejects_malformed_file(self, tmp_path):
        bogus = tmp_path / "t.txt"
        bogus.write_text("# not a trajectory\n1 2 3\n")
        assert main(["track", str(bogus), "--out", str(tmp_path / "o")]) == 2

    def test_track_rejects_bad_format_version(self, tmp_path):
        bogus = tmp_path / "t.txt"
        bogus.write_text(TRAJECTORY_HEAD.replace(" v1", " vX") + TRAJECTORY_ROWS)
        assert main(["track", str(bogus), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("head,message", [
        (TRAJECTORY_HEAD.replace(" v1", " v2"), "unsupported trajectory format version 2"),
        ("# proxdock trajectory v1\n", "missing columns manifest"),
        (TRAJECTORY_HEAD.replace(" g_min", " g"), "unexpected trajectory columns"),
    ], ids=["newer_version", "no_columns", "other_columns"])
    def test_track_rejects_bad_header(self, tmp_path, capsys, head, message):
        bogus = tmp_path / "t.txt"
        bogus.write_text(head + TRAJECTORY_ROWS)
        assert main(["track", str(bogus), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("rows,message", [
        (TRAJECTORY_ROWS.replace("0 0 0 1 0.5", "0 nan 0 1 0.5", 1),
         "non-finite wrench rows before the final knot"),
        (TRAJECTORY_ROWS.replace(" 1 0.5", " 3 0.5", 1), "kos_state must be 1 or 2"),
    ], ids=["nan_wrench", "kos_state_3"])
    def test_track_rejects_bad_trajectory_row(self, tmp_path, capsys, rows, message):
        bogus = tmp_path / "t.txt"
        bogus.write_text(TRAJECTORY_HEAD + rows)
        assert rows != TRAJECTORY_ROWS
        assert main(["track", str(bogus), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["track", "audit"])
    @pytest.mark.parametrize("defect", ["non_numeric", "ragged", "non_finite", "short"])
    def test_malformed_data_row_rejected(self, tmp_path, command, defect):
        head, columns = ((TRAJECTORY_HEAD, records.TRAJECTORY_COLUMNS) if command == "track"
                         else (RUN_HEAD, records.RUN_COLUMNS))
        row = " ".join(["0.5"] * len(columns))
        bad = {"non_numeric": row.replace("0.5", "abc", 1), "ragged": row + " 0.5",
               "non_finite": row.replace(" 0.5", " nan", 1),  # x = nan
               "short": row[:-4]}[defect]
        bogus = tmp_path / "r.txt"
        # "short" drops the last column from every row, so no row is ragged
        bogus.write_text(head + (bad if defect == "short" else row) + "\n" + bad + "\n")
        if command == "track":
            argv = ["track", str(bogus), "--out", str(tmp_path / "o")]
        else:
            argv = ["audit", str(bogus)]
        assert main(argv) == 2

    def test_track_rejects_non_finite_knot(self, planned, tmp_path, capsys):
        out, traj = planned
        lines = traj.read_text().splitlines()
        k = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        fields = lines[k].split()
        fields[1] = "nan"  # the first knot's x
        lines[k] = " ".join(fields)
        bad = tmp_path / "t.txt"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["track", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("dt", "0"), ("dt", "-0.1"), ("dt", "nan"),
        ("x_goal", "nan 0 0 0 0 0"), ("x_goal", "1 2 3"),
        ("theta_finish", "inf"),
        ("objective_value", "nan"), ("objective_effort", "inf"),
        ("dt", "fast")])
    def test_track_rejects_bad_meta_value(self, planned, tmp_path, capsys, key, value):
        out, traj = planned
        text = traj.read_text()
        head = f"# meta: {key} = "
        lines = [head + value if ln.startswith(head) else ln for ln in text.splitlines()]
        bad = tmp_path / "t.txt"
        bad.write_text("\n".join(lines) + "\n")
        assert bad.read_text() != text
        assert main(["track", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["track", "audit"])
    @pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
    def test_unreadable_input_file(self, tmp_path, capsys, command, kind):
        path = tmp_path / "in.txt"
        if kind == "directory":
            path.mkdir()
        elif kind == "binary":
            path.write_bytes(bytes(range(128, 256)))
        out = tmp_path / "o"
        argv = [command, str(path)] + (["--out", str(out)] if command == "track" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        kind_name = "trajectory" if command == "track" else "run"
        assert err.startswith(f"error: cannot read {kind_name} record: ")
        assert err.count("\n") == 1
        assert not out.exists()  # track reads its input before it makes --out

    def test_track_rejects_missing_meta_key(self, tmp_path):
        bogus = tmp_path / "t.txt"
        bogus.write_text(TRAJECTORY_HEAD + TRAJECTORY_ROWS)
        assert main(["track", str(bogus), "--out", str(tmp_path / "o")]) == 2

    def test_track_seed_override_obeys_seed_rule(self, planned, tmp_path, capsys):
        out, traj = planned
        argv = ["track", str(traj), "--seed", "-1", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: seed must be non-negative (got -1)\n"
        assert not (tmp_path / "o").exists()


# Runs in a fresh interpreter: prints, as its last line, whether
# scipy.optimize is loaded after each step of plan -> audit -> track.
IMPORT_PROBE = """
import json, sys
from proxdock import harness
out, record = sys.argv[1:]
seen = {}
def step(name):
    seen[name] = "scipy.optimize" in sys.modules
step("import")
harness.load_config(None)
step("load_config")
traj = harness.cmd_plan(None, out)
step("cmd_plan")
harness.cmd_audit(record, None)
step("cmd_audit")
harness.cmd_track(traj, None, out)
step("cmd_track")
print(json.dumps(seen))
"""


def test_no_subcommand_loads_scipy_optimize(planned, tmp_path):
    # no subcommand calls scipy.optimize (sweeps plan as cmd_plan does), so
    # none pays for importing it
    cmd_track(planned[1], None, tmp_path / "rec")
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(tmp_path / "o"),
                           str(tmp_path / "rec" / "run_record.txt")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "import": False, "load_config": False, "cmd_plan": False, "cmd_audit": False,
        "cmd_track": False}


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
        att = float([ln for ln in summary.splitlines()
                     if "terminal att residual" in ln][0].split(":")[1].split()[0])
        # ... and 3 for the attitude residual
        assert float(row[cols.index("att_err")]) == pytest.approx(att, rel=5e-3, abs=1e-12)

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

    def test_byte_layout_golden(self, tmp_path):
        # hand-built values pin the layout apart from the solver: ints as
        # integers, floats %.17g, "" as "-"
        config = ["a = 1", "b = none"]
        head = ("# config_digest: 639affd628e99717da59bf0514570e76"
                "d8b2b42e445888e37f573be4b35ca906\n# config: a = 1\n# config: b = none\n")
        result = SimpleNamespace(
            times=np.array([0.0, 0.1]),
            states=np.array([[1.0, 0.0, 0.5, 0.0, 0.0, 0.0], [0.9, 1e-20, 0.5, -1.0, 0.0, 0.0]]),
            relative_velocity=np.array([[0.0, 0.25], [1 / 3, 0.0]]),
            kos_distance=np.array([0.5, -2.5e-3]),
            terminal_position_error=0.1, terminal_attitude_error=0.0,
            terminal_relative_speed=1 / 3, min_kos_distance=-2.5e-3,
            slot_times=np.array([0.0, 0.05]),
            firings=np.array([[1, 0]] + [[0, 0]] * 6 + [[0, 1]], dtype=np.int8))
        records.write_run_record(tmp_path / "r.txt", result, config)
        records.write_firing_sequence(tmp_path / "f.txt", result, config)
        records.write_table(tmp_path / "t.txt", "demo-points", ["i", "x", "y", "reason"],
                            [[3, 0.1, math.nan, ""], [np.int64(-1), 2.0, -math.inf, "ok"]],
                            config)
        assert (tmp_path / "r.txt").read_text() == (
            "# proxdock run v1\n" + head
            + "# meta: terminal_position_error = 0.10000000000000001\n"
            "# meta: terminal_attitude_error = 0\n"
            "# meta: terminal_relative_speed = 0.33333333333333331\n"
            "# meta: min_kos_distance = -0.0025000000000000001\n"
            "# columns: t x y theta vx vy omega rel_vx rel_vy g\n"
            "0 1 0 0.5 0 0 0 0 0.25 0.5\n"
            "0.10000000000000001 0.90000000000000002 9.9999999999999995e-21 0.5 -1 0 0 "
            "0.33333333333333331 0 -0.0025000000000000001\n")
        assert (tmp_path / "f.txt").read_text() == (
            "# proxdock firing v1\n" + head
            + "# columns: t_slot u1 u2 u3 u4 u5 u6 u7 u8\n"
            "0 1 0 0 0 0 0 0 0\n"
            "0.050000000000000003 0 0 0 0 0 0 0 1\n")
        assert (tmp_path / "t.txt").read_text() == (
            "# proxdock demo-points v1\n" + head
            + "# columns: i x y reason\n"
            "3 0.10000000000000001 nan -\n"
            "-1 2 -inf ok\n")

    def test_wrong_kind_rejected(self, planned, tmp_path):
        out, traj = planned
        with pytest.raises(records.RecordError):
            records.read_run_record(traj)
