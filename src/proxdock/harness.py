"""Command-line front end: config ingestion, plan/track pipeline, sweeps.

Config files are flat `key = value` text with dotted section names; an
empty or missing file yields the nominal scenario.  The schema is the
DEFAULTS table below: each key has a default, a ValueType (its parser and
printer) and a rule column, either None or a (test, message) pair such as
POSITIVE or FRACTION that load_config applies to every value but None and
"auto".  Checks that span keys stay in _validate.  Subcommands: plan,
track, sweep1, sweep2, audit.
"""
from __future__ import annotations

import argparse
import math
import sys
import time
import traceback
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import records
from .controller import PdGains
from .dynamics import BodyParams, TargetState, default_layout
from .kos import KosConfig, KosState
from .optimizer import AllCandidatesFailed, OptProblem, plan, terminal_errors
from .sim import ConfigMisaligned, SimConfig, audit_safety, run, steps_per_period


class ConfigError(ValueError):
    """One or more invalid config entries; message lists every violation."""


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_float_list(s: str):
    return tuple(float(v) for v in s.split(",") if v.strip())


# A config value type: parse reads a value from a `key = value` line and
# show writes it back.
ValueType = namedtuple("ValueType", "parse show")


def _float_or(word: str, value) -> ValueType:
    """A float, or word (in any case) standing for value."""
    return ValueType(lambda s: value if s.strip().lower() == word else float(s),
                     lambda v: word if v == value else "%.17g" % v)


INT = ValueType(int, str)
FLOAT = ValueType(float, lambda v: "%.17g" % v)
FLOAT_OR_NONE = _float_or("none", None)
FLOAT_OR_AUTO = _float_or("auto", "auto")
FLOAT_LIST = ValueType(_parse_float_list, lambda v: ",".join("%.17g" % x for x in v))
BOOL = ValueType(_parse_bool, lambda v: "true" if v else "false")


# Single-key rules: (test, message).  _rule_error applies a key's test to its
# value unless the value is None or "auto", and reports
# "{key} {message} (got {value})" when the test fails.
POSITIVE = (lambda v: v > 0, "must be positive")
NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")
AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")
ACUTE = (lambda v: 0 < v < math.pi / 2, "must lie in (0, pi/2)")
FRACTION = (lambda v: 0 <= v < 1, "must lie in [0, 1)")

# key -> (default value, ValueType, rule or None).  Defaults reproduce the
# nominal scenario: 0.3 m cubes, chaser from (1, 0) m, target spinning at
# 0.1 rad/s, approach attitude 3*pi/4, weights 100/10, 0.01 s physics at
# 10 Hz control.
DEFAULTS = {
    "seed": (0, INT, NON_NEGATIVE),
    "body.mass": (10.0, FLOAT, POSITIVE),
    "body.inertia": (None, FLOAT_OR_NONE, POSITIVE),   # none -> mass*side^2/6
    "body.side_length": (0.3, FLOAT, POSITIVE),
    "layout.f_thr": (0.03, FLOAT, POSITIVE),
    "target.side_length": (0.3, FLOAT, POSITIVE),
    "target.omega": (0.1, FLOAT, None),
    "target.theta0": (0.0, FLOAT, None),
    "target.x": (0.0, FLOAT, None),
    "target.y": (0.0, FLOAT, None),
    "init.x": (1.0, FLOAT, None),
    "init.y": (0.0, FLOAT, None),
    "init.theta": (0.0, FLOAT, None),
    "init.vx": (0.0, FLOAT, None),
    "init.vy": (0.0, FLOAT, None),
    "init.omega": (0.0, FLOAT, None),
    "kos.margin_fraction": (0.10, FLOAT, NON_NEGATIVE),
    "kos.dist_threshold_factor": (1.5, FLOAT, AT_LEAST_ONE),
    "kos.angle_threshold": (None, FLOAT_OR_NONE, ACUTE),  # none -> corner-safe gate
    "opt.dt": (0.1, FLOAT, POSITIVE),
    "opt.w_goal": (100.0, FLOAT, NON_NEGATIVE),
    "opt.w_u": (10.0, FLOAT, NON_NEGATIVE),
    "opt.w_kin": (1.0, FLOAT, NON_NEGATIVE),
    "opt.theta_approach": (3.0 * math.pi / 4.0, FLOAT, None),
    "opt.max_candidates": (2, INT, AT_LEAST_ONE),
    "opt.min_duration": (5.0, FLOAT_OR_AUTO, None),
    "opt.static_durations": ((20.0, 40.0, 60.0, 80.0), FLOAT_LIST, None),
    "opt.capture_offset": (0.05, FLOAT, None),
    "opt.goal_corotate": (False, BOOL, None),
    "opt.latch_delay": ("auto", FLOAT_OR_AUTO, NON_NEGATIVE),
    "opt.force_bound": (None, FLOAT_OR_NONE, POSITIVE),   # none -> f_thr
    "opt.torque_bound": (None, FLOAT_OR_NONE, POSITIVE),  # none -> 0.8*l_s*f_thr
    "gains.kp_pos": (2.0, FLOAT, NON_NEGATIVE),
    "gains.kd_pos": (8.0, FLOAT, NON_NEGATIVE),
    "gains.kp_att": (0.4, FLOAT, NON_NEGATIVE),
    "gains.kd_att": (1.2, FLOAT, NON_NEGATIVE),
    "ctrl.n_slots": (10, INT, AT_LEAST_ONE),
    "ctrl.feed_forward": (True, BOOL, None),
    "sim.physics_dt": (0.01, FLOAT, POSITIVE),
    "sim.control_hz": (10.0, FLOAT, POSITIVE),
    "sim.tail": (5.0, FLOAT, NON_NEGATIVE),
    "sim.duration": (None, FLOAT_OR_NONE, POSITIVE),  # none -> plan horizon + tail
    "sim.mismatch_fraction": (0.0, FLOAT, FRACTION),
    "sim.disturbance_accel": (0.0, FLOAT, NON_NEGATIVE),
    "sweep1.omega_start": (0.035, FLOAT, None),
    "sweep1.omega_step": (0.025, FLOAT, POSITIVE),
    "sweep1.omega_stop": (2.0, FLOAT, None),
    "sweep1.f_start": (0.03, FLOAT, POSITIVE),
    "sweep1.f_step": (0.03, FLOAT, POSITIVE),
    "sweep1.f_stop": (1.02, FLOAT, None),
    "sweep1.max_candidates": (2, INT, AT_LEAST_ONE),
    "sweep1.min_duration": ("auto", FLOAT_OR_AUTO, None),
    "sweep1.goal_corotate": (True, BOOL, None),
    "sweep2.theta_start_deg": (0.0, FLOAT, None),
    "sweep2.theta_step_deg": (30.0, FLOAT, POSITIVE),
    "sweep2.theta_stop_deg": (330.0, FLOAT, None),
    "sweep2.omega_start": (0.05, FLOAT, None),
    "sweep2.omega_step": (0.05, FLOAT, POSITIVE),
    "sweep2.omega_stop": (2.0, FLOAT, None),
    "sweep2.f_thr": (0.03, FLOAT, POSITIVE),
    "sweep2.max_candidates": (2, INT, AT_LEAST_ONE),
    "sweep2.min_duration": ("auto", FLOAT_OR_AUTO, None),
    "sweep2.goal_corotate": (True, BOOL, None),
}

# Each sweep's two grid axes, outer first: (config key prefix, in degrees,
# table column).  An axis reads <prefix>_start/_step/_stop, with a _deg
# suffix on each key when the axis is in degrees.
SWEEP_AXES = {
    "sweep1": (("sweep1.omega", False, "omega"), ("sweep1.f", False, "f_thr")),
    "sweep2": (("sweep2.theta", True, "theta_deg"), ("sweep2.omega", False, "omega")),
}


def _axis_keys(prefix: str, degrees: bool) -> tuple[str, str, str]:
    unit = "_deg" if degrees else ""
    return tuple(f"{prefix}_{part}{unit}" for part in ("start", "step", "stop"))


@dataclass
class RunConfig:
    """Fully resolved scenario; built by load_config."""

    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def resolved_lines(self) -> list[str]:
        return [f"{key} = {vtype.show(self.values[key])}"
                for key, (_, vtype, _) in DEFAULTS.items()]

    # ---- object builders -------------------------------------------------
    def body(self) -> BodyParams:
        m = self["body.mass"]
        side = self["body.side_length"]
        inertia = self["body.inertia"]
        if inertia is None:
            inertia = m * side**2 / 6.0
        return BodyParams(mass=m, inertia=inertia, side_length=side)

    def layout(self):
        return default_layout(self["body.side_length"], self["layout.f_thr"])

    def target(self) -> TargetState:
        return TargetState(side_length=self["target.side_length"],
                           omega=self["target.omega"],
                           theta0=self["target.theta0"],
                           x=self["target.x"], y=self["target.y"])

    def kos_config(self) -> KosConfig:
        return KosConfig(l_s=self["body.side_length"], l_t=self["target.side_length"],
                         margin_fraction=self["kos.margin_fraction"],
                         dist_threshold_factor=self["kos.dist_threshold_factor"],
                         angle_threshold=self["kos.angle_threshold"])

    def init_state(self) -> np.ndarray:
        return np.array([self[f"init.{k}"] for k in ("x", "y", "theta", "vx", "vy", "omega")])

    def gains(self) -> PdGains:
        return PdGains(self["gains.kp_pos"], self["gains.kd_pos"],
                       self["gains.kp_att"], self["gains.kd_att"])

    def wrench_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) bounds on the planned inertial wrench [Fx, Fy, tau]."""
        f = self["layout.f_thr"]
        fb = self["opt.force_bound"]
        tb = self["opt.torque_bound"]
        if fb is None:
            fb = f  # half the 2*f_thr per-axis max: reserve for rotation + torque
        if tb is None:
            tb = 0.8 * self["body.side_length"] * f  # half the pure-couple max
        return np.array([-fb, -fb, -tb]), np.array([fb, fb, tb])

    def opt_template(self) -> OptProblem:
        lo, hi = self.wrench_bounds()
        return OptProblem(
            N=2, dt=self["opt.dt"], x_init=self.init_state(),
            theta_finish=0.0, x_goal=np.zeros(6),
            target=self.target(), body=self.body(), kos_cfg=self.kos_config(),
            w_goal=self["opt.w_goal"], w_u=self["opt.w_u"], w_kin=self["opt.w_kin"],
            wrench_min=lo, wrench_max=hi,
        )

    def sim_config(self, seed: int | None = None) -> SimConfig:
        return SimConfig(
            body=self.body(), layout=self.layout(), gains=self.gains(),
            physics_dt=self["sim.physics_dt"], control_hz=self["sim.control_hz"],
            n_slots=self["ctrl.n_slots"], duration=self["sim.duration"],
            tail=self["sim.tail"], feed_forward=self["ctrl.feed_forward"],
            mismatch_fraction=self["sim.mismatch_fraction"],
            disturbance_accel=self["sim.disturbance_accel"],
            seed=seed if seed is not None else self["seed"],
            kos_cfg=self.kos_config(),
        )

    def auto_min_duration(self) -> float:
        """Reachability floor: direct bang-bang time over the start distance."""
        body = self.body()
        force_bound = float(self.wrench_bounds()[1][0])
        d = math.hypot(self["init.x"] - self["target.x"], self["init.y"] - self["target.y"])
        return 2.0 * math.sqrt(d * body.mass / force_bound)

    def plan_kwargs(self) -> dict:
        return dict(
            max_candidates=self["opt.max_candidates"],
            min_duration=self.auto_min_duration() if self["opt.min_duration"] == "auto"
            else self["opt.min_duration"],
            static_durations=self["opt.static_durations"],
            capture_offset=self["opt.capture_offset"],
            goal_corotate=self["opt.goal_corotate"],
            latch_delay=self["opt.latch_delay"],
        )


def load_config(path: str | None) -> RunConfig:
    """Parse and validate a config file; None or empty means all defaults."""
    values = {k: d for k, (d, _, _) in DEFAULTS.items()}
    errors = []
    if path is not None:
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as ex:
            raise ConfigError(f"cannot read config: {ex}") from ex
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                errors.append(f"line {lineno}: expected 'key = value', got {raw!r}")
                continue
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in DEFAULTS:
                errors.append(f"line {lineno}: unknown key {key!r}")
                continue
            try:
                values[key] = DEFAULTS[key][1].parse(val.strip())
            except ValueError as ex:
                errors.append(f"line {lineno}: bad value for {key}: {ex}")
    if errors:
        raise ConfigError("config parse errors:\n  " + "\n  ".join(errors))

    cfg = RunConfig(values)
    _validate(cfg, errors)
    if errors:
        raise ConfigError("config validation errors:\n  " + "\n  ".join(errors))
    return cfg


def _rule_error(key: str, value) -> str | None:
    """The message for a value that breaks its key's DEFAULTS rule, else None."""
    rule = DEFAULTS[key][2]
    if rule is not None and value not in (None, "auto") and not rule[0](value):
        return f"{key} {rule[1]} (got {value})"
    return None


def _validate(cfg: RunConfig, errors: list) -> None:
    v = cfg.values
    non_finite = [key for key, val in v.items()
                  if any(isinstance(x, float) and not math.isfinite(x)
                         for x in (val if isinstance(val, tuple) else (val,)))]
    for key in non_finite:
        errors.append(f"{key} must be finite (got {v[key]})")
    if non_finite:
        return  # the rules below assume finite values
    errors.extend(filter(None, (_rule_error(key, v[key]) for key in DEFAULTS)))
    if not errors:  # the checks below assume every rule holds
        # PdGains' check across keys; the other gains' and the keep-out
        # config's constructor checks are DEFAULTS rules
        gains = [key for key in DEFAULTS if key.startswith("gains.")]
        if not any(v[key] for key in gains):
            errors.append(f"at least one of {', '.join(gains)} must be positive")
        # BodyParams' checks are DEFAULTS rules too, but for a derived
        # inertia, which can underflow to 0
        try:
            cfg.body()
        except ValueError:
            errors.append(f"body.inertia = none derives body.mass * body.side_length^2 / 6, "
                          f"which underflows to 0 (got {v['body.mass']} and "
                          f"{v['body.side_length']}); set body.inertia")
        dt, hz, n_slots = v["sim.physics_dt"], v["sim.control_hz"], v["ctrl.n_slots"]
        try:
            steps = steps_per_period(dt, hz, 1)
        except ConfigMisaligned:
            errors.append(f"sim.control_hz must make the control period a multiple of "
                          f"sim.physics_dt = {dt} (got {hz}, a period of {1.0 / hz} s)")
        else:
            if steps % n_slots:
                errors.append(f"ctrl.n_slots must divide the {steps} physics steps per control "
                              f"period set by sim.control_hz and sim.physics_dt (got {n_slots})")
    for axes in SWEEP_AXES.values():
        for prefix, degrees, _ in axes:
            start, _, stop = _axis_keys(prefix, degrees)
            if v[stop] < v[start]:
                errors.append(f"{stop} must be >= {start}")


def grid_values(start: float, step: float, stop: float) -> np.ndarray:
    """Integer-indexed grid start + i*step up to stop (inclusive, no drift)."""
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(n)


# ---------------------------------------------------------------------------
# subcommands

_POINT_COLUMNS = ["converged", "duration", "objective", "goal", "kinetic",
                  "effort", "pos_err", "att_err", "wall_time", "reason"]


def _out_dir(out_dir) -> Path:
    """The --out directory, made if missing; a ConfigError if it cannot be."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as ex:
        raise ConfigError(f"cannot make output directory: {ex}") from None
    return out


def _plan_point(cfg: RunConfig):
    """Plan cfg's scenario: (best plan, converged candidates, record), where
    the record holds a converged point's _POINT_COLUMNS but wall_time."""
    best, results = plan(cfg["opt.theta_approach"], cfg.opt_template(), **cfg.plan_kwargs())
    goal, kinetic, effort = best.objective_breakdown
    pos_err, att_err = terminal_errors(best, best.states[-1])
    return best, results, dict(converged=1, duration=float(best.times[-1]),
                               objective=best.objective_value, goal=goal, kinetic=kinetic,
                               effort=effort, pos_err=pos_err, att_err=att_err, reason="")


def cmd_plan(config_path, out_dir):
    cfg = load_config(config_path)
    out = _out_dir(out_dir)
    t0 = time.perf_counter()
    best, all_results, rec = _plan_point(cfg)
    wall = time.perf_counter() - t0
    traj_path = out / "trajectory.txt"
    records.write_trajectory(traj_path, best, cfg.resolved_lines(),
                             cfg.target(), cfg.kos_config())

    switch = next((float(t) for t, s in zip(best.times, best.kos_states)
                   if s == KosState.STATE_II), None)
    lines = [
        "proxdock plan summary",
        f"  chosen duration      : {best.times[-1]:.2f} s "
        f"(of {len(all_results)} converged candidates)",
        f"  objective            : {best.objective_value:.6g}",
        f"    goal term          : {rec['goal']:.6g}",
        f"    kinetic term       : {rec['kinetic']:.6g}",
        f"    effort term        : {rec['effort']:.6g}",
        f"  KOS switch to II     : {'%.2f s' % switch if switch is not None else 'never'}",
        f"  terminal pos error   : {rec['pos_err']:.6g} m",
        f"  terminal att residual: {rec['att_err']:.3g} rad",
        f"  solver               : {best.solver_stats.outer_iterations} outer / "
        f"{best.solver_stats.newton_iterations} newton "
        f"({best.solver_stats.inner_stalls} stalled, "
        f"{best.solver_stats.inner_capped} capped inner loops), "
        f"kkt {best.solver_stats.kkt_residual:.2e}, "
        f"viol {best.solver_stats.constraint_violation:.2e}",
        f"  wall time            : {wall:.2f} s",
        "  candidates:",
    ]
    for r in all_results:
        line = f"    T={r.times[-1]:8.2f} s  J={r.objective_value:.6g}"
        if r.pass2_failure is not None:
            line += f"  (pass 2 failed: {r.pass2_failure}; pass-1 plan)"
        lines.append(line)
    summary = out / "plan_summary.txt"
    summary.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"wrote {traj_path} and {summary}")
    return traj_path


def cmd_track(traj_path, config_path, out_dir, seed=None):
    cfg = load_config(config_path)
    seed_error = _rule_error("seed", seed)  # the --seed override obeys the config rule
    if seed_error:
        raise ConfigError(seed_error)
    loaded, info = records.read_trajectory(traj_path)
    out = _out_dir(out_dir)
    if records.config_digest(cfg.resolved_lines()) != records.config_digest(info["config"]):
        print("warning: tracking config differs from the planning config", file=sys.stderr)
    sim_cfg = cfg.sim_config(seed=seed)
    result = run(loaded, sim_cfg, cfg.target())
    records.write_run_record(out / "run_record.txt", result, cfg.resolved_lines())
    records.write_firing_sequence(out / "firing_sequence.txt", result, cfg.resolved_lines())
    lines = [
        "proxdock track summary",
        f"  terminal position error : {result.terminal_position_error:.6g} m",
        f"  terminal attitude error : {result.terminal_attitude_error:.6g} rad",
        f"  terminal relative speed : {result.terminal_relative_speed:.6g} m/s",
        f"  min KOS distance        : {result.min_kos_distance:.6g} m",
        f"  rms position error      : "
        f"{float(np.sqrt(np.mean(result.errors[:, 0]**2 + result.errors[:, 1]**2))):.6g} m",
        f"  thruster-on fraction    : {float(result.firings.mean()):.4f}",
    ]
    (out / "track_summary.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return result


def _sweep_point(values):
    """Plan one grid point's config values as cmd_plan does; run in a worker
    process, returns a plain record dict."""
    t0 = time.perf_counter()
    try:
        rec = _plan_point(RunConfig(values))[2]
    except Exception as ex:  # one failing point must not abort the sweep
        if isinstance(ex, AllCandidatesFailed):
            reason = str(ex.reasons[0])[:60].replace(" ", "_")
        else:
            traceback.print_exc(file=sys.stderr)
            reason = type(ex).__name__
        rec = dict.fromkeys(_POINT_COLUMNS, math.nan) | dict(converged=0, reason=reason)
    rec["wall_time"] = time.perf_counter() - t0
    return rec


def _run_points(tasks, parallel: int):
    if parallel <= 1:
        return [_sweep_point(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor  # serial runs skip its import
    with ProcessPoolExecutor(max_workers=parallel) as pool:
        return list(pool.map(_sweep_point, tasks))


def _grid_sweep(cfg: RunConfig, out_dir, sweep: str, parallel: int, point,
                summary_columns, summarize):
    """Run a sweep's two-axis grid and write its points and summary tables.

    Each grid point is the run config with the sweep's own max_candidates,
    min_duration and goal_corotate in place of the opt.* ones, updated by
    point(a, b): the opt.theta_approach [rad], target.omega and layout.f_thr
    of an (outer, inner) pair of grid values.  summarize(converged records)
    gives the summary_columns of one outer value.  Returns the summary rows.
    """
    out = _out_dir(out_dir)
    axes = SWEEP_AXES[sweep]
    outer, inner = (grid_values(*(cfg[k] for k in _axis_keys(prefix, degrees)))
                    for prefix, degrees, _ in axes)
    own = {f"opt.{key}": cfg[f"{sweep}.{key}"]
           for key in ("max_candidates", "min_duration", "goal_corotate")}
    recs = _run_points([{**cfg.values, **own, **point(float(a), float(b))}
                        for a in outer for b in inner], parallel)

    index_columns = [f"{ij}_{prefix.split('.')[1]}" for ij, (prefix, _, _) in zip("ij", axes)]
    rows = [[i, j, float(a), float(b)] + [recs[i * len(inner) + j][c] for c in _POINT_COLUMNS]
            for i, a in enumerate(outer) for j, b in enumerate(inner)]
    points_path = out / f"{sweep}_points.txt"
    records.write_table(points_path, f"{sweep}-points",
                        index_columns + [col for _, _, col in axes] + _POINT_COLUMNS,
                        rows, cfg.resolved_lines())

    srows = []
    for i, a in enumerate(outer):
        sub = recs[i * len(inner):(i + 1) * len(inner)]
        ok = [r for r in sub if r["converged"]]
        srows.append([i, float(a), len(ok), len(sub) - len(ok)] + summarize(ok))
    summary_path = out / f"{sweep}_summary.txt"
    records.write_table(summary_path, f"{sweep}-summary",
                        [index_columns[0], axes[0][2], "n_converged", "n_failed"]
                        + summary_columns, srows, cfg.resolved_lines())
    print(f"{sweep}: {len(rows)} points -> {points_path}, {summary_path}")
    return srows


def _sweep1_summary(ok) -> list:
    if not ok:
        return [math.nan] * 5 + ["-"]
    errs = np.array([r["pos_err"] for r in ok])
    mean_terms = np.array([[r["goal"], r["kinetic"], r["effort"]] for r in ok]).mean(axis=0)
    dominant = ("goal", "kinetic", "effort")[int(np.argmax(mean_terms))]
    return [errs.mean(), errs.std(), *mean_terms, dominant]


def _sweep2_summary(ok) -> list:
    if not ok:
        return [math.nan] * 3
    errs = np.array([r["pos_err"] for r in ok])
    return [errs.mean(), errs.std(), errs.max()]


def cmd_sweep1(config_path, out_dir, parallel=1):
    """Target-spin x thrust-force sweep; aggregates error stats per omega."""
    cfg = load_config(config_path)
    return _grid_sweep(cfg, out_dir, "sweep1", parallel,
                       lambda omega, f_thr: {"target.omega": omega, "layout.f_thr": f_thr},
                       ["pos_err_mean", "pos_err_std", "goal_mean", "kinetic_mean",
                        "effort_mean", "dominant_term"], _sweep1_summary)


def cmd_sweep2(config_path, out_dir, parallel=1):
    """Approach-attitude polar sweep at fixed thrust; stats per sector."""
    cfg = load_config(config_path)
    return _grid_sweep(cfg, out_dir, "sweep2", parallel,
                       lambda theta_deg, omega: {"opt.theta_approach": math.radians(theta_deg),
                                                 "target.omega": omega,
                                                 "layout.f_thr": cfg["sweep2.f_thr"]},
                       ["pos_err_mean", "pos_err_std", "pos_err_max"], _sweep2_summary)


def cmd_audit(record_path, config_path, fail_below=None):
    if fail_below is not None and not math.isfinite(fail_below):
        raise ConfigError(f"--fail-below must be finite (got {fail_below})")
    cfg = load_config(config_path)
    rec = records.read_run_record(record_path)
    g_min = audit_safety(rec["states"], rec["times"], cfg.target(), cfg.kos_config())
    print(f"min KOS signed distance: {g_min:.6g} m "
          f"(recorded: {rec['meta'].get('min_kos_distance', 'n/a')})")
    if fail_below is not None and g_min < fail_below:
        print(f"audit FAILED: {g_min:.6g} < {fail_below}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="proxdock",
                                 description="close-range rendezvous planning and tracking")
    sub = ap.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=None, help="key=value config file")
    common = argparse.ArgumentParser(add_help=False, parents=[config])
    common.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("plan", parents=[common], help="generate a trajectory")
    p.set_defaults(run=lambda a: cmd_plan(a.config, a.out))
    p = sub.add_parser("track", parents=[common],
                       help="track a trajectory file in the simulator")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("trajectory", help="trajectory file from `plan`")
    p.set_defaults(run=lambda a: cmd_track(a.trajectory, a.config, a.out, a.seed))
    p = sub.add_parser("sweep1", parents=[common],
                       help="target-spin x thrust sweep (case study 1)")
    p.add_argument("--parallel", type=int, default=1)
    p.set_defaults(run=lambda a: cmd_sweep1(a.config, a.out, a.parallel))
    p = sub.add_parser("sweep2", parents=[common],
                       help="approach-attitude polar sweep (case study 2)")
    p.add_argument("--parallel", type=int, default=1)
    p.set_defaults(run=lambda a: cmd_sweep2(a.config, a.out, a.parallel))
    p = sub.add_parser("audit", parents=[config], help="safety re-check of a run record")
    p.add_argument("record", help="run record file from `track`")
    p.add_argument("--fail-below", type=float, default=None)
    p.set_defaults(run=lambda a: cmd_audit(a.record, a.config, a.fail_below))

    args = ap.parse_args(argv)
    try:
        rc = args.run(args)
    except (ConfigError, records.RecordError, AllCandidatesFailed) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1 if isinstance(ex, AllCandidatesFailed) else 2
    # audit returns its verdict as an exit code; the other commands return
    # their results and fail by raising
    return rc if args.command == "audit" else 0


if __name__ == "__main__":
    sys.exit(main())
