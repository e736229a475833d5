"""Delimited-text record files with a versioned header block.

Every file starts with `# proxdock <kind> v<version>` followed by the full
resolved configuration (one `# config:` line per key), its digest, optional
`# meta:` entries, a `# columns:` manifest, then whitespace-delimited data
rows printed with %.17g so reads round-trip bit-exactly.  Readers reject
non-finite data, except where a column holds it by design.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

from . import kos as koslib
from .kos import KosConfig, KosState
from .dynamics import TargetState
from .nlp import SolverStats
from .optimizer import PlannedTrajectory

FORMAT_VERSION = 1

TRAJECTORY_COLUMNS = ["t", "x", "y", "theta", "vx", "vy", "omega",
                      "Fx", "Fy", "tau", "kos_state", "g_min"]
RUN_COLUMNS = ["t", "x", "y", "theta", "vx", "vy", "omega", "rel_vx", "rel_vy", "g"]


class RecordError(ValueError):
    """Malformed or wrong-kind record file."""


def config_digest(config_lines) -> str:
    blob = "\n".join(config_lines).encode()
    return hashlib.sha256(blob).hexdigest()


def _fmt(v) -> str:
    """A number or a data cell: ints as integers, "" as "-", other strings as
    they are, everything else %.17g, which round-trips bit-exactly."""
    if isinstance(v, float):  # np.float64 too; the common case comes first
        return "%.17g" % v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v or "-"
    return "%.17g" % float(v)


def _write(path, header_lines, rows) -> None:
    lines = header_lines + [" ".join(map(_fmt, row)) for row in rows]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _header(kind: str, config_lines, meta: dict, columns) -> list[str]:
    out = [f"# proxdock {kind} v{FORMAT_VERSION}"]
    out.append(f"# config_digest: {config_digest(config_lines)}")
    out += [f"# config: {line}" for line in config_lines]
    for k, v in meta.items():
        out.append(f"# meta: {k} = {v}")
    out.append("# columns: " + " ".join(columns))
    return out


def _parse_header(lines, kind: str):
    if not lines or not lines[0].startswith(f"# proxdock {kind} v"):
        raise RecordError(f"not a proxdock {kind} record")
    try:
        version = int(lines[0].rsplit("v", 1)[1])
    except ValueError:
        raise RecordError(f"bad {kind} format version: {lines[0]!r}") from None
    if version > FORMAT_VERSION:
        raise RecordError(f"unsupported {kind} format version {version}")
    meta, config, columns = {}, [], None
    for ln in lines[1:]:
        if not ln.startswith("#"):
            break
        body = ln[1:].strip()
        if body.startswith("config: "):
            config.append(body[len("config: "):])
        elif body.startswith("meta: "):
            k, _, v = body[len("meta: "):].partition(" = ")
            meta[k.strip()] = v.strip()
        elif body.startswith("columns: "):
            columns = body[len("columns: "):].split()
    if columns is None:
        raise RecordError("missing columns manifest")
    return meta, config, columns


def _read(path, kind: str, columns=None):
    """(lines, meta, config, columns) of a record file of this kind; with
    columns given, the file's manifest must equal them."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except (OSError, UnicodeDecodeError) as ex:
        raise RecordError(f"cannot read {kind} record: {ex}") from None
    meta, config, found = _parse_header(lines, kind)
    if columns is not None and found != columns:
        raise RecordError(f"unexpected {kind} columns: {found}")
    return lines, meta, config, found


def _data_block(lines, kind: str, ncols: int) -> np.ndarray:
    """The numeric rows below the header as an (n, ncols) array."""
    try:
        data = np.array([[float(v) for v in ln.split()]
                         for ln in lines if ln and not ln.startswith("#")])
    except ValueError as ex:  # non-numeric field or ragged rows
        raise RecordError(f"{kind} data block malformed: {ex}") from None
    if data.ndim != 2 or data.shape[1] != ncols:
        raise RecordError(f"{kind} data block malformed")
    return data


def _primitive_lines(state: int, t: float, target_theta: float, center,
                     cfg: KosConfig) -> list[str]:
    """The keep-out primitives of KosState value state at time t: the circle
    (State I only), then the +1 and -1 half-ellipse lobes."""
    rs = koslib.r_safe(cfg)
    head = f"# kos_primitive: t={_fmt(t)} state={int(state)} "
    c = f"{_fmt(center[0])} {_fmt(center[1])}"
    out = [head + f"circle {c} {_fmt(rs)}"] if state == KosState.STATE_I else []
    for side in (+1, -1):
        out.append(head + f"half_ellipse {c} {_fmt(target_theta)} {_fmt(rs)} "
                   f"{_fmt(rs / 2.0)} {side:+d}")
    return out


def write_trajectory(path, plan: PlannedTrajectory, config_lines,
                     target: TargetState, kos_cfg: KosConfig | None) -> None:
    sched = plan.kos_states
    if kos_cfg is not None:
        th = target.attitude(plan.times)
        g = koslib.signed_distance_batch(plan.states[:, :2], th, sched,
                                         target.position, kos_cfg)
    else:
        g = np.full(len(plan.times), np.inf)
    meta = {
        "objective_value": _fmt(plan.objective_value),
        "objective_goal": _fmt(plan.objective_breakdown[0]),
        "objective_kinetic": _fmt(plan.objective_breakdown[1]),
        "objective_effort": _fmt(plan.objective_breakdown[2]),
        "theta_finish": _fmt(plan.theta_finish),
        "x_goal": " ".join(_fmt(v) for v in plan.x_goal),
        "dt": _fmt(plan.dt),
        "converged": int(plan.converged),
        "kkt_residual": _fmt(plan.solver_stats.kkt_residual),
        "constraint_violation": _fmt(plan.solver_stats.constraint_violation),
    }
    lines = _header("trajectory", config_lines, meta, TRAJECTORY_COLUMNS)
    if kos_cfg is not None:
        t_end = float(plan.times[-1])
        lines += _primitive_lines(sched[0], 0.0, target.theta0, target.position, kos_cfg)
        lines += _primitive_lines(sched[-1], t_end, target.attitude(t_end),
                                  target.position, kos_cfg)
    wrenches = [*plan.wrenches, [math.nan] * 3]  # the final knot has no wrench
    _write(path, lines, ([t, *plan.states[k], *wrenches[k], sched[k], g[k]]
                         for k, t in enumerate(plan.times)))


def read_trajectory(path) -> tuple[PlannedTrajectory, dict]:
    lines, meta, config, _ = _read(path, "trajectory", TRAJECTORY_COLUMNS)
    data = _data_block(lines, "trajectory", len(TRAJECTORY_COLUMNS))
    times = data[:, 0]
    states = data[:, 1:7]
    wrenches = data[:-1, 7:10]
    # the final knot's wrench is nan and g_min is inf without a KOS, by design
    if not np.all(np.isfinite(data[:, :7])):
        raise RecordError("non-finite time or state in the trajectory")
    if np.any(~np.isfinite(wrenches)):
        raise RecordError("non-finite wrench rows before the final knot")
    if not np.all(np.isin(data[:, 10], (KosState.STATE_I, KosState.STATE_II))):
        raise RecordError("trajectory kos_state must be 1 or 2")
    try:
        stats = SolverStats(kkt_residual=float(meta.get("kkt_residual", "inf")),
                            constraint_violation=float(meta.get("constraint_violation", "inf")),
                            message="loaded from file")
        plan = PlannedTrajectory(
            times=times, states=states, wrenches=wrenches,
            objective_value=float(meta["objective_value"]),
            objective_breakdown=(float(meta["objective_goal"]),
                                 float(meta["objective_kinetic"]),
                                 float(meta["objective_effort"])),
            kos_states=data[:, 10].astype(int),
            converged=bool(int(meta["converged"])),
            solver_stats=stats,
            x_goal=np.array([float(v) for v in meta["x_goal"].split()]),
            theta_finish=float(meta["theta_finish"]),
            dt=float(meta["dt"]),
        )
    except KeyError as ex:
        raise RecordError(f"trajectory meta lacks {ex.args[0]!r}") from None
    except ValueError as ex:  # unparsable meta value
        raise RecordError(f"trajectory record malformed: {ex}") from None
    if not (math.isfinite(plan.dt) and plan.dt > 0):
        raise RecordError("trajectory meta dt must be finite and positive")
    if plan.x_goal.shape != (6,) or not np.all(np.isfinite(plan.x_goal)):
        raise RecordError("trajectory meta x_goal must be 6 finite values")
    if not np.all(np.isfinite([plan.theta_finish, plan.objective_value,
                               *plan.objective_breakdown])):
        raise RecordError("trajectory meta theta_finish and objective values must be finite")
    return plan, {"meta": meta, "config": config}


def write_run_record(path, result, config_lines) -> None:
    meta = {
        "terminal_position_error": _fmt(result.terminal_position_error),
        "terminal_attitude_error": _fmt(result.terminal_attitude_error),
        "terminal_relative_speed": _fmt(result.terminal_relative_speed),
        "min_kos_distance": _fmt(result.min_kos_distance),
    }
    _write(path, _header("run", config_lines, meta, RUN_COLUMNS),
           np.column_stack([result.times, result.states, result.relative_velocity,
                            result.kos_distance]).tolist())


def read_run_record(path):
    lines, meta, config, _ = _read(path, "run", RUN_COLUMNS)
    data = _data_block(lines, "run", len(RUN_COLUMNS))
    if not np.all(np.isfinite(data)):
        raise RecordError("non-finite value in the run record")
    return {"times": data[:, 0], "states": data[:, 1:7],
            "relative_velocity": data[:, 7:9], "g": data[:, 9],
            "meta": meta, "config": config}


def write_firing_sequence(path, result, config_lines) -> None:
    cols = ["t_slot"] + [f"u{i+1}" for i in range(8)]
    _write(path, _header("firing", config_lines, {}, cols),
           ([t, *f] for t, f in zip(result.slot_times.tolist(), result.firings.T.tolist())))


def write_table(path, kind: str, columns, rows, config_lines) -> None:
    """Generic sweep table: rows are sequences aligned with columns."""
    _write(path, _header(kind, config_lines, {}, columns), rows)


def read_table(path, kind: str):
    lines, meta, config, columns = _read(path, kind)
    rows = [ln.split() for ln in lines if ln and not ln.startswith("#")]
    return {"columns": columns, "rows": rows, "meta": meta, "config": config}
