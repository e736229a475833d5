"""Delimited-text record files with a versioned header block.

Every file starts with `# proxdock <kind> v<version>` followed by the full
resolved configuration (one `# config:` line per key), its digest, optional
`# meta:` entries, a `# columns:` manifest, then whitespace-delimited data
rows, numbers printed with %.17g so reads round-trip bit-exactly.  Each
record has one row format, applied a block of rows at a time; a table's
cells are formatted by type.  Readers reject non-finite data, except the
final trajectory knot's wrench, which is NaN by design.
"""
from __future__ import annotations

import contextlib
import hashlib
import itertools
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

# rows per block: writers format and write one block at a time, so no
# record is held whole as Python numbers or text
_BLOCK = 1024


class RecordError(ValueError):
    """Malformed or wrong-kind record file."""


def config_digest(config_lines) -> str:
    blob = "\n".join(config_lines).encode()
    return hashlib.sha256(blob).hexdigest()


def _fmt(v) -> str:
    """One number as a meta or primitive cell."""
    return "%.17g" % v


def _write(path, header_lines, blocks) -> None:
    """The header lines, then each block of formatted rows."""
    with open(path, "w") as f:
        f.write("".join(ln + "\n" for ln in header_lines))
        f.writelines(blocks)


def _array_blocks(row_format: str, *columns):
    """The rows of the columns (arrays of equal length), _BLOCK rows a block:
    one % of row_format per row on the column_stack of the block's slices,
    whose ints are floats ("%d" % 1.0 is "1")."""
    for i in range(0, len(columns[0]), _BLOCK):
        block = np.column_stack([c[i:i + _BLOCK] for c in columns])
        yield (row_format + "\n") * len(block) % tuple(block.ravel().tolist())


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


@contextlib.contextmanager
def _open_record(path, kind: str, columns=None):
    """Read a record file of this kind up to its data block, and yield
    (meta, config, columns, rows): rows iterates over the data lines, read
    from the open file inside the with block.  With columns given, the
    file's manifest must equal them.  A file that cannot be read or decoded,
    in the header or in the data block, raises RecordError."""
    try:
        with open(path) as f:
            # the lines of f.read().splitlines(), one at a time
            lines = itertools.chain.from_iterable(map(str.splitlines, f))
            header = []
            for ln in lines:
                header.append(ln)
                if not ln.startswith("#"):
                    break
            meta, config, found = _parse_header(header, kind)
            if columns is not None and found != columns:
                raise RecordError(f"unexpected {kind} columns: {found}")
            yield meta, config, found, (ln for ln in itertools.chain(header[-1:], lines)
                                        if ln and not ln.startswith("#"))
    except (OSError, UnicodeDecodeError) as ex:
        raise RecordError(f"cannot read {kind} record: {ex}") from None


def _data_block(rows, kind: str, ncols: int) -> np.ndarray:
    """The data rows as an (n, ncols) array, parsed by numpy's C float
    parser (the same values float() gives)."""
    first = next(rows, None)
    if first is None:
        raise RecordError(f"{kind} data block malformed")
    try:
        data = np.loadtxt(itertools.chain([first], rows), comments=None, ndmin=2)
    except UnicodeDecodeError:
        raise  # unreadable, not malformed: _open_record reports it
    except ValueError as ex:  # non-numeric field or ragged rows
        raise RecordError(f"{kind} data block malformed: {ex}") from None
    if data.shape[1] != ncols:
        raise RecordError(f"{kind} data block malformed")
    return data


def _primitive_lines(state: int, t: float, target_theta: float, center,
                     cfg: KosConfig) -> list[str]:
    """The keep-out primitives of KosState value state at time t, drawn as
    kos defines them: the circle (State I only), then the +1 and -1
    half-ellipse lobes with their semi-axes."""
    a, b = koslib.ellipse_axes(cfg)
    head = f"# kos_primitive: t={_fmt(t)} state={int(state)} "
    c = f"{_fmt(center[0])} {_fmt(center[1])}"
    out = [head + f"circle {c} {_fmt(koslib.r_safe(cfg))}"] if state == KosState.STATE_I else []
    return out + [head + f"half_ellipse {c} {_fmt(target_theta)} {_fmt(a)} {_fmt(b)} {side:+d}"
                  for side in (+1, -1)]


def write_trajectory(path, plan: PlannedTrajectory, config_lines,
                     target: TargetState, kos_cfg: KosConfig) -> None:
    sched = plan.kos_states
    g = koslib.signed_distance_batch(plan.states[:, :2], target.attitude(plan.times), sched,
                                     target.position, kos_cfg)
    meta = {
        "objective_value": _fmt(plan.objective_value),
        "objective_goal": _fmt(plan.objective_breakdown[0]),
        "objective_kinetic": _fmt(plan.objective_breakdown[1]),
        "objective_effort": _fmt(plan.objective_breakdown[2]),
        "theta_finish": _fmt(plan.theta_finish),
        "x_goal": " ".join(_fmt(v) for v in plan.x_goal),
        "dt": _fmt(plan.dt),
        "converged": 1,  # every PlannedTrajectory is a converged plan
        "kkt_residual": _fmt(plan.solver_stats.kkt_residual),
        "constraint_violation": _fmt(plan.solver_stats.constraint_violation),
    }
    t_end = float(plan.times[-1])
    lines = _header("trajectory", config_lines, meta, TRAJECTORY_COLUMNS)
    lines += _primitive_lines(sched[0], 0.0, target.theta0, target.position, kos_cfg)
    lines += _primitive_lines(sched[-1], t_end, target.attitude(t_end), target.position, kos_cfg)
    wrenches = np.vstack([plan.wrenches, np.full((1, 3), math.nan)])  # none at the final knot
    _write(path, lines, _array_blocks(" ".join(["%.17g"] * 10 + ["%d", "%.17g"]),
                                      plan.times, plan.states, wrenches, sched, g))


def read_trajectory(path) -> tuple[PlannedTrajectory, dict]:
    with _open_record(path, "trajectory", TRAJECTORY_COLUMNS) as (meta, config, _, rows):
        data = _data_block(rows, "trajectory", len(TRAJECTORY_COLUMNS))
    times = data[:, 0]
    states = data[:, 1:7]
    wrenches = data[:-1, 7:10]
    # the final knot's wrench is nan, by design
    if not (np.all(np.isfinite(data[:, :7])) and np.all(np.isfinite(data[:, 11]))):
        raise RecordError("non-finite time, state or g_min in the trajectory")
    if np.any(~np.isfinite(wrenches)):
        raise RecordError("non-finite wrench rows before the final knot")
    if not np.all(np.isin(data[:, 10], (KosState.STATE_I, KosState.STATE_II))):
        raise RecordError("trajectory kos_state must be 1 or 2")
    try:
        converged = meta["converged"]
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
    # the tracker looks knots up by dt, so the times must be its multiples
    if np.any(np.abs(times - np.arange(len(times)) * plan.dt) > 1e-9 * plan.dt):
        raise RecordError(f"trajectory times are not k * dt (dt = {plan.dt!r})")
    if plan.x_goal.shape != (6,) or not np.all(np.isfinite(plan.x_goal)):
        raise RecordError("trajectory meta x_goal must be 6 finite values")
    if not np.all(np.isfinite([plan.theta_finish, plan.objective_value,
                               *plan.objective_breakdown])):
        raise RecordError("trajectory meta theta_finish and objective values must be finite")
    if converged != "1":  # the writer writes 1, the only value read as converged
        raise RecordError(f"trajectory is not a converged plan (converged = {converged})")
    return plan, {"meta": meta, "config": config}


def write_run_record(path, result, config_lines) -> None:
    meta = {k: _fmt(getattr(result, k)) for k in (
        "terminal_position_error", "terminal_attitude_error",
        "terminal_relative_speed", "min_kos_distance")}
    _write(path, _header("run", config_lines, meta, RUN_COLUMNS),
           _array_blocks(" ".join(["%.17g"] * 10), result.times, result.states,
                         result.relative_velocity, result.kos_distance))


def read_run_record(path):
    with _open_record(path, "run", RUN_COLUMNS) as (meta, config, _, rows):
        data = _data_block(rows, "run", len(RUN_COLUMNS))
    if not np.all(np.isfinite(data)):
        raise RecordError("non-finite value in the run record")
    return {"times": data[:, 0], "states": data[:, 1:7],
            "relative_velocity": data[:, 7:9], "g": data[:, 9],
            "meta": meta, "config": config}


def write_firing_sequence(path, result, config_lines) -> None:
    cols = ["t_slot"] + [f"u{i+1}" for i in range(8)]
    _write(path, _header("firing", config_lines, {}, cols),
           _array_blocks("%.17g" + " %d" * 8, result.slot_times, result.firings.T))


def _cell_format(v) -> str:
    """A table cell's format: ints %d, strings %s, other numbers %.17g."""
    return "%d" if isinstance(v, (int, np.integer)) else "%s" if isinstance(v, str) else "%.17g"


def write_table(path, kind: str, columns, rows, config_lines) -> None:
    """Generic sweep table: rows hold one cell per column and no string cell
    holds whitespace (a row that breaks either raises ValueError before the
    file is opened), and an empty string is written as "-", so every row
    splits into its cells."""
    rows = [[v or "-" if isinstance(v, str) else v for v in row] for row in rows]
    for i, row in enumerate(rows, 1):
        if len(row) != len(columns):
            raise ValueError(f"{kind} row {i} has {len(row)} cells for {len(columns)} columns")
        if any(isinstance(v, str) and v.split() != [v] for v in row):
            raise ValueError(f"{kind} row {i} has a string cell with whitespace: {row!r}")
    blocks = (rows[i:i + _BLOCK] for i in range(0, len(rows), _BLOCK))
    _write(path, _header(kind, config_lines, {}, columns),
           ("".join(" ".join(map(_cell_format, r)) + "\n" for r in b)
            % tuple(itertools.chain.from_iterable(b)) for b in blocks))


def read_table(path, kind: str):
    with _open_record(path, kind) as (meta, config, columns, rows):
        rows = [ln.split() for ln in rows]
    for i, row in enumerate(rows, 1):
        if len(row) != len(columns):
            raise RecordError(f"{kind} data row {i} has {len(row)} cells for "
                              f"{len(columns)} columns: {' '.join(row)!r}")
    return {"columns": columns, "rows": rows, "meta": meta, "config": config}
