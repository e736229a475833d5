"""The three benchmark workloads, driven through proxdock's public API.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  An operation returns an OpResult with
its timings, its attempted/failed counts and the output checks it made.
Output checks run outside the timed region.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import shutil
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from proxdock import harness, records, sim

BENCH_DIR = Path(__file__).resolve().parent
DATA_DIR = BENCH_DIR / "data"
NOMINAL_TRAJECTORY = DATA_DIR / "nominal_trajectory.txt"
REFERENCE_DIGESTS = DATA_DIR / "reference_digests.json"
DIGESTED_OUTPUTS = ("trajectory.txt", "run_record.txt", "firing_sequence.txt")

# bound used by test_nominal_tracked_run for the tracked nominal plan
AUDIT_FLOOR = -0.005
PLAN_FEAS_TOL = 1e-8
PLAN_KKT_TOL = 1e-6

# 0.07 rad/s is the warm-start tail: its N = 1234 candidate starts from the
# resampled N = 337 plan and needs 711 Newton steps.  0.06 would show the
# same stall more strongly but takes about 50 s, longer than a whole run.
SWEEP_OMEGAS = (0.07, 0.57, 1.07)
SWEEP_F_THR = 0.12
MC_SEEDS_PER_BLOCK = 16
MC_MISMATCH = 0.05
MC_DISTURBANCE = 1e-4


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class OpResult:
    attempted: int = 1
    failed: int = 0
    busy_s: float | None = None     # wall time of the operation; None if it raised
    phases: dict = field(default_factory=dict)     # timings inside busy_s [s]
    checks: list = field(default_factory=list)
    info: dict = field(default_factory=dict)       # outputs, to compare between runs


def _fail(op: OpResult, name: str, ex: BaseException) -> OpResult:
    """Record an exception as a failed operation; the traceback goes to stderr."""
    traceback.print_exc(file=sys.stderr)
    op.failed = op.attempted
    op.busy_s = None
    op.checks.append(Check(name, False, f"{type(ex).__name__}: {ex}"))
    return op


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _file_meta(path: Path) -> dict:
    """`# meta:` entries of a record header, read without the records layer."""
    meta = {}
    with open(path) as f:
        for line in f:
            if not line.startswith("#"):
                break
            if line.startswith("# meta: "):
                k, _, v = line[len("# meta: "):].partition(" = ")
                meta[k.strip()] = v.strip()
    return meta


def _quiet(fn, *args, **kwargs):
    """Call a subcommand with its console report captured (it goes to stdout)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        result = fn(*args, **kwargs)
    return result, buf.getvalue()


class Workload:
    name = ""
    min_ops = 2       # operations per measured run, at least
    unit_ops = 1      # operations in the fixed traced unit

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def run_op(self, i: int, work: Path) -> OpResult:
        """The timed (and, in a traced run, traced) part of operation i."""
        raise NotImplementedError

    def check_op(self, op: OpResult, i: int, work: Path) -> None:
        """Output checks for operation i, outside the timed region."""
        raise NotImplementedError

    def details(self, done: list[OpResult]) -> dict:
        """Workload-specific figures printed beside the metrics (not gated)."""
        return {}


class Nominal(Workload):
    """plan -> track -> audit on the default config: the paper's headline scenario."""

    name = "nominal"

    def setup(self, work: Path) -> None:
        harness.load_config(None)  # what every subcommand does first
        self.reference = json.loads(REFERENCE_DIGESTS.read_text())

    def run_op(self, i: int, work: Path) -> OpResult:
        out = work / f"nominal_{i}"
        op = OpResult()
        try:
            t0 = time.perf_counter()
            traj, _ = _quiet(harness.cmd_plan, None, out)
            t1 = time.perf_counter()
            # the default config has no mismatch or disturbance, so the seed
            # override leaves the tracked run unchanged
            _quiet(harness.cmd_track, traj, None, out, self.seed)
            rc, report = _quiet(harness.cmd_audit, out / "run_record.txt", None,
                                fail_below=AUDIT_FLOOR)
            t2 = time.perf_counter()
        except Exception as ex:  # any exception fails this operation, not the run
            return _fail(op, "nominal.pipeline", ex)
        op.busy_s = t2 - t0
        op.phases = {"plan_s": t1 - t0, "track_s": t2 - t1}
        op.info = {"audit_rc": rc, "audit_report": report.strip()}
        return op

    def check_op(self, op: OpResult, i: int, work: Path) -> None:
        out = work / f"nominal_{i}"
        if op.busy_s is not None:
            meta = _file_meta(out / "trajectory.txt")
            viol = float(meta.get("constraint_violation", "inf"))
            kkt = float(meta.get("kkt_residual", "inf"))
            op.checks.append(Check(
                "nominal.plan_converged",
                meta.get("converged") == "1" and viol <= PLAN_FEAS_TOL and kkt <= PLAN_KKT_TOL,
                f"violation {viol:.3g} (<= {PLAN_FEAS_TOL:g}), kkt {kkt:.3g} (<= {PLAN_KKT_TOL:g})"))
            op.checks.append(Check("nominal.audit_min_kos", op.info["audit_rc"] == 0,
                                   f"{op.info['audit_report']} (floor {AUDIT_FLOOR:g} m)"))
            digests = {name: _sha256(out / name) for name in DIGESTED_OUTPUTS}
            op.info["digests"] = digests
            op.info["solver"] = next((ln.split(":", 1)[1].strip() for ln in
                                      (out / "plan_summary.txt").read_text().splitlines()
                                      if ln.strip().startswith("solver")), None)
            op.info["outputs_identical"] = digests == self.reference
            if not all(c.ok for c in op.checks):
                op.failed = 1
        shutil.rmtree(out, ignore_errors=True)

    def details(self, done):
        return {
            "plan_s": median(o.phases["plan_s"] for o in done),
            "track_s": median(o.phases["track_s"] for o in done),
            "plan_best_s": min(o.phases["plan_s"] for o in done),
            "track_best_s": min(o.phases["track_s"] for o in done),
            "outputs_identical": all(o.info.get("outputs_identical") for o in done),
            "digests": done[0].info.get("digests"),
        }


class Sweep(Workload):
    """cmd_sweep1 over a 3-point spin grid: duration search and warm-started solves."""

    name = "sweep"

    def __init__(self, seed: int, omegas=SWEEP_OMEGAS):
        super().__init__(seed)
        self.omegas = tuple(omegas)

    def setup(self, work: Path) -> None:
        # grid_values(start, step, stop) reproduces the listed points exactly
        # when they are evenly spaced; a single point uses a zero-width range
        om = self.omegas
        step = (om[1] - om[0]) if len(om) > 1 else 1.0
        lines = [
            f"sweep1.omega_start = {om[0]!r}",
            f"sweep1.omega_step = {step!r}",
            f"sweep1.omega_stop = {om[-1]!r}",
            f"sweep1.f_start = {SWEEP_F_THR!r}",
            f"sweep1.f_step = {SWEEP_F_THR!r}",
            f"sweep1.f_stop = {SWEEP_F_THR!r}",
            "sweep1.max_candidates = 2",
            "sweep1.min_duration = auto",
            "sweep1.goal_corotate = true",
        ]
        self.config = work / "sweep.cfg"
        self.config.write_text("\n".join(lines) + "\n")
        cfg = harness.load_config(str(self.config))
        grid = harness.grid_values(cfg["sweep1.omega_start"], cfg["sweep1.omega_step"],
                                   cfg["sweep1.omega_stop"])
        if len(grid) != len(om) or not np.allclose(grid, om, rtol=0, atol=1e-12):
            raise ValueError(f"sweep grid {grid} does not reproduce {om}")

    def run_op(self, i: int, work: Path) -> OpResult:
        op = OpResult(attempted=len(self.omegas))
        try:
            t0 = time.perf_counter()
            _quiet(harness.cmd_sweep1, str(self.config), work / f"sweep_{i}", 1)
            t1 = time.perf_counter()
        except Exception as ex:  # any exception fails the whole pass
            return _fail(op, "sweep.pass", ex)
        op.busy_s = t1 - t0
        return op

    def check_op(self, op: OpResult, i: int, work: Path) -> None:
        out = work / f"sweep_{i}"
        if op.busy_s is not None:
            try:
                pts = records.read_table(out / "sweep1_points.txt", "sweep1-points")
                summ = records.read_table(out / "sweep1_summary.txt", "sweep1-summary")
            except Exception as ex:  # unreadable tables fail the pass
                _fail(op, "sweep.tables", ex)
            else:
                self._check_tables(op, pts, summ)
        shutil.rmtree(out, ignore_errors=True)

    def _check_tables(self, op: OpResult, pts: dict, summ: dict) -> None:
        pc = pts["columns"]
        rows = pts["rows"]
        converged = [r[pc.index("converged")] == "1" for r in rows]
        # per-point latency as the program measures it around plan()
        op.phases["point_s"] = [float(r[pc.index("wall_time")]) for r in rows]
        bad_rows = _summary_mismatches(pts, summ)
        failed = {j for j, r in enumerate(rows)
                  if not converged[j] or r[pc.index("i_omega")] in bad_rows}
        op.failed = len(failed) + max(0, op.attempted - len(rows))
        # outputs without the timing column, to compare passes and traced runs
        keep = [k for k, c in enumerate(pc) if c != "wall_time"]
        blob = json.dumps([[r[k] for k in keep] for r in rows] + summ["rows"])
        op.info["tables_digest"] = hashlib.sha256(blob.encode()).hexdigest()
        op.checks.append(Check("sweep.points_converged",
                               len(rows) == op.attempted and all(converged),
                               f"{sum(converged)}/{op.attempted} converged"))
        op.checks.append(Check("sweep.summary_recomputes", not bad_rows,
                               f"mismatching summary rows: {sorted(bad_rows) or 'none'}"))

    def details(self, done):
        points = [t for o in done for t in o.phases["point_s"]]
        best = min(done, key=lambda o: o.busy_s)
        return {
            "omegas": list(self.omegas),
            "point_s": [o.phases["point_s"] for o in done],
            "sweep_points_per_s": len(points) / sum(o.busy_s for o in done),
            "sweep_point_p50_s": median(points),
            "sweep_worst_point_s": max(points),
            "best_pass_worst_point_s": max(best.phases["point_s"]),
        }


def _close(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def _summary_mismatches(pts: dict, summ: dict) -> set[str]:
    """i_omega keys whose summary row does not follow from the points table."""
    pc, sc = pts["columns"], summ["columns"]
    bad = set()
    for srow in summ["rows"]:
        i = srow[sc.index("i_omega")]
        sub = [r for r in pts["rows"] if r[pc.index("i_omega")] == i]
        ok = [r for r in sub if r[pc.index("converged")] == "1"]

        def col(rows, name):
            return np.array([float(r[pc.index(name)]) for r in rows])

        same = (int(srow[sc.index("n_converged")]) == len(ok)
                and int(srow[sc.index("n_failed")]) == len(sub) - len(ok))
        if ok and same:
            errs = col(ok, "pos_err")
            terms = np.column_stack([col(ok, "goal"), col(ok, "kinetic"), col(ok, "effort")])
            means = terms.mean(axis=0)
            expect = [errs.mean(), errs.std(), *means]
            names = ["pos_err_mean", "pos_err_std", "goal_mean", "kinetic_mean", "effort_mean"]
            same = all(_close(float(srow[sc.index(n)]), float(v)) for n, v in zip(names, expect))
            dominant = ("goal", "kinetic", "effort")[int(np.argmax(means))]
            same = same and srow[sc.index("dominant_term")] == dominant
        if not same:
            bad.add(i)
    return bad


class MonteCarlo(Workload):
    """sim.run + audit_safety over a seed block with model mismatch and disturbances."""

    name = "montecarlo"

    def __init__(self, seed: int, n_seeds: int = MC_SEEDS_PER_BLOCK):
        super().__init__(seed)
        self.min_ops = self.unit_ops = n_seeds
        # --seed 0 is the block 0..15; each bench seed draws a fresh block
        self.sim_seeds = [seed * n_seeds + k for k in range(n_seeds)]

    def setup(self, work: Path) -> None:
        self.config = work / "montecarlo.cfg"
        self.config.write_text(f"sim.mismatch_fraction = {MC_MISMATCH!r}\n"
                               f"sim.disturbance_accel = {MC_DISTURBANCE!r}\n")
        self.cfg = harness.load_config(str(self.config))
        self.plan, _ = records.read_trajectory(NOMINAL_TRAJECTORY)
        self.target = self.cfg.target()
        self.kos_cfg = self.cfg.kos_config()

    def run_op(self, i: int, work: Path) -> OpResult:
        seed = self.sim_seeds[i % len(self.sim_seeds)]
        op = OpResult()
        try:
            t0 = time.perf_counter()
            res = sim.run(self.plan, self.cfg.sim_config(seed=seed), self.target)
            audit = sim.audit_safety(res.states, res.times, self.target, self.kos_cfg)
            t1 = time.perf_counter()
        except Exception as ex:  # any exception fails this run, not the batch
            return _fail(op, "montecarlo.run", ex)
        op.busy_s = t1 - t0
        op.info = {"sim_seed": seed, "audit": audit, "min_kos_distance": res.min_kos_distance,
                   "terminal_position_error": res.terminal_position_error}
        return op

    def check_op(self, op: OpResult, i: int, work: Path) -> None:
        if op.busy_s is None:
            return
        run_g, audit = op.info["min_kos_distance"], op.info["audit"]
        ok = math.isfinite(audit) and audit == run_g
        op.checks.append(Check("montecarlo.min_kos_matches_audit", ok,
                               f"seed {op.info['sim_seed']}: run {run_g!r}, audit {audit!r}"))
        op.failed = 0 if ok else 1

    def details(self, done):
        g = sorted(o.info["min_kos_distance"] for o in done)
        return {
            "mc_runs_per_s": len(done) / sum(o.busy_s for o in done),
            "sim_seeds": self.sim_seeds,
            "min_kos_distance_min": g[0],
            "min_kos_distance_p50": median(g),
        }


WORKLOADS = {w.name: w for w in (Nominal, Sweep, MonteCarlo)}
