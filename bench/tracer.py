"""Span tracer that wraps the program's layer entry points from outside.

Each wrapper replaces a name where the calling module looks it up at call
time (for example `proxdock.sim.euler_step`, which `sim.run` calls, or the
`_Transcription.ineq_values` method that `nlp` calls), so `src/` is not
touched.  A span is (name, start, end, parent span, operation id, error);
spans live in compact in-memory columns and are written out once at the end.
Wrappers pass straight through while no benchmark operation is open.
"""
from __future__ import annotations

import functools
import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _targets():
    """(owner, attribute, span name); owner is the module or class that is looked up."""
    from proxdock import controller, dynamics, harness, kos, nlp, optimizer, records, sim
    return [
        (harness, "load_config", "harness.load_config"),
        (harness, "cmd_plan", "harness.cmd_plan"),
        (harness, "cmd_track", "harness.cmd_track"),
        (harness, "cmd_audit", "harness.cmd_audit"),
        (harness, "cmd_sweep1", "harness.cmd_sweep1"),
        (harness, "run", "sim.run"),
        (harness, "audit_safety", "sim.audit_safety"),
        (sim, "run", "sim.run"),
        (sim, "audit_safety", "sim.audit_safety"),
        (records, "read_trajectory", "records.read_trajectory"),
        (records, "read_run_record", "records.read_run_record"),
        (records, "read_table", "records.read_table"),
        (records, "write_trajectory", "records.write_trajectory"),
        (records, "write_run_record", "records.write_run_record"),
        (records, "write_firing_sequence", "records.write_firing_sequence"),
        (records, "write_table", "records.write_table"),
        (optimizer, "solve", "optimizer.solve"),
        (optimizer, "solve_al", "nlp.solve_al"),
        (optimizer._Transcription, "ineq_full", "optimizer.ineq_full"),
        (optimizer._Transcription, "ineq_values", "optimizer.ineq_values"),
        (nlp, "cholesky_banded", "nlp.cholesky_banded"),
        (nlp, "cho_solve_banded", "nlp.cho_solve_banded"),
        (kos, "smooth_lobe", "kos.smooth_lobe"),
        (kos, "classify", "kos.classify"),
        (kos, "signed_distance_batch", "kos.signed_distance_batch"),
        (sim, "continuous_duty", "controller.continuous_duty"),
        (controller, "allocate_duty", "controller.allocate_duty"),
        (controller, "lsq_linear", "controller.lsq_linear"),
        (sim, "euler_step", "dynamics.euler_step"),
        (dynamics.ThrusterLayout, "effectiveness_matrix", "dynamics.effectiveness_matrix"),
    ]


def _col(a: array, dtype) -> np.ndarray:
    """Copy of a span column; a live view would block further appends."""
    return np.frombuffer(a, dtype=dtype).copy()


def _start_kind(problem, guess) -> tuple[str, int | None]:
    if guess is None:
        return "cold", None
    if guess.N == problem.N:
        return "warm_same_n", guess.N
    return "resampled", guess.N


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.error = array("i")
        self._stack: list[int] = []
        self._op = -1
        self.solve_records: list[dict] = []
        self.audit_samples = 0
        self._patches: list[tuple] = []

    # ---- span bookkeeping -------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.error.append(-1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int, exc: BaseException | None) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if exc is not None:
            self.error[idx] = self.name_id(type(exc).__name__)

    @contextmanager
    def operation(self, op_id: int, name: str):
        """One benchmark operation: the root span of the calls made inside it."""
        self._op = op_id
        idx = self._enter(self.name_id(name))
        try:
            yield
        except BaseException as ex:
            self._exit(idx, ex)
            raise
        else:
            self._exit(idx, None)
        finally:
            self._op = -1

    # ---- wrappers ------------------------------------------------------------
    def _wrap(self, fn, span_name: str):
        nid = self.name_id(span_name)
        tracer = self
        if span_name == "optimizer.solve":
            on_exit = self._record_solve
        elif span_name == "sim.audit_safety":
            on_exit = self._count_audit_samples
        else:
            on_exit = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op < 0:
                return fn(*args, **kwargs)
            idx = tracer._enter(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as ex:
                tracer._exit(idx, ex)
                if on_exit is not None:
                    on_exit(idx, args, kwargs, None, ex)
                raise
            tracer._exit(idx, None)
            if on_exit is not None:
                on_exit(idx, args, kwargs, result, None)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, span_name in _targets():
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, et, ev, tb):
        self.uninstall()
        return False

    # ---- per-call records taken from returned values ---------------------------
    def _record_solve(self, idx, args, kwargs, result, exc):
        problem = args[0] if args else kwargs["problem"]
        guess = args[1] if len(args) > 1 else kwargs.get("initial_guess")
        kind, from_n = _start_kind(problem, guess)
        stats = result.solver_stats if exc is None else getattr(exc, "stats", None)
        self.solve_records.append({
            "workload": self.workload,
            "op": self._op,
            "N": problem.N,
            "start": kind,
            "from_N": from_n,
            "pass": 1 if problem.kos_schedule is None else 2,
            "outer": None if stats is None else stats.outer_iterations,
            "newton": None if stats is None else stats.newton_iterations,
            "seconds": self.end[idx] - self.start[idx],
            "error": None if exc is None else type(exc).__name__,
        })

    def _count_audit_samples(self, idx, args, kwargs, result, exc):
        states = args[0] if args else kwargs["states"]
        self.audit_samples += len(states)

    # ---- reduction -------------------------------------------------------------
    def span_table(self) -> dict[str, dict]:
        """Per span name: calls, errors, inclusive seconds, self seconds."""
        names = _col(self.name, np.int32)
        parent = _col(self.parent, np.int32)
        dur = _col(self.end, np.float64) - _col(self.start, np.float64)
        err = _col(self.error, np.int32)
        child = np.zeros(len(names))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        parent_name = np.where(has_parent, names[np.maximum(parent, 0)], -1)
        table = {}
        for nid, name in enumerate(self.names):
            sel = names == nid
            if not sel.any():
                continue
            table[name] = {
                "calls": int(sel.sum()),
                "errors": int((err[sel] >= 0).sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(self_t[sel].sum()),
            }
        # interface calls made by nlp, not the ones ineq_values forwards internally
        vid = self._name_ids.get("optimizer.ineq_values", -2)
        fid = self._name_ids.get("optimizer.ineq_full", -3)
        direct = (names == fid) & (parent_name != vid)
        table["optimizer.ineq_full(direct)"] = {
            "calls": int(direct.sum()), "errors": int((err[direct] >= 0).sum()),
            "total_s": float(dur[direct].sum()), "self_s": float(self_t[direct].sum()),
        }
        return table

    def layer_metrics(self) -> dict[str, float]:
        t = defaultdict(lambda: {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0},
                        self.span_table())

        def prefixed(prefix, key):
            return sum((v[key] for k, v in t.items() if k.startswith(prefix)), 0.0)

        def ratio(a, b):
            return a / b if b else 0.0

        recs = self.solve_records
        newton = sum(r["newton"] or 0 for r in recs)
        resampled = [r for r in recs if r["start"] == "resampled"]
        euler_calls = t["dynamics.euler_step"]["calls"]
        return {
            "harness.load_config_s": t["harness.load_config"]["total_s"],
            "records.read_s": prefixed("records.read_", "total_s"),
            "records.write_s": prefixed("records.write_", "total_s"),
            "optimizer.solve_calls": t["optimizer.solve"]["calls"],
            "optimizer.solve_s": t["optimizer.solve"]["total_s"],
            "optimizer.solve_failed": t["optimizer.solve"]["errors"],
            "optimizer.resampled_solves": len(resampled),
            "optimizer.resampled_newton": sum(r["newton"] or 0 for r in resampled),
            "optimizer.ineq_full_calls": t["optimizer.ineq_full(direct)"]["calls"],
            "optimizer.ineq_full_s": t["optimizer.ineq_full(direct)"]["total_s"],
            "optimizer.ineq_values_calls": t["optimizer.ineq_values"]["calls"],
            "optimizer.ineq_values_s": t["optimizer.ineq_values"]["total_s"],
            "nlp.outer_iterations": sum(r["outer"] or 0 for r in recs),
            "nlp.newton_iterations": newton,
            "nlp.s_per_newton": ratio(t["nlp.solve_al"]["total_s"], newton),
            "nlp.trials_per_newton": ratio(t["optimizer.ineq_values"]["calls"], newton),
            "nlp.cholesky_calls": t["nlp.cholesky_banded"]["calls"],
            "nlp.cholesky_failed": t["nlp.cholesky_banded"]["errors"],
            "nlp.cholesky_s": t["nlp.cholesky_banded"]["total_s"],
            "nlp.cho_solve_s": t["nlp.cho_solve_banded"]["total_s"],
            "nlp.self_s": t["nlp.solve_al"]["self_s"],
            "kos.smooth_lobe_calls": t["kos.smooth_lobe"]["calls"],
            "kos.smooth_lobe_s": t["kos.smooth_lobe"]["total_s"],
            "kos.classify_calls": t["kos.classify"]["calls"],
            "kos.classify_s": t["kos.classify"]["total_s"],
            "kos.signed_distance_batch_s": t["kos.signed_distance_batch"]["total_s"],
            "sim.run_s": t["sim.run"]["total_s"],
            "sim.s_per_physics_step": ratio(t["sim.run"]["total_s"], euler_calls),
            "sim.audit_s_per_sample": ratio(t["sim.audit_safety"]["total_s"], self.audit_samples),
            "controller.continuous_duty_calls": t["controller.continuous_duty"]["calls"],
            "controller.continuous_duty_s": t["controller.continuous_duty"]["total_s"],
            "controller.bvls_share": ratio(t["controller.lsq_linear"]["calls"],
                                           t["controller.allocate_duty"]["calls"]),
            "dynamics.euler_step_calls": euler_calls,
            "dynamics.euler_step_s": t["dynamics.euler_step"]["total_s"],
            "dynamics.effectiveness_matrix_calls": t["dynamics.effectiveness_matrix"]["calls"],
        }

    # ---- output ----------------------------------------------------------------
    def write(self, spans_path: Path, solves_path: Path) -> None:
        np.savez_compressed(
            spans_path, names=np.array(self.names),
            name=_col(self.name, np.int32), parent=_col(self.parent, np.int32),
            start=_col(self.start, np.float64), end=_col(self.end, np.float64),
            op=_col(self.op, np.int32), error=_col(self.error, np.int32))
        with open(solves_path, "w") as f:
            for rec in self.solve_records:
                f.write(json.dumps(rec) + "\n")
