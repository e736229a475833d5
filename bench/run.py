#!/usr/bin/env python3
"""proxdock benchmark: runs one workload and prints its metrics.

Run from the repository root:

    python3 bench/run.py --workload nominal --seed 0 --seconds 30 --trace 0

With --trace 0 the workload's operations repeat for --seconds seconds and the
end-to-end metrics are printed.  With --trace 1 a fixed unit of operations
runs once untraced and once with layer wrappers installed, and the per-layer
metrics are printed; spans and per-solve records are written to .bench_out/.
The last line of standard output is the JSON result.  Exit code 2, with no
result, means the program under test could not be found or imported.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "success_frac": "fraction",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "harness.load_config_s": "s",
    "records.read_s": "s",
    "records.write_s": "s",
    "optimizer.solve_calls": "count",
    "optimizer.solve_s": "s",
    "optimizer.solve_failed": "count",
    "optimizer.resampled_solves": "count",
    "optimizer.resampled_newton": "count",
    "optimizer.ineq_full_calls": "count",
    "optimizer.ineq_full_s": "s",
    "optimizer.ineq_values_calls": "count",
    "optimizer.ineq_values_s": "s",
    "nlp.outer_iterations": "count",
    "nlp.newton_iterations": "count",
    "nlp.s_per_newton": "s",
    "nlp.trials_per_newton": "ratio",
    "nlp.cholesky_calls": "count",
    "nlp.cholesky_failed": "count",
    "nlp.cholesky_s": "s",
    "nlp.cho_solve_s": "s",
    "nlp.self_s": "s",
    "kos.smooth_lobe_calls": "count",
    "kos.smooth_lobe_s": "s",
    "kos.classify_calls": "count",
    "kos.classify_s": "s",
    "kos.signed_distance_batch_s": "s",
    "sim.run_s": "s",
    "sim.s_per_physics_step": "s",
    "sim.audit_s_per_sample": "s",
    "controller.continuous_duty_calls": "count",
    "controller.continuous_duty_s": "s",
    "controller.bvls_share": "ratio",
    "dynamics.euler_step_calls": "count",
    "dynamics.euler_step_s": "s",
    "dynamics.effectiveness_matrix_calls": "count",
    "trace.overhead_s": "s",
}


def import_program() -> bool:
    """Put the checkout's src/ first on the path and import the package."""
    src = ROOT / "src"
    if not (src / "proxdock" / "__init__.py").is_file():
        print(f"error: no proxdock package under {src.name}/", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    try:
        import proxdock  # noqa: F401
    except Exception:
        traceback.print_exc()
        return False
    return True


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["nominal", "sweep", "montecarlo"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", metavar="DIR", default=None,
                    help="internal: import and set up only, into DIR, then exit")
    return ap.parse_args(argv)


def measure_setup(args, tmp: Path, count: int) -> list[float]:
    """Wall times of fresh interpreters that import the program and set up."""
    times = []
    for _ in range(count):
        probe_dir = Path(tempfile.mkdtemp(prefix="setup_", dir=tmp))
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", str(probe_dir)]
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(probe_dir)
    return times


def run_ops(workload, work: Path, *, seconds: float | None, n_ops: int | None, tracer=None):
    """Closed loop: run operations back to back.

    With seconds, stop before an operation that would end past the deadline
    (judged by the previous one), but never before workload.min_ops; with
    n_ops, run exactly that many.  Returns (ops, seconds spent in operations).
    """
    ops = []
    busy = 0.0
    t_start = time.perf_counter()
    while True:
        i = len(ops)
        ctx = tracer.operation(i + 1, f"bench.{workload.name}") if tracer else nullcontext()
        t0 = time.perf_counter()
        with ctx:
            op = workload.run_op(i, work)
        last = time.perf_counter() - t0
        busy += last
        workload.check_op(op, i, work)
        ops.append(op)
        if n_ops is not None:
            if len(ops) >= n_ops:
                break
        elif len(ops) >= workload.min_ops and \
                time.perf_counter() - t_start + last > seconds:
            break
    return ops, busy


def summarize_checks(ops) -> tuple[list, int, int]:
    """Distinct check outcomes (first failure per name wins) and op counts."""
    by_name = {}
    for op in ops:
        for c in op.checks:
            if c.name not in by_name or (by_name[c.name].ok and not c.ok):
                by_name[c.name] = c
    return list(by_name.values()), sum(o.attempted for o in ops), sum(o.failed for o in ops)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not import_program():
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe is not None:
        workload.setup(Path(args.setup_probe))
        return 0
    return execute(args, workload)


def execute(args, workload) -> int:
    """Run one measured or traced benchmark run; print the result last."""
    from envinfo import environment

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}_", dir=OUT))
    try:
        if args.trace:
            metrics, ops, detail = traced_run(args, workload, tmp)
            units = PER_LAYER_UNITS
        else:
            metrics, ops, detail = measured_run(args, workload, tmp)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    checks, attempted, failed = summarize_checks(ops)
    correct = failed == 0 and all(c.ok for c in checks)
    metrics["success_frac"] = 1.0 - failed / attempted
    env = environment(ROOT)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    for c in checks:
        print(f"check {c.name}: {'ok' if c.ok else 'FAILED'} ({c.detail})")
    for k, v in detail.items():
        print(f"detail {k}: {json.dumps(v)}")
    print("env " + json.dumps(env, sort_keys=True))
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, detail=detail,
                  checks=[{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks])
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def measured_run(args, workload, tmp: Path):
    # set-up samples before and after the operations, so that their median
    # does not hang on one slow phase of a shared machine
    first = SETUP_REPEATS // 2 + 1
    setup_times = measure_setup(args, tmp, first)
    workload.setup(tmp)
    ops, busy = run_ops(workload, tmp, seconds=args.seconds, n_ops=None)
    setup_times += measure_setup(args, tmp, SETUP_REPEATS - first)
    done = [o for o in ops if o.busy_s is not None]
    metrics = {"setup_s": median(setup_times), "peak_rss_mb": peak_rss_mb()}
    detail = {"setup_samples_s": setup_times, "ops": len(ops), "busy_s": busy,
              "op_s": [o.busy_s for o in done]}
    if done:
        metrics["op_p50_s"] = median(detail["op_s"])
        detail["op_best_s"] = min(detail["op_s"])
        detail.update(workload.details(done))
    else:
        # nothing completed: correct is false, and zeros keep the JSON valid
        metrics["op_p50_s"] = 0.0
    return metrics, ops, detail


def traced_run(args, workload, tmp: Path):
    from tracer import Tracer

    workload.setup(tmp)
    plain_ops, plain_busy = run_ops(workload, tmp, seconds=None, n_ops=workload.unit_ops)
    tracer = Tracer(args.workload)
    with tracer:
        with tracer.operation(0, "bench.setup"):
            workload.setup(tmp)
        traced_ops, traced_busy = run_ops(workload, tmp, seconds=None,
                                          n_ops=workload.unit_ops, tracer=tracer)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = traced_busy - plain_busy
    stem = f"{args.workload}_seed{args.seed}"
    tracer.write(OUT / f"spans_{stem}.npz", OUT / f"solves_{stem}.jsonl")
    table = tracer.span_table()
    for name in sorted(table, key=lambda k: -table[k]["self_s"]):
        row = table[name]
        print(f"span {name:34s} calls {row['calls']:8d}  errors {row['errors']:6d}  "
              f"total {row['total_s']:10.4f} s  self {row['self_s']:10.4f} s")
    detail = {"untraced_s": plain_busy, "traced_s": traced_busy,
              "outputs_match_untraced": [o.info for o in plain_ops] == [o.info for o in traced_ops],
              "spans": len(tracer.name), "solve_records": len(tracer.solve_records)}
    return metrics, plain_ops + traced_ops, detail


if __name__ == "__main__":
    sys.exit(main())
