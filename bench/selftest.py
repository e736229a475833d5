"""Self-tests of the benchmark itself (not part of the program's test suite).

    python3 -m pytest -q bench/selftest.py

Each workload driver runs on its smallest input (one sweep point, one
Monte Carlo seed; the nominal scenario has no smaller form) through the same
code path as a benchmark run, and the printed result is checked against
BENCHMARK.json.  Takes about a minute on two cores.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

if not run.import_program():
    pytest.skip("proxdock is not importable", allow_module_level=True)

import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SMALLEST_SWEEP = (0.82,)
COUNTS = ("optimizer.solve_calls", "optimizer.solve_failed", "optimizer.resampled_solves",
          "optimizer.resampled_newton", "optimizer.ineq_full_calls",
          "optimizer.ineq_values_calls", "nlp.outer_iterations", "nlp.newton_iterations",
          "nlp.cholesky_calls", "nlp.cholesky_failed", "kos.smooth_lobe_calls",
          "kos.classify_calls", "controller.continuous_duty_calls", "controller.bvls_share",
          "dynamics.euler_step_calls", "dynamics.effectiveness_matrix_calls")


def smallest(name: str) -> workloads.Workload:
    if name == "sweep":
        return workloads.Sweep(0, omegas=SMALLEST_SWEEP)
    if name == "montecarlo":
        return workloads.MonteCarlo(0, n_seeds=1)
    return workloads.Nominal(0)


def execute(name: str, trace: int) -> tuple[dict, str]:
    args = argparse.Namespace(workload=name, seed=0, seconds=0.01, trace=trace)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.execute(args, smallest(name)) == 0
    out = buf.getvalue()
    return json.loads(out.strip().splitlines()[-1]), out


def test_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    # montecarlo stays runnable by hand but is not a gated workload
    assert sorted(w["name"] for w in SPEC["workloads"]) == ["nominal", "sweep"]
    assert set(workloads.WORKLOADS) == {"nominal", "sweep", "montecarlo"}


@pytest.mark.parametrize("name", ["nominal", "sweep", "montecarlo"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric(name, trace):
    result, _ = execute(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for k, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), k
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tracing_leaves_nominal_outputs_identical():
    # digests and the plan summary's outer/Newton counts of the traced
    # operation equal those of the untraced one run just before it
    _, out = execute("nominal", 1)
    assert "detail outputs_match_untraced: true" in out.splitlines()


@pytest.mark.parametrize("name", ["sweep", "montecarlo"])
def test_traced_counts_repeat_exactly(name):
    first, out1 = execute(name, 1)
    second, out2 = execute(name, 1)
    for out in (out1, out2):
        assert "detail outputs_match_untraced: true" in out.splitlines()
    for k in COUNTS:
        assert first["metrics"][k]["value"] == second["metrics"][k]["value"], k
