#!/usr/bin/env python3
"""Compare benchmark result files and flag differing environments.

    python3 bench/compare.py BASE.json NEW.json

The files are the `.bench_out/result_<workload>_seed<n>_trace<t>.json`
records that run.py writes.  Each metric is listed with its relative change.
A comparison between results whose environment records differ (interpreter,
numpy/scipy, BLAS library or thread count, CPU count) is flagged: BLAS
threads alone can change the solver's iterate path and with it every timing.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

# these differ between the two commits of any comparison by design
EXPECTED_TO_DIFFER = {"git_commit", "src_lines"}


def env_differences(a: dict, b: dict) -> list[str]:
    keys = sorted((set(a) | set(b)) - EXPECTED_TO_DIFFER)
    return [f"{k}: {a.get(k)!r} != {b.get(k)!r}" for k in keys if a.get(k) != b.get(k)]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    if (base.get("workload"), base.get("trace")) != (new.get("workload"), new.get("trace")):
        print(f"warning: comparing workload {base.get('workload')} trace {base.get('trace')} "
              f"with workload {new.get('workload')} trace {new.get('trace')}")
    diffs = env_differences(base.get("env", {}), new.get("env", {}))
    for d in diffs:
        print(f"WARNING environment differs: {d}")
    for name in base["metrics"]:
        b = base["metrics"][name]["value"]
        n = new["metrics"].get(name, {}).get("value")
        change = "" if n is None or not b else f"{(n - b) / abs(b):+.1%}"
        print(f"{name:40s} {b!r:>24} {n!r:>24} {change:>8} {base['metrics'][name]['unit']}")
    print(f"correct: {base['correct']} -> {new['correct']}; "
          f"failed/attempted: {base['failed']}/{base['attempted']} -> "
          f"{new['failed']}/{new['attempted']}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
