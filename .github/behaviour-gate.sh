#!/bin/sh
# Plan, track and audit the nominal config, and run sweep1 on the benchmark's
# sweep points (omega 0.07, 0.57, 1.07 at f_thr 0.12, 2 candidates), with the
# src/ of a base commit and with the working tree's src/.  Then write both
# sets of record digests, the digest of the sweep1 points table without its
# wall_time column, the plan and audit figures behind them and the src/
# Python line counts as markdown tables to $GITHUB_STEP_SUMMARY (stdout when
# unset), marking what differs.  Report
# only: it exits 0 even when the outputs differ, since a change may alter
# them on purpose; the figures show what an intended change did.
#
#     sh .github/behaviour-gate.sh <base commit>
set -u
base=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
summary=${GITHUB_STEP_SUMMARY:-/dev/stdout}
digest() { [ -f "$1" ] && sha256sum "$1" | cut -d' ' -f1; }
# the value after the colon of the first line of file $1 that starts with $2
field() { [ -f "$1" ] && grep -m1 "^ *$2" "$1" | sed 's/^[^:]*: *//'; }
# sha256 of the columns and rows of the table in file $1, its wall_time
# column left out
table_digest() {
    [ -f "$1" ] && awk '
        /^# columns: / { sub(/^# columns: /, ""); for (i = 1; i <= NF; i++) if ($i == "wall_time") w = i }
        /^#/ { next }
        { s = ""; for (i = 1; i <= NF; i++) if (i != w) s = s (s == "" ? "" : " ") $i; print s }
    ' "$1" | sha256sum | cut -d' ' -f1
}
# lines of the Python files under directory $1
lines() { find "$1" -name '*.py' -exec cat {} + | wc -l; }
row() {
    mark=same
    [ -n "$2" ] && [ "$2" = "$3" ] || mark="**differs**"
    echo "| $1 | ${2:-missing} | ${3:-missing} | $mark |"
}

mkdir -p "$work/base"
git archive "$base" src | tar -x -C "$work/base" || exit 0
printf '%s\n' 'sweep1.omega_start = 0.07' 'sweep1.omega_step = 0.49999999999999994' \
    'sweep1.omega_stop = 1.07' 'sweep1.f_start = 0.12' 'sweep1.f_step = 0.12' \
    'sweep1.f_stop = 0.12' 'sweep1.max_candidates = 2' 'sweep1.min_duration = auto' \
    'sweep1.goal_corotate = true' > "$work/sweep.cfg"
for side in base head; do
    src=$([ "$side" = base ] && echo "$work/base/src" || echo "$PWD/src")
    out="$work/$side/out"
    PYTHONPATH=$src python -m proxdock plan --out "$out" > /dev/null &&
        PYTHONPATH=$src python -m proxdock track "$out/trajectory.txt" --out "$out" > /dev/null &&
        PYTHONPATH=$src python -m proxdock audit "$out/run_record.txt" > "$out/audit.txt" ||
        echo "$side: plan, track or audit failed" >&2
    PYTHONPATH=$src python -m proxdock sweep1 --config "$work/sweep.cfg" --out "$out/sweep" \
        > /dev/null || echo "$side: sweep1 failed" >&2
done

{
    echo "### Nominal records and bench sweep1 table: base $(git rev-parse --short "$base") vs head"
    echo
    echo "| file | base sha256 | head sha256 | |"
    echo "|---|---|---|---|"
    for f in trajectory.txt run_record.txt firing_sequence.txt; do
        row "$f" "$(digest "$work/base/out/$f")" "$(digest "$work/head/out/$f")"
    done
    row "sweep1_points.txt without wall_time" \
        "$(table_digest "$work/base/out/sweep/sweep1_points.txt")" \
        "$(table_digest "$work/head/out/sweep/sweep1_points.txt")"
    echo
    echo "| figure | base | head | |"
    echo "|---|---|---|---|"
    for key in "chosen duration" "objective" "solver"; do
        row "plan: $key" "$(field "$work/base/out/plan_summary.txt" "$key")" \
            "$(field "$work/head/out/plan_summary.txt" "$key")"
    done
    row "audit: min KOS signed distance" "$(field "$work/base/out/audit.txt" "min KOS")" \
        "$(field "$work/head/out/audit.txt" "min KOS")"
    row "src/ Python lines" "$(lines "$work/base/src")" "$(lines src)"
} >> "$summary"
exit 0
