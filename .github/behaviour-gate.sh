#!/bin/sh
# Plan, track and audit the nominal config with the src/ of a base commit and
# with the working tree's src/, then write both sets of record digests, the
# plan and audit figures behind them and the src/ Python line counts as
# markdown tables to $GITHUB_STEP_SUMMARY (stdout when unset), marking what
# differs.  Report
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
# lines of the Python files under directory $1
lines() { find "$1" -name '*.py' -exec cat {} + | wc -l; }
row() {
    mark=same
    [ -n "$2" ] && [ "$2" = "$3" ] || mark="**differs**"
    echo "| $1 | ${2:-missing} | ${3:-missing} | $mark |"
}

mkdir -p "$work/base"
git archive "$base" src | tar -x -C "$work/base" || exit 0
for side in base head; do
    src=$([ "$side" = base ] && echo "$work/base/src" || echo "$PWD/src")
    out="$work/$side/out"
    PYTHONPATH=$src python -m proxdock plan --out "$out" > /dev/null &&
        PYTHONPATH=$src python -m proxdock track "$out/trajectory.txt" --out "$out" > /dev/null &&
        PYTHONPATH=$src python -m proxdock audit "$out/run_record.txt" > "$out/audit.txt" ||
        echo "$side: plan, track or audit failed" >&2
done

{
    echo "### Nominal records: base $(git rev-parse --short "$base") vs head"
    echo
    echo "| file | base sha256 | head sha256 | |"
    echo "|---|---|---|---|"
    for f in trajectory.txt run_record.txt firing_sequence.txt; do
        row "$f" "$(digest "$work/base/out/$f")" "$(digest "$work/head/out/$f")"
    done
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
