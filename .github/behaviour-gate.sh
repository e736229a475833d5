#!/bin/sh
# Plan and track the nominal config with the src/ of a base commit and with
# the working tree's src/, then write both sets of record digests as a
# markdown table to $GITHUB_STEP_SUMMARY (stdout when unset), marking the
# files that differ.  Report only: it exits 0 even when the outputs differ,
# since a change may alter them on purpose.
#
#     sh .github/behaviour-gate.sh <base commit>
set -u
base=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
summary=${GITHUB_STEP_SUMMARY:-/dev/stdout}
digest() { [ -f "$1" ] && sha256sum "$1" | cut -d' ' -f1; }

mkdir -p "$work/base"
git archive "$base" src | tar -x -C "$work/base" || exit 0
for side in base head; do
    src=$([ "$side" = base ] && echo "$work/base/src" || echo "$PWD/src")
    out="$work/$side/out"
    PYTHONPATH=$src python -m proxdock plan --out "$out" > /dev/null &&
        PYTHONPATH=$src python -m proxdock track "$out/trajectory.txt" --out "$out" > /dev/null ||
        echo "$side: plan or track failed" >&2
done

{
    echo "### Nominal records: base $(git rev-parse --short "$base") vs head"
    echo
    echo "| file | base sha256 | head sha256 | |"
    echo "|---|---|---|---|"
    for f in trajectory.txt run_record.txt firing_sequence.txt; do
        a=$(digest "$work/base/out/$f")
        b=$(digest "$work/head/out/$f")
        mark=same
        [ -n "$a" ] && [ "$a" = "$b" ] || mark="**differs**"
        echo "| $f | ${a:-missing} | ${b:-missing} | $mark |"
    done
} >> "$summary"
exit 0
