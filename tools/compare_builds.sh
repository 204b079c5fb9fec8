#!/usr/bin/env bash
# Byte-compare two picosim builds on a fixed set of runs.
#
# Usage: tools/compare_builds.sh OLD_BIN_DIR NEW_BIN_DIR
#
# Runs each configuration below with OLD_BIN_DIR/picosim_run and
# NEW_BIN_DIR/picosim_run (always with --stats, so the full stat dump is
# compared) and cmp's stdout, stderr and, for --trace runs, the Chrome
# trace file. Prints one line per configuration and exits non-zero when
# any of them differs. Use it to show that a refactor left simulated
# timing bit-identical.
set -u

if [ $# -ne 2 ]; then
    echo "usage: $0 OLD_BIN_DIR NEW_BIN_DIR" >&2
    exit 2
fi
old_run="$1/picosim_run"
new_run="$2/picosim_run"
for bin in "$old_run" "$new_run"; do
    if [ ! -x "$bin" ]; then
        echo "error: $bin is not an executable" >&2
        exit 2
    fi
done

configs=()
# Nested workloads at their registry defaults, every parallel runtime.
for wl in task-tree cholesky-nested mergesort-nested; do
    for rt in phentos nanos-sw nanos-rv nanos-axi; do
        configs+=("--workload=$wl --runtime=$rt")
    done
done
# Task-window saturation: the inline fallback fires on every HW runtime.
for rt in phentos nanos-rv nanos-axi; do
    configs+=("--workload=task-tree --wl.fanout=4 --wl.depth=4 --wl.payload=200 --runtime=$rt")
done
configs+=(
    "--workload=task-chain --runtime=phentos --cores=16 --sched-shards=4 --clusters=4"
    "--workload=sparselu --wl.nb=12 --wl.bs=24 --cores=32 --sched-shards=4 --clusters=4"
    "--workload=task-chain --wl.tasks=64 --mem=timed --runtime=nanos-sw"
    "--workload=task-tree --runtime=phentos --trace=trace.json"
    "--workload=task-tree --runtime=nanos-rv --trace=trace.json"
)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

failures=0
for cfg in "${configs[@]}"; do
    for side in old new; do
        mkdir -p "$work/$side"
        bin="$old_run"
        [ "$side" = new ] && bin="$new_run"
        # Each side runs in its own directory so --trace files (and the
        # path printed on stdout) are named identically.
        # shellcheck disable=SC2086
        (cd "$work/$side" && rm -f trace.json &&
            "$bin" $cfg --stats > stdout 2> stderr; echo $? > status)
    done
    diff=""
    for f in status stdout stderr trace.json; do
        [ -e "$work/old/$f" ] || [ -e "$work/new/$f" ] || continue
        cmp -s "$work/old/$f" "$work/new/$f" || diff="$diff $f"
    done
    if [ -n "$diff" ]; then
        echo "DIFF $cfg ($diff )"
        failures=$((failures + 1))
    else
        cycles=$(grep -m1 -o 'cycles *: *[0-9]*' "$work/new/stdout" |
                 grep -o '[0-9]*$')
        echo "same $cfg (cycles ${cycles:-?}, exit $(cat "$work/new/status"))"
    fi
done

echo "${#configs[@]} configurations, $failures differ"
[ "$failures" -eq 0 ]
