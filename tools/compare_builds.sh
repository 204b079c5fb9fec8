#!/usr/bin/env bash
# Byte-compare two picosim builds on a fixed set of runs.
#
# Usage: tools/compare_builds.sh [--kernel-may-fall] OLD_BIN_DIR NEW_BIN_DIR
#
# Runs each configuration below with OLD_BIN_DIR/picosim_run and
# NEW_BIN_DIR/picosim_run (always with --stats, so the full stat dump is
# compared) and cmp's stdout, stderr and, for --trace runs, the Chrome
# trace file. Prints one line per configuration and exits non-zero when
# any of them differs. Use it to show that a refactor left simulated
# timing bit-identical.
#
# --kernel-may-fall: for a change to the kernel's work, not to the
# model. The "kernel :" line (component ticks and evaluated cycles) is
# left out of the stdout comparison, and the configuration differs
# instead when the new build performs more component ticks.
set -u

kernel_may_fall=0
if [ "${1:-}" = --kernel-may-fall ]; then
    kernel_may_fall=1
    shift
fi
if [ $# -ne 2 ]; then
    echo "usage: $0 [--kernel-may-fall] OLD_BIN_DIR NEW_BIN_DIR" >&2
    exit 2
fi
# Absolute paths: every run below starts in its own scratch directory.
old_run="$(cd "$1" 2>/dev/null && pwd)/picosim_run"
new_run="$(cd "$2" 2>/dev/null && pwd)/picosim_run"
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
    # The perfbench sparselu-32c-timed shape, and a nested program on
    # the sharded fabric.
    "--workload=sparselu --wl.nb=40 --wl.bs=6 --wl.seed=8 --cores=32 --sched-shards=4 --clusters=4 --mem=timed"
    "--workload=cholesky-nested --cores=16 --sched-shards=4 --clusters=4"
    "--workload=task-chain --wl.tasks=64 --mem=timed --runtime=nanos-sw"
    # Contended timed memory: one MSHR and a narrow bus on the sharded
    # fabric, one MSHR and slow main memory under Nanos-AXI, and a
    # nested program under TickWorld.
    "--workload=sparselu --wl.nb=12 --wl.bs=24 --cores=16 --sched-shards=4 --clusters=4 --mem=timed --mshrs=1 --bus-bytes=8 --runtime=phentos"
    "--workload=blackscholes --wl.options=4096 --wl.block=8 --mem=timed --mshrs=1 --mem-occupancy=40 --runtime=nanos-axi"
    "--workload=task-tree --mem=timed --runtime=nanos-rv --mode=tickworld"
    "--workload=task-tree --runtime=phentos --trace=trace.json"
    "--workload=task-tree --runtime=nanos-rv --trace=trace.json"
    # Scheduler stalls: dependence-table and TRS stalls in Figure 9
    # inputs, one cut by a cycle limit mid-stall, one under TickWorld.
    "--workload=blackscholes --wl.options=4096 --wl.block=8 --runtime=phentos"
    "--workload=blackscholes --wl.options=4096 --wl.block=8 --runtime=nanos-rv --cycle-limit=200000"
    "--workload=sparselu --wl.nb=12 --wl.bs=48 --runtime=phentos"
    "--workload=sparselu --wl.nb=12 --wl.bs=24 --runtime=phentos --mode=tickworld"
    # The single Picos's gateway FSM, its fabric-free retire link, and
    # its ready buffering, which must not leak into an N x 1 topology.
    "--workload=task-free --wl.deps=15 --cores=1 --runtime=phentos"
    "--workload=task-chain --wl.tasks=2000 --wl.payload=0 --cores=16 --runtime=nanos-rv"
    "--workload=stream-barr --wl.blocks=16 --wl.elems=16 --runtime=nanos-rv"
    "--workload=task-chain --runtime=nanos-axi"
    "--workload=jacobi --wl.n=256 --sched-shards=4 --clusters=1 --runtime=phentos"
    # Sharded fabric under both fault kinds.
    "--workload=task-free --wl.tasks=2000 --wl.payload=500 --cores=16 --sched-shards=4 --clusters=4 --fault.kind=kill-shard --fault.cycle=20000 --fault.until=120000 --fault.target=0"
    "--workload=task-chain --cores=16 --sched-shards=4 --clusters=4 --fault.kind=stall-link --fault.cycle=20000 --fault.until=90000 --fault.target=0"
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
    ticks=""
    if [ "$kernel_may_fall" -eq 1 ]; then
        for side in old new; do
            grep -m1 '^kernel ' "$work/$side/stdout" |
                grep -o '^kernel *: *[0-9]*' | grep -o '[0-9]*$' \
                > "$work/$side/ticks"
            grep -v '^kernel ' "$work/$side/stdout" > "$work/$side/model"
            mv "$work/$side/model" "$work/$side/stdout"
        done
        old_ticks=$(cat "$work/old/ticks")
        new_ticks=$(cat "$work/new/ticks")
        ticks=", ticks ${old_ticks:-?} -> ${new_ticks:-?}"
        if [ -n "$old_ticks" ] && [ -n "$new_ticks" ] &&
            [ "$new_ticks" -gt "$old_ticks" ]; then
            diff="$diff kernel-ticks-rose"
        fi
    fi
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
        echo "same $cfg (cycles ${cycles:-?}, exit $(cat "$work/new/status")$ticks)"
    fi
done

echo "${#configs[@]} configurations, $failures differ"
[ "$failures" -eq 0 ]
