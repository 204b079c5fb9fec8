#!/usr/bin/env python3
"""Perf-smoke gate: compare a fresh BENCH_kernel.json against the
checked-in baseline.

Fails (exit 1) when:
  * any row reports identical: false (the event kernel diverged from the
    tick-the-world reference, or the pooled Figure 9 sweep diverged from
    the serial one — a correctness bug, never acceptable);
  * a mode_compare row's wallSpeedup regressed more than the tolerance
    below its baseline value;
  * a batch_throughput poolSpeedup regressed more than the tolerance
    below baseline — but ONLY when both the fresh row and the baseline
    row were measured with hostConcurrency > 1. On a single-hardware-thread host a worker pool cannot beat 1x
    by construction, so those comparisons are loudly SKIPPED rather
    than reported as regressions.

Rows stamped with a "spec" field (the serialized RunSpec that produced
the measurement) are reported with a replay hint on failure: feed the
spec back through `picosim_run --spec` to reproduce the exact run.

Wall-clock seconds are machine-dependent, so the gate is on wallSpeedup —
the event-driven/tick-world ratio measured within one process on one
machine, which transfers across hosts far better than absolute times.
The tolerance is generous (CI machines are noisy neighbours), but a real
scheduler regression — an O(log n) structure creeping back, a per-event
allocation — shifts the ratio well past it.

With --expect-scaling[=FLOOR] the gate additionally enforces an
ABSOLUTE floor (default 1.05x) on every fresh poolSpeedup row: a
multi-worker pool must actually beat single-threaded execution on a
multi-core host, not merely match its own previous measurement. On a
single-hardware-thread host that row is loudly SKIPPED (a 1-CPU box cannot scale by
construction) — the CI leg that passes this flag guards itself with an
nproc check for the same reason.

Usage: check_perf.py <fresh BENCH_kernel.json> <baseline json>
                     [tolerance] [--expect-scaling[=FLOOR]]
"""

import json
import sys


def load_rows(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def main():
    args = list(sys.argv[1:])
    scaling_floor = None
    for arg in list(args):
        if arg == "--expect-scaling":
            scaling_floor = 1.05
            args.remove(arg)
        elif arg.startswith("--expect-scaling="):
            scaling_floor = float(arg.split("=", 1)[1])
            args.remove(arg)
    if len(args) < 2:
        print(__doc__)
        return 2
    fresh = load_rows(args[0])
    baseline = load_rows(args[1])
    tolerance = float(args[2]) if len(args) > 2 else 0.20

    failures = []

    def replay_hint(row):
        spec = row.get("spec")
        return f" [replay: picosim_run --spec <<< '{spec}']" if spec else ""

    stamped = sum(1 for row in fresh if row.get("spec"))
    print(f"{stamped}/{len(fresh)} fresh rows carry a replayable spec")

    for row in fresh:
        if row.get("identical") is False:
            failures.append(
                f"row '{row.get('label', row.get('bench'))}' reports "
                "identical: false — event kernel diverged from the "
                "reference" + replay_hint(row))

    base_by_label = {
        row["label"]: row
        for row in baseline
        if row.get("bench") == "mode_compare"
    }
    for row in fresh:
        if row.get("bench") != "mode_compare":
            continue
        label = row["label"]
        base = base_by_label.get(label)
        if base is None:
            print(f"note: no baseline for '{label}' (new row?) — skipped")
            continue
        got = float(row["wallSpeedup"])
        want = float(base["wallSpeedup"])
        floor = want * (1.0 - tolerance)
        status = "ok" if got >= floor else "REGRESSION"
        print(f"{label:32s} wallSpeedup {got:6.2f}x "
              f"(baseline {want:.2f}x, floor {floor:.2f}x) {status}")
        if got < floor:
            failures.append(
                f"'{label}' wallSpeedup {got:.2f}x fell more than "
                f"{tolerance:.0%} below the baseline {want:.2f}x"
                + replay_hint(row))

    def host_concurrency(row):
        # Rows written before hostConcurrency stamping count as
        # unmeasurable rather than silently comparable.
        try:
            return int(row.get("hostConcurrency", 0))
        except (TypeError, ValueError):
            return 0

    def check_pool_speedup(bench, field):
        base_rows = [r for r in baseline if r.get("bench") == bench]
        fresh_rows = [r for r in fresh if r.get("bench") == bench]
        for row in fresh_rows:
            label = row.get("label", bench)
            base = next(
                (b for b in base_rows if b.get("label") == row.get("label")),
                None)
            if base is None:
                print(f"note: no baseline for '{label}' (new row?) — skipped")
                continue
            got_hc, want_hc = host_concurrency(row), host_concurrency(base)
            if got_hc <= 1 or want_hc <= 1:
                which = "fresh" if got_hc <= 1 else "baseline"
                print(f"{label:32s} {field} SKIPPED "
                      f"(hostConcurrency == 1 on the {which} host: a "
                      "worker pool cannot speed up a 1-CPU box, so this "
                      "comparison is unmeasurable here — NOT a pass)")
                continue
            got = float(row[field])
            want = float(base[field])
            floor = want * (1.0 - tolerance)
            status = "ok" if got >= floor else "REGRESSION"
            print(f"{label:32s} {field} {got:6.2f}x "
                  f"(baseline {want:.2f}x, floor {floor:.2f}x) {status}")
            if got < floor:
                failures.append(
                    f"'{label}' {field} {got:.2f}x fell more than "
                    f"{tolerance:.0%} below the baseline {want:.2f}x"
                    + replay_hint(row))

    check_pool_speedup("batch_throughput", "poolSpeedup")

    def expect_scaling(bench, field):
        # Absolute multi-thread gate (--expect-scaling): fresh rows must
        # clear the floor outright, independent of any baseline.
        for row in (r for r in fresh if r.get("bench") == bench):
            label = row.get("label", bench)
            hc = host_concurrency(row)
            if hc <= 1:
                print(f"{label:32s} {field} SKIPPED (scaling gate: "
                      "hostConcurrency == 1 — a 1-CPU host cannot "
                      "scale, so this row is unmeasurable — NOT a pass)")
                continue
            got = float(row[field])
            status = "ok" if got >= scaling_floor else "NO SCALING"
            print(f"{label:32s} {field} {got:6.2f}x "
                  f"(absolute floor {scaling_floor:.2f}x) {status}")
            if got < scaling_floor:
                failures.append(
                    f"'{label}' {field} {got:.2f}x is below the absolute "
                    f"scaling floor {scaling_floor:.2f}x on a "
                    f"{hc}-thread host" + replay_hint(row))

    if scaling_floor is not None:
        expect_scaling("batch_throughput", "poolSpeedup")

    if failures:
        print("\nperf-smoke FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nperf-smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
