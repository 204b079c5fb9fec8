/**
 * @file
 * Kernel-efficiency benchmark: quantifies what the event-driven kernel and
 * the parallel batch harness buy over the reference implementation.
 *
 *  1. Component-tick reduction and wall-clock speedup: Figure 8-style
 *     workloads run under EvalMode::EventDriven vs the tick-the-world
 *     reference, with identical cycle results. Each mode is run several
 *     times and the minimum wall time is reported, so the speedup is a
 *     ratio of floors rather than of noise.
 *  2. Batch throughput: the Figure 9 matrix swept by runBatch() with one
 *     worker vs a pool, with identical rows. The pool result is only
 *     meaningful relative to hostConcurrency (also emitted): on a
 *     single-hardware-thread host the pool cannot beat 1x by
 *     construction.
 *
 * Every experiment is described as a spec::RunSpec mutation and executed
 * through spec::Engine, and each BENCH json row carries the serialized
 * spec that produced it (replayable with `picosim_run --spec`).
 *
 * `--quick` (or PICOSIM_QUICK=1) subsamples the sweeps for CI.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "bench/fig_common.hh"
#include "spec/engine.hh"

using namespace picosim;

namespace
{

double
wallSeconds(const std::function<void()> &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

void
compareModes(bench::BenchJson &json, const char *label,
             const spec::RunSpec &base, unsigned repeats)
{
    spec::RunSpec event = base;
    event.mode = sim::EvalMode::EventDriven;
    spec::RunSpec world = base;
    world.mode = sim::EvalMode::TickWorld;

    // Min-of-N: both modes are CPU-bound and deterministic, so the floor
    // of several runs is the honest wall time on a shared machine.
    rt::RunResult re, rw;
    double te = 0.0, tw = 0.0;
    for (unsigned r = 0; r < repeats; ++r) {
        const double e =
            wallSeconds([&] { re = spec::Engine::run(event); });
        const double w =
            wallSeconds([&] { rw = spec::Engine::run(world); });
        te = r == 0 ? e : std::min(te, e);
        tw = r == 0 ? w : std::min(tw, w);
    }

    const double tickRatio =
        re.componentTicks == 0
            ? 0.0
            : static_cast<double>(rw.componentTicks) /
                  static_cast<double>(re.componentTicks);
    std::printf("%-28s %12llu cycles %s  ticks %llu -> %llu (%.2fx)  "
                "wall %.3fs -> %.3fs (%.2fx)\n",
                label, static_cast<unsigned long long>(re.cycles),
                re.cycles == rw.cycles ? "[=]" : "[MISMATCH]",
                static_cast<unsigned long long>(rw.componentTicks),
                static_cast<unsigned long long>(re.componentTicks),
                tickRatio, tw, te, te > 0 ? tw / te : 0.0);

    json.beginRow();
    json.field("bench", "mode_compare");
    json.field("label", label);
    json.field("cycles", re.cycles);
    json.field("identical", re.cycles == rw.cycles);
    json.field("eventTicks", re.componentTicks);
    json.field("worldTicks", rw.componentTicks);
    json.field("tickRatio", tickRatio);
    json.field("wallEventSec", te);
    json.field("wallWorldSec", tw);
    json.field("wallSpeedup", te > 0 ? tw / te : 0.0);
    bench::stampSpec(json, event);
    bench::stampHost(json);
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            // Same switch the sweeps read; one knob for both paths.
            setenv("PICOSIM_QUICK", "1", /*overwrite=*/1);
        } else {
            std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
            return 2;
        }
    }
    const unsigned repeats = 3;

    bench::BenchJson json("BENCH_kernel.json");

    std::printf("== Event-driven kernel vs tick-the-world reference ==\n");
    std::printf("(ticks = component evaluations; [=] = identical cycle "
                "results; wall = min of %u runs)\n\n",
                repeats);

    // Warm the process (allocator pools, lazy init, page faults) before
    // anything is timed, so the first measured row is not penalized.
    (void)spec::Engine::run(
        bench::canonicalSpec("blackscholes", {{"options", 1024}, {"block", 32}}));

    // Figure 8 coarse-granularity points: most components quiescent most
    // cycles, the sweet spot for wake scheduling.
    compareModes(json, "blackscholes 4K B32 Phentos",
                 bench::canonicalSpec("blackscholes", {{"options", 4096}, {"block", 32}}),
                 repeats);
    compareModes(json, "blackscholes 4K B256 Phentos",
                 bench::canonicalSpec("blackscholes",
                          {{"options", 4096}, {"block", 256}}),
                 repeats);
    compareModes(json, "task-free g=10k Phentos",
                 bench::canonicalSpec("task-free",
                          {{"tasks", 256}, {"deps", 1}, {"payload", 10'000}}),
                 repeats);
    compareModes(json, "task-free g=10k Nanos-RV",
                 bench::canonicalSpec("task-free",
                          {{"tasks", 256}, {"deps", 1}, {"payload", 10'000}},
                          rt::RuntimeKind::NanosRV),
                 repeats);
    compareModes(json, "task-chain g=1k Phentos",
                 bench::canonicalSpec("task-chain",
                          {{"tasks", 256}, {"deps", 1}, {"payload", 1'000}}),
                 repeats);

    const unsigned hwThreads =
        std::max(1u, std::thread::hardware_concurrency());
    const unsigned poolThreads = 8;
    std::printf("\n== Parallel batch harness (Figure 9 sweep, %u worker "
                "pool, %u hardware thread(s)) ==\n",
                poolThreads, hwThreads);
    std::vector<bench::MatrixRow> serialRows, poolRows;
    const double tSerial = wallSeconds(
        [&] { serialRows = bench::runFigure9Matrix(false, 1); });
    const double tPool = wallSeconds(
        [&] { poolRows = bench::runFigure9Matrix(false, poolThreads); });

    bool same = serialRows.size() == poolRows.size();
    for (std::size_t i = 0; same && i < serialRows.size(); ++i) {
        same = serialRows[i].serialCycles == poolRows[i].serialCycles &&
               serialRows[i].nanosSw == poolRows[i].nanosSw &&
               serialRows[i].nanosRv == poolRows[i].nanosRv &&
               serialRows[i].phentos == poolRows[i].phentos;
    }
    std::printf("1 worker: %.2fs   %u workers: %.2fs (%.2fx)   results %s\n",
                tSerial, poolThreads, tPool,
                tPool > 0 ? tSerial / tPool : 0.0,
                same ? "identical" : "MISMATCH");
    if (hwThreads == 1) {
        std::printf("(single hardware thread: pool speedup is capped at "
                    "~1x on this host)\n");
    }

    json.beginRow();
    json.field("bench", "batch_throughput");
    json.field("serialSec", tSerial);
    json.field("poolSec", tPool);
    json.field("poolSpeedup", tPool > 0 ? tSerial / tPool : 0.0);
    json.field("poolThreads", std::uint64_t{poolThreads});
    json.field("identical", same);
    bench::stampHost(json, poolThreads);

    if (json.write())
        std::printf("json      : %s\n", json.path().c_str());
    else
        std::fprintf(stderr, "warning: could not write %s\n",
                     json.path().c_str());
    return same ? 0 : 1;
}
