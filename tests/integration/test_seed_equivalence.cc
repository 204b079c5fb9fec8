/**
 * @file
 * Kernel-refactor regression tests.
 *
 * The event-driven kernel must be cycle-exact: (1) golden cycle counts
 * captured from the seed tick-the-world kernel on small Figure 6/7-style
 * workloads must be reproduced bit-identically, (2) EventDriven and
 * TickWorld runs of the same job must agree on every result field while
 * the event kernel performs strictly fewer component evaluations, and
 * (3) repeated runs must be deterministic.
 */

#include <gtest/gtest.h>

#include "apps/workloads.hh"
#include "runtime/harness.hh"

using namespace picosim;
using namespace picosim::rt;

namespace
{

HarnessParams
withMode(sim::EvalMode mode)
{
    HarnessParams hp;
    hp.system.evalMode = mode;
    return hp;
}

HarnessParams
withTimedMem(sim::EvalMode mode)
{
    HarnessParams hp = withMode(mode);
    hp.system.mem.mode = mem::MemMode::Timed;
    return hp;
}

Program
namedWorkload(const char *name)
{
    return std::string(name) == "task-free" ? apps::taskFree(256, 1, 1000)
                                            : apps::taskChain(256, 1, 1000);
}

std::string
testName(const char *workload, RuntimeKind kind)
{
    std::string name = std::string(workload) + "_" +
                       std::string(kindName(kind));
    for (char &c : name)
        if (c == '-')
            c = '_';
    return name;
}

struct GoldenRun
{
    const char *workload;
    RuntimeKind kind;
    Cycle cycles;
};

// Without a printer gtest shows the raw bytes of the parameter, which
// hold the address of the workload string and uninitialised padding,
// so the test names would change from one process to the next.
void
PrintTo(const GoldenRun &g, std::ostream *os)
{
    *os << g.cycles;
}

} // namespace

class SeedGolden : public ::testing::TestWithParam<GoldenRun>
{
};

TEST_P(SeedGolden, CyclesMatchSeedKernel)
{
    const GoldenRun &g = GetParam();
    const Program prog = namedWorkload(g.workload);
    const RunResult res = runProgram(g.kind, prog);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.cycles, g.cycles);
}

// Golden values captured from the seed (pre-refactor) kernel, default
// HarnessParams, 8 cores (serial forced to 1).
INSTANTIATE_TEST_SUITE_P(
    Fig6Style, SeedGolden,
    ::testing::Values(
        GoldenRun{"task-free", RuntimeKind::Serial, 257'280},
        GoldenRun{"task-free", RuntimeKind::NanosSW, 5'043'488},
        GoldenRun{"task-free", RuntimeKind::NanosRV, 978'924},
        GoldenRun{"task-free", RuntimeKind::NanosAXI, 1'189'170},
        GoldenRun{"task-free", RuntimeKind::Phentos, 51'566},
        GoldenRun{"task-chain", RuntimeKind::Serial, 257'280},
        GoldenRun{"task-chain", RuntimeKind::NanosSW, 4'589'870},
        GoldenRun{"task-chain", RuntimeKind::NanosRV, 2'689'474},
        GoldenRun{"task-chain", RuntimeKind::NanosAXI, 3'097'835},
        GoldenRun{"task-chain", RuntimeKind::Phentos, 289'118}),
    [](const auto &info) {
        return testName(info.param.workload, info.param.kind);
    });

/**
 * Timed-memory goldens: pinned at the introduction of MemMode::Timed so
 * later PRs cannot silently shift the contention model, plus the core
 * invariant that the event-driven and tick-the-world kernels stay
 * bit-identical under the timed memory subsystem.
 */
class TimedGolden : public ::testing::TestWithParam<GoldenRun>
{
};

TEST_P(TimedGolden, KernelsAgreeAndMatchGolden)
{
    const GoldenRun &g = GetParam();
    const Program prog = namedWorkload(g.workload);

    const RunResult ev =
        runProgram(g.kind, prog, withTimedMem(sim::EvalMode::EventDriven));
    const RunResult tw =
        runProgram(g.kind, prog, withTimedMem(sim::EvalMode::TickWorld));

    EXPECT_TRUE(ev.completed);
    EXPECT_TRUE(tw.completed);
    EXPECT_EQ(ev.cycles, tw.cycles);
    EXPECT_EQ(ev.cycles, g.cycles);
}

// Golden values captured from the introduction of the timed memory
// subsystem (default MemParams structure, 8 cores; serial forced to 1).
// A single uncontended hart charges exactly the inline latencies, so the
// serial rows must equal the inline goldens above.
//
// task-free/Phentos was re-pinned from 51'558 when the master stopped
// issuing its redundant final barrier for programs whose last action
// already is an explicit taskwait (the skipped poll round saved 36
// timed-memory cycles; every other golden is quantized by the worker
// done-flag backoff and did not move).
INSTANTIATE_TEST_SUITE_P(
    TimedMem, TimedGolden,
    ::testing::Values(
        GoldenRun{"task-free", RuntimeKind::Serial, 257'280},
        GoldenRun{"task-free", RuntimeKind::Phentos, 51'522},
        GoldenRun{"task-free", RuntimeKind::NanosRV, 967'598},
        GoldenRun{"task-chain", RuntimeKind::Serial, 257'280},
        GoldenRun{"task-chain", RuntimeKind::Phentos, 291'785},
        GoldenRun{"task-chain", RuntimeKind::NanosAXI, 7'533'015}),
    [](const auto &info) {
        return testName(info.param.workload, info.param.kind);
    });

/**
 * Single-shard topology goldens: an explicit --sched-shards=1
 * --clusters=1 configuration must construct the centralized Picos path
 * and reproduce the seed goldens bit-identically in both kernel modes —
 * the sharded scaling layer is opt-in and must not perturb the paper
 * reproduction.
 */
class SingleShardGolden : public ::testing::TestWithParam<GoldenRun>
{
};

TEST_P(SingleShardGolden, ExplicitSingleShardMatchesSeedGoldens)
{
    const GoldenRun &g = GetParam();
    const Program prog = namedWorkload(g.workload);
    for (const auto mode :
         {sim::EvalMode::EventDriven, sim::EvalMode::TickWorld}) {
        HarnessParams hp = withMode(mode);
        hp.system.topology.schedShards = 1;
        hp.system.topology.clusters = 1;
        const RunResult res = runProgram(g.kind, prog, hp);
        EXPECT_TRUE(res.completed);
        EXPECT_EQ(res.cycles, g.cycles)
            << (mode == sim::EvalMode::EventDriven ? "event" : "tickworld");
    }
}

INSTANTIATE_TEST_SUITE_P(
    Fig6Style, SingleShardGolden,
    ::testing::Values(
        GoldenRun{"task-free", RuntimeKind::Phentos, 51'566},
        GoldenRun{"task-free", RuntimeKind::NanosRV, 978'924},
        GoldenRun{"task-chain", RuntimeKind::Phentos, 289'118}),
    [](const auto &info) {
        return testName(info.param.workload, info.param.kind);
    });

class ModeEquivalence : public ::testing::TestWithParam<RuntimeKind>
{
};

TEST_P(ModeEquivalence, EventKernelMatchesTickWorld)
{
    const RuntimeKind kind = GetParam();
    const Program prog = apps::blackscholes(1024, 32);

    const RunResult ev =
        runProgram(kind, prog, withMode(sim::EvalMode::EventDriven));
    const RunResult tw =
        runProgram(kind, prog, withMode(sim::EvalMode::TickWorld));

    EXPECT_TRUE(ev.completed);
    EXPECT_TRUE(tw.completed);
    EXPECT_EQ(ev.cycles, tw.cycles);
    EXPECT_EQ(ev.tasks, tw.tasks);
    // The whole point of the refactor: strictly fewer component
    // evaluations for the same cycle-exact result. On these sparse
    // workloads the reduction is well beyond the 2x acceptance floor.
    EXPECT_LT(ev.componentTicks * 2, tw.componentTicks);
}

INSTANTIATE_TEST_SUITE_P(Runtimes, ModeEquivalence,
                         ::testing::Values(RuntimeKind::Serial,
                                           RuntimeKind::NanosRV,
                                           RuntimeKind::Phentos),
                         [](const auto &info) {
                             std::string name{kindName(info.param)};
                             for (char &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

TEST(Determinism, RepeatedRunsAreIdentical)
{
    const Program prog = apps::blackscholes(1024, 16);
    const RunResult a = runProgram(RuntimeKind::Phentos, prog);
    const RunResult b = runProgram(RuntimeKind::Phentos, prog);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.evaluatedCycles, b.evaluatedCycles);
    EXPECT_EQ(a.componentTicks, b.componentTicks);
}

TEST(Determinism, ProgramCopiesRunIdentically)
{
    // Batch jobs copy their programs; a copy must behave exactly like
    // the original (including the lazily built task index).
    const Program orig = apps::taskChain(64, 2, 500);
    if (orig.numTasks() > 0)
        orig.taskById(0); // warm the original's cache before copying
    const Program copy = orig;
    const RunResult a = runProgram(RuntimeKind::Phentos, orig);
    const RunResult b = runProgram(RuntimeKind::Phentos, copy);
    EXPECT_EQ(a.cycles, b.cycles);
}
