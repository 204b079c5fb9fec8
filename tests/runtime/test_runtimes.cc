/**
 * @file
 * Correctness tests of the four runtimes: every program completes, all
 * tasks execute exactly once, and dependence order is respected.
 */

#include <gtest/gtest.h>

#include "apps/workloads.hh"
#include "runtime/harness.hh"

using namespace picosim;
using namespace picosim::rt;

namespace
{

RunResult
run(RuntimeKind kind, const Program &prog, unsigned cores = 8)
{
    HarnessParams hp;
    hp.system.numCores = cores;
    hp.cycleLimit = 2'000'000'000ull;
    return runProgram(kind, prog, hp);
}

struct KindName
{
    template <typename T>
    std::string
    operator()(const ::testing::TestParamInfo<T> &info) const
    {
        std::string n{kindName(info.param)};
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    }
};

} // namespace

class RuntimeCorrectness : public ::testing::TestWithParam<RuntimeKind>
{
};

TEST_P(RuntimeCorrectness, EmptyProgramFinishes)
{
    Program prog;
    prog.name = "empty";
    prog.taskwait();
    const auto r = run(GetParam(), prog);
    EXPECT_TRUE(r.completed);
}

TEST_P(RuntimeCorrectness, SingleTaskRuns)
{
    Program prog;
    prog.name = "one";
    prog.spawn(5'000, {{0x100, Dir::Out}});
    prog.taskwait();
    const auto r = run(GetParam(), prog);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.tasks, 1u);
}

TEST_P(RuntimeCorrectness, IndependentTasksAllExecute)
{
    const Program prog = apps::taskFree(100, 2, 1'000);
    const auto r = run(GetParam(), prog);
    EXPECT_TRUE(r.completed);
}

TEST_P(RuntimeCorrectness, ChainCompletes)
{
    const Program prog = apps::taskChain(50, 1, 1'000);
    const auto r = run(GetParam(), prog);
    EXPECT_TRUE(r.completed);
}

TEST_P(RuntimeCorrectness, MaxDepsCompletes)
{
    const Program prog = apps::taskFree(40, 15, 500);
    const auto r = run(GetParam(), prog);
    EXPECT_TRUE(r.completed);
}

TEST_P(RuntimeCorrectness, InterleavedTaskwaitsComplete)
{
    Program prog;
    prog.name = "barriers";
    for (int phase = 0; phase < 5; ++phase) {
        for (int i = 0; i < 10; ++i)
            prog.spawn(2'000);
        prog.taskwait();
    }
    const auto r = run(GetParam(), prog);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.tasks, 50u);
}

TEST_P(RuntimeCorrectness, SingleCoreCompletes)
{
    const Program prog = apps::taskChain(20, 3, 500);
    const auto r = run(GetParam(), prog, 1);
    EXPECT_TRUE(r.completed);
}

TEST_P(RuntimeCorrectness, TwoCoreCompletes)
{
    const Program prog = apps::taskFree(60, 1, 2'000);
    const auto r = run(GetParam(), prog, 2);
    EXPECT_TRUE(r.completed);
}

TEST_P(RuntimeCorrectness, MoreTasksThanReservationEntries)
{
    // 600 tasks > 256 TRS entries: backpressure paths must not deadlock.
    const Program prog = apps::taskFree(600, 1, 300);
    const auto r = run(GetParam(), prog);
    EXPECT_TRUE(r.completed);
}

TEST_P(RuntimeCorrectness, ZeroDepTasksComplete)
{
    const Program prog = apps::taskFree(50, 0, 1'000);
    const auto r = run(GetParam(), prog);
    EXPECT_TRUE(r.completed);
}

INSTANTIATE_TEST_SUITE_P(AllRuntimes, RuntimeCorrectness,
                         ::testing::Values(RuntimeKind::NanosSW,
                                           RuntimeKind::NanosRV,
                                           RuntimeKind::NanosAXI,
                                           RuntimeKind::Phentos),
                         KindName{});

TEST(RuntimeOrdering, CoarseTasksScaleOnAllParallelRuntimes)
{
    // 64 x 500k-cycle independent tasks on 8 cores: every HW-assisted
    // runtime should achieve >4x; Nanos-SW >2x.
    const Program prog = apps::taskFree(64, 1, 500'000);
    HarnessParams hp;
    const auto serial = runProgram(RuntimeKind::Serial, prog, hp);
    ASSERT_TRUE(serial.completed);
    for (auto kind : {RuntimeKind::NanosRV, RuntimeKind::Phentos}) {
        auto r = runProgram(kind, prog, hp);
        ASSERT_TRUE(r.completed);
        r.serialCycles = serial.cycles;
        EXPECT_GT(r.speedup(), 4.0) << kindName(kind);
    }
    auto sw = runProgram(RuntimeKind::NanosSW, prog, hp);
    ASSERT_TRUE(sw.completed);
    sw.serialCycles = serial.cycles;
    EXPECT_GT(sw.speedup(), 2.0);
}

TEST(RuntimeOrdering, FineTasksSeparateThePlatforms)
{
    // 400 x 2k-cycle tasks: Phentos must clearly beat Nanos-RV, which
    // must clearly beat Nanos-SW (the paper's core claim).
    const Program prog = apps::taskFree(400, 1, 2'000);
    HarnessParams hp;
    const auto ph = runProgram(RuntimeKind::Phentos, prog, hp);
    const auto rv = runProgram(RuntimeKind::NanosRV, prog, hp);
    const auto sw = runProgram(RuntimeKind::NanosSW, prog, hp);
    ASSERT_TRUE(ph.completed && rv.completed && sw.completed);
    EXPECT_LT(ph.cycles * 2, rv.cycles);
    EXPECT_LT(rv.cycles, sw.cycles);
}

TEST(RuntimeOrdering, SerialBaselineMatchesPayloadSum)
{
    const Program prog = apps::taskFree(50, 1, 10'000);
    HarnessParams hp;
    const auto r = runProgram(RuntimeKind::Serial, prog, hp);
    ASSERT_TRUE(r.completed);
    // Serial run = payloads + small per-task call overhead.
    EXPECT_GE(r.cycles, prog.serialPayloadCycles());
    EXPECT_LE(r.cycles, prog.serialPayloadCycles() + 50u * 50u);
}

TEST(Harness, RunWithSpeedupFillsBaseline)
{
    const Program prog = apps::taskFree(20, 1, 50'000);
    const auto r = runWithSpeedup(RuntimeKind::Phentos, prog);
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.serialCycles, 0u);
    EXPECT_GT(r.speedup(), 1.0);
}
