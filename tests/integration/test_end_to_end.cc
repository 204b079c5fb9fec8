/**
 * @file
 * Integration tests: whole-system properties across modules, including
 * the paper's deadlock-avoidance scenarios (Section IV-C) and the
 * headline performance orderings at small scale.
 */

#include <gtest/gtest.h>

#include "apps/workloads.hh"
#include "runtime/harness.hh"

using namespace picosim;
using namespace picosim::rt;

namespace
{

HarnessParams
quick()
{
    HarnessParams hp;
    hp.cycleLimit = 2'000'000'000ull;
    return hp;
}

} // namespace

TEST(EndToEnd, DeadlockScenario1SingleThreadSubmitsAndRuns)
{
    // A single thread both generates and executes tasks while the
    // reservation station is tiny: blocking submission would deadlock,
    // the non-blocking ISA must survive (Section IV-C, scenario 1).
    HarnessParams hp = quick();
    hp.system.numCores = 1;
    hp.system.picos.trsEntries = 4;
    const Program prog = apps::taskChain(64, 1, 100);
    for (auto kind : {RuntimeKind::Phentos, RuntimeKind::NanosRV}) {
        const auto r = runProgram(kind, prog, hp);
        EXPECT_TRUE(r.completed) << kindName(kind);
    }
}

TEST(EndToEnd, DeadlockScenario2TinyRoutingQueue)
{
    // Work-fetch requests far outnumber routing-queue slots; the
    // non-blocking Ready Task Request must keep the system live
    // (Section IV-C, scenario 2).
    HarnessParams hp = quick();
    hp.system.manager.routingQueueDepth = 1;
    const Program prog = apps::taskFree(100, 1, 500);
    for (auto kind : {RuntimeKind::Phentos, RuntimeKind::NanosRV}) {
        const auto r = runProgram(kind, prog, hp);
        EXPECT_TRUE(r.completed) << kindName(kind);
    }
}

TEST(EndToEnd, TinyDependenceTableStillCorrect)
{
    HarnessParams hp = quick();
    // Two sets of four ways: far fewer live addresses than the 150 the
    // program uses, but enough ways that one task's own dependences can
    // never self-block a set.
    hp.system.picos.dctSets = 2;
    hp.system.picos.dctWays = 4;
    const Program prog = apps::taskFree(50, 3, 500);
    const auto r = runProgram(RuntimeKind::Phentos, prog, hp);
    EXPECT_TRUE(r.completed);
}

TEST(EndToEnd, SparseLuRunsOnAllRuntimes)
{
    const Program prog = apps::sparseLu(6, 8);
    for (auto kind : {RuntimeKind::NanosSW, RuntimeKind::NanosRV,
                      RuntimeKind::NanosAXI, RuntimeKind::Phentos}) {
        const auto r = runProgram(kind, prog, quick());
        EXPECT_TRUE(r.completed) << kindName(kind);
    }
}

TEST(EndToEnd, JacobiDependencesLimitParallelismCorrectly)
{
    // One-row blocks with halo deps: speedup must stay meaningful but
    // the program must complete with bitwise-identical task counts.
    const Program prog = apps::jacobi(32, 1, 4);
    const auto r = runWithSpeedup(RuntimeKind::Phentos, prog, quick());
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.tasks, 32u * 4u);
}

TEST(EndToEnd, StreamBarrBarriersDrainBetweenKernels)
{
    const Program prog = apps::streamBarr(16, 64, 2);
    const auto r = runProgram(RuntimeKind::Phentos, prog, quick());
    EXPECT_TRUE(r.completed);
}

TEST(EndToEnd, OverheadOrderingMatchesFigure7)
{
    // Lifetime overhead: Phentos << Nanos-RV < Nanos-AXI < Nanos-SW.
    HarnessParams hp = quick();
    hp.system.numCores = 1;
    const Program prog = apps::taskFree(96, 1, 10);
    double lo[4];
    const RuntimeKind kinds[] = {RuntimeKind::Phentos, RuntimeKind::NanosRV,
                                 RuntimeKind::NanosAXI, RuntimeKind::NanosSW};
    for (int i = 0; i < 4; ++i) {
        const auto r = runProgram(kinds[i], prog, hp);
        ASSERT_TRUE(r.completed) << kindName(kinds[i]);
        lo[i] = r.overheadPerTask();
    }
    EXPECT_LT(lo[0] * 20, lo[1]); // Phentos at least 20x below Nanos-RV
    EXPECT_LT(lo[1], lo[2]);
    EXPECT_LT(lo[2], lo[3]);
}

TEST(EndToEnd, FineGrainSpeedupGapGrowsAsGranularityShrinks)
{
    // Hypothesis 3 of Section VI: the runtime gap narrows as task
    // granularity increases.
    HarnessParams hp = quick();
    const Program fine = apps::blackscholes(4096, 8);
    const Program coarse = apps::blackscholes(4096, 256);

    const auto fine_ph = runProgram(RuntimeKind::Phentos, fine, hp);
    const auto fine_sw = runProgram(RuntimeKind::NanosSW, fine, hp);
    const auto coarse_ph = runProgram(RuntimeKind::Phentos, coarse, hp);
    const auto coarse_sw = runProgram(RuntimeKind::NanosSW, coarse, hp);
    ASSERT_TRUE(fine_ph.completed && fine_sw.completed &&
                coarse_ph.completed && coarse_sw.completed);

    const double gap_fine = static_cast<double>(fine_sw.cycles) /
                            static_cast<double>(fine_ph.cycles);
    const double gap_coarse = static_cast<double>(coarse_sw.cycles) /
                              static_cast<double>(coarse_ph.cycles);
    EXPECT_GT(gap_fine, gap_coarse);
    EXPECT_GT(gap_fine, 5.0);   // dramatic at fine grain
    EXPECT_LT(gap_coarse, 3.0); // modest at coarse grain
}

TEST(EndToEnd, StatsAreInternallyConsistent)
{
    HarnessParams hp = quick();
    const Program prog = apps::taskFree(64, 2, 1'000);

    cpu::System sys(hp.system);
    auto runtime = makeRuntime(RuntimeKind::Phentos, hp.costs);
    runtime->install(sys, prog);
    ASSERT_TRUE(sys.run(hp.cycleLimit));
    ASSERT_TRUE(runtime->finished());

    auto &st = sys.stats();
    EXPECT_EQ(st.scalarValue("picos.retires"), 64.0);
    EXPECT_EQ(st.scalarValue("manager.tuplesEncoded"), 64.0);
    EXPECT_EQ(st.scalarValue("manager.readyDelivered"), 64.0);
    EXPECT_EQ(st.scalarValue("manager.zeroPadPackets"), 64.0 * 39.0);
    EXPECT_EQ(sys.scheduler().tasksProcessed(), 64u);
    EXPECT_TRUE(sys.scheduler().quiescent());
}

class EndToEndCoreSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(EndToEndCoreSweep, SpeedupBoundedByCores)
{
    HarnessParams hp = quick();
    hp.system.numCores = GetParam();
    const Program prog = apps::taskFree(48, 1, 200'000);
    const auto r = runWithSpeedup(RuntimeKind::Phentos, prog, hp);
    ASSERT_TRUE(r.completed);
    EXPECT_LE(r.speedup(), static_cast<double>(GetParam()) + 0.05);
    if (GetParam() >= 2) {
        EXPECT_GT(r.speedup(), 1.2);
    }
}

INSTANTIATE_TEST_SUITE_P(Cores, EndToEndCoreSweep,
                         ::testing::Values(1, 2, 4, 8));
