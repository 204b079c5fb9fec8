/**
 * @file
 * Behavior-specific tests of the runtime models: Phentos metadata-array
 * sizing and counter-flush policy, Nanos scheduler-singleton funneling,
 * and parameterized packet accounting across dependence counts.
 */

#include <gtest/gtest.h>

#include "apps/workloads.hh"
#include "runtime/harness.hh"
#include "runtime/nanos.hh"
#include "runtime/phentos.hh"

using namespace picosim;
using namespace picosim::rt;

TEST(PhentosDetails, MetadataElementSizeTracksMaxDeps)
{
    // <= 7 deps: one cache line; 8..15: two (Section V-B).
    cpu::System sys;
    Phentos phentos;

    const Program narrow = apps::taskFree(4, 7, 100);
    phentos.install(sys, narrow);
    EXPECT_EQ(phentos.elemLines(), 1u);

    cpu::System sys2;
    Phentos phentos2;
    const Program wide = apps::taskFree(4, 8, 100);
    phentos2.install(sys2, wide);
    EXPECT_EQ(phentos2.elemLines(), 2u);
}

TEST(PhentosDetails, SharedCounterWrittenLessOftenThanRetirements)
{
    // Design goal 5: private counters flushed only after repeated
    // work-fetch failures, so atomic RMWs << retirements.
    const Program prog = apps::taskFree(200, 1, 2'000);
    HarnessParams hp;
    cpu::System sys(hp.system);
    Phentos phentos(hp.costs);
    phentos.install(sys, prog);
    ASSERT_TRUE(sys.run(hp.cycleLimit));
    ASSERT_TRUE(phentos.finished());
    const double atomics =
        sys.memory().stats().scalarValue("mem.atomics");
    EXPECT_LT(atomics, 200.0 * 0.8); // well under one RMW per task
    EXPECT_GT(atomics, 0.0);
}

TEST(PhentosDetails, NoLocksAtAll)
{
    // Design goal 1: Phentos never takes a mutex. Our lock model lives in
    // the Nanos path only; verify no scheduler-lock line traffic occurs.
    const Program prog = apps::taskFree(64, 1, 1'000);
    HarnessParams hp;
    cpu::System sys(hp.system);
    Phentos phentos(hp.costs);
    phentos.install(sys, prog);
    ASSERT_TRUE(sys.run(hp.cycleLimit));
    // The Nanos scheduler-lock line was never touched.
    EXPECT_EQ(sys.memory().lineState(0, 0x3000'0000),
              mem::LineState::Invalid);
}

TEST(NanosDetails, AllReadyTasksFunnelThroughCentralQueue)
{
    // Section V-A: ready descriptors fetched from Picos are not run
    // directly but pushed through the Scheduler singleton. Every task
    // must therefore touch the central queue exactly once.
    const Program prog = apps::taskFree(80, 1, 1'000);
    HarnessParams hp;
    cpu::System sys(hp.system);
    Nanos nanos(Nanos::Variant::RV, hp.costs);
    nanos.install(sys, prog);
    ASSERT_TRUE(sys.run(hp.cycleLimit));
    ASSERT_TRUE(nanos.finished());
    // The queue head line must have bounced between cores.
    EXPECT_GT(sys.memory().stats().scalarValue("mem.invalidations"), 0.0);
}

TEST(NanosDetails, VariantNamesAreStable)
{
    EXPECT_EQ(Nanos(Nanos::Variant::SW).name(), "Nanos-SW");
    EXPECT_EQ(Nanos(Nanos::Variant::RV).name(), "Nanos-RV");
    EXPECT_EQ(Nanos(Nanos::Variant::AXI).name(), "Nanos-AXI");
}

class PacketAccounting : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PacketAccounting, ZeroPaddingMatchesFigure3)
{
    // For D dependences, software submits 3+3D packets and the manager
    // pads with (15-D)*3 zeros -- per task, exactly 48 packets reach
    // Picos (Figure 3).
    const unsigned deps = GetParam();
    const unsigned n = 20;
    const Program prog = apps::taskFree(n, deps, 500);
    HarnessParams hp;
    cpu::System sys(hp.system);
    Phentos phentos(hp.costs);
    phentos.install(sys, prog);
    ASSERT_TRUE(sys.run(hp.cycleLimit));
    ASSERT_TRUE(phentos.finished());

    auto &st = sys.stats();
    EXPECT_EQ(st.scalarValue("picos.subPackets"), n * 48.0);
    EXPECT_EQ(st.scalarValue("manager.zeroPadPackets"),
              n * (15.0 - deps) * 3.0);
    EXPECT_EQ(st.scalarValue("manager.packetsSubmitted"),
              n * (3.0 + 3.0 * deps));
}

INSTANTIATE_TEST_SUITE_P(Deps, PacketAccounting,
                         ::testing::Values(0, 1, 3, 7, 15));

class OverheadMonotonicity : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(OverheadMonotonicity, MoreDepsNeverCheaperForNanosSW)
{
    // Nanos-SW inference cost grows with dependence count (Figure 7's
    // steep Task-Free row).
    const unsigned deps = GetParam();
    HarnessParams hp;
    hp.system.numCores = 1;
    const auto lo = [&](unsigned d) {
        const Program prog = apps::taskFree(48, d, 10);
        const auto r = runProgram(RuntimeKind::NanosSW, prog, hp);
        EXPECT_TRUE(r.completed);
        return r.overheadPerTask();
    };
    EXPECT_GT(lo(deps + 1), lo(deps));
}

INSTANTIATE_TEST_SUITE_P(Deps, OverheadMonotonicity,
                         ::testing::Values(0, 2, 6, 13));
