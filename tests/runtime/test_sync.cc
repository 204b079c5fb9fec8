/** @file Unit tests for the simulated lock primitive. */

#include <gtest/gtest.h>

#include "cpu/system.hh"
#include "runtime/sync.hh"

using namespace picosim;
using namespace picosim::rt;

namespace
{

struct LockFixture : ::testing::Test
{
    LockFixture() { lock.lineAddr = 0x3000'0000; }

    CostModel cm;
    SimLock lock;
};

} // namespace

TEST_F(LockFixture, MutualExclusionUnderContention)
{
    cpu::System sys(cpu::SystemParams{.numCores = 4});
    int inside = 0;
    int max_inside = 0;
    long total = 0;

    auto body = [&](cpu::HartApi &api) -> sim::CoTask<void> {
        for (int i = 0; i < 20; ++i) {
            co_await lockAcquire(api, lock, cm);
            ++inside;
            max_inside = std::max(max_inside, inside);
            co_await api.delay(17); // critical section
            ++total;
            --inside;
            co_await lockRelease(api, lock, cm);
        }
    };
    for (CoreId c = 0; c < 4; ++c)
        sys.installThread(c, body(sys.hartApi(c)));
    ASSERT_TRUE(sys.run(10'000'000));
    EXPECT_EQ(max_inside, 1);
    EXPECT_EQ(total, 80);
    EXPECT_EQ(lock.acquisitions, 80u);
    EXPECT_GT(lock.contentions, 0u);
}

TEST_F(LockFixture, UncontendedAcquireIsCheap)
{
    cpu::System sys(cpu::SystemParams{.numCores = 1});
    Cycle spent = 0;
    auto body = [&](cpu::HartApi &api) -> sim::CoTask<void> {
        // Warm the lock line first so the measurement is the steady state.
        co_await lockAcquire(api, lock, cm);
        co_await lockRelease(api, lock, cm);
        const Cycle t0 = sys.clock().now();
        co_await lockAcquire(api, lock, cm);
        co_await lockRelease(api, lock, cm);
        spent = sys.clock().now() - t0;
    };
    sys.installThread(0, body(sys.hartApi(0)));
    ASSERT_TRUE(sys.run(100'000));
    EXPECT_LT(spent, cm.mutexLock + cm.mutexUnlock + 40);
    EXPECT_EQ(lock.contentions, 0u);
}

TEST_F(LockFixture, LockLineBouncesBetweenCores)
{
    cpu::System sys(cpu::SystemParams{.numCores = 2});
    auto body = [&](cpu::HartApi &api) -> sim::CoTask<void> {
        for (int i = 0; i < 10; ++i) {
            co_await lockAcquire(api, lock, cm);
            co_await lockRelease(api, lock, cm);
            co_await api.delay(500);
        }
    };
    sys.installThread(0, body(sys.hartApi(0)));
    sys.installThread(1, body(sys.hartApi(1)));
    ASSERT_TRUE(sys.run(10'000'000));
    // The alternating RMWs must generate dirty-remote transfers (MESI
    // through-memory moves), the effect Section V-B calls out.
    EXPECT_GT(sys.memory().stats().scalarValue("mem.dirtyRemoteTransfers"),
              0.0);
}
