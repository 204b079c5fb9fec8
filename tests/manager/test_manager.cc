/** @file Unit tests for the Picos Manager (Figures 4 and 5). */

#include <gtest/gtest.h>

#include "manager/picos_manager.hh"
#include "picos/picos.hh"
#include "rocc/task_packets.hh"
#include "sim/kernel.hh"

using namespace picosim;
using namespace picosim::manager;
using namespace picosim::rocc;

namespace
{

class ManagerTest : public ::testing::Test
{
  protected:
    static constexpr unsigned kCores = 4;

    ManagerTest()
        : picos_(sim_.clock(), picos::PicosParams{}, sim_.stats()),
          mgr_(sim_.clock(), picos_, kCores, ManagerParams{}, sim_.stats())
    {
        sim_.addTicked(&mgr_);
        sim_.addTicked(&picos_);
    }

    void
    step(unsigned n = 1)
    {
        sim_.runFor(n);
    }

    /** Submit a full task through core @p c, ticking as needed. */
    void
    submit(CoreId c, std::uint64_t sw_id, std::vector<TaskDep> deps = {})
    {
        TaskDescriptor desc;
        desc.swId = sw_id;
        desc.deps = std::move(deps);
        const auto pkts = encodeNonZero(desc);
        while (!mgr_.submissionRequest(c, static_cast<unsigned>(pkts.size())))
            step();
        for (std::uint32_t p : pkts) {
            while (!mgr_.submitPacket(c, p))
                step();
        }
    }

    /** Fetch one ready tuple on core @p c (request + poll). */
    std::optional<ReadyTuple>
    fetch(CoreId c, unsigned budget = 2000)
    {
        mgr_.readyTaskRequest(c);
        for (unsigned i = 0; i < budget; ++i) {
            if (auto t = mgr_.peekReady(c))
                return mgr_.popReady(c);
            step();
        }
        return std::nullopt;
    }

    sim::Simulator sim_;
    picos::Picos picos_;
    PicosManager mgr_;
};

} // namespace

TEST_F(ManagerTest, ZeroPadderCompletesBurst)
{
    submit(0, 5, {{0x1000, Dir::Out}}); // 6 non-zero packets
    const auto t = fetch(1);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->swId, 5u);
    // 42 zeros were appended by the manager, not software.
    EXPECT_EQ(sim_.stats().scalarValue("manager.zeroPadPackets"), 42.0);
    EXPECT_EQ(sim_.stats().scalarValue("picos.subPackets"), 48.0);
}

TEST_F(ManagerTest, RejectsMalformedSubmissionRequests)
{
    EXPECT_FALSE(mgr_.submissionRequest(0, 0));   // empty
    EXPECT_FALSE(mgr_.submissionRequest(0, 49));  // too long
    EXPECT_FALSE(mgr_.submissionRequest(0, 4));   // not multiple of 3
    EXPECT_NE(mgr_.errorCode(), 0);
    EXPECT_TRUE(mgr_.submissionRequest(0, 3));
}

TEST_F(ManagerTest, BurstsAreNotInterleaved)
{
    // Announce from two cores, then stream packets alternately; the
    // manager must forward each burst atomically (Picos decodes them as
    // two clean descriptors -> two tasks processed).
    TaskDescriptor d1, d2;
    d1.swId = 1;
    d1.deps = {{0x100, Dir::Out}};
    d2.swId = 2;
    d2.deps = {{0x200, Dir::Out}};
    const auto p1 = encodeNonZero(d1);
    const auto p2 = encodeNonZero(d2);
    ASSERT_TRUE(mgr_.submissionRequest(0, 6));
    ASSERT_TRUE(mgr_.submissionRequest(1, 6));
    for (std::size_t i = 0; i < 6; ++i) {
        ASSERT_TRUE(mgr_.submitPacket(0, p1[i]));
        ASSERT_TRUE(mgr_.submitPacket(1, p2[i]));
        step();
    }
    sim_.runFor(500);
    EXPECT_EQ(picos_.tasksProcessed(), 2u);
    EXPECT_EQ(sim_.stats().scalarValue("picos.badRetires"), 0.0);
}

TEST_F(ManagerTest, WorkFetchServedInRequestOrder)
{
    // Three independent tasks; requests from cores 2, 0, 1 in that order.
    submit(0, 10);
    submit(0, 11);
    submit(0, 12);
    sim_.runFor(400); // let all become ready

    ASSERT_TRUE(mgr_.readyTaskRequest(2));
    ASSERT_TRUE(mgr_.readyTaskRequest(0));
    ASSERT_TRUE(mgr_.readyTaskRequest(1));
    sim_.runFor(100);

    // Deliveries must respect the total request order (Section IV-E4).
    ASSERT_TRUE(mgr_.peekReady(2).has_value());
    ASSERT_TRUE(mgr_.peekReady(0).has_value());
    ASSERT_TRUE(mgr_.peekReady(1).has_value());
    EXPECT_EQ(mgr_.popReady(2).swId, 10u);
    EXPECT_EQ(mgr_.popReady(0).swId, 11u);
    EXPECT_EQ(mgr_.popReady(1).swId, 12u);
}

TEST_F(ManagerTest, RoutingQueueBoundsOutstandingRequests)
{
    const unsigned depth = mgr_.params().routingQueueDepth;
    for (unsigned i = 0; i < depth; ++i)
        EXPECT_TRUE(mgr_.readyTaskRequest(i % kCores));
    // Queue full: further requests fail (non-blocking ISA semantics).
    EXPECT_FALSE(mgr_.readyTaskRequest(0));
}

TEST_F(ManagerTest, RetireRoundRobinMergesAllCores)
{
    // Four independent tasks, delivered to distinct cores, retired from
    // those cores; every retirement must reach Picos.
    for (std::uint64_t i = 0; i < kCores; ++i)
        submit(0, i);
    sim_.runFor(600);
    std::vector<std::uint32_t> ids;
    for (CoreId c = 0; c < kCores; ++c) {
        auto t = fetch(c);
        ASSERT_TRUE(t.has_value());
        ids.push_back(t->picosId);
    }
    for (CoreId c = 0; c < kCores; ++c) {
        ASSERT_TRUE(mgr_.retireCanAccept(c));
        ASSERT_TRUE(mgr_.retirePush(c, ids[c]));
    }
    sim_.runFor(400);
    EXPECT_EQ(picos_.tasksRetired(), kCores);
    EXPECT_TRUE(picos_.quiescent());
}

TEST_F(ManagerTest, PerCoreReadyQueueIsolation)
{
    submit(0, 42);
    const auto t = fetch(3);
    ASSERT_TRUE(t.has_value());
    // Other cores see nothing.
    for (CoreId c = 0; c < 3; ++c)
        EXPECT_FALSE(mgr_.peekReady(c).has_value());
}

TEST_F(ManagerTest, DrainedAfterFullLifecycle)
{
    submit(1, 7, {{0xabc0, Dir::InOut}});
    auto t = fetch(2);
    ASSERT_TRUE(t.has_value());
    while (!mgr_.retireCanAccept(2))
        step();
    mgr_.retirePush(2, t->picosId);
    sim_.runFor(500);
    EXPECT_TRUE(mgr_.drained());
    EXPECT_TRUE(picos_.quiescent());
}

TEST_F(ManagerTest, SubmitThreeRequiresThreeSlots)
{
    const unsigned cap = mgr_.params().subBufferDepth;
    // Fill the buffer to capacity - 2 without an announcement consuming
    // it (no submissionRequest, so the arbiter never drains core 3).
    for (unsigned i = 0; i < cap - 2; ++i)
        ASSERT_TRUE(mgr_.submitPacket(3, i));
    EXPECT_FALSE(mgr_.submitThreePackets(3, 1, 2, 3));
    ASSERT_TRUE(mgr_.submitPacket(3, 0)); // single packets still fit
}

TEST_F(ManagerTest, RequestBehindGrantedBurstSleepsUntilRelease)
{
    TaskDescriptor desc;
    desc.swId = 9;
    const auto pkts = encodeNonZero(desc);
    ASSERT_EQ(pkts.size(), 3u);
    // Core 0 wins the port but has not produced its packets yet; core 1
    // queues a Submission Request behind the granted burst.
    ASSERT_TRUE(mgr_.submissionRequest(0, 3));
    step(5);
    ASSERT_EQ(sim_.stats().scalarValue("manager.burstsGranted"), 1.0);
    ASSERT_TRUE(mgr_.submissionRequest(1, 3));
    step(5);
    const Cycle next = sim_.clock().now() + 1;
    EXPECT_GT(mgr_.nextSelfDue(next), next);
    const std::uint64_t ticks = sim_.componentTicks();
    step(1000);
    EXPECT_EQ(sim_.componentTicks(), ticks);

    // The burst's packets wake the manager; streaming and padding the
    // burst releases the port, and the queued request is granted.
    ASSERT_TRUE(mgr_.submitThreePackets(0, pkts[0], pkts[1], pkts[2]));
    step(200);
    EXPECT_EQ(sim_.stats().scalarValue("manager.burstsGranted"), 2.0);
}
