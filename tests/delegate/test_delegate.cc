/** @file Unit tests for the per-core Picos Delegate (Section IV-E). */

#include <gtest/gtest.h>

#include "cpu/system.hh"
#include "rocc/rocc_inst.hh"
#include "rocc/task_packets.hh"

using namespace picosim;
using namespace picosim::delegate;
using namespace picosim::rocc;

namespace
{

class DelegateTest : public ::testing::Test
{
  protected:
    DelegateTest() : sys_(params()) {}

    static cpu::SystemParams
    params()
    {
        cpu::SystemParams p;
        p.numCores = 2;
        return p;
    }

    /** Submit one task and run until its tuple is deliverable. */
    void
    primeReadyTask(CoreId submitter, CoreId fetcher, std::uint64_t sw_id)
    {
        auto &del = sys_.delegateOf(submitter);
        TaskDescriptor desc;
        desc.swId = sw_id;
        const auto pkts = encodeNonZero(desc);
        ASSERT_TRUE(del.submissionRequest(3));
        const std::uint64_t rs1 =
            (static_cast<std::uint64_t>(pkts[0]) << 32) | pkts[1];
        ASSERT_TRUE(del.submitThreePackets(rs1, pkts[2]));
        ASSERT_TRUE(sys_.delegateOf(fetcher).readyTaskRequest());
        auto *fetch_del = &sys_.delegateOf(fetcher);
        sys_.simulator().run(
            [fetch_del] {
                const bool got = fetch_del->fetchSwId().has_value();
                return got;
            },
            20000);
    }

    cpu::System sys_;
};

} // namespace

TEST_F(DelegateTest, FetchSwIdDoesNotPop)
{
    primeReadyTask(0, 1, 99);
    auto &del = sys_.delegateOf(1);
    const auto first = del.fetchSwId();
    const auto second = del.fetchSwId();
    ASSERT_TRUE(first && second);
    EXPECT_EQ(*first, 99u);
    EXPECT_EQ(*second, 99u); // still at the front
}

TEST_F(DelegateTest, FetchPicosIdRequiresPriorFetchSwId)
{
    primeReadyTask(0, 1, 5);
    auto &fresh = sys_.delegateOf(1);
    // The priming helper already fetched the SW ID, so clear the state by
    // popping, then re-prime a second task to test the ordering rule.
    ASSERT_TRUE(fresh.fetchPicosId().has_value());

    primeReadyTask(0, 0, 6);
    auto &del = sys_.delegateOf(0);
    // Manually reset: a fresh delegate (core 0) that never fetched the SW
    // ID of the *current* front element must fail Fetch Picos ID.
    // (primeReadyTask's run-predicate did fetch it, so pop and request a
    // new task to get a clean front.)
    ASSERT_TRUE(del.fetchPicosId().has_value());
    EXPECT_FALSE(del.fetchPicosId().has_value()); // empty now
}

TEST_F(DelegateTest, FetchSwIdFailsOnEmptyQueue)
{
    auto &del = sys_.delegateOf(0);
    EXPECT_FALSE(del.fetchSwId().has_value());
    EXPECT_FALSE(del.fetchPicosId().has_value());
    EXPECT_FALSE(del.swIdFetched());
}

TEST_F(DelegateTest, FetchPicosIdPopsAndClearsFlag)
{
    primeReadyTask(0, 1, 7);
    auto &del = sys_.delegateOf(1);
    ASSERT_TRUE(del.fetchSwId().has_value());
    EXPECT_TRUE(del.swIdFetched());
    const auto pid = del.fetchPicosId();
    ASSERT_TRUE(pid.has_value());
    EXPECT_FALSE(del.swIdFetched());
    // Queue now empty: both instructions fail.
    EXPECT_FALSE(del.fetchSwId().has_value());
    EXPECT_FALSE(del.fetchPicosId().has_value());
}

TEST_F(DelegateTest, ExecuteDispatchesAllInstructions)
{
    auto &del = sys_.delegateOf(0);

    InstResult r = del.execute(
        makeTaskInst(TaskFunct::SubmissionRequest, 1, 2), 3, 0);
    EXPECT_TRUE(r.success);

    TaskDescriptor desc;
    desc.swId = 21;
    const auto pkts = encodeNonZero(desc);
    r = del.execute(makeTaskInst(TaskFunct::SubmitPacket, 1, 2), pkts[0],
                    0);
    EXPECT_TRUE(r.success);
    const std::uint64_t rs1 =
        (static_cast<std::uint64_t>(pkts[1]) << 32) | pkts[2];
    // Remaining two packets via the pair-wise form is not possible (two
    // packets only); use two single submissions.
    r = del.execute(makeTaskInst(TaskFunct::SubmitPacket, 1, 2), pkts[1],
                    0);
    EXPECT_TRUE(r.success);
    r = del.execute(makeTaskInst(TaskFunct::SubmitPacket, 1, 2), pkts[2],
                    0);
    EXPECT_TRUE(r.success);
    (void)rs1;

    r = del.execute(makeTaskInst(TaskFunct::ReadyTaskRequest, 1), 0, 0);
    EXPECT_TRUE(r.success);

    auto *d = &del;
    sys_.simulator().run(
        [d] { return d->fetchSwId().has_value(); }, 20000);

    r = del.execute(makeTaskInst(TaskFunct::FetchSwId, 1), 0, 0);
    ASSERT_TRUE(r.success);
    EXPECT_EQ(r.value, 21u);
    r = del.execute(makeTaskInst(TaskFunct::FetchPicosId, 1), 0, 0);
    ASSERT_TRUE(r.success);

    r = del.execute(makeTaskInst(TaskFunct::RetireTask, 0, 1), r.value, 0);
    EXPECT_TRUE(r.success);
}

TEST_F(DelegateTest, FailureReturnsArchitecturalFailureValue)
{
    auto &del = sys_.delegateOf(0);
    const InstResult r =
        del.execute(makeTaskInst(TaskFunct::FetchSwId, 1), 0, 0);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.value, kFailureValue);
}

TEST_F(DelegateTest, SubmitThreeSplitsOperands)
{
    auto &del = sys_.delegateOf(0);
    ASSERT_TRUE(del.submissionRequest(3));
    // P1 = rs1[63:32], P2 = rs1[31:0], P3 = rs2[31:0] (Section IV-E3):
    // header of a zero-dep task with swId 0xAAAAAAAABBBBBBBB.
    const std::uint64_t rs1 = (0xAAAAAAAAull << 32) | 0xBBBBBBBBull;
    ASSERT_TRUE(del.submitThreePackets(rs1, 0));
    // The packets land in order; Picos decodes one clean descriptor and
    // the ready tuple carries the split swId back.
    ASSERT_TRUE(del.readyTaskRequest());
    auto *d = &del;
    sys_.simulator().run([d] { return d->fetchSwId().has_value(); },
                         20000);
    const auto sw = del.fetchSwId();
    ASSERT_TRUE(sw.has_value());
    EXPECT_EQ(*sw, 0xAAAAAAAABBBBBBBBull);
    EXPECT_EQ(sys_.scheduler().tasksProcessed(), 1u);
}
