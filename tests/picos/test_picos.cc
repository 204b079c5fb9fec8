/** @file Unit tests for the Picos accelerator model. */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "picos/picos.hh"
#include "rocc/task_packets.hh"
#include "sim/clock.hh"
#include "sim/kernel.hh"
#include "sim/stats.hh"

using namespace picosim;
using namespace picosim::picos;
using namespace picosim::rocc;

namespace
{

class PicosTest : public ::testing::Test
{
  protected:
    PicosTest() : picos_(clock_, PicosParams{}, stats_) {}

    void
    step(unsigned n = 1)
    {
        for (unsigned i = 0; i < n; ++i) {
            picos_.tick();
            clock_.advanceTo(clock_.now() + 1);
        }
    }

    /** Push a full padded descriptor, ticking as needed. */
    void
    submit(std::uint64_t sw_id, std::vector<TaskDep> deps)
    {
        TaskDescriptor desc;
        desc.swId = sw_id;
        desc.deps = std::move(deps);
        auto pkts = encodeNonZero(desc);
        pkts.resize(kDescriptorPackets, 0);
        for (std::uint32_t p : pkts) {
            while (!picos_.subPush(p))
                step();
        }
    }

    /** Tick until a ready tuple appears; nullopt on timeout. */
    std::optional<ReadyTuple>
    awaitReady(unsigned budget = 1000)
    {
        std::uint32_t buf[3];
        unsigned got = 0;
        for (unsigned i = 0; i < budget && got < 3; ++i) {
            if (picos_.readyValid())
                buf[got++] = picos_.readyPop();
            else
                step();
        }
        if (got < 3)
            return std::nullopt;
        ReadyTuple t;
        t.picosId = buf[0];
        t.swId = (static_cast<std::uint64_t>(buf[1]) << 32) | buf[2];
        return t;
    }

    void
    retire(std::uint32_t picos_id)
    {
        while (!picos_.retirePush(picos_id))
            step();
    }

    sim::Clock clock_;
    sim::StatGroup stats_;
    Picos picos_;
};

} // namespace

TEST_F(PicosTest, IndependentTaskBecomesReady)
{
    submit(42, {{0x1000, Dir::Out}});
    const auto t = awaitReady();
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->swId, 42u);
    EXPECT_EQ(picos_.taskState(t->picosId), TaskState::Running);
    EXPECT_EQ(picos_.inFlightTasks(), 1u);
}

TEST_F(PicosTest, ZeroDepTaskIsReadyImmediately)
{
    submit(7, {});
    const auto t = awaitReady();
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->swId, 7u);
}

TEST_F(PicosTest, RawDependenceBlocksReader)
{
    submit(1, {{0x1000, Dir::Out}});
    submit(2, {{0x1000, Dir::In}});
    const auto t1 = awaitReady();
    ASSERT_TRUE(t1.has_value());
    EXPECT_EQ(t1->swId, 1u);
    // Task 2 must not be ready while task 1 is in flight.
    step(200);
    EXPECT_FALSE(picos_.readyValid());
    retire(t1->picosId);
    const auto t2 = awaitReady();
    ASSERT_TRUE(t2.has_value());
    EXPECT_EQ(t2->swId, 2u);
}

TEST_F(PicosTest, WawDependenceSerializesWriters)
{
    submit(1, {{0x2000, Dir::Out}});
    submit(2, {{0x2000, Dir::Out}});
    const auto t1 = awaitReady();
    ASSERT_TRUE(t1 && t1->swId == 1u);
    step(200);
    EXPECT_FALSE(picos_.readyValid());
    retire(t1->picosId);
    const auto t2 = awaitReady();
    ASSERT_TRUE(t2 && t2->swId == 2u);
}

TEST_F(PicosTest, WarDependenceBlocksWriterOnReaders)
{
    submit(1, {{0x3000, Dir::Out}});
    const auto t1 = awaitReady();
    ASSERT_TRUE(t1.has_value());
    retire(t1->picosId);

    submit(2, {{0x3000, Dir::In}});
    submit(3, {{0x3000, Dir::In}});
    submit(4, {{0x3000, Dir::Out}}); // WAR on 2 and 3
    const auto t2 = awaitReady();
    const auto t3 = awaitReady();
    ASSERT_TRUE(t2 && t3);
    EXPECT_EQ(t2->swId, 2u);
    EXPECT_EQ(t3->swId, 3u);
    step(200);
    EXPECT_FALSE(picos_.readyValid()); // writer still blocked
    retire(t2->picosId);
    step(200);
    EXPECT_FALSE(picos_.readyValid()); // one reader left
    retire(t3->picosId);
    const auto t4 = awaitReady();
    ASSERT_TRUE(t4 && t4->swId == 4u);
}

TEST_F(PicosTest, ParallelReadersAllReady)
{
    for (std::uint64_t i = 0; i < 5; ++i)
        submit(i, {{0x4000, Dir::In}});
    for (std::uint64_t i = 0; i < 5; ++i) {
        const auto t = awaitReady();
        ASSERT_TRUE(t.has_value()) << "reader " << i;
    }
}

TEST_F(PicosTest, ChainExecutesInOrder)
{
    const unsigned n = 10;
    for (std::uint64_t i = 0; i < n; ++i)
        submit(i, {{0x5000, Dir::InOut}});
    for (std::uint64_t i = 0; i < n; ++i) {
        const auto t = awaitReady();
        ASSERT_TRUE(t.has_value()) << "task " << i;
        EXPECT_EQ(t->swId, i);
        step(50);
        EXPECT_FALSE(picos_.readyValid()); // strictly serial
        retire(t->picosId);
    }
    // Everything retires; Picos drains.
    step(100);
    EXPECT_TRUE(picos_.quiescent());
}

TEST_F(PicosTest, RetireFreesReservationEntry)
{
    submit(1, {});
    const auto t = awaitReady();
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(picos_.inFlightTasks(), 1u);
    retire(t->picosId);
    step(100);
    EXPECT_EQ(picos_.inFlightTasks(), 0u);
    EXPECT_EQ(picos_.tasksRetired(), 1u);
}

TEST_F(PicosTest, BadRetireIsCountedNotFatal)
{
    retire(99); // nothing in flight
    step(100);
    EXPECT_GE(stats_.scalarValue("picos.badRetires"), 1.0);
}

TEST_F(PicosTest, FifteenDepsDescriptorWorks)
{
    std::vector<TaskDep> deps;
    for (unsigned i = 0; i < 15; ++i)
        deps.push_back({0x6000ull + i * 64, Dir::Out});
    submit(123, deps);
    const auto t = awaitReady();
    ASSERT_TRUE(t && t->swId == 123u);
}

TEST_F(PicosTest, DiamondDependence)
{
    // 1 -> {2,3} -> 4
    submit(1, {{0x7000, Dir::Out}});
    submit(2, {{0x7000, Dir::In}, {0x7040, Dir::Out}});
    submit(3, {{0x7000, Dir::In}, {0x7080, Dir::Out}});
    submit(4, {{0x7040, Dir::In}, {0x7080, Dir::In}});
    auto t1 = awaitReady();
    ASSERT_TRUE(t1 && t1->swId == 1u);
    retire(t1->picosId);
    auto t2 = awaitReady();
    auto t3 = awaitReady();
    ASSERT_TRUE(t2 && t3);
    EXPECT_EQ(t2->swId + t3->swId, 5u); // 2 and 3, either order
    step(100);
    EXPECT_FALSE(picos_.readyValid());
    retire(t2->picosId);
    step(100);
    EXPECT_FALSE(picos_.readyValid());
    retire(t3->picosId);
    auto t4 = awaitReady();
    ASSERT_TRUE(t4 && t4->swId == 4u);
}

TEST_F(PicosTest, ThroughputBoundedByPacketIngest)
{
    // 48 packets/task at 1 packet/cycle: N tasks need >= 48*N cycles.
    const unsigned n = 8;
    const Cycle start = clock_.now();
    for (std::uint64_t i = 0; i < n; ++i) {
        submit(i, {});
        const auto t = awaitReady(10000);
        ASSERT_TRUE(t.has_value());
        retire(t->picosId);
    }
    EXPECT_GE(clock_.now() - start, 48u * n);
}

TEST(PicosCapacity, TrsFullExertsBackpressure)
{
    sim::Clock clock;
    sim::StatGroup stats;
    PicosParams p;
    p.trsEntries = 2;
    Picos picos(clock, p, stats);

    auto push_desc = [&](std::uint64_t id) {
        TaskDescriptor d;
        d.swId = id;
        d.deps = {{0x9000, Dir::InOut}}; // chain: nothing retires
        auto pkts = encodeNonZero(d);
        pkts.resize(kDescriptorPackets, 0);
        unsigned pushed = 0;
        for (unsigned i = 0; i < 5000 && pushed < pkts.size(); ++i) {
            if (picos.subPush(pkts[pushed]))
                ++pushed;
            picos.tick();
            clock.advanceTo(clock.now() + 1);
        }
        return pushed == pkts.size();
    };

    EXPECT_TRUE(push_desc(1));
    EXPECT_TRUE(push_desc(2));
    // The third descriptor parks in the 64-packet submission queue (the
    // gateway no longer consumes), so the fourth cannot be accepted.
    EXPECT_TRUE(push_desc(3));
    EXPECT_FALSE(push_desc(4));
    EXPECT_GE(stats.scalarValue("picos.trsStalls"), 1.0);
}

TEST(PicosCapacity, DepTableConflictStallsNotCorrupts)
{
    sim::Clock clock;
    sim::StatGroup stats;
    PicosParams p;
    p.dctSets = 1;
    p.dctWays = 2; // only two live addresses at a time
    Picos picos(clock, p, stats);

    auto submit_and_tick = [&](std::uint64_t id, Addr a) {
        TaskDescriptor d;
        d.swId = id;
        d.deps = {{a, Dir::Out}};
        auto pkts = encodeNonZero(d);
        pkts.resize(kDescriptorPackets, 0);
        unsigned pushed = 0;
        for (unsigned i = 0; i < 20000 && pushed < pkts.size(); ++i) {
            if (picos.subPush(pkts[pushed]))
                ++pushed;
            picos.tick();
            clock.advanceTo(clock.now() + 1);
        }
    };

    submit_and_tick(1, 0x100);
    submit_and_tick(2, 0x200);
    submit_and_tick(3, 0x300); // no free way while 1 and 2 live

    // Without retirement, the gateway must stall on the full set: only
    // the first two descriptors complete processing.
    for (unsigned i = 0; i < 300; ++i) {
        picos.tick();
        clock.advanceTo(clock.now() + 1);
    }
    EXPECT_EQ(picos.tasksProcessed(), 2u);
    EXPECT_GE(stats.scalarValue("picos.depTableStalls"), 1.0);

    // Drain: pop ready tasks and retire them; eventually all three retire.
    unsigned retired = 0;
    std::uint32_t buf[3];
    unsigned got = 0;
    for (unsigned i = 0; i < 50000 && retired < 3; ++i) {
        if (picos.readyValid()) {
            buf[got++] = picos.readyPop();
            if (got == 3) {
                got = 0;
                picos.retirePush(buf[0]);
                ++retired;
            }
        }
        picos.tick();
        clock.advanceTo(clock.now() + 1);
    }
    EXPECT_EQ(retired, 3u);
    EXPECT_GE(stats.scalarValue("picos.depTableStalls"), 1.0);
}

namespace
{

/**
 * Picos on the event-driven kernel, alone: the kernel's tick count shows
 * exactly when Picos is evaluated.
 */
class PicosWake
{
  public:
    explicit PicosWake(const PicosParams &p)
        : picos(sim.clock(), p, sim.stats())
    {
        sim.addTicked(&picos);
    }

    void
    submit(std::uint64_t sw_id, std::vector<TaskDep> deps)
    {
        TaskDescriptor desc;
        desc.swId = sw_id;
        desc.deps = std::move(deps);
        auto pkts = encodeNonZero(desc);
        pkts.resize(kDescriptorPackets, 0);
        for (std::uint32_t p : pkts) {
            while (!picos.subPush(p))
                sim.runFor(1);
        }
    }

    /** Pop one ready tuple (its packets must be visible). */
    std::uint32_t
    popTuple()
    {
        EXPECT_TRUE(picos.readyValid());
        const std::uint32_t id = picos.readyPop();
        picos.readyPop();
        picos.readyPop();
        return id;
    }

    /** True when Picos re-arms for the next cycle on its own. */
    bool
    selfDueNext() const
    {
        const Cycle next = sim.clock().now() + 1;
        return picos.nextSelfDue(next) <= next;
    }

    /** Run @p n cycles and return how many times Picos was ticked. */
    std::uint64_t
    ticksOver(Cycle n)
    {
        const std::uint64_t before = sim.componentTicks();
        sim.runFor(n);
        return sim.componentTicks() - before;
    }

    double
    stat(const char *name)
    {
        return sim.stats().scalarValue(name);
    }

    sim::Simulator sim;
    Picos picos;
};

} // namespace

TEST(PicosNoPoll, FullReadyQueueSleepsUntilReadyPop)
{
    PicosWake w(PicosParams{});
    // 24-packet ready queue: eight tuples fit, the ninth waits for room.
    for (std::uint64_t i = 0; i < 10; ++i)
        w.submit(i, {});
    w.sim.runFor(2000);
    ASSERT_EQ(w.stat("picos.readyIssued"), 8.0);
    EXPECT_FALSE(w.selfDueNext());
    EXPECT_EQ(w.ticksOver(1000), 0u);

    w.popTuple(); // frees room for one tuple: Picos is woken
    EXPECT_GT(w.ticksOver(100), 0u);
    EXPECT_EQ(w.stat("picos.readyIssued"), 9.0);
}

TEST(PicosNoPoll, StalledGatewaySleepsUntilRetirement)
{
    PicosParams p;
    p.dctSets = 1;
    p.dctWays = 1;
    PicosWake w(p);
    w.submit(1, {{0x100, Dir::Out}});
    w.submit(2, {{0x200, Dir::Out}}); // needs the way task 1 holds
    w.sim.runFor(500);
    const std::uint32_t first = w.popTuple();
    w.sim.runFor(10);
    ASSERT_TRUE(w.picos.depTableStalled());
    EXPECT_FALSE(w.selfDueNext());

    // Asleep, yet the counter reads what retrying every cycle counts.
    const double before = w.stat("picos.depTableStalls");
    EXPECT_EQ(w.ticksOver(1000), 0u);
    EXPECT_EQ(w.stat("picos.depTableStalls"), before + 1000.0);

    ASSERT_TRUE(w.picos.retirePush(first));
    w.sim.runFor(200);
    EXPECT_FALSE(w.picos.depTableStalled());
    EXPECT_EQ(w.picos.tasksProcessed(), 2u);
}

TEST(PicosNoPoll, TrsStallSleepsUntilRetirement)
{
    PicosParams p;
    p.trsEntries = 1;
    PicosWake w(p);
    w.submit(1, {});
    w.submit(2, {}); // parks in the submission queue: no TRS entry
    w.sim.runFor(500);
    const std::uint32_t first = w.popTuple();
    w.sim.runFor(10);
    ASSERT_TRUE(w.picos.trsStalled());
    EXPECT_FALSE(w.selfDueNext());

    const double before = w.stat("picos.trsStalls");
    EXPECT_EQ(w.ticksOver(1000), 0u);
    EXPECT_EQ(w.stat("picos.trsStalls"), before + 1000.0);

    ASSERT_TRUE(w.picos.retirePush(first));
    w.sim.runFor(200);
    EXPECT_FALSE(w.picos.trsStalled());
    EXPECT_EQ(w.picos.tasksProcessed(), 2u);
}

TEST(PicosNoPoll, WakeupDuringAStalledWalkWaitsForTheWalk)
{
    // One set of two ways. Producers A and B hold both ways; consumer C
    // reads A's address (an edge to A), then a third address, whose
    // allocation stalls the walk on the full set.
    PicosParams p;
    p.dctSets = 1;
    p.dctWays = 2;
    PicosWake w(p);
    w.submit(1, {{0x100, Dir::Out}});                   // A
    w.submit(2, {{0x200, Dir::Out}});                   // B
    w.submit(3, {{0x100, Dir::In}, {0x300, Dir::In}}); // C
    w.sim.runFor(500);
    const std::uint32_t a = w.popTuple();
    const std::uint32_t b = w.popTuple();
    ASSERT_TRUE(w.picos.depTableStalled());
    ASSERT_EQ(w.stat("picos.depEdges"), 1.0);

    // A retires: C's only edge resolves mid-walk, yet C is not issued,
    // since its remaining dependence may still add edges.
    ASSERT_TRUE(w.picos.retirePush(a));
    w.sim.runFor(500);
    EXPECT_TRUE(w.picos.depTableStalled());
    EXPECT_FALSE(w.picos.readyValid());
    EXPECT_EQ(w.stat("picos.readyIssued"), 2.0);

    // B's retirement frees a way: the walk completes and readies C.
    ASSERT_TRUE(w.picos.retirePush(b));
    w.sim.runFor(500);
    EXPECT_FALSE(w.picos.depTableStalled());
    EXPECT_EQ(w.picos.tasksProcessed(), 3u);
    ASSERT_TRUE(w.picos.readyValid());
    EXPECT_EQ(w.picos.taskState(w.popTuple()), TaskState::Running);
}
