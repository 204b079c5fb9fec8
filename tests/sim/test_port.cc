/**
 * @file
 * Unit tests of the timed port/interconnect primitives (sim/port.hh):
 * plain-FIFO behaviour, latency visibility, capacity backpressure,
 * same-cycle push/pop ordering, width arbitration, arbiter
 * FCFS occupancy accounting, contention statistics, and the owner-wake
 * contract against a live event-driven Simulator.
 */

#include <gtest/gtest.h>

#include "sim/kernel.hh"
#include "sim/port.hh"

using namespace picosim;
using namespace picosim::sim;

namespace
{

/** Consumer stub: drains its port one element per tick and logs cycles. */
class Drain : public Ticked
{
  public:
    Drain(const Clock &clock, TimedPort<int> *&port)
        : Ticked("drain"), clock_(clock), port_(port)
    {
    }

    void
    tick() override
    {
        if (port_->frontReady()) {
            popped.push_back({clock_.now(), port_->pop()});
        }
    }

    bool active() const override { return port_->frontReady(); }
    Cycle wakeAt() const override { return port_->nextReadyCycle(); }

    std::vector<std::pair<Cycle, int>> popped;

  private:
    const Clock &clock_;
    TimedPort<int> *&port_;
};

} // namespace

TEST(TimedPort, LatencyHidesElementsFromConsumer)
{
    Clock clock;
    TimedPort<int> port(clock, {4, /*latency=*/2, 0});
    EXPECT_TRUE(port.push(7));
    EXPECT_FALSE(port.frontReady());
    EXPECT_EQ(port.nextReadyCycle(), 2u);
    clock.advanceTo(1);
    EXPECT_FALSE(port.frontReady());
    clock.advanceTo(2);
    ASSERT_TRUE(port.frontReady());
    EXPECT_EQ(port.pop(), 7);
}

TEST(TimedPort, CapacityBackpressureCountsStalls)
{
    Clock clock;
    StatGroup stats;
    TimedPort<int> port(clock, {2, 0, 0}, &stats, "p");
    EXPECT_TRUE(port.push(1));
    EXPECT_TRUE(port.push(2));
    EXPECT_TRUE(port.full());
    EXPECT_FALSE(port.canPush());
    EXPECT_FALSE(port.push(3));
    EXPECT_FALSE(port.push(4));
    EXPECT_EQ(stats.scalarValue("p.pushes"), 2.0);
    EXPECT_EQ(stats.scalarValue("p.pushStalls"), 2.0);
    EXPECT_EQ(stats.dist("p.queued").max(), 2.0);
}

TEST(TimedPort, WidthSerializesSameCycleAcceptance)
{
    Clock clock;
    clock.advanceTo(5);
    TimedPort<int> port(clock, {8, /*latency=*/1, /*width=*/1});
    ASSERT_TRUE(port.push(0)); // accepted at 5, visible at 6
    ASSERT_TRUE(port.push(1)); // accepted at 6, visible at 7
    ASSERT_TRUE(port.push(2)); // accepted at 7, visible at 8
    for (Cycle c = 6; c <= 8; ++c) {
        clock.advanceTo(c);
        ASSERT_TRUE(port.frontReady()) << "cycle " << c;
        EXPECT_EQ(port.pop(), static_cast<int>(c - 6));
        EXPECT_FALSE(port.frontReady());
    }
}

TEST(TimedPort, WidthTwoAcceptsPairsPerCycle)
{
    Clock clock;
    TimedPort<int> port(clock, {8, 0, /*width=*/2});
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(port.push(i));
    // Two visible now, two at the next cycle.
    EXPECT_TRUE(port.frontReady());
    EXPECT_EQ(port.pop(), 0);
    EXPECT_EQ(port.pop(), 1);
    EXPECT_FALSE(port.frontReady());
    clock.advanceTo(1);
    EXPECT_EQ(port.pop(), 2);
    EXPECT_EQ(port.pop(), 3);
}

TEST(TimedPort, OwnerWokenThroughKernelOnPush)
{
    Simulator sim;
    TimedPort<int> *port = nullptr;
    Drain drain(sim.clock(), port);
    TimedPort<int> p(sim.clock(), {4, /*latency=*/3, 0}, nullptr, "",
                     &drain);
    port = &p;
    sim.addTicked(&drain);
    sim.runFor(1); // initial evaluation; port empty, drain goes idle

    ASSERT_TRUE(p.push(42));
    sim.run([&] { return !drain.popped.empty(); }, 100);
    ASSERT_EQ(drain.popped.size(), 1u);
    // Pushed at cycle 1 (after runFor(1)), visible at 1 + 3.
    EXPECT_EQ(drain.popped[0].first, 4u);
    EXPECT_EQ(drain.popped[0].second, 42);
}

// -- TimedPort as a plain FIFO ----------------------------------------------
//
// No owner, no stats, width 0: the configuration of Picos's
// protocol-crossing queues, which model timed hardware FIFOs (hence the
// suite names).

TEST(TimedFifo, StartsEmpty)
{
    Clock clk;
    TimedPort<int> q(clk, {4});
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.full());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_FALSE(q.frontReady());
    EXPECT_EQ(q.nextReadyCycle(), kCycleNever);
}

TEST(TimedFifo, ZeroLatencyIsFallthrough)
{
    Clock clk;
    TimedPort<int> q(clk, {4, 0});
    EXPECT_TRUE(q.push(7));
    EXPECT_TRUE(q.frontReady());
    EXPECT_EQ(q.front(), 7);
    EXPECT_EQ(q.pop(), 7);
    EXPECT_TRUE(q.empty());
}

TEST(TimedFifo, LatencyDelaysVisibility)
{
    Clock clk;
    TimedPort<int> q(clk, {4, 2});
    q.push(1);
    EXPECT_FALSE(q.frontReady());
    EXPECT_EQ(q.nextReadyCycle(), 2u);
    clk.advanceTo(1);
    EXPECT_FALSE(q.frontReady());
    clk.advanceTo(2);
    EXPECT_TRUE(q.frontReady());
    EXPECT_EQ(q.pop(), 1);
}

TEST(TimedFifo, RespectsCapacity)
{
    Clock clk;
    TimedPort<int> q(clk, {2});
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_TRUE(q.full());
    EXPECT_FALSE(q.canPush());
    EXPECT_FALSE(q.push(3));
    EXPECT_EQ(q.pop(), 1);
    EXPECT_TRUE(q.push(3));
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 3);
}

TEST(TimedFifo, FifoOrderPreserved)
{
    Clock clk;
    TimedPort<int> q(clk, {8, 1});
    for (int i = 0; i < 5; ++i)
        q.push(i);
    clk.advanceTo(1);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(q.pop(), i);
}

TEST(TimedFifo, ClearEmptiesQueue)
{
    Clock clk;
    TimedPort<int> q(clk, {4});
    q.push(1);
    q.push(2);
    q.clear();
    EXPECT_TRUE(q.empty());
}

TEST(TimedFifo, MixedAgeFrontGatesYoungerEntries)
{
    Clock clk;
    TimedPort<int> q(clk, {4, 1});
    q.push(1); // ready at 1
    clk.advanceTo(5);
    q.push(2); // ready at 6
    EXPECT_TRUE(q.frontReady());
    EXPECT_EQ(q.pop(), 1);
    // Second entry not ready yet.
    EXPECT_FALSE(q.frontReady());
    EXPECT_EQ(q.nextReadyCycle(), 6u);
}

TEST(TimedFifo, SameCyclePopDoesNotUnblockCanPush)
{
    // Audited same-cycle ordering (see the file comment in port.hh):
    // canPush() reflects occupancy at the call, so a producer refused
    // this cycle stays refused even if the consumer pops later in the
    // same cycle — the freed slot becomes pushable next cycle. This is
    // what makes throughput independent of component evaluation order.
    Clock clk;
    TimedPort<int> q(clk, {1, 1});
    ASSERT_TRUE(q.push(1));
    clk.advanceTo(1);
    // Producer evaluated first: refused while the consumer's pop is
    // still pending this cycle.
    EXPECT_FALSE(q.canPush());
    EXPECT_FALSE(q.push(2));
    // Consumer evaluated second: the pop frees the slot too late for
    // the refused producer.
    EXPECT_TRUE(q.frontReady());
    EXPECT_EQ(q.pop(), 1);
    // The slot is usable from the producer's next evaluation on.
    EXPECT_TRUE(q.canPush());
    EXPECT_TRUE(q.push(2));
    EXPECT_FALSE(q.frontReady()); // latency 1: visible at cycle 2
    clk.advanceTo(2);
    EXPECT_EQ(q.pop(), 2);
}

class TimedFifoLatencyTest : public ::testing::TestWithParam<Cycle>
{
};

TEST_P(TimedFifoLatencyTest, NextReadyMatchesLatency)
{
    Clock clk;
    clk.advanceTo(10);
    TimedPort<int> q(clk, {4, GetParam()});
    q.push(42);
    EXPECT_EQ(q.nextReadyCycle(), 10 + GetParam());
    clk.advanceTo(10 + GetParam());
    EXPECT_TRUE(q.frontReady());
}

INSTANTIATE_TEST_SUITE_P(Latencies, TimedFifoLatencyTest,
                         ::testing::Values(0, 1, 2, 3, 8));

TEST(Arbiter, GrantsSerializeWithOccupancy)
{
    Arbiter arb(nullptr, "");
    EXPECT_EQ(arb.grant(10, 4), 10u); // idle: served at ready
    EXPECT_EQ(arb.grant(10, 4), 14u); // queued behind the first
    EXPECT_EQ(arb.grant(12, 4), 18u); // still queued
    EXPECT_EQ(arb.grant(40, 4), 40u); // resource long free again
    EXPECT_EQ(arb.freeAt(), 44u);
}

TEST(Arbiter, StatsRecordStallAndBusyCycles)
{
    StatGroup stats;
    Arbiter arb(&stats, "bus");
    arb.grant(0, 8);
    arb.grant(0, 8); // waits 8 cycles
    EXPECT_EQ(stats.scalarValue("bus.grants"), 2.0);
    EXPECT_EQ(stats.scalarValue("bus.busyCycles"), 16.0);
    EXPECT_EQ(stats.scalarValue("bus.stallCycles"), 8.0);
}

TEST(LinkTimings, DefaultsAreCombinational)
{
    LinkTimings link;
    EXPECT_EQ(link.issue, 0u);
    EXPECT_EQ(link.response, 0u);
}
