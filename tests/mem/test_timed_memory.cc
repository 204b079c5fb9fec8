/**
 * @file
 * Timed memory subsystem tests: the uncontended-equals-inline contract,
 * MESI dirty transfers through memory on the timed path, MSHR saturation
 * backpressure, streamTouch latency monotonicity in footprint,
 * same-cycle multi-core contention determinism across both kernels, and
 * the scheduling contract: timed memory is no kernel component, and
 * same-cycle bursts are served in core order.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "cpu/system.hh"
#include "sim/cotask.hh"

using namespace picosim;

namespace
{

cpu::SystemParams
timedParams(unsigned cores)
{
    cpu::SystemParams sp;
    sp.numCores = cores;
    sp.mem.mode = mem::MemMode::Timed;
    return sp;
}

/** Single blocking accesses: read misses, hits, upgrades, atomics. */
sim::CoTask<void>
mixedAccesses(cpu::HartApi &api)
{
    co_await api.read(0x1000);      // cold miss
    co_await api.read(0x1000);      // hit
    co_await api.write(0x1000);     // E -> M, local fast path
    co_await api.write(0x9000);     // cold write miss
    co_await api.atomicRmw(0x9000); // atomic on held line
}

} // namespace

TEST(TimedMemory, UncontendedBlockingAccessesMatchInline)
{
    const auto runOnce = [](mem::MemMode mode) {
        cpu::SystemParams sp;
        sp.numCores = 1;
        sp.mem.mode = mode;
        cpu::System sys(sp);
        sys.installThread(0, mixedAccesses(sys.hartApi(0)));
        EXPECT_TRUE(sys.run(100'000));
        return sys.clock().now();
    };
    // A single in-order hart never contends, so the timed subsystem must
    // charge exactly the inline functional latencies.
    EXPECT_EQ(runOnce(mem::MemMode::Timed),
              runOnce(mem::MemMode::Inline));
}

namespace
{

bool g_flag = false;

sim::CoTask<void>
dirtyProducer(cpu::HartApi &api)
{
    co_await api.write(0x4000); // line becomes Modified in core 0
    g_flag = true;
}

sim::CoTask<void>
dirtyConsumer(cpu::HartApi &api, const sim::Clock *clock, Cycle *elapsed)
{
    co_await sim::WaitUntil{[] { return g_flag; }};
    const Cycle t0 = clock->now();
    co_await api.read(0x4000); // dirty transfer through main memory
    *elapsed = clock->now() - t0;
}

} // namespace

TEST(TimedMemory, DirtyTransferThroughMemoryOnTimedPath)
{
    g_flag = false;
    cpu::System sys(timedParams(2));
    Cycle elapsed = 0;
    sys.installThread(0, dirtyProducer(sys.hartApi(0)));
    sys.installThread(1, dirtyConsumer(sys.hartApi(1), &sys.clock(),
                                       &elapsed));
    ASSERT_TRUE(sys.run(100'000));

    const mem::MemParams &mp = sys.params().mem;
    // The read pays the uncontended functional latency: hit + refill +
    // the through-memory dirty penalty MESI imposes (Section V-B).
    EXPECT_EQ(elapsed,
              mp.hitLatency + mp.missLatency + mp.dirtyRemoteExtra);
    EXPECT_EQ(sys.memory().stats().scalarValue("mem.dirtyRemoteTransfers"),
              1.0);
    EXPECT_EQ(sys.memory().lineState(1, 0x4000), mem::LineState::Shared);
    // A dirty transfer occupies main memory twice (writeback + refill).
    EXPECT_GE(sys.stats().scalarValue("port.dram.busyCycles"),
              static_cast<double>(3 * mp.memOccupancy));
}

namespace
{

sim::CoTask<void>
touchBurst(cpu::HartApi &api, Addr base, unsigned lines, Cycle *elapsed,
           const sim::Clock *clock)
{
    const Cycle t0 = clock->now();
    co_await api.streamTouch(base, lines, /*is_write=*/false);
    *elapsed = clock->now() - t0;
}

Cycle
burstCycles(unsigned mshrs, unsigned lines, mem::MemMode mode)
{
    cpu::SystemParams sp;
    sp.numCores = 1;
    sp.mem.mode = mode;
    sp.mem.mshrs = mshrs;
    cpu::System sys(sp);
    Cycle elapsed = 0;
    sys.installThread(0, touchBurst(sys.hartApi(0), 0x100000, lines,
                                    &elapsed, &sys.clock()));
    EXPECT_TRUE(sys.run(1'000'000));
    return elapsed;
}

} // namespace

TEST(TimedMemory, MshrSaturationBackpressure)
{
    // A cold 32-line burst with one MSHR serializes on completions; more
    // MSHRs expose more memory-level parallelism.
    const Cycle one = burstCycles(1, 32, mem::MemMode::Timed);
    const Cycle four = burstCycles(4, 32, mem::MemMode::Timed);
    const Cycle eight = burstCycles(8, 32, mem::MemMode::Timed);
    EXPECT_GT(one, four);
    EXPECT_GE(four, eight);

    // With a single MSHR the burst degenerates to the inline serial sum.
    const Cycle inl = burstCycles(1, 32, mem::MemMode::Inline);
    EXPECT_EQ(one, inl);
    EXPECT_LT(eight, inl);

    // The stall shows up in the backpressure counter.
    cpu::SystemParams sp;
    sp.numCores = 1;
    sp.mem.mode = mem::MemMode::Timed;
    sp.mem.mshrs = 1;
    cpu::System sys(sp);
    Cycle elapsed = 0;
    sys.installThread(0, touchBurst(sys.hartApi(0), 0x100000, 32, &elapsed,
                                    &sys.clock()));
    ASSERT_TRUE(sys.run(1'000'000));
    EXPECT_GT(sys.stats().scalarValue("mem.timed.mshrStallCycles"), 0.0);
}

TEST(TimedMemory, ZeroLineStreamTouchIsFreeInBothModes)
{
    // No lines means no traffic (and no MESI mutation) in either mode.
    EXPECT_EQ(burstCycles(4, 0, mem::MemMode::Timed), 0u);
    EXPECT_EQ(burstCycles(4, 0, mem::MemMode::Inline), 0u);
}

TEST(TimedMemory, StreamTouchLatencyMonotonicInFootprint)
{
    Cycle prev = 0;
    for (unsigned lines : {1u, 4u, 8u, 16u, 32u, 64u}) {
        const Cycle c = burstCycles(4, lines, mem::MemMode::Timed);
        EXPECT_GT(c, prev) << lines << " lines";
        prev = c;
    }
}

namespace
{

sim::CoTask<void>
contender(cpu::HartApi &api, Addr base, Cycle *end, const sim::Clock *clock)
{
    co_await api.streamTouch(base, 16, /*is_write=*/false);
    *end = clock->now();
}

Cycle
contendedRun(sim::EvalMode mode, unsigned cores)
{
    cpu::SystemParams sp;
    sp.numCores = cores;
    sp.mem.mode = mem::MemMode::Timed;
    sp.evalMode = mode;
    cpu::System sys(sp);
    std::vector<Cycle> ends(cores, 0);
    for (CoreId c = 0; c < cores; ++c)
        sys.installThread(c, contender(sys.hartApi(c),
                                       0x100000 + c * 0x10000, &ends[c],
                                       &sys.clock()));
    EXPECT_TRUE(sys.run(1'000'000));
    return sys.clock().now();
}

} // namespace

TEST(TimedMemory, SameCycleContentionIsDeterministicAcrossKernels)
{
    // Four cores fire cold bursts in the same cycle: the bus serializes
    // them, and the outcome must be identical run-to-run and between the
    // event-driven kernel and the tick-the-world reference.
    const Cycle a = contendedRun(sim::EvalMode::EventDriven, 4);
    const Cycle b = contendedRun(sim::EvalMode::EventDriven, 4);
    const Cycle w = contendedRun(sim::EvalMode::TickWorld, 4);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, w);

    // Contention must actually cost something vs a solo run.
    const Cycle solo = contendedRun(sim::EvalMode::EventDriven, 1);
    EXPECT_GT(a, solo);
}

TEST(TimedMemory, IsNotAKernelComponent)
{
    // A hart schedules its burst inside its own core's tick, so timed
    // memory adds no component for the kernel to evaluate.
    cpu::SystemParams inl;
    inl.numCores = 4;
    cpu::System inlineSys(inl);
    cpu::System timedSys(timedParams(4));
    ASSERT_NE(timedSys.timedMemory(), nullptr);
    EXPECT_EQ(timedSys.simulator().numComponents(),
              inlineSys.simulator().numComponents());
}

namespace
{

sim::CoTask<void>
coldRead(cpu::HartApi &api, Addr addr, Cycle *issued, Cycle *resumed,
         const sim::Clock *clock)
{
    *issued = clock->now();
    co_await api.read(addr);
    *resumed = clock->now();
}

} // namespace

TEST(TimedMemory, SameCycleBurstsAreServedInCoreOrder)
{
    // Four cores issue a cold read in the same cycle. Each miss holds the
    // bus, then main memory, so the reads are served one after another
    // in the order the cores tick: core c resumes c bottleneck
    // occupancies after the uncontended latency.
    constexpr unsigned kCores = 4;
    for (const sim::EvalMode mode :
         {sim::EvalMode::EventDriven, sim::EvalMode::TickWorld}) {
        cpu::SystemParams sp = timedParams(kCores);
        sp.evalMode = mode;
        cpu::System sys(sp);
        std::vector<Cycle> issued(kCores, 0), resumed(kCores, 0);
        for (CoreId c = 0; c < kCores; ++c)
            sys.installThread(c, coldRead(sys.hartApi(c),
                                          0x100000 + c * 0x10000,
                                          &issued[c], &resumed[c],
                                          &sys.clock()));
        ASSERT_TRUE(sys.run(100'000));

        const mem::MemParams &mp = sys.params().mem;
        const Cycle step = std::max(mp.busOccupancy(), mp.memOccupancy);
        for (CoreId c = 0; c < kCores; ++c) {
            EXPECT_EQ(issued[c], issued[0]) << "core " << c;
            EXPECT_EQ(resumed[c], issued[0] + mp.hitLatency +
                                      mp.missLatency + c * step)
                << "core " << c;
        }
    }
}
