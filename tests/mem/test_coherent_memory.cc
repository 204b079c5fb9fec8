/** @file Unit tests for the MESI L1 + memory model. */

#include <gtest/gtest.h>

#include "mem/coherent_memory.hh"

using namespace picosim;
using namespace picosim::mem;

namespace
{
MemParams
params()
{
    return MemParams{};
}
} // namespace

TEST(CoherentMemory, ColdReadMissesThenHits)
{
    CoherentMemory mem(2, params());
    const Cycle first = mem.read(0, 0x1000);
    const Cycle second = mem.read(0, 0x1000);
    EXPECT_GT(first, second);
    EXPECT_EQ(second, params().hitLatency);
    EXPECT_EQ(mem.lineState(0, 0x1000), LineState::Exclusive);
}

TEST(CoherentMemory, SameLineDifferentWordsHit)
{
    CoherentMemory mem(1, params());
    mem.read(0, 0x1000);
    EXPECT_EQ(mem.read(0, 0x1038), params().hitLatency); // same 64B line
}

TEST(CoherentMemory, SharedReadersBothShared)
{
    CoherentMemory mem(2, params());
    mem.read(0, 0x1000);
    mem.read(1, 0x1000);
    EXPECT_EQ(mem.lineState(0, 0x1000), LineState::Shared);
    EXPECT_EQ(mem.lineState(1, 0x1000), LineState::Shared);
}

TEST(CoherentMemory, WriteInvalidatesRemotes)
{
    CoherentMemory mem(2, params());
    mem.read(0, 0x1000);
    mem.read(1, 0x1000);
    mem.write(0, 0x1000);
    EXPECT_EQ(mem.lineState(0, 0x1000), LineState::Modified);
    EXPECT_EQ(mem.lineState(1, 0x1000), LineState::Invalid);
}

TEST(CoherentMemory, ExclusiveWriteHitsSilently)
{
    CoherentMemory mem(2, params());
    mem.read(0, 0x1000); // Exclusive
    EXPECT_EQ(mem.write(0, 0x1000), params().hitLatency);
    EXPECT_EQ(mem.lineState(0, 0x1000), LineState::Modified);
}

TEST(CoherentMemory, DirtyRemoteTransferGoesThroughMemory)
{
    CoherentMemory mem(2, params());
    mem.write(0, 0x1000); // Modified in core 0
    const Cycle lat = mem.read(1, 0x1000);
    // MESI: must include the dirty-through-memory penalty.
    EXPECT_GE(lat, params().hitLatency + params().missLatency +
                       params().dirtyRemoteExtra);
    EXPECT_EQ(mem.lineState(0, 0x1000), LineState::Shared);
    EXPECT_EQ(mem.lineState(1, 0x1000), LineState::Shared);
}

TEST(CoherentMemory, LineBouncingIsExpensive)
{
    CoherentMemory mem(2, params());
    // Two cores alternately writing the same line: every access pays the
    // dirty-remote + invalidate penalty after the first.
    mem.write(0, 0x2000);
    Cycle total = 0;
    for (int i = 0; i < 10; ++i)
        total += mem.write(i % 2, 0x2000);
    const Cycle bounce_avg = total / 10;
    EXPECT_GT(bounce_avg, params().missLatency);
}

TEST(CoherentMemory, AtomicCostsMoreThanWrite)
{
    CoherentMemory mem(1, params());
    mem.write(0, 0x3000);
    const Cycle w = mem.write(0, 0x3000);
    mem.reset();
    mem.write(0, 0x3000);
    const Cycle a = mem.atomicRmw(0, 0x3000);
    EXPECT_EQ(a, w + params().atomicExtra);
}

TEST(CoherentMemory, CapacityEviction)
{
    MemParams p = params();
    p.l1Sets = 2;
    p.l1Ways = 2;
    CoherentMemory mem(1, p);
    // Fill one set (same set index => stride of sets*lineBytes).
    const Addr stride = static_cast<Addr>(p.l1Sets) * p.lineBytes;
    mem.read(0, 0x0);
    mem.read(0, stride);
    mem.read(0, 2 * stride); // evicts 0x0 (LRU)
    EXPECT_EQ(mem.lineState(0, 0x0), LineState::Invalid);
    EXPECT_NE(mem.lineState(0, stride), LineState::Invalid);
}

TEST(CoherentMemory, WritingALineManyCoresHoldInvalidatesEveryCopy)
{
    const MemParams p = params();
    CoherentMemory mem(4, p);
    const auto stat = [&mem](const char *name) {
        return mem.stats().scalarValue(name);
    };
    for (CoreId c = 0; c < 4; ++c)
        mem.read(c, 0x4000);
    for (CoreId c = 0; c < 4; ++c)
        EXPECT_EQ(mem.lineState(c, 0x4000), LineState::Shared) << c;

    // Shared -> Modified upgrade: three remote copies invalidated.
    EXPECT_EQ(mem.write(2, 0x4000), p.hitLatency + p.invalidateExtra);
    EXPECT_EQ(stat("mem.upgrades"), 1.0);
    EXPECT_EQ(stat("mem.invalidations"), 3.0);
    for (CoreId c = 0; c < 4; ++c)
        EXPECT_EQ(mem.lineState(c, 0x4000),
                  c == 2 ? LineState::Modified : LineState::Invalid)
            << c;

    // A second writer misses and pulls the dirty line through memory.
    EXPECT_EQ(mem.write(0, 0x4000), p.hitLatency + p.missLatency +
                                        p.dirtyRemoteExtra +
                                        p.invalidateExtra);
    EXPECT_EQ(stat("mem.writeMisses"), 1.0);
    EXPECT_EQ(stat("mem.invalidations"), 4.0);
    EXPECT_EQ(stat("mem.dirtyRemoteTransfers"), 1.0);
    EXPECT_EQ(mem.lineState(2, 0x4000), LineState::Invalid);
    EXPECT_EQ(mem.lineState(0, 0x4000), LineState::Modified);

    // A reader downgrades the dirty owner; both end Shared.
    EXPECT_EQ(mem.read(3, 0x4000),
              p.hitLatency + p.missLatency + p.dirtyRemoteExtra);
    EXPECT_EQ(stat("mem.dirtyRemoteTransfers"), 2.0);
    EXPECT_EQ(stat("mem.invalidations"), 4.0);
    EXPECT_EQ(mem.lineState(0, 0x4000), LineState::Shared);
    EXPECT_EQ(mem.lineState(3, 0x4000), LineState::Shared);
}

TEST(CoherentMemory, FullSetEvictsItsLeastRecentlyUsedWay)
{
    MemParams p = params();
    p.l1Sets = 2;
    p.l1Ways = 4;
    CoherentMemory mem(2, p);
    const Addr stride = static_cast<Addr>(p.l1Sets) * p.lineBytes;
    for (Addr w = 0; w < 4; ++w)
        mem.write(0, w * stride); // set 0 of core 0 full, all Modified
    mem.read(0, 0);
    mem.read(0, 2 * stride); // LRU order now: 1, 3, 0, 2
    mem.read(1, 4 * stride); // core 1's ways of the set are its own

    mem.read(0, 4 * stride); // evicts line 1, which is dirty
    EXPECT_EQ(mem.lineState(0, stride), LineState::Invalid);
    EXPECT_EQ(mem.stats().scalarValue("mem.victimWritebacks"), 1.0);
    for (const Addr kept : {Addr{0}, 2 * stride, 3 * stride})
        EXPECT_EQ(mem.lineState(0, kept), LineState::Modified) << kept;
    EXPECT_EQ(mem.lineState(0, 4 * stride), LineState::Shared);
    EXPECT_EQ(mem.lineState(1, 4 * stride), LineState::Shared);

    mem.read(0, 5 * stride); // next LRU: line 3
    EXPECT_EQ(mem.lineState(0, 3 * stride), LineState::Invalid);
    EXPECT_EQ(mem.stats().scalarValue("mem.victimWritebacks"), 2.0);
    EXPECT_EQ(mem.lineState(1, 4 * stride), LineState::Shared);
}

TEST(CoherentMemory, StreamTouchChargesPerLine)
{
    CoherentMemory mem(1, params());
    const Cycle cold = mem.streamTouch(0, 0x10000, 8, false);
    const Cycle warm = mem.streamTouch(0, 0x10000, 8, false);
    EXPECT_GT(cold, warm);
    EXPECT_EQ(warm, 8 * params().hitLatency);
}

TEST(CoherentMemory, ResetDropsAllState)
{
    CoherentMemory mem(1, params());
    mem.write(0, 0x1000);
    mem.reset();
    EXPECT_EQ(mem.lineState(0, 0x1000), LineState::Invalid);
}

class FalseSharingTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FalseSharingTest, DistinctLinesDoNotInterfere)
{
    const unsigned ncores = GetParam();
    CoherentMemory mem(ncores, params());
    // Each core writes its own line: after warmup, all writes are hits.
    for (unsigned c = 0; c < ncores; ++c)
        mem.write(c, 0x8000 + c * 64);
    for (unsigned c = 0; c < ncores; ++c)
        EXPECT_EQ(mem.write(c, 0x8000 + c * 64), params().hitLatency);
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, FalseSharingTest,
                         ::testing::Values(1, 2, 4, 8));
